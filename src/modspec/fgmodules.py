"""Finitely generated modules over Z and Z/n in canonical form.

A presented module is normalized to its invariant-factor decomposition
M = Z/e_1 + ... + Z/e_t + Z^r with e_1 | e_2 | ... | e_t (each > 1) via the
Smith normal form of the relation matrix; over Z/n the relations n*g_i are
appended so one normal-form engine serves both rings.  Elements live in the
canonical coordinates; submodules are the sublattices of Z^(t+r) between the
relation lattice and the full lattice, stored as row Hermite normal forms,
so structural equality is submodule equality.

Where the answer is diagonal it is read off the invariant factors, with no
normal-form computation: the zero submodule is the relation lattice
diag(e_i), already in HNF; fM is diag(gcd(f, e_i), |f|) with zero rows
dropped; and the colon (N : M) of a full-rank diagonal basis is the lcm of
its diagonal.  HNF and SNF serve every other submodule.

A finite module is the direct sum of its p-primary parts, and the stalks,
localizations and sections built on it are taken prime by prime.
``FgModule.primary`` is the one place that splits a module into those
parts: it factors the largest invariant factor once per module object and
maps each prime p to the p-parts of the invariant factors.  Every other
layer reads its primes and p-parts from there.

The Pruefer group Z(p^oo) is carried as a special module kind (divisible,
torsion, zero annihilator): it is not finitely presented, and only the
operations its role as a counterexample needs are defined.  It has no
canonical coordinates, so no elements and no submodules; the colon
(fM : M) = (f) + Ann(M) of every module is read off the scalar by
``scalar_colon``, with no submodule built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .arith import ZZ, Ideal, Ring, ideal, is_prime, p_part, prime_divisors
from .lattices import (
    Basis,
    hnf,
    lattice_contains,
    lattice_index,
    lattice_intersection,
    lattice_leq,
    lattice_sum,
    smith_column_orders,
    smith_diagonal,
)

DEFAULT_CARDINALITY_CAP = 4096
DEFAULT_SUBGROUP_CAP = 512


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured cardinality cap."""


def refuse_over_cap(quantity: str, count: int, cap_name: str, cap: int) -> None:
    """Raise ``CapExceededError`` naming the quantity, its value and the cap
    when ``count`` exceeds ``cap``."""
    if count > cap:
        raise CapExceededError(f"{quantity} = {count} exceeds the {cap_name} cap {cap}")


class UnsupportedModuleError(ValueError):
    """The operation is not defined for this module kind."""


@dataclass(frozen=True)
class FgModule:
    ring: Ring
    factors: tuple[int, ...] = ()
    free_rank: int = 0
    prufer_prime: int | None = None

    def __post_init__(self):
        if self.ring.is_localized:
            raise ValueError("modules are presented over the base rings Z and Z/n")
        if self.prufer_prime is not None:
            if self.ring != ZZ:
                raise ValueError("the Pruefer group is a Z-module")
            if not is_prime(self.prufer_prime):
                raise ValueError(f"{self.prufer_prime} is not prime")
            if self.factors or self.free_rank:
                raise ValueError("Pruefer modules carry no canonical factors")
            return
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        n = self.ring.modulus
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisibility chain: {self.factors}")
        for e in self.factors:
            if e < 2:
                raise ValueError("invariant factors are > 1")
            if n is not None and n % e:
                raise ValueError(f"factor {e} does not divide the modulus {n}")
        if n is not None and self.free_rank:
            raise ValueError("modules over Z/n are torsion")

    # -- classification ----------------------------------------------------

    @property
    def is_prufer(self) -> bool:
        return self.prufer_prime is not None

    @property
    def is_finite(self) -> bool:
        return not self.is_prufer and self.free_rank == 0

    @property
    def is_zero(self) -> bool:
        return self.is_finite and not self.factors

    @property
    def cardinality(self) -> int | None:
        return math.prod(self.factors) if self.is_finite else None

    @property
    def rank(self) -> int:
        """Number of canonical coordinates."""
        if self.is_prufer:
            raise UnsupportedModuleError("the Pruefer group has no canonical coordinates")
        return len(self.factors) + self.free_rank

    def annihilator(self) -> Ideal:
        if self.is_prufer or self.free_rank:
            return ideal(self.ring, 0)
        return ideal(self.ring, self.exponent)

    @property
    def exponent(self) -> int:
        if not self.is_finite:
            raise UnsupportedModuleError("infinite module")
        return self.factors[-1] if self.factors else 1

    @property
    def primary(self) -> Mapping[int, tuple[int, ...]]:
        """Each prime p dividing the largest invariant factor, in ascending
        order, mapped to the p-parts of all invariant factors (1 where p
        does not divide).  The product over p of the i-th entries is the
        i-th factor.  Free rank contributes nothing; computed once per
        module object."""
        cached = getattr(self, "_primary", None)
        if cached is not None:
            return cached
        if self.is_prufer:
            raise UnsupportedModuleError("the Pruefer group has no invariant factors")
        primes = prime_divisors(self.factors[-1]) if self.factors else ()
        parts = MappingProxyType({p: tuple(p_part(e, p) for e in self.factors) for p in primes})
        # set like a field: functools.cached_property writes through __dict__,
        # which on CPython 3.11 makes later attribute reads about 3x slower
        object.__setattr__(self, "_primary", parts)
        return parts

    def __getstate__(self):
        # pickle and copy the fields alone, not what is kept on the object
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def relevant_primes(self) -> tuple[int, ...]:
        """Primes p with (p) containing the annihilator; finite modules only."""
        if not self.is_finite:
            raise UnsupportedModuleError("the relevant prime set is infinite")
        return tuple(self.primary)

    # -- elements -----------------------------------------------------------

    def reduce_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        out = []
        for i, c in enumerate(coords):
            c = int(c)
            out.append(c % self.factors[i] if i < len(self.factors) else c)
        return tuple(out)

    def element(self, coords: Sequence[int]) -> ModElement:
        return ModElement(self, self.reduce_coords(coords))

    def zero_element(self) -> ModElement:
        return self.element([0] * self.rank)

    def generator(self, i: int) -> ModElement:
        coords = [0] * self.rank
        coords[i] = 1
        return self.element(coords)

    def generators(self) -> tuple[ModElement, ...]:
        return tuple(self.generator(i) for i in range(self.rank))

    def elements(self, cap: int = DEFAULT_CARDINALITY_CAP) -> Iterator[ModElement]:
        card = self.cardinality
        if card is None:
            raise UnsupportedModuleError("cannot enumerate an infinite module")
        refuse_over_cap("|M|", card, "cardinality", cap)
        for coords in itertools.product(*(range(e) for e in self.factors)):
            yield ModElement(self, coords)

    # -- canonical lattice data ----------------------------------------------

    def relation_rows(self) -> Basis:
        d = self.rank
        rows = []
        for i, e in enumerate(self.factors):
            row = [0] * d
            row[i] = e
            rows.append(tuple(row))
        return tuple(rows)

    def zero_submodule(self) -> Submodule:
        # diag(e_1, ..., e_t) is already in HNF
        return Submodule(self, self.relation_rows())

    def full_submodule(self) -> Submodule:
        d = self.rank
        rows = tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))
        return Submodule(self, rows)

    def __str__(self) -> str:
        if self.is_prufer:
            return f"Z({self.prufer_prime}^oo)"
        parts = [f"Z/{e}" for e in self.factors] + ["Z"] * self.free_rank
        body = " + ".join(parts) if parts else "0"
        return f"{body} over {self.ring}"


@dataclass(frozen=True)
class ModElement:
    parent: FgModule
    coords: tuple[int, ...]

    def __add__(self, other: ModElement) -> ModElement:
        if self.parent != other.parent:
            raise ValueError("elements of different modules")
        return self.parent.element([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> ModElement:
        return self.parent.element([-a for a in self.coords])

    def __sub__(self, other: ModElement) -> ModElement:
        return self + (-other)

    def scale(self, r: int) -> ModElement:
        return self.parent.element([r * a for a in self.coords])

    def __rmul__(self, r: int) -> ModElement:
        return self.scale(r)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def order(self) -> int | None:
        """Additive order; None when infinite."""
        t = len(self.parent.factors)
        if any(self.coords[t:]):
            return None
        out = 1
        for e, c in zip(self.parent.factors, self.coords):
            out = math.lcm(out, e // math.gcd(e, c))
        return out


@dataclass(frozen=True)
class Submodule:
    """Submodule in canonical form: ``basis`` is the row HNF of the
    preimage lattice in Z^rank (always containing the relation lattice).
    The Pruefer group has no coordinates, hence no submodules."""

    parent: FgModule
    basis: Basis

    def __post_init__(self):
        if self.parent.is_prufer:
            raise UnsupportedModuleError("the Pruefer group has no submodules")

    @property
    def is_full(self) -> bool:
        d = self.parent.rank
        return len(self.basis) == d and all(
            self.basis[i][i] == 1 for i in range(d)
        )

    @property
    def is_zero(self) -> bool:
        return self.basis == self.parent.zero_submodule().basis

    def contains(self, elem: ModElement) -> bool:
        if elem.parent != self.parent:
            raise ValueError("element of a different module")
        return lattice_contains(self.basis, elem.coords)

    def __le__(self, other: Submodule) -> bool:
        if self.parent != other.parent:
            raise ValueError("submodules of different modules")
        return lattice_leq(self.basis, other.basis)

    def __lt__(self, other: Submodule) -> bool:
        return self != other and self <= other

    def index(self) -> int | None:
        """|M / N| = [Z^rank : L], or None when infinite."""
        return lattice_index(self.basis, self.parent.rank)

    def order(self) -> int | None:
        """Cardinality as a subgroup; None when infinite."""
        card = self.parent.cardinality
        idx = self.index()
        if card is None or idx is None:
            return None
        return card // idx

    def add(self, other: Submodule) -> Submodule:
        if self.parent != other.parent:
            raise ValueError("submodules of different modules")
        return Submodule(self.parent, lattice_sum(self.basis, other.basis, self.parent.rank))

    def intersect(self, other: Submodule) -> Submodule:
        if self.parent != other.parent:
            raise ValueError("submodules of different modules")
        return Submodule(
            self.parent, lattice_intersection(self.basis, other.basis, self.parent.rank)
        )

    def elements(self) -> Iterator[ModElement]:
        for elem in self.parent.elements():
            if self.contains(elem):
                yield elem

    def generators(self) -> tuple[ModElement, ...]:
        return tuple(self.parent.element(row) for row in self.basis)

    def __str__(self) -> str:
        return f"<{', '.join(str(list(r)) for r in self.basis)}>"


# ---------------------------------------------------------------------------
# construction and normalization
# ---------------------------------------------------------------------------

def normalize(ring: Ring, generators: int, relations: Iterable[Sequence[int]]) -> FgModule:
    """Canonical form of the cokernel of a relation matrix.

    Each relation is a length-``generators`` integer vector; over Z/n the
    relations n*g_i are implicit.  Unit factors are dropped; an empty
    presentation yields a free module and all-unit relations the zero module.
    """
    module, _ = _normalize_with_coordmap(ring, generators, relations)
    return module


def _normalize_with_coordmap(
    ring: Ring, generators: int, relations: Iterable[Sequence[int]]
) -> tuple[FgModule, tuple[tuple[int, ...], ...]]:
    if ring.is_localized:
        raise ValueError("modules are presented over the base rings Z and Z/n")
    if generators < 0:
        raise ValueError("generator count must be nonnegative")
    rows = [tuple(int(x) for x in row) for row in relations]
    for row in rows:
        if len(row) != generators:
            raise ValueError(f"relation length {len(row)} does not match generators={generators}")
    if ring.modulus is not None:
        rows.extend(
            tuple(ring.modulus if i == j else 0 for j in range(generators))
            for i in range(generators)
        )
    orders, V = smith_column_orders(rows, generators)
    keep = [j for j in range(generators) if orders[j] != 1]
    factors = tuple(o for o in orders if o > 1)
    free_rank = sum(1 for o in orders if o == 0)
    module = FgModule(ring, factors, free_rank)
    # rows of V are the canonical coordinates of the original generators
    coordmap = tuple(tuple(V[i][j] for j in keep) for i in range(generators))
    return module, coordmap


def from_cyclic_orders(ring: Ring, orders: Sequence[int], free_rank: int = 0) -> FgModule:
    """Module with one cyclic summand per listed order, normalized."""
    k = len(orders) + free_rank
    rows = []
    for i, e in enumerate(orders):
        row = [0] * k
        row[i] = int(e)
        rows.append(row)
    return normalize(ring, k, rows)


def prufer_module(p: int) -> FgModule:
    return FgModule(ZZ, prufer_prime=p)


def zero_module(ring: Ring) -> FgModule:
    return FgModule(ring)


def submodule_from_generators(module: FgModule, gens: Sequence[ModElement]) -> Submodule:
    rows = list(module.relation_rows())
    for g in gens:
        if g.parent != module:
            raise ValueError("generator from a different module")
        rows.append(g.coords)
    return Submodule(module, hnf(rows, module.rank))


def submodule_from_lattice(module: FgModule, rows: Iterable[Sequence[int]]) -> Submodule:
    full = list(module.relation_rows()) + [tuple(int(x) for x in r) for r in rows]
    return Submodule(module, hnf(full, module.rank))


def scalar_multiple_submodule(f: int, module: FgModule) -> Submodule:
    """The submodule f*M, read off the invariant factors.

    Its lattice is spanned by the relations e_i and the f-multiples of the
    coordinate vectors, so its HNF is diagonal: gcd(f, e_i) on the i-th
    torsion coordinate and |f| on each free coordinate, with zero rows
    dropped.  f = 0 gives the relation lattice, the zero submodule.
    """
    d = module.rank
    pivots = [math.gcd(f, e) for e in module.factors] + [abs(f)] * module.free_rank
    return Submodule(
        module,
        tuple(
            tuple(a if j == i else 0 for j in range(d)) for i, a in enumerate(pivots) if a
        ),
    )


# ---------------------------------------------------------------------------
# colon ideals
# ---------------------------------------------------------------------------

def colon(sub: Submodule) -> Ideal:
    """(N : M) = Ann(M/N).

    When N's basis is full-rank and diagonal, M/N = Z/a_1 + ... + Z/a_d
    and the generator is lcm(a_1, ..., a_d), with no normal form.  Any
    other basis goes through its Smith form: the largest Smith diagonal
    entry, or 0 when N has rank below that of M.
    """
    module = sub.parent
    d = module.rank
    basis = sub.basis
    if len(basis) == d and all(
        x == 0 for i, row in enumerate(basis) for j, x in enumerate(row) if j != i
    ):
        return ideal(module.ring, math.lcm(*(row[i] for i, row in enumerate(basis))))
    diag = smith_diagonal(basis, d)
    if len(diag) < d:
        return ideal(module.ring, 0)
    return ideal(module.ring, diag[-1])


def scalar_colon(f: int, module: FgModule) -> Ideal:
    """(fM : M) = (f) + Ann(M), read off the scalar with no submodule.

    M/fM is the sum of the Z/gcd(f, e_i) and of (Z/f)^r, so its
    annihilator is gcd(f, e_t) for a torsion module and (f) with free
    rank: gcd(f, Ann(M)) in both cases.  The Pruefer group is divisible,
    so fM = M and the colon is (1), or (0) when f = 0.
    """
    if module.is_prufer:
        return ideal(module.ring, 1 if f else 0)
    return ideal(module.ring, math.gcd(f, module.annihilator().gen))


# ---------------------------------------------------------------------------
# direct sums and isomorphism classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMap:
    """Linear map into a presented module, rows = images of basis vectors."""

    source: FgModule
    target: FgModule
    rows: tuple[tuple[int, ...], ...]

    def apply(self, elem: ModElement) -> ModElement:
        if elem.parent != self.source:
            raise ValueError("element of a different module")
        d = self.target.rank
        out = [0] * d
        for c, row in zip(elem.coords, self.rows):
            for j in range(d):
                out[j] += c * row[j]
        return self.target.element(out)


def direct_sum_with_embeddings(m1: FgModule, m2: FgModule) -> tuple[FgModule, LinearMap, LinearMap]:
    if m1.ring != m2.ring:
        raise ValueError("direct sum over different rings")
    if m1.is_prufer or m2.is_prufer:
        raise UnsupportedModuleError("direct sums are defined for presented modules")
    d1, d2 = m1.rank, m2.rank
    rows = [row + (0,) * d2 for row in m1.relation_rows()]
    rows += [(0,) * d1 + row for row in m2.relation_rows()]
    module, coordmap = _normalize_with_coordmap(m1.ring, d1 + d2, rows)
    emb1 = LinearMap(m1, module, coordmap[:d1])
    emb2 = LinearMap(m2, module, coordmap[d1:])
    return module, emb1, emb2


def direct_sum(m1: FgModule, m2: FgModule) -> FgModule:
    return direct_sum_with_embeddings(m1, m2)[0]


def iso_class_equal(m1: FgModule, m2: FgModule) -> bool:
    """Isomorphism of modules over the common base ring.  Invariant
    factors, free rank and the Pruefer prime are a complete invariant of
    the representable classes, and a module stores exactly them."""
    return m1 == m2


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------

def all_submodules(
    module: FgModule, cap: int = DEFAULT_SUBGROUP_CAP
) -> Iterator[Submodule]:
    """Every submodule of a finite module, each in canonical HNF form.

    A submodule's HNF is upper triangular, with a pivot d_j dividing each
    invariant factor e_j and the entries above each pivot reduced, and
    every such basis that contains the relation lattice is one submodule.
    It contains the relations exactly when e_j*eps_j lies in the span of
    rows j..d-1 for every j, a condition that reads only those rows.  So
    for each diagonal the walk builds the rows from the last one up and
    prunes a row, with every completion above it, as soon as its condition
    fails: no rejected basis is built in full.  The bases of a diagonal are
    yielded sorted by their above-pivot entries, column by column, the
    order of a plain walk over all candidates.
    """
    if not module.is_finite:
        raise UnsupportedModuleError("subgroup enumeration needs a finite module")
    refuse_over_cap("|M|", module.cardinality, "enumeration", cap)
    d = module.rank
    factors = module.factors
    divisor_lists = [[a for a in range(1, e + 1) if e % a == 0] for e in factors]

    def above(basis):
        return tuple(basis[i][j] for j in range(d) for i in range(j))

    for diag in itertools.product(*divisor_lists):
        for basis in sorted(_triangular_bases(factors, diag, d - 1, ()), key=above):
            yield Submodule(module, basis)


def _triangular_bases(factors, diag, j, below):
    """The triangular bases with diagonal ``diag`` that contain the relation
    lattice and end in the rows ``below`` (rows j+1..d-1, already checked).

    Row j is (0, ..., 0, d_j, x_{j+1}, ..., x_{d-1}) with 0 <= x_k < d_k.
    Subtracting (e_j / d_j) times it from e_j*eps_j leaves -(e_j / d_j)*x
    on the columns after j, which lies in the span of the rows below when
    each pivot divides what is left at its column after the rows above it
    are taken off."""
    if j < 0:
        yield below
        return
    q = factors[j] // diag[j]
    lead = (0,) * j + (diag[j],)
    for entries in itertools.product(*(range(b) for b in diag[j + 1 :])):
        rest = [-q * x for x in entries]
        for i, row in enumerate(below):
            t, r = divmod(rest[i], diag[j + 1 + i])
            if r:
                break
            if t:
                for k in range(i + 1, len(rest)):
                    rest[k] -= t * row[j + 1 + k]
        else:
            yield from _triangular_bases(factors, diag, j - 1, (lead + entries,) + below)
