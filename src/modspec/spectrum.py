"""Prime submodules, the Zariski topology on Spec(M), and prime radicals.

A proper submodule P is prime when a*m in P forces m in P or a*M <= P; its
characteristic ideal is the prime (P:M).  For a finite module the spectrum
is graded into fibers over the primes p dividing the annihilator generator,
and two enumeration strategies are provided: definitional brute force over
all subgroups, and the classified fast path P is (p)-prime iff
p*M <= P < M, which walks the proper subspaces of the vector space M/pM.
The two must agree; "both" enforces that.

Opens, varieties and sections depend on the spectrum only through its
fiber set.  For a finite module N + pM is proper exactly when p divides
[M : N], so V(N) is the set of fibers (p) with p | [M : N], and the prime
radical is rad(N) = N + rM, with r the product of those p; neither needs
a colon ideal or a point.  In particular [M : fM] is the product of the
gcd(f, e_i), so the basic open D(fM) is the set of fibers (p) with p not
dividing f, read off the scalar with no submodule built.
The classified spectrum is lazy: its fibers are the relevant primes, and
a fiber's points are built on first use and kept on the module object,
shared by every spectrum of that object.  Until then its size is the
closed-form count of proper subspaces of F_p^s, a sum of Gaussian
binomials; a built fiber is checked against it, and a walk over all
points refuses a count past the spectrum's cardinality cap before it
builds one.  Each point's HNF is read off the reduced-row-echelon basis
of its subspace, with no lattice reduction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, itemgetter
from typing import Iterator

from .arith import Ideal, ideal, is_prime_ideal
from .fgmodules import (
    DEFAULT_CARDINALITY_CAP,
    DEFAULT_SUBGROUP_CAP,
    FgModule,
    Submodule,
    UnsupportedModuleError,
    all_submodules,
    colon,
    refuse_over_cap,
    scalar_multiple_submodule,
)


class PropertyViolation(RuntimeError):
    """A verified identity failed on a concrete instance."""


class StrategyMismatchError(PropertyViolation):
    """The two spectrum enumeration strategies disagreed."""


@dataclass(frozen=True)
class PrimeSubmodule:
    sub: Submodule
    char_ideal: Ideal

    def __post_init__(self):
        _check_prime(self.char_ideal)

    @classmethod
    def _of_tested_prime(cls, sub: Submodule, char_ideal: Ideal) -> PrimeSubmodule:
        """A point whose characteristic ideal the caller has already passed
        through ``_check_prime``: the fields are set without repeating it."""
        point = object.__new__(cls)
        object.__setattr__(point, "sub", sub)
        object.__setattr__(point, "char_ideal", char_ideal)
        return point

    @property
    def char_prime(self) -> int:
        return self.char_ideal.gen


def _check_prime(char_ideal: Ideal) -> None:
    if not is_prime_ideal(char_ideal):
        raise ValueError(f"characteristic ideal {char_ideal} is not prime")


class Spectrum:
    """Spec(M) by fibers over the relevant primes: a view of M and
    ``card_cap``.  ``fiber(p)`` reads fiber (p) from the store on the
    module object, where its first use builds it, checked against the
    closed-form count; a brute-force spectrum keeps the points it is
    given, checked the same way, out of the store.  ``primes()`` and
    ``fibers`` walk all points and refuse a closed-form count past
    ``card_cap`` before they build one; ``fiber(p)`` builds under no cap.
    Equality and hashing use the module and its fiber primes.
    """

    def __init__(self, module: FgModule, card_cap: int, points=None) -> None:
        self.module = module
        self.card_cap = card_cap
        self.fiber_primes = frozenset(() if module.is_prufer else module.relevant_primes())
        if points is not None:
            chunks = {p: [ps for ps in points if ps.char_prime == p] for p in self.fiber_primes}
            self._fibers = {p: self._checked(p, chunk) for p, chunk in chunks.items()}
            return
        self._fibers = getattr(module, "_fibers", None)
        if self._fibers is None:
            self._fibers = {}
            object.__setattr__(module, "_fibers", self._fibers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.module == other.module and self.fiber_primes == other.fiber_primes

    def __hash__(self) -> int:
        return hash((self.module, self.fiber_primes))

    def __repr__(self) -> str:
        return f"Spectrum({self.module!r}, fiber_primes={sorted(self.fiber_primes)})"

    def _checked(self, p: int, chunk) -> tuple[PrimeSubmodule, ...]:
        expected = _fiber_size(self.module, p)
        if len(chunk) != expected:
            raise StrategyMismatchError(
                f"fiber ({p}) of {self.module} has {len(chunk)} points, "
                f"the closed-form count is {expected}"
            )
        return tuple(sorted(chunk, key=lambda ps: ps.sub.basis))

    def _refuse_over_cap(self) -> None:
        refuse_over_cap("|Spec(M)|", len(self), "cardinality", self.card_cap)

    @property
    def fibers(self) -> tuple[tuple[int, tuple[PrimeSubmodule, ...]], ...]:
        self._refuse_over_cap()
        return tuple((p, self.fiber(p)) for p in sorted(self.fiber_primes))

    def fiber(self, p: int) -> tuple[PrimeSubmodule, ...]:
        if p not in self.fiber_primes:
            return ()
        chunk = self._fibers.get(p)
        if chunk is None:
            chunk = self._fibers[p] = self._checked(p, _fiber_classified(self.module, p))
        return chunk

    def primes(self) -> Iterator[PrimeSubmodule]:
        self._refuse_over_cap()
        for p in sorted(self.fiber_primes):
            yield from self.fiber(p)

    def __len__(self) -> int:
        return sum(_fiber_size(self.module, p) for p in self.fiber_primes)

    @property
    def is_empty(self) -> bool:
        return not self.fiber_primes

    def open_set(self, primes) -> OpenSet:
        return OpenSet(self, frozenset(primes))

    def full_open(self) -> OpenSet:
        return OpenSet(self, self.fiber_primes)

    def empty_open(self) -> OpenSet:
        return OpenSet(self, frozenset())


@dataclass(frozen=True)
class OpenSet:
    """Zariski-open subset of Spec(M): a union of whole fibers."""

    spectrum: Spectrum
    fiber_primes: frozenset[int]

    def __hash__(self) -> int:
        return hash((self.spectrum.module, self.fiber_primes))

    def __post_init__(self):
        if not self.fiber_primes <= self.spectrum.fiber_primes:
            raise ValueError("open set holds primes outside the spectrum")

    def __or__(self, other: OpenSet) -> OpenSet:
        self._check(other)
        return OpenSet(self.spectrum, self.fiber_primes | other.fiber_primes)

    def __and__(self, other: OpenSet) -> OpenSet:
        self._check(other)
        return OpenSet(self.spectrum, self.fiber_primes & other.fiber_primes)

    def issubset(self, other: OpenSet) -> bool:
        self._check(other)
        return self.fiber_primes <= other.fiber_primes

    def _check(self, other: OpenSet) -> None:
        if self.spectrum != other.spectrum:
            raise ValueError("open sets over different spectra")

    @property
    def is_empty(self) -> bool:
        return not self.fiber_primes

    def complement(self) -> ClosedSet:
        return ClosedSet(self.spectrum, self.spectrum.fiber_primes - self.fiber_primes)


@dataclass(frozen=True)
class ClosedSet:
    """Zariski-closed subset of Spec(M), such as V(N): a union of whole fibers."""

    spectrum: Spectrum
    fiber_primes: frozenset[int]

    def complement(self) -> OpenSet:
        return OpenSet(self.spectrum, self.spectrum.fiber_primes - self.fiber_primes)

    @property
    def is_empty(self) -> bool:
        return not self.fiber_primes


# ---------------------------------------------------------------------------
# prime testing and enumeration
# ---------------------------------------------------------------------------

def is_prime_submodule(sub: Submodule) -> Ideal | None:
    """Definitional brute-force prime test; the characteristic ideal on
    success, None otherwise.

    The test runs on integer codes: each element of M is coded by its
    index in the list ``FgModule.elements`` makes, P's members are listed
    from its triangular basis into a bytearray, and for each scalar a the
    codes of a*c, c in M, are tabled once per call.  Reading P's membership
    through a's table gives the set of c with a*c in P in one gather, and
    one bitmask AND with the complement of P finds a c outside P with a*c
    in P."""
    module = sub.parent
    if not module.is_finite:
        raise UnsupportedModuleError("the brute-force prime test needs a finite module")
    if sub.is_full:
        return None
    return _prime_characteristic(sub, _scalar_tables(module, DEFAULT_CARDINALITY_CAP))


def _scalar_tables(module: FgModule, card_cap: int) -> list[itemgetter]:
    """For each scalar a in [0, exponent), the gather c -> code(a*c) over
    the codes of a finite module, computed from the coordinates that
    ``module.elements(card_cap)`` lists (so that cap refuses first)."""
    factors = module.factors
    columns = list(zip(*(x.coords for x in module.elements(card_cap))))
    tables = []
    for a in range(module.exponent):
        codes = [0] * len(columns[0])
        for column, e, s in zip(columns, factors, _strides(factors)):
            scaled = [(a * x) % e * s for x in range(e)]
            codes = list(map(add, codes, map(scaled.__getitem__, column)))
        tables.append(itemgetter(*codes))
    return tables


def _strides(factors: tuple[int, ...]) -> list[int]:
    """The code of x is sum x_i * s_i, s_i the product of the factors after
    the i-th: the index of x in the list ``FgModule.elements`` makes."""
    return [math.prod(factors[i + 1 :]) for i in range(len(factors))]


def _prime_characteristic(sub: Submodule, tables: list[itemgetter]) -> Ideal | None:
    """The test of ``is_prime_submodule`` on a proper submodule of a finite
    module, given the scalar tables of ``_scalar_tables``."""
    factors = sub.parent.factors
    card = sub.parent.cardinality
    # P's members: sum t_i * row_i with 0 <= t_i < e_i / d_i over the
    # triangular basis with pivots d_i, reduced, is each coset of the
    # relation lattice in P once
    members = [(0,) * len(factors)]
    for i, row in enumerate(sub.basis):
        members = [
            tuple((x + t * r) % e for x, r, e in zip(v, row, factors))
            for v in members
            for t in range(factors[i] // row[i])
        ]
    strides = _strides(factors)
    member = bytearray(card)
    for v in members:
        member[sum(x * s for x, s in zip(v, strides))] = 1
    outside = ~int.from_bytes(member, "little")
    everything = b"\x01" * card
    for gather in tables:
        hit = bytes(gather(member))  # hit[c] = 1 exactly when a*c is in P
        if hit == everything:
            continue  # a*M <= P, condition vacuous for this a
        if int.from_bytes(hit, "little") & outside:
            return None
    return colon(sub)


def _subspace_bases(p: int, s: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All subspaces of F_p^s, one reduced-row-echelon basis each."""
    for k in range(s + 1):
        for pivots in itertools.combinations(range(s), k):
            free_pos = [
                (i, c)
                for i in range(k)
                for c in range(pivots[i] + 1, s)
                if c not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free_pos)):
                rows = [[0] * s for _ in range(k)]
                for i, col in enumerate(pivots):
                    rows[i][col] = 1
                for (i, c), v in zip(free_pos, values):
                    rows[i][c] = v
                yield tuple(tuple(r) for r in rows)


def _gaussian_binomial(s: int, k: int, p: int) -> int:
    """[s choose k]_p: the number of k-dimensional subspaces of F_p^s."""
    num = den = 1
    for i in range(k):
        num *= p ** (s - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _fiber_size(module: FgModule, p: int) -> int:
    """Points over (p): the proper subspaces of M/pM = F_p^s, where s counts
    the invariant factors divisible by p."""
    s = sum(q > 1 for q in module.primary.get(p, ()))
    return sum(_gaussian_binomial(s, k, p) for k in range(s))


def _fiber_classified(module: FgModule, p: int) -> list[PrimeSubmodule]:
    # primes with characteristic ideal (p) are the pullbacks of the proper
    # subspaces of M/pM.  The pullback of a subspace with RREF basis B has
    # the HNF rows: e_j where p does not divide the j-th factor (it already
    # holds e_j*e_j and p*e_j), the lifted row of B at each pivot column,
    # and p*e_j at every other coordinate; B's entries lie in [0, p), so
    # each is reduced against the pivot p below it.
    d = module.rank
    torsion_idx = [i for i, q in enumerate(module.primary[p]) if q > 1]
    s = len(torsion_idx)
    char = ideal(module.ring, p)
    # every point of the fiber shares this ideal: test it once, not per point
    _check_prime(char)
    base_rows = [
        tuple((p if j in torsion_idx else 1) if c == j else 0 for c in range(d))
        for j in range(d)
    ]
    out = []
    for basis in _subspace_bases(p, s):
        if len(basis) == s:
            continue  # the full subspace pulls back to M itself
        rows = list(base_rows)
        for w in basis:
            vec = [0] * d
            for pos, val in zip(torsion_idx, w):
                vec[pos] = val
            rows[torsion_idx[w.index(1)]] = tuple(vec)
        out.append(PrimeSubmodule._of_tested_prime(Submodule(module, tuple(rows)), char))
    return out


def _enumerate_bruteforce(module: FgModule, subgroup_cap: int, card_cap: int):
    out = []
    tables = None
    for sub in all_submodules(module, subgroup_cap):
        if sub.is_full:
            continue
        if tables is None:
            # built at the first proper submodule, once per enumeration: the
            # zero module has none, and its codes cannot be tabled
            tables = _scalar_tables(module, card_cap)
        char = _prime_characteristic(sub, tables)
        if char is not None:
            out.append(PrimeSubmodule(sub, char))
    return out


@lru_cache(maxsize=512)
def spec_enumerate(
    module: FgModule,
    strategy: str = "classified",
    subgroup_cap: int = DEFAULT_SUBGROUP_CAP,
    card_cap: int = DEFAULT_CARDINALITY_CAP,
) -> Spectrum:
    """Spec(M) by fibers.  Strategies: "bruteforce" (definitional filter of
    all subgroups), "classified" (proper subspaces of M/pM per relevant
    prime p), or "both" (run the two and insist they agree).

    The spectrum keeps ``card_cap``: a walk over all its points refuses
    more points than the cap, counted in closed form (see ``Spectrum``).
    The classified spectrum is lazy and builds no point here; every
    spectrum of one module object shares the fibers built on it.  The brute
    force walks every subgroup, so "bruteforce" and "both" first refuse,
    in this order, |M| past ``subgroup_cap`` (the enumeration cap), |M|
    past ``card_cap`` (the cardinality cap), and then the points."""
    if module.is_prufer:
        return Spectrum(module, card_cap)
    if not module.is_finite:
        raise UnsupportedModuleError("spectrum enumeration needs a finite module")
    if strategy not in ("bruteforce", "classified", "both"):
        raise ValueError(f"unknown strategy {strategy!r}")
    spectrum = Spectrum(module, card_cap)
    if strategy == "classified":
        return spectrum

    refuse_over_cap("|M|", module.cardinality, "enumeration", subgroup_cap)
    refuse_over_cap("|M|", module.cardinality, "cardinality", card_cap)
    spectrum._refuse_over_cap()
    brute = _enumerate_bruteforce(module, subgroup_cap, card_cap)
    if strategy == "bruteforce":
        return Spectrum(module, card_cap, brute)
    brute_set = {(ps.char_prime, ps.sub) for ps in brute}
    classified_set = {(ps.char_prime, ps.sub) for ps in spectrum.primes()}
    if classified_set != brute_set:
        raise StrategyMismatchError(
            f"spectrum strategies disagree on {module}: "
            f"classified={len(classified_set)} bruteforce={len(brute_set)}"
        )
    return spectrum


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def variety(sub: Submodule) -> ClosedSet:
    """V(N) = {P : (P:M) contains (N:M)}, M the parent of N: the whole
    fibers (p) of ``spec_enumerate(M)`` with p | [M : N], since some
    (p)-prime contains N exactly when N + pM is proper.  Not every point
    of V(N) contains N: on (Z/2)^2 with N = <(1, 0)>, V(N) has all four
    points, and one of them contains N.
    """
    spectrum = spec_enumerate(sub.parent)
    index = sub.index()
    return ClosedSet(spectrum, frozenset(p for p in spectrum.fiber_primes if index % p == 0))


def basic_open(f: int, module: FgModule) -> OpenSet:
    """D(fM), the complement of V(fM): the fibers (p) of
    ``spec_enumerate(M)`` with p not dividing f, since [M : fM] is the
    product of the gcd(f, e_i)."""
    spectrum = spec_enumerate(module)
    return OpenSet(spectrum, frozenset(p for p in spectrum.fiber_primes if f % p))


# ---------------------------------------------------------------------------
# prime radicals and the prime radical condition
# ---------------------------------------------------------------------------

def prime_radical(
    sub: Submodule, method: str = "closed_form", card_cap: int = DEFAULT_CARDINALITY_CAP
) -> Submodule:
    """Intersection of the primes of M containing N, M the parent of N; M
    itself when none exist.

    Two implementations: "bruteforce" intersects over the points of the
    classified spectrum made with ``card_cap``, so it refuses more than
    ``card_cap`` points before it builds one; "closed_form" returns N + rM,
    where r is the product of the relevant primes p dividing [M : N].
    Those are the p with N + pM proper, and their intersection is N + rM
    because M/N is the direct sum of its primary parts.  "both" runs the
    two and insists they agree.
    """
    module = sub.parent
    if not module.is_finite:
        raise UnsupportedModuleError("prime radicals need an enumerable spectrum")
    if method == "both":
        closed = prime_radical(sub, "closed_form")
        brute = prime_radical(sub, "bruteforce", card_cap)
        if closed != brute:
            raise PropertyViolation(
                f"prime radical implementations disagree on {module}"
            )
        return closed
    if method == "closed_form":
        index = sub.index()
        rm = scalar_multiple_submodule(
            math.prod(p for p in module.primary if index % p == 0), module
        )
        return sub if rm <= sub else sub.add(rm)
    if method == "bruteforce":
        spectrum = spec_enumerate(module, card_cap=card_cap)
        containing = [ps.sub for ps in spectrum.primes() if sub <= ps.sub]
        if not containing:
            return module.full_submodule()
        # a <= b means a & b = a, and a's basis is already its HNF: only a
        # point that cuts the running intersection down pays a Zassenhaus HNF
        return reduce(lambda a, b: a if a <= b else a.intersect(b), containing)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class PradicalCertificate:
    """Witness for a failing prime radical condition: the offending prime
    and both sides of (sqrt[p](PM) : M) = P."""

    prime_ideal: Ideal
    lhs: Ideal
    rhs: Ideal


@dataclass(frozen=True)
class PradicalResult:
    holds: bool
    certificate: PradicalCertificate | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.holds


def is_pradical(module: FgModule) -> PradicalResult:
    """Does (sqrt[p](PM) : M) = P hold for every prime ideal P >= Ann(M)?

    Finite modules are checked prime by prime over the finite relevant set.
    Free rank over Z is answered symbolically: (PM:M) = P and sqrt[p](PM) =
    PM for every prime P, with the zero ideal witnessed by the torsion
    submodule.  The Pruefer group fails with an explicit certificate.
    """
    ring = module.ring
    if module.is_zero:
        return PradicalResult(True, note="zero module: no prime examined fails")
    if module.is_prufer:
        p = module.prufer_prime
        # primeless: sqrt[p](pM) = sqrt[p](M) = M and (M:M) = (1) != (p)
        return PradicalResult(
            False,
            PradicalCertificate(ideal(ring, p), ideal(ring, 1), ideal(ring, p)),
            note="the Pruefer group is primeless",
        )
    if module.free_rank > 0:
        return PradicalResult(
            True,
            note=(
                "free rank > 0: (PM:M) = P with sqrt[p](PM) = PM for every "
                "prime P, and the torsion submodule witnesses P = (0)"
            ),
        )
    for p in module.relevant_primes():
        pm = scalar_multiple_submodule(p, module)
        lhs = colon(prime_radical(pm))
        rhs = ideal(ring, p)
        if lhs != rhs:
            return PradicalResult(False, PradicalCertificate(rhs, lhs, rhs))
    return PradicalResult(True)


# ---------------------------------------------------------------------------
# the natural map into Spec(R / Ann M)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NaturalMapResult:
    """psi: Spec(M) -> Spec(R/Ann M), P -> (P:M); primeful iff surjective."""

    module: FgModule
    assignments: tuple[tuple[PrimeSubmodule, Ideal], ...]
    codomain_primes: tuple[int, ...] | None  # None marks an infinite codomain
    surjective: bool
    note: str = ""


def natural_map(spectrum: Spectrum) -> NaturalMapResult:
    """psi on the points of ``spectrum``, read as Spec(M) for its module M;
    a walk over all points, so it refuses where ``Spectrum.primes()`` does."""
    module = spectrum.module
    if module.is_prufer:
        return NaturalMapResult(
            module,
            (),
            None,
            False,
            note="empty spectrum cannot cover Spec(Z/Ann) = Spec(Z)",
        )
    assignments = tuple((ps, ps.char_ideal) for ps in spectrum.primes())
    codomain = module.relevant_primes()
    hit = {ps.char_prime for ps, _ in assignments}
    return NaturalMapResult(module, assignments, codomain, hit == set(codomain))
