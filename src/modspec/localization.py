"""Localization of modules at multiplicative sets, with its prime
correspondence and transfer checks.

Two kinds of multiplicative sets are supported: the powers of an element f
and the complement of a prime ideal (p).  For a finite module both land back
in the representable world: inverting f strips every p-primary component
with p | f, localizing at (p) keeps exactly the p-primary part.  The natural
map M -> M_S is then onto, which is what makes submodule extension and
contraction computable as lattice projections.

A multiplicative set containing 0 (f = 0, or f nilpotent over Z/n) is
degenerate and forces the zero localization, so every statement about
D(fM) stays total.

``localize_bruteforce`` is the independent oracle: it builds the actual
equivalence classes of pairs (m, s) from the defining relation
(m,s) ~ (m',s') iff u(s'm - sm') = 0 for some u in S, and reads the
invariant factors off element-order statistics, touching neither the
factor-stripping rule nor the Smith normal form path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .arith import (
    Ideal,
    Ring,
    ZZ,
    coprime_part,
    ideal,
    is_prime,
    prime_divisors,
    squarefree_kernel,
)
from .fgmodules import (
    FgModule,
    ModElement,
    Submodule,
    UnsupportedModuleError,
    colon,
    prufer_module,
    scalar_multiple_submodule,
    zero_module,
)
from .lattices import hnf
from .spectrum import (
    PrimeSubmodule,
    PropertyViolation,
    is_pradical,
    prime_radical,
    spec_enumerate,
)


class CorrespondenceError(PropertyViolation):
    """The localization prime correspondence failed on an instance."""


@dataclass(frozen=True)
class MultSet:
    """Multiplicative set: powers of an element, or the complement of a
    prime (p); p = 0 is allowed over Z only."""

    kind: str  # "powers" | "prime_complement"
    value: int

    @classmethod
    def powers_of(cls, f: int) -> MultSet:
        return cls("powers", int(f))

    @classmethod
    def complement_of_prime(cls, p: int) -> MultSet:
        p = int(p)
        if p != 0 and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls("prime_complement", p)

    def __post_init__(self):
        if self.kind not in ("powers", "prime_complement"):
            raise ValueError(f"unknown multiplicative set kind {self.kind!r}")

    def localized_ring(self, base: Ring, module: FgModule | None = None) -> Ring:
        """The ring S^-1 R; ``inverted = 0`` marks a set that contains 0.

        For the powers of f it is R[1/r], r the product of the primes of f
        (over Z/n, those that also divide n).  The primes that divide the
        exponent of ``module`` are read off ``module.primary``, and only
        the part coprime to them is factored; f = 0 and a nilpotent f
        factor nothing."""
        if base.is_localized:
            raise ValueError("localize over the base rings Z and Z/n")
        if self.kind == "powers":
            f = base.reduce(self.value)
            n = base.modulus
            # f is nilpotent in Z/n iff every prime of n divides it
            if f == 0 or (n is not None and coprime_part(n, f) == 1):
                return Ring(modulus=n, inverted=0)
            known = () if module is None or module.is_prufer else module.primary
            if n is not None:
                f = math.gcd(f, n)
            inverted = math.prod(p for p in known if f % p == 0)
            rest = abs(coprime_part(f, inverted))  # no prime of the module divides it
            if rest > 1:
                inverted *= squarefree_kernel(rest)
            return Ring(modulus=n, inverted=inverted)
        p = self.value
        if base.modulus is not None and (p == 0 or base.modulus % p):
            raise ValueError(f"({p}) is not a prime ideal of {base}")
        return Ring(modulus=base.modulus, local_prime=p)

    def meets_prime(self, q: int, base: Ring) -> bool:
        """Does S intersect the prime ideal (q)?"""
        if self.kind == "powers":
            return base.reduce(self.value) % q == 0
        return self.value != q

    def image_mod(self, a: int) -> tuple[int, ...]:
        """The image of S in Z/a (a >= 1)."""
        if self.kind == "powers":
            f = self.value % a
            out = {1 % a}
            x = 1 % a
            while True:
                x = x * f % a
                if x in out:
                    break
                out.add(x)
            return tuple(sorted(out))
        p = self.value
        if p == 0 or a % p:
            return tuple(range(a))
        return tuple(x for x in range(a) if x % p)

    def __str__(self) -> str:
        if self.kind == "powers":
            return f"powers of {self.value}"
        return f"complement of ({self.value})"


@dataclass(frozen=True)
class LocalizedModule:
    """M_S: localized ring descriptor plus the invariant data.

    ``module`` is the model: an ordinary module over the original base ring
    carrying the invariant factors, free rank and special kind of M_S.  For
    a finite source the model is literally the image of the natural map
    M -> M_S, and ``kept`` records (source coordinate, reduced order) pairs,
    so elementwise projection, extension and contraction are coordinate
    arithmetic.
    """

    ring: Ring
    module: FgModule
    source: FgModule
    kept: tuple[tuple[int, int], ...]
    mult_set: MultSet

    @property
    def factors(self) -> tuple[int, ...]:
        return self.module.factors

    @property
    def free_rank(self) -> int:
        return self.module.free_rank

    @property
    def kind(self) -> str:
        if self.module.is_prufer:
            return "prufer"
        return "zero" if self.module.is_zero else "standard"

    @property
    def iso_invariants(self) -> tuple:
        # comparison as modules over the original base ring
        return (
            self.source.ring,
            self.module.prufer_prime,
            self.module.factors,
            self.module.free_rank,
        )

    @property
    def cardinality(self) -> int | None:
        return self.module.cardinality

    def project(self, elem: ModElement) -> ModElement:
        """Image of a source element under the natural map."""
        if elem.parent != self.source:
            raise ValueError("element of a different module")
        if not self.source.is_finite:
            raise UnsupportedModuleError("elementwise projection needs a finite source")
        return self.module.element([elem.coords[i] % e for i, e in self.kept])

    def lift(self, coords) -> tuple[int, ...]:
        """Source coordinates of the canonical lift of model coordinates:
        each kept coordinate in place, 0 at every other."""
        out = [0] * self.source.rank
        for (i, _), c in zip(self.kept, coords):
            out[i] = c
        return tuple(out)

    def project_fraction(self, elem: ModElement, s: int) -> ModElement:
        """Image of the fraction elem/s, for s in the multiplicative set."""
        img = self.project(elem)
        coords = []
        for (_, e), c in zip(self.kept, img.coords):
            coords.append(c * pow(s, -1, e) % e)
        return self.module.element(coords)

    def extend_submodule(self, sub: Submodule) -> Submodule:
        """N_S, the image of a source submodule."""
        if sub.parent != self.source:
            raise ValueError("submodule of a different module")
        rows = [tuple(row[i] for i, _ in self.kept) for row in sub.basis]
        rows += list(self.module.relation_rows())
        return Submodule(self.module, hnf(rows, self.module.rank))

    def contract_submodule(self, sub: Submodule) -> Submodule:
        """Q^c = {m in M : image of m lies in Q}."""
        if sub.parent != self.module:
            raise ValueError("submodule of the wrong model")
        d = self.source.rank
        kept_pos = {i for i, _ in self.kept}
        rows = [self.lift(row) for row in sub.basis]
        for i in range(d):
            if i not in kept_pos:
                rows.append(tuple(1 if j == i else 0 for j in range(d)))
        rows += list(self.source.relation_rows())
        return Submodule(self.source, hnf(rows, d))

    def localize_ideal(self, a: Ideal) -> Ideal:
        """Extension of a base-ring ideal to the localized ring."""
        if a.ring != self.source.ring:
            raise ValueError("ideal of a different base ring")
        return ideal(self.ring, a.gen)

    def __str__(self) -> str:
        return f"{self.module} localized ({self.mult_set}) over {self.ring}"


# ---------------------------------------------------------------------------
# localization proper
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def localize(module: FgModule, mult_set: MultSet) -> LocalizedModule:
    """M_S in canonical form.

    The torsion keeps the p-primary parts of M for the primes p that S
    does not meet: those not dividing f for the powers of f, and p alone
    for the complement of (p).  Free rank is preserved under a localized
    base-ring descriptor.  The Pruefer group follows its divisibility
    rules, and a degenerate S gives 0.
    """
    ring = module.ring
    loc_ring = mult_set.localized_ring(ring, module)
    if module.is_prufer:
        q = module.prufer_prime
        model = zero_module(ZZ) if mult_set.meets_prime(q, ZZ) else prufer_module(q)
        return LocalizedModule(loc_ring, model, module, (), mult_set)
    if loc_ring.inverted == 0:
        return LocalizedModule(loc_ring, zero_module(ring), module, (), mult_set)
    if mult_set.kind == "prime_complement" and mult_set.value == 0 and module.free_rank:
        raise UnsupportedModuleError(
            "localization of a positive-rank module at (0) leaves Z-modules"
        )
    parts = [q for p, q in module.primary.items() if not mult_set.meets_prime(p, ring)]
    kept = [(i, e) for i, e in enumerate(map(math.prod, zip(*parts))) if e > 1]
    nfac = len(module.factors)
    kept += [(nfac + i, 0) for i in range(module.free_rank)]
    factors = tuple(e for _, e in kept if e)
    model = FgModule(ring, factors, module.free_rank)
    return LocalizedModule(loc_ring, model, module, tuple(kept), mult_set)


def relocalize(elem: ModElement, src: LocalizedModule, dst: LocalizedModule) -> ModElement:
    """Image in a further localization of the same finite source.

    Requires dst to invert at least what src inverts, so the canonical lift
    through the source is independent of the choice of representative.
    """
    if src.source != dst.source:
        raise ValueError("localizations of different sources")
    return dst.project(src.source.element(src.lift(elem.coords)))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def invariant_factors_from_orders(orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group from the multiset of its
    element orders (a complete invariant for abelian groups)."""
    orders = list(orders)
    n = len(orders)
    parts: dict[int, list[int]] = {}
    for p in prime_divisors(n):
        conj = []
        prev = 0
        j = 1
        while True:
            count = sum(1 for o in orders if p**j % o == 0)
            lg = 0
            x = count
            while x % p == 0:
                x //= p
                lg += 1
            if x != 1:
                raise ValueError("order statistics are not those of an abelian group")
            if lg == prev:
                break
            conj.append(lg - prev)
            prev = lg
            j += 1
        lam = [sum(1 for c in conj if c >= i) for i in range(1, (conj[0] if conj else 0) + 1)]
        if lam:
            parts[p] = sorted((p**e for e in lam), reverse=True)
    width = max((len(v) for v in parts.values()), default=0)
    descending = []
    for k in range(width):
        f = 1
        for v in parts.values():
            if k < len(v):
                f *= v[k]
        descending.append(f)
    return tuple(reversed(descending))


def localize_bruteforce(module: FgModule, mult_set: MultSet) -> LocalizedModule:
    """Oracle localization from the definition, for finite modules.

    Builds the classes of pairs (m, s) with s in the image of S: the pair
    (m, s) is first rewritten with the common denominator sigma = prod(S)
    (an equivalence by taking u = 1 in the definition), after which two
    pairs are equivalent iff their cross difference lands in
    K = {x : ux = 0 for some u in S}.  Class orders then determine the
    invariant factors.
    """
    if not module.is_finite:
        raise UnsupportedModuleError("the brute-force oracle needs a finite module")
    loc_ring = mult_set.localized_ring(module.ring)
    elems = [x.coords for x in module.elements()]
    factors = module.factors
    a = module.exponent
    s_img = mult_set.image_mod(a)

    def scaled(r, c):
        return tuple((r * x) % e for x, e in zip(c, factors))

    zero = tuple(0 for _ in factors)
    kernel = [c for c in elems if any(scaled(u, c) == zero for u in s_img)]
    kernel_set = set(kernel)

    # canonical coset keys for M / K
    key_of: dict[tuple, tuple] = {}
    for c in elems:
        if c in key_of:
            continue
        coset = sorted(
            tuple((x + k) % e for x, k, e in zip(c, kc, factors)) for kc in kernel
        )
        key = coset[0]
        for member in coset:
            key_of[member] = key

    sigma = 1
    for u in s_img:
        sigma = sigma * u % a
    complements = {}
    for s in s_img:
        r = 1
        for u in s_img:
            if u != s:
                r = r * u % a
        complements[s] = sigma * r % a

    classes = {key_of[scaled(complements[s], m)] for m in elems for s in s_img}
    orders = []
    for key in classes:
        k = 1
        while scaled(k, key) not in kernel_set:
            k += 1
        orders.append(k)
    inv = invariant_factors_from_orders(orders)
    model = FgModule(module.ring, inv)
    return LocalizedModule(loc_ring, model, module, (), mult_set)


# ---------------------------------------------------------------------------
# prime correspondence (extension and contraction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimeCorrespondence:
    """Bijection {P prime in M : (P:M) cap S = empty} <-> Spec(M_S), verified
    on construction together with the colon-localization identity."""

    module: FgModule
    mult_set: MultSet
    localized: LocalizedModule
    pairs: tuple[tuple[PrimeSubmodule, PrimeSubmodule], ...]


def prime_correspondence(module: FgModule, mult_set: MultSet) -> PrimeCorrespondence:
    """Build and verify the localization bijection P -> P_S with inverse
    Q -> Q^c; violations raise CorrespondenceError with the counterexample."""
    if module.is_prufer:
        # primeless on both sides
        return PrimeCorrespondence(module, mult_set, localize(module, mult_set), ())
    if not module.is_finite:
        raise UnsupportedModuleError("the correspondence is enumerated for finite modules")
    loc = localize(module, mult_set)
    spec_src = spec_enumerate(module)
    spec_loc = spec_enumerate(loc.module)
    survivors = [
        ps
        for ps in spec_src.primes()
        if not mult_set.meets_prime(ps.char_prime, module.ring)
    ]
    loc_primes = list(spec_loc.primes())
    loc_by_sub = {qs.sub: qs for qs in loc_primes}
    pairs = []
    seen = set()
    for ps in survivors:
        extended = loc.extend_submodule(ps.sub)
        target = loc_by_sub.get(extended)
        if target is None:
            raise CorrespondenceError(
                f"extension of {ps.sub} is not a prime of the localization of {module}"
            )
        back = loc.contract_submodule(extended)
        if back != ps.sub:
            raise CorrespondenceError(
                f"round trip P -> P_S -> (P_S)^c moved {ps.sub} in {module}"
            )
        lhs = loc.localize_ideal(ps.char_ideal)
        rhs = loc.localize_ideal(colon(extended))
        if lhs != rhs:
            raise CorrespondenceError(
                f"(P:M)_S != (P_S : M_S) at {ps.sub} in {module}: {lhs} vs {rhs}"
            )
        pairs.append((ps, target))
        seen.add(target)
    if len(seen) != len(pairs) or seen != set(loc_primes):
        raise CorrespondenceError(
            f"extension is not a bijection onto Spec(M_S) for {module} at {mult_set}"
        )
    for qs in loc_primes:
        back = loc.contract_submodule(qs.sub)
        if loc.extend_submodule(back) != qs.sub:
            raise CorrespondenceError(
                f"round trip Q -> Q^c -> (Q^c)_S moved {qs.sub} in {module}"
            )
    for p1, q1 in pairs:
        for p2, q2 in pairs:
            if (p1.sub <= p2.sub) != (q1.sub <= q2.sub):
                raise CorrespondenceError(
                    f"order not preserved between {p1.sub} and {p2.sub} in {module}"
                )
    return PrimeCorrespondence(module, mult_set, loc, tuple(pairs))


# ---------------------------------------------------------------------------
# transfer checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferClause:
    name: str
    applicable: bool
    hypothesis_holds: bool
    conclusion_holds: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (not self.applicable) or (not self.hypothesis_holds) or self.conclusion_holds


@dataclass(frozen=True)
class TransferReport:
    module: FgModule
    clauses: tuple[TransferClause, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.clauses)


def verify_localization_transfer(
    module: FgModule, witnesses: Iterable[MultSet]
) -> TransferReport:
    """Hypothesis-conditional checks of the localization transfer results.

    (a) per witness S: if M satisfies the prime radical condition and every
        relevant prime radical of the localization is proper, then M_S
        satisfies it over the localized ring;
    (b) if M_(p) is nonzero and satisfies the condition for every relevant
        prime p, so does M;
    (c) same as (b) through the maximal ideals, with the annihilator
        commutation Ann(M_(p)) = (Ann M)_(p) checked explicitly first.
    """
    if not module.is_finite:
        raise UnsupportedModuleError("transfer checks run on finite modules")
    clauses = []
    base_ok = is_pradical(module).holds

    for ms in witnesses:
        loc = localize(module, ms)
        model = loc.module
        hyp = not any(
            prime_radical(scalar_multiple_submodule(q, model)).is_full
            for q in model.relevant_primes()
        )
        clauses.append(
            TransferClause(
                name=f"localized module keeps the prime radical condition [{ms}]",
                applicable=base_ok,
                hypothesis_holds=hyp,
                conclusion_holds=is_pradical(model).holds,
                detail=f"M_S = {model}",
            )
        )

    primes = module.relevant_primes()
    local_pieces = [localize(module, MultSet.complement_of_prime(p)) for p in primes]
    hyp_b = all(
        not piece.module.is_zero and is_pradical(piece.module).holds
        for piece in local_pieces
    )
    clauses.append(
        TransferClause(
            name="prime radical condition from nonzero local pieces",
            applicable=True,
            hypothesis_holds=hyp_b,
            conclusion_holds=base_ok,
            detail=f"relevant primes {list(primes)}",
        )
    )

    ann_commutes = True
    for p, piece in zip(primes, local_pieces):
        lhs = piece.localize_ideal(piece.module.annihilator())
        rhs = piece.localize_ideal(module.annihilator())
        if lhs != rhs:
            ann_commutes = False
    hyp_c = ann_commutes and all(is_pradical(piece.module).holds for piece in local_pieces)
    clauses.append(
        TransferClause(
            name="prime radical condition from maximal localizations "
            "(annihilator commutation checked)",
            applicable=True,
            hypothesis_holds=hyp_c,
            conclusion_holds=base_ok,
            detail=f"Ann commutation: {ann_commutes}",
        )
    )
    return TransferReport(module, tuple(clauses))
