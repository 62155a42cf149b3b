"""The structure sheaf on Spec(M) with locally constant sections.

Sections over an open U assign to each point P a value in the localization
at (P:M).  On a finite spectrum every fiber is itself open (the product of
the other relevant primes cuts it out), so locally constant functions are
exactly the fiberwise-constant ones and the section space over U is the
product of the fiber stalks.  Stalks, the comparison map from a localized
module onto the sections of a basic open, the cover decomposition
f^n = sum(r_i b_i), the localization isomorphism criterion and the sheaf
axioms are all verified by finite enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator

from .arith import (
    BezoutDecomposition,
    Ideal,
    bezout_decompose,
    ideal_radical,
    ideal_sum,
    p_part,
    radical_membership_witness,
)
from .fgmodules import (
    DEFAULT_CARDINALITY_CAP,
    CapExceededError,
    FgModule,
    ModElement,
    UnsupportedModuleError,
    colon,
    iso_class_equal,
    scalar_multiple_submodule,
)
from .localization import LocalizedModule, MultSet, localize
from .spectrum import (
    OpenSet,
    PrimeSubmodule,
    PropertyViolation,
    basic_open,
    spec_enumerate,
)


class CoverError(ValueError):
    """The open sets D(h_i M) do not cover D(fM)."""


class RestrictionError(ValueError):
    """Restriction target is not contained in the section's open set."""


# ---------------------------------------------------------------------------
# section spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionSpace:
    """Sections of the structure sheaf over an open set.

    ``stalks`` pairs each fiber prime p in the open with the localization
    at (p); the carrier is a module isomorphic to their product, with the
    decomposition retained for fiberwise arithmetic.
    """

    open_set: OpenSet
    stalks: tuple[tuple[int, LocalizedModule], ...]
    carrier: FgModule

    @property
    def module(self) -> FgModule:
        return self.open_set.spectrum.module

    @property
    def cardinality(self) -> int | None:
        out = 1
        for _, loc in self.stalks:
            if loc.cardinality is None:
                return None
            out *= loc.cardinality
        return out

    def section(self, values: dict[int, ModElement]) -> Section:
        vals = []
        if set(values) != {p for p, _ in self.stalks}:
            raise ValueError("exactly one value per fiber of the open set")
        for p, loc in self.stalks:
            v = values[p]
            if v.parent != loc.module:
                raise ValueError(f"value at fiber ({p}) lies in the wrong stalk")
            vals.append(v)
        return Section(self, tuple(vals))

    def zero(self) -> Section:
        return Section(self, tuple(loc.module.zero_element() for _, loc in self.stalks))

    def elements(self, cap: int = DEFAULT_CARDINALITY_CAP) -> Iterator[Section]:
        card = self.cardinality
        if card is None:
            raise UnsupportedModuleError("section space over an infinite stalk")
        if card > cap:
            raise CapExceededError(f"{card} sections exceed the cardinality cap {cap}")
        pools = [list(loc.module.elements(cap)) for _, loc in self.stalks]
        for combo in itertools.product(*pools):
            yield Section(self, tuple(combo))


@dataclass(frozen=True)
class Section:
    space: SectionSpace
    values: tuple[ModElement, ...]

    def __hash__(self) -> int:
        return hash((self.space.open_set.fiber_primes, self.values))

    def value_at(self, p: int) -> ModElement:
        for (q, _), v in zip(self.space.stalks, self.values):
            if q == p:
                return v
        raise KeyError(f"fiber ({p}) is not in the open set")

    def __add__(self, other: Section) -> Section:
        if self.space != other.space:
            raise ValueError("sections over different opens")
        return Section(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: Section) -> Section:
        if self.space != other.space:
            raise ValueError("sections over different opens")
        return Section(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def scale(self, r: int) -> Section:
        return Section(self.space, tuple(v.scale(r) for v in self.values))

    def __rmul__(self, r: int) -> Section:
        return self.scale(r)

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.values)


@lru_cache(maxsize=1024)
def sections(module: FgModule, open_set: OpenSet) -> SectionSpace:
    """The module of locally constant sections over an open set."""
    if open_set.spectrum.module != module:
        raise ValueError("open set over a different module")
    stalks = tuple(
        (p, localize(module, MultSet.complement_of_prime(p)))
        for p in sorted(open_set.fiber_primes)
    )
    # the carrier is the product of the stalks M_(p): its i-th invariant
    # factor is the product over the fibers p of the p-part of M's i-th
    products = (math.prod(p_part(e, p) for p in open_set.fiber_primes) for e in module.factors)
    carrier = FgModule(module.ring, tuple(c for c in products if c > 1))
    return SectionSpace(open_set, stalks, carrier)


def restrict(section: Section, smaller: OpenSet) -> Section:
    """Drop the fibers outside the smaller open; a module homomorphism."""
    big = section.space.open_set
    if not smaller.issubset(big):
        raise RestrictionError(f"{sorted(smaller.fiber_primes)} is not inside {sorted(big.fiber_primes)}")
    target = sections(section.space.module, smaller)
    vals = tuple(
        section.value_at(p) for p, _ in target.stalks
    )
    return Section(target, vals)


# ---------------------------------------------------------------------------
# germs and stalks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Germ:
    """Germ of a section at a prime: a representative pair (U, s).

    Equality is germ equality: on a finite spectrum the minimal open around
    P is its whole fiber, so two representatives agree on a neighborhood of
    P iff their values at P's fiber agree.
    """

    at: PrimeSubmodule
    open_set: OpenSet
    section: Section

    def value(self) -> ModElement:
        return self.section.value_at(self.at.char_prime)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Germ):
            return NotImplemented
        return self.at == other.at and self.value() == other.value()

    def __hash__(self) -> int:
        return hash((self.at, self.value()))

    def agrees_by_definition(self, other: Germ) -> bool:
        """Search for a common smaller open on which the representatives
        restrict equally (the raw colimit definition)."""
        if self.at != other.at:
            return False
        p = self.at.char_prime
        spectrum = self.open_set.spectrum
        common = self.open_set & other.open_set
        for k in range(len(common.fiber_primes) + 1):
            for primes in itertools.combinations(sorted(common.fiber_primes), k):
                if p not in primes:
                    continue
                w = spectrum.open_set(primes)
                if restrict(self.section, w) == restrict(other.section, w):
                    return True
        return False


@dataclass(frozen=True)
class StalkResult:
    """Stalk at P realized through the minimal open (P's fiber), with the
    evaluation map onto the localization at (P:M)."""

    at: PrimeSubmodule
    localized: LocalizedModule
    assignments: tuple[tuple[Germ, ModElement], ...]
    bijective: bool


def stalk(
    module: FgModule, prime: PrimeSubmodule, cap: int = DEFAULT_CARDINALITY_CAP
) -> StalkResult:
    """Germ space at a prime with the explicit isomorphism onto M_(p)."""
    if not module.is_finite:
        raise UnsupportedModuleError("stalks are enumerated for finite modules")
    spectrum = spec_enumerate(module)
    p = prime.char_prime
    if prime not in spectrum.fiber(p):
        raise ValueError(f"{prime.sub} is not a point of Spec({module})")
    loc = localize(module, MultSet.complement_of_prime(p))
    minimal = spectrum.open_set({p})
    space = sections(module, minimal)
    assignments = []
    seen = set()
    for s in space.elements(cap):
        germ = Germ(prime, minimal, s)
        value = germ.value()
        assignments.append((germ, value))
        seen.add(value.coords)
    bijective = len(assignments) == len(seen) and len(seen) == loc.cardinality
    return StalkResult(prime, loc, tuple(assignments), bijective)


# ---------------------------------------------------------------------------
# the comparison map psi: M_f -> O(D(fM))
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsiMapResult:
    """The canonical map sending m/f^n to the section P -> m/f^n in M_(P:M),
    enumerated over the localized module; bijective exactly when the sheaf
    sees all of M_f (always, for modules with the prime radical condition).
    """

    module: FgModule
    f: int
    domain: LocalizedModule
    space: SectionSpace
    assignments: tuple[tuple[ModElement, Section], ...]
    bijective: bool

    def image_of(self, elem: ModElement) -> Section:
        for x, s in self.assignments:
            if x == elem:
                return s
        raise KeyError("element is not in the enumerated domain")


def psi_map(module: FgModule, f: int, cap: int = DEFAULT_CARDINALITY_CAP) -> PsiMapResult:
    """Evaluate and test the comparison map for one basic open D(fM)."""
    domain = localize(module, MultSet.powers_of(f))
    spectrum = spec_enumerate(module)
    opens = basic_open(f, module, spectrum)
    space = sections(module, opens)

    if domain.cardinality is None:
        # infinite localization (Pruefer surviving f): the section space over
        # the empty spectrum is 0, so the map cannot be injective
        return PsiMapResult(module, f, domain, space, (), False)
    if module.is_prufer:
        # the localization died (p | f): 0 -> O(empty) = 0 is bijective
        zero_sec = space.zero()
        return PsiMapResult(
            module,
            f,
            domain,
            space,
            ((domain.module.zero_element(), zero_sec),),
            space.cardinality == 1,
        )

    assignments = []
    images = set()
    for y in domain.module.elements(cap):
        # y is the class of m/1 for the canonical lift m
        lift = [0] * module.rank
        for (i, _), c in zip(domain.kept, y.coords):
            lift[i] = c
        m = module.element(lift)
        values = {p: loc.project(m) for p, loc in space.stalks}
        s = space.section(values)
        assignments.append((y, s))
        images.add(s.values)
    space_card = space.cardinality
    bijective = len(images) == len(assignments) and len(images) == space_card
    return PsiMapResult(module, f, domain, space, tuple(assignments), bijective)


# ---------------------------------------------------------------------------
# cover decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverDecomposition:
    """Data extracted from a basic-open cover D(fM) <= union D(h_i M):
    an exponent n and pairs (r_i, b_i) with r_i in (h_i M : M) and
    f^n = sum(r_i b_i) exactly.  ``covers_exactly`` reports whether the
    D(r_i M) reproduce D(fM) on the nose, which is guaranteed whenever the
    input cover is exact."""

    module: FgModule
    f: int
    hs: tuple[int, ...]
    exponent: int
    pairs: tuple[tuple[int, int], ...]
    colon_ideals: tuple[Ideal, ...]
    open_f: OpenSet
    open_r_union: OpenSet
    covers_exactly: bool


def cover_decompose(module: FgModule, f: int, hs: list[int]) -> CoverDecomposition:
    if not hs:
        raise CoverError("need at least one covering element")
    spectrum = spec_enumerate(module) if module.is_finite or module.is_prufer or module.is_zero else None
    if spectrum is None:
        raise UnsupportedModuleError("cover decomposition needs an enumerable spectrum")
    d_f = basic_open(f, module, spectrum)
    d_hs = [basic_open(h, module, spectrum) for h in hs]
    union = reduce(lambda a, b: a | b, d_hs)
    if not d_f.issubset(union):
        raise CoverError(
            f"D({f}M) = {sorted(d_f.fiber_primes)} is not covered by "
            f"{[sorted(o.fiber_primes) for o in d_hs]}"
        )
    ideals = [colon(scalar_multiple_submodule(h, module), module) for h in hs]
    total = ideal_sum(*ideals)
    if radical_membership_witness(f, total) is None:
        raise CoverError(f"{f} escapes the radical of the covering colon ideals {total}")
    dec: BezoutDecomposition = bezout_decompose(f, ideals)
    d_rs = [basic_open(r, module, spectrum) for r, _ in dec.pairs]
    union_r = reduce(lambda a, b: a | b, d_rs)
    if not d_f.issubset(union_r):
        raise PropertyViolation(
            f"D({f}M) escaped the union of the D(r_i M) on {module}"
        )
    exact_input = d_f.fiber_primes == union.fiber_primes
    exact_output = d_f.fiber_primes == union_r.fiber_primes
    if exact_input and not exact_output:
        raise PropertyViolation(
            f"exact cover of D({f}M) produced an inexact decomposition on {module}"
        )
    return CoverDecomposition(
        module=module,
        f=f,
        hs=tuple(hs),
        exponent=dec.exponent,
        pairs=dec.pairs,
        colon_ideals=tuple(ideals),
        open_f=d_f,
        open_r_union=union_r,
        covers_exactly=exact_output,
    )


# ---------------------------------------------------------------------------
# the localization isomorphism criterion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsoCriterionResult:
    """Both sides of the criterion: equality of sqrt((fM:M)) and
    sqrt((gM:M)) versus isomorphy of M_f and M_g.  The two agree for every
    module satisfying the prime radical condition; the Pruefer group
    separates them."""

    module: FgModule
    f: int
    g: int
    radical_f: Ideal
    radical_g: Ideal
    loc_f: LocalizedModule
    loc_g: LocalizedModule

    @property
    def radicals_equal(self) -> bool:
        return self.radical_f == self.radical_g

    @property
    def modules_isomorphic(self) -> bool:
        return iso_class_equal(self.loc_f, self.loc_g)


def iso_criterion(module: FgModule, f: int, g: int) -> IsoCriterionResult:
    rad_f = ideal_radical(colon(scalar_multiple_submodule(f, module), module))
    rad_g = ideal_radical(colon(scalar_multiple_submodule(g, module), module))
    return IsoCriterionResult(
        module=module,
        f=f,
        g=g,
        radical_f=rad_f,
        radical_g=rad_g,
        loc_f=localize(module, MultSet.powers_of(f)),
        loc_g=localize(module, MultSet.powers_of(g)),
    )


# ---------------------------------------------------------------------------
# sheaf axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SheafAxiomsReport:
    module: FgModule
    opens: int
    covers: int
    exhaustive_covers: int
    identity_ok: bool
    gluing_ok: bool
    transitivity_ok: bool
    homomorphism_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def sheaf_axioms_check(
    module: FgModule,
    cap: int = DEFAULT_CARDINALITY_CAP,
    family_limit: int = 50_000,
) -> SheafAxiomsReport:
    """Exhaustive sheaf-axiom verification over every open and every cover.

    Checks the identity axiom (a section vanishing on a cover vanishes),
    unique gluing of compatible families, restriction transitivity, and
    that restrictions are module homomorphisms.  Compatible families are
    enumerated outright when the product of the section spaces is at most
    ``family_limit``, and constructed fiberwise otherwise (a family is
    pairwise compatible iff all members sharing a fiber agree there, since
    intersections retain whole fibers).
    """
    if not module.is_finite:
        raise UnsupportedModuleError("sheaf axioms are checked on finite modules")
    spectrum = spec_enumerate(module)
    primes = sorted(spectrum.fiber_primes)
    if len(primes) > 4:
        raise UnsupportedModuleError("open lattice too large: more than 4 fibers")
    failures: list[str] = []

    opens = []
    for k in range(len(primes) + 1):
        for combo in itertools.combinations(primes, k):
            opens.append(spectrum.open_set(combo))
    spaces = {o.fiber_primes: sections(module, o) for o in opens}
    section_lists = {o.fiber_primes: list(spaces[o.fiber_primes].elements(cap)) for o in opens}

    # coordinate-dropping fast path for the inner loops; agreement with the
    # public restriction map is part of the transitivity pass below
    def restrictor(src_primes, dst_primes):
        src, dst = spaces[src_primes], spaces[dst_primes]
        pos = [i for i, (p, _) in enumerate(src.stalks) if p in dst_primes]
        return lambda s: Section(dst, tuple(s.values[i] for i in pos))

    drop = {
        (u.fiber_primes, v.fiber_primes): restrictor(u.fiber_primes, v.fiber_primes)
        for u in opens
        for v in opens
        if v.issubset(u)
    }

    # restriction transitivity and homomorphism property
    transitivity_ok = True
    hom_ok = True
    for u in opens:
        secs_u = section_lists[u.fiber_primes]
        subs = [v for v in opens if v.issubset(u)]
        for v in subs:
            for w in [w for w in subs if w.issubset(v)]:
                for s in secs_u:
                    if restrict(restrict(s, v), w) != restrict(s, w):
                        transitivity_ok = False
                        failures.append(
                            f"transitivity fails via {sorted(v.fiber_primes)} -> {sorted(w.fiber_primes)}"
                        )
            r_uv = drop[u.fiber_primes, v.fiber_primes]
            for s in secs_u:
                if r_uv(s) != restrict(s, v):
                    transitivity_ok = False
                    failures.append("fast restriction disagrees with the public map")
            pairs = itertools.islice(itertools.product(secs_u, secs_u), 1024)
            for s, t in pairs:
                if r_uv(s + t) != r_uv(s) + r_uv(t):
                    hom_ok = False
                    failures.append(f"additivity fails on {sorted(v.fiber_primes)}")
                    break
            for s in secs_u:
                for r in (0, 1, 2, 3, 5):
                    if r_uv(s.scale(r)) != r_uv(s).scale(r):
                        hom_ok = False
                        failures.append(f"scalar action fails on {sorted(v.fiber_primes)}")

    # identity and gluing over every cover of every open
    identity_ok = True
    gluing_ok = True
    covers = 0
    exhaustive_covers = 0
    nonempty = [o for o in opens if o.fiber_primes]
    for u in opens:
        secs_u = section_lists[u.fiber_primes]
        candidates = [o for o in nonempty if o.issubset(u)]
        for k in range(len(candidates) + 1):
            for family in itertools.combinations(candidates, k):
                covered = frozenset().union(*(o.fiber_primes for o in family)) if family else frozenset()
                if covered != u.fiber_primes:
                    continue
                covers += 1
                to_members = [drop[u.fiber_primes, o.fiber_primes] for o in family]
                # index of restriction families; doubles as the identity
                # check (only the zero section may restrict to all zeros)
                index: dict[tuple, list[Section]] = {}
                for s in secs_u:
                    key = tuple(r(s) for r in to_members)
                    index.setdefault(key, []).append(s)
                    if all(r.is_zero for r in key) != s.is_zero:
                        identity_ok = False
                        failures.append(
                            f"identity axiom fails over {sorted(u.fiber_primes)} "
                            f"with cover {[sorted(o.fiber_primes) for o in family]}"
                        )
                if any(len(v) > 1 for v in index.values()):
                    gluing_ok = False
                    failures.append(
                        f"gluing not unique over {sorted(u.fiber_primes)}"
                    )
                # gluing axiom: every compatible family has exactly one glue
                total = 1
                for o in family:
                    total *= len(section_lists[o.fiber_primes])
                if total <= family_limit:
                    exhaustive_covers += 1
                    compatible_count = 0
                    meets = [
                        (i, j, drop[family[i].fiber_primes, meet_fp], drop[family[j].fiber_primes, meet_fp])
                        for i in range(len(family))
                        for j in range(i + 1, len(family))
                        for meet_fp in [family[i].fiber_primes & family[j].fiber_primes]
                    ]
                    for choice in itertools.product(
                        *(section_lists[o.fiber_primes] for o in family)
                    ):
                        ok = True
                        for i, j, ri, rj in meets:
                            if ri(choice[i]) != rj(choice[j]):
                                ok = False
                                break
                        if not ok:
                            continue
                        compatible_count += 1
                        if len(index.get(tuple(choice), ())) != 1:
                            gluing_ok = False
                            failures.append(
                                f"no unique glue over {sorted(u.fiber_primes)} for "
                                f"cover {[sorted(o.fiber_primes) for o in family]}"
                            )
                    # compatible families correspond to per-fiber choices,
                    # i.e. to sections of U
                    if family and compatible_count != len(secs_u):
                        gluing_ok = False
                        failures.append(
                            f"compatible family count {compatible_count} != "
                            f"{len(secs_u)} over {sorted(u.fiber_primes)}"
                        )
                else:
                    # every compatible family is fiberwise consistent, hence
                    # induced by a section; the index already shows each
                    # induced family glues back uniquely, so verify the
                    # members are pairwise compatible
                    for key in index:
                        for (o1, s1), (o2, s2) in itertools.combinations(
                            zip(family, key), 2
                        ):
                            meet_fp = o1.fiber_primes & o2.fiber_primes
                            r1 = drop[o1.fiber_primes, meet_fp]
                            r2 = drop[o2.fiber_primes, meet_fp]
                            if r1(s1) != r2(s2):
                                gluing_ok = False
                                failures.append(
                                    f"induced family incompatible over {sorted(u.fiber_primes)}"
                                )
    return SheafAxiomsReport(
        module=module,
        opens=len(opens),
        covers=covers,
        exhaustive_covers=exhaustive_covers,
        identity_ok=identity_ok,
        gluing_ok=gluing_ok,
        transitivity_ok=transitivity_ok,
        homomorphism_ok=hom_ok,
        failures=tuple(failures),
    )
