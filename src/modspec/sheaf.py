"""The structure sheaf on Spec(M) with locally constant sections.

Sections over an open U assign to each point P a value in the localization
at (P:M).  On a finite spectrum every fiber is itself open (the product of
the other relevant primes cuts it out), so locally constant functions are
exactly the fiberwise-constant ones and the section space over U is the
product of the fiber stalks.  Stalks, the comparison map from a localized
module onto the sections of a basic open, the cover decomposition
f^n = sum(r_i b_i), the localization isomorphism criterion and the sheaf
axioms are all verified by finite enumeration.

The sheaf-axiom check enumerates on integer codes rather than ``Section``
objects.  A section over U is coded by its index in U's enumeration, a
mixed-radix number over the stalk pools; restriction to V is a list from
codes over U to codes over V, since it only drops fibers; addition and the
scalars act digitwise through per-stalk tables.  Every coded map is checked
against the public ``restrict`` and ``Section`` arithmetic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator

from .arith import (
    BezoutDecomposition,
    Ideal,
    NotInRadicalError,
    bezout_decompose,
    ideal,
    ideal_radical,
    ideal_sum,
)
from .fgmodules import (
    DEFAULT_CARDINALITY_CAP,
    FgModule,
    ModElement,
    UnsupportedModuleError,
    iso_class_equal,
    refuse_over_cap,
    scalar_colon,
)
from .localization import LocalizedModule, MultSet, localize
from .spectrum import (
    OpenSet,
    PrimeSubmodule,
    PropertyViolation,
    basic_open,
    spec_enumerate,
)

# sheaf_axioms_check enumerates the compatible families of a cover outright
# when the product of its section spaces is at most this
FAMILY_LIMIT = 50_000


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

    def elements(self) -> Iterator[Section]:
        card = self.cardinality
        if card is None:
            raise UnsupportedModuleError("section space over an infinite stalk")
        refuse_over_cap("|O(U)|", card, "cardinality", DEFAULT_CARDINALITY_CAP)
        pools = [list(loc.module.elements()) for _, loc in self.stalks]
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
def sections(open_set: OpenSet) -> SectionSpace:
    """The module of locally constant sections over an open set of Spec(M),
    M the module of the open set's spectrum."""
    module = open_set.spectrum.module
    stalks = tuple(
        (p, localize(module, MultSet.complement_of_prime(p)))
        for p in sorted(open_set.fiber_primes)
    )
    # the carrier is the product of the stalks M_(p): its i-th invariant
    # factor is the product over the fibers p of the p-part of M's i-th
    parts = zip(*(module.primary[p] for p in open_set.fiber_primes))
    carrier = FgModule(module.ring, tuple(c for c in map(math.prod, parts) if c > 1))
    return SectionSpace(open_set, stalks, carrier)


def restrict(section: Section, smaller: OpenSet) -> Section:
    """Drop the fibers outside the smaller open; a module homomorphism."""
    big = section.space.open_set
    if not smaller.issubset(big):
        raise RestrictionError(f"{sorted(smaller.fiber_primes)} is not inside {sorted(big.fiber_primes)}")
    target = sections(smaller)
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

    U is the open set of the section s.  Equality is germ equality: on a
    finite spectrum the minimal open around P is its whole fiber, so two
    representatives agree on a neighborhood of P iff their values at P's
    fiber agree.
    """

    at: PrimeSubmodule
    section: Section

    @property
    def open_set(self) -> OpenSet:
        return self.section.space.open_set

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


def stalk(prime: PrimeSubmodule) -> StalkResult:
    """Germ space at a prime P of Spec(M), M the parent of P, with the
    explicit isomorphism onto M_(p)."""
    module = prime.sub.parent
    if not module.is_finite:
        raise UnsupportedModuleError("stalks are enumerated for finite modules")
    spectrum = spec_enumerate(module)
    p = prime.char_prime
    if prime not in spectrum.fiber(p):
        raise ValueError(f"{prime.sub} is not a point of Spec({module})")
    loc = localize(module, MultSet.complement_of_prime(p))
    minimal = spectrum.open_set({p})
    space = sections(minimal)
    assignments = []
    seen = set()
    for s in space.elements():
        germ = Germ(prime, s)
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
    """Evaluate and test the comparison map for one basic open D(fM).  The
    section space is built before M_f, so a module that has no spectrum, or
    whose exponent cannot be factored, is refused before f is factored."""
    space = sections(basic_open(f, module))
    domain = localize(module, MultSet.powers_of(f))

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
        m = module.element(domain.lift(y.coords))
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
    if not (module.is_finite or module.is_prufer):
        raise UnsupportedModuleError("cover decomposition needs an enumerable spectrum")
    d_f = basic_open(f, module)
    d_hs = [basic_open(h, module) for h in hs]
    union = reduce(lambda a, b: a | b, d_hs)
    if not d_f.issubset(union):
        raise CoverError(
            f"D({f}M) = {sorted(d_f.fiber_primes)} is not covered by "
            f"{[sorted(o.fiber_primes) for o in d_hs]}"
        )
    ideals = [scalar_colon(h, module) for h in hs]
    try:
        dec: BezoutDecomposition = bezout_decompose(f, ideals)
    except NotInRadicalError:
        raise CoverError(
            f"{f} escapes the radical of the covering colon ideals {ideal_sum(*ideals)}"
        ) from None
    d_rs = [basic_open(r, module) for r, _ in dec.pairs]
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
        return iso_class_equal(self.loc_f.module, self.loc_g.module)


def _colon_radical(module: FgModule, f: int) -> Ideal:
    """sqrt((fM : M)).  For a finite module (fM : M) = (gcd(f, e)), e the
    exponent, so its radical is the product of the primes of M dividing f
    (all of them for f = 0), read off ``module.primary`` with no
    factorization.  Otherwise the colon ideal is factored."""
    if module.is_finite:
        return ideal(module.ring, math.prod(p for p in module.primary if f % p == 0))
    return ideal_radical(scalar_colon(f, module))


def iso_criterion(module: FgModule, f: int, g: int) -> IsoCriterionResult:
    rad_f = _colon_radical(module, f)
    rad_g = _colon_radical(module, g)
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


def _lift(tables, radices) -> list[int]:
    """Map every code over an open digitwise: entry c is the code whose
    digit at each stalk is ``table[d]`` for that stalk's digit d of c,
    read in the target radices.  A stalk that is dropped has the table
    [0, ..., 0] and radix 1.  Codes run in ``itertools.product`` order."""
    codes = [0]
    for table, radix in zip(tables, radices):
        codes = [c * radix + t for c in codes for t in table]
    return codes


def _digits(code: int, radices: list[int]) -> list[int]:
    out = []
    for radix in reversed(radices):
        code, d = divmod(code, radix)
        out.append(d)
    return out[::-1]


def _addition_row(pool: list[ModElement], index: dict, x: int) -> list[int]:
    """Digits of pool[x] + y for every y of one stalk, by ModElement
    arithmetic."""
    return [index[(pool[x] + y).coords] for y in pool]


def _compatible_families(family, proj, sizes) -> list[tuple[int, ...]]:
    """Every choice of one section code per member of ``family`` that agrees
    on all pairwise meets.  Choices grow member by member; the next member
    ranges over the preimage of the earlier members' values on its meets
    with them.  A choice left out has a prefix that already disagrees, so
    every element of the product of the members' sections is decided."""
    found: list[tuple[int, ...]] = [()]
    for j, o in enumerate(family):
        meets = [o & family[i] for i in range(j)]
        earlier = [(i, proj[family[i], w]) for i, w in enumerate(meets)]
        preimages: dict[tuple, list[int]] = {}
        if meets:
            for c, key in enumerate(zip(*(proj[o, w] for w in meets))):
                preimages.setdefault(key, []).append(c)
        else:
            preimages[()] = list(range(sizes[o]))
        found = [
            choice + (c,)
            for choice in found
            for c in preimages.get(tuple(col[choice[i]] for i, col in earlier), ())
        ]
    return found


def sheaf_axioms_check(module: FgModule) -> SheafAxiomsReport:
    """Exhaustive sheaf-axiom verification over every open and every cover.

    Checks the identity axiom (a section vanishing on a cover vanishes),
    unique gluing of compatible families, restriction transitivity, and
    that restrictions are module homomorphisms.

    The checks run on integer codes.  A section over an open U is its
    index in ``sections(U).elements()``: a mixed-radix number whose
    digits are the positions of its values in the stalk pools, in
    ``itertools.product`` order.  Restriction to V drops digits, so it is
    a precomputed list ``proj[U, V]`` from codes over U to codes over V.
    Addition and the scalars 0, 1, 2, 3, 5 act digitwise through per-stalk
    tables built from ModElement arithmetic.  Every coded restriction is
    checked against the public ``restrict`` on every section, and the coded
    addition (on at most 1024 pairs of sections of each open, as for
    additivity) and scalar action against the public ``Section`` operations,
    so the coded transitivity and homomorphism checks carry over to the
    public maps.

    Compatible families are enumerated outright when the product of the
    section spaces is at most ``FAMILY_LIMIT``: a search member by member
    through the preimages of the meets decides every element of that
    product.  Otherwise they are constructed fiberwise (a family is
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

    opens = [
        frozenset(combo)
        for k in range(len(primes) + 1)
        for combo in itertools.combinations(primes, k)
    ]
    open_sets = {u: spectrum.open_set(u) for u in opens}
    section_lists = {u: list(sections(open_sets[u]).elements()) for u in opens}
    sizes = {u: len(section_lists[u]) for u in opens}
    subs = {u: [v for v in opens if v <= u] for u in opens}

    # per-stalk digit tables; the full open's sections bound every pool
    stalks = dict(sections(open_sets[opens[-1]]).stalks)
    pools = {p: list(stalks[p].module.elements()) for p in primes}
    index = {p: {e.coords: i for i, e in enumerate(pools[p])} for p in primes}
    radix = {p: len(pools[p]) for p in primes}
    scalars = (0, 1, 2, 3, 5)
    scale = {
        (p, r): [index[p][e.scale(r).coords] for e in pools[p]]
        for p in primes
        for r in scalars
    }
    zero = {p: index[p][stalks[p].module.zero_element().coords] for p in primes}
    rows: dict[tuple[int, int], list[int]] = {}

    def radices(u) -> list[int]:
        return [radix[p] for p in sorted(u)]

    def zero_code(u) -> int:
        code = 0
        for p in sorted(u):
            code = code * radix[p] + zero[p]
        return code

    def sums_with(u, a: int) -> list[int]:
        """Codes of a + t for every code t over u."""
        tables = []
        for p, d in zip(sorted(u), _digits(a, radices(u))):
            if (p, d) not in rows:
                rows[p, d] = _addition_row(pools[p], index[p], d)
            tables.append(rows[p, d])
        return _lift(tables, radices(u))

    proj = {
        (u, v): _lift(
            [range(radix[p]) if p in v else [0] * radix[p] for p in sorted(u)],
            [radix[p] if p in v else 1 for p in sorted(u)],
        )
        for u in opens
        for v in subs[u]
    }
    scaled = {(u, r): _lift([scale[p, r] for p in sorted(u)], radices(u)) for u in opens for r in scalars}

    # restriction transitivity on codes, and the codes against the public map
    transitivity_ok = True
    for u in opens:
        for v in subs[u]:
            r_uv = proj[u, v]
            for w in subs[v]:
                if list(map(proj[v, w].__getitem__, r_uv)) != proj[u, w]:
                    transitivity_ok = False
                    failures.append(f"transitivity fails via {sorted(v)} -> {sorted(w)}")
            secs_v = section_lists[v]
            for s, c in zip(section_lists[u], r_uv):
                if restrict(s, open_sets[v]) != secs_v[c]:
                    transitivity_ok = False
                    failures.append("coded restriction disagrees with the public map")

    # homomorphism property on codes, and the coded arithmetic against the
    # public one, on min(n^2, 1024) pairs a + t: the first summands a are
    # spread evenly over the sections, each with a prefix of the t
    hom_ok = True
    for u in opens:
        secs = section_lists[u]
        n = sizes[u]
        for r in scalars:
            if any(secs[c] != s.scale(r) for s, c in zip(secs, scaled[u, r])):
                hom_ok = False
                failures.append(f"coded scalar action disagrees with the public one over {sorted(u)}")
        sums = []
        k = min(n, -(-1024 // n))
        for j in range(k):
            a = (2 * j + 1) * n // (2 * k)
            row = sums_with(u, a)[: 1024 - j * n]
            if any(secs[c] != secs[a] + t for t, c in zip(secs, row)):
                hom_ok = False
                failures.append(f"coded addition disagrees with the public sum over {sorted(u)}")
            sums.append((a, row))
        for v in subs[u]:
            r_uv = proj[u, v]
            for a, row in sums:
                row_v = sums_with(v, r_uv[a])
                if list(map(r_uv.__getitem__, row)) != list(map(row_v.__getitem__, r_uv[: len(row)])):
                    hom_ok = False
                    failures.append(f"additivity fails on {sorted(v)}")
                    break
            for r in scalars:
                if list(map(r_uv.__getitem__, scaled[u, r])) != list(map(scaled[v, r].__getitem__, r_uv)):
                    hom_ok = False
                    failures.append(f"scalar action fails on {sorted(v)}")

    # identity and gluing over every cover of every open
    identity_ok = True
    gluing_ok = True
    covers = 0
    exhaustive_covers = 0
    nonempty = [o for o in opens if o]
    for u in opens:
        n = sizes[u]
        candidates = [o for o in nonempty if o <= u]
        # kernel[o]: bit a is set when section a restricts to zero on o
        kernel = {}
        for o in candidates:
            z = zero_code(o)
            kernel[o] = sum(1 << a for a, c in enumerate(proj[u, o]) if c == z)
        only_zero = 1 << zero_code(u)
        agree: dict[tuple, bool] = {}
        for k in range(len(candidates) + 1):
            for family in itertools.combinations(candidates, k):
                if frozenset().union(*family) != u:
                    continue
                covers += 1
                # only the zero section may restrict to zero on every member
                vanishing = (1 << n) - 1
                for o in family:
                    vanishing &= kernel[o]
                if vanishing != only_zero:
                    identity_ok = False
                    failures.append(
                        f"identity axiom fails over {sorted(u)} "
                        f"with cover {[sorted(o) for o in family]}"
                    )
                # the family each section induces; distinct sections must
                # induce distinct families
                keys = list(zip(*(proj[u, o] for o in family))) if family else [()] * n
                if len(set(keys)) != n:
                    gluing_ok = False
                    failures.append(f"gluing not unique over {sorted(u)}")
                # gluing axiom: every compatible family has exactly one glue
                if math.prod(sizes[o] for o in family) <= FAMILY_LIMIT:
                    exhaustive_covers += 1
                    glues = Counter(keys)
                    found = _compatible_families(family, proj, sizes)
                    if any(glues[choice] != 1 for choice in found):
                        gluing_ok = False
                        failures.append(
                            f"no unique glue over {sorted(u)} for "
                            f"cover {[sorted(o) for o in family]}"
                        )
                    # compatible families correspond to per-fiber choices,
                    # i.e. to sections of U
                    if family and len(found) != n:
                        gluing_ok = False
                        failures.append(
                            f"compatible family count {len(found)} != {n} over {sorted(u)}"
                        )
                else:
                    # every compatible family is fiberwise consistent, hence
                    # induced by a section; the keys already show each
                    # induced family glues back uniquely, so verify the
                    # members are pairwise compatible
                    for o1, o2 in itertools.combinations(family, 2):
                        if (o1, o2) not in agree:
                            w = o1 & o2
                            agree[o1, o2] = list(map(proj[o1, w].__getitem__, proj[u, o1])) == list(
                                map(proj[o2, w].__getitem__, proj[u, o2])
                            )
                        if not agree[o1, o2]:
                            gluing_ok = False
                            failures.append(f"induced family incompatible over {sorted(u)}")
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
