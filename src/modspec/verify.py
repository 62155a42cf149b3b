"""Verification suites: every acceptance-grade property check, exact.

Each suite walks the deterministic corpus (or a caller-supplied module
list), evaluates one family of identities with tolerance zero, and reports
counterexamples instead of raising, so a front end can aggregate.  The
randomized suites draw from a fixed seed; identical invocations produce
identical reports.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .arith import ZZ, Zmod, factorize, ideal, ideal_combine, ideal_radical
from .corpus import finite_corpus, full_corpus
from .fgmodules import (
    DEFAULT_CARDINALITY_CAP,
    FgModule,
    UnsupportedModuleError,
    all_submodules,
    colon,
    direct_sum_with_embeddings,
    iso_class_equal,
    refuse_over_cap,
    scalar_multiple_submodule,
    submodule_from_generators,
)
from .localization import (
    CorrespondenceError,
    MultSet,
    localize,
    localize_bruteforce,
    prime_correspondence,
    verify_localization_transfer,
)
from .sheaf import cover_decompose, iso_criterion, psi_map, sections, sheaf_axioms_check, stalk
from .spectrum import (
    PropertyViolation,
    _prime_characteristic,
    _scalar_tables,
    basic_open,
    is_pradical,
    natural_map,
    prime_radical,
    spec_enumerate,
    variety,
)

DEFAULT_SEED = 20260810
# criterion 8 on the corpus checks every triple of ideals of Z/n for
# n <= MAX_MODULUS, and RANDOMIZED_TRIPLES seeded triples of ideals of Z
MAX_MODULUS = 60
RANDOMIZED_TRIPLES = 1000
# criterion 8 on a module with exponent e checks d(e)^3 triples, and
# refuses past this many before it builds a table
MAX_IDEAL_TRIPLES = 2**18
# the sheaf axiom suite walks every open and cover of modules with at most
# this many fibers
MAX_AXIOM_FIBERS = 4


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    description: str
    checks: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _modules(modules: Sequence[FgModule] | None, *, finite_only=False):
    if modules is None:
        modules = finite_corpus() if finite_only else full_corpus()
    out = []
    for m in modules:
        _check_verifiable(m)
        if m.is_prufer and finite_only:
            continue
        out.append(m)
    return out


def _check_verifiable(module: FgModule) -> None:
    """Refuse a module with free rank: no suite checks one, and a pass
    with nothing checked would read as a verified module."""
    if not module.is_finite and not module.is_prufer:
        raise UnsupportedModuleError(
            f"the verification suites check finite modules and the Pruefer group; "
            f"{module} has free rank {module.free_rank}"
        )


def _scalar_bound(module: FgModule) -> int:
    """f ranges over 0..L with L one past the largest relevant prime."""
    primes = module.relevant_primes() if module.is_finite else (module.prufer_prime,)
    return (max(primes) if primes else 1) + 1


def _mult_sets(module: FgModule) -> list[MultSet]:
    out = [MultSet.powers_of(f) for f in range(0, _scalar_bound(module) + 1)]
    if module.is_finite:
        out += [MultSet.complement_of_prime(p) for p in module.relevant_primes()]
    return out


# -- criterion 1 -------------------------------------------------------------

def check_artinian_pradical(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Every module over an Artinian base ring Z/n satisfies the prime
    radical condition."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        if m.ring.modulus is None:
            continue
        checks += 1
        res = is_pradical(m)
        if not res.holds:
            failures.append(f"{m}: certificate {res.certificate}")
    return SuiteResult(
        "artinian-pradical",
        "modules over Z/n satisfy the prime radical condition",
        checks,
        tuple(failures),
    )


# -- criterion 2 -------------------------------------------------------------

def check_strategy_agreement(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Brute-force and classified spectrum enumeration agree as
    fiber-labeled sets."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        if m.cardinality > 128:
            continue
        checks += 1
        try:
            spec_enumerate(m, "both")
        except PropertyViolation as exc:
            failures.append(str(exc))
    return SuiteResult(
        "strategy-oracle",
        "spectrum strategies agree on finite modules with |M| <= 128",
        checks,
        tuple(failures),
    )


# -- criterion 3 -------------------------------------------------------------

def check_prime_radical_oracle(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Closed-form prime radical equals the brute-force intersection for
    every submodule."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        if m.cardinality > 64:
            continue
        for sub in all_submodules(m):
            checks += 1
            closed = prime_radical(sub, "closed_form")
            brute = prime_radical(sub, "bruteforce")
            if closed != brute:
                failures.append(f"{m}: N = {sub} closed {closed} vs brute {brute}")
    return SuiteResult(
        "prime-radical-oracle",
        "closed form radical = spectrum intersection, |M| <= 64",
        checks,
        tuple(failures),
    )


# -- criterion 4 -------------------------------------------------------------

def check_stalks(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """The stalk at every prime is the localization at its characteristic
    ideal, via the explicit evaluation bijection."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        for ps in spec_enumerate(m).primes():
            checks += 1
            res = stalk(ps)
            expected = localize(m, MultSet.complement_of_prime(ps.char_prime))
            if not res.bijective:
                failures.append(f"{m}: evaluation not bijective at {ps.sub}")
            elif not iso_class_equal(res.localized.module, expected.module):
                failures.append(f"{m}: stalk mismatch at {ps.sub}")
    return SuiteResult(
        "stalks",
        "stalk at P is isomorphic to the localization at (P:M)",
        checks,
        tuple(failures),
    )


# -- criterion 5 -------------------------------------------------------------

def check_sections_match_localizations(
    modules: Sequence[FgModule] | None = None,
) -> SuiteResult:
    """The map m/f^n -> (P -> m/f^n) is bijective onto the sections of
    D(fM) for every finite module and scalar, globally included."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        for f in range(0, _scalar_bound(m) + 1):
            checks += 1
            res = psi_map(m, f)
            # the walk over M_f is the reference for the algebraic verdict
            images = {res.image(y).values for y in res.domain.module.elements()}
            if not (res.bijective and len(images) == res.domain.cardinality == res.space.cardinality):
                failures.append(f"{m}: comparison map not bijective at f={f}")
        checks += 1
        if not iso_class_equal(psi_map(m, 1).space.carrier, m):
            failures.append(f"{m}: global sections differ from M")
    return SuiteResult(
        "sections",
        "sections over D(fM) realize the localized module M_f",
        checks,
        tuple(failures),
    )


# -- criterion 6 -------------------------------------------------------------

def check_iso_criterion(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Radical equality of (fM:M), (gM:M) is equivalent to M_f iso M_g on
    finite modules; the Pruefer group separates the two sides."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        bound = _scalar_bound(m)
        for f in range(1, bound + 1):
            for g in range(1, bound + 1):
                checks += 1
                res = iso_criterion(m, f, g)
                if res.radicals_equal != res.modules_isomorphic:
                    failures.append(f"{m}: f={f} g={g} sides disagree")
    for m in _modules(modules):
        if not m.is_prufer:
            continue
        p = m.prufer_prime
        q = next(x for x in (2, 3, 5, 7) if x != p)
        checks += 1
        res = iso_criterion(m, p, q)
        counterexample = (
            res.radical_f == ideal(ZZ, 1)
            and res.radical_g == ideal(ZZ, 1)
            and res.loc_f.kind == "zero"
            and res.loc_g.kind == "prufer"
            and not res.modules_isomorphic
        )
        if not counterexample:
            failures.append(f"{m}: counterexample profile not reproduced")
    return SuiteResult(
        "iso-criterion",
        "localization isomorphism criterion, both directions",
        checks,
        tuple(failures),
    )


# -- criterion 7 -------------------------------------------------------------

def check_prufer_controls(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Negative controls on the divisible torsion group: empty spectrum,
    failing prime radical condition with certificate, vanishing global
    sections, and a natural map that is not surjective."""
    failures = []
    checks = 0
    for m in _modules(modules):
        if not m.is_prufer:
            continue
        checks += 4
        spec = spec_enumerate(m)
        if not spec.is_empty:
            failures.append(f"{m}: spectrum not empty")
        res = is_pradical(m)
        if res.holds or res.certificate is None or res.certificate.prime_ideal != ideal(
            ZZ, m.prufer_prime
        ):
            failures.append(f"{m}: missing or wrong certificate")
        space = sections(spec.full_open())
        if not space.carrier.is_zero:
            failures.append(f"{m}: global sections nonzero")
        if natural_map(spec).surjective:
            failures.append(f"{m}: natural map reported surjective")
    return SuiteResult(
        "prufer-controls",
        "primeless divisible counterexample behaves as stated",
        checks,
        tuple(failures),
    )


# -- criterion 8 -------------------------------------------------------------

def check_radical_sum_identity(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """sqrt((I+J) cap (I+K)) = sqrt(I + (J cap K)) on triples of ideals.

    On the corpus (no ``modules``) it checks every triple of ideals of Z/n
    for n <= MAX_MODULUS, and RANDOMIZED_TRIPLES seeded triples over Z.
    On given modules it checks the ideals that the paper's radical results
    concern: those of the module's ring R that contain Ann(M) = (e), the
    (d) with d | e.  Every one of the d(e)^3 triples is checked, once for
    each distinct (R, e); the zero module has the single triple ((1), (1),
    (1)).  The Pruefer group has annihilator 0, so every ideal of Z
    qualifies and it brings the seeded triples.  More than
    MAX_IDEAL_TRIPLES triples on one module refuse before any table is
    built.

    The ideals of a scope are the divisor ideals (d), so the library's
    sum, intersection and radical are tabled once per scope, indexed by
    divisor position, and each triple reads its two sides off the tables.
    A result outside the scope's ideals is a failure, and so is every
    triple that needs it."""
    failures: list[str] = []
    if modules is None:
        scopes = [
            (Zmod(n), [d for d in range(1, n + 1) if n % d == 0]) for n in range(2, MAX_MODULUS + 1)
        ]
        seeded = True
    else:
        scopes, seeded = _annihilator_scopes(modules)
    checks = sum(_tabled_triples(ring, divisors, failures) for ring, divisors in scopes)
    if seeded:
        rng = random.Random(DEFAULT_SEED)
        for _ in range(RANDOMIZED_TRIPLES):
            i, j, k = (ideal(ZZ, rng.randint(0, 10**6)) for _ in range(3))
            checks += 1
            lhs = ideal_radical(
                ideal_combine("intersect", ideal_combine("sum", i, j), ideal_combine("sum", i, k))
            )
            rhs = ideal_radical(ideal_combine("sum", i, ideal_combine("intersect", j, k)))
            if lhs != rhs:
                failures.append(f"Z: I={i.gen} J={j.gen} K={k.gen}")
    return SuiteResult(
        "radical-sum-identity",
        "radical of (I+J) cap (I+K) equals radical of I + (J cap K)",
        checks,
        tuple(failures),
    )


def _annihilator_scopes(modules: Sequence[FgModule]):
    """Criterion 8's scopes on given modules, and whether a Pruefer group
    asks for the seeded triples over Z.  A scope is (R, the divisors of e
    in ascending order) for each distinct ring and exponent e, in the order
    met; each is counted, and refused past the cap, before it is listed."""
    scopes: dict[tuple, list[int]] = {}
    seeded = False
    for m in _modules(modules):
        if m.is_prufer:
            seeded = True
        elif (m.ring, m.exponent) not in scopes:
            e = m.exponent
            powers = [[p**k for k in range(v + 1)] for p, v in factorize(e).items()]
            refuse_over_cap(
                f"the ideal triples over Ann(M) = ({e}), d(e)^3",
                math.prod(map(len, powers)) ** 3,
                "enumeration",
                MAX_IDEAL_TRIPLES,
            )
            scopes[m.ring, e] = sorted(map(math.prod, itertools.product(*powers)))
    return [(ring, divisors) for (ring, _), divisors in scopes.items()], seeded


def _tabled_triples(ring, divisors: list[int], failures: list[str]) -> int:
    """Check every triple of the ideals (d) of ``ring``, d in ``divisors``
    (those of e, ascending), off tables of the library's sum, intersection
    and radical; append each failure and return the number of checks."""
    ideals = [ideal(ring, d) for d in divisors]
    position = {a: x for x, a in enumerate(ideals)}
    e = divisors[-1]
    outside = "a divisor ideal of the ring" if ring.modulus == e else f"an ideal over ({e})"

    def locate(result, what):
        # None marks a result outside the scope's ideals; it propagates
        # through at() and radical_of(), and the triple fails
        if result not in position:
            failures.append(f"{ring}: {what} = {result}, not {outside}")
        return position.get(result)

    def table(op):
        return [
            [locate(ideal_combine(op, a, b), f"{op}({a.gen}, {b.gen})") for b in ideals]
            for a in ideals
        ]

    sums, meets = table("sum"), table("intersect")
    radicals = [locate(ideal_radical(a), f"radical({a.gen})") for a in ideals]

    def at(table, x, y):
        return None if x is None or y is None else table[x][y]

    def radical_of(x):
        return None if x is None else radicals[x]

    for x, i in enumerate(ideals):
        for y, j in enumerate(ideals):
            for z, k in enumerate(ideals):
                lhs = radical_of(at(meets, sums[x][y], sums[x][z]))
                rhs = radical_of(at(sums, x, meets[y][z]))
                if lhs is None or lhs != rhs:
                    failures.append(f"{ring}: I={i.gen} J={j.gen} K={k.gen}")
    return len(ideals) ** 3


# -- criterion 9 -------------------------------------------------------------

def check_prime_correspondence(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Localization bijection P -> P_S with inverse Q -> Q^c, order
    preserved, colon ideals commuting with localization."""
    failures = []
    checks = 0
    for m in _modules(modules):
        for ms in _mult_sets(m):
            checks += 1
            try:
                prime_correspondence(m, ms)
            except CorrespondenceError as exc:
                failures.append(str(exc))
    return SuiteResult(
        "prime-correspondence",
        "localization prime correspondence with colon commutation",
        checks,
        tuple(failures),
    )


# -- criterion 10 ------------------------------------------------------------

def check_direct_sums(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Direct sums stay in the prime radical class, and primes of a summand
    lift to primes of the sum with the same characteristic ideal.

    The 200 draws of (m1, m2) from the pool repeat pairs: each distinct
    pair is checked once per call, and every draw adds that pair's checks
    and failures, so the counts are those of checking each draw afresh.
    A sum needs one base ring, so the pool is the finite modules over the
    ring of the first: Z on the corpus.  On a module file the pool is that
    one module, over Z or Z/n, so all draws are the pair (M, M)."""
    failures = []
    checks = 0
    finite = _modules(modules, finite_only=True)
    pool = [m for m in finite if m.ring == finite[0].ring]
    rng = random.Random(DEFAULT_SEED)
    checked: dict[tuple[FgModule, FgModule], tuple[int, list[str]]] = {}
    # a Pruefer group alone leaves the pool empty, which makes no checks
    for _ in range(200 if pool else 0):
        pair = rng.choice(pool), rng.choice(pool)
        if pair not in checked:
            checked[pair] = _direct_sum_checks(*pair)
        pair_checks, pair_failures = checked[pair]
        checks += pair_checks
        failures += pair_failures
    return SuiteResult(
        "direct-sums",
        "direct sums preserve the prime radical condition; primes lift",
        checks,
        tuple(failures),
    )


def _direct_sum_checks(m1: FgModule, m2: FgModule) -> tuple[int, list[str]]:
    """The checks and failures of criterion 10 on one pair (m1, m2).  The
    definitional prime test of each lift reads the scalar tables of the
    sum, built once per pair, as ``is_prime_submodule`` would build them."""
    failures = []
    m, e1, e2 = direct_sum_with_embeddings(m1, m2)
    checks = 1
    if not is_pradical(m).holds:
        failures.append(f"{m1} (+) {m2}: prime radical condition lost")
    tables = None
    for ps in spec_enumerate(m1).primes():
        checks += 1
        p = ps.char_prime
        gens = [e1.apply(m1.element(row)) for row in ps.sub.basis]
        gens += [e2.apply(g) for g in m2.generators()]
        lifted = submodule_from_generators(m, gens)
        ok = (
            not lifted.is_full
            and scalar_multiple_submodule(p, m) <= lifted
            and colon(lifted) == ideal(m.ring, p)
        )
        if ok and m.cardinality <= 512:
            if tables is None:
                tables = _scalar_tables(m, DEFAULT_CARDINALITY_CAP)
            ok = _prime_characteristic(lifted, tables) == ideal(m.ring, p)
        if not ok:
            failures.append(f"{m1} (+) {m2}: prime over ({p}) fails to lift")
    return checks, failures


# -- criterion 11 ------------------------------------------------------------

def check_localization_oracle(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """The factor-stripping localization agrees with the pair-equivalence
    oracle up to isomorphism class."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        for ms in _mult_sets(m):
            checks += 1
            fast = localize(m, ms)
            slow = localize_bruteforce(m, ms)
            if not iso_class_equal(fast.module, slow.module) or fast.ring != slow.ring:
                failures.append(f"{m} at {ms}: {fast.factors} vs {slow.factors}")
    return SuiteResult(
        "localization-oracle",
        "localization matches the brute-force pair construction",
        checks,
        tuple(failures),
    )


# -- criterion 12 ------------------------------------------------------------

def check_cover_decomposition(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Random exact covers of basic opens decompose: f^n = sum(r_i b_i)
    exactly with r_i in (h_i M : M), and D(fM) = union D(r_i M)."""
    failures = []
    checks = 0
    pool = [m for m in _modules(modules, finite_only=True) if not m.is_zero]
    rng = random.Random(DEFAULT_SEED)
    coprime_pad = (1, 1, 5, 7, 25, 35, 49)
    # the zero module alone leaves the pool empty, which makes no checks
    for _ in range(100 if pool else 0):
        m = rng.choice(pool)
        relevant = sorted(spec_enumerate(m).fiber_primes)
        f = rng.randint(0, 12)
        d_f = sorted(basic_open(f, m).fiber_primes)
        k = rng.randint(1, 3)
        subsets = []
        for i in range(k):
            subset = {p for p in d_f if rng.random() < 0.6}
            subsets.append(subset)
        missing = set(d_f) - set().union(*subsets)
        for p in missing:
            subsets[rng.randrange(k)].add(p)
        hs = []
        for subset in subsets:
            h = 1
            for p in relevant:
                if p not in subset:
                    h *= p ** rng.randint(1, 2)
            pad = rng.choice(coprime_pad)
            if all(pad % p for p in relevant):
                h *= pad
            hs.append(h)
        checks += 1
        try:
            dec = cover_decompose(m, f, hs)
        except PropertyViolation as exc:
            failures.append(f"{m}: f={f} hs={hs}: {exc}")
            continue
        target = m.ring.reduce(f) ** dec.exponent
        acc = sum(r * b for r, b in dec.pairs)
        if m.ring.modulus is not None:
            target %= m.ring.modulus
            acc %= m.ring.modulus
        if acc != target:
            failures.append(f"{m}: f={f} hs={hs}: combination does not re-verify")
        if not all(
            a.contains_element(r) for (r, _), a in zip(dec.pairs, dec.colon_ideals)
        ):
            failures.append(f"{m}: f={f} hs={hs}: coefficient outside its colon ideal")
        if not dec.covers_exactly:
            failures.append(f"{m}: f={f} hs={hs}: D(fM) != union D(r_i M)")
    return SuiteResult(
        "cover-decomposition",
        "exact covers of D(fM) yield exact combinations f^n = sum r_i b_i",
        checks,
        tuple(failures),
    )


# -- criterion 13 ------------------------------------------------------------

def check_sheaf_axioms(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Identity, unique gluing and restriction transitivity over every open
    and every cover, for modules with at most MAX_AXIOM_FIBERS fibers."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        if len(spec_enumerate(m).fiber_primes) > MAX_AXIOM_FIBERS:
            continue
        checks += 1
        report = sheaf_axioms_check(m)
        if not report.ok:
            failures.append(f"{m}: {report.failures[:3]}")
    return SuiteResult(
        "sheaf-axioms",
        "identity + gluing + transitivity over all opens and covers",
        checks,
        tuple(failures),
    )


# -- extra library-level properties used by `verify --suite all` -------------

def check_transfer_reports(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Localization transfer clauses hold with their hypotheses."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        checks += 1
        report = verify_localization_transfer(m, _mult_sets(m))
        if not report.ok:
            bad = [c.name for c in report.clauses if not c.ok]
            failures.append(f"{m}: {bad}")
    return SuiteResult(
        "localization-transfer",
        "transfer of the prime radical condition along localizations",
        checks,
        tuple(failures),
    )


def check_primeful(modules: Sequence[FgModule] | None = None) -> SuiteResult:
    """Finite modules are primeful: the natural map hits every prime over
    the annihilator; varieties agree with their prime radicals."""
    failures = []
    checks = 0
    for m in _modules(modules, finite_only=True):
        checks += 1
        if not natural_map(spec_enumerate(m)).surjective:
            failures.append(f"{m}: natural map not surjective")
        if m.cardinality <= 64:
            for sub in all_submodules(m):
                checks += 1
                if variety(sub) != variety(prime_radical(sub)):
                    failures.append(f"{m}: V(N) != V(prime radical of N)")
    return SuiteResult(
        "primeful",
        "finite modules are primeful; V(N) = V(radical)",
        checks,
        tuple(failures),
    )


ACCEPTANCE_CRITERIA: tuple[tuple[str, Callable[..., SuiteResult]], ...] = (
    ("1", check_artinian_pradical),
    ("2", check_strategy_agreement),
    ("3", check_prime_radical_oracle),
    ("4", check_stalks),
    ("5", check_sections_match_localizations),
    ("6", check_iso_criterion),
    ("7", check_prufer_controls),
    ("8", check_radical_sum_identity),
    ("9", check_prime_correspondence),
    ("10", check_direct_sums),
    ("11", check_localization_oracle),
    ("12", check_cover_decomposition),
    ("13", check_sheaf_axioms),
)

# CLI suite tokens; "all" additionally runs every acceptance criterion plus
# the extra library-level properties
SUITES: dict[str, Callable[..., SuiteResult]] = {
    "2.1": check_radical_sum_identity,
    "2.3": check_direct_sums,
    "2.4": check_prime_correspondence,
    "3.1": check_stalks,
    "3.2": check_sections_match_localizations,
    "4.1": check_iso_criterion,
    "sheaf-axioms": check_sheaf_axioms,
}


def run_suite(name: str, modules: Sequence[FgModule] | None = None) -> list[SuiteResult]:
    """The results of one suite, or of all of them, on the corpus or on the
    given modules.  A single suite that makes no check on the given modules
    refuses, naming why, since a pass with nothing checked would read as a
    verified module; under "all" such a suite reports 0 checks."""
    for m in modules or ():
        _check_verifiable(m)
    if name == "all":
        results = [fn(modules) for _, fn in ACCEPTANCE_CRITERIA]
        results.append(check_transfer_reports(modules))
        results.append(check_primeful(modules))
        return results
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    result = SUITES[name](modules)
    if not result.checks:
        reasons = [_nothing_to_check(name, m) for m in modules or ()] or ["no module is given"]
        raise UnsupportedModuleError(f"suite {name} checks nothing: {'; '.join(reasons)}")
    return [result]


def _nothing_to_check(name: str, module: FgModule) -> str:
    """Why the single suite ``name`` makes no check on ``module``.  Suites
    2.1, 2.4 and 4.1 check every finite module and the Pruefer group, and
    2.3 and 3.2 every finite module; 3.1 checks the points of Spec(M), which
    only the zero module lacks, and sheaf-axioms caps the fibers."""
    if module.is_prufer:
        return f"it checks finite modules, and {module} is the Pruefer group"
    if name == "sheaf-axioms":
        fibers = len(spec_enumerate(module).fiber_primes)
        return f"it checks modules with at most {MAX_AXIOM_FIBERS} fibers, and {module} has {fibers}"
    return f"it checks the points of Spec(M), and {module} is the zero module, which has none"
