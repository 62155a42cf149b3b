"""The brute-force oracles against the plain walks they replace.

``all_submodules`` prunes its walk row by row, the prime test runs on
integer codes, and criterion 10 checks each distinct direct-sum pair once.
The references below are the plain versions: every candidate basis
filtered by containment of the relation lattice, the prime test on
element tuples with one lattice membership test per element, and
criterion 10 with every draw checked afresh.  Bases, their order,
characteristic ideals and suite results must all be equal."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from modspec import verify
from modspec.arith import ZZ, Zmod
from modspec.corpus import finite_corpus
from modspec.fgmodules import FgModule, Submodule, all_submodules, colon
from modspec.lattices import lattice_contains, lattice_leq
from modspec.spectrum import _prime_characteristic, _scalar_tables, is_prime_submodule
from modspec.verify import SuiteResult, check_direct_sums


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def all_submodules_by_filter(module):
    """Every upper-triangular candidate basis (pivots dividing the invariant
    factors, entries above each pivot reduced), kept when it contains the
    relation lattice."""
    d = module.rank
    if d == 0:
        yield module.full_submodule()
        return
    factors = module.factors
    rel = module.relation_rows()
    divisor_lists = [[a for a in range(1, e + 1) if e % a == 0] for e in factors]
    for diag in itertools.product(*divisor_lists):
        above_ranges = []
        for j in range(d):
            above_ranges.extend([range(diag[j])] * j)
        for above in itertools.product(*above_ranges):
            entries = iter(above)
            # column j supplies entries for rows 0..j-1
            cols = [[0] * d for _ in range(d)]
            for j in range(d):
                for i in range(j):
                    cols[j][i] = next(entries)
                cols[j][j] = diag[j]
            basis = tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
            if lattice_leq(rel, basis):
                yield Submodule(module, basis)


def prime_characteristic_by_tuples(sub, module):
    """The definitional prime test on element tuples: P's members by one
    lattice membership test per element of M."""
    factors = module.factors
    coords_all = [x.coords for x in module.elements()]
    member = frozenset(c for c in coords_all if lattice_contains(sub.basis, c))

    def scaled(a, c):
        return tuple((a * x) % e for x, e in zip(c, factors))

    gens = [tuple(1 if j == i else 0 for j in range(len(factors))) for i in range(len(factors))]
    for a in range(module.exponent):
        if all(scaled(a, g) in member for g in gens):
            continue  # a*M <= P, condition vacuous for this a
        for c in coords_all:
            if scaled(a, c) in member and c not in member:
                return None
    return colon(sub)


def direct_sums_without_memo(modules):
    """Criterion 10 with every one of the 200 draws checked afresh, and the
    scalar tables of the sum built anew for each lifted prime.  The library
    functions are looked up on ``verify`` at call time, so a test that
    patches them there patches this reference too."""
    failures = []
    checks = 0
    pool = [m for m in verify._modules(modules, finite_only=True) if m.ring.modulus is None]
    rng = random.Random(verify.DEFAULT_SEED)
    for _ in range(200 if pool else 0):
        m1, m2 = rng.choice(pool), rng.choice(pool)
        m, e1, e2 = verify.direct_sum_with_embeddings(m1, m2)
        checks += 1
        if not verify.is_pradical(m).holds:
            failures.append(f"{m1} (+) {m2}: prime radical condition lost")
        if m1.is_zero:
            continue
        for ps in verify.spec_enumerate(m1).primes():
            checks += 1
            p = ps.char_prime
            gens = [e1.apply(m1.element(row)) for row in ps.sub.basis]
            gens += [e2.apply(g) for g in m2.generators()]
            lifted = verify.submodule_from_generators(m, gens)
            ok = (
                not lifted.is_full
                and verify.scalar_multiple_submodule(p, m) <= lifted
                and verify.colon(lifted) == verify.ideal(m.ring, p)
            )
            if ok and m.cardinality <= 512:
                tables = verify._scalar_tables(m, 4096)
                ok = verify._prime_characteristic(lifted, tables) == verify.ideal(m.ring, p)
            if not ok:
                failures.append(f"{m1} (+) {m2}: prime over ({p}) fails to lift")
    return SuiteResult(
        "direct-sums",
        "direct sums preserve the prime radical condition; primes lift",
        checks,
        tuple(failures),
    )


# ---------------------------------------------------------------------------
# the pruned walk and the coded prime test
# ---------------------------------------------------------------------------

def assert_walk_matches_reference(module):
    subs = list(all_submodules(module))
    assert [s.basis for s in subs] == [s.basis for s in all_submodules_by_filter(module)]
    return subs


def assert_prime_test_matches_reference(module, subs):
    tables = _scalar_tables(module, 4096)
    for sub in subs:
        if not sub.is_full:
            expected = prime_characteristic_by_tuples(sub, module)
            assert _prime_characteristic(sub, tables) == expected, (str(module), sub)


def test_walk_matches_the_candidate_filter_on_the_corpus():
    for m in finite_corpus():
        assert_walk_matches_reference(m)


def test_prime_test_matches_the_tuple_test_on_the_corpus():
    # the test reads only the invariant factors and the exponent, and the
    # ring only through colon, which both sides call: one module per chain
    chains = {}
    for m in finite_corpus():
        chains.setdefault(m.factors, m)
    for m in chains.values():
        if not m.is_zero:
            assert_prime_test_matches_reference(m, list(all_submodules(m)))


@st.composite
def chains(draw, max_card=512):
    """Invariant-factor chains e_1 | e_2 | e_3 of order at most 512."""
    factors = [draw(st.integers(2, 12))]
    while len(factors) < 3 and draw(st.booleans()):
        factors.append(factors[-1] * draw(st.integers(1, 4)))
    while math.prod(factors) > max_card:
        factors.pop()
    return factors


@given(chains(), st.one_of(st.none(), st.integers(1, 4)), st.integers(0, 11))
@example([2, 4, 8], None, 0)
@example([6, 6, 12], 2, 0)
@settings(max_examples=30, deadline=None)
def test_oracles_match_their_references_on_random_chains(factors, cofactor, offset):
    ring = ZZ if cofactor is None else Zmod(factors[-1] * cofactor)
    m = FgModule(ring, tuple(factors))
    subs = assert_walk_matches_reference(m)
    # the tuple test costs exponent * |M| per submodule: a spread of them
    step = max(1, len(subs) // 12)
    spread = subs[offset % step :: step]
    assert_prime_test_matches_reference(m, spread)
    # the public test builds its own tables
    for sub in spread[:3]:
        if not sub.is_full:
            assert is_prime_submodule(sub) == prime_characteristic_by_tuples(sub, m)


# ---------------------------------------------------------------------------
# closed-form subgroup counts past the corpus
# ---------------------------------------------------------------------------

def gaussian_binomial(s, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (s - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


ELEMENTARY = [(2, s) for s in range(1, 8)] + [(3, s) for s in range(1, 6)] + [(5, s) for s in range(1, 4)]


@pytest.mark.parametrize("p, s", ELEMENTARY, ids=lambda v: str(v))
def test_subgroups_of_elementary_abelian_groups_are_the_galois_number(p, s):
    # the subgroups of (Z/p)^s are the subspaces of F_p^s
    subs = [sub.basis for sub in all_submodules(FgModule(ZZ, (p,) * s))]
    assert len(subs) == len(set(subs)) == sum(gaussian_binomial(s, k, p) for k in range(s + 1))


def test_galois_numbers_of_f2():
    assert [sum(gaussian_binomial(s, k, 2) for k in range(s + 1)) for s in range(1, 8)] == [
        2, 5, 16, 67, 374, 2825, 29212
    ]


# ---------------------------------------------------------------------------
# criterion 10: one check per distinct pair
# ---------------------------------------------------------------------------

ONE_MODULE = [FgModule(ZZ, (3,))]
MIXED_POOL = [
    FgModule(ZZ, ()),
    FgModule(ZZ, (2,)),
    FgModule(ZZ, (6,)),
    FgModule(ZZ, (2, 4)),
    FgModule(Zmod(12), (2, 6)),  # over Z/n: left out of the pool
]


@pytest.mark.parametrize("pool", [ONE_MODULE, MIXED_POOL], ids=["one-module", "mixed"])
def test_direct_sums_match_the_memo_free_reference(pool):
    got = check_direct_sums(pool)
    assert got.ok and got.checks > 200
    assert got == direct_sums_without_memo(pool)


@pytest.mark.parametrize("pool", [ONE_MODULE, MIXED_POOL], ids=["one-module", "mixed"])
def test_failing_lifts_repeat_once_per_draw(monkeypatch, pool):
    monkeypatch.setattr(verify, "_prime_characteristic", lambda sub, tables: None)
    got = check_direct_sums(pool)
    assert got == direct_sums_without_memo(pool)
    if pool is ONE_MODULE:
        # Z/3 (+) Z/3 has one prime over (3) to lift, and every draw is that pair
        assert got.checks == 400
        assert got.failures == ("Z/3 over Z (+) Z/3 over Z: prime over (3) fails to lift",) * 200


@pytest.mark.parametrize("m1, m2", [((3,), (3,)), ((2, 4), (6,)), ((6,), (2, 4, 4))], ids=str)
def test_each_pair_tables_its_sum_once(monkeypatch, m1, m2):
    tabled = []
    real = verify._scalar_tables

    def counting(module, card_cap):
        tabled.append(module)
        return real(module, card_cap)

    monkeypatch.setattr(verify, "_scalar_tables", counting)
    lifts = []
    real_test = verify._prime_characteristic

    def recording(sub, tables):
        lifts.append(sub.parent)
        return real_test(sub, tables)

    monkeypatch.setattr(verify, "_prime_characteristic", recording)
    checks, failures = verify._direct_sum_checks(FgModule(ZZ, m1), FgModule(ZZ, m2))
    # every prime of m1 lifts and is tested on the tables of the one sum
    assert not failures and len(lifts) == checks - 1 >= 1
    assert len(tabled) == 1 and set(lifts) == set(tabled)


def test_each_distinct_pair_is_summed_once(monkeypatch):
    pairs = []
    real = verify.direct_sum_with_embeddings

    def counting(m1, m2):
        pairs.append((m1, m2))
        return real(m1, m2)

    monkeypatch.setattr(verify, "direct_sum_with_embeddings", counting)
    check_direct_sums(ONE_MODULE)
    assert len(pairs) == 1
    pairs.clear()
    check_direct_sums(MIXED_POOL)
    assert len(pairs) == len(set(pairs)) <= 16
