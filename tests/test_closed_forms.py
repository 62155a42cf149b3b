"""The diagonal closed forms for fM, the zero submodule, (N : M) and the
radical of (fM : M), V(N) and the closed-form prime radical read off
[M : N], and the one-test-per-fiber prime check, against the general code
they replace."""

import dataclasses
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from modspec import lattices
from modspec import spectrum as spectrum_module
from modspec.arith import ZZ, Zmod, ideal, ideal_radical
from modspec.corpus import finite_corpus
from modspec.fgmodules import (
    FgModule,
    Submodule,
    all_submodules,
    colon,
    from_cyclic_orders,
    prufer_module,
    scalar_multiple_submodule,
    submodule_from_generators,
    submodule_from_lattice,
)
from modspec.lattices import hnf, smith_diagonal
from modspec.sheaf import _colon_radical
from modspec.spectrum import (
    ClosedSet,
    PrimeSubmodule,
    _enumerate_bruteforce,
    _fiber_classified,
    basic_open,
    prime_radical,
    spec_enumerate,
    variety,
)


# ---------------------------------------------------------------------------
# references: the general normal-form computations
# ---------------------------------------------------------------------------

def scalar_multiple_reference(f, module):
    """fM as the HNF of the relations and the f-multiples of the generators."""
    return submodule_from_generators(module, [g.scale(f) for g in module.generators()])


def zero_submodule_reference(module):
    return Submodule(module, hnf(module.relation_rows(), module.rank))


def colon_reference(sub, module=None):
    """(N : M) from the Smith form of N's basis, whatever its shape."""
    module = module or sub.parent
    d = module.rank
    if d == 0:
        return ideal(module.ring, 1)
    diag = smith_diagonal(sub.basis, d)
    if len(diag) < d:
        return ideal(module.ring, 0)
    return ideal(module.ring, diag[-1])


def prime_radical_reference(sub, module):
    """The intersection of every point of Spec(M) that contains N."""
    containing = [ps.sub for ps in spec_enumerate(module).primes() if sub <= ps.sub]
    if not containing:
        return module.full_submodule()
    return reduce(lambda a, b: a.intersect(b), containing)


def variety_reference(sub, module):
    """V(N) as the fibers (p) that contain the colon ideal (N : M)."""
    c = colon(sub, module)
    return frozenset(p for p in spec_enumerate(module).fiber_primes if c.gen % p == 0)


def closed_form_radical_reference(sub, module):
    """The intersection of the proper N + pM over the relevant primes p."""
    terms = [sub.add(scalar_multiple_submodule(p, module)) for p in module.relevant_primes()]
    terms = [t for t in terms if not t.is_full]
    if not terms:
        return module.full_submodule()
    return reduce(lambda a, b: a.intersect(b), terms)


@pytest.fixture
def smith_calls(monkeypatch):
    calls = []
    real = lattices.smith_column_orders

    def counting(rows, ncols):
        calls.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(lattices, "smith_column_orders", counting)
    return calls


# ---------------------------------------------------------------------------
# fM, the zero submodule and the colon of fM
# ---------------------------------------------------------------------------

def chain_module(orders, n, free_rank):
    if n is None:
        return from_cyclic_orders(ZZ, orders, free_rank)
    return from_cyclic_orders(Zmod(n), orders)


@given(
    st.lists(st.integers(1, 400), max_size=4),
    st.one_of(st.none(), st.integers(2, 720)),
    st.integers(0, 2),
    st.integers(-60, 60),
    st.integers(-3, 3),
)
@example([2, 6], None, 1, 0, 0)
@example([4, 12], 24, 0, 0, 2)
@example([], None, 2, -7, 1)
@settings(max_examples=300, deadline=None)
def test_closed_forms_match_the_normal_forms(orders, n, free_rank, f, k):
    m = chain_module(orders, n, free_rank)
    zero = m.zero_submodule()
    assert zero == zero_submodule_reference(m)
    assert zero.is_zero
    # f itself, and a multiple of the exponent (0 when k = 0)
    for g in (f, k * (m.factors[-1] if m.factors else 1)):
        fm = scalar_multiple_submodule(g, m)
        assert fm == scalar_multiple_reference(g, m), (str(m), g)
        assert colon(fm, m) == colon_reference(fm, m), (str(m), g)
        assert _colon_radical(m, g) == ideal_radical(colon_reference(fm, m)), (str(m), g)
        assert fm.is_zero == (g == 0 or (m.is_finite and g % (m.exponent) == 0))


def test_closed_form_examples():
    m = from_cyclic_orders(ZZ, [2, 12], 1)
    assert scalar_multiple_submodule(8, m).basis == ((2, 0, 0), (0, 4, 0), (0, 0, 8))
    assert scalar_multiple_submodule(-3, m).basis == ((1, 0, 0), (0, 3, 0), (0, 0, 3))
    assert scalar_multiple_submodule(0, m).basis == ((2, 0, 0), (0, 12, 0))
    assert m.zero_submodule().basis == ((2, 0, 0), (0, 12, 0))
    assert colon(scalar_multiple_submodule(8, m)) == ideal(ZZ, 8)  # lcm(2, 4, 8)
    assert colon(scalar_multiple_submodule(0, m)) == ideal(ZZ, 0)
    finite = from_cyclic_orders(Zmod(24), [2, 12])
    assert colon(scalar_multiple_submodule(8, finite)) == ideal(Zmod(24), 4)
    assert colon(scalar_multiple_submodule(0, finite)) == ideal(Zmod(24), 12)
    p = prufer_module(3)
    assert scalar_multiple_submodule(6, p).is_full
    assert scalar_multiple_submodule(0, p) == p.zero_submodule()


def test_fm_the_zero_submodule_and_their_colons_run_no_smith_form(smith_calls, monkeypatch):
    hnf_calls = []
    real = lattices.hnf
    monkeypatch.setattr(
        "modspec.fgmodules.hnf", lambda rows, n: hnf_calls.append(n) or real(rows, n)
    )
    # generator of (fM : M) for each f; 0M of a module with free rank is not
    # full-rank, so it is left out
    for m, expected in (
        (from_cyclic_orders(ZZ, [6, 6, 6], 1), {-4: 4, 1: 1, 2: 2, 3: 3, 12: 12}),
        (from_cyclic_orders(Zmod(12), [6, 6, 6]), {-5: 1, 0: 6, 2: 2, 3: 3, 6: 6, 8: 2}),
    ):
        for f, gen in expected.items():
            assert colon(scalar_multiple_submodule(f, m), m) == ideal(m.ring, gen)
            assert m.zero_submodule().is_zero
    assert smith_calls == [] and hnf_calls == []


# ---------------------------------------------------------------------------
# the colon branch depends on the basis alone
# ---------------------------------------------------------------------------

def test_colon_matches_smith_on_every_corpus_submodule():
    for m in finite_corpus():
        for sub in all_submodules(m):
            assert colon(sub, m) == colon_reference(sub, m), (str(m), sub.basis)


def test_colon_reads_a_diagonal_basis_from_any_constructor(smith_calls):
    m = from_cyclic_orders(ZZ, [4, 12])
    diagonal = submodule_from_lattice(m, [(2, 0), (0, 3)])
    assert diagonal.basis == ((2, 0), (0, 3))
    assert colon(diagonal) == ideal(ZZ, 6)
    assert smith_calls == []
    # full rank but not diagonal: the Smith form decides
    skew = submodule_from_generators(m, [m.element([1, 1])])
    assert skew.basis == ((1, 1), (0, 4))
    assert colon(skew) == colon_reference(skew) == ideal(ZZ, 4)
    assert len(smith_calls) == 2
    # rank below the module's: the Smith form reports (0)
    free = from_cyclic_orders(ZZ, [3], 1)
    low = submodule_from_generators(free, [free.element([1, 0])])
    assert low.basis == ((1, 0),)
    assert colon(low) == colon_reference(low) == ideal(ZZ, 0)


# ---------------------------------------------------------------------------
# the brute-force prime radical
# ---------------------------------------------------------------------------

def test_bruteforce_prime_radical_matches_the_plain_intersection():
    for m in finite_corpus():
        if m.is_zero:
            continue
        # every submodule of the small modules, a spread sample of the rest
        subs = list(all_submodules(m))
        if m.cardinality > 32:
            subs = subs[::16] + [m.zero_submodule()]
        for sub in subs:
            got = prime_radical(sub, m, "bruteforce")
            assert got == prime_radical_reference(sub, m), (str(m), sub.basis)


def test_bruteforce_prime_radical_intersects_only_what_cuts(monkeypatch):
    calls = []
    real = lattices.lattice_intersection

    def counting(b1, b2, ncols):
        calls.append(ncols)
        return real(b1, b2, ncols)

    monkeypatch.setattr("modspec.fgmodules.lattice_intersection", counting)
    m = FgModule(ZZ, (2,) * 6)
    sub = submodule_from_generators(m, [m.element([1, 1, 0, 0, 1, 0])])
    closed = prime_radical(sub, m, "closed_form")
    calls.clear()
    spec_enumerate.cache_clear()
    try:
        assert prime_radical(sub, m, "bruteforce") == closed
    finally:
        spec_enumerate.cache_clear()
    # 373 of the 2 824 points of Spec((Z/2)^6) contain sub; a few cut the
    # running intersection down, and the rest already contain it
    assert 0 < len(calls) <= 10


# ---------------------------------------------------------------------------
# V(N) and the closed-form prime radical off the primes dividing [M : N]
# ---------------------------------------------------------------------------

def assert_index_rule(sub, m):
    assert variety(sub, m).fiber_primes == variety_reference(sub, m), (str(m), sub.basis)
    rad = prime_radical(sub, m)
    assert rad == closed_form_radical_reference(sub, m), (str(m), sub.basis)
    assert variety(rad, m) == variety(sub, m)


@given(
    st.lists(st.integers(1, 400), max_size=4),
    st.one_of(st.none(), st.integers(2, 720), st.sampled_from([2, 3, 5, 7, 11, 13, 719])),
    st.lists(st.lists(st.integers(-10**4, 10**4), min_size=4, max_size=4), max_size=3),
)
@example([], 7, [])
@example([7, 7], 7, [[1, 2, 0, 0]])
@example([2, 6, 30], None, [[1, 1, 1, 0]])
@example([4, 12], 24, [[2, 3, 0, 0], [0, 6, 0, 0]])
@settings(max_examples=300, deadline=None)
def test_index_rule_matches_the_colon_and_the_intersection(orders, n, rows):
    m = chain_module(orders, n, 0)
    sub = submodule_from_generators(m, [m.element(row[: m.rank]) for row in rows])
    assert_index_rule(sub, m)
    assert_index_rule(m.zero_submodule(), m)
    assert_index_rule(m.full_submodule(), m)


def test_index_rule_on_the_corpus():
    for m in finite_corpus():
        # every submodule of the small modules, a spread sample of the rest
        subs = list(all_submodules(m))
        if m.cardinality > 64:
            subs = subs[::16] + [m.zero_submodule()]
        for sub in subs:
            assert_index_rule(sub, m)


def test_variety_and_basic_open_read_no_colon(monkeypatch):
    monkeypatch.setattr(spectrum_module, "colon", None)  # any call would raise
    m = from_cyclic_orders(ZZ, [2, 6, 30])
    assert variety(m.zero_submodule()).fiber_primes == {2, 3, 5}
    assert variety(scalar_multiple_submodule(3, m)).fiber_primes == {3}
    assert basic_open(10, m).fiber_primes == {3}
    assert [f.name for f in dataclasses.fields(ClosedSet)] == ["spectrum", "fiber_primes"]
    # the primeless Pruefer group asks no index of its submodules
    p = prufer_module(5)
    assert variety(p.zero_submodule()).is_empty and basic_open(5, p).is_empty


def test_closed_form_radical_adds_once_and_never_intersects(monkeypatch):
    calls = []
    for kernel in ("lattice_sum", "lattice_intersection"):
        real = getattr(lattices, kernel)
        monkeypatch.setattr(
            f"modspec.fgmodules.{kernel}",
            lambda *args, _k=kernel, _r=real: calls.append(_k) or _r(*args),
        )
    for m in (from_cyclic_orders(ZZ, [2, 6, 30]), from_cyclic_orders(Zmod(60), [2, 60])):
        for sub in list(all_submodules(m))[::7]:
            calls.clear()
            prime_radical(sub, m, "closed_form")
            assert calls in ([], ["lattice_sum"]), (str(m), sub.basis)
    # N already prime-radical: rM <= N, and N is returned with no sum
    m = from_cyclic_orders(ZZ, [2, 6, 30])
    pm = scalar_multiple_submodule(2, m)
    calls.clear()
    assert prime_radical(pm, m) is pm and calls == []


# ---------------------------------------------------------------------------
# one prime test per classified fiber
# ---------------------------------------------------------------------------

@pytest.fixture
def prime_tests(monkeypatch):
    calls = []
    real = spectrum_module.is_prime_ideal

    def counting(a):
        calls.append(a.gen)
        return real(a)

    monkeypatch.setattr(spectrum_module, "is_prime_ideal", counting)
    return calls


def test_a_classified_fiber_tests_its_prime_once(prime_tests):
    m = from_cyclic_orders(ZZ, [2, 6, 12])
    points = _fiber_classified(m, 2)
    assert len(points) == 15 and prime_tests == [2]  # proper subspaces of F_2^3
    assert all(ps.char_ideal == ideal(ZZ, 2) for ps in points)
    # the public constructor and the brute-force path test every point
    prime_tests.clear()
    assert PrimeSubmodule(points[0].sub, ideal(ZZ, 2)) == points[0]
    brute = _enumerate_bruteforce(m, 512, 4096)
    assert len(prime_tests) == 1 + len(brute)


def test_a_non_prime_characteristic_ideal_is_refused():
    m = from_cyclic_orders(ZZ, [4])
    sub = scalar_multiple_submodule(2, m)
    with pytest.raises(ValueError, match="ideal \\(4\\) of Z is not prime"):
        PrimeSubmodule(sub, ideal(ZZ, 4))


def test_a_fiber_build_refuses_a_prime_that_fails_the_test(monkeypatch):
    monkeypatch.setattr(spectrum_module, "is_prime_ideal", lambda a: False)
    m = from_cyclic_orders(ZZ, [2, 6])
    with pytest.raises(ValueError, match="is not prime"):
        _fiber_classified(m, 3)
    spec_enumerate.cache_clear()
    try:
        spectrum = spec_enumerate(m)
        with pytest.raises(ValueError, match="is not prime"):
            spectrum.fiber(2)
    finally:
        spec_enumerate.cache_clear()
