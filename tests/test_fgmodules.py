import copy
import dataclasses
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from modspec import arith, spectrum
from modspec.arith import ZZ, Zmod, ideal
from modspec.fgmodules import (
    CapExceededError,
    FgModule,
    UnsupportedModuleError,
    all_submodules,
    colon,
    direct_sum,
    direct_sum_with_embeddings,
    from_cyclic_orders,
    iso_class_equal,
    normalize,
    prufer_module,
    scalar_multiple_submodule,
    submodule_from_generators,
    zero_module,
)
from modspec.localization import MultSet, localize
from modspec.sheaf import sections
from modspec.spectrum import is_pradical, prime_radical, spec_enumerate


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def subgroup_count(orders):
    """Number of subgroups of Z_m (x Z_n (x Z_r)), Hampejs-Toth formulas."""
    def divisors(n):
        return [d for d in range(1, n + 1) if n % d == 0]

    def P(n):
        return sum(math.gcd(k, n) for k in range(1, n + 1))

    if len(orders) == 0:
        return 1
    if len(orders) == 1:
        return len(divisors(orders[0]))
    if len(orders) == 2:
        m, n = orders
        return sum(math.gcd(a, n // b) for a in divisors(m) for b in divisors(n))
    m, n, r = orders
    total = 0
    for a, b, c in itertools.product(divisors(m), divisors(n), divisors(r)):
        A = math.gcd(a, n // b)
        B = math.gcd(b, r // c)
        C = math.gcd(a, r // c)
        ABC = A * B * C
        X = ABC // math.gcd(a * r // c, ABC)
        total += ABC // X**2 * P(X)
    return total


def order_multiset(module):
    return sorted(e.order() for e in module.elements())


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_examples():
    m = normalize(ZZ, 2, [[2, 0], [0, 3]])
    assert m.factors == (6,) and m.free_rank == 0

    m = normalize(ZZ, 1, [])
    assert m.factors == () and m.free_rank == 1

    m = normalize(Zmod(12), 1, [[4]])
    assert m.factors == (4,) and m.free_rank == 0


def test_normalize_degenerate():
    assert normalize(ZZ, 0, []).is_zero
    assert normalize(ZZ, 2, [[1, 0], [0, 1]]).is_zero
    m = normalize(ZZ, 3, [[2, 0, 0]])
    assert m.factors == (2,) and m.free_rank == 2


def test_normalize_matches_sympy_invariant_factors():
    from sympy import Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(7)
    for _ in range(150):
        k = rng.randint(1, 4)
        nrel = rng.randint(0, 5)
        rel = [[rng.randint(-8, 8) for _ in range(k)] for _ in range(nrel)]
        m = normalize(ZZ, k, rel)
        if nrel:
            inv = [int(d) for d in invariant_factors(Matrix(nrel, k, lambda i, j: rel[i][j]))]
        else:
            inv = []
        expected_factors = tuple(sorted(d for d in inv if d > 1))
        expected_free = k - sum(1 for d in inv if d != 0)
        assert m.factors == expected_factors
        assert m.free_rank == expected_free


def test_normalize_presentation_independent():
    # row operations and generator changes do not move the canonical data
    rng = random.Random(11)
    for _ in range(60):
        orders = [rng.choice([2, 3, 4, 6, 8]) for _ in range(rng.randint(1, 3))]
        k = len(orders)
        rel = [[orders[i] if j == i else 0 for j in range(k)] for i in range(k)]
        base = normalize(ZZ, k, rel)
        # shuffle rows, add random multiples of rows to each other
        for _ in range(10):
            a, b = rng.randrange(len(rel)), rng.randrange(len(rel))
            if a != b:
                q = rng.randint(-3, 3)
                rel[a] = [x + q * y for x, y in zip(rel[a], rel[b])]
        # change of generators: add a multiple of one generator to another
        # (column operation applied to every relation)
        ca, cb = rng.randrange(k), rng.randrange(k)
        if ca != cb:
            q = rng.randint(-3, 3)
            for row in rel:
                row[cb] += q * row[ca]
        again = normalize(ZZ, k, rel)
        assert again.factors == base.factors and again.free_rank == base.free_rank


@pytest.mark.parametrize("orders", [(2,), (4,), (2, 2), (2, 4), (6,), (2, 6), (12,), (2, 2, 2)])
def test_normalize_iso_invariant_by_element_orders(orders):
    # modules with |M| <= 64: canonical data pins down the multiset of
    # element orders, an isomorphism invariant computed element-by-element
    m = from_cyclic_orders(ZZ, orders)
    direct = sorted(
        math.lcm(*(e // math.gcd(e, c) for e, c in zip(orders, tup)))
        for tup in itertools.product(*(range(e) for e in orders))
    )
    assert order_multiset(m) == direct


def test_invariant_chain_validation():
    with pytest.raises(ValueError):
        from modspec.fgmodules import FgModule
        FgModule(ZZ, (4, 2))


# ---------------------------------------------------------------------------
# submodules
# ---------------------------------------------------------------------------

def test_submodule_examples():
    m = from_cyclic_orders(ZZ, [4])
    s = submodule_from_generators(m, [m.element([2])])
    assert sorted(e.coords for e in s.elements()) == [(0,), (2,)]

    m2 = from_cyclic_orders(ZZ, [2, 2])
    s2 = submodule_from_generators(m2, [m2.element([1, 1])])
    assert s2.order() == 2

    m3 = from_cyclic_orders(ZZ, [6])
    s3 = submodule_from_generators(m3, [m3.element([2]), m3.element([3])])
    assert s3.is_full


def test_submodule_equality_is_canonical():
    m = from_cyclic_orders(ZZ, [2, 4])
    a = submodule_from_generators(m, [m.element([1, 1])])
    b = submodule_from_generators(m, [m.element([1, 1]), m.element([0, 2])])
    assert (a == b) == (set(e.coords for e in a.elements()) == set(e.coords for e in b.elements()))


def test_submodule_membership_matches_generation():
    rng = random.Random(3)
    for _ in range(40):
        orders = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
        m = from_cyclic_orders(ZZ, orders)
        gens = [m.element([rng.randrange(e) for e in m.factors]) for _ in range(rng.randint(1, 2))]
        s = submodule_from_generators(m, gens)
        # closure of the generators under addition
        closure = {m.zero_element().coords}
        frontier = list(closure)
        while frontier:
            new = []
            for c in frontier:
                for g in gens:
                    nxt = (m.element(c) + g).coords
                    if nxt not in closure:
                        closure.add(nxt)
                        new.append(nxt)
            frontier = new
        assert {e.coords for e in s.elements()} == closure


@pytest.mark.parametrize("orders", [(4, 4), (2, 6), (2, 2, 2)])
def test_intersect_matches_element_sets(orders):
    m = from_cyclic_orders(ZZ, orders)
    subs = list(all_submodules(m))
    for n1, n2 in itertools.product(subs, repeat=2):
        meet = n1.intersect(n2)
        assert set(meet.elements()) == set(n1.elements()) & set(n2.elements())


def test_lagrange():
    for orders in [(4,), (2, 4), (2, 2, 2), (12,), (2, 6)]:
        m = from_cyclic_orders(ZZ, orders)
        for s in all_submodules(m):
            assert s.order() * s.index() == m.cardinality


@pytest.mark.parametrize(
    "orders",
    [(1,), (4,), (12,), (2, 2), (4, 2), (6, 6), (2, 2, 2), (2, 4, 8), (3, 9, 9)],
)
def test_all_submodules_count_matches_formula(orders):
    clean = [e for e in orders if e > 1]
    m = from_cyclic_orders(ZZ, clean)
    subs = list(all_submodules(m))
    assert len(subs) == len(set(subs))
    assert len(subs) == subgroup_count(tuple(orders))


def test_all_submodules_cap():
    m = from_cyclic_orders(ZZ, [32, 32])
    with pytest.raises(CapExceededError):
        list(all_submodules(m, cap=512))


# ---------------------------------------------------------------------------
# colon ideals and annihilators
# ---------------------------------------------------------------------------

def test_colon_examples():
    m = from_cyclic_orders(ZZ, [12])
    assert colon(scalar_multiple_submodule(2, m)) == ideal(ZZ, 2)
    assert colon(m.full_submodule()) == ideal(ZZ, 1)

    free = normalize(ZZ, 1, [])
    assert colon(free.zero_submodule()) == ideal(ZZ, 0)


def test_colon_matches_bruteforce():
    # (N:M) = { r mod exponent : r*M <= N } for small finite modules
    corpus = [(4,), (2, 4), (6,), (2, 2, 2), (2, 12), (8, 8)]
    for orders in corpus:
        m = from_cyclic_orders(ZZ, orders)
        assert m.cardinality <= 128
        a = m.exponent
        for s in all_submodules(m):
            got = colon(s)
            members = [
                r for r in range(a)
                if all(s.contains(g.scale(r)) for g in m.generators())
            ]
            gen = 0
            for r in members:
                gen = math.gcd(gen, r)
            expected = ideal(ZZ, gen if gen else a)
            assert got == expected, (orders, s.basis)


def test_colon_over_zmod():
    m = normalize(Zmod(12), 1, [[4]])  # Z/4 over Z/12
    assert m.annihilator() == ideal(Zmod(12), 4)
    s = scalar_multiple_submodule(2, m)
    assert colon(s) == ideal(Zmod(12), 2)


def test_annihilator_examples():
    assert from_cyclic_orders(ZZ, [6]).annihilator() == ideal(ZZ, 6)
    assert prufer_module(3).annihilator() == ideal(ZZ, 0)
    assert zero_module(ZZ).annihilator() == ideal(ZZ, 1)


# ---------------------------------------------------------------------------
# scalar multiples, direct sums, iso classes
# ---------------------------------------------------------------------------

def test_scalar_multiple_examples():
    m = from_cyclic_orders(ZZ, [12])
    s = scalar_multiple_submodule(2, m)
    assert {e.coords[0] for e in s.elements()} == {0, 2, 4, 6, 8, 10}

    p = prufer_module(5)
    with pytest.raises(UnsupportedModuleError):
        scalar_multiple_submodule(5, p)
    with pytest.raises(UnsupportedModuleError):
        scalar_multiple_submodule(0, p)

    m12 = normalize(Zmod(12), 1, [])
    s6 = scalar_multiple_submodule(6, m12)
    assert {e.coords[0] for e in s6.elements()} == {0, 6}


def test_direct_sum_examples():
    a = from_cyclic_orders(ZZ, [2])
    b = from_cyclic_orders(ZZ, [3])
    assert direct_sum(a, b).factors == (6,)

    z = zero_module(ZZ)
    assert direct_sum(a, z).factors == (2,)

    assert direct_sum(a, a).factors == (2, 2)


def test_direct_sum_cardinality_and_annihilator():
    rng = random.Random(5)
    pool = [(2,), (4,), (2, 4), (6,), (3, 3), (12,)]
    for _ in range(30):
        o1, o2 = rng.choice(pool), rng.choice(pool)
        m1, m2 = from_cyclic_orders(ZZ, o1), from_cyclic_orders(ZZ, o2)
        m = direct_sum(m1, m2)
        assert m.cardinality == m1.cardinality * m2.cardinality
        lcm = math.lcm(m1.annihilator().gen, m2.annihilator().gen)
        assert m.annihilator() == ideal(ZZ, lcm)


def test_direct_sum_embeddings_are_injective_homomorphisms():
    m1 = from_cyclic_orders(ZZ, [2, 4])
    m2 = from_cyclic_orders(ZZ, [6])
    m, e1, e2 = direct_sum_with_embeddings(m1, m2)
    img1 = {e1.apply(x).coords for x in m1.elements()}
    img2 = {e2.apply(x).coords for x in m2.elements()}
    assert len(img1) == m1.cardinality
    assert len(img2) == m2.cardinality
    assert img1 & img2 == {m.zero_element().coords}
    for x in m1.elements():
        for y in m1.elements():
            assert e1.apply(x + y) == e1.apply(x) + e1.apply(y)
    # the two images together span the sum
    span = submodule_from_generators(
        m, [e1.apply(g) for g in m1.generators()] + [e2.apply(g) for g in m2.generators()]
    )
    assert span.is_full


def test_iso_class_examples():
    assert iso_class_equal(from_cyclic_orders(ZZ, [2, 6]), from_cyclic_orders(ZZ, [2, 6]))
    assert not iso_class_equal(from_cyclic_orders(ZZ, [4]), from_cyclic_orders(ZZ, [2, 2]))
    assert not iso_class_equal(prufer_module(3), zero_module(ZZ))


# ---------------------------------------------------------------------------
# the Pruefer group
# ---------------------------------------------------------------------------

def test_prufer_rejects_submodule_algebra():
    p = prufer_module(3)
    with pytest.raises(UnsupportedModuleError):
        submodule_from_generators(p, [])
    with pytest.raises(UnsupportedModuleError):
        list(all_submodules(p))


# ---------------------------------------------------------------------------
# the primary decomposition
# ---------------------------------------------------------------------------

def primes_dividing(n):
    """The primes below 720 that divide n: all of them for the chains below."""
    return [p for p in range(2, 720) if n % p == 0 and all(p % d for d in range(2, p))]


@given(
    st.lists(st.integers(1, 400), max_size=4),
    st.one_of(st.none(), st.integers(2, 720)),
    st.integers(0, 2),
)
@settings(max_examples=200, deadline=None)
def test_primary_parts_multiply_back_to_each_factor(orders, n, free_rank):
    if n is None:
        m = from_cyclic_orders(ZZ, orders, free_rank)
    else:
        m = from_cyclic_orders(Zmod(n), orders)
    primary = m.primary
    assert list(primary) == primes_dividing(m.factors[-1] if m.factors else 1)
    for p, parts in primary.items():
        assert len(parts) == len(m.factors)
        for q in parts:
            while q % p == 0:
                q //= p
            assert q == 1  # each part is a power of p
    for i, e in enumerate(m.factors):
        assert math.prod(parts[i] for parts in primary.values()) == e
    assert m.primary is primary
    with pytest.raises(TypeError):
        primary[2] = ()


def test_primary_of_the_zero_free_and_pruefer_modules():
    assert dict(zero_module(ZZ).primary) == {}
    assert dict(zero_module(Zmod(6)).primary) == {}
    assert dict(from_cyclic_orders(ZZ, [], 2).primary) == {}
    assert dict(from_cyclic_orders(ZZ, [12], 1).primary) == {2: (4,), 3: (3,)}
    assert dict(from_cyclic_orders(ZZ, [2, 12]).primary) == {2: (2, 4), 3: (1, 3)}
    with pytest.raises(UnsupportedModuleError):
        prufer_module(3).primary


def test_a_module_pickles_after_its_primary_parts_are_read(monkeypatch):
    m = from_cyclic_orders(Zmod(24), [2, 12])
    assert m.primary
    twin = pickle.loads(pickle.dumps(m))
    assert twin == m and dict(twin.primary) == dict(m.primary)
    # the fibers built on a module stay with that object: a pickled or
    # copied module carries its fields alone and builds its own fibers
    real = spectrum._fiber_classified
    built = []

    def counting(module, p):
        built.append(module)
        return real(module, p)

    monkeypatch.setattr(spectrum, "_fiber_classified", counting)
    spec_enumerate.cache_clear()
    try:
        fibers = spec_enumerate(m).fibers
        assert built == [m, m]
        for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m)):
            assert set(vars(twin)) == {f.name for f in dataclasses.fields(FgModule)}
            spec_enumerate.cache_clear()
            built.clear()
            assert spec_enumerate(twin).fibers == fibers
            assert len(built) == 2 and all(module is twin for module in built)
    finally:
        spec_enumerate.cache_clear()


@pytest.mark.parametrize("ring", [ZZ, Zmod(120)], ids=str)
def test_one_factorization_of_the_exponent_per_module_object(monkeypatch, ring):
    # exponent 60 is composite, so no prime test of a fiber prime repeats it
    m = FgModule(ring, (2, 6, 60))
    real = arith.factorize
    calls = []

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "factorize", counting)
    caches = (spec_enumerate, localize, sections)
    for cache in caches:
        cache.cache_clear()
    try:
        primes = m.relevant_primes()
        spectrum = spec_enumerate(m)
        assert [p for p, _ in spectrum.fibers] == [2, 3, 5]
        assert is_pradical(m).holds
        prime_radical(m.zero_submodule())
        for p in primes:
            assert localize(m, MultSet.complement_of_prime(p)).factors
            assert sections(spectrum.open_set({p})).carrier.factors
    finally:
        for cache in caches:
            cache.cache_clear()
    assert calls.count(m.exponent) == 1
