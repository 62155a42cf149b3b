import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from modspec.arith import (
    FactorBoundExceeded,
    NotInRadicalError,
    Ring,
    RingMismatchError,
    ZZ,
    Zmod,
    bezout_decompose,
    egcd,
    factorize,
    ideal,
    ideal_combine,
    ideal_radical,
    is_prime_ideal,
    radical_membership_witness,
)


# ---------------------------------------------------------------------------
# brute-force oracle: ideals of Z/n as explicit subsets
# ---------------------------------------------------------------------------

def subset_of(n, g):
    return frozenset(g * k % n for k in range(n))


def subset_sum(n, a, b):
    return frozenset((x + y) % n for x in a for y in b)


def subset_intersect(a, b):
    return a & b


def subset_product(n, a, b):
    prods = {(x * y) % n for x in a for y in b}
    cur = {0}
    frontier = set(prods)
    while frontier:
        new = {(x + p) % n for x in cur for p in prods} - cur
        cur |= new
        frontier = new
    return frozenset(cur)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# factorization and gcd helpers
# ---------------------------------------------------------------------------

def test_factorize_small():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(1) == {}
    assert factorize(-12) == {2: 2, 3: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_bound_rejects():
    # second-largest prime factor above the bound cannot be certified
    p = 1_000_003
    with pytest.raises(FactorBoundExceeded):
        factorize(p * p * 3, bound=1000)
    # a single large prime cofactor is still certified by trial division
    assert factorize(2 * p, bound=2000) == {2: 1, p: 1}


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_egcd_identity(a, b):
    g, x, y = egcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


# ---------------------------------------------------------------------------
# ideal canonical form and combination
# ---------------------------------------------------------------------------

def test_ideal_canonicalization():
    assert ideal(ZZ, -6).gen == 6
    assert ideal(Zmod(24), 8).gen == 8
    assert ideal(Zmod(24), 10).gen == 2
    assert ideal(Zmod(24), 0).gen == 24  # zero ideal of Z/24
    assert ideal(Zmod(24), 25).gen == 1


def test_ideal_canonicalization_over_localized_z():
    # 0 must stay (0): coprime_part and p_part never return on it
    inverted_6 = Ring(inverted=6)
    at_3 = Ring(local_prime=3)
    assert [ideal(inverted_6, g).gen for g in (0, -12, -18)] == [0, 1, 1]
    assert [ideal(at_3, g).gen for g in (0, -12, -18)] == [0, 3, 9]


def test_ideal_combine_examples():
    assert ideal_combine("sum", ideal(ZZ, 4), ideal(ZZ, 6)) == ideal(ZZ, 2)
    assert ideal_combine("intersect", ideal(ZZ, 6), ideal(ZZ, 10)) == ideal(ZZ, 30)
    # frozen from the subset oracle over Z/24
    assert ideal_combine("sum", ideal(Zmod(24), 8), ideal(Zmod(24), 12)) == ideal(Zmod(24), 4)


def test_ideal_combine_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ideal_combine("sum", ideal(ZZ, 4), ideal(Zmod(6), 4))


@pytest.mark.parametrize("n", range(2, 61))
def test_ideal_ops_match_subset_arithmetic(n):
    ring = Zmod(n)
    for a in divisors(n):
        for b in divisors(n):
            sa, sb = subset_of(n, a), subset_of(n, b)
            got = ideal_combine("sum", ideal(ring, a), ideal(ring, b))
            assert subset_of(n, got.gen) == subset_sum(n, sa, sb)
            got = ideal_combine("intersect", ideal(ring, a), ideal(ring, b))
            assert subset_of(n, got.gen) == subset_intersect(sa, sb)
            got = ideal_combine("product", ideal(ring, a), ideal(ring, b))
            assert subset_of(n, got.gen) == subset_product(n, sa, sb)


# ---------------------------------------------------------------------------
# radicals
# ---------------------------------------------------------------------------

def test_radical_examples():
    assert ideal_radical(ideal(ZZ, 12)) == ideal(ZZ, 6)
    assert ideal_radical(ideal(ZZ, 1)) == ideal(ZZ, 1)
    assert ideal_radical(ideal(ZZ, 0)) == ideal(ZZ, 0)
    # frozen from the subset oracle: primes of Z/24 containing (8) = {(2)}
    assert ideal_radical(ideal(Zmod(24), 8)) == ideal(Zmod(24), 2)


@pytest.mark.parametrize("n", range(2, 61))
def test_radical_matches_prime_intersection_mod_n(n):
    ring = Zmod(n)
    primes = [p for p in range(2, n + 1) if n % p == 0 and is_prime_ideal(ideal(ring, p))]
    for d in divisors(n):
        containing = [subset_of(n, p) for p in primes if d % n in subset_of(n, p)]
        if containing:
            expected = frozenset.intersection(*containing)
        else:
            expected = subset_of(n, 1)
        assert subset_of(n, ideal_radical(ideal(ring, d)).gen) == expected


@given(st.integers(0, 10**6))
@settings(max_examples=200)
def test_radical_idempotent(g):
    a = ideal(ZZ, g)
    assert ideal_radical(ideal_radical(a)) == ideal_radical(a)


def test_radical_sum_intersect_identity_randomized():
    # sqrt((I+J) cap (I+K)) == sqrt(I + (J cap K)), randomized over Z
    rng = random.Random(20260810)
    for _ in range(1000):
        i, j, k = (ideal(ZZ, rng.randint(0, 10**6)) for _ in range(3))
        lhs = ideal_radical(
            ideal_combine("intersect", ideal_combine("sum", i, j), ideal_combine("sum", i, k))
        )
        rhs = ideal_radical(ideal_combine("sum", i, ideal_combine("intersect", j, k)))
        assert lhs == rhs


@pytest.mark.parametrize("n", range(2, 61))
def test_radical_sum_intersect_identity_exhaustive_mod_n(n):
    ring = Zmod(n)
    ideals = [ideal(ring, d) for d in divisors(n)]
    for i in ideals:
        for j in ideals:
            for k in ideals:
                lhs = ideal_radical(
                    ideal_combine(
                        "intersect", ideal_combine("sum", i, j), ideal_combine("sum", i, k)
                    )
                )
                rhs = ideal_radical(ideal_combine("sum", i, ideal_combine("intersect", j, k)))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# radical membership witnesses
# ---------------------------------------------------------------------------

def test_witness_examples():
    assert radical_membership_witness(6, ideal(ZZ, 4)) == 2
    assert radical_membership_witness(1, ideal(ZZ, 1)) == 1
    assert radical_membership_witness(3, ideal(ZZ, 4)) is None
    assert radical_membership_witness(0, ideal(ZZ, 0)) == 1
    assert radical_membership_witness(6, ideal(Zmod(24), 8)) == 3  # 6^3 = 216 = 0 mod 8


@given(st.integers(-100, 100), st.integers(0, 1000))
@settings(max_examples=300)
def test_witness_is_minimal(f, g):
    a = ideal(ZZ, g)
    n = radical_membership_witness(f, a)
    if n is None:
        # no small power lands in the ideal either
        for k in range(1, 8):
            assert not a.contains_element(f**k)
    else:
        assert a.contains_element(f**n)
        for k in range(1, n):
            assert not a.contains_element(f**k)


# ---------------------------------------------------------------------------
# bezout decompositions
# ---------------------------------------------------------------------------

def test_bezout_examples():
    d = bezout_decompose(1, [ideal(ZZ, 2), ideal(ZZ, 3)])
    assert d.exponent == 1
    assert sum(r * b for r, b in d.pairs) == 1

    d = bezout_decompose(2, [ideal(ZZ, 2)])
    assert d.exponent == 1
    assert d.pairs == ((2, 1),)

    # any exact combination is accepted; the sum ideal is (1) so the
    # minimal witness exponent is 1
    d = bezout_decompose(6, [ideal(ZZ, 4), ideal(ZZ, 9)])
    assert sum(r * b for r, b in d.pairs) == 6**d.exponent
    assert d.pairs[0][0] % 4 == 0 and d.pairs[1][0] % 9 == 0


def test_bezout_not_in_radical():
    with pytest.raises(NotInRadicalError):
        bezout_decompose(5, [ideal(ZZ, 4), ideal(ZZ, 8)])


@given(
    st.integers(-30, 30),
    st.lists(st.integers(0, 60), min_size=1, max_size=4),
    st.sampled_from([0, 6, 12, 24, 36, 60]),
)
@settings(max_examples=400)
def test_bezout_reverifies(f, gens, n):
    ring = ZZ if n == 0 else Zmod(n)
    ideals = [ideal(ring, g) for g in gens]
    try:
        d = bezout_decompose(f, ideals)
    except NotInRadicalError:
        total = ideals[0]
        for a in ideals[1:]:
            total = ideal_combine("sum", total, a)
        assert radical_membership_witness(f, total) is None
        return
    target = ring.reduce(f) ** d.exponent
    acc = sum(r * b for r, b in d.pairs)
    if n:
        target, acc = target % n, acc % n
    assert acc == target
    for (r, _), a in zip(d.pairs, ideals):
        assert a.contains_element(r)
