import contextlib
import math
import random
import re

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from modspec import arith
from modspec.arith import (
    FACTOR_BOUND,
    FactorBoundExceeded,
    NotInRadicalError,
    Ring,
    RingMismatchError,
    ZZ,
    Zmod,
    bezout_decompose,
    coprime_part,
    egcd,
    factorize,
    ideal,
    ideal_combine,
    ideal_radical,
    is_prime_ideal,
    p_part,
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


@contextlib.contextmanager
def factor_bound(bound):
    """``arith.FACTOR_BOUND`` set to ``bound`` for the duration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "FACTOR_BOUND", bound)
        yield


def test_factorize_bound_rejects():
    # at bound 1000 Pollard-Brent runs out of budget on p^2, and trial
    # division stops short of p
    p = 1_000_003
    with factor_bound(1000):
        with pytest.raises(FactorBoundExceeded):
            factorize(p * p * 3)
        # a single large prime cofactor is still certified
        assert factorize(2 * p) == {2: 1, p: 1}
    assert factorize(p * p * 3) == {3: 1, p: 2}


# ---------------------------------------------------------------------------
# factorize against the trial-division loop it replaced
# ---------------------------------------------------------------------------

def factorize_by_trial_division(n, bound=FACTOR_BOUND):
    """Reference: the trial-division loop that once defined what factorize
    answers.  factorize keeps each of its answers and its refusal text."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("0 has no prime factorization")
    factors = {}
    d = 2
    while d * d <= n:
        if d > bound:
            raise FactorBoundExceeded(
                f"trial division bound {bound} exceeded while factoring {n}"
            )
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def outcome(fn, n):
    """The factor items in order, or the refusal text."""
    try:
        return list(fn(n).items())
    except FactorBoundExceeded as exc:
        return str(exc)


def assert_matches_reference(n, bound=FACTOR_BOUND):
    """factorize at ``bound`` answers as the reference wherever the
    reference answers, answers nothing but sympy's factorization, and
    refuses only where the reference does, naming a composite cofactor of
    n free of the primes that trial division passed.  Returns the outcome."""
    expected = outcome(lambda m: factorize_by_trial_division(m, bound), n)
    with factor_bound(bound):
        got = outcome(factorize, n)
    if isinstance(expected, list):
        assert got == expected
    if isinstance(got, list):
        assert dict(got) == sympy.factorint(abs(n))
        return got
    assert isinstance(expected, str)
    match = re.fullmatch(rf"trial division bound {bound} exceeded while factoring (\d+)", got)
    assert match, got
    rest = int(match[1])
    assert n % rest == 0 and not sympy.isprime(rest)
    assert min(sympy.factorint(rest)) > max(bound, arith._TRIAL_LIMIT)
    if bound >= arith._TRIAL_LIMIT:
        # past the small primes both divide out the same ones
        assert got == expected
    return got


def first_divisor_past(bound):
    return 2 if bound < 2 else bound + 1 + bound % 2


PSI_12 = 318_665_857_834_031_151_167_461  # strong pseudoprime to bases 2..37
PSI_13 = 3_317_044_064_679_887_385_961_981  # strong pseudoprime to bases 2..41


@given(
    st.integers(-10**12, 10**12).filter(bool),
    st.one_of(st.integers(1, 3000), st.just(FACTOR_BOUND)),
)
@settings(max_examples=300, deadline=None)
def test_factorize_matches_trial_division(n, bound):
    assert_matches_reference(n, bound)


BOUNDS = (1, 2, 3, 4, 10, 1000, 1023, 1024, 1025, 1026, 1027, 1031, 3000, 10**5)


@pytest.mark.parametrize("bound", BOUNDS)
def test_factorize_matches_trial_division_at_the_bound(bound):
    # the primes on either side of the bound, alone, squared and together
    below = sympy.prevprime(bound + 1) if bound >= 2 else None
    above = sympy.nextprime(bound)
    inputs = [above, above**2, 6 * above**2]
    if below:
        inputs += [below * above, below**2 * above, below * above**2]
    # a prime cofactor just below and just above d*^2
    d_star = first_divisor_past(bound)
    for p in (sympy.prevprime(d_star**2), sympy.nextprime(d_star**2)):
        inputs += [p, 30 * p, above * p]
    for n in inputs:
        assert_matches_reference(n, bound)


@pytest.fixture
def odd_divisions(monkeypatch):
    """The cofactor of every call to the odd-number trial division."""
    divide = arith._divide_out_odd_numbers
    cofactors = []

    def recorded(n, factors):
        cofactors.append(n)
        return divide(n, factors)

    monkeypatch.setattr(arith, "_divide_out_odd_numbers", recorded)
    return cofactors


def test_factorize_matches_trial_division_off_the_fast_path(odd_divisions):
    # at bound 3000 Pollard-Brent exhausts its budget on the first two, and
    # PSI_13 is past the range where Miller-Rabin is proven exact
    for n in (5_000_011 * 7_000_003, 6 * PSI_12, PSI_13):
        assert isinstance(assert_matches_reference(n, 3000), str)
        assert odd_divisions[-1] == n // math.gcd(n, 6)
    assert_matches_reference(PSI_12, 1000)


def is_strong_probable_prime(n, a):
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    x = pow(a, t, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))


# psi_1 .. psi_13, OEIS A014233
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, PSI_12, PSI_13,
)


def test_miller_rabin_needs_the_thirteenth_base():
    bases = arith._MR_BASES
    assert bases == tuple(sympy.primerange(2, 42))
    assert arith._MR_PSI == PSI and arith._PSI13 == PSI_13
    for k, psi in enumerate(PSI, 1):
        # psi_k is composite and passes the first k bases; the next base
        # catches it unless psi_k repeats
        assert not sympy.isprime(psi)
        assert all(is_strong_probable_prime(psi, a) for a in bases[:k])
        if k < 13 and PSI[k] != psi:
            assert not is_strong_probable_prime(psi, bases[k])
        if k < 13:
            assert not arith._is_prime_mr(psi), k
    assert all(is_strong_probable_prime(PSI_13, a) for a in bases)
    assert arith._is_prime_mr(2**61 - 1)
    with factor_bound(1000), pytest.raises(FactorBoundExceeded):
        factorize(PSI_12)


def test_miller_rabin_agrees_with_sympy_in_every_band():
    # each band [psi_(k-1), psi_k) runs k bases; sample odd integers,
    # primes and products of two primes in it, both ends included
    rng = random.Random(2017)
    for lo, hi in zip((43, *PSI[:12]), PSI):
        if lo == hi:
            continue
        samples = {lo | 1, hi - 2}
        for _ in range(40):
            samples.add(rng.randrange(lo, hi) | 1)
        for _ in range(8):
            samples.add(int(sympy.prevprime(rng.randrange(lo + 2, hi))))
        root = math.isqrt(hi)
        for _ in range(8):
            p = int(sympy.nextprime(rng.randrange(3, max(4, root // 2))))
            q = int(sympy.nextprime(rng.randrange(lo, hi) // p))
            if lo <= p * q < hi:
                samples.add(p * q)
        samples = sorted(n for n in samples if lo <= n < hi and n % 2)
        assert any(sympy.isprime(n) for n in samples)
        assert any(not sympy.isprime(n) for n in samples)
        for n in samples:
            assert arith._is_prime_mr(n) == sympy.isprime(n), n


def test_large_primes_are_answered_without_odd_trial_division(odd_divisions):
    # the shape of the queries-deep pradical queries on two primes past
    # 10^7, and a Mersenne prime: Pollard-Brent and Miller-Rabin answer both
    assert factorize(30 * 10_000_019 * 19_999_999) == {
        2: 1, 3: 1, 5: 1, 10_000_019: 1, 19_999_999: 1,
    }
    assert factorize(2**61 - 1) == {2**61 - 1: 1}
    assert odd_divisions == []


def test_block_prime_table():
    # the blocks hold the primes from 2^10 to 2^16 once each, ascending;
    # test_small_prime_table checks the table below 2^10 is unchanged
    blocks = arith._BLOCKS
    assert tuple(p for primes, _ in blocks for p in primes) == tuple(
        sympy.primerange(2**10, 2**16)
    )
    assert all(len(primes) == arith._BLOCK_SIZE for primes, _ in blocks[:-1])
    assert 0 < len(blocks[-1][0]) <= arith._BLOCK_SIZE
    for primes, product in blocks:
        assert product == math.prod(primes)


def test_small_prime_table():
    primes = tuple(sympy.primerange(2, 2**10 + 1))
    assert arith._SMALL_PRIMES == primes
    assert arith._SMALL_PRIMORIAL == math.prod(primes)


# a*P*Q with P, Q in the ranges of the benchmark's large-prime queries and
# a made of small primes, some of them near 2^10
DEEP_SHAPED = [
    a * p * q
    for a in (1, 2, 6, 30, 4 * 9 * 5, 1021, 2 * 1019 * 1021, 997**2, 31**3)
    for p, q in ((10_007, 10_009), (18_013, 199_999))
]


def block_edge_inputs():
    """The first and last prime of every block alone, two primes of one
    block, powers of block primes, and cofactors on either side of 2^32."""
    out = []
    for primes, _ in arith._BLOCKS:
        first, last = primes[0], primes[-1]
        out += [first, last, 6 * first * last, primes[1] * primes[-2] ** 2, first**2, last**3]
    below, above = sympy.prevprime(2**32), sympy.nextprime(2**32)
    for cofactor in (below, above, 65_519 * 65_521, 65_521 * 65_537, 65_537 * 65_539, 65_537**2):
        out += [cofactor, 30 * cofactor, 1031 * cofactor]
    return out


def as_items(n):
    return sorted(sympy.factorint(n).items())


def test_factorize_answers_sympy_at_the_block_edges():
    for n in [*block_edge_inputs(), *DEEP_SHAPED]:
        assert list(factorize(n).items()) == as_items(n), n


@pytest.mark.parametrize("bound", (1025, 3000, 40_000))
def test_factorize_matches_trial_division_at_the_block_edges(bound):
    # the bound cuts the blocks: no prime above it is divided out early
    for n in [*block_edge_inputs(), *DEEP_SHAPED]:
        assert_matches_reference(n, bound)


def test_refusal_under_a_bound_in_the_blocks_names_the_whole_cofactor():
    # 1031 lies past the bound 1025, so the refusal names n itself
    n = 1031 * 5_000_011 * 7_000_003
    assert assert_matches_reference(n, 1025) == (
        f"trial division bound 1025 exceeded while factoring {n}"
    )
    assert assert_matches_reference(n, 3000) == (
        f"trial division bound 3000 exceeded while factoring {n // 1031}"
    )


@given(
    st.lists(st.sampled_from([2, 3, 1021, 1031, 3001, 39_989, 40_009, 65_521, 65_537]), max_size=4),
    st.sampled_from([1, 7, 1_000_003, 5_000_011 * 7_000_003]),
    st.sampled_from([1025, 3000, 40_000, FACTOR_BOUND]),
)
@settings(max_examples=150, deadline=None)
def test_factorize_matches_trial_division_on_block_products(primes, rest, bound):
    assert_matches_reference(math.prod(primes) * rest, bound)


@pytest.fixture
def fallback_calls(monkeypatch):
    """Calls to the stages past the block scan."""
    calls = dict.fromkeys(("_pollard_brent", "_is_prime_mr", "_divide_out_odd_numbers"), 0)
    for name in calls:

        def counting(*args, _real=getattr(arith, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(arith, name, counting)
    return calls


def test_primes_below_2_16_are_read_off_the_blocks(fallback_calls):
    # the blocks divide out a prime below 2^16; a cofactor below the square
    # of the next block's least prime, as 199_999 is, is a prime
    for n in (6 * 10_007 * 65_521, *DEEP_SHAPED):
        assert list(factorize(n).items()) == as_items(n), n
    assert fallback_calls == dict.fromkeys(fallback_calls, 0)
    # two primes past 2^16 still go through Pollard-Brent
    assert factorize(65_537 * 65_539) == {65_537: 1, 65_539: 1}
    assert fallback_calls["_pollard_brent"] >= 1
    assert fallback_calls["_divide_out_odd_numbers"] == 0


@pytest.mark.parametrize("bound", (FACTOR_BOUND, 2, 3, 10, 1023, 1024, 1025))
def test_factorize_matches_trial_division_on_a_sweep(bound):
    # every n below 2^14, where the square-root stop and the bound meet the
    # small-prime table, then numbers shaped like the benchmark's; below
    # 2^20 every n is answered, as trial division to 2^7 answers n < 2^14
    with factor_bound(bound):
        for n in range(1, 1 << 14):
            assert outcome(factorize, n) == outcome(factorize_by_trial_division, n), n
    for n in DEEP_SHAPED:
        assert_matches_reference(n, bound)


def test_p_part_and_coprime_part_reject_what_they_cannot_strip():
    assert p_part(-72, 3) == 9
    assert coprime_part(-90, 3) == -10
    assert coprime_part(90, 0) == 1
    for bad in (lambda: p_part(0, 3), lambda: p_part(12, 1), lambda: p_part(12, 0),
                lambda: coprime_part(0, 6), lambda: coprime_part(0, 0)):
        with pytest.raises(ValueError):
            bad()


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
    # 0 must stay (0): coprime_part and p_part reject it
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
