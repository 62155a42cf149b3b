"""Exact arithmetic of principal ideals over Z, Z/n and their localizations.

Both base rings are principal ideal rings, so every ideal is carried by one
canonical generator: a nonnegative integer over Z, a divisor of n over Z/n.
Structural equality of canonical generators is ideal equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import compress

DEFAULT_FACTOR_BOUND = 10**7


class FactorBoundExceeded(ValueError):
    """Trial division ran past the configured bound without finishing."""


class RingMismatchError(ValueError):
    """Operands live over different rings."""


class NotInRadicalError(ValueError):
    """A Bezout decomposition was requested for f outside the radical."""


def factorize(n: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Prime factorization of |n|, n != 0, as a dict in ascending prime order.

    Which inputs are answered is the trial-division rule: let d* be the
    first trial divisor past ``bound`` (2, or the first odd number above
    ``bound``) and R the part of |n| made of primes >= d*.  n is answered
    iff R < d*^2; otherwise :class:`FactorBoundExceeded` is raised with the
    text ``trial division bound {bound} exceeded while factoring {R}``,
    which the benchmark (``perfbench/run.py``, ``LIMIT_REFUSAL``) matches
    to count a query as refused.

    How the answer is found is separate from that rule.  Trial division
    runs up to min(bound, 2^10).  A larger cofactor below ``_PSI13`` is
    split by Pollard-Brent into primes certified by deterministic
    Miller-Rabin, and the rule is applied to those primes.  A cofactor at
    or above ``_PSI13``, or one Pollard-Brent fails to split within its
    step budget, goes on by trial division up to ``bound``.  Every answer
    is exact: no input is decided by a probabilistic test.
    """
    n = abs(int(n))
    if n == 0:
        raise ValueError("0 has no prime factorization")
    factors: dict[int, int] = {}
    n, d = _trial_divide(n, 2, bound if bound < _TRIAL_LIMIT else _TRIAL_LIMIT, factors)
    if d * d <= n:
        if d <= bound and n < _PSI13:
            primes = _split_into_primes(n, _RHO_STEPS_PER_ROOT * math.isqrt(bound))
            if primes is not None:
                # no prime lies strictly between bound and d*
                d_star = _first_divisor_past(bound)
                large = math.prod(p for p in primes if p > bound)
                if large >= d_star * d_star:
                    raise FactorBoundExceeded(
                        f"trial division bound {bound} exceeded while factoring {large}"
                    )
                for p in sorted(primes):
                    factors[p] = factors.get(p, 0) + 1
                return factors
        n, d = _trial_divide(n, d, bound, factors)
        if d * d <= n:
            raise FactorBoundExceeded(
                f"trial division bound {bound} exceeded while factoring {n}"
            )
    if n > 1:
        factors[n] = 1
    return factors


# Trial division up to 2^10 settles every cofactor below 2^20 by itself.
_TRIAL_LIMIT = 1 << 10


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, n >= 2, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


# The primes below 2^10 and their product: one gcd with the product shows
# which of them divide n.
_SMALL_PRIMES = _primes_below(_TRIAL_LIMIT)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)

# psi_k (OEIS A014233) is the least odd composite that is a strong
# pseudoprime to each of the first k prime bases, so below psi_k those k
# bases make Miller-Rabin exact.  Jaeschke (Math. Comp. 61, 1993) gives
# psi_1 to psi_8, Jiang and Deng (Math. Comp. 83, 2014) psi_9 to psi_11,
# and Sorenson and Webster (Math. Comp. 86, 2017) psi_12 and psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461, 3_317_044_064_679_887_385_961_981,
)
_PSI13 = _MR_PSI[-1]

# Pollard-Brent finds a prime factor p after about sqrt(p) steps, so a
# budget of a multiple of isqrt(bound) splits off any factor <= bound with
# near certainty, and costs little next to the trial division up to bound
# that follows when it fails.
_RHO_STEPS_PER_ROOT = 16
_RHO_BATCH = 128


def _trial_divide(n: int, d: int, stop: int, factors: dict[int, int]) -> tuple[int, int]:
    """Divide out of n the trial divisors from d (2, then odd) up to stop,
    while their square is at most the cofactor.  Records the primes found
    in ``factors``; returns the cofactor and the first divisor not tried.

    From d = 2 the divisors below 2^10 are read off ``_SMALL_PRIMES``:
    for n >= 2^10 one gcd with ``_SMALL_PRIMORIAL`` shows which of them
    divide n, and only those are divided out.  The divisor returned is the
    first past min(stop, 2^10).  Where the loop would have stopped sooner,
    at the square root, the cofactor left is 1 or a prime below the square
    of that divisor, so the caller decides on it as it would after the
    loop."""
    if d == 2:
        d = _TRIAL_LIMIT + 1 if stop >= _TRIAL_LIMIT else _first_divisor_past(stop)
        # g keeps the small primes not yet divided out; below 2^10 the few
        # primes up to sqrt(n) cost less than the gcd
        g = n if n < _TRIAL_LIMIT else math.gcd(n, _SMALL_PRIMORIAL)
        for p in _SMALL_PRIMES:
            if p * p > n or g == 1 or p >= d:
                break
            if g % p == 0:
                g //= p
                k = 0
                while n % p == 0:
                    n //= p
                    k += 1
                factors[p] = k
    while d * d <= n and d <= stop:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            factors[d] = k
        d += 2
    return n, d


def _first_divisor_past(x: int) -> int:
    """The first trial divisor (2, then odd) above x."""
    return 2 if x < 2 else x + 1 + x % 2


def _is_prime_mr(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 41 < n < _PSI13: the first k
    bases, k the least index with n < psi_k."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    t = (n - 1) >> s
    for a, psi in zip(_MR_BASES, _MR_PSI):
        x = pow(a, t, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def _pollard_brent(n: int, budget: int) -> int | None:
    """A proper divisor of the odd composite n, or None once ``budget``
    steps are spent (checked at the end of each doubling round).  Brent's
    cycle search (BIT 20, 1980) on x -> x^2 + c from x = 2, with c = 1,
    2, ... whenever a search meets n itself."""
    steps = 0
    c = 0
    while steps < budget:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            steps += r + min(k, r)
            r *= 2
        if g == n:
            # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


def _split_into_primes(n: int, budget: int) -> list[int] | None:
    """The prime factors of n with multiplicity, each certified by
    :func:`_is_prime_mr`, or None when Pollard-Brent runs out of budget.
    n must be below _PSI13 with no prime factor below _TRIAL_LIMIT."""
    primes = []
    todo = [n]
    while todo:
        m = todo.pop()
        if _is_prime_mr(m):
            primes.append(m)
            continue
        f = _pollard_brent(m, budget)
        if f is None:
            return None
        cofactor, rest = divmod(m, f)
        if rest:
            raise RuntimeError(f"Pollard-Brent split {m} by the non-divisor {f}")
        todo += (f, cofactor)
    return primes


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n))) if n else ()


def squarefree_kernel(n: int) -> int:
    """Product of the distinct primes dividing n (0 for n = 0, 1 for units)."""
    if n == 0:
        return 0
    return math.prod(prime_divisors(n))


def p_part(n: int, p: int) -> int:
    """Largest power of the prime p dividing n, n != 0."""
    if n == 0 or p < 2:
        raise ValueError(f"p_part needs n != 0 and a prime p, got n = {n}, p = {p}")
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def coprime_part(n: int, f: int) -> int:
    """Largest divisor of n coprime to f (f = 0 strips everything), n != 0."""
    if n == 0:
        raise ValueError("coprime_part needs n != 0")
    while True:
        g = math.gcd(n, f)
        if g == 1:
            return n
        n //= g


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _divides(a: int, b: int) -> bool:
    # divisibility with (0) conventions: 0 | b iff b == 0
    return b == 0 if a == 0 else b % a == 0


@dataclass(frozen=True)
class Ring:
    """Base ring descriptor: Z, Z/n, or a localization of one of those.

    ``modulus`` is None for Z and n >= 2 for Z/n.  A localized descriptor
    carries exactly one of ``inverted`` (powers of f made invertible) or
    ``local_prime`` (complement of the prime (p); p = 0 means the zero
    ideal of Z).  ``inverted = 0`` is the canonical degenerate descriptor
    for a localization whose multiplicative set contains 0 (the zero ring).
    """

    modulus: int | None = None
    inverted: int | None = None
    local_prime: int | None = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be >= 2")
        if self.inverted is not None and self.local_prime is not None:
            raise ValueError("localization carries either an inverted element or a prime, never both")
        if self.local_prime is not None:
            if self.local_prime != 0 and not is_prime(self.local_prime):
                raise ValueError(f"{self.local_prime} is not prime")
            if self.local_prime == 0 and self.modulus is not None:
                raise ValueError("the zero ideal is not prime in Z/n")

    @property
    def is_localized(self) -> bool:
        return self.inverted is not None or self.local_prime is not None

    @property
    def effective_modulus(self) -> int | None:
        """Modulus of the ring up to isomorphism; None for infinite rings."""
        if self.modulus is None:
            if self.inverted == 0:
                return 1
            return None
        if self.inverted is not None:
            return coprime_part(self.modulus, self.inverted)
        if self.local_prime is not None:
            return p_part(self.modulus, self.local_prime)
        return self.modulus

    def reduce(self, x: int) -> int:
        """Canonical representative of a base-ring element."""
        if self.modulus is None:
            return int(x)
        return int(x) % self.modulus

    def __str__(self) -> str:
        core = "Z" if self.modulus is None else f"Z/{self.modulus}"
        if self.inverted is not None:
            return f"({core})[1/{self.inverted}]" if self.modulus else f"Z[1/{self.inverted}]"
        if self.local_prime is not None:
            return f"({core})_({self.local_prime})" if self.modulus else f"Z_({self.local_prime})"
        return core


ZZ = Ring()


def Zmod(n: int) -> Ring:
    return Ring(modulus=n)


@dataclass(frozen=True)
class Ideal:
    """A principal ideal in canonical form; construct via :func:`ideal`."""

    ring: Ring
    gen: int

    def contains_element(self, x: int) -> bool:
        ring = self.ring
        x = int(x)
        if ring.modulus is None and ring.is_localized:
            # replace x by its canonical associate in the localized ring
            x = _canonical_gen(ring, x)
        m = ring.effective_modulus
        if m is not None:
            x = x % m
        return _divides(self.gen, x)

    def __str__(self) -> str:
        return f"({self.gen}) of {self.ring}"


def ideal(ring: Ring, g: int) -> Ideal:
    """The principal ideal (g), canonicalized for the given ring."""
    return Ideal(ring, _canonical_gen(ring, int(g)))


def _canonical_gen(ring: Ring, g: int) -> int:
    m = ring.effective_modulus
    if m is not None:
        return math.gcd(g, m)
    if not ring.is_localized:
        return abs(g)
    # (0) stays (0): coprime_part and p_part reject 0
    if g == 0:
        return 0
    if ring.inverted is not None:
        return coprime_part(abs(g), ring.inverted)
    p = ring.local_prime
    return p_part(g, p) if p else 1


def ideal_combine(op: str, a: Ideal, b: Ideal) -> Ideal:
    """Ideal sum (gcd of generators), intersection (lcm) or product."""
    if a.ring != b.ring:
        raise RingMismatchError(f"{a.ring} vs {b.ring}")
    if op == "sum":
        raw = math.gcd(a.gen, b.gen)
    elif op == "intersect":
        raw = math.lcm(a.gen, b.gen)
    elif op == "product":
        raw = a.gen * b.gen
    else:
        raise ValueError(f"unknown ideal operation {op!r}")
    return ideal(a.ring, raw)


def ideal_sum(*ideals: Ideal) -> Ideal:
    return reduce(lambda x, y: ideal_combine("sum", x, y), ideals)


def ideal_radical(a: Ideal) -> Ideal:
    """Product of the distinct primes containing (gen); fixes (0) and (1)."""
    return ideal(a.ring, squarefree_kernel(a.gen))


def is_prime_ideal(a: Ideal) -> bool:
    m = a.ring.effective_modulus
    if m is None:
        return a.gen == 0 or is_prime(a.gen)
    # over Z/m the prime ideals are (p) for primes p | m; this covers the
    # zero ideal of Z/p, whose canonical generator is p itself
    return is_prime(a.gen)


def radical_membership_witness(f: int, a: Ideal) -> int | None:
    """Smallest n >= 1 with f^n in the ideal, or None when f is outside
    the radical."""
    ring = a.ring
    if ring.is_localized:
        raise ValueError("witnesses are computed over the base rings only")
    f = ring.reduce(f)
    if not ideal_radical(a).contains_element(f):
        return None
    m = ring.effective_modulus
    n = 1
    power = f
    while not a.contains_element(power):
        n += 1
        power = power * f if m is None else (power * f) % m
        if n > 64 + (a.gen.bit_length() if a.gen else 0):
            raise RuntimeError("radical witness search failed to terminate")
    return n


@dataclass(frozen=True)
class BezoutDecomposition:
    """f^exponent written exactly as sum(r_i * b_i) with r_i in ideals[i]."""

    ring: Ring
    element: int
    exponent: int
    pairs: tuple[tuple[int, int], ...]


def bezout_decompose(f: int, ideals: list[Ideal]) -> BezoutDecomposition:
    """Write a power of f as an exact combination drawn from the ideals.

    Requires f in the radical of the ideal sum; the witness exponent is the
    smallest one, and the combination is built from iterated extended gcd
    of the generators.  The identity f^n - sum(r_i b_i) = 0 is re-verified
    before returning.
    """
    if not ideals:
        raise ValueError("need at least one ideal")
    ring = ideals[0].ring
    for a in ideals[1:]:
        if a.ring != ring:
            raise RingMismatchError(f"{a.ring} vs {ring}")
    total = ideal_sum(*ideals)
    n = radical_membership_witness(f, total)
    if n is None:
        raise NotInRadicalError(f"{f} is not in the radical of the ideal sum {total}")
    f = ring.reduce(f)
    m = ring.effective_modulus

    gens = [a.gen for a in ideals]
    coeffs = [0] * len(gens)
    g = 0
    for i, gi in enumerate(gens):
        g, x, y = egcd(g, gi)
        for j in range(i):
            coeffs[j] *= x
        coeffs[i] = y
    if m is not None:
        # fold the modulus in so g matches the canonical sum generator
        g2, x, _ = egcd(g, m)
        for j in range(len(coeffs)):
            coeffs[j] = coeffs[j] * x % m
        g = g2

    target = f**n if m is None else pow(f, n, m)
    # g = 0 only when every ideal is (0) over Z: the witness admitted f = 0 alone
    q = target // g if g else 0
    pairs = []
    for c, gi in zip(coeffs, gens):
        r = c * gi if m is None else (c * gi) % m
        b = q if m is None else q % m
        pairs.append((r, b))

    acc = sum(r * b for r, b in pairs)
    acc = acc if m is None else acc % m
    if acc != target:
        raise RuntimeError("bezout decomposition failed to re-verify")
    for (r, _), a in zip(pairs, ideals):
        if not a.contains_element(r):
            raise RuntimeError("bezout coefficient escaped its ideal")
    return BezoutDecomposition(ring=ring, element=f, exponent=n, pairs=tuple(pairs))
