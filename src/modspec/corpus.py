"""Deterministic desk-scale module corpus for the verification suites.

Invariant-factor chains are drawn from the divisors of {4, 6, 8, 12, 36}
(up to three factors, group order capped at 256), instantiated over Z and,
where the factors divide n, over Z/n for n in {4, 6, 12, 36}; the Pruefer
groups for p in {2, 3, 5} provide the primeless counterexamples.  This
covers multi-fiber spectra, non-cyclic fibers, nilpotents and the
localization counterexample while staying enumerable.
"""

from __future__ import annotations

import math

from .arith import ZZ, Zmod
from .fgmodules import FgModule, prufer_module

CHAIN_SOURCES = (4, 6, 8, 12, 36)
MAX_FACTORS = 3
MAX_CARDINALITY = 256
ZMOD_BASES = (4, 6, 12, 36)
PRUFER_PRIMES = (2, 3, 5)


def factor_pool() -> tuple[int, ...]:
    pool = set()
    for base in CHAIN_SOURCES:
        pool.update(d for d in range(2, base + 1) if base % d == 0)
    return tuple(sorted(pool))


def invariant_chains() -> tuple[tuple[int, ...], ...]:
    """All divisibility chains from the factor pool, including the empty
    chain (the zero module)."""
    pool = factor_pool()
    chains = [()]
    frontier = [()]
    for _ in range(MAX_FACTORS):
        new = []
        for chain in frontier:
            for e in pool:
                if chain and e % chain[-1]:
                    continue
                if math.prod(chain) * e > MAX_CARDINALITY:
                    continue
                new.append(chain + (e,))
        chains.extend(new)
        frontier = new
    return tuple(sorted(chains, key=lambda c: (len(c), c)))


def finite_corpus() -> tuple[FgModule, ...]:
    modules = [FgModule(ZZ, chain) for chain in invariant_chains()]
    for n in ZMOD_BASES:
        ring = Zmod(n)
        for chain in invariant_chains():
            if all(n % e == 0 for e in chain):
                modules.append(FgModule(ring, chain))
    return tuple(modules)


def prufer_corpus() -> tuple[FgModule, ...]:
    return tuple(prufer_module(p) for p in PRUFER_PRIMES)


def full_corpus() -> tuple[FgModule, ...]:
    return finite_corpus() + prufer_corpus()
