"""Seeded inputs for the four workloads.

The query generator only draws numbers; it never calls ``modspec``.  Each
module it writes carries the factorizations it was built from
(``ModuleSpec``), so ``oracle`` can check every answer.  The corpus
workloads sample ``modspec.corpus`` modules instead.  The cell mix of a
query workload (which command on which module shape) is fixed: the seed
picks the primes, scalars and generators inside each cell, so that runs
with different seeds load the same layers equally.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

from oracle import ModuleSpec, mul, small_factorization

# ---------------------------------------------------------------------------
# numbers
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    return n >= 2 and small_factorization(n) == {n: 1}


def prime_in(rng: random.Random, lo: int, hi: int) -> int:
    """A prime in [lo, hi), log-uniform."""
    while True:
        x = int(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        while not is_prime(x):
            x += 1
        if lo <= x < hi:
            return x


def fac(n: int) -> dict:
    return small_factorization(n) if n > 1 else {}


@dataclass
class Query:
    module: ModuleSpec
    command: str
    flags: list[str] = field(default_factory=list)
    strategy: str | None = None
    params: dict = field(default_factory=dict)
    path: str = ""

    def argv(self) -> list[str]:
        head = ["--quiet"]
        if self.strategy == "classified":
            head += ["--strategy", "classified"]
        return head + [self.command, self.path] + self.flags

    def expect(self) -> dict:
        out = {"command": self.command, "strategy": self.strategy or "both"}
        out.update(self.params)
        return out


# ---------------------------------------------------------------------------
# query builders: one per CLI command, parameters drawn from the seed
# ---------------------------------------------------------------------------

PADS = (7, 11, 13, 17, 19, 23)


def _pad(rng, m: ModuleSpec) -> int:
    return rng.choice([1] + [q for q in PADS if q not in m.primes])


def _scalar(rng, m: ModuleSpec, kill=None) -> int:
    """A scalar divisible by a random (or the given) set of module primes."""
    primes = m.primes
    if kill is None:
        kill = [p for p in primes if rng.random() < 0.5]
    return math.prod(kill) * _pad(rng, m)


def q_spec(rng, m, strategy=None):
    return Query(m, "spec", strategy=strategy)


def q_sheaf(rng, m, kill=None):
    f = _scalar(rng, m, kill)
    return Query(m, "sheaf", ["--open", f"D({f})"], params={"f": f})


def q_radical(rng, m):
    gens = [
        [rng.randrange(e) for e in m.ints] for _ in range(rng.randint(1, 2))
    ]
    text = ";".join(",".join(map(str, g)) for g in gens)
    return Query(m, "radical", ["--submodule", text], params={"gens": gens})


def q_colon(rng, m):
    diag = [rng.randrange(e) for e in m.ints]
    gens = []
    for i, c in enumerate(diag):
        vec = [0] * m.rank
        vec[i] = c
        gens.append(",".join(map(str, vec)))
    return Query(m, "colon", ["--submodule", ";".join(gens)], params={"diag": diag})


def q_pradical(rng, m):
    return Query(m, "pradical")


def q_invert(rng, m):
    f = _scalar(rng, m)
    return Query(m, "localize", ["--invert", str(f)], params={"invert": f})


def q_at(rng, m):
    p = rng.choice(m.primes)
    return Query(m, "localize", ["--at", str(p)], params={"at": p})


def q_iso(rng, m):
    f, g = _scalar(rng, m), _scalar(rng, m)
    return Query(m, "iso", ["--f", str(f), "--g", str(g)], params={"f": f, "g": g})


def q_cover(rng, m):
    """An exact cover: D(h_1) + ... + D(h_k) = D(f), each D(h_i) nonempty."""
    primes = m.primes
    killed = rng.sample(primes, rng.randrange(len(primes)))
    f = math.prod(killed) * _pad(rng, m)
    open_f = [p for p in primes if p not in killed]
    k = rng.randint(1, 3)
    subsets = [{p for p in open_f if rng.random() < 0.6} for _ in range(k)]
    for p in open_f:
        if not any(p in s for s in subsets):
            rng.choice(subsets).add(p)
    for s in subsets:
        if not s:
            s.add(rng.choice(open_f))
    hs = []
    for s in subsets:
        h = math.prod(p ** rng.randint(1, 2) for p in primes if p not in s)
        hs.append(h * _pad(rng, m))
    flags = ["--f", str(f), "--hs", ",".join(map(str, hs))]
    return Query(m, "cover", flags, params={"f": f, "hs": hs})


def q_verify(rng, m, suite):
    return Query(m, "verify", ["--suite", suite], params={"suite": suite})


BUILDERS = {
    "spec": q_spec,
    "spec-classified": lambda rng, m: q_spec(rng, m, "classified"),
    "sheaf": q_sheaf,
    "radical": q_radical,
    "colon": q_colon,
    "pradical": q_pradical,
    "localize-invert": q_invert,
    "localize-at": q_at,
    "iso": q_iso,
    "cover": q_cover,
    # M_f = M: over the psi_map cap for the large modules it is used on
    "sheaf-unstripped": lambda rng, m: q_sheaf(rng, m, kill=[]),
    # one verification suite on the module file, or all of them
    **{
        f"verify-{suite}": lambda rng, m, suite=suite: q_verify(rng, m, suite)
        for suite in ("3.1", "3.2", "4.1", "sheaf-axioms", "all")
    },
}
# commands run over Z only: suite 2.3, part of "all", draws from an empty
# pool of Z-modules for a module over Z/n
Z_ONLY = {"verify-all"}


def _ring(rng, factors, over_zmod: bool) -> ModuleSpec:
    """Over Z, or over Z/n with n a small multiple of the exponent."""
    modulus = None
    if over_zmod:
        modulus = mul(factors[-1], fac(rng.choice((1, 2, 3))))
    return ModuleSpec.build(factors, modulus)


# ---------------------------------------------------------------------------
# queries-wide: many points per fiber
# ---------------------------------------------------------------------------

def _elementary(p: int, s: int, top: int = 1) -> list[dict]:
    return [{p: 1}] * (s - 1) + [{p: top}]


# module shape -> factorizations; "p2" is (Z/p)^2 with p from a stratum
WIDE_SHAPES = {
    "2^6": lambda rng: _elementary(2, 6),
    "2^5": lambda rng: _elementary(2, 5),
    "2^3+4": lambda rng: _elementary(2, 4, 2),
    "3": lambda rng: [fac(3)],
    "3^4": lambda rng: _elementary(3, 4),
    "3^3": lambda rng: _elementary(3, 3),
    "5^3": lambda rng: _elementary(5, 3),
    "7^3": lambda rng: _elementary(7, 3),
    "6^2": lambda rng: [fac(6)] * 2,
    "6^3": lambda rng: [fac(6)] * 3,
    "p2-small": lambda rng: [{prime_in(rng, 50, 64): 1}] * 2,
    "p2-mid": lambda rng: [{prime_in(rng, 67, 200): 1}] * 2,
    "p2-large": lambda rng: [{prime_in(rng, 200, 500): 1}] * 2,
}

# queries-wide: (shape, command) cells, from the slowest at the seed commit
# down.  The first occurrence of a cell runs over Z, the second over Z/n, so
# every seed gets the same mix of rings.  Queries of more than a few
# milliseconds are few and sit above p90: on a shared machine their fastest
# reading varies from run to run far more than that of short ones.  They
# and the refused cells are 7% of the queries.  Below them a block of 16
# queries of ~4-5 ms, 10% of all, holds p90 away from both of its edges.
# The median falls among 120 queries of ~1.5-3 ms.
WIDE_HEAVY = (
    # refused at the seed commit: more than 512 subgroups, |M_f| > 4096
    ("p2-mid", "spec"),
    ("p2-large", "spec"),
    ("p2-large", "sheaf-unstripped"),
    # each enumerates the ~3000 points of Spec((Z/2)^6): ~0.3 s
    ("2^6", "sheaf"),
    ("2^6", "cover"),
    ("2^6", "radical"),
    # ~0.03-0.3 s
    ("3", "verify-all"),
    ("2^3+4", "spec"),
    ("6^2", "verify-sheaf-axioms"),
    ("3^4", "spec-classified"),
)
WIDE_P90_BLOCK = (("6^3", "verify-4.1"),) * 16
WIDE_LIGHT = (  # ~3-4 ms
    ("3^3", "cover"),
    ("6^2", "cover"),
    ("3^3", "sheaf"),
    ("6^2", "sheaf"),
    ("3^3", "radical"),
)
WIDE_CHEAP_SHAPES = (
    "2^6", "2^5", "2^3+4", "3^4", "3^3", "5^3", "7^3", "6^2", "6^3",
    "p2-small", "p2-mid", "p2-large",
)
WIDE_CHEAP = tuple(
    (shape, command)
    for _ in range(2)
    for shape in WIDE_CHEAP_SHAPES
    for command in ("pradical", "colon", "localize-at", "localize-invert", "iso")
)
WIDE_CELLS = WIDE_HEAVY + WIDE_P90_BLOCK + WIDE_LIGHT + WIDE_CHEAP


def wide_queries(rng) -> list[Query]:
    out = []
    seen: dict[tuple, int] = {}
    for cell in WIDE_CELLS:
        shape, command = cell
        over_zmod = command not in Z_ONLY and seen.get(cell, 0) % 2 == 1
        seen[cell] = seen.get(cell, 0) + 1
        out.append(BUILDERS[command](rng, _ring(rng, WIDE_SHAPES[shape](rng), over_zmod)))
    return out


# ---------------------------------------------------------------------------
# queries-deep: one point per large-prime fiber, heavy factorization
# ---------------------------------------------------------------------------

DEEP_HI = 2 * 10**5  # the larger prime Q is drawn from (P, DEEP_HI)
HUGE_LO, HUGE_HI = 10**7, 2 * 10**7  # above the 10^7 trial-division bound
SMALL = (2, 3, 5)
DEEP_SMALL_PART = 1024  # |M_f| bound once the large primes are inverted

# Trial division finds the smaller prime P last, so a query's cost grows
# with P (pradical: ~3 ms + 0.5 ms per 1000 of P at the seed commit).  Each
# cell draws P from a narrow range, so its cost hardly depends on the seed.
DEEP_P_RANGES = {
    "lo": (10_000, 11_000),
    "p90": (18_000, 19_000),
    "mid": (40_000, 44_000),
    "hi": (160_000, 165_000),
}

# (command, range of P, count, fixed) in one pass of 105 queries, from the
# cheapest at the seed commit up: 88 queries of ~1.5-5 ms, among which p50
# falls; a block of 10 equal ~6 ms queries that holds p90; two heavy ones;
# then the refused ones.  Queries longer than that are few: on a shared
# machine their fastest reading varies from run to run far more than that
# of short ones.  A query's cost also grows with its number of fibers, so
# the "fixed" cells all run on the cyclic module Z/(2 P Q) over Z.
DEEP_CELLS = (
    ("localize-at", "lo", 12, False),
    ("colon", "lo", 12, False),
    ("localize-invert", "lo", 12, False),
    ("radical", "lo", 16, False),
    ("cover", "lo", 10, False),
    ("iso", "lo", 6, False),
    ("pradical", "lo", 16, True),
    ("spec-classified", "lo", 4, False),
    ("pradical", "p90", 10, True),
    ("sheaf", "mid", 1, False),
    ("pradical", "hi", 1, True),
    # over the caps at the seed commit
    ("spec", "lo", 2, False),
    ("sheaf-unstripped", "lo", 2, False),
)


def _deep_module(rng, big: list[int]) -> ModuleSpec:
    """Cyclic Z/(a P Q), or Z/a + Z/(a b P Q) with a, b built from 2, 3, 5."""
    top = {p: 1 for p in big}
    while True:
        a = {p: 1 for p in SMALL if rng.random() < 0.5}
        b = {p: 1 for p in SMALL if rng.random() < 0.3}
        if math.prod(a) ** 2 * math.prod(b) <= DEEP_SMALL_PART:
            break
    if a and rng.random() < 0.6:
        factors = [a, mul(a, b, top)]
    else:
        factors = [mul(a, top)]
    return _ring(rng, factors, rng.random() < 0.4)


def deep_pass(rng) -> list[Query]:
    out = []
    for command, p_range, count, fixed in DEEP_CELLS:
        for _ in range(count):
            p = prime_in(rng, *DEEP_P_RANGES[p_range])
            q = prime_in(rng, p + 1, DEEP_HI)
            m = ModuleSpec.build([{2: 1, p: 1, q: 1}]) if fixed else _deep_module(rng, [p, q])
            if command == "sheaf":  # M_f is the small {2, 3, 5}-part
                out.append(q_sheaf(rng, m, kill=[p, q]))
            else:
                out.append(BUILDERS[command](rng, m))
    # about one query in a hundred: two primes past the trial-division bound
    p = prime_in(rng, HUGE_LO, HUGE_HI)
    q = prime_in(rng, p + 1, HUGE_HI)
    out.append(q_pradical(rng, _deep_module(rng, [p, q])))
    return out


DEEP_PASSES = 2


def deep_queries(rng) -> list[Query]:
    return [q for _ in range(DEEP_PASSES) for q in deep_pass(rng)]


QUERY_SETS = {"queries-wide": wide_queries, "queries-deep": deep_queries}


def write_queries(queries: list[Query], directory: str) -> None:
    """Write each query's module file; identical modules share one file."""
    os.makedirs(directory, exist_ok=True)
    paths: dict[str, str] = {}
    for query in queries:
        text = json.dumps(query.module.file_json(), sort_keys=True)
        if text not in paths:
            paths[text] = os.path.join(directory, f"m{len(paths)}.json")
            with open(paths[text], "w", encoding="utf-8") as fh:
                fh.write(text)
        query.path = paths[text]


# ---------------------------------------------------------------------------
# corpus samples
# ---------------------------------------------------------------------------

def stratified_sample(rng, items: list, size: int, key) -> list:
    """One item from each of ``size`` consecutive blocks of the sorted
    items, so every sample spans the same range of ``key``."""
    items = sorted(items, key=key)
    out = []
    for i in range(size):
        block = items[len(items) * i // size : len(items) * (i + 1) // size]
        out.append(rng.choice(block))
    return out


def _corpus_key(m) -> tuple:
    return (len(m.factors), math.prod(m.factors), m.factors)


def verify_sample(rng, corpus, share: int) -> list:
    """One finite corpus module in every ``share`` per base ring, stratified
    by rank and order, plus every Pruefer module."""
    out = []
    rings = sorted({m.ring.modulus or 0 for m in corpus if m.is_finite})
    for n in rings:
        group = [m for m in corpus if m.is_finite and (m.ring.modulus or 0) == n]
        out += stratified_sample(rng, group, max(1, round(len(group) / share)), _corpus_key)
    return out + [m for m in corpus if m.is_prufer]


def chunks_by_order(modules: list, count: int) -> list[list]:
    """Split modules into ``count`` runs of consecutive order; Pruefer
    modules (no order) go last."""
    ordered = sorted(modules, key=lambda m: (m.is_prufer, math.prod(m.factors), m.factors))
    return [ordered[len(ordered) * i // count : len(ordered) * (i + 1) // count] for i in range(count)]


def sheaf_sample(rng, corpus, orders) -> list:
    """One two-fiber finite corpus module of each given order (the axiom
    check's cost follows |M|)."""
    two = [m for m in corpus if m.is_finite and m.factors and len(fac(m.factors[-1])) == 2]
    return [rng.choice([m for m in two if math.prod(m.factors) == n]) for n in orders]
