"""Closed-form answers for the benchmark's generated modules.

Every expected value here is computed from the prime factorizations the
generator used to build a module, never from ``modspec``.  A module is a
direct sum Z/e_1 + ... + Z/e_t (e_1 | ... | e_t) over Z or Z/n; with e the
exponent e_t and s_p = #{i : p | e_i}:

* ``spec``: fiber p has sum_{k<s_p} [s_p choose k]_p points, the pullbacks of
  the k-dimensional subspaces of M/pM, each of index p^(s_p - k);
* ``sheaf D(f)``: the open fibers are {p | e : p does not divide f}, and the
  sections and M_f both have cardinality prod_{p not | f} |M|_p;
* ``localize``: the invariant factors are the f-stripped or p-parts of e_i;
* ``iso``: both sides equal ({p | gcd(f, e)} == {p | gcd(g, e)});
* ``cover``: the decomposition is exact, f^n = sum r_i b_i, r_i in (h_i M : M);
* ``pradical``: true for every finite module;
* ``radical``: the index is prod p^(s_p - d_p) over s_p > d_p, d_p the
  F_p-rank of the generators in M/pM;
* ``colon`` of N = sum c_i Z x_i: (N : M) = (lcm_i gcd(c_i, e_i)), Ann M = (e);
* sheaf axioms on k fibers: 2^k opens and sum_j C(k, j) c_j covers with
  c_j = sum_i (-1)^(j-i) C(j, i) 2^(2^i - 1);
* ``verify`` on a file: one suite (every suite for ``all``), no failures,
  and at least one check.

``check_report`` returns the list of fields that disagree; empty means the
report is right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Factorization = dict  # prime -> exponent


def value(fac: Factorization) -> int:
    return math.prod(p**k for p, k in fac.items())


def small_factorization(n: int) -> Factorization:
    """Trial division for the generator's small building blocks (n < 10^6)."""
    out: Factorization = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mul(*facs: Factorization) -> Factorization:
    out: Factorization = {}
    for fac in facs:
        for p, k in fac.items():
            out[p] = out.get(p, 0) + k
    return out


@dataclass(frozen=True)
class ModuleSpec:
    """Invariant factors given by their factorizations, over Z (modulus
    None) or Z/n."""

    factors: tuple[tuple[tuple[int, int], ...], ...]
    modulus: tuple[tuple[int, int], ...] | None = None

    @classmethod
    def build(cls, factors, modulus=None) -> ModuleSpec:
        facs = tuple(tuple(sorted(f.items())) for f in factors)
        mod = None if modulus is None else tuple(sorted(modulus.items()))
        spec = cls(facs, mod)
        ints = spec.ints
        if any(e < 2 for e in ints) or any(b % a for a, b in zip(ints, ints[1:])):
            raise ValueError(f"not an invariant-factor chain: {ints}")
        if spec.n is not None and spec.n % ints[-1]:
            raise ValueError(f"exponent {ints[-1]} does not divide {spec.n}")
        return spec

    @property
    def ints(self) -> tuple[int, ...]:
        return tuple(value(dict(f)) for f in self.factors)

    @property
    def n(self) -> int | None:
        return None if self.modulus is None else value(dict(self.modulus))

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for f in self.factors for p, _ in f}))

    def valuation(self, i: int, p: int) -> int:
        return dict(self.factors[i]).get(p, 0)

    def s(self, p: int) -> int:
        return sum(1 for i in range(self.rank) if self.valuation(i, p))

    def p_part_order(self, p: int) -> int:
        return p ** sum(self.valuation(i, p) for i in range(self.rank))

    def file_json(self) -> dict:
        ring = {"kind": "Z"} if self.n is None else {"kind": "Zmod", "n": self.n}
        module = {"kind": "invariant_factors", "factors": list(self.ints), "free_rank": 0}
        return {"ring": ring, "module": module}


def gaussian_binomial(s: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (s - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def fiber_point_indices(s: int, p: int) -> dict[int, int]:
    """index p^(s-k) -> number of (p)-prime submodules with that index."""
    return {p ** (s - k): gaussian_binomial(s, k, p) for k in range(s)}


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                q = rows[i][c]
                rows[i] = [(a - q * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def sheaf_axiom_covers(k: int) -> int:
    def c(j: int) -> int:
        return sum((-1) ** (j - i) * math.comb(j, i) * 2 ** (2**i - 1) for i in range(j + 1))

    return sum(math.comb(k, j) * c(j) for j in range(k + 1))


# ---------------------------------------------------------------------------
# per-command expectations
# ---------------------------------------------------------------------------

def _int(x) -> int:
    return int(x)


def _open_fibers(m: ModuleSpec, f: int) -> list[int]:
    return [p for p in m.primes if f % p]


def _localized_card(m: ModuleSpec, f: int) -> int:
    return math.prod(m.p_part_order(p) for p in _open_fibers(m, f))


def _check_spec(m, q, r, bad):
    if r["relevant_primes"] != list(m.primes):
        bad.append("relevant_primes")
    if r["primeful"] is not True:
        bad.append("primeful")
    if r["strategy"] != q["strategy"]:
        bad.append("strategy")
    if sorted(r["fibers"]) != sorted(str(p) for p in m.primes):
        bad.append("fibers")
        return
    total = 0
    for p in m.primes:
        want = fiber_point_indices(m.s(p), p)
        got: dict[int, int] = {}
        for point in r["fibers"][str(p)]:
            if point["is_full"]:
                bad.append(f"fibers.{p}.is_full")
            idx = _int(point["index"])
            got[idx] = got.get(idx, 0) + 1
        if got != want:
            bad.append(f"fibers.{p}")
        total += sum(want.values())
    if r["point_count"] != total:
        bad.append("point_count")


def _check_sheaf(m, q, r, bad):
    f = q["f"]
    fibers = _open_fibers(m, f)
    card = _localized_card(m, f)
    if r["open"]["fibers"] != fibers:
        bad.append("open.fibers")
    space = r["section_space"]
    if _int(space["cardinality"]) != card:
        bad.append("section_space.cardinality")
    stalks = {int(p): _int(s["cardinality"]) for p, s in space["stalks"].items()}
    if stalks != {p: m.p_part_order(p) for p in fibers}:
        bad.append("section_space.stalks")
    if _int(r["psi"]["domain"]["cardinality"]) != card:
        bad.append("psi.domain.cardinality")
    if r["psi"]["bijective"] is not True:
        bad.append("psi.bijective")


def _expected_localized(m: ModuleSpec, keep) -> list[int]:
    out = []
    for f in m.factors:
        part = math.prod(p**k for p, k in f if keep(p))
        if part > 1:
            out.append(part)
    return out


def _check_localized(loc, factors, bad, field):
    if [_int(x) for x in loc["factors"]] != factors:
        bad.append(f"{field}.factors")
    if _int(loc["cardinality"]) != math.prod(factors):
        bad.append(f"{field}.cardinality")
    if loc["kind"] != ("standard" if factors else "zero") or loc["free_rank"] != 0:
        bad.append(f"{field}.kind")


def _check_localize(m, q, r, bad):
    if "invert" in q:
        f = q["invert"]
        factors = _expected_localized(m, lambda p: f % p != 0)
    else:
        at = q["at"]
        factors = _expected_localized(m, lambda p: p == at)
    _check_localized(r["localized"], factors, bad, "localized")


def _check_iso(m, q, r, bad):
    def support(x):
        return [p for p in m.primes if x % p == 0]

    sf, sg = support(q["f"]), support(q["g"])
    same = sf == sg
    if r["radicals_equal"] is not same or r["modules_isomorphic"] is not same:
        bad.append("iso")
    if _int(r["radical_f"]["generator"]) != math.prod(sf):
        bad.append("radical_f")
    if _int(r["radical_g"]["generator"]) != math.prod(sg):
        bad.append("radical_g")
    for key, x in (("localized_f", q["f"]), ("localized_g", q["g"])):
        _check_localized(r[key], _expected_localized(m, lambda p, x=x: x % p != 0), bad, key)


def _check_cover(m, q, r, bad):
    f, hs = q["f"], q["hs"]
    fibers = _open_fibers(m, f)
    if r["open_f"] != fibers or r["open_r_union"] != fibers:
        bad.append("open")
    if r["covers_exactly"] is not True:
        bad.append("covers_exactly")
    pairs = [(_int(a), _int(b)) for a, b in r["pairs"]]
    if len(pairs) != len(hs):
        bad.append("pairs")
        return
    n = _int(r["exponent"])
    e = m.ints[-1]
    if m.n is None:
        ok = f**n == sum(a * b for a, b in pairs)
    else:
        ok = pow(f, n, m.n) == sum(a * b for a, b in pairs) % m.n
    if not ok:
        bad.append("pairs.sum")
    if any(a % math.gcd(h, e) for (a, _), h in zip(pairs, hs)):
        bad.append("pairs.colon")


def _check_pradical(m, q, r, bad):
    if r["pradical"] is not True or r["certificate"] is not None:
        bad.append("pradical")


def _check_radical(m, q, r, bad):
    gens = q["gens"]
    index = 1
    for p in m.primes:
        cols = [i for i in range(m.rank) if m.valuation(i, p)]
        d = rank_mod_p([[g[i] for i in cols] for g in gens], p) if gens else 0
        index *= p ** (len(cols) - d)
    rad = r["prime_radical"]
    if _int(rad["index"]) != index:
        bad.append("prime_radical.index")
    if rad["is_full"] is not (index == 1):
        bad.append("prime_radical.is_full")


def _check_colon(m, q, r, bad):
    want = math.lcm(*(math.gcd(c, e) for c, e in zip(q["diag"], m.ints)))
    if _int(r["colon_ideal"]["generator"]) != want:
        bad.append("colon_ideal")
    if _int(r["annihilator"]["generator"]) != m.ints[-1]:
        bad.append("annihilator")


def _check_verify(m, q, r, bad):
    suites = r["suites"]
    if r["scope"] != "file" or (len(suites) > 1) != (q["suite"] == "all"):
        bad.append("suites")
    elif any(s["failures"] for s in suites) or sum(s["checks"] for s in suites) < 1:
        bad.append("suites.failures")


CHECKS = {
    "spec": _check_spec,
    "sheaf": _check_sheaf,
    "localize": _check_localize,
    "iso": _check_iso,
    "cover": _check_cover,
    "pradical": _check_pradical,
    "radical": _check_radical,
    "colon": _check_colon,
    "verify": _check_verify,
}


def check_report(module: ModuleSpec, query: dict, report: dict) -> list[str]:
    """Fields of an ``ok`` CLI report that disagree with the closed form."""
    bad: list[str] = []
    if report.get("status") != "ok" or report.get("command") != query["command"]:
        return ["status"]
    try:
        CHECKS[query["command"]](module, query, report["result"], bad)
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(f"malformed: {exc!r}")
    return bad


def check_axioms_report(fibers: int, report: dict) -> list[str]:
    bad = []
    if report["failures"] or not all(
        report[k] for k in ("identity_ok", "gluing_ok", "transitivity_ok", "homomorphism_ok")
    ):
        bad.append("ok")
    if report["opens"] != 2**fibers:
        bad.append("opens")
    if report["covers"] != sheaf_axiom_covers(fibers):
        bad.append("covers")
    if not 0 <= report["exhaustive_covers"] <= report["covers"]:
        bad.append("exhaustive_covers")
    return bad
