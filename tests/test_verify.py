"""Criterion 8 read off per-ring tables, against the per-triple check."""

from modspec import verify
from modspec.arith import Ideal, Zmod, ideal, ideal_combine, ideal_radical
from modspec.verify import check_radical_sum_identity


def per_triple_failures(max_modulus, combine=ideal_combine, radical=ideal_radical):
    """The Z/n part of criterion 8 computed triple by triple."""
    failures = []
    checks = 0
    for n in range(2, max_modulus + 1):
        ring = Zmod(n)
        ideals = [ideal(ring, d) for d in range(1, n + 1) if n % d == 0]
        for i in ideals:
            for j in ideals:
                for k in ideals:
                    checks += 1
                    lhs = radical(combine("intersect", combine("sum", i, j), combine("sum", i, k)))
                    rhs = radical(combine("sum", i, combine("intersect", j, k)))
                    if lhs != rhs:
                        failures.append(f"Z/{n}: I={i.gen} J={j.gen} K={k.gen}")
    return checks, failures


def test_tables_match_the_per_triple_check(monkeypatch):
    result = check_radical_sum_identity()
    assert result.checks == 11_058 and result.ok
    monkeypatch.setattr(verify, "RANDOMIZED_TRIPLES", 0)
    tabled = check_radical_sum_identity()
    assert (tabled.checks, list(tabled.failures)) == per_triple_failures(60)


def test_a_wrong_intersection_gives_the_per_triple_failures(monkeypatch):
    # (2) cap (3) answered as (1), a divisor ideal, in one order only
    def wrong(op, a, b):
        if op == "intersect" and (a.gen, b.gen) == (2, 3):
            return ideal(a.ring, 1)
        return ideal_combine(op, a, b)

    monkeypatch.setattr(verify, "ideal_combine", wrong)
    monkeypatch.setattr(verify, "RANDOMIZED_TRIPLES", 0)
    monkeypatch.setattr(verify, "MAX_MODULUS", 24)
    tabled = check_radical_sum_identity()
    checks, failures = per_triple_failures(24, combine=wrong)
    assert failures
    assert (tabled.checks, list(tabled.failures)) == (checks, failures)


def test_a_result_outside_the_divisor_ideals_is_a_failure(monkeypatch):
    def off_list(op, a, b):
        if op == "sum" and a.ring == Zmod(6) and (a.gen, b.gen) == (2, 3):
            return Ideal(a.ring, 5)
        return ideal_combine(op, a, b)

    monkeypatch.setattr(verify, "ideal_combine", off_list)
    monkeypatch.setattr(verify, "RANDOMIZED_TRIPLES", 0)
    monkeypatch.setattr(verify, "MAX_MODULUS", 6)
    result = check_radical_sum_identity()
    assert result.checks == 2**3 + 2**3 + 3**3 + 2**3 + 4**3
    assert "Z/6: sum(2, 3) = (5) of Z/6, not a divisor ideal of the ring" in result.failures
    # I = 2, J = 3 needs the sum (2) + (3) on the left-hand side
    assert "Z/6: I=2 J=3 K=1" in result.failures
    assert not any(f.startswith(("Z/2", "Z/3", "Z/4", "Z/5")) for f in result.failures)
