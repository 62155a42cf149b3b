"""Criterion 8 read off per-scope tables, against the per-triple check, on
the corpus and on given modules; criterion 7's module list and count; and
the refusals of a single suite."""

import importlib
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from modspec import verify
from modspec.arith import ZZ, Ideal, Zmod, ideal, ideal_combine, ideal_radical
from modspec.cli import main
from modspec.fgmodules import CapExceededError, FgModule, UnsupportedModuleError, prufer_module
from modspec.verify import check_prufer_controls, check_radical_sum_identity, run_suite

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def per_triple_failures(ring, gens, combine=ideal_combine, radical=ideal_radical):
    """Criterion 8 on every triple of the ideals (d), d in ``gens``, of
    ``ring``, computed triple by triple."""
    failures = []
    checks = 0
    ideals = [ideal(ring, d) for d in gens]
    for i in ideals:
        for j in ideals:
            for k in ideals:
                checks += 1
                lhs = radical(combine("intersect", combine("sum", i, j), combine("sum", i, k)))
                rhs = radical(combine("sum", i, combine("intersect", j, k)))
                if lhs != rhs:
                    failures.append(f"{ring}: I={i.gen} J={j.gen} K={k.gen}")
    return checks, failures


def corpus_failures(max_modulus, **ops):
    """The Z/n part of criterion 8 on the corpus, triple by triple."""
    checks, failures = 0, []
    for n in range(2, max_modulus + 1):
        c, f = per_triple_failures(Zmod(n), divisors(n), **ops)
        checks += c
        failures += f
    return checks, failures


def wrong_intersection(op, a, b):
    # (2) cap (3) answered as (1), a divisor ideal, in one order only
    if op == "intersect" and (a.gen, b.gen) == (2, 3):
        return ideal(a.ring, 1)
    return ideal_combine(op, a, b)


def test_tables_match_the_per_triple_check(monkeypatch):
    result = check_radical_sum_identity()
    assert result.checks == 11_058 and result.ok
    monkeypatch.setattr(verify, "RANDOMIZED_TRIPLES", 0)
    tabled = check_radical_sum_identity()
    assert (tabled.checks, list(tabled.failures)) == corpus_failures(60)


def test_a_wrong_intersection_gives_the_per_triple_failures(monkeypatch):
    monkeypatch.setattr(verify, "ideal_combine", wrong_intersection)
    monkeypatch.setattr(verify, "RANDOMIZED_TRIPLES", 0)
    monkeypatch.setattr(verify, "MAX_MODULUS", 24)
    tabled = check_radical_sum_identity()
    checks, failures = corpus_failures(24, combine=wrong_intersection)
    assert failures
    assert (tabled.checks, list(tabled.failures)) == (checks, failures)


def test_a_result_outside_the_divisor_ideals_is_a_failure(monkeypatch):
    def off_list(op, a, b):
        if op == "sum" and (a.gen, b.gen) == (2, 3):
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
    # on Z/6 over Z the result leaves the ideals over Ann(M) = (6)
    result = check_radical_sum_identity([FgModule(ZZ, (6,))])
    assert "Z: sum(2, 3) = (5) of Z, not an ideal over (6)" in result.failures


# ---------------------------------------------------------------------------
# on given modules: the ideals over Ann(M)
# ---------------------------------------------------------------------------

@st.composite
def finite_modules(draw):
    """A finite module, the zero module included, over Z or over Z/n with n
    a small multiple of its exponent."""
    factors = []
    if draw(st.booleans()):
        factors = [draw(st.integers(2, 60))]
        while len(factors) < 3 and draw(st.booleans()):
            factors.append(factors[-1] * draw(st.integers(1, 3)))
    if draw(st.booleans()):
        return FgModule(ZZ, tuple(factors))
    e = factors[-1] if factors else 1
    return FgModule(Zmod(e * draw(st.integers(2 if e == 1 else 1, 3))), tuple(factors))


@settings(max_examples=60, deadline=None)
@given(finite_modules(), st.sampled_from([ideal_combine, wrong_intersection]))
def test_a_module_checks_the_triples_over_its_annihilator(module, combine):
    with mock.patch.object(verify, "ideal_combine", combine):
        result = check_radical_sum_identity([module])
    expected = per_triple_failures(module.ring, divisors(module.exponent), combine=combine)
    assert (result.checks, list(result.failures)) == expected
    assert result.checks == len(divisors(module.exponent)) ** 3


def test_the_zero_module_checks_the_unit_ideal_once():
    for ring in (ZZ, Zmod(4)):
        result = check_radical_sum_identity([FgModule(ring, ())])
        assert (result.checks, result.failures) == (1, ())


def test_the_pruefer_group_checks_the_seeded_triples_over_z():
    result = check_radical_sum_identity([prufer_module(3)])
    assert result.checks == verify.RANDOMIZED_TRIPLES and result.ok
    # each distinct ring and annihilator is checked once
    mixed = check_radical_sum_identity([FgModule(ZZ, (12,)), prufer_module(3), FgModule(ZZ, (12,))])
    assert mixed.checks == 6**3 + verify.RANDOMIZED_TRIPLES and mixed.ok


def test_a_wrong_intersection_on_a_z6_file_is_a_violation(tmp_path, capsys, monkeypatch):
    path = tmp_path / "z6.json"
    path.write_text(json.dumps({
        "ring": {"kind": "Z"},
        "module": {"kind": "invariant_factors", "factors": [6], "free_rank": 0},
    }))
    monkeypatch.setattr(verify, "ideal_combine", wrong_intersection)
    code = main(["--quiet", "verify", str(path), "--suite", "2.1"])
    report = json.loads(capsys.readouterr().out)
    (suite,) = report["result"]["suites"]
    checks, failures = per_triple_failures(ZZ, [1, 2, 3, 6], combine=wrong_intersection)
    assert code == 2 and report["status"] == "violation" and failures
    assert (suite["checks"], suite["failures"]) == (checks, failures)


@pytest.fixture
def limit_refusal(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run").LIMIT_REFUSAL


@pytest.mark.parametrize("ring", [ZZ, Zmod(223092870)], ids=str)
def test_too_many_triples_refuse_before_any_table(monkeypatch, limit_refusal, ring):
    # 2*3*5*7*11*13*17*19*23 has 2^9 divisors: 512^3 triples
    e = 223092870
    combined = []
    monkeypatch.setattr(verify, "ideal_combine", lambda *a: combined.append(a))
    monkeypatch.setattr(verify, "ideal_radical", lambda *a: combined.append(a))
    with pytest.raises(CapExceededError) as exc:
        check_radical_sum_identity([FgModule(ring, (e,))])
    text = str(exc.value)
    assert text == (
        f"the ideal triples over Ann(M) = ({e}), d(e)^3 = {512**3} "
        f"exceeds the enumeration cap {verify.MAX_IDEAL_TRIPLES}"
    )
    assert limit_refusal.search(text) and not combined


def test_the_cap_admits_d_e_cubed_up_to_it(monkeypatch):
    # 30030 = 2*3*5*7*11*13 has 64 divisors: exactly 2^18 triples
    monkeypatch.setattr(verify, "MAX_IDEAL_TRIPLES", 64**3 - 1)
    with pytest.raises(CapExceededError):
        check_radical_sum_identity([FgModule(ZZ, (30030,))])
    monkeypatch.setattr(verify, "MAX_IDEAL_TRIPLES", 64**3)
    result = check_radical_sum_identity([FgModule(ZZ, (30030,))])
    assert result.checks == 64**3 and result.ok


# ---------------------------------------------------------------------------
# criterion 7 reads its modules as every other suite does
# ---------------------------------------------------------------------------

def test_criterion_7_makes_four_checks_per_pruefer_group():
    # empty spectrum, certificate, global sections and natural map on each
    # of the corpus's three Pruefer groups
    corpus = check_prufer_controls()
    assert corpus.checks == 12 and corpus.ok
    one = check_prufer_controls([prufer_module(5)])
    assert one.checks == 4 and one.ok
    assert check_prufer_controls([FgModule(ZZ, (6,))]).checks == 0


def test_criterion_7_refuses_a_module_with_free_rank():
    with pytest.raises(UnsupportedModuleError, match="has free rank 1"):
        check_prufer_controls([FgModule(ZZ, (), 1)])


# ---------------------------------------------------------------------------
# a single suite that checks nothing refuses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, module, reason", [
    ("sheaf-axioms", FgModule(ZZ, (2310,)),
     "it checks modules with at most 4 fibers, and Z/2310 over Z has 5"),
    ("3.1", FgModule(ZZ, ()),
     "it checks the points of Spec(M), and 0 over Z is the zero module, which has none"),
    ("3.1", prufer_module(3), "it checks finite modules, and Z(3^oo) is the Pruefer group"),
    ("2.3", prufer_module(3), "it checks finite modules, and Z(3^oo) is the Pruefer group"),
], ids=["sheaf-axioms-5-fibers", "stalks-zero", "stalks-pruefer", "direct-sums-pruefer"])
def test_a_single_suite_that_checks_nothing_refuses(name, module, reason):
    with pytest.raises(UnsupportedModuleError) as exc:
        run_suite(name, [module])
    assert str(exc.value) == f"suite {name} checks nothing: {reason}"


def test_under_all_a_suite_that_checks_nothing_reports_zero():
    results = {r.suite: r for r in run_suite("all", [FgModule(ZZ, ())])}
    assert results["stalks"].checks == 0 and results["stalks"].ok
    assert results["radical-sum-identity"].checks == 1


@pytest.mark.parametrize("name, factors", [("4.1", (6, 6, 6)), ("sheaf-axioms", (6, 6))])
@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=str)
def test_the_benchmark_single_suites_check_their_modules(name, factors, ring):
    (result,) = run_suite(name, [FgModule(ring, factors)])
    assert result.checks >= 1 and result.ok


def test_the_refusal_reaches_the_cli(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({
        "ring": {"kind": "Z"},
        "module": {"kind": "invariant_factors", "factors": [], "free_rank": 0},
    }))
    code = main(["--quiet", "verify", str(path), "--suite", "3.1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"].startswith("suite 3.1 checks nothing: ")

