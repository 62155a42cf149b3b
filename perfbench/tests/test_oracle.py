"""The correctness gate accepts modspec's reports and rejects tampered ones."""

import contextlib
import copy
import io
import json
import random

import pytest

import oracle
import workloads
from modspec import cli

from oracle import ModuleSpec


def run_query(query, tmp_path):
    workloads.write_queries([query], str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(query.argv()) == 0
    return json.loads(out.getvalue())


def z2_squared_plus_z6():
    # Z/2 + Z/6 + Z/6 over Z: s_2 = 3, s_3 = 2
    return ModuleSpec.build([{2: 1}, {2: 1, 3: 1}, {2: 1, 3: 1}])


def test_closed_forms():
    assert [oracle.gaussian_binomial(3, k, 2) for k in range(4)] == [1, 7, 7, 1]
    assert oracle.fiber_point_indices(2, 5) == {25: 1, 5: 6}
    assert [oracle.sheaf_axiom_covers(k) for k in range(4)] == [1, 2, 8, 128]
    assert oracle.rank_mod_p([[1, 2], [2, 4]], 3) == 1


@pytest.mark.parametrize("build", sorted(workloads.BUILDERS))
def test_every_command_passes_the_gate(build, tmp_path):
    rng = random.Random(7)
    m = z2_squared_plus_z6()
    query = workloads.BUILDERS[build](rng, m)
    report = run_query(query, tmp_path)
    assert oracle.check_report(m, query.expect(), report) == []


def test_point_count_off_by_one_is_rejected(tmp_path):
    m = z2_squared_plus_z6()
    query = workloads.q_spec(random.Random(1), m, "classified")
    report = run_query(query, tmp_path)
    assert report["result"]["point_count"] == (1 + 7 + 7) + (1 + 4)
    tampered = copy.deepcopy(report)
    tampered["result"]["point_count"] += 1
    assert oracle.check_report(m, query.expect(), tampered) == ["point_count"]
    tampered = copy.deepcopy(report)
    tampered["result"]["fibers"]["3"].pop()
    assert "fibers.3" in oracle.check_report(m, query.expect(), tampered)


def test_wrong_section_cardinality_is_rejected(tmp_path):
    m = z2_squared_plus_z6()
    query = workloads.q_sheaf(random.Random(1), m, kill=[2])
    report = run_query(query, tmp_path)
    assert report["result"]["section_space"]["cardinality"] == 9
    tampered = copy.deepcopy(report)
    tampered["result"]["section_space"]["cardinality"] = 18
    assert oracle.check_report(m, query.expect(), tampered) == ["section_space.cardinality"]


def test_error_report_is_not_an_answer():
    m = z2_squared_plus_z6()
    report = {"command": "spec", "status": "error", "result": {"error": "x"}}
    assert oracle.check_report(m, {"command": "spec"}, report) == ["status"]


def test_axioms_report_gate():
    good = {
        "opens": 8, "covers": 128, "exhaustive_covers": 117, "identity_ok": True,
        "gluing_ok": True, "transitivity_ok": True, "homomorphism_ok": True, "failures": [],
    }
    assert oracle.check_axioms_report(3, good) == []
    assert oracle.check_axioms_report(3, dict(good, covers=127)) == ["covers"]
    assert oracle.check_axioms_report(3, dict(good, gluing_ok=False)) == ["ok"]
