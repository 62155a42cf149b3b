"""Cold-state cache discovery, the tracer, and the benchmark's metric list."""

import contextlib
import io
import json
import random
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer as tracer_module
import workloads
from oracle import ModuleSpec
from tracer import Tracer, self_times_from_spans

import modspec
import modspec.fgmodules
import modspec.lattices
import modspec.verify
from modspec import FgModule, ZZ, cli, localization, sheaf, spectrum


def test_cache_scan_finds_the_lru_caches_and_clears_them():
    program = run.Program()
    found = {f.__wrapped__.__qualname__ for f in program.caches}
    assert found == {"spec_enumerate", "localize", "sections"}
    m = FgModule(ZZ, (6, 6))
    sheaf.psi_map(m, 1)
    assert spectrum.spec_enumerate.cache_info().currsize > 0
    program.clear_caches()
    assert all(f.cache_info().currsize == 0 for f in program.caches)
    assert localization.localize.cache_info().currsize == 0


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_parent_minus_children():
    tracer = Tracer()
    child = tracer.wrap(lambda: busy(0.01), "t.child")
    parent = tracer.wrap(lambda: (busy(0.01), child(), child()), "t.parent")
    parent()
    spans = {name: (sid, start, end) for sid, name, start, end, _ in tracer.spans}
    own = self_times_from_spans(tracer.spans)
    pid, pstart, pend = spans["t.parent"]
    child_total = sum(end - start for _, name, start, end, _ in tracer.spans if name == "t.child")
    assert own[pid] == pytest.approx((pend - pstart) - child_total)
    assert tracer.stats["t.parent"].own == pytest.approx(own[pid])
    assert tracer.stats["t.child"].calls == 2
    assert all(parent_id == pid for _, name, _, _, parent_id in tracer.spans if name == "t.child")


def test_span_limit_keeps_aggregates(monkeypatch):
    monkeypatch.setattr(tracer_module, "SPAN_LIMIT", 3)
    tracer = Tracer()
    f = tracer.wrap(lambda: None, "t.f")
    for _ in range(10):
        f()
    assert len(tracer.spans) == 3
    assert tracer.stats["t.f"].calls == 10


def test_rebinding_reaches_by_name_importers():
    original = modspec.lattices.hnf
    assert modspec.fgmodules.hnf is original
    tracer = Tracer()
    tracer.install(modspec, ("lattices.hnf", "fgmodules.FgModule.elements"))
    try:
        assert modspec.fgmodules.hnf is not original
        assert modspec.fgmodules.hnf is modspec.lattices.hnf
        m = FgModule(ZZ, (2, 12))
        modspec.fgmodules.submodule_from_lattice(m, [(1, 0)])
        assert tracer.stats["lattices.hnf"].calls == 1
        assert len(list(m.elements())) == 24
        assert tracer.stats["fgmodules.FgModule.elements"].yielded == 24
    finally:
        tracer.uninstall()
    assert modspec.fgmodules.hnf is original and modspec.lattices.hnf is original
    assert "elements" in vars(FgModule) and not hasattr(FgModule.elements, "__wrapped__")


def test_rebinding_reaches_functions_in_module_level_tuples():
    table = modspec.verify.ACCEPTANCE_CRITERIA
    tracer = Tracer()
    tracer.install(modspec, ("verify.check_stalks",))
    try:
        (fn,) = [fn for n, fn in modspec.verify.ACCEPTANCE_CRITERIA if n == "4"]
        assert fn is modspec.verify.check_stalks is not dict(table)["4"]
        fn([FgModule(ZZ, (6,))])
        assert tracer.suites == {"verify.check_stalks": "stalks"}
        assert tracer.counters["verify.stalks.checks"] > 0
    finally:
        tracer.uninstall()
    assert modspec.verify.ACCEPTANCE_CRITERIA is table


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_overhead_for_every_workload(workload, monkeypatch):
    # the last two operations keep the test short; sheaf-axioms skips Z/30
    original = run.Workload.__init__

    def short(self, *args):
        original(self, *args)
        self.ops = self.ops[-2:]

    monkeypatch.setattr(run.Workload, "__init__", short)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "3", "--trace", "1"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES[:2])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_an_operation_that_raises_counts_as_failed():
    class Raises:
        def call(self):
            raise ValueError("boom")

    class Fake:
        ops = [Raises()]

        def before_op(self):
            pass

    stats = run.run_rounds(Fake(), 2, 0)
    assert stats.attempted == stats.failed >= 2 and stats.answered == 0
    assert run.quantile(stats.latencies(), 0.5) == run.FAILED_LATENCY_MS


Z2_Z6_Z6 = ModuleSpec.build([{2: 1}, {2: 1, 3: 1}, {2: 1, 3: 1}])


def run_cli(query, tmp_path):
    workloads.write_queries([query], str(tmp_path))
    return run.QueryOp(query, SimpleNamespace(cli=cli)).call()


def test_a_rejected_cover_is_a_wrong_answer(tmp_path):
    # D(2) misses the fiber at 2 of D(1): modspec answers with a CoverError
    query = workloads.Query(Z2_Z6_Z6, "cover", ["--f", "1", "--hs", "2"], params={"f": 1, "hs": [2]})
    code, text = run_cli(query, tmp_path)
    assert code == 1 and "is not covered" in json.loads(text)["result"]["error"]
    with pytest.raises(run.WrongAnswer, match="exact cover rejected"):
        run.QueryOp(query, None).judge((code, text), run.RunStats(1))


def error_report(query, message):
    report = {"command": query.command, "status": "error", "result": {"error": message}}
    return 1, json.dumps(report)


def test_only_cap_and_bound_errors_are_refusals(tmp_path):
    query = workloads.q_spec(random.Random(1), Z2_Z6_Z6)
    stats = run.RunStats(1)
    judge = run.QueryOp(query, None).judge
    refusals = (
        "|M| = 1024 exceeds the enumeration cap 512",
        "|M| = 8192 exceeds the cardinality cap 4096",
        "8192 sections exceed the cardinality cap 4096",
        "trial division bound 10000000 exceeded while factoring 100000980001501",
    )
    for message in refusals:
        assert judge(error_report(query, message), stats)[0] == run.Outcome.REFUSED
    assert stats.failed == 0
    other = "6 escapes the radical of the covering colon ideals (2) within the bound"
    assert judge(error_report(query, other), stats)[0] == run.Outcome.FAILED
    assert stats.failed == 1


def test_schedule_spreads_the_repeats_of_short_operations():
    best = [0.5, 0.001, 0.004, 0.3, 0.015]
    order = run.schedule(best)
    assert [order.count(k) for k in range(5)] == [1, run.SLOTS, 5, 1, 1]
    # the repeats of a short operation span the round; the long ones are apart
    where = [i for i, k in enumerate(order) if k == 1]
    assert where[0] < len(order) / 4 and where[-1] > 3 * len(order) / 4
    assert abs(order.index(0) - order.index(3)) > 1
