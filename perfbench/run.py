"""Benchmark for modspec: four workloads, closed-form answer checks, and a
separate traced run for per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload queries-wide --seed 1 --seconds 55 --trace 0

``BENCHMARK.json`` lists the two query workloads; ``verify-corpus`` and
``sheaf-axioms`` run the same way, for traced runs and local profiling.
One process, one thread, one closed-loop client: each operation starts when
the previous one has returned.  The seed makes the inputs, which are
generated (and module files written) before timing starts.  An operation
is

* ``queries-wide`` / ``queries-deep``: one CLI query through
  ``modspec.cli.main`` in-process, every cache found in ``modspec`` cleared
  first, so each query starts cold as a fresh CLI process would;
* ``verify-corpus``: one verification suite on part of a seeded corpus
  sample, with caches warm within the run (a fresh process starts cold);
* ``sheaf-axioms``: one ``sheaf_axioms_check`` on one module, caches as for
  ``verify-corpus``.

A run repeats all of a workload's operations in rounds until ``--seconds``
have passed and at least ``MIN_ROUNDS`` rounds are done, and keeps each
operation's fastest time: on a shared machine that is the reading least
disturbed by other load.  Every answer is checked against a closed form
(``oracle.py``) and every round must repeat the first round's reports byte
for byte.  A wrong answer, a changed report or a violation (exit 2) stops
the run with ``"correct": false`` and exit code 1, and so does an error from
``cover``, whose covers are exact by construction.  A query refused for
exceeding a cardinality or enumeration cap or the trial-division bound
(``LIMIT_REFUSAL``) counts against ``answered_share`` and reads as +infinity
latency; any other error or an uncaught exception also counts in ``failed``.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` a round runs as warm-up, then untraced, then traced, and the
line holds the per-layer metrics.  The line before it is ``report_digest
<workload> <sha256>``, a hash of the first round's reports, which repeats
exactly for a given commit and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from tracer import LAYERS, Stat, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3  # imports per set-up sample; the fastest is kept
# stand-in for the +infinity latency of a refused or failed query
FAILED_LATENCY_MS = 1e9
# the error texts of CapExceededError and FactorBoundExceeded
LIMIT_REFUSAL = re.compile(
    r" exceeds? the (cardinality|enumeration) cap \d+$"
    r"|^trial division bound \d+ exceeded while factoring \d+$"
)

MIN_ROUNDS = 3
SHORT_OP_SECONDS = 0.02
SLOTS = 6  # an operation runs at most once per slot, so at most SLOTS times a round
VERIFY_SHARE = 3  # one corpus module in three
VERIFY_CHUNKS = 5
FIXED_DRAW_SUITES = {
    "check_radical_sum_identity",
    "check_prufer_controls",
    "check_direct_sums",
    "check_cover_decomposition",
}
# orders of the two-fiber corpus modules checked next to Z/30; every module
# of order 54 (the median operation) or 162 (p90) costs about the same
SHEAF_ORDERS = (12, 18, 24, 36, 54, 72, 108, 144, 162)

# the suites that queries-wide's verify queries run with checks; the other
# two make none on a module file: artinian-pradical checks only modules
# over Z/n, on which "verify --suite all" fails (see README), and
# prufer-controls only Pruefer modules
SUITE_NAMES = (
    "strategy-oracle",
    "prime-radical-oracle",
    "stalks",
    "sections",
    "iso-criterion",
    "radical-sum-identity",
    "prime-correspondence",
    "direct-sums",
    "localization-oracle",
    "cover-decomposition",
    "sheaf-axioms",
    "localization-transfer",
    "primeful",
)

END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("pass_s", "s"),
    ("answered_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _per_layer_names() -> tuple[tuple[str, str], ...]:
    def calls_s(*names):
        return [(f"{n}.calls", "count") for n in names] + [(f"{n}.s", "s") for n in names]

    out = [
        ("cli.main.self_s", "s"),
        ("cli.load_module_file.s", "s"),
        ("cli.jsonable.s", "s"),
        ("cli.report_bytes", "bytes"),
        ("arith.factorize.calls", "count"),
        ("arith.factorize.s", "s"),
        ("arith.factorize.failed", "count"),
        ("arith.factorize.distinct_ratio", "ratio"),
        ("arith.is_prime.calls", "count"),
        *calls_s(
            "lattices.hnf",
            "lattices.smith_column_orders",
            "lattices.lattice_intersection",
            "lattices.lattice_contains",
        ),
        *calls_s("fgmodules.submodule_from_lattice", "fgmodules.colon", "fgmodules.direct_sum"),
        ("fgmodules.all_submodules.yielded", "count"),
        ("fgmodules.all_submodules.s", "s"),
        ("fgmodules.FgModule.elements.yielded", "count"),
        ("fgmodules.cap_errors", "count"),
        ("spectrum.spec_enumerate.calls", "count"),
        ("spectrum.spec_enumerate.hit_ratio", "ratio"),
        ("spectrum.spec_enumerate.s", "s"),
        ("spectrum.points_built", "count"),
        ("spectrum.points_reported", "count"),
        ("spectrum.useful_point_ratio", "ratio"),
        *calls_s("spectrum.is_prime_submodule", "spectrum.prime_radical"),
        ("spectrum.basic_open.calls", "count"),
        ("localization.localize.calls", "count"),
        ("localization.localize.hit_ratio", "ratio"),
        ("localization.localize.s", "s"),
        ("localization.prime_correspondence.s", "s"),
        ("localization.localize_bruteforce.s", "s"),
        ("localization.verify_localization_transfer.s", "s"),
        ("sheaf.sheaf_axioms_check.self_s", "s"),
        ("sheaf.restrict.calls", "count"),
        ("sheaf.restrict.s", "s"),
        ("sheaf.Section.created", "count"),
        ("sheaf.sections.calls", "count"),
        ("sheaf.sections.hit_ratio", "ratio"),
        ("sheaf.psi_map.calls", "count"),
        ("sheaf.psi_map.s", "s"),
        ("sheaf.stalk.s", "s"),
        ("sheaf.cover_decompose.s", "s"),
    ]
    for suite in SUITE_NAMES:
        out += [(f"verify.{suite}.s", "s"), (f"verify.{suite}.checks", "count")]
    for layer in LAYERS:
        out += [(f"layer.{layer}.self_s", "s"), (f"layer.{layer}.self_share", "ratio")]
    out.append(("trace.overhead_ratio", "ratio"))
    return tuple(out)


PER_LAYER = _per_layer_names()

# functions the traced run wraps: the per-layer table's functions plus the
# verification suites
TRACED = (
    "cli.main", "cli.load_module_file", "cli.jsonable",
    "arith.factorize", "arith.is_prime",
    "lattices.hnf", "lattices.smith_column_orders", "lattices.lattice_intersection",
    "lattices.lattice_contains",
    "fgmodules.submodule_from_lattice", "fgmodules.colon", "fgmodules.direct_sum",
    "fgmodules.all_submodules", "fgmodules.FgModule.elements",
    "spectrum.spec_enumerate", "spectrum.is_prime_submodule", "spectrum.prime_radical",
    "spectrum.basic_open",
    "localization.localize", "localization.prime_correspondence",
    "localization.localize_bruteforce", "localization.verify_localization_transfer",
    "sheaf.sheaf_axioms_check", "sheaf.restrict", "sheaf.Section.__init__", "sheaf.sections",
    "sheaf.psi_map", "sheaf.stalk", "sheaf.cover_decompose",
    "verify.check_artinian_pradical", "verify.check_strategy_agreement",
    "verify.check_prime_radical_oracle", "verify.check_stalks",
    "verify.check_sections_match_localizations", "verify.check_iso_criterion",
    "verify.check_prufer_controls", "verify.check_radical_sum_identity",
    "verify.check_prime_correspondence", "verify.check_direct_sums",
    "verify.check_localization_oracle", "verify.check_cover_decomposition",
    "verify.check_sheaf_axioms", "verify.check_transfer_reports", "verify.check_primeful",
)


class WrongAnswer(Exception):
    """A report disagrees with its closed form, or a property was violated."""


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

class Outcome:
    ANSWERED, REFUSED, FAILED = "answered", "refused", "failed"


class QueryOp:
    """One CLI query, in-process, from a cold cache state."""

    def __init__(self, query: workloads.Query, env):
        self.query = query
        self.env = env

    def call(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.env.cli.main(self.query.argv())
        return code, out.getvalue()

    def judge(self, raw, stats):
        code, text = raw
        report = json.loads(text)
        if code == 0:
            bad = oracle.check_report(self.query.module, self.query.expect(), report)
            if bad:
                raise WrongAnswer(f"{self.query.argv()} on {self.query.module.ints}: {bad}")
            if self.query.command == "spec" and stats.round == 0:
                stats.points_reported += report["result"]["point_count"]
            return Outcome.ANSWERED, text.encode()
        if code == 1 and report.get("status") == "error":
            message = report["result"]["error"]
            if LIMIT_REFUSAL.search(message):
                return Outcome.REFUSED, text.encode()
            if self.query.command == "cover":
                raise WrongAnswer(f"exact cover rejected on {self.query.module.ints}: {message}")
            stats.note_exception(message)
            return Outcome.FAILED, text.encode()
        raise WrongAnswer(f"{self.query.argv()} exited {code}: {text[:300]}")


class SuiteOp:
    """One verification suite on a list of corpus modules."""

    def __init__(self, fn, modules, env):
        self.fn, self.modules, self.env = fn, modules, env

    def call(self):
        # looked up at call time so a traced run reaches the traced binding
        return getattr(self.env.verify, self.fn.__name__)(self.modules)

    def judge(self, result, stats):
        if result.failures:
            raise WrongAnswer(f"suite {result.suite}: {list(result.failures[:3])}")
        body = [result.suite, result.description, result.checks, list(result.failures)]
        return Outcome.ANSWERED, json.dumps(body).encode()


class AxiomsOp:
    """One exhaustive sheaf-axiom check."""

    def __init__(self, module, env):
        self.module, self.env = module, env
        self.fibers = len(workloads.fac(module.factors[-1]))

    def call(self):
        return self.env.sheaf.sheaf_axioms_check(self.module)

    def judge(self, report, stats):
        fields = {
            k: getattr(report, k)
            for k in (
                "opens", "covers", "exhaustive_covers", "identity_ok",
                "gluing_ok", "transitivity_ok", "homomorphism_ok",
            )
        }
        fields["failures"] = list(report.failures)
        bad = oracle.check_axioms_report(self.fibers, fields)
        if bad:
            raise WrongAnswer(f"sheaf axioms on {self.module}: {bad}")
        fields["module"] = str(self.module)
        return Outcome.ANSWERED, json.dumps(fields, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

def find_caches(package) -> list:
    """Every callable with ``cache_clear`` bound at module level in the package."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == package.__name__ or name.startswith(package.__name__ + ".")):
            continue
        for obj in vars(module).values():
            if callable(obj) and callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return sorted(found.values(), key=lambda f: (f.__module__, f.__qualname__))


class Program:
    """The imported package plus the caches a cold start must not see."""

    def __init__(self):
        import modspec
        import modspec.cli
        import modspec.corpus
        import modspec.sheaf
        import modspec.verify

        self.package = modspec
        self.cli = modspec.cli
        self.corpus = modspec.corpus
        self.sheaf = modspec.sheaf
        self.verify = modspec.verify
        self.caches = find_caches(modspec)

    def clear_caches(self):
        for cache in self.caches:
            cache.cache_clear()


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing modspec and its CLI: the
    fastest of SETUP_REPEATS, as the operations keep their fastest time.  A
    timed run takes a sample before its first round and after each round,
    so the samples spread over the run, and reports their median."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import modspec, modspec.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return min(times)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """The operations of one run, generated once and then repeated in rounds."""

    def __init__(self, name: str, seed: int, env: Program, workdir: Path):
        self.env = env
        rng = random.Random(seed)
        self.cold_ops = name in workloads.QUERY_SETS
        if name == "verify-corpus":
            sample = workloads.verify_sample(rng, env.corpus.full_corpus(), VERIFY_SHARE)
            suites = [fn for n, fn in env.verify.ACCEPTANCE_CRITERIA if n != "13"]
            suites += [env.verify.check_transfer_reports, env.verify.check_primeful]
            # suites that walk the module list run on chunks of the sample;
            # the others make a fixed number of draws with their own seed,
            # so they run once on the whole corpus and do the same work in
            # every run
            chunks = workloads.chunks_by_order(sample, VERIFY_CHUNKS)
            corpus = list(env.corpus.full_corpus())
            self.ops = [
                SuiteOp(fn, part, env)
                for fn in suites
                for part in ([corpus] if fn.__name__ in FIXED_DRAW_SUITES else chunks)
            ]
        elif name == "sheaf-axioms":
            sample = workloads.sheaf_sample(rng, env.corpus.full_corpus(), SHEAF_ORDERS)
            z30 = env.package.FgModule(env.package.ZZ, (30,))
            self.ops = [AxiomsOp(m, env) for m in [z30] + sample]
        else:
            queries = workloads.QUERY_SETS[name](rng)
            workloads.write_queries(queries, str(workdir))
            self.ops = [QueryOp(q, env) for q in queries]

    def before_op(self):
        if self.cold_ops:
            self.env.clear_caches()


class RunStats:
    def __init__(self, n_ops: int):
        self.best = [math.inf] * n_ops  # fastest time of each operation
        self.outcomes: list[str] = []
        self.hashes: list[bytes] = []
        self.round = 0
        self.attempted = self.failed = 0
        self.points_reported = 0
        self.report_bytes = 0
        self.digest = hashlib.sha256()
        self.exceptions: list[str] = []

    def note_exception(self, exc) -> None:
        self.failed += 1
        if len(self.exceptions) < 3:
            self.exceptions.append(
                "".join(traceback.format_exception(exc)) if isinstance(exc, BaseException) else str(exc)
            )

    @property
    def answered(self) -> int:
        return self.outcomes.count(Outcome.ANSWERED)

    def latencies(self) -> list[float]:
        return [t if o == Outcome.ANSWERED else math.inf for t, o in zip(self.best, self.outcomes)]


def schedule(best: list[float]) -> list[int]:
    """The order of operations in one round after the first.  An operation
    shorter than SHORT_OP_SECONDS runs up to SLOTS times, once in each of
    evenly spaced slots, so its readings spread over the round instead of
    coming back to back; the fastest of many readings is taken where
    readings are cheap.  Operation k starts in slot k, so the long
    operations spread over the slots too."""
    slots: list[list[int]] = [[] for _ in range(SLOTS)]
    for k, t in enumerate(best):
        reps = min(SLOTS, max(1, int(SHORT_OP_SECONDS / t)))
        for j in range(reps):
            slots[(k + j * SLOTS // reps) % SLOTS].append(k)
    return [k for slot in slots for k in slot]


def run_rounds(workload: Workload, min_rounds: int, seconds: float,
               tracer: Tracer | None = None, after_round=None) -> RunStats:
    """Repeat every operation in rounds until ``seconds`` have passed and
    ``min_rounds`` are done; keep each operation's fastest time.  The first
    round runs each operation once, in order; later rounds follow
    ``schedule``.  The first report of each operation is checked and hashed;
    every later one must repeat it byte for byte.  ``after_round``, if
    given, is called after each round."""
    ops = workload.ops
    stats = RunStats(len(ops))
    order = list(range(len(ops)))
    start = perf_counter()
    while stats.round < min_rounds or perf_counter() - start < seconds:
        gc.collect()
        for k in order:
            op = ops[k]
            workload.before_op()
            t0 = perf_counter()
            try:
                raw = op.call()
            except Exception as exc:  # the operation's boundary: counted as failed
                raw = exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end_query()
            if isinstance(raw, Exception):
                stats.note_exception(raw)
                outcome, report = Outcome.FAILED, repr(raw).encode()
            else:
                outcome, report = op.judge(raw, stats)
            stats.attempted += 1
            stats.best[k] = min(stats.best[k], dt)
            h = hashlib.sha256(report).digest()
            if k == len(stats.hashes):
                stats.outcomes.append(outcome)
                stats.hashes.append(h)
                stats.report_bytes += len(report)
                stats.digest.update(h)
            elif h != stats.hashes[k]:
                raise WrongAnswer(f"operation {k} gave a different report in round {stats.round}")
        if stats.round == 0:
            order = schedule(stats.best)
        stats.round += 1
        if after_round is not None:
            after_round()
    return stats


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile in ms; a refused or failed query reads as
    +infinity, reported as FAILED_LATENCY_MS."""
    ordered = sorted(values)
    x = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
    return 1000 * x if math.isfinite(x) else FAILED_LATENCY_MS


def end_to_end(stats: RunStats, setup_s: float) -> dict[str, float]:
    pass_s = sum(stats.best)
    return {
        "setup_s": setup_s,
        "query_p50_ms": quantile(stats.latencies(), 0.5),
        "query_p90_ms": quantile(stats.latencies(), 0.9),
        "queries_per_s": stats.answered / pass_s,
        "pass_s": pass_s,
        "answered_share": stats.answered / len(stats.outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced: RunStats, untraced: RunStats) -> dict[str, float]:
    out: dict[str, float] = {}

    def get(name: str) -> Stat:
        return tracer.stats.get(name) or Stat()

    def ratio(a, b):
        return a / b if b else 0.0

    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = get(base).calls
        elif field in ("s", "self_s") and base in tracer.stats:
            out[name] = tracer.stats[base].own
    factorize = get("arith.factorize")
    out["arith.factorize.failed"] = factorize.failed
    out["arith.factorize.distinct_ratio"] = ratio(tracer.distinct.get("arith.factorize", 0), factorize.calls)
    for name in ("spectrum.spec_enumerate", "localization.localize", "sheaf.sections"):
        cached = get(name)
        out[f"{name}.hit_ratio"] = ratio(cached.hits, cached.hits + cached.misses)
    out["fgmodules.all_submodules.yielded"] = get("fgmodules.all_submodules").yielded
    out["fgmodules.FgModule.elements.yielded"] = get("fgmodules.FgModule.elements").yielded
    out["fgmodules.cap_errors"] = tracer.counters.get("fgmodules.cap_errors", 0)
    out["sheaf.Section.created"] = get("sheaf.Section.__init__").calls
    out["cli.report_bytes"] = traced.report_bytes
    built = tracer.counters.get("spectrum.points_built", 0)
    out["spectrum.points_built"] = built
    out["spectrum.points_reported"] = traced.points_reported
    out["spectrum.useful_point_ratio"] = ratio(traced.points_reported, built)
    for fn_name, suite in tracer.suites.items():
        out[f"verify.{suite}.s"] = tracer.stats[fn_name].own
        out[f"verify.{suite}.checks"] = tracer.counters[f"verify.{suite}.checks"]
    layer_self = tracer.layer_self()
    total = sum(layer_self.values())
    for layer, seconds in layer_self.items():
        out[f"layer.{layer}.self_s"] = seconds
        out[f"layer.{layer}.self_share"] = ratio(seconds, total)
    out["trace.overhead_ratio"] = sum(traced.best) / sum(untraced.best)
    return {name: out.get(name, 0) for name, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

WORKLOAD_NAMES = ("queries-wide", "queries-deep", "verify-corpus", "sheaf-axioms")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(correct: bool, stats: RunStats | None, metrics: dict, units: dict) -> None:
    result = {
        "correct": correct,
        "attempted": stats.attempted if stats else 0,
        "failed": stats.failed if stats else 0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modspec" / "__init__.py").is_file():
        print(f"error: no modspec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("MODSPEC_CARD_CAP", None)  # the CLI reads it; inputs come from the seed only

    env = Program()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = Workload(args.workload, args.seed, env, workdir)
    stats = None
    try:
        if not args.trace:
            setup = [setup_sample()]
            stats = run_rounds(workload, MIN_ROUNDS, args.seconds,
                               after_round=lambda: setup.append(setup_sample()))
            metrics, units = end_to_end(stats, statistics.median(setup)), dict(END_TO_END)
        else:
            run_rounds(workload, 1, 0)  # the first round of a timed run is a warm-up too
            untraced = run_rounds(workload, 1, 0)
            tracer = Tracer()
            tracer.install(env.package, TRACED)
            try:
                stats = run_rounds(workload, 1, 0, tracer)
            finally:
                tracer.uninstall()
            if stats.digest.digest() != untraced.digest.digest():
                raise WrongAnswer("tracing changed a report")
            metrics, units = per_layer(tracer, stats, untraced), dict(PER_LAYER)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        emit(False, stats, {}, {})
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for text in stats.exceptions:
        print(f"failed operation:\n{text}", file=sys.stderr)
    print(f"report_digest {args.workload} {stats.digest.hexdigest()}")
    emit(True, stats, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
