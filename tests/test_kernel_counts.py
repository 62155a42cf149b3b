"""How many HNF, Smith-form, lattice-intersection and factorization calls,
fiber builds and brute-force oracle calls a cold CLI query makes.  The
counts are exact and timer-free: each function is wrapped at every binding
in ``modspec`` and every cache is cleared before the query, as a fresh
process would start."""

import json
import sys

import pytest

import modspec
import modspec.cli
from modspec import arith, lattices, localization, spectrum
from modspec.fgmodules import FgModule
from test_cli import mixed_argvs

KERNELS = ("hnf", "smith_column_orders", "lattice_intersection")
ORIGINALS = {kernel: getattr(lattices, kernel) for kernel in KERNELS}


def modspec_modules():
    prefix = modspec.__name__ + "."
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == modspec.__name__ or name.startswith(prefix))
    ]


def rebind(monkeypatch, real, replacement):
    """Replace ``real`` at every binding in ``modspec``."""
    bound = 0
    for mod in modspec_modules():
        for name, obj in list(vars(mod).items()):
            if obj is real:
                monkeypatch.setattr(mod, name, replacement)
                bound += 1
    assert bound >= 1


def count_calls(monkeypatch, originals):
    counts = dict.fromkeys(originals, 0)
    for kernel, real in originals.items():

        def counting(*args, _real=real, _kernel=kernel):
            counts[_kernel] += 1
            return _real(*args)

        rebind(monkeypatch, real, counting)
    return counts


@pytest.fixture
def kernel_calls(monkeypatch):
    return count_calls(monkeypatch, ORIGINALS)


@pytest.fixture
def factorize_calls(monkeypatch):
    return count_calls(monkeypatch, {"factorize": arith.factorize})


def clear_caches():
    for mod in modspec_modules():
        for obj in vars(mod).values():
            if callable(obj) and callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def module_file(tmp_path, factors):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {
                "ring": {"kind": "Z"},
                "module": {"kind": "invariant_factors", "factors": list(factors), "free_rank": 0},
            }
        )
    )
    return str(path)


def cold_run(tmp_path, capsys, counts, factors, argv, options=()):
    """Exit code, counts and report of one CLI call with every cache cold;
    ``options`` go before the command."""
    path = module_file(tmp_path, factors)
    clear_caches()
    counts.update(dict.fromkeys(counts, 0))
    try:
        code = modspec.cli.main(["--quiet", *options, argv[0], path, *argv[1:]])
    finally:
        clear_caches()
    return code, dict(counts), json.loads(capsys.readouterr().out)


def cold_query(tmp_path, capsys, counts, factors, argv, options=()):
    code, counts, report = cold_run(tmp_path, capsys, counts, factors, argv, options)
    assert code == 0 and report["status"] == "ok", report
    return counts, report["result"]


def test_every_kernel_binding_is_counted(kernel_calls):
    for mod in modspec_modules():
        for obj in vars(mod).values():
            assert all(obj is not real for real in ORIGINALS.values()), mod.__name__
    lattices.lattice_intersection(((2,),), ((3,),), 1)
    assert kernel_calls == {"hnf": 1, "smith_column_orders": 0, "lattice_intersection": 1}


def test_iso_suite_on_z6_cubed_makes_no_hnf_or_smith_call(kernel_calls, tmp_path, capsys):
    counts, result = cold_query(
        tmp_path, capsys, kernel_calls, (6, 6, 6), ["verify", "--suite", "4.1"]
    )
    assert result["suites"][0]["checks"] == 16 and not result["suites"][0]["failures"]
    assert counts["hnf"] == 0 and counts["smith_column_orders"] == 0


def test_iso_query_on_z6_cubed_makes_no_hnf_or_smith_call(kernel_calls, tmp_path, capsys):
    counts, result = cold_query(
        tmp_path, capsys, kernel_calls, (6, 6, 6), ["iso", "--f", "2", "--g", "4"]
    )
    assert result["radicals_equal"] and result["modules_isomorphic"]
    assert counts["hnf"] == 0 and counts["smith_column_orders"] == 0


def test_radical_query_on_z2_to_the_sixth_intersects_a_few_times(kernel_calls, tmp_path, capsys):
    counts, result = cold_query(
        tmp_path,
        capsys,
        kernel_calls,
        (2,) * 6,
        ["radical", "--submodule", "1,1,0,0,1,0"],
        options=["--strategy", "both"],
    )
    assert result["method"] == "both"
    assert result["prime_radical"] == result["submodule"]  # N is already prime-radical
    assert 0 < counts["lattice_intersection"] <= 10


Z_2PQ = (2 * 10007 * 10009,)


@pytest.mark.parametrize("factors", [(6, 6, 6), Z_2PQ], ids=["z6^3", "z2pq"])
def test_pradical_makes_no_hnf_call(kernel_calls, tmp_path, capsys, factors):
    counts, result = cold_query(tmp_path, capsys, kernel_calls, factors, ["pradical"])
    assert result["pradical"] is True
    assert counts["hnf"] == 0


def test_radical_on_z_2pq_makes_one_hnf_call(kernel_calls, tmp_path, capsys):
    counts, result = cold_query(
        tmp_path,
        capsys,
        kernel_calls,
        Z_2PQ,
        ["radical", "--submodule", "4"],
        options=["--strategy", "both"],
    )
    # <4> = 2M is prime: the one HNF is the parse of the generator
    assert result["method"] == "both"
    assert result["prime_radical"] == result["submodule"]
    assert result["submodule"]["index"] == 2
    assert counts["hnf"] == 1


def test_cover_on_z_2pq_factors_a_few_times(factorize_calls, tmp_path, capsys):
    counts, result = cold_query(
        tmp_path, capsys, factorize_calls, Z_2PQ, ["cover", "--f", "5", "--hs", "10007,10009"]
    )
    assert result["covers_exactly"] and result["open_f"] == [2, 10007, 10009]
    assert counts["factorize"] <= 3


def test_iso_radicals_on_z6_cubed_factor_nothing(monkeypatch, tmp_path, capsys):
    # every prime of (fM : M) divides the exponent, whose primes
    # FgModule.primary holds, so the radicals factor nothing.  The base ring
    # Z[1/rad f] of M_f is built from rad f, whose primes may lie outside M:
    # MultSet.localized_ring factors f and g.
    allowed = {FgModule.primary.fget.__code__, localization.MultSet.localized_ring.__code__}
    real = arith.factorize
    outside = []

    def counting(*args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in allowed:
            frame = frame.f_back
        if frame is None:
            outside.append(args[0])
        return real(*args)

    rebind(monkeypatch, real, counting)
    _, result = cold_query(tmp_path, capsys, {}, (6, 6, 6), ["iso", "--f", "2", "--g", "4"])
    assert result["radical_f"]["generator"] == result["radical_g"]["generator"] == 2
    assert outside == []


# ---------------------------------------------------------------------------
# default radical: the closed form, and no point of the spectrum
# ---------------------------------------------------------------------------

@pytest.fixture
def radical_calls(monkeypatch):
    return count_calls(
        monkeypatch,
        {
            "_fiber_classified": spectrum._fiber_classified,
            "lattice_sum": lattices.lattice_sum,
            "lattice_intersection": lattices.lattice_intersection,
        },
    )


@pytest.mark.parametrize(
    "factors, generators",
    [((2,) * 6, "1,1,0,0,1,0"), (Z_2PQ, "4")],
    ids=["z2^6", "z2pq"],
)
def test_default_radical_builds_no_point(radical_calls, tmp_path, capsys, factors, generators):
    counts, result = cold_query(
        tmp_path, capsys, radical_calls, factors, ["radical", "--submodule", generators]
    )
    assert result["method"] == "closed_form"
    assert result["prime_radical"] == result["submodule"]  # N is already prime-radical
    assert counts["_fiber_classified"] == 0 and counts["lattice_intersection"] == 0
    assert counts["lattice_sum"] <= 1


@pytest.fixture
def points_built(monkeypatch):
    """Counts fiber builds and brute-force enumerations.  The first one
    also fails the query, so that a query that builds points cannot run
    for hours on the 229 755 604 points of Spec((Z/2)^10)."""
    counts = {"_fiber_classified": 0, "_enumerate_bruteforce": 0}
    for name in counts:

        def refuse(*args, _name=name):
            counts[_name] += 1
            raise AssertionError(f"{_name} called: a point of the spectrum was built")

        rebind(monkeypatch, getattr(spectrum, name), refuse)
    return counts


Z2_10 = (2,) * 10
ZERO_10 = ",".join("0" * 10)


def test_default_radical_on_z2_to_the_tenth_builds_no_point(points_built, tmp_path, capsys):
    counts, result = cold_query(
        tmp_path, capsys, points_built, Z2_10, ["radical", "--submodule", ZERO_10]
    )
    assert result["method"] == "closed_form"
    # rad(0) = 2M = 0: every point contains the zero submodule
    assert result["prime_radical"]["index"] == result["submodule"]["index"] == 1024
    assert counts == {"_fiber_classified": 0, "_enumerate_bruteforce": 0}


@pytest.mark.parametrize(
    "options, argv",
    [
        (["--strategy", "classified"], ["spec"]),
        (["--strategy", "both"], ["radical", "--submodule", ZERO_10]),
        (["--strategy", "bruteforce"], ["radical", "--submodule", ZERO_10]),
    ],
    ids=["classified-spec", "both-radical", "bruteforce-radical"],
)
def test_point_building_queries_on_z2_to_the_tenth_refuse_first(
    points_built, tmp_path, capsys, options, argv
):
    code, counts, report = cold_run(tmp_path, capsys, points_built, Z2_10, argv, options)
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == "|Spec(M)| = 229755604 exceeds the cardinality cap 4096"
    assert counts == {"_fiber_classified": 0, "_enumerate_bruteforce": 0}


# ---------------------------------------------------------------------------
# no oracle on a default path
# ---------------------------------------------------------------------------

ORACLES = {
    "_enumerate_bruteforce": spectrum._enumerate_bruteforce,
    "is_prime_submodule": spectrum.is_prime_submodule,
    "localize_bruteforce": localization.localize_bruteforce,
}


def test_no_default_query_runs_an_oracle(monkeypatch, tmp_path, capsys):
    counts = count_calls(monkeypatch, ORACLES)
    oracle_radicals = []
    real = spectrum.prime_radical

    def recording(sub, module=None, method="closed_form"):
        if method != "closed_form":
            oracle_radicals.append(method)
        return real(sub, module, method)

    rebind(monkeypatch, real, recording)
    # the one exception is default spec: it runs both strategies for as long
    # as perfbench's Query.expect pins "both" in its reports
    argvs = [
        argv
        for argv in mixed_argvs(module_file(tmp_path, (12,)))
        if "--strategy" not in argv and argv[0] != "spec"
    ]
    assert len(argvs) == 8
    for argv in argvs:
        clear_caches()
        try:
            assert modspec.cli.main(argv) == 0, argv
        finally:
            clear_caches()
    capsys.readouterr()
    assert counts == dict.fromkeys(ORACLES, 0) and oracle_radicals == []
