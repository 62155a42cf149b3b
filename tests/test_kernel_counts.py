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
from modspec import arith, fgmodules, lattices, localization, sheaf, spectrum
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


@pytest.mark.parametrize(
    "f, calls", [(2 * 10007, 1), (-(10009**2), 1), (3 * 10007 * 10009, 2)], ids=["2p", "-q^2", "3pq"]
)
def test_localize_on_z_2pq_factors_once_per_query(factorize_calls, tmp_path, capsys, f, calls):
    # the primes of f that divide the exponent come from FgModule.primary:
    # only the part of f coprime to 2PQ, here 3, is factored again
    counts, result = cold_query(
        tmp_path, capsys, factorize_calls, Z_2PQ, ["localize", "--invert", str(f)]
    )
    assert result["localized"]["base_ring"] == f"Z[1/{arith.squarefree_kernel(f)}]"
    assert counts["factorize"] == calls


def test_localize_at_a_prime_on_z_2pq_tests_it_once(factorize_calls, tmp_path, capsys):
    # one factorization tests 10007 for MultSet.complement_of_prime, one
    # reads the exponent for FgModule.primary; the local ring repeats neither
    counts, result = cold_query(
        tmp_path, capsys, factorize_calls, Z_2PQ, ["localize", "--at", "10007"]
    )
    assert result["localized"]["base_ring"] == "Z_(10007)"
    assert counts["factorize"] == 2
    code, _, report = cold_run(
        tmp_path, capsys, factorize_calls, Z_2PQ, ["localize", "--at", str(10007 * 10009)]
    )
    assert code == 1 and report["result"]["error"] == f"--at: {10007 * 10009} is not prime"


def test_iso_on_z_2pq_factors_once(factorize_calls, tmp_path, capsys):
    counts, result = cold_query(
        tmp_path, capsys, factorize_calls, Z_2PQ, ["iso", "--f", "20014", "--g", str(4 * 10007)]
    )
    assert result["radicals_equal"] and result["modules_isomorphic"]
    assert result["localized_f"]["base_ring"] == "Z[1/20014]"
    assert counts["factorize"] == 1


def test_iso_radicals_on_z6_cubed_factor_nothing(monkeypatch, tmp_path, capsys):
    # every prime of (fM : M) divides the exponent, whose primes
    # FgModule.primary holds, so the radicals factor nothing.  The base ring
    # Z[1/rad f] of M_f is built from rad f, whose primes may lie outside M:
    # MultSet.localized_ring factors the parts of f and g coprime to them.
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


@pytest.mark.parametrize(
    "options", [[], ["--strategy", "bruteforce"]], ids=["default-spec", "bruteforce-spec"]
)
def test_brute_force_spec_on_z2_to_the_ninth_refuses_first(points_built, tmp_path, capsys, options):
    # |M| = 512 is within the subgroup cap: the points cap refuses before
    # the walk over the 8 283 458 subgroups of F_2^9 starts
    code, counts, report = cold_run(tmp_path, capsys, points_built, (2,) * 9, ["spec"], options)
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == "|Spec(M)| = 8283457 exceeds the cardinality cap 4096"
    assert counts == {"_fiber_classified": 0, "_enumerate_bruteforce": 0}


# ---------------------------------------------------------------------------
# the brute-force oracles walk only what they check
# ---------------------------------------------------------------------------

def test_default_spec_tests_no_membership_and_lists_m_once(monkeypatch, tmp_path, capsys):
    counts = count_calls(monkeypatch, {"lattice_contains": lattices.lattice_contains})
    real = FgModule.elements
    listed = []

    def listing(self, *args):
        listed.append(self)
        return real(self, *args)

    monkeypatch.setattr(FgModule, "elements", listing)
    counts, result = cold_query(tmp_path, capsys, counts, (2, 2, 2, 4), ["spec"])
    assert result["strategy"] == "both" and result["point_count"] == 66
    # the prime test reads P's members off its basis, and the subgroup
    # walk checks the relation lattice on the rows as it builds them
    assert counts["lattice_contains"] == 0
    assert [m.factors for m in listed] == [(2, 2, 2, 4)]


def test_direct_sums_suite_on_z3_sums_one_pair(monkeypatch, tmp_path, capsys):
    counts = count_calls(
        monkeypatch, {"direct_sum_with_embeddings": fgmodules.direct_sum_with_embeddings}
    )
    counts, result = cold_query(tmp_path, capsys, counts, (3,), ["verify", "--suite", "2.3"])
    (suite,) = result["suites"]
    # 200 draws of (Z/3, Z/3), each a sum check and one lifted prime
    assert suite["checks"] == 400 and not suite["failures"]
    assert counts == {"direct_sum_with_embeddings": 1}


# ---------------------------------------------------------------------------
# verify on a file: criterion 8 works on the file's own ring
# ---------------------------------------------------------------------------

def test_verify_all_on_z3_combines_ideals_of_z_only(monkeypatch, tmp_path, capsys):
    # criterion 8 on the corpus tabled the ideals of every Z/n, n <= 60, and
    # factored 2 389 times in this query; on the file it tables the ideals
    # (1) and (3) of Z, and the other suites factor about 130 times
    rings = []
    real = arith.ideal_combine

    def recording(op, a, b):
        rings.append(a.ring)
        return real(op, a, b)

    rebind(monkeypatch, real, recording)
    counts = count_calls(monkeypatch, {"factorize": arith.factorize})
    counts, result = cold_query(tmp_path, capsys, counts, (3,), ["verify", "--suite", "all"])
    checks = {s["suite"]: s["checks"] for s in result["suites"]}
    assert checks["radical-sum-identity"] == 2**3
    assert rings and set(rings) == {arith.ZZ}
    assert counts["factorize"] <= 150


def test_radical_sum_suite_on_z3_factors_the_exponent_and_two_radicals(
    factorize_calls, tmp_path, capsys
):
    counts, result = cold_query(
        tmp_path, capsys, factorize_calls, (3,), ["verify", "--suite", "2.1"]
    )
    assert result["suites"][0]["checks"] == 8
    assert counts["factorize"] == 3


# ---------------------------------------------------------------------------
# no oracle on a default path
# ---------------------------------------------------------------------------

ORACLES = {
    "_enumerate_bruteforce": spectrum._enumerate_bruteforce,
    "is_prime_submodule": spectrum.is_prime_submodule,
    "localize_bruteforce": localization.localize_bruteforce,
}


# enumerations of a module or a section space, counted per call
ENUMERATIONS = {"FgModule.elements": FgModule, "SectionSpace.elements": sheaf.SectionSpace}


def test_no_default_query_runs_an_oracle(monkeypatch, tmp_path, capsys):
    counts = count_calls(monkeypatch, ORACLES)
    for name, cls in ENUMERATIONS.items():

        def counting(self, *args, _real=cls.elements, _name=name):
            counts[_name] += 1
            return _real(self, *args)

        counts[name] = 0
        monkeypatch.setattr(cls, "elements", counting)
    oracle_radicals = []
    real = spectrum.prime_radical

    def recording(sub, method="closed_form", card_cap=fgmodules.DEFAULT_CARDINALITY_CAP):
        if method != "closed_form":
            oracle_radicals.append(method)
        return real(sub, method, card_cap)

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
    assert counts == dict.fromkeys([*ORACLES, *ENUMERATIONS], 0) and oracle_radicals == []


# ---------------------------------------------------------------------------
# fibers live on the module object a query loads, so a cold query stays cold
# ---------------------------------------------------------------------------

@pytest.fixture
def fiber_builds(monkeypatch):
    return count_calls(monkeypatch, {"_fiber_classified": spectrum._fiber_classified})


@pytest.mark.parametrize(
    "options, argv",
    [
        ([], ["spec"]),
        ([], ["verify", "--suite", "3.1"]),
        (["--strategy", "both"], ["radical", "--submodule", "0,0,0"]),
    ],
    ids=["spec", "verify-3.1", "both-radical"],
)
def test_a_repeated_cold_query_builds_its_fibers_again(
    fiber_builds, tmp_path, capsys, options, argv
):
    first, _ = cold_query(tmp_path, capsys, fiber_builds, (2, 6, 6), argv, options)
    second, _ = cold_query(tmp_path, capsys, fiber_builds, (2, 6, 6), argv, options)
    assert first == second == {"_fiber_classified": 2}
