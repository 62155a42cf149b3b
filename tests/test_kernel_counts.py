"""How many HNF, Smith-form, lattice-intersection and factorization calls a
cold CLI query makes.  The counts are exact and timer-free: each kernel is
wrapped at every binding in ``modspec`` and every cache is cleared before
the query, as a fresh process would start."""

import json
import sys

import pytest

import modspec
import modspec.cli
from modspec import arith, lattices

KERNELS = ("hnf", "smith_column_orders", "lattice_intersection")
ORIGINALS = {kernel: getattr(lattices, kernel) for kernel in KERNELS}


def modspec_modules():
    prefix = modspec.__name__ + "."
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == modspec.__name__ or name.startswith(prefix))
    ]


def count_calls(monkeypatch, originals):
    counts = dict.fromkeys(originals, 0)
    for kernel, real in originals.items():

        def counting(*args, _real=real, _kernel=kernel):
            counts[_kernel] += 1
            return _real(*args)

        bound = 0
        for mod in modspec_modules():
            for name, obj in list(vars(mod).items()):
                if obj is real:
                    monkeypatch.setattr(mod, name, counting)
                    bound += 1
        assert bound >= 1
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


def cold_query(tmp_path, capsys, counts, factors, argv):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {
                "ring": {"kind": "Z"},
                "module": {"kind": "invariant_factors", "factors": list(factors), "free_rank": 0},
            }
        )
    )
    clear_caches()
    counts.update(dict.fromkeys(counts, 0))
    try:
        code = modspec.cli.main(["--quiet", argv[0], str(path), *argv[1:]])
    finally:
        clear_caches()
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["status"] == "ok", report
    return dict(counts), report["result"]


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
        tmp_path, capsys, kernel_calls, Z_2PQ, ["radical", "--submodule", "4"]
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
