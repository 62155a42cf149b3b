import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from datetime import timedelta
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import modspec
from modspec import sheaf as sheaf_layer, spectrum as spectrum_layer, verify
from modspec.arith import ZZ
from modspec.cli import (
    INT_STRING_BOUND,
    ModuleFileError,
    build_parser,
    jsonable,
    load_module_file,
    main,
    module_to_json,
    parse_module_file,
    report_text,
)
from modspec.fgmodules import FgModule
from modspec.spectrum import spec_enumerate

SRC = os.path.dirname(os.path.dirname(modspec.__file__))


@pytest.fixture
def z12(tmp_path):
    path = tmp_path / "z12.json"
    path.write_text(
        json.dumps(
            {
                "ring": {"kind": "Z"},
                "module": {"kind": "invariant_factors", "factors": [12], "free_rank": 0},
            }
        )
    )
    return str(path)


@pytest.fixture
def prufer3(tmp_path):
    path = tmp_path / "prufer3.json"
    path.write_text(json.dumps({"ring": {"kind": "Z"}, "module": {"kind": "prufer", "p": 3}}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report


# ---------------------------------------------------------------------------
# module file parsing
# ---------------------------------------------------------------------------

def test_parse_invariant_factors():
    m = parse_module_file(
        '{"ring":{"kind":"Z"},"module":{"kind":"invariant_factors","factors":[2,6],"free_rank":0}}'
    )
    assert m.factors == (2, 6) and m.free_rank == 0


def test_parse_presentation():
    m = parse_module_file(
        '{"ring":{"kind":"Zmod","n":12},"module":{"kind":"presentation","generators":1,"relations":[[4]]}}'
    )
    assert m.factors == (4,) and m.ring.modulus == 12


def test_parse_prufer_rejects_composite():
    with pytest.raises(ModuleFileError) as err:
        parse_module_file('{"ring":{"kind":"Z"},"module":{"kind":"prufer","p":4}}')
    assert "module.p" in str(err.value)


def test_parse_errors_name_fields():
    with pytest.raises(ModuleFileError) as err:
        parse_module_file('{"ring":{"kind":"Zmod","n":1},"module":{"kind":"prufer","p":3}}')
    assert err.value.field == "ring.n"
    with pytest.raises(ModuleFileError) as err:
        parse_module_file(
            '{"ring":{"kind":"Z"},"module":{"kind":"presentation","generators":1,"relations":[["x"]]}}'
        )
    assert err.value.field == "module.relations[0][0]"


def test_parse_accepts_decimal_strings():
    m = parse_module_file(
        '{"ring":{"kind":"Z"},"module":{"kind":"invariant_factors","factors":["18014398509481984"],"free_rank":0}}'
    )
    assert m.factors == (2**54,)


def test_round_trip():
    text = '{"ring":{"kind":"Zmod","n":12},"module":{"kind":"presentation","generators":2,"relations":[[4,0],[0,2]]}}'
    m = parse_module_file(text)
    again = parse_module_file(json.dumps(module_to_json(m)))
    assert m == again


def test_caps_parsed():
    m, caps = load_module_file(
        '{"ring":{"kind":"Z"},"module":{"kind":"invariant_factors","factors":[4],"free_rank":0},'
        '"caps":{"cardinality":99}}'
    )
    assert caps == {"cardinality": 99}


def test_jsonable_stringifies_big_integers():
    out = jsonable({"small": 12, "big": 2**60, "neg": -(2**60), "flag": True})
    assert out["small"] == 12
    assert out["big"] == str(2**60)
    assert out["neg"] == str(-(2**60))
    assert out["flag"] is True


def reference_jsonable(obj):
    """The normalization that ``report_text`` replaced, kept as its reference."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > INT_STRING_BOUND else obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_report_text(obj):
    return json.dumps(reference_jsonable(obj), sort_keys=True, indent=2)


EDGE_INTS = (2**53, -(2**53), 2**53 + 1, -(2**53 + 1), 0, 1, -1)
# quotes, backslashes, control characters and non-ASCII text
report_strings = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t/\u00e9\u2028\U0001f600'), st.characters())
)
report_keys = st.one_of(report_strings, st.integers(), st.sampled_from(EDGE_INTS + (True, None)))
report_scalars = st.one_of(
    st.none(), st.booleans(), st.sampled_from(EDGE_INTS), st.integers(), report_strings
)
report_values = st.recursive(
    report_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(report_keys, inner, max_size=4),
    ),
    max_leaves=20,
)


def nested(depth, leaf):
    """leaf inside ``depth`` containers, alternating dict, list and tuple."""
    for i in range(depth):
        leaf = ({f"k{i}": leaf, i: [], "e": {}}, [leaf, ()], (leaf,))[i % 3]
    return leaf


@given(st.one_of(report_values, st.builds(nested, st.integers(0, 60), report_values)))
@settings(max_examples=120, deadline=None)
def test_report_text_matches_the_json_module(obj):
    assert report_text(obj) == reference_report_text(obj)
    assert jsonable(obj) == reference_jsonable(obj)


def test_report_text_edges():
    obj = {1: True, "1": 1, "big": [2**53, 2**53 + 1, -(2**53 + 1)], "t": (None, "\u00e9\"\\")}
    assert report_text(obj) == reference_report_text(obj)
    assert '"9007199254740993"' in report_text(obj) and "9007199254740992" in report_text(obj)
    assert report_text({}) == "{}" and report_text([()]) == "[\n  []\n]"
    for bad in (1.5, {"x": {1, 2}}):
        with pytest.raises(TypeError):
            report_text(bad)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_spec_command(capsys, z12):
    code, report = run(capsys, ["spec", z12])
    assert code == 0 and report["status"] == "ok"
    assert report["result"]["relevant_primes"] == [2, 3]
    assert report["result"]["point_count"] == 2
    assert report["result"]["primeful"] is True


def test_radical_and_colon_commands(capsys, z12):
    code, report = run(capsys, ["radical", z12, "--submodule", ""])
    assert code == 0
    assert report["result"]["prime_radical"]["order"] == 2  # sqrt[p](0) in Z/12 is 6M

    code, report = run(capsys, ["colon", z12, "--submodule", "2"])
    assert code == 0
    assert report["result"]["colon_ideal"]["generator"] == 2


@pytest.mark.parametrize(
    "strategy, method",
    [
        ("bruteforce", "bruteforce"),
        ("classified", "closed_form"),
        ("both", "both"),
        (None, "closed_form"),
    ],
)
def test_radical_honours_the_strategy(capsys, z12, strategy, method):
    options = [] if strategy is None else ["--strategy", strategy]
    code, report = run(capsys, [*options, "radical", z12, "--submodule", "4"])
    assert code == 0 and report["result"]["method"] == method
    assert "strategy" not in report["inputs"]
    assert report["result"]["prime_radical"]["order"] == 6  # 4M + 6M = 2M


def test_radical_bruteforce_builds_the_spectrum(capsys, z12, monkeypatch):
    from modspec import spectrum

    spectrum.spec_enumerate.cache_clear()
    monkeypatch.setattr(spectrum, "_fiber_classified", mock.Mock(wraps=spectrum._fiber_classified))
    try:
        run(capsys, ["--strategy", "classified", "radical", z12, "--submodule", "4"])
        assert spectrum._fiber_classified.call_count == 0
        run(capsys, ["--strategy", "bruteforce", "radical", z12, "--submodule", "4"])
        assert spectrum._fiber_classified.call_count == 2
    finally:
        spectrum.spec_enumerate.cache_clear()


def test_pradical_command(capsys, prufer3):
    code, report = run(capsys, ["pradical", prufer3])
    assert code == 0 and report["status"] == "ok"
    assert report["result"]["pradical"] is False
    assert report["result"]["certificate"]["prime"] == 3


def test_localize_command(capsys, z12):
    code, report = run(capsys, ["localize", z12, "--invert", "2"])
    assert code == 0
    assert report["result"]["localized"]["factors"] == [3]

    code, report = run(capsys, ["localize", z12, "--at", "2"])
    assert report["result"]["localized"]["factors"] == [4]


def test_sheaf_command(capsys, z12):
    code, report = run(capsys, ["sheaf", z12, "--open", "D(2)"])
    assert code == 0
    assert report["result"]["open"]["fibers"] == [3]
    assert report["result"]["psi"]["bijective"] is True
    assert report["result"]["section_space"]["factors"] == [3]


def test_cover_command(capsys, z12):
    code, report = run(capsys, ["cover", z12, "--f", "1", "--hs", "4,9"])
    assert code == 0
    pairs = report["result"]["pairs"]
    assert sum(r * b for r, b in pairs) == 1
    assert report["result"]["covers_exactly"] is True


def test_iso_command(capsys, z12):
    code, report = run(capsys, ["iso", z12, "--f", "2", "--g", "10"])
    assert code == 0
    assert report["result"]["radicals_equal"] is True
    assert report["result"]["modules_isomorphic"] is True


def test_verify_command_on_file(capsys, z12):
    code, report = run(capsys, ["verify", z12, "--suite", "3.1"])
    assert code == 0 and report["status"] == "ok"
    (suite,) = report["result"]["suites"]
    assert suite["suite"] == "stalks" and not suite["failures"]


def test_verify_suite_2_1(capsys, z12):
    # every triple of the ideals (d), d | 12, that contain Ann(Z/12) = (12)
    code, report = run(capsys, ["verify", z12, "--suite", "2.1"])
    assert code == 0
    (suite,) = report["result"]["suites"]
    assert suite["checks"] == 6**3 and not suite["failures"]


def module_file(tmp_path, ring, factors, **extra):
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {
                "ring": ring,
                "module": {"kind": "invariant_factors", "factors": factors, "free_rank": 0},
                **extra,
            }
        )
    )
    return str(path)


def test_verify_direct_sums_on_zmod_module(capsys, tmp_path):
    # every draw is M (+) M over Z/12: one prime radical check and the lifts
    # of the five primes of M, 6 checks a draw
    path = module_file(tmp_path, {"kind": "Zmod", "n": 12}, [2, 6])
    code, report = run(capsys, ["verify", path, "--suite", "2.3"])
    assert code == 0 and report["status"] == "ok"
    (suite,) = report["result"]["suites"]
    assert suite["suite"] == "direct-sums" and suite["checks"] == 200 * 6
    assert not suite["failures"]


@pytest.mark.parametrize("suite", ["2.1", "2.3", "4.1", "all"])
def test_verify_refuses_a_module_with_free_rank(capsys, tmp_path, suite):
    # no suite checks a module with free rank: a pass would check nothing
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {
                "ring": {"kind": "Z"},
                "module": {"kind": "invariant_factors", "factors": [6], "free_rank": 1},
            }
        )
    )
    code, report = run(capsys, ["verify", str(path), "--suite", suite])
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == (
        "the verification suites check finite modules and the Pruefer group; "
        "Z/6 + Z over Z has free rank 1"
    )


def test_verify_all_on_zero_module(capsys, tmp_path):
    # cover decomposition draws from nonzero modules only
    path = module_file(tmp_path, {"kind": "Z"}, [])
    code, report = run(capsys, ["verify", path, "--suite", "all"])
    assert code == 0 and report["status"] == "ok"
    checks = {s["suite"]: s["checks"] for s in report["result"]["suites"]}
    assert checks["cover-decomposition"] == 0


def test_factor_bound_cap_is_rejected(capsys, tmp_path):
    path = module_file(tmp_path, {"kind": "Zmod", "n": 10403}, [10403], caps={"factor_bound": 2})
    code, report = run(capsys, ["spec", path])
    assert code == 1 and report["status"] == "error"
    error = report["result"]["error"]
    assert error.startswith("caps.factor_bound:")
    assert "cardinality" in error and "subgroup_enumeration" in error


@pytest.mark.parametrize("key", ["factor_bound", "cardinalty", "subgroup_cap"])
def test_an_unknown_cap_is_rejected(capsys, tmp_path, key):
    # a misspelled cap would otherwise leave its default silently in force
    path = module_file(tmp_path, {"kind": "Z"}, [12], caps={key: 10})
    code, report = run(capsys, ["spec", path])
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == (
        f"caps.{key}: not supported; the caps that apply are cardinality "
        "and subgroup_enumeration"
    )


@pytest.mark.parametrize("key", ["cardinality", "subgroup_enumeration"])
@pytest.mark.parametrize("value", [-1, "-7"])
def test_a_negative_cap_is_rejected_at_load(capsys, tmp_path, key, value):
    path = module_file(tmp_path, {"kind": "Z"}, [6], caps={key: value})
    code, report = run(capsys, ["spec", path])
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == f"caps.{key}: cap must be >= 0, got {int(value)}"


@pytest.mark.parametrize("key", ["cardinality", "subgroup_enumeration"])
def test_a_zero_cap_loads_and_refuses(capsys, tmp_path, key):
    path = module_file(tmp_path, {"kind": "Z"}, [6], caps={key: 0})
    code, report = run(capsys, ["spec", path])
    assert code == 1 and report["inputs"]["caps"] == {key: 0}
    assert report["result"]["error"].endswith(" cap 0")


# ---------------------------------------------------------------------------
# exit codes, determinism, env overrides
# ---------------------------------------------------------------------------

def test_data_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ring":{"kind":"Q"},"module":{}}')
    code, report = run(capsys, ["spec", str(bad)])
    assert code == 1 and report["status"] == "error"
    assert "ring.kind" in report["result"]["error"]


def test_missing_file_exit_code(capsys):
    code, report = run(capsys, ["spec", "/nonexistent/file.json"])
    assert code == 1 and report["status"] == "error"


def test_cover_precondition_error(capsys, tmp_path):
    z6 = tmp_path / "z6.json"
    z6.write_text(
        '{"ring":{"kind":"Z"},"module":{"kind":"invariant_factors","factors":[6],"free_rank":0}}'
    )
    code, report = run(capsys, ["cover", str(z6), "--f", "1", "--hs", "2"])
    assert code == 1 and report["status"] == "error"


@pytest.mark.parametrize("hs", ["2,x", "4,9.5", "four"])
def test_non_integer_hs_names_the_flag(capsys, z12, hs):
    code, report = run(capsys, ["cover", z12, "--f", "1", "--hs", hs])
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == f"--hs: non-integer scalar in {hs!r}"


def test_reports_are_byte_identical(capsys, z12):
    main(["spec", z12])
    first = capsys.readouterr().out
    main(["spec", z12])
    second = capsys.readouterr().out
    assert first == second


def test_quiet_suppresses_stderr(capsys, z12):
    main(["--quiet", "spec", z12])
    assert capsys.readouterr().err == ""
    main(["spec", z12])
    assert "modspec spec: ok" in capsys.readouterr().err


def test_env_cap_override(capsys, z12, monkeypatch):
    monkeypatch.setenv("MODSPEC_CARD_CAP", "4")
    code, report = run(capsys, ["sheaf", z12, "--open", "D(1)"])
    assert code == 1 and report["status"] == "error"
    assert "cap" in report["result"]["error"]


def test_env_cap_is_not_echoed_into_inputs(capsys, tmp_path, monkeypatch):
    plain = tmp_path / "plain"
    plain.mkdir()
    with_caps = module_file(tmp_path, {"kind": "Z"}, [12], caps={"subgroup_enumeration": 100})
    without_caps = module_file(plain, {"kind": "Z"}, [12])
    reports = []
    for path in (with_caps, without_caps):
        monkeypatch.delenv("MODSPEC_CARD_CAP", raising=False)
        assert main(["localize", path, "--at", "2"]) == 0
        unset = capsys.readouterr().out
        monkeypatch.setenv("MODSPEC_CARD_CAP", "50")
        assert main(["localize", path, "--at", "2"]) == 0
        assert capsys.readouterr().out == unset
        reports.append(json.loads(unset))
    assert reports[0]["inputs"]["caps"] == {"subgroup_enumeration": 100}
    assert "caps" not in reports[1]["inputs"]


def test_env_cap_overrides_the_file_cap(capsys, tmp_path, monkeypatch):
    path = module_file(tmp_path, {"kind": "Z"}, [12], caps={"cardinality": 100})
    monkeypatch.setenv("MODSPEC_CARD_CAP", "4")
    code, report = run(capsys, ["sheaf", path, "--open", "D(1)"])
    assert code == 1
    assert report["result"]["error"] == "|M| = 12 exceeds the cardinality cap 4"
    assert report["inputs"]["caps"] == {"cardinality": 100}


@pytest.mark.parametrize("value", ["x", "", "4.0", "1e3"])
def test_non_integer_env_cap_is_a_structured_error(capsys, z12, monkeypatch, value):
    monkeypatch.setenv("MODSPEC_CARD_CAP", value)
    code, report = run(capsys, ["sheaf", z12, "--open", "D(1)"])
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == f"MODSPEC_CARD_CAP: expected an integer, got {value!r}"


@pytest.mark.parametrize("value", ["-1", "-4096"])
def test_negative_env_cap_is_a_structured_error(capsys, z12, monkeypatch, value):
    monkeypatch.setenv("MODSPEC_CARD_CAP", value)
    code, report = run(capsys, ["sheaf", z12, "--open", "D(1)"])
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == f"MODSPEC_CARD_CAP: cap must be >= 0, got {value}"


def test_zero_env_cap_refuses(capsys, z12, monkeypatch):
    monkeypatch.setenv("MODSPEC_CARD_CAP", "0")
    code, report = run(capsys, ["sheaf", z12, "--open", "D(1)"])
    assert code == 1
    assert report["result"]["error"] == "|M| = 12 exceeds the cardinality cap 0"


# ---------------------------------------------------------------------------
# the parser: built once per process, exit 1 on a bad command line, and no
# argument carried from one call to the next
# ---------------------------------------------------------------------------

def mixed_argvs(path):
    return [
        ["spec", path],
        ["--strategy", "classified", "spec", path],
        ["radical", path, "--submodule", ""],
        ["colon", path, "--submodule", "2"],
        ["pradical", path],
        ["localize", path, "--at", "2"],
        ["localize", path, "--invert", "3"],
        ["--quiet", "sheaf", path, "--open", "D(2)"],
        ["cover", path, "--f", "1", "--hs", "4,9"],
        ["iso", path, "--f", "2", "--g", "10"],
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["radical", "FILE"],
        ["bogus", "FILE"],
        ["cover", "FILE", "--f", "x", "--hs", "2"],
        ["verify", "corpus", "--suite", "nope"],
    ],
    ids=["missing-submodule", "unknown-command", "non-integer-f", "unknown-suite"],
)
def test_usage_errors_exit_1(capsys, z12, argv):
    with pytest.raises(SystemExit) as exc:
        main([z12 if a == "FILE" else a for a in argv])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: modspec")
    assert "error: " in captured.err


def test_suite_choices_are_the_verify_suites():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (suite,) = [a for a in commands.choices["verify"]._actions if a.dest == "suite"]
    assert list(suite.choices) == sorted(verify.SUITES) + ["all"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "read by spec and radical only" in text
    assert "(default: both, agreement enforced, for spec; the closed form" in text


def test_main_constructs_no_parser(capsys, z12, monkeypatch):
    real = argparse.ArgumentParser.__init__
    constructed = []

    def counting(self, *args, **kwargs):
        constructed.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    build_parser()
    assert len(constructed) == 10  # the top level and nine subcommands
    constructed.clear()
    for argv in mixed_argvs(z12) * 2:
        assert main(argv) == 0
    capsys.readouterr()
    assert constructed == []


def test_no_argument_carries_over(capsys, z12):
    run(capsys, ["--strategy", "classified", "spec", z12])
    code, report = run(capsys, ["spec", z12])
    assert code == 0
    assert report["inputs"]["strategy"] == "both" and report["result"]["strategy"] == "both"

    run(capsys, ["--strategy", "both", "radical", z12, "--submodule", "4"])
    code, report = run(capsys, ["radical", z12, "--submodule", "4"])
    assert code == 0 and report["result"]["method"] == "closed_form"

    run(capsys, ["localize", z12, "--at", "2"])
    code, report = run(capsys, ["localize", z12, "--invert", "3"])
    assert code == 0
    assert "at" not in report["inputs"] and report["inputs"]["invert"] == 3


def test_report_after_other_commands_equals_a_first_run(capsys, z12):
    argv = ["radical", z12, "--submodule", "4"]
    fresh = subprocess.run(
        [sys.executable, "-m", "modspec.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])},
    )
    assert fresh.returncode == 0
    for other in mixed_argvs(z12):
        main(other)
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh.stdout


# ---------------------------------------------------------------------------
# over-cap inputs: exit 1 with the cap named and its value
# ---------------------------------------------------------------------------

CAP_SETTINGS = settings(max_examples=25, deadline=timedelta(seconds=10))


@st.composite
def chains(draw, max_len=3, max_card=512):
    """Invariant-factor chains e_1 | e_2 | ... of bounded cardinality."""
    factors = [draw(st.integers(2, 12))]
    while len(factors) < max_len and draw(st.booleans()):
        factors.append(factors[-1] * draw(st.integers(1, 4)))
    if math.prod(factors) > max_card:
        factors = factors[:1]
    return factors


def run_file(factors, argv, caps=None, options=()):
    """Exit code and report of one CLI call on a Z-module file; ``options``
    go before the command."""
    data = {
        "ring": {"kind": "Z"},
        "module": {"kind": "invariant_factors", "factors": factors, "free_rank": 0},
    }
    if caps is not None:
        data["caps"] = caps
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--quiet", *options, argv[0], path, *argv[1:]])
    return code, json.loads(out.getvalue())


def assert_refused(code, report, text):
    assert code == 1 and report["status"] == "error"
    assert report["result"]["error"] == text


@CAP_SETTINGS
@given(chains(), st.data())
def test_cardinality_cap_refuses(factors, data):
    card = math.prod(factors)
    cap = data.draw(st.integers(1, card - 1))
    text = f"|M| = {card} exceeds the cardinality cap {cap}"
    # spec reads the cap in the brute-force prime test, sheaf in psi
    code, report = run_file(factors, ["spec"], caps={"cardinality": cap})
    assert_refused(code, report, text)
    code, report = run_file(factors, ["sheaf", "--open", "D(1)"], caps={"cardinality": cap})
    assert_refused(code, report, text)


@CAP_SETTINGS
@given(chains(), st.data())
def test_subgroup_enumeration_cap_refuses(factors, data):
    card = math.prod(factors)
    cap = data.draw(st.integers(1, card - 1))
    code, report = run_file(factors, ["spec"], caps={"subgroup_enumeration": cap})
    assert_refused(code, report, f"|M| = {card} exceeds the enumeration cap {cap}")


@CAP_SETTINGS
@given(chains(), st.data())
def test_env_cardinality_cap_refuses(factors, data):
    card = math.prod(factors)
    cap = data.draw(st.integers(1, card - 1))
    with mock.patch.dict(os.environ, {"MODSPEC_CARD_CAP": str(cap)}):
        code, report = run_file(factors, ["sheaf", "--open", "D(1)"])
    assert_refused(code, report, f"|M| = {card} exceeds the cardinality cap {cap}")


@CAP_SETTINGS
@given(chains(max_len=4), st.data())
def test_points_cap_refuses_the_queries_that_build_points(factors, data):
    points = len(spec_enumerate(FgModule(ZZ, tuple(factors))))
    cap = data.draw(st.integers(0, points - 1))
    text = f"|Spec(M)| = {points} exceeds the cardinality cap {cap}"
    zero = ",".join("0" * len(factors))
    for options, argv in (
        (["--strategy", "classified"], ["spec"]),
        (["--strategy", "both"], ["radical", "--submodule", zero]),
        (["--strategy", "bruteforce"], ["radical", "--submodule", zero]),
    ):
        code, report = run_file(factors, argv, caps={"cardinality": cap}, options=options)
        assert_refused(code, report, text)
        with mock.patch.dict(os.environ, {"MODSPEC_CARD_CAP": str(cap)}):
            code, report = run_file(factors, argv, options=options)
        assert_refused(code, report, text)
        code, report = run_file(factors, argv, caps={"cardinality": points}, options=options)
        assert code == 0, report
    # the closed-form radical builds no point: no cap applies
    code, report = run_file(factors, ["radical", "--submodule", zero], caps={"cardinality": 0})
    assert code == 0 and report["result"]["method"] == "closed_form"


@CAP_SETTINGS
@given(chains(max_len=4), st.data())
def test_spec_running_the_brute_force_refuses_past_the_points_cap(factors, data):
    card = math.prod(factors)
    points = len(spec_enumerate(FgModule(ZZ, tuple(factors))))
    cap = data.draw(st.integers(0, points - 1))
    # the brute force's own cap on |M| speaks first, then the points cap
    if card > cap:
        text = f"|M| = {card} exceeds the cardinality cap {cap}"
    else:
        text = f"|Spec(M)| = {points} exceeds the cardinality cap {cap}"
    for options in ([], ["--strategy", "both"], ["--strategy", "bruteforce"]):
        code, report = run_file(factors, ["spec"], caps={"cardinality": cap}, options=options)
        assert_refused(code, report, text)
        code, report = run_file(
            factors, ["spec"], caps={"cardinality": cap, "subgroup_enumeration": card - 1},
            options=options,
        )
        assert_refused(code, report, f"|M| = {card} exceeds the enumeration cap {card - 1}")


@pytest.mark.parametrize("options", [[], ["--strategy", "bruteforce"]], ids=["default", "bruteforce"])
def test_spec_on_an_elementary_group_past_the_points_cap_refuses(options):
    # |M| = 128 is within both caps on |M|; Spec((Z/2)^7) has 29 211 points
    code, report = run_file([2] * 7, ["spec"], options=options)
    assert_refused(code, report, "|Spec(M)| = 29211 exceeds the cardinality cap 4096")
    code, report = run_file([2] * 6, ["spec"], options=options)
    assert code == 0 and report["result"]["point_count"] == 2824


@CAP_SETTINGS
@given(
    st.one_of(
        st.integers(13, 16).map(lambda k: [2] * k),
        st.integers(4097, 10**6).map(lambda n: [n]),
        st.sampled_from([[3] * 8, [6] * 5, [2, 6, 30, 210]]),
    )
)
def test_psi_default_cardinality_cap_refuses(factors):
    # M_1 = M, so psi enumerates all of M
    card = math.prod(factors)
    code, report = run_file(factors, ["sheaf", "--open", "D(1)"])
    assert_refused(code, report, f"|M| = {card} exceeds the cardinality cap 4096")


P, Q = 10_000_019, 10_000_079


def localized(base_ring, factors):
    return {
        "base_ring": base_ring,
        "cardinality": math.prod(factors),
        "factors": factors,
        "free_rank": 0,
        "kind": "standard" if factors else "zero",
    }


@pytest.mark.parametrize(
    "factors, argv, result",
    [
        ([6 * P * Q], ["pradical"], {"pradical": True, "certificate": None}),
        ([6 * P * Q], ["localize", "--invert", "5"], {"localized": localized("Z[1/5]", [6 * P * Q])}),
        ([6 * P * Q], ["localize", "--at", str(P)], {"localized": localized(f"Z_({P})", [P])}),
        (
            [6 * P * Q],
            ["iso", "--f", "2", "--g", "3"],
            {
                "localized_f": localized("Z[1/2]", [3 * P * Q]),
                "localized_g": localized("Z[1/3]", [2 * P * Q]),
                "radicals_equal": False,
                "modules_isomorphic": False,
            },
        ),
        (
            [6],
            ["localize", "--at", "1000000000000037"],
            {"localized": localized("Z_(1000000000000037)", [])},
        ),
    ],
    ids=["pradical", "invert-5", "at-P", "iso", "at-a-prime-past-10^15"],
)
def test_primes_past_the_trial_division_bound_are_answered(factors, argv, result):
    # P, Q and 10^15 + 37 lie past trial division to 10^7: Pollard-Brent
    # splits them off and Miller-Rabin certifies them
    code, report = run_file(factors, argv)
    assert code == 0 and report["status"] == "ok"
    assert report["result"].items() >= result.items()


@pytest.mark.parametrize(
    "argv, result",
    [
        (["sheaf", "--open", "D(2)"], {"open": {"f": 2, "fibers": [3]}}),
        (["cover", "--f", "1", "--hs", "2,3"], {"open_f": [2, 3], "exponent": 1}),
    ],
    ids=["sheaf", "cover"],
)
def test_sheaf_and_cover_build_no_submodule(monkeypatch, argv, result):
    # D(fM) and (hM : M) are read off the scalars: fM and its colon are never formed
    def refuse(*args):
        raise AssertionError("a submodule or its colon was computed")

    for layer in (spectrum_layer, sheaf_layer):
        for name in ("scalar_multiple_submodule", "colon"):
            monkeypatch.setattr(layer, name, refuse, raising=False)
    code, report = run_file([6, 6], argv)
    assert code == 0 and report["status"] == "ok"
    assert report["result"].items() >= result.items()
