"""Command-line front end: module files in, canonical JSON reports out.

Reports are deterministic: identical invocations produce byte-identical
output (sorted keys, fixed seeds, no timestamps).  Integers beyond 2^53
are emitted as decimal strings so downstream JSON tooling keeps exactness;
inputs accept both forms.  Human-readable summaries go to stderr and are
silenced by --quiet.  Exit codes: 0 ok (also for --help), 1 usage or data
error (a bad command line included), 2 a verified property failed on the
instance.

``--strategy`` is read by spec and radical only.  Left out, spec runs both
enumeration strategies and insists they agree, and radical runs the closed
form N + rM, which builds no point of the spectrum.  Only spec and a
brute-force radical read the cardinality cap (``MODSPEC_CARD_CAP``, else
the file's): they walk Spec(M) under it, and ``Spectrum`` refuses more
points than the cap, counted in closed form, before it builds one; a spec
that runs the brute force refuses in the order ``spec_enumerate`` gives.

verify runs one suite, or all of them, on the corpus or on one module
file, and on a file its suites check that module.  Suite 2.1 checks the
radical identity on the ideals of the file's ring that contain Ann(M) =
(e), d(e)^3 triples, and refuses more than ``verify.MAX_IDEAL_TRIPLES``
before it tables one; on the Pruefer group (Ann(M) = 0) it checks seeded
triples over Z.  Suite 2.3 sums M with itself over its own ring.  verify
refuses a module with free rank, which no suite checks, and a single suite
that checks nothing on the file (3.1 on the zero module, sheaf-axioms past
four fibers) refuses with the reason; under all, such a suite reports 0
checks.  The suites walk Spec(M) under the default cap.

One table, ``GRAMMAR``, holds each command's handler, help and options.
``main`` reads a plain command line, ``[--quiet] [--strategy S] COMMAND
FILE (--flag VALUE)*`` with each flag spelled in full and given once and
no FILE or VALUE starting with '-', off it in one pass.  Every other one
(help, a usage error, an abbreviated flag, ``--flag=value``, a negative
number, an option before FILE) goes to the argparse parser built from the
same table once, at import.  Each parse makes a fresh namespace, so no
argument carries over from one call to the next.

A process loads only the modules its command runs.  This module imports
at its top only what nearly every command needs: arith, lattices,
fgmodules and spectrum.  A handler that needs more imports it itself:
localize imports localization; sheaf, cover and iso import sheaf, which
loads localization; verify imports verify, which loads everything.  The
parser names the suites without importing verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .arith import ZZ, Ideal, Ring, Zmod, is_prime
from .fgmodules import (
    DEFAULT_CARDINALITY_CAP,
    DEFAULT_SUBGROUP_CAP,
    CapExceededError,
    FgModule,
    Submodule,
    colon,
    normalize,
    prufer_module,
    submodule_from_generators,
)
from .spectrum import (
    OpenSet,
    PropertyViolation,
    is_pradical,
    natural_map,
    prime_radical,
    spec_enumerate,
)

if TYPE_CHECKING:
    from .localization import LocalizedModule, MultSet

SCHEMA_VERSION = 1
INT_STRING_BOUND = 2**53
CAP_KEYS = ("cardinality", "subgroup_enumeration")
# the keys of verify.SUITES, spelled out so that building the parser does
# not import verify; a test checks that the two agree
SUITE_NAMES = ("2.1", "2.3", "2.4", "3.1", "3.2", "4.1", "sheaf-axioms")


class ModuleFileError(ValueError):
    """Malformed module file; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------------------
# integers, rings and modules <-> JSON
# ---------------------------------------------------------------------------

def _decode_int(value, field: str) -> int:
    if isinstance(value, bool):
        raise ModuleFileError(field, "expected an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        body = value[1:] if value.startswith("-") else value
        if body.isdigit():
            return int(value)
    raise ModuleFileError(field, f"expected an integer or decimal string, got {value!r}")


def _decode_cap(value, field: str) -> int:
    cap = _decode_int(value, field)
    if cap < 0:
        raise ModuleFileError(field, f"cap must be >= 0, got {cap}")
    return cap


def report_text(obj) -> str:
    """The canonical JSON text of a report: sorted keys, two-space indent,
    ASCII only, integers past ``INT_STRING_BOUND`` as decimal strings,
    tuples as lists and every key made a string.  One recursion normalizes
    and writes, byte for byte as ``json.dumps(..., sort_keys=True,
    indent=2)`` would write the normalized report."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


def _write(obj, out: list[str], newline: str) -> None:
    """Append the text of obj to ``out``; ``newline`` breaks the line and
    indents it to obj's own depth."""
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        big = abs(obj) > INT_STRING_BOUND
        out.append(encode_basestring_ascii(str(obj)) if big else int.__repr__(obj))
    elif isinstance(obj, (dict, list, tuple)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = newline + "  "
        comma = "," + inner
        sep = inner
        if isinstance(obj, dict):
            out.append("{")
            for key, value in sorted({str(k): v for k, v in obj.items()}.items()):
                out += (sep, encode_basestring_ascii(key), ": ")
                _write(value, out, inner)
                sep = comma
            out += (newline, "}")
        else:
            out.append("[")
            for value in obj:
                out.append(sep)
                _write(value, out, inner)
                sep = comma
            out += (newline, "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def jsonable(obj):
    """A report made JSON-safe, as :func:`report_text` normalizes it."""
    return json.loads(report_text(obj))


def ring_to_json(ring: Ring) -> dict:
    if ring.modulus is None:
        return {"kind": "Z"}
    return {"kind": "Zmod", "n": ring.modulus}


def _ring_from_json(obj, field: str) -> Ring:
    if not isinstance(obj, dict):
        raise ModuleFileError(field, "expected an object")
    kind = obj.get("kind")
    if kind == "Z":
        return ZZ
    if kind == "Zmod":
        if "n" not in obj:
            raise ModuleFileError(f"{field}.n", "missing modulus")
        n = _decode_int(obj["n"], f"{field}.n")
        if n < 2:
            raise ModuleFileError(f"{field}.n", f"modulus must be >= 2, got {n}")
        return Zmod(n)
    raise ModuleFileError(f"{field}.kind", f"unknown ring kind {kind!r} (use Z or Zmod)")


def module_to_json(module: FgModule) -> dict:
    ring = ring_to_json(module.ring)
    if module.is_prufer:
        return {"ring": ring, "module": {"kind": "prufer", "p": module.prufer_prime}}
    return {
        "ring": ring,
        "module": {
            "kind": "invariant_factors",
            "factors": list(module.factors),
            "free_rank": module.free_rank,
        },
    }


def parse_module_file(text: str) -> FgModule:
    """Validated module from the documented JSON schema."""
    return load_module_file(text)[0]


def load_module_file(text: str) -> tuple[FgModule, dict]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModuleFileError("<file>", f"malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModuleFileError("<file>", "expected a JSON object")
    ring = _ring_from_json(data.get("ring"), "ring")
    desc = data.get("module")
    if not isinstance(desc, dict):
        raise ModuleFileError("module", "expected an object")
    kind = desc.get("kind")
    if kind == "invariant_factors":
        raw = desc.get("factors")
        if not isinstance(raw, list):
            raise ModuleFileError("module.factors", "expected a list")
        factors = tuple(
            _decode_int(x, f"module.factors[{i}]") for i, x in enumerate(raw)
        )
        free = _decode_int(desc.get("free_rank", 0), "module.free_rank")
        try:
            module = FgModule(ring, factors, free)
        except ValueError as exc:
            raise ModuleFileError("module", str(exc)) from exc
    elif kind == "presentation":
        gens = _decode_int(desc.get("generators"), "module.generators")
        raw = desc.get("relations")
        if not isinstance(raw, list):
            raise ModuleFileError("module.relations", "expected a list of rows")
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list):
                raise ModuleFileError(f"module.relations[{i}]", "expected a row")
            rows.append(
                [_decode_int(x, f"module.relations[{i}][{j}]") for j, x in enumerate(row)]
            )
        try:
            module = normalize(ring, gens, rows)
        except ValueError as exc:
            raise ModuleFileError("module", str(exc)) from exc
    elif kind == "prufer":
        p = _decode_int(desc.get("p"), "module.p")
        if not is_prime(p):
            raise ModuleFileError("module.p", f"{p} is not prime")
        if ring != ZZ:
            raise ModuleFileError("ring", "the Pruefer group is a Z-module")
        module = prufer_module(p)
    else:
        raise ModuleFileError(
            "module.kind",
            f"unknown module kind {kind!r} (use invariant_factors, presentation or prufer)",
        )
    caps = data.get("caps", {})
    if not isinstance(caps, dict):
        raise ModuleFileError("caps", "expected an object")
    for key in caps:
        if key not in CAP_KEYS:
            raise ModuleFileError(
                f"caps.{key}",
                "not supported; the caps that apply are cardinality and subgroup_enumeration",
            )
    return module, {key: _decode_cap(caps[key], f"caps.{key}") for key in CAP_KEYS if key in caps}


# ---------------------------------------------------------------------------
# result serializers
# ---------------------------------------------------------------------------

def ideal_json(a: Ideal) -> dict:
    return {"ring": str(a.ring), "generator": a.gen}


def submodule_json(sub: Submodule) -> dict:
    return {
        "basis": [list(row) for row in sub.basis],
        "order": sub.order(),
        "index": sub.index(),
        "is_full": sub.is_full,
        "is_zero": sub.is_zero,
    }


def localized_json(loc: LocalizedModule) -> dict:
    return {
        "base_ring": str(loc.ring),
        "kind": loc.kind,
        "factors": list(loc.factors),
        "free_rank": loc.free_rank,
        "cardinality": loc.cardinality,
    }


def open_json(o: OpenSet) -> list[int]:
    return sorted(o.fiber_primes)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _parse_submodule(module: FgModule, text: str) -> Submodule:
    """Semicolon-separated generator vectors in canonical coordinates
    (invariant-factor coordinates first, then free coordinates)."""
    gens = []
    text = text.strip()
    if text:
        for chunk in text.split(";"):
            coords = [c.strip() for c in chunk.split(",")]
            if len(coords) != module.rank:
                raise ModuleFileError(
                    "--submodule",
                    f"generator {chunk!r} has {len(coords)} coordinates, expected {module.rank}",
                )
            try:
                gens.append(module.element([int(c) for c in coords]))
            except ValueError as exc:
                raise ModuleFileError("--submodule", str(exc)) from exc
    return submodule_from_generators(module, gens)


def _mult_set_from_args(args) -> MultSet:
    from .localization import MultSet

    if args.invert is not None and args.at is not None:
        raise ModuleFileError("--invert/--at", "choose exactly one")
    if args.invert is not None:
        return MultSet.powers_of(args.invert)
    if args.at is not None:
        try:
            return MultSet.complement_of_prime(args.at)
        except ValueError as exc:
            raise ModuleFileError("--at", str(exc)) from exc
    raise ModuleFileError("--invert/--at", "choose exactly one")


def cmd_spec(module, args, caps):
    spectrum = spec_enumerate(
        module,
        args.strategy,
        subgroup_cap=caps.get("subgroup_enumeration", DEFAULT_SUBGROUP_CAP),
        card_cap=caps.get("cardinality", DEFAULT_CARDINALITY_CAP),
    )
    fibers = {
        str(p): [submodule_json(ps.sub) for ps in chunk]
        for p, chunk in spectrum.fibers
    }
    nm = natural_map(spectrum)
    return {
        "fibers": fibers,
        "point_count": len(spectrum),
        "relevant_primes": sorted(spectrum.fiber_primes),
        "primeful": nm.surjective,
        "strategy": args.strategy,
    }


def cmd_radical(module, args, caps):
    sub = _parse_submodule(module, args.submodule)
    method = "closed_form" if args.strategy == "classified" else args.strategy
    rad = prime_radical(sub, method, caps.get("cardinality", DEFAULT_CARDINALITY_CAP))
    return {
        "submodule": submodule_json(sub),
        "prime_radical": submodule_json(rad),
        "method": method,
    }


def cmd_colon(module, args, caps):
    sub = _parse_submodule(module, args.submodule)
    return {
        "submodule": submodule_json(sub),
        "colon_ideal": ideal_json(colon(sub)),
        "annihilator": ideal_json(module.annihilator()),
    }


def cmd_pradical(module, args, caps):
    res = is_pradical(module)
    cert = None
    if res.certificate is not None:
        cert = {
            "prime": res.certificate.prime_ideal.gen,
            "lhs": ideal_json(res.certificate.lhs),
            "rhs": ideal_json(res.certificate.rhs),
        }
    out = {"pradical": res.holds, "certificate": cert}
    if res.note:
        out["note"] = res.note
    return out


def cmd_localize(module, args, caps):
    from .localization import localize

    ms = _mult_set_from_args(args)
    return {
        "mult_set": str(ms),
        "localized": localized_json(localize(module, ms)),
    }


def cmd_sheaf(module, args, caps):
    from .sheaf import psi_map

    text = args.open.strip()
    if not (text.startswith("D(") and text.endswith(")")):
        raise ModuleFileError("--open", f"expected an open of the form D(f), got {text!r}")
    try:
        f = int(text[2:-1])
    except ValueError as exc:
        raise ModuleFileError("--open", f"non-integer scalar in {text!r}") from exc
    psi = psi_map(module, f)
    space = psi.space
    return {
        "open": {"f": f, "fibers": open_json(space.open_set)},
        "section_space": {
            "factors": list(space.carrier.factors),
            "free_rank": space.carrier.free_rank,
            "cardinality": space.cardinality,
            "stalks": {str(p): localized_json(loc) for p, loc in space.stalks},
        },
        "psi": {
            "domain": localized_json(psi.domain),
            "bijective": psi.bijective,
        },
    }


def cmd_cover(module, args, caps):
    from .sheaf import cover_decompose

    try:
        hs = [int(h) for h in args.hs.split(",") if h.strip()]
    except ValueError as exc:
        raise ModuleFileError("--hs", f"non-integer scalar in {args.hs!r}") from exc
    dec = cover_decompose(module, args.f, hs)
    return {
        "f": args.f,
        "hs": hs,
        "exponent": dec.exponent,
        "pairs": [[r, b] for r, b in dec.pairs],
        "colon_ideals": [ideal_json(a) for a in dec.colon_ideals],
        "open_f": open_json(dec.open_f),
        "open_r_union": open_json(dec.open_r_union),
        "covers_exactly": dec.covers_exactly,
    }


def cmd_iso(module, args, caps):
    from .sheaf import iso_criterion

    res = iso_criterion(module, args.f, args.g)
    return {
        "f": args.f,
        "g": args.g,
        "radical_f": ideal_json(res.radical_f),
        "radical_g": ideal_json(res.radical_g),
        "radicals_equal": res.radicals_equal,
        "modules_isomorphic": res.modules_isomorphic,
        "localized_f": localized_json(res.loc_f),
        "localized_g": localized_json(res.loc_g),
    }


def cmd_verify(module, args, caps):
    from .verify import run_suite

    modules = None if module is None else [module]
    results = run_suite(args.suite, modules)
    return {
        "suites": [
            {
                "suite": r.suite,
                "description": r.description,
                "checks": r.checks,
                "failures": list(r.failures),
            }
            for r in results
        ],
        "scope": "corpus" if module is None else "file",
    }


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit 1, not argparse's 2, which
    this CLI keeps for a failed property.  Subcommand parsers inherit the
    class through ``parser_class``."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


STRATEGIES = ("bruteforce", "classified", "both")
_FILE = "module file (JSON)"
_SUBMODULE = ("--submodule", str, True, None, "generators, e.g. '1,0;0,2'")

# The CLI's one grammar: each command's handler, its help, the help of its
# FILE and its options, each (flag, type, required, choices, help).
# build_parser builds argparse's parser from it, _parse_plain reads plain
# argvs off it and main dispatches through it.
GRAMMAR = {
    "spec": (cmd_spec, "enumerate Spec(M) by fiber", _FILE, ()),
    "radical": (cmd_radical, "prime radical of a submodule", _FILE, (_SUBMODULE,)),
    "colon": (cmd_colon, "colon ideal (N : M)", _FILE, (_SUBMODULE,)),
    "pradical": (cmd_pradical, "test the prime radical condition", _FILE, ()),
    "localize": (cmd_localize, "localize at a multiplicative set", _FILE, (
        ("--invert", int, False, None, "invert the powers of f"),
        ("--at", int, False, None, "localize at the prime (p)"),
    )),
    "sheaf": (cmd_sheaf, "section space and comparison map over a basic open", _FILE, (
        ("--open", str, True, None, "basic open, e.g. 'D(2)'"),
    )),
    "cover": (cmd_cover, "decompose a power of f over a basic-open cover", _FILE, (
        ("--f", int, True, None, None),
        ("--hs", str, True, None, "comma-separated covering scalars"),
    )),
    "iso": (cmd_iso, "localization isomorphism criterion for f and g", _FILE, (
        ("--f", int, True, None, None),
        ("--g", int, True, None, None),
    )),
    "verify": (cmd_verify, "run a property suite on a file or the corpus",
               "module file, or the literal 'corpus'", (
        ("--suite", str, True, (*SUITE_NAMES, "all"), "which family of checks to run"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modspec",
        description="Exact prime spectra, localizations and structure sheaves "
        "of finitely generated modules over Z and Z/n.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        help="spectrum enumeration strategy, read by spec and radical only "
        "(default: both, agreement enforced, for spec; the closed form, "
        "which builds no point, for radical)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, file_help, options) in GRAMMAR.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help=file_help)
        for flag, kind, required, choices, option_help in options:
            p.add_argument(flag, type=kind, required=required, choices=choices, help=option_help)
    return parser


def _parse_plain(argv) -> argparse.Namespace | None:
    """What ``PARSER.parse_args(argv)`` returns on a plain argv,
    ``[--quiet] [--strategy S] COMMAND FILE (--flag VALUE)*`` with each flag
    the command's own, spelled in full and given at most once, and no FILE
    or VALUE starting with '-'.  None on any other argv, or on one argparse
    refuses, which ``main`` then hands to argparse."""
    quiet, strategy, i = False, None, 0
    while i < len(argv) and argv[i] in ("--quiet", "--strategy"):
        if argv[i] == "--quiet":
            quiet, i = True, i + 1
        elif i + 1 < len(argv) and argv[i + 1] in STRATEGIES:
            strategy, i = argv[i + 1], i + 2
        else:
            return None
    rest = argv[i:]
    if len(rest) < 2 or len(rest) % 2 or rest[0] not in GRAMMAR or rest[1].startswith("-"):
        return None
    given = dict(zip(rest[2::2], rest[3::2]))
    if len(given) < len(rest) // 2 - 1:  # a flag given twice
        return None
    values = {}
    for flag, kind, required, choices, _ in GRAMMAR[rest[0]][3]:
        value = given.pop(flag, None)
        if value is None:
            if required:
                return None
        elif value.startswith("-") or (choices and value not in choices):
            return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        values[flag[2:]] = value
    if given:  # a flag the command does not have
        return None
    return argparse.Namespace(quiet=quiet, strategy=strategy, command=rest[0], file=rest[1], **values)


PARSER = build_parser()

# --strategy when it is not given.  spec keeps both: the reports that
# perfbench's oracle checks name that strategy.
DEFAULT_STRATEGY = {"spec": "both", "radical": "classified"}


def _report(inputs: dict, result: dict, status: str, quiet: bool) -> int:
    """Write the report of one command to stdout, its summary line to
    stderr unless quiet, and return the exit code of its status."""
    command = inputs["command"]
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "status": status,
    }
    sys.stdout.write(report_text(report) + "\n")
    if not quiet:
        line = f"modspec {command}: {status}"
        if status == "violation":
            line += " (a verified property failed; see the report)"
        print(line, file=sys.stderr)
    return {"ok": 0, "error": 1, "violation": 2}[status]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse_plain(argv) or PARSER.parse_args(argv)
    command = args.command
    if args.strategy is None:
        args.strategy = DEFAULT_STRATEGY.get(command)
    inputs: dict = {"command": command}
    quiet = args.quiet

    try:
        module = None
        caps: dict = {}
        if command == "verify" and args.file == "corpus":
            inputs["scope"] = "corpus"
        else:
            try:
                with open(args.file, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                raise ModuleFileError("<file>", f"cannot read {args.file}: {exc}")
            # read as text mode read it: a BOM is kept for the parser to refuse,
            # and \r\n and \r become \n, so a JSON error names the same offset
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            module, caps = load_module_file(text)
            inputs["module"] = module_to_json(module)
        if caps:
            # a copy: the override below applies to the run, not to the echo
            inputs["caps"] = dict(caps)
        env_cap = os.environ.get("MODSPEC_CARD_CAP")
        if env_cap is not None:
            try:
                cap = int(env_cap)
            except ValueError:
                raise ValueError(f"MODSPEC_CARD_CAP: expected an integer, got {env_cap!r}") from None
            if cap < 0:
                raise ValueError(f"MODSPEC_CARD_CAP: cap must be >= 0, got {cap}")
            caps["cardinality"] = cap
        for key, value in vars(args).items():
            if key not in ("command", "file", "quiet", "strategy") and value is not None:
                inputs[key] = value
        if command == "spec":
            inputs["strategy"] = args.strategy

        result = GRAMMAR[command][0](module, args, caps)
    except (ValueError, CapExceededError) as exc:
        return _report(inputs, {"error": str(exc)}, "error", quiet)
    except PropertyViolation as exc:
        return _report(inputs, {"violation": str(exc)}, "violation", quiet)

    failed = command == "verify" and any(r["failures"] for r in result["suites"])
    return _report(inputs, result, "violation" if failed else "ok", quiet)


if __name__ == "__main__":
    raise SystemExit(main())
