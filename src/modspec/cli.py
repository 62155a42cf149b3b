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
form N + rM, which builds no point of the spectrum.  A classified spec and a
brute-force radical build every point, so they first count the points in
closed form and refuse a spectrum larger than the cardinality cap.

The argument parser is built once, when this module is imported, and
every ``main`` call parses with it; argparse makes a fresh namespace per
parse, so no argument carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import ZZ, Ideal, Ring, Zmod, is_prime
from .fgmodules import (
    DEFAULT_CARDINALITY_CAP,
    DEFAULT_SUBGROUP_CAP,
    CapExceededError,
    FgModule,
    Submodule,
    UnsupportedModuleError,
    colon,
    normalize,
    prufer_module,
    submodule_from_generators,
)
from .localization import LocalizedModule, MultSet, localize
from .sheaf import CoverError, cover_decompose, iso_criterion, psi_map, sections
from .spectrum import (
    OpenSet,
    PropertyViolation,
    basic_open,
    is_pradical,
    natural_map,
    prime_radical,
    spec_enumerate,
)
from .verify import SUITES, run_suite

SCHEMA_VERSION = 1
INT_STRING_BOUND = 2**53


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


def _encode_int(x: int):
    return str(x) if abs(x) > INT_STRING_BOUND else x


def jsonable(obj):
    """Recursively make a report JSON-safe, stringifying huge integers."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return _encode_int(obj)
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
    if "factor_bound" in caps:
        raise ModuleFileError(
            "caps.factor_bound",
            "not supported; the caps that apply are cardinality and subgroup_enumeration",
        )
    parsed_caps = {}
    for key in ("cardinality", "subgroup_enumeration"):
        if key in caps:
            parsed_caps[key] = _decode_int(caps[key], f"caps.{key}")
    return module, parsed_caps


# ---------------------------------------------------------------------------
# result serializers
# ---------------------------------------------------------------------------

def ideal_json(a: Ideal) -> dict:
    return {"ring": str(a.ring), "generator": a.gen}


def submodule_json(sub: Submodule) -> dict:
    if sub.parent.is_prufer:
        return {"symbolic": sub.symbolic}
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


def _refuse_points_over_cap(spectrum, caps) -> None:
    """Refuse a spectrum with more points than the cardinality cap before
    any of its fibers is built: its length is the closed-form count."""
    cap = caps.get("cardinality", DEFAULT_CARDINALITY_CAP)
    count = len(spectrum)
    if count > cap:
        raise CapExceededError(f"|Spec(M)| = {count} exceeds the cardinality cap {cap}")


def cmd_spec(module, args, caps):
    spectrum = spec_enumerate(
        module,
        args.strategy,
        subgroup_cap=caps.get("subgroup_enumeration", DEFAULT_SUBGROUP_CAP),
        card_cap=caps.get("cardinality", DEFAULT_CARDINALITY_CAP),
    )
    if args.strategy == "classified":
        # bruteforce and both have built and checked their points already,
        # within the subgroup cap
        _refuse_points_over_cap(spectrum, caps)
    fibers = {
        str(p): [submodule_json(ps.sub) for ps in chunk]
        for p, chunk in spectrum.fibers
    }
    nm = natural_map(module, spectrum)
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
    if method != "closed_form" and module.is_finite:
        # the brute-force radical intersects over every point of Spec(M)
        _refuse_points_over_cap(spec_enumerate(module), caps)
    rad = prime_radical(sub, module, method)
    return {
        "submodule": submodule_json(sub),
        "prime_radical": submodule_json(rad),
        "method": method,
    }


def cmd_colon(module, args, caps):
    sub = _parse_submodule(module, args.submodule)
    return {
        "submodule": submodule_json(sub),
        "colon_ideal": ideal_json(colon(sub, module)),
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
    ms = _mult_set_from_args(args)
    return {
        "mult_set": str(ms),
        "localized": localized_json(localize(module, ms)),
    }


def cmd_sheaf(module, args, caps):
    text = args.open.strip()
    if not (text.startswith("D(") and text.endswith(")")):
        raise ModuleFileError("--open", f"expected an open of the form D(f), got {text!r}")
    try:
        f = int(text[2:-1])
    except ValueError as exc:
        raise ModuleFileError("--open", f"non-integer scalar in {text!r}") from exc
    spectrum = spec_enumerate(module)
    u = basic_open(f, module, spectrum)
    space = sections(module, u)
    psi = psi_map(module, f, caps.get("cardinality", DEFAULT_CARDINALITY_CAP))
    return {
        "open": {"f": f, "fibers": open_json(u)},
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


COMMANDS = {
    "spec": cmd_spec,
    "radical": cmd_radical,
    "colon": cmd_colon,
    "pradical": cmd_pradical,
    "localize": cmd_localize,
    "sheaf": cmd_sheaf,
    "cover": cmd_cover,
    "iso": cmd_iso,
    "verify": cmd_verify,
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modspec",
        description="Exact prime spectra, localizations and structure sheaves "
        "of finitely generated modules over Z and Z/n.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    parser.add_argument(
        "--strategy",
        choices=["bruteforce", "classified", "both"],
        help="spectrum enumeration strategy, read by spec and radical only "
        "(default: both, agreement enforced, for spec; the closed form, "
        "which builds no point, for radical)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="module file (JSON)")
        return p

    add("spec", "enumerate Spec(M) by fiber")
    p = add("radical", "prime radical of a submodule")
    p.add_argument("--submodule", required=True, help="generators, e.g. '1,0;0,2'")
    p = add("colon", "colon ideal (N : M)")
    p.add_argument("--submodule", required=True, help="generators, e.g. '1,0;0,2'")
    add("pradical", "test the prime radical condition")
    p = add("localize", "localize at a multiplicative set")
    p.add_argument("--invert", type=int, help="invert the powers of f")
    p.add_argument("--at", type=int, help="localize at the prime (p)")
    p = add("sheaf", "section space and comparison map over a basic open")
    p.add_argument("--open", required=True, help="basic open, e.g. 'D(2)'")
    p = add("cover", "decompose a power of f over a basic-open cover")
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--hs", required=True, help="comma-separated covering scalars")
    p = add("iso", "localization isomorphism criterion for f and g")
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p = sub.add_parser("verify", help="run a property suite on a file or the corpus")
    p.add_argument("file", help="module file, or the literal 'corpus'")
    p.add_argument(
        "--suite",
        required=True,
        choices=sorted(SUITES) + ["all"],
        help="which family of checks to run",
    )
    return parser


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
    sys.stdout.write(json.dumps(jsonable(report), sort_keys=True, indent=2) + "\n")
    if not quiet:
        line = f"modspec {command}: {status}"
        if status == "violation":
            line += " (a verified property failed; see the report)"
        print(line, file=sys.stderr)
    return {"ok": 0, "error": 1, "violation": 2}[status]


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
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
                with open(args.file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ModuleFileError("<file>", f"cannot read {args.file}: {exc}")
            module, caps = load_module_file(text)
            inputs["module"] = module_to_json(module)
        if caps:
            # a copy: the override below applies to the run, not to the echo
            inputs["caps"] = dict(caps)
        env_cap = os.environ.get("MODSPEC_CARD_CAP")
        if env_cap is not None:
            try:
                caps["cardinality"] = int(env_cap)
            except ValueError:
                raise ValueError(f"MODSPEC_CARD_CAP: expected an integer, got {env_cap!r}") from None
        for key, value in (
            ("f", getattr(args, "f", None)),
            ("g", getattr(args, "g", None)),
            ("hs", getattr(args, "hs", None)),
            ("submodule", getattr(args, "submodule", None)),
            ("open", getattr(args, "open", None)),
            ("invert", getattr(args, "invert", None)),
            ("at", getattr(args, "at", None)),
            ("suite", getattr(args, "suite", None)),
            ("strategy", args.strategy if command == "spec" else None),
        ):
            if value is not None:
                inputs[key] = value

        result = COMMANDS[command](module, args, caps)
    except (ModuleFileError, CoverError, UnsupportedModuleError, CapExceededError, ValueError) as exc:
        return _report(inputs, {"error": str(exc)}, "error", quiet)
    except PropertyViolation as exc:
        return _report(inputs, {"violation": str(exc)}, "violation", quiet)

    failed = command == "verify" and any(r["failures"] for r in result["suites"])
    return _report(inputs, result, "violation" if failed else "ok", quiet)


if __name__ == "__main__":
    raise SystemExit(main())
