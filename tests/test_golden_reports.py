"""Every CLI report pinned byte for byte.

Each case runs one argv through ``cli.main`` on module files written by
the test and compares a short SHA-256 of (exit code, stdout) with the
digest recorded for it.  The cases cover every command and ``--strategy``,
modules over Z and Z/n, the zero module, the Pruefer group, a
presentation and free rank, and refusals past a cap, bad command lines
and a failed property.  A report that moves fails its own case, named by
its argv; a deliberate report change updates the digest and says so in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json

import pytest

from modspec import sheaf
from modspec.cli import main

Z = {"kind": "Z"}


def factors(ring, fs, free_rank=0, **extra):
    return {
        "ring": ring,
        "module": {"kind": "invariant_factors", "factors": fs, "free_rank": free_rank},
        **extra,
    }


MODULES = {
    "z12": factors(Z, [12]),
    "z2x4": factors(Z, [2, 4]),
    "z3": factors(Z, [3]),
    "zmod12": factors({"kind": "Zmod", "n": 12}, [2, 6]),
    "zero": factors(Z, []),
    "zero-zmod4": factors({"kind": "Zmod", "n": 4}, []),
    "pruefer3": {"ring": Z, "module": {"kind": "prufer", "p": 3}},
    "presentation": {
        "ring": Z,
        "module": {"kind": "presentation", "generators": 2, "relations": [[2, 4], [6, 8]]},
    },
    "free": factors(Z, [6], free_rank=1),
    "f2^7": factors(Z, [2] * 7),
    "z5000": factors(Z, [5000]),
    "card-cap": factors(Z, [2, 4], caps={"cardinality": 4}),
    "subgroup-cap": factors(Z, [2, 4], caps={"subgroup_enumeration": 7}),
    "unknown-cap": factors(Z, [6], caps={"factor_bound": 2}),
    # 10000019 * 10000079: two primes past the trial-division bound 10^7,
    # split by Pollard-Brent and certified by Miller-Rabin
    "two-large-primes": factors(Z, [100000980001501]),
    "z2p": factors(Z, [2 * 10000019]),
    "zmod30": factors({"kind": "Zmod", "n": 30}, [2]),
    "non-ascii-ring": factors({"kind": "Z\u00e9"}, [2]),
    # files given as bytes are written as they are: the read decodes UTF-8,
    # keeps a byte-order mark (which the JSON parser refuses) and turns
    # CRLF into LF before the parser counts offsets
    "crlf-syntax-error": b'{"ring": {"kind": "Z"},\r\n "module": {"kind": "prufer" "p": 3}}\r\n',
    "bom": b"\xef\xbb\xbf" + json.dumps({"ring": Z, "module": {"kind": "prufer", "p": 3}}).encode(),
    "non-utf8": b'{"ring": {"kind": "Z"}, "module": {"kind": "prufer", "p": 3}, "\xff": 1}',
}

# (argv with @name for the file of MODULES[name], digest of (exit code, stdout))
CASES = [
    (["spec", "@z12"], "33a5d81faca6ee79"),
    (["--strategy", "classified", "spec", "@z12"], "8629499a9d9e918b"),
    (["--strategy", "bruteforce", "spec", "@z2x4"], "690390f54d02266a"),
    (["--strategy", "both", "spec", "@zmod12"], "79b2522db3490e6f"),
    (["spec", "@zero"], "c1ec8711b15912d9"),
    (["--strategy", "bruteforce", "spec", "@zero-zmod4"], "940cda3d245fe886"),
    (["--strategy", "classified", "spec", "@zero"], "55821d680274b70c"),
    (["spec", "@pruefer3"], "5b6b8d98ea255812"),
    (["spec", "@presentation"], "d75847d3a74f2a6a"),
    (["spec", "@free"], "a43c8861ee2129c8"),
    (["spec", "@f2^7"], "f83f390301d95a3f"),
    (["--strategy", "classified", "spec", "@f2^7"], "8817aac2b7953205"),
    (["spec", "@card-cap"], "4752be2f0b402e7f"),
    (["spec", "@subgroup-cap"], "9f08401e351f34f5"),
    (["spec", "@unknown-cap"], "f643997ad0c12267"),
    (["radical", "@z12", "--submodule", "4"], "9d6e83557d36fd4e"),
    (["--strategy", "both", "radical", "@z2x4", "--submodule", "0,2"], "c721cbc775060112"),
    (["--strategy", "bruteforce", "radical", "@zmod12", "--submodule", "1,0"], "9ed1dba90dc36b1e"),
    (["radical", "@zero", "--submodule", ""], "6b6ea1812cc15813"),
    (["--strategy", "both", "radical", "@zero", "--submodule", ""], "97e642297530cddc"),
    (
        ["--strategy", "bruteforce", "radical", "@f2^7", "--submodule", "0,0,0,0,0,0,0"],
        "404289659f925c62",
    ),
    (["colon", "@z12", "--submodule", "4"], "1526f0d829038f87"),
    (["colon", "@zero-zmod4", "--submodule", ""], "256f9eb8787750d2"),
    (["colon", "@free", "--submodule", "0,1"], "46f55fd38174d46f"),
    (["colon", "@z12", "--submodule", "1,2"], "e5228080ccbd2000"),
    (["pradical", "@z12"], "a58720588f982a46"),
    (["pradical", "@pruefer3"], "2ace4e38f4515a7b"),
    (["pradical", "@zero"], "1d28b1013388fd18"),
    (["pradical", "@free"], "3021746e3136a4a5"),
    (["localize", "@z12", "--at", "2"], "615b10aec61785d9"),
    (["localize", "@zmod12", "--invert", "3"], "22124c58dc1054f1"),
    (["localize", "@z12", "--invert", "0"], "53c33d985ff4e897"),
    (["localize", "@pruefer3", "--invert", "3"], "585f3d504b927754"),
    (["localize", "@free", "--invert", "2"], "f88be6567a265003"),
    (["localize", "@zero", "--at", "5"], "01b3a365a45d70f5"),
    (["localize", "@z12", "--at", "4"], "353fd31b060796b5"),
    (["sheaf", "@z12", "--open", "D(2)"], "f282f0467f9d0a9d"),
    (["sheaf", "@zmod12", "--open", "D(0)"], "2570c0bc319fc7ea"),
    (["sheaf", "@zero", "--open", "D(1)"], "aa72a26c19321c2e"),
    (["sheaf", "@zero-zmod4", "--open", "D(0)"], "7f40a57c028562f6"),
    (["sheaf", "@pruefer3", "--open", "D(2)"], "512ea8fe754de7c6"),
    (["sheaf", "@pruefer3", "--open", "D(3)"], "8ac7dcf35b709281"),
    (["sheaf", "@free", "--open", "D(1)"], "7fe223b12eb60b42"),
    (["sheaf", "@z5000", "--open", "D(1)"], "4ae324126a236cd8"),
    (["sheaf", "@z12", "--open", "E(2)"], "f9bb0a5b5e1fa28a"),
    # f = 10000103 * 10000121 meets no prime of M, so M_f = M, and psi is
    # decided bijective on |M| ~ 10^14 without walking it
    (["sheaf", "@two-large-primes", "--open", "D(100002240012463)"], "6eba5fb48d0d53de"),
    (["cover", "@z12", "--f", "1", "--hs", "4,9"], "95a4a0876a05b9e5"),
    (["cover", "@zmod12", "--f", "2", "--hs", "3"], "54f34f03f5c88a45"),
    (["cover", "@pruefer3", "--f", "1", "--hs", "2"], "3f1d997a75d0109b"),
    # every colon ideal is (0): the Bezout combination of f = 0 has gcd 0
    (["cover", "@pruefer3", "--f", "0", "--hs", "0"], "c46e6ad22aff91ea"),
    (["cover", "@z12", "--f", "1", "--hs", "2,x"], "1670f663259edecb"),
    (["iso", "@z12", "--f", "2", "--g", "10"], "e0c5d79b2e2d896d"),
    (["iso", "@pruefer3", "--f", "3", "--g", "2"], "896dd5134916953a"),
    (["iso", "@zero-zmod4", "--f", "0", "--g", "1"], "78c87e4bf3f1314f"),
    (["verify", "@z12", "--suite", "all"], "b72566b27fdb7eaf"),
    (["verify", "@zmod12", "--suite", "3.1"], "d843c9cd3ad2de0a"),
    (["verify", "@z2x4", "--suite", "2.3"], "3166088f642b1fe6"),
    (["verify", "@z12", "--suite", "2.4"], "61456027f3ba4336"),
    (["verify", "@z3", "--suite", "3.2"], "32eb24a0a1093d45"),
    (["verify", "@zero", "--suite", "all"], "9d5469ddcc2a896f"),
    (["verify", "@pruefer3", "--suite", "4.1"], "d46580f2fc4848ef"),
    (["verify", "@z12", "--suite", "sheaf-axioms"], "07276d3ac1d29209"),
    (["verify", "@free", "--suite", "2.1"], "7b22a87bc1325e23"),
    (["radical", "@z12"], "4355a46b19d348dc"),
    (["--strategy", "fast", "spec", "@z12"], "4355a46b19d348dc"),
    # an echoed integer past INT_STRING_BOUND, and a non-ASCII error text
    (["localize", "@z12", "--invert", "9007199254740993"], "43c1672ecf870a03"),
    (["localize", "@z12", "--invert", "-9007199254740993"], "a89c32337ac53672"),
    (["spec", "@non-ascii-ring"], "9350130a1b4ee88e"),
    # the base ring of M_f: primes of f inside and outside the module's
    # exponent, and nilpotent f over Z/n
    (["localize", "@free", "--invert", "70"], "2a15c205100764ef"),
    (["localize", "@zero", "--invert", "12"], "22ab4075e4c2e77f"),
    (["localize", "@zmod30", "--invert", "15"], "2d83ed017a7e2cbc"),
    (["localize", "@zmod30", "--invert", "30"], "938203bb270f0a27"),
    (["localize", "@zmod12", "--invert", "6"], "eef9e1b8d2de6edd"),
    (["localize", "@zero-zmod4", "--invert", "2"], "d17333f57b2ae163"),
    (["iso", "@zmod30", "--f", "3", "--g", "9"], "3bfe29eee8444f46"),
    (["localize", "@two-large-primes", "--invert", "0"], "0e5f80c8accd41a1"),
    # M_f = M: both factorizations are answered
    (["localize", "@two-large-primes", "--invert", "100002240012463"], "3785e722b5debd6f"),
    # 10000019 divides the exponent, so only 10000079 is factored
    (["localize", "@z2p", "--invert", "100000980001501"], "1b66fd0e070fc464"),
    # a finite module is pradical, and the primes of M are now answered
    (["pradical", "@two-large-primes"], "69be9185a0123c99"),
    (["pradical", "@crlf-syntax-error"], "5fcd54c92b958332"),
    (["pradical", "@bom"], "714367a17aff16af"),
    (["pradical", "@non-utf8"], "aac874e5555fda05"),
]

# a failed property: with every localization declared non-isomorphic, the
# criterion's two sides disagree wherever the radicals are equal
VIOLATION = (["verify", "@z12", "--suite", "4.1"], "5c54ccb91500f87c")


def case_id(argv):
    return " ".join(argv)


def run_case(tmp_path, argv):
    """Exit code and stdout of ``main`` on argv, each @name replaced by the
    path of a file holding ``MODULES[name]``."""
    args = []
    for a in argv:
        if a.startswith("@"):
            path = tmp_path / f"{a[1:]}.json"
            data = MODULES[a[1:]]
            path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
            a = str(path)
        args.append(a)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def digest(code, stdout) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


@pytest.mark.parametrize("argv, expected", CASES, ids=[case_id(a) for a, _ in CASES])
def test_report_is_unchanged(tmp_path, argv, expected):
    assert digest(*run_case(tmp_path, argv)) == expected


def test_violation_report_is_unchanged(tmp_path, monkeypatch):
    monkeypatch.setattr(sheaf, "iso_class_equal", lambda a, b: False)
    argv, expected = VIOLATION
    code, stdout = run_case(tmp_path, argv)
    assert code == 2 and digest(code, stdout) == expected


def test_cases_are_distinct_and_cover_every_command():
    ids = [case_id(a) for a, _ in CASES]
    assert len(set(ids)) == len(ids)
    commands = {a for argv, _ in CASES for a in argv if not a.startswith(("@", "-"))}
    assert commands >= {
        "spec", "radical", "colon", "pradical", "localize", "sheaf", "cover", "iso", "verify",
    }
