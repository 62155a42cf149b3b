import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from modspec import spectrum as spectrum_module, verify
from modspec.arith import ZZ, NotInRadicalError, Ring, Zmod, bezout_decompose, ideal, ideal_radical
from modspec.cli import main
from modspec.corpus import finite_corpus
from modspec.fgmodules import (
    CapExceededError,
    FgModule,
    UnsupportedModuleError,
    all_submodules,
    colon,
    direct_sum,
    from_cyclic_orders,
    normalize,
    prufer_module,
    scalar_multiple_submodule,
    submodule_from_generators,
    submodule_from_lattice,
    zero_module,
)
from modspec.localization import (
    LocalizedModule,
    MultSet,
    invariant_factors_from_orders,
    localize,
    localize_bruteforce,
    prime_correspondence,
)
from modspec.sheaf import cover_decompose, psi_map, sections, stalk
from modspec.spectrum import (
    PrimeSubmodule,
    StrategyMismatchError,
    _fiber_classified,
    _fiber_size,
    _subspace_bases,
    basic_open,
    is_pradical,
    is_prime_submodule,
    natural_map,
    prime_radical,
    spec_enumerate,
    variety,
)
from test_kernel_counts import clear_caches

SMALL_CORPUS = [
    from_cyclic_orders(ZZ, o)
    for o in [(2,), (4,), (6,), (12,), (2, 2), (2, 4), (2, 6), (3, 3), (2, 2, 2), (36,), (4, 8)]
] + [
    normalize(Zmod(12), 1, [[4]]),
    normalize(Zmod(12), 1, []),
    normalize(Zmod(36), 2, [[6, 0], [0, 6]]),
    normalize(Zmod(4), 1, []),
]


# ---------------------------------------------------------------------------
# prime testing
# ---------------------------------------------------------------------------

def test_is_prime_examples():
    m = from_cyclic_orders(ZZ, [4])
    p = submodule_from_generators(m, [m.element([2])])
    assert is_prime_submodule(p) == ideal(ZZ, 2)

    assert is_prime_submodule(m.zero_submodule()) is None
    assert is_prime_submodule(m.full_submodule()) is None


def test_bruteforce_enumeration_lists_the_module_once(monkeypatch):
    real = FgModule.elements
    yielded = []

    def counting(self, *args, **kwargs):
        for x in real(self, *args, **kwargs):
            yielded.append(x)
            yield x

    monkeypatch.setattr(FgModule, "elements", counting)
    for module in SMALL_CORPUS:
        for strategy in ("bruteforce", "both"):
            spec_enumerate.cache_clear()
            yielded.clear()
            spectrum = spec_enumerate(module, strategy)
            assert len(yielded) == module.cardinality, (str(module), strategy)
            assert len(spectrum) == sum(_fiber_size(module, p) for p in spectrum.fiber_primes)
    spec_enumerate.cache_clear()


def test_is_prime_rejects_infinite():
    free = normalize(ZZ, 1, [])
    with pytest.raises(UnsupportedModuleError):
        is_prime_submodule(free.zero_submodule())


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_spec_z6():
    m = from_cyclic_orders(ZZ, [6])
    spec = spec_enumerate(m, "both")
    assert spec.fiber_primes == {2, 3}
    (p2,) = spec.fiber(2)
    (p3,) = spec.fiber(3)
    assert p2.sub == scalar_multiple_submodule(2, m)
    assert p3.sub == scalar_multiple_submodule(3, m)


def test_spec_klein():
    m = from_cyclic_orders(ZZ, [2, 2])
    spec = spec_enumerate(m, "both")
    assert spec.fiber_primes == {2}
    fiber = spec.fiber(2)
    assert len(fiber) == 4  # zero submodule and the three order-2 subgroups
    orders = sorted(ps.sub.order() for ps in fiber)
    assert orders == [1, 2, 2, 2]


def test_spec_prufer_and_zero():
    assert spec_enumerate(prufer_module(3)).is_empty
    assert spec_enumerate(zero_module(ZZ)).is_empty


@pytest.mark.parametrize("module", SMALL_CORPUS, ids=str)
def test_strategy_agreement(module):
    spec_enumerate(module, "both")  # raises StrategyMismatchError on disagreement


@pytest.mark.parametrize("module", SMALL_CORPUS, ids=str)
def test_fibers_nonempty_and_correctly_labeled(module):
    spec = spec_enumerate(module, "both")
    assert spec.fiber_primes == set(module.relevant_primes())
    for p, chunk in spec.fibers:
        assert chunk
        for ps in chunk:
            assert ps.char_ideal == ideal(module.ring, p)
            assert colon(ps.sub) == ps.char_ideal
            assert not ps.sub.is_full


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------

def test_variety_examples():
    m = from_cyclic_orders(ZZ, [6])
    assert variety(m.zero_submodule()).fiber_primes == {2, 3}
    assert variety(m.full_submodule()).fiber_primes == set()
    assert variety(scalar_multiple_submodule(2, m)).fiber_primes == {2}


def test_basic_open_examples():
    m = from_cyclic_orders(ZZ, [6])
    assert basic_open(3, m).fiber_primes == {2}
    assert basic_open(1, m).fiber_primes == {2, 3}

    m12 = normalize(Zmod(12), 1, [])
    assert basic_open(6, m12).fiber_primes == set()


@pytest.mark.parametrize("module", SMALL_CORPUS, ids=str)
def test_basic_open_is_nondivisibility(module):
    spec = spec_enumerate(module)
    for f in range(0, 8):
        got = basic_open(f, module).fiber_primes
        expected = {p for p in spec.fiber_primes if module.ring.reduce(f) % p != 0}
        assert got == expected


@pytest.mark.parametrize("module", [m for m in SMALL_CORPUS if m.cardinality <= 64], ids=str)
def test_variety_depends_only_on_prime_radical(module):
    spec = spec_enumerate(module)
    for sub in all_submodules(module):
        rad = prime_radical(sub)
        assert variety(sub) == variety(rad)
        # and the variety is exactly the set of primes containing N
        direct = frozenset(
            ps.char_prime for ps in spec.primes() if sub <= ps.sub
        )
        assert variety(sub).fiber_primes == direct


# ---------------------------------------------------------------------------
# prime radicals
# ---------------------------------------------------------------------------

def test_prime_radical_examples():
    m = from_cyclic_orders(ZZ, [4])
    rad = prime_radical(m.zero_submodule())
    assert sorted(e.coords for e in rad.elements()) == [(0,), (2,)]

    assert prime_radical(m.full_submodule()).is_full

    p = prufer_module(3)
    with pytest.raises(UnsupportedModuleError):
        prime_radical(p.zero_submodule())


@pytest.mark.parametrize("module", [m for m in SMALL_CORPUS if m.cardinality <= 64], ids=str)
def test_prime_radical_closed_form_matches_bruteforce(module):
    for sub in all_submodules(module):
        assert prime_radical(sub, "both") is not None


# ---------------------------------------------------------------------------
# the prime radical condition
# ---------------------------------------------------------------------------

def test_pradical_examples():
    m = normalize(Zmod(6), 1, [])
    assert is_pradical(m).holds

    res = is_pradical(prufer_module(5))
    assert not res.holds
    assert res.certificate.prime_ideal == ideal(ZZ, 5)
    assert res.certificate.lhs == ideal(ZZ, 1)

    assert is_pradical(zero_module(ZZ)).holds


def test_pradical_free_rank_symbolic():
    free = normalize(ZZ, 2, [[2, 0]])
    assert free.free_rank == 1
    assert is_pradical(free).holds


@pytest.mark.parametrize("module", SMALL_CORPUS, ids=str)
def test_all_finite_corpus_modules_are_pradical(module):
    assert is_pradical(module).holds


def test_pradical_direct_sums():
    a = from_cyclic_orders(ZZ, [4])
    b = from_cyclic_orders(ZZ, [6])
    assert is_pradical(direct_sum(a, b)).holds


# ---------------------------------------------------------------------------
# the natural map
# ---------------------------------------------------------------------------

def test_natural_map_examples():
    m = from_cyclic_orders(ZZ, [6])
    res = natural_map(spec_enumerate(m))
    assert res.surjective
    assert set(res.codomain_primes) == {2, 3}
    assert {i.gen for _, i in res.assignments} == {2, 3}

    res = natural_map(spec_enumerate(prufer_module(3)))
    assert not res.surjective and res.codomain_primes is None

    assert natural_map(spec_enumerate(zero_module(ZZ))).surjective


@pytest.mark.parametrize("module", SMALL_CORPUS, ids=str)
def test_finite_modules_are_primeful(module):
    assert natural_map(spec_enumerate(module)).surjective


def test_natural_map_reuses_a_given_spectrum():
    m = from_cyclic_orders(ZZ, [2, 6])
    spec = spec_enumerate(m, "both")
    res = natural_map(spec)
    assert res.surjective
    assert tuple(ps for ps, _ in res.assignments) == tuple(spec.primes())


# ---------------------------------------------------------------------------
# fibers read straight in Hermite normal form
# ---------------------------------------------------------------------------

def fiber_via_lattice(module, p):
    """Reference fiber: each subspace's pullback reduced by hnf."""
    d = module.rank
    torsion_idx = [i for i, e in enumerate(module.factors) if e % p == 0]
    s = len(torsion_idx)
    p_rows = [tuple(p if j == i else 0 for j in range(d)) for i in range(d)]
    out = []
    for basis in _subspace_bases(p, s):
        if len(basis) == s:
            continue  # the full subspace pulls back to M itself
        rows = list(p_rows)
        for w in basis:
            vec = [0] * d
            for pos, val in zip(torsion_idx, w):
                vec[pos] = val
            rows.append(tuple(vec))
        sub = submodule_from_lattice(module, rows)
        out.append(PrimeSubmodule(sub, ideal(module.ring, p)))
    return out


def assert_fibers_match_reference(module):
    for p in module.relevant_primes():
        assert _fiber_classified(module, p) == fiber_via_lattice(module, p), (str(module), p)


def test_direct_hnf_matches_lattice_reduction_on_the_corpus():
    for m in finite_corpus():
        if not m.is_zero:
            assert_fibers_match_reference(m)


@given(
    st.lists(st.integers(2, 60), min_size=1, max_size=4),
    st.one_of(st.none(), st.integers(2, 360)),
)
@example([3, 6, 12], None)
@example([3, 6, 12], 12)
@settings(max_examples=150, deadline=None)
def test_direct_hnf_matches_lattice_reduction_on_random_chains(orders, n):
    m = from_cyclic_orders(ZZ if n is None else Zmod(n), orders)
    if m.is_zero or any(_fiber_size(m, p) > 1200 for p in m.relevant_primes()):
        return
    assert_fibers_match_reference(m)


def test_direct_hnf_keeps_the_factors_prime_to_p():
    m = from_cyclic_orders(ZZ, [3, 6, 12])
    assert m.factors == (3, 6, 12)
    points = _fiber_classified(m, 2)
    assert len(points) == 4  # the zero subspace and the three lines of F_2^2
    for ps in points:
        assert ps.sub.basis[0] == (1, 0, 0)


# ---------------------------------------------------------------------------
# the closed-form point count
# ---------------------------------------------------------------------------

# proper subspaces of F_2^s: the Galois numbers 2, 5, 16, 67, 374, 2825 less one
PROPER_SUBSPACES_OF_F2 = {1: 1, 2: 4, 3: 15, 4: 66, 5: 373, 6: 2824}

ELEMENTARY = [(2, s) for s in range(1, 7)] + [(3, s) for s in range(1, 5)] + [(5, s) for s in range(1, 4)]


@pytest.mark.parametrize("p, s", ELEMENTARY)
def test_closed_form_count_of_elementary_abelian_groups(p, s):
    m = FgModule(ZZ, (p,) * s)
    count = _fiber_size(m, p)
    assert count == len(_fiber_classified(m, p))
    if p == 2:
        assert count == PROPER_SUBSPACES_OF_F2[s]


@pytest.mark.parametrize(
    "ring, factors",
    [
        (ZZ, (2, 4, 12)),
        (ZZ, (3, 6, 12)),
        (ZZ, (2, 6, 30)),
        (ZZ, (3, 3, 9, 45)),
        (ZZ, (2, 2, 2, 4, 20)),
        (Zmod(60), (2, 30, 60)),
        (Zmod(36), (6, 6, 36)),
    ],
    ids=str,
)
def test_closed_form_count_of_mixed_chains(ring, factors):
    m = FgModule(ring, factors)
    for p in m.relevant_primes():
        assert _fiber_size(m, p) == len(_fiber_classified(m, p))
    assert len(spec_enumerate(m)) == sum(len(chunk) for _, chunk in spec_enumerate(m).fibers)


def test_closed_form_count_matches_bruteforce_on_the_corpus():
    for m in finite_corpus():
        assert len(spec_enumerate(m)) == len(spec_enumerate(m, "both")), str(m)


# ---------------------------------------------------------------------------
# fibers are built only when asked for
# ---------------------------------------------------------------------------

# the factors, not a module: fibers are kept on the module object, so each
# test that counts builds makes its own
TWO_FIBERS = (6, 12, 36)


@pytest.fixture
def built(monkeypatch):
    """The (module, p) of every fiber built, from cold caches: the cached
    localizations hold module objects, and so the fibers built on them."""
    calls = []
    real = spectrum_module._fiber_classified

    def counting(module, p):
        calls.append((module, p))
        return real(module, p)

    monkeypatch.setattr(spectrum_module, "_fiber_classified", counting)
    clear_caches()
    yield calls
    clear_caches()


def test_opens_sections_psi_and_covers_build_no_fiber(built):
    m = FgModule(ZZ, TWO_FIBERS)
    spec = spec_enumerate(m)
    assert spec.fiber_primes == {2, 3}
    assert len(spec) == 15 + 27  # proper subspaces of F_2^3 and of F_3^3
    assert basic_open(2, m).fiber_primes == {3}
    assert variety(scalar_multiple_submodule(3, m)).fiber_primes == {3}
    assert sections(basic_open(1, m)).cardinality == m.cardinality
    assert psi_map(m, 2).bijective
    assert cover_decompose(m, 1, [4, 9]).covers_exactly
    assert built == []


def test_stalk_builds_only_its_fiber(built):
    m = FgModule(ZZ, TWO_FIBERS)
    prime = spec_enumerate(m).fiber(3)[0]
    spec_enumerate.cache_clear()
    assert stalk(prime).bijective
    assert built == [(m, 3)]


def test_a_built_fiber_is_kept_on_its_module_object(built):
    m = FgModule(ZZ, TWO_FIBERS)
    spec = spec_enumerate(m)
    points = sum(len(chunk) for _, chunk in spec.fibers)
    assert points == len(spec)
    assert list(spec.primes()) and spec.fiber(2)
    assert built == [(m, 2), (m, 3)]
    spec_enumerate.cache_clear()
    fresh = spec_enumerate(m)
    assert fresh is not spec and fresh == spec
    assert len(fresh) == points and built == [(m, 2), (m, 3)]
    fresh.fiber(3)
    assert built == [(m, 2), (m, 3)]


def test_a_fiber_of_the_wrong_size_is_refused(built, monkeypatch):
    real = spectrum_module._fiber_classified
    monkeypatch.setattr(spectrum_module, "_fiber_classified", lambda m, p: real(m, p)[1:])
    spec = spec_enumerate(FgModule(ZZ, TWO_FIBERS))
    with pytest.raises(StrategyMismatchError, match="closed-form count is 15"):
        spec.fiber(2)


def test_a_fiber_of_the_right_size_with_the_wrong_points_is_refused(tmp_path, capsys, monkeypatch):
    # the planted fiber repeats its first point in place of its last.  Each
    # case takes a new module object: a failed "both" leaves the fiber it
    # built on its module
    real = spectrum_module._fiber_classified

    def repeat_first_point(module, p):
        points = real(module, p)
        return points[:-1] + points[:1]

    monkeypatch.setattr(spectrum_module, "_fiber_classified", repeat_first_point)
    spec_enumerate.cache_clear()
    text = "spectrum strategies disagree on Z/2 + Z/2 over Z: classified=3 bruteforce=4"
    with pytest.raises(StrategyMismatchError) as exc:
        spec_enumerate(FgModule(ZZ, (2, 2)), "both")
    assert str(exc.value) == text
    # the brute force neither reads nor fills the store of classified fibers
    brute = spec_enumerate(FgModule(ZZ, (2, 2)), "bruteforce")
    assert sorted(ps.sub.basis for ps in brute.fiber(2)) == sorted(
        ps.sub.basis for ps in real(FgModule(ZZ, (2, 2)), 2)
    )
    assert main(["--quiet", "spec", write_module(tmp_path, (2, 2))]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "violation" and report["result"] == {"violation": text}
    spec_enumerate.cache_clear()


@pytest.mark.parametrize(
    "factors, builds",
    [((2, 6), 4), ((2, 2, 2, 2), 1), ((2, 2, 6), 4), ((3, 3, 3), 1)],
    ids=str,
)
def test_every_spectrum_of_one_module_object_shares_its_fibers(built, factors, builds):
    # the other builds are of the modules that criteria 9 and 10 make: a
    # localization and a direct summand
    m = FgModule(ZZ, factors)
    assert not any(r.failures for r in verify.run_suite("all", [m]))
    assert len(built) == builds
    assert sorted(p for module, p in built if module is m) == sorted(m.relevant_primes())


def write_module(tmp_path, factors):
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


def test_cli_sheaf_and_cover_build_no_fiber(built, tmp_path, capsys):
    path = write_module(tmp_path, TWO_FIBERS)
    assert main(["--quiet", "sheaf", path, "--open", "D(2)"]) == 0
    assert main(["--quiet", "cover", path, "--f", "1", "--hs", "4,9"]) == 0
    capsys.readouterr()
    assert built == []


def test_cli_sheaf_on_a_large_elementary_group_builds_no_fiber(built, tmp_path, capsys):
    # Spec((Z/2)^10) has 229 755 604 points; D(3) is all of it
    path = write_module(tmp_path, (2,) * 10)
    assert main(["--quiet", "sheaf", path, "--open", "D(3)"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["open"]["fibers"] == [2]
    assert report["result"]["psi"]["bijective"] is True
    assert built == []


def test_cli_spec_refuses_a_large_module_before_building_fibers(built, tmp_path, capsys):
    path = write_module(tmp_path, (2,) * 10)
    assert main(["--quiet", "spec", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["error"] == "|M| = 1024 exceeds the enumeration cap 512"
    assert built == []


def test_library_spec_running_the_brute_force_refuses_past_the_points_cap(built, monkeypatch):
    # |M| = 512 passes both caps on |M|; F_2^9 has 8 283 458 subspaces to walk
    def walk(*args):
        raise AssertionError("the brute force walked the subgroups")

    monkeypatch.setattr(spectrum_module, "_enumerate_bruteforce", walk)
    m = FgModule(ZZ, (2,) * 9)
    for strategy in ("both", "bruteforce"):
        with pytest.raises(CapExceededError) as exc:
            spec_enumerate(m, strategy)
        assert str(exc.value) == "|Spec(M)| = 8283457 exceeds the cardinality cap 4096"
    assert built == []


@pytest.mark.parametrize(
    "caps, text",
    [
        ({"subgroup_cap": 7, "card_cap": 7}, "|M| = 8 exceeds the enumeration cap 7"),
        ({"card_cap": 7}, "|M| = 8 exceeds the cardinality cap 7"),
        ({"card_cap": 8}, "|Spec(M)| = 15 exceeds the cardinality cap 8"),
    ],
)
@pytest.mark.parametrize("strategy", ["both", "bruteforce"])
def test_library_spec_refuses_in_the_order_of_its_caps(built, strategy, caps, text):
    # |M| = 8, and the points are the 1 + 7 + 7 proper subspaces of F_2^3
    m = FgModule(ZZ, (2, 2, 2))
    assert len(spec_enumerate(m)) == 15
    spec_enumerate.cache_clear()
    with pytest.raises(CapExceededError) as exc:
        spec_enumerate(m, strategy, **caps)
    assert str(exc.value) == text
    assert built == []


@pytest.mark.parametrize("suite", ["3.1", "2.3", "2.4", "all"])
def test_cli_verify_refuses_a_spectrum_past_the_points_cap(built, tmp_path, capsys, suite):
    # Spec((Z/2)^7) has 29 211 points; |M| = 128 passes every cap on |M|
    path = write_module(tmp_path, (2,) * 7)
    assert main(["--quiet", "verify", path, "--suite", suite]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error"
    assert report["result"]["error"] == "|Spec(M)| = 29211 exceeds the cardinality cap 4096"
    assert built == []


@pytest.mark.parametrize(
    "check",
    [
        verify.check_strategy_agreement,
        verify.check_stalks,
        verify.check_prime_correspondence,
        verify.check_direct_sums,
        verify.check_primeful,
    ],
    ids=lambda fn: fn.__name__,
)
def test_suites_that_walk_the_spectrum_refuse_past_the_points_cap(built, check):
    with pytest.raises(CapExceededError, match=r"^\|Spec\(M\)\| = 29211 exceeds"):
        check([FgModule(ZZ, (2,) * 7)])
    assert built == []


@pytest.mark.parametrize(
    "walk",
    [
        lambda m: list(spec_enumerate(m).primes()),
        lambda m: spec_enumerate(m).fibers,
        lambda m: prime_radical(m.zero_submodule(), "bruteforce"),
        lambda m: prime_radical(m.zero_submodule(), "both"),
        lambda m: natural_map(spec_enumerate(m)),
        lambda m: prime_correspondence(m, MultSet.powers_of(3)),
    ],
    ids=["primes", "fibers", "bruteforce-radical", "both-radical", "natural-map", "correspondence"],
)
@pytest.mark.parametrize("s, points", [(7, 29211), (10, 229755604)])
def test_library_walks_over_the_spectrum_refuse_past_the_points_cap(built, walk, s, points):
    with pytest.raises(CapExceededError) as exc:
        walk(FgModule(ZZ, (2,) * s))
    assert str(exc.value) == f"|Spec(M)| = {points} exceeds the cardinality cap 4096"
    assert built == []


def test_the_points_cap_bounds_the_walks_and_not_one_fiber(built):
    # Spec((Z/2)^3) has 15 points, all in the fiber over (2)
    m = FgModule(ZZ, (2, 2, 2))
    zero = m.zero_submodule()
    refused = spec_enumerate(m, card_cap=14)
    walks = (
        lambda: list(refused.primes()),
        lambda: refused.fibers,
        lambda: prime_radical(zero, "bruteforce", card_cap=14),
        lambda: natural_map(refused),
    )
    for walk in walks:
        with pytest.raises(CapExceededError) as exc:
            walk()
        assert str(exc.value) == "|Spec(M)| = 15 exceeds the cardinality cap 14"
    assert built == []
    assert len(refused.fiber(2)) == 15 and built == [(m, 2)]
    # a built fiber does not lift the cap off the walks
    with pytest.raises(CapExceededError):
        list(refused.primes())
    answered = spec_enumerate(m, card_cap=15)
    assert len(answered.fiber(2)) == 15 and built == [(m, 2)]
    assert len(list(answered.primes())) == 15 and [p for p, _ in answered.fibers] == [2]
    assert prime_radical(zero, "bruteforce", card_cap=15) == prime_radical(zero)
    assert natural_map(answered).surjective


def test_the_points_refusal_is_written_once():
    src = Path(spectrum_module.__file__).parent
    holders = sorted(path.name for path in src.glob("*.py") if "|Spec(M)|" in path.read_text())
    assert holders == ["spectrum.py"]


# ---------------------------------------------------------------------------
# the zero module through the general path
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", [ZZ, Zmod(4)], ids=str)
def test_the_zero_module_through_the_general_path(ring):
    z = zero_module(ring)
    assert colon(z.zero_submodule()) == ideal(ring, 1)
    assert [s.basis for s in all_submodules(z)] == [()]
    for strategy in ("bruteforce", "classified", "both"):
        spec = spec_enumerate(z, strategy)
        assert spec.is_empty and spec.fibers == () and len(spec) == 0
    nm = natural_map(spec_enumerate(z))
    assert nm.surjective and nm.assignments == () and nm.codomain_primes == ()
    # the note that is_pradical gives is kept: the pradical report carries it
    assert is_pradical(z).note == "zero module: no prime examined fails"
    for ms in (MultSet.powers_of(0), MultSet.powers_of(2), MultSet.complement_of_prime(2)):
        slow = localize_bruteforce(z, ms)
        assert slow == LocalizedModule(ms.localized_ring(ring), z, z, (), ms)
        assert slow == localize(z, ms)


def test_the_zero_module_has_no_branch_of_its_own():
    # an unknown strategy is refused, and the natural map carries no note
    z = zero_module(ZZ)
    with pytest.raises(ValueError, match="unknown strategy"):
        spec_enumerate(z, "nope")
    assert natural_map(spec_enumerate(z)).note == ""


def test_degenerate_arithmetic_through_the_general_path():
    assert invariant_factors_from_orders([1]) == ()
    for ring in (ZZ, Ring(local_prime=2), Ring(inverted=6)):
        assert ideal_radical(ideal(ring, 0)) == ideal(ring, 0)
    dec = bezout_decompose(0, [ideal(ZZ, 0), ideal(ZZ, 0)])
    assert dec.exponent == 1 and dec.pairs == ((0, 0), (0, 0))
    with pytest.raises(NotInRadicalError):
        bezout_decompose(1, [ideal(ZZ, 0)])


def test_an_open_set_outside_the_spectrum_is_refused_by_open_set():
    spec = spec_enumerate(FgModule(ZZ, (6,)))
    assert spec.open_set([3]).fiber_primes == {3}
    with pytest.raises(ValueError, match="^open set holds primes outside the spectrum$"):
        spec.open_set({5})
