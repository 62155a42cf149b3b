import pytest

from modspec import verify
from modspec.arith import ZZ, Ring, Zmod, ideal
from modspec.fgmodules import (
    FgModule,
    UnsupportedModuleError,
    from_cyclic_orders,
    iso_class_equal,
    normalize,
    prufer_module,
    zero_module,
)
from modspec.localization import (
    CorrespondenceError,
    LocalizedModule,
    MultSet,
    invariant_factors_from_orders,
    localize,
    localize_bruteforce,
    prime_correspondence,
    relocalize,
    verify_localization_transfer,
)
from modspec.spectrum import spec_enumerate

POWERS = [MultSet.powers_of(f) for f in range(0, 8)]

TEST_MODULES = [
    from_cyclic_orders(ZZ, o)
    for o in [(), (2,), (4,), (6,), (12,), (2, 2), (2, 4), (2, 6), (36,), (2, 2, 2), (4, 8)]
] + [
    normalize(Zmod(12), 1, []),
    normalize(Zmod(12), 1, [[4]]),
    normalize(Zmod(36), 2, [[6, 0], [0, 6]]),
    normalize(Zmod(4), 1, []),
]


def all_mult_sets(module):
    out = list(POWERS)
    if module.is_finite and not module.is_zero:
        out += [MultSet.complement_of_prime(p) for p in module.relevant_primes()]
    return out


# ---------------------------------------------------------------------------
# the closed-form localization
# ---------------------------------------------------------------------------

def test_localize_examples():
    m = from_cyclic_orders(ZZ, [12])
    loc = localize(m, MultSet.powers_of(2))
    assert loc.factors == (3,) and loc.kind == "standard"
    assert loc.ring == Ring(inverted=2)

    p5 = prufer_module(5)
    assert localize(p5, MultSet.powers_of(3)).kind == "prufer"
    assert localize(p5, MultSet.powers_of(5)).kind == "zero"


def test_localize_at_prime():
    m = from_cyclic_orders(ZZ, [12])
    loc = localize(m, MultSet.complement_of_prime(2))
    assert loc.factors == (4,)
    loc = localize(m, MultSet.complement_of_prime(3))
    assert loc.factors == (3,)
    # no 5-primary part: everything else is inverted away
    loc = localize(m, MultSet.complement_of_prime(5))
    assert loc.kind == "zero"
    loc = localize(m, MultSet.complement_of_prime(0))
    assert loc.kind == "zero"


def test_local_ring_at_a_tested_prime_is_the_checked_one():
    # MultSet tests p once; the ring it localizes to equals the one the
    # checking constructor builds
    for base, p in ((ZZ, 3), (ZZ, 0), (Zmod(12), 2), (Zmod(12), 3)):
        ring = MultSet.complement_of_prime(p).localized_ring(base)
        checked = Ring(modulus=base.modulus, local_prime=p)
        assert ring == checked and hash(ring) == hash(checked) and str(ring) == str(checked)
    for bad in (1, 4, -3, 10007 * 10009):
        with pytest.raises(ValueError, match=f"^{bad} is not prime$"):
            MultSet.complement_of_prime(bad)
    with pytest.raises(ValueError, match="not a prime ideal"):
        MultSet.complement_of_prime(5).localized_ring(Zmod(12))


def test_localize_degenerate():
    m = from_cyclic_orders(ZZ, [12])
    assert localize(m, MultSet.powers_of(0)).kind == "zero"
    m12 = normalize(Zmod(12), 1, [])
    assert localize(m12, MultSet.powers_of(6)).kind == "zero"
    assert localize(m12, MultSet.powers_of(6)).ring == Ring(modulus=12, inverted=0)


def test_localize_free_rank():
    free = normalize(ZZ, 2, [[6, 0]])
    loc = localize(free, MultSet.powers_of(2))
    assert loc.factors == (3,) and loc.free_rank == 1
    assert loc.ring == Ring(inverted=2)
    with pytest.raises(UnsupportedModuleError):
        localize(free, MultSet.complement_of_prime(0))


def test_localize_prufer_at_primes():
    p5 = prufer_module(5)
    assert localize(p5, MultSet.complement_of_prime(5)).kind == "prufer"
    assert localize(p5, MultSet.complement_of_prime(3)).kind == "zero"


def test_localized_ring_descriptor_is_canonical():
    m = from_cyclic_orders(ZZ, [12])
    assert localize(m, MultSet.powers_of(4)).ring == Ring(inverted=2)
    assert localize(m, MultSet.powers_of(10)).ring == Ring(inverted=10)
    m12 = normalize(Zmod(12), 1, [])
    assert localize(m12, MultSet.powers_of(10)).ring == Ring(modulus=12, inverted=2)


# ---------------------------------------------------------------------------
# the brute-force oracle
# ---------------------------------------------------------------------------

def test_bruteforce_examples():
    m = from_cyclic_orders(ZZ, [4])
    assert localize_bruteforce(m, MultSet.powers_of(3)).factors == (4,)
    assert localize_bruteforce(m, MultSet.powers_of(2)).kind == "zero"
    assert localize_bruteforce(zero_module(ZZ), MultSet.powers_of(7)).kind == "zero"


def test_invariant_factors_from_orders():
    assert invariant_factors_from_orders([1, 6, 3, 2, 3, 6]) == (6,)
    assert invariant_factors_from_orders([1, 2, 2, 2]) == (2, 2)
    assert invariant_factors_from_orders([1]) == ()
    assert invariant_factors_from_orders([1, 2, 4, 4, 2, 4, 4, 2]) == (2, 4)


@pytest.mark.parametrize("module", TEST_MODULES, ids=str)
def test_localize_matches_bruteforce(module):
    for ms in all_mult_sets(module):
        fast = localize(module, ms)
        slow = localize_bruteforce(module, ms)
        assert iso_class_equal(fast.module, slow.module), (str(module), str(ms))
        assert fast.ring == slow.ring


@pytest.mark.parametrize("module", TEST_MODULES, ids=str)
def test_localize_idempotent(module):
    for ms in all_mult_sets(module):
        once = localize(module, ms)
        twice = localize(once.module, ms)
        assert once.factors == twice.factors
        assert once.free_rank == twice.free_rank


def test_projection_is_surjective_homomorphism():
    m = from_cyclic_orders(ZZ, [2, 12])
    loc = localize(m, MultSet.powers_of(2))
    images = {loc.project(x).coords for x in m.elements()}
    assert len(images) == loc.cardinality
    for x in m.elements():
        for y in m.elements():
            assert loc.project(x + y) == loc.project(x) + loc.project(y)


def test_project_fraction_inverts_denominators():
    m = from_cyclic_orders(ZZ, [9])
    loc = localize(m, MultSet.powers_of(2))
    x = m.element([1])
    half = loc.project_fraction(x, 2)
    assert half.scale(2) == loc.project(x)


@pytest.mark.parametrize(
    "ms, coords, lifted",
    [
        (MultSet.powers_of(3), (1, 3), (0, 1, 3)),  # keeps the 2-parts (2, 4)
        (MultSet.complement_of_prime(3), (1, 2, 0), (1, 2, 0)),  # the 3-parts (3, 3, 3)
    ],
)
def test_lift_is_a_section_of_the_projection(ms, coords, lifted):
    m = from_cyclic_orders(ZZ, [3, 6, 12])
    loc = localize(m, ms)
    assert loc.lift(coords) == lifted
    for y in loc.module.elements():
        assert loc.project(m.element(loc.lift(y.coords))) == y


# ---------------------------------------------------------------------------
# the prime correspondence
# ---------------------------------------------------------------------------

def test_correspondence_examples():
    m = from_cyclic_orders(ZZ, [6])
    corr = prime_correspondence(m, MultSet.powers_of(3))
    assert len(corr.pairs) == 1
    (src, dst), = corr.pairs
    assert src.char_prime == 2
    assert dst.char_ideal == ideal(ZZ, 2)

    corr = prime_correspondence(m, MultSet.powers_of(1))
    assert len(corr.pairs) == 2

    corr = prime_correspondence(prufer_module(3), MultSet.powers_of(2))
    assert corr.pairs == ()


@pytest.mark.parametrize("module", TEST_MODULES, ids=str)
def test_correspondence_verifies_on_corpus(module):
    if not module.is_finite:
        return
    for ms in all_mult_sets(module):
        corr = prime_correspondence(module, ms)
        expected = sum(
            1
            for ps in __import__("modspec.spectrum", fromlist=["spec_enumerate"])
            .spec_enumerate(module)
            .primes()
            if not ms.meets_prime(ps.char_prime, module.ring)
        )
        assert len(corr.pairs) == expected



# three broken correspondences on Z/2 + Z/2 over Z, each caught by its own
# check; S is the complement of (2), so M_S has the same four points as M
KLEIN = (2, 2)
REAL_EXTEND = LocalizedModule.extend_submodule
REAL_CONTRACT = LocalizedModule.contract_submodule


def swap_zero_and_first_line(loc, sub):
    """sigma on Spec(M_S): the zero submodule and the first line trade
    places, and every other submodule stays."""
    zero = loc.module.zero_submodule()
    line = spec_enumerate(loc.module).fiber(2)[0].sub
    return {zero: line, line: zero}.get(sub, sub)


@pytest.mark.parametrize(
    "extend, contract, text",
    [
        (
            lambda loc, sub: loc.module.full_submodule(),
            REAL_CONTRACT,
            "extension of <[1, 0], [0, 2]> is not a prime of the localization of Z/2 + Z/2 over Z",
        ),
        (
            REAL_EXTEND,
            lambda loc, sub: loc.source.full_submodule(),
            "round trip P -> P_S -> (P_S)^c moved <[1, 0], [0, 2]> in Z/2 + Z/2 over Z",
        ),
        (
            # a bijection whose round trips and colon ideals all hold: only
            # the order check sees that sigma sends the zero point below a line
            lambda loc, sub: swap_zero_and_first_line(loc, REAL_EXTEND(loc, sub)),
            lambda loc, sub: REAL_CONTRACT(loc, swap_zero_and_first_line(loc, sub)),
            "order not preserved between <[1, 0], [0, 2]> and <[1, 1], [0, 2]> "
            "in Z/2 + Z/2 over Z",
        ),
    ],
    ids=["extension-not-a-prime", "round-trip-moves", "order-reversed"],
)
def test_a_broken_correspondence_fails_criterion_9(monkeypatch, extend, contract, text):
    monkeypatch.setattr(LocalizedModule, "extend_submodule", extend)
    monkeypatch.setattr(LocalizedModule, "contract_submodule", contract)
    with pytest.raises(CorrespondenceError) as exc:
        prime_correspondence(FgModule(ZZ, KLEIN), MultSet.complement_of_prime(2))
    assert str(exc.value) == text
    result = verify.check_prime_correspondence([FgModule(ZZ, KLEIN)])
    assert result.checks == 5 and result.failures == (text,) * 3


def test_relocalize_naturality():
    m = from_cyclic_orders(ZZ, [12])
    l2 = localize(m, MultSet.powers_of(2))
    l6 = localize(m, MultSet.powers_of(6))
    for x in m.elements():
        assert relocalize(l2.project(x), l2, l6) == l6.project(x)


# ---------------------------------------------------------------------------
# transfer checks
# ---------------------------------------------------------------------------

def test_transfer_examples():
    m = from_cyclic_orders(ZZ, [12])
    report = verify_localization_transfer(m, [MultSet.powers_of(2)])
    assert report.ok
    assert all(c.hypothesis_holds for c in report.clauses)
    assert all(c.conclusion_holds for c in report.clauses)

    m6 = from_cyclic_orders(ZZ, [6])
    report = verify_localization_transfer(
        m6, [MultSet.complement_of_prime(2), MultSet.complement_of_prime(3)]
    )
    assert report.ok

    report = verify_localization_transfer(zero_module(ZZ), [])
    assert report.ok


@pytest.mark.parametrize("module", TEST_MODULES, ids=str)
def test_transfer_on_corpus(module):
    if not module.is_finite:
        return
    report = verify_localization_transfer(module, all_mult_sets(module))
    assert report.ok
