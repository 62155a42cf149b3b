import itertools

import pytest

from modspec.arith import ZZ, Zmod, ideal
from modspec.corpus import finite_corpus
from modspec.fgmodules import (
    direct_sum,
    from_cyclic_orders,
    iso_class_equal,
    normalize,
    prufer_module,
    zero_module,
)
from modspec.localization import MultSet, localize, relocalize
from modspec.sheaf import (
    CoverError,
    Germ,
    RestrictionError,
    cover_decompose,
    iso_criterion,
    psi_map,
    restrict,
    sections,
    sheaf_axioms_check,
    stalk,
)
from modspec.spectrum import basic_open, spec_enumerate


# ---------------------------------------------------------------------------
# section spaces and restriction
# ---------------------------------------------------------------------------

def test_sections_examples():
    m = from_cyclic_orders(ZZ, [6])
    spec = spec_enumerate(m)
    space = sections(m, spec.full_open())
    assert space.carrier.factors == (6,)
    assert space.cardinality == 6

    assert sections(m, spec.empty_open()).carrier.is_zero

    p = prufer_module(3)
    pspec = spec_enumerate(p)
    assert sections(p, pspec.full_open()).carrier.is_zero


def test_sections_carrier_is_the_sum_of_the_stalks():
    for m in finite_corpus():
        spec = spec_enumerate(m)
        primes = sorted(spec.fiber_primes)
        for k in range(len(primes) + 1):
            for chosen in itertools.combinations(primes, k):
                space = sections(m, spec.open_set(chosen))
                folded = zero_module(m.ring)
                for _, loc in space.stalks:
                    folded = direct_sum(folded, loc.module)
                assert space.carrier == folded


def test_restrict_examples():
    m = from_cyclic_orders(ZZ, [6])
    spec = spec_enumerate(m)
    space = sections(m, spec.full_open())
    s = space.section(
        {
            2: space.stalks[0][1].module.element([1]),
            3: space.stalks[1][1].module.element([2]),
        }
    )
    assert restrict(s, spec.full_open()) == s
    assert restrict(s, spec.empty_open()).is_zero
    v = spec.open_set({2})
    assert restrict(s, v).value_at(2).coords == (1,)
    with pytest.raises(KeyError):
        restrict(s, v).value_at(3)


def test_restrict_requires_containment():
    m = from_cyclic_orders(ZZ, [6])
    spec = spec_enumerate(m)
    s = sections(m, spec.open_set({2})).zero()
    with pytest.raises(RestrictionError):
        restrict(s, spec.full_open())


def test_restriction_transitivity():
    m = from_cyclic_orders(ZZ, [30])
    spec = spec_enumerate(m)
    u = spec.full_open()
    v = spec.open_set({2, 5})
    w = spec.open_set({5})
    for s in sections(m, u).elements():
        assert restrict(restrict(s, v), w) == restrict(s, w)


# ---------------------------------------------------------------------------
# stalks and germs
# ---------------------------------------------------------------------------

def test_stalk_examples():
    m = from_cyclic_orders(ZZ, [6])
    (p2,) = spec_enumerate(m).fiber(2)
    res = stalk(m, p2)
    assert res.bijective
    assert res.localized.factors == (2,)

    m4 = from_cyclic_orders(ZZ, [4])
    (q,) = spec_enumerate(m4).fiber(2)
    res = stalk(m4, q)
    assert res.bijective and res.localized.factors == (4,)

    klein = from_cyclic_orders(ZZ, [2, 2])
    for ps in spec_enumerate(klein).primes():
        res = stalk(klein, ps)
        assert res.bijective and res.localized.factors == (2, 2)


def test_germ_equality_matches_definition():
    m = from_cyclic_orders(ZZ, [6])
    spec = spec_enumerate(m)
    (p2,) = spec.fiber(2)
    opens = [spec.full_open(), spec.open_set({2})]
    germs = []
    for u in opens:
        for s in sections(m, u).elements():
            germs.append(Germ(p2, u, s))
    for g1 in germs:
        for g2 in germs:
            assert (g1 == g2) == g1.agrees_by_definition(g2)


# ---------------------------------------------------------------------------
# the comparison map
# ---------------------------------------------------------------------------

def test_psi_global_sections():
    m = from_cyclic_orders(ZZ, [6])
    res = psi_map(m, 1)
    assert res.bijective
    assert iso_class_equal(res.space.carrier, m)


def test_psi_basic_open():
    m = from_cyclic_orders(ZZ, [12])
    res = psi_map(m, 2)
    assert res.domain.factors == (3,)
    assert [p for p, _ in res.space.stalks] == [3]
    assert res.bijective


def test_psi_prufer_negative_control():
    p = prufer_module(3)
    res = psi_map(p, 1)
    assert not res.bijective
    assert res.space.carrier.is_zero
    # killing the module makes both sides zero
    assert psi_map(p, 3).bijective


def test_psi_zero_and_zero_scalar():
    assert psi_map(zero_module(ZZ), 1).bijective
    m = from_cyclic_orders(ZZ, [6])
    res = psi_map(m, 0)
    assert res.domain.kind == "zero"
    assert res.space.open_set.is_empty
    assert res.bijective


def test_psi_is_homomorphism():
    m = from_cyclic_orders(ZZ, [2, 12])
    res = psi_map(m, 1)
    elems = [x for x, _ in res.assignments]
    for x in elems[:8]:
        for y in elems[:8]:
            assert res.image_of(x + y) == res.image_of(x) + res.image_of(y)


def test_psi_naturality():
    # restricting psi_f(x) to D(fgM) equals psi_fg of the relocalized x
    m = from_cyclic_orders(ZZ, [12])
    spec = spec_enumerate(m)
    for f, g in [(1, 2), (1, 3), (2, 3), (3, 2), (1, 6)]:
        res_f = psi_map(m, f)
        res_fg = psi_map(m, f * g)
        d_fg = basic_open(f * g, m, spec)
        for x, s in res_f.assignments:
            moved = relocalize(x, res_f.domain, res_fg.domain)
            assert restrict(s, d_fg) == res_fg.image_of(moved)


# ---------------------------------------------------------------------------
# cover decomposition
# ---------------------------------------------------------------------------

def test_cover_decompose_unit_cover():
    m = from_cyclic_orders(ZZ, [6])
    dec = cover_decompose(m, 1, [2, 3])
    assert dec.exponent == 1
    assert sum(r * b for r, b in dec.pairs) == 1
    assert dec.colon_ideals == (ideal(ZZ, 2), ideal(ZZ, 3))
    for (r, _), a in zip(dec.pairs, dec.colon_ideals):
        assert a.contains_element(r)
    assert dec.covers_exactly


def test_cover_decompose_self_cover():
    m = from_cyclic_orders(ZZ, [12])
    dec = cover_decompose(m, 2, [2])
    assert dec.exponent == 1
    assert dec.pairs == ((2, 1),)
    assert dec.covers_exactly


def test_cover_decompose_empty_open_is_inexact():
    m = from_cyclic_orders(ZZ, [12])
    dec = cover_decompose(m, 6, [2])
    assert dec.open_f.is_empty
    assert sum(r * b for r, b in dec.pairs) == 6**dec.exponent
    assert not dec.covers_exactly


def test_cover_decompose_rejects_non_covers():
    m = from_cyclic_orders(ZZ, [6])
    with pytest.raises(CoverError):
        cover_decompose(m, 1, [2])  # D(M) = {2,3} but D(2M) = {3}


def test_cover_decompose_exactness_on_exact_covers():
    m = from_cyclic_orders(ZZ, [30])
    dec = cover_decompose(m, 1, [6, 10, 15])
    assert sum(r * b for r, b in dec.pairs) == 1
    assert dec.covers_exactly


# ---------------------------------------------------------------------------
# the isomorphism criterion
# ---------------------------------------------------------------------------

def test_iso_criterion_z12():
    m = from_cyclic_orders(ZZ, [12])
    res = iso_criterion(m, 2, 10)
    assert res.radical_f == res.radical_g == ideal(ZZ, 2)
    assert res.radicals_equal and res.modules_isomorphic
    assert res.loc_f.factors == (3,)


def test_iso_criterion_prufer_counterexample():
    m = prufer_module(5)
    res = iso_criterion(m, 5, 3)
    assert res.radical_f == res.radical_g == ideal(ZZ, 1)
    assert res.radicals_equal
    assert res.loc_f.kind == "zero" and res.loc_g.kind == "prufer"
    assert not res.modules_isomorphic


def test_iso_criterion_reflexive():
    m = from_cyclic_orders(ZZ, [12])
    res = iso_criterion(m, 7, 7)
    assert res.radicals_equal and res.modules_isomorphic


def test_iso_criterion_agreement_on_pradical_modules():
    for orders in [(4,), (6,), (12,), (2, 6), (36,), (2, 2)]:
        m = from_cyclic_orders(ZZ, orders)
        for f in range(1, 6):
            for g in range(1, 6):
                res = iso_criterion(m, f, g)
                assert res.radicals_equal == res.modules_isomorphic, (orders, f, g)


# ---------------------------------------------------------------------------
# sheaf axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orders", [(6,), (4,), (30,), (2, 12)])
def test_sheaf_axioms(orders):
    m = from_cyclic_orders(ZZ, orders)
    report = sheaf_axioms_check(m)
    assert report.ok, report.failures
    assert report.identity_ok and report.gluing_ok
    assert report.transitivity_ok and report.homomorphism_ok


def test_sheaf_axioms_opens_count():
    report = sheaf_axioms_check(from_cyclic_orders(ZZ, [30]))
    assert report.opens == 8
    assert report.exhaustive_covers > 0


def test_sheaf_axioms_over_zmod():
    report = sheaf_axioms_check(normalize(Zmod(36), 1, []))
    assert report.ok


def test_sheaf_axioms_zero_module():
    report = sheaf_axioms_check(zero_module(ZZ))
    assert report.ok and report.opens == 1
