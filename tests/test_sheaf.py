import itertools
import json
import math

import pytest

from modspec import arith, sheaf
from modspec.arith import ZZ, Zmod, ideal
from modspec.cli import main
from modspec.corpus import finite_corpus
from modspec.fgmodules import (
    CapExceededError,
    FgModule,
    UnsupportedModuleError,
    direct_sum,
    from_cyclic_orders,
    iso_class_equal,
    normalize,
    prufer_module,
    zero_module,
)
from modspec.localization import LocalizedModule, MultSet, localize, relocalize
from modspec.sheaf import (
    CoverError,
    Germ,
    RestrictionError,
    Section,
    SheafAxiomsReport,
    cover_decompose,
    iso_criterion,
    psi_map,
    restrict,
    sections,
    sheaf_axioms_check,
    stalk,
)
from modspec.spectrum import basic_open, spec_enumerate
from modspec.verify import check_sections_match_localizations


# ---------------------------------------------------------------------------
# section spaces and restriction
# ---------------------------------------------------------------------------

def test_sections_examples():
    m = from_cyclic_orders(ZZ, [6])
    spec = spec_enumerate(m)
    space = sections(spec.full_open())
    assert space.carrier.factors == (6,)
    assert space.cardinality == 6

    assert sections(spec.empty_open()).carrier.is_zero

    p = prufer_module(3)
    pspec = spec_enumerate(p)
    assert sections(pspec.full_open()).carrier.is_zero


def test_sections_carrier_is_the_sum_of_the_stalks():
    for m in finite_corpus():
        spec = spec_enumerate(m)
        primes = sorted(spec.fiber_primes)
        for k in range(len(primes) + 1):
            for chosen in itertools.combinations(primes, k):
                space = sections(spec.open_set(chosen))
                folded = zero_module(m.ring)
                for _, loc in space.stalks:
                    folded = direct_sum(folded, loc.module)
                assert space.carrier == folded


def test_restrict_examples():
    m = from_cyclic_orders(ZZ, [6])
    spec = spec_enumerate(m)
    space = sections(spec.full_open())
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
    s = sections(spec.open_set({2})).zero()
    with pytest.raises(RestrictionError):
        restrict(s, spec.full_open())


def test_restriction_transitivity():
    m = from_cyclic_orders(ZZ, [30])
    spec = spec_enumerate(m)
    u = spec.full_open()
    v = spec.open_set({2, 5})
    w = spec.open_set({5})
    for s in sections(u).elements():
        assert restrict(restrict(s, v), w) == restrict(s, w)


# ---------------------------------------------------------------------------
# stalks and germs
# ---------------------------------------------------------------------------

def test_stalk_examples():
    m = from_cyclic_orders(ZZ, [6])
    (p2,) = spec_enumerate(m).fiber(2)
    res = stalk(p2)
    assert res.bijective
    assert res.localized.factors == (2,)

    m4 = from_cyclic_orders(ZZ, [4])
    (q,) = spec_enumerate(m4).fiber(2)
    res = stalk(q)
    assert res.bijective and res.localized.factors == (4,)

    klein = from_cyclic_orders(ZZ, [2, 2])
    for ps in spec_enumerate(klein).primes():
        res = stalk(ps)
        assert res.bijective and res.localized.factors == (2, 2)


def test_a_stalk_past_the_cardinality_cap_is_refused(tmp_path, capsys):
    # Spec(Z/8192) has one point, 2M, and its stalk has all 8192 sections
    text = "|O(U)| = 8192 exceeds the cardinality cap 4096"
    (prime,) = spec_enumerate(FgModule(ZZ, (8192,))).primes()
    with pytest.raises(CapExceededError) as exc:
        stalk(prime)
    assert str(exc.value) == text
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps(
            {
                "ring": {"kind": "Z"},
                "module": {"kind": "invariant_factors", "factors": [8192], "free_rank": 0},
            }
        )
    )
    assert main(["--quiet", "verify", str(path), "--suite", "3.1"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "error" and report["result"] == {"error": text}


def test_germ_equality_matches_definition():
    m = from_cyclic_orders(ZZ, [6])
    spec = spec_enumerate(m)
    (p2,) = spec.fiber(2)
    opens = [spec.full_open(), spec.open_set({2})]
    germs = []
    for u in opens:
        for s in sections(u).elements():
            germs.append(Germ(p2, s))
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
    elems = list(res.domain.module.elements())
    for x in elems[:8]:
        for y in elems[:8]:
            assert res.image(x + y) == res.image(x) + res.image(y)


def test_psi_naturality():
    # restricting psi_f(x) to D(fgM) equals psi_fg of the relocalized x
    m = from_cyclic_orders(ZZ, [12])
    for f, g in [(1, 2), (1, 3), (2, 3), (3, 2), (1, 6)]:
        res_f = psi_map(m, f)
        res_fg = psi_map(m, f * g)
        d_fg = basic_open(f * g, m)
        for x in res_f.domain.module.elements():
            moved = relocalize(x, res_f.domain, res_fg.domain)
            assert restrict(res_f.image(x), d_fg) == res_fg.image(moved)


def test_a_psi_that_doubles_a_coordinate_fails_both_verdicts(monkeypatch):
    real = LocalizedModule.project

    def doubling(self, elem):
        img = real(self, elem)
        return self.module.element(img.coords[:-1] + (2 * img.coords[-1],))

    # in the stalk (Z/2 + Z/12)_(2) = Z/2 + Z/4 the doubled image is not onto
    m = from_cyclic_orders(ZZ, [2, 12])
    failure = f"{m}: comparison map not bijective at f=1"
    monkeypatch.setattr(LocalizedModule, "project", doubling)
    assert not psi_map(m, 1).bijective
    assert failure in check_sections_match_localizations([m]).failures
    # with the algebraic verdict forced to True, criterion 5's walk still fails
    monkeypatch.setattr(sheaf, "submodule_from_generators", lambda module, gens: module.full_submodule())
    assert psi_map(m, 1).bijective
    assert failure in check_sections_match_localizations([m]).failures


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


def test_cover_decompose_decides_radical_membership_once(monkeypatch):
    m = from_cyclic_orders(ZZ, [6, 6])
    assert m.primary  # factored once per module object
    spec_enumerate(m)
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n, *rest: calls.append(n) or real(n, *rest))
    dec = cover_decompose(m, 1, [14, 33])
    assert dec.colon_ideals == (ideal(ZZ, 2), ideal(ZZ, 3)) and dec.exponent == 1
    # the radical of (2) + (3) = (1), factored once, inside bezout_decompose
    assert calls == [1]


def test_cover_decompose_names_a_scalar_outside_the_radical():
    # the Pruefer group is primeless, so every D(hM) is empty and covers;
    # (0M : M) = (0), whose radical 1 escapes
    with pytest.raises(CoverError) as exc:
        cover_decompose(prufer_module(3), 1, [0])
    assert str(exc.value) == "1 escapes the radical of the covering colon ideals (0) of Z"


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


# ---------------------------------------------------------------------------
# the coded sheaf-axiom check against the Section-level reference
# ---------------------------------------------------------------------------

def sheaf_axioms_reference(module, family_limit=50_000):
    """Reference check: every axiom on Section objects, compatible families
    enumerated over the whole product of the members' sections."""
    if not module.is_finite:
        raise UnsupportedModuleError("sheaf axioms are checked on finite modules")
    spectrum = spec_enumerate(module)
    primes = sorted(spectrum.fiber_primes)
    if len(primes) > 4:
        raise UnsupportedModuleError("open lattice too large: more than 4 fibers")
    failures = []

    opens = []
    for k in range(len(primes) + 1):
        for combo in itertools.combinations(primes, k):
            opens.append(spectrum.open_set(combo))
    spaces = {o.fiber_primes: sections(o) for o in opens}
    section_lists = {o.fiber_primes: list(spaces[o.fiber_primes].elements()) for o in opens}

    def restrictor(src_primes, dst_primes):
        src, dst = spaces[src_primes], spaces[dst_primes]
        pos = [i for i, (p, _) in enumerate(src.stalks) if p in dst_primes]
        return lambda s: Section(dst, tuple(s.values[i] for i in pos))

    drop = {
        (u.fiber_primes, v.fiber_primes): restrictor(u.fiber_primes, v.fiber_primes)
        for u in opens
        for v in opens
        if v.issubset(u)
    }

    transitivity_ok = True
    hom_ok = True
    for u in opens:
        secs_u = section_lists[u.fiber_primes]
        subs = [v for v in opens if v.issubset(u)]
        for v in subs:
            for w in [w for w in subs if w.issubset(v)]:
                for s in secs_u:
                    if restrict(restrict(s, v), w) != restrict(s, w):
                        transitivity_ok = False
                        failures.append(
                            f"transitivity fails via {sorted(v.fiber_primes)} -> {sorted(w.fiber_primes)}"
                        )
            r_uv = drop[u.fiber_primes, v.fiber_primes]
            for s in secs_u:
                if r_uv(s) != restrict(s, v):
                    transitivity_ok = False
                    failures.append("fast restriction disagrees with the public map")
            pairs = itertools.islice(itertools.product(secs_u, secs_u), 1024)
            for s, t in pairs:
                if r_uv(s + t) != r_uv(s) + r_uv(t):
                    hom_ok = False
                    failures.append(f"additivity fails on {sorted(v.fiber_primes)}")
                    break
            for s in secs_u:
                for r in (0, 1, 2, 3, 5):
                    if r_uv(s.scale(r)) != r_uv(s).scale(r):
                        hom_ok = False
                        failures.append(f"scalar action fails on {sorted(v.fiber_primes)}")

    identity_ok = True
    gluing_ok = True
    covers = 0
    exhaustive_covers = 0
    nonempty = [o for o in opens if o.fiber_primes]
    for u in opens:
        secs_u = section_lists[u.fiber_primes]
        candidates = [o for o in nonempty if o.issubset(u)]
        for k in range(len(candidates) + 1):
            for family in itertools.combinations(candidates, k):
                covered = frozenset().union(*(o.fiber_primes for o in family)) if family else frozenset()
                if covered != u.fiber_primes:
                    continue
                covers += 1
                to_members = [drop[u.fiber_primes, o.fiber_primes] for o in family]
                index = {}
                for s in secs_u:
                    key = tuple(r(s) for r in to_members)
                    index.setdefault(key, []).append(s)
                    if all(r.is_zero for r in key) != s.is_zero:
                        identity_ok = False
                        failures.append(
                            f"identity axiom fails over {sorted(u.fiber_primes)} "
                            f"with cover {[sorted(o.fiber_primes) for o in family]}"
                        )
                if any(len(v) > 1 for v in index.values()):
                    gluing_ok = False
                    failures.append(f"gluing not unique over {sorted(u.fiber_primes)}")
                total = 1
                for o in family:
                    total *= len(section_lists[o.fiber_primes])
                if total <= family_limit:
                    exhaustive_covers += 1
                    compatible_count = 0
                    meets = [
                        (i, j, drop[family[i].fiber_primes, meet_fp], drop[family[j].fiber_primes, meet_fp])
                        for i in range(len(family))
                        for j in range(i + 1, len(family))
                        for meet_fp in [family[i].fiber_primes & family[j].fiber_primes]
                    ]
                    for choice in itertools.product(
                        *(section_lists[o.fiber_primes] for o in family)
                    ):
                        ok = True
                        for i, j, ri, rj in meets:
                            if ri(choice[i]) != rj(choice[j]):
                                ok = False
                                break
                        if not ok:
                            continue
                        compatible_count += 1
                        if len(index.get(tuple(choice), ())) != 1:
                            gluing_ok = False
                            failures.append(
                                f"no unique glue over {sorted(u.fiber_primes)} for "
                                f"cover {[sorted(o.fiber_primes) for o in family]}"
                            )
                    if family and compatible_count != len(secs_u):
                        gluing_ok = False
                        failures.append(
                            f"compatible family count {compatible_count} != "
                            f"{len(secs_u)} over {sorted(u.fiber_primes)}"
                        )
                else:
                    for key in index:
                        for (o1, s1), (o2, s2) in itertools.combinations(zip(family, key), 2):
                            meet_fp = o1.fiber_primes & o2.fiber_primes
                            r1 = drop[o1.fiber_primes, meet_fp]
                            r2 = drop[o2.fiber_primes, meet_fp]
                            if r1(s1) != r2(s2):
                                gluing_ok = False
                                failures.append(
                                    f"induced family incompatible over {sorted(u.fiber_primes)}"
                                )
    return SheafAxiomsReport(
        module=module,
        opens=len(opens),
        covers=covers,
        exhaustive_covers=exhaustive_covers,
        identity_ok=identity_ok,
        gluing_ok=gluing_ok,
        transitivity_ok=transitivity_ok,
        homomorphism_ok=hom_ok,
        failures=tuple(failures),
    )


def criterion_13_corpus():
    return [m for m in finite_corpus() if len(spec_enumerate(m).fiber_primes) <= 4]


@pytest.mark.parametrize(
    "module",
    # every twelfth module of the criterion-13 corpus (both base rings, 0 to
    # 2 fibers), and (Z/6)^2; the reference takes about 2 s on them
    criterion_13_corpus()[::12] + [from_cyclic_orders(ZZ, [6, 6])],
    ids=str,
)
def test_coded_check_matches_the_reference(module):
    assert sheaf_axioms_check(module) == sheaf_axioms_reference(module)


def test_coded_check_counts_on_z30():
    report = sheaf_axioms_check(from_cyclic_orders(ZZ, [30]))
    assert (report.opens, report.covers, report.exhaustive_covers) == (8, 128, 117)
    assert report.ok


def test_four_fibers_finish():
    # Z/210 has four one-point fibers: 16 opens and 210 global sections
    report = sheaf_axioms_check(from_cyclic_orders(ZZ, [210]))
    assert (report.opens, report.covers, report.exhaustive_covers) == (16, 32768, 1322)
    assert report.ok


def test_five_fibers_are_refused():
    with pytest.raises(UnsupportedModuleError, match="more than 4 fibers"):
        sheaf_axioms_check(from_cyclic_orders(ZZ, [2310]))


@pytest.mark.parametrize("orders", [(6, 6), (12,), (30,)])
def test_compatible_families_match_the_product_filter(orders):
    # restrictions taken from the public map, and every cover whose product
    # of section spaces stays small, searched against the full product
    m = from_cyclic_orders(ZZ, orders)
    spec = spec_enumerate(m)
    primes = sorted(spec.fiber_primes)
    opens = [
        frozenset(c) for k in range(len(primes) + 1) for c in itertools.combinations(primes, k)
    ]
    secs = {u: list(sections(spec.open_set(u)).elements()) for u in opens}
    proj = {
        (u, v): [secs[v].index(restrict(s, spec.open_set(v))) for s in secs[u]]
        for u in opens
        for v in opens
        if v <= u
    }
    sizes = {u: len(secs[u]) for u in opens}
    searched = 0
    for k in range(1, len(opens)):
        for family in itertools.combinations(opens[1:], k):
            if math.prod(sizes[o] for o in family) > 5000:
                continue
            expected = [
                choice
                for choice in itertools.product(*(range(sizes[o]) for o in family))
                if all(
                    proj[family[i], family[i] & family[j]][choice[i]]
                    == proj[family[j], family[i] & family[j]][choice[j]]
                    for i, j in itertools.combinations(range(len(family)), 2)
                )
            ]
            assert sheaf._compatible_families(family, proj, sizes) == expected
            searched += 1
    assert searched >= 7


def test_a_wrong_public_restriction_breaks_transitivity(monkeypatch):
    m = from_cyclic_orders(ZZ, [6])
    public = sheaf.restrict

    def altered(section, smaller):
        out = public(section, smaller)
        if smaller.fiber_primes == {3} and out.values[0].coords == (1,):
            stalk = out.values[0].parent
            return Section(out.space, (stalk.element([2]),))
        return out

    monkeypatch.setattr(sheaf, "restrict", altered)
    report = sheaf_axioms_check(m)
    assert not report.transitivity_ok
    assert report.identity_ok and report.gluing_ok and report.homomorphism_ok


def test_a_corrupted_stalk_addition_breaks_the_homomorphism_check(monkeypatch):
    m = from_cyclic_orders(ZZ, [6])
    exact = sheaf._addition_row

    def corrupted(pool, index, x):
        row = exact(pool, index, x)
        if len(pool) == 3 and x == 1:
            row[0], row[1] = row[1], row[0]
        return row

    monkeypatch.setattr(sheaf, "_addition_row", corrupted)
    report = sheaf_axioms_check(m)
    assert not report.homomorphism_ok
    assert report.identity_ok and report.gluing_ok and report.transitivity_ok


def test_the_addition_sample_has_a_nonzero_first_summand(monkeypatch):
    # the full open of Z/1024 has 1024 sections, so one first summand is
    # sampled; the zero section would check only the sums 0 + t
    exact = sheaf._addition_row
    digits = []

    def recording(pool, index, x):
        digits.append(x)
        return exact(pool, index, x)

    monkeypatch.setattr(sheaf, "_addition_row", recording)
    assert sheaf_axioms_check(from_cyclic_orders(ZZ, [1024])).ok
    assert any(digits), digits


def test_a_corrupted_section_sum_breaks_the_homomorphism_check(monkeypatch):
    m = from_cyclic_orders(ZZ, [6])
    exact = Section.__add__

    def corrupted(self, other):
        out = exact(self, other)
        if len(out.values) == 2 and out.values[1].coords == (2,):
            return out.scale(-1)
        return out

    monkeypatch.setattr(Section, "__add__", corrupted)
    report = sheaf_axioms_check(m)
    assert not report.homomorphism_ok
    assert report.identity_ok and report.gluing_ok and report.transitivity_ok


def test_restrictions_that_forget_fail_identity_and_gluing(monkeypatch):
    # code every restriction to a proper open as zero: the sections of D(6)
    # then vanish on the cover {D(2), D(3)} and glue from no family
    exact = sheaf._lift

    def forgetful(tables, radices):
        codes = exact(tables, radices)
        return [0] * len(codes) if 1 in radices else codes

    monkeypatch.setattr(sheaf, "_lift", forgetful)
    report = sheaf_axioms_check(from_cyclic_orders(ZZ, [6]))
    assert not report.identity_ok and not report.gluing_ok
    for start in ("identity axiom fails", "gluing not unique", "no unique glue"):
        assert any(f.startswith(start) for f in report.failures), start


def test_a_twisted_restriction_fails_the_fiberwise_gluing_check(monkeypatch):
    # on Z/30, shift the coded restriction from {2, 3} to {2} (the only one
    # whose digit tables are range(2) kept and a 3-element stalk dropped),
    # so the families induced on {2, 3} and {2, 5} disagree on {2}; with
    # FAMILY_LIMIT = 0 every cover takes the fiberwise branch
    exact = sheaf._lift

    def twisted(tables, radices):
        codes = exact(tables, radices)
        if list(radices) == [2, 1] and len(tables[1]) == 3:
            return [(c + 1) % 2 for c in codes]
        return codes

    monkeypatch.setattr(sheaf, "_lift", twisted)
    monkeypatch.setattr(sheaf, "FAMILY_LIMIT", 0)
    report = sheaf_axioms_check(from_cyclic_orders(ZZ, [30]))
    assert report.exhaustive_covers == 0
    assert not report.gluing_ok
    assert any(f.startswith("induced family incompatible") for f in report.failures)
