"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time


from stringalg import rep, stringhom
from stringalg.automaton import band_census, pumping_bound
from stringalg.decomp import check_structure, decompose, support_cover_check
from stringalg.doze import (
    NOT_LAURA,
    STRICT_LAURA_OR_TILTED,
    classify,
    find_double_zeros,
    find_doze,
    find_doze_bruteforce,
    has_double_zero,
)
from stringalg.errors import SearchBudgetExceeded
from stringalg.presentation import monomial_form, validate_string_algebra
from stringalg.walks import band_boundary, canonical_band, parse_band

PASS = "ACCEPTANCE {}: PASS ({})"


def report(n, detail):
    print(PASS.format(n, detail))


def test_criterion_1_thirteen_vertex_fixture(thirteen):
    assert find_doze(thirteen) is None
    assert classify(thirteen).verdict == STRICT_LAURA_OR_TILTED

    dec = decompose(thirteen)
    a_sets = [set(map(int, part.objects)) for part in dec.a_parts]
    b_sets = [set(map(int, part.objects)) for part in dec.b_parts]
    assert a_sets == [{8, 10, 11}, {9, 12, 13}]
    assert b_sets == [{1, 2, 5}, {3, 4, 6}]
    assert set(map(int, dec.middle.objects)) == {5, 6, 7, 8, 9}

    structure = check_structure(thirteen, dec)
    assert structure.all_pass, structure.details
    report(1, "no DOZE; strict laura or tilted; parts and middle exact; six checks pass")


def test_criterion_2_skew_fixture(skew6):
    w = find_doze(skew6)
    assert w is not None
    assert {w.rho1, w.rho2} == {("alpha", "beta1"), ("gamma1", "delta")}
    expected = parse_band(skew6.quiver, "band: x2: beta1 gamma1 gamma2^-1 beta2^-1")
    assert canonical_band(skew6.quiver, w.band) == canonical_band(
        skew6.quiver, expected
    )
    assert classify(skew6).verdict == NOT_LAURA
    report(2, "witness {alpha.beta1, gamma1.delta} with the expected band; NotLaura")


def test_criterion_3_dozed_modules(skew6):
    w = find_doze(skew6)
    totals = []
    for n in (0, 1, 2):
        M = rep.dozed_module(skew6, w, n)
        assert rep.pd_at_least_2(skew6, M), f"pd < 2 at power {n}"
        assert rep.id_at_least_2(skew6, M), f"id < 2 at power {n}"
        totals.append(M.total_dim)
    assert totals == [1, 5, 9]
    report(3, f"pumped modules of dimension {totals} all have pd >= 2 and id >= 2")


def test_criterion_4_nine_vertex_fixture(nine):
    result = validate_string_algebra(nine)
    assert not result.is_valid
    assert any(
        v.condition == 2 and v.site == "beta1" and v.kind == "successors"
        for v in result.violations
    )
    report(4, "not a string algebra; unique-continuation fails at beta1")


def test_criterion_5_oracle_equivalence(corpus500, skew6, thirteen, commsquare):
    start = time.time()
    instances = [monomial_form(p) for p in (skew6, thirteen, commsquare)] + list(corpus500)
    agreements = 0
    for p in instances:
        bound = pumping_bound(p)
        w = find_doze(p)
        if w is None:
            bf = find_doze_bruteforce(p, bound, node_budget=2_000_000)
            assert bf is None, "exact search missed a witness the oracle found"
        else:
            target = max(len(w.assembled(1).letters), min(bound, 8))
            bf = find_doze_bruteforce(p, target, node_budget=2_000_000)
            assert bf is not None, "oracle missed a witness the exact search found"
        agreements += 1
    elapsed = time.time() - start
    assert agreements == len(instances) == 503
    assert elapsed < 300, f"runtime budget exceeded: {elapsed:.0f}s"
    report(5, f"503/503 verdicts agree at the pumping bound in {elapsed:.1f}s")


def test_criterion_6_lemma_suite(corpus500, thirteen):
    from stringalg.walks import walk_vertices

    start = time.time()
    instances = list(corpus500) + [thirteen]
    pair_checks = mixed_checks = structure_checks = 0
    for p in instances:
        if find_doze(p) is not None:
            continue
        census = band_census(p)
        boundaries = {b: band_boundary(p, b) for b in census}
        for i, b1 in enumerate(census):
            for b2 in census[i + 1 :]:
                shared = set(walk_vertices(p.quiver, b1.walk)) & set(
                    walk_vertices(p.quiver, b2.walk)
                )
                assert len(shared) <= 1
                pair_checks += 1
        if any(bd.entering and bd.exiting for bd in boundaries.values()):
            assert not has_double_zero(p)
            assert find_double_zeros(p, 10) == []
            mixed_checks += 1
        elif census and classify(p).verdict == STRICT_LAURA_OR_TILTED:
            if structure_checks < 40:
                dec = decompose(p)
                structure = check_structure(p, dec)
                assert structure.all_pass, structure.details
                assert support_cover_check(p, 12, dec)
                structure_checks += 1
    assert pair_checks >= 6 and mixed_checks >= 3 and structure_checks >= 10
    report(
        6,
        f"{pair_checks} band pairs, {mixed_checks} mixed-band instances, "
        f"{structure_checks} structural decompositions verified in "
        f"{time.time() - start:.1f}s",
    )


def test_criterion_7_conjecture_scan_windows(skew6, thirteen, commsquare):
    start = time.time()
    doze_free = [thirteen, monomial_form(commsquare)]
    for p in doze_free:
        bound = pumping_bound(p)
        window = stringhom.conjecture_scan(p, bound + 10, min_len=bound + 1)
        assert window.count_both_ge2 == 0, "late witness on a DOZE-free fixture"
    scan = stringhom.conjecture_scan(skew6, 12)
    dims = sorted(rep.string_module(skew6, w).total_dim for w in scan.witnesses)
    distinct = sorted(set(dims))
    assert scan.count_both_ge2 >= 3
    assert len(distinct) >= 3, "no strictly increasing dimension chain"
    report(
        7,
        f"no witnesses in the pumped windows of the DOZE-free fixtures; "
        f"{scan.count_both_ge2} witnesses with dimensions up to {max(dims)} on the "
        f"DOZE-bearing one ({time.time() - start:.1f}s)",
    )
