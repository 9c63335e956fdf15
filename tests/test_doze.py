import hashlib

import pytest

from stringalg.corpus import special_biserial_corpus, string_corpus
from stringalg.doze import (
    FINITE_TYPE,
    HEREDITARY_SINGLE_BAND,
    NOT_LAURA,
    QUASI_TILTED_CANONICAL,
    STRICT_LAURA_OR_TILTED,
    DozeWitness,
    classify,
    find_double_zeros,
    find_doze,
    find_doze_bruteforce,
    has_double_zero,
    make_double_zero,
)
from stringalg.errors import (
    CorruptPresentationError,
    PreconditionError,
    SearchBudgetExceeded,
)
from stringalg.fixtures import linear_a3
from stringalg.presentation import Presentation, monomial_form
from stringalg.walks import (
    canonical_band,
    direct,
    inverse,
    make_cyclic,
    make_walk,
    parse_band,
    serialize_walk,
)


def interlocked_runs():
    """String algebra whose only DOZE family loses a generator gap at
    power zero: removing the band merges two runs across the generator
    (b, h).  Exercises the anomaly path of the pumped modules."""
    return Presentation.build(
        ["s1", "s2", "w2", "x", "u", "v", "y", "z1", "z2"],
        [
            ("p", "s1", "s2"),
            ("q", "s2", "w2"),
            ("b", "w2", "x"),
            ("g", "u", "x"),
            ("fp", "x", "v"),
            ("h", "x", "y"),
            ("m", "u", "v"),
            ("r", "y", "z1"),
            ("s", "z1", "z2"),
        ],
        zeros=[["p", "q"], ["r", "s"], ["b", "fp"], ["g", "h"], ["b", "h"]],
    )


# --- double-zeros ---------------------------------------------------------


def test_skew6_double_zeros_up_to_four(skew6):
    walks = [serialize_walk(dz.whole) for dz in find_double_zeros(skew6, 4)]
    assert walks == ["x1: alpha beta1 gamma1 delta", "x1: alpha beta2 gamma2 delta"]


def test_double_zero_factorization_fields(skew6):
    dz = find_double_zeros(skew6, 4)[0]
    assert dz.rho1 == ("alpha", "beta1")
    assert dz.rho2 == ("gamma1", "delta")
    assert dz.middle.is_trivial


def test_single_relation_gives_no_double_zero():
    p = linear_a3(zeros=[["a", "b"]])
    assert find_double_zeros(p, 10) == []
    assert not has_double_zero(p)


def test_thirteen_double_zero_regression_baseline(thirteen):
    walks = [serialize_walk(dz.whole) for dz in find_double_zeros(thirteen, 6)]
    assert walks == [
        "10: delta1 gamma1 beta2 alpha2",
        "12: delta2 gamma2 beta1 alpha1",
    ]
    assert has_double_zero(thirteen)


def test_overlapping_relations_are_not_double_zeros(thirteen):
    # rho5.delta1 followed by delta1.gamma1 shares the arrow delta1; the
    # factorization requires disjoint generator spans
    for dz in find_double_zeros(thirteen, 8):
        assert len(dz.whole.letters) >= len(dz.rho1) + len(dz.rho2)


def test_make_double_zero_validates(skew6):
    q = skew6.quiver
    mid = make_walk(q, "x4", [])
    dz = make_double_zero(skew6, ("alpha", "beta1"), mid, ("gamma1", "delta"))
    assert serialize_walk(dz.whole) == "x1: alpha beta1 gamma1 delta"
    with pytest.raises(CorruptPresentationError):
        make_double_zero(skew6, ("alpha", "beta1"), mid, ("beta1", "gamma1"))


# --- the exact search and its oracle --------------------------------------


def test_skew6_witness_matches_expected(skew6):
    w = find_doze(skew6)
    assert w is not None
    assert {tuple(w.rho1), tuple(w.rho2)} == {("alpha", "beta1"), ("gamma1", "delta")}
    expected = parse_band(skew6.quiver, "band: x2: beta1 gamma1 gamma2^-1 beta2^-1")
    assert canonical_band(skew6.quiver, w.band) == canonical_band(
        skew6.quiver, expected
    )


def test_thirteen_has_no_doze(thirteen):
    assert find_doze(thirteen) is None
    assert find_doze_bruteforce(thirteen, 14) is None


def test_no_band_means_no_doze():
    p = linear_a3(zeros=[["a", "b"]])
    assert find_doze(p) is None


def test_bruteforce_agrees_on_skew6(skew6):
    w = find_doze_bruteforce(skew6, 10)
    assert w is not None
    assert w.rho1 == ("alpha", "beta1")
    assert w.rho2 == ("gamma1", "delta")


def test_no_zero_relations_means_no_witness():
    p = Presentation.build(
        ["1", "2"], [("a", "1", "2"), ("b", "1", "2")]
    )
    assert find_doze(p) is None
    assert find_doze_bruteforce(p, 10) is None


def test_witness_pumps_to_double_zeros(skew6):
    w = find_doze(skew6)
    for n in (0, 1, 2, 3):
        dz = w.double_zero(n)
        assert dz.rho1 == w.rho1 and dz.rho2 == w.rho2
        assert len(dz.whole.letters) == 4 + 4 * n


def test_witness_assembly_matches_segments(skew6):
    w = find_doze(skew6)
    assembled = w.assembled(2)
    assert len(assembled.letters) == (
        len(w.rho1) + len(w.w1.letters) + 2 * len(w.band) + len(w.w3.letters) + len(w.rho2)
    )


def test_witness_serialization(skew6):
    w = find_doze(skew6)
    assert w.serialize() == (
        "doze: rho1=alpha.beta1 w1=[x4:] "
        "band=[x4: gamma1 gamma2^-1 beta2^-1 beta1] w3=[x4:] rho2=gamma1.delta"
    )


def test_every_corpus_witness_is_a_double_zero_past_the_third_power(corpora, skew6):
    """The witness check certifies every power n >= 1 from n = 1 and
    band . band, so the witnesses pump on past any power it ever
    built: n = 4 ... 8, on every NotLaura instance of the corpora and
    skew6."""
    witnesses = 0
    for p in corpora.largest() + [skew6]:
        w = classify(p).evidence
        if w is None:
            continue
        ends = len(w.rho1) + len(w.w1) + len(w.w3) + len(w.rho2)
        for n in range(4, 9):
            assert len(w.double_zero(n)) == ends + n * len(w.band), (w.serialize(), n)
        witnesses += 1
    assert witnesses == 3097


# --- the interlocked-runs algebra -----------------------------------------


def test_interlocked_runs_is_a_valid_string_algebra():
    from stringalg.presentation import validate_string_algebra

    p = interlocked_runs()
    assert validate_string_algebra(p).is_valid


def test_interlocked_runs_has_a_doze():
    p = interlocked_runs()
    w = find_doze(p)
    assert w is not None
    for n in (1, 2, 3):
        w.double_zero(n)
    assert classify(p).verdict == NOT_LAURA


def test_manual_witness_can_fail_at_power_zero():
    p = interlocked_runs()
    q = p.quiver
    wit = DozeWitness(
        p,
        ("p", "q"),
        make_walk(q, "w2", [direct("b")]),
        make_cyclic(q, make_walk(q, "x", [inverse("g"), direct("m"), inverse("fp")])),
        make_walk(q, "x", [direct("h")]),
        ("r", "s"),
    )
    for n in (1, 2, 3):
        wit.double_zero(n)
    assert not wit.pumps_cleanly_at(0)
    assert wit.pumps_cleanly_at(1)


# --- the classifier --------------------------------------------------------


def test_classify_thirteen(thirteen):
    report = classify(thirteen)
    assert report.verdict == STRICT_LAURA_OR_TILTED
    assert report.evidence is None
    assert len(report.bands) == 4
    for info in report.bands:
        assert not (info.boundary.entering and info.boundary.exiting)


def test_classify_skew6(skew6):
    report = classify(skew6)
    assert report.verdict == NOT_LAURA
    assert report.evidence is not None


def test_classify_relation_free_linear_quiver():
    assert classify(linear_a3()).verdict == FINITE_TYPE


def test_classify_commutative_square(commsquare):
    report = classify(commsquare)
    assert report.verdict == FINITE_TYPE
    assert any("J-quotient" in n for n in report.notes)


def test_classify_hereditary_single_band():
    p = Presentation.build(["1", "2"], [("a", "2", "1"), ("b", "2", "1")])
    assert classify(p).verdict == HEREDITARY_SINGLE_BAND


def test_classify_mixed_band_is_quasi_tilted():
    # one band with an entering and an exiting arrow and no double-zero
    p = Presentation.build(
        ["0", "1", "2", "3"],
        [
            ("a", "1", "2"),
            ("b", "1", "2"),
            ("e", "0", "1"),
            ("x", "2", "3"),
        ],
        zeros=[["e", "a"], ["b", "x"]],
    )
    assert not has_double_zero(p)
    report = classify(p)
    assert report.verdict == QUASI_TILTED_CANONICAL


def test_classify_rejects_non_special_biserial(nine):
    with pytest.raises(PreconditionError):
        classify(nine)


def test_not_laura_iff_evidence(skew6, thirteen, commsquare):
    for p in (skew6, thirteen, commsquare):
        report = classify(p)
        assert (report.verdict == NOT_LAURA) == (report.evidence is not None)


def test_double_zero_search_deeper_than_the_recursion_limit(skew6):
    # skew6's bands give walks of every length, so the first branch of the
    # depth-first search runs to length 1500 before the budget is spent.
    with pytest.raises(SearchBudgetExceeded):
        find_double_zeros(skew6, 1500, node_budget=2000)


# SHA-256 of one line per instance, `find_doze(m).serialize()` or `none`,
# over m = monomial_form(p) for string_corpus(20260809, 500),
# special_biserial_corpus(1, 200) and string_corpus(1, 2000), then skew6
# and thirteen: 2,702 instances, 1,018 witnesses.  Pins the assembled
# witness itself, which the differential tests check against a route that
# assembles it the same way.
WITNESS_SHA256 = "d580594b1d355088de3198c41387b80f6dd9d70b36377308f4b78f4a253b859c"


def test_doze_witnesses_are_pinned(corpora, corpus500, skew6, thirteen):
    instances = (
        corpus500
        + corpora(special_biserial_corpus, 1, 200)
        + corpora(string_corpus, 1, 2000)
        + [skew6, thirteen]
    )
    lines = []
    for p in instances:
        w = find_doze(monomial_form(p))
        lines.append("none" if w is None else w.serialize())
    assert (len(lines), sum(line != "none" for line in lines)) == (2702, 1018)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == WITNESS_SHA256
