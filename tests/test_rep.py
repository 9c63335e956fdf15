import hashlib
import random
from collections import Counter

import pytest

from conftest import cokernel, injective_envelope, linear_a3, random_monomial_presentation
from stringalg import exactla as la
from stringalg import fixtures, rep, stringhom
from stringalg.automaton import strings_of_length
from stringalg.corpus import special_biserial_corpus, string_corpus
from stringalg.doze import NOT_LAURA, classify, find_doze
from stringalg.errors import CorruptPresentationError, DozedStringAnomaly, PreconditionError
from stringalg.presentation import (
    Presentation,
    has_window,
    monomial_form,
    quotient_by_J,
    validate_string_algebra,
)
from stringalg.walks import (
    Walk,
    inverse_walk,
    parse_walk,
    serialize_walk,
    trivial_walk,
    walk_vertices,
)


def walk(p, text):
    return parse_walk(p.quiver, text)


# Only tests build simple modules and cosyzygies or ask whether a module
# is projective, so these stay out of `rep`.


def simple_module(p, x):
    return rep.Representation(p, {x: 1}, {})


def cosyzygy(p, M):
    """Cokernel of the injective envelope."""
    _I, embed = injective_envelope(p, M)
    C, _ = cokernel(embed)
    return C


def is_projective_module(p, M):
    P, _ = rep.projective_cover(p, M)
    return P.total_dim == M.total_dim


# --- string modules ---------------------------------------------------------


def test_trivial_string_gives_simple_module(skew6):
    M = rep.string_module(skew6, trivial_walk(skew6.quiver, "x4"))
    assert M.total_dim == 1
    assert M.dims["x4"] == 1


def test_band_power_one_dimensions(skew6):
    M = rep.string_module(skew6, walk(skew6, "x4: gamma1 gamma2^-1 beta2^-1 beta1"))
    assert M.total_dim == 5
    assert {v: d for v, d in M.dims.items() if d} == {
        "x2": 1,
        "x3": 1,
        "x4": 2,
        "x5": 1,
    }


def test_string_module_dimension_is_length_plus_one(skew6):
    from stringalg.automaton import enumerate_strings

    for w in enumerate_strings(skew6, 6):
        assert rep.string_module(skew6, w).total_dim == len(w.letters) + 1


def test_string_module_rejects_non_strings(skew6):
    with pytest.raises(PreconditionError):
        rep.string_module(skew6, walk(skew6, "x1: alpha beta1"))


def test_string_module_satisfies_zero_relations(skew6):
    M = rep.string_module(skew6, walk(skew6, "x4: gamma1 gamma2^-1 beta2^-1 beta1"))
    for g in skew6.zero_paths:
        assert all(not any(row) for row in M.path_matrix(g))


def test_inverse_string_gives_isomorphic_module(skew6):
    q = skew6.quiver
    w = walk(skew6, "x4: gamma1 gamma2^-1 beta2^-1 beta1")
    M = rep.string_module(skew6, w)
    N = rep.string_module(skew6, inverse_walk(q, w))
    assert M.dims == N.dims
    # reversing the passage order per vertex is the isomorphism
    from stringalg.walks import walk_vertices

    verts = walk_vertices(q, w)
    per_vertex = {}
    for i, v in enumerate(verts):
        per_vertex.setdefault(v, []).append(i)
    blocks = {}
    for v in q.vertices:
        n = M.dims[v]
        b = la.zeros(n, n)
        for k in range(n):
            b[n - 1 - k][k] = 1
        blocks[v] = b
    iso = rep.ModuleMap(M, N, blocks)
    assert iso.is_injective() and iso.is_surjective()


# --- projectives and injectives ----------------------------------------------


def test_projective_at_x4(skew6):
    P = rep.projective(skew6, "x4")
    assert {v: d for v, d in P.dims.items() if d} == {"x4": 1, "x5": 1}


def test_injective_at_x4(skew6):
    I = rep.injective(skew6, "x4")
    assert {v: d for v, d in I.dims.items() if d} == {"x2": 1, "x4": 1}


def test_sink_projective_is_simple():
    p = linear_a3()
    P = rep.projective(p, "3")
    assert P.total_dim == 1 and P.dims["3"] == 1


def test_general_route_refuses_commutativity_relations(commsquare):
    # With ab = cd, P_A(1) is one-dimensional at vertex 4 and pd_A S(1) = 2;
    # bases of ideal-avoiding paths would give 2 and False there.
    S1 = simple_module(commsquare, "1")
    calls = [
        lambda: rep.projective(commsquare, "1"),
        lambda: rep.injective(commsquare, "4"),
        lambda: rep.pd_at_least_2(commsquare, S1),
        lambda: rep.id_at_least_2(commsquare, S1),
        lambda: rep.string_module(commsquare, trivial_walk(commsquare.quiver, "1")),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="needs a monomial presentation"):
            call()
    j = quotient_by_J(commsquare)
    assert {v: d for v, d in rep.projective(j, "1").dims.items() if d} == {"1": 1, "2": 1, "3": 1}


def test_top_and_radical_of_projective(skew6):
    P = rep.projective(skew6, "x4")
    T, _ = rep.top(P)
    R, _ = rep.radical(P)
    assert {v: d for v, d in T.dims.items() if d} == {"x4": 1}
    assert {v: d for v, d in R.dims.items() if d} == {"x5": 1}


def test_simple_has_trivial_radical_and_socle(skew6):
    S = simple_module(skew6, "x3")
    T, _ = rep.top(S)
    R, _ = rep.radical(S)
    soc, _ = rep.socle(S)
    assert T.total_dim == 1 and R.total_dim == 0 and soc.total_dim == 1


def test_top_of_band_module_by_rank(skew6):
    M = rep.string_module(skew6, walk(skew6, "x4: gamma1 gamma2^-1 beta2^-1 beta1"))
    T, _ = rep.top(M)
    # peaks of the walk: the first x4 passage and the x2 passage
    assert T.total_dim == 2
    assert {v: d for v, d in T.dims.items() if d} == {"x4": 1, "x2": 1}
    soc, _ = rep.socle(M)
    # deep points: the final x4 passage and the x5 passage
    assert soc.total_dim == 2
    assert {v: d for v, d in soc.dims.items() if d} == {"x4": 1, "x5": 1}


def _kills(a, incl, ncols):
    return not any(any(row) for row in la.matmul(a, incl, ncols=ncols))


@pytest.mark.parametrize("make", [fixtures.skew6, fixtures.thirteen], ids=["skew6", "thirteen"])
def test_sub_modules_of_string_modules(make):
    """At every vertex of every string module up to length 4: the radical's
    image is the span of the arrow images, the socle's the joint kernel of
    the arrows out, kernel(cover)'s the kernel of the cover's block, each
    inclusion is injective, and dim rad + dim top = dim M."""
    p = make()
    q = p.quiver
    for w in strings_of_length(p, range(5)):
        M = rep.string_module(p, w)
        R, to_rad = rep.radical(M)
        T, _ = rep.top(M)
        S, to_soc = rep.socle(M)
        P, cover = rep.projective_cover(p, M)
        K, to_ker = rep.kernel(cover)
        assert to_rad.is_injective() and to_soc.is_injective() and to_ker.is_injective()
        for v in q.vertices:
            n = M.dims[v]
            assert R.dims[v] + T.dims[v] == n, (w, v)
            images = [[x for a in q.in_arrows(v) for x in M.maps[a.name][i]] for i in range(n)]
            joined = [r + s for r, s in zip(to_rad.blocks[v], images)]
            assert la.rank(to_rad.blocks[v]) == la.rank(images) == la.rank(joined), (w, v)
            stacked = [row for a in q.out_arrows(v) for row in M.maps[a.name]]
            assert la.rank(to_soc.blocks[v]) == n - la.rank(stacked), (w, v)
            assert _kills(stacked, to_soc.blocks[v], S.dims[v]), (w, v)
            assert la.rank(to_ker.blocks[v]) == P.dims[v] - la.rank(cover.blocks[v]), (w, v)
            assert _kills(cover.blocks[v], to_ker.blocks[v], K.dims[v]), (w, v)


def test_sub_representation_must_be_arrow_closed(skew6):
    P = rep.projective(skew6, "x4")
    assert P.dims["x4"] == 1 and P.dims["x5"] == 1
    spans = {v: ([], []) for v in skew6.quiver.vertices}
    spans["x4"] = ([[1]], [0])  # the top vector alone: its image at x5 is left out
    with pytest.raises(CorruptPresentationError, match="sub-representation is not arrow-closed"):
        rep._sub_representation(P, spans)


# --- covers, envelopes, syzygies ---------------------------------------------


def test_cover_of_projective_is_isomorphism(skew6):
    P = rep.projective(skew6, "x2")
    C, cover = rep.projective_cover(skew6, P)
    assert C.total_dim == P.total_dim
    assert cover.is_injective() and cover.is_surjective()


def test_cover_of_simple_is_projective(skew6):
    S = simple_module(skew6, "x4")
    P, cover = rep.projective_cover(skew6, S)
    assert P.dims == rep.projective(skew6, "x4").dims
    K, _ = rep.kernel(cover)
    assert K.total_dim == P.total_dim - S.total_dim


def test_envelope_of_simple_is_injective_hull(skew6):
    S = simple_module(skew6, "x4")
    I, embed = injective_envelope(skew6, S)
    assert I.dims == rep.injective(skew6, "x4").dims
    C, _ = cokernel(embed)
    assert C.total_dim == I.total_dim - S.total_dim
    assert {v: d for v, d in C.dims.items() if d} == {"x2": 1}


def test_syzygy_dimension_bookkeeping(skew6):
    S = simple_module(skew6, "x4")
    P, cover = rep.projective_cover(skew6, S)
    K, _ = rep.kernel(cover)
    assert K.total_dim == P.total_dim - S.total_dim
    syz = rep.syzygy(skew6, S)
    assert syz.dims == K.dims
    assert {v: d for v, d in syz.dims.items() if d} == {"x5": 1}
    cosyz = cosyzygy(skew6, S)
    assert {v: d for v, d in cosyz.dims.items() if d} == {"x2": 1}


def _module_lines(R):
    yield repr(sorted(R.dims.items()))
    for a in sorted(R.maps):
        yield a + " " + repr([[str(x) for x in row] for row in R.maps[a]])


def _map_lines(f):
    for v in sorted(f.blocks):
        yield v + " " + repr([[str(x) for x in row] for row in f.blocks[v]])


@pytest.mark.parametrize(
    "make, count, digest",
    [
        (fixtures.skew6, 24, "bed920460f9462252f6fe4468c5c898ca3ca058257db91a195840fc11b85510f"),
        (fixtures.thirteen, 69, "b8331e81c9fd3053569a6ce4b05fdd632db67b78d00e1de1b930a9b1d65ae4dc"),
    ],
    ids=["skew6", "thirteen"],
)
def test_matrix_route_outputs_are_pinned(make, count, digest):
    """Every entry of the top, the projective cover, its kernel, the
    injective envelope and its cokernel (modules and maps), and both
    verdicts, of each string up to length 4.  Entries are hashed through
    `str`, so an int and a Fraction of the same value agree."""
    p = make()
    strings = strings_of_length(p, range(5))
    lines = []
    for w in strings:
        M = rep.string_module(p, w)
        T, onto_top = rep.top(M)
        P, cover = rep.projective_cover(p, M)
        K, incl = rep.kernel(cover)
        I, embed = injective_envelope(p, M)
        C, onto_coker = cokernel(embed)
        for X, f in ((T, onto_top), (P, cover), (K, incl), (I, embed), (C, onto_coker)):
            lines.extend(_module_lines(X))
            lines.extend(_map_lines(f))
        lines.append(f"{rep.pd_at_least_2(p, M)} {rep.id_at_least_2(p, M)}")
    assert len(strings) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


# --- pd and id thresholds ------------------------------------------------------


def test_projectives_have_pd_zero(skew6):
    for x in skew6.quiver.vertices:
        assert not rep.pd_at_least_2(skew6, rep.projective(skew6, x))


def test_injectives_have_id_zero(skew6):
    for x in skew6.quiver.vertices:
        assert not rep.id_at_least_2(skew6, rep.injective(skew6, x))


def test_simple_x4_has_both_dimensions_at_least_two(skew6):
    S = simple_module(skew6, "x4")
    assert rep.pd_at_least_2(skew6, S)
    assert rep.id_at_least_2(skew6, S)


def test_source_simple_in_hereditary_quiver_has_small_id():
    p = linear_a3()
    S = simple_module(p, "1")
    assert not rep.id_at_least_2(p, S)
    assert not rep.pd_at_least_2(p, S)  # hereditary: pd <= 1 everywhere


def test_dual_route_matches_envelope_route(skew6, thirteen):
    from stringalg.automaton import enumerate_strings
    from tests.test_oracles import naturality_id_at_least_2

    assert rep.id_at_least_2_dual is rep.id_at_least_2
    for p in (skew6, thirteen):
        for w in enumerate_strings(p, 4):
            M = rep.string_module(p, w)
            assert rep.id_at_least_2(p, M) == naturality_id_at_least_2(p, M), w


# --- pumped modules -------------------------------------------------------------


def test_dozed_modules_of_skew6(skew6):
    w = find_doze(skew6)
    M0 = rep.dozed_module(skew6, w, 0)
    assert M0.total_dim == 1 and M0.dims["x4"] == 1
    M1 = rep.dozed_module(skew6, w, 1)
    assert M1.total_dim == 5
    M2 = rep.dozed_module(skew6, w, 2)
    assert M2.total_dim == 9


def test_dozed_dimension_growth_is_linear(skew6):
    w = find_doze(skew6)
    dims = [rep.dozed_module(skew6, w, n).total_dim for n in range(4)]
    steps = {b - a for a, b in zip(dims, dims[1:])}
    assert len(steps) == 1
    assert dims == sorted(set(dims))


def test_dozed_anomaly_surfaces_loudly():
    from tests.test_doze import interlocked_runs
    from stringalg.doze import DozeWitness
    from stringalg.walks import direct, inverse, make_cyclic, make_walk

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
    with pytest.raises(DozedStringAnomaly):
        rep.dozed_module(p, wit, 0)
    assert rep.dozed_module(p, wit, 1).total_dim == 6


def test_theorem_five_on_witness(skew6):
    w = find_doze(skew6)
    for n in (0, 1, 2):
        M = rep.dozed_module(skew6, w, n)
        assert rep.pd_at_least_2(skew6, M)
        assert rep.id_at_least_2(skew6, M)


def test_every_corpus_witness_pumps_to_pd_and_id_at_least_2(corpora, skew6):
    """NotLaura gives infinitely many strings with pd >= 2 and id >= 2:
    for the DOZE witness of every NotLaura instance of the corpora and
    skew6, the dozed strings at n = 1, 2, 3 grow strictly and pass both
    thresholds."""
    witnesses = 0
    for p in corpora.largest() + [skew6]:
        report = classify(p)
        if report.verdict != NOT_LAURA:
            continue
        m, w = monomial_form(p), report.evidence
        lengths = []
        for n in (1, 2, 3):
            s = stringhom.dozed_module_string(m, w, n)
            assert stringhom.string_pd_at_least_2(m, s), (w.serialize(), n)
            assert stringhom.string_id_at_least_2(m, s), (w.serialize(), n)
            lengths.append(len(s))
        assert lengths[0] < lengths[1] < lengths[2], w.serialize()
        witnesses += 1
    assert witnesses == 3097


# --- the scan ---------------------------------------------------------------------


def test_scan_of_relation_free_quiver_is_empty():
    assert stringhom.conjecture_scan(linear_a3(), 8).count_both_ge2 == 0
    # perfbench/workloads.py reaches the scan as rep.conjecture_scan
    assert rep.conjecture_scan is stringhom.conjecture_scan


def test_scan_of_skew6_contains_growing_family(skew6):
    result = stringhom.conjecture_scan(skew6, 12)
    assert result.count_both_ge2 >= 3
    dims = sorted(rep.string_module(skew6, w).total_dim for w in result.witnesses)
    assert {1, 5, 9} <= set(dims)


def test_scan_of_thirteen_regression_baseline(thirteen):
    from stringalg.walks import serialize_walk

    result = stringhom.conjecture_scan(thirteen, 20)
    got = [serialize_walk(w) for w in result.witnesses]
    assert got == [
        "5:",
        "6:",
        "7:",
        "8:",
        "9:",
        "7: beta1",
        "7: beta2",
        "8: gamma1",
        "9: gamma2",
    ]


def test_scan_window_parameters(thirteen):
    result = stringhom.conjecture_scan(thirteen, 6, min_len=5)
    for w in result.witnesses:
        assert 5 <= len(w.letters) <= 6


# --- the combinatorial route, with the exact route as its oracle --------------


def exact_scan(p, max_len, min_len=0):
    """conjecture_scan computed through the exact linear-algebra route."""
    witnesses = []
    for w in strings_of_length(p, range(min_len, max_len + 1)):
        M = rep.string_module(p, w)
        if rep.pd_at_least_2(p, M) and rep.id_at_least_2(p, M):
            witnesses.append(w)
    witnesses.sort(key=Walk.key)
    return stringhom.ScanResult(len(witnesses), tuple(witnesses))


def _nonzero(dims):
    return {v: d for v, d in dims.items() if d}


def assert_routes_agree(p, lengths):
    """Cover, syzygy dimension vector and both verdicts of every string
    with length in `lengths` agree with the exact route; returns the
    number of strings compared.

    The exact pd verdict is `pd_at_least_2`'s own test applied to the
    cover and kernel computed here once, which halves the oracle's cost.
    """
    q = p.quiver
    count = 0
    for w in strings_of_length(p, lengths):
        M = rep.string_module(p, w)
        P, cover = rep.projective_cover(p, M)
        K, _ = rep.kernel(cover)
        tops = Counter()
        for x in stringhom.string_cover(p, w):
            tops.update(rep.projective(p, x).dims)
        assert _nonzero(tops) == _nonzero(P.dims), w
        syzygy = Counter()
        for s in stringhom.string_syzygy(p, w):
            syzygy.update(walk_vertices(q, s))
        assert dict(syzygy) == _nonzero(K.dims), w
        pd = P.total_dim != M.total_dim and not is_projective_module(p, K)
        assert stringhom.string_pd_at_least_2(p, w) == pd, w
        assert stringhom.string_id_at_least_2(p, w) == rep.id_at_least_2(p, M), w
        count += 1
    return count


def test_string_route_on_simple_and_projective(skew6):
    x4 = trivial_walk(skew6.quiver, "x4")
    assert stringhom.string_cover(skew6, x4) == ("x4",)
    assert stringhom.string_syzygy(skew6, x4) == (trivial_walk(skew6.quiver, "x5"),)
    # P(x2) is the string module of its two maximal paths
    w = walk(skew6, "x5: gamma1^-1 beta1^-1 beta2 gamma2")
    assert stringhom.string_cover(skew6, w) == ("x2",)
    assert stringhom.string_syzygy(skew6, w) == ()
    assert not stringhom.string_pd_at_least_2(skew6, w)
    # cutting P(x2) short at both ends leaves S(x5) twice
    w = walk(skew6, "x4: beta1^-1 beta2")
    x5 = trivial_walk(skew6.quiver, "x5")
    assert stringhom.string_syzygy(skew6, w) == (x5, x5)
    assert stringhom.string_pd_at_least_2(skew6, x4) and stringhom.string_id_at_least_2(skew6, x4)


def test_string_route_matches_exact_route_on_fixtures(skew6, thirteen):
    compared = sum(assert_routes_agree(p, range(9)) for p in (skew6, thirteen, linear_a3()))
    assert compared == 163


def test_string_route_matches_exact_route_in_pumped_window(thirteen):
    assert assert_routes_agree(thirteen, range(37, 38)) == 12


def test_string_route_matches_exact_route_on_corpus(corpus500):
    assert sum(assert_routes_agree(p, range(5)) for p in corpus500[:60]) == 1525


def test_string_route_matches_exact_route_on_j_quotients(corpora):
    quotients = [quotient_by_J(p) for p in corpora(special_biserial_corpus, 20260809, 6)]
    assert sum(assert_routes_agree(p, range(5)) for p in quotients) == 334


def test_string_route_needs_a_string_algebra(nine):
    w = trivial_walk(nine.quiver, "x5")
    for f in (
        stringhom.string_cover,
        stringhom.string_syzygy,
        stringhom.string_pd_at_least_2,
        stringhom.string_id_at_least_2,
    ):
        with pytest.raises(PreconditionError):
            f(nine, w)


def test_scan_of_non_string_monomial_presentation_takes_exact_route():
    rng = random.Random(7)
    results = []
    while len(results) < 3:
        p = random_monomial_presentation(rng, max_vertices=4, max_arrows=5)
        if p is None or validate_string_algebra(p).is_valid:
            continue
        results.append(stringhom.conjecture_scan(p, 3))
        assert results[-1] == exact_scan(p, 3)
    assert any(r.count_both_ge2 for r in results)


def flipped(w):
    """w with every letter's direction flipped: the string of D M(w)."""
    return Walk(w.base, tuple(l.inverted() for l in w.letters))


def test_string_id_is_string_pd_over_the_opposite_algebra(corpora, skew6, thirteen, commsquare):
    # D = Hom(-, k) sends M(w) over A to M(w flipped) over A^op and
    # injectives to projectives, so id M(w) >= 2 iff pd D M(w) >= 2
    presentations = [skew6, thirteen, quotient_by_J(commsquare)] + corpora(string_corpus, 5, 200)
    compared = 0
    for p in presentations:
        pop = p.opposite()
        for w in strings_of_length(p, range(9)):
            assert stringhom.string_id_at_least_2(p, w) == stringhom.string_pd_at_least_2(pop, flipped(w)), w
            compared += 1
    assert compared == 15604


def whole_path_continuation(h, head, at, first=None):
    """`_StringHomology.continuation` by its definition: the maximal path u
    from `at`, starting with `first` when given, with head.u outside the
    ideal, each step testing every window of the whole path head.u.a."""
    q = h.quiver
    path = tuple(head)
    choices = (q.arrow[first],) if first is not None else q.out_arrows(at)
    while True:
        for a in choices:
            if not has_window(path + (a.name,), h.index):
                break
        else:
            return path[len(head) :]
        path += (a.name,)
        choices = q.out_arrows(a.target)


def test_continuation_matches_the_whole_path_rule(corpus500, skew6, thirteen, commsquare):
    """`continuation` looks up only the windows ending at each new arrow;
    the whole-path rule agrees on every site of every string up to length
    8 and every dim P(x) continuation, over A and over the dual, on the
    fixtures and corpus500[:100]."""
    compared = 0
    for p in [skew6, thirteen, quotient_by_J(commsquare)] + corpus500[:100]:
        strings = strings_of_length(p, range(9))
        for dual in (False, True):
            h = stringhom._string_homology(p, dual)
            calls = [((), x, a.name) for x in h.quiver.vertices for a in h.quiver.out_arrows(x)]
            for w in strings:
                arrows, inv = stringhom._arrows_and_flags(w)
                for site in h._sites(w.base, arrows, inv.translate(stringhom._FLIP) if dual else inv):
                    if len(site) == 3:
                        calls.append(site)
                    else:
                        (left, right), v = site
                        calls += [(left, v, None), (right, v, None)]
            for head, at, first in calls:
                got = h.continuation(head, at, first)
                assert got == whole_path_continuation(h, head, at, first), (dual, head, at, first)
                compared += 1
    assert compared == 78770


def test_scan_builds_no_opposite_algebra(monkeypatch):
    p = fixtures.thirteen()
    built = []
    original = Presentation.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Presentation, "__init__", counting)
    assert stringhom.conjecture_scan(p, 46, min_len=37).count_both_ge2 == 0
    assert "opposite" not in p._cache
    assert built == []


def _verdicts(p, strings):
    return [(stringhom.string_pd_at_least_2(p, w), stringhom.string_id_at_least_2(p, w)) for w in strings]


@pytest.mark.parametrize(
    "make, lengths",
    [
        (fixtures.skew6, range(0, 9)),
        (fixtures.thirteen, range(0, 9)),
        (fixtures.thirteen, range(37, 39)),
        (linear_a3, range(0, 4)),
        (lambda: quotient_by_J(special_biserial_corpus(20260809, 6)[2]), range(0, 6)),
    ],
    ids=["skew6", "thirteen", "thirteen-pumped", "relation-free", "j-quotient"],
)
def test_string_verdicts_do_not_depend_on_call_order(make, lengths):
    """The per-site memo gives the same verdicts whichever strings a
    presentation saw first."""
    p = make()
    strings = strings_of_length(p, lengths)
    forward = _verdicts(p, strings)
    backward = _verdicts(make(), strings[::-1])
    assert backward[::-1] == forward
    witnesses = tuple(w for w, (pd, id_) in zip(strings, forward) if pd and id_)
    assert stringhom.conjecture_scan(make(), max(lengths), min_len=min(lengths)).witnesses == witnesses


def test_string_route_edge_cases(corpora):
    # a relation-free quiver: no generator to complete, every window empty
    a3 = linear_a3()
    assert a3.max_generator_length() - 1 == -1
    assert _verdicts(a3, strings_of_length(a3, range(0, 3))) == [(False, False)] * 6
    # a descent reaching the first letter must not wrap round to the last
    p = quotient_by_J(corpora(special_biserial_corpus, 20260809, 6)[2])
    w = walk(p, "v4: a6 a5^-1 a6")
    M = rep.string_module(p, w)
    assert stringhom.string_pd_at_least_2(p, w) == rep.pd_at_least_2(p, M)
    assert stringhom.string_id_at_least_2(p, w) == rep.id_at_least_2(p, M)
    syzygy = Counter()
    for s in stringhom.string_syzygy(p, w):
        syzygy.update(walk_vertices(p.quiver, s))
    assert dict(syzygy) == _nonzero(rep.syzygy(p, M).dims)


def test_string_syzygy_order_is_pinned(skew6, thirteen):
    # the j = 0 end, the j = n end, then the valleys left to right
    cases = [
        (skew6, "x2: beta1 gamma1 gamma2^-1 beta2^-1", ["x3: gamma2", "x4: gamma1", "x5:"]),
        (thirteen, "13: rho7 rho8^-1", ["12:", "12: delta2", "9: delta2^-1"]),
    ]
    for p, text, want in cases:
        assert [serialize_walk(s) for s in stringhom.string_syzygy(p, walk(p, text))] == want
    lines = [
        serialize_walk(w) + " -> " + " | ".join(serialize_walk(s) for s in stringhom.string_syzygy(p, w))
        for p in (skew6, thirteen)
        for w in strings_of_length(p, range(7))
    ]
    assert len(lines) == 125
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "2dda74b58038b4b47093fd8b0065ec79a16093b65511e5c3ce9cb639c6a94e0b"
    )


def test_scan_of_skew6_witnesses_are_pinned():
    result = stringhom.conjecture_scan(fixtures.skew6(), 12)
    text = "\n".join(serialize_walk(w) for w in result.witnesses)
    assert result.count_both_ge2 == 42
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c6e330548d54ba4aba92537dd878b56d66247cddb8b36c1056bc3797d25de562"
    )


# --- sparse serialization -----------------------------------------------------------


def test_sparse_round_trip_shape(skew6):
    w = walk(skew6, "x4: gamma1 gamma2^-1 beta2^-1 beta1")
    dims, entries = stringhom.string_entries(skew6, w)
    assert dims == {"x2": 1, "x3": 1, "x4": 2, "x5": 1}
    total = sum(len(t) for t in entries.values())
    assert total == 4  # one identity entry per letter
    M = rep.string_module(skew6, w)
    assert {v: d for v, d in M.dims.items() if d} == dims
    assert entries == {
        a: [(i, j, 1) for i, row in enumerate(m) for j, x in enumerate(row) if x]
        for a, m in sorted(M.maps.items())
        if any(any(row) for row in m)
    }


def test_representation_constructor_rejects_broken_relations(skew6):
    # alpha then beta1 is a zero generator; a nonzero composite must raise
    dims = {"x1": 1, "x2": 1, "x4": 1}
    maps = {"alpha": [[1]], "beta1": [[1]]}
    with pytest.raises(Exception):
        rep.Representation(skew6, dims, maps)


def test_module_map_rejects_non_natural_blocks(skew6):
    M = rep.string_module(skew6, walk(skew6, "x2: beta1"))
    N = rep.string_module(skew6, walk(skew6, "x2: beta1"))
    blocks = {v: la.identity(M.dims[v]) for v in skew6.quiver.vertices}
    rep.ModuleMap(M, N, blocks)  # the identity is natural
    blocks["x4"] = [[0]]
    with pytest.raises(Exception):
        rep.ModuleMap(M, N, blocks)
