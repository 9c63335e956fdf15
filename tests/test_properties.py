"""Randomized and property-based checks over the seeded corpus."""

import importlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringalg import textio
from stringalg.automaton import automaton, band_census, enumerate_strings, strings_of_length
from stringalg.decomp import check_structure, decompose, support_cover_check
from stringalg.doze import (
    QUASI_TILTED_CANONICAL,
    STRICT_LAURA_OR_TILTED,
    classify,
    find_double_zeros,
    find_doze,
    has_double_zero,
)
from stringalg.errors import PreconditionError
from stringalg.presentation import Presentation, minimalize, monomial_form
from stringalg.stringhom import conjecture_scan

# the package re-exports a function named `automaton`, so fetch the modules
automaton_module = importlib.import_module("stringalg.automaton")
doze_module = importlib.import_module("stringalg.doze")
presentation_module = importlib.import_module("stringalg.presentation")
decomp_module = importlib.import_module("stringalg.decomp")
stringhom_module = importlib.import_module("stringalg.stringhom")
from stringalg.walks import (
    Walk,
    band_boundary,
    canonical_string,
    inverse_walk,
    is_string,
    serialize_walk,
    parse_walk,
    walk_vertices,
)

# --- hypothesis-level data properties --------------------------------------

letters = st.sampled_from("abcdef")
paths = st.lists(letters, min_size=1, max_size=6).map(tuple)


@given(st.lists(paths, max_size=12))
def test_minimalize_idempotent(gens):
    once = minimalize(gens)
    assert minimalize(once) == once


@given(st.lists(paths, max_size=12))
def test_minimalize_yields_antichain(gens):
    from stringalg.presentation import _contains_subpath

    kept = minimalize(gens)
    for i, p in enumerate(kept):
        for j, q in enumerate(kept):
            if i != j:
                assert not _contains_subpath(p, q)


@st.composite
def skew6_walks(draw):
    from stringalg.fixtures import skew6 as build

    p = build()
    q = p.quiver
    base = draw(st.sampled_from(q.vertices))
    walk = Walk(base, ())
    at = base
    for _ in range(draw(st.integers(0, 6))):
        from stringalg.walks import direct, inverse, letter_ends

        options = [direct(a.name) for a in q.out_arrows(at)]
        options += [inverse(a.name) for a in q.in_arrows(at)]
        if not options:
            break
        letter = draw(st.sampled_from(options))
        walk = Walk(walk.base, walk.letters + (letter,))
        at = letter_ends(q, letter)[1]
    return p, walk


@given(skew6_walks())
@settings(max_examples=120)
def test_walk_serialization_round_trip(pw):
    p, w = pw
    assert parse_walk(p.quiver, serialize_walk(w)) == w


@given(skew6_walks())
@settings(max_examples=120)
def test_is_string_invariant_under_inversion(pw):
    p, w = pw
    assert is_string(p, w) == is_string(p, inverse_walk(p.quiver, w))


@given(skew6_walks())
@settings(max_examples=120)
def test_canonical_string_is_idempotent_and_symmetric(pw):
    p, w = pw
    q = p.quiver
    c = canonical_string(q, w)
    assert canonical_string(q, c) == c
    assert canonical_string(q, inverse_walk(q, w)) == c


# --- corpus-level semantic properties ----------------------------------------


def test_automaton_agrees_with_naive_is_string(corpus500):
    for p in corpus500[:80]:
        aut = automaton(p)
        for w in enumerate_strings(p, 5):
            assert aut.accepts(w)
        # walks that fail the naive predicate must be rejected as well
        q = p.quiver
        rng = random.Random(hash(tuple(sorted(q.arrow))) & 0xFFFF)
        for _ in range(30):
            from stringalg.walks import direct, inverse, letter_ends

            at = rng.choice(q.vertices)
            letters = []
            for _ in range(rng.randint(1, 6)):
                opts = [direct(a.name) for a in q.out_arrows(at)]
                opts += [inverse(a.name) for a in q.in_arrows(at)]
                if not opts:
                    break
                l = rng.choice(opts)
                letters.append(l)
                at = letter_ends(q, l)[1]
            if letters:
                w = Walk(letter_ends(q, letters[0])[0], tuple(letters))
                assert aut.accepts(w) == is_string(p, w)


def test_strings_closed_under_subwalks(corpus500):
    for p in corpus500[:40]:
        q = p.quiver
        for w in enumerate_strings(p, 5):
            verts = walk_vertices(q, w)
            for i in range(len(w.letters) + 1):
                for j in range(i, len(w.letters) + 1):
                    assert is_string(p, Walk(verts[i], w.letters[i:j]))


def test_doze_free_bands_pairwise_share_at_most_one_vertex(corpus500, thirteen):
    checked = 0
    for p in list(corpus500) + [thirteen]:
        if find_doze(p) is not None:
            continue
        census = band_census(p)
        if len(census) < 2:
            continue
        checked += 1
        for i, b1 in enumerate(census):
            for b2 in census[i + 1 :]:
                shared = set(walk_vertices(p.quiver, b1.walk)) & set(
                    walk_vertices(p.quiver, b2.walk)
                )
                assert len(shared) <= 1, (b1, b2)
    assert checked >= 4, "corpus produced too few multi-band DOZE-free instances"


def test_mixed_boundary_band_forces_no_double_zero(corpus500):
    checked = 0
    for p in corpus500:
        if find_doze(p) is not None:
            continue
        census = band_census(p)
        mixed = [
            b
            for b in census
            if band_boundary(p, b).entering and band_boundary(p, b).exiting
        ]
        if not mixed:
            continue
        checked += 1
        assert not has_double_zero(p)
        assert find_double_zeros(p, 10) == []
    assert checked >= 3, "corpus produced too few mixed-band DOZE-free instances"


def test_structure_checks_on_strict_laura_corpus(corpus500):
    checked = 0
    for p in corpus500:
        report = classify(p)
        if report.verdict != STRICT_LAURA_OR_TILTED:
            continue
        checked += 1
        dec = decompose(p)
        structure = check_structure(p, dec)
        assert structure.all_pass, structure.details
        assert support_cover_check(p, 8, dec)
        if checked >= 25:
            break
    assert checked >= 10, "corpus produced too few strict-laura instances"


def test_witnesses_pump_to_double_zeros_on_corpus(corpus500):
    checked = 0
    for p in corpus500:
        w = find_doze(p)
        if w is None:
            continue
        checked += 1
        for n in (1, 2, 3):
            w.double_zero(n)
        if checked >= 40:
            break
    assert checked >= 20


def test_fixture_witness_pumps_cleanly_even_at_zero(skew6):
    w = find_doze(skew6)
    for n in (0, 1, 2, 3):
        assert w.pumps_cleanly_at(n)


# --- relabeling equivariance ---------------------------------------------------


def relabel(p, seed):
    rng = random.Random(seed)
    q = p.quiver
    vperm = list(q.vertices)
    rng.shuffle(vperm)
    vmap = {v: f"w{idx}" for idx, v in zip(vperm, q.vertices)}
    names = [a.name for a in q.arrows]
    nperm = list(names)
    rng.shuffle(nperm)
    nmap = dict(zip(names, nperm))
    arrows = [(nmap[a.name], vmap[a.source], vmap[a.target]) for a in q.arrows]
    zeros = [[nmap[n] for n in g] for g in p.zero_paths]
    comms = [
        ([nmap[n] for n in l], [nmap[n] for n in r]) for l, r in p.comm_pairs
    ]
    return (
        Presentation.build(sorted(vmap.values()), arrows, zeros=zeros, comms=comms),
        vmap,
        nmap,
    )


def test_classify_verdict_is_relabeling_invariant(corpus500, skew6, thirteen):
    samples = list(corpus500[:20]) + [skew6, thirteen]
    for i, p in enumerate(samples):
        relabeled, _, _ = relabel(p, seed=i)
        assert classify(relabeled).verdict == classify(p).verdict


def test_classify_verdict_is_invariant_under_opposite(
    corpus500, skew6, thirteen, nine, commsquare
):
    # D = Hom(-, k) is a duality mod A -> mod A^op, and being laura is
    # self-dual, so the verdict must not change
    for p in list(corpus500) + [skew6, thirteen, commsquare]:
        assert classify(p.opposite()).verdict == classify(p).verdict
    for p in (nine, nine.opposite()):
        with pytest.raises(PreconditionError):
            classify(p)


def _flipped(q, w):
    """w with every letter's direction flipped, as a canonical string over
    the quiver q of the opposite algebra."""
    return canonical_string(q, Walk(w.base, tuple(l.inverted() for l in w.letters)))


def test_scan_is_invariant_under_opposite(corpus500, skew6, thirteen, nine):
    """D = Hom(-, k) takes M(w) to the string module over A^op of w with
    every letter flipped and swaps pd and id, so scanning A^op finds A's
    witnesses flipped: over thirteen's pumped window [37, 46], skew6 and
    nine (no string algebra: the matrix route) up to length 12 and
    corpus500 up to length 8.  The period skip then reads the pd side of
    one algebra and the id side of the other."""
    cases = [(thirteen, 46, 37), (skew6, 12, 0), (nine, 12, 0)]
    cases += [(p, 8, 0) for p in corpus500]
    found = 0
    for p, max_len, min_len in cases:
        want = conjecture_scan(p, max_len, min_len=min_len)
        pop = p.opposite()
        got = conjecture_scan(pop, max_len, min_len=min_len)
        assert got.count_both_ge2 == want.count_both_ge2, p
        assert set(got.witnesses) == {_flipped(pop.quiver, w) for w in want.witnesses}, p
        found += got.count_both_ge2
    assert found > 100, found


def test_string_corpus_gives_up_after_fifty_misses(monkeypatch):
    corpus_module = importlib.import_module("stringalg.corpus")
    calls = []

    def never(rng, **kwargs):
        calls.append(1)
        assert len(calls) <= 1000, "string_corpus does not give up"
        return None

    monkeypatch.setattr(corpus_module, "random_string_presentation", never)
    assert corpus_module.string_corpus(1, 5) == []
    assert len(calls) == 50


def test_decompose_is_relabeling_equivariant(thirteen):
    relabeled, vmap, _ = relabel(thirteen, seed=11)
    a = decompose(thirteen)
    b = decompose(relabeled)
    expected = {frozenset(vmap[v] for v in part.objects) for part in a.parts}
    got = {frozenset(part.objects) for part in b.parts}
    assert expected == got


# --- cached analysis ------------------------------------------------------------


def test_cached_analysis_matches_a_fresh_parse(corpus500, skew6, thirteen, nine, commsquare):
    for i, p in enumerate([skew6, thirteen, nine, commsquare] + list(corpus500[:40])):
        fresh = textio.parse(textio.serialize(f"copy{i}", p))[1]
        try:
            report = classify(p)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                classify(fresh)
            continue
        assert classify(p) is report
        assert classify(fresh) == report
        work, fresh_work = monomial_form(p), monomial_form(fresh)
        census = band_census(work)
        assert census == band_census(fresh_work)
        census.append(None)
        assert band_census(work) == census[:-1], "callers must not share the cached list"


# --- disjoint unions -----------------------------------------------------------


def disjoint_union(ps):
    """The presentations ps side by side, every vertex and arrow v of the
    i-th renamed to v_i, and the map from new names back to (i, old name)."""
    back = {}

    def rename(name, i):
        back[f"{name}_{i}"] = (i, name)
        return f"{name}_{i}"

    vertices, arrows, zeros = [], [], []
    for i, p in enumerate(ps):
        q = p.quiver
        vertices += [rename(v, i) for v in q.vertices]
        arrows += [(rename(a.name, i), f"{a.source}_{i}", f"{a.target}_{i}") for a in q.arrows]
        zeros += [[f"{n}_{i}" for n in g] for g in p.zero_paths]
    return Presentation.build(vertices, arrows, zeros=zeros), back


def disjoint_copies(p, k):
    """k copies of p, renamed as by `disjoint_union`."""
    return disjoint_union([p] * k)


# Joins for `chain_copies` of thirteen: e_i : 9_i -> 5_{i+1} with the zero
# relations delta2_i e_i and e_i alpha1_{i+1} keeps it StrictLauraOrTilted;
# a bare e_i : 5_i -> 8_{i+1} makes it NotLaura from two copies on.
STRICT_JOIN = ("9", "5", "delta2", "alpha1")
NOT_LAURA_JOIN = ("5", "8", None, None)


def chain_copies(p, k, join):
    """k copies of p, renamed as by `disjoint_copies`, joined into one
    connected chain: join = (source, target, before, after) adds an arrow
    e_i : source_i -> target_{i+1} for each i < k - 1, with the zero
    relations before_i e_i and e_i after_{i+1} where those are given."""
    copies, back = disjoint_copies(p, k)
    source, target, before, after = join
    q = copies.quiver
    arrows = [(a.name, a.source, a.target) for a in q.arrows]
    zeros = [list(g) for g in copies.zero_paths]
    for i in range(k - 1):
        arrows.append((f"e_{i}", f"{source}_{i}", f"{target}_{i + 1}"))
        zeros += [[f"{before}_{i}", f"e_{i}"]] if before else []
        zeros += [[f"e_{i}", f"{after}_{i + 1}"]] if after else []
    return Presentation.build(list(q.vertices), arrows, zeros=zeros), back


def _mapped(part, back):
    """The part as (copy, old objects, old arrows); it must lie in one copy."""
    (copy,) = {back[n][0] for n in part.objects | part.arrows}

    def old(names):
        return frozenset(back[n][1] for n in names)

    return copy, old(part.objects), old(part.arrows)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_disjoint_union_of_thirteen_decomposes_copywise(thirteen, k):
    one = decompose(thirteen)
    p, back = disjoint_copies(thirteen, k)
    assert classify(p).verdict == classify(thirteen).verdict
    dec = decompose(p)
    for got, want in ((dec.a_parts, one.a_parts), (dec.b_parts, one.b_parts)):
        assert Counter(_mapped(part, back) for part in got) == Counter(
            (i, part.objects, part.arrows) for i in range(k) for part in want
        )
    assert {back[v] for v in dec.middle.objects} == {
        (i, v) for i in range(k) for v in one.middle.objects
    }
    assert {back[a] for a in dec.middle.arrows} == {
        (i, a) for i in range(k) for a in one.middle.arrows
    }
    assert check_structure(p, dec).all_pass
    assert support_cover_check(p, 8, dec)


@pytest.mark.xfail(
    strict=True, reason="classify judges a disjoint union by one band census (ROADMAP item 5)"
)
def test_union_with_both_thresholds_is_not_quasi_tilted(corpus500):
    """A quasi-tilted algebra has no indecomposable with pd >= 2 and
    id >= 2.  The union of a QuasiTiltedCanonical member and a strict
    laura one has five such strings up to length 10, yet classify calls
    it QuasiTiltedCanonical."""
    u, _ = disjoint_union([corpus500[108], corpus500[49]])
    assert conjecture_scan(u, 10).count_both_ge2 == 5
    assert classify(u).verdict != QUASI_TILTED_CANONICAL


def test_analysis_pass_derives_each_fact_once(thirteen, monkeypatch):
    """classify -> decompose -> check_structure -> support_cover_check on
    four copies of thirteen: one classification and one band census per
    presentation, and a single presentation and string automaton for the
    whole pass, since every check reads the analysed automaton."""
    seen = {"minimalize": [], "classify": [], "census": [], "built": [], "automata": []}

    def record(key, real):
        def wrapper(first, *rest):
            seen[key].append(first)
            return real(first, *rest)

        return wrapper

    for module, name, key in (
        (presentation_module, "minimalize", "minimalize"),
        (doze_module, "_classify", "classify"),
        (automaton_module, "_band_census", "census"),
    ):
        monkeypatch.setattr(module, name, record(key, getattr(module, name)))
    monkeypatch.setattr(Presentation, "__init__", record("built", Presentation.__init__))
    aut_class = automaton_module.StringAutomaton
    monkeypatch.setattr(aut_class, "__init__", record("automata", aut_class.__init__))

    p, _ = disjoint_copies(thirteen, 4)
    assert classify(p).verdict == STRICT_LAURA_OR_TILTED
    dec = decompose(p)
    assert check_structure(p, dec).all_pass
    assert support_cover_check(p, 8, dec)
    for key in ("classify", "census"):
        assert seen[key], key
        assert len({id(x) for x in seen[key]}) == len(seen[key]), key
    assert len(seen["built"]) == 1
    assert len(seen["automata"]) == 1
    assert len(seen["minimalize"]) <= len(seen["built"])


def _counted_table(table, on_read):
    """A copy of a neighbour table, a dict or a list, that reports how
    many entries each `table[state]` read returns."""
    kind = type(table)

    class _CountedTable(kind):
        def __getitem__(self, key):
            value = kind.__getitem__(self, key)
            on_read(len(value))
            return value

    return _CountedTable(table)


def test_window_walk_reads_do_not_grow_with_the_length(thirteen):
    """Listing thirteen's strings of one length n reads the automaton's
    edges as often at n = 100, 400 and 1,600: below the window the walk
    goes round the band rings in whole turns, not letter by letter."""
    reads = []
    for n in (100, 400, 1600):
        p = textio.parse(textio.serialize("thirteen", thirteen))[1]
        aut = automaton(p)
        reads.append(0)
        aut.edges = _counted_table(aut.edges, lambda _n: reads.__setitem__(-1, reads[-1] + 1))
        assert len(strings_of_length(p, range(n, n + 1))) == 12
    assert reads[0] > 0 and max(reads) == reads[0], reads


def test_scan_site_reads_do_not_grow_with_the_length(thirteen, monkeypatch):
    """Scanning thirteen's strings of one length n reads as many syzygy
    site windows at n = 100, 400 and 1,600: each string's valleys are
    read once per band period, and the repeats are skipped."""
    windows = stringhom_module._windows
    reads = []

    def counted(*args):
        reads[-1] += 1
        return windows(*args)

    monkeypatch.setattr(stringhom_module, "_windows", counted)
    for n in (100, 400, 1600):
        p = textio.parse(textio.serialize("thirteen", thirteen))[1]
        reads.append(0)
        assert conjecture_scan(p, n, min_len=n).count_both_ge2 == 0
    assert reads[0] > 0 and max(reads) == reads[0], reads


def _width(mask):
    """Part labels in a mask: its bits for an int, else its members."""
    return mask.bit_length() if isinstance(mask, int) else len(mask)


@pytest.mark.parametrize("k", [4, 16, 64])
def test_decomposition_stages_work_linearly_on_the_chain(thirteen, k, monkeypatch):
    """decompose -> check_structure -> support_cover_check on the
    connected chain of k thirteens.  Per stage, the automaton neighbours
    read, the states the anchors' `d_category` reaches, the (state, mask)
    pairs the straddle reaches, and the part labels those pairs and the
    cover's masks carry (the bits a mask spans, as an AND costs) stay under
    a constant times the states.
    The double-zero pass reads a state's predecessors once per lowering."""
    p, _ = chain_copies(thirteen, k, STRICT_JOIN)
    classify(p)
    aut = automaton(monomial_form(p))
    stage, count = [None], Counter()

    def on_read(n):
        count[stage[-1], "neighbours read"] += n

    aut.edges = _counted_table(aut.edges, on_read)
    aut.__dict__["predecessors"] = _counted_table(aut.predecessors, on_read)

    def within(name, real):
        def wrapper(*args):
            stage.append(name)
            try:
                return real(*args)
            finally:
                stage.pop()

        return wrapper

    def counted(kind, real, sizes):
        def wrapper(*args):
            found = real(*args)
            count[stage[-1], kind] += sizes(found, *args)
            return found

        return wrapper

    def pair_sizes(found, *_):
        # the straddle reaches (state, mask) pairs, d_category bare states;
        # the second "reach" row wraps the first, so a pair counts once as
        # a node reached and once per bit of its mask
        return sum(_width(n[1]) for n in found if isinstance(n, tuple))

    def mask_sizes(pairs, _p, _max_len, _roots, held):
        return sum(map(_width, held)) + sum(_width(m) for _s, m in pairs)

    for name, kind, sizes in (
        ("reach", "states reached", lambda found, *_: len(found)),
        ("_labels", "labels", lambda found, *_: sum(map(_width, found))),
        ("reach", "labels", pair_sizes),
        ("_mask_pairs", "labels", mask_sizes),
    ):
        real = getattr(decomp_module, name)
        monkeypatch.setattr(decomp_module, name, counted(kind, real, sizes))
    for name, key in (
        ("d_category", "d_category"),
        ("_straddle_support", "straddle"),
        ("_double_zero_over", "double-zeros"),
        ("support_cover_check", "cover"),
    ):
        monkeypatch.setattr(decomp_module, name, within(key, getattr(decomp_module, name)))

    dec = decomp_module.decompose(p)
    assert decomp_module.check_structure(p, dec).all_pass
    assert decomp_module.support_cover_check(p, 8, dec)
    states = len(aut)
    assert {key for key, _kind in count} >= {"d_category", "straddle", "double-zeros", "cover"}
    assert count["straddle", "labels"] > 0, count
    assert count["cover", "labels"] <= 8 * states, count
    for (key, kind), n in count.items():
        assert n <= 16 * states, (key, kind, n, states)

# --- value classes -------------------------------------------------------------

stringhom_module = importlib.import_module("stringalg.stringhom")
walks_module = importlib.import_module("stringalg.walks")

# (class, fields in declaration order, fields left out of == and hash,
#  fields left out of repr, fields that default to None)
VALUE_CLASSES = [
    (presentation_module.OrientedPath, ("arrows", "source", "target"), (), (), ()),
    (presentation_module.Violation, ("condition", "site", "kind", "detail"), (), (), ()),
    (presentation_module.ValidationReport, ("violations",), (), (), ()),
    (walks_module.Walk, ("base", "letters"), (), (), ()),
    (walks_module.CyclicWalk, ("walk",), (), (), ()),
    (walks_module.BandBoundary, ("entering", "exiting"), (), (), ()),
    (doze_module.DoubleZero, ("rho1", "middle", "rho2", "whole"), (), (), ()),
    (doze_module.DozeWitness, ("p", "rho1", "w1", "band", "w3", "rho2"), (), ("p",), ()),
    (doze_module.BandInfo, ("band", "boundary"), (), (), ()),
    (
        doze_module.ClassificationReport,
        ("verdict", "evidence", "bands", "notes", "analyzed"),
        ("analyzed",),
        ("analyzed",),
        ("analyzed",),
    ),
    (
        decomp_module.Subcategory,
        ("label", "objects", "arrows", "anchor", "band"),
        ("band",),
        (),
        ("anchor", "band"),
    ),
    (
        decomp_module.Decomposition,
        ("a_parts", "b_parts", "middle", "notes"),
        (),
        (),
        (),
    ),
    (
        decomp_module.StructureReport,
        (
            "full",
            "no_entry",
            "convex",
            "unique_cycle",
            "middle_finite",
            "sides_double_zero_free",
            "details",
        ),
        (),
        (),
        (),
    ),
    (stringhom_module.ScanResult, ("count_both_ge2", "witnesses"), (), (), ()),
]


def value_example(cls, skew6, thirteen, commsquare):
    """One instance of cls as the library builds it from a fixture."""
    square = commsquare.quiver.path(commsquare.comm_pairs[0][0])
    witness = find_doze(skew6)
    report = classify(thirteen)
    dec = decompose(thirteen)
    return {
        "OrientedPath": lambda: square,
        "Violation": lambda: presentation_module.validate_string_algebra(commsquare).violations[0],
        "ValidationReport": lambda: presentation_module.validate_string_algebra(commsquare),
        "Walk": lambda: witness.band.walk,
        "CyclicWalk": lambda: witness.band,
        "BandBoundary": lambda: report.bands[0].boundary,
        "DoubleZero": lambda: witness.double_zero(1),
        "DozeWitness": lambda: witness,
        "BandInfo": lambda: report.bands[0],
        "ClassificationReport": lambda: report,
        "Subcategory": lambda: dec.a_parts[0],
        "Decomposition": lambda: dec,
        "StructureReport": lambda: check_structure(thirteen, dec),
        "ScanResult": lambda: stringhom_module.conjecture_scan(skew6, 4),
    }[cls.__name__]()


@pytest.mark.parametrize(
    "cls, fields, uncompared, hidden, defaulted",
    VALUE_CLASSES,
    ids=[row[0].__name__ for row in VALUE_CLASSES],
)
def test_value_class_semantics(cls, fields, uncompared, hidden, defaulted, skew6, thirteen, commsquare):
    x = value_example(cls, skew6, thirteen, commsquare)
    assert type(x) is cls
    values = {f: getattr(x, f) for f in fields}
    key = tuple(values[f] for f in fields if f not in uncompared)

    # equality and hash are those of the compared-field tuple
    same = cls(*values.values())
    assert same == x and not same != x
    assert hash(same) == hash(x) == hash(key)
    assert cls(**values) == x
    for f in fields:
        changed = cls(**{**values, f: object()})
        if f in uncompared:
            assert changed == x and hash(changed) == hash(x)
        else:
            assert changed != x
    bare = cls(**{f: v for f, v in values.items() if f not in defaulted})
    assert all(getattr(bare, f) is None for f in defaulted)

    # only the same class compares
    twin = type("Twin", (cls,), {})(**values)
    assert x != twin and twin != x
    assert x.__eq__(twin) is NotImplemented
    assert x != key

    shown = ", ".join(f"{f}={values[f]!r}" for f in fields if f not in hidden)
    assert repr(x) == f"{cls.__qualname__}({shown})"

    for f in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, f, None)
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert tuple(getattr(x, f) for f in fields) == tuple(values.values())
