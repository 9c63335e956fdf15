import pytest

from stringalg.errors import SemanticError
from stringalg.walks import (
    CyclicWalk,
    Walk,
    band_boundary,
    canonical_band,
    canonical_string,
    concat_walks,
    cyclic_power,
    direct,
    inverse_walk,
    is_band,
    is_reduced,
    is_string,
    make_cyclic,
    make_walk,
    parse_band,
    parse_walk,
    serialize_band,
    serialize_walk,
    trivial_walk,
    walk_end,
    walk_vertices,
)


def walk(p, text):
    return parse_walk(p.quiver, text)


def test_make_walk_checks_composability(skew6):
    q = skew6.quiver
    w = make_walk(q, "x1", [direct("alpha"), direct("beta1")])
    assert walk_end(q, w) == "x4"
    with pytest.raises(SemanticError):
        make_walk(q, "x1", [direct("beta1")])
    with pytest.raises(SemanticError):
        make_walk(q, "x9", [])


def test_trivial_walk_is_reduced_string(skew6):
    w = trivial_walk(skew6.quiver, "x3")
    assert is_reduced(w)
    assert is_string(skew6, w)
    assert walk_vertices(skew6.quiver, w) == ["x3"]


def test_immediate_backtrack_is_not_reduced(skew6):
    w = walk(skew6, "x2: beta1 beta1^-1")
    assert not is_reduced(w)
    assert not is_string(skew6, w)


def test_mixed_direction_walk_is_reduced(skew6):
    w = walk(skew6, "x4: gamma1 gamma2^-1 beta2^-1 beta1")
    assert is_reduced(w)
    assert is_string(skew6, w)


def test_generator_containment_kills_string(skew6):
    assert not is_string(skew6, walk(skew6, "x1: alpha beta1"))
    # the generator traversed inversely also kills the walk
    assert not is_string(skew6, walk(skew6, "x4: beta1^-1 alpha^-1"))


def test_thirteen_run_examples(thirteen):
    assert is_string(thirteen, walk(thirteen, "9: gamma2 beta1"))
    assert not is_string(thirteen, walk(thirteen, "9: gamma2 beta2"))


def test_string_closed_under_inverse(skew6):
    for text in ("x1: alpha", "x4: gamma1 gamma2^-1", "x2: beta1 gamma1"):
        w = walk(skew6, text)
        wi = inverse_walk(skew6.quiver, w)
        assert is_string(skew6, w) == is_string(skew6, wi)


def test_subwalks_of_strings_are_strings(skew6):
    w = walk(skew6, "x4: gamma1 gamma2^-1 beta2^-1 beta1 gamma1")
    assert is_string(skew6, w)
    q = skew6.quiver
    verts = walk_vertices(q, w)
    for i in range(len(w.letters) + 1):
        for j in range(i, len(w.letters) + 1):
            sub = Walk(verts[i], w.letters[i:j])
            assert is_string(skew6, sub)


def test_serialization_round_trip(skew6):
    texts = [
        "x4: gamma1 gamma2^-1 beta2^-1 beta1",
        "x1: alpha",
        "x6:",
        "x5: gamma1^-1 beta1^-1",
    ]
    for text in texts:
        w = parse_walk(skew6.quiver, text)
        assert serialize_walk(w) == text
        assert parse_walk(skew6.quiver, serialize_walk(w)) == w


def test_band_serialization_round_trip(skew6):
    text = "band: x4: gamma1 gamma2^-1 beta2^-1 beta1"
    b = parse_band(skew6.quiver, text)
    assert serialize_band(b) == text


def test_canonical_string_picks_one_of_each_pair(skew6):
    q = skew6.quiver
    w = walk(skew6, "x4: beta1^-1 beta2 gamma2")
    wi = inverse_walk(q, w)
    assert canonical_string(q, w) == canonical_string(q, wi)


# --- bands ----------------------------------------------------------------


def band_of(p, text):
    return parse_band(p.quiver, text)


def test_skew6_band(skew6):
    b = band_of(skew6, "band: x4: gamma1 gamma2^-1 beta2^-1 beta1")
    assert is_band(skew6, b)


def test_rho_pair_is_band(thirteen):
    assert is_band(thirteen, band_of(thirteen, "band: 2: rho1 rho2^-1"))


def test_proper_power_is_not_band(thirteen):
    c = band_of(thirteen, "band: 2: rho1 rho2^-1 rho1 rho2^-1")
    assert not is_band(thirteen, c)


def test_band_invariant_under_rotation_and_inversion(skew6):
    from tests.test_oracles import rotations

    q = skew6.quiver
    b = band_of(skew6, "band: x4: gamma1 gamma2^-1 beta2^-1 beta1")
    canon = canonical_band(q, b)
    for rot in rotations(q, b):
        assert is_band(skew6, rot)
        assert canonical_band(q, rot) == canon
        inv = make_cyclic(q, inverse_walk(q, rot.walk))
        assert is_band(skew6, inv)
        assert canonical_band(q, inv) == canon
    assert serialize_band(canon) == "band: x2: beta1 gamma1 gamma2^-1 beta2^-1"


def test_band_power_walks_are_strings(skew6):
    b = band_of(skew6, "band: x4: gamma1 gamma2^-1 beta2^-1 beta1")
    for n in range(4):
        assert is_string(skew6, cyclic_power(skew6.quiver, b, n))


# --- band boundaries ------------------------------------------------------


def test_boundary_of_exiting_band(thirteen):
    b = band_of(thirteen, "band: 11: rho5 rho6^-1")
    bd = band_boundary(thirteen, b)
    assert bd.exiting == {"delta1"}
    assert bd.entering == frozenset()


def test_boundary_of_entering_band(thirteen):
    bd = band_boundary(thirteen, band_of(thirteen, "band: 2: rho1 rho2^-1"))
    assert bd.entering == {"alpha1"}
    assert bd.exiting == frozenset()


def test_boundary_of_skew6_band_is_mixed(skew6):
    bd = band_boundary(
        skew6, band_of(skew6, "band: x4: gamma1 gamma2^-1 beta2^-1 beta1")
    )
    assert bd.entering == {"alpha"}
    assert bd.exiting == {"delta"}


def test_concat_walks_validates_junction(skew6):
    q = skew6.quiver
    a = walk(skew6, "x1: alpha")
    b = walk(skew6, "x2: beta1")
    assert serialize_walk(concat_walks(q, a, b)) == "x1: alpha beta1"
    with pytest.raises(SemanticError):
        concat_walks(q, b, a)


def test_malformed_walks_and_bands_are_rejected(skew6):
    q = skew6.quiver
    with pytest.raises(SemanticError, match="missing ':' after base vertex"):
        parse_walk(q, "x1 alpha")
    with pytest.raises(SemanticError, match="unknown arrow 'nosuch'"):
        make_walk(q, "x1", [direct("nosuch")])
    with pytest.raises(SemanticError, match="missing 'band:' prefix"):
        parse_band(q, "x1: alpha")
    open_walk = walk(skew6, "x1: alpha")
    with pytest.raises(SemanticError, match="walk is not cyclic"):
        make_cyclic(q, open_walk)
    with pytest.raises(SemanticError, match="walk is not cyclic"):
        canonical_band(q, CyclicWalk(open_walk))
