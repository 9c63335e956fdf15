"""Toolkit for string and special biserial algebras presented by bound
quivers: walk and band combinatorics, the laura classification via
interlaced double-zeros, the side/middle structural decomposition, and
exact string-module homology."""

from .presentation import (
    Arrow,
    OrientedPath,
    Presentation,
    Quiver,
    path_in_ideal,
    quotient_by_J,
    validate_special_biserial,
    validate_string_algebra,
)
from .walks import (
    CyclicWalk,
    Letter,
    Walk,
    band_boundary,
    canonical_band,
    canonical_string,
    direct,
    inverse,
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
)
from .automaton import (
    StringAutomaton,
    automaton,
    band_census,
    enumerate_bands,
    enumerate_strings,
    exists_band,
    pumping_bound,
)
from .doze import (
    FINITE_TYPE,
    HEREDITARY_SINGLE_BAND,
    NOT_LAURA,
    QUASI_TILTED_CANONICAL,
    STRICT_LAURA_OR_TILTED,
    ClassificationReport,
    DoubleZero,
    DozeWitness,
    classify,
    find_double_zeros,
    find_doze,
    find_doze_bruteforce,
    has_double_zero,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
