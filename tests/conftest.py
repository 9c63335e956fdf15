import pytest

from stringalg import fixtures
from stringalg.corpus import (
    _random_quiver,
    _random_zero_paths,
    special_biserial_corpus,
    string_corpus,
)
from stringalg.errors import InfiniteDimensionalError, SemanticError
from stringalg.presentation import Presentation

CORPUS_SEED = 20260809

# The largest size the suite asks of each (generator, seed); `corpora` draws
# each once at this size.
LARGEST_DRAW = {
    (string_corpus, 1): 2000,
    (string_corpus, 2): 500,
    (string_corpus, 3): 500,
    (string_corpus, 5): 200,
    (string_corpus, 7): 500,
    (string_corpus, 101): 776,
    (string_corpus, CORPUS_SEED): 2000,
    (special_biserial_corpus, 1): 200,
    (special_biserial_corpus, 2): 200,
    (special_biserial_corpus, 3): 100,
    (special_biserial_corpus, 101): 415,
    (special_biserial_corpus, CORPUS_SEED): 100,
}


def contains_subpath(path, sub):
    """Whether sub is a contiguous subpath of path, by direct slicing."""
    n, m = len(path), len(sub)
    if m > n:
        return False
    return any(path[i : i + m] == sub for i in range(n - m + 1))


def random_monomial_presentation(
    rng, max_vertices=8, max_arrows=12, max_relations=6, attempts=400
):
    """A random finite-dimensional monomial presentation, or None.

    No degree caps; useful for exercising the walk machinery outside the
    string-algebra axioms.
    """
    for _ in range(attempts):
        quiver = _random_quiver(rng, max_vertices, max_arrows, cap_degrees=False)
        zeros = _random_zero_paths(rng, quiver, rng.randint(0, max_relations))
        if len(zeros) > max_relations:
            continue
        try:
            return Presentation(quiver, [quiver.path(z) for z in sorted(zeros)])
        except (InfiniteDimensionalError, SemanticError):
            continue
    return None


class CorpusDraws:
    """`generator(seed, size)` for the corpus generators, drawing each
    (generator, seed) once, at its size in LARGEST_DRAW or at the size
    asked if larger, and handing out prefixes.  `_draw` is sequential, so
    a prefix of a larger draw is the smaller draw.  Each prefix is
    asserted to have the size asked, which a draw that the 50-miss cutoff
    ended early does not, and a draw made again at a larger size to start
    with the earlier one."""

    def __init__(self):
        self.drawn = {}

    def __call__(self, generator, seed, size):
        key = (generator, seed)
        drawn = self.drawn.get(key)
        if drawn is None or len(drawn) < size:
            larger = generator(seed, max(size, LARGEST_DRAW.get(key, 0)))
            assert drawn is None or larger[: len(drawn)] == drawn, key
            drawn = self.drawn[key] = larger
        assert len(drawn) >= size, f"{generator.__name__}({seed}) stopped at {len(drawn)}"
        return drawn[:size]

    def largest(self):
        """Every draw of LARGEST_DRAW, at its size, in one list."""
        return [p for (gen, seed), size in LARGEST_DRAW.items() for p in self(gen, seed, size)]


@pytest.fixture(scope="session")
def corpora():
    return CorpusDraws()


@pytest.fixture(scope="session")
def skew6():
    return fixtures.skew6()


@pytest.fixture(scope="session")
def thirteen():
    return fixtures.thirteen()


@pytest.fixture(scope="session")
def nine():
    return fixtures.nine()


@pytest.fixture(scope="session")
def commsquare():
    return fixtures.commutative_square()


@pytest.fixture(scope="session")
def corpus500(corpora):
    return corpora(string_corpus, CORPUS_SEED, 500)
