"""Signed-letter walks on a bound quiver.

A letter traverses an arrow forwards (direct) or backwards (inverse).  A
walk is a base vertex plus a composable letter sequence; the empty
sequence is the trivial walk at its base.  Strings are reduced walks none
of whose same-direction runs contains a zero generator.

Letters are a `collections.namedtuple` subclass and walks frozen
`_value.Value` classes with their own `__init__`, so importing this
module (on every command's path) loads neither `typing` nor
`dataclasses`; a per-class `__init__` keeps building a walk as cheap as
a generated one.
"""

from collections import namedtuple

from ._value import Value
from .errors import PreconditionError, SemanticError


class Letter(namedtuple("Letter", "arrow inverse")):
    __slots__ = ()

    def inverted(self):
        return Letter(self.arrow, not self.inverse)

    def __str__(self):
        return f"{self.arrow}^-1" if self.inverse else self.arrow


def direct(name):
    return Letter(name, False)


def inverse(name):
    return Letter(name, True)


def letter_ends(quiver, letter):
    """Effective (source, target) of a letter."""
    a = quiver.arrow[letter.arrow]
    return (a.target, a.source) if letter.inverse else (a.source, a.target)


class Walk(Value):
    _compare = ("base", "letters")

    def __init__(self, base, letters):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    @property
    def is_trivial(self):
        return not self.letters

    def key(self):
        return (len(self.letters), self.letters, self.base)


def make_walk(quiver, base, letters):
    """Validated walk; raises if the letters do not compose from base."""
    letters = tuple(letters)
    at = base
    if not quiver.has_vertex(base):
        raise SemanticError(f"unknown vertex {base!r}")
    for l in letters:
        if l.arrow not in quiver.arrow:
            raise SemanticError(f"unknown arrow {l.arrow!r}")
        s, t = letter_ends(quiver, l)
        if s != at:
            raise SemanticError(f"letter {l} does not start at {at!r}")
        at = t
    return Walk(base, letters)


def trivial_walk(quiver, vertex):
    return make_walk(quiver, vertex, ())


def walk_end(quiver, w):
    if w.is_trivial:
        return w.base
    return letter_ends(quiver, w.letters[-1])[1]


def walk_vertices(quiver, w):
    """Vertex passages, length len(w) + 1."""
    out = [w.base]
    for l in w.letters:
        out.append(letter_ends(quiver, l)[1])
    return out


def walk_arrows(w):
    return frozenset(l.arrow for l in w.letters)


def inverse_walk(quiver, w):
    return Walk(walk_end(quiver, w), tuple(l.inverted() for l in reversed(w.letters)))


def concat_walks(quiver, *walks):
    walks = [w for w in walks if w is not None]
    if not walks:
        raise ValueError("nothing to concatenate")
    letters = []
    at = walks[0].base
    for w in walks:
        if w.base != at:
            raise SemanticError(f"cannot concatenate: expected base {at!r}, got {w.base!r}")
        letters.extend(w.letters)
        at = walk_end(quiver, w)
    return Walk(walks[0].base, tuple(letters))


def is_reduced(w):
    """No letter immediately followed by its own inverse."""
    for a, b in zip(w.letters, w.letters[1:]):
        if a.arrow == b.arrow and a.inverse != b.inverse:
            return False
    return True


def is_string(p, w):
    """Reduced and no same-direction run contains a zero generator.

    One pass over the letters: a run starts wherever the direction
    changes, and each window of the run that ends at the current letter
    is looked up in `p.zero_index()`, reversed on an inverse run, which
    reads against the arrows.
    """
    if not p.is_monomial:
        raise PreconditionError("is_string needs a monomial presentation")
    index = p.zero_index().items()
    letters = w.letters
    names = tuple(l.arrow for l in letters)
    start = 0
    for i, l in enumerate(letters):
        if i and l.inverse != letters[i - 1].inverse:
            if l.arrow == names[i - 1]:
                return False
            start = i
        for m, group in index:
            if m <= i + 1 - start:
                window = names[i + 1 - m : i + 1]
                if (window[::-1] if l.inverse else window) in group:
                    return False
    return True


def canonical_string(quiver, w):
    """Representative of {w, w^-1}: the letter-key-lexicographic minimum."""
    wi = inverse_walk(quiver, w)
    return min(w, wi, key=Walk.key)


class CyclicWalk(Value):
    """Walk whose effective endpoints coincide."""

    _compare = ("walk",)

    def __init__(self, walk):
        object.__setattr__(self, "walk", walk)

    def __len__(self):
        return len(self.walk)

    @property
    def base(self):
        return self.walk.base

    @property
    def letters(self):
        return self.walk.letters


def make_cyclic(quiver, walk):
    if walk_end(quiver, walk) != walk.base:
        raise SemanticError("walk is not cyclic")
    return CyclicWalk(walk)


def cyclic_power(quiver, c, n):
    """The walk traversing the cycle n times (n = 0 gives the trivial walk)."""
    return Walk(c.base, c.letters * n)


def canonical_band(quiver, c):
    """The least rotation of either orientation of a cyclic walk by
    `Walk.key`: all have one length, and a rotation's base is where its
    first letter starts, so the least letter tuple decides."""
    if walk_end(quiver, c.walk) != c.base:
        raise SemanticError("walk is not cyclic")
    letters = c.letters
    if not letters:
        return c
    inv = tuple(l.inverted() for l in reversed(letters))
    least = min(w[i:] + w[:i] for w in (letters, inv) for i in range(len(w)))
    return CyclicWalk(Walk(letter_ends(quiver, least[0])[0], least))


def primitive_root(letters):
    """The shortest prefix whose power the letters are."""
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters[d:] + letters[:d] == letters:
            return letters[:d]
    return letters


def is_primitive(letters):
    return len(primitive_root(letters)) == len(letters)


def is_band(p, c):
    """Primitive cyclic string all of whose powers are strings.

    The run lemma: every `Presentation` is finite dimensional, so a
    cyclic word whose letters all run one way traverses an oriented
    cycle whose powers reach the ideal, and is never a band; a band
    mixes directions.  Then every maximal same-direction run of the
    infinite periodic walk is shorter than one period and lies, whole,
    in c . c, which also holds every adjacent letter pair, the junction
    between copies included.  So c is a band iff c . c is a string.
    """
    if not p.is_monomial:
        raise PreconditionError("is_band needs a monomial presentation")
    if len(c) == 0:
        return False
    if walk_end(p.quiver, c.walk) != c.base:
        return False
    if not is_primitive(c.letters):
        return False
    if len({l.inverse for l in c.letters}) == 1:
        return False
    return is_string(p, cyclic_power(p.quiver, c, 2))


class BandBoundary(Value):
    _compare = ("entering", "exiting")

    def __init__(self, entering, exiting):
        object.__setattr__(self, "entering", entering)
        object.__setattr__(self, "exiting", exiting)


def band_boundary(p, c):
    """Off-band arrows incident to the band's vertices.

    entering: target on the band; exiting: source on the band.
    """
    q = p.quiver
    on_vertices = set(walk_vertices(q, c.walk))
    on_arrows = walk_arrows(c.walk)
    entering = frozenset(
        a.name for v in on_vertices for a in q.in_arrows(v) if a.name not in on_arrows
    )
    exiting = frozenset(
        a.name for v in on_vertices for a in q.out_arrows(v) if a.name not in on_arrows
    )
    return BandBoundary(entering, exiting)


def serialize_walk(w):
    body = " ".join(str(l) for l in w.letters)
    return f"{w.base}: {body}" if body else f"{w.base}:"


def parse_walk(quiver, text):
    head, sep, tail = text.partition(":")
    if not sep:
        raise SemanticError(f"walk {text!r}: missing ':' after base vertex")
    base = head.strip()
    letters = []
    for tok in tail.split():
        if tok.endswith("^-1"):
            letters.append(inverse(tok[:-3]))
        else:
            letters.append(direct(tok))
    return make_walk(quiver, base, letters)


def serialize_band(c):
    return f"band: {serialize_walk(c.walk)}"


def parse_band(quiver, text):
    if not text.startswith("band:"):
        raise SemanticError(f"band {text!r}: missing 'band:' prefix")
    return make_cyclic(quiver, parse_walk(quiver, text[len("band:") :].strip()))
