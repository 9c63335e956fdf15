"""Seeded random presentations for property testing.

The string-presentation generator keeps vertex degrees at most two and
then adds zero relations until the unique-continuation axiom holds, so
every emitted instance is a valid finite-dimensional string algebra.
Half the draws plant a parallel arrow pair, which keeps bands frequent.
"""

import random

from .errors import InfiniteDimensionalError, SemanticError
from .presentation import (
    Presentation,
    Quiver,
    validate_special_biserial,
    validate_string_algebra,
)

# a corpus draw's most vertices, arrows, zero relations, path arrows and attempts
_VERTICES, _ARROWS, _RELATIONS, _PATH_LEN, _ATTEMPTS = 8, 12, 6, 3, 400


def _random_quiver(rng, max_vertices, max_arrows, cap_degrees):
    nv = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(nv)]
    arrows = []
    out_deg = {v: 0 for v in vertices}
    in_deg = {v: 0 for v in vertices}

    def room(u, w):
        return out_deg[u] < 2 and in_deg[w] < 2 if cap_degrees else True

    def add(u, w):
        name = f"a{len(arrows)}"
        arrows.append((name, u, w))
        out_deg[u] += 1
        in_deg[w] += 1

    target = rng.randint(2, max_arrows)
    if rng.random() < 0.5 and nv >= 2:
        u, w = rng.sample(vertices, 2)
        if room(u, w):
            add(u, w)
        if room(u, w):
            add(u, w)
    tries = 0
    while len(arrows) < target and tries < 6 * max_arrows:
        tries += 1
        u = rng.choice(vertices)
        w = rng.choice(vertices)
        if room(u, w):
            add(u, w)
    return Quiver(vertices, arrows)


def _random_zero_paths(rng, quiver, count):
    paths = set()
    arrows = list(quiver.arrows)
    if not arrows:
        return paths
    for _ in range(count * 4):
        if len(paths) >= count:
            break
        a = rng.choice(arrows)
        path = [a]
        length = rng.randint(2, _PATH_LEN)
        while len(path) < length:
            nxt = quiver.out_arrows(path[-1].target)
            if not nxt:
                break
            path.append(rng.choice(nxt))
        if len(path) >= 2:
            paths.add(tuple(x.name for x in path))
    return paths


def _enforce_unique_continuation(rng, quiver, zeros, protected=frozenset()):
    """Add 2-arrow zero relations until the string axioms hold.

    Pairs in `protected` are never killed; the caller guarantees they do
    not force a violation."""
    zeros = set(zeros)
    while True:
        changed = False
        for a in quiver.arrows:
            succ = [
                b.name
                for b in quiver.out_arrows(a.target)
                if (a.name, b.name) not in zeros
            ]
            if len(succ) > 1:
                saved = [b for b in succ if (a.name, b) in protected]
                keep = saved[0] if saved else succ[rng.randrange(len(succ))]
                for b in succ:
                    if b != keep:
                        zeros.add((a.name, b))
                changed = True
        for a in quiver.arrows:
            pred = [
                b.name
                for b in quiver.in_arrows(a.source)
                if (b.name, a.name) not in zeros
            ]
            if len(pred) > 1:
                saved = [b for b in pred if (b, a.name) in protected]
                keep = saved[0] if saved else pred[rng.randrange(len(pred))]
                for b in pred:
                    if b != keep:
                        zeros.add((b, a.name))
                changed = True
        if not changed:
            return zeros


def random_string_presentation(rng):
    """A random valid string algebra presentation, or None."""
    for _ in range(_ATTEMPTS):
        quiver = _random_quiver(rng, _VERTICES, _ARROWS, cap_degrees=True)
        zeros = _random_zero_paths(rng, quiver, rng.randint(0, 2))
        zeros = _enforce_unique_continuation(rng, quiver, zeros)
        if len(zeros) > _RELATIONS:
            continue
        try:
            p = Presentation(quiver, [quiver.path(z) for z in sorted(zeros)])
        except (InfiniteDimensionalError, SemanticError):
            continue
        if validate_string_algebra(p).is_valid:
            return p
    return None


def _parallel_path_pairs(quiver):
    """Distinct same-endpoint oriented path pairs of length >= 2 whose
    continuation requirements do not collide."""
    by_ends = {}
    stack = [((a.name,), a.source, a.target) for a in quiver.arrows]
    while stack:
        path, src, tgt = stack.pop()
        if len(path) >= 2:
            by_ends.setdefault((src, tgt), []).append(path)
        if len(path) < _PATH_LEN:
            for b in quiver.out_arrows(tgt):
                stack.append((path + (b.name,), src, b.target))
    pairs = []
    for group in by_ends.values():
        group.sort()
        for i, p1 in enumerate(group):
            for p2 in group[i + 1 :]:
                if p1[0] == p2[0] or p1[-1] == p2[-1]:
                    continue
                req = set(zip(p1, p1[1:])) | set(zip(p2, p2[1:]))
                firsts = [x for x, _ in req]
                lasts = [y for _, y in req]
                if len(set(firsts)) == len(firsts) and len(set(lasts)) == len(lasts):
                    pairs.append((p1, p2))
    return pairs


def random_special_biserial(rng):
    """A random special biserial presentation with one commutativity
    relation, or None."""
    for _ in range(_ATTEMPTS):
        quiver = _random_quiver(rng, _VERTICES, _ARROWS, cap_degrees=True)
        pairs = _parallel_path_pairs(quiver)
        if not pairs:
            continue
        left, right = pairs[rng.randrange(len(pairs))]
        protected = frozenset(zip(left, left[1:])) | frozenset(zip(right, right[1:]))
        zeros = _enforce_unique_continuation(rng, quiver, set(), protected=protected)
        try:
            p = Presentation(
                quiver,
                [quiver.path(z) for z in sorted(zeros)],
                [(quiver.path(left), quiver.path(right))],
            )
        except (InfiniteDimensionalError, SemanticError):
            continue
        if not p.comm_pairs:
            continue
        if validate_special_biserial(p).is_valid:
            return p
    return None


def _draw(make, seed, size):
    """Up to `size` presentations from make(rng), in draw order.

    A draw that returns None is a miss; after 50 misses the list is
    returned short, so a generator that cannot succeed never hangs.
    """
    rng = random.Random(seed)
    out = []
    misses = 0
    while len(out) < size and misses < 50:
        p = make(rng)
        if p is None:
            misses += 1
            continue
        out.append(p)
    return out


def string_corpus(seed, size):
    """Deterministic list of valid string presentations."""
    return _draw(random_string_presentation, seed, size)


def special_biserial_corpus(seed, size):
    """Deterministic list of special biserial presentations with a
    commutativity relation."""
    return _draw(random_special_biserial, seed, size)
