"""Permutation arithmetic for the benchmark's own certificates and checks.

Nothing here calls the program: negative orbit pairs are selected, and
finite-quotient outputs re-checked, with this code alone.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

Perm = Tuple[int, ...]
Letter = Tuple[int, int]


def compose(p: Perm, q: Perm) -> Perm:
    """p after q."""
    return tuple(p[x] for x in q)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def cycle_type(p: Perm) -> Tuple[int, ...]:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def evaluate(word: Sequence[Letter], perms: Sequence[Perm]) -> Perm:
    """Image of a word under the generator images `perms`."""
    current = tuple(range(len(perms[0])))
    for i, s in word:
        current = compose(perms[i] if s > 0 else invert(perms[i]), current)
    return current


def group_closure(gens: Sequence[Perm]) -> List[Perm]:
    identity = tuple(range(len(gens[0])))
    seen = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for p in gens:
            h = compose(p, g)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return sorted(seen)


@lru_cache(maxsize=None)
def _symmetric_tables(degree: int):
    """Elements of S_degree as indices, with composition and inverse tables
    and the cycle type of each element."""
    elements = list(itertools.permutations(range(degree)))
    index: Dict[Perm, int] = {p: k for k, p in enumerate(elements)}
    table = [[index[compose(p, q)] for q in elements] for p in elements]
    inv = [index[invert(p)] for p in elements]
    types = [cycle_type(p) for p in elements]
    return len(elements), table, inv, types


def word_map_statistics(words: Sequence[Sequence[Letter]], rank: int, degree: int) -> Counter:
    """Counter over all homomorphisms F_rank -> S_degree of the tuple of
    cycle types of the words' images.

    Precomposing with an automorphism permutes the homomorphisms, and cycle
    type is a conjugacy invariant, so two markings in one Aut(F)-orbit have
    equal statistics: unequal statistics certify a negative.
    """
    size, table, inv, types = _symmetric_tables(degree)
    homs = list(itertools.product(range(size), repeat=rank))
    columns = [[h[i] for h in homs] for i in range(rank)]
    inverse_columns = [[inv[g] for g in col] for col in columns]
    images = []
    for word in words:
        current = [0] * len(homs)  # the identity permutation is listed first
        for i, s in word:
            col = columns[i] if s > 0 else inverse_columns[i]
            current = [table[g][c] for g, c in zip(col, current)]
        images.append([types[c] for c in current])
    return Counter(zip(*images))


def separating_degree(a, b, rank: int, degrees: Sequence[int] = (3, 4)):
    """The first degree d whose S_d word-map statistics tell the markings
    apart, or None."""
    for degree in degrees:
        if word_map_statistics(a, rank, degree) != word_map_statistics(b, rank, degree):
            return degree
    return None
