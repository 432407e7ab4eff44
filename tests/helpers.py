"""Shared test utilities: random words, markings, and brute-force oracles."""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from torusconj.fibercorrect import smith_normal_form
from torusconj.freegroup import FreeGroup, Word
from torusconj.gog import GraphOfGroups, bar


def random_word(rng: random.Random, group: FreeGroup, max_len: int) -> Word:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.randrange(group.rank), rng.choice((1, -1))))
    return group.word(letters)


def random_nontrivial_word(rng: random.Random, group: FreeGroup, max_len: int) -> Word:
    while True:
        w = random_word(rng, group, max_len)
        if not w.is_identity():
            return w


def subgroup_elements_up_to(group: FreeGroup, generators: List[Word], max_len: int) -> set:
    """Breadth-first enumeration of subgroup elements with reduced length <= max_len."""
    gens = [g for g in generators] + [g.inverse() for g in generators]
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                cand = w * g
                if len(cand) <= max_len and cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return {w for w in seen if len(w) <= max_len}


def mat_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def abelian_invariants(gog: GraphOfGroups, tree: Sequence[str]) -> Tuple[int, ...]:
    """Invariant factors of H_1(pi_1(gog)): torsion factors, then one 0 per
    free rank.

    Oracle from the presentation on vertex generators and Bass edges: each
    Bass relator e^-1 i_e~(g) e == i_e(g) abelianizes to i_e~(g) - i_e(g),
    and each spanning-tree edge is killed.  Center commutators vanish.
    """
    index = {}
    for v in gog.vertices:
        for i in range(gog.vslot(v).ngens):
            index[(v, i)] = len(index)
    for e in gog.edge_names:
        index[e] = len(index)
    columns = []
    for e in gog.edge_names:
        for gen in gog.eslot(e).generators():
            col = [0] * len(index)
            for sign, oriented in ((1, bar(e)), (-1, e)):
                image = gog.injection(oriented).apply(gen).abelianized()
                for i, x in enumerate(image):
                    col[index[(gog.term(oriented), i)]] += sign * x
            columns.append(col)
    for e in tree:
        columns.append([1 if key == e else 0 for key in index])
    d, _, _ = smith_normal_form([[col[i] for col in columns] for i in range(len(index))])
    diag = [d[i][i] for i in range(min(len(index), len(columns)))]
    torsion = [x for x in diag if x not in (0, 1)]
    return tuple(torsion + [0] * (len(index) - sum(1 for x in diag if x)))
