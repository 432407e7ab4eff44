"""Untimed output checks that do not trust the program's own answers.

Orbit witnesses, congruence certificates and subgroup graphs are re-checked
here with the benchmark's own word and permutation code.  Each check returns
None when the output holds, or a one-line reason.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from gen_decide import Letters, det, inverse, reduce
from gen_orbit import cyclic_key, substitute
from perm import compose, evaluate, group_closure, invert

NAMES = "abcdefghijklmnopqrstuvwxyz"


def parse_word(text: str, names: Sequence[str]) -> Letters:
    letters = []
    for token in text.split():
        if token == "1":
            continue
        sign = -1 if token.endswith("'") else 1
        letters.append((names.index(token.rstrip("'")), sign))
    return reduce(letters)


def nielsen_images(rank: int) -> List[Tuple[Letters, ...]]:
    """Generator images of swap, cyclic shift, inversion and transvection:
    together they generate Aut(F_rank)."""
    gens = [((i, 1),) for i in range(rank)]
    swap = [gens[1], gens[0]] + gens[2:]
    shift = gens[1:] + gens[:1]
    flip = [((0, -1),)] + gens[1:]
    transvection = [((0, 1), (1, 1))] + gens[1:]
    return [tuple(x) for x in (swap, shift, flip, transvection)]


# ---------------------------------------------------------------------------
# whitehead orbit witnesses


def check_orbit_witness(rank: int, m1, m2, stdout: str) -> Optional[str]:
    """The printed witness sends each class of m1 to the class of m2 and is
    invertible on the abelianization."""
    names = NAMES[:rank]
    images: Dict[int, Letters] = {}
    for line in stdout.splitlines():
        if line.startswith("witness:"):
            name, _, image = line[len("witness:"):].partition("->")
            images[names.index(name.strip())] = parse_word(image, names)
    if sorted(images) != list(range(rank)):
        return "witness does not list every generator image"
    table = [images[i] for i in range(rank)]
    for w1, w2 in zip(m1, m2):
        if cyclic_key(substitute(w1, table)) != cyclic_key(w2):
            return "witness does not carry the first marking onto the second"
    matrix = [[0] * rank for _ in range(rank)]
    for j, img in enumerate(table):
        for i, s in img:
            matrix[i][j] += s
    if abs(det(matrix)) != 1:
        return "witness is not invertible on the abelianization"
    return None


# ---------------------------------------------------------------------------
# finite-index subgroup graphs given as forward transition tables


class Graph:
    """Based folded graph: fwd[i][s] is the i-labelled successor of s."""

    def __init__(self, rank: int, fwd: Sequence[Sequence[Optional[int]]], base: int = 0):
        self.rank = rank
        self.fwd = [list(row) for row in fwd]
        self.nstates = len(self.fwd[0])
        self.bwd = [[None] * self.nstates for _ in range(rank)]
        for i in range(rank):
            for s, t in enumerate(self.fwd[i]):
                if t is not None:
                    self.bwd[i][t] = s
        self.base = base

    def is_complete(self) -> bool:
        return all(t is not None for table in (self.fwd, self.bwd) for row in table for t in row)

    def walk(self, w: Sequence) -> Optional[int]:
        state = self.base
        for i, s in w:
            state = (self.fwd if s > 0 else self.bwd)[i][state]
            if state is None:
                return None
        return state

    def accepts(self, w: Sequence) -> bool:
        return self.walk(w) == self.base

    def generators(self) -> List[Letters]:
        """Free basis from a breadth-first spanning tree."""
        paths: Dict[int, Letters] = {self.base: ()}
        queue = deque([self.base])
        tree = set()
        while queue:
            s = queue.popleft()
            for i in range(self.rank):
                for sign, table in ((1, self.fwd), (-1, self.bwd)):
                    t = table[i][s]
                    if t is not None and t not in paths:
                        paths[t] = paths[s] + ((i, sign),)
                        tree.add((s, i, t) if sign > 0 else (t, i, s))
                        queue.append(t)
        gens = []
        for i in range(self.rank):
            for s, t in enumerate(self.fwd[i]):
                if t is not None and s in paths and (s, i, t) not in tree:
                    gens.append(reduce(paths[s] + ((i, 1),) + inverse(paths[t])))
        return gens


def check_characteristic(graph: Graph) -> Optional[str]:
    if not graph.is_complete():
        return "subgroup has infinite index"
    gens = graph.generators()
    for images in nielsen_images(graph.rank):
        for g in gens:
            if not graph.accepts(substitute(g, images)):
                return "subgroup is not characteristic"
    return None


def check_contained(inner: Graph, outer: Graph) -> Optional[str]:
    for g in inner.generators():
        if not outer.accepts(g):
            return "result is not contained in the input subgroup"
    return None


def graph_of(subgroup) -> Graph:
    """Read a program SubgroupGraph through its transition table only."""
    return Graph(subgroup.group.rank, subgroup.fwd, subgroup.base)


# ---------------------------------------------------------------------------
# congruence certificates


def _parse_perm(text: str) -> Tuple[int, ...]:
    return tuple(int(x) for x in text.strip().strip("[]").split(","))


def check_certificate(text: str, rank: int, product: bool) -> Optional[str]:
    """Re-check `minkowski certify` output: a characteristic kernel of finite
    index inside every witness kernel, and for every representative a word
    whose image and the image of its automorphic image are not conjugate in
    the quotient."""
    lines = text.splitlines()
    if not lines or lines[0] != f"rank: {rank}":
        return "certificate names the wrong rank"
    if product and "center modulus: 3" not in lines:
        return "product certificate lacks the center modulus"
    names = NAMES[:rank]
    edges = []
    entries: List[Dict[str, str]] = []
    for line in lines:
        stripped = line.strip()
        if "--" in stripped and "-->" in stripped and not stripped.startswith("images"):
            left, rest = stripped.split("--", 1)
            gen, right = rest.rsplit("-->", 1)
            edges.append((int(left), names.index(gen.strip().rstrip("-")), int(right)))
        elif stripped.startswith("representative:"):
            entries.append({})
        elif entries and ":" in stripped:
            key, _, value = stripped.partition(":")
            entries[-1].setdefault(key, value.strip())
    if not edges:
        return "certificate has no kernel graph"
    nstates = 1 + max(max(u, v) for u, _, v in edges)
    fwd = [[None] * nstates for _ in range(rank)]
    for u, i, v in edges:
        fwd[i][u] = v
    kernel = Graph(rank, fwd)
    reason = check_characteristic(kernel)
    if reason:
        return "kernel: " + reason
    kernel_gens = kernel.generators()
    for entry in entries:
        images = []
        for part in entry["images"].split(","):
            images.append(parse_word(part.partition("->")[2], names))
        word = parse_word(entry["witness word"], names)
        perms = [_parse_perm(p) for p in entry["quotient perms"].split(";")]
        a = evaluate(word, perms)
        b = evaluate(substitute(word, images), perms)
        image_group = group_closure(perms)
        if any(compose(compose(invert(h), a), h) == b for h in image_group):
            return "witness images are conjugate in the quotient"
        identity = tuple(range(len(perms[0])))
        if any(evaluate(g, perms) != identity for g in kernel_gens):
            return "kernel is not inside a witness kernel"
    return None


def check_zsquare(text: str) -> Optional[str]:
    # GL_2(Z) has six conjugacy classes of nontrivial finite-order elements:
    # -I, two reflection classes, and one class each of order 3, 4 and 6
    if text.splitlines() != ["kernel: 3 Z^2", "separated finite-order classes: 6"]:
        return "unexpected Z^2 certificate"
    return None
