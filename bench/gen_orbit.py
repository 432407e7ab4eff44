"""Seeded marking pairs for the `whitehead-orbit` workload.

A marking here is an ordered pair of conjugacy classes of cyclically reduced
words.  Positives are (m, phi(m)) for phi a random product of Nielsen
generators.  Negatives are (m, psi(m')) where m' changes one letter of m and
psi is again a random Nielsen product; a candidate is kept only when the
S_3/S_4 word-map statistics of `perm.separating_degree` tell m and m' apart.  The
selection uses the seed and that certificate alone, never the program's
answers, so the inputs are the same on every version of the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from gen_decide import Letters, fmt, inverse, reduce
from perm import separating_degree

NAMES = "abcdefghijklmnopqrstuvwxyz"


def cyclic_core(w: Sequence) -> Letters:
    letters = list(reduce(w))
    while len(letters) > 1 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = letters[1:-1]
    return tuple(letters)


def cyclic_key(w: Sequence) -> Letters:
    """Least rotation of the cyclic core: a conjugacy-class key."""
    core = cyclic_core(w)
    if not core:
        return core
    return min(core[r:] + core[:r] for r in range(len(core)))


def substitute(w: Sequence, images: Sequence[Letters]) -> Letters:
    out: List = []
    for i, s in w:
        out.extend(images[i] if s > 0 else inverse(images[i]))
    return reduce(out)


def random_cyclic_word(rng: random.Random, rank: int, length: int) -> Letters:
    while True:
        letters: List = []
        while len(letters) < length:
            letter = (rng.randrange(rank), rng.choice((1, -1)))
            if letters and letters[-1] == (letter[0], -letter[1]):
                continue
            letters.append(letter)
        if len(letters) == 1 or letters[0] != (letters[-1][0], -letters[-1][1]):
            return tuple(letters)


def random_nielsen_product(rng: random.Random, rank: int, length: int) -> Tuple[Letters, ...]:
    """Images of the generators under a product of random Nielsen moves:
    transvections x_i -> x_i x_j^+-1 or x_j^+-1 x_i, inversions, swaps."""
    images = [((i, 1),) for i in range(rank)]
    for _ in range(length):
        kind = rng.random()
        i = rng.randrange(rank)
        j = rng.choice([x for x in range(rank) if x != i])
        if kind < 0.7:
            other = ((j, rng.choice((1, -1))),)
            move = [((x, 1),) for x in range(rank)]
            move[i] = ((i, 1),) + other if rng.random() < 0.5 else other + ((i, 1),)
        elif kind < 0.85:
            move = [((x, 1),) for x in range(rank)]
            move[i] = ((i, -1),)
        else:
            move = [((x, 1),) for x in range(rank)]
            move[i], move[j] = move[j], move[i]
        images = [substitute(move_image, images) for move_image in move]
    return tuple(images)


def _rotate(rng: random.Random, w: Letters) -> Letters:
    core = cyclic_core(w)
    if not core:
        return core
    r = rng.randrange(len(core))
    return core[r:] + core[:r]


@dataclass(frozen=True)
class OrbitCase:
    rank: int
    m1: Tuple[Letters, ...]
    m2: Tuple[Letters, ...]
    positive: bool

    @property
    def expected(self) -> str:
        return "equivalent" if self.positive else "not-equivalent"

    @staticmethod
    def text(marking: Sequence[Letters], rank: int) -> str:
        return " ; ".join(f"[ {fmt(w, NAMES[:rank])} ]" for w in marking)

    def argv(self) -> List[str]:
        return [
            "whitehead", "orbit",
            self.text(self.m1, self.rank), self.text(self.m2, self.rank),
            "--rank", str(self.rank),
        ]

    def keys(self) -> Tuple[tuple, tuple]:
        return tuple(map(cyclic_key, self.m1)), tuple(map(cyclic_key, self.m2))


def _marking(rng: random.Random, rank: int, lengths: Tuple[int, int]) -> Tuple[Letters, ...]:
    return tuple(random_cyclic_word(rng, rank, n) for n in lengths)


def _moved(rng: random.Random, marking, rank: int, moves: int) -> Tuple[Letters, ...]:
    phi = random_nielsen_product(rng, rank, moves)
    return tuple(_rotate(rng, substitute(w, phi)) for w in marking)


def _one_letter_change(rng: random.Random, marking, rank: int) -> Tuple[Letters, ...]:
    """Change one letter keeping every word cyclically reduced."""
    while True:
        k = rng.randrange(len(marking))
        w = list(marking[k])
        pos = rng.randrange(len(w))
        w[pos] = (rng.randrange(rank), rng.choice((1, -1)))
        if cyclic_core(w) == tuple(w) and tuple(w) != marking[k]:
            return marking[:k] + (tuple(w),) + marking[k + 1:]


def make_case(
    rng: random.Random, rank: int, lengths: Tuple[int, int], moves: int, positive: bool,
) -> OrbitCase:
    while True:
        m1 = _marking(rng, rank, lengths)
        if positive:
            return OrbitCase(rank, m1, _moved(rng, m1, rank, moves), True)
        # S_3 is cheap, so the first candidates try it alone; a marking none
        # of whose candidates separates is replaced by a fresh one
        for attempt in range(32):
            other = _one_letter_change(rng, m1, rank)
            degrees = (3,) if attempt < 24 else (3, 4)
            if separating_degree(m1, other, rank, degrees) is not None:
                return OrbitCase(rank, m1, _moved(rng, other, rank, moves), False)
