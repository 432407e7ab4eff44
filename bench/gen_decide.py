"""Seeded mapping-torus inputs for the `decide` workload.

A k-block twistor torus has fiber F_{p+k} = P * <s_1, ..., s_k> with P free
of rank p, and monodromy x -> x on P and s_j -> s_j w_j with w_j in P.  Its
decomposition has one black vertex B = P x <t> (Z^2 when p == 1, F_p x Z
otherwise) and one cyclic white vertex W_j per block, joined to B by

    e_{2j-1}: u -> t        e_{2j}: u -> t w_j^-1

so the graph has k! * 2^k graph automorphisms.  The text is written here
directly, not through the program's serializers, so that the inputs do not
change when the program does.

Expected verdicts come from the construction:

* positives permute the blocks, apply a signed permutation of the P
  generators, conjugate each w_j inside P, and (on the conj-ung side file)
  conjugate the whole monodromy by an inner automorphism; each of these is a
  conjugation in Out(F), so the tori are isomorphic preserving fiber and
  orientation;
* negatives perturb one twist word until the Smith invariants of the
  abelianized M - I differ, an invariant of conjugacy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import List, Sequence, Tuple

Letter = Tuple[int, int]
Letters = Tuple[Letter, ...]


def reduce(letters: Sequence[Letter]) -> Letters:
    out: List[Letter] = []
    for letter in letters:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse(letters: Sequence[Letter]) -> Letters:
    return tuple((i, -s) for i, s in reversed(letters))


def conjugate(w: Sequence[Letter], g: Sequence[Letter]) -> Letters:
    """g w g^-1."""
    return reduce(tuple(g) + tuple(w) + inverse(g))


def random_word(rng: random.Random, rank: int, length: int) -> Letters:
    out: List[Letter] = []
    while len(out) < length:
        letter = (rng.randrange(rank), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return tuple(out)


def fmt(letters: Sequence[Letter], names: Sequence[str]) -> str:
    if not letters:
        return "1"
    return " ".join(names[i] + ("'" if s < 0 else "") for i, s in letters)


def abelianized(letters: Sequence[Letter], rank: int) -> List[int]:
    vec = [0] * rank
    for i, s in letters:
        vec[i] += s
    return vec


def det(m: Sequence[Sequence[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _combinations(items: Sequence[int], r: int):
    if r == 0:
        yield ()
        return
    for idx in range(len(items) - r + 1):
        for rest in _combinations(items[idx + 1:], r - 1):
            yield (items[idx],) + rest


def smith_invariants(m: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Invariant factors from determinantal divisors (small matrices only)."""
    rows, cols = len(m), len(m[0])
    factors: List[int] = []
    previous = 1
    for r in range(1, min(rows, cols) + 1):
        d = 0
        for rs in _combinations(list(range(rows)), r):
            for cs in _combinations(list(range(cols)), r):
                d = gcd(d, det([[m[i][j] for j in cs] for i in rs]))
        if d == 0:
            break
        factors.append(d // previous)
        previous = d
    return tuple(factors)


def twist_invariants(words: Sequence[Letters], poly_rank: int) -> Tuple[int, ...]:
    """Smith invariants of M - I: its only nonzero block is the p x k matrix
    of abelianized twist words."""
    columns = [abelianized(w, poly_rank) for w in words]
    return smith_invariants([[col[i] for col in columns] for i in range(poly_rank)])


@dataclass(frozen=True)
class TwistorTorus:
    poly_rank: int
    twists: Tuple[Letters, ...]  # words over x0 .. x_{p-1}
    gamma: Letters = ()  # inner conjugator over the whole fiber

    @property
    def blocks(self) -> int:
        return len(self.twists)

    def jsj_text(self) -> str:
        p, k = self.poly_rank, self.blocks
        slot_names = [f"x{i}" for i in range(p)]
        kind = "Z2 1" if p == 1 else f"fxz {p}"
        lines = ["[vertices]", f"B: {kind}"]
        lines += [f"W{j}: Z 1" for j in range(1, k + 1)]
        lines.append("[edges]")
        for j in range(1, k + 1):
            lines.append(f"e{2 * j - 1}: W{j} --> B (Z 1)")
            lines.append(f"e{2 * j}: W{j} --> B (Z 1)")
        lines.append("[injections]")
        for j, w in enumerate(self.twists, start=1):
            tail = inverse(w)
            second = f"{fmt(tail, slot_names)} * c" if tail else "c"
            lines += [
                f"e{2 * j - 1}: x0 -> c",
                f"e{2 * j - 1}~: x0 -> x0",
                f"e{2 * j}: x0 -> {second}",
                f"e{2 * j}~: x0 -> x0",
            ]
        lines.append("[tree]")
        lines.append(" ".join(f"e{2 * j - 1}" for j in range(1, k + 1)))
        lines.append("[colors]")
        lines.append("B: black")
        lines += [f"W{j}: white" for j in range(1, k + 1)]
        lines.append("[orientation]")
        lines.append("vertex B: " + " ".join(["0"] * p + ["1"]))
        lines += [f"vertex W{j}: 1" for j in range(1, k + 1)]
        lines += [f"edge e{e}: 0" for e in range(1, 2 * k + 1)]
        lines.append("[fiber]")
        lines += [f"h{i} = B : (x{i})" for i in range(p)]
        lines += [
            f"hs{j} = B : (1) e{2 * j - 1}~ (1) e{2 * j} (1)" for j in range(1, k + 1)
        ]
        lines.append("[stable]")
        lines.append("B : (c)")
        lines.append("[peripheral]")
        lines += [f"W{j}: EZ = e{2 * j - 1} e{2 * j}" for j in range(1, k + 1)]
        return "\n".join(lines) + "\n"

    def side_text(self) -> str:
        """conj-ung side file: monodromy of F_{p+k}, conjugated by gamma."""
        p, k = self.poly_rank, self.blocks
        names = "abcdefghijklmnopqrstuvwxyz"[: p + k]
        images = []
        for i in range(p):
            images.append(conjugate(((i, 1),), self.gamma))
        for j, w in enumerate(self.twists):
            images.append(conjugate(((p + j, 1),) + w, self.gamma))
        monodromy = ", ".join(
            f"{names[i]} -> {fmt(img, names)}" for i, img in enumerate(images)
        )
        lines = [
            f"fiber rank: {p + k}",
            f"monodromy: {monodromy}",
            f"peripheral: {' '.join(names[:p])} | {fmt(self.gamma, names)}",
            "[jsj]",
        ]
        return "\n".join(lines) + "\n" + self.jsj_text()


def identity_whitelist_text(blocks: int) -> str:
    lines = []
    for i in range(1, blocks + 1):
        for j in range(1, blocks + 1):
            lines.append(f"[candidates W{i} -> W{j}]")
            lines.append("iso: x0 -> x0")
    return "\n".join(lines) + "\n"


# Word lengths are fixed per stratum so that one stratum's operations cost
# about the same on every seed; only the letters are random.
TWIST_LENGTH = 2
CONJUGATOR_LENGTH = 1
GAMMA_LENGTH = 2


def _random_twist(rng: random.Random, poly_rank: int) -> Letters:
    if poly_rank == 1:
        return ((0, rng.choice((1, -1))),) * rng.randint(1, 3)
    return random_word(rng, poly_rank, TWIST_LENGTH)


def _transform(rng: random.Random, a: TwistorTorus) -> TwistorTorus:
    """A conjugate presentation: block permutation, signed relabelling of P,
    per-block conjugation inside P, and an inner conjugator."""
    p, k = a.poly_rank, a.blocks
    perm = list(range(p))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(p)]
    order = list(range(k))
    rng.shuffle(order)
    twists = []
    for j in order:
        h = random_word(rng, p, CONJUGATOR_LENGTH) if p > 1 else ()
        moved = conjugate(a.twists[j], h)
        twists.append(reduce([(perm[i], s * signs[i]) for i, s in moved]))
    gamma = random_word(rng, p + k, GAMMA_LENGTH)
    return TwistorTorus(p, tuple(twists), gamma)


def _perturbed(rng: random.Random, a: TwistorTorus) -> TwistorTorus:
    """Random-walk the twist words one letter at a time until the Smith
    invariants of M - I differ; a single letter may leave them unchanged."""
    p = a.poly_rank
    target = twist_invariants(a.twists, p)
    twists = list(a.twists)
    while True:
        j = rng.randrange(a.blocks)
        twists[j] = reduce(twists[j] + ((rng.randrange(p), rng.choice((1, -1))),))
        if all(twists) and twist_invariants(twists, p) != target:
            return TwistorTorus(p, tuple(twists), a.gamma)


@dataclass(frozen=True)
class DecideCase:
    command: str  # "decide" or "conj-ung"
    positive: bool
    a: TwistorTorus
    b: TwistorTorus

    @property
    def positive_status(self) -> str:
        """The status of a positive answer; negatives may answer any other."""
        return "isomorphic-fop" if self.command == "decide" else "conjugate"

    def write(self, folder: Path) -> dict:
        """Write the side, JSJ and whitelist files; return their paths."""
        folder.mkdir(parents=True, exist_ok=True)
        paths = {
            "alpha": folder / "alpha.txt",
            "beta": folder / "beta.txt",
            "jsj_a": folder / "jsj_a.txt",
            "jsj_b": folder / "jsj_b.txt",
            "whitelists": folder / "whitelists.txt",
            "witness": folder / "witness.txt",
        }
        paths["alpha"].write_text(self.a.side_text())
        paths["beta"].write_text(self.b.side_text())
        paths["jsj_a"].write_text(self.a.jsj_text())
        paths["jsj_b"].write_text(self.b.jsj_text())
        paths["whitelists"].write_text(identity_whitelist_text(self.a.blocks))
        return {key: str(path) for key, path in paths.items()}


def make_case(
    rng: random.Random, command: str, blocks: int, poly_rank: int,
    positive: bool,
) -> DecideCase:
    twists = tuple(_random_twist(rng, poly_rank) for _ in range(blocks))
    a = TwistorTorus(poly_rank, twists, ())
    source = a if positive else _perturbed(rng, a)
    b = _transform(rng, source)
    return DecideCase(command, positive, a, b)
