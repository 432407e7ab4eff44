"""Whitehead's algorithm for markings: tuples of conjugacy classes of tuples.

A marking stores an ordered sequence of classes; each class is a tuple of
words up to simultaneous conjugation, held in canonical form.  Orbit
decisions run minimize-then-connect: greedy descent through the type-II
Whitehead moves that can shorten a marking, then a breadth-first search
through the length-preserving ones at the minimal level (peak reduction) to
a signed relabelling of the goal.  Each move's images and inverse images
are built from its definition.

The fiber-and-orientation variant for products H x <c> reduces to the plain
problem on the H-parts: such automorphisms fix the center and preserve the
fiber H, which pins the center coordinates entrywise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError, FormatError
from .freegroup import (
    FreeAut,
    FreeGroup,
    Letter,
    Word,
    canonical_conjugate,
    conjugacy_length,
    reduce_letters,
)
from .gog import CENTER, split_center

# ---------------------------------------------------------------------------
# markings


def _entry_parts(text: str) -> Iterator[List[str]]:
    """The comma-separated parts of each `[ ... ]` entry of a marking text
    `[ ... ] ; [ ... ]`, one entry at a time."""
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("[") and chunk.endswith("]")):
            raise FormatError(f"marking entry must be bracketed: {chunk!r}")
        yield chunk[1:-1].split(",")


@dataclass(frozen=True)
class Marking:
    """Ordered tuple of canonical simultaneous-conjugacy classes, canonical
    by construction: build one with `of`, `parse`, `apply` or a move's
    `apply_marking`, which canonicalize each class once; nothing else does."""

    group: FreeGroup
    classes: Tuple[Tuple[Word, ...], ...]

    @staticmethod
    def of(group: FreeGroup, classes: Iterable[Iterable[Word]]) -> "Marking":
        classes = [tuple(entry) for entry in classes]
        for words in classes:
            if not words:
                raise DomainError("empty tuple entry in a marking")
            if any(w.group != group for w in words):
                raise DomainError("marking word over the wrong group")
        return _canonical_marking(group, classes)

    def total_length(self) -> int:
        return sum(len(w) for entry in self.classes for w in entry)

    def apply(self, aut: FreeAut) -> "Marking":
        return Marking.of(self.group, [[aut.apply(w) for w in entry] for entry in self.classes])

    def format(self) -> str:
        return " ; ".join(
            "[ " + " , ".join(w.format() for w in entry) + " ]" for entry in self.classes
        )

    @staticmethod
    def parse(group: FreeGroup, text: str) -> "Marking":
        return Marking.of(group, [[group.parse(part) for part in parts] for parts in _entry_parts(text)])

    def __repr__(self):
        return f"<Marking {self.format()}>"


# ---------------------------------------------------------------------------
# Whitehead moves


@dataclass(frozen=True)
class WhiteheadMove:
    """Type I: signed generator permutation.  Type II: multiplier and cut."""

    kind: str  # "perm" or "mult"
    data: tuple
    aut: FreeAut

    def apply_marking(self, m: Marking) -> Marking:
        return _canonical_marking(m.group, _image_classes(self, m))

    def __repr__(self):
        return f"<WhiteheadMove {self.kind} {self.data}>"


@lru_cache(maxsize=None)
def _letter_table(aut: FreeAut) -> Dict[Letter, Tuple[Letter, ...]]:
    table = {}
    for i, img in enumerate(aut.images):
        table[(i, 1)] = img.letters
        table[(i, -1)] = img.inverse().letters
    return table


def _canonical_marking(group: FreeGroup, classes: Iterable[Tuple[Word, ...]]) -> Marking:
    return Marking(group, tuple(canonical_conjugate(words)[0] for words in classes))


def _image_classes(move: WhiteheadMove, m: Marking) -> List[Tuple[Word, ...]]:
    """The move's image of each class of `m`, not yet canonical."""
    table = _letter_table(move.aut)
    return [tuple(_apply_table(table, w) for w in entry) for entry in m.classes]


def _apply_table(table, w: Word) -> Word:
    letters: List[Letter] = []
    for letter in w.letters:
        letters.extend(table[letter])
    return Word(w.group, reduce_letters(letters))


# ---------------------------------------------------------------------------
# length changes read off the Whitehead graph
#
# Letters are indexed 2i (generator i) and 2i + 1 (its inverse), so index ^ 1
# inverts.  The Whitehead graph of a set of cyclically reduced words has one
# vertex per letter and, for each cyclic successor pair x y, one edge joining
# x and y^-1; so the degree of x is the count of x plus the count of x^-1.
# A type-II move with multiplier v and cut Y (v in Y, v^-1 not) changes the
# total length by the capacity of the cut minus the degree of v (Whitehead;
# Lyndon-Schupp, Prop. I.4.16):
#   |move(w)| - |w| = sum_{a in Y, b not in Y} E[a, b] - deg(v),
# with E[a, b] the number of edges joining a and b.  Type-I moves never
# change length.


def _letter_index(letter: Letter) -> int:
    return 2 * letter[0] + (letter[1] < 0)


@lru_cache(maxsize=None)
def _type_two_cuts(group: FreeGroup) -> Tuple[Tuple[WhiteheadMove, int, Tuple[int, ...]], ...]:
    """(move, index of v, flat indices a * width + b with a in Y and b not
    in Y) for each type-II move tau_{v,Y} that can give a marking no other
    move gives, with data (v, Y - {v} sorted): v each generator in order,
    and for each its cuts by size, in combination order of the other letters.

    tau_{v,Y} fixes v and sends each other generator x to
    (v^-1 if x^-1 in Y) x (v if x in Y); its inverse trades v for v^-1
    there.  Markings are conjugacy classes, so two kinds of move only repeat
    an image, L being the set of all letters.  tau_{v, L - {v^-1}} sends
    each x to v^-1 x v, so its image is the marking itself (an inner move).
    And tau_{v^-1, L - Y}(x) == v tau_{v,Y}(x) v^-1, so the two moves of
    such a complementary pair give the same image and the same length
    change.  The table holds no inner move and, of each pair, the member
    whose multiplier is a generator: 4 of the 12 type-II moves at rank 2,
    42 of 90 at rank 3 and 248 of 504 at rank 4."""
    n, width = group.rank, 2 * group.rank
    table = []
    for g in range(n):
        others = [(i, s) for i in range(n) if i != g for s in (1, -1)]
        # every other letter in Y gives the inner move
        for size in range(1, len(others)):
            for chosen in itertools.combinations(others, size):
                aut = FreeAut(group, _multiplied(group, g, chosen, 1), _multiplied(group, g, chosen, -1))
                move = WhiteheadMove("mult", ((g, 1), tuple(sorted(chosen))), aut)
                cut = {2 * g} | {_letter_index(x) for x in chosen}
                cross = tuple(a * width + b for a in sorted(cut) for b in range(width) if b not in cut)
                table.append((move, 2 * g, cross))
    return tuple(table)


def _multiplied(group: FreeGroup, g: int, chosen: Sequence[Letter], e: int) -> List[Word]:
    """x -> (v^-e if x^-1 in Y) x (v^e if x in Y) on each generator x, for
    v == x_g and Y - {v} == `chosen`: the images of tau_{v,Y} (e == 1) or of
    its inverse (e == -1).  Each is reduced, as `chosen` holds no letter
    of v's generator."""
    images = []
    for i in range(group.rank):
        letters = [(i, 1)]
        if (i, -1) in chosen:
            letters.insert(0, (g, -e))
        if (i, 1) in chosen:
            letters.append((g, e))
        images.append(Word(group, tuple(letters)))
    return images


def _whitehead_graph(m: Marking) -> Optional[Tuple[List[int], List[int]]]:
    """(E flattened as a * width + b, the degree of each letter) for the
    Whitehead graph of `m`; None when a class holds several words.  The
    classes must be canonical, as `Marking.of` and `apply_marking` leave
    them, so each single word is cyclically reduced."""
    width = 2 * m.group.rank
    edges = [0] * (width * width)
    degrees = [0] * width
    for entry in m.classes:
        if len(entry) != 1:
            return None
        word = [_letter_index(letter) for letter in entry[0].letters]
        prev = word[-1] if word else 0
        for x in word:
            y = x ^ 1
            edges[prev * width + y] += 1
            edges[y * width + prev] += 1
            degrees[x] += 1
            degrees[y] += 1
            prev = x
    return edges, degrees


def _moves_changing_length(
    m: Marking, keep: Callable[[int], bool]
) -> Iterator[Tuple[WhiteheadMove, Marking]]:
    """(move, move(m)) for each type-II move of `_type_two_cuts`, in order,
    whose length change passes `keep`; type-I moves never change length.
    The type-II moves left out of that table (8 of 12 at rank 2, 48 of 90
    at rank 3, 256 of 504 at rank 4) would yield nothing new: an inner move
    gives `m` itself, and the member of a complementary pair whose
    multiplier is an inverse gives the image and length change of the
    other.  Single-word classes apply only the moves that pass `keep`;
    classes of several words apply every move of the table, measure each
    image by `conjugacy_length` and canonicalize only the images kept."""
    graph = _whitehead_graph(m)
    if graph is None:
        length = m.total_length()
        for move, _, _ in _type_two_cuts(m.group):
            images = _image_classes(move, m)
            if keep(sum(map(conjugacy_length, images)) - length):
                yield move, _canonical_marking(m.group, images)
        return
    edge, degrees = graph[0].__getitem__, graph[1]
    for move, v, cross in _type_two_cuts(m.group):
        if keep(sum(map(edge, cross)) - degrees[v]):
            yield move, move.apply_marking(m)


# ---------------------------------------------------------------------------
# minimize and orbit decision


def minimize(m: Marking) -> Tuple[Marking, List[WhiteheadMove]]:
    """Greedy descent to a length-minimal marking; peak reduction makes the
    first strictly shortening move in the fixed enumeration sufficient."""
    current = m
    applied: List[WhiteheadMove] = []
    while True:
        step = next(_moves_changing_length(current, lambda change: change < 0), None)
        if step is None:
            return current, applied
        move, image = step
        assert image.total_length() < current.total_length()
        current = image
        applied.append(move)


def compose_moves(group: FreeGroup, moves: Sequence[WhiteheadMove]) -> FreeAut:
    """The automorphism that applies `moves` in order."""
    aut = FreeAut.identity(group)
    for move in moves:
        aut = move.aut * aut
    return aut


def same_orbit(m1: Marking, m2: Marking) -> Tuple[bool, Optional[FreeAut]]:
    """Orbit decision under the full automorphism group, with witness:
    minimize both, then `_level_path` at the minimal level.
    `mwp_product` is the fiber-and-orientation preserving variant.  The
    decision pipeline asks no orbit question: its black tables enumerate
    the minimal level once (`level_component`)."""
    if m1.group != m2.group:
        raise DomainError("markings over different groups")
    if len(m1.classes) != len(m2.classes):
        return False, None
    if tuple(len(e) for e in m1.classes) != tuple(len(e) for e in m2.classes):
        return False, None
    fg = m1.group
    min1, moves1 = minimize(m1)
    min2, moves2 = minimize(m2)
    if min1.total_length() != min2.total_length():
        return False, None
    path = _level_path(min1, min2)
    if path is None:
        return False, None
    witness = (
        compose_moves(fg, moves2).inverse()
        * compose_moves(fg, path)
        * compose_moves(fg, moves1)
    )
    assert m1.apply(witness) == m2
    return True, witness


def level_component(m: Marking) -> Dict[Marking, List[WhiteheadMove]]:
    """Every marking that length-preserving Whitehead moves reach from the
    length-minimal `m`, with a path of moves from `m` to it: by peak
    reduction, all the minimal markings of its orbit (McCool's minimal
    level).  The walk is `_level_path`'s, run to the end; the signed
    relabellings are applied once afterwards, so a path ends with its
    relabelling.  In order of discovery, the relabelled markings last."""
    paths = dict(_level_walk(m))
    for x, path in list(paths.items()):
        for sigma, _, _ in _relabellings(m.group):
            paths.setdefault(sigma.apply_marking(x), path + [sigma])
    return paths


def _level_walk(start: Marking) -> Iterator[Tuple[Marking, List[WhiteheadMove]]]:
    """Breadth-first walk through the length-preserving type-II moves from
    the length-minimal `start`: (marking, the moves from `start` to it) for
    `start`, then for each marking in order of discovery."""
    paths: Dict[Marking, List[WhiteheadMove]] = {start: []}
    yield start, []
    frontier = [start]
    while frontier:
        nxt = []
        for marking in frontier:
            for move, candidate in _moves_changing_length(marking, lambda change: change == 0):
                if candidate not in paths:
                    paths[candidate] = paths[marking] + [move]
                    yield candidate, paths[candidate]
                    nxt.append(candidate)
        frontier = nxt


@lru_cache(maxsize=None)
def _relabellings(group: FreeGroup) -> Tuple[Tuple[WhiteheadMove, WhiteheadMove, Tuple[int, ...]], ...]:
    """(sigma, sigma^-1, pre) for each type-I move sigma, the signed
    generator permutations other than the identity: permutations in
    lexicographic order, each with its signs in product order of (1, -1).
    Data (perm, signs) sends generator i to x_{perm[i]}^{signs[i]}; its
    inverse is (q, the signs permuted by q), q being the inverse
    permutation.  pre[y] is the index of the letter that sigma sends to
    letter y."""
    n = group.rank
    words = {(i, s): Word(group, ((i, s),)) for i in range(n) for s in (1, -1)}
    identity = tuple(range(n))
    table = []
    for perm in itertools.permutations(identity):
        q = tuple(sorted(identity, key=perm.__getitem__))  # q[perm[i]] == i
        for signs in itertools.product((1, -1), repeat=n):
            if perm == identity and -1 not in signs:
                continue
            q_signs = tuple(signs[j] for j in q)
            aut = FreeAut(group, [words[x] for x in zip(perm, signs)], [words[x] for x in zip(q, q_signs)])
            pre = [0] * (2 * n)
            for i, x in enumerate(zip(perm, signs)):
                y = _letter_index(x)
                pre[y], pre[y ^ 1] = 2 * i, 2 * i + 1
            sigma = WhiteheadMove("perm", (perm, signs), aut)
            table.append((sigma, WhiteheadMove("perm", (q, q_signs), aut.inverse()), tuple(pre)))
    return tuple(table)


def _profile(m: Marking) -> Tuple[int, ...]:
    """The letter counts, by letter index, of the cyclic reduction of each
    word of each class, in order.  Simultaneous conjugation keeps them, and
    a signed relabelling permutes them (`_relabel_profile`).  Single words
    of canonical classes are already cyclically reduced."""
    width = 2 * m.group.rank
    profile: List[int] = []
    for entry in m.classes:
        for word in entry:
            if len(entry) > 1:
                word = word.cyclic_reduction()[1]
            counts = [0] * width
            for i, s in word.letters:
                counts[2 * i + (s < 0)] += 1
            profile.extend(counts)
    return tuple(profile)


def _relabel_profile(profile: Tuple[int, ...], pre: Tuple[int, ...]) -> Tuple[int, ...]:
    """The profile of sigma(m) from that of m, with `pre` as in `_relabellings`."""
    width = len(pre)
    return tuple(
        profile[base + x] for base in range(0, len(profile), width) for x in pre
    )


def _level_path(start: Marking, goal: Marking) -> Optional[List[WhiteheadMove]]:
    """Breadth-first connectivity through length-preserving type-II moves
    (`_level_walk`, stopped at the first match) to a signed relabelling
    sigma(goal), followed by sigma^-1.

    Conjugating a type-II move by a signed permutation gives another type-II
    move (sigma tau_{v,Y} sigma^-1 == tau_{sigma(v),sigma(Y)}), so every
    length-preserving path can be rewritten as type-II moves followed by one
    signed permutation; the markings it then passes through are relabellings
    of the old ones and keep their lengths.

    A marking is compared only with the sigma(goal) whose profile equals its
    own, each built on first use, and matches the first such sigma in the
    order of `_relabellings`, after the identity."""
    if start == goal:
        return []
    profile = _profile(goal)
    # (sigma, the path's tail sigma^-1), the identity first
    steps: List[Tuple[Optional[WhiteheadMove], List[WhiteheadMove]]] = [(None, [])]
    by_profile: Dict[Tuple[int, ...], List[int]] = {profile: [0]}
    for sigma, inverse, pre in _relabellings(goal.group):
        by_profile.setdefault(_relabel_profile(profile, pre), []).append(len(steps))
        steps.append((sigma, [inverse]))
    images: Dict[int, Marking] = {0: goal}

    def tail(marking: Marking) -> Optional[List[WhiteheadMove]]:
        """sigma^-1 for the first sigma with sigma(goal) == marking."""
        for k in by_profile.get(_profile(marking), ()):
            sigma, rest = steps[k]
            if k not in images:
                images[k] = sigma.apply_marking(goal)
            if images[k] == marking:
                return rest
        return None

    for marking, path in _level_walk(start):
        found = tail(marking)
        if found is not None:
            return path + found
    return None


# ---------------------------------------------------------------------------
# the F x Z variant


@dataclass(frozen=True)
class ProductGroup:
    """Descriptor of G == H x <c> with H free and c (`CENTER`) the center.
    No generator of H takes the center's name, so each factor of a product
    element reads one way."""

    free: FreeGroup

    def __post_init__(self):
        if CENTER in self.free.names:
            raise DomainError(f"a free generator is named {CENTER!r}, the center's name")

    @staticmethod
    def of_rank(rank: int) -> "ProductGroup":
        """H of rank `rank` with `FreeGroup`'s default names, the center's
        left out: a, b at rank 2, and a, b, d, e, ... from rank 3 on."""
        names = FreeGroup(rank).names
        if CENTER in names:
            names = tuple(name for name in FreeGroup(rank + 1).names if name != CENTER)[:rank]
        return ProductGroup(FreeGroup(names))


@dataclass(frozen=True)
class ProductMarking:
    """Marking over H x <c>: word parts with exact center exponents."""

    product: ProductGroup
    classes: Tuple[Tuple[Tuple[Word, int], ...], ...]

    @staticmethod
    def of(product: ProductGroup, classes) -> "ProductMarking":
        classes = [tuple(entry) for entry in classes]
        h = Marking.of(product.free, [[w for w, _ in entry] for entry in classes])
        return ProductMarking(product, tuple(
            tuple((w, k) for w, (_, k) in zip(canon, entry))
            for canon, entry in zip(h.classes, classes)
        ))

    def h_marking(self) -> Marking:
        # the H-parts, which `of` has canonicalized
        return Marking(self.product.free, tuple(tuple(w for w, _ in e) for e in self.classes))

    def centers(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(k for _, k in entry) for entry in self.classes)

    def format(self) -> str:
        chunks = []
        for entry in self.classes:
            items = [
                (w.format() if k == 0 else f"{w.format()} * {CENTER}^{k}") for w, k in entry
            ]
            chunks.append("[ " + " , ".join(items) + " ]")
        return " ; ".join(chunks)

    @staticmethod
    def parse(product: ProductGroup, text: str) -> "ProductMarking":
        classes = []
        for parts in _entry_parts(text):
            entry = []
            for part in parts:
                word_text, center = split_center(part)
                entry.append((product.free.parse(word_text), center or 0))
            classes.append(entry)
        return ProductMarking.of(product, classes)


def mwp_product(m1: ProductMarking, m2: ProductMarking) -> Tuple[bool, Optional[FreeAut]]:
    """Fiber-and-orientation preserving orbit decision in H x <c>.

    Such an automorphism has the shape h -> psi(h) c^{lambda(h)}, c -> c,
    with psi in Aut(H) and lambda: H -> Z a homomorphism; preserving the
    fiber H forces lambda == 0, so the group is a copy of Aut(H).  The
    decision is the plain orbit problem on the H-parts together with
    entrywise equality of the center exponents, which such maps leave fixed.
    It serves `whitehead orbit --product`; the decision pipeline keys F_k x Z
    slots on the same two parts without asking orbit questions
    (`pipeline.fop_slot_isos`).
    """
    if m1.product != m2.product:
        raise DomainError("markings over different product groups")
    if len(m1.classes) != len(m2.classes):
        return False, None
    if tuple(len(e) for e in m1.classes) != tuple(len(e) for e in m2.classes):
        return False, None
    # fiber preservation forces lambda == 0, which pins the centers entrywise
    if m1.centers() != m2.centers():
        return False, None
    return same_orbit(m1.h_marking(), m2.h_marking())
