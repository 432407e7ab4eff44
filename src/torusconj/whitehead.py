"""Whitehead's algorithm for markings: tuples of conjugacy classes of tuples.

A marking stores an ordered sequence of classes; each class is a tuple of
words up to simultaneous conjugation, held in canonical form.  A Whitehead
move is its image of every letter, as letter indices (2i for generator i,
2i + 1 for its inverse), written down from its definition.  Applying a
move rewrites each word through those images; composing moves rewrites the
generators' images, and their inverse images through the inverse moves,
and builds one automorphism at the end.

Orbit decisions run minimize-then-connect: greedy descent through the
type-II Whitehead moves that can shorten a marking, then a breadth-first
search through the length-preserving ones at the minimal level (peak
reduction) to a signed relabelling of the goal, and one composition of the
moves into the witness.  When every class is a single word, descent runs on
letter indices, cyclically reducing each image and canonicalizing only the
result.  The level search generates, per marking it visits, only the signed
relabellings that carry the goal's letter counts to the marking's;
`level_component` generates all of them once per call.  The one table kept
for the life of the process is that of the type-II moves searched at each
rank (`_type_two_cuts`).

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
#
# Letters are indexed 2i (generator i) and 2i + 1 (its inverse), so index ^ 1
# inverts.


@dataclass(frozen=True)
class WhiteheadMove:
    """A Whitehead automorphism given by its image of every letter:
    images[x] is the reduced image of the letter of index x, as letter
    indices.  Type I ("perm"): data (perm, signs), the signed generator
    permutation sending generator i to x_{perm[i]}^{signs[i]}.  Type II
    ("mult"): data (v, Y - {v} sorted), as letters, for tau_{v,Y}."""

    kind: str  # "perm" or "mult"
    data: tuple
    images: Tuple[Tuple[int, ...], ...]

    def apply_marking(self, m: Marking) -> Marking:
        return _canonical_marking(m.group, [[_moved(self.images, w) for w in entry] for entry in m.classes])

    def inverse(self) -> "WhiteheadMove":
        """The inverse move: tau_{v^-1,Y'} for tau_{v,Y}, Y' - {v^-1} being
        Y - {v}, and the inverse signed permutation."""
        if self.kind == "mult":
            (g, s), chosen = self.data
            return _type_two_move(len(self.images) // 2, (g, -s), chosen)
        perm, signs = self.data
        q = tuple(sorted(range(len(perm)), key=perm.__getitem__))  # q[perm[i]] == i
        return _signed_permutation(q, tuple(signs[j] for j in q))

    def __repr__(self):
        return f"<WhiteheadMove {self.kind} {self.data}>"


def _signed_permutation(perm: Tuple[int, ...], signs: Tuple[int, ...]) -> WhiteheadMove:
    """The type-I move with data (perm, signs)."""
    images: List[Tuple[int, ...]] = []
    for j, s in zip(perm, signs):
        y = 2 * j + (s < 0)
        images += [(y,), (y ^ 1,)]
    return WhiteheadMove("perm", (perm, signs), tuple(images))


def _type_two_move(n: int, v: Letter, chosen: Tuple[Letter, ...]) -> WhiteheadMove:
    """The type-II move tau_{v,Y} of rank `n`, for Y - {v} == `chosen`: it
    fixes v and sends each other generator x to
    (v^-1 if x^-1 in Y) x (v if x in Y), which is reduced, as `chosen`
    holds no letter of v's generator."""
    cut = {2 * i + (s < 0) for i, s in chosen}
    u = 2 * v[0] + (v[1] < 0)
    images: List[Tuple[int, ...]] = []
    for x in range(0, 2 * n, 2):
        image = (x,)
        if x + 1 in cut:
            image = (u ^ 1,) + image
        if x in cut:
            image += (u,)
        images += [image, tuple(y ^ 1 for y in reversed(image))]
    return WhiteheadMove("mult", (v, chosen), tuple(images))


def _codes(w: Word) -> List[int]:
    return [2 * i + (s < 0) for i, s in w.letters]


def _letters(indices: Iterable[int]) -> Tuple[Letter, ...]:
    return tuple([(x >> 1, -1 if x & 1 else 1) for x in indices])


def _rewrite(images: Sequence[Tuple[int, ...]], word: Iterable[int]) -> List[int]:
    """The reduced image of `word`, as letter indices, under the move whose
    image of the letter of index x is images[x]."""
    out: List[int] = []
    for x in word:
        for y in images[x]:
            if out and out[-1] == y ^ 1:
                out.pop()
            else:
                out.append(y)
    return out


def _moved(images: Sequence[Tuple[int, ...]], w: Word) -> Word:
    return Word(w.group, _letters(_rewrite(images, _codes(w))))


def _canonical_marking(group: FreeGroup, classes: Iterable[Sequence[Word]]) -> Marking:
    return Marking(group, tuple(canonical_conjugate(words)[0] for words in classes))


# ---------------------------------------------------------------------------
# length changes read off the Whitehead graph
#
# The Whitehead graph of a set of cyclically reduced words has one vertex
# per letter and, for each cyclic successor pair x y, one edge joining x
# and y^-1; so the degree of x is the count of x plus the count of x^-1.
# It depends only on the cyclic words, not on where each is cut.
# A type-II move with multiplier v and cut Y (v in Y, v^-1 not) changes the
# total length by the capacity of the cut minus the degree of v (Whitehead;
# Lyndon-Schupp, Prop. I.4.16):
#   |move(w)| - |w| = sum_{a in Y, b not in Y} E[a, b] - deg(v),
# with E[a, b] the number of edges joining a and b.  Type-I moves never
# change length.


@lru_cache(maxsize=None)
def _type_two_cuts(group: FreeGroup) -> Tuple[Tuple[WhiteheadMove, int, Tuple[int, ...]], ...]:
    """(move, index of v, flat indices a * width + b with a in Y and b not
    in Y) for each type-II move tau_{v,Y} that can give a marking no other
    move gives, with data (v, Y - {v} sorted): v each generator in order,
    and for each its cuts by size, in combination order of the other
    letters.

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
    letters = _letters(range(width))
    # the moves share their few distinct letter images
    shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    table = []
    for g in range(n):
        others = [x for x in range(width) if x >> 1 != g]
        # every other letter in Y gives the inner move
        for size in range(1, len(others)):
            for chosen in itertools.combinations(others, size):
                move = _type_two_move(n, letters[2 * g], tuple(sorted(letters[x] for x in chosen)))
                move = WhiteheadMove("mult", move.data, tuple(shared.setdefault(x, x) for x in move.images))
                cut = {2 * g, *chosen}
                cross = tuple(a * width + b for a in sorted(cut) for b in range(width) if b not in cut)
                table.append((move, 2 * g, cross))
    return tuple(table)


def _letter_codes(m: Marking) -> Optional[List[List[int]]]:
    """The letter indices of the word of each class of `m`; None when a
    class holds several words.  The classes must be canonical, as
    `Marking.of` and `apply_marking` leave them, so each word is cyclically
    reduced."""
    words = []
    for entry in m.classes:
        if len(entry) != 1:
            return None
        words.append(_codes(entry[0]))
    return words


def _whitehead_graph(words: Iterable[Sequence[int]], width: int) -> Tuple[List[int], List[int]]:
    """(E flattened as a * width + b, the degree of each letter) for the
    Whitehead graph of cyclically reduced words given as letter indices,
    over `width` letters."""
    edges = [0] * (width * width)
    degrees = [0] * width
    for word in words:
        prev = word[-1] if word else 0
        for x in word:
            y = x ^ 1
            edges[prev * width + y] += 1
            edges[y * width + prev] += 1
            degrees[x] += 1
            degrees[y] += 1
            prev = x
    return edges, degrees


def _cyclic_image(images: Sequence[Tuple[int, ...]], word: Sequence[int]) -> List[int]:
    """The cyclic reduction of the image of `word`, as letter indices, under
    the move whose image of the letter of index x is images[x]."""
    out = _rewrite(images, word)
    i, j = 0, len(out) - 1
    while i < j and out[i] == out[j] ^ 1:
        i += 1
        j -= 1
    return out[i : j + 1]


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
    words = _letter_codes(m)
    if words is None:
        length = m.total_length()
        for move, _, _ in _type_two_cuts(m.group):
            images = [[_moved(move.images, w) for w in entry] for entry in m.classes]
            if keep(sum(map(conjugacy_length, images)) - length):
                yield move, _canonical_marking(m.group, images)
        return
    edges, degrees = _whitehead_graph(words, 2 * m.group.rank)
    edge = edges.__getitem__
    for move, v, cross in _type_two_cuts(m.group):
        if keep(sum(map(edge, cross)) - degrees[v]):
            yield move, move.apply_marking(m)


# ---------------------------------------------------------------------------
# minimize and orbit decision


def minimize(m: Marking) -> Tuple[Marking, List[WhiteheadMove]]:
    """Greedy descent to a length-minimal marking; peak reduction makes the
    first strictly shortening move in the fixed enumeration sufficient.

    Single-word classes descend on letter indices: each step takes the
    first move of `_type_two_cuts` that the Whitehead graph shows to
    shorten, and only cyclically reduces the images.  The graph depends on
    the cyclic words alone, so these are the moves a descent through
    canonical markings takes, and the result is canonicalized once, or not
    at all when no move shortens `m`.  Classes of several words apply and
    measure each move (`_moves_changing_length`)."""
    words = _letter_codes(m)
    applied: List[WhiteheadMove] = []
    if words is None:
        current = m
        while True:
            step = next(_moves_changing_length(current, lambda change: change < 0), None)
            if step is None:
                return current, applied
            move, image = step
            assert image.total_length() < current.total_length()
            current = image
            applied.append(move)
    group = m.group
    table, width = _type_two_cuts(group), 2 * group.rank
    length = sum(map(len, words))
    while True:
        edges, degrees = _whitehead_graph(words, width)
        edge = edges.__getitem__
        move = next((move for move, v, cross in table if sum(map(edge, cross)) < degrees[v]), None)
        if move is None:
            break
        words = [_cyclic_image(move.images, word) for word in words]
        shorter = sum(map(len, words))
        assert shorter < length
        length = shorter
        applied.append(move)
    if not applied:
        return m, applied
    return _canonical_marking(group, [(Word(group, _letters(word)),) for word in words]), applied


def compose_moves(group: FreeGroup, moves: Sequence[WhiteheadMove]) -> FreeAut:
    """The automorphism that applies `moves` in order: each generator's
    image rewritten through each move in order, and its inverse image
    through each move's inverse in reverse order, on letter indices."""
    images = inverse_images = [(2 * i,) for i in range(group.rank)]
    for move in moves:
        images = [_rewrite(move.images, image) for image in images]
    for move in reversed(moves):
        inverse = move.inverse().images
        inverse_images = [_rewrite(inverse, image) for image in inverse_images]
    return FreeAut(
        group, [Word(group, _letters(x)) for x in images], [Word(group, _letters(x)) for x in inverse_images]
    )


def same_orbit(m1: Marking, m2: Marking) -> Tuple[bool, Optional[FreeAut]]:
    """Orbit decision under the full automorphism group, with witness:
    minimize both, then `_level_path` at the minimal level, and compose
    the descent of `m1`, the path and the inverse of the descent of `m2`
    in one pass.  `mwp_product` is the fiber-and-orientation preserving
    variant.  The decision pipeline asks no orbit question: its black
    tables enumerate the minimal level once (`level_component`)."""
    if m1.group != m2.group:
        raise DomainError("markings over different groups")
    if len(m1.classes) != len(m2.classes):
        return False, None
    if tuple(len(e) for e in m1.classes) != tuple(len(e) for e in m2.classes):
        return False, None
    min1, moves1 = minimize(m1)
    min2, moves2 = minimize(m2)
    if min1.total_length() != min2.total_length():
        return False, None
    path = _level_path(min1, min2)
    if path is None:
        return False, None
    witness = compose_moves(m1.group, moves1 + path + [move.inverse() for move in reversed(moves2)])
    assert m1.apply(witness) == m2
    return True, witness


def level_component(m: Marking) -> Dict[Marking, List[WhiteheadMove]]:
    """Every marking that length-preserving Whitehead moves reach from the
    length-minimal `m`, with a path of moves from `m` to it: by peak
    reduction, all the minimal markings of its orbit (McCool's minimal
    level).  The walk is `_level_path`'s, run to the end; the signed
    relabellings, built once per call in the order of
    `_matching_relabellings`, are applied afterwards, so a path ends with
    its relabelling.  In order of discovery, the relabelled markings last."""
    paths = dict(_level_walk(m))
    relabellings = itertools.islice(_matching_relabellings((), (), m.group.rank), 1, None)
    sigmas = [_signed_permutation(perm, signs) for perm, signs in relabellings]
    for x, path in list(paths.items()):
        for sigma in sigmas:
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


def _profile(m: Marking) -> Tuple[int, ...]:
    """The letter counts, by letter index, of the cyclic reduction of each
    word of each class, in order.  Simultaneous conjugation keeps them, and
    a signed relabelling permutes them (`_matching_relabellings`).  Single
    words of canonical classes are already cyclically reduced."""
    width = 2 * m.group.rank
    profile: List[int] = []
    for entry in m.classes:
        for word in entry:
            if len(entry) > 1:
                word = word.cyclic_reduction()[1]
            counts = [0] * width
            for x in _codes(word):
                counts[x] += 1
            profile.extend(counts)
    return tuple(profile)


def _matching_relabellings(
    source: Tuple[int, ...], target: Tuple[int, ...], n: int
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(perm, signs) for each signed permutation sigma of rank `n`, the
    identity included, with `target` the profile of sigma(m) when `source`
    is that of m: in lexicographic order of perm, then in product order of
    (1, -1) for the signs, so the identity comes first.  With empty
    profiles every sigma matches, in the order `level_component` applies
    them.

    Column i of a profile is the pair (the counts of x_i, the counts of
    x_i^-1), word by word.  sigma sends x_i to x_{perm[i]}^{signs[i]}, so
    it matches exactly when each column i of `source` is column perm[i] of
    `target`, its two halves swapped where signs[i] == -1.  Only the
    permutations that match column by column are generated."""
    width = 2 * n
    columns = [(target[2 * j :: width], target[2 * j + 1 :: width]) for j in range(n)]
    # options[i][j]: the signs s with x_i -> x_j^s matching, (1, -1) in
    # order; the slice [::-1] swaps a column's halves
    options = []
    for i in range(n):
        column = (source[2 * i :: width], source[2 * i + 1 :: width])
        options.append([[s for s in (1, -1) if columns[j][::s] == column] for j in range(n)])
    perm: List[int] = []

    def extend() -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        i = len(perm)
        if i == n:
            done = tuple(perm)
            for signs in itertools.product(*(options[k][j] for k, j in enumerate(done))):
                yield done, signs
            return
        for j in range(n):
            if options[i][j] and j not in perm:
                perm.append(j)
                yield from extend()
                perm.pop()

    return extend()


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
    own (`_matching_relabellings`), each sigma and sigma(goal) built on
    first use, and matches the first such sigma in the order that
    generator gives, the identity first."""
    if start == goal:
        return []
    group, profile = goal.group, _profile(goal)
    # (perm, signs) -> (sigma(goal), the path's tail sigma^-1)
    images = {(tuple(range(group.rank)), (1,) * group.rank): (goal, [])}

    def tail(marking: Marking) -> Optional[List[WhiteheadMove]]:
        """sigma^-1 for the first sigma with sigma(goal) == marking."""
        for key in _matching_relabellings(profile, _profile(marking), group.rank):
            if key not in images:
                sigma = _signed_permutation(*key)
                images[key] = (sigma.apply_marking(goal), [sigma.inverse()])
            image, rest = images[key]
            if image == marking:
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
    # fiber preservation forces lambda == 0, which pins the centers entrywise;
    # markings of different shapes have different centers
    if m1.centers() != m2.centers():
        return False, None
    return same_orbit(m1.h_marking(), m2.h_marking())
