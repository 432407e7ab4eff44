"""Whitehead's algorithm for markings: tuples of conjugacy classes of tuples.

A marking stores an ordered sequence of classes; each class is a tuple of
words up to simultaneous conjugation, held in canonical form.  Orbit
decisions run minimize-then-connect: greedy descent through the finite
Whitehead move alphabet, then a breadth-first search through the
length-preserving type-II moves at the minimal level (peak reduction) to a
signed relabelling of the goal.

The fiber-and-orientation variant for products H x <c> reduces to the plain
problem on the H-parts: such automorphisms fix the center and preserve the
fiber H, which pins the center coordinates entrywise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DomainError, FormatError, parse_int
from .freegroup import (
    FreeAut,
    FreeGroup,
    Letter,
    Word,
    canonical_conjugate,
    conjugacy_length,
    is_automorphism,
    reduce_letters,
)

# ---------------------------------------------------------------------------
# markings


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
        classes = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not (chunk.startswith("[") and chunk.endswith("]")):
                raise FormatError(f"marking entry must be bracketed: {chunk!r}")
            words = [group.parse(part) for part in chunk[1:-1].split(",")]
            classes.append(words)
        return Marking.of(group, classes)

    def __repr__(self):
        return f"<Marking {self.format()}>"


# ---------------------------------------------------------------------------
# the Whitehead move alphabet


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


@lru_cache(maxsize=None)
def move_alphabet(group: FreeGroup) -> Tuple[WhiteheadMove, ...]:
    """Every nonidentity Whitehead move of the given rank, fixed order."""
    n = group.rank
    moves: List[WhiteheadMove] = []
    # type I: signed permutations of the generators
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if perm == tuple(range(n)) and all(s == 1 for s in signs):
                continue
            images = [group.word([(perm[i], signs[i])]) for i in range(n)]
            aut = is_automorphism(group, images)
            moves.append(WhiteheadMove("perm", (perm, signs), aut))
    # type II: multiplier v and cut Y containing v but not v^-1;
    # x -> (v^-1 if x^-1 in Y) x (v if x in Y) for x not the v-generator
    letters = [(i, s) for i in range(n) for s in (1, -1)]
    for v in letters:
        others = [l for l in letters if l[0] != v[0]]
        for size in range(1, len(others) + 1):
            for subset in itertools.combinations(others, size):
                chosen = frozenset(subset)
                images = []
                for i in range(n):
                    if i == v[0]:
                        images.append(group.generator(i))
                        continue
                    pre = [(v[0], -v[1])] if (i, -1) in chosen else []
                    post = [v] if (i, 1) in chosen else []
                    images.append(group.word(pre + [(i, 1)] + post))
                aut = is_automorphism(group, images)
                if aut is None:
                    raise AssertionError("Whitehead move failed to be an automorphism")
                moves.append(WhiteheadMove("mult", (v, tuple(sorted(chosen))), aut))
    return tuple(moves)


# ---------------------------------------------------------------------------
# length changes read off the Whitehead graph
#
# Letters are indexed 2i (generator i) and 2i + 1 (its inverse), so index ^ 1
# inverts.  A type-II move with multiplier v and cut Y = chosen + {v} sends a
# letter x other than v^+-1 to (v^-1 if x^-1 in Y) x (v if x in Y).  In a
# cyclically reduced word, an image ends in v exactly when its letter is in
# Y and starts with v^-1 exactly when its letter's inverse is in Y, and each
# such v v^-1 meeting cancels once, with no further cancellation (Whitehead;
# Lyndon-Schupp, Prop. I.4.16).  So with C[x] the count of letter x and
# P[x, y] the count of cyclic successor pairs x y:
#   |move(w)| - |w| = sum_{x in Y, x != v} C[x] + sum_{x^-1 in Y, x != v^-1} C[x]
#                     - 2 sum_{x in Y, y^-1 in Y} P[x, y].


def _letter_index(letter: Letter) -> int:
    return 2 * letter[0] + (letter[1] < 0)


# (letters whose counts add, with multiplicity; flat successor-pair indices
# whose counts subtract twice), or None for a type-I move
_Cut = Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]


@lru_cache(maxsize=None)
def _move_cuts(group: FreeGroup) -> Tuple[_Cut, ...]:
    """Cut data of each move of `move_alphabet(group)`, in its order."""
    width = 2 * group.rank
    cuts: List[_Cut] = []
    for move in move_alphabet(group):
        if move.kind == "perm":
            cuts.append(None)
            continue
        v, chosen = move.data
        chosen = [_letter_index(x) for x in chosen]
        cut = chosen + [_letter_index(v)]
        cuts.append((
            tuple(chosen + [x ^ 1 for x in chosen]),
            tuple(x * width + (y ^ 1) for x in cut for y in cut),
        ))
    return tuple(cuts)


def _length_changes(m: Marking) -> Optional[Iterator[int]]:
    """|move(m)| - |m| for each move of the alphabet, in order and lazily,
    without applying any move; None when a class holds several words.  The
    classes must be canonical, as `Marking.of` and `apply_marking` leave
    them, so each single word is cyclically reduced."""
    width = 2 * m.group.rank
    counts = [0] * width
    pairs = [0] * (width * width)
    for entry in m.classes:
        if len(entry) != 1:
            return None
        word = [_letter_index(letter) for letter in entry[0].letters]
        prev = word[-1] if word else 0
        for x in word:
            counts[x] += 1
            pairs[prev * width + x] += 1
            prev = x
    count, pair = counts.__getitem__, pairs.__getitem__
    return (
        0 if cut is None else sum(map(count, cut[0])) - 2 * sum(map(pair, cut[1]))
        for cut in _move_cuts(m.group)
    )


def _moves_changing_length(
    m: Marking, keep: Callable[[int], bool]
) -> Iterator[Tuple[WhiteheadMove, Marking]]:
    """(move, move(m)) for each type-II move of the alphabet, in order, whose
    length change passes `keep`; type-I moves never change length.
    Single-word classes apply only those moves; classes of several words
    apply every type-II move, measure each image by `conjugacy_length` and
    canonicalize only the images kept."""
    moves = move_alphabet(m.group)
    changes = _length_changes(m)
    if changes is None:
        length = m.total_length()
        for move in moves:
            if move.kind == "perm":
                continue
            images = _image_classes(move, m)
            if keep(sum(map(conjugacy_length, images)) - length):
                yield move, _canonical_marking(m.group, images)
        return
    for move, change in zip(moves, changes):
        if move.kind == "mult" and keep(change):
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


def minimized(m: Marking, memo: Optional[dict] = None) -> Tuple[Marking, List[WhiteheadMove]]:
    """`minimize(m)`, kept in `memo` (when given) under the marking's value,
    so that a caller asking about one marking many times minimizes it once."""
    if memo is None:
        return minimize(m)
    key = ("minimize", m)
    if key not in memo:
        memo[key] = minimize(m)
    return memo[key]


def _compose_moves(group: FreeGroup, moves: Sequence[WhiteheadMove]) -> FreeAut:
    aut = FreeAut.identity(group)
    for move in moves:
        aut = move.aut * aut
    return aut


def same_orbit(m1: Marking, m2: Marking, memo: Optional[dict] = None) -> Tuple[bool, Optional[FreeAut]]:
    """Orbit decision under the full automorphism group, with witness;
    `mwp_product` is the fiber-and-orientation preserving variant.  `memo`
    is passed to `minimized`."""
    if m1.group != m2.group:
        raise DomainError("markings over different groups")
    if len(m1.classes) != len(m2.classes):
        return False, None
    if tuple(len(e) for e in m1.classes) != tuple(len(e) for e in m2.classes):
        return False, None
    fg = m1.group
    min1, moves1 = minimized(m1, memo)
    min2, moves2 = minimized(m2, memo)
    if min1.total_length() != min2.total_length():
        return False, None
    path = _level_path(min1, min2)
    if path is None:
        return False, None
    witness = (
        _compose_moves(fg, moves2).inverse()
        * _compose_moves(fg, path)
        * _compose_moves(fg, moves1)
    )
    assert m1.apply(witness) == m2
    return True, witness


def level_component(m: Marking) -> FrozenSet[Marking]:
    """Every marking that length-preserving Whitehead moves reach from the
    length-minimal `m`: by peak reduction, all the minimal markings of its
    orbit (McCool's minimal level).  As in `_level_path`, type-II moves are
    searched and the signed relabellings applied once at the end."""
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for marking in frontier:
            for _, candidate in _moves_changing_length(marking, lambda change: change == 0):
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    relabelled = {move.apply_marking(x) for x in seen for move, _ in _relabellings(m.group)}
    return frozenset(seen | relabelled)


@lru_cache(maxsize=None)
def _relabellings(group: FreeGroup) -> Tuple[Tuple[WhiteheadMove, WhiteheadMove], ...]:
    """(sigma, sigma^-1) for each type-I move sigma of the alphabet."""
    perms = {move.aut: move for move in move_alphabet(group) if move.kind == "perm"}
    return tuple((move, perms[aut.inverse()]) for aut, move in perms.items())


def _level_path(start: Marking, goal: Marking) -> Optional[List[WhiteheadMove]]:
    """Breadth-first connectivity through length-preserving type-II moves
    to a signed relabelling sigma(goal), followed by sigma^-1.

    Conjugating a type-II move by a signed permutation gives another type-II
    move (sigma tau_{v,Y} sigma^-1 == tau_{sigma(v),sigma(Y)}), so every
    length-preserving path can be rewritten as type-II moves followed by one
    signed permutation; the markings it then passes through are relabellings
    of the old ones and keep their lengths."""
    if start == goal:
        return []
    targets: Dict[Marking, List[WhiteheadMove]] = {goal: []}
    for move, inverse in _relabellings(goal.group):
        targets.setdefault(move.apply_marking(goal), [inverse])
    if start in targets:
        return targets[start]
    parents: Dict[Marking, Tuple[Marking, WhiteheadMove]] = {start: None}  # type: ignore[assignment]
    frontier = [start]
    while frontier:
        nxt = []
        for marking in frontier:
            for move, candidate in _moves_changing_length(marking, lambda change: change == 0):
                if candidate in parents:
                    continue
                parents[candidate] = (marking, move)
                if candidate in targets:
                    path = []
                    cur = candidate
                    while parents[cur] is not None:
                        prev, mv = parents[cur]
                        path.append(mv)
                        cur = prev
                    return path[::-1] + targets[candidate]
                nxt.append(candidate)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# the F x Z variant

CENTER = "c"  # the name of the center generator in product markings


@dataclass(frozen=True)
class ProductGroup:
    """Descriptor of G == H x <c> with H free and c (`CENTER`) the center."""

    free: FreeGroup


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
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not (chunk.startswith("[") and chunk.endswith("]")):
                raise FormatError(f"marking entry must be bracketed: {chunk!r}")
            entry = []
            for part in chunk[1:-1].split(","):
                entry.append(_parse_product_element(product, part.strip()))
            classes.append(entry)
        return ProductMarking.of(product, classes)


def _parse_product_element(product: ProductGroup, text: str) -> Tuple[Word, int]:
    center = 0
    word_parts = []
    for factor in text.split("*"):
        factor = factor.strip()
        if factor == CENTER:
            center += 1
        elif factor.startswith(CENTER + "^"):
            center += parse_int(factor[len(CENTER) + 1 :], "center exponent")
        else:
            word_parts.append(factor)
    return product.free.parse(" ".join(word_parts)), center


def mwp_product(
    m1: ProductMarking, m2: ProductMarking, memo: Optional[dict] = None
) -> Tuple[bool, Optional[FreeAut]]:
    """Fiber-and-orientation preserving orbit decision in H x <c>.

    Such an automorphism has the shape h -> psi(h) c^{lambda(h)}, c -> c,
    with psi in Aut(H) and lambda: H -> Z a homomorphism; preserving the
    fiber H forces lambda == 0, so the group is a copy of Aut(H).  The
    decision is the plain orbit problem on the H-parts together with
    entrywise equality of the center exponents, which such maps leave fixed.
    `memo` is passed to `same_orbit`.
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
    return same_orbit(m1.h_marking(), m2.h_marking(), memo)
