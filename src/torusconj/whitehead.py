"""Whitehead's algorithm for markings: tuples of conjugacy classes of tuples.

A marking stores an ordered sequence of classes; each class is a tuple of
words up to simultaneous conjugation, held in canonical form.  Orbit
decisions run minimize-then-connect: greedy descent through the finite
Whitehead move alphabet, then a breadth-first search through the
length-preserving moves at the minimal level (peak reduction).

The fiber-and-orientation variant for products H x <c> reduces to the plain
problem on the H-parts: such automorphisms fix the center and preserve the
fiber H, which pins the center coordinates entrywise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, FormatError
from .freegroup import (
    FreeAut,
    FreeGroup,
    Letter,
    Word,
    canonical_conjugate,
    is_automorphism,
    reduce_letters,
)

# ---------------------------------------------------------------------------
# markings


@dataclass(frozen=True)
class Marking:
    """Ordered tuple of canonical simultaneous-conjugacy classes."""

    group: FreeGroup
    classes: Tuple[Tuple[Word, ...], ...]

    @staticmethod
    def of(group: FreeGroup, classes: Iterable[Iterable[Word]]) -> "Marking":
        canonical = []
        for entry in classes:
            words = tuple(entry)
            if not words:
                raise DomainError("empty tuple entry in a marking")
            for w in words:
                if w.group != group:
                    raise DomainError("marking word over the wrong group")
            canonical.append(canonical_conjugate(words)[0])
        return Marking(group, tuple(canonical))

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


def total_length(m: Marking) -> int:
    return m.total_length()


# ---------------------------------------------------------------------------
# the Whitehead move alphabet


@dataclass(frozen=True)
class WhiteheadMove:
    """Type I: signed generator permutation.  Type II: multiplier and cut."""

    kind: str  # "perm" or "mult"
    data: tuple
    aut: FreeAut

    def apply_marking(self, m: Marking) -> Marking:
        table = _letter_table(self.aut)
        classes = []
        for entry in m.classes:
            words = tuple(_apply_table(table, w) for w in entry)
            classes.append(canonical_conjugate(words)[0])
        return Marking(m.group, tuple(classes))

    def __repr__(self):
        return f"<WhiteheadMove {self.kind} {self.data}>"


@lru_cache(maxsize=None)
def _letter_table(aut: FreeAut) -> Dict[Letter, Tuple[Letter, ...]]:
    table = {}
    for i, img in enumerate(aut.images):
        table[(i, 1)] = img.letters
        table[(i, -1)] = img.inverse().letters
    return table


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
# minimize and orbit decision


def minimize(m: Marking) -> Tuple[Marking, List[WhiteheadMove]]:
    """Greedy descent to a length-minimal marking; peak reduction makes the
    first strictly shortening move in the fixed enumeration sufficient."""
    moves = move_alphabet(m.group)
    current = Marking.of(m.group, m.classes)
    applied: List[WhiteheadMove] = []
    improved = True
    while improved:
        improved = False
        length = current.total_length()
        for move in moves:
            candidate = move.apply_marking(current)
            if candidate.total_length() < length:
                current = candidate
                applied.append(move)
                improved = True
                break
    return current, applied


def _compose_moves(group: FreeGroup, moves: Sequence[WhiteheadMove]) -> FreeAut:
    aut = FreeAut.identity(group)
    for move in moves:
        aut = move.aut * aut
    return aut


def same_orbit(m1: Marking, m2: Marking, group="aut") -> Tuple[bool, Optional[FreeAut]]:
    """Orbit decision with witness.  `group` selects the acting group:
    "aut" for the full automorphism group, or a ProductGroup descriptor for
    the fiber-and-orientation preserving action (product markings)."""
    if isinstance(group, ProductGroup):
        return mwp_product(m1, m2, group)
    if group != "aut":
        raise DomainError(f"unknown automorphism-group descriptor {group!r}")
    if m1.group != m2.group:
        raise DomainError("markings over different groups")
    m1 = Marking.of(m1.group, m1.classes)
    m2 = Marking.of(m2.group, m2.classes)
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
        _compose_moves(fg, moves2).inverse()
        * _compose_moves(fg, path)
        * _compose_moves(fg, moves1)
    )
    assert m1.apply(witness) == m2
    return True, witness


def _level_path(start: Marking, goal: Marking) -> Optional[List[WhiteheadMove]]:
    """Breadth-first connectivity through length-preserving moves."""
    if start == goal:
        return []
    moves = move_alphabet(start.group)
    length = start.total_length()
    parents: Dict[Marking, Tuple[Marking, WhiteheadMove]] = {start: None}  # type: ignore[assignment]
    frontier = [start]
    while frontier:
        nxt = []
        for marking in frontier:
            for move in moves:
                candidate = move.apply_marking(marking)
                if candidate.total_length() != length or candidate in parents:
                    continue
                parents[candidate] = (marking, move)
                if candidate == goal:
                    path = []
                    cur = candidate
                    while parents[cur] is not None:
                        prev, mv = parents[cur]
                        path.append(mv)
                        cur = prev
                    return list(reversed(path))
                nxt.append(candidate)
        frontier = nxt
    return None


# ---------------------------------------------------------------------------
# the F x Z variant


@dataclass(frozen=True)
class ProductGroup:
    """Descriptor of G == H x <c> with H free and c the designated center."""

    free: FreeGroup
    center_name: str = "c"


@dataclass(frozen=True)
class ProductMarking:
    """Marking over H x <c>: word parts with exact center exponents."""

    product: ProductGroup
    classes: Tuple[Tuple[Tuple[Word, int], ...], ...]

    @staticmethod
    def of(product: ProductGroup, classes) -> "ProductMarking":
        canonical = []
        for entry in classes:
            entry = tuple(entry)
            if not entry:
                raise DomainError("empty tuple entry in a marking")
            words = tuple(w for w, _ in entry)
            centers = tuple(k for _, k in entry)
            for w in words:
                if w.group != product.free:
                    raise DomainError("marking word over the wrong group")
            canon, _ = canonical_conjugate(words)
            canonical.append(tuple(zip(canon, centers)))
        return ProductMarking(product, tuple(canonical))

    def h_marking(self) -> Marking:
        return Marking.of(
            self.product.free, [[w for w, _ in entry] for entry in self.classes]
        )

    def centers(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(tuple(k for _, k in entry) for entry in self.classes)

    def format(self) -> str:
        c = self.product.center_name
        chunks = []
        for entry in self.classes:
            items = [
                (w.format() if k == 0 else f"{w.format()} * {c}^{k}") for w, k in entry
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
    c = product.center_name
    center = 0
    word_parts = []
    for factor in text.split("*"):
        factor = factor.strip()
        if factor == c:
            center += 1
        elif factor.startswith(c + "^"):
            center += int(factor[len(c) + 1 :])
        else:
            word_parts.append(factor)
    return product.free.parse(" ".join(word_parts)), center


def mwp_product(
    m1: ProductMarking, m2: ProductMarking, product: Optional[ProductGroup] = None
) -> Tuple[bool, Optional[FreeAut]]:
    """Fiber-and-orientation preserving orbit decision in H x <c>.

    Such an automorphism has the shape h -> psi(h) c^{lambda(h)}, c -> c,
    with psi in Aut(H) and lambda: H -> Z a homomorphism; preserving the
    fiber H forces lambda == 0, so the group is a copy of Aut(H).  The
    decision is the plain orbit problem on the H-parts together with
    entrywise equality of the center exponents, which such maps leave fixed.
    """
    product = product if product is not None else m1.product
    if m1.product != m2.product or m1.product != product:
        raise DomainError("markings over different product groups")
    if len(m1.classes) != len(m2.classes):
        return False, None
    if tuple(len(e) for e in m1.classes) != tuple(len(e) for e in m2.classes):
        return False, None
    # fiber preservation forces lambda == 0, which pins the centers entrywise
    if m1.centers() != m2.centers():
        return False, None
    return same_orbit(m1.h_marking(), m2.h_marking(), "aut")
