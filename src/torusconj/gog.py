"""Graphs of groups over a closed family of vertex/edge group kinds.

Group slots are Z, Z^2, F_k, or F_k x Z, uniformly represented as a free
part with an optional central coordinate.  Oriented edges are named `e` and
`e~`; conjugation is a^g == g^-1 a g throughout, matching the free-group
convention.  A Dehn twist is an oriented edge e with an element z of the
centralizer of i_e(G_e); as a morphism it is the identity with gamma_e == z.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, FormatError, parse_int
from .freegroup import (
    BasisExpresser,
    FreeGroup,
    Word,
    fold,
    is_automorphism,
    primitive_root,
    reduce_letters,
    root_power,
)

# ---------------------------------------------------------------------------
# group slots and their elements


CENTER = "c"  # the name of the center generator of F_k x Z slots and product markings


def split_center(text: str) -> Tuple[str, Optional[int]]:
    """(the free-part text, the center exponent) of an element written
    `w * c^k`, `c^k` or as a bare free-part word, split at each `*`; the
    exponent is None when no factor is a power of the center.  Every factor
    must be non-empty: `x0 ** c` and `* c` are input errors, not `x0 * c`
    and `c`."""
    center = None
    word_parts = []
    factors = text.split("*")
    for part in factors:
        part = part.strip()
        if part == CENTER or part.startswith(CENTER + "^"):
            power = 1 if part == CENTER else parse_int(part[len(CENTER) + 1 :], "center exponent")
            center = (center or 0) + power
        elif part or len(factors) == 1:
            word_parts.append(part)
        else:
            raise FormatError(f"empty factor in element {text.strip()!r}")
    return " ".join(word_parts), center


@lru_cache(maxsize=None)
def _slot_free_group(rank: int) -> FreeGroup:
    return FreeGroup(tuple(f"x{i}" for i in range(rank)))


@dataclass(frozen=True)
class GroupSlot:
    """One of Z, Z^2, F_k, F_k x Z: a free part plus an optional center.

    Slots of one free rank share one free group, so the words of every
    slot element of that rank live in the same `FreeGroup` object; a slot's
    generators, their names and its identity are built once per slot and
    shared, which is safe because slot elements are immutable."""

    free_rank: int
    has_center: bool

    def __post_init__(self):
        if self.free_rank < 1:
            raise DomainError("slot free rank must be >= 1")
        object.__setattr__(self, "_hash", hash((self.free_rank, self.has_center)))

    # the dataclass's comparison and hash, with a shortcut for the shared
    # instance of each kind (`from_kind`) and the hash computed once
    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GroupSlot):
            return NotImplemented
        return (self.free_rank, self.has_center) == (other.free_rank, other.has_center)

    def __hash__(self):
        return self._hash

    @cached_property
    def free_group(self) -> FreeGroup:
        return _slot_free_group(self.free_rank)

    @cached_property
    def _generators(self) -> Tuple["SlotElement", ...]:
        group = self.free_group
        gens = [SlotElement(self, group.generator(i), 0) for i in range(self.free_rank)]
        if self.has_center:
            gens.append(SlotElement(self, group.identity(), 1))
        return tuple(gens)

    @cached_property
    def _identity(self) -> "SlotElement":
        return SlotElement(self, self.free_group.identity(), 0)

    @cached_property
    def _gen_names(self) -> Tuple[str, ...]:
        return self.free_group.names + ((CENTER,) if self.has_center else ())

    @property
    def kind(self) -> str:
        if self.has_center:
            return "Z2" if self.free_rank == 1 else "fxz"
        return "Z" if self.free_rank == 1 else "free"

    @property
    def ngens(self) -> int:
        return self.free_rank + (1 if self.has_center else 0)

    def gen_names(self) -> List[str]:
        return list(self._gen_names)

    def identity(self) -> "SlotElement":
        """The identity element: one shared immutable object per slot, as
        each generator is."""
        return self._identity

    def generator(self, i: int) -> "SlotElement":
        if not 0 <= i < self.ngens:
            raise DomainError(f"slot has no generator {i}")
        return self._generators[i]

    def generators(self) -> List["SlotElement"]:
        return list(self._generators)

    def parse(self, text: str) -> "SlotElement":
        """`w * c^k`, `c^k`, or a bare free-part word, read by
        `split_center`; `1` is the identity."""
        if text == "1":  # how `format` writes the identity, the commonest text
            return self._identity
        word_text, center = split_center(text)
        if center is not None and not self.has_center:
            raise FormatError("slot has no center")
        word = self.free_group.parse(word_text)
        if not word.letters and not center:
            return self._identity
        return SlotElement(self, word, center or 0)

    @staticmethod
    def from_kind(kind: str, rank: int = 1) -> "GroupSlot":
        """The slot of a kind name; one shared instance per slot."""
        kind = kind.strip().lower()
        if kind == "z":
            return _slot(1, False)
        if kind == "z2":
            return _slot(1, True)
        if kind == "free":
            return _slot(rank, False)
        if kind == "fxz":
            return _slot(rank, True)
        raise FormatError(f"unknown slot kind {kind!r}")


@lru_cache(maxsize=None)
def _slot(free_rank: int, has_center: bool) -> GroupSlot:
    return GroupSlot(free_rank, has_center)


@dataclass(frozen=True)
class SlotElement:
    """(free word, center exponent); the center generator commutes with all."""

    slot: GroupSlot
    word: Word
    center: int = 0

    def __post_init__(self):
        if self.center and not self.slot.has_center:
            raise DomainError("center exponent in a centerless slot")
        group = self.slot.free_group
        if self.word.group is not group and self.word.group != group:
            raise DomainError("free part over the wrong group")

    def __mul__(self, other: "SlotElement") -> "SlotElement":
        if self.slot != other.slot:
            raise DomainError("elements of different slots")
        return SlotElement(self.slot, self.word * other.word, self.center + other.center)

    def inverse(self) -> "SlotElement":
        return SlotElement(self.slot, self.word.inverse(), -self.center)

    def conjugate(self, g: "SlotElement") -> "SlotElement":
        """g^-1 * self * g; the center coordinate is untouched.  Slots of
        free rank 1 (Z and Z^2) are abelian, so there, and whenever g's free
        part is trivial, this is the element itself, with no word work."""
        if self.slot.free_rank == 1 and g.slot.free_rank == 1:
            return self
        word = self.word.conjugate(g.word)
        return self if word is self.word else SlotElement(self.slot, word, self.center)

    def is_identity(self) -> bool:
        return self.word.is_identity() and self.center == 0

    def abelianized(self) -> Tuple[int, ...]:
        vec = [0] * self.slot.ngens
        for i, s in self.word.letters:
            vec[i] += s
        if self.slot.has_center:
            vec[-1] += self.center
        return tuple(vec)

    def format(self) -> str:
        if self.is_identity():
            return "1"
        parts = []
        if not self.word.is_identity():
            parts.append(self.word.format())
        if self.center:
            parts.append(CENTER if self.center == 1 else f"{CENTER}^{self.center}")
        return " * ".join(parts)

    def __repr__(self):
        return f"<{self.format()}>"


def slot_centralizer_of_subgroup(slot: GroupSlot, gens: Sequence[SlotElement]) -> List[SlotElement]:
    """Generators of the centralizer of <gens> in the slot group."""
    free_parts = [g.word for g in gens if not g.word.is_identity()]
    if slot.kind in ("Z", "Z2"):
        return slot.generators()
    out: List[SlotElement] = []
    if not free_parts:
        # subgroup inside the center: centralizer is everything
        return slot.generators()
    roots = [primitive_root(w) for w in free_parts]
    common = roots[0]
    for r in roots[1:]:
        if r != common and r != common.inverse():
            common = None
            break
    if common is not None:
        out.append(SlotElement(slot, common, 0))
    if slot.has_center:
        out.append(slot.generator(slot.free_rank))
    return out


# ---------------------------------------------------------------------------
# homomorphisms between slots


@dataclass(frozen=True)
class SlotHom:
    """A homomorphism given by generator images (free gens, then center).

    `apply(src.generator(i))` is exactly `images[i]`, the center's image
    being `images[-1]`: the images are stored reduced, and a reduced word
    of rank 1 is a power of x0, the one form a Z^2 free part takes.  So
    code that needs the image of a source generator reads `images`."""

    src: GroupSlot
    dst: GroupSlot
    images: Tuple[SlotElement, ...]

    def __post_init__(self):
        if len(self.images) != self.src.ngens:
            raise DomainError("wrong number of generator images")
        for img in self.images:
            if img.slot != self.dst:
                raise DomainError("image in the wrong slot")
        if self.src.has_center:
            c_img = self.images[-1]
            for img in self.images[: self.src.free_rank]:
                if not _commute(c_img, img):
                    raise DomainError("center image fails to commute with the images")
        if self.src.kind == "Z2" and not _commute(self.images[0], self.images[1]):
            raise DomainError("images of commuting generators fail to commute")

    def apply(self, x: SlotElement) -> SlotElement:
        if x.slot != self.src:
            raise DomainError("element from the wrong slot")
        if self._maps_identically:
            return x
        # the images' letters reduced once: the element that multiplying
        # them one at a time gives
        letters: List = []
        center = 0
        for i, s in x.word.letters:
            img = self.images[i]
            letters.extend(img.word.letters if s > 0 else img.word.inverse().letters)
            center += s * img.center
        if x.center:
            img = self.images[-1]
            letters.extend((img.word.letters if x.center > 0 else img.word.inverse().letters) * abs(x.center))
            center += x.center * img.center
        return SlotElement(self.dst, Word(self.dst.free_group, reduce_letters(letters)), center)

    @cached_property
    def _maps_identically(self) -> bool:
        """Whether each generator is its own image, so that `apply` is the
        identity; read once per map."""
        return self.src == self.dst and self.images == self.src._generators

    @cached_property
    def expresser(self) -> BasisExpresser:
        """Membership in the span of the free-part images, for free and
        F x Z sources whose images freely generate (see validate_injection)."""
        basis = [self.images[i].word for i in range(self.src.free_rank)]
        return BasisExpresser(self.dst.free_group, basis)


def _commute(a: SlotElement, b: SlotElement) -> bool:
    return a * b == b * a


def validate_injection(hom: SlotHom) -> None:
    """Reject generator images that cannot define an injective map of the kind.

    Supported configurations mirror the closed slot enumeration; anything
    outside raises DomainError.
    """
    src, dst = hom.src, hom.dst
    if src.kind == "Z":
        if hom.images[0].is_identity():
            raise DomainError("Z edge group maps to the identity")
        return
    free_words = [hom.images[i].word for i in range(src.free_rank)]
    if src.kind == "Z2":
        coords = _cyclic_coordinates(*hom.images)
        if coords is None:
            raise DomainError("Z2 edge group image is not rank two abelian")
        (m1, c1), (m2, c2) = coords
        if m1 * c2 - m2 * c1 == 0:
            raise DomainError("Z2 edge group image is degenerate")
        return
    # free or fxz source: the free images must freely generate their span
    if any(w.is_identity() for w in free_words):
        raise DomainError("free edge generator maps to a central element")
    graph = fold(dst.free_group, free_words)
    if graph.rank() != src.free_rank:
        raise DomainError("free part of the edge group does not embed")
    if src.kind == "fxz":
        c_img = hom.images[-1]
        if not c_img.word.is_identity() or c_img.center == 0:
            raise DomainError("unsupported center image for an fxz edge group")


def _cyclic_coordinates(*elements: SlotElement):
    """Coordinates (n, center) of each element over (root, center), where
    root is the primitive root of the first nontrivial free part; None when
    some free part is not a power of it (exactly when the elements do not
    all commute)."""
    words = [g.word for g in elements if not g.word.is_identity()]
    root = primitive_root(words[0]) if words else None
    coords = []
    for g in elements:
        if g.word.is_identity():
            coords.append((0, g.center))
            continue
        r, n = root_power(g.word)
        if r == root:
            coords.append((n, g.center))
        elif r == root.inverse():
            coords.append((-n, g.center))
        else:
            return None
    return tuple(coords)


def hom_preimage(hom: SlotHom, y: SlotElement) -> Optional[SlotElement]:
    """The x with hom(x) == y, or None when y is off the image; `hom` is an
    injection of a supported configuration (validate_injection), a slot
    isomorphism among them.  One candidate is read off coordinates: over
    (root, center) for Z and Z^2 sources, from the expresser and the center
    residual for F_k and F_k x Z sources.  It is returned only when it maps
    to y, which decides every divisibility and membership question."""
    src = hom.src
    if y.slot != hom.dst:
        raise DomainError("element from the wrong slot")
    if src.free_rank == 1:
        # the images come first, so a valid injection fixes the root
        coords = _cyclic_coordinates(*hom.images, y)
        if coords is None:
            return None
        *columns, (p, q) = coords
        if src.has_center:  # a*(m1, c1) + b*(m2, c2) == (p, q), by Cramer's rule
            (m1, c1), (m2, c2) = columns
            det = m1 * c2 - m2 * c1
            a, center = (p * c2 - q * m2) // det, (q * m1 - p * c1) // det
        else:
            ((m, c),) = columns
            a, center = (p // m if m else q // c), 0
        candidate = SlotElement(src, src.free_group.generator(0) ** a, center)
    else:
        sym = hom.expresser.express(y.word)
        if sym is None:
            return None
        candidate = SlotElement(src, Word(src.free_group, sym.letters), 0)
        if src.has_center:
            residual = y.center - hom.apply(candidate).center
            candidate = SlotElement(src, candidate.word, residual // hom.images[-1].center)
    return candidate if hom.apply(candidate) == y else None


# ---------------------------------------------------------------------------
# slot isomorphisms


@dataclass(frozen=True)
class SlotIso(SlotHom):
    """An isomorphism between slots of the same kind: a `SlotHom` that is
    checked invertible once, at construction."""

    def __post_init__(self):
        super().__post_init__()
        if (self.src.free_rank, self.src.has_center) != (self.dst.free_rank, self.dst.has_center):
            raise DomainError("slot isomorphism between different kinds")
        kind = self.src.kind
        if kind == "Z":
            w = self.images[0].word
            if len(w) != 1:
                raise DomainError("Z slot map is not invertible")
        elif kind == "Z2":
            m = self.matrix()
            if abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) != 1:
                raise DomainError("Z2 slot map is not invertible")
        else:
            free = [img.word for img in self.images[: self.src.free_rank]]
            if is_automorphism(self.dst.free_group, free) is None:
                raise DomainError("free part is not an automorphism")
            if kind == "fxz":
                c_img = self.images[-1]
                if not c_img.word.is_identity() or abs(c_img.center) != 1:
                    raise DomainError("center must map to a center generator")

    @staticmethod
    def identity(slot: GroupSlot) -> "SlotIso":
        return SlotIso(slot, slot, tuple(slot.generators()))

    @staticmethod
    def from_matrix(src: GroupSlot, dst: GroupSlot, m: Sequence[Sequence[int]]) -> "SlotIso":
        """The Z2 slot map whose generator images have the columns of m
        over (x0, c); the inverse of `matrix`."""
        x0 = dst.free_group.generator(0)
        return SlotIso(src, dst, tuple(SlotElement(dst, x0 ** m[0][j], m[1][j]) for j in range(2)))

    # in the class's own namespace, where `bench/layers.py` counts its calls
    apply = SlotHom.apply

    def matrix(self) -> List[List[int]]:
        """For Z2 slots: columns are generator images over (x0, c)."""
        cols = [img.abelianized() for img in self.images]
        return [[cols[j][i] for j in range(len(cols))] for i in range(2)]

    def compose(self, other: "SlotIso") -> "SlotIso":
        """(self.compose(other))(x) == self(other(x))."""
        if other.dst != self.src:
            raise DomainError("slot isomorphisms do not chain")
        return SlotIso(other.src, self.dst, tuple(self.apply(img) for img in other.images))

    def inverse(self) -> "SlotIso":
        """The map sending each generator of the target to its preimage."""
        return SlotIso(self.dst, self.src, tuple(hom_preimage(self, g) for g in self.dst._generators))

    def is_identity(self) -> bool:
        return self._maps_identically


# ---------------------------------------------------------------------------
# graphs and graphs of groups


def bar(edge: str) -> str:
    return edge[:-1] if edge.endswith("~") else edge + "~"


def unoriented(edge: str) -> str:
    return edge[:-1] if edge.endswith("~") else edge


class GraphOfGroups:
    """Finite graph with slot-valued vertex and edge groups and injections."""

    def __init__(
        self,
        vertices: Sequence[str],
        edge_ends: Dict[str, Tuple[str, str]],
        vertex_slots: Dict[str, GroupSlot],
        edge_slots: Dict[str, GroupSlot],
        injections: Dict[str, SlotHom],
    ):
        self.vertices = tuple(sorted(vertices))
        self.edge_names = tuple(sorted(edge_ends))
        self.edge_ends = dict(edge_ends)
        self.vertex_slots = dict(vertex_slots)
        self.edge_slots = dict(edge_slots)
        self.injections = dict(injections)
        # oriented edge -> (initial vertex, terminal vertex), and the
        # oriented edges in `oriented_edges` order
        self._ends: Dict[str, Tuple[str, str]] = {}
        for e in self.edge_names:
            u, v = self.edge_ends[e]
            self._ends[e], self._ends[e + "~"] = (u, v), (v, u)
        self._oriented = tuple(self._ends)
        self._validate()

    def _validate(self):
        for e, (u, v) in self.edge_ends.items():
            if e.endswith("~"):
                raise DomainError("edge names must be the canonical orientation")
            if u not in self.vertex_slots or v not in self.vertex_slots:
                raise DomainError(f"edge {e} touches an unknown vertex")
        for v in self.vertices:
            if v not in self.vertex_slots:
                raise DomainError(f"vertex {v} has no slot")
        for oe in self._oriented:
            hom = self.injections.get(oe)
            if hom is None:
                raise DomainError(f"missing injection for {oe}")
            if hom.src != self.edge_slots[unoriented(oe)]:
                raise DomainError(f"injection source mismatch on {oe}")
            if hom.dst != self.vertex_slots[self._ends[oe][1]]:
                raise DomainError(f"injection target mismatch on {oe}")
            validate_injection(hom)

    def oriented_edges(self) -> List[str]:
        """e, e~ for each edge e, in the order of `edge_names`."""
        return list(self._oriented)

    def init(self, edge: str) -> str:
        return self._ends[edge][0]

    def term(self, edge: str) -> str:
        return self._ends[edge][1]

    def vslot(self, v: str) -> GroupSlot:
        return self.vertex_slots[v]

    def eslot(self, edge: str) -> GroupSlot:
        return self.edge_slots[unoriented(edge)]

    def injection(self, edge: str) -> SlotHom:
        return self.injections[edge]

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, GraphOfGroups)
            and self.vertices == other.vertices
            and self.edge_ends == other.edge_ends
            and self.vertex_slots == other.vertex_slots
            and self.edge_slots == other.edge_slots
            and self.injections == other.injections
        )

    def __repr__(self):
        return f"<GraphOfGroups V={list(self.vertices)} E={list(self.edge_names)}>"


# ---------------------------------------------------------------------------
# Bass words


class BassWord:
    """Alternating g0 e1 g1 ... en gn with the path condition t(ej) == i(ej+1).

    The path is walked once, at construction, which checks it and keeps
    the vertex it ends at as `end`."""

    __slots__ = ("gog", "start", "parts", "end")

    def __init__(self, gog: GraphOfGroups, start: str, parts: Sequence):
        self.gog = gog
        self.start = start
        parts = tuple(parts)
        if len(parts) % 2 == 0:
            raise DomainError("Bass word must alternate g0 e1 g1 ... gn")
        slots, ends = gog.vertex_slots, gog._ends
        at = start
        for k, item in enumerate(parts):
            if k % 2 == 0:
                slot = slots[at]
                if not isinstance(item, SlotElement) or (item.slot is not slot and item.slot != slot):
                    raise DomainError(f"element at position {k} is not in G_{at}")
            else:
                step = ends.get(item)
                if step is None or step[0] != at:
                    raise DomainError(f"edge {item} does not start at {at}")
                at = step[1]
        self.parts = parts
        self.end = at

    def is_loop(self) -> bool:
        return self.start == self.end

    def edges(self) -> List[str]:
        return [item for k, item in enumerate(self.parts) if k % 2 == 1]

    def edge_crossings(self) -> Counter:
        """The signed crossing count of every edge, keyed by its canonical
        orientation: +1 per crossing along it, -1 per crossing against it."""
        counts: Counter = Counter()
        for k in range(1, len(self.parts), 2):
            crossed = self.parts[k]
            if crossed.endswith("~"):
                counts[crossed[:-1]] -= 1
            else:
                counts[crossed] += 1
        return counts

    def edge_exponent(self, edge: str) -> int:
        """Signed crossing count of the canonical orientation of `edge`."""
        return self.edge_crossings()[unoriented(edge)]

    def reduced(self) -> "BassWord":
        """Collapse e, i_e(h), e~ patterns eagerly left to right."""
        parts = list(self.parts)
        changed = True
        while changed:
            changed = False
            for k in range(1, len(parts) - 2, 2):
                e, g, e2 = parts[k], parts[k + 1], parts[k + 2]
                if e2 != bar(e):
                    continue
                h = hom_preimage(self.gog.injection(e), g)
                if h is None:
                    continue
                merged = parts[k - 1] * self.gog.injection(bar(e)).apply(h) * parts[k + 3]
                parts[k - 1 : k + 4] = [merged]
                changed = True
                break
        return BassWord(self.gog, self.start, parts)

    def __eq__(self, other):
        """Equality of the elements of pi_1: u == v exactly when u * v^-1
        reduces to the trivial vertex element, since a word that has an edge
        and admits no pinch e i_e(h) e~ is not trivial (Britton's lemma for
        graphs of groups: Serre, Trees, I.5.2, Thm 11)."""
        if not isinstance(other, BassWord):
            return False
        if self.start == other.start and self.parts == other.parts and self.gog == other.gog:
            return True
        if (self.start, self.end) != (other.start, other.end) or self.gog != other.gog:
            return False
        quotient = (self * other.inverse()).reduced().parts
        return len(quotient) == 1 and quotient[0].is_identity()

    def inverse(self) -> "BassWord":
        """gn^-1 en~ ... e1~ g0^-1, the path walked back."""
        parts = [item.inverse() if k % 2 == 0 else bar(item) for k, item in enumerate(self.parts)]
        return BassWord(self.gog, self.end, reversed(parts))

    def __mul__(self, other: "BassWord") -> "BassWord":
        if self.end != other.start:
            raise DomainError("Bass words do not compose")
        merged = self.parts[-1] * other.parts[0]
        return BassWord(self.gog, self.start, self.parts[:-1] + (merged,) + other.parts[1:])

    def format(self) -> str:
        out = [self.start, ":"]
        for k, item in enumerate(self.parts):
            out.append(f"({item.format()})" if k % 2 == 0 else item)
        return " ".join(out)

    @staticmethod
    def parse(gog: GraphOfGroups, text: str) -> "BassWord":
        head, _, body = text.partition(":")
        start = head.strip()
        if start not in gog.vertex_slots:
            raise FormatError(f"unknown start vertex {start!r}")
        parts = []
        at = start
        expect_elem = True
        # a bracketed element, up to the first `)`, or an edge name
        for elem, value in re.findall(r"\(([^)]*)\)|(\S+)", body):
            if value.startswith("("):
                raise FormatError(f"unclosed bracket in {text.strip()!r}")
            if expect_elem and value:
                parts.append(gog.vslot(at).identity())
                expect_elem = False
            if not value:
                parts.append(gog.vslot(at).parse(elem))
                expect_elem = False
            else:
                if value not in gog.injections:
                    raise FormatError(f"unknown edge {value!r}")
                parts.append(value)
                at = gog.term(value)
                expect_elem = True
        if expect_elem or not parts:
            parts.append(gog.vslot(at).identity())
        return BassWord(gog, start, parts)

    def __repr__(self):
        return f"<BassWord {self.format()}>"


# ---------------------------------------------------------------------------
# graph-of-groups morphisms


class BassDiagramError(DomainError):
    def __init__(self, edge: str, generator: SlotElement, lhs: SlotElement, rhs: SlotElement):
        self.edge = edge
        self.generator = generator
        super().__init__(
            f"Bass diagram fails at edge {edge} on generator {generator.format()}: "
            f"{lhs.format()} != {rhs.format()}"
        )


@dataclass(frozen=True)
class GoGMorphism:
    """(phi_X, (phi_v), (phi_e), (gamma_e)) between graphs of groups;
    `validate` checks its Bass diagram."""

    domain: GraphOfGroups
    codomain: GraphOfGroups
    vertex_map: Dict[str, str]
    edge_map: Dict[str, str]  # oriented, bar-equivariant
    vertex_isos: Dict[str, SlotIso]
    edge_isos: Dict[str, SlotIso]  # per unoriented edge
    gammas: Dict[str, SlotElement]  # per oriented edge, in G_{phi(t(e))}


def validate(m: GoGMorphism) -> GoGMorphism:
    """Check the Bass diagram of `m` from its domain to its codomain on
    every oriented edge and generator, and return `m`.

    Raises BassDiagramError naming the first violated edge and generator.
    """
    gog, codomain, vertex_map, edge_map = m.domain, m.codomain, m.vertex_map, m.edge_map
    vertex_isos, edge_isos, gammas = m.vertex_isos, m.edge_isos, m.gammas
    _check_graph_map(gog, codomain, vertex_map, edge_map)
    keys = (set(vertex_isos), set(edge_isos), set(gammas))
    if keys != (set(gog.vertices), set(gog.edge_names), set(gog.oriented_edges())):
        raise DomainError("vertex iso, edge iso or gamma keys mismatch")
    for v in gog.vertices:
        iso = vertex_isos[v]
        if iso.src != gog.vslot(v) or iso.dst != codomain.vslot(vertex_map[v]):
            raise DomainError(f"vertex iso at {v} has wrong slots")
    for e in gog.edge_names:
        iso = edge_isos[e]
        if iso.src != gog.eslot(e) or iso.dst != codomain.eslot(edge_map[e]):
            raise DomainError(f"edge iso at {e} has wrong slots")
    for oe in gog.oriented_edges():
        gamma = gammas[oe]
        target_vertex = codomain.term(edge_map[oe])
        if gamma.slot != codomain.vslot(target_vertex):
            raise DomainError(f"gamma at {oe} lives in the wrong vertex group")
        phi_t = vertex_isos[gog.term(oe)]
        phi_e = edge_isos[unoriented(oe)]
        inj_img = codomain.injection(edge_map[oe])
        # i_e'(phi_e(g)) for each generator g; an identity phi_e keeps them
        if phi_e.is_identity():
            moved = inj_img.images
        else:
            moved = tuple(inj_img.apply(x) for x in phi_e.images)
        for i, (image, target) in enumerate(zip(gog.injection(oe).images, moved)):
            lhs = phi_t.apply(image)
            rhs = target.conjugate(gamma)
            if lhs != rhs:
                raise BassDiagramError(oe, gog.eslot(oe).generator(i), lhs, rhs)
    return m


def _check_graph_map(gog, codomain, vertex_map, edge_map):
    if sorted(vertex_map) != list(gog.vertices):
        raise DomainError("vertex map keys mismatch")
    if sorted(vertex_map.values()) != list(codomain.vertices):
        raise DomainError("vertex map is not a bijection")
    oriented = set(gog.oriented_edges())
    if set(edge_map) != oriented:
        raise DomainError("edge map keys mismatch")
    if sorted(set(edge_map.values())) != sorted(codomain.oriented_edges()):
        raise DomainError("edge map is not a bijection")
    for oe in oriented:
        if edge_map[bar(oe)] != bar(edge_map[oe]):
            raise DomainError(f"edge map is not bar-equivariant at {oe}")
        if codomain.init(edge_map[oe]) != vertex_map[gog.init(oe)]:
            raise DomainError(f"edge map breaks incidence at {oe}")


def identity_morphism(gog: GraphOfGroups) -> GoGMorphism:
    return validate(
        GoGMorphism(
            gog,
            gog,
            {v: v for v in gog.vertices},
            {e: e for e in gog.oriented_edges()},
            {v: SlotIso.identity(gog.vslot(v)) for v in gog.vertices},
            {e: SlotIso.identity(gog.eslot(e)) for e in gog.edge_names},
            {e: gog.vslot(gog.term(e)).identity() for e in gog.oriented_edges()},
        )
    )


def compose(a: GoGMorphism, b: GoGMorphism) -> GoGMorphism:
    """a after b; b's codomain must be a's domain.  Revalidated on output."""
    if b.codomain != a.domain:
        raise DomainError("morphism domains do not chain")
    vertex_map = {v: a.vertex_map[b.vertex_map[v]] for v in b.domain.vertices}
    edge_map = {e: a.edge_map[b.edge_map[e]] for e in b.domain.oriented_edges()}
    vertex_isos = {
        v: a.vertex_isos[b.vertex_map[v]].compose(b.vertex_isos[v]) for v in b.domain.vertices
    }
    edge_isos = {
        e: a.edge_isos[unoriented(b.edge_map[e])].compose(b.edge_isos[e])
        for e in b.domain.edge_names
    }
    gammas = {}
    for e in b.domain.oriented_edges():
        relocated = b.edge_map[e]
        gammas[e] = a.vertex_isos[b.codomain.term(relocated)].apply(b.gammas[e]) * a.gammas[relocated]
    return validate(GoGMorphism(b.domain, a.codomain, vertex_map, edge_map, vertex_isos, edge_isos, gammas))


def invert(a: GoGMorphism) -> GoGMorphism:
    inv_vmap = {w: v for v, w in a.vertex_map.items()}
    inv_emap = {f: e for e, f in a.edge_map.items()}
    vertex_isos = {w: a.vertex_isos[inv_vmap[w]].inverse() for w in a.codomain.vertices}
    edge_isos = {
        f: a.edge_isos[unoriented(inv_emap[f])].inverse() for f in a.codomain.edge_names
    }
    gammas = {}
    for f in a.codomain.oriented_edges():
        e = inv_emap[f]
        gammas[f] = a.vertex_isos[a.domain.term(e)].inverse().apply(a.gammas[e].inverse())
    return validate(GoGMorphism(a.codomain, a.domain, inv_vmap, inv_emap, vertex_isos, edge_isos, gammas))


def induced_on_pi1(a: GoGMorphism, w: BassWord) -> BassWord:
    """Image loop: e -> gamma_{e~}^-1 phi_X(e) gamma_e, g -> phi_v(g)."""
    if not w.is_loop():
        raise DomainError("induced map needs a loop")
    if w.gog != a.domain:
        raise DomainError("loop lives in a different graph of groups")
    at = w.start
    out_parts: List = []
    current = a.vertex_isos[at].apply(w.parts[0])
    for k in range(1, len(w.parts), 2):
        e = w.parts[k]
        g_next = w.parts[k + 1]
        current = current * a.gammas[bar(e)].inverse()
        out_parts.append(current)
        out_parts.append(a.edge_map[e])
        at = w.gog.term(e)
        current = a.gammas[e] * a.vertex_isos[at].apply(g_next)
    out_parts.append(current)
    return BassWord(a.codomain, a.vertex_map[w.start], out_parts)


# ---------------------------------------------------------------------------
# Dehn twists


@dataclass(frozen=True)
class DehnTwist:
    """The twist along the oriented edge `edge` by z in G_{t(edge)}:
    (Id_X, (Id_v), (Id_e), (gamma_e)) with gamma_edge == z and every other
    gamma trivial.  The Bass diagram holds iff z centralizes i_edge(G_edge),
    the only condition checked here; it runs for every twist, those of
    `small_modular_generators` included, and a twist built from outside is
    checked the same way.  At Z and Z^2 vertices the check costs no word
    work (`SlotElement.conjugate`), and a twist by a central element or by
    the identity conjugates nothing either."""

    gog: GraphOfGroups
    edge: str
    z: SlotElement

    def __post_init__(self):
        for y in self.gog.injection(self.edge).images:
            if y.conjugate(self.z) != y:
                raise DomainError(f"twist element fails to centralize at {self.edge}")

    def to_morphism(self) -> GoGMorphism:
        ident = identity_morphism(self.gog)
        return validate(replace(ident, gammas={**ident.gammas, self.edge: self.z}))


def small_modular_generators(gog: GraphOfGroups) -> List[DehnTwist]:
    """One Dehn twist per oriented edge per centralizer generator."""
    out = []
    for e in sorted(gog.oriented_edges()):
        v = gog.term(e)
        for z in slot_centralizer_of_subgroup(gog.vslot(v), gog.injection(e).images):
            out.append(DehnTwist(gog, e, z))
    return out


# ---------------------------------------------------------------------------
# file format


def serialize_gog(gog: GraphOfGroups) -> str:
    lines = ["[vertices]"]
    for v in gog.vertices:
        slot = gog.vslot(v)
        lines.append(f"{v}: {slot.kind} {slot.free_rank}")
    lines.append("[edges]")
    for e in gog.edge_names:
        u, v = gog.edge_ends[e]
        slot = gog.eslot(e)
        lines.append(f"{e}: {u} --> {v} ({slot.kind} {slot.free_rank})")
    lines.append("[injections]")
    for e in gog.edge_names:
        for oe in (e, bar(e)):
            hom = gog.injection(oe)
            names = gog.eslot(e).gen_names()
            for name, img in zip(names, hom.images):
                lines.append(f"{oe}: {name} -> {img.format()}")
    return "\n".join(lines) + "\n"


def _parse_slot_kind(text: str) -> GroupSlot:
    """`kind` or `kind rank`, as in `Z`, `Z2 1` or `fxz 2`."""
    parts = text.split()
    if not 1 <= len(parts) <= 2:
        raise FormatError(f"bad slot kind {text.strip()!r}")
    rank = parse_int(parts[1], "slot rank") if len(parts) > 1 else 1
    return GroupSlot.from_kind(parts[0], rank)


def section_lines(text: str) -> List[Tuple[Optional[str], str]]:
    """The lines of a sectioned text, in order, without comments, blank
    lines and headers, each with its lowercased section name (None before
    the first `[section]` header)."""
    out: List[Tuple[Optional[str], str]] = []
    section = None
    for line in text.splitlines():
        if "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if not line:
            continue
        if line[0] == "[":
            section = line.strip("[]").lower()
        else:
            out.append((section, line))
    return out


def parse_gog(text: str) -> GraphOfGroups:
    """Parse the sectioned graph-of-groups format; see serialize_gog."""
    return gog_from_lines(section_lines(text))


def gog_from_lines(lines: Sequence[Tuple[Optional[str], str]]) -> GraphOfGroups:
    """The graph of groups of the `section_lines` of a text: its
    [vertices], [edges] and [injections] lines.  Lines of other sections
    belong to embedding formats and are skipped; a line before any section
    is an error, and so is an injection line of an unknown oriented edge or
    of a generator its edge group lacks."""
    vertex_slots: Dict[str, GroupSlot] = {}
    edge_ends: Dict[str, Tuple[str, str]] = {}
    edge_slots: Dict[str, GroupSlot] = {}
    # oriented edge -> generator name -> (image text, line)
    raw_injections: Dict[str, Dict[str, Tuple[str, str]]] = {}
    # slot kinds and injections met so far in this text: the same few recur
    # on every block, and slots and their homomorphisms are immutable
    kinds: Dict[str, GroupSlot] = {}
    homs: Dict[tuple, SlotHom] = {}

    def kind(text: str) -> GroupSlot:
        if text not in kinds:
            kinds[text] = _parse_slot_kind(text)
        return kinds[text]

    for section, line in lines:
        if section == "injections":
            edge, _, rest = line.partition(":")
            gen, _, image = rest.partition("->")
            raw_injections.setdefault(edge.strip(), {})[gen.strip()] = (image.strip(), line)
        elif section == "edges":
            name, _, rest = line.partition(":")
            name = name.strip()
            head, _, slot_text = rest.partition("(")
            u, _, v = head.partition("-->")
            edge_ends[name] = (u.strip().rstrip("-").strip(), v.strip())
            edge_slots[name] = kind(slot_text.rstrip(")") if slot_text else "z")
        elif section == "vertices":
            name, _, kind_text = line.partition(":")
            vertex_slots[name.strip()] = kind(kind_text)
        elif section is None:
            raise FormatError(f"line outside a known section: {line!r}")
    injections: Dict[str, SlotHom] = {}
    for e, (u, v) in edge_ends.items():
        for end in (u, v):
            if end not in vertex_slots:
                raise FormatError(f"edge {e} names undeclared vertex {end!r}")
        eslot = edge_slots[e]
        names = eslot._gen_names
        for oe, target in ((e, v), (bar(e), u)):
            table = raw_injections.get(oe)
            if table is None:
                raise FormatError(f"missing [injections] for {oe}")
            dst = vertex_slots[target]
            key = (eslot, dst, tuple([table[name][0] if name in table else None for name in names]))
            hom = homs.get(key)
            if hom is None:
                images = []
                for name, text in zip(names, key[2]):
                    if text is None:
                        raise FormatError(f"injection {oe} misses generator {name}")
                    images.append(dst.parse(text))
            if len(table) != len(names):
                line = next(line for gen, (_, line) in table.items() if gen not in names)
                raise FormatError(f"injection line {line!r}: edge {e} has no generator of that name")
            if hom is None:
                hom = homs[key] = SlotHom(eslot, dst, tuple(images))
            injections[oe] = hom
    for oe, table in raw_injections.items():
        if oe not in injections:
            line = next(iter(table.values()))[1]
            raise FormatError(f"injection line {line!r} names unknown edge {oe!r}")
    return GraphOfGroups(
        sorted(vertex_slots), edge_ends, vertex_slots, edge_slots, injections
    )
