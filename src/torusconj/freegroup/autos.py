"""Automorphisms of free groups, built and inverted by labeled folding.

``is_automorphism`` folds the wedge of the candidate images while each
petal's first edge carries its abstract generator as a label.  A fold that
would drop the graph's first Betti number proves the images are not a
basis; otherwise the final rose reads off the inverse images directly.
The Nielsen generators are the exception: each is written down with its
inverse from its definition, and nothing is folded.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import DomainError
from .stallings import _Folder, _inverse
from .words import FreeGroup, Letter, Word, canonical_conjugate, reduce_letters


class FreeAut:
    """An automorphism of a free group, with its inverse precomputed."""

    __slots__ = ("group", "images", "inverse_images", "_hash")

    def __init__(self, group: FreeGroup, images, inverse_images):
        self.group = group
        self.images = tuple(images)
        self.inverse_images = tuple(inverse_images)
        self._hash = None

    @classmethod
    def identity(cls, group: FreeGroup) -> "FreeAut":
        gens = group.generators()
        return cls(group, gens, gens)

    def apply(self, w: Word) -> Word:
        letters: list[Letter] = []
        images = self.images
        for i, s in w.letters:
            if s > 0:
                letters.extend(images[i].letters)
            else:
                letters.extend((j, -t) for j, t in reversed(images[i].letters))
        return Word(self.group, reduce_letters(letters))

    def inverse(self) -> "FreeAut":
        return FreeAut(self.group, self.inverse_images, self.images)

    def __mul__(self, other: "FreeAut") -> "FreeAut":
        """Composition: (self * other)(w) == self(other(w))."""
        if self.group != other.group:
            raise DomainError("automorphisms of different groups")
        images = [self.apply(img) for img in other.images]
        inv_images = [other.inverse().apply(img) for img in self.inverse_images]
        return FreeAut(self.group, images, inv_images)

    def __pow__(self, n: int) -> "FreeAut":
        if n < 0:
            return self.inverse() ** (-n)
        result = FreeAut.identity(self.group)
        for _ in range(n):
            result = self * result
        return result

    def is_identity(self) -> bool:
        return all(img == self.group.generator(i) for i, img in enumerate(self.images))

    def __eq__(self, other):
        return (
            isinstance(other, FreeAut)
            and self.group == other.group
            and self.images == other.images
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.group._hash, tuple(w.letters for w in self.images)))
        return self._hash

    def __repr__(self):
        parts = ", ".join(
            f"{self.group.names[i]} -> {img.format()}" for i, img in enumerate(self.images)
        )
        return f"FreeAut({parts})"

    def abelianized(self) -> list[list[int]]:
        return abelianization(self.images)


def abelianization(images: Sequence[Word]) -> list[list[int]]:
    """Column i is the exponent vector of images[i], the image of generator i."""
    n = len(images)
    mat = [[0] * n for _ in range(n)]
    for i, img in enumerate(images):
        for j, s in img.letters:
            mat[j][i] += s
    return mat


def is_automorphism(group: FreeGroup, images: Sequence[Word]) -> Optional[FreeAut]:
    """Return the automorphism with the given generator images, or None.

    A surjective endomorphism of a finite-rank free group is an automorphism,
    so only generation is checked.  When the images do not generate, the
    folded graph of the image subgroup (via ``stallings.fold``) is the
    rejection certificate.
    """
    # a word of this group is reduced and in range already; other input is checked
    images = [
        w if isinstance(w, Word) and w.group == group
        else group.word(w.letters if isinstance(w, Word) else w)
        for w in images
    ]
    if len(images) != group.rank:
        raise DomainError(f"need {group.rank} images, got {len(images)}")
    folder = _Folder(group.rank)
    for j, image in enumerate(images):
        folder.add_petal(image, ((j, 1),))
    if folder.rank_drop:
        return None
    table = folder.transitions()
    if len(table) != group.rank or any(u or v for (u, _), (v, _) in table.items()):
        return None
    exprs = [Word(group, table[(0, i)][1]) for i in range(group.rank)]
    aut = FreeAut(group, images, exprs)
    for i in range(group.rank):
        if aut.apply(exprs[i]) != group.generator(i):
            raise AssertionError("labeled folding produced a bad inverse")
    return aut


class BasisExpresser:
    """Constructive membership for a subgroup given by a free basis.

    The basis words must freely generate (rank-preserving folding); this is
    verified at construction.
    """

    def __init__(self, group: FreeGroup, basis: Sequence[Word]):
        if not basis:
            raise DomainError("empty basis")
        self.group = group
        self.symbols = FreeGroup(len(basis))
        folder = _Folder(group.rank)
        for j, image in enumerate(basis):
            if image.group != group:
                raise DomainError("basis words from the wrong group")
            folder.add_petal(image, ((j, 1),))
        if folder.rank_drop:
            raise DomainError("basis words do not freely generate")
        # deterministic transition maps of the folded graph, with expressions
        self.fwd = folder.transitions()
        self.bwd = {(v, i): (u, _inverse(expr)) for (u, i), (v, expr) in self.fwd.items()}

    def express(self, w: Word) -> Optional[Word]:
        """Express w in the basis symbols, or None if w is not in the subgroup."""
        state = 0
        parts: list[Letter] = []
        for i, s in w.letters:
            table = self.fwd if s > 0 else self.bwd
            hop = table.get((state, i))
            if hop is None:
                return None
            state, expr = hop
            parts.extend(expr)
        if state != 0:
            return None
        return Word(self.symbols, reduce_letters(parts))


def nielsen_generators(group: FreeGroup) -> list[FreeAut]:
    """A standard generating set of the automorphism group, each written
    down with its inverse: the shift's inverse shifts the other way, the
    swap and the inversion are their own inverses, and x0 -> x0 x1 is
    undone by x0 -> x0 x1^-1."""
    gens = group.generators()
    inverted = [gens[0].inverse()] + gens[1:]
    if group.rank == 1:
        return [FreeAut(group, inverted, inverted)]
    swap = [gens[1], gens[0]] + gens[2:]
    return [
        FreeAut(group, gens[1:] + gens[:1], gens[-1:] + gens[:-1]),
        FreeAut(group, swap, swap),
        FreeAut(group, inverted, inverted),
        FreeAut(group, [gens[0] * gens[1]] + gens[1:], [gens[0] * gens[1].inverse()] + gens[1:]),
    ]


def inner_conjugator(aut: FreeAut) -> Optional[Word]:
    """The g with aut == ad_g (x -> g^-1 x g), or None if aut is not inner.

    Exact.  x0 is its own canonical conjugate, so aut(x0) is conjugate to
    x0 exactly when its canonical conjugate g^-1 aut(x0) g is x0, and then
    w == g^-1 has w^-1 x0 w == aut(x0).  For rank >= 2 the centralizer of
    x0 is <x0>, so the conjugator is x0^k w for some k.  Then
    w aut(x1) w^-1 must be the reduced word x0^-k x1 x0^k, whose leading
    x0-run gives k; the one candidate is verified on every generator.
    """
    group = aut.group
    if group.rank == 1:
        return group.identity() if aut.is_identity() else None
    x0 = group.generator(0)
    (core,), g = canonical_conjugate([aut.images[0]])
    if core != x0:
        return None
    witness = g.inverse()
    k = 0
    for i, s in (witness * aut.images[1] * witness.inverse()).letters:
        if i != 0:
            break
        k -= s
    g = (x0 ** k) * witness
    if all(aut.images[i] == group.generator(i).conjugate(g) for i in range(group.rank)):
        return g
    return None

