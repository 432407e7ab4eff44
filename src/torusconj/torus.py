"""Mapping tori F x| <t> as computational objects.

Elements carry the normal form t^k * w with the stable power on the left, so
the orientation degree is a field read and multiplication needs a single
monodromy power:  t^k w * t^m v  ==  t^(k+m) alpha^m(w) v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DomainError, FormatError, Undecided
from .freegroup import (
    FreeAut,
    FreeGroup,
    SubgroupGraph,
    Word,
    fold,
    inner_conjugator,
    is_automorphism,
)

KMAX_DEFAULT = 12


class MappingTorus:
    """F x|_alpha <t> with the defining relation t^-1 a t == alpha(a)."""

    __slots__ = ("fiber", "monodromy", "stable_name")

    def __init__(self, fiber: FreeGroup, monodromy: FreeAut, stable_name: str = "t"):
        if monodromy.group != fiber:
            raise DomainError("monodromy is not an automorphism of the fiber")
        if stable_name in fiber.names:
            raise DomainError(f"stable letter {stable_name!r} clashes with a fiber generator")
        self.fiber = fiber
        self.monodromy = monodromy
        self.stable_name = stable_name

    def __eq__(self, other):
        return (
            isinstance(other, MappingTorus)
            and self.fiber == other.fiber
            and self.monodromy == other.monodromy
            and self.stable_name == other.stable_name
        )

    def __repr__(self):
        return f"MappingTorus({self.fiber!r}, {self.monodromy!r})"

    def element(self, power: int, tail: Word) -> "TorusElement":
        if tail.group != self.fiber:
            raise DomainError("tail word is not in the fiber group")
        return TorusElement(self, power, tail)

    def identity(self) -> "TorusElement":
        return self.element(0, self.fiber.identity())

    def stable(self) -> "TorusElement":
        return self.element(1, self.fiber.identity())

    def embed(self, w: Word) -> "TorusElement":
        return self.element(0, w)

    def parse_element(self, text: str) -> "TorusElement":
        """Parse `t^k * w`, `t^k`, or a bare fiber word."""
        text = text.strip()
        power = 0
        rest = text
        if text.startswith(self.stable_name):
            head, _, tail_text = text.partition("*")
            head = head.strip()
            body = head[len(self.stable_name):]
            if body.startswith("^"):
                power = int(body[1:])
            elif body == "":
                power = 1
            else:
                raise FormatError(f"bad stable-letter token {head!r}")
            rest = tail_text
        return self.element(power, self.fiber.parse(rest))


class TorusElement:
    """Normal form t^power * tail."""

    __slots__ = ("torus", "power", "tail")

    def __init__(self, torus: MappingTorus, power: int, tail: Word):
        self.torus = torus
        self.power = power
        self.tail = tail

    def __eq__(self, other):
        return (
            isinstance(other, TorusElement)
            and self.torus == other.torus
            and self.power == other.power
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.power, self.tail))

    def __repr__(self):
        return f"<{self.format()}>"

    def format(self) -> str:
        t = self.torus.stable_name
        if self.power == 0:
            return self.tail.format()
        head = t if self.power == 1 else f"{t}^{self.power}"
        if self.tail.is_identity():
            return head
        return f"{head} * {self.tail.format()}"

    def is_identity(self) -> bool:
        return self.power == 0 and self.tail.is_identity()


def _monodromy_power(torus: MappingTorus, w: Word, m: int) -> Word:
    aut = torus.monodromy if m >= 0 else torus.monodromy.inverse()
    for _ in range(abs(m)):
        w = aut.apply(w)
    return w


def multiply(x: TorusElement, y: TorusElement) -> TorusElement:
    """t^k w * t^m v == t^(k+m) alpha^m(w) v."""
    if x.torus != y.torus:
        raise DomainError("elements of different tori")
    tail = _monodromy_power(x.torus, x.tail, y.power) * y.tail
    return TorusElement(x.torus, x.power + y.power, tail)


def inverse(x: TorusElement) -> TorusElement:
    tail = _monodromy_power(x.torus, x.tail.inverse(), -x.power)
    return TorusElement(x.torus, -x.power, tail)


def conjugate(x: TorusElement, g: TorusElement) -> TorusElement:
    return multiply(multiply(inverse(g), x), g)


def orientation_degree(x: TorusElement) -> int:
    """The t-exponent: 0 on the fiber, 1 on the positive orientation coset."""
    return x.power


@dataclass(frozen=True)
class SubMappingTorus:
    """<H, t^k a^-1> for the least k with alpha^k(H) == a^-1 H a.

    The relation uses the conjugation convention ad_a(x) == a^-1 x a; the
    stable generator t^k a^-1 then normalizes H.
    """

    torus: MappingTorus
    base: SubgroupGraph
    period: int
    corrector: Word
    generators: Tuple[TorusElement, ...]


def _unbased_isomorphism_conjugators(g1: SubgroupGraph, g2: SubgroupGraph) -> List[Word]:
    """All a with a * H1 * a^-1 == H2, from label isomorphisms of cyclic cores.

    Both graphs must present nontrivial subgroups.  The cyclic core is the
    folded graph minus its base tail; H2 == a H1 a^-1 exactly when the cores
    are label-isomorphic, and every isomorphism yields a conjugator.
    """
    group = g1.group

    def tail_and_core(g: SubgroupGraph):
        # peel the base tail: repeatedly drop degree-1 states (base included)
        alive = [True] * g.nstates
        tail_word = group.identity()
        state = g.base
        while True:
            exits = [
                (i, sign)
                for i in range(group.rank)
                for sign in (1, -1)
                if g.step(state, (i, sign)) is not None and alive[g.step(state, (i, sign))]
            ]
            if len(exits) != 1:
                break
            nxt = g.step(state, exits[0])
            if nxt == state:
                break
            alive[state] = False
            tail_word = tail_word * group.word([exits[0]])
            state = nxt
        return tail_word, state, alive

    t1, u1, alive1 = tail_and_core(g1)
    t2, u2, alive2 = tail_and_core(g2)

    if sum(alive1) != sum(alive2):
        return []

    conjugators = []
    core2_states = [s for s in range(g2.nstates) if alive2[s]]
    for image in core2_states:
        # a deterministic labeled graph map is fixed by one vertex image
        mapping = {u1: image}
        queue = [u1]
        ok = True
        while queue and ok:
            s = queue.pop()
            for i in range(group.rank):
                for sign in (1, -1):
                    t = g1.step(s, (i, sign))
                    if t is None or not alive1[t]:
                        continue
                    t_img = g2.step(mapping[s], (i, sign))
                    if t_img is None or not alive2[t_img]:
                        ok = False
                        break
                    if t in mapping:
                        if mapping[t] != t_img:
                            ok = False
                            break
                    else:
                        mapping[t] = t_img
                        queue.append(t)
                if not ok:
                    break
        if not ok or len(mapping) != sum(alive1):
            continue
        # check every core edge of g2 is hit (bijectivity on edges)
        if len(set(mapping.values())) != sum(alive2):
            continue
        # path from g2's base to the image of u1, inside g2
        path = _path_word(g2, g2.base, image)
        if path is None:
            continue
        conjugators.append(path * t1.inverse())
    return conjugators


def _path_word(g: SubgroupGraph, src: int, dst: int) -> Optional[Word]:
    group = g.group
    prev: dict[int, tuple[int, tuple]] = {src: None}  # type: ignore[assignment]
    queue = [src]
    while queue:
        s = queue.pop(0)
        if s == dst:
            letters = []
            cur = s
            while prev[cur] is not None:
                parent, letter = prev[cur]
                letters.append(letter)
                cur = parent
            return group.word(tuple(reversed(letters)))
        for i in range(group.rank):
            for sign in (1, -1):
                t = g.step(s, (i, sign))
                if t is not None and t not in prev:
                    prev[t] = (s, (i, sign))
                    queue.append(t)
    return None


def subgroup_conjugator(h1: SubgroupGraph, h2: SubgroupGraph) -> Optional[Word]:
    """Some a with a H1 a^-1 == H2, or None if the subgroups are not conjugate."""
    if h1.group != h2.group:
        raise DomainError("graphs over different groups")
    if h1.nstates == 1 and h1.rank() == 0:
        return h1.group.identity() if h2.rank() == 0 else None
    if h2.nstates == 1 and h2.rank() == 0:
        return None
    found = _unbased_isomorphism_conjugators(h1, h2)
    if not found:
        return None
    return min(found, key=lambda w: w.key())


def sub_mapping_torus(torus: MappingTorus, h: SubgroupGraph, kmax: int = KMAX_DEFAULT):
    """Search k <= kmax and a with alpha^k(H) == a^-1 H a; Undecided past the bound."""
    if h.group != torus.fiber:
        raise DomainError("subgroup graph over a different group")
    gens = h.generators()
    if not gens:
        return SubMappingTorus(
            torus, h, 1, torus.fiber.identity(), (torus.stable(),)
        )
    current = list(gens)
    for k in range(1, kmax + 1):
        current = [torus.monodromy.apply(g) for g in current]
        image = fold(torus.fiber, current)
        a = subgroup_conjugator(image, h)
        if a is None:
            continue
        # verify alpha^k(H) == a^-1 H a on generators
        conj_graph = fold(torus.fiber, [g.conjugate(a) for g in gens])
        if conj_graph != image:
            continue
        stable_gen = TorusElement(torus, k, a.inverse())
        # the stable generator must normalize H: (t^k a^-1)^-1 h (t^k a^-1) in H
        for g in gens:
            moved = multiply(multiply(inverse(stable_gen), torus.embed(g)), stable_gen)
            if moved.power != 0 or not h.membership(moved.tail):
                raise AssertionError("sub-mapping torus closure check failed")
        elements = tuple(torus.embed(g) for g in gens) + (stable_gen,)
        return SubMappingTorus(torus, h, k, a, elements)
    return Undecided(f"no conjugating power found with k <= {kmax}")


@dataclass(frozen=True)
class ProductForm:
    """Splitting T == H x <center> for inner-or-identity monodromy."""

    torus: MappingTorus
    free_rank: int
    center: TorusElement


def product_form(torus: MappingTorus) -> Optional[ProductForm]:
    """Recognize T == F x Z when the monodromy is inner (or identity).

    With alpha == ad_gamma the element t * gamma^-1 is central and generates
    the complementing factor.  Recognition is the exact inner-automorphism
    test; None means the monodromy is not inner.
    """
    gamma = inner_conjugator(torus.monodromy)
    if gamma is None:
        return None
    center = torus.element(1, gamma.inverse())
    for i in range(torus.fiber.rank):
        gen = torus.embed(torus.fiber.generator(i))
        if multiply(center, gen) != multiply(gen, center):
            raise AssertionError("claimed center fails to commute")
    return ProductForm(torus, torus.fiber.rank, center)


def fop_isomorphic_classC(t1: MappingTorus, t2: MappingTorus) -> bool:
    """Fiber-and-orientation isomorphy inside the product class: rank equality."""
    p1, p2 = product_form(t1), product_form(t2)
    if p1 is None or p2 is None:
        raise DomainError("input torus is not in the recognized product class")
    return p1.free_rank == p2.free_rank


def parse_torus(text: str, stable_name: str = "t"):
    """Torus description: `fiber rank: n`, `monodromy: a -> w, ...`, optional conjugator."""
    rank_text = None
    images_text = None
    conjugator_text = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key == "fiber rank":
            rank_text = value
        elif key == "monodromy":
            images_text = value.strip()
        elif key == "conjugator":
            conjugator_text = value.strip()
        else:
            raise FormatError(f"unknown torus header {key!r}")
    aut = parse_monodromy(rank_text, images_text)
    torus = MappingTorus(aut.group, aut, stable_name)
    conjugator = aut.group.parse(conjugator_text) if conjugator_text else None
    return torus, conjugator


def parse_monodromy(rank_text: Optional[str], images_text: Optional[str]) -> FreeAut:
    """The automorphism of `fiber rank: n` / `monodromy: a -> w, ...`
    header values; every generator gets exactly one image."""
    if rank_text is None or images_text is None:
        raise FormatError("needs `fiber rank:` and `monodromy:`")
    try:
        rank = int(rank_text)
    except ValueError as exc:
        raise FormatError(f"bad fiber rank {rank_text.strip()!r}") from exc
    fiber = FreeGroup(rank)
    images = {}
    for part in images_text.split(","):
        name, _, image = part.partition("->")
        name = name.strip()
        if name not in fiber.names:
            raise FormatError(f"monodromy names unknown generator {name!r}")
        if name in images:
            raise FormatError(f"monodromy gives {name!r} twice")
        images[name] = fiber.parse(image)
    try:
        image_list = [images[name] for name in fiber.names]
    except KeyError as exc:
        raise FormatError(f"monodromy misses generator {exc.args[0]!r}") from exc
    aut = is_automorphism(fiber, image_list)
    if aut is None:
        raise FormatError("monodromy images do not define an automorphism")
    return aut
