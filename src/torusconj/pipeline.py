"""Decision pipeline: consume JSJ-shaped inputs and white-vertex candidate
lists, assemble graph-of-groups isomorphisms via black-vertex orbit matching,
and settle the fiber with the integer correction system.

White lists are inputs, not computed; a negative verdict is therefore sound
relative to the completeness of the supplied lists, and the verdict
vocabulary keeps "no vertexwise isomorphism" and "vertexwise but fiber
fails" apart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, FormatError, Undecided, parse_int
from .fibercorrect import (
    OrientationFunctional,
    build_system,
    solve,
    solve_linear_system,
    solve_with_nullspace,
    twist_coefficients,
)
from .freegroup import FreeAut, FreeGroup, Word, canonical_conjugate, fold, is_conjugate
from .gog import (
    BassWord,
    DehnTwist,
    GoGMorphism,
    GraphOfGroups,
    GroupSlot,
    SlotElement,
    SlotHom,
    SlotIso,
    bar,
    graph_isomorphisms,
    hom_preimage,
    induced_on_pi1,
    parse_gog,
    serialize_gog,
    small_modular_generators,
    unoriented,
    validate,
)
from .whitehead import ProductGroup, ProductMarking, mwp_product

MAX_EDGES_DEFAULT = 12


# ---------------------------------------------------------------------------
# input bundles


@dataclass(frozen=True)
class JSJInput:
    gog: GraphOfGroups
    colors: Dict[str, str]  # vertex -> "white" | "black"
    orientation: OrientationFunctional
    fiber_loops: Tuple[Tuple[str, BassWord], ...]
    stable_loop: Optional[BassWord] = None
    peripheral: Dict[str, Dict[str, Tuple[str, ...]]] = field(default_factory=dict)

    def __post_init__(self):
        for v in self.gog.vertices:
            if self.colors.get(v) not in ("white", "black"):
                raise DomainError(f"vertex {v} needs a white/black color")
        for e in self.gog.edge_names:
            u, v = self.gog.edge_ends[e]
            if self.colors[u] == self.colors[v]:
                raise DomainError(f"edge {e} breaks the bipartite coloring")
        for v in self.black_vertices():
            kind = self.gog.vslot(v).kind
            if kind == "free":
                raise DomainError(f"black vertex {v} must have an elementary kind")
            if kind == "fxz":
                # P x <c> with P in the fiber: c has nonzero degree d, and
                # the x_i c^(-o(x_i)/d) generate P
                *free, d = self.orientation.vertex_values[v]
                if d == 0 or any(a % d for a in free):
                    raise DomainError(
                        f"black vertex {v}: center degree {d} must be nonzero and divide every free degree"
                    )
        for name, loop in self.fiber_loops:
            if not loop.is_loop():
                raise DomainError(f"fiber generator {name} is not a loop")
            if self.orientation.of_loop(loop) != 0:
                raise DomainError(f"fiber generator {name} is not in the fiber")
        if self.stable_loop is not None:
            if self.orientation.of_loop(self.stable_loop) != 1:
                raise DomainError("stable loop must have orientation degree 1")
        for w, annot in self.peripheral.items():
            for e in annot.get("EZ", ()):
                if unoriented(e) not in self.gog.edge_ends:
                    raise FormatError(f"peripheral marking at {w} names unknown edge {e!r}")
                gen = self.gog.eslot(e).generators()[0]
                img = self.gog.injection(_white_end(self, e, w)).apply(gen)
                if self.orientation.of_element(w, img) <= 0:
                    raise DomainError(
                        f"EZ marking at {w} must carry the positive generator ({e})"
                    )

    def black_vertices(self) -> List[str]:
        return sorted(v for v in self.gog.vertices if self.colors[v] == "black")

    def white_vertices(self) -> List[str]:
        return sorted(v for v in self.gog.vertices if self.colors[v] == "white")


def _white_end(jsj: JSJInput, edge: str, w: str) -> str:
    for oe in (edge, bar(edge)):
        if jsj.gog.term(oe) == w:
            return oe
    raise DomainError(f"edge {edge} is not adjacent to {w}")


WhiteList = Dict[Tuple[str, str], List[SlotIso]]


@dataclass(frozen=True)
class Witness:
    morphism: GoGMorphism
    twists: Tuple[DehnTwist, ...]
    twist_vector: Tuple[int, ...]
    fiber_images: Tuple[Tuple[str, BassWord], ...]
    stable_image: Optional[BassWord] = None


@dataclass(frozen=True)
class Verdict:
    status: str  # isomorphic-fop | no-vertexwise-iso | vertexwise-but-fiber-fails | undecided
    witness: Optional[Witness] = None
    detail: str = ""


# ---------------------------------------------------------------------------
# subgroup conjugators inside slots


def edge_group_conjugator(
    slot: GroupSlot, source: Sequence[SlotElement], target: Sequence[SlotElement]
) -> Optional[SlotElement]:
    """d with ad_d(<source>) == <target>, for the supported edge kinds."""
    if list(source) == list(target):
        return slot.identity()
    if len(source) == 1 and len(target) == 1:
        s, t = source[0], target[0]
        for cand, flip in ((t, False), (t.inverse(), True)):
            if s.center != cand.center:
                continue
            ok, w = is_conjugate(s.word, cand.word)
            if ok:
                return SlotElement(slot, w, 0)
        return None
    # several generators: a simultaneous conjugator matching them one by one
    return slot_elementwise_conjugator(slot, source, target)


# ---------------------------------------------------------------------------
# black-vertex matching


@dataclass(frozen=True)
class BlackMatch:
    phi_b: SlotIso
    # per adjacent oriented edge (term == black): the gamma at the black end
    gammas_black: Dict[str, SlotElement]


@dataclass(frozen=True)
class EdgeTransport:
    """White-side data for one unoriented edge under the current graph map."""

    edge_iso: SlotIso
    gamma_white: SlotElement  # at the white end orientation
    target_images: Tuple[SlotElement, ...]  # i_{e'} of the transported edge gens


def _edge_transport(
    jsj_a: JSJInput,
    jsj_b: JSJInput,
    ew: str,
    ew2: str,
    phi_w: SlotIso,
) -> Optional[EdgeTransport]:
    """Transport the edge group of `ew` (oriented towards its white vertex)
    onto `ew2` through the white vertex candidate `phi_w`."""
    gog_a, gog_b = jsj_a.gog, jsj_b.gog
    inj_w = gog_a.injection(ew)
    inj_w2 = gog_b.injection(ew2)
    wslot2 = gog_b.vslot(gog_b.term(ew2))
    moved = [phi_w.apply(inj_w.apply(g)) for g in gog_a.eslot(ew).generators()]
    targets = [inj_w2.apply(g) for g in gog_b.eslot(ew2).generators()]
    d = edge_group_conjugator(wslot2, moved, targets)
    if d is None:
        return None
    edge_images = []
    for x in moved:
        pre = hom_preimage(inj_w2, x.conjugate(d))
        if pre is None:
            return None
        edge_images.append(pre)
    try:
        edge_iso = SlotIso(gog_a.eslot(ew), gog_b.eslot(ew2), tuple(edge_images))
    except DomainError:
        return None
    target_black = [gog_b.injection(bar(ew2)).apply(img) for img in edge_images]
    return EdgeTransport(edge_iso, d.inverse(), tuple(target_black))


def match_black(
    jsj_a: JSJInput,
    jsj_b: JSJInput,
    vmap: Dict[str, str],
    b: str,
    transports: Dict[str, EdgeTransport],
    memo: dict,
) -> Optional[BlackMatch]:
    """Decide the compounded-marking match at one black vertex: a
    fiber-and-orientation isomorphism G_b -> G_b' carrying each adjacent
    edge class to a conjugate of its transported image, with the conjugators
    as gammas.  `memo` (see `assemble`) keeps each black vertex's adjacent
    edges and their classes.
    """
    b2 = vmap[b]
    key = ("black classes", b)
    if key not in memo:
        gog_a = jsj_a.gog
        adjacent = tuple(sorted(oe for oe in gog_a.oriented_edges() if gog_a.term(oe) == b))
        memo[key] = adjacent, tuple(
            tuple(gog_a.injection(oe).apply(g) for g in gog_a.eslot(oe).generators())
            for oe in adjacent
        )
    adjacent, sources = memo[key]
    slot_b2 = jsj_b.gog.vslot(b2)
    targets = [transports[unoriented(oe)].target_images for oe in adjacent]
    o_a, o_b = jsj_a.orientation.vertex_values[b], jsj_b.orientation.vertex_values[b2]
    phi_b = match_black_slot(jsj_a.gog.vslot(b), o_a, slot_b2, o_b, sources, targets)
    if phi_b is None:
        return None
    gammas: Dict[str, SlotElement] = {}
    for oe, source, target in zip(adjacent, sources, targets):
        p = slot_elementwise_conjugator(slot_b2, tuple(phi_b.apply(x) for x in source), target)
        if p is None:
            return None
        gammas[oe] = p.inverse()
    return BlackMatch(phi_b, gammas)


def slot_elementwise_conjugator(slot, moved, target) -> Optional[SlotElement]:
    """p with ad_p(moved[i]) == target[i] for all i."""
    if tuple(moved) == tuple(target):
        return slot.identity()
    if any(x.center != y.center for x, y in zip(moved, target)):
        return None
    canon_m, gm = canonical_conjugate(tuple(x.word for x in moved))
    canon_t, gt = canonical_conjugate(tuple(x.word for x in target))
    if canon_m != canon_t:
        return None
    return SlotElement(slot, gm * gt.inverse(), 0)


def _degree(o: Sequence[int], x: SlotElement) -> int:
    return sum(v * d for v, d in zip(x.abelianized(), o))


def match_black_slot(slot_a, o_a, slot_b, o_b, sources, targets) -> Optional[SlotIso]:
    """A fiber-and-orientation isomorphism phi: slot_a -> slot_b (o_b . phi
    == o_a) carrying each source class to a simultaneous conjugate of its
    target class, or None.  Exact for each elementary kind:

    * Z: x0 -> x0^eps with eps * o_b == o_a, eps == 1 tried first;
    * Z^2: one linear problem over GL_2(Z), since classes are pointwise;
    * F_k x Z (with the degree condition `JSJInput` checks): in fiber
      coordinates G == P x <c>, where an element's center exponent is its
      degree over |o(c)|, phi is psi x id for psi in Aut(F_k), which is
      `mwp_product`.  Back in slot coordinates phi(x_i) == psi(x_i) c^l_i
      with l_i == (o_a(x_i) - o_b(psi(x_i))) / o_b(c), and
      phi(c) == c^(o_a(c) / o_b(c)).
    """
    if (slot_a.free_rank, slot_a.has_center) != (slot_b.free_rank, slot_b.has_center):
        return None
    kind = slot_a.kind
    if kind == "Z":
        # abelian and centerless: a class matches only its target itself
        x0 = slot_b.generator(0)
        for eps in (1, -1):
            if eps * o_b[0] != o_a[0]:
                continue
            phi = SlotIso(slot_a, slot_b, (x0 if eps == 1 else x0.inverse(),))
            if all(tuple(phi.apply(x) for x in src) == tuple(tgt) for src, tgt in zip(sources, targets)):
                return phi
        return None
    if kind == "Z2":
        vectors = [[x.abelianized() for cls in classes for x in cls] for classes in (sources, targets)]
        m = _gl2_solve(o_a, o_b, *vectors)
        return None if m is None else SlotIso.from_matrix(slot_a, slot_b, m)
    d_a, d_b = o_a[-1], o_b[-1]
    if abs(d_a) != abs(d_b):
        return None
    product = ProductGroup(slot_b.free_group)

    def fiber_marking(classes, o) -> ProductMarking:
        return ProductMarking.of(
            product, [tuple((x.word, _degree(o, x) // abs(d_a)) for x in cls) for cls in classes]
        )

    ok, psi = mwp_product(fiber_marking(sources, o_a), fiber_marking(targets, o_b))
    if not ok:
        return None
    images = []
    for i in range(slot_a.free_rank):
        image = SlotElement(slot_b, psi.apply(slot_b.free_group.generator(i)), 0)
        images.append(SlotElement(slot_b, image.word, (o_a[i] - _degree(o_b, image)) // d_b))
    images.append(SlotElement(slot_b, slot_b.free_group.identity(), d_a // d_b))
    return SlotIso(slot_a, slot_b, tuple(images))


def _gl2_solve(o_src, o_dst, sources, targets) -> Optional[List[List[int]]]:
    """M in GL_2(Z) with M s == t for each source/target pair and
    o_dst M == o_src (so o_dst(M x) == o_src(x)), or None.  Exact.

    The constraints are linear in the entries of M, so a particular integer
    solution P and the integer nullspace are exact; the determinant is then
    settled by `_unimodular_along_line`.
    """
    rows: List[List[int]] = []
    rhs: List[int] = []
    for s, t in zip(sources, targets):
        rows += [[s[0], s[1], 0, 0], [0, 0, s[0], s[1]]]
        rhs += [t[0], t[1]]
    rows += [[o_dst[0], 0, o_dst[1], 0], [0, o_dst[0], 0, o_dst[1]]]
    rhs += [o_src[0], o_src[1]]
    solved = solve_with_nullspace(rows, rhs)
    if solved is None:
        return None
    if not any(o_dst) and not any(any(s) for s in sources):
        # solvable only with o_src == 0 and zero targets: the identity fits
        return [[1, 0], [0, 1]]
    entry = _unimodular_along_line(*solved)
    return None if entry is None else [entry[:2], entry[2:]]


def _det2(entry: Sequence[int]) -> int:
    m00, m01, m10, m11 = entry
    return m00 * m11 - m01 * m10


def _unimodular_along_line(particular, basis) -> Optional[List[int]]:
    """particular + sum c_k basis_k with determinant +-1, or None.

    Every nullspace matrix N has o_dst N == 0 and N s == 0 for each source
    s, so N == u r^T with one factor fixed: if o_dst != 0 the columns of N
    lie in the line ker o_dst (u fixed); if o_dst == 0 and some s != 0 the
    rows of N lie in the line s^perp (r fixed).  By the matrix determinant
    lemma det(P + u r^T) == det P + r^T adj(P) u is then affine in the
    coefficients c: one linear equation per sign.  A rank-2 source leaves
    no nullspace, and the equation just checks det P.
    """
    d0 = _det2(particular)
    slopes = [_det2([p + v for p, v in zip(particular, vec)]) - d0 for vec in basis]
    for sign in (1, -1):
        coeffs = solve_linear_system([slopes], [sign - d0])
        if coeffs is not None:
            entry = list(particular)
            for c, vec in zip(coeffs, basis):
                entry = [e + c * v for e, v in zip(entry, vec)]
            return entry
    return None


# ---------------------------------------------------------------------------
# assembling the finite collection of candidate isomorphisms


def _candidate_is_fop(jsj_a: JSJInput, jsj_b: JSJInput, w: str, w2: str, iso: SlotIso) -> bool:
    o_a = jsj_a.orientation.vertex_values[w]
    slot_a = jsj_a.gog.vslot(w)
    for i in range(slot_a.ngens):
        img = iso.apply(slot_a.generator(i))
        if jsj_b.orientation.of_element(w2, img) != o_a[i]:
            return False
    return True


def assemble(
    jsj_a: JSJInput,
    jsj_b: JSJInput,
    whitelist: WhiteList,
    max_edges: int = MAX_EDGES_DEFAULT,
):
    """The finite collection O of validated vertexwise-fop isomorphisms.

    Iterates deterministically over graph maps and white-candidate tuples;
    an empty result is meaningful (no vertexwise isomorphism relative to the
    supplied lists).
    """
    if len(jsj_a.gog.edge_names) > max_edges or len(jsj_b.gog.edge_names) > max_edges:
        return Undecided(f"graph-map enumeration capped at {max_edges} edges")
    results: List[GoGMorphism] = []
    seen_keys = set()
    whites = jsj_a.white_vertices()
    # Pieces shared between graph maps, computed once per call: fop-filtered
    # white candidates per vertex pair, edge transports, each black vertex's
    # adjacent edges and classes.
    # The memo is dropped with the call.
    memo: dict = {}
    for vmap, emap in graph_isomorphisms(jsj_a.gog, jsj_b.gog):
        if any(jsj_a.colors[v] != jsj_b.colors[vmap[v]] for v in jsj_a.gog.vertices):
            continue
        choice_lists = []
        for w in whites:
            key = ("candidates", w, vmap[w])
            if key not in memo:
                memo[key] = [
                    iso
                    for iso in whitelist.get((w, vmap[w]), [])
                    if _candidate_is_fop(jsj_a, jsj_b, w, vmap[w], iso)
                ]
            choice_lists.append(memo[key])
        if any(not c for c in choice_lists):
            continue
        for combo in itertools.product(*choice_lists):
            white_isos = dict(zip(whites, combo))
            morphism = _assemble_one(jsj_a, jsj_b, vmap, emap, white_isos, memo)
            if morphism is not None:
                key = morphism.canonical_key()
                if key not in seen_keys:
                    seen_keys.add(key)
                    results.append(morphism)
    results.sort(key=lambda m: m.canonical_key())
    return results


def _assemble_one(jsj_a, jsj_b, vmap, emap, white_isos, memo: dict) -> Optional[GoGMorphism]:
    gog_a, gog_b = jsj_a.gog, jsj_b.gog
    transports: Dict[str, EdgeTransport] = {}
    gammas: Dict[str, SlotElement] = {}
    for edge in gog_a.edge_names:
        # a transport depends only on the edge, the image of its white end
        # and the white candidate there; failures are kept too
        ew = edge if jsj_a.colors[gog_a.term(edge)] == "white" else bar(edge)
        phi_w = white_isos[gog_a.term(ew)]
        key = ("transport", ew, emap[ew], phi_w)
        if key not in memo:
            memo[key] = _edge_transport(jsj_a, jsj_b, ew, emap[ew], phi_w)
        transport = memo[key]
        if transport is None:
            return None
        transports[edge] = transport
        gammas[ew] = transport.gamma_white
    vertex_isos: Dict[str, SlotIso] = dict(white_isos)
    for b in jsj_a.black_vertices():
        match = match_black(jsj_a, jsj_b, vmap, b, transports, memo)
        if match is None:
            return None
        vertex_isos[b] = match.phi_b
        gammas.update(match.gammas_black)
    edge_isos = {edge: transports[edge].edge_iso for edge in gog_a.edge_names}
    try:
        return validate(
            gog_a,
            {
                "vertex_map": vmap,
                "edge_map": emap,
                "vertex_isos": vertex_isos,
                "edge_isos": edge_isos,
                "gammas": gammas,
            },
            codomain=gog_b,
        )
    except DomainError:
        return None


# ---------------------------------------------------------------------------
# the fiber correction


def fiber_correct(collection, jsj_a: JSJInput, jsj_b: JSJInput) -> Verdict:
    """Try the integer correction per candidate; the trichotomy verdict."""
    if isinstance(collection, Undecided):
        return Verdict("undecided", detail=collection.reason)
    if not collection:
        return Verdict("no-vertexwise-iso")
    twists = tuple(small_modular_generators(jsj_b.gog))
    o_b = jsj_b.orientation
    for morphism in collection:
        images = tuple(
            (name, induced_on_pi1(morphism, loop)) for name, loop in jsj_a.fiber_loops
        )
        system = build_system([img for _, img in images], twists, o_b)
        x = solve(system)
        if x is None:
            continue
        stable_image = None
        if jsj_a.stable_loop is not None:
            stable_image = induced_on_pi1(morphism, jsj_a.stable_loop)
        witness = Witness(morphism, twists, tuple(x), images, stable_image)
        if verify_witness(jsj_a, jsj_b, witness):
            return Verdict("isomorphic-fop", witness)
    return Verdict("vertexwise-but-fiber-fails")


def verify_witness(jsj_a: JSJInput, jsj_b: JSJInput, witness: Witness) -> bool:
    """Independent end-to-end check of a positive verdict.

    Revalidates the Bass diagram, recomputes the fiber generator images,
    checks the twist-corrected images land in the fiber, and checks the
    stable letter stays on the positive orientation coset.
    """
    try:
        validate(
            jsj_a.gog,
            {
                "vertex_map": witness.morphism.vertex_map,
                "edge_map": witness.morphism.edge_map,
                "vertex_isos": witness.morphism.vertex_isos,
                "edge_isos": witness.morphism.edge_isos,
                "gammas": witness.morphism.gammas,
            },
            codomain=jsj_b.gog,
        )
    except DomainError:
        return False
    recorded = dict(witness.fiber_images)
    o_b = jsj_b.orientation
    expected_twists = tuple(small_modular_generators(jsj_b.gog))
    if witness.twists != expected_twists:
        return False
    if len(witness.twist_vector) != len(witness.twists):
        return False

    def corrected_degree(image: BassWord) -> int:
        coeffs = twist_coefficients(image, witness.twists, o_b)
        return o_b.of_loop(image) + sum(c * x for c, x in zip(coeffs, witness.twist_vector))

    for name, loop in jsj_a.fiber_loops:
        image = induced_on_pi1(witness.morphism, loop)
        if name not in recorded or not (recorded[name] == image):
            return False
        if corrected_degree(image) != 0:
            return False
    if jsj_a.stable_loop is not None:
        if witness.stable_image is None:
            return False
        image = induced_on_pi1(witness.morphism, jsj_a.stable_loop)
        if not (witness.stable_image == image):
            return False
        if corrected_degree(image) != 1:
            return False
    return True


def decide(jsj_a: JSJInput, jsj_b: JSJInput, whitelist: WhiteList, max_edges: int = MAX_EDGES_DEFAULT) -> Verdict:
    return fiber_correct(assemble(jsj_a, jsj_b, whitelist, max_edges), jsj_a, jsj_b)


# ---------------------------------------------------------------------------
# the unipotent non-growing wrapper


@dataclass(frozen=True)
class PeripheralDatum:
    generators: Tuple[Word, ...]
    conjugator: Word  # gamma_P with ad_{gamma_P} . phi == id on P


@dataclass(frozen=True)
class ConjUngInput:
    group: FreeGroup
    aut: FreeAut
    peripherals: Tuple[PeripheralDatum, ...]
    jsj: JSJInput


def conj_ung(a: ConjUngInput, b: ConjUngInput, whitelist: WhiteList) -> Verdict:
    """Conjugacy in Out(F) for the unipotent non-growing class.

    Each side's peripheral datum (P, gamma) is validated on P's generators:
    ad_gamma . phi(p) == p, with ad_gamma(x) == gamma^-1 x gamma.  Then the
    sub-mapping torus <P, t gamma> is P x Z, so its product rank is
    fold(P).rank() and no period search is needed.  Malnormality of P (true
    of parabolic subgroups) is an input assumption and is not checked.  The
    isomorphism pipeline then runs on the supplied decompositions, and the
    verdict status becomes "conjugate", "not-conjugate", or "undecided".
    """
    ranks_a = _validate_ung_side(a)
    ranks_b = _validate_ung_side(b)
    if sorted(ranks_a) != sorted(ranks_b):
        return Verdict("not-conjugate", detail="peripheral product ranks differ")
    verdict = decide(a.jsj, b.jsj, whitelist)
    if verdict.status == "isomorphic-fop":
        return Verdict("conjugate", verdict.witness, verdict.detail)
    if verdict.status == "undecided":
        return verdict
    return Verdict("not-conjugate", detail=verdict.status)


def _validate_ung_side(side: ConjUngInput) -> List[int]:
    ranks = []
    for datum in side.peripherals:
        for p in datum.generators:
            if side.aut.apply(p).conjugate(datum.conjugator) != p:
                subgroup_name = "<" + ", ".join(w.format() for w in datum.generators) + ">"
                raise DomainError(
                    f"ad_gamma . phi is not the identity on {subgroup_name} "
                    f"(fails at {p.format()})"
                )
        ranks.append(fold(side.group, list(datum.generators)).rank())
    return ranks


# ---------------------------------------------------------------------------
# file formats


def parse_jsj(text: str) -> JSJInput:
    """Sectioned JSJ input: graph-of-groups sections plus [colors],
    [orientation], [fiber], and optional [stable] and [peripheral]; other
    sections (such as [tree]) are skipped."""
    gog = parse_gog(text)
    colors: Dict[str, str] = {}
    vertex_values: Dict[str, Tuple[int, ...]] = {}
    edge_values: Dict[str, int] = {}
    fiber_loops: List[Tuple[str, BassWord]] = []
    stable_loop: Optional[BassWord] = None
    peripheral: Dict[str, Dict[str, Tuple[str, ...]]] = {}
    section = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").lower()
            continue
        if section == "colors":
            name, _, color = line.partition(":")
            colors[name.strip()] = color.strip().lower()
        elif section == "orientation":
            kind, _, rest = line.partition(" ")
            if kind == "vertex":
                name, _, values = rest.partition(":")
                vertex_values[name.strip()] = tuple(parse_int(x, "orientation value") for x in values.split())
            elif kind == "edge":
                name, _, value = rest.partition(":")
                edge_values[name.strip()] = parse_int(value, "orientation value")
            else:
                raise FormatError(f"bad orientation line: {line!r}")
        elif section == "fiber":
            name, _, loop_text = line.partition("=")
            fiber_loops.append((name.strip(), BassWord.parse(gog, loop_text.strip())))
        elif section == "stable":
            stable_loop = BassWord.parse(gog, line)
        elif section == "peripheral":
            vertex, _, rest = line.partition(":")
            annot: Dict[str, Tuple[str, ...]] = {}
            for chunk in rest.split(";"):
                key, _, edges = chunk.partition("=")
                key = key.strip()
                if key:
                    annot[key] = tuple(edges.split())
            peripheral[vertex.strip()] = annot
    orientation = OrientationFunctional(gog, vertex_values, edge_values)
    return JSJInput(
        gog, colors, orientation, tuple(fiber_loops), stable_loop, peripheral
    )


def serialize_jsj(jsj: JSJInput) -> str:
    lines = [serialize_gog(jsj.gog).rstrip()]
    lines.append("[colors]")
    for v in jsj.gog.vertices:
        lines.append(f"{v}: {jsj.colors[v]}")
    lines.append("[orientation]")
    for v in jsj.gog.vertices:
        values = " ".join(str(x) for x in jsj.orientation.vertex_values[v])
        lines.append(f"vertex {v}: {values}")
    for e in jsj.gog.edge_names:
        lines.append(f"edge {e}: {jsj.orientation.edge_values[e]}")
    lines.append("[fiber]")
    for name, loop in jsj.fiber_loops:
        lines.append(f"{name} = {loop.format()}")
    if jsj.stable_loop is not None:
        lines.append("[stable]")
        lines.append(jsj.stable_loop.format())
    if jsj.peripheral:
        lines.append("[peripheral]")
        for v, annot in sorted(jsj.peripheral.items()):
            chunks = [f"{key} = {' '.join(edges)}" for key, edges in sorted(annot.items())]
            lines.append(f"{v}: " + " ; ".join(chunks))
    return "\n".join(lines) + "\n"


def parse_whitelist(text: str, jsj_a: JSJInput, jsj_b: JSJInput) -> WhiteList:
    """Candidate sections: `[candidates w -> w']` followed by `iso:` lines,
    each listing comma-separated images of all slot generators."""
    out: WhiteList = {}
    current: Optional[Tuple[str, str]] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[candidates"):
            inner = line.strip("[]")[len("candidates"):].strip()
            src, _, dst = inner.partition("->")
            current = (src.strip(), dst.strip())
            out.setdefault(current, [])
            continue
        if line.startswith("iso:"):
            if current is None:
                raise FormatError("iso line outside a candidates section")
            src_slot = jsj_a.gog.vslot(current[0])
            dst_slot = jsj_b.gog.vslot(current[1])
            images = []
            for chunk in line[len("iso:"):].split(","):
                name, _, image = chunk.partition("->")
                images.append((name.strip(), dst_slot.parse(image.strip())))
            names = src_slot.gen_names()
            if [n for n, _ in images] != names:
                raise FormatError(
                    f"candidate must list images of {names} in order"
                )
            out[current].append(SlotIso(src_slot, dst_slot, tuple(img for _, img in images)))
            continue
        raise FormatError(f"bad whitelist line: {line!r}")
    return out


def serialize_whitelist(whitelist: WhiteList, jsj_a: JSJInput) -> str:
    lines = []
    for (src, dst), isos in sorted(whitelist.items()):
        lines.append(f"[candidates {src} -> {dst}]")
        names = jsj_a.gog.vslot(src).gen_names()
        for iso in isos:
            parts = [f"{n} -> {img.format()}" for n, img in zip(names, iso.images)]
            lines.append("iso: " + " , ".join(parts))
    return "\n".join(lines) + "\n"


def invert_whitelist(whitelist: WhiteList) -> WhiteList:
    out: WhiteList = {}
    for (src, dst), isos in whitelist.items():
        out.setdefault((dst, src), []).extend(iso.inverse() for iso in isos)
    return out


def serialize_verdict(verdict: Verdict, jsj_a: JSJInput, jsj_b: JSJInput) -> str:
    lines = [f"status: {verdict.status}"]
    if verdict.detail:
        lines.append(f"detail: {verdict.detail}")
    w = verdict.witness
    if w is None:
        return "\n".join(lines) + "\n"
    m = w.morphism
    lines.append("[vertex map]")
    for v in jsj_a.gog.vertices:
        lines.append(f"{v} -> {m.vertex_map[v]}")
    lines.append("[edge map]")
    for e in sorted(jsj_a.gog.oriented_edges()):
        lines.append(f"{e} -> {m.edge_map[e]}")
    lines.append("[vertex isos]")
    for v in jsj_a.gog.vertices:
        names = jsj_a.gog.vslot(v).gen_names()
        parts = [f"{n} -> {img.format()}" for n, img in zip(names, m.vertex_isos[v].images)]
        lines.append(f"{v}: " + " , ".join(parts))
    lines.append("[edge isos]")
    for e in jsj_a.gog.edge_names:
        names = jsj_a.gog.eslot(e).gen_names()
        parts = [f"{n} -> {img.format()}" for n, img in zip(names, m.edge_isos[e].images)]
        lines.append(f"{e}: " + " , ".join(parts))
    lines.append("[gammas]")
    for e in sorted(jsj_a.gog.oriented_edges()):
        lines.append(f"{e}: {m.gammas[e].format()}")
    lines.append("[twists]")
    for twist, mult in zip(w.twists, w.twist_vector):
        lines.append(f"{twist.edge} | {twist.z.format()}: {mult}")
    lines.append("[fiber images]")
    for name, loop in w.fiber_images:
        lines.append(f"{name} = {loop.format()}")
    if w.stable_image is not None:
        lines.append("[stable image]")
        lines.append(w.stable_image.format())
    return "\n".join(lines) + "\n"


def parse_witness(text: str, jsj_a: JSJInput, jsj_b: JSJInput) -> Tuple[str, Optional[Witness]]:
    """Re-read a serialized verdict; rebuilds the morphism unvalidated (the
    checker validates it afterwards)."""
    gog_a, gog_b = jsj_a.gog, jsj_b.gog

    def named(table, name, what):
        if name not in table:
            raise FormatError(f"witness names unknown {what} {name!r}")
        return table[name]

    status = None
    section = None
    vertex_map: Dict[str, str] = {}
    edge_map: Dict[str, str] = {}
    vertex_isos: Dict[str, SlotIso] = {}
    edge_isos: Dict[str, SlotIso] = {}
    gammas: Dict[str, SlotElement] = {}
    twist_entries: List[Tuple[str, SlotElement, int]] = []
    fiber_images: List[Tuple[str, BassWord]] = []
    stable_image: Optional[BassWord] = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("status:"):
            status = line.partition(":")[2].strip()
            continue
        if line.startswith("detail:"):
            continue
        if line.startswith("["):
            section = line.strip("[]").lower()
            continue
        if section == "vertex map":
            src, _, dst = line.partition("->")
            vertex_map[src.strip()] = dst.strip()
        elif section == "edge map":
            src, _, dst = line.partition("->")
            edge_map[src.strip()] = dst.strip()
        elif section == "vertex isos":
            v, _, rest = line.partition(":")
            v = v.strip()
            src_slot = named(gog_a.vertex_slots, v, "vertex")
            dst_slot = named(gog_b.vertex_slots, named(vertex_map, v, "vertex-map source"), "vertex")
            images = [
                dst_slot.parse(chunk.partition("->")[2]) for chunk in rest.split(",")
            ]
            vertex_isos[v] = SlotIso(src_slot, dst_slot, tuple(images))
        elif section == "edge isos":
            e, _, rest = line.partition(":")
            e = e.strip()
            src_slot = named(gog_a.edge_slots, e, "edge")
            dst_slot = named(gog_b.injections, named(edge_map, e, "edge-map source"), "edge").src
            images = [
                dst_slot.parse(chunk.partition("->")[2]) for chunk in rest.split(",")
            ]
            edge_isos[e] = SlotIso(src_slot, dst_slot, tuple(images))
        elif section == "gammas":
            e, _, rest = line.partition(":")
            e = e.strip()
            # an injection's codomain is the slot of the edge's terminal vertex
            slot = named(gog_b.injections, named(edge_map, e, "edge-map source"), "edge").dst
            gammas[e] = slot.parse(rest.strip())
        elif section == "twists":
            head, _, mult = line.rpartition(":")
            edge, _, z_text = head.partition("|")
            edge = edge.strip()
            slot = named(gog_b.injections, edge, "edge").dst
            twist_entries.append((edge, slot.parse(z_text.strip()), parse_int(mult, "twist multiplier")))
        elif section == "fiber images":
            name, _, loop_text = line.partition("=")
            fiber_images.append((name.strip(), BassWord.parse(gog_b, loop_text.strip())))
        elif section == "stable image":
            stable_image = BassWord.parse(gog_b, line)
    if status is None:
        raise FormatError("witness file misses status:")
    if not vertex_map:
        return status, None
    expected = tuple(small_modular_generators(gog_b))
    vector = [0] * len(expected)
    for edge, z, mult in twist_entries:
        for idx, twist in enumerate(expected):
            if (twist.edge, twist.z) == (edge, z):
                vector[idx] = mult
                break
        else:
            raise FormatError(f"twist over {edge} by {z.format()} is not a generator")
    morphism = GoGMorphism(
        gog_a, gog_b, vertex_map, edge_map, vertex_isos, edge_isos, gammas
    )
    return status, Witness(
        morphism, expected, tuple(vector), tuple(fiber_images), stable_image
    )
