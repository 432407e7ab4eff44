"""Decision pipeline: consume JSJ-shaped inputs and white-vertex candidate
lists, assemble graph-of-groups isomorphisms, and settle the fiber with the
integer correction system.  The isomorphisms are built by construction, and
validated once per positive verdict by `verify_witness`.

Graph maps are enumerated by backtracking over the images of each black
vertex's incoming edges, and only those every black vertex admits are
assembled.  Per black vertex pair, one matcher (`fop_slot_isos`) gives the
classes of fiber-and-orientation isomorphisms of the black slots, and a
table computed once per call (`BlackTable`) lists the edge images each
class matches, with one isomorphism of the class that assembly takes as is.
Which edge images exist is read off conjugacy keys, and assembly reads each
white end (edge isomorphism and gamma) off the same keys and their
canonical conjugators, with no second conjugacy search.

The tables are exact for every black slot kind, given the edge
isomorphisms they consider: g -> g^sigma, where sigma == -1 only for a
cyclic edge group.  A non-cyclic edge group (Z^2, F_k, F_k x Z) admits
other edge isomorphisms, which no table tries, so a negative over such an
edge is relative to that restriction as well.

White lists are inputs, not computed; a negative verdict is therefore sound
relative to the completeness of the supplied lists, and the verdict
vocabulary keeps "no vertexwise isomorphism" and "vertexwise but fiber
fails" apart.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import DomainError, FormatError, parse_int
from .fibercorrect import (
    OrientationFunctional,
    abelian_invariants,
    build_system,
    invariant_factors,
    shift_smith,
    solve,
    solve_linear_system,
    solve_with_nullspace,
    twist_coefficients,
)
from .freegroup import FreeAut, Word, canonical_conjugate, fold
from .gog import (
    BassWord,
    DehnTwist,
    GoGMorphism,
    GraphOfGroups,
    SlotElement,
    SlotIso,
    bar,
    gog_from_lines,
    induced_on_pi1,
    section_lines,
    serialize_gog,
    small_modular_generators,
    unoriented,
    validate,
)
from .whitehead import Marking, compose_moves, level_component, minimize

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
                img = self.gog.injection(_white_end(self, e, w)).images[0]
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
# black-vertex matching


def _black_classes(jsj: JSJInput, side: str, b: str, memo: dict):
    """The oriented edges into the black vertex b, sorted, and the class
    (the injected edge generators) of each; kept in `memo` per side."""
    key = ("black classes", side, b)
    if key not in memo:
        gog = jsj.gog
        adjacent = tuple(sorted(oe for oe in gog.oriented_edges() if gog.term(oe) == b))
        memo[key] = adjacent, tuple(gog.injection(oe).images for oe in adjacent)
    return memo[key]


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


def fop_slot_isos(slot_a, o_a, slot_b, o_b, sources, pools, natives, memo: dict):
    """The black matcher: the classes of fiber-and-orientation isomorphisms
    phi: slot_a -> slot_b (o_b . phi == o_a) that carry each source class
    to a simultaneous conjugate of one of its candidate targets.

    `pools[i]` lists the candidate target classes of source i, and
    `natives` are the classes of the edges into slot_b's vertex.  Returns
    (target_keys, classes): target_keys[i][j] is a key of pools[i][j], and
    each class is (row_keys, make), where row_keys[i] is the key that
    source i takes under the class's maps and make() builds one of them.
    Equal keys mean "carried to a conjugate", and every fop isomorphism
    carrying all sources to conjugates of some choice of targets lies in
    one of the classes:

    * Z: the map x0 -> x0^eps with eps * o_b == o_a (eps == 1 first),
      keyed by the classes;
    * Z^2: M in GL_2(Z) with o_b M == o_a, keyed by abelianized vectors and
      pinned on the span of the sources (`_pinned_matrices`);
    * F_k x Z (with the degree condition `JSJInput` checks): in fiber
      coordinates G == P x <c>, where an element's center exponent is its
      degree over |o(c)| (`_centers`), phi is psi x id for psi in Aut(F_k),
      which keeps the center exponents (`_fxz_row_iso` goes back to slot
      coordinates).  Minimizing the word parts of the sources to S* by
      alpha and those of the natives by beta, an assignment T is carried to
      iff beta(T) is in the orbit of S*.  beta(T) is minimal: a pool holds
      an inverse class only for a cyclic edge group (`_edge_options`), so T
      is the native classes in some order, the cyclic ones perhaps
      inverted, and beta(T) has the length of beta(natives).  By peak
      reduction for tuples of classes, beta(T) is then in the orbit exactly
      when it is in the minimal level of S*.  So, for every edge group, the
      classes are the markings L of `whitehead.level_component(S*)`, each
      source keyed by its class in L and its center exponents, with
      psi == beta^-1 . (path to L) . alpha.

    `memo` keeps the minimized markings and the level components.
    """
    kind = slot_a.kind
    if kind == "Z":
        x0 = slot_b.generator(0)
        maps = [
            SlotIso(slot_a, slot_b, (x0 if eps == 1 else x0.inverse(),))
            for eps in (1, -1)
            if eps * o_b[0] == o_a[0]
        ]
        return [[tuple(cls) for cls in pool] for pool in pools], [
            ([tuple(phi.apply(x) for x in cls) for cls in sources], functools.partial(SlotIso, slot_a, slot_b, phi.images))
            for phi in maps
        ]
    if kind == "Z2":
        vectors = [tuple(x.abelianized() for x in cls) for cls in sources]
        target_keys = [[tuple(x.abelianized() for x in cls) for cls in pool] for pool in pools]
        return target_keys, [
            (
                [tuple(_mat_vec2(m, v) for v in cls) for cls in vectors],
                functools.partial(SlotIso.from_matrix, slot_a, slot_b, m),
            )
            for m in _pinned_matrices(o_a, o_b, vectors, target_keys)
        ]
    unkeyed = [[None] * len(pool) for pool in pools]
    if abs(o_a[-1]) != abs(o_b[-1]):
        return unkeyed, []
    group = slot_b.free_group

    def minimize_words(classes):
        marking = Marking.of(group, [[x.word for x in cls] for cls in classes])
        key = ("minimize", marking)
        if key not in memo:
            memo[key] = minimize(marking)
        return memo[key]

    minimal, alpha = minimize_words(sources)
    native_minimal, beta = minimize_words(natives)
    if minimal.total_length() != native_minimal.total_length():
        return unkeyed, []
    beta_aut = compose_moves(group, beta)

    def carried(cls):
        return Marking.of(group, [[beta_aut.apply(x.word) for x in cls]]).classes[0], _centers(cls, o_b)

    key = ("level", minimal)
    if key not in memo:
        memo[key] = level_component(minimal)
    centers = [_centers(cls, o_a) for cls in sources]
    return [[carried(cls) for cls in pool] for pool in pools], [
        (
            list(zip(level.classes, centers)),
            functools.partial(
                _fxz_row_iso, slot_a, o_a, slot_b, o_b, alpha + path + [move.inverse() for move in reversed(beta)]
            ),
        )
        for level, path in memo[key].items()
    ]


def _fxz_row_iso(slot_a, o_a, slot_b, o_b, moves) -> SlotIso:
    """The representative of an F_k x Z class of `fop_slot_isos`: psi x id
    in fiber coordinates, with psi == beta^-1 . (path) . alpha composed in
    one pass, where `moves` are alpha, the level path, then the inverses
    of beta's moves in reverse order.  In slot coordinates phi(x_i) ==
    psi(x_i) c^l_i with l_i == (o_a(x_i) - o_b(psi(x_i))) / o_b(c), and
    phi(c) == c^(o_a(c) / o_b(c))."""
    psi = compose_moves(slot_b.free_group, moves)
    d_a, d_b = o_a[-1], o_b[-1]
    images = []
    for i in range(slot_a.free_rank):
        image = SlotElement(slot_b, psi.apply(slot_b.free_group.generator(i)), 0)
        images.append(SlotElement(slot_b, image.word, (o_a[i] - _degree(o_b, image)) // d_b))
    images.append(SlotElement(slot_b, slot_b.free_group.identity(), d_a // d_b))
    return SlotIso(slot_a, slot_b, tuple(images))


def _centers(cls, o) -> Tuple[int, ...]:
    """The center exponents of a class of an F_k x Z slot in fiber
    coordinates, where an element's word stays and its center exponent
    becomes its degree over |o(c)|."""
    return tuple(_degree(o, x) // abs(o[-1]) for x in cls)


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
# admissible edge assignments at a black vertex pair


@dataclass(frozen=True)
class BlackTable:
    """Which assignments of edges at a black vertex pair (b, b2) admit a
    black match, and by which slot isomorphism.

    `options[i]` lists the possible images of the i-th oriented edge into b
    (sorted, as in `_black_classes`): pairs (f, k) of an oriented edge f
    into b2 and the index k of a fop white candidate between the two white
    ends (see `_white_candidates`) under which the edge transport exists,
    as `_edge_options` reads off conjugacy keys.  Each row stands for one
    class of fop slot isomorphisms of `fop_slot_isos`, in its order, and
    holds, per edge, the indices of the options whose
    transported class those isomorphisms carry the edge's class to a
    conjugate of; `isos[r]` builds the representative of row r.  An
    assignment admits a black match exactly when one row holds all of its
    options.
    """

    edges: Tuple[str, ...]
    options: Tuple[Tuple[Tuple[str, int], ...], ...]
    rows: Tuple[Tuple[FrozenSet[int], ...], ...]
    isos: Tuple[Callable[[], SlotIso], ...]


def _white_candidates(jsj_a, jsj_b, whitelist: WhiteList, w: str, w2: str, memo: dict) -> List[SlotIso]:
    """The supplied candidates w -> w2 that preserve fiber and orientation,
    without repeats."""
    key = ("candidates", w, w2)
    if key not in memo:
        memo[key] = list(dict.fromkeys(
            iso for iso in whitelist.get((w, w2), []) if _candidate_is_fop(jsj_a, jsj_b, w, w2, iso)
        ))
    return memo[key]


def _class_key(elements: Sequence[SlotElement]) -> Tuple[tuple, Word]:
    """A key of a tuple of slot elements up to simultaneous conjugation
    (the canonical conjugate of the free parts, and the centers, which
    conjugation leaves alone), and the canonical conjugator g, with
    g^-1 x g giving the key's word for each free part x."""
    words, g = canonical_conjugate(tuple(x.word for x in elements))
    return (words, tuple(x.center for x in elements)), g


def _signed(elements: Sequence[SlotElement], sigma: int) -> Tuple[SlotElement, ...]:
    return tuple(elements) if sigma == 1 else tuple(x.inverse() for x in elements)


def _moved_keys(jsj_a, jsj_b, whitelist: WhiteList, ew: str, w2: str, memo: dict) -> List[Tuple[tuple, Word]]:
    """Per fop white candidate k from the white end of `ew` to w2, the
    (key, conjugator) of the edge class of `ew` moved by it."""
    key = ("moved keys", ew, w2)
    if key not in memo:
        edge_class = jsj_a.gog.injection(ew).images
        memo[key] = [
            _class_key([phi.apply(x) for x in edge_class])
            for phi in _white_candidates(jsj_a, jsj_b, whitelist, jsj_a.gog.term(ew), w2, memo)
        ]
    return memo[key]


def _target_keys(jsj_b, ew2: str, memo: dict) -> Dict[tuple, Tuple[int, Word, Tuple[SlotElement, ...]]]:
    """The edge transports onto `ew2` (oriented towards its white vertex),
    keyed by the key of the edge class of `ew2` to the power sigma: sigma
    == 1, and sigma == -1 for a cyclic edge group.  Each holds sigma, the
    canonical conjugator of that class, and the class carried into the
    black end, the edge class of bar(ew2) to the power sigma."""
    key = ("target keys", ew2)
    if key not in memo:
        white, black = jsj_b.gog.injection(ew2).images, jsj_b.gog.injection(bar(ew2)).images
        memo[key] = {}
        for sigma in (1, -1) if len(white) == 1 else (1,):
            class_key, g = _class_key(_signed(white, sigma))
            memo[key].setdefault(class_key, (sigma, g, _signed(black, sigma)))
    return memo[key]


def _edge_options(jsj_a, jsj_b, whitelist: WhiteList, b: str, b2: str, memo: dict):
    """(options, pools) of the black table at (b, b2): per oriented edge oe
    into b, the options (f, k) under which the edge transport of oe onto f
    through white candidate k exists, and the class it carries into b2.

    The transport exists exactly when the key of the class of oe's white
    end moved by candidate k is one of `_target_keys` of bar(f): the moved
    class is then simultaneously conjugate to the class of bar(f) to the
    power sigma, the edge isomorphism is g -> g^sigma and the carried class
    is f's class to the power sigma.  These are the only edge isomorphisms
    considered, so for a non-cyclic edge group the edge isomorphism is the
    one that fixes each generator, and an edge image that only another
    edge isomorphism reaches is missed.
    """
    edges, _ = _black_classes(jsj_a, "source", b, memo)
    targets, _ = _black_classes(jsj_b, "target", b2, memo)
    options, pools = [], []
    for oe in edges:
        edge_options, pool = [], []
        for f in targets:
            transports = _target_keys(jsj_b, bar(f), memo)
            for k, (moved, _) in enumerate(_moved_keys(jsj_a, jsj_b, whitelist, bar(oe), jsj_b.gog.init(f), memo)):
                if moved in transports:
                    edge_options.append((f, k))
                    pool.append(transports[moved][2])
        options.append(tuple(edge_options))
        pools.append(pool)
    return options, pools


def _black_table(jsj_a, jsj_b, whitelist: WhiteList, b: str, b2: str, memo: dict) -> BlackTable:
    """The `BlackTable` of (b, b2), kept in `memo`: its options and carried
    classes come from conjugacy keys (`_edge_options`), its rows from
    `fop_slot_isos`."""
    key = ("black table", b, b2)
    if key in memo:
        return memo[key]
    gog_a, gog_b = jsj_a.gog, jsj_b.gog
    edges, sources = _black_classes(jsj_a, "source", b, memo)
    _, natives = _black_classes(jsj_b, "target", b2, memo)
    options, pools = _edge_options(jsj_a, jsj_b, whitelist, b, b2, memo)
    o_a, o_b = jsj_a.orientation.vertex_values[b], jsj_b.orientation.vertex_values[b2]
    target_keys, classes = fop_slot_isos(
        gog_a.vslot(b), o_a, gog_b.vslot(b2), o_b, sources, pools, natives, memo
    )
    indexes = []
    for keys in target_keys:
        index: Dict[object, List[int]] = {}
        for j, option_key in enumerate(keys):
            index.setdefault(option_key, []).append(j)
        indexes.append({option_key: frozenset(js) for option_key, js in index.items()})
    rows: Dict[tuple, Callable[[], SlotIso]] = {}
    for keys, make in classes:
        row = tuple(index.get(k, frozenset()) for index, k in zip(indexes, keys))
        if all(row):
            rows.setdefault(row, make)
    memo[key] = BlackTable(edges, tuple(options), tuple(rows), tuple(rows.values()))
    return memo[key]


def _mat_vec2(m: Sequence[Sequence[int]], v: Sequence[int]) -> Tuple[int, int]:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _pinned_matrices(o_a, o_b, sources, targets) -> List[List[List[int]]]:
    """M in GL_2(Z) with o_b M == o_a, one per action on the span of the
    source vectors that some choice of targets asks for.  sources[i] is a
    tuple of vectors and targets[i] lists the candidate images of it.

    With two independent source vectors p and q, M == [t_p t_q][p q]^-1 for
    each pair of candidate images, kept when integral, unimodular and
    orientation preserving.  With a rank-one span, M is fixed there by the
    image v of its primitive vector u, and `_gl2_solve` settles each v on
    all the source vectors at once, each a multiple n u going to n v.  With
    no nonzero source, any solution will do.  Below rank two the linear
    problem is the one a matching assignment poses, so its solution is too.
    """
    every = [v for cls in sources for v in cls]
    flat = [(i, j, v) for i, cls in enumerate(sources) for j, v in enumerate(cls) if any(v)]
    if not flat:
        m = _gl2_solve(o_a, o_b, every, every)
        return [] if m is None else [m]
    i0, j0, p = flat[0]
    second = next(((i, j, q) for i, j, q in flat if p[0] * q[1] - p[1] * q[0]), None)
    if second is None:
        g = math.gcd(*p)
        u = (p[0] // g, p[1] // g)
        images = {
            (cls[j0][0] // g, cls[j0][1] // g)
            for cls in targets[i0]
            if cls[j0][0] % g == 0 and cls[j0][1] % g == 0
        }
        multiples = [s[0] // u[0] if u[0] else s[1] // u[1] for s in every]
        solved = (_gl2_solve(o_a, o_b, every, [(n * v[0], n * v[1]) for n in multiples]) for v in sorted(images))
        return [m for m in solved if m is not None]
    i1, j1, q = second
    det = p[0] * q[1] - p[1] * q[0]
    if i1 == i0:
        pairs = [(cls[j0], cls[j1]) for cls in targets[i0]]
    else:
        pairs = [(a[j0], c[j1]) for a in targets[i0] for c in targets[i1]]
    found = {}
    for tp, tq in pairs:
        num = [[tp[r] * q[1] - tq[r] * p[1], tq[r] * p[0] - tp[r] * q[0]] for r in range(2)]
        if any(x % det for row in num for x in row):
            continue
        m = [[x // det for x in row] for row in num]
        if _det2(m[0] + m[1]) in (1, -1) and _mat_vec2(list(zip(*m)), o_b) == tuple(o_a):
            found[tuple(m[0] + m[1])] = m
    return list(found.values())


# ---------------------------------------------------------------------------
# assembling the finite collection of candidate isomorphisms


def _candidate_is_fop(jsj_a: JSJInput, jsj_b: JSJInput, w: str, w2: str, iso: SlotIso) -> bool:
    o_a = jsj_a.orientation.vertex_values[w]
    return all(jsj_b.orientation.of_element(w2, img) == o_i for img, o_i in zip(iso.images, o_a))


def admissible_graph_maps(jsj_a: JSJInput, jsj_b: JSJInput, whitelist: WhiteList, memo: dict):
    """Yield (vertex map, oriented edge map, white choices, black rows) for
    every graph isomorphism keeping colors and black slot kinds, with a fop
    white candidate per white vertex (its index in `_white_candidates`),
    whose edge transports all exist and which every black vertex's
    `BlackTable` admits; black rows[b] is the first row of b's table, in
    the table's order, that holds all the options of b's edges.

    Backtracking: each black vertex picks an image, then its incoming edges
    pick options one at a time, which fixes the images and candidates of
    their white ends; a partial map is dropped as soon as some black vertex
    has no table row left.  White vertices without edges are matched last.
    """
    gog_a, gog_b = jsj_a.gog, jsj_b.gog
    blacks, blacks_b = jsj_a.black_vertices(), jsj_b.black_vertices()
    if (len(gog_a.vertices), len(gog_a.edge_names), len(blacks)) != (
        len(gog_b.vertices), len(gog_b.edge_names), len(blacks_b)
    ):
        return
    degree_a = {v: sum(gog_a.term(oe) == v for oe in gog_a.oriented_edges()) for v in gog_a.vertices}
    degree_b = {v: sum(gog_b.term(oe) == v for oe in gog_b.oriented_edges()) for v in gog_b.vertices}
    vmap: Dict[str, str] = {}
    emap: Dict[str, str] = {}
    chosen: Dict[str, int] = {}
    rows: Dict[str, int] = {}
    used_vertices, used_edges = set(), set()

    def place(n: int):
        if n == len(blacks):
            yield from finish()
            return
        b = blacks[n]
        slot = gog_a.vslot(b)
        for b2 in blacks_b:
            if b2 in used_vertices or degree_a[b] != degree_b[b2]:
                continue
            if (slot.free_rank, slot.has_center) != (gog_b.vslot(b2).free_rank, gog_b.vslot(b2).has_center):
                continue
            table = _black_table(jsj_a, jsj_b, whitelist, b, b2, memo)
            if table.rows:
                vmap[b] = b2
                used_vertices.add(b2)
                yield from assign(n, table, 0, range(len(table.rows)))
                used_vertices.discard(b2)
                del vmap[b]

    def assign(n: int, table: BlackTable, i: int, alive):
        if i == len(table.edges):
            rows[blacks[n]] = alive[0]
            yield from place(n + 1)
            return
        oe = table.edges[i]
        w = gog_a.init(oe)
        for j, (f, k) in enumerate(table.options[i]):
            if f in used_edges:
                continue
            w2 = gog_b.init(f)
            fresh = w not in vmap
            if fresh and (w2 in used_vertices or degree_a[w] != degree_b[w2]):
                continue
            if not fresh and (vmap[w], chosen[w]) != (w2, k):
                continue
            left = [r for r in alive if j in table.rows[r][i]]
            if not left:
                continue
            if fresh:
                vmap[w], chosen[w] = w2, k
                used_vertices.add(w2)
            emap[oe], emap[bar(oe)] = f, bar(f)
            used_edges.add(f)
            yield from assign(n, table, i + 1, left)
            used_edges.discard(f)
            del emap[oe], emap[bar(oe)]
            if fresh:
                used_vertices.discard(w2)
                del vmap[w], chosen[w]

    def finish():
        lone = [w for w in jsj_a.white_vertices() if w not in vmap]
        lone_b = [w2 for w2 in jsj_b.white_vertices() if w2 not in used_vertices]
        for images in itertools.permutations(lone_b):
            counts = [len(_white_candidates(jsj_a, jsj_b, whitelist, w, w2, memo)) for w, w2 in zip(lone, images)]
            for combo in itertools.product(*map(range, counts)):
                yield {**vmap, **dict(zip(lone, images))}, dict(emap), {**chosen, **dict(zip(lone, combo))}, dict(rows)

    yield from place(0)


def assemble(jsj_a: JSJInput, jsj_b: JSJInput, whitelist: WhiteList):
    """Yield the finite collection O of vertexwise-fop isomorphisms, one
    at a time, so that a consumer that stops early assembles no more.

    Each graph map and white-candidate tuple that `admissible_graph_maps`
    yields is assembled in turn (`_assemble_one`), in the order found,
    which builds its morphism by construction, without validating it,
    taking each black vertex's isomorphism from its table row; the tables
    are exact, so every map assembles.  An empty collection is meaningful
    (no vertexwise isomorphism relative to the supplied lists).
    """
    # Pieces shared between graph maps, computed once per call: fop-filtered
    # white candidates per vertex pair, the (conjugacy key, canonical
    # conjugator) pair of each edge class moved by each candidate and of each
    # target edge class and its inverse, each black vertex's adjacent edges
    # and classes, the black tables, the minimized markings and level
    # components (with their paths) behind the F_k x Z tables, the
    # representative of each table row used, and the edge isomorphisms
    # g -> g^sigma.  The memo is dropped with the generator.
    memo: dict = {}
    for vmap, emap, chosen, rows in admissible_graph_maps(jsj_a, jsj_b, whitelist, memo):
        yield _assemble_one(jsj_a, jsj_b, whitelist, vmap, emap, chosen, rows, memo)


def _assemble_one(jsj_a, jsj_b, whitelist: WhiteList, vmap, emap, chosen, rows, memo: dict) -> GoGMorphism:
    """The morphism of one graph map, with white vertex w taking its
    candidate chosen[w] (an index into `_white_candidates`) and black vertex
    b the representative of row rows[b] of its `BlackTable`.

    Each white end is read off the (key, conjugator) pairs the tables were
    built from, with no conjugacy search: the moved key of the edge under
    the chosen candidate is the key of its image's class to the power sigma
    (`_target_keys`), with canonical conjugators g_m and g_t, so ad_d with
    d == g_m g_t^-1 carries the moved class onto that class, the gamma is
    d^-1 == g_t g_m^-1, the edge isomorphism is g -> g^sigma, and the class
    carried into the black vertex is the table's pool entry.  The tables
    are exact, so every black-end conjugator exists; a missing one is a
    table bug, and an assertion rather than a map silently dropped.  The
    morphism is not validated, as its Bass diagram commutes by
    construction: the graph map is a bar-equivariant bijection keeping
    colors and incidence, and the gammas close the diagram at white ends
    and (`slot_elementwise_conjugator`) at black ends.  `verify_witness`
    checks each positive."""
    gog_a, gog_b = jsj_a.gog, jsj_b.gog
    vertex_isos: Dict[str, SlotIso] = {
        w: _white_candidates(jsj_a, jsj_b, whitelist, w, vmap[w], memo)[k] for w, k in chosen.items()
    }
    edge_isos: Dict[str, SlotIso] = {}
    gammas: Dict[str, SlotElement] = {}
    carried: Dict[str, Tuple[SlotElement, ...]] = {}
    for edge in gog_a.edge_names:
        ew = edge if jsj_a.colors[gog_a.term(edge)] == "white" else bar(edge)
        ew2, w = emap[ew], gog_a.term(ew)
        moved, g_m = _moved_keys(jsj_a, jsj_b, whitelist, ew, vmap[w], memo)[chosen[w]]
        sigma, g_t, carried[bar(ew)] = _target_keys(jsj_b, ew2, memo)[moved]
        gammas[ew] = SlotElement(gog_b.vslot(vmap[w]), g_t * g_m.inverse(), 0)
        slot, slot2 = gog_a.eslot(edge), gog_b.eslot(ew2)
        key = ("edge iso", slot, slot2, sigma)
        if key not in memo:
            memo[key] = SlotIso(slot, slot2, _signed(slot2.generators(), sigma))
        edge_isos[edge] = memo[key]
    for b, r in rows.items():
        b2 = vmap[b]
        slot_b2 = gog_b.vslot(b2)
        adjacent, sources = _black_classes(jsj_a, "source", b, memo)
        key = ("black iso", b, b2, r)
        if key not in memo:
            memo[key] = _black_table(jsj_a, jsj_b, whitelist, b, b2, memo).isos[r]()
        phi_b = vertex_isos[b] = memo[key]
        for oe, source in zip(adjacent, sources):
            p = slot_elementwise_conjugator(slot_b2, tuple(phi_b.apply(x) for x in source), carried[oe])
            assert p is not None, f"row {r} of ({b}, {b2}) does not carry {oe} to a conjugate of its target"
            gammas[oe] = p.inverse()
    return GoGMorphism(gog_a, gog_b, vmap, emap, vertex_isos, edge_isos, gammas)


# ---------------------------------------------------------------------------
# the fiber correction


def fiber_correct(collection, jsj_a: JSJInput, jsj_b: JSJInput) -> Verdict:
    """Try the integer correction per candidate, in order, and stop at the
    first witness `verify_witness` accepts; the trichotomy verdict."""
    twists = None  # built at the first candidate, so none without one
    o_b = jsj_b.orientation
    for morphism in collection:
        if twists is None:
            twists = tuple(small_modular_generators(jsj_b.gog))
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
    if twists is None:
        return Verdict("no-vertexwise-iso")
    return Verdict("vertexwise-but-fiber-fails")


def verify_witness(jsj_a: JSJInput, jsj_b: JSJInput, witness: Witness) -> bool:
    """Independent end-to-end check of a positive verdict.

    Checks that the morphism runs from `jsj_a`'s graph of groups to
    `jsj_b`'s, revalidates its Bass diagram, recomputes the fiber
    generator images, checks the twist-corrected images land in the fiber,
    and checks the stable letter stays on the positive orientation coset.  The twist
    generators are recomputed from `jsj_b` on purpose, although
    `fiber_correct` has just built the same ones: the check shares no
    objects with the search it checks.
    """
    if witness.morphism.domain != jsj_a.gog or witness.morphism.codomain != jsj_b.gog:
        return False
    try:
        validate(witness.morphism)
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
    if len(jsj_a.gog.edge_names) > max_edges or len(jsj_b.gog.edge_names) > max_edges:
        return Verdict("undecided", detail=f"graph-map enumeration capped at {max_edges} edges")
    return fiber_correct(assemble(jsj_a, jsj_b, whitelist), jsj_a, jsj_b)


# ---------------------------------------------------------------------------
# the unipotent non-growing wrapper


@dataclass(frozen=True)
class PeripheralDatum:
    generators: Tuple[Word, ...]
    conjugator: Word  # gamma_P with ad_{gamma_P} . phi == id on P


@dataclass(frozen=True)
class ConjUngInput:
    aut: FreeAut
    peripherals: Tuple[PeripheralDatum, ...]
    jsj: JSJInput


def conj_ung(a: ConjUngInput, b: ConjUngInput, whitelist: WhiteList) -> Verdict:
    """Conjugacy in Out(F) for the unipotent non-growing class.

    Each side's peripheral datum (P, gamma) is validated on P's generators:
    ad_gamma . phi(p) == p, with ad_gamma(x) == gamma^-1 x gamma, and its
    JSJ must have the first homology of its mapping torus: the Smith
    diagonal of M - I plus one Z, against `abelian_invariants` of the JSJ,
    which reads H_1 off the vertex block and counts the edges outside a
    spanning forest without building one.  Then the sub-mapping torus
    <P, t gamma> is P x Z, so its product rank is fold(P).rank() and no
    period search is needed.  Malnormality of P (true of parabolic
    subgroups) is an input assumption and is not checked.  The isomorphism
    pipeline then runs on the supplied decompositions, and the verdict
    status becomes "conjugate", "not-conjugate", or "undecided".
    """
    ranks_a = _validate_ung_side(a)
    ranks_b = _validate_ung_side(b)
    _check_first_homology(a, "alpha")
    _check_first_homology(b, "beta")
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
        ranks.append(fold(side.aut.group, list(datum.generators)).rank())
    return ranks


def _check_first_homology(side: ConjUngInput, name: str) -> None:
    """Raise unless the side's JSJ has the first homology of its mapping
    torus, Z^n / (M - I) + Z for the abelianized monodromy M."""
    m = side.aut.abelianized()
    torus = invariant_factors(shift_smith(m), len(m)) + (0,)
    jsj = abelian_invariants(side.jsj.gog)
    if torus != jsj:
        raise DomainError(
            f"{name}: H_1 of the mapping torus has invariant factors {torus}, "
            f"but H_1 of its JSJ has {jsj}"
        )


# ---------------------------------------------------------------------------
# file formats


def parse_jsj(text: str) -> JSJInput:
    """Sectioned JSJ input: graph-of-groups sections plus [colors],
    [orientation], [fiber], and optional [stable] and [peripheral]; other
    sections (such as [tree]) are skipped.  A [colors] or [orientation]
    line naming a vertex or edge the graph lacks is an error."""
    lines = section_lines(text)
    gog = gog_from_lines(lines)
    colors: Dict[str, str] = {}
    vertex_values: Dict[str, Tuple[int, ...]] = {}
    edge_values: Dict[str, int] = {}
    fiber_loops: List[Tuple[str, BassWord]] = []
    stable_loop: Optional[BassWord] = None
    peripheral: Dict[str, Dict[str, Tuple[str, ...]]] = {}

    def known(name: str, names, what: str, line: str) -> str:
        name = name.strip()
        if name not in names:
            raise FormatError(f"line {line!r} names unknown {what} {name!r}")
        return name

    for section, line in lines:
        if section == "colors":
            name, _, color = line.partition(":")
            colors[known(name, gog.vertex_slots, "vertex", line)] = color.strip().lower()
        elif section == "orientation":
            kind, _, rest = line.partition(" ")
            if kind == "vertex":
                name, _, values = rest.partition(":")
                name = known(name, gog.vertex_slots, "vertex", line)
                vertex_values[name] = tuple(parse_int(x, "orientation value") for x in values.split())
            elif kind == "edge":
                name, _, value = rest.partition(":")
                edge_values[known(name, gog.edge_ends, "edge", line)] = parse_int(value, "orientation value")
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
    # the candidate of each (source slot, target slot, line) met so far: the
    # same few lines recur for every vertex pair, and slot maps are immutable
    isos: Dict[tuple, SlotIso] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[candidates"):
            inner = line.strip("[]")[len("candidates"):].strip()
            src, _, dst = inner.partition("->")
            current = (src.strip(), dst.strip())
            for name, jsj in zip(current, (jsj_a, jsj_b)):
                if name not in jsj.gog.vertex_slots:
                    problem = f"names unknown vertex {name!r}" if name else "misses a vertex"
                    raise FormatError(f"whitelist header {line!r} {problem}")
            out.setdefault(current, [])
            continue
        if line.startswith("iso:"):
            if current is None:
                raise FormatError("iso line outside a candidates section")
            src_slot = jsj_a.gog.vslot(current[0])
            dst_slot = jsj_b.gog.vslot(current[1])
            key = (src_slot, dst_slot, line)
            if key in isos:
                out[current].append(isos[key])
                continue
            images = []
            for chunk in line[len("iso:"):].split(","):
                name, _, image = chunk.partition("->")
                images.append((name.strip(), dst_slot.parse(image.strip())))
            names = src_slot.gen_names()
            if [n for n, _ in images] != names:
                raise FormatError(
                    f"candidate must list images of {names} in order"
                )
            isos[key] = SlotIso(src_slot, dst_slot, tuple(img for _, img in images))
            out[current].append(isos[key])
            continue
        raise FormatError(f"bad whitelist line: {line!r}")
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
    vertex_map: Dict[str, str] = {}
    edge_map: Dict[str, str] = {}
    vertex_isos: Dict[str, SlotIso] = {}
    edge_isos: Dict[str, SlotIso] = {}
    gammas: Dict[str, SlotElement] = {}
    twist_entries: List[Tuple[str, SlotElement, int]] = []
    fiber_images: List[Tuple[str, BassWord]] = []
    stable_image: Optional[BassWord] = None
    for section, line in section_lines(text):
        if line.startswith("status:"):
            status = line.partition(":")[2].strip()
        elif line.startswith("detail:"):
            continue
        elif section == "vertex map":
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
