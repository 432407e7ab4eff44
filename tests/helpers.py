"""Shared test utilities: random words, markings, and brute-force oracles."""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from torusconj.fibercorrect import (
    invariant_factors,
    shift_smith,
    smith_diagonal,
    solve_linear_system,
    solve_with_nullspace,
)
from torusconj.freegroup import FreeAut, FreeGroup, Word, is_automorphism, is_characteristic, nielsen_generators
from torusconj.gog import GraphOfGroups, SlotElement, SlotIso, bar
from torusconj.minkowski import (
    CongruenceCertificate,
    GraphMarking,
    GraphSymmetry,
    RealizingGraph,
    TorsionRep,
    _gl_conjugacy_invariant,
    _power_chain,
)
from torusconj.whitehead import (
    Marking,
    ProductGroup,
    ProductMarking,
    WhiteheadMove,
    _moves_changing_length,
    mwp_product,
)


def random_word(rng: random.Random, group: FreeGroup, max_len: int) -> Word:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        letters.append((rng.randrange(group.rank), rng.choice((1, -1))))
    return group.word(letters)


def random_nontrivial_word(rng: random.Random, group: FreeGroup, max_len: int) -> Word:
    while True:
        w = random_word(rng, group, max_len)
        if not w.is_identity():
            return w


def words_of_length(group: FreeGroup, length: int) -> Iterator[Word]:
    """All freely reduced words of exactly the given length, lexicographic."""
    alphabet = [(i, s) for i in range(group.rank) for s in (1, -1)]
    if length == 0:
        yield group.identity()
        return

    def extend(prefix):
        if len(prefix) == length:
            yield Word(group, tuple(prefix))
            return
        for letter in alphabet:
            if prefix and prefix[-1] == (letter[0], -letter[1]):
                continue
            prefix.append(letter)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([])


@lru_cache(maxsize=None)
def alphabet_auts(group: FreeGroup) -> Dict[WhiteheadMove, FreeAut]:
    """Every nonidentity Whitehead move of the given rank, fixed order, with
    its automorphism folded by `is_automorphism`: the oracle for the moves
    of `torusconj.whitehead`, each move's letter images read off its
    folded automorphism."""
    n = group.rank
    moves: Dict[WhiteheadMove, FreeAut] = {}

    def add(kind, data, images):
        aut = is_automorphism(group, images)
        if aut is None:
            raise AssertionError("Whitehead move failed to be an automorphism")
        letters = [group.word([(x >> 1, -1 if x & 1 else 1)]) for x in range(2 * n)]
        codes = tuple(tuple(2 * i + (s < 0) for i, s in aut.apply(w).letters) for w in letters)
        moves[WhiteheadMove(kind, data, codes)] = aut

    # type I: signed permutations of the generators
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            if perm == tuple(range(n)) and all(s == 1 for s in signs):
                continue
            add("perm", (perm, signs), [group.word([(perm[i], signs[i])]) for i in range(n)])
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
                add("mult", (v, tuple(sorted(chosen))), images)
    return moves


def move_alphabet(group: FreeGroup) -> Tuple[WhiteheadMove, ...]:
    """The moves of `alphabet_auts`, in its order."""
    return tuple(alphabet_auts(group))


def relabel_profile(profile: Tuple[int, ...], pre: Tuple[int, ...]) -> Tuple[int, ...]:
    """The `whitehead._profile` of sigma(m) from that of m, where pre[y] is
    the index of the letter that sigma sends to letter y (as
    `tests/test_whitehead.py::oracle_relabellings` gives it): the oracle
    for `_matching_relabellings`."""
    width = len(pre)
    return tuple(profile[base + x] for base in range(0, len(profile), width) for x in pre)


def marking_minimize(m: Marking) -> Tuple[Marking, List[WhiteheadMove]]:
    """Greedy descent through canonical markings: each step applies the
    first shortening move that `whitehead._moves_changing_length` yields
    and canonicalizes its image.  The oracle for `whitehead.minimize`,
    which descends on letter indices."""
    current, applied = m, []
    while True:
        step = next(_moves_changing_length(current, lambda change: change < 0), None)
        if step is None:
            return current, applied
        move, current = step
        applied.append(move)


def subgroup_elements_up_to(group: FreeGroup, generators: List[Word], max_len: int) -> set:
    """Breadth-first enumeration of subgroup elements with reduced length <= max_len."""
    gens = [g for g in generators] + [g.inverse() for g in generators]
    seen = {group.identity()}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                cand = w * g
                if len(cand) <= max_len and cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return {w for w in seen if len(w) <= max_len}


def mat_mul(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def graph_isomorphisms(g1: GraphOfGroups, g2: GraphOfGroups) -> Iterator[Tuple[Dict, Dict]]:
    """All (vertex_map, oriented edge_map) graph isomorphisms."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.edge_names) != len(g2.edge_names):
        return
    for perm in itertools.permutations(g2.vertices):
        vmap = dict(zip(g1.vertices, perm))
        # group unoriented edges of g1 by endpoint pair images
        buckets: Dict[Tuple[str, str], List[str]] = {}
        target_buckets: Dict[Tuple[str, str], List[str]] = {}
        for e in g1.edge_names:
            u, v = g1.edge_ends[e]
            key = tuple(sorted((vmap[u], vmap[v])))
            buckets.setdefault(key, []).append(e)
        for f in g2.edge_names:
            u, v = g2.edge_ends[f]
            target_buckets.setdefault(tuple(sorted((u, v))), []).append(f)
        if set(buckets) != set(target_buckets):
            continue
        if any(len(buckets[k]) != len(target_buckets[k]) for k in buckets):
            continue
        keys = sorted(buckets)
        choices_per_key = []
        for key in keys:
            sources = buckets[key]
            targets = target_buckets[key]
            assignments = []
            for tperm in itertools.permutations(targets):
                for flips in itertools.product((False, True), repeat=len(sources)):
                    emap = {}
                    good = True
                    for e, f, flip in zip(sources, tperm, flips):
                        u, v = g1.edge_ends[e]
                        image = bar(f) if flip else f
                        if g2.init(image) != vmap[u] or g2.term(image) != vmap[v]:
                            good = False
                            break
                        emap[e] = image
                        emap[bar(e)] = bar(image)
                    if good:
                        assignments.append(emap)
            choices_per_key.append(assignments)
        for combo in itertools.product(*choices_per_key):
            emap: Dict[str, str] = {}
            for part in combo:
                emap.update(part)
            yield dict(vmap), emap


def spanning_forests(gog: GraphOfGroups) -> List[Tuple[str, ...]]:
    """Every maximal spanning forest of gog's graph, as a tuple of edges.
    All of them have the same size, so they are the acyclic edge sets of
    the largest size that has any."""

    def acyclic(edges) -> bool:
        parent = {v: v for v in gog.vertices}

        def root(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for e in edges:
            u, v = (root(x) for x in gog.edge_ends[e])
            if u == v:
                return False
            parent[u] = v
        return True

    for size in range(min(len(gog.edge_names), len(gog.vertices) - 1), -1, -1):
        forests = [f for f in itertools.combinations(gog.edge_names, size) if acyclic(f)]
        if forests:
            return forests
    return [()]


def abelian_invariants_by_tree(gog: GraphOfGroups, tree) -> Tuple[int, ...]:
    """Oracle for `abelian_invariants`, given a maximal spanning forest
    `tree`: H_1 presented on the vertex generators and every Bass edge, each
    Bass relator e^-1 i_e~(g) e == i_e(g) abelianized to i_e~(g) - i_e(g),
    and each edge of `tree` killed.  Center commutators vanish."""
    index = {}
    for v in gog.vertices:
        for i in range(gog.vslot(v).ngens):
            index[(v, i)] = len(index)
    for e in gog.edge_names:
        index[e] = len(index)
    columns = []
    for e in gog.edge_names:
        for gen in gog.eslot(e).generators():
            col = [0] * len(index)
            for sign, oriented in ((1, bar(e)), (-1, e)):
                image = gog.injection(oriented).apply(gen).abelianized()
                for i, x in enumerate(image):
                    col[index[(gog.term(oriented), i)]] += sign * x
            columns.append(col)
    for e in tree:
        columns.append([1 if key == e else 0 for key in index])
    rows = [[col[i] for col in columns] for i in range(len(index))]
    return invariant_factors(smith_diagonal(rows), len(index))


def invert_whitelist(whitelist):
    """The white candidates of the swapped pair of inputs: each candidate
    w -> w2 inverted, as a candidate w2 -> w."""
    out = {}
    for (src, dst), isos in whitelist.items():
        out.setdefault((dst, src), []).extend(iso.inverse() for iso in isos)
    return out


def serialize_whitelist(whitelist, jsj_a) -> str:
    """The whitelist file text that `pipeline.parse_whitelist` reads back."""
    lines = []
    for (src, dst), isos in sorted(whitelist.items()):
        lines.append(f"[candidates {src} -> {dst}]")
        names = jsj_a.gog.vslot(src).gen_names()
        for iso in isos:
            parts = [f"{n} -> {img.format()}" for n, img in zip(names, iso.images)]
            lines.append("iso: " + " , ".join(parts))
    return "\n".join(lines) + "\n"


class EdgeTransport(NamedTuple):
    """White-side data for one unoriented edge under a graph map."""

    edge_iso: SlotIso
    gamma_white: SlotElement  # at the white end orientation
    target_images: Tuple[SlotElement, ...]  # i_{e'} of the transported edge gens


def edge_transport(jsj_a, jsj_b, ew: str, ew2: str, phi_w) -> Optional[EdgeTransport]:
    """Reference edge transport, by a fresh conjugacy search per call:
    transport the edge group of `ew` (oriented towards its white vertex)
    onto `ew2` through the white vertex candidate `phi_w`.

    d conjugates the moved class onto the class of `ew2` (sigma == 1) or,
    for a cyclic edge group, onto its inverse (sigma == -1), so the edge
    isomorphism is g -> g^sigma and the gamma is d^-1.  The pipeline reads
    the same data off the conjugacy keys of its black tables."""
    from torusconj.pipeline import slot_elementwise_conjugator

    gog_a, gog_b = jsj_a.gog, jsj_b.gog
    wslot2 = gog_b.vslot(gog_b.term(ew2))
    moved = [phi_w.apply(x) for x in gog_a.injection(ew).images]
    targets = gog_b.injection(ew2).images
    d, sigma = slot_elementwise_conjugator(wslot2, moved, targets), 1
    if d is None and len(targets) == 1:
        d, sigma = slot_elementwise_conjugator(wslot2, moved, [targets[0].inverse()]), -1
    if d is None:
        return None
    images = tuple(g if sigma == 1 else g.inverse() for g in gog_b.eslot(ew2).generators())
    target_black = tuple(x if sigma == 1 else x.inverse() for x in gog_b.injection(bar(ew2)).images)
    return EdgeTransport(SlotIso(gog_a.eslot(ew), gog_b.eslot(ew2), images), d.inverse(), target_black)


def transport_options(jsj_a, jsj_b, whitelist, b: str, b2: str):
    """Oracle for the options of the black table at (b, b2): one full
    `edge_transport` per (edge into b, edge into b2, fop white candidate
    between their white ends).  Returns (options, transports): per sorted
    edge into b, the (f, k) whose transport exists, and those transports."""
    from torusconj.pipeline import _white_candidates

    gog_a, gog_b = jsj_a.gog, jsj_b.gog
    targets = sorted(f for f in gog_b.oriented_edges() if gog_b.term(f) == b2)
    options, transports = [], []
    for oe in sorted(e for e in gog_a.oriented_edges() if gog_a.term(e) == b):
        edge_options, edge_transports = [], []
        for f in targets:
            candidates = _white_candidates(jsj_a, jsj_b, whitelist, gog_a.init(oe), gog_b.init(f), {})
            for k, phi in enumerate(candidates):
                transport = edge_transport(jsj_a, jsj_b, bar(oe), bar(f), phi)
                if transport is not None:
                    edge_options.append((f, k))
                    edge_transports.append(transport)
        options.append(tuple(edge_options))
        transports.append(edge_transports)
    return options, transports


def match_black_slot(slot_a, o_a, slot_b, o_b, sources, targets):
    """Reference black matcher, independent of the black tables: a
    fiber-and-orientation isomorphism phi: slot_a -> slot_b (o_b . phi ==
    o_a) carrying each source class to a simultaneous conjugate of its
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

    def degree(o, x):
        return sum(v * d for v, d in zip(x.abelianized(), o))

    def fiber_marking(classes, o):
        return ProductMarking.of(product, [[(x.word, degree(o, x) // abs(o[-1])) for x in cls] for cls in classes])

    ok, psi = mwp_product(fiber_marking(sources, o_a), fiber_marking(targets, o_b))
    if not ok:
        return None
    images = []
    for i in range(slot_a.free_rank):
        image = SlotElement(slot_b, psi.apply(slot_b.free_group.generator(i)), 0)
        images.append(SlotElement(slot_b, image.word, (o_a[i] - degree(o_b, image)) // d_b))
    images.append(SlotElement(slot_b, slot_b.free_group.identity(), d_a // d_b))
    return SlotIso(slot_a, slot_b, tuple(images))


def _gl2_solve(o_src, o_dst, sources, targets):
    """M in GL_2(Z) with M s == t for each source/target pair and
    o_dst M == o_src, or None.  Exact: the constraints are linear in the
    entries of M, so a particular integer solution P and the integer
    nullspace are exact.  Every nullspace matrix N has o_dst N == 0 and
    N s == 0 for each source s, so N == u r^T with one factor fixed, and by
    the matrix determinant lemma det(P + sum c_k N_k) is affine in the
    coefficients c: one linear equation per sign of the determinant."""
    rows, rhs = [], []
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
    particular, basis = solved

    def det(e):
        return e[0] * e[3] - e[1] * e[2]

    d0 = det(particular)
    slopes = [det([p + v for p, v in zip(particular, vec)]) - d0 for vec in basis]
    for sign in (1, -1):
        coeffs = solve_linear_system([slopes], [sign - d0])
        if coeffs is not None:
            entry = list(particular)
            for c, vec in zip(coeffs, basis):
                entry = [e + c * v for e, v in zip(entry, vec)]
            return [entry[:2], entry[2:]]
    return None


def graph_symmetries(graph: RealizingGraph) -> List[GraphSymmetry]:
    """Every symmetry of `graph`: each vertex permutation that keeps the edge
    multiplicities, with every edge bijection over it, pair by sorted pair.
    Oracle for `minkowski.forest_free_symmetries`."""
    edges = graph.edges
    out = []
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for idx, (u, v) in enumerate(edges):
        by_pair.setdefault((u, v), []).append(idx)
    for vperm in itertools.permutations(range(graph.nvertices)):
        image_pairs = {}
        ok = True
        for pair, idxs in by_pair.items():
            u, v = pair
            target = tuple(sorted((vperm[u], vperm[v])))
            if target not in by_pair or len(by_pair[target]) != len(idxs):
                ok = False
                break
            image_pairs[pair] = target
        if not ok:
            continue
        per_pair_choices = []
        pair_list = sorted(by_pair)
        for pair in pair_list:
            idxs = by_pair[pair]
            targets = by_pair[image_pairs[pair]]
            u, v = pair
            choices = []
            for tperm in itertools.permutations(targets):
                if u == v:
                    # loops: each image may be traversed either way
                    for flips in itertools.product((False, True), repeat=len(idxs)):
                        choices.append(list(zip(tperm, flips)))
                else:
                    swapped = vperm[u] > vperm[v]
                    choices.append([(t, swapped) for t in tperm])
            per_pair_choices.append(choices)
        for combo in itertools.product(*per_pair_choices):
            emap: List[Tuple[int, bool]] = [None] * len(edges)  # type: ignore[list-item]
            for pair, assignment in zip(pair_list, combo):
                for src_idx, (dst_idx, flip) in zip(by_pair[pair], assignment):
                    emap[src_idx] = (dst_idx, flip)
            out.append(GraphSymmetry(vperm, tuple(emap)))
    return out


def invariant_forest(graph: RealizingGraph, sym: GraphSymmetry) -> Tuple[int, ...]:
    """The first edge orbit of `sym` that is a forest, as edge indices, or ().

    An orbit is a forest when it holds no loop and no cycle: a union-find
    over the ends of its edges never meets an edge whose ends are already
    joined.  A union of orbits is a forest only if each orbit is one, so
    `sym` leaves a nonempty forest invariant exactly when this is nonempty.
    """
    placed = [False] * len(graph.edges)
    for start in range(len(graph.edges)):
        if placed[start]:
            continue
        orbit = []
        idx = start
        while not placed[idx]:
            placed[idx] = True
            orbit.append(idx)
            idx = sym.emap[idx][0]
        parent = list(range(graph.nvertices))
        for idx in orbit:
            u, v = graph.edges[idx]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                break
            parent[u] = v
        else:
            return tuple(orbit)
    return ()


def matrix_order(m) -> Optional[int]:
    """The order of m in GL_n(Z), or None when it is infinite."""
    chain = _power_chain(m)
    return None if chain is None else len(chain)


def gl2_finite_order_classes(entry_bound: int = 2) -> List[Tuple[Tuple[int, ...], ...]]:
    """Bounded-entry enumeration of finite-order elements of GL_2(Z), one per
    conjugacy invariant (order, trace, det)."""
    classes: Dict[tuple, Tuple[Tuple[int, ...], ...]] = {}
    rng = range(-entry_bound, entry_bound + 1)
    for a, b, c, d in itertools.product(rng, repeat=4):
        det = a * d - b * c
        if det not in (1, -1):
            continue
        m = ((a, b), (c, d))
        order = matrix_order(m)
        if order is None:
            continue
        key = (order, a + d, det, shift_smith(m))
        if key not in classes:
            classes[key] = m
    return sorted(classes.values())


def realizing_graphs_oracle(rank: int) -> List[RealizingGraph]:
    """Brute-force oracle for `minkowski.realizing_graphs`: every multiset of
    edge slots, kept when connected with all degrees >= 3, keyed by its
    canonical edge list."""
    found: Dict[tuple, RealizingGraph] = {}
    max_vertices = 2 * rank - 2
    for nv in range(1, max_vertices + 1):
        ne = nv + rank - 1
        slots = [(u, v) for u in range(nv) for v in range(u, nv)]
        for combo in itertools.combinations_with_replacement(slots, ne):
            graph = RealizingGraph(nv, tuple(sorted(combo)))
            if min(graph.degrees(), default=0) < 3:
                continue
            if not graph.is_connected():
                continue
            key = (nv, graph.canonical())
            if key not in found:
                found[key] = graph
    return [RealizingGraph(nv, edges) for (nv, edges) in sorted(found.keys())]


def culler_reps_oracle(rank: int, graphs: Optional[List[RealizingGraph]] = None) -> List[TorsionRep]:
    """Oracle for `minkowski.culler_reps` at rank >= 2 that keys every
    symmetry of every realizing graph, with or without an invariant forest;
    the graphs are `realizing_graphs_oracle(rank)` unless given."""
    group = FreeGroup(rank)
    reps: Dict[tuple, TorsionRep] = {}
    seen: set = set()
    for graph in realizing_graphs_oracle(rank) if graphs is None else graphs:
        marking = GraphMarking.of(graph)
        for sym in graph_symmetries(graph):
            mat = marking.homology(sym)
            if mat in seen:
                continue
            chain = _power_chain(mat)
            seen.add(mat)
            seen.add(chain[-2] if len(chain) > 1 else mat)  # M^-1
            key = _gl_conjugacy_invariant(chain)
            if key not in reps:
                reps[key] = TorsionRep(marking.automorphism(sym, group), len(chain), graph.name())
    return sorted(reps.values(), key=lambda r: (r.outer_order, r.provenance))


def generic_certificate_check(cert: CongruenceCertificate) -> bool:
    """Reference for `CongruenceCertificate.verify` that assumes nothing
    about the kernel or the quotients: the kernel is characteristic under
    the Nielsen generators, it lies in every witness quotient's kernel (its
    fiber product with the quotient's coset graph is itself), and every
    witness's recorded images are right and not conjugate in the image."""
    if not is_characteristic(cert.kernel, nielsen_generators(cert.group)):
        return False
    for entry in cert.entries:
        witness = entry.witness
        q = witness.quotient
        if cert.kernel.intersect(q.kernel_graph()) != cert.kernel:
            return False
        img = q.image_of(witness.word)
        img_a = q.image_of(entry.rep.aut.apply(witness.word))
        if img != witness.image_word or img_a != witness.image_aut_word:
            return False
        for h in q.image_group():
            h_inv = {v: k for k, v in enumerate(h)}
            if tuple(h_inv[img[h[x]]] for x in range(q.degree)) == img_a:
                return False
    return True
