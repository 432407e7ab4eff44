"""Effective Minkowskian certificates for free groups, Z^2, and F_k x Z.

Finite-order outer-automorphism representatives are enumerated from graph
symmetries (realization on graphs with all vertex degrees >= 3).  Every one
is separated by the same characteristic kernel K_3, the kernel of
F_n -> H_1(F_n; Z/3) = (Z/3)^n.  A nontrivial finite-order outer class has
a nontrivial image M in GL_n(Z) (Baumslag-Taylor, 1968), and the kernel of
GL_n(Z) -> GL_n(Z/3) is torsion-free (Minkowski, 1887), so M is not the
identity mod 3.  An entry (i, j) with M_ij != delta_ij mod 3 gives the
witness: the images of x_j and alpha(x_j) differ in the quotient F_n -> Z/3
that sends x_i to a 3-cycle and every other generator to 1, and differing
elements of an abelian group are not conjugate.  Each witness kernel
contains K_3, so no search, intersection or closure is needed.  K_3 is
``stallings.homology_kernel(F_n, 3)``, the builder that also gives the
index-<=2 congruence kernel.

A symmetry's class is read off its action on homology (the signed edge
counts of the marking loops it moves), and so is its order: the power chain
M, M^2, ... stops at the first power that is the identity mod 3, which is
the identity exactly when M has finite order, by the same torsion-free
kernel.  The class key takes the Smith invariants of M^k - I from the
elimination without its transforms.  Only one symmetry per class is turned
into an automorphism: the loops' images under it, and the inverse images
under the inverse symmetry, conjugated by the image of one tree path, with
one check that the two compose to the identity.  Nothing is folded.

A symmetry that leaves a forest invariant is never built: collapsing that
forest equivariantly gives a graph with fewer vertices, met earlier, on
which the induced symmetry acts on homology by a GL_n(Z)-conjugate matrix
(Culler, Finite groups of outer automorphisms of a free group, Contemp.
Math. 33, 1984; Krstic-Vogtmann, Comment. Math. Helv. 68, 1993), so its
class is already known.  Whether it has such a forest is read per orbit O
of vertex pairs under its vertex permutation: an edge orbit over O passes
each pair of O equally often, so it is a forest exactly when it passes each
pair once and the pairs of O span a forest.  The graphs' edge multisets
keep non-increasing degrees as they are built, each graph class is
canonicalized once per call (its first labelled edge list records all of
its relabellings in a table that lives for that call, and later labellings
of the class are skipped on sight), and the classes are listed up to
`RANK_BOUND`.

A certificate's kernel is checked to lie in each witness quotient's kernel
by one walk over its graph, labelling every state with the image of a path
to it, with no fiber product.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import DomainError, ResourceError
from .freegroup import (
    FreeAut,
    FreeGroup,
    SubgroupGraph,
    Word,
    homology_kernel,
    is_characteristic,
    nielsen_generators,
)
from .freegroup.stallings import _core_and_canonicalize
from .fibercorrect import smith_diagonal

RANK_BOUND = 4


# ---------------------------------------------------------------------------
# finite quotients as permutation images


@dataclass(frozen=True)
class FiniteQuotient:
    """A homomorphism to S_degree, one permutation per generator."""

    group: FreeGroup
    degree: int
    perms: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.perms) != self.group.rank:
            raise DomainError("one permutation per generator required")
        for p in self.perms:
            if sorted(p) != list(range(self.degree)):
                raise DomainError("images must be permutations of the degree")

    def image_of(self, w: Word) -> Tuple[int, ...]:
        current = tuple(range(self.degree))
        for i, s in w.letters:
            p = self.perms[i] if s > 0 else _perm_inverse(self.perms[i])
            current = _perm_compose(p, current)
        return current

    def image_group(self) -> Set[Tuple[int, ...]]:
        identity = tuple(range(self.degree))
        seen = {identity}
        frontier = [identity]
        while frontier:
            g = frontier.pop()
            for p in self.perms:
                h = _perm_compose(p, g)
                if h not in seen:
                    seen.add(h)
                    frontier.append(h)
        return seen

    def kernel_graph(self) -> SubgroupGraph:
        """Coset graph of the kernel: the Cayley graph of the image."""
        elements = sorted(self.image_group())
        index = {g: k for k, g in enumerate(elements)}
        fwd = [
            [index[_perm_compose(self.perms[i], g)] for g in elements]
            for i in range(self.group.rank)
        ]
        identity = tuple(range(self.degree))
        return _core_and_canonicalize(self.group, len(elements), fwd, index[identity])

    def kernel_contains(self, graph: SubgroupGraph) -> bool:
        """Whether the subgroup of `graph` lies in the kernel.

        Each state is labelled with the image of a path to it from the base.
        The subgroup maps to the identity exactly when the labels agree
        along every edge, since a disagreeing edge closes a base loop with a
        nontrivial image; the walk stops at the first disagreement.
        """
        steps = [
            (fwd, bwd, p, _perm_inverse(p))
            for fwd, bwd, p in zip(graph.fwd, graph.bwd, self.perms)
        ]
        label = {graph.base: tuple(range(self.degree))}
        frontier = [graph.base]
        while frontier:
            s = frontier.pop()
            g = label[s]
            for fwd, bwd, p, p_inv in steps:
                for t, step in ((fwd[s], p), (bwd[s], p_inv)):
                    if t is None:
                        continue
                    image = _perm_compose(step, g)
                    known = label.get(t)
                    if known is None:
                        label[t] = image
                        frontier.append(t)
                    elif known != image:
                        return False
        return True


def conjugate_in(image: Set[Tuple[int, ...]], a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Whether h^-1 a h == b for some h in the permutation group `image`."""
    return any(_perm_compose(_perm_compose(_perm_inverse(h), a), h) == b for h in image)


def _perm_compose(p, q):
    """(p compose q)(x) == p[q[x]]."""
    return tuple(map(p.__getitem__, q))


def _perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle_type(p: Tuple[int, ...]) -> Tuple[int, ...]:
    seen = [False] * len(p)
    sizes = []
    for start in range(len(p)):
        if seen[start]:
            continue
        size = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            size += 1
        sizes.append(size)
    return tuple(sorted(sizes))


# ---------------------------------------------------------------------------
# graphs with all vertex degrees >= 3 and their symmetries


@dataclass(frozen=True)
class RealizingGraph:
    """Multigraph as a sorted tuple of unoriented edges (u, v) with u <= v."""

    nvertices: int
    edges: Tuple[Tuple[int, int], ...]

    def degrees(self) -> List[int]:
        deg = [0] * self.nvertices
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_connected(self) -> bool:
        if self.nvertices == 0:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for u, v in self.edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in seen:
                        seen.add(b)
                        frontier.append(b)
        return len(seen) == self.nvertices

    def relabellings(self) -> List[Tuple[Tuple[int, int], ...]]:
        """The sorted edge list under each of the nv! vertex relabellings."""
        return [
            tuple(sorted((p[u], p[v]) if p[u] <= p[v] else (p[v], p[u]) for u, v in self.edges))
            for p in itertools.permutations(range(self.nvertices))
        ]

    def canonical(self) -> Tuple[Tuple[int, int], ...]:
        """The least sorted edge list over all vertex relabellings."""
        return min(self.relabellings())

    def name(self) -> str:
        loops = sum(1 for u, v in self.edges if u == v)
        if self.nvertices == 1:
            return f"rose{len(self.edges)}"
        if loops == 0 and self.nvertices == 2:
            return f"theta{len(self.edges)}"
        if loops == 2 and self.nvertices == 2:
            return "dumbbell"
        return f"graph_v{self.nvertices}_e{len(self.edges)}"


def realizing_graphs(rank: int) -> List[RealizingGraph]:
    """Connected multigraphs, all degrees >= 3, first Betti number == rank.

    The edge multisets on nv vertices are generated slot by slot in
    lexicographic order.  A vertex never rises above 2*ne - 3*(nv - 1), the
    degree left once every other vertex has degree 3; a branch is cut once
    its remaining edge ends cannot lift every vertex to degree 3, or once a
    vertex that no later slot touches is below 3; the edge ends still
    missing are kept as a running count.  Only a multiset with
    non-increasing degrees is kept (every graph has such a labelling), and
    once row u of the slots starts, vertex u - 1 is touched no more, so a
    slot that would lift u or v above the degree of u - 1 is skipped.  Each
    kept multiset is keyed by its least relabelling, which is
    `canonical()`, and the list is built from the keys.  The first
    labelling met of each class records all of the class's labellings, so
    a later one is skipped without a connectivity check, a relabelling or
    a `RealizingGraph`; the record lives for this call only.
    """
    if rank < 2:
        raise DomainError("realizing graphs need rank >= 2")
    keys: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = []
    met: Set[Tuple[Tuple[int, int], ...]] = set()
    for nv in range(1, 2 * rank - 1):
        ne = nv + rank - 1
        cap = 2 * ne - 3 * (nv - 1)
        slots = [(u, v) for u in range(nv) for v in range(u, nv)]
        degree = [0] * nv
        edges: List[Tuple[int, int]] = []

        def extend(start: int, deficit: int) -> None:
            # deficit: the edge ends still needed to lift every vertex to 3
            ends_left = 2 * (ne - len(edges))
            if deficit > ends_left:
                return
            if not ends_left:
                labelled = tuple(edges)
                if labelled not in met and all(a >= b for a, b in zip(degree, degree[1:])):
                    graph = RealizingGraph(nv, labelled)
                    if graph.is_connected():
                        labellings = graph.relabellings()
                        met.update(labellings)
                        keys.append((nv, min(labellings)))
                return
            for k in range(start, len(slots)):
                u, v = slots[k]
                if u and degree[u - 1] < 3:
                    return  # no later slot touches vertex u - 1
                # vertex u - 1 is final, and no vertex after it may exceed it
                top = degree[u - 1] if u else cap
                if degree[u] + 1 + (u == v) > top or degree[v] >= top:
                    continue  # a loop adds 2 to its vertex
                lifted = (degree[u] < 3) + (degree[v] + (u == v) < 3)
                degree[u] += 1
                degree[v] += 1
                edges.append((u, v))
                extend(k, deficit - lifted)
                edges.pop()
                degree[u] -= 1
                degree[v] -= 1

        extend(0, 3 * nv)
    return [RealizingGraph(nv, edges) for nv, edges in sorted(keys)]


@dataclass(frozen=True)
class GraphSymmetry:
    """Vertex permutation plus an orientation-aware bijection on edges."""

    vperm: Tuple[int, ...]
    # per edge index: (image edge index, flipped?)
    emap: Tuple[Tuple[int, bool], ...]


def forest_free_symmetries(graph: RealizingGraph) -> Iterator[GraphSymmetry]:
    """The symmetries of `graph` that leave no forest invariant, ordered by
    vertex permutation and then by edge bijection, pair by sorted pair.

    A vertex permutation pi permutes the non-loop vertex pairs in orbits.
    An edge orbit over a pair orbit O passes every pair of O equally often,
    and one that passes a pair twice holds two parallel edges, a cycle.  So
    an edge orbit over O is a forest exactly when it passes each pair once,
    which is when the return map on O's first pair fixes its edge, and the
    pairs of O span a forest; a loop is never a forest.  A pi with such an
    O of single edges is dropped before any edge bijection is built, and
    under a forest O of parallel edges only the bijections whose return
    map on O's first pair has no fixed point are kept.
    """
    edges = graph.edges
    by_pair: Dict[Tuple[int, int], List[int]] = {}
    for idx, pair in enumerate(edges):
        by_pair.setdefault(pair, []).append(idx)
    pair_list = sorted(by_pair)
    for vperm in itertools.permutations(range(graph.nvertices)):
        image_pairs = {}
        for u, v in pair_list:
            a, b = vperm[u], vperm[v]
            target = (a, b) if a <= b else (b, a)
            if len(by_pair.get(target, ())) != len(by_pair[u, v]):
                break
            image_pairs[u, v] = target
        else:
            # (edges over the first pair, orbit length) per forest pair
            # orbit of parallel edges, whose return map must move each edge
            deranged: List[Tuple[List[int], int]] = []
            placed: Set[Tuple[int, int]] = set()
            for first in pair_list:
                if first in placed or first[0] == first[1]:
                    continue
                orbit = [first]
                while image_pairs[orbit[-1]] != first:
                    orbit.append(image_pairs[orbit[-1]])
                placed.update(orbit)
                if _spans_forest(orbit, graph.nvertices):
                    if len(by_pair[first]) == 1:
                        break
                    deranged.append((by_pair[first], len(orbit)))
            else:
                yield from _edge_bijections(graph, vperm, by_pair, pair_list, image_pairs, deranged)


def _spans_forest(pairs: Sequence[Tuple[int, int]], nvertices: int) -> bool:
    """Whether distinct vertex pairs span a forest: a union-find over their
    ends never meets a pair whose ends are already joined."""
    parent = list(range(nvertices))
    for u, v in pairs:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            return False
        parent[u] = v
    return True


def _edge_bijections(graph, vperm, by_pair, pair_list, image_pairs, deranged) -> Iterator[GraphSymmetry]:
    """The edge bijections over `vperm`, in product order over `pair_list`,
    whose return maps move every edge listed in `deranged`."""
    per_pair_choices = []
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
        emap: List[Tuple[int, bool]] = [None] * len(graph.edges)  # type: ignore[list-item]
        for pair, assignment in zip(pair_list, combo):
            for src_idx, image in zip(by_pair[pair], assignment):
                emap[src_idx] = image
        if any(_returns(emap, idx, length) for idxs, length in deranged for idx in idxs):
            continue
        yield GraphSymmetry(vperm, tuple(emap))


def _returns(emap, idx: int, length: int) -> bool:
    """Whether `length` steps of `emap` bring edge `idx` back to itself."""
    dst = idx
    for _ in range(length):
        dst = emap[dst][0]
    return dst == idx


Oriented = Tuple[Tuple[int, bool], ...]  # (edge index, reversed?) per step
Matrix = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class GraphMarking:
    """A spanning tree of a realizing graph and its fundamental loops.

    Generator k is the loop through the k-th non-tree edge: the tree path
    from vertex 0 to its start, the edge, and the tree path back.  A
    symmetry is read through the loops it moves; different tree choices
    move the representative by an inner factor only.
    """

    index: Dict[int, int]  # non-tree edge index -> its generator
    paths: Tuple[Oriented, ...]  # oriented tree path from vertex 0, per vertex
    loops: Tuple[Oriented, ...]  # per generator

    @classmethod
    def of(cls, graph: RealizingGraph) -> "GraphMarking":
        # build a spanning tree over the non-loop edges
        tree: Dict[int, Optional[int]] = {0: None}
        changed = True
        while changed:
            changed = False
            for idx, (u, v) in enumerate(graph.edges):
                if u == v:
                    continue
                for a, b in ((u, v), (v, u)):
                    if a in tree and b not in tree:
                        tree[b] = idx
                        changed = True
        tree_edges = set(tree.values())
        basis = [idx for idx in range(len(graph.edges)) if idx not in tree_edges]

        def tree_path(v: int) -> Oriented:
            path = []
            while tree[v] is not None:
                idx = tree[v]
                u, w = graph.edges[idx]
                if w == v:
                    path.append((idx, False))
                    v = u
                else:
                    path.append((idx, True))
                    v = w
            return tuple(reversed(path))

        paths = tuple(tree_path(v) for v in range(graph.nvertices))
        loops = []
        for idx in basis:
            u, v = graph.edges[idx]
            back = tuple((e, not r) for e, r in reversed(paths[v]))
            loops.append(paths[u] + ((idx, False),) + back)
        return cls({idx: k for k, idx in enumerate(basis)}, paths, tuple(loops))

    def read(self, emap, oriented: Oriented) -> List[Tuple[int, int]]:
        """rho of the image of an edge path under the edge map `emap`: the
        signed generators of the non-tree edges it passes.  On a closed path
        at any vertex, rho is its class carried back to vertex 0 along the
        tree, whose edges read as nothing."""
        index = self.index
        out = []
        for idx, reversed_ in oriented:
            dst, flip = emap[idx]
            if dst in index:
                out.append((index[dst], -1 if reversed_ != flip else 1))
        return out

    def homology(self, sym: GraphSymmetry) -> Matrix:
        """M[i][j]: the signed count of basis edge i in the image of loop j,
        which is abelianization(images(sym))."""
        index = self.index
        mat = [[0] * len(index) for _ in index]
        for j, loop in enumerate(self.loops):
            for idx, reversed_ in loop:
                dst, flip = sym.emap[idx]
                if dst in index:
                    mat[index[dst]][j] += -1 if reversed_ != flip else 1
        return tuple(map(tuple, mat))

    def images(self, sym: GraphSymmetry, group: FreeGroup) -> List[Word]:
        """phi(x_j) == rho(s(loop_j)) for the symmetry s."""
        assert len(self.index) == group.rank
        return [group.word(self.read(sym.emap, loop)) for loop in self.loops]

    def automorphism(self, sym: GraphSymmetry, group: FreeGroup) -> FreeAut:
        """The automorphism phi of `images`, with its inverse read off s^-1.

        phi_{s^-1} phi_s is the conjugation x -> c x c^-1 by
        c == rho(s^-1(path to s(v0))), so psi(x_j) ==
        c^-1 rho(s^-1(loop_j)) c is a left inverse of phi.  Checking
        phi(psi(x_j)) == x_j for every j shows that phi is onto, hence an
        automorphism (F_n is Hopfian), with inverse psi.  Nothing is folded.
        """
        inverse_emap = {dst: (idx, flip) for idx, (dst, flip) in enumerate(sym.emap)}
        conj = self.read(inverse_emap, self.paths[sym.vperm[0]])
        inverse_conj = [(i, -sign) for i, sign in reversed(conj)]
        inverse_images = [
            group.word(inverse_conj + self.read(inverse_emap, loop) + conj) for loop in self.loops
        ]
        aut = FreeAut(group, self.images(sym, group), inverse_images)
        for i, w in enumerate(inverse_images):
            if aut.apply(w) != group.generator(i):
                raise AssertionError("graph symmetry failed to give an automorphism")
        return aut


# ---------------------------------------------------------------------------
# torsion representatives


@dataclass(frozen=True)
class TorsionRep:
    aut: FreeAut
    outer_order: int
    provenance: str


def _power_chain(m: Sequence[Sequence[int]]) -> Optional[List[Matrix]]:
    """The powers m, m^2, ..., m^o == I when m has finite order o, else None.

    The chain stops at the least k with m^k == I mod 3, which exists since
    m is invertible mod 3, as every matrix of GL_n(Z) is.  The kernel of
    GL_n(Z) -> GL_n(Z/3) is torsion-free (Minkowski), so m^k == I exactly
    when m has finite order, and then k is that order; otherwise m^k is a
    nonidentity element of the kernel and m has infinite order.  This is
    exact at every rank.
    """
    m = tuple(map(tuple, m))
    identity = tuple(tuple(int(i == j) for j in range(len(m))) for i in range(len(m)))
    cols = tuple(zip(*m))
    chain = [m]
    power = m
    while power != identity:
        if all((x - y) % 3 == 0 for row, one in zip(power, identity) for x, y in zip(row, one)):
            return None
        power = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in power)
        chain.append(power)
    return chain


def _gl_conjugacy_invariant(chain: Sequence[Matrix]) -> tuple:
    """Dedup key from the power chain of M: the order o, then the Smith
    invariants of M^k - I for k = 1..o.  Entries k and o - k agree, since
    M^-k - I == -M^-k (M^k - I) with M^-k unimodular, so only k <= o/2 is
    computed; M^o - I is zero."""
    order = len(chain)
    half = [_shift_smith(power) for power in chain[: order // 2]]
    mirrored = [half[min(k, order - k) - 1] for k in range(1, order)]
    return (order, *mirrored, (0,) * len(chain[0]))


def _shift_smith(mat) -> Tuple[int, ...]:
    """The Smith invariants of M - I, a GL_n(Z) conjugacy invariant of M."""
    n = len(mat)
    return tuple(smith_diagonal([[mat[i][j] - (i == j) for j in range(n)] for i in range(n)]))


def culler_reps(rank: int) -> List[TorsionRep]:
    """Representatives of the finite-order outer classes, one per class key,
    from graph symmetries.

    Rank 1 is special-cased (the outer group is Z/2); otherwise the
    degree-capped realizing graphs are enumerated, each gets one spanning-tree
    marking, and each of its symmetries is read through that marking.  The
    class key and outer order depend only on the homology matrix M
    (Baumslag-Taylor), which is read straight off the marking's loops, and
    both come from one power chain M, M^2, ..., I, which is exact
    (`_power_chain`).  M^-1 has the same key, so it is marked as seen
    together with M.  Only a symmetry with a new key is turned into an
    automorphism, written down with its inverse
    (`GraphMarking.automorphism`).

    A symmetry with an invariant forest is never built
    (`forest_free_symmetries`), and this changes no output.  Collapsing
    that forest equivariantly gives a connected graph with the same Betti
    number, all degrees >= 3 and strictly fewer vertices, so it is in the
    list and comes earlier: the graphs are processed in (nvertices,
    canonical) order.  The collapse is a homotopy equivalence that
    commutes with the symmetries, so
    the induced symmetry there acts on homology by a GL_n(Z)-conjugate
    matrix, which has the same key (Culler 1984; Krstic-Vogtmann 1993).  By
    induction on the vertex count, that key was already found there, so
    the first symmetry with each key never has an invariant forest, and the
    same representatives come out in the same order.

    The key has not been proved a complete GL_n(Z) conjugacy invariant, so
    this is one representative per key.  A graph symmetry has finite order,
    so its chain always ends in I.  `RANK_BOUND` caps the rank because the
    per-call tables of `realizing_graphs` grow with nv!, not because the
    method stops.
    """
    if rank > RANK_BOUND:
        raise ResourceError(f"culler_reps supports rank <= RANK_BOUND = {RANK_BOUND}")
    group = FreeGroup(rank)
    if rank == 1:
        inverse = [group.generator(0).inverse()]
        flip = FreeAut(group, inverse, inverse)  # x -> x^-1 is its own inverse
        return [
            TorsionRep(FreeAut.identity(group), 1, "rose1"),
            TorsionRep(flip, 2, "rose1"),
        ]
    reps: Dict[tuple, TorsionRep] = {}
    seen: Set[Matrix] = set()
    for graph in realizing_graphs(rank):
        marking = GraphMarking.of(graph)
        for sym in forest_free_symmetries(graph):
            mat = marking.homology(sym)
            if mat in seen:
                continue
            chain = _power_chain(mat)
            if chain is None:
                raise AssertionError("a graph symmetry acts on homology with infinite order")
            seen.add(mat)
            seen.add(chain[-2] if len(chain) > 1 else mat)  # M^-1
            key = _gl_conjugacy_invariant(chain)
            if key not in reps:
                reps[key] = TorsionRep(marking.automorphism(sym, group), len(chain), graph.name())
    return sorted(reps.values(), key=lambda r: (r.outer_order, r.provenance))


# ---------------------------------------------------------------------------
# separation in the mod-3 homology quotient


@dataclass(frozen=True)
class SeparationWitness:
    word: Word
    quotient: FiniteQuotient
    image_word: Tuple[int, ...]
    image_aut_word: Tuple[int, ...]

    def cycle_types(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        return cycle_type(self.image_word), cycle_type(self.image_aut_word)


def mod3_witness(aut: FreeAut) -> SeparationWitness:
    """The generator x_j in the quotient F -> Z/3 sending x_i to (1, 2, 0)
    and every other generator to 1, for the first (i, j) where the exponent
    sum of x_i in aut(x_j) is not delta_ij mod 3.

    Every automorphism of nontrivial finite outer order has such a pair
    (Baumslag-Taylor with Minkowski); finding none raises AssertionError.
    """
    group = aut.group
    mat = aut.abelianized()
    for i, j in itertools.product(range(group.rank), repeat=2):
        if (mat[i][j] - (i == j)) % 3:
            identity = tuple(range(3))
            perms = tuple((1, 2, 0) if k == i else identity for k in range(group.rank))
            quotient = FiniteQuotient(group, 3, perms)
            word = group.generator(j)
            return SeparationWitness(
                word, quotient, quotient.image_of(word), quotient.image_of(aut.apply(word))
            )
    raise AssertionError("automorphism is the identity mod 3, so not of nontrivial finite outer order")


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertifiedRep:
    rep: TorsionRep
    witness: SeparationWitness


@dataclass(frozen=True)
class CongruenceCertificate:
    group: FreeGroup
    kernel: SubgroupGraph
    entries: Tuple[CertifiedRep, ...]
    center_modulus: Optional[int] = None  # for F_k x Z certificates

    def verify(self) -> bool:
        """Re-check characteristicity and every non-conjugacy witness."""
        if not is_characteristic(self.kernel, nielsen_generators(self.group)):
            return False
        # entries share quotients: each distinct one is checked once to
        # contain the certified kernel in its own, and its image group is
        # built once for the non-conjugacy checks of all of its entries
        by_quotient: Dict[FiniteQuotient, List[CertifiedRep]] = {}
        for entry in self.entries:
            by_quotient.setdefault(entry.witness.quotient, []).append(entry)
        for q, entries in by_quotient.items():
            if not q.kernel_contains(self.kernel):
                return False
            image = q.image_group()
            for entry in entries:
                img = q.image_of(entry.witness.word)
                img_a = q.image_of(entry.rep.aut.apply(entry.witness.word))
                if img != entry.witness.image_word or img_a != entry.witness.image_aut_word:
                    return False
                if conjugate_in(image, img, img_a):
                    return False
        return True

    def serialize(self) -> str:
        lines = [f"rank: {self.group.rank}"]
        if self.center_modulus is not None:
            lines.append(f"center modulus: {self.center_modulus}")
        lines.append("kernel:")
        lines.append(self.kernel.serialize().rstrip())
        for entry in self.entries:
            rep, wit = entry.rep, entry.witness
            lines.append(f"representative: order {rep.outer_order} via {rep.provenance}")
            lines.append(
                "  images: "
                + ", ".join(
                    f"{self.group.names[i]} -> {img.format()}"
                    for i, img in enumerate(rep.aut.images)
                )
            )
            lines.append(f"  witness word: {wit.word.format()}")
            lines.append(f"  quotient degree: {wit.quotient.degree}")
            lines.append(
                "  quotient perms: "
                + "; ".join(str(list(p)) for p in wit.quotient.perms)
            )
            ct1, ct2 = wit.cycle_types()
            lines.append(f"  images: {list(wit.image_word)} vs {list(wit.image_aut_word)}")
            lines.append(f"  cycle types: {ct1} vs {ct2}")
        return "\n".join(lines) + "\n"


def characteristic_closure(graph: SubgroupGraph) -> SubgroupGraph:
    """Intersection of the Aut-orbit of a finite-index subgroup.

    The orbit of a finite-index subgroup under the Nielsen generators is
    finite; the intersection is the largest characteristic subgroup inside
    all of its images.  Each generator permutes the finitely many subgroups
    of a given index, so closing under their preimages gives the same orbit
    as closing under their images.
    """
    if not graph.is_complete():
        raise DomainError("characteristic closure requires a finite-index subgroup")
    auts = nielsen_generators(graph.group)
    orbit = {graph}
    frontier = [graph]
    while frontier:
        g = frontier.pop()
        for aut in auts:
            preimage = g.preimage_under(aut)
            if preimage not in orbit:
                if len(orbit) > 512:
                    raise ResourceError("Aut-orbit of the kernel exceeded 512 subgroups")
                orbit.add(preimage)
                frontier.append(preimage)
    first, *rest = sorted(orbit, key=lambda x: (x.nstates, x.fwd))
    return first.intersect(*rest)


def certify(rank: int) -> CongruenceCertificate:
    """K_3 with a mod-3 witness for every nontrivial class of culler_reps."""
    group = FreeGroup(rank)
    entries = tuple(
        CertifiedRep(rep, mod3_witness(rep.aut))
        for rep in culler_reps(rank)
        if rep.outer_order != 1
    )
    certificate = CongruenceCertificate(group, homology_kernel(group, 3), entries)
    if not certificate.verify():
        raise AssertionError("the mod-3 certificate failed verification")
    return certificate


# ---------------------------------------------------------------------------
# Z^2 specialization


@dataclass(frozen=True)
class ZSquareCertificate:
    modulus: int
    representatives: Tuple[Tuple[Tuple[int, ...], ...], ...]

    def verify(self) -> bool:
        for m in self.representatives:
            reduced = tuple(
                tuple(x % self.modulus for x in row) for row in m
            )
            if reduced == ((1, 0), (0, 1)):
                return False
        return True


def certify_zsquare() -> ZSquareCertificate:
    """Kernel 3 Z^2: Minkowski's congruence separates all finite order.  The
    classes are the homology matrices of the nontrivial `culler_reps(2)`,
    since Out(F_2) -> GL_2(Z) is an isomorphism (Nielsen)."""
    reps = tuple(
        tuple(map(tuple, rep.aut.abelianized())) for rep in culler_reps(2) if rep.outer_order != 1
    )
    cert = ZSquareCertificate(3, reps)
    if not cert.verify():
        raise AssertionError("3 Z^2 failed to separate a finite-order class")
    return cert


# ---------------------------------------------------------------------------
# F_k x Z


def certify_product(rank: int) -> CongruenceCertificate:
    """Certificate for F_rank x Z: the free-part certificate combined with a
    center quotient of order 3 that separates the orientation flip."""
    if rank == 1:
        raise DomainError("rank 1 products are Z^2; use certify_zsquare")
    base = certify(rank)
    return CongruenceCertificate(base.group, base.kernel, base.entries, center_modulus=3)
