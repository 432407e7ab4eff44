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
counts of the marking loops it moves), so only one symmetry per class is
turned into image words and folded into an automorphism.  A symmetry that
leaves a forest invariant is not read at all: collapsing that forest
equivariantly gives a graph with fewer vertices, met earlier, on which the
induced symmetry acts on homology by a GL_n(Z)-conjugate matrix (Culler,
Finite groups of outer automorphisms of a free group, Contemp. Math. 33,
1984; Krstic-Vogtmann, Comment. Math. Helv. 68, 1993), so its class is
already known.  Each graph class is canonicalized once per call: its first
labelled edge list records all of its relabellings in a table that lives
for that call, and later labellings of the class are skipped on sight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import DomainError, ResourceError
from .freegroup import (
    FreeAut,
    FreeGroup,
    SubgroupGraph,
    Word,
    homology_kernel,
    is_automorphism,
    is_characteristic,
    nielsen_generators,
)
from .freegroup.stallings import _core_and_canonicalize
from .fibercorrect import smith_normal_form

RANK_BOUND = 3


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


def conjugate_in(image: Set[Tuple[int, ...]], a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Whether h^-1 a h == b for some h in the permutation group `image`."""
    return any(_perm_compose(_perm_compose(_perm_inverse(h), a), h) == b for h in image)


def _perm_compose(p, q):
    """(p compose q)(x) == p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


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
    vertex that no later slot touches is below 3.  Each complete multiset
    with non-increasing degrees (every graph has such a labelling) is
    keyed by its least relabelling, which is `canonical()`, and the list is
    built from the keys.  The first labelling met of each class records all
    of the class's labellings, so a later one is skipped without a
    connectivity check, a relabelling or a `RealizingGraph`; the record
    lives for this call only.
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

        def extend(start: int) -> None:
            ends_left = 2 * (ne - len(edges))
            if sum(max(0, 3 - d) for d in degree) > ends_left:
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
                if degree[u] + 1 + (u == v) > cap or degree[v] == cap:
                    continue  # a loop adds 2 to its vertex
                degree[u] += 1
                degree[v] += 1
                edges.append((u, v))
                extend(k)
                edges.pop()
                degree[u] -= 1
                degree[v] -= 1

        extend(0)
    return [RealizingGraph(nv, edges) for nv, edges in sorted(keys)]


@dataclass(frozen=True)
class GraphSymmetry:
    """Vertex permutation plus an orientation-aware bijection on edges."""

    vperm: Tuple[int, ...]
    # per edge index: (image edge index, flipped?)
    emap: Tuple[Tuple[int, bool], ...]


def graph_symmetries(graph: RealizingGraph) -> List[GraphSymmetry]:
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

    def homology(self, sym: GraphSymmetry) -> Matrix:
        """M[i][j]: the signed count of basis edge i in the image of loop j,
        which is abelianization(images(sym)); the tree path to the image of
        vertex 0 conjugates every image and cancels in homology."""
        index = self.index
        mat = [[0] * len(index) for _ in index]
        for j, loop in enumerate(self.loops):
            for idx, reversed_ in loop:
                dst, flip = sym.emap[idx]
                if dst in index:
                    mat[index[dst]][j] += -1 if reversed_ != flip else 1
        return tuple(map(tuple, mat))

    def images(self, sym: GraphSymmetry, group: FreeGroup) -> List[Word]:
        """The loops' images, each conjugated back to vertex 0."""
        index = self.index
        assert len(index) == group.rank

        def rho(oriented: Sequence[Tuple[int, bool]]) -> List[Tuple[int, int]]:
            return [(index[idx], -1 if reversed_ else 1) for idx, reversed_ in oriented if idx in index]

        def apply_sym(oriented: Oriented):
            return [(sym.emap[idx][0], reversed_ != sym.emap[idx][1]) for idx, reversed_ in oriented]

        conj = rho(self.paths[sym.vperm[0]])
        inverse_conj = [(i, -s) for i, s in reversed(conj)]
        return [group.word(inverse_conj + rho(apply_sym(loop)) + conj) for loop in self.loops]

    def automorphism(self, sym: GraphSymmetry, group: FreeGroup) -> FreeAut:
        aut = is_automorphism(group, self.images(sym, group))
        if aut is None:
            raise AssertionError("graph symmetry failed to give an automorphism")
        return aut


# ---------------------------------------------------------------------------
# torsion representatives


@dataclass(frozen=True)
class TorsionRep:
    aut: FreeAut
    outer_order: int
    provenance: str


def _power_chain(m: Sequence[Sequence[int]], bound: int) -> Optional[List[Matrix]]:
    """The powers m, m^2, ..., m^k == I for the least k <= bound, else None."""
    m = tuple(map(tuple, m))
    identity = tuple(tuple(int(i == j) for j in range(len(m))) for i in range(len(m)))
    cols = tuple(zip(*m))
    chain = [m]
    while chain[-1] != identity:
        if len(chain) == bound:
            return None
        chain.append(tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in chain[-1]))
    return chain


def _matrix_order(m, bound: int) -> Optional[int]:
    """The least k <= bound with m^k == I, else None."""
    chain = _power_chain(m, bound)
    return None if chain is None else len(chain)


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
    delta = [[mat[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    d, _, _ = smith_normal_form(delta)
    return tuple(abs(d[i][i]) for i in range(n))


def culler_reps(rank: int) -> List[TorsionRep]:
    """Representatives of every finite-order outer class, from graph symmetries.

    Rank 1 is special-cased (the outer group is Z/2); otherwise the
    degree-capped realizing graphs are enumerated, each gets one spanning-tree
    marking, and each of its symmetries is read through that marking.  The
    class key and outer order depend only on the homology matrix M
    (Baumslag-Taylor), which is read straight off the marking's loops, and
    both come from one power chain M, M^2, ..., I.  M^-1 has the same key,
    so it is marked as seen together with M.  Only a symmetry with a new key
    is turned into image words and folded.

    A symmetry with an invariant forest (`invariant_forest`) gets no matrix
    and no key, and this changes no output.  Collapsing that forest
    equivariantly gives a connected graph with the same Betti number, all
    degrees >= 3 and strictly fewer vertices, so it is in the list and comes
    earlier: the graphs are processed in (nvertices, canonical) order.  The
    collapse is a homotopy equivalence that commutes with the symmetries, so
    the induced symmetry there acts on homology by a GL_n(Z)-conjugate
    matrix, which has the same key (Culler 1984; Krstic-Vogtmann 1993).  By
    induction on the vertex count, that key was already found there, so
    the first symmetry with each key never has an invariant forest, and the
    same representatives come out in the same order.
    """
    if rank > RANK_BOUND:
        raise ResourceError(f"culler_reps supports rank <= {RANK_BOUND}")
    group = FreeGroup(rank)
    if rank == 1:
        flip = is_automorphism(group, [group.generator(0).inverse()])
        return [
            TorsionRep(FreeAut.identity(group), 1, "rose1"),
            TorsionRep(flip, 2, "rose1"),
        ]
    reps: Dict[tuple, TorsionRep] = {}
    seen: Set[Matrix] = set()
    for graph in realizing_graphs(rank):
        marking = GraphMarking.of(graph)
        for sym in graph_symmetries(graph):
            if invariant_forest(graph, sym):
                continue
            mat = marking.homology(sym)
            if mat in seen:
                continue
            chain = _power_chain(mat, 12)  # finite orders in GL_n(Z), n <= 3, divide 12
            if chain is None:
                raise AssertionError("a graph symmetry acts on homology with order above 12")
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
            if self.kernel.intersect(q.kernel_graph()) != self.kernel:
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
        order = _matrix_order(m, 12)
        if order is None:
            continue
        key = (order, a + d, det, _shift_smith(m))
        if key not in classes:
            classes[key] = m
    return sorted(classes.values())


def certify_zsquare() -> ZSquareCertificate:
    """Kernel 3 Z^2: Minkowski's congruence separates all finite order."""
    reps = tuple(m for m in gl2_finite_order_classes() if m != ((1, 0), (0, 1)))
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
