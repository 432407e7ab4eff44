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
contains K_3, so no search, intersection or closure is needed.

A symmetry's class is read off its action on homology (the exponent sums of
its image words), so only one symmetry per class is folded into an
automorphism.
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
    is_automorphism,
    is_characteristic,
    nielsen_generators,
)
from .freegroup.autos import abelianization
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

    def conjugate_in_image(self, a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
        for h in self.image_group():
            if _perm_compose(_perm_compose(_perm_inverse(h), a), h) == b:
                return True
        return False

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

    def betti(self) -> int:
        return len(self.edges) - self.nvertices + 1

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

    def canonical(self) -> Tuple[Tuple[int, int], ...]:
        best = None
        for perm in itertools.permutations(range(self.nvertices)):
            relabeled = tuple(
                sorted(tuple(sorted((perm[u], perm[v]))) for u, v in self.edges)
            )
            if best is None or relabeled < best:
                best = relabeled
        return best  # type: ignore[return-value]

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
    """Connected multigraphs, all degrees >= 3, first Betti number == rank."""
    if rank < 2:
        raise DomainError("realizing graphs need rank >= 2")
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
        # normalize representatives to their canonical edge lists
    return [
        RealizingGraph(nv, edges)
        for (nv, edges) in sorted(found.keys())
    ]


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


def symmetry_to_automorphism(graph: RealizingGraph, sym: GraphSymmetry, group: FreeGroup) -> FreeAut:
    aut = is_automorphism(group, _symmetry_images(graph, sym, group))
    if aut is None:
        raise AssertionError("graph symmetry failed to give an automorphism")
    return aut


def _symmetry_images(graph: RealizingGraph, sym: GraphSymmetry, group: FreeGroup) -> List[Word]:
    """Spanning-tree marking: petal loops read through the symmetry.

    Different tree choices move the representative by an inner factor only.
    """
    # build a spanning tree over the non-loop edges
    tree: Dict[int, Optional[int]] = {0: None}
    tree_edges: Set[int] = set()
    changed = True
    while changed:
        changed = False
        for idx, (u, v) in enumerate(graph.edges):
            if u == v:
                continue
            for a, b in ((u, v), (v, u)):
                if a in tree and b not in tree:
                    tree[b] = idx
                    tree_edges.add(idx)
                    changed = True
    basis_edges = [idx for idx in range(len(graph.edges)) if idx not in tree_edges]
    assert len(basis_edges) == group.rank
    basis_index = {idx: k for k, idx in enumerate(basis_edges)}

    def tree_path(v: int) -> List[Tuple[int, bool]]:
        """Oriented tree edges from vertex 0 to v: (edge index, reversed?)."""
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
        return list(reversed(path))

    def rho(oriented: Sequence[Tuple[int, bool]]) -> List[Tuple[int, int]]:
        letters = []
        for idx, reversed_ in oriented:
            if idx in basis_index:
                letters.append((basis_index[idx], -1 if reversed_ else 1))
        return letters

    def apply_sym(oriented: Sequence[Tuple[int, bool]]):
        out = []
        for idx, reversed_ in oriented:
            dst, flip = sym.emap[idx]
            out.append((dst, reversed_ != flip))
        return out

    conj = rho(tree_path(sym.vperm[0]))
    images = []
    for idx in basis_edges:
        u, v = graph.edges[idx]
        loop = tree_path(u) + [(idx, False)] + [(e, not r) for e, r in reversed(tree_path(v))]
        image_letters = rho(apply_sym(loop))
        word = group.word(
            [(i, -s) for i, s in reversed(conj)] + image_letters + conj
        )
        images.append(word)
    return images


# ---------------------------------------------------------------------------
# torsion representatives


@dataclass(frozen=True)
class TorsionRep:
    aut: FreeAut
    outer_order: int
    provenance: str


def _gl_conjugacy_invariant(mat, order: int) -> tuple:
    """Dedup key: order, characteristic data and Smith forms of M^k - I."""
    power = mat
    invariants = [order]
    for _ in range(order):
        invariants.append(_shift_smith(power))
        power = _mat_mul(power, mat)
    return tuple(invariants)


def _shift_smith(mat) -> Tuple[int, ...]:
    """The Smith invariants of M - I, a GL_n(Z) conjugacy invariant of M."""
    n = len(mat)
    delta = [[mat[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    d, _, _ = smith_normal_form(delta)
    return tuple(abs(d[i][i]) for i in range(n))


def _mat_mul(a, b) -> List[List[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _matrix_order(m, bound: int) -> Optional[int]:
    """The least k <= bound with m^k == I, else None."""
    identity = [[1 if i == j else 0 for j in range(len(m))] for i in range(len(m))]
    power = [list(row) for row in m]
    for k in range(1, bound + 1):
        if power == identity:
            return k
        power = _mat_mul(power, m)
    return None


def culler_reps(rank: int) -> List[TorsionRep]:
    """Representatives of every finite-order outer class, from graph symmetries.

    Rank 1 is special-cased (the outer group is Z/2); otherwise realizing
    graphs with minimum degree 3 are enumerated and each symmetry is read
    through a spanning-tree marking.  Its class key and outer order depend
    only on its homology matrix M (Baumslag-Taylor), which is read off the
    image words by exponent sums; only a symmetry with a new key is folded.
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
    seen: Set[tuple] = set()
    for graph in realizing_graphs(rank):
        for sym in graph_symmetries(graph):
            mat = abelianization(_symmetry_images(graph, sym, group))
            frozen = tuple(map(tuple, mat))
            if frozen in seen:
                continue
            seen.add(frozen)
            order = _matrix_order(mat, 12)  # finite orders in GL_n(Z), n <= 3, divide 12
            if order is None:
                raise AssertionError("a graph symmetry acts on homology with order above 12")
            key = _gl_conjugacy_invariant(mat, order)
            if key not in reps:
                reps[key] = TorsionRep(symmetry_to_automorphism(graph, sym, group), order, graph.name())
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


def mod3_kernel(group: FreeGroup) -> SubgroupGraph:
    """K_3 as the regular action of (Z/3)^n: a state is an exponent-sum
    vector mod 3, and generator i adds 1 to coordinate i."""
    states = list(itertools.product(range(3), repeat=group.rank))
    index = {v: k for k, v in enumerate(states)}
    fwd = [
        [index[v[:i] + ((v[i] + 1) % 3,) + v[i + 1:]] for v in states]
        for i in range(group.rank)
    ]
    return _core_and_canonicalize(group, len(states), fwd, index[(0,) * group.rank])


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
        for entry in self.entries:
            q = entry.witness.quotient
            img = q.image_of(entry.witness.word)
            img_a = q.image_of(entry.rep.aut.apply(entry.witness.word))
            if img != entry.witness.image_word or img_a != entry.witness.image_aut_word:
                return False
            if q.conjugate_in_image(img, img_a):
                return False
            # the certified kernel must sit inside the witness kernel
            if self.kernel.intersect(q.kernel_graph()) != self.kernel:
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
    certificate = CongruenceCertificate(group, mod3_kernel(group), entries)
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
