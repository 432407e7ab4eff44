"""Folded core graphs for finitely generated subgroups of free groups.

A ``SubgroupGraph`` is stored in canonical form: states are renumbered by a
breadth-first traversal from the base in a fixed letter order, so structural
equality coincides with based labeled-graph isomorphism.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import DomainError, ResourceError
from .words import FreeGroup, Letter, Word

if TYPE_CHECKING:
    from .autos import FreeAut

STATE_BUDGET_DEFAULT = 10**6


class SubgroupGraph:
    """Folded, based core graph.  ``fwd[i][s]`` is the i-labeled successor."""

    __slots__ = ("group", "nstates", "fwd", "bwd", "_hash")

    base = 0  # canonical numbering puts the base state first

    def __init__(self, group: FreeGroup, nstates: int, fwd):
        self.group = group
        self.nstates = nstates
        self.fwd = tuple(tuple(row) for row in fwd)
        bwd = [[None] * nstates for _ in range(group.rank)]
        for i in range(group.rank):
            for s, t in enumerate(self.fwd[i]):
                if t is not None:
                    if bwd[i][t] is not None:
                        raise DomainError("graph is not folded (backward collision)")
                    bwd[i][t] = s
        self.bwd = tuple(tuple(row) for row in bwd)
        self._hash = hash((group._hash, nstates, self.fwd))

    def __eq__(self, other):
        return (
            isinstance(other, SubgroupGraph)
            and self.group == other.group
            and self.fwd == other.fwd
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<SubgroupGraph {self.nstates} states over {self.group!r}>"

    def step(self, state: int, letter: Letter) -> Optional[int]:
        i, s = letter
        return self.fwd[i][state] if s > 0 else self.bwd[i][state]

    def membership(self, w: Word) -> bool:
        """True iff w labels a base-to-base loop."""
        if w.group != self.group:
            raise DomainError("word over a different group")
        state = self.base
        for letter in w.letters:
            state = self.step(state, letter)
            if state is None:
                return False
        return state == self.base

    def __contains__(self, w: Word) -> bool:
        return self.membership(w)

    def is_complete(self) -> bool:
        return all(t is not None for row in self.fwd for t in row)

    def index(self) -> Optional[int]:
        """Subgroup index: the state count when the graph is complete, else None.

        A folded core graph is the full coset graph exactly when it is
        complete, so no on-demand completion is attempted here.
        """
        return self.nstates if self.is_complete() else None

    def _tree(self) -> Tuple[List[Word], Set[Tuple[int, int]]]:
        """BFS spanning tree: path word per state, tree edges as (state, gen)."""
        words: List[Optional[Word]] = [None] * self.nstates
        words[self.base] = self.group.identity()
        tree_edges: Set[Tuple[int, int]] = set()
        queue = deque([self.base])
        while queue:
            s = queue.popleft()
            for i in range(self.group.rank):
                for sign in (1, -1):
                    t = self.step(s, (i, sign))
                    if t is not None and words[t] is None:
                        words[t] = words[s] * self.group.word([(i, sign)])
                        tree_edges.add((s, i) if sign > 0 else (t, i))
                        queue.append(t)
        assert all(w is not None for w in words)
        return words, tree_edges  # type: ignore[return-value]

    def _non_tree_edges(self) -> Tuple[List[Word], List[Tuple[int, int, int]]]:
        """Tree path word per state, and the non-tree transitions (s, i, t)
        in basis order: the k-th one gives the k-th generator."""
        path, tree_edges = self._tree()
        edges = [
            (s, i, t)
            for i in range(self.group.rank)
            for s, t in enumerate(self.fwd[i])
            if t is not None and (s, i) not in tree_edges
        ]
        return path, edges

    def generators(self) -> List[Word]:
        """A free basis of the subgroup, one word per non-tree transition."""
        path, edges = self._non_tree_edges()
        return [path[s] * self.group.word([(i, 1)]) * path[t].inverse() for s, i, t in edges]

    def rank(self) -> int:
        """First Betti number: the rank of the subgroup."""
        nedges = sum(1 for row in self.fwd for t in row if t is not None)
        return nedges - self.nstates + 1

    def intersect(self, *others: "SubgroupGraph") -> "SubgroupGraph":
        """Fiber product of this graph and all of ``others`` over their base
        states, cored and canonicalized: the intersection of the subgroups.
        A product of more than ``STATE_BUDGET_DEFAULT`` states is refused.

        One walk over tuples of states.  It goes backward too, to find the
        whole component of the base, unless every graph is complete: each
        generator then permutes the tuples, so walking forward reaches them all.
        """
        graphs = (self,) + others
        if any(g.group != self.group for g in others):
            raise DomainError("graphs over different groups")
        rank = self.group.rank
        steps = [(i, True, [g.fwd[i] for g in graphs]) for i in range(rank)]
        if not all(g.is_complete() for g in graphs):
            steps += [(i, False, [g.bwd[i] for g in graphs]) for i in range(rank)]
        order = [(self.base,) * len(graphs)]
        numbering = {order[0]: 0}
        edges: List[Tuple[int, int, int]] = []
        for k, state in enumerate(order):  # order grows as the walk finds states
            for i, forward, rows in steps:
                neighbour = tuple(map(tuple.__getitem__, rows, state))
                if None in neighbour:
                    continue
                n = numbering.get(neighbour)
                if n is None:
                    if len(order) >= STATE_BUDGET_DEFAULT:
                        raise ResourceError(f"fiber product exceeded the state budget of {STATE_BUDGET_DEFAULT}")
                    n = numbering[neighbour] = len(order)
                    order.append(neighbour)
                edges.append((k, i, n) if forward else (n, i, k))
        fwd = [[None] * len(order) for _ in range(rank)]
        for u, i, v in edges:
            fwd[i][u] = v
        return _core_and_canonicalize(self.group, len(order), fwd, 0)

    def preimage_under(self, aut: FreeAut) -> "SubgroupGraph":
        """The graph of aut^-1(H) for a finite-index H: the stabilizer of the
        base when generator i acts as the word aut(x_i) (Stallings' pullback)."""
        if not self.is_complete():
            raise DomainError("preimage requires a finite-index subgroup")
        if aut.group != self.group:
            raise DomainError("automorphism of a different group")
        states = range(self.nstates)
        fwd = [[functools.reduce(self.step, w.letters, s) for s in states] for w in aut.images]
        return _core_and_canonicalize(self.group, self.nstates, fwd, self.base)

    def serialize(self) -> str:
        lines = [f"base: {self.base}"]
        for i in range(self.group.rank):
            for s in range(self.nstates):
                t = self.fwd[i][s]
                if t is not None:
                    lines.append(f"{s} --{self.group.names[i]}--> {t}")
        return "\n".join(lines) + "\n"


def _core_and_canonicalize(group, nstates, fwd, base) -> SubgroupGraph:
    rank = group.rank
    bwd = [[None] * nstates for _ in range(rank)]
    degree = [0] * nstates
    for i in range(rank):
        for s in range(nstates):
            t = fwd[i][s]
            if t is not None:
                bwd[i][t] = s
                degree[s] += 1
                degree[t] += 1

    # prune hanging trees; a degree only falls, so a queued state stays prunable
    alive = [True] * nstates
    queue = deque(s for s in range(nstates) if s != base and degree[s] <= 1)
    while queue:
        s = queue.popleft()
        if not alive[s]:
            continue
        alive[s] = False
        for i in range(rank):
            t = fwd[i][s]
            if t is not None:
                fwd[i][s] = None
                bwd[i][t] = None
                degree[t] -= 1
                if t != base and degree[t] <= 1:
                    queue.append(t)
            u = bwd[i][s]
            if u is not None:
                bwd[i][s] = None
                fwd[i][u] = None
                degree[u] -= 1
                if u != base and degree[u] <= 1:
                    queue.append(u)

    # canonical renumbering: BFS from base, letters in fixed order
    numbering = {base: 0}
    order = [base]
    queue = deque([base])
    while queue:
        s = queue.popleft()
        for i in range(rank):
            for table in (fwd, bwd):
                t = table[i][s]
                if t is not None and alive[t] and t not in numbering:
                    numbering[t] = len(order)
                    order.append(t)
                    queue.append(t)
    new_fwd = [[None] * len(order) for _ in range(rank)]
    for s, num in numbering.items():
        for i in range(rank):
            t = fwd[i][s]
            if t is not None and t in numbering:
                new_fwd[i][num] = numbering[t]
    return SubgroupGraph(group, len(order), new_fwd)


class _Folder:
    """Union-find Stallings folding, near-linear in the edge count.

    Edge records are ``(u, i, v, label)``: the edge reads generator i from u
    to v, and ``label`` is a letter tuple in the frames of u and v as they
    were created.  Each vertex keeps a gauge word to its union-find parent,
    composed during path compression, so an edge reads
    ``gauge(u) * label * gauge(v)^-1`` between the roots.  A merge sets the
    gauge of the dropped root so that the two folded edges read the same
    label, and never rewrites a label.  A merge whose ends already share a
    root but disagree by a non-trivial gauge would collapse a loop with a
    non-trivial label: the petal labels then do not freely generate, which
    is recorded in ``rank_drop``.  Unlabeled folding keeps every gauge
    empty.  The base vertex 0 is never dropped, so it stays a root.
    """

    def __init__(self, rank: int):
        self.rank = rank
        self.parent: List[int] = [0]
        self.gauge: List[Tuple[Letter, ...]] = [()]
        self.out: List[Optional[Dict[int, int]]] = [{}]
        self.inc: List[Optional[Dict[int, int]]] = [{}]
        self.edges: List[Tuple[int, int, int, Tuple[Letter, ...]]] = []
        # merge requests (x, y, w): identify x and y along a path labeled w
        self.pending: List[Tuple[int, int, Tuple[Letter, ...]]] = []
        self.rank_drop = False

    def new_vertex(self) -> int:
        self.parent.append(len(self.parent))
        self.gauge.append(())
        self.out.append({})
        self.inc.append({})
        return len(self.parent) - 1

    def find(self, v: int) -> int:
        """Root of v; afterwards ``gauge[v]`` is relative to that root."""
        parent = self.parent
        root = parent[v]
        if parent[root] == root:
            return root
        path = [v]
        while parent[root] != root:
            path.append(root)
            root = parent[root]
        gauge = self.gauge
        for x in reversed(path):
            p = parent[x]
            if p != root:
                gp = gauge[p]
                if gp:
                    gauge[x] = _product(gp, gauge[x])
                parent[x] = root
        return root

    def add_petal(self, word: Word, label: Tuple[Letter, ...] = ()):
        """A loop at the base reading ``word``, its first edge labeled."""
        letters = word.letters
        if not letters:
            if label:
                self.rank_drop = True
            return
        last = len(letters) - 1
        prev = 0
        for pos, (i, s) in enumerate(letters):
            nxt = 0 if pos == last else self.new_vertex()
            if s > 0:
                self._add_edge(prev, i, nxt, label)
            else:
                self._add_edge(nxt, i, prev, _inverse(label))
            label = ()
            prev = nxt

    def _add_edge(self, u: int, i: int, v: int, label: Tuple[Letter, ...]):
        eid = len(self.edges)
        self.edges.append((u, i, v, label))
        ru, rv = self.find(u), self.find(v)
        h = self.out[ru].get(i)
        if h is not None:
            self._fold_out(h, eid)
        else:
            h = self.inc[rv].get(i)
            if h is None:
                self.out[ru][i] = eid
                self.inc[rv][i] = eid
                return
            self._fold_in(h, eid)
        self._drain()

    def _fold_out(self, h: int, f: int):
        """Edge f leaves the root of edge h with h's letter: request h.v ~ f.v."""
        fu, _, fv, fl = self.edges[f]
        hu, _, hv, hl = self.edges[h]
        self.find(fu)
        self.find(hu)
        w = _product(_inverse(hl), _inverse(self.gauge[hu]), self.gauge[fu], fl)
        self.pending.append((hv, fv, w))

    def _fold_in(self, h: int, f: int):
        """Edge f enters the root of edge h with h's letter: request h.u ~ f.u."""
        fu, _, fv, fl = self.edges[f]
        hu, _, hv, hl = self.edges[h]
        self.find(fv)
        self.find(hv)
        w = _product(hl, _inverse(self.gauge[hv]), self.gauge[fv], _inverse(fl))
        self.pending.append((hu, fu, w))

    def _drain(self):
        pending, gauge, out, inc = self.pending, self.gauge, self.out, self.inc
        while pending:
            x, y, w = pending.pop()
            rx, ry = self.find(x), self.find(y)
            g = _product(gauge[x], w, _inverse(gauge[y]))
            if rx == ry:
                if g:
                    self.rank_drop = True
                continue
            # keep the base, else the vertex with more incident entries
            if ry == 0 or (rx != 0 and len(out[rx]) + len(inc[rx]) < len(out[ry]) + len(inc[ry])):
                rx, ry, g = ry, rx, _inverse(g)
            self._absorb(rx, ry, g)

    def _absorb(self, k: int, d: int, g: Tuple[Letter, ...]):
        """Make root d a child of root k with gauge g and fold its edges in."""
        out, inc, edges = self.out, self.inc, self.edges
        self.parent[d] = k
        self.gauge[d] = g
        out_d, inc_d = out[d], inc[d]
        out[d] = inc[d] = None
        out_k, inc_k = out[k], inc[k]
        for i, f in out_d.items():
            h = out_k.get(i)
            if h is None:
                out_k[i] = f
                continue
            # f goes: unregister it at its head, which may still be in inc_d
            head = inc[self.find(edges[f][2])]
            if head.get(i) == f:
                del head[i]
            elif inc_d.get(i) == f:
                del inc_d[i]
            self._fold_out(h, f)
        for i, f in inc_d.items():
            h = inc_k.get(i)
            if h is None:
                inc_k[i] = f
                continue
            tail = out[self.find(edges[f][0])]
            if tail.get(i) == f:
                del tail[i]
            self._fold_in(h, f)

    def transitions(self) -> Dict[Tuple[int, int], Tuple[int, Tuple[Letter, ...]]]:
        """(root, i) -> (target root, label read between the roots)."""
        find, gauge, edges = self.find, self.gauge, self.edges
        table = {}
        for r, out_r in enumerate(self.out):
            if out_r is None:
                continue
            for i, f in out_r.items():
                u, _, v, label = edges[f]
                find(u)
                t = find(v)
                table[(r, i)] = (t, _product(gauge[u], label, _inverse(gauge[v])))
        return table

    def graph(self, group: FreeGroup) -> SubgroupGraph:
        roots = [v for v, p in enumerate(self.parent) if p == v]
        numbering = {r: k for k, r in enumerate(roots)}
        fwd = [[None] * len(roots) for _ in range(self.rank)]
        for r in roots:
            for i, f in self.out[r].items():
                fwd[i][numbering[r]] = numbering[self.find(self.edges[f][2])]
        return _core_and_canonicalize(group, len(roots), fwd, 0)


def _inverse(letters: Tuple[Letter, ...]) -> Tuple[Letter, ...]:
    if not letters:
        return letters
    return tuple((i, -s) for i, s in reversed(letters))


def _product(*parts: Tuple[Letter, ...]) -> Tuple[Letter, ...]:
    """Reduced concatenation of reduced parts: each part cancels only
    against the end of the product so far, so an empty part costs nothing
    and a lone non-empty part is returned as it is."""
    out: Tuple[Letter, ...] = ()
    for part in parts:
        if not out:
            out = part
            continue
        if not part:
            continue
        k, n = 0, min(len(out), len(part))
        while k < n and out[-1 - k][0] == part[k][0] and out[-1 - k][1] == -part[k][1]:
            k += 1
        out = out[: len(out) - k] + part[k:]
    return out


def fold(group: FreeGroup, generators: Sequence[Word]) -> SubgroupGraph:
    """Folded core graph of the subgroup generated by the given words."""
    if not generators:
        raise DomainError("fold requires a nonempty generating set")
    folder = _Folder(group.rank)
    for gen in generators:
        if gen.group != group:
            raise DomainError("generator over a different group")
        folder.add_petal(gen)
    return folder.graph(group)


def whole_group_graph(group: FreeGroup) -> SubgroupGraph:
    return fold(group, group.generators())


def _transitive(perms: Sequence[Sequence[int]], d: int) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        p = queue.popleft()
        for perm in perms:
            for q in (perm[p], perm.index(p)):
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
    return len(seen) == d


def subgroups_of_index_at_most(group: FreeGroup, m: int) -> List[SubgroupGraph]:
    """All subgroups of index <= m, via transitive actions on <= m points."""
    if m < 1:
        raise DomainError("index bound must be >= 1")
    found: Set[SubgroupGraph] = set()
    for d in range(1, m + 1):
        for perms in itertools.product(list(itertools.permutations(range(d))), repeat=group.rank):
            if not _transitive(perms, d):
                continue
            fwd = [list(perm) for perm in perms]
            found.add(_core_and_canonicalize(group, d, fwd, 0))
    return sorted(found, key=lambda g: (g.nstates, g.fwd))


def homology_kernel(group: FreeGroup, p: int) -> SubgroupGraph:
    """The kernel of F_n -> H_1(F_n; Z/p) = (Z/p)^n, as the regular action
    of (Z/p)^n: a state is an exponent-sum vector mod p, and generator i
    adds 1 to coordinate i.  It is characteristic, with index p^n."""
    if p < 1:
        raise DomainError("modulus must be >= 1")
    states = list(itertools.product(range(p), repeat=group.rank))
    index = {v: k for k, v in enumerate(states)}
    fwd = [
        [index[v[:i] + ((v[i] + 1) % p,) + v[i + 1:]] for v in states]
        for i in range(group.rank)
    ]
    return _core_and_canonicalize(group, len(states), fwd, index[(0,) * group.rank])


def congruence_kernel(ambient, m: int) -> SubgroupGraph:
    """Intersection of all subgroups of index <= m of the ambient group.

    The ambient group may be a FreeGroup or a SubgroupGraph H.  For H the
    kernel K is first computed over H's own basis, and the result is read
    off the cover of H's graph that K defines: states are pairs (s, c) of a
    state of H and a coset of K, and the k-th basis transition of H moves c
    as the k-th generator acts on the cosets.  Over a FreeGroup the result
    is characteristic, being the intersection of a set of subgroups that
    every automorphism permutes.

    For m <= 2 the kernel is built directly, with m^rank states: it is
    ``homology_kernel(F_n, m)``.  Every subgroup of index 2 is normal with
    quotient Z/2, so it contains the kernel of F_n -> (Z/2)^n.  Conversely
    the index-2 subgroups are the preimages of the kernels of the nonzero
    functionals on (Z/2)^n, and those kernels meet in 0.  For m = 1 it is
    the whole group.  A kernel of more than ``STATE_BUDGET_DEFAULT`` states
    is refused.

    For m >= 3 enumeration runs over all transitive actions on <= m points,
    so the cost grows like (m!)^rank; m = 3 at rank <= 3 is the supported
    envelope, with the state budget guarding the intersection itself.
    """
    if isinstance(ambient, SubgroupGraph):
        inner = congruence_kernel(FreeGroup(ambient.rank()), m)
        n = inner.nstates
        _, basis_edges = ambient._non_tree_edges()
        moves = {(s, i): inner.fwd[k] for k, (s, i, _) in enumerate(basis_edges)}
        fwd = [[None] * (ambient.nstates * n) for _ in range(ambient.group.rank)]
        for i, row in enumerate(ambient.fwd):
            for s, t in enumerate(row):
                if t is not None:
                    cosets = moves.get((s, i), range(n))  # tree transitions fix c
                    for c in range(n):
                        fwd[i][s * n + c] = t * n + cosets[c]
        return _core_and_canonicalize(ambient.group, ambient.nstates * n, fwd, 0)
    if 1 <= m <= 2:
        if m ** ambient.rank > STATE_BUDGET_DEFAULT:
            raise ResourceError(
                f"a kernel of {m}^{ambient.rank} states exceeds the state budget of {STATE_BUDGET_DEFAULT}"
            )
        return homology_kernel(ambient, m)
    whole, *subgroups = subgroups_of_index_at_most(ambient, m)
    return whole.intersect(*subgroups)


def is_characteristic(h: SubgroupGraph, auts: Sequence[FreeAut]) -> bool:
    """True iff aut^-1(H) == H for every aut.

    Requires finite index; there phi(H) <= H, phi(H) == H and
    phi^-1(H) == H are equivalent, so one test per aut suffices when the
    auts generate the automorphism group.
    """
    if not h.is_complete():
        raise DomainError("characteristic check requires a finite-index subgroup")
    return all(h.preimage_under(aut) == h for aut in auts)
