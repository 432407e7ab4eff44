"""Abelianized endgame: modules, orientation functionals, transvections,
and exact integer linear systems.

All arithmetic is arbitrary-precision; normal-form reductions are Smith and
column-style Hermite over plain Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, FormatError
from .gog import (
    BassWord,
    GraphOfGroups,
    Presentation,
    SlotElement,
    SmallModularElement,
    bar,
    unoriented,
)

Matrix = List[List[int]]


# ---------------------------------------------------------------------------
# integer matrices


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(a: Matrix, x: Sequence[int]) -> List[int]:
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def smith_normal_form(a: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (d, s, t) with s * a * t == d diagonal, d_i | d_{i+1}."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [row[:] for row in a]
    s = identity_matrix(m)
    t = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        s[i] = [x + q * y for x, y in zip(s[i], s[j])]

    def add_col(i, j, q):
        for row in d:
            row[i] += q * row[j]
        for row in t:
            row[i] += q * row[j]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        s[i] = [-x for x in s[i]]

    rank_pos = 0
    while True:
        pivot = None
        best = None
        for i in range(rank_pos, m):
            for j in range(rank_pos, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(rank_pos, pi)
        swap_cols(rank_pos, pj)
        if d[rank_pos][rank_pos] < 0:
            negate_row(rank_pos)
        dirty = False
        for i in range(rank_pos + 1, m):
            if d[i][rank_pos]:
                q = d[i][rank_pos] // d[rank_pos][rank_pos]
                add_row(i, rank_pos, -q)
                if d[i][rank_pos]:
                    dirty = True
        for j in range(rank_pos + 1, n):
            if d[rank_pos][j]:
                q = d[rank_pos][j] // d[rank_pos][rank_pos]
                add_col(j, rank_pos, -q)
                if d[rank_pos][j]:
                    dirty = True
        if dirty:
            continue
        # divisibility propagation: pivot must divide the remaining block
        offender = None
        for i in range(rank_pos + 1, m):
            for j in range(rank_pos + 1, n):
                if d[i][j] % d[rank_pos][rank_pos]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(rank_pos, offender, 1)
            continue
        rank_pos += 1
    return d, s, t


def solve_linear_system(a: Matrix, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution of a x == b, or None.  Exact.

    Column-style Hermite reduction: with a u == h in column echelon form,
    h y == b is solved by forward substitution and x == u y.
    """
    m = len(a)
    if m == 0:
        return [0] * (len(a[0]) if a else 0)
    n = len(a[0])
    if len(b) != m:
        raise DomainError("dimension mismatch")
    if n == 0:
        return [] if all(x == 0 for x in b) else None
    h, u = hermite_column_form(a)
    pivots: List[Tuple[int, int]] = []  # (row, col) per pivot column
    col = 0
    for row in range(m):
        if col < n and h[row][col] != 0:
            pivots.append((row, col))
            col += 1
    y = [0] * n
    for row in range(m):
        residual = b[row] - sum(h[row][j] * y[j] for j in range(n))
        pivot = next(((r, c) for r, c in pivots if r == row), None)
        if pivot is None:
            if residual != 0:
                return None
            continue
        _, c = pivot
        q, r = divmod(residual, h[row][c])
        if r:
            return None
        y[c] = q
    return mat_vec(u, y)


def solve_with_nullspace(a: Matrix, b: Sequence[int]):
    """(particular solution, integer nullspace basis) of a x == b, or None."""
    particular = solve_linear_system(a, b)
    if particular is None:
        return None
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return particular, []
    d, s, t = smith_normal_form(a)
    basis = []
    for j in range(n):
        dj = d[j][j] if j < m else 0
        if dj == 0:
            basis.append([t[i][j] for i in range(n)])
    return particular, basis


def hermite_column_form(a: Matrix) -> Tuple[Matrix, Matrix]:
    """Column-style Hermite form: returns (h, u) with a * u == h.

    h is lower-triangular-ish with nonnegative pivots; u is unimodular.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    h = [row[:] for row in a]
    u = identity_matrix(n)

    def col(j):
        return [h[i][j] for i in range(m)]

    def add_col(i, j, q):
        for row in h:
            row[i] += q * row[j]
        for row in u:
            row[i] += q * row[j]

    def swap_cols(i, j):
        for row in h:
            row[i], row[j] = row[j], row[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    def negate_col(j):
        for row in h:
            row[j] = -row[j]
        for row in u:
            row[j] = -row[j]

    pivot_col = 0
    for row_idx in range(m):
        if pivot_col >= n:
            break
        # reduce columns pivot_col.. against each other on this row
        while True:
            nonzero = [j for j in range(pivot_col, n) if h[row_idx][j] != 0]
            if len(nonzero) <= 1:
                break
            jmin = min(nonzero, key=lambda j: abs(h[row_idx][j]))
            for j in nonzero:
                if j == jmin:
                    continue
                q = h[row_idx][j] // h[row_idx][jmin]
                add_col(j, jmin, -q)
        nonzero = [j for j in range(pivot_col, n) if h[row_idx][j] != 0]
        if not nonzero:
            continue
        j = nonzero[0]
        swap_cols(pivot_col, j)
        if h[row_idx][pivot_col] < 0:
            negate_col(pivot_col)
        # reduce earlier columns: keep 0 <= entry < pivot
        for j in range(pivot_col):
            q = h[row_idx][j] // h[row_idx][pivot_col]
            if q:
                add_col(j, pivot_col, -q)
        pivot_col += 1
    return h, u


# ---------------------------------------------------------------------------
# Diophantine systems


@dataclass(frozen=True)
class DiophantineSystem:
    a: Tuple[Tuple[int, ...], ...]
    b: Tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise DomainError("coefficient matrix and right-hand side disagree")
        widths = {len(row) for row in self.a}
        if len(widths) > 1:
            raise DomainError("ragged coefficient matrix")

    @property
    def ncols(self) -> int:
        return len(self.a[0]) if self.a else 0

    def serialize(self) -> str:
        lines = ["A:"]
        for row in self.a:
            lines.append(" ".join(str(x) for x in row))
        lines.append("b: " + " ".join(str(x) for x in self.b))
        return "\n".join(lines) + "\n"

    @staticmethod
    def deserialize(text: str) -> "DiophantineSystem":
        rows: List[Tuple[int, ...]] = []
        b: Optional[Tuple[int, ...]] = None
        mode = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().startswith("a:"):
                mode = "a"
                line = line[2:].strip()
                if not line:
                    continue
            if line.lower().startswith("b:"):
                mode = "b"
                line = line[2:].strip()
            try:
                values = tuple(int(x) for x in line.split())
            except ValueError as exc:
                raise FormatError(f"bad integer row: {line!r}") from exc
            if mode == "a":
                rows.append(values)
            elif mode == "b":
                b = values
            else:
                raise FormatError("system must start with an A: block")
        if b is None:
            raise FormatError("system misses the b: line")
        return DiophantineSystem(tuple(rows), b)


def solve(system: DiophantineSystem) -> Optional[List[int]]:
    """An integer solution vector, or None exactly when none exists."""
    result = solve_linear_system([list(r) for r in system.a], list(system.b))
    if result is not None:
        check = mat_vec([list(r) for r in system.a], result)
        if list(check) != list(system.b):
            raise AssertionError("solver produced a bad witness")
    return result


# ---------------------------------------------------------------------------
# abelianization of presentations


@dataclass(frozen=True)
class AbelianModule:
    """Z-module on ordered generators; each relation is a column vector."""

    generators: Tuple[str, ...]
    relations: Tuple[Tuple[int, ...], ...]  # column vectors, one per relator

    def __post_init__(self):
        for col in self.relations:
            if len(col) != len(self.generators):
                raise DomainError("relation column of the wrong height")

    def relation_matrix(self) -> Matrix:
        """Generators x relators."""
        if not self.relations:
            return [[] for _ in self.generators]
        return [
            [col[i] for col in self.relations] for i in range(len(self.generators))
        ]

    def invariant_factors(self) -> Tuple[int, ...]:
        """Nontrivial torsion invariant factors, then one 0 per free rank."""
        if not self.relations:
            return tuple([0] * len(self.generators))
        d, _, _ = smith_normal_form(self.relation_matrix())
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        torsion = [x for x in diag if x not in (0, 1)]
        rank = len(self.generators) - sum(1 for x in diag if x != 0)
        return tuple(torsion + [0] * rank)


def abelianize(pres: Presentation) -> AbelianModule:
    """Module with relation columns = exponent-sum vectors of the relators."""
    cols = []
    for relator in pres.relators:
        col = [0] * len(pres.generators)
        for idx, sign in relator:
            col[idx] += sign
        cols.append(tuple(col))
    return AbelianModule(tuple(pres.generators), tuple(cols))


# ---------------------------------------------------------------------------
# orientation functionals


@dataclass(frozen=True)
class OrientationFunctional:
    """Degree homomorphism to Z: values on vertex generators and Bass edges."""

    gog: GraphOfGroups
    vertex_values: Dict[str, Tuple[int, ...]]
    edge_values: Dict[str, int]  # canonical orientation; reversed is negated

    def __post_init__(self):
        for v in self.gog.vertices:
            if len(self.vertex_values[v]) != self.gog.vslot(v).ngens:
                raise DomainError(f"orientation vector at {v} has wrong length")
        for e in self.gog.edge_names:
            if e not in self.edge_values:
                raise DomainError(f"missing orientation value for edge {e}")
        # well-definedness: o(i_e~(g)) + o(e)... the Bass relation
        # e~ i_e~(g) e == i_e(g) forces o(i_e~(g)) == o(i_e(g))
        for e in self.gog.edge_names:
            for gen in self.gog.eslot(e).generators():
                left = self.of_element(self.gog.term(bar(e)), self.gog.injection(bar(e)).apply(gen))
                right = self.of_element(self.gog.term(e), self.gog.injection(e).apply(gen))
                if left != right:
                    raise DomainError(f"orientation functional is not well defined at {e}")

    def of_element(self, vertex: str, x: SlotElement) -> int:
        vec = self.vertex_values[vertex]
        out = 0
        for i, s in x.word.letters:
            out += s * vec[i]
        if x.center:
            out += x.center * vec[-1]
        return out

    def of_edge(self, oriented: str) -> int:
        e = unoriented(oriented)
        value = self.edge_values[e]
        return value if oriented == e else -value

    def of_loop(self, w: BassWord) -> int:
        if w.gog != self.gog:
            raise DomainError("loop from a different graph of groups")
        out = 0
        at = w.start
        for k, item in enumerate(w.parts):
            if k % 2 == 0:
                out += self.of_element(at, item)
            else:
                out += self.of_edge(item)
                at = w.gog.term(item)
        return out

    def on_presentation(self, pres: Presentation) -> Tuple[int, ...]:
        """Per-generator values; tree-edge contributions fold into loop reps."""
        values = [0] * len(pres.generators)
        for (v, i), idx in pres.vertex_gen_index.items():
            values[idx] = self.vertex_values[v][i]
        tree_path = _tree_paths(self.gog, pres.tree)
        for e, idx in pres.edge_gen_index.items():
            u, v = self.gog.edge_ends[e]
            values[idx] = (
                _path_value(self, tree_path[u])
                + self.edge_values[e]
                - _path_value(self, tree_path[v])
            )
        vec = tuple(values)
        for relator in pres.relators:
            if sum(s * vec[i] for i, s in relator) != 0:
                raise DomainError("orientation functional does not kill a relator")
        return vec


def _tree_paths(gog: GraphOfGroups, tree: Sequence[str]) -> Dict[str, List[str]]:
    """Oriented tree-edge path from the base vertex to each vertex."""
    base = gog.vertices[0]
    paths: Dict[str, List[str]] = {base: []}
    frontier = [base]
    tree_set = set(tree)
    while frontier:
        nxt = []
        for v in frontier:
            for oe in gog.oriented_edges():
                if unoriented(oe) in tree_set and gog.init(oe) == v:
                    w = gog.term(oe)
                    if w not in paths:
                        paths[w] = paths[v] + [oe]
                        nxt.append(w)
        frontier = nxt
    return paths


def _path_value(o: OrientationFunctional, path: Sequence[str]) -> int:
    return sum(o.of_edge(oe) for oe in path)


# ---------------------------------------------------------------------------
# transvections and the correction system


def transvection_matrix(
    twist: SmallModularElement, module: AbelianModule, pres: Presentation
) -> Matrix:
    """Action of the twist on the module: identity plus updates on the
    columns of Bass generators crossing the twisted edges.

    Vectors are column coordinates over the module generators; the matrix
    acts on the left.
    """
    gog = pres.gog
    n = len(module.generators)
    mat = identity_matrix(n)
    tree_path = _tree_paths(gog, pres.tree)
    for twisted, z in twist.twist_data():
        zbar = [0] * n
        v = gog.term(twisted)
        for letters_idx, s in _element_letters(pres, v, z):
            zbar[letters_idx] += s
        for e, col in pres.edge_gen_index.items():
            # loop representative: treepath(u) . e . treepath(w)^-1
            u, w = gog.edge_ends[e]
            crossings = (
                _path_crossings(tree_path[u], twisted)
                - _path_crossings(tree_path[w], twisted)
            )
            if twisted == e:
                crossings += 1
            elif twisted == bar(e):
                crossings -= 1
            if crossings:
                for i in range(n):
                    mat[i][col] += crossings * zbar[i]
    return mat


def _element_letters(pres: Presentation, vertex: str, x: SlotElement):
    for idx, s in pres.word_of_element(vertex, x):
        yield idx, s


def _path_crossings(path: Sequence[str], twisted: str) -> int:
    count = 0
    for oe in path:
        if oe == twisted:
            count += 1
        elif oe == bar(twisted):
            count -= 1
    return count


def twist_coefficients(
    image: BassWord,
    twists: Sequence[SmallModularElement],
    o: OrientationFunctional,
) -> List[int]:
    """Per twist, the change of o(image) per unit of it: sum n(e, image) * o(z)."""
    coeffs = []
    for twist in twists:
        coeff = 0
        for twisted, z in twist.twist_data():
            sign = 1 if twisted == unoriented(twisted) else -1
            coeff += sign * image.edge_exponent(twisted) * o.of_element(
                o.gog.term(twisted), z
            )
        coeffs.append(coeff)
    return coeffs


def build_system(
    images: Sequence[BassWord],
    twists: Sequence[SmallModularElement],
    o: OrientationFunctional,
) -> DiophantineSystem:
    """Row i:  sum_j n(e_j, image_i) * o(z_j) * x_j  ==  -o(image_i)."""
    rows = []
    rhs = []
    for image in images:
        if not image.is_loop():
            raise DomainError("fiber generator image must be a loop")
        rows.append(tuple(twist_coefficients(image, twists, o)))
        rhs.append(-o.of_loop(image))
    return DiophantineSystem(tuple(rows), tuple(rhs))
