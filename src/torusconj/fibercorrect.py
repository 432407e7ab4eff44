"""Fiber correction: orientation functionals, the Dehn-twist correction
system, and exact integer linear systems.

A vertexwise isomorphism is corrected by twists so that it maps the fiber
to the fiber; `twist_coefficients` is the one formula for how a twist moves
the orientation value of a loop, and `build_system` turns it into an integer
system.  All arithmetic is arbitrary-precision; the one normal form is
Smith's, over plain Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, FormatError, parse_int
from .gog import (
    BassWord,
    DehnTwist,
    GraphOfGroups,
    SlotElement,
    bar,
    unoriented,
)

Matrix = List[List[int]]


# ---------------------------------------------------------------------------
# integer matrices


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Matrix, x: Sequence[int]) -> List[int]:
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


def smith_normal_form(a: Matrix) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (d, s, t) with s * a * t == d diagonal, d_i | d_{i+1}."""
    d = [list(row) for row in a]
    s = identity_matrix(len(d))
    t = identity_matrix(len(d[0]) if d else 0)
    _smith_eliminate(d, (d, s), (d, t))
    return d, s, t


def smith_diagonal(a: Sequence[Sequence[int]]) -> List[int]:
    """The diagonal d_1 | d_2 | ... of the Smith form of a, min(m, n) long,
    from the elimination of `smith_normal_form` without its transforms."""
    d = [list(row) for row in a]
    _smith_eliminate(d, (d,), (d,))
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def invariant_factors(diagonal: Sequence[int], size: int) -> Tuple[int, ...]:
    """The invariant factors of Z^size modulo a lattice with Smith diagonal
    `diagonal`: the torsion factors, then one 0 per free rank."""
    torsion = tuple(d for d in diagonal if d > 1)
    return torsion + (0,) * (size - sum(1 for d in diagonal if d))


def abelian_invariants(gog: GraphOfGroups, tree: Sequence[str]) -> Tuple[int, ...]:
    """The invariant factors of H_1(pi_1(gog)), for any spanning tree
    `tree` of its graph.

    H_1 is presented on the vertex generators and the Bass edges: each
    Bass relator e^-1 i_e~(g) e == i_e(g) abelianizes to i_e~(g) - i_e(g),
    and each tree edge is killed.  Center commutators vanish.
    """
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


def _smith_eliminate(d: Matrix, row_mats: Sequence[Matrix], col_mats: Sequence[Matrix]) -> None:
    """Bring d to Smith form in place.  Each row operation is applied to
    every matrix of `row_mats` and each column operation to every matrix of
    `col_mats`; both hold d, and the transforms when they are wanted."""
    m = len(d)
    n = len(d[0]) if m else 0

    def swap_rows(i, j):
        for x in row_mats:
            x[i], x[j] = x[j], x[i]

    def swap_cols(i, j):
        for x in col_mats:
            for row in x:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        for x in row_mats:
            x[i] = [a + q * b for a, b in zip(x[i], x[j])]

    def add_col(i, j, q):
        for x in col_mats:
            for row in x:
                row[i] += q * row[j]

    def negate_row(i):
        for x in row_mats:
            x[i] = [-a for a in x[i]]

    rank_pos = 0
    while True:
        # the first entry of least nonzero size, row by row; none is below 1
        pivot = None
        best = 0
        for i in range(rank_pos, m):
            row = d[i]
            for j in range(rank_pos, n):
                x = row[j]
                if x and (not best or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != rank_pos:
            swap_rows(rank_pos, pi)
        if pj != rank_pos:
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
        pivot_value = d[rank_pos][rank_pos]
        if pivot_value != 1:
            for i in range(rank_pos + 1, m):
                row = d[i]
                if any(row[j] % pivot_value for j in range(rank_pos + 1, n)):
                    offender = i
                    break
        if offender is not None:
            add_row(rank_pos, offender, 1)
            continue
        rank_pos += 1


def solve_with_nullspace(a: Matrix, b: Sequence[int]):
    """(particular solution, integer nullspace basis) of a x == b, or None.

    Exact.  With s a t == d in Smith form, a x == b becomes d y == s b with
    x == t y: one division per diagonal entry, and a row of d with a zero
    diagonal entry needs a zero right-hand side.  The columns of t at the
    zero diagonal entries are a basis of the whole integer kernel.
    Repeated equations are dropped first: s is square in the row count, and
    the GL_2(Z) matching systems repeat most of their rows.
    """
    if len(b) != len(a):
        raise DomainError("dimension mismatch")
    n = len(a[0]) if a else 0
    equations: Dict[Tuple[int, ...], int] = {}
    for row, value in zip(a, b):
        if equations.setdefault(tuple(row), value) != value:
            return None
    a = [list(row) for row in equations]
    m = len(a)
    d, s, t = smith_normal_form(a)
    y = [0] * n
    for i, value in enumerate(mat_vec(s, list(equations.values()))):
        pivot = d[i][i] if i < n else 0
        if pivot == 0:
            if value:
                return None
            continue
        q, r = divmod(value, pivot)
        if r:
            return None
        y[i] = q
    basis = [[row[j] for row in t] for j in range(n) if j >= m or d[j][j] == 0]
    return mat_vec(t, y), basis


def solve_linear_system(a: Matrix, b: Sequence[int]) -> Optional[List[int]]:
    """One integer solution of a x == b, or None.  Exact."""
    solved = solve_with_nullspace(a, b)
    return None if solved is None else solved[0]


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
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.lower().startswith("a:"):
                mode = "a"
                line = line[2:].strip()
                if not line:
                    continue
            if line.lower().startswith("b:"):
                mode = "b"
                line = line[2:].strip()
            values = tuple(parse_int(x, "integer") for x in line.split())
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
# orientation functionals


@dataclass(frozen=True)
class OrientationFunctional:
    """Degree homomorphism to Z: values on vertex generators and Bass edges."""

    gog: GraphOfGroups
    vertex_values: Dict[str, Tuple[int, ...]]
    edge_values: Dict[str, int]  # canonical orientation; reversed is negated

    def __post_init__(self):
        for v in self.gog.vertices:
            if v not in self.vertex_values:
                raise DomainError(f"missing orientation vector for vertex {v}")
            if len(self.vertex_values[v]) != self.gog.vslot(v).ngens:
                raise DomainError(f"orientation vector at {v} has wrong length")
        for e in self.gog.edge_names:
            if e not in self.edge_values:
                raise DomainError(f"missing orientation value for edge {e}")
        # the Bass relation e~ i_e~(g) e == i_e(g) needs o(i_e~(g)) == o(i_e(g))
        # for every edge generator g
        for e in self.gog.edge_names:
            ends = self.gog.term(bar(e)), self.gog.term(e)
            for images in zip(self.gog.injection(bar(e)).images, self.gog.injection(e).images):
                left, right = (self.of_element(v, x) for v, x in zip(ends, images))
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


# ---------------------------------------------------------------------------
# the correction system


def twist_coefficients(
    image: BassWord,
    twists: Sequence[DehnTwist],
    o: OrientationFunctional,
) -> List[int]:
    """Per twist along e by z, the change of o(image) per unit of it:
    n(e, image) * o(z), with n(e, image) the signed crossing count of the
    twisted orientation of e, read off one count of the image's crossings
    (`BassWord.edge_crossings`, as `edge_exponent` reads it)."""
    crossings = image.edge_crossings()
    out = []
    for t in twists:
        edge = t.edge
        n = -crossings.get(edge[:-1], 0) if edge.endswith("~") else crossings.get(edge, 0)
        out.append(n * o.of_element(o.gog.term(edge), t.z) if n else 0)
    return out


def build_system(
    images: Sequence[BassWord],
    twists: Sequence[DehnTwist],
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
