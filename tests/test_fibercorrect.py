import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from torusconj.errors import DomainError
from torusconj.fibercorrect import (
    DiophantineSystem,
    OrientationFunctional,
    abelian_invariants,
    build_system,
    mat_vec,
    smith_diagonal,
    smith_normal_form,
    solve,
    solve_with_nullspace,
    twist_coefficients,
)
from torusconj.gog import (
    BassWord,
    DehnTwist,
    GoGMorphism,
    GraphOfGroups,
    GroupSlot,
    SlotHom,
    SlotIso,
    bar,
    compose,
    induced_on_pi1,
    small_modular_generators,
    unoriented,
    validate,
)
from torusconj.pipeline import decide, parse_jsj, parse_whitelist

from .cli_helpers import load_conj_side
from .corpus import attached_jsj, identity_whitelist, twistor_jsj
from .helpers import abelian_invariants_by_tree, mat_mul, random_word, spanning_forests

CORPUS = pathlib.Path(__file__).parent / "data" / "corpus"

Z = GroupSlot(1, False)
F2 = GroupSlot(2, False)


def hnn_z_gog():
    inj = SlotHom(Z, Z, (Z.parse("x0"),))
    return GraphOfGroups(["v"], {"e": ("v", "v")}, {"v": Z}, {"e": Z}, {"e": inj, "e~": inj})


def amalgam_zz_gog():
    inj = SlotHom(Z, Z, (Z.parse("x0"),))
    return GraphOfGroups(
        ["u", "v"], {"e": ("u", "v")}, {"u": Z, "v": Z}, {"e": Z}, {"e": inj, "e~": inj}
    )


def two_loop_gog():
    """F2 vertex with two loops over cyclic edge groups <x0> and <x1>."""
    injections = {
        "e": SlotHom(Z, F2, (F2.parse("x0"),)),
        "e~": SlotHom(Z, F2, (F2.parse("x0"),)),
        "f": SlotHom(Z, F2, (F2.parse("x1"),)),
        "f~": SlotHom(Z, F2, (F2.parse("x1"),)),
    }
    return GraphOfGroups(
        ["v"], {"e": ("v", "v"), "f": ("v", "v")}, {"v": F2}, {"e": Z, "f": Z}, injections
    )


def rational_rank(a):
    rows = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                q = rows[r][col] / rows[rank][col]
                rows[r] = [x - q * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def box_search_solve(a, b, bound):
    n = len(a[0]) if a else 0
    for cand in itertools.product(range(-bound, bound + 1), repeat=n):
        if all(
            sum(row[j] * cand[j] for j in range(n)) == rhs for row, rhs in zip(a, b)
        ):
            return list(cand)
    return None


class TestNormalForms:
    def test_smith_transforms(self):
        rng = random.Random(79)
        for _ in range(50):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            d, s, t = smith_normal_form(a)
            assert mat_mul(mat_mul(s, a), t) == d
            diag = [d[i][i] for i in range(min(m, n))]
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert d[i][j] == 0
            nz = [x for x in diag if x]
            for x, y in zip(nz, nz[1:]):
                assert y % x == 0

    def test_diagonal_without_transforms(self):
        # the elimination run without s and t gives the same diagonal, on
        # square and rectangular matrices with negative entries, zero rows
        # and columns, and rank deficiency; every kind occurs
        rng = random.Random(83)
        kinds = set()
        for _ in range(300):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            if rng.random() < 0.3:
                a[rng.randrange(m)] = [0] * n
            if rng.random() < 0.3:
                j = rng.randrange(n)
                for row in a:
                    row[j] = 0
            if m > 1 and rng.random() < 0.3:
                i, k = rng.sample(range(m), 2)
                q = rng.randint(-2, 2)
                a[i] = [q * x for x in a[k]]
            d, _, _ = smith_normal_form(a)
            diag = [d[i][i] for i in range(min(m, n))]
            assert smith_diagonal(a) == diag
            kinds.add("square" if m == n else "rectangular")
            kinds.update(
                kind
                for kind, present in (
                    ("negative", any(x < 0 for row in a for x in row)),
                    ("zero row", any(not any(row) for row in a)),
                    ("zero column", any(not any(row[j] for row in a) for j in range(n))),
                    ("deficient", sum(1 for x in diag if x) < min(m, n)),
                )
                if present
            )
        assert kinds == {"square", "rectangular", "negative", "zero row", "zero column", "deficient"}




class TestSolve:
    def test_even_rhs(self):
        assert solve(DiophantineSystem(((2,),), (4,))) == [2]

    def test_parity_obstruction(self):
        assert solve(DiophantineSystem(((2,),), (3,))) is None

    def test_two_var_with_zero_row(self):
        system = DiophantineSystem(((2, 3), (0, 0)), (1, 0))
        found = solve(system)
        assert found is not None
        assert 2 * found[0] + 3 * found[1] == 1
        # oracle: exhaustive search in the box |x|,|y| <= 5
        assert box_search_solve([[2, 3], [0, 0]], [1, 0], 5) is not None

    def test_box_search_agreement(self):
        rng = random.Random(89)
        for _ in range(300):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            b = [rng.randint(-4, 4) for _ in range(m)]
            mine = solve(DiophantineSystem(tuple(map(tuple, a)), tuple(b)))
            oracle = box_search_solve(a, b, 10)
            if oracle is not None:
                assert mine is not None
                assert mat_vec(a, mine) == b
            if mine is not None:
                assert mat_vec(a, mine) == b
                # a solution within the box must exist if ours is small
                if all(abs(x) <= 10 for x in mine):
                    assert oracle is not None

    def test_serialization_round_trip(self):
        system = DiophantineSystem(((2, 3), (0, 0)), (1, 0))
        assert DiophantineSystem.deserialize(system.serialize()) == system

    def test_trailing_comments_ignored(self):
        text = "A:  # coefficients\n2 3 # row\n0 0\nb: 1 0  # right-hand side\n"
        assert DiophantineSystem.deserialize(text) == DiophantineSystem(((2, 3), (0, 0)), (1, 0))


class TestSolveWithNullspace:
    def test_random_systems(self):
        # particular solution, kernel basis, its size and its saturation,
        # against the box oracle and a rank computed over the rationals
        rng = random.Random(101)
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            x0 = [rng.randint(-3, 3) for _ in range(n)]
            for b in ([rng.randint(-3, 3) for _ in range(m)], mat_vec(a, x0)):
                solved = solve_with_nullspace(a, b)
                if box_search_solve(a, b, 2) is not None or b == mat_vec(a, x0):
                    assert solved is not None
                if solved is None:
                    continue
                particular, basis = solved
                assert mat_vec(a, particular) == b
                for vec in basis:
                    assert mat_vec(a, vec) == [0] * m
                assert len(basis) == n - rational_rank(a)
                if basis:
                    d, _, _ = smith_normal_form([list(col) for col in zip(*basis)])
                    assert all(abs(d[i][i]) == 1 for i in range(len(basis)))

    def test_zero_matrix(self):
        particular, basis = solve_with_nullspace([[0, 0]], [0])
        assert particular == [0, 0]
        assert sorted(map(tuple, basis)) == [(0, 1), (1, 0)]
        assert solve_with_nullspace([[0, 0]], [1]) is None

    def test_repeated_equations(self):
        assert solve_with_nullspace([[1, 2], [1, 2]], [3, 4]) is None
        assert solve_with_nullspace([[1, 2], [1, 2], [0, 1]], [3, 3, 1]) == ([1, 1], [])


def _double_gog():
    """Two Z vertices joined by two Z edges: two spanning trees."""
    inj = SlotHom(Z, Z, (Z.parse("x0"),))
    return GraphOfGroups(
        ["u", "v"],
        {"e": ("u", "v"), "f": ("u", "v")},
        {"u": Z, "v": Z},
        {"e": Z, "f": Z},
        {"e": inj, "e~": inj, "f": inj, "f~": inj},
    )


def _disconnected_gog():
    """Four vertices in three components: an edge identifying u^2 with
    v^2, an HNN loop at w, and a lone F_2 vertex x."""
    inj = SlotHom(Z, Z, (Z.parse("x0"),))
    square = SlotHom(Z, Z, (Z.parse("x0 x0"),))
    return GraphOfGroups(
        ["u", "v", "w", "x"],
        {"e": ("u", "v"), "f": ("w", "w")},
        {"u": Z, "v": Z, "w": Z, "x": F2},
        {"e": Z, "f": Z},
        {"e": square, "e~": square, "f": inj, "f~": inj},
    )


def _isolated_gog():
    """A Z vertex and an F_2 vertex with no edge."""
    return GraphOfGroups(["u", "v"], {}, {"u": Z, "v": F2}, {}, {})


def _seeded_twistor_gogs():
    """Twistor JSJs with random twist words: Z^2 and F_p x Z black
    vertices, p = 2..4, each with 1..4 blocks."""
    rng = random.Random(11)
    out = {}
    for p in range(1, 5):
        free = GroupSlot(p, True).free_group
        for blocks in range(1, 5):
            words = [random_word(rng, free, 3).format() for _ in range(blocks)]
            out[f"twistor-{p}-{blocks}"] = twistor_jsj(p, words).gog
    return out


ORACLE_GOGS = {
    "free-vertex": GraphOfGroups(["v"], {}, {"v": F2}, {}, {}),
    "hnn": hnn_z_gog(),
    "amalgam": amalgam_zz_gog(),
    "two-loops": two_loop_gog(),
    "double-edge": _double_gog(),
    "disconnected": _disconnected_gog(),
    "isolated": _isolated_gog(),
    "twistor-2-torsion": twistor_jsj(2, ["x0 x0", "x1 x1 x1 x1"]).gog,
    "attached": attached_jsj(
        {"B1": 1, "B2": 2}, [("W", "B1", "x0 x0"), ("W", "B2", "x1"), ("V", "B2", "x0")]
    ).gog,
    **_seeded_twistor_gogs(),
}


class TestAbelianize:
    """`abelian_invariants` on groups of known homology, and against the
    presentation with every edge letter under each spanning forest."""

    def test_free_rank_two(self):
        gog = GraphOfGroups(["v"], {}, {"v": F2}, {}, {})
        assert abelian_invariants(gog) == (0, 0)

    def test_hnn_relator_dies(self):
        assert abelian_invariants(hnn_z_gog()) == (0, 0)

    def test_amalgam(self):
        assert abelian_invariants(amalgam_zz_gog()) == (0,)

    def test_disconnected(self):
        # Z + Z/2 from u - v, Z^2 from the loop at w, Z^2 from x
        assert abelian_invariants(_disconnected_gog()) == (2, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("name", sorted(ORACLE_GOGS))
    def test_matches_tree_oracle(self, name):
        gog = ORACLE_GOGS[name]
        for tree in spanning_forests(gog):
            assert abelian_invariants(gog) == abelian_invariants_by_tree(gog, tree), tree


class TestOrientation:
    def orientation_for_hnn(self):
        gog = hnn_z_gog()
        return gog, OrientationFunctional(gog, {"v": (0,)}, {"e": 1})

    def test_loop_values(self):
        gog, o = self.orientation_for_hnn()
        loop = BassWord.parse(gog, "v: e (x0)")
        assert o.of_loop(loop) == 1

    def test_presentation_projection_kills_relators(self):
        # every Bass relator e~ i_e~(g) e i_e(g)^-1 is trivial in pi_1
        gog = two_loop_gog()
        o = OrientationFunctional(gog, {"v": (1, 2)}, {"e": 3, "f": -1})
        for e in gog.edge_names:
            for gen in gog.eslot(e).generators():
                v = gog.term(e)
                relator = BassWord(gog, v, [
                    gog.vslot(v).identity(),
                    bar(e),
                    gog.injection(bar(e)).apply(gen),
                    e,
                    gog.injection(e).apply(gen).inverse(),
                ])
                assert o.of_loop(relator) == 0

    def test_ill_defined_rejected(self):
        gog = amalgam_zz_gog()
        with pytest.raises(DomainError):
            OrientationFunctional(gog, {"u": (1,), "v": (2,)}, {"e": 0})


class TestTransvection:
    """`twist_coefficients`, the linear model of a twist, against the twist
    acting on loops in the graph of groups."""

    LOOPS = ["v: e (x0) f (x1)", "v: f~ (x0 x1) e (x0')", "v: e e (x1) f~"]

    def shift(self, o, twist, loop):
        """The degree change that the linear model predicts."""
        return twist_coefficients(loop, [twist], o)[0]

    def test_hnn_twist_adds_fiber_generator(self):
        gog = hnn_z_gog()
        o = OrientationFunctional(gog, {"v": (1,)}, {"e": 0})
        twist = DehnTwist(gog, "e", Z.parse("x0"))
        loop = BassWord.parse(gog, "v: e")
        # the image of e gains one x0, so its degree gains o(x0) == 1
        image = induced_on_pi1(twist.to_morphism(), loop)
        assert image == BassWord.parse(gog, "v: e (x0)")
        assert self.shift(o, twist, loop) == 1
        assert o.of_loop(image) == o.of_loop(loop) + 1

    def test_identity_twist(self):
        gog = hnn_z_gog()
        o = OrientationFunctional(gog, {"v": (1,)}, {"e": 0})
        twist = DehnTwist(gog, "e", Z.identity())
        for text in ("v: e", "v: e (x0) e~ (x0')", "v: (x0)"):
            loop = BassWord.parse(gog, text)
            assert induced_on_pi1(twist.to_morphism(), loop) == loop
            assert self.shift(o, twist, loop) == 0

    def test_composite_twists_multiply(self):
        # twists compose by multiplying their twist elements, so their
        # shifts add
        gog = two_loop_gog()
        o = OrientationFunctional(gog, {"v": (1, 2)}, {"e": 1, "f": 2})
        t1 = DehnTwist(gog, "e", F2.parse("x0"))
        t2 = DehnTwist(gog, "e", F2.parse("x0 x0"))
        merged_gamma = compose(t1.to_morphism(), t2.to_morphism()).gammas["e"]
        assert merged_gamma == F2.parse("x0 x0 x0")
        t3 = DehnTwist(gog, "e", merged_gamma)
        for text in self.LOOPS:
            loop = BassWord.parse(gog, text)
            assert self.shift(o, t3, loop) == self.shift(o, t1, loop) + self.shift(o, t2, loop)

    def test_unipotent(self):
        # the linear action of a twist is I + N with N^2 == 0: its k-th
        # power shifts the degree by k times one step
        gog = two_loop_gog()
        o = OrientationFunctional(gog, {"v": (1, 2)}, {"e": 1, "f": 2})
        for twist in small_modular_generators(gog):
            morphism = twist.to_morphism()
            for text in self.LOOPS:
                loop = BassWord.parse(gog, text)
                image = loop
                for k in range(1, 4):
                    image = induced_on_pi1(morphism, image)
                    assert o.of_loop(image) == o.of_loop(loop) + k * self.shift(o, twist, loop)

    def test_linear_model_matches_group_action(self):
        gog = two_loop_gog()
        o = OrientationFunctional(gog, {"v": (1, 2)}, {"e": 1, "f": 2})
        rng = random.Random(97)
        twists = small_modular_generators(gog)
        loops = [BassWord.parse(gog, text) for text in self.LOOPS]
        for _ in range(200):
            twist = rng.choice(twists)
            loop = rng.choice(loops)
            image = induced_on_pi1(twist.to_morphism(), loop)
            assert o.of_loop(image) == o.of_loop(loop) + self.shift(o, twist, loop)

    def test_conjugation_neutrality(self):
        # pure vertex conjugation, ad_g at v with gamma_e == g everywhere,
        # leaves every orientation value unchanged
        gog = two_loop_gog()
        o = OrientationFunctional(gog, {"v": (0, 0)}, {"e": 1, "f": 2})
        g = F2.parse("x0 x1")
        conjugation = validate(
            GoGMorphism(
                gog,
                gog,
                {"v": "v"},
                {e: e for e in gog.oriented_edges()},
                {"v": SlotIso(F2, F2, tuple(x.conjugate(g) for x in F2.generators()))},
                {e: SlotIso.identity(gog.eslot(e)) for e in gog.edge_names},
                {e: g for e in gog.oriented_edges()},
            )
        )
        loops = [
            BassWord.parse(gog, "v: e (x0) f (x1)"),
            BassWord.parse(gog, "v: f~ (x0 x1) e (x0')"),
        ]
        for loop in loops:
            image = induced_on_pi1(conjugation, loop)
            assert o.of_loop(image) == o.of_loop(loop)


class TestBuildSystem:
    def test_already_in_fiber(self):
        gog = hnn_z_gog()
        o = OrientationFunctional(gog, {"v": (0,)}, {"e": 1})
        loop = BassWord.parse(gog, "v: (x0)")
        twists = small_modular_generators(gog)
        system = build_system([loop], twists, o)
        assert all(x == 0 for x in system.b)
        assert solve(system) == [0] * system.ncols

    def test_single_twist_solvable(self):
        gog = hnn_z_gog()
        # x0 has degree 1 here: twisting by x0 shifts the e-column degree
        o = OrientationFunctional(gog, {"v": (1,)}, {"e": 0})
        loop = BassWord.parse(gog, "v: e (x0 x0 x0)")
        twist = DehnTwist(gog, "e", Z.parse("x0"))
        system = build_system([loop], [twist], o)
        assert system.a == ((1,),) and system.b == (-3,)
        assert solve(system) == [-3]

    def test_parity_unsolvable(self):
        gog = hnn_z_gog()
        o = OrientationFunctional(gog, {"v": (2,)}, {"e": 1})
        loop = BassWord.parse(gog, "v: e (x0)")
        twist = DehnTwist(gog, "e", Z.parse("x0"))
        system = build_system([loop], [twist], o)
        assert system.a == ((2,),) and system.b == (-3,)
        assert solve(system) is None


def _corpus_pairs():
    """(jsj_a, jsj_b, whitelist) of every corpus instance."""
    for folder in sorted(f for f in CORPUS.iterdir() if (f / "kind.txt").exists()):
        if (folder / "kind.txt").read_text().strip() == "decide":
            jsj_a, jsj_b = (parse_jsj((folder / f"jsj_{side}.txt").read_text()) for side in "ab")
        else:
            jsj_a, jsj_b = (load_conj_side(folder / side).jsj for side in ("alpha.txt", "beta.txt"))
        yield jsj_a, jsj_b, parse_whitelist((folder / "whitelists.txt").read_text(), jsj_a, jsj_b)


def _seeded_pairs():
    """Seeded twistor pairs over Z^2 and F_2 x Z, b with a's blocks
    reversed (isomorphic) or one block retwisted."""
    rng = random.Random("twist-coefficients")
    for rank, k in ((1, 2), (1, 3), (2, 2), (2, 3)):
        letters = [f"x{i}{s}" for i in range(rank) for s in ("", "'")]
        twists = [" ".join(rng.choices(letters, k=rng.randint(1, 3))) for _ in range(k)]
        other = list(twists)
        other[0] = " ".join(rng.choices(letters, k=2))
        jsj_a = twistor_jsj(rank, twists)
        for twists_b in (twists[::-1], other):
            jsj_b = twistor_jsj(rank, twists_b)
            yield jsj_a, jsj_b, identity_whitelist(jsj_a, jsj_b)


class TestTwistCoefficients:
    """`twist_coefficients` reads n(e, image) off one count of the image's
    crossings; it must equal the formula with `edge_exponent` per twist."""

    @staticmethod
    def per_twist(image, twists, o):
        return [
            (1 if t.edge == unoriented(t.edge) else -1)
            * image.edge_exponent(t.edge)
            * o.of_element(o.gog.term(t.edge), t.z)
            for t in twists
        ]

    def check(self, jsj_a, jsj_b, whitelist):
        loops = [(jsj, loop) for jsj in (jsj_a, jsj_b) for _, loop in jsj.fiber_loops]
        loops += [(jsj, jsj.stable_loop) for jsj in (jsj_a, jsj_b) if jsj.stable_loop is not None]
        witness = decide(jsj_a, jsj_b, whitelist).witness
        if witness is not None:
            loops += [(jsj_b, image) for _, image in witness.fiber_images]
            loops.append((jsj_b, witness.stable_image))
        for jsj, loop in loops:
            twists = small_modular_generators(jsj.gog)
            assert twists
            assert twist_coefficients(loop, twists, jsj.orientation) == self.per_twist(loop, twists, jsj.orientation)
        return witness is not None

    def test_corpus_fiber_images(self):
        assert sum(self.check(*pair) for pair in _corpus_pairs()) == 11

    def test_seeded_pairs(self):
        assert sum(self.check(*pair) for pair in _seeded_pairs()) == 4
