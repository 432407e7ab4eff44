import itertools
import math
import pathlib
import random
from dataclasses import replace

import pytest

from torusconj.cli import _auto_whitelist
from torusconj.errors import DomainError
from torusconj.fibercorrect import OrientationFunctional, abelian_invariants
from torusconj.freegroup import FreeAut, FreeGroup, is_automorphism, nielsen_generators
from torusconj.gog import GroupSlot, SlotElement, SlotHom, SlotIso, validate
from torusconj.pipeline import (
    ConjUngInput,
    JSJInput,
    PeripheralDatum,
    _validate_ung_side,
    admissible_graph_maps,
    assemble,
    conj_ung,
    decide,
    fiber_correct,
    fop_slot_isos,
    parse_jsj,
    parse_whitelist,
    parse_witness,
    serialize_jsj,
    serialize_verdict,
    slot_elementwise_conjugator,
    verify_witness,
)

from .corpus import (
    attached_jsj,
    conjugate_at_vertex,
    conjugate_injection,
    element_of_degree,
    fiber_nielsen,
    identity_whitelist,
    one_twistor_conj_input,
    one_twistor_jsj,
    recoordinatize,
    relabel_blocks,
    rename_vertices,
    reverse_edge,
    twistor_jsj,
)
from .cli_helpers import load_conj_side
from .helpers import invert_whitelist, serialize_whitelist, transport_options

CORPUS = pathlib.Path(__file__).parent / "data" / "corpus"


def _match_one(slot_a, o_a, slot_b, o_b, sources, targets):
    """`fop_slot_isos` with one option per edge, its target: the
    representative of the class of fop isomorphisms carrying each source
    class to a conjugate of its target class, or None."""
    target_keys, classes = fop_slot_isos(slot_a, o_a, slot_b, o_b, sources, [[t] for t in targets], targets, {})
    wanted = [keys[0] for keys in target_keys]
    return next((make() for keys, make in classes if list(keys) == wanted), None)


class TestSlotFopBaseIso:
    def test_z_slot_degree_match(self):
        Z = GroupSlot(1, False)
        assert _match_one(Z, (2,), Z, (2,), [], []) is not None
        assert _match_one(Z, (2,), Z, (3,), [], []) is None
        flip = _match_one(Z, (2,), Z, (-2,), [], [])
        assert flip is not None and flip.apply(Z.generator(0)) == Z.generator(0).inverse()

    def test_z2_degree_iso(self):
        Z2 = GroupSlot(1, True)
        iso = _match_one(Z2, (0, 1), Z2, (1, 1), [], [])
        assert iso is not None
        for i, gen in enumerate(Z2.generators()):
            img = iso.apply(gen)
            vec = img.abelianized()
            assert 1 * vec[0] + 1 * vec[1] == (0, 1)[i]

    def test_z2_gcd_obstruction(self):
        Z2 = GroupSlot(1, True)
        assert _match_one(Z2, (0, 1), Z2, (0, 2), [], []) is None

    def test_z2_matches_gcd_oracle(self):
        # o_b M == o_a has a GL_2(Z) solution iff gcd(o_a) == gcd(o_b): GL_2(Z)
        # acts transitively on the primitive vectors, and o_b M keeps gcd(o_b)
        Z2 = GroupSlot(1, True)
        values = range(-4, 5)
        solvable = 0
        for o_a in itertools.product(values, values):
            for o_b in itertools.product(values, values):
                iso = _match_one(Z2, o_a, Z2, o_b, [], [])
                assert (iso is not None) == (math.gcd(*o_a) == math.gcd(*o_b)), (o_a, o_b)
                if iso is None:
                    continue
                solvable += 1
                m = iso.matrix()
                assert m[0][0] * m[1][1] - m[0][1] * m[1][0] in (1, -1)
                assert all(o_b[0] * m[0][j] + o_b[1] * m[1][j] == o_a[j] for j in range(2))
        assert solvable == 2689

    def test_fxz_generatorwise(self):
        FXZ = GroupSlot(2, True)
        assert _match_one(FXZ, (0, 0, 1), FXZ, (0, 0, 1), [], []) is not None
        assert _match_one(FXZ, (0, 0, 1), FXZ, (0, 0, 2), [], []) is None
        # B re-coordinatized by c -> c^-1, and by x0 -> x0 * c (o_b(x0) == -1)
        flip = _match_one(FXZ, (0, 0, 1), FXZ, (0, 0, -1), [], [])
        assert flip is not None and list(flip.images) == FXZ.generators()[:2] + [FXZ.parse("c^-1")]
        shift = _match_one(FXZ, (0, 0, 1), FXZ, (-1, 0, 1), [], [])
        assert shift is not None and shift.images[0] == FXZ.parse("x0 * c")
        assert _match_one(FXZ, (0, 0, 1), FXZ, (-1, 0, -1), [], []) is not None


class TestZSquareOrbitMatch:
    def test_swapped_center_shifts_realizable(self):
        # two adjacent edges with markings shifted by opposite fiber powers:
        # the transvection [[1, m], [0, 1]] on (z, c) realizes the match
        Z2 = GroupSlot(1, True)
        src = [(Z2.parse("c"),), (Z2.parse("x0 * c"),)]
        tgt = [(Z2.parse("x0' * c"),), (Z2.parse("c"),)]
        eta = _match_one(Z2, (0, 1), Z2, (0, 1), src, tgt)
        assert eta is not None
        # oracle: bounded-entry enumeration of GL2(Z) fixing the degree row
        found = False
        import itertools as it

        for m in it.product(range(-3, 4), repeat=4):
            det = m[0] * m[3] - m[1] * m[2]
            if det not in (1, -1):
                continue
            if (0 * m[0] + 1 * m[2], 0 * m[1] + 1 * m[3]) != (0, 1):
                continue
            ok = True
            for s, t in zip([(0, 1), (1, 1)], [(-1, 1), (0, 1)]):
                if (
                    m[0] * s[0] + m[1] * s[1] != t[0]
                    or m[2] * s[0] + m[3] * s[1] != t[1]
                ):
                    ok = False
            found = found or ok
        assert found

    def test_unrealizable_swap(self):
        # determinant/orientation constraints exclude matching (z, c) onto
        # (c, z): the degree row pins the second column
        Z2 = GroupSlot(1, True)
        src = [(Z2.parse("x0"),), (Z2.parse("c"),)]
        tgt = [(Z2.parse("c"),), (Z2.parse("x0"),)]
        assert _match_one(Z2, (0, 1), Z2, (0, 1), src, tgt) is None

    def test_large_transvection_found_exactly(self):
        # the matching equations are solved, not enumerated, so large
        # center-shift multiples are found
        Z2 = GroupSlot(1, True)
        src = [(Z2.parse("c"),), (Z2.parse("x0"),)]
        tgt = [(Z2.parse("x0^7 * c".replace("x0^7", "x0 " * 7)),), (Z2.parse("x0"),)]
        eta = _match_one(Z2, (0, 1), Z2, (0, 1), src, tgt)
        assert eta is not None
        moved = eta.apply(Z2.parse("c"))
        assert moved.abelianized() == (7, 1)


    def test_determinant_solution_outside_small_entries(self):
        # o == 0 leaves the second column free; det 1 needs (21, 13), which
        # a coefficient box of [-8, 8] over the nullspace misses
        Z2 = GroupSlot(1, True)
        target = Z2.parse(" ".join(["x0"] * 55) + " * c^34")
        eta = _match_one(Z2, (0, 0), Z2, (0, 0), [(Z2.parse("x0"),)], [(target,)])
        assert eta is not None
        m = eta.matrix()
        assert (m[0][0], m[1][0]) == (55, 34)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] in (1, -1)

    def test_exact_match_covers_bounded_search(self):
        # seeded GL_2(Z) cases: whenever a matrix exists (constructed cases)
        # or the former [-8, 8] coefficient box finds one, the closed form
        # finds one too, and every matrix it returns satisfies all conditions
        Z2 = GroupSlot(1, True)
        rng = random.Random(20261018)
        small = [
            m for m in itertools.product(range(-3, 4), repeat=4)
            if m[0] * m[3] - m[1] * m[2] in (1, -1)
        ]
        orientations = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (1, -3)]
        found = {"box": 0, "exact": 0}
        for _ in range(400):
            o = rng.choice(orientations)
            stabilizer = [m for m in small if (o[0] * m[0] + o[1] * m[2], o[0] * m[1] + o[1] * m[3]) == o]
            m = rng.choice(stabilizer)
            base = (rng.randint(-3, 3), rng.randint(-3, 3))
            if base == (0, 0):
                base = (1, 0)
            if rng.random() < 0.5:
                sources = [base, tuple(rng.randint(-2, 2) * x for x in base)]  # rank one
            else:
                sources = [base, (rng.randint(-3, 3), rng.randint(-3, 3))]
            targets = [(m[0] * s[0] + m[1] * s[1], m[2] * s[0] + m[3] * s[1]) for s in sources]
            realizable = rng.random() < 0.7
            if not realizable:
                i = rng.randrange(len(targets))
                targets[i] = (targets[i][0] + rng.choice((1, -1)), targets[i][1])
            as_classes = [
                [(SlotElement(Z2, Z2.free_group.generator(0) ** v[0] if v[0] else Z2.free_group.identity(), v[1]),) for v in vecs]
                for vecs in (sources, targets)
            ]
            eta = _match_one(Z2, o, Z2, o, *as_classes)
            box = _box_zsquare_match(o, sources, targets)
            if realizable or box is not None:
                assert eta is not None, (o, sources, targets)
            if eta is not None:
                e = eta.matrix()
                assert e[0][0] * e[1][1] - e[0][1] * e[1][0] in (1, -1)
                for s, t in zip(sources, targets):
                    assert (e[0][0] * s[0] + e[0][1] * s[1], e[1][0] * s[0] + e[1][1] * s[1]) == t
                assert (o[0] * e[0][0] + o[1] * e[1][0], o[0] * e[0][1] + o[1] * e[1][1]) == o
            found["box"] += box is not None
            found["exact"] += eta is not None
        assert found["exact"] >= found["box"] > 100


def _box_zsquare_match(o, sources, targets):
    """The former bounded search: the linear constraints solved exactly,
    then nullspace coefficients in [-8, 8] tried for det == +-1."""
    from torusconj.fibercorrect import solve_with_nullspace

    rows, rhs = [], []
    for s, t in zip(sources, targets):
        rows += [[s[0], s[1], 0, 0], [0, 0, s[0], s[1]]]
        rhs += [t[0], t[1]]
    rows += [[o[0], 0, o[1], 0], [0, o[0], 0, o[1]]]
    rhs += [o[0], o[1]]
    solved = solve_with_nullspace(rows, rhs)
    if solved is None:
        return None
    particular, basis = solved
    for coeffs in itertools.product(range(-8, 9), repeat=len(basis)):
        entry = list(particular)
        for c, vec in zip(coeffs, basis):
            entry = [e + c * v for e, v in zip(entry, vec)]
        if entry[0] * entry[3] - entry[1] * entry[2] in (1, -1):
            return entry
    return None

class TestSubgroupConjugator:
    def test_cyclic_in_free_slot(self):
        F2 = GroupSlot(2, False)
        d = slot_elementwise_conjugator(F2, [F2.parse("x0")], [F2.parse("x1 x0 x1'")])
        assert d is not None
        assert F2.parse("x0").conjugate(d) == F2.parse("x1 x0 x1'")

    def test_center_mismatch(self):
        FXZ = GroupSlot(1, True)
        assert slot_elementwise_conjugator(FXZ, [FXZ.parse("x0 * c")], [FXZ.parse("x0 * c^2")]) is None


class TestWhiteEnds:
    """An edge's white end read off the black tables' conjugacy keys, as
    `_edge_options` offers it and as an assembled morphism takes it.  Side
    a of `_rigid_star_pair` has cyclic edges e1 and e2 from the free white
    vertex w (o(w) == 0, so every automorphism there is fop) into the Z^2
    black vertex b1 and the F_2 x Z one b2, with classes x0 and x1 at w."""

    @staticmethod
    def _single(jsj, images):
        """The one morphism `assemble` builds from jsj to itself with the
        white candidate at w given by its generator images, and the options
        and carried classes of the table at (b1, b1)."""
        from torusconj.pipeline import _edge_options

        W = jsj.gog.vslot("w")
        whitelist = {("w", "w"): [SlotIso(W, W, tuple(W.parse(x) for x in images))]}
        [morphism] = assemble(jsj, jsj, whitelist)
        assert _validates(morphism)
        return morphism, _edge_options(jsj, jsj, whitelist, "b1", "b1", {})

    def test_inverse_candidate(self):
        # the inverse is no conjugate, but a cyclic edge group falls back to
        # it: the inversion of x0 at w moves the class of e1~ onto its
        # inverse, so the edge isomorphism inverts, and so does the class
        # carried into b1
        F2 = GroupSlot(2, False)
        assert slot_elementwise_conjugator(F2, [F2.parse("x0")], [F2.parse("x0'")]) is None
        jsj, _ = _rigid_star_pair()
        morphism, (options, pools) = self._single(jsj, ["x0'", "x1"])
        carried = tuple(x.inverse() for x in jsj.gog.injection("e1").images)
        assert options == [(("e1", 0),)] and pools == [[carried]]
        assert morphism.edge_isos["e1"].images == (jsj.gog.eslot("e1").generator(0).inverse(),)
        assert morphism.edge_isos["e2"].is_identity()
        assert morphism.gammas["e1~"].is_identity()
        source = jsj.gog.injection("e1").images
        assert tuple(morphism.vertex_isos["b1"].apply(x) for x in source) == carried

    def test_the_class_itself(self):
        jsj, _ = _rigid_star_pair()
        morphism, (options, pools) = self._single(jsj, ["x0", "x1"])
        assert options == [(("e1", 0),)] and pools == [[jsj.gog.injection("e1").images]]
        assert all(iso.is_identity() for iso in morphism.edge_isos.values())
        assert all(gamma.is_identity() for gamma in morphism.gammas.values())

    def test_conjugated_class(self):
        # x0 -> x1 x0 x1' moves the class of e1~ onto a conjugate of itself,
        # x1' x0 x1 == x0 under d == x1: the gamma at the white end is d^-1,
        # and the edge isomorphism stays the identity
        jsj, _ = _rigid_star_pair()
        morphism, (options, _) = self._single(jsj, ["x1 x0 x1'", "x1"])
        W = jsj.gog.vslot("w")
        assert options == [(("e1", 0),)]
        assert morphism.edge_isos["e1"].is_identity()
        assert morphism.gammas["e1~"] == W.parse("x1'")

    def test_no_option_without_a_conjugate(self):
        # x0 -> x0 x1 moves the class of e1~ onto neither the class nor its
        # inverse: no option, so nothing assembles
        from torusconj.pipeline import _edge_options

        jsj, _ = _rigid_star_pair()
        W = jsj.gog.vslot("w")
        whitelist = {("w", "w"): [SlotIso(W, W, (W.parse("x0 x1"), W.parse("x1")))]}
        assert _edge_options(jsj, jsj, whitelist, "b1", "b1", {}) == ([()], [[]])
        assert not list(assemble(jsj, jsj, whitelist))
        assert decide(jsj, jsj, whitelist).status == "no-vertexwise-iso"


class TestDecideVerdicts:
    def test_identical_inputs_isomorphic(self):
        jsj = one_twistor_jsj(2, "x0")
        wl = identity_whitelist(jsj, jsj)
        verdict = decide(jsj, jsj, wl)
        assert verdict.status == "isomorphic-fop"
        assert verdict.witness is not None
        assert all(x == 0 for x in verdict.witness.twist_vector)

    def test_identity_contains_identity_morphism(self):
        jsj = one_twistor_jsj(2, "x0")
        collection = assemble(jsj, jsj, identity_whitelist(jsj, jsj))
        assert any(
            all(m.vertex_map[v] == v for v in jsj.gog.vertices) for m in collection
        )

    def test_empty_whitelist_empty_output(self):
        jsj = one_twistor_jsj(2, "x0")
        verdict = decide(jsj, jsj, {})
        assert verdict.status == "no-vertexwise-iso"

    def test_mismatched_shapes_empty(self):
        # different slot kinds at the black vertex: no graph map survives
        jsj_a = one_twistor_jsj(1, "1")
        jsj_b = one_twistor_jsj(2, "1")
        verdict = decide(jsj_a, jsj_b, identity_whitelist(jsj_a, jsj_b))
        assert verdict.status == "no-vertexwise-iso"

    def test_marking_obstruction(self):
        # s -> s*x0 against s -> s*x0^2: the black markings cannot match
        jsj_a = one_twistor_jsj(2, "x0")
        jsj_b = one_twistor_jsj(2, "x0 x0")
        wl = identity_whitelist(jsj_a, jsj_b)
        verdict = decide(jsj_a, jsj_b, wl)
        assert verdict.status == "no-vertexwise-iso"
        # oracle: abelianized fundamental groups have different torsion
        assert abelian_invariants(jsj_a.gog, ["e1"]) != abelian_invariants(jsj_b.gog, ["e1"])

    def test_twist_word_swap_isomorphic(self):
        jsj_a = one_twistor_jsj(2, "x0")
        jsj_b = one_twistor_jsj(2, "x1")
        verdict = decide(jsj_a, jsj_b, identity_whitelist(jsj_a, jsj_b))
        assert verdict.status == "isomorphic-fop"

    def test_orientation_shift_needs_twist(self):
        # same group, fiber reassigned on the second edge: the correction is
        # a nonzero multiple of the center twist
        jsj_a = one_twistor_jsj(1, "1", center_degree=1, edge2_degree=0)
        jsj_b = one_twistor_jsj(1, "1", center_degree=1, edge2_degree=2)
        verdict = decide(jsj_a, jsj_b, identity_whitelist(jsj_a, jsj_b))
        assert verdict.status == "isomorphic-fop"
        assert any(x != 0 for x in verdict.witness.twist_vector)

    def test_parity_obstruction(self):
        jsj_a = one_twistor_jsj(1, "1", center_degree=2, edge2_degree=0)
        jsj_b = one_twistor_jsj(1, "1", center_degree=2, edge2_degree=1)
        verdict = decide(jsj_a, jsj_b, identity_whitelist(jsj_a, jsj_b))
        assert verdict.status == "vertexwise-but-fiber-fails"

    def test_edge_cap_undecided(self):
        jsj = one_twistor_jsj(1, "1")
        verdict = decide(jsj, jsj, identity_whitelist(jsj, jsj), max_edges=1)
        assert verdict.status == "undecided"

    def test_assemble_invariant_under_candidate_order(self):
        jsj = one_twistor_jsj(2, "x0")
        wslot = jsj.gog.vslot("W")
        ident = SlotIso(wslot, wslot, tuple(wslot.generators()))
        wl1 = {("W", "W"): [ident]}
        # a duplicate candidate must not change the set of results
        wl2 = {("W", "W"): [ident, ident]}
        c1 = assemble(jsj, jsj, wl1)
        c2 = assemble(jsj, jsj, wl2)
        assert {_morphism_key(m) for m in c1} == {_morphism_key(m) for m in c2}

    def test_fiber_correct_monotone(self):
        jsj = one_twistor_jsj(2, "x0")
        collection = list(assemble(jsj, jsj, identity_whitelist(jsj, jsj)))
        assert fiber_correct(collection, jsj, jsj).status == "isomorphic-fop"
        assert fiber_correct(collection * 2, jsj, jsj).status == "isomorphic-fop"

    def test_rank_mismatch_excludes_swap(self):
        # the star's two white leaves have different ranks, so the graph map
        # swapping them has no candidate and only the identity map assembles
        from torusconj.gog import GraphOfGroups, SlotHom

        Z, Z2 = GroupSlot(1, False), GroupSlot(1, True)
        F2, F3 = GroupSlot(2, False), GroupSlot(3, False)
        gog = GraphOfGroups(
            ["u", "v", "z"],
            {"e1": ("z", "u"), "e2": ("z", "v")},
            {"u": F2, "v": F3, "z": Z2},
            {"e1": Z, "e2": Z},
            {
                "e1": SlotHom(Z, F2, (F2.parse("x0"),)),
                "e1~": SlotHom(Z, Z2, (Z2.parse("x0"),)),
                "e2": SlotHom(Z, F3, (F3.parse("x0"),)),
                "e2~": SlotHom(Z, Z2, (Z2.parse("x0"),)),
            },
        )
        orientation = OrientationFunctional(
            gog, {"u": (0, 0), "v": (0, 0, 0), "z": (0, 1)}, {"e1": 0, "e2": 0}
        )
        jsj = JSJInput(
            gog, {"u": "white", "v": "white", "z": "black"}, orientation, ()
        )
        whitelist = {(w, w): [SlotIso.identity(gog.vslot(w))] for w in ("u", "v")}
        collection = list(assemble(jsj, jsj, whitelist))
        assert collection
        assert all(m.vertex_map["u"] == "u" for m in collection)

    def test_witness_revalidates(self):
        jsj = one_twistor_jsj(2, "x0 x1")
        verdict = decide(jsj, jsj, identity_whitelist(jsj, jsj))
        assert verdict.status == "isomorphic-fop"
        assert verify_witness(jsj, jsj, verdict.witness)


def _rigid_star_pair():
    """White F2 between a Z^2 and an fxz black vertex; the b-side swaps the
    white attachment letters, so only a swapping white candidate assembles."""
    from torusconj.gog import GraphOfGroups, SlotHom
    from torusconj.fibercorrect import OrientationFunctional
    from torusconj.gog import BassWord

    Z = GroupSlot(1, False)
    Z2 = GroupSlot(1, True)
    FXZ = GroupSlot(2, True)
    W = GroupSlot(2, False)

    def build(first, second):
        injections = {
            "e1": SlotHom(Z, Z2, (Z2.parse("x0"),)),
            "e1~": SlotHom(Z, W, (W.parse(first),)),
            "e2": SlotHom(Z, FXZ, (FXZ.parse("x0"),)),
            "e2~": SlotHom(Z, W, (W.parse(second),)),
        }
        gog = GraphOfGroups(
            ["b1", "b2", "w"],
            {"e1": ("w", "b1"), "e2": ("w", "b2")},
            {"w": W, "b1": Z2, "b2": FXZ},
            {"e1": Z, "e2": Z},
            injections,
        )
        orientation = OrientationFunctional(
            gog,
            {"w": (0, 0), "b1": (0, 1), "b2": (0, 0, 1)},
            {"e1": 0, "e2": 0},
        )
        fiber = (
            ("f0", BassWord.parse(gog, "b1: e1~ (x0) e1")),
            ("f1", BassWord.parse(gog, "b1: e1~ (x1) e1")),
            ("fc", BassWord.parse(gog, "b1: (c) e1~ (1) e2 (c^-1) e2~ (1) e1")),
        )
        return JSJInput(
            gog,
            {"b1": "black", "b2": "black", "w": "white"},
            orientation,
            fiber,
            BassWord.parse(gog, "b1: (c)"),
            {"w": {"EP": ("e1", "e2")}},
        )

    return build("x0", "x1"), build("x1", "x0")


class TestNontrivialWhiteCandidates:
    def test_identity_candidate_insufficient(self):
        jsj_a, jsj_b = _rigid_star_pair()
        W = jsj_a.gog.vslot("w")
        ident = SlotIso(W, W, tuple(W.generators()))
        verdict = decide(jsj_a, jsj_b, {("w", "w"): [ident]})
        assert verdict.status == "no-vertexwise-iso"

    def test_swap_candidate_assembles(self):
        jsj_a, jsj_b = _rigid_star_pair()
        W = jsj_a.gog.vslot("w")
        ident = SlotIso(W, W, tuple(W.generators()))
        swap = SlotIso(W, W, (W.parse("x1"), W.parse("x0")))
        verdict = decide(jsj_a, jsj_b, {("w", "w"): [ident, swap]})
        assert verdict.status == "isomorphic-fop"
        assert verify_witness(jsj_a, jsj_b, verdict.witness)
        # the witness records the swapping white iso
        assert verdict.witness.morphism.vertex_isos["w"] == swap


# (poly rank, twist words of a, twist words of b); rank 1 gives a Z^2 black
# slot, rank 2 an F_2 x Z one.  b's blocks are a's in another order, or (the
# last of each rank) differ, so some graph maps fail at the black vertex.
BLOCK_CASES = [
    (1, ["x0", "x0 x0"], ["x0 x0", "x0"]),
    (1, ["x0", "x0'", "x0 x0"], ["x0 x0", "x0", "x0'"]),
    (1, ["x0", "x0 x0", "x0"], ["x0", "x0", "x0 x0 x0"]),
    (2, ["x0", "x1"], ["x1", "x0"]),
    (2, ["x0 x1", "x1", "x0"], ["x0", "x0 x1", "x1"]),
    (2, ["x0", "x1 x1"], ["x1", "x0"]),
]


def _block_whitelist(jsj_a, jsj_b):
    """Identity and inversion between every pair of cyclic white vertices;
    the inversion breaks the orientation and is filtered out."""
    out = identity_whitelist(jsj_a, jsj_b)
    for (w, w2), isos in out.items():
        slot = jsj_b.gog.vslot(w2)
        isos.append(SlotIso(jsj_a.gog.vslot(w), slot, (slot.generator(0).inverse(),)))
    return out


def _validates(morphism) -> bool:
    """Whether the Bass diagram of `morphism` commutes (`gog.validate`)."""
    try:
        validate(morphism)
    except DomainError:
        return False
    return True


def _morphism_key(m):
    """A sortable key of a morphism: its graph map, vertex isomorphisms and
    gammas, as tuples."""
    return (
        tuple(sorted(m.vertex_map.items())),
        tuple(sorted(m.edge_map.items())),
        tuple(
            (v, tuple((img.word.letters, img.center) for img in iso.images))
            for v, iso in sorted(m.vertex_isos.items())
        ),
        tuple((e, g.word.letters, g.center) for e, g in sorted(m.gammas.items())),
    )


def _fresh_assemblies(jsj_a, jsj_b, whitelist):
    """The brute-force oracle for `assemble`: every graph isomorphism that
    keeps colors and every tuple of fop white candidates, assembled with
    the reference black matcher `helpers.match_black_slot`, which shares no
    code with the black tables.  Returns {(vertex map, edge map, white
    choices), as frozensets: `_morphism_key`} for the morphisms that validate,
    checked here with `gog.validate` since the assembly does not.  White
    candidates are named by their index among the distinct fop ones."""
    from torusconj.gog import GoGMorphism, bar, unoriented
    from torusconj.pipeline import _white_candidates, slot_elementwise_conjugator

    from .helpers import edge_transport, graph_isomorphisms, match_black_slot

    gog_a, gog_b = jsj_a.gog, jsj_b.gog
    whites = jsj_a.white_vertices()

    def assembled(vmap, emap, isos):
        transports, gammas = {}, {}
        for edge in gog_a.edge_names:
            ew = edge if jsj_a.colors[gog_a.term(edge)] == "white" else bar(edge)
            transports[edge] = edge_transport(jsj_a, jsj_b, ew, emap[ew], isos[gog_a.term(ew)])
            if transports[edge] is None:
                return None
            gammas[ew] = transports[edge].gamma_white
        for b in jsj_a.black_vertices():
            slot_b2 = gog_b.vslot(vmap[b])
            adjacent = sorted(oe for oe in gog_a.oriented_edges() if gog_a.term(oe) == b)
            sources = [tuple(gog_a.injection(oe).apply(g) for g in gog_a.eslot(oe).generators()) for oe in adjacent]
            targets = [transports[unoriented(oe)].target_images for oe in adjacent]
            o_a, o_b = jsj_a.orientation.vertex_values[b], jsj_b.orientation.vertex_values[vmap[b]]
            isos[b] = match_black_slot(gog_a.vslot(b), o_a, slot_b2, o_b, sources, targets)
            if isos[b] is None:
                return None
            for oe, source, target in zip(adjacent, sources, targets):
                p = slot_elementwise_conjugator(slot_b2, tuple(isos[b].apply(x) for x in source), target)
                if p is None:
                    return None
                gammas[oe] = p.inverse()
        edge_isos = {edge: transports[edge].edge_iso for edge in gog_a.edge_names}
        return GoGMorphism(gog_a, gog_b, vmap, emap, isos, edge_isos, gammas)

    fresh = {}
    for vmap, emap in graph_isomorphisms(gog_a, gog_b):
        if any(jsj_a.colors[v] != jsj_b.colors[vmap[v]] for v in gog_a.vertices):
            continue
        candidates = [_white_candidates(jsj_a, jsj_b, whitelist, w, vmap[w], {}) for w in whites]
        for combo in itertools.product(*(range(len(c)) for c in candidates)):
            isos = {w: c[k] for w, c, k in zip(whites, candidates, combo)}
            morphism = assembled(vmap, emap, isos)
            if morphism is not None and _validates(morphism):
                fresh[_map_key(vmap, emap, dict(zip(whites, combo)))] = _morphism_key(morphism)
    return fresh


def _map_key(vmap, emap, chosen):
    return frozenset(vmap.items()), frozenset(emap.items()), frozenset(chosen.items())


def _assert_matches_oracle(jsj_a, jsj_b, whitelist):
    """`admissible_graph_maps` yields exactly the maps of `_fresh_assemblies`,
    once each, and `assemble` one morphism per map, each validating.  With
    no F_k x Z black vertex the morphisms are the oracle's, in key order;
    at F_k x Z the tables' representatives may differ from `mwp_product`'s
    witness, so only the maps are compared there."""
    fresh = _fresh_assemblies(jsj_a, jsj_b, whitelist)
    maps = [_map_key(*found[:3]) for found in admissible_graph_maps(jsj_a, jsj_b, whitelist, {})]
    assert len(maps) == len(set(maps)) and set(maps) == set(fresh)
    collection = list(assemble(jsj_a, jsj_b, whitelist))
    assert len(collection) == len(fresh)
    assert all(_validates(m) for m in collection)
    if all(jsj_a.gog.vslot(b).kind != "fxz" for b in jsj_a.black_vertices()):
        assert [_morphism_key(m) for m in collection] == sorted(fresh.values())
    return collection


class TestAssembleMemo:
    @pytest.mark.parametrize("rank, twists_a, twists_b", BLOCK_CASES)
    def test_memo_matches_fresh_assembly(self, rank, twists_a, twists_b):
        # the memo shared by all graph maps of one call changes no result:
        # the same maps (and at Z^2 the same keys in the same order) as a
        # fresh assembly per graph map and white combination
        jsj_a, jsj_b = twistor_jsj(rank, twists_a), twistor_jsj(rank, twists_b)
        _assert_matches_oracle(jsj_a, jsj_b, _block_whitelist(jsj_a, jsj_b))

    @pytest.mark.parametrize("rank, blocks", [(1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2)])
    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_matches_fresh_assembly(self, rank, blocks, seed):
        # the oracle on seeded pairs, a positive and a usually negative one:
        # Z^2 with k <= 4, F_2 x Z with k <= 3, F_3 x Z with k <= 2
        rng = random.Random(f"oracle-{rank}-{blocks}-{seed}")
        jsj_a, pairs = _seeded_pairs(rng, rank, blocks)
        for jsj_b in pairs:
            _assert_matches_oracle(jsj_a, jsj_b, _block_whitelist(jsj_a, jsj_b))

    def test_no_conjugacy_search_at_white_ends(self, monkeypatch):
        # the black tables key each moved and each target edge class once,
        # with its canonical conjugator, and assembly reads every white end
        # off those pairs: inside `_assemble_one` the only conjugacy searches
        # (`slot_elementwise_conjugator`, and the canonical conjugates it
        # computes) are at black ends, in the black slot of B
        import torusconj.pipeline as pipeline

        events, where = [], []
        assemble_one, conjugator = pipeline._assemble_one, pipeline.slot_elementwise_conjugator
        canonical = pipeline.canonical_conjugate

        def entered(frame, call):
            where.append(frame)
            events.append(tuple(where))
            try:
                return call()
            finally:
                where.pop()

        monkeypatch.setattr(pipeline, "_assemble_one", lambda *args: entered("assemble", lambda: assemble_one(*args)))
        monkeypatch.setattr(
            pipeline, "slot_elementwise_conjugator", lambda slot, *args: entered(slot, lambda: conjugator(slot, *args))
        )
        monkeypatch.setattr(pipeline, "canonical_conjugate", lambda words: entered("key", lambda: canonical(words)))
        for twists_a, twists_b in [
            (["x0", "x0'", "x0 x0"], ["x0 x0", "x0", "x0'"]),
            (["x0", "x0'", "x0 x0", "x0 x0 x0", "x0' x0'"], ["x0 x0 x0", "x0' x0'", "x0", "x0 x0", "x0'"]),
        ]:
            jsj_a, jsj_b = twistor_jsj(1, twists_a), twistor_jsj(1, twists_b)
            events.clear()
            assert list(assemble(jsj_a, jsj_b, identity_whitelist(jsj_a, jsj_b)))
            black = jsj_b.gog.vslot("B")
            searches = [e for e in events if e[0] == "assemble" and len(e) > 1]
            assert searches and all(e[1] == black for e in searches)
            assert ("key",) in events

    def test_validate_once_per_positive(self, monkeypatch):
        # assemble builds its morphisms without validating them, so the Bass
        # diagram is checked only by verify_witness: once for a positive
        # Z^2 pair with k = 4 blocks, never for a negative one, nor for a
        # vertexwise negative whose fiber systems have no solution
        import torusconj.pipeline as pipeline

        calls = []
        original = pipeline.validate

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "validate", counting)
        jsj_a = twistor_jsj(1, ["x0", "x0'", "x0 x0", "x0 x0 x0"])
        parity = [parse_jsj((CORPUS / "13_parity_obstruction" / f"jsj_{s}.txt").read_text()) for s in "ab"]
        cases = [
            (jsj_a, relabel_blocks(jsj_a, [2, 0, 3, 1]), "isomorphic-fop", 1),
            (jsj_a, twistor_jsj(1, ["x0", "x0'", "x0 x0", "x0 x0 x0 x0"]), "no-vertexwise-iso", 0),
            (*parity, "vertexwise-but-fiber-fails", 0),
        ]
        for jsj_a, jsj_b, status, count in cases:
            calls.clear()
            assert decide(jsj_a, jsj_b, identity_whitelist(jsj_a, jsj_b)).status == status
            assert len(calls) == count

    def test_black_match_only_on_admissible_maps(self, monkeypatch):
        # the black tables admit a graph map only when its black match
        # succeeds, and their rows carry the slot isomorphism, so no graph
        # map asks an orbit question: not a Z^2 pair with k = 4 blocks (one
        # black match per graph map, 384, when every map was matched in
        # full), nor an F_2 x Z pair, nor an F_2 x Z vertex with a Z^2 edge
        import torusconj.whitehead as whitehead

        def raising(*args):
            raise AssertionError("assemble asked an orbit question")

        monkeypatch.setattr(whitehead, "same_orbit", raising)
        monkeypatch.setattr(whitehead, "mwp_product", raising)
        jsj_z = twistor_jsj(1, ["x0", "x0'", "x0 x0", "x0 x0 x0"])
        jsj_f = twistor_jsj(2, ["x0 x1", "x1'", "x0"])
        jsj_e = _rank_two_edge_jsj("x0 x1")
        cases = [
            (jsj_z, relabel_blocks(jsj_z, [2, 0, 3, 1])),
            (jsj_f, relabel_blocks(jsj_f, [2, 0, 1])),
            (jsj_e, jsj_e),
        ]
        admitted = []
        for jsj_a, jsj_b in cases:
            whitelist = _auto_whitelist(jsj_a, jsj_b)
            admitted.append(sum(1 for _ in admissible_graph_maps(jsj_a, jsj_b, whitelist, {})))
            assert admitted[-1] == len(list(assemble(jsj_a, jsj_b, whitelist))) > 0
        assert admitted[0] < 384

    @pytest.mark.parametrize("rank, blocks", [(1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_tables_exact(self, rank, blocks):
        # every graph map and candidate tuple the tables admit assembles
        rng = random.Random(f"tables-{rank}-{blocks}")
        jsj_a, pairs = _seeded_pairs(rng, rank, blocks)
        for jsj_b in pairs:
            whitelist = _block_whitelist(jsj_a, jsj_b)
            admitted = sum(1 for _ in admissible_graph_maps(jsj_a, jsj_b, whitelist, {}))
            assert admitted == len(list(assemble(jsj_a, jsj_b, whitelist)))


    @pytest.mark.parametrize("seed", range(12))
    def test_several_black_vertices_match_fresh_assembly(self, seed):
        jsj_a, jsj_b = _two_black_pair(seed)
        _assert_matches_oracle(jsj_a, jsj_b, _block_whitelist(jsj_a, jsj_b))

    def test_target_keys_once_per_edge(self, monkeypatch):
        # the keys of a target edge class and of its inverse are computed
        # once per call, not once per black table that has the edge as a
        # column: with two Z^2 black vertices on each side, every target edge
        # is a column of two tables
        import torusconj.pipeline as pipeline

        asked, keyed, inside = [], [], []
        target_keys, class_key = pipeline._target_keys, pipeline._class_key

        def asking(jsj_b, ew2, memo):
            asked.append(ew2)
            inside.append(ew2)
            try:
                return target_keys(jsj_b, ew2, memo)
            finally:
                inside.pop()

        def keying(elements):
            if inside:
                keyed.append(inside[-1])
            return class_key(elements)

        monkeypatch.setattr(pipeline, "_target_keys", asking)
        monkeypatch.setattr(pipeline, "_class_key", keying)
        jsj = attached_jsj(
            {"B1": 1, "B2": 1},
            [("W1", "B1", "x0"), ("W1", "B2", "1"), ("W2", "B1", "1"), ("W2", "B2", "x0 x0")],
        )
        assert list(assemble(jsj, jsj, identity_whitelist(jsj, jsj)))
        # every edge group is cyclic: one key for the class, one for its inverse
        assert sorted(keyed) == sorted(2 * list(set(asked)))
        assert len(asked) > len(set(asked))


class TestLazyDecide:
    """`decide` assembles the admissible maps one at a time and stops at
    the first verified witness."""

    @staticmethod
    def _count_assemblies(monkeypatch):
        import torusconj.pipeline as pipeline

        calls = []
        original = pipeline._assemble_one

        def counting(jsj_a, jsj_b, whitelist, vmap, emap, chosen, rows, memo):
            calls.append(_map_key(vmap, emap, chosen))
            return original(jsj_a, jsj_b, whitelist, vmap, emap, chosen, rows, memo)

        monkeypatch.setattr(pipeline, "_assemble_one", counting)
        return calls

    def test_positive_assembles_one_map(self, monkeypatch):
        # six identical Z^2 blocks against themselves: 1,440 admissible
        # maps, and the first one already corrects and verifies
        calls = self._count_assemblies(monkeypatch)
        jsj = twistor_jsj(1, ["x0"] * 6)
        whitelist = identity_whitelist(jsj, jsj)
        assert decide(jsj, jsj, whitelist).status == "isomorphic-fop"
        assert len(calls) == 1
        assert sum(1 for _ in admissible_graph_maps(jsj, jsj, whitelist, {})) == 1440

    def test_negative_assembles_each_map_once(self, monkeypatch):
        # three repeated blocks with the parity obstruction: no map corrects,
        # so every admissible map is assembled, and none twice
        calls = self._count_assemblies(monkeypatch)
        jsj_a = twistor_jsj(1, ["1"] * 3, center_degree=2, edge2_degree=0)
        jsj_b = twistor_jsj(1, ["1"] * 3, center_degree=2, edge2_degree=1)
        whitelist = identity_whitelist(jsj_a, jsj_b)
        maps = [_map_key(*found[:3]) for found in admissible_graph_maps(jsj_a, jsj_b, whitelist, {})]
        assert decide(jsj_a, jsj_b, whitelist).status == "vertexwise-but-fiber-fails"
        assert len(calls) == len(set(calls)) == len(maps) > 1
        assert set(calls) == set(maps)

    def test_edge_cap_checked_before_assembly(self, monkeypatch):
        calls = self._count_assemblies(monkeypatch)
        jsj = one_twistor_jsj(1, "1")
        verdict = decide(jsj, jsj, identity_whitelist(jsj, jsj), max_edges=1)
        assert (verdict.status, verdict.detail) == ("undecided", "graph-map enumeration capped at 1 edges")
        assert not calls

    def test_fiber_correct_takes_any_iterable(self):
        jsj = one_twistor_jsj(2, "x0")
        assert fiber_correct(iter(()), jsj, jsj).status == "no-vertexwise-iso"
        witness = fiber_correct(assemble(jsj, jsj, identity_whitelist(jsj, jsj)), jsj, jsj).witness
        assert witness is not None and verify_witness(jsj, jsj, witness)


def _two_black_pair(seed):
    """Two black vertices, white vertices reaching one or both; side b is
    a, or a with one word changed, then with its black vertices
    recoordinatized, some edges reversed and its vertices renamed."""
    rng = random.Random(f"two-black-{seed}")
    ranks = {"B1": rng.choice((1, 2)), "B2": rng.choice((1, 2))}
    attachments = [
        (f"W{j}", b, " ".join(rng.choices([f"x{i}{s}" for i in range(ranks[b]) for s in ("", "'")], k=rng.randint(0, 2))) or "1")
        for j in range(rng.randint(2, 3))
        for b in rng.sample(sorted(ranks), rng.choice((1, 2)))
        for _ in range(rng.choice((1, 2)))
    ][:7]
    jsj_a = attached_jsj(ranks, attachments)
    jsj_b = jsj_a
    if seed % 2:
        changed = list(attachments)
        w, b, _ = changed[0]
        changed[0] = (w, b, "x0 x0")
        jsj_b = attached_jsj(ranks, changed)
    for b in ranks:
        jsj_b = recoordinatize(jsj_b, b, _random_black_iso(rng, jsj_b.gog.vslot(b)))
    for edge in jsj_b.gog.edge_names:
        if rng.random() < 0.3:
            jsj_b = reverse_edge(jsj_b, edge)
    return jsj_a, rename_vertices(jsj_b, _random_names(rng, jsj_b))


def _rigid_star_whitelist(jsj_a, jsj_b, signed=False):
    """The identity and the swap at the free white vertex; `signed` adds
    the swap with one image inverted, fop since o(w) == 0, under which the
    moved class of e1 is the inverse of its target."""
    W, W2 = jsj_a.gog.vslot("w"), jsj_b.gog.vslot("w")
    images = [("x0", "x1"), ("x1", "x0")] + ([("x1'", "x0")] if signed else [])
    return {("w", "w"): [SlotIso(W, W2, (W2.parse(p), W2.parse(q))) for p, q in images]}


def _center_white_pair():
    """A white F_2 x Z vertex joined to a black Z^2 one by two edges whose
    classes at the white end differ only in the center: x0 and x0 * c.  On
    side b the two edges trade their injections."""
    from torusconj.gog import GraphOfGroups, SlotHom

    Z, Z2, W = GroupSlot(1, False), GroupSlot(1, True), GroupSlot(2, True)

    def build(first, second):
        injections = {}
        for e, text in (("e1", first), ("e2", second)):
            injections[e] = SlotHom(Z, Z2, (Z2.parse(text),))
            injections[e + "~"] = SlotHom(Z, W, (W.parse(text),))
        gog = GraphOfGroups(["b", "w"], {"e1": ("w", "b"), "e2": ("w", "b")}, {"w": W, "b": Z2},
                            {"e1": Z, "e2": Z}, injections)
        orientation = OrientationFunctional(gog, {"w": (0, 0, 1), "b": (0, 1)}, {"e1": 0, "e2": 0})
        return JSJInput(gog, {"b": "black", "w": "white"}, orientation, ())

    return build("x0", "x0 * c"), build("x0 * c", "x0")


def _rank_two_edge_jsj(first: str) -> JSJInput:
    """An F_2 x Z black vertex B with a Z^2 edge e1 to a Z^2 white
    vertex W, injected as <first, c>, and a Z edge to a Z white V."""
    return parse_jsj(f"""
[vertices]
B: fxz 2
W: Z2 1
V: Z 1
[edges]
e1: W --> B (Z2 1)
e2: V --> B (Z 1)
[injections]
e1: x0 -> {first}
e1: c -> c
e1~: x0 -> x0
e1~: c -> c
e2: x0 -> x1 * c
e2~: x0 -> x0
[colors]
B: black
W: white
V: white
[orientation]
vertex B: 0 0 1
vertex W: 0 1
vertex V: 1
edge e1: 0
edge e2: 0
[fiber]
h0 = B : (x0)
""")


def _free_edge_jsj(first: str, second: str) -> JSJInput:
    """An F_3 x Z black vertex B with an F_2 x Z edge e1 from an F_2 x Z
    white vertex W, injected as <first, second, c>, and a Z edge x2 * c
    from a Z white V."""
    return parse_jsj(f"""
[vertices]
B: fxz 3
W: fxz 2
V: Z 1
[edges]
e1: W --> B (fxz 2)
e2: V --> B (Z 1)
[injections]
e1: x0 -> {first}
e1: x1 -> {second}
e1: c -> c
e1~: x0 -> x0
e1~: x1 -> x1
e1~: c -> c
e2: x0 -> x2 * c
e2~: x0 -> x0
[colors]
B: black
W: white
V: white
[orientation]
vertex B: 0 0 0 1
vertex W: 0 0 1
vertex V: 1
edge e1: 0
edge e2: 0
[fiber]
h0 = B : (x0)
""")


def _two_edge_jsj(second: str) -> JSJInput:
    """An F_2 x Z black vertex B with two Z^2 edges, <x0, c> from W1 and
    <second, c> from W2, both Z^2 white vertices, and a Z edge x0 x1 * c
    from a Z white V."""
    return parse_jsj(f"""
[vertices]
B: fxz 2
W1: Z2 1
W2: Z2 1
V: Z 1
[edges]
e1: W1 --> B (Z2 1)
e2: W2 --> B (Z2 1)
e3: V --> B (Z 1)
[injections]
e1: x0 -> x0
e1: c -> c
e1~: x0 -> x0
e1~: c -> c
e2: x0 -> {second}
e2: c -> c
e2~: x0 -> x0
e2~: c -> c
e3: x0 -> x0 x1 * c
e3~: x0 -> x0
[colors]
B: black
W1: white
W2: white
V: white
[orientation]
vertex B: 0 0 1
vertex W1: 0 1
vertex W2: 0 1
vertex V: 1
edge e1: 0
edge e2: 0
edge e3: 0
[fiber]
h0 = B : (x0)
""")


class TestNonCyclicEdgeGroups:
    """F_k x Z black vertices with non-cyclic edge groups get level rows
    like cyclic ones, and `assemble` matches the brute-force oracle on
    them: each input against itself and two copies re-expressed at B (all
    isomorphic), and against copies whose edge classes leave the orbit (no
    vertexwise isomorphism).  The last copies of the F_3 x Z and two-edge
    cases have the minimal length of the orbit, so only the level tells
    them apart."""

    @pytest.mark.parametrize(
        "jsj_a, negatives",
        [
            (_rank_two_edge_jsj("x0 x1"), [_rank_two_edge_jsj("x0 x0 x1")]),
            (_free_edge_jsj("x0", "x1"), [_free_edge_jsj("x0 x0", "x1"), _free_edge_jsj("x0", "x1 x2 x1'")]),
            (_two_edge_jsj("x1"), [_two_edge_jsj("x1 x0 x1"), _two_edge_jsj("x1'")]),
        ],
        ids=["f2-z2-edge", "f3-f2xz-edge", "f2-two-z2-edges"],
    )
    def test_matches_oracle(self, jsj_a, negatives):
        rng = random.Random(f"non-cyclic-{jsj_a.gog.vslot('B').free_rank}-{len(negatives)}")
        copies = [recoordinatize(jsj_a, "B", _random_black_iso(rng, jsj_a.gog.vslot("B"))) for _ in range(2)]
        for jsj_b in [jsj_a, *copies, *negatives]:
            whitelist = _auto_whitelist(jsj_a, jsj_b)
            collection = _assert_matches_oracle(jsj_a, jsj_b, whitelist)
            assert bool(collection) == (jsj_b not in negatives)
            verdict = decide(jsj_a, jsj_b, whitelist)
            if collection:
                assert verdict.status == "isomorphic-fop"
                assert verify_witness(jsj_a, jsj_b, verdict.witness)
            else:
                assert verdict.status == "no-vertexwise-iso"


class TestBlackTableRows:
    """Each table row carries one fop slot isomorphism of its class: it
    carries every edge class into b to a conjugate of each option the row
    holds, for every row, not only the first one a map takes."""

    @staticmethod
    def _check_rows(jsj_a, jsj_b, whitelist) -> int:
        """Check every row of the table at (B, B); the number of rows."""
        from torusconj.pipeline import _black_classes, _black_table, _edge_options, slot_elementwise_conjugator

        memo: dict = {}
        table = _black_table(jsj_a, jsj_b, whitelist, "B", "B", memo)
        _, sources = _black_classes(jsj_a, "source", "B", memo)
        _, pools = _edge_options(jsj_a, jsj_b, whitelist, "B", "B", memo)
        slot_a, slot_b = jsj_a.gog.vslot("B"), jsj_b.gog.vslot("B")
        o_a = jsj_a.orientation.vertex_values["B"]
        assert len(table.isos) == len(table.rows)
        for row, make in zip(table.rows, table.isos):
            phi = make()
            assert [jsj_b.orientation.of_element("B", phi.apply(g)) for g in slot_a.generators()] == list(o_a)
            for source, pool, held in zip(sources, pools, row):
                moved = tuple(phi.apply(x) for x in source)
                assert all(slot_elementwise_conjugator(slot_b, moved, pool[j]) is not None for j in held)
        return len(table.rows)

    @pytest.mark.parametrize("rank, blocks", [(1, 3), (1, 4), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_every_row_carries_its_options(self, rank, blocks):
        rng = random.Random(f"table-rows-{rank}-{blocks}")
        jsj_a, pairs = _seeded_pairs(rng, rank, blocks)
        counts = [
            self._check_rows(jsj_a, jsj_b, _block_whitelist(jsj_a, jsj_b))
            for jsj_b in [*pairs, recoordinatize(pairs[0], "B", _random_black_iso(rng, pairs[0].gog.vslot("B")))]
        ]
        # the positive pair and its re-expressed copy
        assert counts[0] and counts[2], counts

    def test_rank_two_edge_rows(self):
        # a Z^2 edge group gets level rows, each with a representative,
        # like a cyclic one: against itself, against a copy re-expressed at
        # B, and against a copy whose e1 class is <x0^2 x1, c>, not in the
        # orbit of <x0 x1, c> with x1 c, which has no row
        jsj_a = _rank_two_edge_jsj("x0 x1")
        slot = jsj_a.gog.vslot("B")
        swap = SlotIso(slot, slot, (slot.parse("x1"), slot.parse("x0 * c"), slot.parse("c")))
        cases = [
            (jsj_a, "isomorphic-fop"),
            (recoordinatize(jsj_a, "B", swap), "isomorphic-fop"),
            (_rank_two_edge_jsj("x0 x0 x1"), "no-vertexwise-iso"),
        ]
        for jsj_b, status in cases:
            whitelist = _auto_whitelist(jsj_a, jsj_b)
            rows = self._check_rows(jsj_a, jsj_b, whitelist)
            assert bool(rows) == (status == "isomorphic-fop")
            verdict = decide(jsj_a, jsj_b, whitelist)
            assert verdict.status == status
            if status == "isomorphic-fop":
                assert verify_witness(jsj_a, jsj_b, verdict.witness)
                assert _validates(verdict.witness.morphism)


class TestEdgeOptions:
    """Each black table's options and carried classes, read off conjugacy
    keys, equal the ones one full edge transport per (edge into b, edge
    into b2, white candidate) gives: the same options in the same order."""

    @staticmethod
    def _check(jsj_a, jsj_b, whitelist):
        """Assert the oracle on every pair of black vertices; return what
        the transports exercised: an inverted edge group, a non-trivial
        conjugator at the white end."""
        from torusconj.pipeline import _edge_options

        seen = set()
        for b in jsj_a.black_vertices():
            for b2 in jsj_b.black_vertices():
                options, pools = _edge_options(jsj_a, jsj_b, whitelist, b, b2, {})
                expected, transports = transport_options(jsj_a, jsj_b, whitelist, b, b2)
                assert options == expected
                assert pools == [[t.target_images for t in edge] for edge in transports]
                for t in itertools.chain(*transports):
                    if not t.edge_iso.is_identity():
                        seen.add("inverted")
                    if not t.gamma_white.is_identity():
                        seen.add("conjugated")
        return seen

    @pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.iterdir()))
    def test_corpus(self, name):
        folder = CORPUS / name
        if (folder / "jsj_a.txt").exists():
            jsj_a = parse_jsj((folder / "jsj_a.txt").read_text())
            jsj_b = parse_jsj((folder / "jsj_b.txt").read_text())
        else:
            jsj_a, jsj_b = (load_conj_side(folder / side).jsj for side in ("alpha.txt", "beta.txt"))
        self._check(jsj_a, jsj_b, parse_whitelist((folder / "whitelists.txt").read_text(), jsj_a, jsj_b))

    @pytest.mark.parametrize("rank, blocks", [(1, 2), (1, 4), (2, 1), (2, 3), (3, 1), (3, 2)])
    def test_seeded(self, rank, blocks):
        jsj_a, pairs = _seeded_pairs(random.Random(f"options-{rank}-{blocks}"), rank, blocks)
        for jsj_b in pairs:
            self._check(jsj_a, jsj_b, _block_whitelist(jsj_a, jsj_b))

    @pytest.mark.parametrize("seed", range(12))
    def test_two_black_vertices(self, seed):
        jsj_a, jsj_b = _two_black_pair(seed)
        self._check(jsj_a, jsj_b, _block_whitelist(jsj_a, jsj_b))

    def test_rigid_star(self):
        # identity and swap candidates, then signed ones (sigma == -1), each
        # also with side b's white injections conjugated in the free white
        # slot (a non-trivial conjugator d)
        jsj_a, jsj_b = _rigid_star_pair()
        W = jsj_b.gog.vslot("w")
        conjugated = conjugate_injection(jsj_b, "e1~", W.parse("x0 x1'"))
        conjugated = conjugate_injection(conjugated, "e2~", W.parse("x1 x1 x0"))
        seen = set()
        for b_side in (jsj_b, conjugated):
            for signed in (False, True):
                seen |= self._check(jsj_a, b_side, _rigid_star_whitelist(jsj_a, b_side, signed))
        assert seen == {"inverted", "conjugated"}

    def test_white_center(self):
        # the keys hold the centers: x0 and x0 * c are not conjugate
        jsj_a, jsj_b = _center_white_pair()
        W = jsj_a.gog.vslot("w")
        self._check(jsj_a, jsj_b, {("w", "w"): [SlotIso.identity(W)]})
        options, _ = transport_options(jsj_a, jsj_b, {("w", "w"): [SlotIso.identity(W)]}, "b", "b")
        assert options == [(("e2", 0),), (("e1", 0),)]


class TestBlockRelabel:
    @pytest.mark.parametrize("rank, twists", [(1, ["x0", "x0 x0"]), (1, ["x0", "x0'", "x0 x0"]),
                                              (2, ["x0", "x1 x0"]), (2, ["x0 x1", "x1", "x0"])])
    def test_relabel_is_isomorphic(self, rank, twists):
        jsj_a = twistor_jsj(rank, twists)
        perm = list(range(len(twists)))[1:] + [0]
        jsj_b = relabel_blocks(jsj_a, perm)
        assert jsj_b.gog != jsj_a.gog
        verdict = decide(jsj_a, jsj_b, identity_whitelist(jsj_a, jsj_b))
        assert verdict.status == "isomorphic-fop"
        assert verify_witness(jsj_a, jsj_b, verdict.witness)


class TestDecideSwapSides:
    """Swapping the sides, with the whitelist inverted, keeps decide's
    status; every positive, either way round, passes verify_witness."""

    @staticmethod
    def _assert_swap(jsj_a, jsj_b, whitelist, expected=None):
        forward = decide(jsj_a, jsj_b, whitelist)
        backward = decide(jsj_b, jsj_a, invert_whitelist(whitelist))
        assert backward.status == forward.status
        if expected is not None:
            assert forward.status == expected
        if forward.status == "isomorphic-fop":
            assert verify_witness(jsj_a, jsj_b, forward.witness)
            assert verify_witness(jsj_b, jsj_a, backward.witness)
        return forward.status

    @pytest.mark.parametrize(
        "name",
        ["12_orientation_shift", "13_parity_obstruction", "14_center_inverted", "15_fiber_basis_shift"],
    )
    def test_corpus(self, name):
        folder = CORPUS / name
        jsj_a = parse_jsj((folder / "jsj_a.txt").read_text())
        jsj_b = parse_jsj((folder / "jsj_b.txt").read_text())
        whitelist = parse_whitelist((folder / "whitelists.txt").read_text(), jsj_a, jsj_b)
        self._assert_swap(jsj_a, jsj_b, whitelist, (folder / "expected.txt").read_text().strip())

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_blocks(self, seed):
        # rank 1 gives Z^2 black slots with three blocks, rank 2 F_2 x Z
        # with two; b is a relabelling of a, then a with one block retwisted
        rng = random.Random(f"swap-{seed}")
        rank = 1 + seed % 2
        letters = [f"x{i}{s}" for i in range(rank) for s in ("", "'")]
        twists = [" ".join(rng.choices(letters, k=rng.randint(1, 2))) for _ in range(4 - rank)]
        jsj_a = twistor_jsj(rank, twists)
        perm = list(range(len(twists)))
        rng.shuffle(perm)
        relabelled = relabel_blocks(jsj_a, perm)
        self._assert_swap(jsj_a, relabelled, _block_whitelist(jsj_a, relabelled), "isomorphic-fop")
        retwisted = list(twists)
        retwisted[rng.randrange(len(twists))] = " ".join(rng.choices(letters, k=3))
        jsj_b = twistor_jsj(rank, retwisted)
        self._assert_swap(jsj_a, jsj_b, _block_whitelist(jsj_a, jsj_b))


def _random_black_iso(rng, slot):
    """A random automorphism of a black slot: a product of elementary
    GL_2(Z) matrices for Z^2; for F_k x Z a signed permutation of the free
    generators, each times a random center power, and c -> c^+-1."""
    if slot.kind == "Z2":
        m = [[1, 0], [0, 1]]
        for _ in range(4):
            i, j = rng.sample((0, 1), 2)
            r = rng.randint(-3, 3)
            m[i] = [a + r * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.5:
            m = [[-x for x in row] if k == 0 else row for k, row in enumerate(m)]
        return SlotIso.from_matrix(slot, slot, m)
    perm = rng.sample(range(slot.free_rank), slot.free_rank)
    images = []
    for i in perm:
        x = slot.generator(i)
        x = x if rng.random() < 0.5 else x.inverse()
        images.append(SlotElement(slot, x.word, rng.randint(-2, 2)))
    images.append(SlotElement(slot, slot.free_group.identity(), rng.choice((1, -1))))
    return SlotIso(slot, slot, tuple(images))


class TestBlackRecoordinatization:
    """Re-expressing side b's black vertex in another basis (a GL_2(Z)
    matrix at Z^2, a signed permutation with center shifts and c -> c^+-1
    at F_k x Z) keeps decide's status; positives pass verify_witness."""

    @pytest.mark.parametrize("seed", range(9))
    def test_status_unchanged(self, seed):
        rng = random.Random(f"recoordinatize-{seed}")
        rank, blocks = 1 + seed % 3, 1 + seed // 3
        letters = [f"x{i}{s}" for i in range(rank) for s in ("", "'")]
        twists = [" ".join(rng.choices(letters, k=rng.randint(1, 2))) for _ in range(blocks)]
        jsj_a = twistor_jsj(rank, twists)
        perm = list(range(blocks))
        rng.shuffle(perm)
        retwisted = list(twists)
        retwisted[rng.randrange(blocks)] = " ".join(rng.choices(letters, k=3))
        pairs = [relabel_blocks(jsj_a, perm) if blocks > 1 else jsj_a, twistor_jsj(rank, retwisted)]
        for jsj_b in pairs:
            whitelist = _block_whitelist(jsj_a, jsj_b)
            expected = decide(jsj_a, jsj_b, whitelist).status
            assert expected != "undecided"
            for _ in range(2):
                iso = _random_black_iso(rng, jsj_b.gog.vslot("B"))
                moved = recoordinatize(jsj_b, "B", iso)
                verdict = decide(jsj_a, moved, whitelist)
                assert verdict.status == expected, (seed, iso.images)
                if verdict.status == "isomorphic-fop":
                    assert verify_witness(jsj_a, moved, verdict.witness)


def _seeded_pairs(rng, rank, blocks):
    """A seeded twistor torus a, with b its blocks in another order (a
    positive) and b with one block retwisted (usually a negative)."""
    letters = [f"x{i}{s}" for i in range(rank) for s in ("", "'")]
    twists = [" ".join(rng.choices(letters, k=rng.randint(1, 2))) for _ in range(blocks)]
    jsj_a = twistor_jsj(rank, twists)
    perm = list(range(blocks))
    rng.shuffle(perm)
    retwisted = list(twists)
    retwisted[rng.randrange(blocks)] = " ".join(rng.choices(letters, k=3))
    return jsj_a, [relabel_blocks(jsj_a, perm) if blocks > 1 else jsj_a, twistor_jsj(rank, retwisted)]


def _random_names(rng, jsj):
    """Distinct fresh vertex names, so that their sorted order is random."""
    names = rng.sample(["Q", "a7", "zeta", "B0", "m_1", "W", "x", "k2", "Vb"], len(jsj.gog.vertices))
    return dict(zip(jsj.gog.vertices, names))


def _edges_reversed(rng, jsj):
    for edge in jsj.gog.edge_names:
        if rng.random() < 0.5:
            jsj = reverse_edge(jsj, edge)
    return jsj


def _injection_conjugated(rng, jsj):
    # a fiber element at B: a word in the free generators, whose degrees
    # are 0 in every twistor torus
    edge = rng.choice([oe for oe in jsj.gog.oriented_edges() if jsj.gog.term(oe) == "B"])
    slot = jsj.gog.vslot("B")
    letters = [f"x{i}{s}" for i in range(slot.free_rank) for s in ("", "'")]
    g = slot.parse(" ".join(rng.choices(letters, k=rng.randint(1, 3))))
    assert jsj.orientation.of_element("B", g) == 0
    return conjugate_injection(jsj, edge, g)


def _fiber_rebased(rng, jsj):
    i, j = rng.sample(range(len(jsj.fiber_loops)), 2)
    return fiber_nielsen(jsj, i, j)


def _white_conjugated(rng, jsj):
    # every twistor white slot is Z with o == 1, so ad_g fixes the
    # injections and the rewrite moves the edge values by the nonzero o(g)
    w = rng.choice(jsj.white_vertices())
    return conjugate_at_vertex(jsj, w, element_of_degree(jsj, w, rng.choice((-2, -1, 1, 2))))


def _injection_conjugated_off_fiber(rng, jsj):
    # an element of nonzero degree at B: a word in the free generators
    # times a power of the center
    edge = rng.choice([oe for oe in jsj.gog.oriented_edges() if jsj.gog.term(oe) == "B"])
    slot = jsj.gog.vslot("B")
    letters = [f"x{i}{s}" for i in range(slot.free_rank) for s in ("", "'")]
    word = " ".join(rng.choices(letters, k=rng.randint(0, 2))) or "1"
    return conjugate_injection(jsj, edge, element_of_degree(jsj, "B", rng.choice((-2, -1, 1, 2)), word))


SYMMETRIES = {
    "reverse-edges": _edges_reversed,
    "rename-vertices": lambda rng, jsj: rename_vertices(jsj, _random_names(rng, jsj)),
    "conjugate-injection": _injection_conjugated,
    "fiber-nielsen": _fiber_rebased,
    "conjugate-white": _white_conjugated,
    "conjugate-off-fiber": _injection_conjugated_off_fiber,
}


class TestInputSymmetries:
    """Rewriting side b's file by a symmetry of the input format (reversing
    edges, renaming vertices, conjugating an injection into the black vertex
    by a fiber element or by an element of nonzero degree, conjugating the
    injections into a white vertex, changing the fiber basis and the stable
    lift) keeps decide's status; positives pass verify_witness.  Every
    rewritten input is read back from its serialization first."""

    @staticmethod
    def _check(seed, transforms):
        rng = random.Random(f"symmetry-{seed}")
        rank, blocks = [(1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)][seed % 6]
        jsj_a, pairs = _seeded_pairs(rng, rank, blocks)
        for jsj_b in pairs:
            expected = decide(jsj_a, jsj_b, _block_whitelist(jsj_a, jsj_b)).status
            assert expected != "undecided"
            moved = jsj_b
            for transform in transforms:
                moved = parse_jsj(serialize_jsj(transform(rng, moved)))
            verdict = decide(jsj_a, moved, _block_whitelist(jsj_a, moved))
            assert verdict.status == expected, (seed, [t.__name__ for t in transforms])
            if verdict.status == "isomorphic-fop":
                assert verify_witness(jsj_a, moved, verdict.witness)

    @pytest.mark.parametrize("name", sorted(SYMMETRIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_status_unchanged(self, name, seed):
        self._check(seed, [SYMMETRIES[name]])

    @pytest.mark.parametrize("seed", range(6))
    def test_composite(self, seed):
        self._check(100 + seed, [SYMMETRIES[name] for name in sorted(SYMMETRIES)])

    @pytest.mark.parametrize("seed", range(6))
    def test_nonzero_degree_composite(self, seed):
        self._check(200 + seed, [SYMMETRIES["conjugate-white"], SYMMETRIES["conjugate-off-fiber"]])

    @pytest.mark.parametrize("signed", [False, True])
    def test_free_white_conjugated(self, signed):
        # side b's injections into its free white vertex conjugated there by
        # different elements: every edge transport needs a non-trivial
        # conjugator, and under the signed candidate e1's is inverted
        jsj_a, jsj_b = _rigid_star_pair()
        whitelist = _rigid_star_whitelist(jsj_a, jsj_b, signed)
        assert decide(jsj_a, jsj_b, whitelist).status == "isomorphic-fop"
        W = jsj_b.gog.vslot("w")
        moved = conjugate_injection(jsj_b, "e1~", W.parse("x0 x1'"))
        moved = parse_jsj(serialize_jsj(conjugate_injection(moved, "e2~", W.parse("x1 x1 x0"))))
        verdict = decide(jsj_a, moved, _rigid_star_whitelist(jsj_a, moved, signed))
        assert verdict.status == "isomorphic-fop"
        assert verify_witness(jsj_a, moved, verdict.witness)


class TestBlackDegreeCondition:
    """A black F_k x Z vertex is P x <c> with P in the fiber only if its
    center degree is nonzero and divides every free generator's degree."""

    @pytest.mark.parametrize(
        "values, accepted",
        [
            ((0, 0, 1), True),
            ((0, 0, -1), True),
            ((-1, 0, 1), True),
            ((4, -2, 2), True),
            ((2, 6, -2), True),
            ((0, 0, 0), False),
            ((1, 0, 0), False),
            ((1, 0, 2), False),
            ((0, 3, -2), False),
        ],
    )
    def test_center_degree_divides(self, values, accepted):
        # both edges inject the white generator as c, so any vector with
        # o(W) == o(c) is well defined
        jsj = one_twistor_jsj(2, "1")
        vertex_values = {"B": values, "W": values[-1:]}
        orientation = OrientationFunctional(jsj.gog, vertex_values, jsj.orientation.edge_values)
        if accepted:
            JSJInput(jsj.gog, jsj.colors, orientation, ())
        else:
            with pytest.raises(DomainError, match="black vertex B"):
                JSJInput(jsj.gog, jsj.colors, orientation, ())


def assert_conj_ung(a, b, whitelist, expected):
    """conj_ung answers `expected`; a `conjugate` answer carries a witness
    that verify_witness accepts."""
    verdict = conj_ung(a, b, whitelist)
    assert verdict.status == expected
    if expected == "conjugate":
        assert verify_witness(a.jsj, b.jsj, verdict.witness)
    return verdict


class TestConjUng:
    def test_identity_monodromy(self):
        a = one_twistor_conj_input(3, "x0")
        b = one_twistor_conj_input(3, "x0")
        assert_conj_ung(a, b, identity_whitelist(a.jsj, b.jsj), "conjugate")

    def test_inner_monodromy_with_witness(self):
        a = one_twistor_conj_input(3, "x0")
        b = one_twistor_conj_input(3, "x0", conjugator_text="a b")
        # explicit check of the class condition on b's side
        for p in b.peripherals[0].generators:
            moved = b.aut.apply(p).conjugate(b.peripherals[0].conjugator)
            assert moved == p
        assert_conj_ung(a, b, identity_whitelist(a.jsj, b.jsj), "conjugate")

    def test_long_inner_monodromy(self):
        # the peripheral monodromy is ad_{(ab)^9}: inner, with a conjugator
        # of length 18
        a = one_twistor_conj_input(3, "x0")
        b = one_twistor_conj_input(3, "x0", conjugator_text=" ".join(["a b"] * 9))
        assert_conj_ung(a, b, identity_whitelist(a.jsj, b.jsj), "conjugate")

    def test_abelianization_negative(self):
        a = one_twistor_conj_input(3, "x0")
        b = one_twistor_conj_input(3, "x0 x0")
        verdict = conj_ung(a, b, identity_whitelist(a.jsj, b.jsj))
        assert verdict.status == "not-conjugate"

    def test_symmetry_of_status(self):
        pairs = [
            ("x0", "x0"),
            ("x0", "x0 x0"),
            ("x0", "x1"),
            ("x0 x1", "x1 x0"),
        ]
        for wa, wb in pairs:
            a = one_twistor_conj_input(3, wa)
            b = one_twistor_conj_input(3, wb)
            wl = identity_whitelist(a.jsj, b.jsj)
            forward = conj_ung(a, b, wl).status
            assert_conj_ung(b, a, invert_whitelist(wl), forward)

    def test_invalid_class_rejected(self):
        group = FreeGroup(3)
        aut = is_automorphism(
            group, [group.parse("b"), group.parse("a"), group.parse("c")]
        )
        peripheral = PeripheralDatum((group.parse("a"), group.parse("b")), group.parse("1"))
        jsj = one_twistor_jsj(2, "1")
        bad = ConjUngInput(aut, (peripheral,), jsj)
        good = one_twistor_conj_input(3, "x0")
        with pytest.raises(DomainError):
            conj_ung(bad, good, identity_whitelist(jsj, good.jsj))

    def test_peripheral_normalized_by_outer_element(self):
        # phi = ad_b on F2 (a -> b' a b, b -> b), P = <a, bab', b^2> and
        # gamma = b', so ad_gamma . phi is the identity on P and <P, t gamma>
        # is P x Z of rank 3.  P has index 2 and is normalized by b, whose
        # restriction to P is outer in P: the trivial corrector from N(P)
        # gives no product form, and the datum's own gamma must be used.
        group = FreeGroup(2)
        aut = is_automorphism(group, [group.parse("b' a b"), group.parse("b")])
        peripheral = PeripheralDatum(
            tuple(group.parse(w) for w in ("a", "b a b'", "b b")), group.parse("b'")
        )
        # the mapping torus of an inner automorphism is that of the identity,
        # F2 x Z, whose decomposition `conj_ung` checks by H_1 == Z^3
        jsj = one_twistor_jsj(1, "1")
        side = ConjUngInput(aut, (peripheral,), jsj)
        assert _validate_ung_side(side) == [3]
        assert_conj_ung(side, side, identity_whitelist(jsj, jsj), "conjugate")
        # a redundant generator b^2 a b^-2 of P leaves the rank at 3
        redundant = PeripheralDatum(
            peripheral.generators + (group.parse("b b a b' b'"),), peripheral.conjugator
        )
        assert _validate_ung_side(ConjUngInput(aut, (redundant,), jsj)) == [3]


CONJ_UNG_FOLDERS = sorted(
    f.name for f in CORPUS.iterdir() if (f / "kind.txt").read_text().strip() == "conj-ung"
)


def random_automorphism(rng, group, moves):
    """A product of `moves` Nielsen moves and their inverses."""
    theta = FreeAut.identity(group)
    for _ in range(moves):
        move = rng.choice(nielsen_generators(group))
        theta = theta * (move if rng.random() < 0.5 else move.inverse())
    return theta


def transport_side(side, theta):
    """(theta alpha theta^-1, theta(P), theta(gamma)) with the JSJ unchanged."""
    peripherals = tuple(
        PeripheralDatum(
            tuple(theta.apply(p) for p in datum.generators), theta.apply(datum.conjugator)
        )
        for datum in side.peripherals
    )
    return ConjUngInput(theta * side.aut * theta.inverse(), peripherals, side.jsj)


def rebase_side(rng, side):
    """Replace each peripheral basis by its image under one Nielsen move
    inside P: invert, swap, or multiply one generator by another."""
    peripherals = []
    for datum in side.peripherals:
        gens = list(datum.generators)
        i, j = rng.sample(range(len(gens)), 2) if len(gens) > 1 else (0, 0)
        move = rng.randrange(3) if len(gens) > 1 else 0
        if move == 0:
            gens[i] = gens[i].inverse()
        elif move == 1:
            gens[i], gens[j] = gens[j], gens[i]
        else:
            gens[i] = gens[i] * gens[j]
        peripherals.append(PeripheralDatum(tuple(gens), datum.conjugator))
    return ConjUngInput(side.aut, tuple(peripherals), side.jsj)


class TestConjUngMetamorphic:
    """Moving a side's automorphism and peripheral datum by theta in Aut(F),
    or changing the basis of P, keeps it in the class and keeps the status."""

    @staticmethod
    def _load(name):
        folder = CORPUS / name
        a = load_conj_side(folder / "alpha.txt")
        b = load_conj_side(folder / "beta.txt")
        whitelist = parse_whitelist((folder / "whitelists.txt").read_text(), a.jsj, b.jsj)
        return a, b, whitelist, (folder / "expected.txt").read_text().strip()

    @pytest.mark.parametrize("name", CONJ_UNG_FOLDERS)
    def test_conjugate_by_automorphism(self, name):
        a, b, whitelist, expected = self._load(name)
        rng = random.Random(f"theta-{name}")
        for _ in range(3):
            theta_a = random_automorphism(rng, a.aut.group, rng.randint(1, 6))
            theta_b = random_automorphism(rng, b.aut.group, rng.randint(1, 6))
            moved_a, moved_b = transport_side(a, theta_a), transport_side(b, theta_b)
            assert _validate_ung_side(moved_a) == _validate_ung_side(a)
            assert _validate_ung_side(moved_b) == _validate_ung_side(b)
            assert_conj_ung(moved_a, b, whitelist, expected)
            assert_conj_ung(moved_a, moved_b, whitelist, expected)

    @pytest.mark.parametrize("name", CONJ_UNG_FOLDERS)
    def test_rebase_peripheral(self, name):
        a, b, whitelist, expected = self._load(name)
        rng = random.Random(f"rebase-{name}")
        for _ in range(3):
            moved_a, moved_b = rebase_side(rng, a), rebase_side(rng, b)
            assert _validate_ung_side(moved_a) == _validate_ung_side(a)
            assert_conj_ung(moved_a, moved_b, whitelist, expected)


class TestSerialization:
    def test_jsj_round_trip(self):
        jsj = one_twistor_jsj(2, "x0 x1'")
        text = serialize_jsj(jsj)
        parsed = parse_jsj(text)
        assert parsed.gog == jsj.gog
        assert parsed.colors == jsj.colors
        assert parsed.orientation.vertex_values == jsj.orientation.vertex_values
        assert parsed.orientation.edge_values == jsj.orientation.edge_values
        assert parsed.fiber_loops == jsj.fiber_loops
        assert parsed.stable_loop == jsj.stable_loop

    def test_tree_section_skipped(self):
        text = (CORPUS / "12_orientation_shift" / "jsj_a.txt").read_text()
        assert "[tree]\ne1\n" in text
        assert parse_jsj(text) == parse_jsj(text.replace("[tree]\ne1\n", ""))

    def test_whitelist_round_trip(self):
        jsj = one_twistor_jsj(2, "x0")
        wl = identity_whitelist(jsj, jsj)
        text = serialize_whitelist(wl, jsj)
        assert parse_whitelist(text, jsj, jsj) == wl

    def test_witness_round_trip_and_independent_check(self):
        jsj = one_twistor_jsj(2, "x0")
        verdict = decide(jsj, jsj, identity_whitelist(jsj, jsj))
        text = serialize_verdict(verdict, jsj, jsj)
        status, witness = parse_witness(text, jsj, jsj)
        assert status == "isomorphic-fop"
        assert witness is not None
        assert verify_witness(jsj, jsj, witness)

    def test_tampered_witness_rejected(self):
        jsj = one_twistor_jsj(2, "x0")
        verdict = decide(jsj, jsj, identity_whitelist(jsj, jsj))
        text = serialize_verdict(verdict, jsj, jsj)
        tampered = text.replace("hs = B", "hs = B: (x0) e1~ e2\n#", 1) if "hs = B" in text else text
        status, witness = parse_witness(tampered, jsj, jsj)
        if witness is not None and tampered != text:
            assert not verify_witness(jsj, jsj, witness)

    def test_tampered_twist_vector_rejected(self):
        # the orientation-shift instance has a forced nonzero multiplicity;
        # breaking it must fail the corrected-degree check
        jsj_a = one_twistor_jsj(1, "1", center_degree=1, edge2_degree=0)
        jsj_b = one_twistor_jsj(1, "1", center_degree=1, edge2_degree=2)
        verdict = decide(jsj_a, jsj_b, identity_whitelist(jsj_a, jsj_b))
        assert verdict.status == "isomorphic-fop"
        witness = verdict.witness
        from torusconj.pipeline import Witness

        broken = Witness(
            witness.morphism,
            witness.twists,
            tuple(0 for _ in witness.twist_vector),
            witness.fiber_images,
            witness.stable_image,
        )
        assert not verify_witness(jsj_a, jsj_b, broken)

    @pytest.mark.parametrize("end", ["domain", "codomain"])
    def test_witness_between_other_graphs_rejected(self, end):
        # a morphism that does not run from jsj_a's graph of groups to
        # jsj_b's is no witness, and the check says so instead of raising
        jsj = twistor_jsj(1, ["1", "1"])
        witness = decide(jsj, jsj, identity_whitelist(jsj, jsj)).witness
        assert verify_witness(jsj, jsj, witness)
        elsewhere = replace(witness.morphism, **{end: one_twistor_jsj(2, "x0").gog})
        assert not verify_witness(jsj, jsj, replace(witness, morphism=elsewhere))
