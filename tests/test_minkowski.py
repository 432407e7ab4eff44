import hashlib
import itertools

import pytest

from torusconj.errors import DomainError, ResourceError, Undecided
from torusconj.freegroup import (
    FreeAut,
    FreeGroup,
    congruence_kernel,
    is_automorphism,
    is_characteristic,
    nielsen_generators,
)
from torusconj.minkowski import (
    Budgets,
    CongruenceCertificate,
    FiniteQuotient,
    _outer_order_bounded,
    _symmetry_order,
    certify,
    certify_product,
    certify_zsquare,
    characteristic_closure,
    culler_reps,
    cycle_type,
    gl2_finite_order_classes,
    graph_symmetries,
    realizing_graphs,
    separate,
    symmetry_to_automorphism,
)

F1 = FreeGroup(1)
F2 = FreeGroup(2)


def multigraph_oracle_rank2():
    """Independent enumeration: multigraphs with <= 2 vertices, degrees >= 3,
    Betti number 2, up to isomorphism, by brute force over edge multisets."""
    found = set()
    for nv in (1, 2):
        ne = nv + 1
        slots = [(u, v) for u in range(nv) for v in range(u, nv)]
        for combo in itertools.combinations_with_replacement(slots, ne):
            deg = [0] * nv
            for u, v in combo:
                deg[u] += 1
                deg[v] += 1
            if min(deg) < 3:
                continue
            # connectivity for <= 2 vertices: some edge joins them
            if nv == 2 and not any(u != v for u, v in combo):
                continue
            canon = []
            for perm in itertools.permutations(range(nv)):
                canon.append(tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in combo)))
            found.add((nv, min(canon)))
    return found


class TestRealizingGraphs:
    def test_rank2_exactly_three(self):
        graphs = realizing_graphs(2)
        names = sorted(g.name() for g in graphs)
        assert names == ["dumbbell", "rose2", "theta3"]

    def test_rank2_against_oracle(self):
        oracle = multigraph_oracle_rank2()
        mine = {(g.nvertices, g.canonical()) for g in realizing_graphs(2)}
        assert mine == oracle

    def test_betti_and_degrees(self):
        for rank in (2, 3):
            for g in realizing_graphs(rank):
                assert g.betti() == rank
                assert min(g.degrees()) >= 3
                assert g.is_connected()


class TestCullerReps:
    def test_rank1(self):
        reps = culler_reps(1)
        assert sorted(r.outer_order for r in reps) == [1, 2]

    def test_rank2_order_coverage(self):
        # oracle: the orders of finite-order elements of GL2(Z) are 1,2,3,4,6
        orders = {r.outer_order for r in culler_reps(2)}
        oracle_orders = {1}
        for m in gl2_finite_order_classes():
            cur = ((1, 0), (0, 1))
            for k in range(1, 13):
                cur = (
                    (
                        cur[0][0] * m[0][0] + cur[0][1] * m[1][0],
                        cur[0][0] * m[0][1] + cur[0][1] * m[1][1],
                    ),
                    (
                        cur[1][0] * m[0][0] + cur[1][1] * m[1][0],
                        cur[1][0] * m[0][1] + cur[1][1] * m[1][1],
                    ),
                )
                if cur == ((1, 0), (0, 1)):
                    oracle_orders.add(k)
                    break
        assert orders == oracle_orders == {1, 2, 3, 4, 6}

    def test_theta_gives_order_six(self):
        # theta-graph symmetry: 3-cycle of edges composed with vertex swap
        theta = [g for g in realizing_graphs(2) if g.name() == "theta3"][0]
        orders = set()
        for sym in graph_symmetries(theta):
            aut = symmetry_to_automorphism(theta, sym, F2)
            mat = aut.abelianized()
            cur = [[1, 0], [0, 1]]
            for k in range(1, 13):
                cur = [
                    [sum(cur[i][t] * mat[t][j] for t in range(2)) for j in range(2)]
                    for i in range(2)
                ]
                if cur == [[1, 0], [0, 1]]:
                    orders.add(k)
                    break
        assert 6 in orders

    def test_soundness_of_claimed_orders(self):
        from torusconj.freegroup import inner_conjugator

        for rep in culler_reps(2):
            power = rep.aut ** rep.outer_order
            assert inner_conjugator(power) is not None
            for d in range(1, rep.outer_order):
                if rep.outer_order % d == 0:
                    assert inner_conjugator(rep.aut ** d) is None

    def test_rank_above_bound_rejected(self):
        with pytest.raises(ResourceError):
            culler_reps(4)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_outer_order_from_abelianization(self, rank):
        # oracle: the least divisor d of the symmetry order with aut^d inner
        from torusconj.freegroup import inner_conjugator

        group = FreeGroup(rank)
        checked = 0
        for graph in realizing_graphs(rank):
            for sym in graph_symmetries(graph):
                aut = symmetry_to_automorphism(graph, sym, group)
                order = _symmetry_order(sym)
                oracle = next(
                    d
                    for d in range(1, order + 1)
                    if order % d == 0 and inner_conjugator(aut**d) is not None
                )
                assert _outer_order_bounded(aut, order) == oracle
                checked += 1
        assert checked == {2: 28, 3: 304}[rank]


class TestSeparate:
    def test_swap_separated(self):
        swap = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        witness = separate(swap)
        assert not isinstance(witness, Undecided)
        q = witness.quotient
        img = q.image_of(witness.word)
        img_a = q.image_of(swap.apply(witness.word))
        assert not q.conjugate_in_image(img, img_a)

    def test_cycle_type_example(self):
        # a -> (12), b -> (123) in S3 separates the swap with witness a
        q = FiniteQuotient(F2, 3, ((1, 0, 2), (1, 2, 0)))
        img_a = q.image_of(F2.parse("a"))
        img_b = q.image_of(F2.parse("b"))
        assert cycle_type(img_a) != cycle_type(img_b)

    def test_inner_never_separates(self):
        ad_a = is_automorphism(
            F2, [F2.parse("a"), F2.parse("a' b a")]
        )
        result = separate(ad_a, degree_bound=3, length_bound=2)
        assert isinstance(result, Undecided)

    def test_rank1_inversion(self):
        flip = is_automorphism(F1, [F1.parse("a'")])
        witness = separate(flip)
        assert not isinstance(witness, Undecided)
        # first find is the 3-cycle quotient: images of a and a' differ there
        assert witness.quotient.degree == 3


class TestCertify:
    def test_rank1_kernel_is_a_cubed(self):
        cert = certify(1)
        assert isinstance(cert, CongruenceCertificate)
        assert [w.format() for w in cert.kernel.generators()] == ["a a a"]
        assert cert.verify()

    def test_rank2_certificate(self):
        cert = certify(2)
        assert isinstance(cert, CongruenceCertificate)
        assert cert.kernel.index() is not None
        assert is_characteristic(cert.kernel, nielsen_generators(F2))
        assert cert.verify()
        orders = sorted({e.rep.outer_order for e in cert.entries})
        assert orders == [2, 3, 4, 6]

    def test_serialization_has_witness_records(self):
        cert = certify(1)
        text = cert.serialize()
        assert "witness word" in text and "cycle types" in text

    @pytest.mark.parametrize(
        "rank, degree, length, digest",
        [
            (2, 3, 1, "8c0ca91759b94ddf8d9221ff31b0834467a069c0d6ddce7145700988bce78e36"),
            (2, 12, 5, "8c0ca91759b94ddf8d9221ff31b0834467a069c0d6ddce7145700988bce78e36"),
            (3, 4, 3, "2b078b7290490f525dac5fc9506e2d8f0569f6cdfdb8456ede909019162bb854"),
            (3, 6, 2, "2b078b7290490f525dac5fc9506e2d8f0569f6cdfdb8456ede909019162bb854"),
        ],
    )
    def test_pinned_serialization(self, rank, degree, length, digest):
        # digests of the certificates that the image-and-fold kernel assembly
        # produced; assembling from permutation actions must match byte for byte
        text = certify(rank, Budgets(degree, length)).serialize()
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_characteristic_closure(self):
        from torusconj.freegroup import fold

        g = fold(F2, [F2.parse("a a"), F2.parse("b"), F2.parse("a b a'")])
        closed = characteristic_closure(g)
        assert is_characteristic(closed, nielsen_generators(F2))
        # closure is contained in the original subgroup
        assert all(g.membership(w) for w in closed.generators())

    def test_closure_of_infinite_index_rejected(self):
        from torusconj.freegroup import fold

        with pytest.raises(DomainError):
            characteristic_closure(fold(F2, [F2.parse("a")]))

    def test_rank3_certificate(self):
        cert = certify(3)
        assert isinstance(cert, CongruenceCertificate)
        assert cert.verify()
        assert sorted({e.rep.outer_order for e in cert.entries}) == [2, 3, 4, 6]


class TestZSquare:
    def test_all_classes_separated_mod3(self):
        cert = certify_zsquare()
        assert cert.modulus == 3
        assert cert.verify()
        # oracle: the bounded-entry enumeration covers orders 2, 3, 4, 6
        orders = set()
        for m in gl2_finite_order_classes():
            from torusconj.minkowski import _matrix_order

            orders.add(_matrix_order(m, 12))
        assert orders == {1, 2, 3, 4, 6}

    def test_every_representative_nontrivial_mod3(self):
        cert = certify_zsquare()
        for m in cert.representatives:
            reduced = tuple(tuple(x % 3 for x in row) for row in m)
            assert reduced != ((1, 0), (0, 1))


class TestCertifyProduct:
    def test_rank2_product(self):
        cert = certify_product(2)
        assert isinstance(cert, CongruenceCertificate)
        assert cert.center_modulus == 3
        # the flip c -> c^-1 maps nontrivially in the center quotient
        assert (-1) % cert.center_modulus != 1 % cert.center_modulus

    def test_rank1_rejected(self):
        with pytest.raises(DomainError):
            certify_product(1)
