import dataclasses
import hashlib
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

from torusconj.errors import DomainError, ResourceError
from torusconj.freegroup import (
    FreeAut,
    FreeGroup,
    is_automorphism,
    is_characteristic,
    nielsen_generators,
)
from torusconj.freegroup.autos import abelianization
from torusconj.minkowski import (
    CertifiedRep,
    CongruenceCertificate,
    FiniteQuotient,
    GraphMarking,
    GraphSymmetry,
    RealizingGraph,
    _gl_conjugacy_invariant,
    _power_chain,
    _shift_smith,
    certify,
    certify_product,
    certify_zsquare,
    characteristic_closure,
    conjugate_in,
    culler_reps,
    cycle_type,
    forest_free_symmetries,
    mod3_witness,
    realizing_graphs,
)

from .helpers import (
    culler_reps_oracle,
    gl2_finite_order_classes,
    graph_symmetries,
    invariant_forest,
    mat_mul,
    matrix_order,
    random_word,
    realizing_graphs_oracle,
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

    def test_rank3_against_oracle(self):
        # the degree-capped generation against every multiset of edge slots:
        # the same graphs in the same order, which fixes the certificates
        for rank, count in ((2, 3), (3, 15)):
            graphs = realizing_graphs(rank)
            assert graphs == realizing_graphs_oracle(rank)
            assert len(graphs) == count

    def test_rank4_count(self):
        # the brute-force oracle is out of reach at rank 4, so the count of
        # classes is pinned, with their (nvertices, canonical) order and
        # distinctness; test_betti_and_degrees checks each graph
        graphs = realizing_graphs(4)
        assert len(graphs) == 111
        keys = [(g.nvertices, g.canonical()) for g in graphs]
        assert keys == sorted(set(keys))
        assert [g.edges for g in graphs] == [edges for _, edges in keys]

    def test_betti_and_degrees(self):
        for rank in (2, 3, 4):
            for g in realizing_graphs(rank):
                assert len(g.edges) - g.nvertices + 1 == rank
                assert min(g.degrees()) >= 3
                assert g.is_connected()


def collapse_forest(graph, sym, forest):
    """The graph with the sym-invariant edge set `forest` collapsed, each
    vertex class numbered by its least vertex, and the induced symmetry."""
    comp = list(range(graph.nvertices))
    for idx in forest:
        u, v = graph.edges[idx]
        old, new = comp[v], comp[u]
        comp = [new if c == old else c for c in comp]
    label = {c: k for k, c in enumerate(sorted(set(comp)))}
    kept = []  # (pair, original index, stored against the original direction?)
    for idx, (u, v) in enumerate(graph.edges):
        if idx not in forest:
            a, b = label[comp[u]], label[comp[v]]
            kept.append(((min(a, b), max(a, b)), idx, a > b))
    kept.sort(key=lambda item: item[0])
    new_index = {idx: k for k, (_, idx, _) in enumerate(kept)}
    reversed_ = {idx: rev for _, idx, rev in kept}
    vperm = {}
    for v in range(graph.nvertices):
        image = label[comp[sym.vperm[v]]]
        assert vperm.setdefault(label[comp[v]], image) == image
    emap = [None] * len(kept)
    for _, idx, rev in kept:
        dst, flip = sym.emap[idx]
        emap[new_index[idx]] = (new_index[dst], flip ^ rev ^ reversed_[dst])
    collapsed = RealizingGraph(len(label), tuple(pair for pair, _, _ in kept))
    return collapsed, GraphSymmetry(tuple(vperm[c] for c in range(len(label))), tuple(emap))


def _key(marking, sym):
    return _gl_conjugacy_invariant(_power_chain(marking.homology(sym)))


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
            aut = GraphMarking.of(theta).automorphism(sym, F2)
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
        with pytest.raises(ResourceError, match="rank <= RANK_BOUND = 4"):
            culler_reps(5)

    @pytest.mark.parametrize("rank", [2, 3])
    def test_outer_order_from_abelianization(self, rank):
        # oracle: the least d <= 12 with aut^d inner
        from torusconj.freegroup import inner_conjugator

        group = FreeGroup(rank)
        checked = 0
        for graph in realizing_graphs(rank):
            for sym in graph_symmetries(graph):
                aut = GraphMarking.of(graph).automorphism(sym, group)
                oracle = next(d for d in range(1, 13) if inner_conjugator(aut**d) is not None)
                assert matrix_order(aut.abelianized()) == oracle
                checked += 1
        assert checked == {2: 28, 3: 304}[rank]

    @pytest.mark.parametrize("rank, built", [(2, 7), (3, 14)])
    def test_one_automorphism_per_representative(self, monkeypatch, rank, built):
        # a symmetry is made into an automorphism only when its homology
        # matrix gives a new class, against one per symmetry (28, 304), and
        # the automorphism is written down, not folded
        import torusconj.freegroup as freegroup
        import torusconj.minkowski as minkowski
        from torusconj.freegroup import autos

        calls = {"fold": 0, "automorphism": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        fold = counting("fold", autos.is_automorphism)
        monkeypatch.setattr(autos, "is_automorphism", fold)
        monkeypatch.setattr(freegroup, "is_automorphism", fold)
        monkeypatch.setattr(
            minkowski.GraphMarking,
            "automorphism",
            counting("automorphism", minkowski.GraphMarking.automorphism),
        )
        assert len(culler_reps(rank)) == calls["automorphism"] == built
        assert calls["fold"] == 0

    @pytest.mark.parametrize("rank, count", [(2, 28), (3, 304), (4, 609)])
    def test_automorphism_agrees_with_folding(self, rank, count):
        # images and inverse images of the written-down automorphism against
        # the labeled fold of the same images, for every graph symmetry at
        # ranks 2 and 3 and every forest-free one at rank 4
        group = FreeGroup(rank)
        checked = 0
        for graph in realizing_graphs(rank):
            marking = GraphMarking.of(graph)
            symmetries = forest_free_symmetries(graph) if rank == 4 else graph_symmetries(graph)
            for sym in symmetries:
                aut = marking.automorphism(sym, group)
                folded = is_automorphism(group, marking.images(sym, group))
                assert aut.images == folded.images
                assert aut.inverse_images == folded.inverse_images
                checked += 1
        assert checked == count

    @pytest.mark.parametrize("rank", [2, 3])
    def test_against_oracle(self, rank):
        # skipping the symmetries with an invariant forest keeps the same
        # representatives, orders and provenances, in the same order
        assert culler_reps(rank) == culler_reps_oracle(rank)

    def test_rank4_against_all_symmetries(self):
        # at rank 4 the oracle keys every symmetry of the graphs listed by
        # realizing_graphs(4), since its brute-force graph list is out of
        # reach; GL_4(Z) adds the orders 5, 8, 10 and 12
        reps = culler_reps(4)
        assert reps == culler_reps_oracle(4, realizing_graphs(4))
        assert len(reps) == 36
        assert sorted({r.outer_order for r in reps}) == [1, 2, 3, 4, 5, 6, 8, 10, 12]

    @pytest.mark.parametrize("rank, skipped", [(2, 16), (3, 226)])
    def test_forest_collapse(self, rank, skipped):
        # every skipped symmetry collapses its invariant forest onto a graph
        # with fewer vertices, earlier in the list, where the induced
        # symmetry is a graph symmetry with the same class key
        listed = {(g.nvertices, g.canonical()) for g in realizing_graphs(rank)}
        count = 0
        for graph in realizing_graphs(rank):
            marking = GraphMarking.of(graph)
            for sym in graph_symmetries(graph):
                forest = invariant_forest(graph, sym)
                if not forest:
                    continue
                count += 1
                assert {sym.emap[idx][0] for idx in forest} == set(forest)
                collapsed, induced = collapse_forest(graph, sym, forest)
                assert collapsed.nvertices < graph.nvertices
                assert (collapsed.nvertices, collapsed.canonical()) in listed
                assert induced in graph_symmetries(collapsed)
                assert _key(GraphMarking.of(collapsed), induced) == _key(marking, sym)
        assert count == skipped

    @pytest.mark.parametrize("rank, symmetries, matrices", [(2, 28, 16), (3, 304, 113)])
    def test_inverse_shares_the_key(self, rank, symmetries, matrices):
        # M read off the loops is the abelianized image words, and M^-1 (the
        # last power before I) has M's key, which is the full Smith list
        group = FreeGroup(rank)
        checked, distinct = 0, set()
        for graph in realizing_graphs(rank):
            marking = GraphMarking.of(graph)
            for sym in graph_symmetries(graph):
                mat = marking.homology(sym)
                assert [list(row) for row in mat] == abelianization(marking.images(sym, group))
                checked += 1
                if mat in distinct:
                    continue
                distinct.add(mat)
                chain = _power_chain(mat)
                inverse = chain[-2] if len(chain) > 1 else mat
                identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
                assert mat_mul([list(r) for r in mat], [list(r) for r in inverse]) == identity
                full = (len(chain), *map(_shift_smith, chain))
                assert _gl_conjugacy_invariant(chain) == full
                assert _gl_conjugacy_invariant(_power_chain(inverse)) == full
        assert (checked, len(distinct)) == (symmetries, matrices)

    @pytest.mark.parametrize(
        "rank, smiths, graphs, homologies", [(2, 11, 6, 12), (3, 69, 45, 78)]
    )
    def test_work_per_call(self, monkeypatch, rank, smiths, graphs, homologies):
        # Smith forms and homology matrices per culler_reps (15/109 and 28/304
        # when every symmetry was keyed, 45/375 Smith forms when every power
        # of every new matrix was reduced), GraphSymmetry constructions per
        # culler_reps, one per homology matrix (28/304 when every symmetry
        # was built and those with an invariant forest thrown away), and
        # RealizingGraph constructions per realizing_graphs (6/77 when every
        # labelling was canonicalized, 14/5,288 over every multiset of edge
        # slots); a second call repeats the same work, so nothing is kept
        # between calls
        import torusconj.minkowski as minkowski

        counts = {"smith": 0, "graph": 0, "homology": 0, "symmetry": 0}

        def counting(name, original):
            def wrapper(*args):
                counts[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(minkowski, "_shift_smith", counting("smith", minkowski._shift_smith))
        monkeypatch.setattr(minkowski, "RealizingGraph", counting("graph", minkowski.RealizingGraph))
        monkeypatch.setattr(minkowski, "GraphSymmetry", counting("symmetry", minkowski.GraphSymmetry))
        monkeypatch.setattr(
            minkowski.GraphMarking, "homology", counting("homology", minkowski.GraphMarking.homology)
        )
        for _ in range(2):
            counts.update(smith=0, graph=0, homology=0, symmetry=0)
            realizing_graphs(rank)
            assert counts == {"smith": 0, "graph": graphs, "homology": 0, "symmetry": 0}
            counts.update(smith=0, graph=0, homology=0, symmetry=0)
            culler_reps(rank)
            assert counts == {
                "smith": smiths,
                "graph": graphs,
                "homology": homologies,
                "symmetry": homologies,
            }


class TestPowerChain:
    def test_order_is_exact_without_a_bound(self):
        # -I has order 2 although it is the identity mod 2; the
        # transvection and the hyperbolic matrix have infinite order, and
        # the chain stops at their first power that is the identity mod 3
        minus_one = ((-1, 0), (0, -1))
        assert _power_chain(minus_one) == [minus_one, ((1, 0), (0, 1))]
        assert _power_chain(((1, 1), (0, 1))) is None
        assert _power_chain(((2, 1), (1, 1))) is None


class TestForestFreeSymmetries:
    @pytest.mark.parametrize("rank, kept", [(2, 12), (3, 78), (4, 609)])
    def test_against_filtered_oracle(self, rank, kept):
        # the same symmetries in the same order as building every symmetry
        # and dropping those with an invariant forest
        count = 0
        for graph in realizing_graphs(rank):
            generated = list(forest_free_symmetries(graph))
            assert generated == [s for s in graph_symmetries(graph) if not invariant_forest(graph, s)]
            count += len(generated)
        assert count == kept

    def test_parallel_edges_need_a_deranged_return_map(self):
        # theta4: the two vertices span one pair with four parallel edges,
        # a forest orbit of pairs, so an edge bijection is kept exactly when
        # its return map (here the bijection itself) fixes no edge: 9
        # derangements of 4 edges for each of the 2 vertex permutations
        theta4 = RealizingGraph(2, ((0, 1),) * 4)
        kept = list(forest_free_symmetries(theta4))
        assert len(kept) == 2 * 9
        assert all(sym.emap[idx][0] != idx for sym in kept for idx in range(4))

    def test_single_edge_forest_orbit_drops_the_permutation(self):
        # the dumbbell's bar is a forest fixed by every symmetry, so none is
        # kept; theta3 with its ends swapped still moves the parallel edges
        dumbbell = RealizingGraph(2, ((0, 0), (0, 1), (1, 1)))
        assert list(forest_free_symmetries(dumbbell)) == []
        theta3 = RealizingGraph(2, ((0, 1),) * 3)
        assert len(list(forest_free_symmetries(theta3))) == 2 * 2


class TestSeparate:
    def test_swap_separated(self):
        swap = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        witness = mod3_witness(swap)
        q = witness.quotient
        img = q.image_of(witness.word)
        img_a = q.image_of(swap.apply(witness.word))
        assert not conjugate_in(q.image_group(), img, img_a)

    def test_cycle_type_example(self):
        # a -> (12), b -> (123) in S3 separates the swap with witness a
        q = FiniteQuotient(F2, 3, ((1, 0, 2), (1, 2, 0)))
        img_a = q.image_of(F2.parse("a"))
        img_b = q.image_of(F2.parse("b"))
        assert cycle_type(img_a) != cycle_type(img_b)

    def test_inner_never_separates(self):
        # an inner automorphism is the identity mod 3, so it has no witness
        ad_a = is_automorphism(
            F2, [F2.parse("a"), F2.parse("a' b a")]
        )
        with pytest.raises(AssertionError):
            mod3_witness(ad_a)

    def test_rank1_inversion(self):
        flip = is_automorphism(F1, [F1.parse("a'")])
        witness = mod3_witness(flip)
        # a and a' map to the two different 3-cycles of Z/3
        assert witness.quotient.degree == 3
        assert witness.image_word != witness.image_aut_word


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
        "rank, product, digest",
        [
            (2, False, "5d5982b2d4a2b0f5cbff9fa71aaec119e55d6fca2e9ebb3e7768cc465912bd1c"),
            (3, False, "3e1371114c3a34816547820d28e23db6bba160a94cebec05abd0c93f3f6c7cd7"),
            (2, True, "d16936e7edcd92ff83529068c50850d94e6da9d02104670d9fcc74dd68cd6fba"),
            (3, True, "14864154c7d39f118af48eff7c50292fbce722a0a847d639ec5e5b56b9f7fe84"),
        ],
    )
    def test_pinned_serialization(self, rank, product, digest):
        # digests of the K_3 certificates with mod-3 witnesses, pinned after
        # verify() and the benchmark's independent certificate check passed
        text = (certify_product if product else certify)(rank).serialize()
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

    def test_rank4_certificate(self):
        cert = certify(4)
        assert cert.verify()
        assert cert.kernel.index() == 3**4
        assert len(cert.entries) == 35
        assert sorted({e.rep.outer_order for e in cert.entries}) == [2, 3, 4, 5, 6, 8, 10, 12]

    def test_verify_checks_every_entry(self):
        # entries that share a witness quotient are checked together; an
        # identity representative in any one entry, with the witness images
        # it gives, must still fail the non-conjugacy check
        cert = certify(3)
        identity = FreeAut.identity(cert.group)
        for k, entry in enumerate(cert.entries):
            witness = dataclasses.replace(entry.witness, image_aut_word=entry.witness.image_word)
            rep = dataclasses.replace(entry.rep, aut=identity)
            broken = CertifiedRep(rep, witness)
            entries = cert.entries[:k] + (broken,) + cert.entries[k + 1 :]
            assert not dataclasses.replace(cert, entries=entries).verify()


class TestKernelContains:
    def test_agrees_with_the_intersection(self):
        # the direct walk over the kernel's graph against the fiber product
        # K & ker q == K, on the certified kernels and on seeded subgroups
        # of finite and infinite index, for the witness quotients and for
        # seeded random ones; both answers occur
        from torusconj.freegroup import fold

        rng = random.Random(31)
        answers = []
        for rank in (1, 2, 3):
            group = FreeGroup(rank)
            cert = certify(rank)
            quotients = [entry.witness.quotient for entry in cert.entries]
            for _ in range(4):
                degree = rng.randint(2, 4)
                quotients.append(
                    FiniteQuotient(group, degree, tuple(tuple(rng.sample(range(degree), degree)) for _ in range(rank)))
                )
            kernels = [cert.kernel] + [q.kernel_graph() for q in quotients[-2:]]
            kernels += [fold(group, [random_word(rng, group, 6) for _ in range(2)]) for _ in range(2)]
            for kernel in kernels:
                for q in quotients:
                    expected = kernel.intersect(q.kernel_graph()) == kernel
                    assert q.kernel_contains(kernel) == expected
                    answers.append(expected)
        assert True in answers and False in answers

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_verify_rejects_a_kernel_outside_the_witness_quotients(self, rank):
        # K_2, the mod-2 homology kernel, is characteristic but holds x^2,
        # which no mod-3 witness quotient kills, so only the containment
        # check can fail the certificate built over it
        from torusconj.freegroup import homology_kernel

        cert = certify(rank)
        k2 = homology_kernel(cert.group, 2)
        assert is_characteristic(k2, nielsen_generators(cert.group))
        assert not any(entry.witness.quotient.kernel_contains(k2) for entry in cert.entries)
        assert not dataclasses.replace(cert, kernel=k2).verify()


def _exponent_sums(w):
    sums = [0] * w.group.rank
    for i, s in w.letters:
        sums[i] += s
    return sums


class TestMod3Kernel:
    """Oracle independent of the construction: K_3 holds exactly the words
    whose exponent sums are all divisible by 3."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_kernel_is_exponent_sums_mod3(self, rank):
        group = FreeGroup(rank)
        cert = certify(rank)
        assert cert.kernel.index() == 3**rank
        assert cert.verify()
        rng = random.Random(1000 + rank)
        members = 0
        for _ in range(300):
            w = random_word(rng, group, 12)
            if rng.random() < 0.5:
                # append generator powers that zero every exponent sum mod 3;
                # the reduced product is then a member
                for i, x in enumerate(_exponent_sums(w)):
                    w = w * group.generator(i) ** (-x % 3)
            expected = all(x % 3 == 0 for x in _exponent_sums(w))
            assert cert.kernel.membership(w) == expected, w.format()
            members += expected
        assert members > 0

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_witnesses_are_generators_in_degree_three(self, rank):
        group = FreeGroup(rank)
        for entry in certify(rank).entries:
            witness = entry.witness
            assert witness.word in group.generators()
            assert witness.quotient.degree == 3


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_check_certificate():
    """The benchmark's own certificate check, loaded from its file."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module.check_certificate


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("product", [False, True])
def test_certificate_passes_bench_check(bench_check_certificate, rank, product):
    text = (certify_product if product else certify)(rank).serialize()
    assert bench_check_certificate(text, rank, product) is None


class TestZSquare:
    def test_all_classes_separated_mod3(self):
        cert = certify_zsquare()
        assert cert.modulus == 3
        assert cert.verify()
        # oracle: the bounded-entry enumeration covers orders 2, 3, 4, 6
        orders = set()
        for m in gl2_finite_order_classes():
            orders.add(matrix_order(m))
        assert orders == {1, 2, 3, 4, 6}

    def test_classes_match_bounded_entry_oracle(self):
        # the homology matrices of culler_reps(2) give one matrix per
        # nontrivial key class of the bounded-entry search, and no more
        def key(m):
            return _gl_conjugacy_invariant(_power_chain(m))

        certified = [key(m) for m in certify_zsquare().representatives]
        oracle = {key(m) for m in gl2_finite_order_classes() if m != ((1, 0), (0, 1))}
        assert len(certified) == len(set(certified)) == 6
        assert set(certified) == oracle

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
