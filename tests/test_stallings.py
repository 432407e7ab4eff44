import itertools
import random

import pytest

from torusconj.errors import DomainError, ResourceError
from torusconj.freegroup import (
    FreeGroup,
    SubgroupGraph,
    congruence_kernel,
    fold,
    homology_kernel,
    is_automorphism,
    is_characteristic,
    nielsen_generators,
    subgroups_of_index_at_most,
    whole_group_graph,
)
from torusconj.freegroup.stallings import _core_and_canonicalize

from .helpers import random_nontrivial_word, random_word, subgroup_elements_up_to

F1 = FreeGroup(1)
F2 = FreeGroup(2)
F3 = FreeGroup(3)


def random_finite_index(rng, group, max_degree=4):
    """The stabilizer of the base point of a random action on <= max_degree
    points (its orbit of the base, so the index may be smaller)."""
    degree = rng.randint(1, max_degree)
    fwd = [rng.sample(range(degree), degree) for _ in range(group.rank)]
    return _core_and_canonicalize(group, degree, fwd, 0)


def random_automorphisms(rng, group, count):
    """Every Nielsen generator, then random products of them and their inverses."""
    gens = nielsen_generators(group)
    letters = gens + [g.inverse() for g in gens]
    auts = list(gens)
    for _ in range(count):
        aut = rng.choice(letters)
        for _ in range(rng.randint(1, 4)):
            aut = aut * rng.choice(letters)
        auts.append(aut)
    return auts


def cayley_graph_of_quotient(group, images, size, mult, identity):
    """Oracle: kernel of group -> finite group as the Cayley coset graph."""
    elements = [identity]
    seen = {identity}
    pos = 0
    while pos < len(elements):
        g = elements[pos]
        pos += 1
        for img in images:
            h = mult(g, img)
            if h not in seen:
                seen.add(h)
                elements.append(h)
    index = {g: i for i, g in enumerate(elements)}
    fwd = [[index[mult(g, img)] for g in elements] for img in images]
    return _core_and_canonicalize(group, len(elements), fwd, 0)


class TestFold:
    def test_rose_for_generators(self):
        g = fold(F2, F2.generators())
        assert g.nstates == 1 and g.is_complete()

    def test_proper_subgroup_membership(self):
        g = fold(F2, [F2.parse("a a"), F2.parse("b")])
        assert not g.membership(F2.parse("a"))
        assert g.membership(F2.parse("a a"))
        assert g.membership(F2.parse("b"))

    def test_index_two_subgroup(self):
        g = fold(F2, [F2.parse("a a"), F2.parse("b"), F2.parse("a b a'")])
        assert g.nstates == 2
        assert g.index() == 2
        # oracle: coset enumeration over the kernel of F2 -> Z/2, a -> 1, b -> 0
        oracle = cayley_graph_of_quotient(
            F2, [1, 0], 2, lambda x, y: (x + y) % 2, 0
        )
        assert g == oracle

    def test_empty_generating_set_rejected(self):
        with pytest.raises(DomainError):
            fold(F2, [])

    def test_confluence_under_permutation(self):
        rng = random.Random(23)
        for _ in range(30):
            gens = [random_word(rng, F2, 6) for _ in range(3)]
            if all(g.is_identity() for g in gens):
                continue
            base = fold(F2, gens)
            for perm in itertools.permutations(gens):
                assert fold(F2, list(perm)) == base

    def test_membership_against_enumeration(self):
        rng = random.Random(29)
        for _ in range(20):
            gens = [random_word(rng, F2, 4) for _ in range(2)]
            if all(g.is_identity() for g in gens):
                continue
            graph = fold(F2, gens)
            elems = subgroup_elements_up_to(F2, gens, 4)
            for w in list(elems)[:200]:
                assert graph.membership(w)

    def test_generators_regenerate_subgroup(self):
        gens = [F2.parse("a a"), F2.parse("b b"), F2.parse("a b")]
        graph = fold(F2, gens)
        assert fold(F2, graph.generators()) == graph


class TestMembership:
    def test_whole_group(self):
        rose = whole_group_graph(F2)
        rng = random.Random(31)
        for _ in range(50):
            assert rose.membership(random_word(rng, F2, 10))

    def test_identity_in_every_subgroup(self):
        g = fold(F2, [F2.parse("a b a b")])
        assert g.membership(F2.identity())


class TestCongruenceKernel:
    def test_f2_m2_is_kernel_of_klein_quotient(self):
        kernel = congruence_kernel(F2, 2)
        assert kernel.index() == 4
        oracle = cayley_graph_of_quotient(
            F2,
            [(1, 0), (0, 1)],
            4,
            lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 2),
            (0, 0),
        )
        assert kernel == oracle

    def test_f1_m3(self):
        kernel = congruence_kernel(F1, 3)
        assert kernel.generators() == [F1.parse("a a a a a a")]

    def test_m1_whole_group(self):
        assert congruence_kernel(F2, 1) == whole_group_graph(F2)

    def test_budget_error(self):
        with pytest.raises(ResourceError):
            congruence_kernel(F2, 3, state_budget=4)

    def test_direct_kernel_budget_and_domain(self):
        # the index-<=2 kernel of F5 has 2^5 = 32 states
        with pytest.raises(ResourceError):
            congruence_kernel(FreeGroup(5), 2, state_budget=31)
        assert congruence_kernel(FreeGroup(5), 2, state_budget=32).index() == 32
        with pytest.raises(DomainError):
            congruence_kernel(F2, 0)
        with pytest.raises(DomainError):
            homology_kernel(F2, 0)

    @staticmethod
    def intersection_oracle(group, m):
        """The definition: the intersection of every subgroup of index <= m."""
        whole, *rest = subgroups_of_index_at_most(group, m)
        return whole.intersect(*rest)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_intersection_of_small_index_subgroups(self, n, m):
        group = FreeGroup(n)
        assert congruence_kernel(group, m) == self.intersection_oracle(group, m)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_homology_kernel_characteristic_of_index_p_to_the_n(self, n, p):
        group = FreeGroup(n)
        kernel = homology_kernel(group, p)
        assert kernel.is_complete()
        assert kernel.index() == p**n
        assert is_characteristic(kernel, nielsen_generators(group))

    @pytest.mark.parametrize("m", [2, 3])
    def test_contained_in_all_small_surjection_kernels(self, m):
        # the congruence kernel sits inside the kernel of every surjection
        # onto Z/2, Z/3, and S3 (for Z/p because such kernels have index p;
        # for S3 because its kernel is an intersection of point stabilizers
        # of index 3)
        kernel = congruence_kernel(F2, m)
        kgens = kernel.generators()

        def zmod(k):
            surjections = []
            for x, y in itertools.product(range(k), repeat=2):
                if {x % k, y % k} != {0} and (x % k or y % k):
                    # surjective iff images generate Z/k
                    from math import gcd

                    if gcd(gcd(x, y), k) == 1:
                        surjections.append(
                            cayley_graph_of_quotient(
                                F2, [x, y], k, lambda p, q: (p + q) % k, 0
                            )
                        )
            return surjections

        targets = zmod(2)
        if m == 3:
            targets += zmod(3)

            def mult(p, q):
                return tuple(p[q[i]] for i in range(3))

            perms = list(itertools.permutations(range(3)))
            for pa, pb in itertools.product(perms, repeat=2):
                graph = cayley_graph_of_quotient(F2, [pa, pb], 6, mult, (0, 1, 2))
                if graph.nstates == 6:  # surjective onto S3
                    targets.append(graph)
        assert targets
        for target in targets:
            assert all(target.membership(g) for g in kgens)

    def test_subgroup_ambient(self):
        h = fold(F2, [F2.parse("a a"), F2.parse("b")])
        kernel = congruence_kernel(h, 2)
        # kernel is a finite-index subgroup of h
        assert all(h.membership(g) for g in kernel.generators())

    @staticmethod
    def translated_kernel(h, m):
        """Oracle: the kernel over h's own basis, its generators translated
        back to ambient words and folded."""
        basis = h.generators()
        inner = TestCongruenceKernel.intersection_oracle(FreeGroup(len(basis)), m)

        def substitute(w):
            out = h.group.identity()
            for i, s in w.letters:
                out = out * (basis[i] if s > 0 else basis[i].inverse())
            return out

        return fold(h.group, [substitute(w) for w in inner.generators()])

    def test_subgroup_ambient_matches_translation(self):
        rng = random.Random(83)
        subgroups = [random_finite_index(rng, group, 3) for group in (F2, F2, F2, F3, F3)]
        subgroups += [fold(F2, [random_nontrivial_word(rng, F2, 4) for _ in range(rng.randint(1, 2))])
                      for _ in range(4)]
        for h in subgroups:
            for m in (2, 3) if h.rank() <= 2 else (2,):
                assert congruence_kernel(h, m) == self.translated_kernel(h, m)

    def test_trivial_subgroup_ambient_rejected(self):
        trivial = _core_and_canonicalize(F2, 1, [[None], [None]], 0)
        with pytest.raises(DomainError):
            congruence_kernel(trivial, 2)


class TestIsCharacteristic:
    def test_klein_kernel_characteristic(self):
        kernel = congruence_kernel(F2, 2)
        assert is_characteristic(kernel, nielsen_generators(F2))

    def test_index_two_not_characteristic(self):
        g = fold(F2, [F2.parse("a a"), F2.parse("b"), F2.parse("a b a'")])
        swap = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        assert not is_characteristic(g, [swap])
        # oracle: swap sends the generator b into a, which is not a member
        assert not g.membership(F2.parse("a"))

    def test_whole_group_characteristic(self):
        assert is_characteristic(whole_group_graph(F2), nielsen_generators(F2))

    def test_infinite_index_rejected(self):
        g = fold(F2, [F2.parse("a")])
        with pytest.raises(DomainError):
            is_characteristic(g, nielsen_generators(F2))


class TestPreimage:
    """preimage_under reads aut^-1(H) off the permutation action of H."""

    @pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
    def test_matches_folded_inverse_images(self, group):
        rng = random.Random(41 + group.rank)
        auts = random_automorphisms(rng, group, 8)
        for _ in range(12):
            h = random_finite_index(rng, group)
            for aut in auts:
                oracle = fold(group, [aut.inverse().apply(g) for g in h.generators()])
                assert h.preimage_under(aut) == oracle

    def test_infinite_index_rejected(self):
        with pytest.raises(DomainError):
            fold(F2, [F2.parse("a")]).preimage_under(nielsen_generators(F2)[0])


class TestNaryIntersect:
    """One walk over tuples of states equals chained pairwise intersections."""

    @pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
    def test_matches_chained_pairwise(self, group):
        rng = random.Random(43 + group.rank)
        for trial in range(30):
            graphs = []
            for _ in range(rng.randint(2, 4)):
                if rng.random() < 0.5:
                    graphs.append(random_finite_index(rng, group))
                else:  # infinite index: incomplete graphs
                    gens = [random_nontrivial_word(rng, group, 5) for _ in range(rng.randint(1, 3))]
                    graphs.append(fold(group, gens))
            chained = graphs[0]
            for g in graphs[1:]:
                chained = chained.intersect(g)
            product = graphs[0].intersect(*graphs[1:])
            assert product == chained, trial
            # membership oracle: an element of every subgroup and nothing else
            for _ in range(20):
                w = random_word(rng, group, 8)
                assert product.membership(w) == all(g.membership(w) for g in graphs)
            for w in product.generators():
                assert all(g.membership(w) for g in graphs)

    def test_no_others_canonicalizes(self):
        g = fold(F2, [F2.parse("a a"), F2.parse("b a b")])
        assert g.intersect() == g

    def test_budget_error(self):
        graphs = subgroups_of_index_at_most(F2, 3)
        with pytest.raises(ResourceError, match="state budget of 4"):
            graphs[0].intersect(*graphs[1:], state_budget=4)


class TestCharacteristicEquivalence:
    """is_characteristic agrees with the definition: every aut sends every
    generator of H into H."""

    @pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
    def test_agrees_with_generator_membership(self, group):
        rng = random.Random(47 + group.rank)
        auts = random_automorphisms(rng, group, 4)
        subgroups = [whole_group_graph(group), congruence_kernel(group, 2)]
        subgroups += [random_finite_index(rng, group) for _ in range(12)]
        outcomes = set()
        for h in subgroups:
            gens = h.generators()
            for aut_set in [auts] + [[aut] for aut in auts]:
                expected = all(h.membership(aut.apply(g)) for aut in aut_set for g in gens)
                assert is_characteristic(h, aut_set) == expected
                outcomes.add(expected)
        assert outcomes == {True, False}


class TestSerialization:
    def test_round_trip(self):
        g = fold(F2, [F2.parse("a a"), F2.parse("b"), F2.parse("a b a'")])
        text = g.serialize()
        assert "base:" in text
        assert SubgroupGraph.deserialize(F2, text) == g

    def test_infinite_index_round_trip(self):
        g = fold(F2, [F2.parse("a b a b")])
        assert SubgroupGraph.deserialize(F2, g.serialize()) == g

    def test_trailing_comments_ignored(self):
        g = fold(F2, [F2.parse("a a"), F2.parse("b")])
        commented = "".join(line + "  # note\n" for line in g.serialize().splitlines())
        assert SubgroupGraph.deserialize(F2, commented) == g


class TestSubgroupEnumeration:
    def test_index_two_count(self):
        subs = [g for g in subgroups_of_index_at_most(F2, 2) if g.index() == 2]
        assert len(subs) == 3

    def test_index_three_count(self):
        # classical count: F2 has 13 subgroups of index 3
        subs = [g for g in subgroups_of_index_at_most(F2, 3) if g.index() == 3]
        assert len(subs) == 13
