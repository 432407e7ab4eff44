import random

import pytest

from torusconj.errors import DomainError, Undecided
from torusconj.freegroup import FreeAut, FreeGroup, fold, is_automorphism
from torusconj.torus import (
    MappingTorus,
    TorusElement,
    conjugate,
    fop_isomorphic_classC,
    inverse,
    multiply,
    orientation_degree,
    parse_torus,
    product_form,
    sub_mapping_torus,
    subgroup_conjugator,
)

from .helpers import random_word

F2 = FreeGroup(2)
F3 = FreeGroup(3)


def nielsen_torus():
    aut = is_automorphism(F2, [F2.parse("a b"), F2.parse("b")])
    return MappingTorus(F2, aut)


def identity_torus(group=F2):
    return MappingTorus(group, FreeAut.identity(group))


def random_element(rng, torus, max_len=6, max_pow=3):
    return torus.element(rng.randint(-max_pow, max_pow), random_word(rng, torus.fiber, max_len))


class TestMultiply:
    def test_plain_concatenation(self):
        T = nielsen_torus()
        x = T.element(1, F2.parse("a"))
        y = T.element(0, F2.parse("b"))
        assert multiply(x, y) == T.element(1, F2.parse("a b"))

    def test_defining_relation_shift(self):
        T = nielsen_torus()
        x = T.element(1, F2.parse("a"))
        y = T.element(1, F2.parse("b"))
        # t a t b = t^2 alpha(a) b = t^2 (ab)b
        assert multiply(x, y) == T.element(2, F2.parse("a b b"))

    def test_inverse_law(self):
        rng = random.Random(41)
        T = nielsen_torus()
        for _ in range(100):
            x = random_element(rng, T)
            assert multiply(x, inverse(x)).is_identity()
            assert multiply(inverse(x), x).is_identity()

    def test_associativity(self):
        rng = random.Random(43)
        T = nielsen_torus()
        for _ in range(100):
            x, y, z = (random_element(rng, T) for _ in range(3))
            assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))

    def test_ad_t_is_monodromy(self):
        T = nielsen_torus()
        t = T.stable()
        for i in range(2):
            a = T.embed(F2.generator(i))
            assert conjugate(a, t) == T.embed(T.monodromy.apply(F2.generator(i)))


class TestOrientationDegree:
    def test_fiber_element(self):
        T = nielsen_torus()
        assert orientation_degree(T.embed(F2.parse("a b'"))) == 0

    def test_stable_letter(self):
        assert orientation_degree(nielsen_torus().stable()) == 1

    def test_homomorphism(self):
        rng = random.Random(47)
        T = nielsen_torus()
        for _ in range(50):
            x, y = random_element(rng, T), random_element(rng, T)
            assert orientation_degree(multiply(x, y)) == orientation_degree(
                x
            ) + orientation_degree(y)


class TestSubgroupConjugator:
    def test_conjugate_cyclics(self):
        h1 = fold(F2, [F2.parse("a")])
        h2 = fold(F2, [F2.parse("b a b'")])
        a = subgroup_conjugator(h1, h2)
        assert a is not None
        assert fold(F2, [F2.parse("a").conjugate(a.inverse())]) == h2

    def test_nonconjugate(self):
        assert subgroup_conjugator(fold(F2, [F2.parse("a")]), fold(F2, [F2.parse("b")])) is None


class TestSubMappingTorus:
    def test_identity_monodromy(self):
        T = identity_torus()
        smt = sub_mapping_torus(T, fold(F2, [F2.parse("a")]))
        assert smt.period == 1
        assert smt.corrector.is_identity()
        # result is Z x Z: generators a and t, commuting
        a, t = smt.generators
        assert multiply(a, t) == multiply(t, a)

    def test_swap_needs_square(self):
        swap = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        T = MappingTorus(F2, swap)
        h = fold(F2, [F2.parse("a")])
        # oracle: direct image computation for k = 1, 2
        assert fold(F2, [swap.apply(F2.parse("a"))]) != h
        assert fold(F2, [swap.apply(swap.apply(F2.parse("a")))]) == h
        smt = sub_mapping_torus(T, h)
        assert smt.period == 2
        assert smt.corrector.is_identity()

    def test_fixed_generator(self):
        T = nielsen_torus()
        smt = sub_mapping_torus(T, fold(F2, [F2.parse("b")]))
        assert smt.period == 1 and smt.corrector.is_identity()

    def test_identity_monodromy_always_period_one(self):
        rng = random.Random(53)
        T = identity_torus()
        for _ in range(20):
            gens = [random_word(rng, F2, 5) for _ in range(2)]
            if all(g.is_identity() for g in gens):
                continue
            smt = sub_mapping_torus(T, fold(F2, gens))
            assert smt.period == 1 and smt.corrector.is_identity()

    def test_nontrivial_corrector(self):
        # a -> b a b', b -> b sends <a> to b<a>b' == ad_{b'}(<a>)
        aut = is_automorphism(F2, [F2.parse("b a b'"), F2.parse("b")])
        T = MappingTorus(F2, aut)
        smt = sub_mapping_torus(T, fold(F2, [F2.parse("a")]))
        assert smt.period == 1
        # verify the defining relation alpha(H) == a^-1 H a directly
        image = fold(F2, [aut.apply(F2.parse("a"))])
        conj = fold(F2, [F2.parse("a").conjugate(smt.corrector)])
        assert image == conj
        # the stable generator t * corrector^-1 normalizes H
        stable = smt.generators[-1]
        moved = multiply(multiply(inverse(stable), T.embed(F2.parse("a"))), stable)
        assert moved.power == 0 and smt.base.membership(moved.tail)

    def test_undecided_when_out_of_bounds(self):
        # a -> b, b -> ab has no power sending <a> to a conjugate of itself
        aut = is_automorphism(F2, [F2.parse("b"), F2.parse("a b")])
        T = MappingTorus(F2, aut)
        result = sub_mapping_torus(T, fold(F2, [F2.parse("a")]), kmax=4)
        assert isinstance(result, Undecided)


class TestProductForm:
    def test_identity_monodromy(self):
        form = product_form(identity_torus())
        assert form is not None
        assert form.free_rank == 2
        assert form.center == identity_torus().stable()

    def test_inner_monodromy(self):
        g = F2.parse("a")
        images = [F2.generator(i).conjugate(g) for i in range(2)]
        T = MappingTorus(F2, is_automorphism(F2, images))
        form = product_form(T)
        assert form is not None
        # center is t * a^-1; oracle: verify centrality against both generators
        assert form.center == T.element(1, F2.parse("a'"))
        for i in range(2):
            x = T.embed(F2.generator(i))
            assert multiply(form.center, x) == multiply(x, form.center)

    def test_swap_not_in_envelope(self):
        swap = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        assert product_form(MappingTorus(F2, swap)) is None

    def test_rank_one_flip(self):
        F1 = FreeGroup(1)
        plus = MappingTorus(F1, FreeAut.identity(F1))
        minus = MappingTorus(F1, is_automorphism(F1, [F1.parse("a'")]))
        assert product_form(plus) is not None
        assert product_form(minus) is None

    def test_center_has_degree_one(self):
        form = product_form(identity_torus())
        assert orientation_degree(form.center) == 1


class TestClassCIsomorphy:
    def test_equal_ranks(self):
        assert fop_isomorphic_classC(identity_torus(F2), identity_torus(F2))

    def test_different_ranks(self):
        assert not fop_isomorphic_classC(identity_torus(F2), identity_torus(F3))

    def test_rank_one_vs_two(self):
        assert not fop_isomorphic_classC(identity_torus(FreeGroup(1)), identity_torus(F2))

    def test_out_of_envelope_rejected(self):
        swap = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        with pytest.raises(DomainError):
            fop_isomorphic_classC(MappingTorus(F2, swap), identity_torus())


class TestParsing:
    def test_torus_file(self):
        text = """
        fiber rank: 2
        monodromy: a -> a b, b -> b
        conjugator: a
        """
        T, conj = parse_torus(text)
        assert T.monodromy.apply(F2.parse("a")) == F2.parse("a b")
        assert conj == F2.parse("a")

    def test_trailing_comments_ignored(self):
        text = """
        fiber rank: 2  # rank of the fiber
        monodromy: a -> b, b -> a  # swap
        """
        T, conj = parse_torus(text)
        assert T.monodromy.apply(F2.parse("a")) == F2.parse("b")
        assert conj is None

    def test_element_syntax(self):
        T = nielsen_torus()
        assert T.parse_element("t^2 * a b'") == T.element(2, F2.parse("a b'"))
        assert T.parse_element("t") == T.stable()
        assert T.parse_element("a") == T.embed(F2.parse("a"))
        assert T.parse_element("t^-1 * 1") == T.element(-1, F2.identity())
