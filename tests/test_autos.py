import random

import pytest

from torusconj.errors import DomainError
from torusconj.freegroup import (
    BasisExpresser,
    FreeAut,
    FreeGroup,
    fold,
    inner_conjugator,
    is_automorphism,
    nielsen_generators,
    whole_group_graph,
)

from .helpers import random_word, subgroup_elements_up_to

F2 = FreeGroup(2)
F3 = FreeGroup(3)


def random_aut(rng, group, steps=5):
    aut = FreeAut.identity(group)
    moves = nielsen_generators(group)
    for _ in range(steps):
        aut = rng.choice(moves) * aut
    return aut


class TestIsAutomorphism:
    def test_nielsen_move_accepted(self):
        aut = is_automorphism(F2, [F2.parse("a b"), F2.parse("b")])
        assert aut is not None
        assert aut.apply(F2.parse("a")) == F2.parse("a b")

    def test_proper_subgroup_rejected(self):
        assert is_automorphism(F2, [F2.parse("a a"), F2.parse("b")]) is None
        # certificate: the folded image subgroup misses a
        cert = fold(F2, [F2.parse("a a"), F2.parse("b")])
        assert not cert.membership(F2.parse("a"))
        # oracle: breadth-first enumeration of <a^2, b> up to length 1
        elems = subgroup_elements_up_to(F2, [F2.parse("a a"), F2.parse("b")], 1)
        assert F2.parse("a") not in elems

    def test_generator_swap_self_inverse(self):
        aut = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        assert aut is not None
        assert aut.inverse() == aut

    def test_wrong_arity(self):
        with pytest.raises(DomainError):
            is_automorphism(F2, [F2.parse("a")])

    def test_round_trip_on_random_auts(self):
        rng = random.Random(11)
        for _ in range(100):
            aut = random_aut(rng, F2)
            for i in range(2):
                x = F2.generator(i)
                assert aut.inverse().apply(aut.apply(x)) == x

    def test_rank3_round_trip(self):
        rng = random.Random(13)
        for _ in range(40):
            aut = random_aut(rng, F3)
            rebuilt = is_automorphism(F3, list(aut.images))
            assert rebuilt is not None
            for i in range(3):
                x = F3.generator(i)
                assert rebuilt.apply(rebuilt.inverse_images[i]) == x

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_nielsen_generators_agree_with_folding(self, rank):
        # each generator written down with its inverse against the labeled
        # fold of the same images
        group = FreeGroup(rank)
        for aut in nielsen_generators(group):
            folded = is_automorphism(group, list(aut.images))
            assert aut.images == folded.images
            assert aut.inverse_images == folded.inverse_images


class TestComposition:
    def test_compose_applies_right_first(self):
        f = is_automorphism(F2, [F2.parse("a b"), F2.parse("b")])
        g = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        assert (f * g).apply(F2.parse("a")) == f.apply(g.apply(F2.parse("a")))

    def test_inverse_composes_to_identity(self):
        rng = random.Random(17)
        for _ in range(50):
            aut = random_aut(rng, F2)
            assert (aut * aut.inverse()).is_identity()
            assert (aut.inverse() * aut).is_identity()

    def test_power(self):
        swap = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        assert (swap ** 2).is_identity()
        assert swap ** -1 == swap

    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    def test_equal_automorphisms_hash_equal(self, group):
        # the hash is computed on first use, so build each side another way
        rng = random.Random(19 + group.rank)
        for _ in range(30):
            aut = random_aut(rng, group)
            folded = is_automorphism(group, list(aut.images))
            twice_inverted = aut.inverse().inverse()
            composed = aut * FreeAut.identity(group)
            assert aut == folded == twice_inverted == composed
            assert len({hash(x) for x in (folded, twice_inverted, composed, aut)}) == 1
            assert {aut: 1}[folded] == 1
            assert hash(aut * aut.inverse()) == hash(FreeAut.identity(group))


class TestBasisExpresser:
    def test_expression_in_proper_subgroup(self):
        basis = [F2.parse("a a"), F2.parse("b"), F2.parse("a b a'")]
        expr = BasisExpresser(F2, basis)
        word = F2.parse("a a b a b a'")
        sym = expr.express(word)
        assert sym is not None
        rebuilt = F2.identity()
        for i, s in sym.letters:
            rebuilt = rebuilt * (basis[i] if s > 0 else basis[i].inverse())
        assert rebuilt == word

    def test_non_member(self):
        expr = BasisExpresser(F2, [F2.parse("a a"), F2.parse("b")])
        assert expr.express(F2.parse("a")) is None

    def test_dependent_basis_rejected(self):
        with pytest.raises(DomainError):
            BasisExpresser(F2, [F2.parse("a"), F2.parse("a")])

    def test_rank_drop_rejected(self):
        # (a b) (b a)^-1 == a b a' b': three words spanning a rank-2 subgroup
        with pytest.raises(DomainError):
            BasisExpresser(F2, [F2.parse("a b"), F2.parse("b a"), F2.parse("a b a' b'")])


class TestLabeledFolding:
    """Labeled folding (is_automorphism, BasisExpresser) against plain
    folding, through the Hopfian criterion: n words freely generate exactly
    when their subgroup has rank n, and generate F exactly when they fold
    to the rose."""

    def test_agrees_with_plain_folding(self):
        rng = random.Random(29)
        for _ in range(200):
            group = rng.choice((F2, F3))
            images = list(random_aut(rng, group, rng.randint(0, 6)).images)
            if rng.random() < 0.5:
                j = rng.randrange(group.rank)
                images[j] = images[j] * random_word(rng, group, 3)
            whole = fold(group, images) == whole_group_graph(group)
            assert (is_automorphism(group, images) is not None) == whole
            basis = images[: rng.randint(1, group.rank)]
            if rng.random() < 0.5:
                basis.append(random_word(rng, group, 4))
            if fold(group, basis).rank() < len(basis):
                with pytest.raises(DomainError):
                    BasisExpresser(group, basis)
                continue
            expresser = BasisExpresser(group, basis)
            for _ in range(5):
                w = random_word(rng, expresser.symbols, 8)
                image = group.identity()
                for i, s in w.letters:
                    image = image * (basis[i] if s > 0 else basis[i].inverse())
                assert expresser.express(image) == w


class TestInnerConjugator:
    def test_identity_is_inner(self):
        assert inner_conjugator(FreeAut.identity(F2)) == F2.identity()

    def test_ad_g_recovered(self):
        g = F2.parse("a b")
        images = [F2.generator(i).conjugate(g) for i in range(2)]
        aut = is_automorphism(F2, images)
        found = inner_conjugator(aut)
        assert found is not None
        assert all(aut.images[i] == F2.generator(i).conjugate(found) for i in range(2))

    def test_swap_not_inner(self):
        swap = is_automorphism(F2, [F2.parse("b"), F2.parse("a")])
        assert inner_conjugator(swap) is None

    def test_long_conjugator_recognized(self):
        g = F2.parse("a b") ** 9
        aut = is_automorphism(F2, [F2.generator(i).conjugate(g) for i in range(2)])
        assert inner_conjugator(aut) == g

    @pytest.mark.parametrize("group", [F2, F3], ids=["F2", "F3"])
    def test_seeded_conjugators_recovered_exactly(self, group):
        # the conjugator of an inner automorphism of a rank >= 2 free group is
        # unique, so the test must return exactly the g it was built from
        rng = random.Random(20 + group.rank)
        for length in range(61):
            letters = []
            while len(letters) < length:
                letter = (rng.randrange(group.rank), rng.choice((1, -1)))
                if not letters or letters[-1] != (letter[0], -letter[1]):
                    letters.append(letter)
            g = group.word(letters)
            assert len(g) == length
            aut = is_automorphism(group, [x.conjugate(g) for x in group.generators()])
            assert inner_conjugator(aut) == g

    def test_partial_conjugation_not_inner(self):
        a, b, c = F3.generators()
        aut = is_automorphism(F3, [a, b, c.conjugate(a)])
        assert inner_conjugator(aut) is None
