import gc
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from torusconj.errors import DomainError, FormatError
from torusconj.freegroup import (
    FreeGroup,
    canonical_conjugate,
    conjugacy_length,
    is_conjugate,
    primitive_root,
    reduce_letters,
    root_power,
)

from torusconj.freegroup.words import (
    _canonical_plateau,
    _canonical_single,
    _conj_letters,
    _end_hits,
)

from .helpers import random_word

F2 = FreeGroup(2)


def letters_strategy(rank=2, max_len=12):
    letter = st.tuples(st.integers(0, rank - 1), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_len)


class TestReduce:
    def test_forced_cancellation(self):
        assert F2.word([(0, 1), (0, -1), (1, 1)]).format() == "b"

    def test_empty(self):
        assert F2.word([]).is_identity()

    def test_inner_cancellation(self):
        assert F2.word([(0, 1), (1, 1), (1, -1), (0, 1)]).format() == "a a"

    @given(letters_strategy())
    def test_idempotent(self, letters):
        once = reduce_letters(letters)
        assert reduce_letters(once) == once

    @given(letters_strategy())
    def test_mul_inverse_is_identity(self, letters):
        w = F2.word(letters)
        assert (w * w.inverse()).is_identity()


class TestParse:
    def test_round_trip(self):
        w = F2.parse("a b' a")
        assert w.format() == "a b' a"

    def test_unknown_symbol(self):
        with pytest.raises(FormatError):
            F2.parse("a q")

    def test_unspaced(self):
        assert F2.parse("ab'a") == F2.parse("a b' a")

    def test_multichar_names(self):
        G = FreeGroup(("x0", "x1"))
        assert G.parse("x0 x1'").format() == "x0 x1'"

    @pytest.mark.parametrize("name", ["1a", "1", "a'", "a b", ""])
    def test_unreadable_names_rejected(self, name):
        # `parse` reads `1` as the identity and `'` as an inverse mark, so a
        # group named `1a` could not read its own `1a`
        with pytest.raises(FormatError):
            FreeGroup([name, "z"])


class TestConjugacy:
    def test_ab_ba(self):
        ok, w = is_conjugate(F2.parse("a b"), F2.parse("b a"))
        assert ok and w == F2.parse("a")

    def test_distinct_generators(self):
        ok, w = is_conjugate(F2.parse("a"), F2.parse("b"))
        assert not ok and w is None

    def test_commutator_rotation(self):
        # oracle: enumerate all rotations of the cyclic reductions
        u = F2.parse("a b a' b'")
        v = F2.parse("b a' b' a")
        rotations = {r.letters for r in u.rotations()}
        assert v.letters in rotations
        ok, w = is_conjugate(u, v)
        assert ok
        assert u.conjugate(w) == v

    def test_commutator_not_conjugate_to_inverse(self):
        # the inverse commutator is not a rotation, hence not conjugate
        # (free groups are bi-orderable, so w ~ w^-1 forces w == 1)
        u = F2.parse("a b a' b'")
        v = u.inverse()
        rotations = {r.letters for r in u.rotations()}
        assert v.letters not in rotations
        ok, _ = is_conjugate(u, v)
        assert not ok

    def test_witness_on_random_conjugates(self):
        rng = random.Random(7)
        for _ in range(200):
            u = random_word(rng, F2, 8)
            g = random_word(rng, F2, 6)
            ok, w = is_conjugate(u, u.conjugate(g))
            assert ok
            assert u.conjugate(w) == u.conjugate(g)

    def test_witness_least_rotation(self):
        # u = abab, v = baba: rotations at index 1 and 3 both match; least wins
        u = F2.parse("a b a b")
        v = F2.parse("b a b a")
        ok, w = is_conjugate(u, v)
        assert ok and w == F2.parse("a")


class TestRoots:
    def test_primitive_root(self):
        assert primitive_root(F2.parse("a b a b")) == F2.parse("a b")

    def test_root_of_conjugated_power(self):
        w = F2.parse("b a a b'")
        root, n = root_power(w)
        assert n == 2 and root == F2.parse("b a b'")

    def test_primitive_word_is_own_root(self):
        assert primitive_root(F2.parse("a b")) == F2.parse("a b")

    def test_identity_rejected(self):
        with pytest.raises(DomainError):
            primitive_root(F2.identity())


class TestCanonicalConjugate:
    def test_single_word_is_least_rotation(self):
        canon, g = canonical_conjugate((F2.parse("b a"),))
        assert canon[0] == F2.parse("a b")
        assert F2.parse("b a").conjugate(g) == canon[0]

    def test_tuple_invariance(self):
        rng = random.Random(3)
        for _ in range(100):
            tup = tuple(random_word(rng, F2, 6) for _ in range(2))
            conj = random_word(rng, F2, 5)
            c1, _ = canonical_conjugate(tup)
            c2, _ = canonical_conjugate(tuple(w.conjugate(conj) for w in tup))
            assert c1 == c2

    def test_conjugator_is_consistent(self):
        rng = random.Random(5)
        for _ in range(100):
            tup = tuple(random_word(rng, F2, 5) for _ in range(3))
            canon, g = canonical_conjugate(tup)
            assert tuple(w.conjugate(g) for w in tup) == canon


def _seeded_words(rng, group, count):
    """Random words, and conjugates of proper powers, most of them not
    cyclically reduced, together with the identity and every length-1 word."""
    words = [group.identity()] + [group.word([(i, s)]) for i in range(group.rank) for s in (1, -1)]
    for _ in range(count):
        w = random_word(rng, group, 10)
        if rng.random() < 0.3:
            w = (w ** rng.randint(2, 3)).conjugate(random_word(rng, group, 4))
        words.append(w)
    return words


class TestCanonicalForms:
    """The direct forms agree with the letter-by-letter plateau search."""

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_single_matches_plateau(self, rank):
        group = FreeGroup(rank)
        words = _seeded_words(random.Random(rank), group, 400)
        assert rank == 1 or any(w.cyclic_reduction()[0].letters for w in words)
        for w in words:
            single, g = _canonical_single(w)
            plateau, h = _canonical_plateau(group, (w,))
            assert single == plateau
            # a conjugator is unique up to the centralizer of w, which is
            # nontrivial; the direct one is the prefix of w up to the rotation
            assert w.conjugate(g) == single[0] == w.conjugate(h)
            assert g.letters == w.letters[: len(g)]

    def test_canonical_input_is_returned_itself(self):
        w = F2.parse("a b a b'")
        assert canonical_conjugate((w,))[0][0] is w
        assert canonical_conjugate((F2.identity(),))[1].is_identity()

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_end_letter_change_is_measured_change(self, rank):
        group = FreeGroup(rank)
        rng = random.Random(10 + rank)
        alphabet = [(i, s) for i in range(rank) for s in (1, -1)]
        for _ in range(300):
            tup = tuple(random_word(rng, group, 6).letters for _ in range(rng.randint(1, 3)))
            k, hits = _end_hits(tup, rank)
            for x, l in enumerate(alphabet):
                measured = sum(len(_conj_letters(ls, l)) - len(ls) for ls in tup)
                assert 2 * (k - hits[x]) == measured
                letter = group.word([l])
                assert measured == sum(
                    len(group.word(ls).conjugate(letter)) - len(ls) for ls in tup
                )

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_descent_length_is_canonical_length(self, rank):
        group = FreeGroup(rank)
        rng = random.Random(20 + rank)
        for _ in range(300):
            tup = tuple(_seeded_words(rng, group, 3)[-rng.randint(1, 3):])
            canon, _ = canonical_conjugate(tup)
            assert conjugacy_length(tup) == sum(len(w) for w in canon)

    def test_no_memory_retained(self):
        # canonical forms are computed, not remembered: results of fresh
        # words leave nothing behind once dropped
        rng = random.Random(4)
        F3 = FreeGroup(3)
        canonical_conjugate((F3.parse("a b"),))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20_000):
                canonical_conjugate((random_word(rng, F3, 12),))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000
