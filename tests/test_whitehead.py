import itertools
import math
import random

import pytest

from torusconj.errors import DomainError
from torusconj import whitehead
from torusconj.freegroup import (
    FreeAut,
    FreeGroup,
    autos,
    canonical_conjugate,
    inner_conjugator,
    is_automorphism,
    nielsen_generators,
)
from torusconj.whitehead import (
    Marking,
    ProductGroup,
    ProductMarking,
    _level_path,
    _moves_changing_length,
    _letter_codes,
    _matching_relabellings,
    _profile,
    _signed_permutation,
    _type_two_cuts,
    compose_moves,
    level_component,
    minimize,
    mwp_product,
    same_orbit,
)

from .helpers import (
    alphabet_auts,
    marking_minimize,
    move_alphabet,
    random_word,
    relabel_profile,
    words_of_length,
)

F2 = FreeGroup(2)
F3 = FreeGroup(3)
PROD = ProductGroup(F2)


def marking(*texts):
    return Marking.parse(F2, " ; ".join(texts))


def bfs_oracle(m1, m2, max_moves, length_cap):
    """Breadth-first search over Whitehead-move products, pruned at a cap."""
    if m1 == m2:
        return True
    moves = move_alphabet(m1.group)
    seen = {m1}
    frontier = [m1]
    for _ in range(max_moves):
        nxt = []
        for marking_ in frontier:
            for move in moves:
                cand = move.apply_marking(marking_)
                if cand.total_length() > length_cap or cand in seen:
                    continue
                if cand == m2:
                    return True
                seen.add(cand)
                nxt.append(cand)
        frontier = nxt
    return False


class TestTotalLength:
    def test_two_singletons(self):
        assert marking("[ a ]", "[ b ]").total_length() == 2

    def test_single_word(self):
        assert marking("[ a b a b ]").total_length() == 4

    def test_conjugation_removed(self):
        # canonical form minimizes over simultaneous conjugation
        assert marking("[ b a b' ]").total_length() == 1

    def test_empty_marking(self):
        assert Marking.of(F2, []).total_length() == 0


class TestMinimize:
    def test_primitive_detects(self):
        m = marking("[ a b ]")
        mini, moves = minimize(m)
        assert mini.total_length() == 1
        # oracle: BFS over all Whitehead moves to depth 3 finds length 1
        assert bfs_oracle(m, mini, 3, 6)

    def test_already_minimal(self):
        m = marking("[ a ]")
        mini, moves = minimize(m)
        assert mini == m and moves == []

    def test_commutator_not_reducible(self):
        m = marking("[ a b a' b' ]")
        # oracle: no single Whitehead move shortens the commutator
        for move in move_alphabet(F2):
            assert move.apply_marking(m).total_length() >= 4
        mini, _ = minimize(m)
        assert mini.total_length() == 4

    def test_descent_never_increases(self):
        rng = random.Random(101)
        for _ in range(40):
            m = Marking.of(F2, [[random_word(rng, F2, 6)]])
            current = m
            _, moves = minimize(m)
            for move in moves:
                nxt = move.apply_marking(current)
                assert nxt.total_length() < current.total_length()
                current = nxt


def random_marking(rng, group, classes, max_len, words_per_class=1):
    return Marking.of(
        group,
        [
            [random_word(rng, group, max_len) for _ in range(words_per_class)]
            for _ in range(classes)
        ],
    )


def random_aut(rng, group, steps):
    nielsen = nielsen_generators(group)
    aut = FreeAut.identity(group)
    for _ in range(steps):
        aut = rng.choice(nielsen) * aut
    return aut


def reference_minimize(m):
    """Greedy descent that applies every move and measures the image."""
    moves = move_alphabet(m.group)
    current = Marking.of(m.group, m.classes)
    applied = []
    improved = True
    while improved:
        improved = False
        for move in moves:
            candidate = move.apply_marking(current)
            if candidate.total_length() < current.total_length():
                current = candidate
                applied.append(move)
                improved = True
                break
    return current, applied


def reference_level_path(start, goal):
    """Breadth-first search that applies every move at every marking."""
    if start == goal:
        return []
    moves = move_alphabet(start.group)
    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for move in moves:
                candidate = move.apply_marking(current)
                if candidate.total_length() != start.total_length() or candidate in parents:
                    continue
                parents[candidate] = (current, move)
                if candidate == goal:
                    path = []
                    while parents[candidate] is not None:
                        candidate, move = parents[candidate]
                        path.append(move)
                    return path[::-1]
                nxt.append(candidate)
        frontier = nxt
    return None


def reference_same_orbit(m1, m2):
    group = m1.group
    min1, moves1 = reference_minimize(m1)
    min2, moves2 = reference_minimize(m2)
    if min1.total_length() != min2.total_length():
        return False, None
    path = reference_level_path(min1, min2)
    if path is None:
        return False, None

    def compose(moves):
        aut = FreeAut.identity(group)
        for move in moves:
            aut = alphabet_auts(group)[move] * aut
        return aut

    return True, compose(moves2).inverse() * compose(path) * compose(moves1)


class TestLengthChanges:
    """The length change `_moves_changing_length` passes to `keep` for each
    type-II move, read off the Whitehead graph, equals the measured one."""

    @staticmethod
    def assert_exact(m):
        changes = []

        def record(change):
            changes.append(change)
            return True

        yielded = list(_moves_changing_length(m, record))
        assert [move for move, _ in yielded] == [move for move, _, _ in _type_two_cuts(m.group)]
        assert len(changes) == len(yielded)
        for (move, image), change in zip(yielded, changes):
            assert image == move.apply_marking(m)
            measured = image.total_length() - m.total_length()
            assert change == measured, f"{move} on {m.format()}"

    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    def test_seeded_markings_and_minimized_forms(self, group):
        rng = random.Random(601 + group.rank)
        for _ in range(60):
            m = random_marking(rng, group, rng.randint(1, 3), 8)
            self.assert_exact(m)
            self.assert_exact(minimize(m)[0])

    @pytest.mark.parametrize(
        "group, text",
        [
            (F2, "[ a ]"),
            (F2, "[ b' ]"),
            (F3, "[ c ]"),
            (F2, "[ 1 ] ; [ a ]"),
            (F2, "[ a a a ]"),
            (F2, "[ a b a b ]"),
            (F3, "[ a b c' a b c' ]"),
            (F2, "[ a b ] ; [ a b ]"),
            (F3, "[ a c ] ; [ a c ] ; [ b ]"),
            (F2, "[ a b a' b' ] ; [ a b' ]"),
            (F3, "[ a b' c ] ; [ c' b ]"),
        ],
    )
    def test_edge_cases(self, group, text):
        self.assert_exact(Marking.parse(group, text))

    def test_type_one_moves_keep_length(self):
        m = Marking.parse(F3, "[ a b' c a ] ; [ b c ]")
        for move in move_alphabet(F3):
            if move.kind == "perm":
                assert move.apply_marking(m).total_length() == m.total_length()

    def test_tuple_classes_have_no_graph_changes(self):
        assert _letter_codes(marking("[ a b , b' ]")) is None


def redundant_moves(group):
    """{dropped type-II move: its kept partner, or None for an inner move},
    read off the move data: tau_{v, L - {v^-1}} is inner, and the partner
    of tau_{v,Y} is tau_{v^-1, L - Y}, the earlier of the two kept."""
    letters = [(i, s) for i in range(group.rank) for s in (1, -1)]
    by_data = {move.data: move for move in move_alphabet(group) if move.kind == "mult"}
    order = {move: k for k, move in enumerate(move_alphabet(group))}
    dropped = {}
    for (v, chosen), move in by_data.items():
        if len(chosen) == len(letters) - 2:
            dropped[move] = None
            continue
        w = (v[0], -v[1])
        cut = set(chosen) | {v}
        partner = by_data[(w, tuple(sorted(x for x in letters if x not in cut and x != w)))]
        if order[partner] < order[move]:
            dropped[move] = partner
    return dropped


class TestRedundantMoves:
    """The type-II moves `_type_two_cuts` leaves out give no new image: an
    inner move fixes every marking, and the later member of a complementary
    pair gives the image of the earlier one."""

    GROUPS = [FreeGroup(2), FreeGroup(3), FreeGroup(4)]

    @pytest.mark.parametrize("group, size", zip(GROUPS, [4, 42, 248]), ids=["rank2", "rank3", "rank4"])
    def test_table_keeps_one_move_per_pair(self, group, size):
        kept = [move for move, _, _ in _type_two_cuts(group)]
        dropped = redundant_moves(group)
        assert len(kept) == size
        assert len(kept) + len(dropped) == sum(move.kind == "mult" for move in move_alphabet(group))
        assert set(kept).isdisjoint(dropped)
        assert set(dropped.values()) - {None} == set(kept)
        assert kept == [move for move in move_alphabet(group) if move.kind == "mult" and move not in dropped]
        for move in kept:
            assert inner_conjugator(compose_moves(group, [move])) is None, move
        for move, partner in dropped.items():
            # tau_{v, L - {v^-1}} == ad_v, and tau_{v^-1, L - Y} == ad_{v^-1} tau_{v,Y},
            # with ad_g(x) == g^-1 x g
            v = group.word([move.data[0]])
            if partner is None:
                assert inner_conjugator(compose_moves(group, [move])) == v, move
            else:
                assert inner_conjugator(compose_moves(group, [partner.inverse(), move])) == v, move

    @pytest.mark.parametrize("group", GROUPS, ids=["rank2", "rank3", "rank4"])
    @pytest.mark.parametrize("words_per_class", [1, 2])
    def test_dropped_move_repeats_an_image(self, group, words_per_class):
        rng = random.Random(1021 + 10 * group.rank + words_per_class)
        max_len = {2: 8, 3: 5, 4: 4}[group.rank]
        markings = [random_marking(rng, group, rng.randint(1, 3), max_len, words_per_class) for _ in range(12)]
        identity = [group.identity()] * words_per_class
        markings += [Marking.of(group, [identity]), Marking.of(group, [identity] + list(markings[0].classes))]
        dropped = redundant_moves(group)
        for m in markings:
            for move, partner in dropped.items():
                expected = m if partner is None else partner.apply_marking(m)
                assert move.apply_marking(m) == expected, f"{move} on {m.format()}"


def oracle_type_two_cuts(group):
    """`_type_two_cuts` read off the oracle alphabet: its type-II moves in
    order, less each inner move and the later member of each
    complementary pair."""
    width = 2 * group.rank
    letters = frozenset(range(width))
    kept = set()
    table = []
    for move in move_alphabet(group):
        if move.kind == "mult":
            v, chosen = move.data
            v = 2 * v[0] + (v[1] < 0)
            cut = frozenset(2 * i + (s < 0) for i, s in chosen) | {v}
            if len(cut) == width - 1 or (v ^ 1, letters - cut) in kept:
                continue
            kept.add((v, cut))
            cross = tuple(a * width + b for a in sorted(cut) for b in range(width) if b not in cut)
            table.append((move, v, cross))
    return table


def oracle_relabellings(group):
    """The signed relabellings read off the oracle alphabet: (sigma,
    sigma^-1, pre) for its type-I moves in order, sigma^-1 found by its
    folded automorphism, and pre[y] the index of the letter that sigma
    sends to letter y."""
    perms = {aut: move for move, aut in alphabet_auts(group).items() if move.kind == "perm"}
    table = []
    for aut, move in perms.items():
        pre = [0] * (2 * group.rank)
        for i, image in enumerate(aut.images):
            (j, s), = image.letters
            y = 2 * j + (s < 0)
            pre[y], pre[y ^ 1] = 2 * i, 2 * i + 1
        table.append((move, perms[aut.inverse()], tuple(pre)))
    return table


def relabellings(group):
    """The signed relabellings `level_component` applies, in its order."""
    return [
        _signed_permutation(perm, signs)
        for perm, signs in itertools.islice(_matching_relabellings((), (), group.rank), 1, None)
    ]


def move_key(group, move):
    # `FreeAut.__eq__` compares images only
    aut = compose_moves(group, [move])
    return move.kind, move.data, aut.images, aut.inverse_images


def folded_key(group, move):
    """`move_key` with the automorphism the oracle alphabet folded."""
    aut = alphabet_auts(group)[move]
    return move.kind, move.data, aut.images, aut.inverse_images


class TestMoveTables:
    """The move tables built from each move's definition equal those read
    off the folded oracle alphabet, in order, inverse images included."""

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_tables_match_the_oracle_alphabet(self, rank):
        group = FreeGroup(rank)
        built = [(move_key(group, move), v, cross) for move, v, cross in _type_two_cuts(group)]
        oracle = oracle_type_two_cuts(group)
        assert built == [(folded_key(group, move), v, cross) for move, v, cross in oracle]
        built = [(move_key(group, sigma), move_key(group, sigma.inverse())) for sigma in relabellings(group)]
        oracle = oracle_relabellings(group)
        assert built == [(folded_key(group, sigma), folded_key(group, inverse)) for sigma, inverse, _ in oracle]
        assert len(built) == 2**rank * math.factorial(rank) - 1

    def test_tables_fold_nothing(self, monkeypatch):
        # work-count guard: every `is_automorphism` call folds once; no
        # other test names generators p, q, r, s, so the type-II table is
        # not cached
        folds = []
        folder = autos._Folder

        def counting(*args):
            folds.append(args)
            return folder(*args)

        monkeypatch.setattr(autos, "_Folder", counting)
        group = FreeGroup(["p", "q", "r", "s"])
        moves = [move for move, _, _ in _type_two_cuts(group)] + relabellings(group)
        assert len(moves) == 248 + 383
        for move in moves:
            assert compose_moves(group, [move, move.inverse()]).is_identity(), move
        assert folds == []


class TestFilteredMovesMatchReference:
    """Applying only the moves that can help descends to the same minimal
    markings as applying every move, and reaches the same verdicts with a
    witness that carries one marking to the other."""

    @staticmethod
    def assert_same_verdict(m1, m2):
        ok, witness = same_orbit(m1, m2)
        assert ok == reference_same_orbit(m1, m2)[0], f"{m1.format()} vs {m2.format()}"
        if ok:
            assert m1.apply(witness) == m2

    @pytest.mark.parametrize(
        "group, max_len, count",
        [(F2, 8, 80), (F3, 4, 40)],
        ids=["rank2", "rank3"],
    )
    def test_minimize_and_same_orbit(self, group, max_len, count):
        rng = random.Random(701 + group.rank)
        for i in range(count):
            m1 = random_marking(rng, group, rng.randint(1, 2), max_len)
            if i % 2:
                m2 = m1.apply(random_aut(rng, group, rng.randint(1, 4)))
            else:
                m2 = random_marking(rng, group, len(m1.classes), max_len)
            assert minimize(m1) == reference_minimize(m1)
            assert minimize(m2) == reference_minimize(m2)
            self.assert_same_verdict(m1, m2)

    def test_tuple_classes_fall_back(self):
        rng = random.Random(709)
        for i in range(12):
            m1 = random_marking(rng, F2, 1, 4, words_per_class=2)
            assert _letter_codes(m1) is None
            m2 = m1.apply(random_aut(rng, F2, 3)) if i % 2 else random_marking(rng, F2, 1, 4, 2)
            assert minimize(m1) == reference_minimize(m1)
            self.assert_same_verdict(m1, m2)


class TestTypeTwoLevelSearch:
    """The level search applies type-II moves only and matches against the
    goal's signed relabellings, which rests on the closure lemma below."""

    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    def test_type_two_closed_under_signed_conjugation(self, group):
        auts = alphabet_auts(group)
        type_two = {aut for move, aut in auts.items() if move.kind == "mult"}
        perms = [aut for move, aut in auts.items() if move.kind == "perm"]
        assert len(perms) == 2**group.rank * math.factorial(group.rank) - 1
        for sigma in perms:
            for tau in type_two:
                assert sigma * tau * sigma.inverse() in type_two, f"{sigma} {tau}"

    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    def test_search_yields_no_type_one_move(self, group):
        rng = random.Random(733 + group.rank)
        type_two = len(_type_two_cuts(group))
        for words_per_class in (1, 2):
            m = random_marking(rng, group, 2, 5, words_per_class)
            yielded = [move for move, _ in _moves_changing_length(m, lambda change: True)]
            assert len(yielded) == type_two
            assert all(move.kind == "mult" for move in yielded)

    @pytest.mark.parametrize(
        "texts, kinds",
        [
            (("[ a ] ; [ b ]", "[ b ] ; [ a ]"), ["perm"]),
            (("[ a a b b ]", "[ a b a b' ]"), ["mult", "perm"]),
            (("[ a b a b' ]", "[ a b a b' ]"), []),
        ],
        ids=["relabelling-only", "type-two-then-relabelling", "equal"],
    )
    def test_path_ends_with_one_relabelling(self, texts, kinds):
        m1, m2 = (Marking.parse(F2, text) for text in texts)
        assert m1.total_length() == minimize(m1)[0].total_length()
        path = _level_path(m1, m2)
        assert [move.kind for move in path] == kinds
        ok, witness = same_orbit(m1, m2)
        assert ok and m1.apply(witness) == m2


def eager_level_path(start, goal):
    """`_level_path` with every signed relabelling of the goal built up
    front, the first sigma in order (after the identity) kept per image."""
    if start == goal:
        return []
    targets = {goal: []}
    for sigma, inverse, _ in oracle_relabellings(goal.group):
        targets.setdefault(sigma.apply_marking(goal), [inverse])
    if start in targets:
        return targets[start]
    parents = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for current in frontier:
            for move, candidate in _moves_changing_length(current, lambda change: change == 0):
                if candidate in parents:
                    continue
                parents[candidate] = (current, move)
                if candidate in targets:
                    path, cur = [], candidate
                    while parents[cur] is not None:
                        cur, move = parents[cur]
                        path.append(move)
                    return path[::-1] + targets[candidate]
                nxt.append(candidate)
        frontier = nxt
    return None


class TestLazyRelabelledGoals:
    """The level search matches relabelled goals through their letter-count
    profiles and returns the path of the eager search."""

    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    @pytest.mark.parametrize("words_per_class", [1, 2])
    def test_same_path_as_eager_targets(self, group, words_per_class):
        rng = random.Random(911 + 10 * group.rank + words_per_class)
        max_len = 6 if group.rank == 2 else 3
        for i in range(30):
            m1 = minimize(random_marking(rng, group, rng.randint(1, 2), max_len, words_per_class))[0]
            if i % 2:
                m2 = minimize(m1.apply(random_aut(rng, group, rng.randint(1, 4))))[0]
            else:
                m2 = minimize(random_marking(rng, group, len(m1.classes), max_len, words_per_class))[0]
            if m1.total_length() == m2.total_length():
                assert _level_path(m1, m2) == eager_level_path(m1, m2), f"{m1.format()} vs {m2.format()}"

    @pytest.mark.parametrize(
        "group, text",
        [
            (F2, "[ a b ] ; [ a b ]"),
            (F3, "[ a b ] ; [ a b ]"),
            (F3, "[ a ] ; [ b ]"),
            (F3, "[ a , b ]"),
        ],
    )
    def test_goals_fixed_by_a_relabelling(self, group, text):
        # several sigma send the goal to the same start, so the first one
        # in order must be the one chosen
        goal = Marking.parse(group, text)
        starts = [goal] + [sigma.apply_marking(goal) for sigma, _, _ in oracle_relabellings(group)]
        assert len(set(starts)) < len(starts)
        for start in starts:
            path = _level_path(start, goal)
            assert path == eager_level_path(start, goal)
            assert len(path) <= 1 and start.apply(compose_moves(group, path)) == goal


def bfs_level_component(m):
    """The former `level_component`, a search of its own: every marking
    that length-preserving type-II moves reach from `m`, and every signed
    relabelling of those, as a set."""
    seen = {m}
    frontier = [m]
    while frontier:
        nxt = []
        for marking in frontier:
            for _, candidate in _moves_changing_length(marking, lambda change: change == 0):
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    relabelled = {move.apply_marking(x) for x in seen for move, _, _ in oracle_relabellings(m.group)}
    return frozenset(seen | relabelled)


class TestLevelComponent:
    """`level_component` walks the minimal level once: it finds the markings
    the former search found, each with a path that leads to it from `m`."""

    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    @pytest.mark.parametrize("words_per_class", [1, 2])
    def test_paths_lead_to_their_markings(self, group, words_per_class):
        rng = random.Random(967 + 10 * group.rank + words_per_class)
        max_len = 6 if group.rank == 2 else 3
        lengths = []
        markings = [random_marking(rng, group, rng.randint(1, 2), max_len, words_per_class) for _ in range(12)]
        for m in [Marking.parse(group, "[ a a b b ]")] + [minimize(m)[0] for m in markings]:
            level = level_component(m)
            assert set(level) == bfs_level_component(m)
            assert next(iter(level.items())) == (m, [])
            for marking, path in level.items():
                assert m.apply(compose_moves(group, path)) == marking
                assert all(move.kind == "mult" for move in path[:-1])
                lengths.append(len(path))
        # "[ a a b b ]" reaches "[ a b a b' ]" by a type-II move
        assert max(lengths) > 1


class TestProfile:
    """The profile prefilter never drops a real relabelling: relabelling a
    marking permutes its profile."""

    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    @pytest.mark.parametrize("words_per_class", [1, 2, 3])
    def test_relabelling_permutes_profile(self, group, words_per_class):
        rng = random.Random(953 + 10 * group.rank + words_per_class)
        for _ in range(20):
            m = random_marking(rng, group, rng.randint(1, 3), 6, words_per_class)
            profile = _profile(m)
            for sigma, _, pre in oracle_relabellings(group):
                assert _profile(sigma.apply_marking(m)) == relabel_profile(profile, pre), (
                    f"{sigma} on {m.format()}"
                )

    def test_profile_ignores_conjugation(self):
        m = Marking.parse(F2, "[ a b , b a' ]")
        conjugated = Marking.parse(F2, "[ b' a b b , b' b a' b ]")
        assert m == conjugated and _profile(m) == _profile(conjugated)
        # the cyclic reductions of a b and b a' count one a, one b, one a'
        assert _profile(m) == (1, 0, 1, 0, 0, 1, 1, 0)


class TestCodedDescent:
    """`minimize` descends on letter indices and canonicalizes once; it
    takes the moves of a descent through canonical markings."""

    GROUPS = [FreeGroup(2), FreeGroup(3), FreeGroup(4)]

    @pytest.mark.parametrize("group", GROUPS, ids=["rank2", "rank3", "rank4"])
    @pytest.mark.parametrize("words_per_class", [1, 2])
    def test_same_marking_and_moves_as_marking_descent(self, group, words_per_class):
        rng = random.Random(1103 + 10 * group.rank + words_per_class)
        max_len = {2: 10, 3: 6, 4: 5}[group.rank]
        changed = 0
        for i in range(40):
            m = random_marking(rng, group, rng.randint(1, 2), max_len, words_per_class)
            if i % 2:
                m = m.apply(random_aut(rng, group, rng.randint(1, 4)))
            minimal, moves = minimize(m)
            assert (minimal, moves) == marking_minimize(m), m.format()
            changed += bool(moves)
        assert changed >= 10

    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    def test_one_canonicalization_per_class(self, group, monkeypatch):
        # work guard: a changed result canonicalizes each class once, a
        # minimal input not at all
        calls = []

        def counting(words):
            calls.append(words)
            return canonical_conjugate(words)

        rng = random.Random(1151 + group.rank)
        markings = [random_marking(rng, group, rng.randint(1, 3), 8).apply(random_aut(rng, group, 3)) for _ in range(20)]
        monkeypatch.setattr(whitehead, "canonical_conjugate", counting)
        changed = 0
        for m in markings:
            calls.clear()
            minimal, moves = minimize(m)
            assert len(calls) == (len(m.classes) if moves else 0), m.format()
            changed += bool(moves)
            calls.clear()
            assert minimize(minimal) == (minimal, [])
            assert calls == []
        assert changed >= 10


class TestMoveInverse:
    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    def test_inverse_is_the_alphabet_move_of_the_inverse(self, group):
        auts = alphabet_auts(group)
        by_aut = {aut: move for move, aut in auts.items()}
        for move, aut in auts.items():
            inverse = move.inverse()
            assert move_key(group, inverse) == folded_key(group, by_aut[aut.inverse()]), move
            assert move_key(group, inverse.inverse()) == folded_key(group, move)


class TestOnePassWitness:
    @pytest.mark.parametrize("group", [F2, F3], ids=["rank2", "rank3"])
    def test_witness_equals_three_factor_product(self, group):
        rng = random.Random(1201 + group.rank)
        max_len = 8 if group.rank == 2 else 4
        for i in range(30):
            m1 = random_marking(rng, group, rng.randint(1, 2), max_len, 1 + i % 2)
            m2 = m1.apply(random_aut(rng, group, rng.randint(1, 4)))
            ok, witness = same_orbit(m1, m2)
            assert ok
            (min1, moves1), (min2, moves2) = minimize(m1), minimize(m2)
            path = _level_path(min1, min2)
            oracle = compose_moves(group, moves2).inverse() * compose_moves(group, path) * compose_moves(group, moves1)
            assert (witness.images, witness.inverse_images) == (oracle.images, oracle.inverse_images)


class TestMatchingRelabellings:
    """The relabellings generated per profile are those of the full table
    whose relabelled profile matches, in its order, the identity first."""

    @staticmethod
    def filtered_table(group, source, target):
        n = group.rank
        identity = [(tuple(range(n)), (1,) * n)] if source == target else []
        return identity + [
            sigma.data for sigma, _, pre in oracle_relabellings(group) if relabel_profile(source, pre) == target
        ]

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_generated_equals_filtered_table(self, rank):
        group = FreeGroup(rank)
        rng = random.Random(1301 + rank)
        texts = [
            "[ a b ]",  # equal columns
            "[ a ]",  # zero columns
            "[ a b a' b' ]",  # x and x^-1 counted alike
            "[ a b ] ; [ a b ]",
            "[ a , b ]",
            "[ a a b ] ; [ b' a ]",
        ]
        goals = [Marking.parse(group, text) for text in texts]
        goals += [random_marking(rng, group, rng.randint(1, 2), 6, rng.randint(1, 2)) for _ in range(6)]
        table = oracle_relabellings(group)
        matched = 0
        for goal in goals:
            source = _profile(goal)
            targets = [source] + [_profile(rng.choice(table)[0].apply_marking(goal)) for _ in range(3)]
            targets.append(_profile(random_marking(rng, group, len(goal.classes), 6, len(goal.classes[0]))))
            for target in targets:
                if len(target) != len(source):
                    continue
                expected = self.filtered_table(group, source, target)
                assert list(_matching_relabellings(source, target, rank)) == expected, goal.format()
                matched += len(expected)
        assert matched > len(goals)

    def test_question_builds_no_full_table(self, monkeypatch):
        # work guard: of the 2^6 * 6! - 1 == 46,079 signed relabellings,
        # each question builds only the few sigma its goal's profile admits
        # before the first match, each with its inverse, and the witness
        # inverts the path's last move once more
        calls = []
        build = whitehead._signed_permutation

        def counting(perm, signs):
            calls.append((perm, signs))
            return build(perm, signs)

        monkeypatch.setattr(whitehead, "_signed_permutation", counting)
        group = FreeGroup(6)
        # each pair reaches the level search: the positives end with a
        # relabelling, and the negative walks the whole level
        cases = [
            ("[ a b ]", "[ a ]", True, 3),
            ("[ a ] ; [ b ]", "[ f' ] ; [ c ]", True, 3),
            ("[ a b a' b' ]", "[ c' e c e' ]", True, 7),
            ("[ a b a' b' ]", "[ a a b b ]", False, 0),
        ]
        for text1, text2, expected, built in cases:
            calls.clear()
            m1, m2 = Marking.parse(group, text1), Marking.parse(group, text2)
            ok, witness = same_orbit(m1, m2)
            assert ok == expected
            if ok:
                assert m1.apply(witness) == m2
            assert len(calls) <= built, (text1, text2, calls)


class TestComposeMoves:
    """`compose_moves` equals the product of the folded automorphisms, in
    the order the moves apply, images and inverse images alike."""

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_matches_the_product_oracle(self, rank):
        group = FreeGroup(rank)
        auts = alphabet_auts(group)
        type_one = [move for move in auts if move.kind == "perm"]
        type_two = [move for move, _, _ in _type_two_cuts(group)]
        rng = random.Random(1401 + rank)
        for _ in range(40):
            moves, product = [], FreeAut.identity(group)
            for _ in range(rng.randint(0, 8)):
                move = rng.choice(rng.choice([type_one, type_two]))
                aut = auts[move]
                if rng.random() < 0.5:
                    move, aut = move.inverse(), aut.inverse()
                moves.append(move)
                product = aut * product
            composed = compose_moves(group, moves)
            assert (composed.images, composed.inverse_images) == (product.images, product.inverse_images)


class TestNoProcessTables:
    def test_level_component_leaves_one_cache(self):
        group = FreeGroup(4)
        m = Marking.parse(group, "[ a b a' b' ] ; [ c ]")
        assert minimize(m) == (m, [])
        assert len(level_component(m)) > 1
        caches = {
            name
            for name, value in vars(whitehead).items()
            if hasattr(value, "cache_info") and value.__module__ == whitehead.__name__
        }
        assert caches == {"_type_two_cuts"}


class TestMetamorphic:
    """Relabelling generators or swapping sides keeps the verdict."""

    @staticmethod
    def signed_permutation(rng, group):
        perm = list(range(group.rank))
        rng.shuffle(perm)
        images = [group.word([(perm[i], rng.choice((1, -1)))]) for i in range(group.rank)]
        return is_automorphism(group, images)

    @pytest.mark.parametrize(
        "group, max_len, count",
        [(F2, 8, 300), (F3, 4, 150)],
        ids=["rank2", "rank3"],
    )
    def test_relabel_and_swap(self, group, max_len, count):
        rng = random.Random(809 + group.rank)
        positives = 0
        for i in range(count):
            m1 = random_marking(rng, group, rng.randint(1, 2), max_len)
            if i % 2:
                m2 = m1.apply(random_aut(rng, group, rng.randint(1, 4)))
            else:
                m2 = random_marking(rng, group, len(m1.classes), max_len)
            relabel = self.signed_permutation(rng, group)
            r1, r2 = m1.apply(relabel), m2.apply(relabel)
            verdict = None
            for a, b in ((m1, m2), (m2, m1), (r1, r2), (r2, r1)):
                ok, witness = same_orbit(a, b)
                assert verdict in (None, ok), f"{m1.format()} vs {m2.format()}"
                verdict = ok
                if ok:
                    assert a.apply(witness) == b
            positives += verdict
        assert positives >= count // 2


class TestSameOrbit:
    def test_generator_to_generator(self):
        ok, witness = same_orbit(marking("[ a ]"), marking("[ b ]"))
        assert ok
        assert witness.apply(F2.parse("a")) in (F2.parse("b"), F2.parse("b'"))

    def test_generator_vs_square(self):
        # oracle: a^2 is not primitive; lengths 1 vs 2 after minimization
        mini, _ = minimize(marking("[ a a ]"))
        assert mini.total_length() == 2
        ok, _ = same_orbit(marking("[ a ]"), marking("[ a a ]"))
        assert not ok

    def test_ordered_tuple_swap(self):
        ok, witness = same_orbit(marking("[ a ]", "[ b ]"), marking("[ b ]", "[ a ]"))
        assert ok
        m = marking("[ a ]", "[ b ]")
        assert m.apply(witness) == marking("[ b ]", "[ a ]")

    def test_reflexive(self):
        rng = random.Random(103)
        for _ in range(100):
            m = Marking.of(F2, [[random_word(rng, F2, 5)]])
            ok, witness = same_orbit(m, m)
            assert ok and m.apply(witness) == m

    def test_symmetric(self):
        rng = random.Random(107)
        for _ in range(100):
            m1 = Marking.of(F2, [[random_word(rng, F2, 4)]])
            m2 = Marking.of(F2, [[random_word(rng, F2, 4)]])
            a, _ = same_orbit(m1, m2)
            b, _ = same_orbit(m2, m1)
            assert a == b

    def test_aut_invariance(self):
        rng = random.Random(109)
        nielsen = nielsen_generators(F2)
        for _ in range(100):
            m = Marking.of(
                F2, [[random_word(rng, F2, 4)], [random_word(rng, F2, 3)]]
            )
            aut = FreeAut.identity(F2)
            for _ in range(rng.randint(0, 5)):
                aut = rng.choice(nielsen) * aut
            ok, witness = same_orbit(m, m.apply(aut))
            assert ok
            assert m.apply(witness) == m.apply(aut)

    def test_witness_soundness(self):
        rng = random.Random(113)
        pairs_checked = 0
        words = list(words_of_length(F2, 3))
        for u, v in itertools.product(words[:12], words[:12]):
            m1, m2 = Marking.of(F2, [[u]]), Marking.of(F2, [[v]])
            ok, witness = same_orbit(m1, m2)
            if ok:
                assert m1.apply(witness) == m2
                pairs_checked += 1
        assert pairs_checked > 0

    def test_brute_force_agreement_small(self):
        # light version of the acceptance criterion: total length <= 4
        markings = []
        seen = set()
        for length in range(1, 5):
            for w in words_of_length(F2, length):
                m = Marking.of(F2, [[w]])
                if m not in seen and m.total_length() == length:
                    seen.add(m)
                    markings.append(m)
        markings = markings[:40]
        for m1, m2 in itertools.combinations(markings, 2):
            expected = bfs_oracle(m1, m2, 8, m1.total_length() + m2.total_length() + 2)
            got, _ = same_orbit(m1, m2)
            assert got == expected, f"{m1.format()} vs {m2.format()}"


class TestMwpProduct:
    def test_h_part_swap(self):
        m1 = ProductMarking.parse(PROD, "[ a * c^0 ]")
        m2 = ProductMarking.parse(PROD, "[ b ]")
        ok, witness = mwp_product(m1, m2)
        assert ok and witness is not None

    def test_center_exponent_mismatch(self):
        m1 = ProductMarking.parse(PROD, "[ a * c ]")
        m2 = ProductMarking.parse(PROD, "[ a * c^2 ]")
        ok, _ = mwp_product(m1, m2)
        # oracle: fiber-orientation maps fix every center coordinate
        assert not ok

    def test_central_identity(self):
        m = ProductMarking.parse(PROD, "[ 1 * c ]")
        ok, _ = mwp_product(m, m)
        assert ok

    def test_matching_exponents_with_h_match(self):
        m1 = ProductMarking.parse(PROD, "[ a * c^2 , b ]")
        m2 = ProductMarking.parse(PROD, "[ b * c^2 , a ]")
        ok, witness = mwp_product(m1, m2)
        assert ok
        # H-part witness carries the marking across
        h1, h2 = m1.h_marking(), m2.h_marking()
        assert h1.apply(witness) == h2

    def test_small_exhaustive_lambda_oracle(self):
        # enumerate small automorphisms (psi, lambda) of H x <c> and check
        # that only lambda == 0 preserves the fiber, hence coordinate shifts
        # are not realizable
        m1 = ProductMarking.parse(PROD, "[ a * c ]")
        m2 = ProductMarking.parse(PROD, "[ a * c^2 ]")
        realized = False
        for lam_a, lam_b in itertools.product(range(-2, 3), repeat=2):
            fiber_preserving = lam_a == 0 and lam_b == 0
            if not fiber_preserving:
                continue
            # with lambda == 0 the center exponent of a*c stays 1
            realized = realized or (1 + lam_a == 2)
        assert not realized
        ok, _ = mwp_product(m1, m2)
        assert not ok

    def test_free_generator_never_named_like_the_center(self):
        # FreeGroup(3) calls its third generator c, the center's name
        with pytest.raises(DomainError):
            ProductGroup(F3)
        assert ProductGroup.of_rank(2) == PROD
        assert ProductGroup.of_rank(3).free.names == ("a", "b", "d")
        product = ProductGroup.of_rank(3)
        m = ProductMarking.parse(product, "[ d * c^2 , a d' ]")
        assert m.centers() == ((2, 0),)
        assert ProductMarking.parse(product, m.format()) == m

    def test_aut_invariance_of_product_markings(self):
        # fiber-and-orientation preserving maps (psi, lambda=0) never change
        # the answer; oracle for the small exhaustive search examples
        rng = random.Random(4711)
        nielsen = nielsen_generators(F2)
        for _ in range(60):
            classes = [
                [
                    (
                        F2.word(
                            [
                                (rng.randrange(2), rng.choice((1, -1)))
                                for _ in range(rng.randint(0, 3))
                            ]
                        ),
                        rng.randint(-1, 1),
                    )
                ]
                for _ in range(2)
            ]
            m = ProductMarking.of(PROD, classes)
            aut = FreeAut.identity(F2)
            for _ in range(rng.randint(0, 4)):
                aut = rng.choice(nielsen) * aut
            moved = ProductMarking.of(
                PROD,
                [tuple((aut.apply(w), k) for w, k in entry) for entry in m.classes],
            )
            ok, _ = mwp_product(m, moved)
            assert ok


class TestMarkingParsing:
    def test_round_trip(self):
        m = marking("[ a b , b' ]", "[ a ]")
        assert Marking.parse(F2, m.format()) == m

    def test_product_round_trip(self):
        m = ProductMarking.parse(PROD, "[ a b * c^-2 , b ] ; [ 1 * c ]")
        assert ProductMarking.parse(PROD, m.format()) == m

    def test_empty_entry_rejected(self):
        with pytest.raises((DomainError, Exception)):
            Marking.of(F2, [[]])
