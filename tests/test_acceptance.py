"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the suite is the exit gate for the build.
"""

import itertools
import pathlib
import random
import time

from torusconj.fibercorrect import (
    DiophantineSystem,
    OrientationFunctional,
    mat_vec,
    solve,
    twist_coefficients,
)
from torusconj.freegroup import (
    FreeGroup,
    congruence_kernel,
    is_characteristic,
    nielsen_generators,
)
from torusconj.gog import (
    BassWord,
    GoGMorphism,
    GraphOfGroups,
    GroupSlot,
    SlotHom,
    SlotIso,
    compose,
    identity_morphism,
    induced_on_pi1,
    small_modular_generators,
    validate,
)
from torusconj.minkowski import (
    certify,
    certify_zsquare,
    culler_reps,
    realizing_graphs,
)
from torusconj.pipeline import (
    conj_ung,
    decide,
    parse_jsj,
    parse_whitelist,
    parse_witness,
    serialize_verdict,
    verify_witness,
)
from torusconj.whitehead import Marking, same_orbit

from .cli_helpers import load_conj_side
from .helpers import gl2_finite_order_classes, matrix_order, move_alphabet, words_of_length

DATA = pathlib.Path(__file__).parent / "data" / "corpus"
F2 = FreeGroup(2)


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: Whitehead oracle equivalence


def _canonical_markings(shape, max_total):
    seen = set()
    out = []
    if shape == "single":
        for length in range(0, max_total + 1):
            words = [F2.identity()] if length == 0 else words_of_length(F2, length)
            for w in words:
                m = Marking.of(F2, [[w]])
                if m.total_length() == length and m not in seen:
                    seen.add(m)
                    out.append(m)
    elif shape == "pair":
        for l1 in range(1, max_total):
            for l2 in range(1, max_total - l1 + 1):
                for w1 in words_of_length(F2, l1):
                    for w2 in words_of_length(F2, l2):
                        m = Marking.of(F2, [[w1, w2]])
                        if m.total_length() == l1 + l2 and m not in seen:
                            seen.add(m)
                            out.append(m)
    elif shape == "two-class":
        for l1 in range(1, max_total):
            for l2 in range(1, max_total - l1 + 1):
                for w1 in words_of_length(F2, l1):
                    for w2 in words_of_length(F2, l2):
                        m = Marking.of(F2, [[w1], [w2]])
                        if m.total_length() == l1 + l2 and m not in seen:
                            seen.add(m)
                            out.append(m)
    return out


class _OracleGraph:
    """Global move graph over a capped universe, with per-source BFS."""

    def __init__(self, seeds, cap):
        moves = move_alphabet(F2)
        self.adj = {}
        known = set(seeds)
        frontier = list(seeds)
        while frontier:
            nxt = []
            for m in frontier:
                nbrs = []
                for mv in moves:
                    c = mv.apply_marking(m)
                    if c.total_length() <= cap:
                        nbrs.append(c)
                        if c not in known:
                            known.add(c)
                            nxt.append(c)
                self.adj[m] = nbrs
            frontier = nxt

    def reachable_within(self, src, max_moves):
        dist = {src: 0}
        frontier = [src]
        for _ in range(max_moves):
            nxt = []
            for m in frontier:
                for c in self.adj[m]:
                    if c not in dist:
                        dist[c] = dist[m] + 1
                        nxt.append(c)
            frontier = nxt
        return dist


def test_acceptance_whitehead_oracle_equivalence():
    """same_orbit agrees exactly with the breadth-first oracle over
    Whitehead-move products of length <= 8 on the length-<= 6 corpus."""
    t0 = time.time()
    total_pairs = 0
    plans = [
        ("single", 6, 10),
        ("pair", 4, 8),
        ("two-class", 4, 8),
    ]
    for shape, max_total, cap in plans:
        markings = _canonical_markings(shape, max_total)
        oracle = _OracleGraph(markings, cap)
        reach = {m: oracle.reachable_within(m, 8) for m in markings}
        for m1, m2 in itertools.combinations(markings, 2):
            expected = m2 in reach[m1]
            got, witness = same_orbit(m1, m2)
            assert got == expected, f"{shape}: {m1.format()} vs {m2.format()}"
            if got:
                assert m1.apply(witness) == m2
            total_pairs += 1
    elapsed = time.time() - t0
    assert total_pairs > 3000
    assert elapsed < 300, f"took {elapsed:.0f}s"
    report(f"whitehead-oracle-equivalence ({total_pairs} pairs, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 2: Bass-Diagram closure under composition


def _three_vertex_gog():
    Z = GroupSlot(1, False)
    Z2 = GroupSlot(1, True)
    F2s = GroupSlot(2, False)
    injections = {}
    for name, word in (("e1", "x0"), ("e2", "x1")):
        injections[name] = SlotHom(Z, Z2, (Z2.parse("x0"),))
        injections[name + "~"] = SlotHom(Z, F2s, (F2s.parse(word),))
    return GraphOfGroups(
        ["b1", "b2", "w"],
        {"e1": ("w", "b1"), "e2": ("w", "b2")},
        {"w": F2s, "b1": Z2, "b2": Z2},
        {"e1": Z, "e2": Z},
        injections,
    )


def _swap_morphism(gog):
    F2s = gog.vslot("w")
    swap_iso = SlotIso(F2s, F2s, (F2s.parse("x1"), F2s.parse("x0")))
    return validate(
        GoGMorphism(
            gog,
            gog,
            {"w": "w", "b1": "b2", "b2": "b1"},
            {"e1": "e2", "e1~": "e2~", "e2": "e1", "e2~": "e1~"},
            {
                "w": swap_iso,
                "b1": SlotIso.identity(gog.vslot("b1")),
                "b2": SlotIso.identity(gog.vslot("b2")),
            },
            {e: SlotIso.identity(gog.eslot(e)) for e in gog.edge_names},
            {e: gog.vslot(gog.term(e)).identity() for e in gog.oriented_edges()},
        )
    )


def test_acceptance_bass_diagram_closure():
    """1,000 randomized compositions of validated automorphisms all
    re-validate: the Bass diagram is closed under the composition rule."""
    gog = _three_vertex_gog()
    generators = [m.to_morphism() for m in small_modular_generators(gog)]
    generators.append(_swap_morphism(gog))
    rng = random.Random(2024)
    current = identity_morphism(gog)
    failures = 0
    for _ in range(1000):
        nxt = rng.choice(generators)
        current = compose(nxt, current)
        try:
            validate(current)
        except Exception:
            failures += 1
        if rng.random() < 0.2:
            current = identity_morphism(gog)
    assert failures == 0
    report("bass-diagram-closure (1000 compositions, 0 failures)")


# ---------------------------------------------------------------------------
# criterion 3: transvection faithfulness


def test_acceptance_transvection_faithfulness():
    """For 200 random loops and twists the group-level orientation value of
    the induced image equals the linear model `twist_coefficients` exactly."""
    Z = GroupSlot(1, False)
    F2s = GroupSlot(2, False)
    injections = {
        "e": SlotHom(Z, F2s, (F2s.parse("x0"),)),
        "e~": SlotHom(Z, F2s, (F2s.parse("x0"),)),
        "f": SlotHom(Z, F2s, (F2s.parse("x1"),)),
        "f~": SlotHom(Z, F2s, (F2s.parse("x1"),)),
    }
    gog = GraphOfGroups(
        ["v"], {"e": ("v", "v"), "f": ("v", "v")}, {"v": F2s}, {"e": Z, "f": Z}, injections
    )
    o = OrientationFunctional(gog, {"v": (1, 2)}, {"e": 1, "f": 2})
    twists = small_modular_generators(gog)
    loops = [
        BassWord.parse(gog, "v: e (x0) f (x1)"),
        BassWord.parse(gog, "v: f~ (x0 x1) e (x0')"),
        BassWord.parse(gog, "v: e e (x1) f~ (x0)"),
        BassWord.parse(gog, "v: f (x0) f (x1') e~"),
    ]
    rng = random.Random(77)
    for _ in range(200):
        twist = rng.choice(twists)
        loop = rng.choice(loops)
        image = induced_on_pi1(twist.to_morphism(), loop)
        predicted = o.of_loop(loop) + twist_coefficients(loop, [twist], o)[0]
        assert o.of_loop(image) == predicted
    report("transvection-faithfulness (200 cases exact)")


# ---------------------------------------------------------------------------
# criterion 4: Diophantine solver vs box search


def test_acceptance_diophantine_box_search():
    """1,000 random systems up to 4x4, entries in [-4,4]: agreement with the
    exhaustive box search at bound 10; witnesses verified by substitution."""
    rng = random.Random(4242)
    checked = 0
    for _ in range(1000):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-4, 4) for _ in range(m)]
        mine = solve(DiophantineSystem(tuple(map(tuple, a)), tuple(b)))
        box = None
        for cand in itertools.product(range(-10, 11), repeat=n):
            if all(sum(row[j] * cand[j] for j in range(n)) == rhs for row, rhs in zip(a, b)):
                box = list(cand)
                break
        if box is not None:
            assert mine is not None, f"box found {box}, solver missed: {a} {b}"
        if mine is not None:
            assert mat_vec(a, mine) == b
        checked += 1
    assert checked == 1000
    report("diophantine-box-search (1000 systems)")


# ---------------------------------------------------------------------------
# criterion 5: Minkowskian rank 1 and Z^2


def test_acceptance_minkowski_rank1_and_zsquare():
    cert1 = certify(1)
    assert [w.format() for w in cert1.kernel.generators()] == ["a a a"]
    assert cert1.verify()
    z2 = certify_zsquare()
    assert z2.verify()
    classes = gl2_finite_order_classes()
    orders = {matrix_order(m) for m in classes}
    assert orders == {1, 2, 3, 4, 6}
    # the certified classes, read off culler_reps(2), are the oracle's
    # nontrivial ones
    certified = sorted(matrix_order(m) for m in z2.representatives)
    assert certified == sorted(matrix_order(m) for m in classes if m != ((1, 0), (0, 1)))
    misses = [
        m
        for m in classes
        if m != ((1, 0), (0, 1))
        and tuple(tuple(x % 3 for x in row) for row in m) == ((1, 0), (0, 1))
    ]
    assert misses == []
    report("minkowski-rank1-and-zsquare (kernel <a^3>, 0 misses mod 3)")


# ---------------------------------------------------------------------------
# criterion 6: Culler coverage at rank 2


def test_acceptance_culler_rank2():
    graphs = sorted(g.name() for g in realizing_graphs(2))
    assert graphs == ["dumbbell", "rose2", "theta3"]
    orders = {r.outer_order for r in culler_reps(2)}
    assert orders == {1, 2, 3, 4, 6}
    report("culler-rank2 (rose/theta/dumbbell; orders 1,2,3,4,6)")


# ---------------------------------------------------------------------------
# criterion 7: certify(2) within budget


def test_acceptance_certify_rank2():
    t0 = time.time()
    cert = certify(2)
    elapsed = time.time() - t0
    assert all(e.witness.quotient.degree <= 5 for e in cert.entries)
    assert is_characteristic(cert.kernel, nielsen_generators(F2))
    assert cert.verify()
    assert elapsed < 600, f"took {elapsed:.0f}s"
    report(f"certify-rank2 (kernel index {cert.kernel.index()}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 8: congruence kernel F2, m=2


def test_acceptance_congruence_kernel_f2():
    kernel = congruence_kernel(F2, 2)
    assert kernel.index() == 4
    # oracle: the Cayley coset graph of (Z/2)^2 under a -> (1,0), b -> (0,1)
    from torusconj.freegroup.stallings import _core_and_canonicalize

    elements = [(0, 0), (1, 0), (0, 1), (1, 1)]
    index = {g: i for i, g in enumerate(elements)}
    images = [(1, 0), (0, 1)]
    fwd = [
        [index[((g[0] + img[0]) % 2, (g[1] + img[1]) % 2)] for g in elements]
        for img in images
    ]
    oracle = _core_and_canonicalize(F2, 4, fwd, 0)
    assert kernel == oracle
    report("congruence-kernel-f2-m2 (index 4, matches the oracle graph)")


# ---------------------------------------------------------------------------
# criteria 9 and 10: regression corpus and witness audit


def _corpus_folders():
    return sorted(p for p in DATA.iterdir() if p.is_dir())


def test_acceptance_conj_ung_regression():
    folders = _corpus_folders()
    assert len(folders) >= 10
    positives = []
    for folder in folders:
        t0 = time.time()
        expected = (folder / "expected.txt").read_text().strip()
        kind = (folder / "kind.txt").read_text().strip()
        if kind == "conj-ung":
            a = load_conj_side(folder / "alpha.txt")
            b = load_conj_side(folder / "beta.txt")
            whitelist = parse_whitelist(
                (folder / "whitelists.txt").read_text(), a.jsj, b.jsj
            )
            verdict = conj_ung(a, b, whitelist)
            jsj_a, jsj_b = a.jsj, b.jsj
        else:
            jsj_a = parse_jsj((folder / "jsj_a.txt").read_text())
            jsj_b = parse_jsj((folder / "jsj_b.txt").read_text())
            whitelist = parse_whitelist(
                (folder / "whitelists.txt").read_text(), jsj_a, jsj_b
            )
            verdict = decide(jsj_a, jsj_b, whitelist)
        elapsed = time.time() - t0
        assert verdict.status == expected, f"{folder.name}: {verdict.status}"
        assert elapsed < 60, f"{folder.name} took {elapsed:.0f}s"
        if verdict.witness is not None:
            assert verify_witness(jsj_a, jsj_b, verdict.witness)
            positives.append((folder.name, jsj_a, jsj_b, verdict))
    assert positives, "corpus must contain positive instances"
    report(f"conj-ung-regression ({len(folders)} instances)")
    # criterion 10 runs on the same corpus below; stash via module attribute
    test_acceptance_conj_ung_regression.positives = positives


def test_acceptance_witness_audit():
    """Every positive verdict re-validates from the serialized witness alone
    through the independent checker entry point."""
    positives = getattr(test_acceptance_conj_ung_regression, "positives", None)
    if positives is None:
        test_acceptance_conj_ung_regression()
        positives = test_acceptance_conj_ung_regression.positives
    audited = 0
    for name, jsj_a, jsj_b, verdict in positives:
        text = serialize_verdict(verdict, jsj_a, jsj_b)
        status, witness = parse_witness(text, jsj_a, jsj_b)
        assert status == verdict.status
        assert witness is not None
        assert verify_witness(jsj_a, jsj_b, witness), name
        audited += 1
    assert audited >= 1
    report(f"witness-audit ({audited} positive verdicts re-checked)")
