import pathlib
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from torusconj.errors import DomainError
from torusconj.gog import (
    BassDiagramError,
    BassWord,
    DehnTwist,
    GoGMorphism,
    GraphOfGroups,
    GroupSlot,
    SlotElement,
    SlotHom,
    SlotIso,
    compose,
    hom_preimage,
    identity_morphism,
    induced_on_pi1,
    invert,
    parse_gog,
    serialize_gog,
    slot_centralizer_of_subgroup,
    small_modular_generators,
    validate,
    validate_injection,
)
from torusconj.pipeline import parse_jsj

from .corpus import twistor_jsj
from .helpers import graph_isomorphisms

CORPUS = pathlib.Path(__file__).parent / "data" / "corpus"

Z = GroupSlot(1, False)
Z2 = GroupSlot(1, True)
F2 = GroupSlot(2, False)
FXZ2 = GroupSlot(2, True)


def loop_gog_f2():
    """One F2 vertex, one loop edge with cyclic edge group <x0 x1> vs <x1 x0>."""
    inj_fwd = SlotHom(Z, F2, (F2.parse("x0 x1"),))
    inj_bwd = SlotHom(Z, F2, (F2.parse("x1 x0"),))
    return GraphOfGroups(
        ["v"],
        {"e": ("v", "v")},
        {"v": F2},
        {"e": Z},
        {"e": inj_fwd, "e~": inj_bwd},
    )


def star_gog():
    """White F2 center with two black Z2 leaves; edge groups cyclic."""
    injections = {}
    for name, word in (("e1", "x0"), ("e2", "x1")):
        injections[name] = SlotHom(Z, Z2, (Z2.parse("x0"),))
        injections[name + "~"] = SlotHom(Z, F2, (F2.parse(word),))
    return GraphOfGroups(
        ["b1", "b2", "w"],
        {"e1": ("w", "b1"), "e2": ("w", "b2")},
        {"w": F2, "b1": Z2, "b2": Z2},
        {"e1": Z, "e2": Z},
        injections,
    )


class TestSlots:
    def test_z2_normalization(self):
        x = Z2.parse("x0 * c^2") * Z2.parse("x0' x0' * c")
        assert x == Z2.parse("x0' * c^3")

    def test_center_commutes(self):
        a = FXZ2.parse("x0 * c")
        b = FXZ2.parse("x1")
        assert (a * b).center == 1

    def test_conjugate_keeps_center(self):
        x = FXZ2.parse("x0 * c^2")
        g = FXZ2.parse("x1")
        assert x.conjugate(g) == FXZ2.parse("x1' x0 x1 * c^2")

    def test_parse_format_round_trip(self):
        for text in ("1", "x0 x1'", "c^3", "x0 * c^-1"):
            assert FXZ2.parse(FXZ2.parse(text).format()) == FXZ2.parse(text)

    def test_centralizer_of_cyclic_in_free(self):
        # centralizer of <(x0 x1)^2> is the primitive root <x0 x1>
        gens = slot_centralizer_of_subgroup(F2, [F2.parse("x0 x1 x0 x1")])
        assert gens == [F2.parse("x0 x1")]

    def test_centralizer_in_fxz(self):
        gens = slot_centralizer_of_subgroup(FXZ2, [FXZ2.parse("x0")])
        assert gens == [FXZ2.parse("x0"), FXZ2.parse("c")]

    def test_abelian_centralizer_is_everything(self):
        gens = slot_centralizer_of_subgroup(Z2, [Z2.parse("x0"), Z2.parse("c")])
        assert gens == Z2.generators()


    def test_free_group_built_once(self):
        slot = GroupSlot(3, True)
        assert slot.free_group is slot.free_group
        assert slot == GroupSlot(3, True) and hash(slot) == hash(GroupSlot(3, True))

    def test_slots_of_one_rank_share_a_free_group(self):
        assert GroupSlot(2, False).free_group is GroupSlot(2, True).free_group is F2.free_group
        assert GroupSlot(1, False).free_group is Z2.free_group
        assert GroupSlot(3, False).free_group is not F2.free_group
        # so an element parsed in one slot is over the other's group too
        assert Z.parse("x0 x0").word == Z2.parse("x0 x0 * c").word

    def test_generators_built_once(self):
        slot = GroupSlot(2, True)
        assert all(slot.generator(i) is g for i, g in enumerate(slot.generators()))
        assert slot.generators() is not slot.generators()  # callers get their own list
        assert slot.gen_names() == ["x0", "x1", "c"]
        with pytest.raises(DomainError):
            slot.generator(3)
        with pytest.raises(DomainError):
            slot.generator(-1)

class TestSlotIso:
    def test_fxz_inverse(self):
        iso = SlotIso(
            FXZ2,
            FXZ2,
            (FXZ2.parse("x0 x1 * c^2"), FXZ2.parse("x1 * c^-1"), FXZ2.parse("c")),
        )
        inv = iso.inverse()
        for gen in FXZ2.generators():
            assert inv.apply(iso.apply(gen)) == gen
            assert iso.apply(inv.apply(gen)) == gen

    def test_z2_inverse(self):
        iso = SlotIso(Z2, Z2, (Z2.parse("x0 * c"), Z2.parse("c")))
        inv = iso.inverse()
        for gen in Z2.generators():
            assert inv.apply(iso.apply(gen)) == gen

    def test_compose(self):
        f = SlotIso(F2, F2, (F2.parse("x0 x1"), F2.parse("x1")))
        g = SlotIso(F2, F2, (F2.parse("x1"), F2.parse("x0")))
        assert f.compose(g).apply(F2.parse("x0")) == f.apply(g.apply(F2.parse("x0")))

    def test_center_flip_allowed(self):
        iso = SlotIso(FXZ2, FXZ2, (FXZ2.parse("x0"), FXZ2.parse("x1"), FXZ2.parse("c^-1")))
        assert iso.apply(FXZ2.parse("c")) == FXZ2.parse("c^-1")

    def test_bad_center_image_rejected(self):
        with pytest.raises(DomainError):
            SlotIso(FXZ2, FXZ2, (FXZ2.parse("x0"), FXZ2.parse("x1"), FXZ2.parse("c^2")))


    def test_apply_builds_one_hom(self, monkeypatch):
        built = []
        original = SlotHom.__post_init__

        def counting(hom):
            built.append(hom)
            original(hom)

        monkeypatch.setattr(SlotHom, "__post_init__", counting)
        iso = SlotIso(FXZ2, FXZ2, (FXZ2.parse("x0 x1 * c"), FXZ2.parse("x1"), FXZ2.parse("c")))
        x = FXZ2.parse("x0 x1' * c^2")
        images = {iso.apply(x) for _ in range(100)}
        assert images == {FXZ2.parse("x0 x1 x1' * c^3")}
        assert len(built) == 1

# (source, target) slot pairs of the supported injections, as
# `validate_injection` enumerates them, with target ranks above the source's
SLOT_PAIRS = [
    (Z, Z), (Z, Z2), (Z, F2), (Z, FXZ2),
    (Z2, Z2), (Z2, FXZ2),
    (F2, F2), (F2, FXZ2), (F2, GroupSlot(3, False)),
    (FXZ2, FXZ2), (FXZ2, GroupSlot(3, True)),
]


def _element_text(letters, center):
    """Slot element text with its free part written letter by letter,
    unreduced, as in `x0 x0' x0 * c^2`."""
    word = " ".join(f"x{i}" + ("'" if s < 0 else "") for i, s in letters) or "1"
    return f"{word} * c^{center}" if center else word


@st.composite
def slot_homs(draw):
    """A SlotHom of one of SLOT_PAIRS, its images parsed from unreduced
    text: commuting powers of one root for a Z^2 source, a central image
    for the center of an F_k x Z source."""
    src, dst = draw(st.sampled_from(SLOT_PAIRS))
    letters = st.lists(st.tuples(st.integers(0, dst.free_rank - 1), st.sampled_from((1, -1))), max_size=6)
    centers = st.integers(-3, 3) if dst.has_center else st.just(0)
    if src.kind == "Z2":
        root = draw(letters)
        inverse = [(i, -s) for i, s in reversed(root)]
        texts = []
        for _ in range(2):
            n = draw(st.integers(-3, 3))
            texts.append(_element_text((root if n > 0 else inverse) * abs(n), draw(centers)))
    else:
        texts = [_element_text(draw(letters), draw(centers)) for _ in range(src.free_rank)]
        if src.has_center:
            texts.append(_element_text([], draw(st.integers(-3, 3))))
    return SlotHom(src, dst, tuple(dst.parse(t) for t in texts))


class TestGeneratorImages:
    """The identity code reads instead of applying (`SlotHom` docstring):
    a homomorphism's value on a source generator is the stored image."""

    @given(slot_homs())
    def test_apply_to_generator_is_stored_image(self, hom):
        for i in range(hom.src.ngens):
            assert hom.apply(hom.src.generator(i)) == hom.images[i]

    def test_unnormalised_z2_target(self):
        hom = SlotHom(Z, Z2, (Z2.parse("x0 x0' x0 * c^2"),))
        assert hom.images[0] == Z2.parse("x0 * c^2")
        assert hom.apply(Z.generator(0)) == hom.images[0]
        hom = SlotHom(Z2, Z2, (Z2.parse("x0' x0 x0'"), Z2.parse("x0 x0' * c")))
        assert [hom.apply(g) for g in Z2.generators()] == list(hom.images)


def _one_sign(x: SlotElement) -> bool:
    return len({s for _, s in x.word.letters}) <= 1


z2_elements = st.builds(
    lambda letters, center: Z2.parse(_element_text(letters, center)),
    st.lists(st.tuples(st.just(0), st.sampled_from((1, -1))), max_size=6),
    st.integers(-3, 3),
)


class TestZ2FreeParts:
    """A Z^2 free part is a reduced word of rank 1, a power of x0, so its
    letters have one sign; products and images keep that form with no
    normalising step (`SlotHom` docstring)."""

    @given(z2_elements, z2_elements)
    def test_products(self, x, y):
        assert _one_sign(x) and _one_sign(y) and _one_sign(x * y)
        assert sum(s for _, s in (x * y).word.letters) == sum(s for _, s in x.word.letters + y.word.letters)

    @given(slot_homs().filter(lambda hom: hom.dst.kind == "Z2"), st.data())
    def test_images(self, hom, data):
        letters = data.draw(
            st.lists(st.tuples(st.integers(0, hom.src.free_rank - 1), st.sampled_from((1, -1))), max_size=6)
        )
        center = data.draw(st.integers(-3, 3)) if hom.src.has_center else 0
        assert _one_sign(hom.apply(hom.src.parse(_element_text(letters, center))))


def _seeded_element(rng, slot, length=4):
    letters = [(rng.randrange(slot.free_rank), rng.choice((1, -1))) for _ in range(rng.randint(0, length))]
    return slot.parse(_element_text(letters, rng.randint(-3, 3) if slot.has_center else 0))


def _seeded_injection(rng, src, dst):
    """A random injection of a pair of SLOT_PAIRS that `validate_injection`
    accepts; the first generator's image is squared half of the time, so
    that the images often span a proper sublattice."""
    while True:
        if src.kind == "Z2":
            root = dst.free_group.generator(0) if dst.free_rank == 1 else _seeded_element(rng, dst).word
            m = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            images = [SlotElement(dst, root ** m[0][j], m[1][j]) for j in range(2)]
        else:
            images = [_seeded_element(rng, dst) for _ in range(src.free_rank)]
            if src.has_center:
                images.append(SlotElement(dst, dst.free_group.identity(), rng.choice((1, -1, 2, -3))))
        if rng.random() < 0.5:
            images[0] = images[0] * images[0]
        try:
            hom = SlotHom(src, dst, tuple(images))
            validate_injection(hom)
        except DomainError:
            continue
        return hom


def _seeded_iso(rng, slot):
    """A random slot isomorphism: a product of elementary moves on the
    generator images, and for F_k x Z a center sign and center shifts."""
    gens = slot.generators()
    images = gens[: slot.free_rank] if slot.free_rank > 1 else gens
    for _ in range(rng.randint(0, 6)):
        i = rng.randrange(len(images))
        j = rng.choice([k for k in range(len(images)) if k != i] or [i])
        move = rng.random()
        if move < 0.3 or i == j:
            images[i] = images[i].inverse()
        elif move < 0.6:
            images[i] = images[i] * images[j]
        elif move < 0.8:
            images[i] = images[j].inverse() * images[i]
        else:
            images[i], images[j] = images[j], images[i]
    if slot.kind == "fxz":
        center = gens[-1] if rng.random() < 0.5 else gens[-1].inverse()
        images = [SlotElement(slot, img.word, rng.randint(-2, 2)) for img in images] + [center]
    return SlotIso(slot, slot, tuple(images))


def _span_mod2(vectors):
    """A basis of the span of integer vectors mod 2, as bit masks with
    distinct leading bits, largest first."""
    basis = []
    for v in vectors:
        mask = _reduce_mod2(basis, v)
        if mask:
            basis = sorted(basis + [mask], reverse=True)
    return basis


def _reduce_mod2(basis, v):
    """The bit mask of v mod 2 reduced by `basis`: 0 when v is in its span."""
    mask = sum(1 << i for i, a in enumerate(v) if a % 2)
    for b in basis:
        mask = min(mask, mask ^ b)
    return mask


class TestHomPreimage:
    def test_cyclic_preimage(self):
        hom = SlotHom(Z, F2, (F2.parse("x0 x1"),))
        assert hom_preimage(hom, F2.parse("x0 x1 x0 x1")) == Z.parse("x0 x0")
        assert hom_preimage(hom, F2.parse("x0")) is None

    def test_z2_preimage(self):
        hom = SlotHom(Z2, FXZ2, (FXZ2.parse("x0 x0"), FXZ2.parse("c")))
        y = FXZ2.parse("x0 x0 x0 x0 * c^3")
        assert hom_preimage(hom, y) == Z2.parse("x0 x0 * c^3")
        assert hom_preimage(hom, FXZ2.parse("x0")) is None

    def test_free_preimage(self):
        hom = SlotHom(F2, F2, (F2.parse("x0 x0"), F2.parse("x1")))
        y = F2.parse("x0 x0 x1")
        pre = hom_preimage(hom, y)
        assert pre == F2.parse("x0 x1")

    def test_fxz_preimage(self):
        hom = SlotHom(
            FXZ2, FXZ2, (FXZ2.parse("x0 * c"), FXZ2.parse("x1"), FXZ2.parse("c^2"))
        )
        y = hom.apply(FXZ2.parse("x0 x1 * c^3"))
        assert hom_preimage(hom, y) == FXZ2.parse("x0 x1 * c^3")


    def test_one_expresser_per_injection(self, monkeypatch):
        import torusconj.gog as gog

        built = []

        class CountingExpresser(gog.BasisExpresser):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(gog, "BasisExpresser", CountingExpresser)
        hom = SlotHom(
            FXZ2, FXZ2, (FXZ2.parse("x0 * c"), FXZ2.parse("x1 x0"), FXZ2.parse("c^2"))
        )
        for text in ("x0 x1 * c^3", "x1", "x0' x1 x1 * c^-1", "1", "c"):
            x = FXZ2.parse(text)
            assert hom_preimage(hom, hom.apply(x)) == x
        assert hom_preimage(hom, FXZ2.parse("x1")) is None
        assert len(built) == 1
        # seeded injections of every supported pair: each image has its
        # preimage back, and an element whose abelianization mod 2 is off
        # the span of the images' is off the image
        rng = random.Random(79)
        off_image = Counter()
        for src, dst in SLOT_PAIRS:
            for _ in range(20):
                hom = _seeded_injection(rng, src, dst)
                span = _span_mod2([img.abelianized() for img in hom.images])
                for _ in range(5):
                    x = _seeded_element(rng, src)
                    y = hom.apply(x)
                    assert hom_preimage(hom, y) == x
                    for t in dst.generators():
                        if _reduce_mod2(span, t.abelianized()):
                            assert hom_preimage(hom, y * t) is None
                            off_image[src, dst] += 1
        assert set(off_image) == set(SLOT_PAIRS)
        # a slot isomorphism's inverse is built from preimages
        for slot in (Z, Z2, F2, GroupSlot(3, False), FXZ2, GroupSlot(3, True)):
            for _ in range(20):
                iso = _seeded_iso(rng, slot)
                assert iso.compose(iso.inverse()).is_identity()
                assert iso.inverse().compose(iso).is_identity()

class TestValidate:
    def test_identity_accepted(self):
        gog = loop_gog_f2()
        assert identity_morphism(gog) is not None

    def test_dehn_twist_accepted(self):
        gog = loop_gog_f2()
        z = F2.parse("x0 x1")  # centralizes the edge image <x0 x1>
        sme = DehnTwist(gog, "e", SlotElement(F2, z.word, 0))
        morphism = sme.to_morphism()
        assert morphism.gammas["e"].word == z.word

    def test_non_centralizing_gamma_rejected(self):
        gog = loop_gog_f2()
        morphism = GoGMorphism(
            gog,
            gog,
            {"v": "v"},
            {"e": "e", "e~": "e~"},
            {"v": SlotIso.identity(F2)},
            {"e": SlotIso.identity(Z)},
            {"e": F2.parse("x0"), "e~": F2.identity()},
        )
        with pytest.raises(BassDiagramError) as err:
            validate(morphism)
        assert err.value.edge == "e"


class TestCompose:
    def test_identity_laws(self):
        gog = loop_gog_f2()
        ident = identity_morphism(gog)
        z = SlotElement(F2, F2.parse("x0 x1").word, 0)
        twist = DehnTwist(gog, "e", z).to_morphism()
        assert compose(twist, ident) == twist
        assert compose(ident, twist) == twist

    def test_equality_is_field_wise(self):
        # the twist differs from the identity in the gamma of e alone
        gog = loop_gog_f2()
        ident = identity_morphism(gog)
        z = SlotElement(F2, F2.parse("x0 x1").word, 0)
        twist = DehnTwist(gog, "e", z).to_morphism()
        assert {e for e in ident.gammas if twist.gammas[e] != ident.gammas[e]} == {"e"}
        assert twist != ident
        assert twist == replace(ident, gammas={"e": F2.parse("x0 x1"), "e~": F2.identity()})

    def test_twists_merge(self):
        gog = loop_gog_f2()
        root = F2.parse("x0 x1")
        t1 = DehnTwist(gog, "e", root).to_morphism()
        t2 = DehnTwist(gog, "e", root * root).to_morphism()
        merged = compose(t1, t2)
        # oracle: apply the composition rule symbolically and compare fields
        assert merged.gammas["e"] == root * root * root
        assert merged.gammas["e~"].is_identity()
        assert merged.vertex_isos["v"].is_identity()

    def test_inverse_composes_to_identity(self):
        gog = star_gog()
        rng = random.Random(61)
        morphisms = [m.to_morphism() for m in small_modular_generators(gog)]
        ident = identity_morphism(gog)
        for _ in range(20):
            m = ident
            for _ in range(3):
                m = compose(rng.choice(morphisms), m)
            assert compose(m, invert(m)) == ident
            assert compose(invert(m), m) == ident

    def test_closure_revalidates(self):
        gog = star_gog()
        rng = random.Random(67)
        gens = [m.to_morphism() for m in small_modular_generators(gog)]
        m = identity_morphism(gog)
        for _ in range(50):
            m = compose(rng.choice(gens), m)  # validate runs inside compose

    def test_associativity(self):
        gog = star_gog()
        rng = random.Random(71)
        gens = [m.to_morphism() for m in small_modular_generators(gog)]
        for _ in range(100):
            a, b, c = (rng.choice(gens) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestInducedOnPi1:
    def test_identity_fixes_loops(self):
        gog = loop_gog_f2()
        loop = BassWord.parse(gog, "v: (x0) e (x1)")
        assert induced_on_pi1(identity_morphism(gog), loop) == loop

    def test_twist_inserts_after_positive_crossing(self):
        gog = loop_gog_f2()
        z = SlotElement(F2, F2.parse("x0 x1").word, 0)
        twist = DehnTwist(gog, "e", z).to_morphism()
        loop = BassWord.parse(gog, "v: e")
        image = induced_on_pi1(twist, loop)
        assert image == BassWord.parse(gog, "v: e (x0 x1)")

    def test_balanced_crossings_cancel_in_exponent(self):
        gog = loop_gog_f2()
        z = SlotElement(F2, F2.parse("x0 x1").word, 0)
        twist = DehnTwist(gog, "e", z).to_morphism()
        loop = BassWord.parse(gog, "v: e (x0) e~ (x1)")
        image = induced_on_pi1(twist, loop)
        assert image.edge_exponent("e") == 0
        # the inserted z appears once positively and once inversely
        assert image.parts[2] == z * F2.parse("x0") * z.inverse()

    def test_functoriality(self):
        gog = star_gog()
        rng = random.Random(71)
        gens = [m.to_morphism() for m in small_modular_generators(gog)]
        loops = [
            BassWord.parse(gog, "w: e1 (x0 * c) e1~ (x1)"),
            BassWord.parse(gog, "w: e1 (c) e1~ (x0) e2 (c^2) e2~"),
            BassWord.parse(gog, "w: (x0 x1)"),
        ]
        for _ in range(30):
            a = compose(rng.choice(gens), rng.choice(gens))
            b = compose(rng.choice(gens), rng.choice(gens))
            ab = compose(a, b)
            for loop in loops:
                assert induced_on_pi1(ab, loop) == induced_on_pi1(a, induced_on_pi1(b, loop))

    def test_non_loop_rejected(self):
        gog = star_gog()
        path = BassWord.parse(gog, "w: e1")
        with pytest.raises(DomainError):
            induced_on_pi1(identity_morphism(gog), path)


class TestBassWords:
    def test_reduction_collapses_round_trip(self):
        gog = loop_gog_f2()
        # e (x0 x1) e~ collapses: x0 x1 == i_e(edge gen)
        loop = BassWord.parse(gog, "v: e (x0 x1) e~")
        reduced = loop.reduced()
        assert reduced.edges() == []
        assert reduced.parts[0] == F2.parse("x1 x0")

    def test_reduction_requires_image_membership(self):
        gog = loop_gog_f2()
        loop = BassWord.parse(gog, "v: e (x0) e~")
        assert loop.reduced().edges() == ["e", "e~"]

    def test_edge_exponent_invariant_under_relation_moves(self):
        gog = loop_gog_f2()
        rng = random.Random(73)
        loop = BassWord.parse(gog, "v: e (x0 x1) e~ (x0) e (x1)")
        # rewriting with relation moves preserves the edge-exponent function
        reduced = loop.reduced()
        assert loop.edge_exponent("e") == reduced.edge_exponent("e")

    def test_equality_is_exact(self):
        # Britton's lemma: u == v exactly when u * v^-1 reduces to the
        # trivial vertex element.  In the 03_twistor_equal JSJ, e1 maps x0 to
        # c and e1~ maps it to x0, so c e1~ == e1~ x0: sliding the edge
        # generator across e1~ keeps the loop, with the wrong exponent it
        # does not.  Comparing reduced parts once said False to both
        text = (CORPUS / "03_twistor_equal" / "alpha.txt").read_text().partition("[jsj]\n")[2]
        gog = parse_jsj(text).gog
        loop = BassWord.parse(gog, "B : (1) e1~ (1) e2 (1)")
        assert BassWord.parse(gog, "B : (c) e1~ (x0') e2 (1)") == loop
        assert BassWord.parse(gog, "B : (c) e1~ (x0) e2 (1)") != loop
        assert BassWord.parse(gog, "B : (c^-1) e1~ (x0) e2 (1)") == loop
        # words with other ends differ, and so do words over other graphs
        assert BassWord.parse(gog, "B : e1~") != BassWord.parse(gog, "B : e2~")
        assert BassWord.parse(gog, "B : (x0)") != BassWord.parse(loop_gog_f2(), "v : (x0)")

    def test_inverse(self):
        gog = star_gog()
        word = BassWord.parse(gog, "w: (x0) e1 (x0 * c) e1~ (x1) e2 (c^2)")
        inverse = word.inverse()
        assert (inverse.start, inverse.end) == ("b2", "w")
        assert inverse.format() == "b2 : (c^-2) e2~ (x1') e1 (x0' * c^-1) e1~ (x0')"
        assert (word * inverse).reduced().parts == (F2.identity(),)
        assert (inverse * word).reduced().parts == (Z2.identity(),)
        assert word * inverse == BassWord.parse(gog, "w:")

    def test_multiplication(self):
        gog = loop_gog_f2()
        l1 = BassWord.parse(gog, "v: e (x0)")
        l2 = BassWord.parse(gog, "v: (x1) e~")
        prod = l1 * l2
        assert prod.edges() == ["e", "e~"]
        assert prod.parts[2] == F2.parse("x0 x1")


class TestSmallModular:
    def test_loop_edge_cyclic_twists(self):
        gog = loop_gog_f2()
        twists = small_modular_generators(gog)
        # oracle: centralizer of <x0 x1> in F2 is its primitive root
        by_edge = {}
        for twist in twists:
            by_edge.setdefault(twist.edge, []).append(twist.z)
        assert by_edge["e"] == [F2.parse("x0 x1")]
        assert by_edge["e~"] == [F2.parse("x1 x0")]

    def test_z2_edge_group_full_twists(self):
        inj = SlotHom(Z2, Z2, (Z2.parse("x0"), Z2.parse("c")))
        gog = GraphOfGroups(
            ["u", "v"], {"e": ("u", "v")}, {"u": Z2, "v": Z2}, {"e": Z2},
            {"e": inj, "e~": inj},
        )
        twists = small_modular_generators(gog)
        data = [twist.z for twist in twists]
        assert Z2.parse("x0") in data and Z2.parse("c") in data
        assert len(twists) == 4  # two oriented edges, two centralizer gens

    def test_no_edges_no_twists(self):
        gog = GraphOfGroups(["v"], {}, {"v": F2}, {}, {})
        assert small_modular_generators(gog) == []

    def test_every_twist_validates(self):
        gog = star_gog()
        for twist in small_modular_generators(gog):
            morphism = twist.to_morphism()
            assert all(v == morphism.vertex_map[v] for v in gog.vertices)

    def test_non_centralizing_twist_rejected(self):
        # x0 fails to commute with the edge image x0 x1
        with pytest.raises(DomainError):
            DehnTwist(loop_gog_f2(), "e", F2.parse("x0"))

    def test_twist_checks_only_its_own_edge(self):
        # x0 x1 centralizes i_e(G_e) == <x0 x1> but not i_{e~}(G_e) == <x1 x0>,
        # the other edge image at the same vertex: the twist along e is valid
        gog = loop_gog_f2()
        z = F2.parse("x0 x1")
        twist = DehnTwist(gog, "e", z)
        assert (twist.edge, twist.z) == ("e", z)
        assert twist.to_morphism().gammas == {"e": z, "e~": F2.identity()}
        with pytest.raises(DomainError):
            DehnTwist(gog, "e~", z)


class TestGraphIsomorphisms:
    @staticmethod
    def assert_distinct(gog, count):
        maps = list(graph_isomorphisms(gog, gog))
        keys = {(tuple(sorted(vmap.items())), tuple(sorted(emap.items()))) for vmap, emap in maps}
        assert len(maps) == len(keys) == count

    @pytest.mark.parametrize("blocks, count", [(1, 4), (2, 8), (3, 48)])
    def test_twistor_maps_distinct(self, blocks, count):
        self.assert_distinct(twistor_jsj(1, ["1"] * blocks).gog, count)

    def test_two_loop_rose_maps_distinct(self):
        inj = SlotHom(Z, F2, (F2.parse("x0"),))
        rose = GraphOfGroups(
            ["v"],
            {"e": ("v", "v"), "f": ("v", "v")},
            {"v": F2},
            {"e": Z, "f": Z},
            {"e": inj, "e~": inj, "f": inj, "f~": inj},
        )
        self.assert_distinct(rose, 8)


class TestSerialization:
    def test_round_trip(self):
        gog = star_gog()
        text = serialize_gog(gog)
        assert parse_gog(text) == gog

    def test_loop_round_trip(self):
        gog = loop_gog_f2()
        assert parse_gog(serialize_gog(gog)) == gog
