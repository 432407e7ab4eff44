"""Regenerate the regression corpus under tests/data/corpus.

Run from the repository root:  python3 -m tests.make_corpus [OUT_DIR]
(OUT_DIR defaults to tests/data/corpus).
"""

from __future__ import annotations

import pathlib
import sys

from torusconj.gog import SlotIso
from torusconj.pipeline import serialize_jsj

from .corpus import identity_whitelist, one_twistor_conj_input, one_twistor_jsj, recoordinatize
from .helpers import serialize_whitelist

DATA = pathlib.Path(__file__).parent / "data" / "corpus"

# (name, rank, twist word a-side, gamma a-side, twist word b-side, gamma b-side, expected)
CONJ_INSTANCES = [
    ("01_identity_f2", 2, "1", "1", "1", "1", "conjugate"),
    ("02_identity_vs_inner", 3, "1", "1", "1", "a b", "conjugate"),
    ("03_twistor_equal", 3, "x0", "1", "x0", "1", "conjugate"),
    ("04_twistor_inner_witness", 3, "x0", "1", "x0", "a b", "conjugate"),
    ("05_twistor_swap", 3, "x0", "1", "x1", "1", "conjugate"),
    ("06_twistor_inverse", 3, "x0", "1", "x0'", "1", "conjugate"),
    ("07_twistor_rotation", 3, "x0 x1", "1", "x1 x0", "1", "conjugate"),
    ("08_abelianization_negative", 3, "x0", "1", "x0 x0", "1", "not-conjugate"),
    ("09_twistor_mirror", 3, "x0 x1", "1", "x0 x1'", "1", "conjugate"),
    ("10_commutator_negative", 3, "x0 x1 x0' x1'", "1", "x0 x1", "1", "not-conjugate"),
    ("11_identity_vs_twistor", 3, "1", "1", "x0", "1", "not-conjugate"),
]

# decide-level instances: (name, jsj_a kwargs, jsj_b kwargs, images of B's
# generators re-coordinatizing side b at B (None: as built), expected status)
DECIDE_INSTANCES = [
    (
        "12_orientation_shift",
        dict(poly_rank=1, twist_word_text="1", center_degree=1, edge2_degree=0),
        dict(poly_rank=1, twist_word_text="1", center_degree=1, edge2_degree=2),
        None,
        "isomorphic-fop",
    ),
    (
        "13_parity_obstruction",
        dict(poly_rank=1, twist_word_text="1", center_degree=2, edge2_degree=0),
        dict(poly_rank=1, twist_word_text="1", center_degree=2, edge2_degree=1),
        None,
        "vertexwise-but-fiber-fails",
    ),
    (
        "14_center_inverted",
        dict(poly_rank=2, twist_word_text="x0"),
        dict(poly_rank=2, twist_word_text="x0"),
        ("x0", "x1", "c^-1"),
        "isomorphic-fop",
    ),
    (
        "15_fiber_basis_shift",
        dict(poly_rank=2, twist_word_text="x0"),
        dict(poly_rank=2, twist_word_text="x0"),
        ("x0 * c", "x1", "c"),
        "isomorphic-fop",
    ),
]


def jsj_text(jsj) -> str:
    """`serialize_jsj` with a [tree] section: the spanning tree that takes
    each edge, in name order, joining two components."""
    component = {v: v for v in jsj.gog.vertices}

    def root(v):
        while component[v] != v:
            v = component[v]
        return v

    tree = []
    for e in jsj.gog.edge_names:
        u, v = (root(end) for end in jsj.gog.edge_ends[e])
        if u != v:
            component[u] = v
            tree.append(e)
    return serialize_jsj(jsj).replace("[colors]\n", f"[tree]\n{' '.join(tree)}\n[colors]\n", 1)


def side_file_text(side) -> str:
    group = side.aut.group
    lines = [f"fiber rank: {group.rank}"]
    monodromy = ", ".join(
        f"{group.names[i]} -> {img.format()}" for i, img in enumerate(side.aut.images)
    )
    lines.append(f"monodromy: {monodromy}")
    for datum in side.peripherals:
        gens = " ".join(w.format() for w in datum.generators)
        lines.append(f"peripheral: {gens} | {datum.conjugator.format()}")
    lines.append("[jsj]")
    lines.append(jsj_text(side.jsj).rstrip())
    return "\n".join(lines) + "\n"


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    out = pathlib.Path(args[0]) if args else DATA
    out.mkdir(parents=True, exist_ok=True)
    for name, rank, wa, ga, wb, gb, expected in CONJ_INSTANCES:
        a = one_twistor_conj_input(rank, wa, ga)
        b = one_twistor_conj_input(rank, wb, gb)
        folder = out / name
        folder.mkdir(exist_ok=True)
        (folder / "alpha.txt").write_text(side_file_text(a))
        (folder / "beta.txt").write_text(side_file_text(b))
        (folder / "whitelists.txt").write_text(
            serialize_whitelist(identity_whitelist(a.jsj, b.jsj), a.jsj)
        )
        (folder / "expected.txt").write_text(expected + "\n")
        (folder / "kind.txt").write_text("conj-ung\n")
    for name, kwargs_a, kwargs_b, b_images, expected in DECIDE_INSTANCES:
        jsj_a = one_twistor_jsj(**kwargs_a)
        jsj_b = one_twistor_jsj(**kwargs_b)
        if b_images is not None:
            slot = jsj_b.gog.vslot("B")
            iso = SlotIso(slot, slot, tuple(slot.parse(text) for text in b_images))
            jsj_b = recoordinatize(jsj_b, "B", iso)
        folder = out / name
        folder.mkdir(exist_ok=True)
        (folder / "jsj_a.txt").write_text(jsj_text(jsj_a))
        (folder / "jsj_b.txt").write_text(jsj_text(jsj_b))
        (folder / "whitelists.txt").write_text(
            serialize_whitelist(identity_whitelist(jsj_a, jsj_b), jsj_a)
        )
        (folder / "expected.txt").write_text(expected + "\n")
        (folder / "kind.txt").write_text("decide\n")
    print(f"corpus written under {out}")


if __name__ == "__main__":
    main()
