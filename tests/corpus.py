"""Corpus builders: honest mapping-torus encodings at desk scale.

The workhorse shape encodes T == F x| <t> with monodromy fixing all but the
last fiber generator s, which maps to s * w.  The relation t^-1 s t == s w
rewrites as s^-1 t s == t w^-1, an HNN extension of P x <t> over <t>; the
loop is subdivided by a cyclic white vertex to keep the graph bipartite:

    W (Z, u)  --e1-->  B (P x <t>)     u -> t
    W (Z, u)  --e2-->  B (P x <t>)     u -> t w^-1
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, Sequence, Tuple

from torusconj.fibercorrect import OrientationFunctional
from torusconj.freegroup import FreeGroup, Word, is_automorphism
from torusconj.gog import (
    BassWord,
    GraphOfGroups,
    GroupSlot,
    SlotElement,
    SlotHom,
    SlotIso,
    bar,
    identity_morphism,
    induced_on_pi1,
    unoriented,
    validate,
)
from torusconj.pipeline import ConjUngInput, JSJInput, PeripheralDatum, parse_jsj, serialize_jsj


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def twistor_jsj(poly_rank: int, twist_word_texts: Sequence[str], center_degree: int = 1,
                edge2_degree: int = 0) -> JSJInput:
    """JSJ input for F_{poly_rank+k} with s_j -> s_j * w_j, one block per
    twist word w_j over the first poly_rank generators.

    The black vertex B is P x <t> (Z^2 when poly_rank == 1, F_p x Z
    otherwise); block j has a cyclic white vertex W_j joined to B by edges
    e_{2j-1} and e_{2j}, so the graph has k! * 2^k automorphisms.  A single
    block keeps the names W, e1, e2 and the fiber loop name hs.
    `edge2_degree` reassigns the Bass-generator degree of every second edge
    (a different fibration of the same group); the declared s-loops are then
    the power-and-center combinations lying in that fiber."""
    k = len(twist_word_texts)
    bslot = GroupSlot(poly_rank, True)
    wslot = GroupSlot(1, False)
    blocks = [("W", "") if k == 1 else (f"W{j}", str(j)) for j in range(1, k + 1)]
    edge_ends, injections, vertex_values, edge_values, peripheral = {}, {}, {}, {}, {}
    for j, ((w, _), text) in enumerate(zip(blocks, twist_word_texts), start=1):
        first, second = f"e{2 * j - 1}", f"e{2 * j}"
        w_word = bslot.free_group.parse(text)
        edge_ends[first] = edge_ends[second] = (w, "B")
        injections[first] = SlotHom(wslot, bslot, (SlotElement(bslot, bslot.free_group.identity(), 1),))
        injections[second] = SlotHom(wslot, bslot, (SlotElement(bslot, w_word.inverse(), 1),))
        injections[first + "~"] = injections[second + "~"] = SlotHom(wslot, wslot, (wslot.generator(0),))
        vertex_values[w] = (center_degree,)
        edge_values[first], edge_values[second] = 0, edge2_degree
        peripheral[w] = {"EZ": (first, second)}
    whites = [w for w, _ in blocks]
    gog = GraphOfGroups(
        ["B"] + whites,
        edge_ends,
        {"B": bslot, **{w: wslot for w in whites}},
        {e: wslot for e in edge_ends},
        injections,
    )
    vertex_values["B"] = tuple([0] * poly_rank + [center_degree])
    orientation = OrientationFunctional(gog, vertex_values, edge_values)
    fiber = []
    for i in range(poly_rank):
        fiber.append((f"h{i}", BassWord.parse(gog, f"B: (x{i})")))
    g = _gcd(center_degree, edge2_degree)
    loop_power = center_degree // g
    center_power = -edge2_degree // g
    tail = f"(c^{center_power})" if center_power else ""
    for j, (_, suffix) in enumerate(blocks, start=1):
        chunk = f" e{2 * j - 1}~ e{2 * j} " * loop_power
        fiber.append((f"hs{suffix}", BassWord.parse(gog, f"B: {chunk} {tail}")))
    stable = BassWord.parse(gog, "B: (c)") if center_degree == 1 else None
    return JSJInput(
        gog,
        {"B": "black", **{w: "white" for w in whites}},
        orientation,
        tuple(fiber),
        stable,
        peripheral,
    )


def attached_jsj(black_ranks: Dict[str, int], attachments: Sequence[Tuple[str, str, str]]) -> JSJInput:
    """A JSJ input with several black vertices, without fiber loops: black
    vertex b is P x <t> with P free of rank black_ranks[b] (Z^2 for rank 1),
    and attachment j, a triple (white vertex, black vertex, word w over P),
    is an edge e_j from a cyclic white vertex u -> u to the black vertex
    u -> t w^-1, as in `twistor_jsj`; a white vertex may reach several
    black vertices."""
    wslot = GroupSlot(1, False)
    slots = {b: GroupSlot(rank, True) for b, rank in black_ranks.items()}
    edge_ends, injections = {}, {}
    for j, (w, b, text) in enumerate(attachments, start=1):
        e, bslot = f"e{j}", slots[b]
        slots[w] = wslot
        edge_ends[e] = (w, b)
        injections[e] = SlotHom(wslot, bslot, (SlotElement(bslot, bslot.free_group.parse(text).inverse(), 1),))
        injections[e + "~"] = SlotHom(wslot, wslot, (wslot.generator(0),))
    gog = GraphOfGroups(list(slots), edge_ends, slots, {e: wslot for e in edge_ends}, injections)
    values = {v: tuple([0] * black_ranks[v] + [1]) if v in black_ranks else (1,) for v in slots}
    orientation = OrientationFunctional(gog, values, {e: 0 for e in edge_ends})
    colors = {v: "black" if v in black_ranks else "white" for v in slots}
    return JSJInput(gog, colors, orientation, ())


def one_twistor_jsj(poly_rank: int, twist_word_text: str = "1", center_degree: int = 1,
                    edge2_degree: int = 0) -> JSJInput:
    """The single-block `twistor_jsj`: F_{poly_rank+1} with s -> s * w."""
    return twistor_jsj(poly_rank, [twist_word_text], center_degree, edge2_degree)


def relabel_blocks(jsj: JSJInput, perm: Sequence[int]) -> JSJInput:
    """`jsj` (from `twistor_jsj` with k >= 2 blocks) with its blocks renamed:
    block j becomes block perm[j - 1] + 1, i.e. W_j and its edges e_{2j-1},
    e_{2j} take the names of that block.  The result is the same graph of
    groups under other names, so it is isomorphic to `jsj` preserving fiber
    and orientation by a non-identity graph map."""
    names = {}
    for j, target in enumerate(perm, start=1):
        names[f"W{j}"] = f"W{target + 1}"
        names[f"e{2 * j - 1}"] = f"e{2 * target + 1}"
        names[f"e{2 * j}"] = f"e{2 * target + 2}"
    text = re.sub(r"\b(W\d+|e\d+)\b", lambda m: names[m.group(1)], serialize_jsj(jsj))
    return parse_jsj(text)


def _rebuilt(jsj: JSJInput, gog: GraphOfGroups, moved, vertex_values=None, edge_values=None,
             names=None) -> JSJInput:
    """`jsj` over the graph of groups `gog`, with every fiber and stable loop
    replaced by `moved(loop)` and its vertices renamed by `names`."""
    names = names or {v: v for v in jsj.gog.vertices}
    orientation = OrientationFunctional(
        gog,
        {names[v]: x for v, x in (vertex_values or jsj.orientation.vertex_values).items()},
        edge_values or jsj.orientation.edge_values,
    )
    return JSJInput(
        gog,
        {names[v]: color for v, color in jsj.colors.items()},
        orientation,
        tuple((name, moved(loop)) for name, loop in jsj.fiber_loops),
        None if jsj.stable_loop is None else moved(jsj.stable_loop),
        {names[v]: annot for v, annot in jsj.peripheral.items()},
    )


def recoordinatize(jsj: JSJInput, vertex: str, iso: SlotIso) -> JSJInput:
    """`jsj` with the group at `vertex` re-expressed through the slot
    automorphism `iso`: what was x there is iso(x) in the result.  The
    injections into `vertex`, the fiber and stable loop elements at it and
    the orientation (o . iso^-1) follow, so the identity elsewhere and `iso`
    at `vertex` is an isomorphism preserving fiber and orientation."""
    gog = jsj.gog
    injections = {
        oe: SlotHom(hom.src, hom.dst, tuple(iso.apply(img) for img in hom.images))
        if gog.term(oe) == vertex else hom
        for oe, hom in gog.injections.items()
    }
    moved_gog = GraphOfGroups(gog.vertices, gog.edge_ends, gog.vertex_slots, gog.edge_slots, injections)
    inverse = iso.inverse()
    vertex_values = dict(jsj.orientation.vertex_values)
    vertex_values[vertex] = tuple(
        jsj.orientation.of_element(vertex, inverse.apply(g)) for g in gog.vslot(vertex).generators()
    )

    def moved(loop: BassWord) -> BassWord:
        parts, at = [], loop.start
        for k, item in enumerate(loop.parts):
            if k % 2:
                at = gog.term(item)
            parts.append(iso.apply(item) if k % 2 == 0 and at == vertex else item)
        return BassWord(moved_gog, loop.start, parts)

    return _rebuilt(jsj, moved_gog, moved, vertex_values)


def reverse_edge(jsj: JSJInput, edge: str) -> JSJInput:
    """`jsj` with the canonical orientation of `edge` reversed: its ends
    swap, so do its e and e~ injections and every loop's crossings of it,
    and its edge value is negated.  The same graph of groups written the
    other way round, isomorphic to `jsj` preserving fiber and orientation."""
    gog = jsj.gog
    u, v = gog.edge_ends[edge]
    injections = dict(gog.injections)
    injections[edge], injections[bar(edge)] = gog.injection(bar(edge)), gog.injection(edge)
    moved_gog = GraphOfGroups(
        gog.vertices, {**gog.edge_ends, edge: (v, u)}, gog.vertex_slots, gog.edge_slots, injections
    )
    swap = {edge: bar(edge), bar(edge): edge}

    def moved(loop: BassWord) -> BassWord:
        parts = [swap.get(item, item) if k % 2 else item for k, item in enumerate(loop.parts)]
        return BassWord(moved_gog, loop.start, parts)

    edge_values = {**jsj.orientation.edge_values, edge: -jsj.orientation.edge_values[edge]}
    return _rebuilt(jsj, moved_gog, moved, edge_values=edge_values)


def rename_vertices(jsj: JSJInput, names: Dict[str, str]) -> JSJInput:
    """`jsj` with vertex v renamed names[v] everywhere (the names must be
    distinct); edges keep their names."""
    gog = jsj.gog
    moved_gog = GraphOfGroups(
        [names[v] for v in gog.vertices],
        {e: (names[u], names[v]) for e, (u, v) in gog.edge_ends.items()},
        {names[v]: slot for v, slot in gog.vertex_slots.items()},
        gog.edge_slots,
        gog.injections,
    )

    def moved(loop: BassWord) -> BassWord:
        return BassWord(moved_gog, names[loop.start], loop.parts)

    return _rebuilt(jsj, moved_gog, moved, names=names)


def conjugate_injection(jsj: JSJInput, oriented_edge: str, g: SlotElement) -> JSJInput:
    """`jsj` with the injection of `oriented_edge` followed by ad_g
    (x -> g^-1 x g), g in the group at its terminal vertex.  The identity
    map with gamma == g^-1 on that edge is an isomorphism onto the result;
    the loops are carried along by it, and the edge value moves by o(g) so
    that it keeps every loop's degree."""
    gog = jsj.gog
    hom = gog.injection(oriented_edge)
    injections = {
        **gog.injections,
        oriented_edge: SlotHom(hom.src, hom.dst, tuple(img.conjugate(g) for img in hom.images)),
    }
    moved_gog = GraphOfGroups(gog.vertices, gog.edge_ends, gog.vertex_slots, gog.edge_slots, injections)
    identity = identity_morphism(gog)
    carry = validate(
        replace(identity, codomain=moved_gog, gammas={**identity.gammas, oriented_edge: g.inverse()})
    )
    edge = unoriented(oriented_edge)
    shift = jsj.orientation.of_element(gog.term(oriented_edge), g)
    edge_values = dict(jsj.orientation.edge_values)
    edge_values[edge] += shift if oriented_edge == edge else -shift
    return _rebuilt(jsj, moved_gog, lambda loop: induced_on_pi1(carry, loop), edge_values=edge_values)


def conjugate_at_vertex(jsj: JSJInput, vertex: str, g: SlotElement) -> JSJInput:
    """`jsj` with every injection into `vertex` followed by ad_g, one edge
    at a time through `conjugate_injection`: at a white vertex this moves
    how each edge group sits in it, and at a cyclic one, where ad_g is the
    identity, it moves only the edge values and the loops."""
    for oe in sorted(oe for oe in jsj.gog.oriented_edges() if jsj.gog.term(oe) == vertex):
        jsj = conjugate_injection(jsj, oe, g)
    return jsj


def element_of_degree(jsj: JSJInput, vertex: str, degree: int, word_text: str = "1") -> SlotElement:
    """The element w * z^m of the group at `vertex` with orientation degree
    `degree`: w is parsed from `word_text`, z is the slot's last generator
    (its center, or the generator of a cyclic slot), and m must come out
    integral."""
    slot = jsj.gog.vslot(vertex)
    w, z = slot.parse(word_text), slot.generator(slot.ngens - 1)
    m, rem = divmod(degree - jsj.orientation.of_element(vertex, w), jsj.orientation.of_element(vertex, z))
    if rem:
        raise ValueError(f"no element of degree {degree} over {word_text} at {vertex}")
    return w * SlotElement(slot, z.word ** m, z.center * m)


def fiber_nielsen(jsj: JSJInput, i: int, j: int) -> JSJInput:
    """`jsj` with another basis of the fiber and another stable lift: the
    fiber generator h_i becomes h_i h_j (a Nielsen move, i != j), the list
    is rotated by one place, and the stable loop becomes stable * h_j.  The
    loops must share their base vertex."""
    loops = list(jsj.fiber_loops)
    name, loop = loops[i]
    loops[i] = (name, loop * loops[j][1])
    loops = loops[1:] + loops[:1]
    stable = None if jsj.stable_loop is None else jsj.stable_loop * jsj.fiber_loops[j][1]
    return JSJInput(jsj.gog, jsj.colors, jsj.orientation, tuple(loops), stable, jsj.peripheral)


def identity_whitelist(jsj_a: JSJInput, jsj_b: JSJInput):
    """The identity candidate between every pair of white vertices."""
    out = {}
    for w in jsj_a.white_vertices():
        for w2 in jsj_b.white_vertices():
            wslot_a, wslot_b = jsj_a.gog.vslot(w), jsj_b.gog.vslot(w2)
            out[(w, w2)] = [SlotIso(wslot_a, wslot_b, tuple(wslot_b.generators()))]
    return out


def one_twistor_conj_input(rank: int, twist_word_text: str,
                           conjugator_text: str = "1") -> ConjUngInput:
    """F_rank with a -> gamma-twisted identity on the first rank-1 and
    s -> conjugated s*w; peripherals: the polynomial subgroup with gamma."""
    group = FreeGroup(rank)
    poly = rank - 1
    gamma = group.parse(conjugator_text)
    w_in_f = _subword_to_ambient(group, twist_word_text, poly)
    images = []
    for i in range(poly):
        images.append(group.generator(i).conjugate(gamma.inverse()))
    images.append((group.generator(poly) * w_in_f).conjugate(gamma.inverse()))
    aut = is_automorphism(group, images)
    assert aut is not None
    peripheral = PeripheralDatum(
        tuple(group.generator(i) for i in range(poly)), gamma
    )
    jsj = one_twistor_jsj(poly, twist_word_text)
    return ConjUngInput(aut, (peripheral,), jsj)


def twistor_side_text(poly_rank: int, twist_word_texts: Sequence[str]) -> str:
    """A `conj-ung` side file for `twistor_jsj(poly_rank, twist_word_texts)`:
    F_{p+k} on a, b, ..., with x -> x on the first p generators and
    s_j -> s_j w_j on the others, the peripheral subgroup of the first p
    with trivial conjugator, and the decomposition after `[jsj]`."""
    k = len(twist_word_texts)
    names = "abcdefghijklmnopqrstuvwxyz"[: poly_rank + k]
    images = [f"{x} -> {x}" for x in names[:poly_rank]]
    for s, text in zip(names[poly_rank:], twist_word_texts):
        w = re.sub(r"x(\d+)", lambda m: names[int(m.group(1))], text)
        images.append(f"{s} -> {s}" if w == "1" else f"{s} -> {s} {w}")
    header = [
        f"fiber rank: {poly_rank + k}",
        "monodromy: " + ", ".join(images),
        f"peripheral: {' '.join(names[:poly_rank])} | 1",
        "[jsj]",
    ]
    return "\n".join(header) + "\n" + serialize_jsj(twistor_jsj(poly_rank, twist_word_texts))


def _subword_to_ambient(group: FreeGroup, text: str, poly: int) -> Word:
    sub = GroupSlot(poly, True).free_group
    w = sub.parse(text)
    return Word(group, w.letters)
