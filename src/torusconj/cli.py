"""Command-line interface.

Exit codes: 0 when a decision was reached (the verdict is in the output),
2 for undecided or resource-capped runs, 1 for input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .errors import DomainError, FormatError, ResourceError
from .fibercorrect import DiophantineSystem, solve
from .freegroup import FreeGroup
from .minkowski import certify, certify_product, certify_zsquare
from .pipeline import (
    MAX_EDGES_DEFAULT,
    ConjUngInput,
    PeripheralDatum,
    WhiteList,
    conj_ung,
    decide,
    parse_jsj,
    parse_whitelist,
    parse_witness,
    serialize_verdict,
    verify_witness,
)
from .torus import parse_monodromy
from .whitehead import Marking, ProductGroup, ProductMarking, mwp_product, same_orbit
from .gog import SlotIso

EXIT_DECIDED = 0
EXIT_INPUT = 1
EXIT_UNDECIDED = 2


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _auto_whitelist(jsj_a, jsj_b) -> WhiteList:
    """Generator-wise identity candidates for same-kind white pairs, and for
    a pair of Z slots also x0 -> x0^-1: Aut(Z) == {+-1}, so a Z pair gets
    every candidate, and `decide` keeps those that preserve orientation."""
    out: WhiteList = {}
    for w in jsj_a.white_vertices():
        for w2 in jsj_b.white_vertices():
            sa, sb = jsj_a.gog.vslot(w), jsj_b.gog.vslot(w2)
            if (sa.free_rank, sa.has_center) != (sb.free_rank, sb.has_center):
                continue
            out[(w, w2)] = [SlotIso(sa, sb, tuple(sb.generators()))]
            if sa.kind == "Z":
                out[(w, w2)].append(SlotIso(sa, sb, (sb.generator(0).inverse(),)))
    return out


def _whitelist(args, jsj_a, jsj_b) -> WhiteList:
    """The candidates of `--whitelists`, or `_auto_whitelist`'s without it."""
    if args.whitelists:
        return parse_whitelist(_read(args.whitelists), jsj_a, jsj_b)
    return _auto_whitelist(jsj_a, jsj_b)


def _report(args, verdict, jsj_a, jsj_b) -> int:
    """Print the verdict, write it to `--witness-out` when it has a
    witness, and return the exit code."""
    output = serialize_verdict(verdict, jsj_a, jsj_b)
    if args.witness_out and verdict.witness is not None:
        with open(args.witness_out, "w", encoding="utf-8") as handle:
            handle.write(output)
    sys.stdout.write(output)
    return EXIT_UNDECIDED if verdict.status == "undecided" else EXIT_DECIDED


def cmd_decide(args) -> int:
    jsj_a = parse_jsj(_read(args.jsj_a))
    jsj_b = parse_jsj(_read(args.jsj_b))
    verdict = decide(jsj_a, jsj_b, _whitelist(args, jsj_a, jsj_b), max_edges=args.max_edges)
    return _report(args, verdict, jsj_a, jsj_b)


def _parse_conj_side(path: str) -> ConjUngInput:
    text = _read(path)
    rank_text = None
    images_text = None
    peripherals = []
    jsj_text_lines = []
    in_jsj = False
    for raw in text.splitlines():
        if raw.strip().lower() == "[jsj]":
            in_jsj = True
            continue
        if in_jsj:
            jsj_text_lines.append(raw)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        if key == "fiber rank":
            rank_text = value
        elif key == "monodromy":
            images_text = value.strip()
        elif key == "peripheral":
            gens_text, _, gamma_text = value.partition("|")
            peripherals.append((gens_text.strip(), gamma_text.strip() or "1"))
        else:
            raise FormatError(f"unknown header {key!r}")
    aut = parse_monodromy(rank_text, images_text)
    group = aut.group
    data = tuple(
        PeripheralDatum(
            tuple(group.parse(g) for g in gens.split()), group.parse(gamma)
        )
        for gens, gamma in peripherals
    )
    jsj = parse_jsj("\n".join(jsj_text_lines))
    return ConjUngInput(aut, data, jsj)


def cmd_conj_ung(args) -> int:
    a = _parse_conj_side(args.alpha)
    b = _parse_conj_side(args.beta)
    if args.jsj_a:
        a = replace(a, jsj=parse_jsj(_read(args.jsj_a)))
    if args.jsj_b:
        b = replace(b, jsj=parse_jsj(_read(args.jsj_b)))
    verdict = conj_ung(a, b, _whitelist(args, a.jsj, b.jsj))
    return _report(args, verdict, a.jsj, b.jsj)


def cmd_whitehead_orbit(args) -> int:
    if args.product:
        product = ProductGroup.of_rank(args.rank)
        group = product.free
        m1 = ProductMarking.parse(product, args.m1)
        m2 = ProductMarking.parse(product, args.m2)
        ok, witness = mwp_product(m1, m2)
    else:
        group = FreeGroup(args.rank)
        m1 = Marking.parse(group, args.m1)
        m2 = Marking.parse(group, args.m2)
        ok, witness = same_orbit(m1, m2)
    print("equivalent" if ok else "not-equivalent")
    if ok and witness is not None:
        for i, img in enumerate(witness.images):
            print(f"witness: {group.names[i]} -> {img.format()}")
    return EXIT_DECIDED


def cmd_minkowski_certify(args) -> int:
    if args.zsquare:
        if args.product or args.rank is not None:
            raise DomainError("--zsquare certifies Z^2 and takes neither --rank nor --product")
        cert = certify_zsquare()
        print(f"kernel: {cert.modulus} Z^2")
        print(f"separated finite-order classes: {len(cert.representatives)}")
        return EXIT_DECIDED
    rank = 2 if args.rank is None else args.rank
    if args.product and rank == 1:
        raise DomainError("rank 1 products are Z^2; use --zsquare")
    runner = certify_product if args.product else certify
    sys.stdout.write(runner(rank).serialize())
    return EXIT_DECIDED


def cmd_solve_diophantine(args) -> int:
    system = DiophantineSystem.deserialize(_read(args.file))
    solution = solve(system)
    if solution is None:
        print("no solution")
    else:
        print(" ".join(str(x) for x in solution))
    return EXIT_DECIDED


def cmd_verify_witness(args) -> int:
    jsj_a = parse_jsj(_read(args.jsj_a))
    jsj_b = parse_jsj(_read(args.jsj_b))
    status, witness = parse_witness(_read(args.witness), jsj_a, jsj_b)
    if witness is None:
        print(f"status {status}: no witness to verify")
        return EXIT_INPUT
    if verify_witness(jsj_a, jsj_b, witness):
        print("witness verified")
        return EXIT_DECIDED
    print("witness REJECTED")
    return EXIT_INPUT


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building the tree costs
    far more than parsing with it, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="torusconj",
        description="conjugacy of free-group automorphisms via mapping tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="fiber-and-orientation isomorphy of two inputs")
    p.add_argument("--jsj-a", required=True)
    p.add_argument("--jsj-b", required=True)
    p.add_argument("--whitelists")
    p.add_argument("--max-edges", type=int, default=MAX_EDGES_DEFAULT)
    p.add_argument("--witness-out")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("conj-ung", help="conjugacy for unipotent non-growing inputs")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--jsj-a")
    p.add_argument("--jsj-b")
    p.add_argument("--whitelists")
    p.add_argument("--witness-out")
    p.set_defaults(func=cmd_conj_ung)

    p = sub.add_parser("whitehead", help="Whitehead orbit problems")
    wsub = p.add_subparsers(dest="whitehead_command", required=True)
    w = wsub.add_parser("orbit", help="orbit equivalence of two markings")
    w.add_argument("m1")
    w.add_argument("m2")
    w.add_argument("--rank", type=int, default=2)
    w.add_argument("--product", action="store_true", help="F x Z markings")
    w.set_defaults(func=cmd_whitehead_orbit)

    p = sub.add_parser("minkowski", help="congruence certificates")
    msub = p.add_subparsers(dest="minkowski_command", required=True)
    m = msub.add_parser("certify")
    m.add_argument("--rank", type=int, help="free rank (default 2)")
    m.add_argument("--product", action="store_true", help="certify F_rank x Z")
    m.add_argument("--zsquare", action="store_true", help="the Z^2 specialization")
    for flag in ("--degree-bound", "--length-bound"):
        m.add_argument(flag, metavar="N", help="ignored; accepted so that existing command lines parse")
    m.set_defaults(func=cmd_minkowski_certify)

    p = sub.add_parser("solve-diophantine", help="integer linear system from a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_solve_diophantine)

    p = sub.add_parser("verify-witness", help="independent check of a serialized witness")
    p.add_argument("--jsj-a", required=True)
    p.add_argument("--jsj-b", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_verify_witness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, DomainError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED


if __name__ == "__main__":
    sys.exit(main())
