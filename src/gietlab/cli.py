"""Command-line front end.

Subcommands: class, cyclic, path, induct, partition, realize, semiconj,
render.  Exit codes: 0 success, 1 usage, parse or I/O error, 2 no cyclic datum
found by ``cyclic``, 3 no cyclic datum available to ``realize``, 4 solver
failure.
All commands are deterministic given identical inputs and options; randomized
sampling (the ``semiconj --spot-check`` points) uses ``--seed``, whose default
is the GIETLAB_SEED environment variable (0 when unset).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import fileio, svg
from .combinatorics import (
    RauzyPath,
    find_cyclic,
    parse_datum_text,
    path_matrix,
    rauzy_class,
    return_times,
    sigma_and_cyclicity,
)
from .errors import GietlabError, NoCyclicDatum, SolverFailed
from .exact_iet import ExactIET
from .giet import Giet, dynamical_partition, giet_from_iet
from .semiconjugacy import _defect, build_semiconjugacy, residual
from .thurston import GietFamily, build_reference, realize

MAX_ORDER = 64
MAX_ITER_CAP = 10**6


def cmd_class(args) -> int:
    cls = rauzy_class(parse_datum_text(args.datum))
    for datum in cls.data:
        print(datum.encode())
    return 0


def cmd_cyclic(args) -> int:
    cls = rauzy_class(parse_datum_text(args.datum))
    witness = find_cyclic(cls)
    if witness is None:
        print("none")
        return 2
    print(witness.encode())
    return 0


def cmd_path(args) -> int:
    datum = parse_datum_text(args.datum)
    path = RauzyPath.from_kinds(datum, _kinds(args.kinds))
    for arrow in path.arrows:
        print(f"{arrow.kind}  winner {arrow.winner}  loser {arrow.loser}  -> {arrow.target}")
    matrix = path_matrix(path)
    print("matrix:")
    print(matrix)
    q, n = return_times(path)
    print("q:", " ".join(f"{a}={q[a]}" for a in datum.alphabet))
    print("N:", n)
    print("target:", path.target.encode())
    print("target cyclic:", sigma_and_cyclicity(path.target)[1])
    return 0


def _kinds(text: str) -> str:
    if any(c not in "tb" for c in text):
        raise GietlabError(f"path string must be over 't'/'b', got {text!r}")
    return text


def _check_order(r: int) -> int:
    if not 0 <= r <= MAX_ORDER:
        raise GietlabError(f"order must be between 0 and {MAX_ORDER}")
    return r


def cmd_induct(args) -> int:
    m = fileio.load_map(args.map_file)
    if not isinstance(m, ExactIET):
        raise GietlabError("induct expects an exact IET document")
    result = m.rauzy_path(_check_order(args.order))
    print("kinds:", result.path.kinds or "(empty)")
    print("winners:", " ".join(result.path.winners) or "(none)")
    if result.tie:
        print(f"tie after {len(result.path)} steps")
    print("final datum:", result.map.datum.encode())
    for a in result.map.datum.alphabet:
        print(f"length {a} = {result.map.length(a)}")
    return 0


def cmd_partition(args) -> int:
    m = fileio.load_map(args.map_file)
    r = _check_order(args.order)
    partition = dynamical_partition(m, r)
    labels = None
    if sigma_and_cyclicity(partition.path.target)[1]:
        ref = build_reference(partition.path)
        labels = [
            ref.class_of_atom(atom.letter, atom.index).name for atom in partition.atoms
        ]
    doc = fileio.partition_document(partition, m.total, labels)
    text = fileio.dump(doc, args.output)
    if not args.output:
        print(text)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(svg.render_partition(doc))
    return 0


def cmd_realize(args) -> int:
    seed = fileio.giet_from_document(fileio.load_document(args.family_file, "'giet' document"))
    target = RauzyPath.from_kinds(seed.datum, _kinds(args.kinds))
    try:
        result = realize(GietFamily(seed), target, max_iter=min(args.max_iter, MAX_ITER_CAP))
    except NoCyclicDatum as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolverFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.report.map is not None:
            achieved = exc.report.map.rauzy_path(len(target))
            print(f"partial path at the final parameter: {achieved.path.kinds!r}", file=sys.stderr)
        return 4
    report = result.report
    print("status:", report.status)
    print("iterations:", report.iterations)
    print("certificate:", str(result.certificate).lower())
    print("appended arrows:", result.appended)
    for a in seed.datum.alphabet:
        print(f"tau {a} = {result.tau[a]:.12f}")
    for it, delta in report.deltas:
        print(f"delta {it} {delta:.6e}")
    if args.output:
        doc = {
            "status": report.status,
            "iterations": report.iterations,
            "certificate": result.certificate,
            "appended": result.appended,
            "tau": {a: result.tau[a] for a in seed.datum.alphabet},
            "deltas": [[it, d] for it, d in report.deltas],
        }
        fileio.dump(doc, args.output)
    return 0


def cmd_semiconj(args) -> int:
    for option, n in (("--samples", args.samples), ("--spot-check", args.spot_check)):
        if n < 0:
            raise GietlabError(f"{option} must not be negative, got {n}")
    f = fileio.load_map(args.giet_file)
    T = fileio.load_map(args.iet_file)
    if not isinstance(f, Giet) or not isinstance(T, ExactIET):
        raise GietlabError("semiconj expects a GIET document and an IET document")
    r = _check_order(args.order)
    h = build_semiconjugacy(f, T, r)
    print(h.as_table())
    print(f"residual: {residual(h, f, T, args.samples):.6e}")
    if args.spot_check:
        rng = random.Random(args.seed)
        worst = _defect(h, f, T, [rng.random() for _ in range(args.spot_check)])
        print(f"spot-check residual ({args.spot_check} random points, seed {args.seed}): {worst:.6e}")
    return 0


def cmd_render(args) -> int:
    doc = fileio.load_document(args.input, "document")
    kind = doc.get("kind")
    if kind == "partition":
        with fileio.reading("partition"):
            text = svg.render_partition(doc)
    elif kind == "giet":
        text = svg.render_giet(fileio.giet_from_document(doc))
    elif kind == "iet":
        text = svg.render_giet(giet_from_iet(fileio.iet_from_document(doc)))
    else:
        raise GietlabError(f"cannot render document kind {kind!r}")
    with open(args.out, "w") as fh:
        fh.write(text)
    return 0


def _env_seed() -> int:
    text = os.environ.get("GIETLAB_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise GietlabError(f"GIETLAB_SEED must be an integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    default_seed = _env_seed()
    parser = argparse.ArgumentParser(
        prog="gietlab",
        description="Rauzy combinatorics, exact induction and pullback realization "
        "for generalized interval exchange transformations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("class", help="enumerate the Rauzy class of a datum")
    p.add_argument("datum", help='e.g. "A B C D / D C B A"')
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("cyclic", help="find a cyclic datum in the Rauzy class")
    p.add_argument("datum")
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("path", help="apply a t/b kind string and print the cocycle")
    p.add_argument("datum")
    p.add_argument("kinds")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("induct", help="exact Rauzy induction on an IET document")
    p.add_argument("map_file")
    p.add_argument("-r", "--order", type=int, required=True)
    p.set_defaults(func=cmd_induct)

    p = sub.add_parser("partition", help="dynamical partition of a map document")
    p.add_argument("map_file")
    p.add_argument("-r", "--order", type=int, required=True)
    p.add_argument("-o", "--output", help="write the partition document here")
    p.add_argument("--svg", help="also render the partition to this SVG file")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("realize", help="realize a path inside the family of a seed GIET")
    p.add_argument("family_file")
    p.add_argument("kinds")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("-o", "--output", help="write a JSON report here")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("semiconj", help="conjugating map between a GIET and an IET")
    p.add_argument("giet_file")
    p.add_argument("iet_file")
    p.add_argument("-r", "--order", type=int, required=True)
    p.add_argument("--samples", type=int, default=128)
    p.add_argument("--spot-check", type=int, default=0, metavar="N",
                   help="also test N random points drawn with the seed")
    p.add_argument("--seed", type=int, default=default_seed)
    p.set_defaults(func=cmd_semiconj)

    p = sub.add_parser("render", help="render a partition, GIET or IET document to SVG")
    p.add_argument("input")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2, which is code 1 here
        return 1 if exc.code else 0
    except (GietlabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
