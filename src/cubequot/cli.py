"""Batch command-line interface.

Subcommands: mindist, quotient, halves, params, aut, verify, example.
Text output is human-oriented and unstable; JSON output is the
compatibility contract and is byte-identical for identical inputs and
seed. Every error path exits non-zero after printing one line of the form
"error:<CODE>: <message>" to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import verify as verify_mod
from .cube_symmetry import (
    DEFAULT_GROUP_CAP,
    INFINITY,
    is_even,
    min_distance,
    parse_group_file,
)
from .errors import CubeQuotError, PreconditionViolated, UnknownClaim
from .graph_core import halved_graphs
from .iso_aut import are_isomorphic, automorphism_group
from .quotient import build_quotient, quotient_params
from .verify import CLAIMS, reports_to_json, run_all, run_example


def _fmt_distance(d) -> str | int:
    return "inf" if d is INFINITY else int(d)


def _print_json(data) -> None:
    print(json.dumps(data, sort_keys=True, indent=2))


def _load_group(args):
    return parse_group_file(args.group_file, cap=args.cap_group)


def cmd_mindist(args) -> int:
    K = _load_group(args)
    d = min_distance(K)
    data = {
        "d_K": _fmt_distance(d),
        "order": K.order,
        "even": is_even(K),
        "semiregular": d >= 1,
    }
    if args.format == "json":
        _print_json(data)
    else:
        for key in ("d_K", "order", "even", "semiregular"):
            print(f"{key}={str(data[key]).lower()}")
    return 0


def _emit_graph(graph, args) -> None:
    text = graph.to_dot() if args.format == "dot" else graph.to_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_quotient(args) -> int:
    K = _load_group(args)
    Q = build_quotient(K)
    _emit_graph(Q.graph, args)
    return 0


def cmd_halves(args) -> int:
    if args.format == "dot" and not args.out:
        raise PreconditionViolated(
            "DOT output writes two files, one per half; it needs --out PREFIX"
        )
    K = _load_group(args)
    Q = build_quotient(K)
    h0, h1 = halved_graphs(Q.graph)
    witness = are_isomorphic(h0, h1)
    verdict = "ISOMORPHIC" if witness is not None else "NOT_ISOMORPHIC"
    suffix = "dot" if args.format == "dot" else "json"
    render = (lambda g: g.to_dot()) if args.format == "dot" else (lambda g: g.to_json())
    if args.out:
        for idx, h in enumerate((h0, h1)):
            Path(f"{args.out}.half{idx}.{suffix}").write_text(
                render(h), encoding="utf-8"
            )
        if args.format == "json":
            _print_json({"verdict": verdict, "witness": witness})
        else:
            print(f"verdict={verdict}")
    elif args.format == "json":
        _print_json(
            {
                "half0": h0.to_json_dict(),
                "half1": h1.to_json_dict(),
                "verdict": verdict,
                "witness": witness,
            }
        )
    else:
        print(f"half0: {h0.n} vertices, {h0.edge_count} edges")
        print(f"half1: {h1.n} vertices, {h1.edge_count} edges")
        print(f"verdict={verdict}")
    return 0


def cmd_params(args) -> int:
    K = _load_group(args)
    Q = build_quotient(K)
    max_level = min(3, Q.n) if args.max_level is None else args.max_level
    rows = quotient_params(Q, max_level)
    data = {
        "vertices": Q.vertex_count,
        "regular": rows[0].is_regular,
        "valency": verify_mod._jsonify(rows[0].valency),
        "levels": [
            {
                "i": r.level,
                "c": verify_mod._jsonify(r.c_value),
                "a": verify_mod._jsonify(r.a_value),
            }
            for r in rows
        ],
    }
    if args.format == "json":
        _print_json(data)
    else:
        print(f"vertices={Q.vertex_count} regular={data['regular']} valency={data['valency']}")
        for row in data["levels"]:
            print(f"i={row['i']} c_i={row['c']} a_i={row['a']}")
    return 0


def cmd_aut(args) -> int:
    K = _load_group(args)
    Q = build_quotient(K)
    group = automorphism_group(Q.graph)
    orbits = group.vertex_orbits()
    data = {
        "vertices": Q.vertex_count,
        "aut_order": group.order,
        "vertex_orbits": len(orbits),
        "vertex_transitive": len(orbits) == 1,
    }
    if args.format == "json":
        _print_json(data)
    else:
        for key, val in data.items():
            print(f"{key}={str(val).lower()}")
    return 0


def cmd_verify(args) -> int:
    if args.claims in (None, "all"):
        claim_ids = None
    else:
        claim_ids = [c.strip() for c in args.claims.split(",") if c.strip()]
        for cid in claim_ids:
            if cid not in CLAIMS:
                raise UnknownClaim(f"unknown claim id {cid!r}; known: {sorted(CLAIMS)}")
    reports = run_all(seed=args.seed, claims=claim_ids)
    if args.format == "json":
        sys.stdout.write(reports_to_json(reports))
    else:
        width = max(len(r.claim_id) for r in reports)
        for r in reports:
            print(f"{r.claim_id:<{width}}  {r.status:<7}  {r.runtime_ms:9.1f} ms")
        bad = sum(1 for r in reports if r.status == verify_mod.FAILS)
        print(f"claims={len(reports)} fails={bad}")
    return 0 if all(r.status != verify_mod.FAILS for r in reports) else 1


def cmd_example(args) -> int:
    report = run_example(args.name, seed=args.seed)
    if args.format == "json":
        _print_json(report.to_json_dict(stable=True))
    else:
        print(f"{report.claim_id}: {report.status}")
        for key, val in verify_mod._jsonify(report.witnesses).items():
            print(f"  {key}={val}")
    return 0 if report.status != verify_mod.FAILS else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubequot",
        description="Normal quotients of hypercubes: construction, analysis, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, group_file=True, formats=("text", "json")):
        if group_file:
            p.add_argument("group_file", help="group file: 'n=<int>' then 'x=<bits> perm=<cycles|id>' lines")
            p.add_argument(
                "--cap-group",
                type=int,
                default=DEFAULT_GROUP_CAP,
                help="bound on the group order",
            )
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("mindist", help="minimum distance, order, evenness, semiregularity")
    add_common(p)
    p.set_defaults(func=cmd_mindist)

    p = sub.add_parser("quotient", help="build the quotient graph")
    add_common(p, formats=("json", "dot"))
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("halves", help="halved graphs of a bipartite quotient plus isomorphism verdict")
    add_common(p, formats=("text", "json", "dot"))
    p.add_argument("--out", help="output path prefix for the two graph files")
    p.set_defaults(func=cmd_halves)

    p = sub.add_parser("params", help="distance parameters c_i and a_i of the quotient")
    add_common(p)
    p.add_argument(
        "--max-level", type=int, help="highest distance level (default: 3, or n when n < 3)"
    )
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("aut", help="automorphism group of the quotient")
    add_common(p)
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("verify", help="run registered claim checks")
    add_common(p, group_file=False)
    p.add_argument("--claims", help="comma-separated claim ids, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="re-run one named worked example")
    add_common(p, group_file=False)
    p.add_argument("name", help="exp-halved | k2 | large | not-vt | lt-not-vt | valency-m")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_example)

    return parser


# built on the first main call and reused: building the tree costs far more
# than parsing one argv, and parse_args writes only to a fresh namespace
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CubeQuotError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:IO_ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
