"""Command line front end.

One verb per library entry point.  Digraphs are read from a file argument
("-" for stdin) in either supported text format, which is sniffed.  Exit
codes: 0 success or certificate found, 1 a definitive negative answer,
2 search gave up within its budget, 3 malformed input or arguments, 141
the reader of standard output closed it early (as after SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path

from .branchings import (
    DEFAULT_NODE_BUDGET,
    cert_from_json,
    cert_to_json,
    find_good_pair_exact,
    verify_good_pair,
)
from .connectivity import arc_connectivity, edmonds_branchings, max_arc_disjoint_paths
from .constructions import reduce_and_lift
from .digraph import Digraph, ParseError, bits, parse_digraph, serialize_digraph
from .genlab import GEN_KINDS, GenModel, canonical_form, enumerate_small, random_2arc_strong, verify_theorem_sample

EXIT_OK = 0
EXIT_NONE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a process the signal killed


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this tool reserves 2 for inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _natural(text: str) -> int:
    """argparse type of every integer argument: ASCII digits only.  int()
    would also take a sign, underscores, spaces and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _positive(text: str) -> int:
    """argparse type of --budget and --jobs: an integer of at least 1."""
    value = _natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: a natural number below 2^64, as the
    generator takes them."""
    value = _natural(text)
    if value >> 64:
        raise argparse.ArgumentTypeError(f"must be below 2**64, got {value}")
    return value


def _probability(text: str) -> float:
    """argparse type of --p: ASCII digits with at most one decimal point.
    float() would also take a sign, underscores, exponents, spaces and
    other scripts' digits; GenModel checks the [0, 1] range."""
    if not re.fullmatch(r"[0-9]+\.?[0-9]*|\.[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    return float(text)


def _read_digraph(spec: str) -> Digraph:
    text = sys.stdin.read() if spec == "-" else Path(spec).read_text()
    return parse_digraph(text)


def _vset(mask: int) -> list[int]:
    return list(bits(mask))


def _branching_obj(b) -> dict:
    return {
        "kind": b.kind,
        "root": b.root,
        "parent": {str(v): list(arc) for v, arc in sorted(b.parent.items())},
    }


def _print_branching(b) -> None:
    arcs = " ".join(f"{u}->{v}" for u, v in sorted(b.arcs()))
    print(f"  {b.kind}-branching rooted at {b.root}: {arcs}")


def _cmd_lambda(args) -> int:
    d = _read_digraph(args.digraph)
    value, witness = arc_connectivity(d)
    if args.json:
        print(json.dumps({
            "lambda": value,
            "witness": {
                "x_set": _vset(witness.x_set),
                "direction": witness.direction,
                "value": witness.value,
            },
        }))
    else:
        print(f"lambda = {value}")
        print(f"tight cut: X = {{{', '.join(map(str, _vset(witness.x_set)))}}} "
              f"with {witness.value} leaving arcs")
    return EXIT_OK


def _cmd_paths(args) -> int:
    d = _read_digraph(args.digraph)
    packing = max_arc_disjoint_paths(d, args.source, args.target)
    if args.json:
        print(json.dumps({
            "source": packing.s,
            "target": packing.t,
            "value": packing.value,
            "paths": [list(p.vertices) for p in packing.paths],
        }))
    else:
        print(f"{packing.value} arc-disjoint paths from {packing.s} to {packing.t}")
        for p in packing.paths:
            print("  " + " -> ".join(map(str, p.vertices)))
    return EXIT_OK


def _cmd_edmonds(args) -> int:
    d = _read_digraph(args.digraph)
    got = edmonds_branchings(d, args.root, args.k)
    if isinstance(got, list):
        if args.json:
            print(json.dumps({"branchings": [_branching_obj(b) for b in got], "cut": None}))
        else:
            print(f"{args.k} arc-disjoint out-branchings rooted at {args.root}")
            for b in got:
                _print_branching(b)
        return EXIT_OK
    if args.json:
        print(json.dumps({
            "branchings": None,
            "cut": {"x_set": _vset(got.x_set), "direction": got.direction, "value": got.value},
        }))
    else:
        print(f"impossible: X = {{{', '.join(map(str, _vset(got.x_set)))}}} "
              f"receives only {got.value} arcs, need {args.k}")
    return EXIT_NONE


def _status_exit(status: str) -> int:
    return {"found": EXIT_OK, "none": EXIT_NONE, "inconclusive": EXIT_INCONCLUSIVE}[status]


def _emit_pair_result(args, status, cert, nodes, trace_steps=None) -> int:
    if args.json:
        obj = {
            "status": status,
            "nodes": nodes,
            "certificate": json.loads(cert_to_json(cert)) if cert else None,
        }
        if trace_steps is not None:
            obj["trace"] = [
                {"rule": s.rule, "subdigraph": _vset(s.subdigraph), "note": s.note}
                for s in trace_steps
            ]
        print(json.dumps(obj))
    else:
        if trace_steps is not None:
            for s in trace_steps:
                print(f"[{s.rule}] on {{{', '.join(map(str, _vset(s.subdigraph)))}}}: {s.note}")
        if status == "found":
            print(f"good pair found (out-root {cert.out.root}, in-root {cert.in_.root})")
            _print_branching(cert.out)
            _print_branching(cert.in_)
        elif status == "none":
            print("no good pair exists")
        else:
            print(f"inconclusive: node budget exhausted after {nodes} nodes")
    return _status_exit(status)


def _cmd_goodpair(args) -> int:
    d = _read_digraph(args.digraph)
    res = find_good_pair_exact(
        d, root_out=args.root_out, root_in=args.root_in, node_budget=args.budget
    )
    return _emit_pair_result(args, res.status, res.cert, res.nodes)


def _cmd_reduce(args) -> int:
    d = _read_digraph(args.digraph)
    res, trace = reduce_and_lift(d, node_budget=args.budget)
    return _emit_pair_result(args, res.status, res.cert, res.nodes, trace.steps)


def _cmd_verify(args) -> int:
    d = _read_digraph(args.digraph)
    text = sys.stdin.read() if args.certificate == "-" else Path(args.certificate).read_text()
    cert = cert_from_json(text)
    reason = verify_good_pair(d, cert)
    if args.json:
        print(json.dumps({"valid": reason is None, "reason": reason}))
    else:
        print("certificate valid" if reason is None else f"certificate invalid: {reason}")
    return EXIT_OK if reason is None else EXIT_NONE


def _cmd_gen(args) -> int:
    model = GenModel(args.kind, args.n, args.p, args.seed)
    d = random_2arc_strong(model)
    out = serialize_digraph(d, args.format)
    if args.json:
        print(json.dumps({
            "kind": args.kind, "n": d.n, "seed": args.seed, "arcs": d.m,
            "digraph": out if args.format == "digraph6" else out.rstrip("\n"),
            "format": args.format,
        }))
    else:
        sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    report = verify_theorem_sample(
        args.n,
        args.count,
        args.seed,
        kinds=kinds,
        p=args.p,
        jobs=args.jobs,
        node_budget=args.budget,
        artifact_dir=args.artifact_dir,
    )
    if args.json:
        print(report.to_json())
    else:
        print(f"n={report.n} tested={report.tested} found={report.found} "
              f"failures={len(report.failures)} inconclusive={len(report.inconclusive)}")
        if report.failures or report.inconclusive:
            print(f"artifacts written under {args.artifact_dir}")
    if report.failures:
        return EXIT_NONE
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_enum(args) -> int:
    seen = set()
    for d in enumerate_small(args.n, tournaments=args.tournaments, min_arcs=args.min_arcs):
        if args.canonical:
            form = canonical_form(d)
            if form in seen:
                continue
            seen.add(form)
        sys.stdout.write(serialize_digraph(d, "digraph6") + "\n")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="goodpairs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("lambda", _cmd_lambda, "arc connectivity with a tight cut")
    p.add_argument("digraph", help="digraph file, or - for stdin")

    p = add("paths", _cmd_paths, "maximum arc-disjoint path packing")
    p.add_argument("digraph")
    p.add_argument("source", type=_natural)
    p.add_argument("target", type=_natural)

    p = add("edmonds", _cmd_edmonds, "k arc-disjoint out-branchings or a blocking cut")
    p.add_argument("digraph")
    p.add_argument("root", type=_natural)
    p.add_argument("k", type=_natural)

    p = add("goodpair", _cmd_goodpair, "exact good-pair search")
    p.add_argument("digraph")
    p.add_argument("--root-out", type=_natural, default=None, help="force the out-branching root")
    p.add_argument("--root-in", type=_natural, default=None, help="force the in-branching root")
    p.add_argument("--budget", type=_positive, default=DEFAULT_NODE_BUDGET,
                   help="search node budget before giving up")

    p = add("reduce", _cmd_reduce, "constructive pipeline with a reduction trace")
    p.add_argument("digraph")
    p.add_argument("--budget", type=_positive, default=DEFAULT_NODE_BUDGET)

    p = add("verify", _cmd_verify, "check a certificate against a digraph")
    p.add_argument("digraph")
    p.add_argument("certificate", help="certificate JSON file, or - for stdin")

    p = add("gen", _cmd_gen, "draw a random 2-arc-strong digraph")
    p.add_argument("--kind", choices=GEN_KINDS, default="gnp-repair")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--p", type=_probability, default=0.3)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--format", choices=("edge-list", "digraph6"), default="edge-list")

    p = add("sweep", _cmd_sweep, "certify a seeded batch and report failures")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--count", type=_natural, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--kinds", default="gnp-repair,arc-minimal",
                   help="comma-separated generator kinds to cycle through")
    p.add_argument("--p", type=_probability, default=0.3)
    p.add_argument("--jobs", type=_positive, default=1)
    p.add_argument("--budget", type=_positive, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--artifact-dir", default="./goodpair-failures",
                   help="where failing instances are written")

    p = add("enum", _cmd_enum, "stream all small digraphs or tournaments")
    p.add_argument("--n", type=_natural, required=True)
    p.add_argument("--tournaments", action="store_true")
    p.add_argument("--min-arcs", type=_natural, default=0)
    p.add_argument("--canonical", action="store_true",
                   help="emit one representative per isomorphism class")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader went away (`goodpairs enum --n 4 | head -1`): say nothing,
        # and send what is still buffered to devnull so the interpreter's
        # last flush of stdout cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
