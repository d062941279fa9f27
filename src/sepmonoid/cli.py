"""Command line front end.

Exit codes: 0 for success (adaptable, equal, verified, suites green),
1 for a semantic negative (not adaptable, not equal, infeasible, suite
failures), 2 for usage, I/O, or parse problems, and 3 when a bounded
search ran out of depth or budget without an answer.
"""

from __future__ import annotations

import argparse
import random as _random
import sys

from .fixtures import fixture_graph, graph_names
from .graph import (GraphError, GraphParseError, NotAdaptableError, _decimal,
                    check_adaptable, export_dot, parse_graph, serialize_graph)
from .isystem import (ISystemError, ISystemParseError, extract_isystem,
                      parse_isystem, serialize_coords, serialize_isystem)
from .posets import PosetError
from .props import run_suites
from .randgen import random_adaptable
from .realize import (ConstructionFailed, ConstructionInfeasible, InvalidSystem,
                      realize, roundtrip_check)
from .rewrite import (RewriteError, antisym_nf, confluence_equal, eq_exact,
                      le_semidecide, monoid_nf, parse_element,
                      refinement_witness, serialize_element)


class CliError(Exception):
    pass


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _graph(path):
    return parse_graph(_read(path))


def _fmt_trace(trace):
    return " ".join(f"{v}:{bi}" for v, bi in trace) if trace else "(empty)"


def _nf_lines(g, e):
    sysm = extract_isystem(g)
    ents = monoid_nf(g, e).entries
    if not ents:
        return ["nf 0"]
    out = []
    for ent in ents:
        fr, tc = sysm.group[ent.cls].canonical_coords(ent.gcoeffs)
        out.append(f"nf {ent.cls} {ent.kind} n={ent.n} group={serialize_coords(fr + tc)}")
    return out


# ------------------------------------------------------------- subcommands


def cmd_validate(args):
    rep = check_adaptable(_graph(args.path))
    if rep.ok:
        if args.format == "lines":
            print(f"validate {args.path} ok")
        else:
            kinds = ", ".join(f"{c}:{k}" for c, k in sorted(rep.kinds.items()))
            print(f"adaptable ({kinds})")
        return 0
    for v in sorted(rep.violations, key=lambda v: (v.clause, str(v.class_id))):
        if args.format == "lines":
            print(f"violation {v.clause} {v.class_id}")
        else:
            print(f"violation {v.clause} at {v.class_id}: {v.detail}")
    return 1


def cmd_extract(args):
    sysm = extract_isystem(_graph(args.path))
    _write(args.out, serialize_isystem(sysm))
    return 0


def cmd_realize(args):
    sysm = parse_isystem(_read(args.path))
    try:
        result = realize(sysm, budget=args.budget)
    except InvalidSystem as exc:
        for f in exc.report.failures:
            print(f"axiom {f.axiom} fails at {f.primes}: {f.detail}", file=sys.stderr)
        return 1
    except ConstructionInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except ConstructionFailed as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 3
    _write(args.out, serialize_graph(result.graph))
    if args.no_verify:
        return 0
    rt = roundtrip_check(sysm, result.graph)
    msg = f"roundtrip {rt.status}"
    if rt.detail:
        msg += f": {rt.detail}"
    print(msg, file=sys.stderr)
    return {"Verified": 0, "InconclusiveWithinBound": 3}.get(rt.status, 1)


def cmd_eq(args):
    g = _graph(args.path)
    x = parse_element(args.left, g)
    y = parse_element(args.right, g)
    if args.method == "nf":
        equal = eq_exact(g, x, y)
        print("equal" if equal else "not equal")
        if args.format == "human":
            for side, e in (("left", x), ("right", y)):
                for line in _nf_lines(g, e):
                    print(f"  {side} {line}")
        return 0 if equal else 1
    res = confluence_equal(g, x, y, args.depth, args.budget)
    if res.status == "equal":
        print(f"equal gamma={serialize_element(res.gamma)}")
        if args.format == "human":
            print(f"  left trace: {_fmt_trace(res.trace_x)}")
            print(f"  right trace: {_fmt_trace(res.trace_y)}")
        return 0
    if res.status == "unequal":
        print(f"unequal ({res.invariant})")
        return 1
    print(res.status)
    return 3


def cmd_le(args):
    g = _graph(args.path)
    x = parse_element(args.left, g)
    y = parse_element(args.right, g)
    res = le_semidecide(g, x, y, depth=args.depth, node_budget=args.budget)
    if res.status == "yes":
        z = serialize_element(res.z) if res.z is not None else "0"
        print(f"yes z={z}")
        return 0
    print(res.status)
    return 1 if res.status == "no" else 3


def cmd_nf(args):
    g = _graph(args.path)
    e = parse_element(args.expr, g)
    ents = antisym_nf(g, e).entries
    head = " ".join(f"{cls}:{kind}:{n}" for cls, kind, n in ents)
    print(f"antisym {head or '0'}")
    for line in _nf_lines(g, e):
        print(line)
    return 0


def cmd_refine(args):
    g = _graph(args.path)
    a, b, c, d = (parse_element(t, g) for t in (args.a, args.b, args.c, args.d))
    w = refinement_witness(g, a, b, c, d, depth=args.depth, node_budget=args.budget)
    if w.status != "ok":
        print(w.status)
        return 1 if w.status == "unequal" else 3
    (x11, x12), (x21, x22) = w.pieces
    print(f"refined gamma={serialize_element(w.gamma)}")
    print(f"  a = {serialize_element(x11)} + {serialize_element(x12)}")
    print(f"  b = {serialize_element(x21)} + {serialize_element(x22)}")
    print(f"  c = {serialize_element(x11)} + {serialize_element(x21)}")
    print(f"  d = {serialize_element(x12)} + {serialize_element(x22)}")
    if args.format == "human":
        for name, trace in zip("abcd", w.traces):
            print(f"  {name} trace: {_fmt_trace(trace)}")
    return 0


def cmd_props(args):
    graphs = [(p, _graph(p)) for p in args.paths]
    if args.random:
        if args.seed is None:
            raise CliError("--seed is required with --random")
        rng = _random.Random(args.seed)
        for i in range(args.random):
            graphs.append((f"random-{i + 1}", random_adaptable(rng)))
    if not graphs:
        graphs = [(name, fixture_graph(name)) for name in graph_names()]
    failures = 0
    for idx, (name, g) in enumerate(graphs):
        if args.format == "human":
            print(f"== {name}")
        pairs = args.pairs if args.pairs is not None else args.samples
        results = run_suites(g, seed=(args.seed or 0) * 1000 + idx,
                             samples=args.samples, pairs=pairs,
                             depth=args.depth)
        for res in results:
            failures += len(res.failures)
            if args.format == "lines":
                print(f"props {name} {res.name} {'ok' if res.ok else 'FAIL'} "
                      f"samples={res.samples} checked={res.checked} "
                      f"skipped={res.skipped} failures={len(res.failures)}")
            else:
                print(f"  {res.line()}")
                for fx in res.failures[:5]:
                    print(f"    counterexample: {fx}")
    return 0 if failures == 0 else 1


def cmd_export_dot(args):
    _write(args.out, export_dot(_graph(args.path)))
    return 0


def cmd_random(args):
    if args.seed is None:
        raise CliError("--seed is required for random generation")
    if args.count > 1 and args.out not in (None, "-"):
        raise CliError("--count above 1 only writes to stdout")
    rng = _random.Random(args.seed)
    parts = []
    for _ in range(args.count):
        parts.append(serialize_graph(random_adaptable(rng, args.classes)))
    _write(args.out, "\n".join(parts))
    return 0


# ------------------------------------------------------------------ parser


def _int_at_least(lo):
    """argparse type: an ASCII decimal integer >= lo; anything else exits 2."""
    def parse(text):
        try:
            n = _decimal(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n
    return parse


_COUNT = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sepmonoid",
        description="Separated-graph monoids: validation, extraction, "
                    "realization, and decision procedures.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, depth=True, budget=True, seed=False, fmt=True):
        if depth:
            p.add_argument("--depth", type=_COUNT, default=10,
                           help="search depth bound (default 10)")
        if budget:
            p.add_argument("--budget", type=_COUNT, default=100000,
                           help="search node budget (default 100000)")
        if seed:
            p.add_argument("--seed", type=_int_at_least(float("-inf")), default=None,
                           help="seed for randomized behaviour")
        if fmt:
            p.add_argument("--format", choices=("human", "lines"),
                           default="human", help="report format")

    p = sub.add_parser("validate", help="check a .sg file for adaptability")
    p.add_argument("path")
    common(p, depth=False, budget=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("extract", help="extract the invariant system of a graph")
    p.add_argument("path")
    p.add_argument("-o", "--out", default=None, help="output .is file (default stdout)")
    common(p, depth=False, budget=False, fmt=False)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("realize", help="build a graph realizing a .is system")
    p.add_argument("path")
    p.add_argument("-o", "--out", default=None, help="output .sg file (default stdout)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the extract-and-compare round trip")
    p.add_argument("--budget", type=_int_at_least(1), default=200,
                   help="search budget per regular prime, in units of 100 "
                        "visits (default 200)")
    common(p, depth=False, budget=False, fmt=False)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("eq", help="decide equality of two elements")
    p.add_argument("path")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--method", choices=("nf", "confluence"), default="nf")
    common(p)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("le", help="semi-decide order between two elements")
    p.add_argument("path")
    p.add_argument("left")
    p.add_argument("right")
    common(p, fmt=False)
    p.set_defaults(func=cmd_le)

    p = sub.add_parser("nf", help="normal form of an element")
    p.add_argument("path")
    p.add_argument("expr")
    common(p, depth=False, budget=False, fmt=False)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("refine", help="refinement grid for a+b = c+d")
    p.add_argument("path")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("c")
    p.add_argument("d")
    common(p)
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("props", help="run the property suites")
    p.add_argument("paths", nargs="*", help=".sg files (default: packaged fixtures)")
    p.add_argument("--random", type=_COUNT, default=0, metavar="N",
                   help="also run on N random graphs (needs --seed)")
    p.add_argument("--samples", type=_COUNT, default=200,
                   help="instances per suite (default 200)")
    p.add_argument("--pairs", type=_COUNT, default=None,
                   help="pairs for the oracle agreement suite (default: --samples)")
    common(p, budget=False, seed=True)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("export-dot", help="render a graph to DOT")
    p.add_argument("path")
    p.add_argument("-o", "--out", default=None)
    common(p, depth=False, budget=False, fmt=False)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("random", help="generate random adaptable graphs")
    p.add_argument("--classes", type=_int_at_least(1), default=4,
                   help="upper bound on condensation classes (default 4)")
    p.add_argument("--count", type=_COUNT, default=1)
    p.add_argument("-o", "--out", default=None)
    common(p, depth=False, budget=False, seed=True, fmt=False)
    p.set_defaults(func=cmd_random)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except NotAdaptableError as exc:
        print(f"not adaptable: {exc}", file=sys.stderr)
        return 1
    except (GraphParseError, ISystemParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, ISystemError, RewriteError, PosetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
