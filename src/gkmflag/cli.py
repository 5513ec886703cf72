"""Command-line entry point.

Verbs mirror the library surface: build graphs and bundles from the
(type, rank, Sigma1, Sigma2) data, run the verification suites, emit the
invariant-class and Schubert tables as TSV, compute holonomy groups, and
export graphs/bundles/classes as JSON or DOT.

Exit codes: 0 when every check passes, 1 when a check fails (the
offending witness is printed), 2 for usage errors.  Every verb accepts
--seed, but only ``express`` uses it: its random target class is drawn
through Python's Mersenne Twister (``random.Random``), so reports are
byte-identical for a fixed seed.  Every check is deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import gkmgraph, invbases, parabolic, schubert
from .gkmgraph import Report
from .rootsys import DEFAULT_GROUP_CAP, RootSystem, weyl_group_order

__all__ = ["main"]


def _parse_sigma(text):
    if text is None or text.strip() == "":
        return frozenset()
    try:
        return frozenset(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}")


def _root_system(args) -> RootSystem:
    if args.type is None or args.rank is None:
        raise SystemExit2("--type and --rank are required for this command")
    try:
        order = weyl_group_order(args.type, args.rank)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    if order > args.max_group_order:
        raise SystemExit2(f"group order {order} exceeds --max-group-order")
    return RootSystem(args.type, args.rank)


class SystemExit2(Exception):
    """Usage error carrying its message; handled in main()."""


def _write_out(args, text: str):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit2(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.write(text)


def _emit_report(rep: Report) -> int:
    print(rep.summary())
    return 0 if rep.ok else 1


# ----------------------------------------------------------------------
# verbs


def cmd_build(args) -> int:
    rs = _root_system(args)
    sigma2 = args.sigma2 if args.sigma2 else rs.full_sigma()
    cg = parabolic.build_coset_graph(rs, args.sigma1, sigma2)
    print(
        f"built {rs.kind}{rs.rank} coset graph on {cg.nvertices} vertices, "
        f"{len(cg.graph.edges)} oriented edges"
    )
    if args.out:
        _write_out(args, json.dumps(gkmgraph.graph_to_json(cg.graph), indent=1) + "\n")
    return 0


def cmd_verify(args) -> int:
    if args.graph:
        try:
            with open(args.graph) as fh:
                data = json.load(fh)
            g = gkmgraph.graph_from_json(data)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            raise SystemExit2(f"cannot load graph {args.graph}: {exc}")
    else:
        rs = _root_system(args)
        sigma2 = args.sigma2 if args.sigma2 else rs.full_sigma()
        g = parabolic.build_coset_graph(rs, args.sigma1, sigma2).graph
    rep = gkmgraph.verify_gkm(g, strict_independence=args.strict_independence)
    return _emit_report(rep)


def cmd_schubert(args) -> int:
    rs = _root_system(args)
    _write_out(args, schubert.schubert_table_tsv(rs))
    return 0


def cmd_table(args) -> int:
    rs = _root_system(args)
    indices = invbases.index_set(rs.kind, rs.rank)
    _write_out(args, schubert.invariant_table_tsv(rs, indices))
    return 0


def cmd_bundle(args) -> int:
    rs = _root_system(args)
    if not args.sigma2:
        raise SystemExit2("bundle needs --sigma2")
    b = parabolic.build_bundle(rs, args.sigma1, args.sigma2)
    if args.out:
        _write_out(args, json.dumps(parabolic.bundle_to_json(b), indent=1) + "\n")
    if args.verify:
        rep = parabolic.verify_fiber_bundle(b)
        return _emit_report(rep)
    print(
        f"bundle with base on {b.base.nvertices} vertices and fibers of size "
        f"{len(b.fiber_vertices(0))}"
    )
    return 0


def cmd_holonomy(args) -> int:
    rs = _root_system(args)
    if not args.sigma2:
        raise SystemExit2("holonomy needs --sigma2")
    b = parabolic.build_bundle(rs, args.sigma1, args.sigma2)
    base_point = None
    if args.base_point:
        from .rootsys import WeylElement

        try:
            w = WeylElement.from_one_line(args.base_point)
            base_point = b.base_coset.vertex_of(w)
        except (ValueError, KeyError):
            raise SystemExit2(f"bad base point {args.base_point!r}")
    group = parabolic.holonomy(b, base_point=base_point)
    # the cycle search may refuse a large base; do it before printing
    ex = parabolic.holonomy_exhaustive(b, group.base_point) if args.exhaustive else None
    rep = Report()
    rep.add("holonomy-equals-group-action", bool(group.matches_upsilon),
            f"computed order {group.order}")
    print(f"holonomy group order: {group.order}")
    if ex is not None:
        rep.add("holonomy-exhaustive-agrees",
                ex.element_keys() == group.element_keys(),
                f"cycle search found order {ex.order}")
    return _emit_report(rep)


def cmd_basis(args) -> int:
    if args.max_degree < 0:
        raise SystemExit2("--max-degree must be non-negative")
    rs = _root_system(args)
    basis_rep = invbases.verify_basis(rs)
    rep = Report(list(basis_rep.checks))
    inv = invbases.check_bases_over_invariants(
        rs, invbases.index_set(rs.kind, rs.rank), max_degree=args.max_degree
    )
    for check in inv.checks:
        rep.add("invariants-" + check.name, check.passed, check.witness)
    if args.out:
        _write_out(args, json.dumps(invbases.basis_report_json(basis_rep), indent=1) + "\n")
    return _emit_report(rep)


def cmd_express(args) -> int:
    if args.degree < 0:
        raise SystemExit2("--degree must be non-negative")
    rs = _root_system(args)
    b = invbases.tower_bundle(rs)
    rng = random.Random(args.seed)
    target = schubert.seeded_random_class(rs, args.degree, rng)
    sub_indices = invbases.index_set(rs.kind, rs.rank - 1) if rs.rank > 1 else [()]
    classes = [
        invbases.class_cI(rs, (0,) + tuple(J)) for J in sub_indices
    ]
    rep = Report()
    try:
        betas = invbases.express_in_basis(b, classes, target)
        rep.add("express-reassembly", True)
        for J, beta in zip(sub_indices, betas):
            name = "c[0," + ",".join(str(j) for j in J) + "]" if J else "c[0]"
            print(f"beta for {name}: "
                  + "; ".join(str(v) for v in beta.values))
    except (ValueError, AssertionError) as exc:
        rep.add("express-reassembly", False, str(exc))
    return _emit_report(rep)


def cmd_export(args) -> int:
    rs = _root_system(args)
    sigma2 = args.sigma2 if args.sigma2 else rs.full_sigma()
    if args.what == "bundle":
        if not args.sigma2:
            raise SystemExit2("bundle export needs --sigma2")
        b = parabolic.build_bundle(rs, args.sigma1, args.sigma2)
        if args.format == "dot":
            _write_out(args, gkmgraph.graph_to_dot(b.total, name="total"))
        else:
            _write_out(args, json.dumps(parabolic.bundle_to_json(b), indent=1) + "\n")
        return 0
    if args.what == "class":
        if not args.index:
            raise SystemExit2("class export needs --index")
        try:
            I = tuple(int(v) for v in args.index.split(","))
        except ValueError:
            raise SystemExit2(f"bad index {args.index!r}")
        c = invbases.class_cI(rs, I)
        _write_out(args, json.dumps(gkmgraph.class_to_json(c), indent=1) + "\n")
        return 0
    g = parabolic.build_coset_graph(rs, args.sigma1, sigma2).graph
    if args.format == "dot":
        _write_out(args, gkmgraph.graph_to_dot(g, name=f"{rs.kind}{rs.rank}"))
    else:
        _write_out(args, json.dumps(gkmgraph.graph_to_json(g), indent=1) + "\n")
    return 0


# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkm",
        description="GKM graphs of flag manifolds: build, verify, tabulate.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, out=True):
        p.add_argument("--type", choices=list("ABCD"), help="root system type")
        p.add_argument("--rank", type=int, help="root system rank")
        p.add_argument("--sigma1", type=_parse_sigma, default=frozenset(),
                       help="comma-separated simple-root indices")
        p.add_argument("--sigma2", type=_parse_sigma, default=frozenset(),
                       help="comma-separated simple-root indices")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-group-order", type=int, default=DEFAULT_GROUP_CAP)
        if out:
            p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("build", help="build a coset graph")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify the graph axioms")
    common(p, out=False)
    p.add_argument("--graph", help="verify a graph loaded from JSON")
    p.add_argument("--strict-independence", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("schubert", help="emit the Schubert class table (TSV)")
    common(p)
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("table", help="emit the invariant class table (TSV)")
    common(p)
    p.add_argument("--basis", action="store_true",
                   help="columns are the invariant basis family (default)")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("bundle", help="build/verify a coset fiber bundle")
    common(p)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("holonomy", help="compute the holonomy group")
    common(p, out=False)
    p.add_argument("--base-point", help="one-line form of a base representative")
    p.add_argument("--exhaustive", action="store_true",
                   help="cross-check with short based cycles")
    p.set_defaults(func=cmd_holonomy)

    p = sub.add_parser("basis", help="verify the invariant basis family")
    common(p)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("express", help="decompose a random class over the bundle")
    common(p, out=False)
    p.add_argument("--degree", type=int, default=4)
    p.set_defaults(func=cmd_express)

    p = sub.add_parser("export", help="export graph/bundle/class as JSON or DOT")
    common(p)
    p.add_argument("--what", choices=["graph", "bundle", "class"], default="graph")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--index", help="multi-index for class export, e.g. 2,1")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush stays silent, then report it like an
        # unwritable --out file.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to stdout", file=sys.stderr)
        return 2
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
