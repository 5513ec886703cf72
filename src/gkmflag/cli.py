"""Command-line entry point.

Verbs mirror the library surface: build graphs and bundles from the
(type, rank, Sigma1, Sigma2) data, run the verification suites, emit the
invariant-class and Schubert tables as TSV, compute holonomy groups, and
export graphs/bundles/classes as JSON or DOT.

Exit codes: 0 when every check passes, 1 when a check fails (the
offending witness is printed), 2 for usage errors.  ``express`` draws its
random target class from --seed through Python's Mersenne Twister
(``random.Random``), so reports are byte-identical for a fixed seed;
``basis`` also accepts --seed, which changes nothing it prints.  Every
check is deterministic.  A verb refuses, as a usage error, each flag it
does not read: only build, verify, bundle, holonomy and export take
--sigma1/--sigma2, only express and basis take --seed, and ``export``
takes --index only with ``--what class``, which has no DOT form and
takes no --sigma1/--sigma2.  A run that exhausts memory exits 2 with one
``error:`` line, like a usage error.  Graph and bundle files, like the
invariant-class and Schubert tables, are streamed to --out or stdout as
their writers produce them, and an --out file whose writing fails part
way is removed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import sys

from . import gkmgraph, invbases, parabolic, schubert
from .gkmgraph import Report
from .rootsys import DEFAULT_GROUP_CAP, RootSystem, WeylElement, weyl_group_order

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
        raise ValueError("--type and --rank are required for this command")
    order = weyl_group_order(args.type, args.rank)
    if order > args.max_group_order:
        raise ValueError(f"group order {order} exceeds --max-group-order")
    return RootSystem(args.type, args.rank)


def _write_out(args, text):
    """Write ``text``, one string or an iterable of string chunks written as
    they come, to --out or to stdout.  A --out file whose writing fails
    part way, in the chunks or in the file, is removed before the error
    propagates, so no truncated file is left behind."""
    chunks = [text] if isinstance(text, str) else text
    if getattr(args, "out", None):
        try:
            fh = open(args.out, "w")
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc}")
        try:
            with fh:
                fh.writelines(chunks)
        except BaseException as exc:
            if os.path.isfile(args.out):  # never a device such as /dev/null
                with contextlib.suppress(OSError):
                    os.remove(args.out)
            if isinstance(exc, OSError):
                raise ValueError(f"cannot write {args.out}: {exc}")
            raise
    else:
        sys.stdout.writelines(chunks)


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
        f"{len(cg.graph.src)} oriented edges"
    )
    if args.out:
        _write_out(args, gkmgraph.graph_json_chunks(cg.graph))
    return 0


def cmd_verify(args) -> int:
    if args.graph:
        try:
            with open(args.graph) as fh:
                g = gkmgraph.graph_from_text(fh.read())
        except (OSError, json.JSONDecodeError, KeyError, ValueError, RecursionError) as exc:
            raise ValueError(f"cannot load graph {args.graph}: {exc}")
    else:
        rs = _root_system(args)
        sigma2 = args.sigma2 if args.sigma2 else rs.full_sigma()
        g = parabolic.build_coset_graph(rs, args.sigma1, sigma2).graph
    rep = gkmgraph.verify_gkm(g)
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
        raise ValueError("bundle needs --sigma2")
    b = parabolic.build_bundle(rs, args.sigma1, args.sigma2)
    if args.out:
        _write_out(args, parabolic.bundle_json_chunks(b))
    if args.verify:
        rep = parabolic.verify_fiber_bundle(b)
        return _emit_report(rep)
    print(
        f"bundle with base on {b.base.nvertices} vertices and fibers of size "
        f"{len(b.fibers()[0])}"
    )
    return 0


def cmd_holonomy(args) -> int:
    rs = _root_system(args)
    if not args.sigma2:
        raise ValueError("holonomy needs --sigma2")
    # the Sigma pair is checked before the base point is read
    parabolic.check_sigmas(rs, args.sigma1, args.sigma2)
    base_point = 0
    if args.base_point:
        base = parabolic.build_coset_graph(rs, args.sigma2, rs.full_sigma())
        try:
            base_point = base.vertex_of(WeylElement.from_one_line(args.base_point))
        except (ValueError, KeyError):
            raise ValueError(f"bad base point {args.base_point!r}")
    group = parabolic.holonomy(rs, args.sigma2, base_point)
    rep = Report()
    rep.add("holonomy-equals-group-action", bool(group.matches_upsilon),
            f"computed order {group.order}")
    # only the cycle search reads a bundle, and it may refuse a large base;
    # run it before printing.  Its isos act on the typical fiber, where the
    # Weyl elements of the group act by left multiplication.
    if args.exhaustive:
        ex = parabolic.holonomy_exhaustive(parabolic.build_bundle(rs, args.sigma1, args.sigma2),
                                           base_point)
        fib = parabolic.build_coset_graph(rs, args.sigma1, args.sigma2)
        rep.add("holonomy-exhaustive-agrees",
                set(ex.elements) == {parabolic.left_multiplication(fib, h) for h in group.elements},
                f"cycle search found order {ex.order}")
    print(f"holonomy group order: {group.order}")
    return _emit_report(rep)


def cmd_basis(args) -> int:
    if args.max_degree < 0:
        raise ValueError("--max-degree must be non-negative")
    rs = _root_system(args)
    basis_rep = invbases.verify_basis(rs)
    rep = Report(list(basis_rep.checks))
    inv = invbases.check_bases_over_invariants(rs, max_degree=args.max_degree)
    for check in inv.checks:
        rep.add("invariants-" + check.name, check.passed, check.witness)
    if args.out:
        _write_out(args, json.dumps(invbases.basis_report_json(basis_rep), indent=1) + "\n")
    return _emit_report(rep)


def cmd_express(args) -> int:
    if args.degree < 0:
        raise ValueError("--degree must be non-negative")
    rs = _root_system(args)
    rng = random.Random(args.seed)
    target = schubert.seeded_random_class(rs, args.degree, rng)
    rep = Report()
    try:
        betas = invbases.express_in_basis(rs, target)
        rep.add("express-reassembly", True)
        for name, beta in betas.items():
            print(f"beta for {name}: "
                  + "; ".join(str(v) for v in beta.values))
    except ValueError as exc:
        rep.add("express-reassembly", False, str(exc))
    return _emit_report(rep)


def cmd_export(args) -> int:
    if args.what != "class" and args.index is not None:
        raise ValueError(f"--index is read only with --what class, not {args.what}")
    if args.what == "class" and args.format == "dot":
        raise ValueError("class export has no DOT format")
    if args.what == "class" and (args.sigma1 or args.sigma2):
        raise ValueError("class export reads neither --sigma1 nor --sigma2")
    rs = _root_system(args)
    sigma2 = args.sigma2 if args.sigma2 else rs.full_sigma()
    if args.what == "bundle":
        if not args.sigma2:
            raise ValueError("bundle export needs --sigma2")
        b = parabolic.build_bundle(rs, args.sigma1, args.sigma2)
        if args.format == "dot":
            _write_out(args, gkmgraph.graph_to_dot(b.total, name="total"))
        else:
            _write_out(args, parabolic.bundle_json_chunks(b))
        return 0
    if args.what == "class":
        if not args.index:
            raise ValueError("class export needs --index")
        try:
            I = tuple(int(v) for v in args.index.split(","))
        except ValueError:
            raise ValueError(f"bad index {args.index!r}")
        c = invbases.class_cI(rs, I)
        _write_out(args, json.dumps(gkmgraph.class_to_json(c), indent=1) + "\n")
        return 0
    g = parabolic.build_coset_graph(rs, args.sigma1, sigma2).graph
    if args.format == "dot":
        _write_out(args, gkmgraph.graph_to_dot(g, name=f"{rs.kind}{rs.rank}"))
    else:
        _write_out(args, gkmgraph.graph_json_chunks(g))
    return 0


# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkm",
        description="GKM graphs of flag manifolds: build, verify, tabulate.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, out=True, sigmas=True, seed=False):
        p.add_argument("--type", choices=list("ABCD"), help="root system type")
        p.add_argument("--rank", type=int, help="root system rank")
        if sigmas:
            p.add_argument("--sigma1", type=_parse_sigma, default=frozenset(),
                           help="comma-separated simple-root indices")
            p.add_argument("--sigma2", type=_parse_sigma, default=frozenset(),
                           help="comma-separated simple-root indices")
        if seed:
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
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("schubert", help="emit the Schubert class table (TSV)")
    common(p, sigmas=False)
    p.set_defaults(func=cmd_schubert)

    p = sub.add_parser("table", help="emit the invariant class table (TSV)")
    common(p, sigmas=False)
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
    common(p, sigmas=False, seed=True)
    p.add_argument("--max-degree", type=int, default=4)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("express", help="decompose a random class over the bundle")
    common(p, out=False, sigmas=False, seed=True)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller rank", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
