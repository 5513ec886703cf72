#!/usr/bin/env python3
"""Run the whole desk-scale verification battery and print CHECK lines.

Covers: graph axioms for the flag graphs up to rank 4 and of A5, B5 and
D5, a graph-file round trip of the B4 and D5 flag graphs (written by
``graph_json_chunks``, read back by ``graph_from_text`` as ``verify --graph``
reads a file, with the same axiom CHECK lines as the built graph),
fiber-bundle axioms and holonomy for the standard bundles up to
rank 3, for the A4, B4 and D4 bundles with Sigma2 = {2,3,4}, and for
the A5 and B4 bundles with Sigma2 = {1}, whose 360 and 192 fibers have
two vertices each, the cycle search of ``holonomy_exhaustive`` against
that holonomy group, mapped onto the typical fiber by
``left_multiplication``, on each of these bundles whose base has at most
EXHAUSTIVE_MAX_BASE vertices (all but the two with Sigma2 = {1}), the
holonomy group alone for A6, B6 and D6 with Sigma2 = {2,...,n} and for
A7 with Sigma2 = {2,...,7} (only the base is built), basis
verification for A2, A3, B2, B3, C3, D3 and
every type at ranks 4 to 8,
the iteration consistency check (the iterated family equals the closed
form) for A2, B2, D3, A3 and B3, the bases over the invariants up to
degree 4 for A2, B2, D3 and every type at rank 8, and the graph
Leray-Serre decomposition of the degree-4 target of seed 0 for B4 and
D4: the coefficients beta_J of ``express_in_basis`` must reassemble
exactly, sum_J pi^*(beta_J) * c_(0,J) == target.  Under a FAIL line of
a report, its failing CHECK lines are printed, indented.
Exit code 0 iff everything passes.
"""

import operator
import random
import sys
import tempfile
import time
from functools import reduce
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkmflag.gkmgraph import graph_from_text, graph_json_chunks, verify_gkm
from gkmflag.invbases import (
    check_bases_over_invariants,
    check_d3_descriptions,
    class_cI,
    express_in_basis,
    iterated_family,
    tower_bundle,
    verify_basis,
)
from gkmflag.parabolic import (
    EXHAUSTIVE_MAX_BASE,
    build_bundle,
    build_coset_graph,
    holonomy,
    holonomy_exhaustive,
    left_multiplication,
    lift_class,
    verify_fiber_bundle,
)
from gkmflag.rootsys import RootSystem
from gkmflag.schubert import flag_graph, seeded_random_class

CASES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3),
         ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("A", 5), ("B", 5), ("D", 5)]
ROUND_TRIPS = [("B", 4), ("D", 5)]
BUNDLES = [("A", 2, {2}), ("A", 3, {2, 3}), ("A", 3, {1, 3}),
           ("B", 2, {2}), ("C", 2, {2}), ("D", 3, {2, 3}),
           ("A", 4, {2, 3, 4}), ("B", 4, {2, 3, 4}), ("D", 4, {2, 3, 4}),
           ("A", 5, {1}), ("B", 4, {1})]
BASES = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("D", 3),
         ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("A", 5), ("B", 5), ("C", 5), ("D", 5),
         ("A", 6), ("B", 6), ("C", 6), ("D", 6), ("A", 7), ("B", 7), ("C", 7), ("D", 7),
         ("A", 8), ("B", 8), ("C", 8), ("D", 8)]
ITERATIONS = [("A", 2), ("B", 2), ("D", 3), ("A", 3), ("B", 3)]
INVARIANTS = [("A", 2), ("B", 2), ("D", 3), ("A", 8), ("B", 8), ("C", 8), ("D", 8)]
EXPRESSIONS = [("B", 4), ("D", 4)]


def show(tag: str, rep) -> bool:
    """Print the CHECK line of one report and, under a FAIL, the CHECK
    line of each of its failing checks; return whether it passed."""
    print(f"CHECK {tag}: {'PASS' if rep.ok else 'FAIL'}")
    for check in rep.failures():
        print(f"  {check.line()}")
    return rep.ok


def show_holonomy(rs, sigma2, tag):
    """Print the CHECK line of the holonomy group over W/W(Sigma2), which
    passes when the group is all of W(Sigma2); return the group."""
    group = holonomy(rs, frozenset(sigma2))
    print(f"CHECK holonomy-{tag}: {'PASS' if group.matches_upsilon else 'FAIL'} "
          f"(order {group.order})")
    return group


def main() -> int:
    t0 = time.time()
    ok = True

    for kind, n in CASES:
        rs = RootSystem(kind, n)
        ok &= show(f"axioms-{kind}{n}", verify_gkm(flag_graph(rs).graph))

    with tempfile.TemporaryDirectory() as tmp:
        for kind, n in ROUND_TRIPS:
            graph = flag_graph(RootSystem(kind, n)).graph
            path = Path(tmp) / f"{kind}{n}.json"
            with open(path, "w") as fh:
                fh.writelines(graph_json_chunks(graph))
            read = graph_from_text(path.read_text())
            good = verify_gkm(read).summary() == verify_gkm(graph).summary()
            print(f"CHECK graph-file-{kind}{n}: {'PASS' if good else 'FAIL'}")
            ok &= good

    for kind, n, sigma2 in BUNDLES:
        rs = RootSystem(kind, n)
        b = build_bundle(rs, frozenset(), frozenset(sigma2))
        tag = f"{kind}{n}-S2={','.join(map(str, sorted(sigma2)))}"
        ok &= show(f"bundle-{tag}", verify_fiber_bundle(b))
        group = show_holonomy(rs, sigma2, tag)
        ok &= bool(group.matches_upsilon)
        if b.base.nvertices <= EXHAUSTIVE_MAX_BASE:
            fib = build_coset_graph(rs, frozenset(), frozenset(sigma2))
            good = holonomy_exhaustive(b).elements == sorted(
                left_multiplication(fib, h) for h in group.elements)
            print(f"CHECK holonomy-exhaustive-{tag}: {'PASS' if good else 'FAIL'}")
            ok &= good

    for kind, n in [("A", 6), ("B", 6), ("D", 6), ("A", 7)]:
        sigma2 = range(2, n + 1)
        tag = f"{kind}{n}-S2={','.join(map(str, sigma2))}"
        ok &= bool(show_holonomy(RootSystem(kind, n), sigma2, tag).matches_upsilon)

    for kind, n in BASES:
        rs = RootSystem(kind, n)
        ok &= show(f"basis-{kind}{n}", verify_basis(rs))

    for kind, n in ITERATIONS:
        rs = RootSystem(kind, n)
        fam = iterated_family(rs)
        good = len(fam) == rs.group_order() and all(
            c == class_cI(rs, I) for I, c in fam.items())
        print(f"CHECK iteration-{kind}{n}: {'PASS' if good else 'FAIL'}")
        ok &= good

    ok &= show("d3-descriptions", check_d3_descriptions())

    for kind, n in INVARIANTS:
        rep = check_bases_over_invariants(RootSystem(kind, n), max_degree=4)
        ok &= show(f"invariant-module-{kind}{n}", rep)

    for kind, n in EXPRESSIONS:
        rs = RootSystem(kind, n)
        target = seeded_random_class(rs, 4, random.Random(0))
        b = tower_bundle(rs)
        # each key names its class: "c[0,J]" is c_(0,J)
        terms = [lift_class(b, beta) * class_cI(rs, tuple(map(int, name[2:-1].split(","))))
                 for name, beta in express_in_basis(rs, target).items()]
        good = reduce(operator.add, terms) == target
        print(f"CHECK express-{kind}{n}: {'PASS' if good else 'FAIL'}")
        ok &= good

    print(f"total: {'PASS' if ok else 'FAIL'} in {time.time() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
