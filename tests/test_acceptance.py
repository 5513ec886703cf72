"""Acceptance suite: one test per criterion, exact equality over Q.

Each test prints a PASS line (visible under ``pytest -s`` or in the
captured output) once its assertions hold, and enforces the stated
runtime budget loosely.
"""

import copy
import random
import time

from gkmflag.cli import main
from gkmflag.gkmgraph import (
    Edge,
    degree_of,
    is_coh_class,
    pullback_class,
    verify_gkm,
)
from gkmflag.invbases import (
    basis_family,
    class_cI,
    express_in_basis,
    index_family_size,
    index_set,
    iterated_family,
    tower_bundle,
    verify_basis,
)
from gkmflag.linalg import identity_matrix
from gkmflag.parabolic import (
    build_bundle,
    build_coset_graph,
    holonomy,
    verify_fiber_bundle,
    verify_fibration,
)
from gkmflag.polyring import Polynomial, parse_polynomial
from gkmflag.rootsys import RootSystem
from gkmflag.schubert import (
    H,
    divided_difference,
    flag_graph,
    invariant_class,
    invariant_decomposition,
    key_identity_check,
    partial_w,
    permuted_class,
    reassemble,
    schubert_table,
    seeded_random_class,
    symmetrized_matrix,
    transition_matrices,
)

from oracles import changed_graph, express_in_forms, schubert_by_conditions

A2 = RootSystem("A", 2)
A3 = RootSystem("A", 3)
B2 = RootSystem("B", 2)
C2 = RootSystem("C", 2)
D3 = RootSystem("D", 3)

# Worked 6x6 table for the rank-2 type-A group: rows by one-line form,
# columns c[0,0], c[0,1], c[1,0], c[1,1], c[2,0], c[2,1].
TABLE_A2 = {
    "1,2,3": ["1", "x2", "x1", "x1*x2", "x1^2", "x1^2*x2"],
    "2,1,3": ["1", "x1", "x2", "x1*x2", "x2^2", "x1*x2^2"],
    "1,3,2": ["1", "x3", "x1", "x1*x3", "x1^2", "x1^2*x3"],
    "2,3,1": ["1", "x3", "x2", "x2*x3", "x2^2", "x2^2*x3"],
    "3,1,2": ["1", "x1", "x3", "x1*x3", "x3^2", "x1*x3^2"],
    "3,2,1": ["1", "x2", "x3", "x2*x3", "x3^2", "x2*x3^2"],
}

# Worked 8x8 table for the rank-2 signed group: columns c[0,0], c[0,1],
# c[1,0], c[1,1], c[2,0], c[2,1], c[3,0], c[3,1].  One printed cell of the
# source table (row -1,2, column c[2,0]) is corrected to x1^2: the value
# is the square (eps_1 x_{u(1)})^2, and -x1^2 would violate divisibility
# along the edge joining -2,1 and -1,2.
TABLE_B2 = {
    "1,2":   ["1", "x2", "x1", "x1*x2", "x1^2", "x1^2*x2", "x1^3", "x1^3*x2"],
    "2,1":   ["1", "x1", "x2", "x1*x2", "x2^2", "x1*x2^2", "x2^3", "x1*x2^3"],
    "1,-2":  ["1", "-x2", "x1", "-x1*x2", "x1^2", "-x1^2*x2", "x1^3", "-x1^3*x2"],
    "2,-1":  ["1", "-x1", "x2", "-x1*x2", "x2^2", "-x1*x2^2", "x2^3", "-x1*x2^3"],
    "-2,1":  ["1", "x1", "-x2", "-x1*x2", "x2^2", "x1*x2^2", "-x2^3", "-x1*x2^3"],
    "-1,2":  ["1", "x2", "-x1", "-x1*x2", "x1^2", "x1^2*x2", "-x1^3", "-x1^3*x2"],
    "-2,-1": ["1", "-x1", "-x2", "x1*x2", "x2^2", "-x1*x2^2", "-x2^3", "x1*x2^3"],
    "-1,-2": ["1", "-x2", "-x1", "x1*x2", "x1^2", "-x1^2*x2", "-x1^3", "x1^3*x2"],
}


def _run_table(capsys, kind, rank):
    code = main(["table", "--type", kind, "--rank", str(rank)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    header = lines[0].split("\t")
    rows = {}
    for line in lines[1:]:
        cells = line.split("\t")
        rows[cells[1]] = cells[2:]
    return header, rows


def test_criterion_01_table_a2(capsys):
    start = time.time()
    header, rows = _run_table(capsys, "A", 2)
    assert header[2:] == ["c[0,0]", "c[0,1]", "c[1,0]", "c[1,1]", "c[2,0]", "c[2,1]"]
    assert set(rows) == set(TABLE_A2)
    for one_line, expected in TABLE_A2.items():
        for got, want in zip(rows[one_line], expected):
            assert parse_polynomial(got, 3) == parse_polynomial(want, 3), (
                one_line, got, want)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (rank-2 type-A invariant table, 36 entries): PASS "
          f"({elapsed:.2f}s)")


def test_criterion_02_table_b2(capsys):
    start = time.time()
    header, rows = _run_table(capsys, "B", 2)
    assert len(header) == 10 and set(rows) == set(TABLE_B2)
    for one_line, expected in TABLE_B2.items():
        for got, want in zip(rows[one_line], expected):
            assert parse_polynomial(got, 2) == parse_polynomial(want, 2), (
                one_line, got, want)
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 (rank-2 signed-group invariant table, 64 entries): "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_03_schubert_defining_conditions():
    start = time.time()
    for rs in (A2, B2, A3, D3):
        tab = schubert_table(rs)
        for u in tab.order:
            c = tab.tau(u)
            assert is_coh_class(c)
            assert degree_of(c) == 2 * rs.length(u)
            for v in tab.order:
                if not tab.tau_value(u, v).is_zero():
                    assert rs.bruhat_leq(u, v)
            prod = Polynomial.one(rs.varcount)
            ui = u.inverse()
            for beta in rs.positive_roots:
                if not rs.is_positive_root(ui.act_linear(beta)):
                    prod = prod * beta.to_polynomial()
            assert tab.tau_value(u, u) == prod
    # oracle equivalence at rank 2: the defining conditions pin the class
    for rs in (A2, B2):
        tab = schubert_table(rs)
        for u in tab.order:
            values, unique = schubert_by_conditions(rs, u)
            assert unique, f"conditions underdetermined for {u}"
            for v in tab.order:
                assert values[v] == tab.tau_value(u, v)
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"\nACCEPTANCE 3 (Schubert defining conditions + oracle equivalence): "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_04_product_identity():
    start = time.time()
    ok, bad = key_identity_check(A2)
    assert ok, bad
    ok, bad = key_identity_check(B2)
    assert ok, bad
    rng = random.Random(4)
    elems = A3.elements()
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(200)]
    ok, bad = key_identity_check(A3, pairs)
    assert ok, bad
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 4 (H(wv) = H(w) * wH(v); 36+64 exhaustive, 200 sampled): "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_05_transition_matrices():
    start = time.time()
    for rs in (A2, B2):
        for w in rs.elements():
            a, b = transition_matrices(rs, w)
            assert (a @ b).is_identity()
        sm = symmetrized_matrix(rs)
        assert sm.is_unitriangular_weak_left()
        nW = len(rs.elements())
        for (u, v), val in sm.entries.items():
            scaled = val.scale(nW)
            in_roots = express_in_forms(scaled, list(rs.simple_roots))
            assert in_roots is not None, (u, v)
            d = rs.length(u) - rs.length(v)
            for exps, coeff in in_roots.terms.items():
                signed = coeff * (-1) ** d
                assert signed.denominator == 1 and signed >= 0, (u, v, exps)
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 5 (transition matrices invert; symmetrized matrix "
          f"unitriangular with integral negative-root entries): PASS ({elapsed:.2f}s)")


def test_criterion_06_invariant_decomposition():
    start = time.time()
    rng = random.Random(6)
    for rs in (A2, B2):
        m = rs.varcount
        x1 = Polynomial.variable(m, 1)
        x2 = Polynomial.variable(m, 2)
        cubic_terms = {}
        for _ in range(4):
            e = [0] * m
            for _ in range(3):
                e[rng.randrange(m)] += 1
            cubic_terms[tuple(e)] = cubic_terms.get(tuple(e), 0) + rng.randint(-3, 3)
        cubic = Polynomial(m, {e: c for e, c in cubic_terms.items() if c})
        for f in [Polynomial.one(m), x1, x1 * x2, x1 * x1 * x2, cubic]:
            dec = invariant_decomposition(rs, f)
            assert reassemble(rs, dec) == invariant_class(rs, f)
    elapsed = time.time() - start
    assert elapsed < 10
    print(f"\nACCEPTANCE 6 (invariant classes decompose through divided "
          f"differences): PASS ({elapsed:.2f}s)")


BUNDLE_SPECS = [
    (A2, frozenset({2})),        # S3 -> K3
    (A3, frozenset({2, 3})),     # S4 -> K4
    (A3, frozenset({1, 3})),     # S4 -> J(4,2)
    (B2, frozenset({2})),
    (C2, frozenset({2})),
    (D3, frozenset({2, 3})),     # D3 -> K_2^3
]


def test_criterion_07_bundle_axioms_and_mutations():
    start = time.time()
    bundles = []
    for rs, sigma2 in BUNDLE_SPECS:
        b = build_bundle(rs, frozenset(), sigma2)
        assert verify_fibration(b).ok, (rs.kind, rs.rank)
        assert verify_fiber_bundle(b).ok, (rs.kind, rs.rank)
        bundles.append(b)
    # single-field mutations are detected
    b = copy.deepcopy(bundles[3])  # the rank-2 signed bundle
    eid = min(b.dpi)  # the first horizontal edge
    old = b.total.edges[eid]
    b.total = changed_graph(b.total, edges={eid: Edge(old.src, old.dst, old.label + old.label)})
    assert not verify_fiber_bundle(b).ok

    b = copy.deepcopy(bundles[0])
    conn = list(b.total.connection[0])
    keys = [i for i, k in enumerate(b.total.edges_at[b.total.edges[0].src]) if k != 0]
    conn[keys[0]], conn[keys[1]] = conn[keys[1]], conn[keys[0]]
    b.total = changed_graph(b.total, connection={0: tuple(conn)})
    assert not verify_fiber_bundle(b).ok

    b = copy.deepcopy(bundles[3])
    g = b.base
    beid = g.find_edges(g.vertex_index("1,2"), g.vertex_index("-2,1"))[0]
    b.transitions[beid].psi = identity_matrix(2)
    assert not verify_fiber_bundle(b).ok
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 7 (bundle axioms on six bundles; mutations detected): "
          f"PASS ({elapsed:.2f}s)")


def test_criterion_08_holonomy_groups():
    start = time.time()
    import math

    expected_orders = {}
    for rs, sigma2 in BUNDLE_SPECS:
        b = build_bundle(rs, frozenset(), sigma2)
        group = holonomy(b)
        assert group.matches_upsilon
        expected_orders[(rs.kind, rs.rank, tuple(sorted(sigma2)))] = group.order
    assert expected_orders[("A", 2, (2,))] == 2
    assert expected_orders[("A", 3, (2, 3))] == math.factorial(3)
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 8 (holonomy groups match the parabolic action; "
          f"orders 2 and (n-1)!): PASS ({elapsed:.2f}s)")


def test_criterion_09_basis_theorems():
    start = time.time()
    import math

    for rs, size in [(A2, 6), (A3, 24), (B2, 8), (D3, 24)]:
        fam = basis_family(rs)
        assert len(fam.indices) == size
        rep = verify_basis(rs, fam)
        assert rep.ok, (rs.kind, rs.rank, rep.summary())
    for n in range(1, 6):
        assert index_family_size("A", n) == math.factorial(n + 1)
        assert index_family_size("B", n) == 2**n * math.factorial(n)
        assert index_family_size("C", n) == 2**n * math.factorial(n)
        if n >= 2:
            assert index_family_size("D", n) == 2**(n - 1) * math.factorial(n)
    elapsed = time.time() - start
    assert elapsed < 300
    print(f"\nACCEPTANCE 9 (module bases verified for 6/24/8/24-element "
          f"families; counting identities): PASS ({elapsed:.2f}s)")


def test_criterion_10_constructive_free_module():
    start = time.time()
    b = tower_bundle(A2)
    classes = [class_cI(A2, (0, 0)), class_cI(A2, (0, 1))]
    rng = random.Random(10)
    for k in range(10):
        target = seeded_random_class(A2, rng.randint(0, 6), rng)
        betas = express_in_basis(b, classes, target)  # reassembly checked inside
        for beta in betas:
            assert is_coh_class(beta)
    elapsed = time.time() - start
    assert elapsed < 30
    print(f"\nACCEPTANCE 10 (free-module decomposition over the base for 10 "
          f"random classes): PASS ({elapsed:.2f}s)")


def test_criterion_11_iteration_consistency():
    start = time.time()
    for rs in (A2, B2, D3):
        fam = iterated_family(rs)
        for I in index_set(rs.kind, rs.rank):
            assert fam[I] == class_cI(rs, I), (rs.kind, I)
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 11 (fiber-extension iteration reproduces the closed "
          f"form for all three families): PASS ({elapsed:.2f}s)")


def test_criterion_12_property_suite():
    start = time.time()
    rank2 = [A2, B2, C2]
    rank3 = [A3, RootSystem("B", 3), RootSystem("C", 3), D3]
    rng = random.Random(12)

    # axial axioms on every constructed graph
    for rs in rank2 + rank3:
        assert verify_gkm(flag_graph(rs).graph).ok
        b = build_bundle(rs, frozenset(), rs.full_sigma() - {1})
        assert verify_gkm(b.base).ok

    # class ring closure: exhaustive family pairs at rank 2
    for rs in rank2:
        fam = basis_family(rs)
        for c in fam.classes[:4]:
            for d in fam.classes[:4]:
                assert is_coh_class(c + d) and is_coh_class(c * d)
    # sampled at rank 3
    for rs in rank3:
        for _ in range(25):
            c = seeded_random_class(rs, rng.randint(0, 3), rng)
            d = seeded_random_class(rs, rng.randint(0, 3), rng)
            assert is_coh_class(c + d) and is_coh_class(c * d)

    # pullback functoriality through bundle transitions
    for rs in rank2:
        b = build_bundle(rs, frozenset(), rs.full_sigma() - {1})
        fam = basis_family(rs)
        for beid in range(len(b.base.edges)):
            iso = b.transition_iso(beid)
            e = b.base.edges[beid]
            sub_p, vmap_p, _ = b.fiber_subgraph(e.src)
            sub_q, vmap_q, _ = b.fiber_subgraph(e.dst)
            from gkmflag.gkmgraph import CohClass

            def restrict(c, sub, vmap):
                vals = [None] * sub.nvertices
                for tv, sv in vmap.items():
                    vals[sv] = c.values[tv]
                return CohClass(sub, vals)

            c = restrict(fam.classes[1], sub_q, vmap_q)
            d = restrict(fam.classes[3], sub_q, vmap_q)
            lhs = pullback_class(iso, sub_p, sub_q, c * d)
            rhs = pullback_class(iso, sub_p, sub_q, c) * \
                pullback_class(iso, sub_p, sub_q, d)
            assert lhs == rhs

    # divided differences: squares vanish, braid words agree
    for rs in rank2:
        for i in range(1, rs.rank + 1):
            for I in index_set(rs.kind, rs.rank):
                m = Polynomial.monomial(
                    rs.varcount, list(I) + [0] * (rs.varcount - len(I)))
                assert divided_difference(
                    rs, divided_difference(rs, m, i), i).is_zero()
    for rs in rank3:
        w0 = rs.longest_element()
        words = {rs.reduced_word(w0)}
        # a second reduced word: reverse descent extraction
        alt = []
        cur = w0
        while rs.length(cur) > 0:
            i = max(
                i for i in range(1, rs.rank + 1)
                if rs.length(rs.simple_reflection(i) * cur) < rs.length(cur)
            )
            alt.append(i)
            cur = rs.simple_reflection(i) * cur
        words.add(tuple(alt))
        assert len(words) == 2
        for _ in range(25):
            terms = {}
            for _ in range(3):
                e = [rng.randint(0, 2) for _ in range(rs.varcount)]
                terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-3, 3)
            f = Polynomial(rs.varcount, {e: c for e, c in terms.items() if c})
            outs = {str(partial_w(rs, f, word=w)) for w in words}
            assert len(outs) == 1
            i = rng.randint(1, rs.rank)
            assert divided_difference(rs, divided_difference(rs, f, i), i).is_zero()

    # w s_beta = s_{w beta} w
    for rs in rank2:
        for w in rs.elements():
            for beta in rs.positive_roots:
                assert w * rs.reflection(beta) == rs.reflection(w.act_linear(beta)) * w
    for rs in rank3:
        elems = rs.elements()
        for _ in range(100):
            w = rng.choice(elems)
            beta = rng.choice(rs.positive_roots)
            assert w * rs.reflection(beta) == rs.reflection(w.act_linear(beta)) * w

    # nested root subsets stay stable under the smaller parabolic subgroup
    import itertools

    def sigma_pairs(rs):
        idxs = list(range(1, rs.rank + 1))
        for r1 in range(len(idxs) + 1):
            for s1 in itertools.combinations(idxs, r1):
                for r2 in range(r1, len(idxs) + 1):
                    for s2 in itertools.combinations(idxs, r2):
                        if set(s1) <= set(s2):
                            yield frozenset(s1), frozenset(s2)

    for rs in rank2:
        for s1, s2 in sigma_pairs(rs):
            diff = set(rs.closure(s2)) - set(rs.closure(s1))
            for w in rs.parabolic_elements(s1):
                assert {rs.positive_part(w.act_linear(b)) for b in diff} == diff
    for rs in rank3:
        pairs = list(sigma_pairs(rs))
        for _ in range(100):
            s1, s2 = rng.choice(pairs)
            diff = set(rs.closure(s2)) - set(rs.closure(s1))
            if not diff:
                continue
            w = rng.choice(rs.parabolic_elements(s1))
            beta = rng.choice(sorted(diff, key=lambda b: b.coeffs))
            img = w.act_linear(beta)
            assert rs.is_positive_root(img) and img in diff

    elapsed = time.time() - start
    print(f"\nACCEPTANCE 12 (property suite: axioms, ring closure, "
          f"functoriality, difference operators, reflection identities): "
          f"PASS ({elapsed:.2f}s)")
