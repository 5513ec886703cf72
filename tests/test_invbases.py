import math
import random
from fractions import Fraction

import pytest

from gkmflag import invbases, linalg
from gkmflag.gkmgraph import CohClass, coh_failure, degree_of, is_coh_class
from gkmflag.invbases import (
    BasisFamily,
    base_eta,
    base_power_classes,
    base_tau,
    basis_family,
    check_bases_over_invariants,
    class_cI,
    express_in_basis,
    extend_invariant,
    fiber_invariant_classes,
    index_family_size,
    index_set,
    invariant_generators,
    iterated_family,
    tower_bundle,
    verify_basis,
)
from gkmflag.linalg import det_fraction
from gkmflag.parabolic import bundle_from_json, bundle_to_json, typical_fiber
from gkmflag.polyring import Polynomial
from gkmflag.schubert import permuted_class, schubert_table, seeded_random_class
from oracles import express_by_cramer, spanning_by_solves


# ----------------------------------------------------------------------
# index sets


def test_index_set_a2():
    got = index_set("A", 2)
    assert len(got) == 6
    assert set(got) == {(i, j) for i in range(3) for j in range(2)}


def test_index_set_b2():
    got = index_set("B", 2)
    assert set(got) == {(i, j) for i in range(4) for j in range(2)}


def test_index_set_d2():
    assert set(index_set("D", 2)) == {(0, 0), (1, 0), (2, 0), (0, 1)}


def test_index_set_d3_two_descriptions_agree():
    """The recursion and the explicit description enumerate the same set."""
    recursive = set(index_set("D", 3))
    explicit = {
        (i1, i2, i3)
        for i1 in range(5) for i2 in range(3) for i3 in range(2)
        if i1 * i2 * i3 == 0
    } | {(0, 1, 2), (0, 3, 1)}
    assert recursive == explicit
    assert len(recursive) == 24


def test_family_sizes_up_to_5():
    for n in range(1, 6):
        assert index_family_size("A", n) == math.factorial(n + 1)
        assert index_family_size("B", n) == 2**n * math.factorial(n)
        assert index_family_size("C", n) == 2**n * math.factorial(n)
        if n >= 2:
            assert index_family_size("D", n) == 2**(n - 1) * math.factorial(n)


# ----------------------------------------------------------------------
# the classes c_I


def test_class_cI_values(a2, b2):
    assert all(v == Polynomial.one(3) for v in class_cI(a2, (0, 0)).values)
    c21 = class_cI(a2, (2, 1))
    assert str(c21.value_at("2,3,1")) == "x2^2*x3"
    c21b = class_cI(b2, (2, 1))
    assert str(c21b.value_at("-2,1")) == "x1*x2^2"


def test_class_cI_invariant_and_valid(a2, b2, d3):
    for rs in (a2, b2, d3):
        for I in index_set(rs.kind, rs.rank):
            c = class_cI(rs, I)
            assert is_coh_class(c)
            for w in rs.elements():
                assert permuted_class(rs, c, w) == c


def test_class_cI_length_check(a2):
    with pytest.raises(ValueError):
        class_cI(a2, (1, 2, 3))


# ----------------------------------------------------------------------
# base classes


def test_base_tau_a(a2):
    b = tower_bundle(a2)
    tau = base_tau(b)
    g = b.base
    for eid, e in enumerate(g.edges):
        assert e.label.to_polynomial() == tau.values[e.src] - tau.values[e.dst]


def test_base_tau_b_half_edge(b2):
    b = tower_bundle(b2)
    tau = base_tau(b)
    g = b.base
    p, q = g.vertex_index("1,2"), g.vertex_index("-1,2")
    eid = g.find_edges(p, q)[0]
    half = (tau.values[p] - tau.values[q]).scale(1) # x1 - (-x1) = 2x1
    assert g.edges[eid].label.to_polynomial().scale(2) == half


def test_b_base_is_not_plain_complete_graph(b2):
    """Triangle labels do not sum to zero: the quotient carries its own
    labels, not the complete graph's."""
    b = tower_bundle(b2)
    g = b.base
    p1 = g.vertex_index("1,2")    # omega_1^+
    m1 = g.vertex_index("-1,2")   # omega_1^-
    m2 = g.vertex_index("-2,1")   # omega_2^-
    total = (
        g.edges[g.find_edges(p1, m1)[0]].label
        + g.edges[g.find_edges(m1, m2)[0]].label
        + g.edges[g.find_edges(m2, p1)[0]].label
    )
    assert str(total) == "-x1"


def test_base_eta_d3(d3):
    b = tower_bundle(d3)
    eta = base_eta(b)
    assert is_coh_class(eta)
    tau = base_tau(b)
    # eta * tau is the full coordinate product at every vertex
    prod = Polynomial.one(3)
    for i in (1, 2, 3):
        prod = prod * Polynomial.variable(3, i)
    for p in range(b.base.nvertices):
        assert eta.values[p] * tau.values[p] == prod


def test_eta_outside_type_d(a2):
    with pytest.raises(ValueError):
        base_eta(tower_bundle(a2))


def test_base_power_classes_independent(a2, b2, d3):
    for rs in (a2, b2, d3):
        b = tower_bundle(rs)
        classes = base_power_classes(b)
        assert len(classes) == b.base.nvertices
        for c in classes:
            assert is_coh_class(c)
        pt = [2**k for k in range(rs.varcount)]
        mat = [[c.values[p].evaluate(pt) for c in classes]
               for p in range(b.base.nvertices)]
        assert det_fraction(mat) != 0


# ----------------------------------------------------------------------
# extension


def test_extend_constant(a2):
    b = tower_bundle(a2)
    fib = typical_fiber(b)
    one = CohClass.constant(fib.graph, 1)
    ext = extend_invariant(b, one)
    assert all(v == Polynomial.one(3) for v in ext.values)


def test_extend_reproduces_shifted_class(a2, b2):
    for rs in (a2, b2):
        b = tower_bundle(rs)
        for J, fc in fiber_invariant_classes(b):
            ext = extend_invariant(b, fc)
            assert ext == class_cI(rs, (0,) + tuple(J))


def test_extend_rejects_non_invariant(a2):
    b = tower_bundle(a2)
    fib = typical_fiber(b)
    # x_{u(2)} with a sign flip at one vertex is not holonomy invariant
    vals = [Polynomial.variable(3, 2), Polynomial.variable(3, 3).scale(-1)]
    bad = CohClass(fib.graph, vals, check=False)
    with pytest.raises(ValueError, match="holonomy invariant; violated by the loop through"):
        extend_invariant(b, bad)
    on_total = CohClass.constant(b.total, 1)
    with pytest.raises(ValueError, match="typical fiber"):
        extend_invariant(b, on_total)


def test_extend_refuses_a_non_class_on_the_typical_fiber(a2, monkeypatch):
    """The input premise is checked on its own, not left to a final re-check."""
    b = tower_bundle(a2)
    fib = typical_fiber(b)
    # silence the loop checks so only the class premise can refuse the input
    tree, _ = invbases.base_tree(b, b.base_point())
    monkeypatch.setattr(invbases, "base_tree", lambda b, base_point: (tree, []))
    vals = [Polynomial.variable(3, 2), Polynomial.variable(3, 3).scale(-1)]
    bad = CohClass(fib.graph, vals, check=False)
    edge = fib.graph.edge_str(coh_failure(bad))
    with pytest.raises(ValueError, match="typical fiber") as err:
        extend_invariant(b, bad)
    assert edge in str(err.value)


@pytest.mark.parametrize("rs_name", ["a3", "b3", "c3", "d3"])
def test_extensions_are_classes(request, rs_name):
    """The extension is a class by construction; check that independently."""
    b = tower_bundle(request.getfixturevalue(rs_name))
    for _, fc in fiber_invariant_classes(b):
        assert coh_failure(extend_invariant(b, fc)) is None


# ----------------------------------------------------------------------
# expressing over the bundle


def test_express_constant(a2):
    b = tower_bundle(a2)
    one = class_cI(a2, (0, 0))
    c01 = class_cI(a2, (0, 1))
    betas = express_in_basis(b, [one, c01], one)
    assert all(v == Polynomial.one(3) for v in betas[0].values)
    assert all(v.is_zero() for v in betas[1].values)


def test_express_table_classes(a2):
    b = tower_bundle(a2)
    one = class_cI(a2, (0, 0))
    c01 = class_cI(a2, (0, 1))
    betas = express_in_basis(b, [one, c01], class_cI(a2, (1, 1)))
    tau = base_tau(b)
    assert betas[1] == tau
    betas = express_in_basis(b, [one, c01], class_cI(a2, (2, 0)))
    assert betas[0] == tau * tau
    assert all(v.is_zero() for v in betas[1].values)


def test_express_random_classes(a2):
    b = tower_bundle(a2)
    classes = [class_cI(a2, (0, 0)), class_cI(a2, (0, 1))]
    rng = random.Random(123)
    for _ in range(3):
        target = seeded_random_class(a2, rng.randint(0, 5), rng)
        betas = express_in_basis(b, classes, target)  # raises on failure
        for beta in betas:
            assert is_coh_class(beta)


def test_express_wrong_arity(a2):
    b = tower_bundle(a2)
    with pytest.raises(ValueError, match="fiber"):
        express_in_basis(b, [class_cI(a2, (0, 0))], class_cI(a2, (0, 0)))


def test_express_singular_family_names_the_fiber(a2):
    b = tower_bundle(a2)
    c00 = class_cI(a2, (0, 0))
    with pytest.raises(ValueError, match=r"fiber over 1,2,3 .* vanishes at \(1, 2, 4\)"):
        express_in_basis(b, [c00, c00], c00)


def test_express_non_homogeneous_member_names_the_class(a2):
    b = tower_bundle(a2)
    c00, c01 = class_cI(a2, (0, 0)), class_cI(a2, (0, 1))
    with pytest.raises(ValueError, match=r"classes\[1\] is not homogeneous"):
        express_in_basis(b, [c00, c01 + c00], c00)


def test_express_degree_sum_mismatch_names_both_sums(a2):
    b = tower_bundle(a2)
    c00, c01 = class_cI(a2, (0, 0)), class_cI(a2, (0, 1))
    with pytest.raises(ValueError, match="sum to 2 but the fiber lengths sum to 1"):
        express_in_basis(b, [c00, c01 * c01], c00)


def test_express_needs_a_coset_bundle(a2):
    b = bundle_from_json(bundle_to_json(tower_bundle(a2)))
    c00, c01 = class_cI(a2, (0, 0)), class_cI(a2, (0, 1))
    with pytest.raises(ValueError, match="Weyl-group data"):
        express_in_basis(b, [c00, c01], c00)


@pytest.mark.parametrize("rs_name", ["a2", "b2", "c2", "a3", "d3"])
def test_express_matches_cramer_oracle(request, rs_name):
    rs = request.getfixturevalue(rs_name)
    b = tower_bundle(rs)
    classes = [class_cI(rs, (0,) + J) for J in index_set(rs.kind, rs.rank - 1)]
    table = schubert_table(rs)
    rng = random.Random(41)
    targets = [seeded_random_class(rs, d, rng, table) for d in (1, 2)]
    targets.append(seeded_random_class(rs, 0, rng, table)
                   + seeded_random_class(rs, 1, rng, table))
    assert degree_of(targets[-1]) is None  # one target of mixed degree
    for target in targets:
        assert express_in_basis(b, classes, target) == express_by_cramer(b, classes, target)


# ----------------------------------------------------------------------
# basis verification


def test_verify_basis_a2_b2(a2, b2):
    assert verify_basis(a2).ok
    assert verify_basis(b2).ok


def test_verify_basis_detects_duplicates(a2):
    fam = basis_family(a2)
    broken = BasisFamily(a2, fam.indices,
                         [fam.classes[0]] + fam.classes[:1] + fam.classes[2:])
    rep = verify_basis(a2, broken)
    assert not rep.ok
    assert any(c.name == "independence" for c in rep.failures())



def _family_variants(rs):
    """The real family and four edits of it, with their spanning verdicts."""
    fam = basis_family(rs)
    cls = fam.classes
    i, j = [k for k, I in enumerate(fam.indices) if sum(I) == 1][:2]
    mid = len(cls) // 2

    def replaced(k, c):
        out = list(cls)
        out[k] = c
        return BasisFamily(rs, fam.indices, out)

    return {
        "real": (fam, True),
        "duplicate": (replaced(j, cls[i]), False),
        "times-degree-one": (replaced(mid, cls[mid] * cls[i]), False),
        "scaled": (replaced(mid, cls[mid].scale(2)), True),
        "sum-same-degree": (replaced(i, cls[i] + cls[j]), True),
    }


@pytest.mark.parametrize("rs_name", ["a2", "b2", "c2", "a3", "d3"])
@pytest.mark.parametrize("variant", ["real", "duplicate", "times-degree-one",
                                     "scaled", "sum-same-degree"])
def test_spanning_certificate_matches_solve_oracle(request, rs_name, variant):
    rs = request.getfixturevalue(rs_name)
    fam, expected = _family_variants(rs)[variant]
    checks = {c.name: c for c in verify_basis(rs, fam).checks}
    assert checks["spanning"].passed == spanning_by_solves(rs, fam) == expected


def _tau_diagonal_at(rs, pt):
    """prod_w tau_w(w) at pt; tau_w(w) is the product of the inversions of w."""
    out = Fraction(1)
    for w in rs.elements():
        wi = w.inverse()
        for beta in rs.positive_roots:
            if not rs.is_positive_root(wi.act_linear(beta)):
                out *= beta.to_polynomial().evaluate(pt)
    return out


@pytest.mark.parametrize("rs_name,constant", [
    ("a2", -1), ("b2", -2**8), ("c2", -1), ("c3", 1),
    ("a3", -1), ("d3", -2**24), ("b3", 2**72),
])
def test_certificate_determinant_ratio_is_constant(request, rs_name, constant):
    """det M / det S is the constant det B, the same at any regular point."""
    rs = request.getfixturevalue(rs_name)
    fam = basis_family(rs)
    nvert = len(fam.classes[0].values)
    m = rs.varcount
    for pt in ([Fraction(2**k) for k in range(m)],
               [Fraction(k * k + 1, k + 2) for k in range(m)]):
        assert all(beta.to_polynomial().evaluate(pt) != 0 for beta in rs.positive_roots)
        mat = [[c.values[v].evaluate(pt) for c in fam.classes] for v in range(nvert)]
        assert det_fraction(mat) / _tau_diagonal_at(rs, pt) == constant


def test_tau_diagonal_matches_schubert_table(a2, b2):
    for rs in (a2, b2):
        table = schubert_table(rs)
        pt = [Fraction(2**k) for k in range(rs.varcount)]
        got = Fraction(1)
        for w in rs.elements():
            got *= table.tau_value(w, w).evaluate(pt)
        assert got == _tau_diagonal_at(rs, pt)


def test_verify_basis_tampered_value_names_edge(a2):
    fam = basis_family(a2)
    k = fam.indices.index((1, 0))
    c = fam.classes[k]
    vals = list(c.values)
    vals[0] = vals[0].scale(2)
    tampered = CohClass(c.graph, vals)
    bad = coh_failure(tampered)
    assert bad is not None
    classes = list(fam.classes)
    classes[k] = tampered
    checks = {ch.name: ch for ch in verify_basis(a2, BasisFamily(a2, fam.indices, classes)).checks}
    assert not checks["spanning"].passed
    assert "c[1,0]" in checks["spanning"].witness
    assert c.graph.edge_str(bad) in checks["spanning"].witness


def test_verify_basis_non_homogeneous_member_fails_spanning(a2):
    fam = basis_family(a2)
    k = fam.indices.index((1, 0))
    classes = list(fam.classes)
    classes[k] = classes[k] + CohClass.constant(classes[k].graph, 1)
    checks = {ch.name: ch for ch in verify_basis(a2, BasisFamily(a2, fam.indices, classes)).checks}
    assert not checks["spanning"].passed
    assert checks["spanning"].witness == "c[1,0] is not homogeneous"


def test_verify_basis_wrong_count_fails_every_check(a2):
    fam = basis_family(a2)
    short = BasisFamily(a2, fam.indices[:-1], fam.classes[:-1])
    rep = verify_basis(a2, short)
    assert [c.name for c in rep.failures()] == ["count", "independence", "spanning"]


def _replaced_a2_family(a2, replacements):
    fam = basis_family(a2)
    classes = list(fam.classes)
    for I, c in replacements.items():
        classes[fam.indices.index(I)] = c
    return BasisFamily(a2, fam.indices, classes)


def test_independence_outside_the_certificate_by_the_grid(a2):
    """det vanishes at (1, 2, 4) and the degree sum fails, yet independent."""
    c10 = class_cI(a2, (1, 0))
    factor = Polynomial.variable(3, 1).scale(2) - Polynomial.variable(3, 2)
    fam = _replaced_a2_family(a2, {(1, 0): c10.scale_poly(factor)})
    checks = {c.name: c for c in verify_basis(a2, fam).checks}
    assert checks["independence"].passed
    assert not checks["spanning"].passed
    assert "vanishes at (1, 2, 4)" in checks["spanning"].witness


def test_dependence_outside_the_certificate_by_the_grid(a2):
    """Classes with a degree excess of 2: det M vanishes on the 27-point grid."""
    c10 = class_cI(a2, (1, 0))
    fam = _replaced_a2_family(a2, {(0, 1): c10 * c10, (1, 0): c10 * c10})
    checks = {c.name: c for c in verify_basis(a2, fam).checks}
    assert not checks["independence"].passed
    assert checks["independence"].witness.endswith(
        "degree at most 2, and it vanishes on the 27-point regular grid")
    assert not checks["spanning"].passed


def test_dependence_inside_the_certificate_is_read_at_one_point(a2, monkeypatch):
    """Every premise holds and det vanishes at the regular point: det M = 0."""
    fam = _replaced_a2_family(a2, {(0, 1): class_cI(a2, (1, 0))})
    dets = []
    real = linalg.det_fraction
    monkeypatch.setattr(linalg, "det_fraction", lambda m: dets.append(1) or real(m))
    checks = {c.name: c for c in verify_basis(a2, fam).checks}
    assert dets == [1]
    assert not checks["independence"].passed
    assert "degree at most 0" in checks["independence"].witness
    assert checks["spanning"].witness == (
        "on the flag graph the value determinant vanishes at (1, 2, 4); "
        "the classes are not a module basis there")


def test_degree_shortfall_is_dependent_without_a_grid(a2, monkeypatch):
    """c[2,1] (degree 3) replaced by c[1,0]: top degrees 7 < length sum 9."""
    fam = _replaced_a2_family(a2, {(2, 1): class_cI(a2, (1, 0))})
    dets = []
    real = linalg.det_fraction
    monkeypatch.setattr(linalg, "det_fraction", lambda m: dets.append(1) or real(m))
    checks = {c.name: c for c in verify_basis(a2, fam).checks}
    assert dets == [1]
    assert not checks["independence"].passed
    assert checks["independence"].witness == (
        "the top degrees sum to 7, below the length sum 9, "
        "so the value determinant is zero")
    assert not checks["spanning"].passed


def test_non_class_family_is_decided_by_the_grid(a2):
    """With a non-class member det M itself has degree at most sum_k top(c_k)."""
    c10 = class_cI(a2, (1, 0))
    tampered = CohClass(c10.graph, [c10.values[0].scale(2)] + list(c10.values[1:]))
    factor = Polynomial.variable(3, 1).scale(2) - Polynomial.variable(3, 2)
    independent = _replaced_a2_family(a2, {(1, 0): tampered.scale_poly(factor)})
    checks = {c.name: c for c in verify_basis(a2, independent).checks}
    assert checks["independence"].passed
    assert "c[1,0] fails the class condition" in checks["spanning"].witness
    dependent = _replaced_a2_family(a2, {(0, 1): tampered, (1, 0): tampered})
    checks = {c.name: c for c in verify_basis(a2, dependent).checks}
    assert not checks["independence"].passed
    assert checks["independence"].witness == (
        "the value determinant is a polynomial of degree at most 9, "
        "and it vanishes on the 1000-point regular grid")


def test_iterated_family_matches_closed_form(a2):
    fam = iterated_family(a2)
    for I in index_set("A", 2):
        assert fam[I] == class_cI(a2, I)


def test_invariant_generators_are_invariant(a2, b2, d3):
    for rs in (a2, b2, d3):
        for g in invariant_generators(rs):
            for i in range(1, rs.rank + 1):
                assert rs.simple_reflection(i).act_poly(g) == g


def test_bases_over_invariants(a2, d3):
    rep = check_bases_over_invariants(a2, index_set("A", 2), max_degree=4)
    assert rep.ok, rep.summary()
    rep = check_bases_over_invariants(d3, index_set("D", 3), max_degree=4)
    assert rep.ok, rep.summary()


def test_bases_over_invariants_detects_bad_family(a2):
    bad = [I for I in index_set("A", 2) if I != (2, 1)] + [(0, 0)]
    rep = check_bases_over_invariants(a2, bad, max_degree=4)
    assert not rep.ok


def test_d3_description_check_report():
    from gkmflag.invbases import check_d3_descriptions

    rep = check_d3_descriptions()
    assert rep.ok, rep.summary()


def test_basis_report_json(a2):
    from gkmflag.invbases import basis_report_json

    rep = verify_basis(a2)
    data = basis_report_json(rep)
    assert data == {"independent": True, "spanning": True, "witness": ""}


def test_vandermonde_determinant_brute_force(a2):
    """The base power classes evaluated at (1,2,4) give determinant +-6."""
    b = tower_bundle(a2)
    classes = base_power_classes(b)
    mat = [[c.values[p].evaluate([1, 2, 4]) for c in classes]
           for p in range(b.base.nvertices)]
    det = det_fraction(mat)
    assert abs(det) == 6


def test_class_cI_invariance_rank3_exhaustive(a3):
    for I in index_set("A", 3):
        c = class_cI(a3, I)
        for w in a3.elements():
            assert permuted_class(a3, c, w) == c


def test_iterated_family_rank3(a3):
    fam = iterated_family(a3)
    for I in index_set("A", 3):
        assert fam[I] == class_cI(a3, I), I
