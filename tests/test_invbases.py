import math
import operator
import random
from fractions import Fraction

import pytest

from gkmflag import invbases, linalg
from gkmflag.gkmgraph import CohClass, coh_failure, degree_of
from gkmflag.invbases import (
    BasisFamily,
    basis_family,
    check_bases_over_invariants,
    class_cI,
    express_in_basis,
    extend_invariant,
    fiber_invariant_classes,
    index_set,
    invariant_generators,
    iterated_family,
    tower_bundle,
    tower_levels,
    verify_basis,
)
from gkmflag.linalg import det_fraction
from gkmflag import cli, parabolic
from gkmflag.parabolic import build_bundle, build_coset_graph
from gkmflag.polyring import Polynomial
from gkmflag.rootsys import RootSystem
from gkmflag.schubert import flag_graph, permuted_class, schubert_table, seeded_random_class
from oracles import (
    coh_failure_by_restriction,
    edges_of,
    express_by_cramer,
    express_by_module_solve,
    extend_by_edges,
    spanning_by_solves,
    verify_basis_by_determinant,
)


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


def _tower_powers(kind, rank):
    """The number of powers of tau among the base classes of the tower."""
    return {"A": rank + 1, "B": 2 * rank, "C": 2 * rank, "D": 2 * rank - 1}[kind]


@pytest.mark.parametrize("kind,rank", [(k, n) for k in "ABC" for n in range(1, 7)]
                         + [("D", n) for n in range(3, 7)])
def test_index_set_is_the_tower_product(kind, rank):
    """The indices (k,) + J, k below the number of base powers (n + 1 in
    type A, 2n in B and C, 2n - 1 in D) and J a rank n - 1 index; in type
    D also (0,) + (J + 1), the lift of eta times c[0,J].  Down the whole
    tower: the sums of one exponent vector per level of ``tower_levels``,
    the type-D bottom included, are the index set, each once, and x_{n+1}
    of type A never occurs."""
    lower = index_set(kind, rank - 1) if rank > 1 else [()]
    powers = _tower_powers(kind, rank)
    tower = [(k,) + J for k in range(powers) for J in lower]
    if kind == "D":
        tower += [(0,) + tuple(j + 1 for j in J) for J in lower]
    assert sorted(tower) == index_set(kind, rank)
    if kind in "BC" and rank == 1:
        return  # no root system of rank 1
    rs = RootSystem(kind, rank)
    product = [(0,) * rs.varcount]
    for _, _, monos in invbases._level_monomials(rs):
        exps = [next(iter(mono.terms)) for mono in monos]
        product = [tuple(map(operator.add, e, f)) for e in product for f in exps]
    assert all(not any(e[rank:]) for e in product)
    assert sorted(e[:rank] for e in product) == index_set(kind, rank)


def test_family_sizes_up_to_5():
    for n in range(1, 6):
        assert len(index_set("A", n)) == math.factorial(n + 1)
        assert len(index_set("B", n)) == 2**n * math.factorial(n)
        assert len(index_set("C", n)) == 2**n * math.factorial(n)
        if n >= 2:
            assert len(index_set("D", n)) == 2**(n - 1) * math.factorial(n)


# ----------------------------------------------------------------------
# the classes c_I


def test_class_cI_values(a2, b2):
    assert all(v == Polynomial.one(3) for v in class_cI(a2, (0, 0)).values)
    c21 = class_cI(a2, (2, 1))
    assert str(c21.values[c21.graph.vertices.index("2,3,1")]) == "x2^2*x3"
    c21b = class_cI(b2, (2, 1))
    assert str(c21b.values[c21b.graph.vertices.index("-2,1")]) == "x1*x2^2"


def test_class_cI_invariant_and_valid(a2, b2, d3):
    for rs in (a2, b2, d3):
        for I in index_set(rs.kind, rs.rank):
            c = class_cI(rs, I)
            assert coh_failure(c) is None
            for w in rs.elements():
                assert permuted_class(rs, c, w) == c


def test_class_cI_length_check(a2):
    with pytest.raises(ValueError):
        class_cI(a2, (1, 2, 3))


# ----------------------------------------------------------------------
# the levels of the tower; level 1 is the base


def _base_classes(rs):
    """The level-1 classes: tau^0, tau^1, ..., plus eta in type D."""
    return tower_levels(rs)[0][1]


def test_base_tau_a(a2):
    b = tower_bundle(a2)
    tau = _base_classes(a2)[1]
    g = b.base
    assert tau.graph is g  # level 1 is the cached base graph
    for e in edges_of(g):
        assert e.label.to_polynomial() == tau.values[e.src] - tau.values[e.dst]


def test_base_tau_b_half_edge(b2):
    b = tower_bundle(b2)
    tau = _base_classes(b2)[1]
    g = b.base
    p, q = g.vertices.index("1,2"), g.vertices.index("-1,2")
    eid = g.find_edges(p, q)[0]
    half = (tau.values[p] - tau.values[q]).scale(1) # x1 - (-x1) = 2x1
    assert g.label(eid).to_polynomial().scale(2) == half


def test_b_base_is_not_plain_complete_graph(b2):
    """Triangle labels do not sum to zero: the quotient carries its own
    labels, not the complete graph's."""
    b = tower_bundle(b2)
    g = b.base
    p1 = g.vertices.index("1,2")    # omega_1^+
    m1 = g.vertices.index("-1,2")   # omega_1^-
    m2 = g.vertices.index("-2,1")   # omega_2^-
    total = (
        g.label(g.find_edges(p1, m1)[0])
        + g.label(g.find_edges(m1, m2)[0])
        + g.label(g.find_edges(m2, p1)[0])
    )
    assert str(total) == "-x1"


def test_base_eta_d3(d3):
    b = tower_bundle(d3)
    base = _base_classes(d3)
    eta, tau = base[-1], base[1]
    assert coh_failure(eta) is None
    # eta * tau is the full coordinate product at every vertex
    prod = Polynomial.one(3)
    for i in (1, 2, 3):
        prod = prod * Polynomial.variable(3, i)
    for p in range(b.base.nvertices):
        assert eta.values[p] * tau.values[p] == prod


_BASE_CLASS_TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
                     ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4)]


@pytest.mark.parametrize("kind,n", _BASE_CLASS_TYPES)
def test_base_power_classes_are_classes(kind, n):
    """The level-1 classes are built unchecked; every power of tau and
    eta passes the restriction oracle, and a tau built from x2 (not fixed by
    W(Delta - {1})) does not.  Their degrees are those of the tower
    product that ``index_set`` is: tau^0, tau^1, ..., plus eta in type D."""
    rs = RootSystem(kind, n)
    b = tower_bundle(rs)
    base = _base_classes(rs)
    for k, c in enumerate(base):
        assert coh_failure_by_restriction(c) is None, (kind, n, k)
    eta = [n - 1] if kind == "D" else []
    assert [degree_of(c) // 2 for c in base] == list(range(_tower_powers(kind, n))) + eta
    x2 = Polynomial.variable(b.total.varcount, 2)
    base_reps = build_coset_graph(rs, b.sigma2, rs.full_sigma()).reps
    wrong = CohClass(b.base, [w.act_poly(x2) for w in base_reps])
    assert coh_failure_by_restriction(wrong) is not None


def test_eta_outside_type_d(a2):
    """Outside type D every level holds powers of one coordinate only."""
    assert [[str(mono) for mono in monos] for monos, _ in tower_levels(a2)] == [
        ["1", "x1", "x1^2"], ["1", "x2"]]


@pytest.mark.parametrize("kind,n", [("A", n) for n in range(1, 6)]
                         + [(k, n) for k in "BC" for n in range(2, 6)]
                         + [("D", n) for n in range(3, 6)])
def test_level_classes_are_classes_of_their_degrees(kind, n):
    """Every level's classes, built unchecked, pass ``coh_failure``; each
    has the degree of its monomial, and no level has more than 2n
    vertices."""
    rs = RootSystem(kind, n)
    for k, (monos, classes) in enumerate(tower_levels(rs), 1):
        assert len(monos) == len(classes) <= 2 * n
        for mono, c in zip(monos, classes):
            assert coh_failure(c) is None, (k, str(mono))
            assert degree_of(c) == 2 * sum(next(iter(mono.terms))), (k, str(mono))


def test_base_power_classes_independent(a2, b2, d3):
    for rs in (a2, b2, d3):
        b = tower_bundle(rs)
        classes = _base_classes(rs)
        assert len(classes) == b.base.nvertices
        for c in classes:
            assert coh_failure(c) is None
        pt = [2**k for k in range(rs.varcount)]
        mat = [[c.values[p].evaluate(pt) for c in classes]
               for p in range(b.base.nvertices)]
        assert det_fraction(mat) != 0


# ----------------------------------------------------------------------
# extension


def test_extend_constant(a2):
    b = tower_bundle(a2)
    fib = build_coset_graph(a2, b.sigma1, b.sigma2)
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
    fib = build_coset_graph(a2, b.sigma1, b.sigma2)
    # x_{u(2)} with a sign flip at one vertex is not holonomy invariant
    vals = [Polynomial.variable(3, 2), Polynomial.variable(3, 3).scale(-1)]
    bad = CohClass(fib.graph, vals)
    with pytest.raises(ValueError, match="holonomy invariant; violated by the loop through"):
        extend_invariant(b, bad)
    on_total = CohClass.constant(b.total, 1)
    with pytest.raises(ValueError, match="typical fiber"):
        extend_invariant(b, on_total)


def test_extend_refuses_a_non_class_on_the_typical_fiber(a2, monkeypatch):
    """The input premise is checked on its own, not left to a final re-check."""
    b = tower_bundle(a2)
    fib = build_coset_graph(a2, b.sigma1, b.sigma2)
    # silence the loop checks so only the class premise can refuse the input
    transports, _ = invbases.tree_transport(build_coset_graph(a2, b.sigma2, a2.full_sigma()), 0)
    monkeypatch.setattr(invbases, "tree_transport", lambda b, base_point: (transports, []))
    vals = [Polynomial.variable(3, 2), Polynomial.variable(3, 3).scale(-1)]
    bad = CohClass(fib.graph, vals)
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


def _refusal(extend, b, fiber_class):
    with pytest.raises(ValueError) as err:
        extend(b, fiber_class)
    return str(err.value)


@pytest.mark.parametrize("kind,n", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
                                    ("D", 3)])
def test_extend_matches_the_edge_by_edge_oracle(kind, n):
    """Every fiber invariant class extends as carrying values edge by edge
    does; an input changed at one fiber vertex is refused with the same
    loop named."""
    b = tower_bundle(RootSystem(kind, n))
    for J, fc in fiber_invariant_classes(b):
        assert extend_invariant(b, fc) == extend_by_edges(b, fc), J
    vals = list(fc.values)
    vals[1] = vals[1] + Polynomial.one(b.total.varcount)
    bad = CohClass(fc.graph, vals)
    witness = _refusal(extend_invariant, b, bad)
    assert witness.startswith("class is not holonomy invariant; violated by the loop through")
    assert witness == _refusal(extend_by_edges, b, bad)


def test_extend_matches_the_oracle_with_sigma1(a3):
    """Sigma1 = {3}: f(u) = u g is a class on W(Sigma2)/W(Sigma1) and
    holonomy invariant for g fixed by s_3, from every base point; g = x3
    is refused with the same witness."""
    b = build_bundle(a3, frozenset({3}), frozenset({2, 3}))
    fib = build_coset_graph(a3, b.sigma1, b.sigma2)
    x = [Polynomial.variable(4, i) for i in range(1, 5)]
    for g in (Polynomial.one(4), x[1], x[2] + x[3], x[2] * x[3],
              x[0] * x[1] + x[2] * x[2] + x[3] * x[3]):
        fc = CohClass(fib.graph, [u.act_poly(g) for u in fib.reps])
        for p in range(b.base.nvertices):
            assert extend_invariant(b, fc, p) == extend_by_edges(b, fc, p)
    bad = CohClass(fib.graph, [u.act_poly(x[2]) for u in fib.reps])
    assert _refusal(extend_invariant, b, bad) == _refusal(extend_by_edges, b, bad)


# ----------------------------------------------------------------------
# expressing over the bundle


def test_express_constant(a2):
    one = class_cI(a2, (0, 0))
    betas = express_in_basis(a2, one)
    assert list(betas) == ["c[0,0]", "c[0,1]"]
    assert all(v == Polynomial.one(3) for v in betas["c[0,0]"].values)
    assert all(v.is_zero() for v in betas["c[0,1]"].values)


def test_express_table_classes(a2):
    betas = express_in_basis(a2, class_cI(a2, (1, 1)))
    tau = _base_classes(a2)[1]
    assert betas["c[0,1]"] == tau
    betas = express_in_basis(a2, class_cI(a2, (2, 0)))
    assert betas["c[0,0]"] == tau * tau
    assert all(v.is_zero() for v in betas["c[0,1]"].values)


def test_express_random_classes(a2):
    rng = random.Random(123)
    for _ in range(3):
        target = seeded_random_class(a2, rng.randint(0, 5), rng)
        betas = express_in_basis(a2, target)  # raises on failure
        for beta in betas.values():
            assert coh_failure(beta) is None


def test_express_refuses_a_target_off_the_flag_graph(a2, a3):
    """The target's values are read by the vertices of the flag graph of
    ``rs``, so a class on any other graph is refused, even on the equal
    flag graph of another A2 object, as ring operations refuse it."""
    for target in (class_cI(a3, (0, 0, 0)), CohClass.constant(tower_bundle(a3).base, 1),
                   CohClass.constant(flag_graph(RootSystem("A", 2)).graph, 1)):
        with pytest.raises(ValueError, match="^the target is not a class on the flag graph of A2$"):
            express_in_basis(a2, target)


def test_express_takes_only_level_determinants(b3, monkeypatch):
    """The fiber classes are certified on levels 2 and 3 of B3 (4 and 2
    vertices), not on each of the six 8-vertex fibers, and not on level 1."""
    sizes = []
    real = linalg.det_fraction
    monkeypatch.setattr(linalg, "det_fraction", lambda m: sizes.append(len(m)) or real(m))
    express_in_basis(b3, class_cI(b3, (1, 0, 0)))
    assert sizes == [4, 2]


def test_express_names_the_failing_level(a3, monkeypatch):
    """A level the fiber classes rest on that fails its certificate is the
    error; a failing level 1 (the base) is not express's premise."""
    _tamper_level(monkeypatch, 3, lambda monos, classes: (monos, [classes[0]] * 2))
    with pytest.raises(ValueError, match=r"^on level 3 the value determinant vanishes"):
        express_in_basis(a3, class_cI(a3, (0, 0, 0)))
    monkeypatch.undo()
    _tamper_level(monkeypatch, 1, lambda monos, classes: (monos, [classes[0]] * 4))
    express_in_basis(a3, class_cI(a3, (0, 0, 0)))


@pytest.mark.parametrize("kind,rank", [("B", 3), ("D", 4)])
def test_express_builds_no_bundle_and_solves_no_system(kind, rank, monkeypatch):
    """The tower solve divides by differences of nodes only: no bundle is
    built and no sparse rational system is solved."""
    def refuse(*args):
        raise AssertionError("called")

    rs = RootSystem(kind, rank)
    target = seeded_random_class(rs, 3, random.Random(5))
    for owner, name in ((invbases, "build_bundle"), (parabolic, "build_bundle"),
                        (invbases, "tower_bundle"), (linalg, "solve_module_coeffs"),
                        (linalg, "solve_sparse_fraction")):
        monkeypatch.setattr(owner, name, refuse)
    betas = express_in_basis(rs, target)
    assert len(betas) == rs.group_order() // len(_base_classes(rs))


@pytest.mark.parametrize("rs_name", ["a2", "b2", "c2", "a3", "d3"])
def test_express_matches_cramer_oracle(request, rs_name):
    rs = request.getfixturevalue(rs_name)
    b = tower_bundle(rs)
    lower = index_set(rs.kind, rs.rank - 1)
    classes = [class_cI(rs, (0,) + J) for J in lower]
    names = ["c[" + ",".join(map(str, (0,) + J)) + "]" for J in lower]
    rng = random.Random(41)
    targets = [seeded_random_class(rs, d, rng) for d in (1, 2)]
    targets.append(seeded_random_class(rs, 0, rng)
                   + seeded_random_class(rs, 1, rng))
    assert degree_of(targets[-1]) is None  # one target of mixed degree
    for target in targets:
        betas = express_in_basis(rs, target)
        assert list(betas) == names
        assert list(betas.values()) == express_by_cramer(b, classes, target)


MODULE_SOLVE_GROUPS = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3),
                       ("D", 3), ("A", 4), ("B", 4), ("C", 4), ("D", 4)]


@pytest.mark.parametrize("kind,rank", MODULE_SOLVE_GROUPS)
def test_express_matches_the_module_solve_oracle(kind, rank):
    """The tower solve against one sparse rational solve per fiber: three
    seeds and degrees 0 to 4, and one target of mixed degree, up to rank
    3; one target at rank 4."""
    rs = RootSystem(kind, rank)
    rng = random.Random(17 * rank + ord(kind))
    if rank <= 3:
        targets = [seeded_random_class(rs, d, random.Random(seed))
                   for seed, d in ((0, 0), (1, 2), (2, 4), (3, 3))]
        targets.append(seeded_random_class(rs, 1, rng) + seeded_random_class(rs, 2, rng))
        assert degree_of(targets[-1]) is None
    else:
        targets = [seeded_random_class(rs, 3, rng)]
    for target in targets:
        assert express_in_basis(rs, target) == express_by_module_solve(rs, target)


def _shifted(target, v):
    """``target`` with 1 added to its value at vertex v: no longer a class."""
    values = list(target.values)
    values[v] = values[v] + Polynomial.one(target.graph.varcount)
    return CohClass(target.graph, values)


def test_express_names_the_first_remainder(b3):
    """A genuine class shifted by 1 at the identity fails the first
    divided difference of its bottom coset, x3 against -x3; shifted at
    s1 s2 it fails in that vertex's coset s1 s2 W({3}).  The oracle
    agrees that no polynomial coefficients exist."""
    target = seeded_random_class(b3, 2, random.Random(3))
    with pytest.raises(ValueError, match="^on level 3, over the coset of 1,2,3, the divided "
                                         "difference over x3 and -x3 leaves a remainder$"):
        express_in_basis(b3, _shifted(target, 0))
    flag = flag_graph(b3)
    w = b3.simple_reflection(1) * b3.simple_reflection(2)
    with pytest.raises(ValueError, match=rf"^on level 3, over the coset of {w.one_line_str()}, "):
        express_in_basis(b3, _shifted(target, flag.vertex_of(w)))
    assert express_by_module_solve(b3, _shifted(target, 0)) is None


def test_express_names_a_coefficient_that_is_not_a_base_class(a2):
    """x1^2 on the fiber W({2}) over the base point and 0 elsewhere: every
    fiber solves, but the coefficient of c[0,0] is x1^2 at the base point
    only, not a class on the base, and level 1's divided differences say
    so.  The fiber-by-fiber oracle solves it."""
    x1 = Polynomial.variable(3, 1)
    flag = flag_graph(a2)
    target = CohClass(flag.graph, [x1 * x1 if w.perm[0] == 1 else Polynomial.zero(3)
                                   for w in flag.reps])
    with pytest.raises(ValueError, match="^on level 1, over the coset of 1,2,3, the divided "
                                         "difference over x1 and x2 leaves a remainder$"):
        express_in_basis(a2, target)
    zero = Polynomial.zero(3)
    assert express_by_module_solve(a2, target)["c[0,0]"].values == (x1 * x1, zero, zero)


def test_express_cli_reports_a_remainder_as_a_failed_check(capsys, monkeypatch):
    """A target that is not a class is a failed check with its witness:
    exit 1, no traceback."""
    real = cli.schubert.seeded_random_class
    monkeypatch.setattr(cli.schubert, "seeded_random_class",
                        lambda rs, degree, rng: _shifted(real(rs, degree, rng), 0))
    code = cli.main(["express", "--type", "B", "--rank", "3"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines() == [
        "CHECK express-reassembly: FAIL on level 3, over the coset of 1,2,3, the "
        "divided difference over x3 and -x3 leaves a remainder"]
    assert "Traceback" not in out + err


# ----------------------------------------------------------------------
# basis verification


def test_verify_basis_a2_b2(a2, b2):
    assert verify_basis(a2).ok
    assert verify_basis(b2).ok


@pytest.mark.parametrize("kind", "ABCD")
def test_verify_basis_at_rank_5(kind):
    assert verify_basis(RootSystem(kind, 5)).ok


@pytest.mark.parametrize("kind,rank", [(k, n) for n in (7, 8) for k in "ABCD"])
def test_verify_basis_at_ranks_7_and_8_walks_no_whole_group(kind, rank, monkeypatch):
    """Each level graph has at most 2n vertices, and its representatives
    are walked, so no cached coset list is as long as W; "count" reads
    the level sizes and enumerates no index."""
    def refuse(*args):
        raise AssertionError("index_set called")

    monkeypatch.setattr(invbases, "index_set", refuse)
    rs = RootSystem(kind, rank)
    assert verify_basis(rs).ok
    assert all(len(reps) < rs.group_order() for reps in rs._parabolic_cache.values())


TOWER_GROUPS = [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3),
                ("C", 3), ("D", 3), ("A", 4), ("D", 4)]


@pytest.mark.parametrize("kind,rank", TOWER_GROUPS)
def test_verify_basis_matches_the_determinant_oracle(kind, rank):
    rs = RootSystem(kind, rank)
    got = [(c.name, c.passed, c.witness) for c in verify_basis(rs).checks]
    want = verify_basis_by_determinant(rs, basis_family(rs)).checks
    assert got == [(c.name, c.passed, c.witness) for c in want]


@pytest.mark.parametrize("kind,rank", TOWER_GROUPS)
def test_value_determinant_factors_along_the_tower(kind, rank):
    """|det M| = |det B|^|J| prod_p |det C_p| at the regular point: M on
    the flag graph, B on the base, C_p on the fiber over p."""
    rs = RootSystem(kind, rank)
    b = tower_bundle(rs)
    pt = [2**k for k in range(rs.varcount)]

    def det_at(classes, verts):
        return det_fraction([[c.values[v].evaluate(pt) for c in classes] for v in verts])

    fiber = [class_cI(rs, I) for I in invbases._fiber_indices(rs)]
    whole = det_at(basis_family(rs).classes, range(b.total.nvertices))
    base = det_at(_base_classes(rs), range(b.base.nvertices))
    fibers = math.prod(abs(det_at(fiber, verts)) for verts in b.fibers())
    assert abs(whole) == abs(base) ** len(fiber) * fibers != 0


def test_verify_basis_needs_no_class_check_and_no_flag_graph_determinant(b3, monkeypatch):
    """One determinant per level, of sizes 6, 4 and 2, and no
    ``coh_failure``: every member is a class by construction.  No bundle,
    no fiber class and no class on the flag graph is built."""
    def refuse(*args):
        raise AssertionError("called")

    sizes = []
    real = linalg.det_fraction
    for name in ("coh_failure", "tower_bundle", "invariant_class"):
        monkeypatch.setattr(invbases, name, refuse)
    monkeypatch.setattr(linalg, "det_fraction", lambda m: sizes.append(len(m)) or real(m))
    assert verify_basis(b3).ok
    assert sizes == [6, 4, 2]


def _tamper_level(monkeypatch, k, change):
    """Make ``tower_levels`` return level k as ``change(monos, classes)``."""
    real = invbases.tower_levels

    def tampered(rs):
        levels = real(rs)
        levels[k - 1] = change(*levels[k - 1])
        return levels

    monkeypatch.setattr(invbases, "tower_levels", tampered)


def _checks(rs):
    return {c.name: (c.passed, c.witness) for c in verify_basis(rs).checks}


def test_verify_basis_names_a_singular_base(a2, monkeypatch):
    """tau^1 replaced by tau^0: the base determinant vanishes, and the
    degrees no longer sum to the length sum of the base."""
    _tamper_level(monkeypatch, 1, lambda monos, classes: (monos, [classes[0]] * 2 + classes[2:]))
    checks = _checks(a2)
    singular = ("on level 1 the value determinant vanishes at (1, 2, 4); "
                "the classes are not a module basis there")
    assert checks["count"][0]
    assert checks["independence"] == (False, singular)
    assert checks["spanning"] == (False, singular)


def test_verify_basis_names_a_non_homogeneous_fiber_class(a2, monkeypatch):
    """w.x2 + 1 on level 2 keeps its determinant nonzero, so independence
    holds, but the certificate needs homogeneous members."""
    _tamper_level(monkeypatch, 2, lambda monos, classes: (monos, [classes[0], classes[1] + classes[0]]))
    checks = _checks(a2)
    assert checks["independence"] == (True, "")
    assert checks["spanning"] == (False, "w.x2 on level 2 is not homogeneous")


def test_verify_basis_names_a_level_with_the_wrong_count(a2, monkeypatch):
    """A level missing a class is not square: neither independence nor
    spanning holds, though the index set still has |W| members."""
    _tamper_level(monkeypatch, 2, lambda monos, classes: (monos[:1], classes[:1]))
    checks = _checks(a2)
    wrong = "level 2 has 2 vertices but 1 classes were given"
    assert checks["count"][0]
    assert checks["independence"] == (False, wrong)
    assert checks["spanning"] == (False, wrong)


def test_verify_basis_fails_count_on_a_short_level(a2, monkeypatch):
    """One exponent of level 2 dropped from the level owner: the level
    product has 3 members for a group of order 6, and level 2, now with
    one class on two vertices, is not square."""
    real = invbases._level_exponents

    def short(kind, n):
        levels = real(kind, n)
        levels[1] = levels[1][:1]
        return levels

    monkeypatch.setattr(invbases, "_level_exponents", short)
    checks = _checks(a2)
    wrong = "level 2 has 2 vertices but 1 classes were given"
    assert checks["count"] == (False, "3 classes for a group of order 6")
    assert checks["independence"] == (False, wrong)
    assert checks["spanning"] == (False, wrong)


def test_verify_basis_names_a_level_whose_degrees_do_not_sum(a2, monkeypatch):
    """(w.x2)^2 in place of w.x2 on level 2: the determinant x3^2 - x2^2
    does not vanish, but the degrees sum to 2, not to the one edge."""
    _tamper_level(monkeypatch, 2, lambda monos, classes: (monos, [classes[0], classes[1] * classes[1]]))
    checks = _checks(a2)
    assert checks["independence"] == (True, "")
    assert checks["spanning"] == (
        False, "class degrees sum to 2 but the Schubert lengths on level 2 sum to 1")


@pytest.mark.parametrize("kind,rank", [("B", 3), ("D", 4)])
def test_verify_basis_names_the_tampered_level(kind, rank, monkeypatch):
    """Class 0 copied over class 1 on one level: that level, and no other,
    is named, whichever level it is."""
    rs = RootSystem(kind, rank)
    for k in range(1, len(tower_levels(rs)) + 1):
        _tamper_level(monkeypatch, k, lambda monos, classes: (monos, classes[:1] * 2 + classes[2:]))
        checks = _checks(rs)
        assert not checks["independence"][0]
        assert checks["independence"][1].startswith(f"on level {k} the value determinant vanishes")
        assert checks["spanning"] == checks["independence"]
        monkeypatch.undo()


def test_verify_basis_detects_duplicates(a2):
    fam = basis_family(a2)
    broken = BasisFamily(a2, fam.indices,
                         [fam.classes[0]] + fam.classes[:1] + fam.classes[2:])
    rep = verify_basis_by_determinant(a2, broken)
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
    checks = {c.name: c for c in verify_basis_by_determinant(rs, fam).checks}
    assert checks["spanning"].passed == spanning_by_solves(rs, fam) == expected


def _tau_diagonal_at(rs, pt):
    """prod_w tau_w(w) at pt; tau_w(w) is the product of the inversions of w."""
    out = Fraction(1)
    for w in rs.elements():
        wi = w.inverse()
        for beta in rs.positive_roots:
            if wi.act_linear(beta) not in rs.positive_roots:
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
    rep = verify_basis_by_determinant(a2, BasisFamily(a2, fam.indices, classes))
    checks = {ch.name: ch for ch in rep.checks}
    assert not checks["spanning"].passed
    assert "c[1,0]" in checks["spanning"].witness
    assert c.graph.edge_str(bad) in checks["spanning"].witness


def test_verify_basis_non_homogeneous_member_fails_spanning(a2):
    fam = basis_family(a2)
    k = fam.indices.index((1, 0))
    classes = list(fam.classes)
    classes[k] = classes[k] + CohClass.constant(classes[k].graph, 1)
    rep = verify_basis_by_determinant(a2, BasisFamily(a2, fam.indices, classes))
    checks = {ch.name: ch for ch in rep.checks}
    assert not checks["spanning"].passed
    assert checks["spanning"].witness == "c[1,0] is not homogeneous"


def test_verify_basis_wrong_count_fails_every_check(a2):
    fam = basis_family(a2)
    short = BasisFamily(a2, fam.indices[:-1], fam.classes[:-1])
    rep = verify_basis_by_determinant(a2, short)
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
    checks = {c.name: c for c in verify_basis_by_determinant(a2, fam).checks}
    assert checks["independence"].passed
    assert not checks["spanning"].passed
    assert "vanishes at (1, 2, 4)" in checks["spanning"].witness


def test_dependence_outside_the_certificate_by_the_grid(a2, monkeypatch):
    """Classes with a degree excess of 2: det M vanishes on the 10-point grid."""
    c10 = class_cI(a2, (1, 0))
    fam = _replaced_a2_family(a2, {(0, 1): c10 * c10, (1, 0): c10 * c10})
    dets = []
    real = linalg.det_fraction
    monkeypatch.setattr(linalg, "det_fraction", lambda m: dets.append(1) or real(m))
    checks = {c.name: c for c in verify_basis_by_determinant(a2, fam).checks}
    assert len(dets) == 10
    assert not checks["independence"].passed
    assert checks["independence"].witness.endswith(
        "degree at most 2, and it vanishes on the 10-point regular grid")
    assert not checks["spanning"].passed


def test_dependence_inside_the_certificate_is_read_at_one_point(a2, monkeypatch):
    """Every premise holds and det vanishes at the regular point: det M = 0."""
    fam = _replaced_a2_family(a2, {(0, 1): class_cI(a2, (1, 0))})
    dets = []
    real = linalg.det_fraction
    monkeypatch.setattr(linalg, "det_fraction", lambda m: dets.append(1) or real(m))
    checks = {c.name: c for c in verify_basis_by_determinant(a2, fam).checks}
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
    checks = {c.name: c for c in verify_basis_by_determinant(a2, fam).checks}
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
    checks = {c.name: c for c in verify_basis_by_determinant(a2, independent).checks}
    assert checks["independence"].passed
    assert "c[1,0] fails the class condition" in checks["spanning"].witness
    dependent = _replaced_a2_family(a2, {(0, 1): tampered, (1, 0): tampered})
    checks = {c.name: c for c in verify_basis_by_determinant(a2, dependent).checks}
    assert not checks["independence"].passed
    assert checks["independence"].witness == (
        "the value determinant is a polynomial of degree at most 9, "
        "and it vanishes on the 220-point regular grid")


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
    rep = check_bases_over_invariants(a2, max_degree=4)
    assert rep.ok, rep.summary()
    rep = check_bases_over_invariants(d3, max_degree=4)
    assert rep.ok, rep.summary()


def test_bases_over_invariants_detects_bad_family(a2, monkeypatch):
    """x1^2 of level 1 replaced by a second x1 in the level owner: the
    indices (1, j) come twice and (2, j) never, so from degree 1 on the
    vectors are too many and do not span."""
    real = invbases._level_exponents

    def doubled(kind, n):
        levels = real(kind, n)
        levels[0][2] = levels[0][1]
        return levels

    monkeypatch.setattr(invbases, "_level_exponents", doubled)
    checks = check_bases_over_invariants(a2, max_degree=4).checks
    assert [c.passed for c in checks] == [True, False, False, False, False]
    assert checks[1].witness == "rank 3, 4 vectors, dimension 3"
    assert checks[2].witness == "rank 5, 7 vectors, dimension 6"


@pytest.mark.parametrize("kind,rank", [(k, n) for k in "ABC" for n in range(1, 7)]
                         + [("D", n) for n in range(2, 7)])
def test_degree_bounded_indices_are_the_low_part_of_the_index_set(kind, rank):
    """The indices that ``check_bases_over_invariants`` builds, extended
    one level at a time with every partial sum above d dropped, are the
    members of degree at most d of the whole index set."""
    levels = invbases._level_exponents(kind, rank)
    for d in range(7):
        assert invbases._level_sums(rank, levels, d) == [
            I for I in index_set(kind, rank) if sum(I) <= d]


@pytest.mark.parametrize("n", range(2, 10))
def test_type_d_ends_with_the_generic_level(n):
    """The generic type-D level at k = n - 1 is 1, x_{n-1}, x_{n-1}^2 and x_n."""
    def power(i, j):
        return tuple(j if k == i else 0 for k in range(1, n + 1))

    levels = invbases._level_exponents("D", n)
    assert len(levels) == n - 1
    assert levels[-1] == [power(n - 1, 0), power(n - 1, 1), power(n - 1, 2), power(n, 1)]


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
    classes = _base_classes(a2)
    mat = [[c.values[p].evaluate([1, 2, 4]) for c in classes]
           for p in range(b.base.nvertices)]
    det = det_fraction(mat)
    assert abs(det) == 6


def test_class_cI_invariance_rank3_exhaustive(a3):
    for I in index_set("A", 3):
        c = class_cI(a3, I)
        for w in a3.elements():
            assert permuted_class(a3, c, w) == c


@pytest.mark.parametrize("kind,rank", [("A", 3), ("C", 3), ("D", 4)])
def test_iterated_family_rank3(kind, rank):
    """Every entry, the type-D eta rule included, is the closed-form class."""
    rs = RootSystem(kind, rank)
    fam = iterated_family(rs)
    assert sorted(fam) == index_set(kind, rank)
    for I in index_set(kind, rank):
        assert fam[I] == class_cI(rs, I), I
