"""Invariant-class module bases from iterated fiber bundles.

For each classical type the full flag graph fibers over a small base
(a complete graph for types A, B, C; the complete multipartite graph
K_2^n for type D) with the flag graph of the next-lower rank as fiber.
The cohomology of the base is free on powers of the tautological
degree-one class tau (type D adds eta, the product of all coordinates
divided by tau); a holonomy-invariant basis of the fiber extends to
global classes; products of the two give a free module basis of the
cohomology of the total space.  Iterating downward produces the families

    A_n: indices [i_1..i_n],   0 <= i_k <= n+1-k
    B_n, C_n:                  0 <= i_k <= 2(n-k)+1
    D_n: the inductive set seeded by {[0,0],[1,0],[2,0],[0,1]}

whose classes are simply c_I = c_T(x^I), the invariant class with value
u . x^I at u.  These families are derived, not spelled out: each is
the sums of one exponent vector per level of the tower
(``_level_exponents``), and the rank n - 1 family of the fiber is the
sums over levels 2 and up.  The closed form is the production path;
the literal iteration (carry a fiber basis along a spanning tree of the
base, checking holonomy invariance on every non-tree edge, lift base
classes, multiply) is built too and compared against it, which pins
down every sign convention.

``tower_levels`` gives each level of that iteration as one small coset
graph, with at most 2n vertices, and its classes: level 1 is the base of
``tower_bundle`` with the powers of tau (and eta).  One certificate,
``_basis_failures``, proves that classes on one such graph are a module
basis: homogeneous members whose degrees sum to the length sum of its
Schubert classes, and a nonzero value determinant at the regular point
(1, 2, 4, ...).  No solve is needed, because the Schubert classes are a
free basis.  ``verify_basis`` is the graph Leray-Hirsch theorem applied
down the tower, one certificate per level, so no determinant has more
than 2n rows and no class on the flag graph is built.
``express_in_basis`` is the constructive decomposition of an arbitrary
class over the tower bundle, the graph Leray-Serre theorem made
explicit: the certificates of levels 2 and up prove that the fiber
classes (``fiber_family``) restrict to a module basis on every fiber,
and then one degree-wise sparse rational solve per fiber
(``linalg.solve_module_coeffs``) gives the base coefficients, which are
themselves classes on the base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, prod
from operator import add

from . import linalg
from .gkmgraph import CohClass, Report, coh_failure, degree_of
from .parabolic import (
    BundleMap,
    build_bundle,
    build_coset_graph,
    lift_class,
    tree_transport,
    typical_fiber,
)
from .polyring import Polynomial
from .rootsys import RootSystem
from .schubert import invariant_class

__all__ = [
    "index_set",
    "BasisFamily",
    "basis_family",
    "fiber_family",
    "class_cI",
    "tower_bundle",
    "tower_levels",
    "extend_invariant",
    "fiber_invariant_classes",
    "iterated_family",
    "express_in_basis",
    "verify_basis",
    "basis_report_json",
    "check_d3_descriptions",
    "invariant_generators",
    "check_bases_over_invariants",
]


# ----------------------------------------------------------------------
# index sets


def _level_exponents(kind: str, n: int):
    """[exponent vectors] for each level of the tower, level 1 first; each
    vector has length n.  Level k holds the powers x_k^j: n + 2 - k of
    them in type A, 2(n - k + 1) in types B and C, and 2(n - k) + 1 in
    type D, which adds x_{k+1} ... x_n.  The levels of type D stop at
    n - 2, and its bottom level, on W({n-1, n}), holds 1, x_{n-1},
    x_{n-1}^2 and x_n.  Every index family and every level class of this
    module is read from this list."""
    if kind not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown type {kind!r}")
    least = 2 if kind == "D" else 1
    if n < least:
        raise ValueError(f"need n >= {least}")

    def power(k, j):
        return tuple(j if i == k else 0 for i in range(1, n + 1))

    levels = []
    for k in range(1, n - 1 if kind == "D" else n + 1):
        count = {"A": n + 2 - k, "D": 2 * (n - k) + 1}.get(kind, 2 * (n - k + 1))
        levels.append([power(k, j) for j in range(count)])
        if kind == "D":
            levels[-1].append(tuple(int(i > k) for i in range(1, n + 1)))
    if kind == "D":
        levels.append([power(n - 1, 0), power(n - 1, 1), power(n - 1, 2), power(n, 1)])
    return levels


def _level_sums(n: int, levels):
    """The sums of one vector per level of ``levels`` (vectors of length n), sorted."""
    return sorted(tuple(map(sum, zip((0,) * n, *vectors)))
                  for vectors in itertools.product(*levels))


def index_set(kind: str, n: int):
    """The multi-index family of one classical type, in lexicographic
    order: the sums of one exponent vector per level of the tower."""
    return _level_sums(n, _level_exponents(kind.upper(), n))


def _index_monomial(rs: RootSystem, I) -> Polynomial:
    if len(I) != rs.rank:
        raise ValueError("index length must equal the rank")
    exps = list(I) + [0] * (rs.varcount - len(I))
    return Polynomial.monomial(rs.varcount, exps)


def class_cI(rs: RootSystem, I) -> CohClass:
    """The invariant class c_T(x^I) on the full flag graph."""
    return invariant_class(rs, _index_monomial(rs, I))


@dataclass
class BasisFamily:
    rs: RootSystem
    indices: list
    classes: list  # CohClass per index, same order

    def names(self):
        return ["c[" + ",".join(map(str, I)) + "]" for I in self.indices]


def basis_family(rs: RootSystem) -> BasisFamily:
    indices = index_set(rs.kind, rs.rank)
    return BasisFamily(rs, indices, [class_cI(rs, I) for I in indices])


def _fiber_indices(rs: RootSystem):
    """The indices (0,) + J for J in the index set of rank n - 1: the sums
    of one exponent vector per level from level 2 on."""
    return _level_sums(rs.rank, _level_exponents(rs.kind, rs.rank)[1:])


def fiber_family(rs: RootSystem) -> BasisFamily:
    """The classes c_{(0,J)} for J in the index set of rank n - 1.  On the
    fiber of :func:`tower_bundle` over [r] they are the rank n - 1 family
    moved by r: the fiber classes of the tower."""
    indices = _fiber_indices(rs)
    return BasisFamily(rs, indices, [class_cI(rs, I) for I in indices])


# ----------------------------------------------------------------------
# the tower of flag bundles and its levels


def tower_bundle(rs: RootSystem) -> BundleMap:
    """The bundle over the quotient by all simple roots but the first."""
    sigma2 = rs.full_sigma() - {1}
    return build_bundle(rs, frozenset(), sigma2)


def tower_levels(rs: RootSystem):
    """[(monomials, classes)] for each level of the tower, level 1 first.

    Let S_k = Delta - {1..k}.  Level k, for 1 <= k <= n (up to n - 2 in
    type D), is the coset graph W(S_{k-1})/W(S_k), and its classes are
    [w] -> w . m for the monomials m of ``_level_exponents``, one per
    vertex: the powers 1, x_k, x_k^2, ... of x_k, plus x_{k+1} ... x_n
    in type D.  Type D ends with the flag graph of W({n-1, n}) and the
    monomials 1, x_{n-1}, x_{n-1}^2, x_n.  Level 1 is the base
    of :func:`tower_bundle`, the same cached graph, and its classes are
    the powers of tau([w]) = w . x1, plus eta([w]) = w . (x2 ... xn) in
    type D.

    The classes are not checked, because each one is a class by proof.
    W(S_k) permutes x_{k+1}, x_{k+2}, ... (in types B and C with any
    signs, in type D with an even number of them) and fixes x_k, so it
    fixes every m (the type-D bottom divides by the trivial group), and
    w . m does not depend on the representative of [w].  Across the edge ([w], [w s_beta]), labeled w beta, the two
    values differ by w . (m - s_beta m), and beta divides m - s_beta m.
    """
    out = []
    for sigma1, sigma2, monos in _level_monomials(rs):
        coset = build_coset_graph(rs, sigma1, sigma2)
        out.append((monos, [CohClass(coset.graph, [w.act_poly(mono) for w in coset.reps])
                            for mono in monos]))
    return out


def _level_monomials(rs: RootSystem):
    """[(S_k, S_{k-1}, monomials)] for each level of :func:`tower_levels`,
    the monomials x^e for the vectors e of ``_level_exponents``; the last
    level's S_k is empty."""
    levels = _level_exponents(rs.kind, rs.rank)
    chain = [frozenset(range(k + 1, rs.rank + 1)) for k in range(len(levels))]
    chain.append(frozenset())
    return [(chain[k], chain[k - 1], [_index_monomial(rs, e) for e in vectors])
            for k, vectors in enumerate(levels, 1)]


# ----------------------------------------------------------------------
# extension of holonomy-invariant fiber classes


def extend_invariant(b: BundleMap, fiber_class: CohClass,
                     base_point: int = 0) -> CohClass:
    """Extend a holonomy-invariant class f on the typical fiber to the total.

    :func:`parabolic.tree_transport` gives T_q r, the transport of the
    typical fiber onto the fiber over q along the spanning tree, and the
    holonomy h of every loop "tree path, non-tree edge, tree path back".
    The extension has value (T_q r) . f(u) at [T_q r u].  Carrying the
    values across a non-tree edge must agree with the tree values at its
    head, which reads h . f = f: f([h u]) = h . f(u) for every u.  Those
    loops generate the fundamental group of the base, so the extension
    exists iff that holds for each h of ``tree_transport``; a failing
    loop is named in the ValueError by its non-tree edge, and so is the
    typical-fiber edge of an input that is not a class there (checked
    after the loops, so a non-invariant input is named by its loop).

    The result is then a class by construction and is not re-checked.
    Horizontal edges: across an edge labeled gamma the value at
    [s_gamma x] is s_gamma g for the value g at x (on the tree by
    construction, elsewhere by h . f = f), and gamma divides
    s_gamma g - g.  Vertical edges: the fiber over q is the image of the
    typical fiber, values included, under left multiplication by T_q r,
    a GKM isomorphism.
    """
    if b.rs is None:
        raise ValueError("extension needs a coset bundle")
    fib = typical_fiber(b)
    values = fiber_class.values
    if len(values) != fib.nvertices:
        raise ValueError("class does not live on the typical fiber")
    transports, generators = tree_transport(b, base_point)
    for beid, _, h in generators:
        if any(values[fib.vertex_of(h * u)] != h.act_poly(value)
               for u, value in zip(fib.reps, values)):
            raise ValueError(
                f"class is not holonomy invariant; violated by the loop "
                f"through {b.base.edge_str(beid)}"
            )
    bad = coh_failure(CohClass(fib.graph, values))
    if bad is not None:
        raise ValueError("input is not a class on the typical fiber; fails at "
                         + fib.graph.edge_str(bad))
    vals = [None] * b.total.nvertices
    for g in transports.values():
        for u, value in zip(fib.reps, values):
            vals[b.total_coset.vertex_of(g * u)] = g.act_poly(value)
    return CohClass(b.total, vals)


def fiber_invariant_classes(b: BundleMap):
    """[(J, class)]: the lower-rank invariant family realized on the
    typical fiber.

    Fiber coordinates are the ambient ones shifted by one, so the index
    [j_1..j_{n-1}] becomes the monomial x2^{j_1} ... xn^{j_{n-1}}, the
    monomial of (0,) + J.
    """
    fib = typical_fiber(b)
    out = []
    for I in _fiber_indices(b.rs):
        mono = _index_monomial(b.rs, I)
        out.append((I[1:], CohClass(fib.graph, [u.act_poly(mono) for u in fib.reps])))
    return out


def iterated_family(rs: RootSystem) -> dict:
    """Build the invariant family literally through the fiber bundle.

    Extends the holonomy-invariant fiber family through transport, lifts
    the base classes, and multiplies, reproducing the closed-form family
    index by index: the class at e + (0,) + J, for e a vector of level 1,
    is the lift of the base class of e times the extension of the fiber
    class of J.  In type D, eta's vector (0, 1, ..., 1) gives (0, J + 1).
    """
    b = tower_bundle(rs)
    lifted = [lift_class(b, bc) for bc in tower_levels(rs)[0][1]]
    base = _level_exponents(rs.kind, rs.rank)[0]
    out = {}
    for J, fc in fiber_invariant_classes(b):
        ext = extend_invariant(b, fc)
        for e, lift in zip(base, lifted):
            out[tuple(map(add, e, (0,) + J))] = lift * ext
    return out


# ----------------------------------------------------------------------
# expressing classes over a bundle


def express_in_basis(b: BundleMap, target: CohClass) -> dict:
    """Solve target == sum_k pi^*(beta_k) * c_k fiber by fiber, for the
    classes c_k of ``fiber_family`` on ``tower_bundle``; return
    {name of c_k: beta_k}, the coefficients as classes on the base.

    Precondition: ``target`` is a class on the total graph of ``b``.  The
    fiber classes restrict to a module basis on every fiber iff they do
    on the typical fiber (see :func:`verify_basis`), which is the flag
    graph of level 2; the certificates of levels 2 and up prove that, or
    the first witness is raised as ValueError.
    ``linalg.solve_module_coeffs`` then finds the unique polynomial
    coefficients on every fiber one degree at a time, and checks
    sum_k beta_k * c_k == target exactly at every vertex of the fiber
    before it returns; every total vertex lies in one fiber.
    """
    rs = b.rs
    if rs is None:
        raise ValueError("expressing over a bundle needs Weyl-group data")
    if (b.sigma1, b.sigma2) != (frozenset(), rs.full_sigma() - {1}):
        raise ValueError("expressing needs the tower bundle of its root system")
    bad = _level_failures(tower_levels(rs), first=2)
    if bad:
        raise ValueError(bad[0][1])
    fam = fiber_family(rs)
    nbase = b.base.nvertices
    beta_vals = [[None] * nbase for _ in fam.classes]
    for p, fverts in enumerate(b.fibers()):
        columns = [[c.values[v] for v in fverts] for c in fam.classes]
        sol = linalg.solve_module_coeffs(
            columns, [target.values[v] for v in fverts], b.total.varcount)
        if sol is None:
            raise AssertionError(
                f"no polynomial coefficients on the fiber over "
                f"{b.base.vertices[p]} although the fiber classes passed the "
                f"basis certificate"
            )
        for k, val in enumerate(sol):
            beta_vals[k][p] = val
    betas = {}
    for name, vals in zip(fam.names(), beta_vals):
        c = CohClass(b.base, vals)
        bad = coh_failure(c)
        if bad is not None:
            raise AssertionError(
                f"the coefficient of {name} is not a class on the base; fails at "
                f"{b.base.edge_str(bad)}"
            )
        betas[name] = c
    return betas


# ----------------------------------------------------------------------
# the module-basis certificate


def _basis_failures(classes, names, label: str) -> dict:
    """{premise: witness} for each failing premise of the module-basis
    certificate, in this order; {} proves that ``classes`` (named by
    ``names``) are a module basis on their graph (called ``label`` in the
    witnesses).

    * "count": the graph has one vertex per class;
    * "homogeneity": every member is homogeneous (``degree_of``);
    * "determinant": the value matrix M (vertices x classes) is
      nonsingular at the regular point (1, 2, 4, ...), where no root
      x_i -+ x_j, x_i, 2 x_i vanishes;
    * "degree-sum": the halved degrees sum to the number of edges, the
      length sum of the graph's Schubert classes.

    Then M = S.B with S the Schubert value matrix, det S = prod_u
    tau_u(u) of that degree, and det B a nonzero constant.  A wrong count
    ends the check; every other premise is evaluated, so a caller sees
    whether the determinant is the only failure.
    """
    graph = classes[0].graph
    if graph.nvertices != len(classes):
        return {"count": f"{label} has {graph.nvertices} vertices but "
                         f"{len(classes)} classes were given"}
    out = {}
    degrees = [degree_of(c) for c in classes]
    if None in degrees:
        out["homogeneity"] = f"{names[degrees.index(None)]} is not homogeneous"
    pt = [2 ** i for i in range(graph.varcount)]
    if linalg.det_fraction([[c.values[v].evaluate(pt) for c in classes]
                            for v in range(graph.nvertices)]) == 0:
        out["determinant"] = (
            f"on {label} the value determinant vanishes at "
            f"({', '.join(map(str, pt))}); the classes are not a module "
            f"basis there")
    if "homogeneity" not in out:
        degree_sum, length_sum = sum(degrees) // 2, len(graph.edges) // 2
        if degree_sum != length_sum:
            out["degree-sum"] = (f"class degrees sum to {degree_sum} but the "
                                 f"Schubert lengths on {label} sum to {length_sum}")
    return out


def _level_failures(levels, first: int = 1):
    """[(premise, witness)] of ``_basis_failures`` on each of ``levels``
    (from :func:`tower_levels`) from level ``first`` on, in level order."""
    bad = []
    for k, (monos, classes) in enumerate(levels[first - 1:], first):
        bad += _basis_failures(classes, [f"w.{mono} on level {k}" for mono in monos],
                               f"level {k}").items()
    return bad


# ----------------------------------------------------------------------
# basis verification


def verify_basis(rs: RootSystem) -> Report:
    """Count, independence and spanning of ``basis_family(rs)``, proved by
    the graph Leray-Hirsch theorem down the tower, one certificate per
    level of :func:`tower_levels`; "count" compares the size of the index
    set, the product of the level sizes, with |W|.

    Let G_k be the flag graph of W(S_{k-1}), so G_1 is the flag graph of
    W, with the classes w . x^I for the sums I of one exponent vector per
    level from k on.  G_k fibers over level k, and the fiber over [r] is
    r G_{k+1}, the vertices r u for u in W(S_k).  At w = r u the value
    w . x^I, for I = e + J with e from level k and J from the levels
    above, is (r . x^e) times r . (u . x^J): the lift of a level-k class
    times the class of G_{k+1} carried to the fiber over [r] by left
    multiplication by r.  That is a GKM isomorphism from G_{k+1} onto the
    fiber (its linear part is r acting on coordinates), and it carries
    the classes of G_{k+1} along with their values, so they restrict to a
    module basis on every fiber iff they are one on G_{k+1}.  The
    theorem: if the level-k classes are a module basis of level k and the
    fiber classes restrict to a module basis on every fiber, the products
    are a module basis of G_k.  The last level is its own G_k, with
    one-vertex fibers, so by induction down to G_1 the family is a module
    basis if every level passes ``_basis_failures``.  ``index_set`` is
    these sums by construction, and each member is a class by
    construction, so no class condition is checked.  Spanning
    holds iff no level fails, and the first failing premise, from level 1
    up, is the witness.

    Independence reads the level determinants alone.  Group the rows of
    the value matrix M of G_k by fiber and its columns by fiber class;
    then M = diag_[r](C_r) (B (x) 1), so det M = +-det B^|J| prod_[r]
    det C_r, with B the level-k matrix and C_r the matrix of G_{k+1}
    moved by r, whose determinant is det C moved by r.  So det M is a
    nonzero polynomial iff every level determinant is, and a nonzero
    value at the regular point proves it.  When a level determinant
    vanishes there and the other premises hold, it is a constant times
    the level's Schubert determinant and vanishes identically, and so
    does det M.  A level with the wrong count is not square, and fails
    independence too.
    """
    size = prod(map(len, _level_exponents(rs.kind, rs.rank)))
    order = rs.group_order()
    rep = Report()
    rep.add("count", size == order, f"{size} classes for a group of order {order}")
    bad = _level_failures(tower_levels(rs))
    singular = [witness for premise, witness in bad if premise in ("count", "determinant")]
    rep.add("independence", not singular, singular[0] if singular else "")
    rep.add("spanning", not bad, bad[0][1] if bad else "")
    return rep


# ----------------------------------------------------------------------
# bases of the polynomial ring over the invariants


def _elementary_symmetric(polys, k: int, varcount: int) -> Polynomial:
    out = Polynomial.zero(varcount)
    for combo in itertools.combinations(polys, k):
        term = Polynomial.one(varcount)
        for p in combo:
            term = term * p
        out = out + term
    return out


def basis_report_json(rep: Report) -> dict:
    """{"independent": ..., "spanning": ..., "witness": ...} for a basis report."""
    by_name = {c.name: c for c in rep.checks}
    witness = ""
    for c in rep.checks:
        if not c.passed:
            witness = c.witness or c.name
            break
    return {
        "independent": by_name["independence"].passed if "independence" in by_name else None,
        "spanning": by_name["spanning"].passed if "spanning" in by_name else None,
        "witness": witness,
    }


def check_d3_descriptions() -> Report:
    """Reconcile the two descriptions of the 24-element type-D3 index set.

    The inductive rule and the explicit one (entries capped at 4, 2, 1
    with a vanishing product, plus [0,1,2] and [0,3,1]) must enumerate
    the same set; any discrepancy is reported rather than resolved.
    """
    recursive = set(index_set("D", 3))
    explicit = {
        (i1, i2, i3)
        for i1 in range(5) for i2 in range(3) for i3 in range(2)
        if i1 * i2 * i3 == 0
    } | {(0, 1, 2), (0, 3, 1)}
    rep = Report()
    diff = recursive.symmetric_difference(explicit)
    rep.add("d3-descriptions-agree", not diff,
            f"symmetric difference {sorted(diff)}" if diff else "")
    return rep


def invariant_generators(rs: RootSystem):
    """Fundamental invariants of the group action, per type.

    A: elementary symmetric polynomials of the variables; B, C: the same
    in the squared variables; D: squared-variable symmetrics with the top
    one replaced by the product of all variables.
    """
    m = rs.varcount
    xs = [Polynomial.variable(m, i) for i in range(1, m + 1)]
    if rs.kind == "A":
        return [_elementary_symmetric(xs, k, m) for k in range(1, m + 1)]
    sq = [x * x for x in xs]
    if rs.kind in ("B", "C"):
        return [_elementary_symmetric(sq, k, m) for k in range(1, m + 1)]
    gens = [_elementary_symmetric(sq, k, m) for k in range(1, m)]
    prod = Polynomial.one(m)
    for x in xs:
        prod = prod * x
    gens.append(prod)
    return gens


def _invariant_monomials(gens, degree: int, varcount: int):
    """Products of the generators with total degree exactly ``degree``."""
    degs = [g.homogeneous_degree() for g in gens]
    out = []

    def recurse(i, remaining, acc):
        if remaining == 0:
            out.append(acc)
            return
        if i == len(gens):
            return
        recurse(i + 1, remaining, acc)
        if degs[i] <= remaining:
            recurse(i, remaining - degs[i], acc * gens[i])

    recurse(0, degree, Polynomial.one(varcount))
    return out


def check_bases_over_invariants(rs: RootSystem, indices, max_degree: int = 6) -> Report:
    """Degree by degree: do {g * x^I} span the polynomials of that degree?"""
    rep = Report()
    gens = invariant_generators(rs)
    m = rs.varcount
    monos = {I: _index_monomial(rs, I) for I in indices}
    for d in range(max_degree + 1):
        vectors = []
        for I in indices:
            dI = sum(I)
            if dI > d:
                continue
            for g in _invariant_monomials(gens, d - dI, m):
                vectors.append(g * monos[I])
        dim = comb(d + m - 1, m - 1)
        support = linalg.monomials_of_degree(m, d)
        rank = linalg.rank_fraction(
            [[v.terms.get(e, 0) for e in support] for v in vectors])
        ok = rank == dim and len(vectors) == dim
        rep.add(
            f"degree-{d}", ok,
            "" if ok else f"rank {rank}, {len(vectors)} vectors, dimension {dim}",
        )
    return rep
