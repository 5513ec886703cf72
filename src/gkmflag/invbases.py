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
class over the base of the tower bundle, the graph Leray-Serre theorem
made explicit, and the same factorisation solves it: on each coset of
W(S_{k-1}) the coordinates at level k are a polynomial in the node
r . x_k, one coefficient per node, so Newton's divided differences find
them by exact divisions by differences of nodes (in type D after one
multiplication by the node, which turns x_{k+1} ... x_n into a constant
term).  Down the tower, the coefficients on the base come out with no
bundle, no fiber class and no linear solve, and a division with a
remainder is the witness that the target is not a class.  Both the
proof and the solve read the levels and the chain of simple-root sets
they divide from one owner, ``_tower``.
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
)
from .polyring import LinearForm, Polynomial
from .rootsys import RootSystem
from .schubert import flag_graph, invariant_class

__all__ = [
    "index_set",
    "BasisFamily",
    "basis_family",
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
    n - 1, whose level, on W({n-1, n}), holds 1, x_{n-1}, x_{n-1}^2 and
    x_n.  Every index family and every level class of this module is read
    from this list."""
    if kind not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown type {kind!r}")
    least = 2 if kind == "D" else 1
    if n < least:
        raise ValueError(f"need n >= {least}")

    def power(k, j):
        return tuple(j if i == k else 0 for i in range(1, n + 1))

    levels = []
    for k in range(1, n if kind == "D" else n + 1):
        count = {"A": n + 2 - k, "D": 2 * (n - k) + 1}.get(kind, 2 * (n - k + 1))
        levels.append([power(k, j) for j in range(count)])
        if kind == "D":
            levels[-1].append(tuple(int(i > k) for i in range(1, n + 1)))
    return levels


def _level_sums(n: int, levels, max_degree=None):
    """The sums of one vector per level of ``levels`` (vectors of length n),
    sorted; with ``max_degree``, only those of degree at most it.  The sums
    are extended one level at a time, and as every vector is nonnegative a
    partial sum above ``max_degree`` is dropped at once."""
    sums = [(0,) * n]
    for vectors in levels:
        sums = [s for s in (tuple(map(add, t, e)) for t in sums for e in vectors)
                if max_degree is None or sum(s) <= max_degree]
    return sorted(sums)


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


# ----------------------------------------------------------------------
# the tower of flag bundles and its levels


def tower_bundle(rs: RootSystem) -> BundleMap:
    """The bundle over the quotient by all simple roots but the first."""
    sigma2 = rs.full_sigma() - {1}
    return build_bundle(rs, frozenset(), sigma2)


def tower_levels(rs: RootSystem):
    """[(monomials, classes)] for each level of the tower, level 1 first.

    Let S_k = Delta - {1..k} (:func:`_tower`).  Level k, for 1 <= k <= n
    (up to n - 1 in type D), is the coset graph W(S_{k-1})/W(S_k), and
    its classes are [w] -> w . m for the monomials m of
    ``_level_exponents``, one per vertex: the powers 1, x_k, x_k^2, ...
    of x_k, plus x_{k+1} ... x_n in type D.  Type D ends with the flag
    graph of W({n-1, n}), S_{n-1} being empty, and the monomials 1,
    x_{n-1}, x_{n-1}^2, x_n.  Level 1 is the base
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


def _tower(rs: RootSystem):
    """[(S_k, S_{k-1}, exponent vectors)] for each level k of the tower,
    level 1 first: S_k = Delta - {1..k}, except that the last S_k is empty
    (in type D the levels stop at n - 1, where W({n-1, n}) is divided by
    the trivial group), and the vectors of ``_level_exponents``."""
    levels = _level_exponents(rs.kind, rs.rank)
    chain = [frozenset(range(k + 1, rs.rank + 1)) for k in range(len(levels))]
    chain.append(frozenset())
    return [(chain[k], chain[k - 1], vectors) for k, vectors in enumerate(levels, 1)]


def _level_monomials(rs: RootSystem):
    """[(S_k, S_{k-1}, monomials)] for each level of :func:`tower_levels`:
    the monomials x^e for the vectors e of :func:`_tower`."""
    return [(sigma, above, [_index_monomial(rs, e) for e in vectors])
            for sigma, above, vectors in _tower(rs)]


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
    rs, full = b.rs, b.rs.full_sigma()
    fib = build_coset_graph(rs, b.sigma1, b.sigma2)
    values = fiber_class.values
    if len(values) != fib.nvertices:
        raise ValueError("class does not live on the typical fiber")
    transports, generators = tree_transport(build_coset_graph(rs, b.sigma2, full), base_point)
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
    total = build_coset_graph(rs, b.sigma1, full)
    vals = [None] * b.total.nvertices
    for g in transports.values():
        for u, value in zip(fib.reps, values):
            vals[total.vertex_of(g * u)] = g.act_poly(value)
    return CohClass(b.total, vals)


def fiber_invariant_classes(b: BundleMap):
    """[(J, class)]: the lower-rank invariant family realized on the
    typical fiber.

    Fiber coordinates are the ambient ones shifted by one, so the index
    [j_1..j_{n-1}] becomes the monomial x2^{j_1} ... xn^{j_{n-1}}, the
    monomial of (0,) + J.
    """
    fib = build_coset_graph(b.rs, b.sigma1, b.sigma2)
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
# expressing classes down the tower


def express_in_basis(rs: RootSystem, target: CohClass) -> dict:
    """Solve target == sum_J pi^*(beta_J) * c_(0,J) over the base of
    :func:`tower_bundle`, the graph Leray-Serre decomposition made
    explicit, for J in the index set of rank n - 1; return
    {"c[0,J]": beta_J}, the coefficients as classes on the base, level 1
    of :func:`tower_levels`.

    ``target`` must be a class on the flag graph of ``rs``.  The
    certificates of levels 2 and up prove that the c_(0,J) restrict to a
    module basis on every fiber (see :func:`verify_basis`), so the beta_J
    are unique, or the first witness is raised as ValueError.
    ``_coordinates`` solves down the tower: beta_J at the base vertex [r]
    is the coordinate of J on the coset r W(S_1).  It divides exactly at
    every step, so the result reassembles to the target by construction.
    Level 1 runs only the divided differences, as only the beta_J are
    returned: their exact divisions make each beta_J a polynomial
    combination of the base classes of level 1, so a class on the base.
    A division with a remainder is raised as ValueError naming the level,
    the coset and the node pair: the target is then not a class.
    """
    flag = flag_graph(rs)
    if target.graph is not flag.graph:
        raise ValueError(f"the target is not a class on the flag graph of {rs.kind}{rs.rank}")
    bad = _level_failures(tower_levels(rs), first=2)
    if bad:
        raise ValueError(bad[0][1])
    tower = _tower(rs)
    base = build_coset_graph(rs, tower[0][0], tower[0][1])
    value = dict(zip(flag.reps, target.values)).__getitem__
    fibers = [_coordinates(rs, tower, value, 2, r) for r in base.reps]
    _level_differences(rs, tower, 1, rs.identity(), fibers)  # raises unless each beta_J is a class
    return {"c[" + ",".join(map(str, J)) + "]": CohClass(base.graph, [f[J] for f in fibers])
            for J in _fiber_indices(rs)}


def _coordinates(rs, tower, value, k: int, w) -> dict:
    """{I: C_I} with value(w u) == sum_I C_I * (w u) . x^I for every u in
    W(S_{k-1}), I over the sums of one vector per level from k on
    (:func:`_tower`): the coordinates of the class ``value`` on the coset
    w W(S_{k-1}), found level by level."""
    if k > len(tower):
        return {(0,) * rs.rank: value(w)}
    fibers = [_coordinates(rs, tower, value, k + 1, w * r)
              for r in rs.coset_reps(tower[k - 1][0], tower[k - 1][1])]
    return _level_coordinates(rs, tower, k, w, fibers)


def _level_coordinates(rs, tower, k: int, w, fibers) -> dict:
    """Level k of :func:`_coordinates`, from the coordinates of each coset
    w r W(S_k), r a representative of level k, over the levels above.

    With u = r u', u' in W(S_k) fixes x^e for e of level k, so
    (w u) . x^(e+J) = a_r^j * (w r u') . x^J for e = x_k^j and the node
    a_r = (w r) . x_k.  The coordinate d_r of J on the coset w r W(S_k)
    is then sum_j C_(e+J) a_r^j, a polynomial in the node with one
    coefficient per node: Newton's divided differences over the nodes
    find them.  In type D the last vector e is x_{k+1} ... x_n, and
    (w r) . x^e = P / a_r with P = w . (x_k ... x_n), fixed by W(S_{k-1});
    so a_r d_r is a polynomial in a_r whose constant coefficient is
    C_(e+J) P, divisible by P as it is a_r (d_r - ...) for every node
    +-w . x_i, i >= k, and whose other coefficients shift down by one.
    """
    nodes, tables = _level_differences(rs, tower, k, w, fibers)
    out = {}
    for J, table in tables.items():
        coeffs = _newton_form(nodes, table)
        if rs.kind == "D":
            coeffs.append(coeffs.pop(0))
            for row in linalg.identity_matrix(rs.varcount)[k - 1:]:
                coeffs[-1] = coeffs[-1].divrem_linear(w.act_linear(LinearForm(row)))[0]
        out.update((tuple(map(add, e, J)), c) for e, c in zip(tower[k - 1][2], coeffs))
    return out


def _level_differences(rs, tower, k: int, w, fibers):
    """(nodes, {J: table}) of level k of :func:`_level_coordinates`: the
    nodes (w r) . x_k and, for each J, Newton's divided differences of
    its coordinates over them (times the node in type D).  A division
    with a remainder is raised as ValueError naming the level, the coset
    and the node pair."""
    x_k = LinearForm(linalg.identity_matrix(rs.varcount)[k - 1])
    nodes = [(w * r).act_linear(x_k) for r in rs.coset_reps(tower[k - 1][0], tower[k - 1][1])]
    where = f"on level {k}, over the coset of {w.one_line_str()},"
    tables = {}
    for J in fibers[0]:
        values = [f[J] for f in fibers]
        if rs.kind == "D":
            values = [v * a.to_polynomial() for v, a in zip(values, nodes)]
        tables[J] = _divided_differences(nodes, values, where)
    return nodes, tables


def _divided_differences(nodes, values, where: str) -> list:
    """Newton's table of ``values`` over ``nodes`` (linear forms): entry j
    is the divided difference over nodes 0..j, each step one exact
    division by a difference of distinct nodes.  A division with a
    remainder is raised as ValueError."""
    table = list(values)
    for i in range(1, len(nodes)):
        for j in range(len(nodes) - 1, i - 1, -1):
            table[j], rem = (table[j] - table[j - 1]).divrem_linear(nodes[j] - nodes[j - i])
            if not rem.is_zero():
                raise ValueError(f"{where} the divided difference over {nodes[j - i]} "
                                 f"and {nodes[j]} leaves a remainder")
    return table


def _newton_form(nodes, table) -> list:
    """[p_0, p_1, ...] with sum_j p_j a^j == v for each node a and its
    value v: the Newton form of :func:`_divided_differences`'s ``table``
    expanded into powers of the node."""
    coeffs = [table[-1]]
    for a, d in zip(nodes[-2::-1], table[-2::-1]):
        a = a.to_polynomial()
        coeffs = ([d - a * coeffs[0]] + [c - a * c1 for c, c1 in zip(coeffs, coeffs[1:])]
                  + coeffs[-1:])
    return coeffs


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
        degree_sum, length_sum = sum(degrees) // 2, len(graph.src) // 2
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
    rep.first("independence",
              (witness for premise, witness in bad if premise in ("count", "determinant")))
    rep.first("spanning", (witness for _, witness in bad))
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
    return {
        "independent": by_name["independence"].passed if "independence" in by_name else None,
        "spanning": by_name["spanning"].passed if "spanning" in by_name else None,
        "witness": next((c.witness or c.name for c in rep.failures()), ""),
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


def check_bases_over_invariants(rs: RootSystem, max_degree: int) -> Report:
    """Degree by degree up to ``max_degree``: do {g * x^I}, for g a product
    of fundamental invariants and I in the index set, span the
    polynomials of that degree?  Only the indices of degree at most
    ``max_degree`` are built, one level of the tower at a time.

    This is an independent desk check, not the proof: :func:`verify_basis`
    already implies the statement in every degree, by faithfully flat
    base change.  Let F be the free Q[x]^W-module on the indices and
    phi: F -> Q[x] the map e_I -> x^I.  H_T(G/B) is Q[x] (x)_{Q[x]^W} Q[x],
    with c_T(f) <-> 1 (x) f (A. Borel, Ann. of Math. 57, 1953), so the
    base change of phi along Q[x]^W -> Q[x] sends e_I to c_I, and
    :func:`verify_basis` proves it an isomorphism.  Q[x] is free of rank
    |W| over Q[x]^W (C. Chevalley, Amer. J. Math. 77, 1955), so faithfully
    flat, and a map that becomes an isomorphism after a faithfully flat
    base change was one already.  phi keeps degrees, so in each degree
    the products g * x^I, g running over the monomials in the fundamental
    invariants (a basis of Q[x]^W, by the same theorem), are a basis:
    the rank and the count checked here both equal the dimension."""
    indices = _level_sums(rs.rank, _level_exponents(rs.kind, rs.rank), max_degree)
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
