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
u . x^I at u.  The closed form is the production path; the literal
iteration (carry a fiber basis along a spanning tree of the base,
checking holonomy invariance on every non-tree edge, lift base classes,
multiply) is built too and compared against it, which pins down every
sign convention.

One certificate, ``_basis_failures``, proves that classes restrict to
a module basis on a set of vertex blocks: homogeneous members whose
degrees sum to the length sum of the block's Schubert classes, and a
nonzero value determinant at the regular point (1, 2, 4, ...).  No solve
is needed, because the Schubert classes are a free basis.
``verify_basis`` is the graph Leray-Hirsch theorem on the one-step
bundle: every c_I is the lift of a base class (a power of tau, or eta)
times a fiber class c_{(0,J)} (``fiber_family``), so it is a class by
construction, and the certificate on the base and on the fibers proves
the whole family a module basis.  The flag graph's value determinant is
the product of the blocks' determinants, so none of size |W| is taken.
``express_in_basis`` is the constructive decomposition of an arbitrary
class over a bundle, the graph Leray-Serre theorem made explicit: it
applies the certificate to the fibers, and then one degree-wise sparse
rational solve per fiber (``linalg.solve_module_coeffs``) gives the base
coefficients, which are themselves classes on the base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from . import linalg
from .gkmgraph import CohClass, Report, coh_failure, degree_of
from .parabolic import (
    BundleMap,
    build_bundle,
    lift_class,
    tree_transport,
    typical_fiber,
)
from .polyring import Polynomial
from .rootsys import RootSystem
from .schubert import invariant_class

__all__ = [
    "index_set",
    "index_family_size",
    "BasisFamily",
    "basis_family",
    "fiber_family",
    "class_cI",
    "tower_bundle",
    "base_tau",
    "base_eta",
    "base_power_classes",
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


def index_set(kind: str, n: int):
    """The multi-index family of one classical type, in lexicographic order."""
    kind = kind.upper()
    if kind == "A":
        if n < 1:
            raise ValueError("need n >= 1")
        ranges = [range(n + 1 - k) for k in range(n)]
        return sorted(itertools.product(*ranges))
    if kind in ("B", "C"):
        if n < 1:
            raise ValueError("need n >= 1")
        ranges = [range(2 * (n - k) + 2) for k in range(1, n + 1)]
        return sorted(itertools.product(*ranges))
    if kind == "D":
        if n < 2:
            raise ValueError("need n >= 2")
        family = [(0, 0), (1, 0), (2, 0), (0, 1)]
        for k in range(3, n + 1):
            nxt = [(i,) + tail for i in range(2 * k - 1) for tail in family]
            nxt += [(0,) + tuple(x + 1 for x in tail) for tail in family]
            family = nxt
        return sorted(family)
    raise ValueError(f"unknown type {kind!r}")


def index_family_size(kind: str, n: int) -> int:
    return len(index_set(kind, n))


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


def fiber_family(rs: RootSystem) -> BasisFamily:
    """The classes c_{(0,J)} for J in the index set of rank n - 1 ([()] at
    rank 1).  On the fiber of :func:`tower_bundle` over [r] they are the
    rank n - 1 family moved by r: the fiber classes of the tower."""
    lower = index_set(rs.kind, rs.rank - 1) if rs.rank > 1 else [()]
    indices = [(0,) + tuple(J) for J in lower]
    return BasisFamily(rs, indices, [class_cI(rs, I) for I in indices])


# ----------------------------------------------------------------------
# the one-step bundle and its base classes


def tower_bundle(rs: RootSystem) -> BundleMap:
    """The bundle over the quotient by all simple roots but the first."""
    sigma2 = rs.full_sigma() - {1}
    return build_bundle(rs, frozenset(), sigma2)


def base_tau(b: BundleMap) -> CohClass:
    """tau([w]) = w . x1, the degree-one class on the base quotient.

    x1 is fixed by W(Delta - {1}), so the value does not depend on the
    choice of coset representative.  tau is a class: across the edge
    ([w], [w s_beta]) labeled w beta the two values differ by
    w . (x1 - s_beta x1), and beta divides x1 - s_beta x1, so w beta
    divides the difference.
    """
    if b.base_coset is None:
        raise ValueError("base classes need a coset base")
    x1 = Polynomial.variable(b.total.varcount, 1)
    vals = [w.act_poly(x1) for w in b.base_coset.reps]
    return CohClass(b.base, vals)


def base_eta(b: BundleMap) -> CohClass:
    """The extra type-D base class: the coordinate product divided by tau.

    eta([w]) = w . (x2 ... xn).  In type D, W(Delta - {1}) permutes x2..xn
    and changes an even number of their signs, so it fixes x2 ... xn and
    the value does not depend on the representative; eta is a class by
    the argument given for :func:`base_tau`.
    """
    rs = b.rs
    if rs is None or rs.kind != "D":
        raise ValueError("eta exists only in type D")
    rest = Polynomial.one(rs.varcount)
    for i in range(2, rs.varcount + 1):
        rest = rest * Polynomial.variable(rs.varcount, i)
    vals = [w.act_poly(rest) for w in b.base_coset.reps]
    return CohClass(b.base, vals)


def base_power_classes(b: BundleMap):
    """The free base-module basis: powers of tau, plus eta in type D."""
    tau = base_tau(b)
    one = CohClass.constant(b.base, 1)
    if b.rs is not None and b.rs.kind == "D":
        top = 2 * b.rs.rank - 2
    else:
        top = b.base.nvertices - 1
    out = [one]
    cur = one
    for _ in range(top):
        cur = cur * tau
        out.append(cur)
    if b.rs is not None and b.rs.kind == "D":
        out.append(base_eta(b))
    if len(out) != b.base.nvertices:
        raise AssertionError("base class count does not match the base size")
    return out


# ----------------------------------------------------------------------
# extension of holonomy-invariant fiber classes


def extend_invariant(b: BundleMap, fiber_class: CohClass,
                     base_point: int | None = None) -> CohClass:
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
    if base_point is None:
        base_point = b.base_point()
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
    """The lower-rank invariant family realized on the typical fiber.

    Fiber coordinates are the ambient ones shifted by one, so the index
    [j_1..j_{n-1}] becomes the monomial x2^{j_1} ... xn^{j_{n-1}}.
    """
    rs = b.rs
    fib = typical_fiber(b)
    indices = index_set(rs.kind, rs.rank - 1)
    out = []
    for J in indices:
        exps = [0] * rs.varcount
        for k, j in enumerate(J):
            exps[k + 1] = j
        mono = Polynomial.monomial(rs.varcount, exps)
        vals = [u.act_poly(mono) for u in fib.reps]
        out.append((J, CohClass(fib.graph, vals)))
    return out


def iterated_family(rs: RootSystem) -> dict:
    """Build the invariant family literally through the fiber bundle.

    Extends the holonomy-invariant fiber family through transport, lifts
    the base classes, and multiplies, reproducing the closed-form family
    index by index (rule by rule in type D).
    """
    b = tower_bundle(rs)
    extended = {}
    for J, fc in fiber_invariant_classes(b):
        extended[J] = extend_invariant(b, fc)
    base_classes = base_power_classes(b)
    lifted = [lift_class(b, bc) for bc in base_classes]
    out = {}
    if rs.kind == "D":
        eta_lift = lifted[-1]
        for J in index_set("D", rs.rank - 1):
            for i1 in range(2 * rs.rank - 1):
                I = (i1,) + tuple(J)
                out[I] = lifted[i1] * extended[J]
            I2 = (0,) + tuple(x + 1 for x in J)
            out[I2] = eta_lift * extended[J]
    else:
        for J, ext in extended.items():
            for i1 in range(len(lifted)):
                out[(i1,) + tuple(J)] = lifted[i1] * ext
    return out


# ----------------------------------------------------------------------
# expressing classes over a bundle


def express_in_basis(b: BundleMap, classes, target: CohClass):
    """Solve target == sum_k pi^*(beta_k) * classes[k] fiber by fiber.

    Precondition: ``classes`` and ``target`` are classes on the total
    graph of a coset bundle.  The restrictions of ``classes`` to every
    fiber must be a module basis there; ``_basis_failures`` certifies it
    with the fibers as blocks, or the first witness is raised as
    ValueError (a non-homogeneous family is refused even where it would
    span).  ``linalg.solve_module_coeffs`` then finds the unique
    polynomial coefficients on every fiber one degree at a time, and
    checks sum_k beta_k * c_k == target exactly at every vertex of the
    fiber before it returns; every total vertex lies in one fiber.  The
    coefficients beta_k are returned as classes on the base.
    """
    if b.rs is None:
        raise ValueError("expressing over a bundle needs Weyl-group data")
    nbase = b.base.nvertices
    fibers = b.fibers()
    bad = _basis_failures(
        b.rs, classes, [f"classes[{k}]" for k in range(len(classes))],
        {f"fiber over {b.base.vertices[p]}": fibers[p] for p in range(nbase)},
        "fiber")
    if bad:
        raise ValueError(next(iter(bad.values())))
    beta_vals = [[None] * nbase for _ in classes]
    for p, fverts in enumerate(fibers):
        columns = [[c.values[v] for v in fverts] for c in classes]
        sol = linalg.solve_module_coeffs(
            columns, [target.values[v] for v in fverts], b.total.varcount)
        if sol is None:
            raise AssertionError(
                f"no polynomial coefficients on the fiber over "
                f"{b.base.vertices[p]} although the family passed the basis "
                f"certificate"
            )
        for k, val in enumerate(sol):
            beta_vals[k][p] = val
    betas = []
    for k, vals in enumerate(beta_vals):
        c = CohClass(b.base, vals)
        bad = coh_failure(c)
        if bad is not None:
            raise AssertionError(
                f"coefficient {k} is not a class on the base; fails at "
                f"{b.base.edge_str(bad)}"
            )
        betas.append(c)
    return betas


# ----------------------------------------------------------------------
# the module-basis certificate


def _regular_point(rs: RootSystem):
    """(1, 2, 4, ...): distinct powers of 2, so no root x_i -+ x_j, x_i,
    2 x_i vanishes there."""
    return [2 ** i for i in range(rs.varcount)]


def _basis_failures(rs: RootSystem, classes, names, blocks: dict, kind: str) -> dict:
    """{premise: witness} for each failing premise of the module-basis
    certificate, in this order; {} proves that ``classes`` (named by
    ``names``) restrict to a module basis on every block (label ->
    vertices: the base of a bundle, or its fibers).

    * "count": every block has one vertex per class;
    * "homogeneity": every member is homogeneous (``degree_of``);
    * "determinant": every block's value matrix M_p (vertices x classes)
      is nonsingular at the regular point;
    * "degree-sum": the halved degrees sum to n N / 2, the length sum of
      the Schubert classes (``kind``) of a block of n vertices of valency N.

    Then M_p = S_p.B_p with S_p the Schubert value matrix, det S_p =
    prod_u tau_u(u) of degree n N / 2, and det B_p a nonzero constant.  A
    wrong count ends the check; every other premise is evaluated, so a
    caller sees whether the determinant is the only failure.
    """
    for label, verts in blocks.items():
        if len(verts) != len(classes):
            return {"count": f"{label} has {len(verts)} vertices but "
                             f"{len(classes)} classes were given"}
    out = {}
    degrees = [degree_of(c) for c in classes]
    if None in degrees:
        out["homogeneity"] = f"{names[degrees.index(None)]} is not homogeneous"
    pt = _regular_point(rs)
    for label, verts in blocks.items():
        at_pt = [[c.values[v].evaluate(pt) for c in classes] for v in verts]
        if linalg.det_fraction(at_pt) == 0:
            out["determinant"] = (
                f"on the {label} the value determinant vanishes at "
                f"({', '.join(map(str, pt))}); the classes are not a module "
                f"basis there")
            break
    if "homogeneity" not in out:
        graph, verts = classes[0].graph, next(iter(blocks.values()))
        inside = set(verts)
        valency = sum(graph.edges[eid].dst in inside for eid in graph.edges_at[verts[0]])
        degree_sum, length_sum = sum(degrees) // 2, len(verts) * valency // 2
        if degree_sum != length_sum:
            out["degree-sum"] = (f"class degrees sum to {degree_sum} but the "
                                 f"{kind} lengths sum to {length_sum}")
    return out


# ----------------------------------------------------------------------
# basis verification


def verify_basis(rs: RootSystem) -> Report:
    """Count, independence and spanning of ``basis_family(rs)``, proved by
    the graph Leray-Hirsch theorem on ``tower_bundle(rs)``.

    At w the value w . x^I of c_I = c_T(x^I) factors as (w . x1)^k times
    w . x^(0,J) for I = (k,) + J, and in type D as eta([w]) times
    w . x^(0,J) for I = (0,) + (J + 1): every member is the lift of a
    ``base_power_classes`` member times a ``fiber_family`` member, and
    ``index_set`` holds exactly these products (the tests pin this).  So
    each member is a class by construction, and no class condition is
    checked.  The theorem: if the base classes are a module basis of the
    base and the fiber classes restrict to a module basis on every fiber,
    the products are a module basis of the flag graph.  ``_basis_failures``
    certifies the two premises, on the base and on the fibers; spanning
    holds iff neither fails, and the first failing premise is the witness.
    "count" compares the size of the index set with |W|.

    Independence reads the certificate determinants alone.  Group the
    rows of the flag graph's value matrix M by fiber and its columns by
    fiber class; then M = diag_p(C_p) (B (x) 1), so |det M| =
    |det B|^|J| prod_p |det C_p| at the regular point, with B the base
    matrix and C_p the matrix on the fiber over p.  Independence holds iff
    none of these determinants vanishes there; when one does and the other
    premises hold, it is a constant times its block's Schubert determinant
    and vanishes identically, and so does det M.
    """
    b = tower_bundle(rs)
    indices = index_set(rs.kind, rs.rank)
    order = b.total.nvertices
    rep = Report()
    rep.add("count", len(indices) == order,
            f"{len(indices)} classes for a group of order {order}")
    base = base_power_classes(b)
    fiber = fiber_family(rs)
    bad = list(_basis_failures(
        rs, base, [f"base class {k}" for k in range(len(base))],
        {"base": list(range(b.base.nvertices))}, "coset").items())
    bad += _basis_failures(
        rs, fiber.classes, fiber.names(),
        {f"fiber over {b.base.vertices[p]}": verts for p, verts in enumerate(b.fibers())},
        "fiber").items()
    singular = [witness for premise, witness in bad if premise == "determinant"]
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
