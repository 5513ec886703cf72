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
degrees sum to the length sum of the block's group, and a nonzero value
determinant at the regular point (1, 2, 4, ...).  No solve is needed,
because the Schubert classes are a free basis.  ``verify_basis`` applies
it to the whole flag graph, after checking that every member is a class,
and decides independence exactly from the same determinant, falling
back on a degree bound and a grid of regular points when it vanishes.
``express_in_basis`` is the constructive decomposition of an arbitrary
class over a bundle, the graph Leray-Serre theorem made explicit: it
applies the certificate to the fibers, and then one degree-wise sparse
rational solve per fiber (``linalg.solve_module_coeffs``) gives the base
coefficients, which are themselves classes on the base.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .gkmgraph import CohClass, Report, coh_failure, degree_of
from .parabolic import (
    BundleMap,
    base_tree,
    build_bundle,
    lift_class,
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


def basis_family(rs: RootSystem) -> BasisFamily:
    indices = index_set(rs.kind, rs.rank)
    return BasisFamily(rs, indices, [class_cI(rs, I) for I in indices])


# ----------------------------------------------------------------------
# the one-step bundle and its base classes


def tower_bundle(rs: RootSystem) -> BundleMap:
    """The bundle over the quotient by all simple roots but the first."""
    sigma2 = rs.full_sigma() - {1}
    return build_bundle(rs, frozenset(), sigma2)


def base_tau(b: BundleMap) -> CohClass:
    """tau([w]) = w . x1, the degree-one class on the base quotient."""
    if b.base_coset is None:
        raise ValueError("base classes need a coset base")
    x1 = Polynomial.variable(b.total.varcount, 1)
    vals = [w.act_poly(x1) for w in b.base_coset.reps]
    return CohClass(b.base, vals, check=True)


def base_eta(b: BundleMap) -> CohClass:
    """The extra type-D base class: the coordinate product divided by tau."""
    rs = b.rs
    if rs is None or rs.kind != "D":
        raise ValueError("eta exists only in type D")
    rest = Polynomial.one(rs.varcount)
    for i in range(2, rs.varcount + 1):
        rest = rest * Polynomial.variable(rs.varcount, i)
    vals = [w.act_poly(rest) for w in b.base_coset.reps]
    return CohClass(b.base, vals, check=True)


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
    """Extend a holonomy-invariant class on the typical fiber to the total.

    The class is realized on the fiber over the base point through its
    representative r (the value at [r u] is r applied to the value at u)
    and carried to every other fiber along the spanning tree of
    ``base_tree``: across an edge labeled gamma the value at [s_gamma x]
    is s_gamma applied to the value at x.  On each non-tree edge the same
    transport must then agree with the tree value at its head; that is
    invariance under exactly the generators of ``holonomy`` (tree path,
    the edge, tree path back), so the extension exists iff every such
    check passes.  A failing edge is named in the ValueError, and so is
    the typical-fiber edge of an input that is not a class there (checked
    after the loops, so a non-invariant input is named by its loop).

    The result is then a class by construction and is not re-checked.
    Horizontal edges: the value at [s_gamma x] is s_gamma g for the value
    g at x (by construction on the tree, by the loop checks elsewhere),
    and gamma divides s_gamma g - g.  Vertical edges: the fiber over q is
    the image of the typical fiber, values included, under left
    multiplication by T_q r (T_q the tree transport), a GKM isomorphism.
    """
    if b.rs is None:
        raise ValueError("extension needs a coset bundle")
    if base_point is None:
        base_point = b.base_point()
    fib = typical_fiber(b)
    if len(fiber_class.values) != fib.nvertices:
        raise ValueError("class does not live on the typical fiber")
    total = b.total_coset
    rep = b.base_coset.reps[base_point]
    vals = [None] * b.total.nvertices
    for u, value in zip(fib.reps, fiber_class.values):
        vals[total.vertex_of(rep * u)] = rep.act_poly(value)

    def transported(beid):
        """(vertex, value) over the head of beid, carried from its tail."""
        e = b.base.edges[beid]
        s = b.rs.reflection(e.label)
        return [(total.vertex_of(s * total.reps[x]), s.act_poly(vals[x]))
                for x in b.fiber_vertices(e.src)]

    tree, chords = base_tree(b, base_point)
    for beid in tree:
        for y, value in transported(beid):
            vals[y] = value
    for beid in chords:
        if any(vals[y] != value for y, value in transported(beid)):
            raise ValueError(
                f"class is not holonomy invariant; violated by the loop "
                f"through {b.base.edge_str(beid)}"
            )
    bad = coh_failure(CohClass(fib.graph, fiber_class.values))
    if bad is not None:
        raise ValueError("input is not a class on the typical fiber; fails at "
                         + fib.graph.edge_str(bad))
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
    fibers = [b.fiber_vertices(p) for p in range(nbase)]
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


def _regular_grid(rs: RootSystem, e: int):
    """The (e + 1)^m points with coordinate i in {2^(i + k m) : k <= e}.

    Coordinates are distinct powers of 2, so no root x_i -+ x_j, x_i, 2 x_i
    vanishes.  The first point, (1, 2, 4, ...), is the regular point of the
    certificate.  A polynomial of degree at most e that vanishes on the
    grid is zero (Alon's combinatorial Nullstellensatz).
    """
    m = rs.varcount
    axes = [[Fraction(2 ** (i + k * m)) for k in range(e + 1)] for i in range(m)]
    return (list(pt) for pt in itertools.product(*axes))


def _basis_failures(rs: RootSystem, classes, names, blocks: dict, kind: str) -> dict:
    """{premise: witness} for each failing premise of the module-basis
    certificate, in this order; {} proves that ``classes`` (named by
    ``names``) restrict to a module basis on every block (label ->
    vertices: the flag graph, or the fibers of a bundle).

    * "count": every block has one vertex per class;
    * "homogeneity": every member is homogeneous (``degree_of``);
    * "determinant": every block's value matrix M_p (vertices x classes)
      is nonsingular at the regular point;
    * "degree-sum": the halved degrees sum to n N / 2, the length sum of
      the group (``kind``) of a block of n vertices of valency N.

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
    pt = next(_regular_grid(rs, 0))
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


def verify_basis(rs: RootSystem, family: BasisFamily | None = None) -> Report:
    """Counting, independence and spanning checks for an invariant family.

    Spanning: every member passes ``coh_failure`` and ``_basis_failures``
    holds on the flag graph.  Independence is exact: a nonzero
    certificate determinant det M proves it.  Else det M, or det B =
    det M / prod_w tau_w(w) when every member is a class, has degree at
    most e = sum_k (top degree of c_k), less sum_w l(w) for det B.  It is
    zero if e < 0, else iff it vanishes on ``_regular_grid`` (whose points
    avoid the root hyperplanes): the regular point alone when every
    premise holds, else (e + 1)^m value determinants of size |W|.
    """
    family = family or basis_family(rs)
    rep = Report()
    nW = len(rs.elements())
    square = len(family.indices) == nW
    rep.add("count", square,
            f"{len(family.indices)} classes for a group of order {nW}")
    if not square:
        rep.add("independence", False, "the value matrix is not square")
        rep.add("spanning", False, "the value matrix is not square")
        return rep

    names = ["c[" + ",".join(str(i) for i in I) + "]" for I in family.indices]
    bad = {}
    for name, c in zip(names, family.classes):
        edge = coh_failure(c)
        if edge is not None:
            bad["class"] = f"{name} fails the class condition at {c.graph.edge_str(edge)}"
            break
    bad.update(_basis_failures(rs, family.classes, names,
                               {"flag graph": list(range(nW))}, "Weyl group"))
    independent, witness = "determinant" not in bad, ""
    if not independent:
        top = sum(max((sum(x) for v in c.values for x in v.terms), default=0)
                  for c in family.classes)
        length_sum = nW * len(rs.positive_roots) // 2
        e = top if "class" in bad else top - length_sum
        if e < 0:
            witness = (f"the top degrees sum to {top}, below the length sum "
                       f"{length_sum}, so the value determinant is zero")
        else:
            independent = any(
                linalg.det_fraction([[c.values[p].evaluate(pt) for c in family.classes]
                                     for p in range(nW)]) != 0
                for pt in itertools.islice(_regular_grid(rs, e), 1, None))
            factor = "" if "class" in bad else "prod_w tau_w(w) times "
            witness = "" if independent else (
                f"the value determinant is {factor}a polynomial of degree at "
                f"most {e}, and it vanishes on the {(e + 1) ** rs.varcount}-point "
                f"regular grid")
    rep.add("independence", independent, witness)
    rep.add("spanning", not bad, next(iter(bad.values()), ""))
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
        matrix_cols = list(zip(*[
            [v.terms.get(e, Fraction(0)) for e in support] for v in vectors
        ])) if vectors else []
        rank = linalg.rank_fraction(matrix_cols) if matrix_cols else 0
        ok = rank == dim and len(vectors) == dim
        rep.add(
            f"degree-{d}", ok,
            "" if ok else f"rank {rank}, {len(vectors)} vectors, dimension {dim}",
        )
    return rep
