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
iteration (extend a fiber basis through holonomy transport, lift base
classes, multiply) is built too and compared against it, which pins down
every sign convention.

``verify_basis`` checks independence by evaluating the value matrix at a
point with distinct coordinates.  Spanning needs no solve: the Schubert
classes are a free basis, so a family of homogeneous classes whose
degrees sum to sum_w l(w) is a basis iff that determinant is nonzero at
a point where no root vanishes (the certificate is spelled out in
``verify_basis``).  ``express_in_basis`` is the constructive
decomposition of an arbitrary class over a bundle, the graph
Leray-Serre theorem made explicit: the same certificate, applied to the
restrictions of the family to each fiber, proves that they are a fiber
basis, and then one degree-wise sparse rational solve per fiber
(``linalg.solve_module_coeffs``) gives the base coefficients, which are
themselves classes on the base.  Both certificates use the one regular
point of ``_regular_point``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .gkmgraph import CohClass, Report, coh_failure, degree_of, pullback_class
from .parabolic import (
    BundleMap,
    CosetGraph,
    HolonomyGroup,
    build_bundle,
    fiber_model_iso,
    holonomy,
    lift_class,
    typical_fiber,
)
from .polyring import LinearForm, Polynomial
from .rootsys import RootSystem
from .schubert import flag_graph, invariant_class

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
                     base_point: int | None = None,
                     hol: HolonomyGroup | None = None) -> CohClass:
    """Extend a holonomy-invariant class on the typical fiber to the total.

    The class is first checked to be invariant under the computed
    holonomy group (the offending automorphism is reported otherwise),
    realized on the fiber over the base point, and then transported to
    every other fiber along a spanning tree of the base; invariance makes
    the transported value path-independent.
    """
    if b.rs is None:
        raise ValueError("extension needs a coset bundle")
    if base_point is None:
        base_point = b.base_point()
    fib = typical_fiber(b)
    if fiber_class.graph is not fib.graph:
        fiber_class = CohClass(fib.graph, fiber_class.values)
    if hol is None:
        hol = holonomy(b, base_point)
    for loopdesc, iso in hol.generators:
        pulled = pullback_class(iso, fib.graph, fib.graph, fiber_class)
        if pulled != fiber_class:
            raise ValueError(
                f"class is not holonomy invariant; violated by the loop {loopdesc}"
            )
    rho = fiber_model_iso(b, base_point)  # typical fiber -> fiber over base point
    sub_p, vmap_p, _ = b.fiber_subgraph(base_point)
    # (rho^{-1})^* of the fiber class: value at rho(x) is psi(value at x)
    psi_imgs = [
        LinearForm([rho.psi[i][j] for i in range(len(rho.psi))])
        for j in range(len(rho.psi[0]))
    ]
    f_p_vals = [None] * sub_p.nvertices
    for t in range(fib.graph.nvertices):
        f_p_vals[rho.phi[t]] = fiber_class.values[t].substitute_linear(psi_imgs)
    fiber_values = {base_point: f_p_vals}
    # transport outward along a BFS tree of the base
    isos_to_p = {base_point: None}
    frontier = [base_point]
    while frontier:
        nxt = []
        for q in frontier:
            for beid in b.base.edges_at[q]:
                q2 = b.base.edges[beid].dst
                if q2 in fiber_values:
                    continue
                rev = b.base.reverse[beid]
                back = b.transition_iso(rev)  # fiber(q2) -> fiber(q)
                sub_q2, _, _ = b.fiber_subgraph(q2)
                sub_q, _, _ = b.fiber_subgraph(q)
                f_q = CohClass(sub_q, fiber_values[q])
                f_q2 = pullback_class(back, sub_q2, sub_q, f_q)
                fiber_values[q2] = list(f_q2.values)
                nxt.append(q2)
        frontier = nxt
    vals = [None] * b.total.nvertices
    for q, fvals in fiber_values.items():
        _, vmap, _ = b.fiber_subgraph(q)
        for tv, sv in vmap.items():
            vals[tv] = fvals[sv]
    out = CohClass(b.total, vals)
    bad = coh_failure(out)
    if bad is not None:
        raise AssertionError(
            f"extension failed the class condition at {b.total.edge_str(bad)}"
        )
    return out


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
    hol = holonomy(b)
    extended = {}
    for J, fc in fiber_invariant_classes(b):
        extended[J] = extend_invariant(b, fc, hol=hol)
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
        for J, _ in fiber_invariant_classes(b):
            for i1 in range(len(lifted)):
                out[(i1,) + tuple(J)] = lifted[i1] * extended[J]
    return out


# ----------------------------------------------------------------------
# expressing classes over a bundle


def express_in_basis(b: BundleMap, classes, target: CohClass):
    """Solve target == sum_k pi^*(beta_k) * classes[k] fiber by fiber.

    Precondition: ``classes`` and ``target`` are classes on the total
    graph of a coset bundle.  The restrictions of ``classes`` to every
    fiber must be a module basis there; this is certified, not solved
    for, exactly as ``verify_basis`` certifies spanning:

    * every member is homogeneous (``degree_of``);
    * on every fiber the value matrix M_p (fiber vertices x classes) has
      a nonzero determinant at the regular point of ``_regular_point``;
    * the halved degrees sum to sum_{u in W_fiber} l(u) = n_f N_f / 2,
      with n_f fiber vertices of valency N_f in the fiber graph.

    Then M_p = S_p.B_p with S_p the fiber's Schubert value matrix and
    det B_p a nonzero constant, so every class has unique polynomial
    coefficients on every fiber; ``linalg.solve_module_coeffs`` finds
    them one degree at a time.  A family that fails a premise raises
    ValueError naming the class, the fiber or the two sums; a
    non-homogeneous family is refused even where it would span.  The
    coefficients beta_k are returned as classes on the base, and the
    reassembly is checked exactly.
    """
    if b.rs is None:
        raise ValueError("expressing over a bundle needs Weyl-group data")
    degree_sum = 0
    for k, c in enumerate(classes):
        d = degree_of(c)
        if d is None:
            raise ValueError(f"classes[{k}] is not homogeneous")
        degree_sum += d // 2
    pt = _regular_point(b.rs)
    nbase = b.base.nvertices
    fibers = []
    for p in range(nbase):
        fverts = b.fiber_vertices(p)
        if len(fverts) != len(classes):
            raise ValueError(
                f"fiber over {b.base.vertices[p]} has {len(fverts)} vertices "
                f"but {len(classes)} classes were given"
            )
        at_pt = [[c.values[v].evaluate(pt) for c in classes] for v in fverts]
        if linalg.det_fraction(at_pt) == 0:
            raise ValueError(
                f"restrictions to the fiber over {b.base.vertices[p]} are not "
                f"a module basis: their value determinant vanishes at "
                f"({', '.join(map(str, pt))})"
            )
        fibers.append(fverts)
    valency = sum(1 for eid in b.total.edges_at[0] if b.edge_class[eid] == "v")
    length_sum = len(classes) * valency // 2
    if degree_sum != length_sum:
        raise ValueError(
            f"class degrees sum to {degree_sum} but the fiber lengths sum to "
            f"{length_sum}; the restrictions cannot be a module basis"
        )
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
    # exact reassembly
    for v in range(b.total.nvertices):
        acc = Polynomial.zero(b.total.varcount)
        for k, c in enumerate(classes):
            acc = acc + betas[k].values[b.pi[v]] * c.values[v]
        if acc != target.values[v]:
            raise AssertionError("reassembly mismatch")
    return betas


# ----------------------------------------------------------------------
# basis verification


def _distinct_points(m: int, seed: int, attempt: int):
    if attempt == 0:
        return [Fraction(2**k) for k in range(m)]
    rng = random.Random(seed * 1000003 + attempt)
    vals = rng.sample(range(1, 200), m)
    dens = [rng.choice([1, 1, 2, 3]) for _ in range(m)]
    pts = [Fraction(v, d) for v, d in zip(vals, dens)]
    return pts if len(set(pts)) == m else [Fraction(v) for v in vals]


def _check_regular(rs: RootSystem, pt):
    """Raise ValueError if some positive root vanishes at ``pt``."""
    for beta in rs.positive_roots:
        if sum(c * x for c, x in zip(beta.coeffs, pt)) == 0:
            raise ValueError(f"positive root {beta} vanishes at the evaluation point {pt}")


def _regular_point(rs: RootSystem):
    """The point of both determinant certificates: the first evaluation
    point (powers of 2), checked to lie on no root hyperplane."""
    pt = _distinct_points(rs.varcount, 0, 0)
    _check_regular(rs, pt)
    return pt


def _certificate_failure(rs: RootSystem, family: BasisFamily) -> str:
    """Which class, homogeneity or degree-sum premise of the certificate fails, or ""."""
    degree_sum = 0
    for I, c in zip(family.indices, family.classes):
        name = "c[" + ",".join(str(i) for i in I) + "]"
        bad = coh_failure(c)
        if bad is not None:
            return f"{name} fails the class condition at {c.graph.edge_str(bad)}"
        d = degree_of(c)
        if d is None:
            return f"{name} is not homogeneous"
        degree_sum += d // 2
    length_sum = sum(rs.length(w) for w in rs.elements())
    if degree_sum != length_sum:
        return f"degree sum {degree_sum} differs from the length sum {length_sum}"
    return ""


def verify_basis(rs: RootSystem, family: BasisFamily | None = None,
                 seed: int = 0) -> Report:
    """Counting, independence and spanning checks for an invariant family.

    Independence: the value matrix M (vertices x classes) has a nonzero
    determinant at some point.  Spanning is certified without solving:
    M = S.B with S the Schubert value matrix and B polynomial, and
    det S = prod_w tau_w(w) is a product of roots of degree sum_w l(w).
    When every member is a homogeneous class and the degrees sum to
    sum_w l(w), det B is a constant, so det M nonzero at one point where
    no root vanishes (the first evaluation point) makes B invertible
    over the polynomial ring.
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

    nvert = flag_graph(rs).nvertices

    def det_at(pt):
        return linalg.det_fraction([[c.values[p].evaluate(pt) for c in family.classes]
                                    for p in range(nvert)])

    pt0 = _regular_point(rs)
    det0 = det_at(pt0)
    pt, det, attempt = pt0, det0, 0
    while det == 0 and attempt < 4:
        attempt += 1
        pt = _distinct_points(rs.varcount, seed, attempt)
        det = det_at(pt)
    independent = det != 0
    witness = "" if independent else f"evaluation determinant vanished at {pt}"
    if not independent and nW <= 8:
        rows = [[c.values[p] for c in family.classes] for p in range(nvert)]
        independent = not linalg.det_poly(rows).is_zero()
        witness = "" if independent else "symbolic determinant is zero"
    rep.add("independence", independent, witness)

    bad = _certificate_failure(rs, family)
    if not bad and det0 == 0:
        bad = f"evaluation determinant vanished at the regular point {pt0}"
    rep.add("spanning", not bad, bad)
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
