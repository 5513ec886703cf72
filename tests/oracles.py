"""Independent oracles used by the tests.

These deliberately avoid the production code paths they are checking:
the Schubert solver works from the degree/support/normalization
conditions as a plain linear system, the Bruhat oracle enumerates
subwords, the toy polynomial expander multiplies term lists directly,
the spanning oracle solves for the module coefficients of every
Schubert class instead of trusting the determinant certificate, the
bundle expander solves each fiber by Cramer's rule instead, the
form expander rewrites a polynomial in given linear forms by dense
elimination, the connection oracle reflects edge labels by the
textbook formula instead of acting by Weyl group elements, the
closure oracle finds <Sigma> from the simple-root coordinates of each
root instead of from the parabolic subgroup W(Sigma), the
axiom oracle decides every label axiom afresh on every edge instead of
once per distinct label, the Chevalley oracle checks a Schubert
table by the equivariant Chevalley formula, with tau_{s_i} in closed
form, instead of by nilCoxeter products or the class condition, the
projection oracle maps the edges of a coset bundle by the Weyl action
instead of by matching endpoints, the extension oracle carries
values across the base edge by edge instead of testing holonomy
elements, and the division oracle decides the class condition by long
division of each edge difference instead of by restriction to the
label's hyperplane.

The connection oracles read a connection's star positions through
``connection_dict``, which decodes them with ``edges_at`` alone, not with
``GkmGraph.along`` or ``GkmGraph.connection_pairs``.

``changed_graph`` is not an oracle: graphs are immutable, so the tests
that tamper with one build the tampered copy with it.
"""

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from gkmflag import linalg
from gkmflag.gkmgraph import CohClass, GkmGraph, coh_failure
from gkmflag.parabolic import base_tree, build_coset_graph, typical_fiber
from gkmflag.polyring import LinearForm, Polynomial
from gkmflag.schubert import flag_graph, schubert_table


def changed_graph(g, edges=None, connection=None):
    """A new graph equal to g but at the given edge ids: ``edges`` maps an
    edge id to its new Edge and ``connection`` to its new connection
    tuple of star positions.  The vertices and the reverse map are g's."""
    edges, connection = edges or {}, connection or {}
    return GkmGraph(g.varcount, g.vertices,
                    [edges.get(eid, e) for eid, e in enumerate(g.edges)], g.reverse,
                    [connection.get(eid, c) for eid, c in enumerate(g.connection)])


def naive_product(terms_a, terms_b, varcount):
    """Multiply two {exponents: coeff} maps the long way."""
    out = {}
    for ea, ca in terms_a.items():
        for eb, cb in terms_b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return Polynomial(varcount, out)


def reflect_form(alpha: LinearForm, form: LinearForm) -> LinearForm:
    """s_alpha(form) = form - 2 (form, alpha) / (alpha, alpha) * alpha."""
    return form - alpha.scale(Fraction(2 * form.dot(alpha), alpha.dot(alpha)))


def closure_by_coordinates(rs, sigma):
    """<Sigma> as the positive roots whose simple-root coordinates vanish
    off Sigma, each root solved against the simple roots by elimination."""
    simples = [list(row) for row in zip(*(alpha.coeffs for alpha in rs.simple_roots))]
    sigma = set(sigma)
    out = []
    for beta in rs.positive_roots:
        coords = linalg.solve_fraction(simples, list(beta.coeffs))
        if coords is None:
            raise ValueError(f"{beta} is outside the span of the simple roots")
        if all(c == 0 or j + 1 in sigma for j, c in enumerate(coords)):
            out.append(beta)
    return tuple(out)


def connection_dict(g, eid):
    """The connection along eid as {edge at the tail: its image}, decoded
    from star positions through ``edges_at`` alone."""
    e = g.edges[eid]
    head = g.edges_at[e.dst]
    return {e1: head[i] for e1, i in zip(g.edges_at[e.src], g.connection[eid])}


def connection_failure(g):
    """First (eid, e1) whose connection image is not the edge at dst(eid)
    labeled s_{label(eid)}(label(e1)), or None.

    On a coset graph the labels at a vertex are distinct, so this pins
    the connection down completely.
    """
    for eid, e in enumerate(g.edges):
        for e1, e2 in connection_dict(g, eid).items():
            image = g.edges[e2]
            if (g.edges[e1].src != e.src or image.src != e.dst
                    or image.label != reflect_form(e.label, g.edges[e1].label)):
                return eid, e1
    return None


def coh_failure_by_division(c):
    """The first unoriented edge whose end values differ by a
    non-multiple of its label, found with ``divrem_linear``."""
    g = c.graph
    for eid, e in enumerate(g.edges):
        if eid > g.reverse[eid]:
            continue
        if not (c.values[e.dst] - c.values[e.src]).divrem_linear(e.label)[1].is_zero():
            return eid
    return None


def gkm_report_by_edges(g):
    """The (name, passed, witness) list of ``verify_gkm(g)``, edge by edge.

    Every label axiom is decided with fresh LinearForm arithmetic on each
    edge, pair of edges at a vertex and connection entry, so no verdict
    is shared between edges that carry equal labels.
    """
    out = []

    bad = ""
    for eid, e in enumerate(g.edges):
        r = g.reverse[eid] if 0 <= g.reverse[eid] < len(g.edges) else None
        if r is None or g.reverse[r] != eid or r == eid:
            bad = f"edge {g.edge_str(eid)} has no valid reverse"
            break
        re = g.edges[r]
        if (re.src, re.dst) != (e.dst, e.src):
            bad = f"reverse of {g.edge_str(eid)} has wrong endpoints"
            break
        if re.label != -e.label:
            bad = f"label of reverse of {g.edge_str(eid)} is not negated"
            break
        if e.label.is_zero():
            bad = f"zero label on {g.edge_str(eid)}"
            break
    out.append(("edge-reversal", not bad, bad))

    degrees = {len(g.edges_at[p]) for p in range(g.nvertices)}
    out.append(("regular", len(degrees) <= 1, f"vertex degrees {sorted(degrees)}"))

    bad = ""
    for p in range(g.nvertices):
        eids = g.edges_at[p]
        for i, j in combinations(range(len(eids)), 2):
            li = g.edges[eids[i]].label
            lj = g.edges[eids[j]].label
            if li.proportional_to(lj) is not None:
                bad = f"labels {li} and {lj} at vertex {g.vertices[p]} are proportional"
                break
        if bad:
            break
    out.append(("independence", not bad, bad))

    bad = ""
    for eid, e in enumerate(g.edges):
        conn = connection_dict(g, eid)
        if (set(conn.keys()) != set(g.edges_at[e.src])
                or set(conn.values()) != set(g.edges_at[e.dst])):
            bad = f"connection along {g.edge_str(eid)} is not a bijection E_p -> E_q"
            break
        if conn[eid] != g.reverse[eid]:
            bad = f"connection along {g.edge_str(eid)} does not reverse the edge"
            break
        rconn = connection_dict(g, g.reverse[eid])
        if any(rconn.get(v) != k for k, v in conn.items()):
            bad = f"connection along reverse of {g.edge_str(eid)} is not the inverse"
            break
    out.append(("connection-shape", not bad, bad))

    bad = ""
    for eid, e in enumerate(g.edges):
        for e1, e2 in connection_dict(g, eid).items():
            diff = g.edges[e2].label - g.edges[e1].label
            if diff.proportional_to(e.label) is None:
                bad = (f"congruence fails along {g.edge_str(eid)} at "
                       f"{g.edge_str(e1)} -> {g.edge_str(e2)}")
                break
        if bad:
            break
    out.append(("congruence", not bad, bad))
    return out


def bruhat_by_subwords(rs, u, v):
    """u <= v iff some subword of a reduced word of v multiplies to u
    with the right length."""
    word = rs.reduced_word(v)
    lu = rs.length(u)
    if lu > len(word):
        return False
    for positions in combinations(range(len(word)), lu):
        w = rs.identity()
        for k in positions:
            w = w * rs.simple_reflection(word[k])
        if w == u:
            return True
    return False


def schubert_by_conditions(rs, u):
    """Solve the three defining conditions as a linear system over Q.

    Returns (values, unique): values maps each group element to the
    class value at it; unique says whether the system pinned the class
    down completely.
    """
    flag = flag_graph(rs)
    g = flag.graph
    deg = rs.length(u)
    upset = [v for v in flag.reps if rs.bruhat_leq(u, v)]
    upset_pos = {v: k for k, v in enumerate(upset)}
    monos = linalg.monomials_of_degree(rs.varcount, deg)
    mpos = {e: k for k, e in enumerate(monos)}
    nunk = len(upset) * len(monos)

    def unknown(v, e):
        return upset_pos[v] * len(monos) + mpos[e]

    rows = []
    rhs = []
    # normalization at u
    prod = Polynomial.one(rs.varcount)
    ui = u.inverse()
    for beta in rs.positive_roots:
        if not rs.is_positive_root(ui.act_linear(beta)):
            prod = prod * beta.to_polynomial()
    for e in monos:
        row = {unknown(u, e): Fraction(1)}
        rows.append(row)
        rhs.append(prod.terms.get(e, Fraction(0)))
    # divisibility along every unoriented edge
    rem_cache = {}
    for eid, edge in enumerate(g.edges):
        if eid > g.reverse[eid]:
            continue
        a = flag.reps[edge.src]
        b = flag.reps[edge.dst]
        ina, inb = a in upset_pos, b in upset_pos
        if not ina and not inb:
            continue
        label = edge.label
        slots = {}
        for e in monos:
            key = (e, label)
            if key not in rem_cache:
                rem_cache[key] = Polynomial.monomial(rs.varcount, e).divrem_linear(label)[1]
            rem = rem_cache[key]
            for re_, rc in rem.terms.items():
                slot = slots.setdefault(re_, {})
                if inb:
                    slot[unknown(b, e)] = slot.get(unknown(b, e), Fraction(0)) + rc
                if ina:
                    slot[unknown(a, e)] = slot.get(unknown(a, e), Fraction(0)) - rc
        for slot in slots.values():
            slot = {k: v for k, v in slot.items() if v != 0}
            if slot:
                rows.append(slot)
                rhs.append(Fraction(0))
    sol = linalg.solve_sparse_fraction(rows, rhs, nunk)
    assert sol is not None, "defining conditions are inconsistent"
    # uniqueness: the homogeneous system admits only zero
    hom = linalg.solve_sparse_fraction(rows, [Fraction(0)] * len(rows), nunk)
    dense = [[row.get(c, Fraction(0)) for c in range(nunk)] for row in rows]
    unique = linalg.rank_fraction(list(zip(*dense))) == nunk if nunk else True
    values = {}
    for v in flag.reps:
        if v in upset_pos:
            terms = {}
            for e in monos:
                c = sol[unknown(v, e)]
                if c:
                    terms[e] = c
            values[v] = Polynomial(rs.varcount, terms)
        else:
            values[v] = Polynomial.zero(rs.varcount)
    return values, unique


def chevalley_failures(rs, table):
    """Every (i, w, v) at which ``table`` breaks the Chevalley formula.

    The equivariant Chevalley formula (Kostant & Kumar, "The nil Hecke
    ring and cohomology of G/P for a Kac-Moody group G", Adv. Math. 62,
    1986) reads, at every vertex v,

        tau_{s_i} tau_w = (omega_i - w omega_i) tau_w
                          + sum <omega_i, beta^vee> tau_{w s_beta},

    the sum over positive roots beta with len(w s_beta) = len(w) + 1.
    tau_{s_i}(v) is the closed form omega_i - v omega_i, and omega_i is
    solved from <omega_i, alpha_j^vee> = delta_ij, so only the table's
    values tau_w(v) are trusted.
    """
    simple_coroots = [[Fraction(2 * c, a.dot(a)) for c in a.coeffs] for a in rs.simple_roots]
    failures = []
    for i in range(1, rs.rank + 1):
        delta = [Fraction(int(j == i)) for j in range(1, rs.rank + 1)]
        omega = LinearForm(linalg.solve_fraction(simple_coroots, delta))
        tau_si = {v: (omega - v.act_linear(omega)).to_polynomial() for v in table.order}
        for w in table.order:
            covers = []
            for beta in rs.positive_roots:
                up = w * rs.reflection(beta)
                if rs.length(up) == rs.length(w) + 1:
                    covers.append((Fraction(2 * omega.dot(beta), beta.dot(beta)), up))
            for v in table.order:
                tw = table.tau_value(w, v)
                rhs = tau_si[w] * tw
                for pairing, up in covers:
                    rhs = rhs + table.tau_value(up, v).scale(pairing)
                if tau_si[v] * tw != rhs:
                    failures.append((i, w, v))
    return failures


def coset_projection(rs, sigma1, sigma2):
    """(pi, dpi, vmaps) of the bundle W/W(Sigma1) -> W/W(Sigma2), by the
    Weyl action alone.

    pi sends [w] to [w] W(Sigma2).  An edge in direction beta is vertical
    iff beta lies in <Sigma2>; else, with w and r the representatives of
    its source and of the base vertex below, it projects onto the base
    edge at r in direction positive_part((r^-1 w) beta).  vmaps[e] sends
    [x] over the tail of base edge e to [s_gamma x], gamma its label.
    """
    full = rs.full_sigma()
    total = build_coset_graph(rs, sigma1, full)
    base = build_coset_graph(rs, sigma2, full)
    closure2 = set(rs.closure(sigma2))
    pi = [base.vertex_of(w) for w in total.reps]
    dpi = {}
    for eid, e in enumerate(total.graph.edges):
        beta = total.direction(eid)
        if beta in closure2:
            continue
        u = base.reps[pi[e.src]].inverse() * total.reps[e.src]
        dpi[eid] = base.edge_id(pi[e.src], rs.positive_part(u.act_linear(beta)))
    vmaps = {}
    for beid, e in enumerate(base.graph.edges):
        s = rs.reflection(e.label)
        vmaps[beid] = {x: total.vertex_of(s * total.reps[x])
                       for x in range(total.nvertices) if pi[x] == e.src}
    return pi, dpi, vmaps


def extend_by_edges(b, fiber_class, base_point=None):
    """``invbases.extend_invariant``, carrying values edge by edge.

    The class is placed on the fiber over the base point through its
    representative r and carried along every edge of ``base_tree``:
    across an edge labeled gamma the value at [s_gamma x] is s_gamma
    applied to the value at x.  Carrying it across each non-tree edge
    must then agree with the value already there; the first edge that
    disagrees is named in the ValueError.  Then the input must be a class
    on the typical fiber.
    """
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


def spanning_by_solves(rs, family):
    """Does the family span? Solve exactly for every Schubert class.

    Every class is a polynomial combination of the Schubert classes, so
    the family spans iff each tau_u is a polynomial combination of it.
    """
    table = schubert_table(rs)
    order = flag_graph(rs).reps
    columns = [list(c.values) for c in family.classes]
    for u in table.order:
        target = [table.tau_value(u, w) for w in order]
        if linalg.solve_module_coeffs(columns, target, rs.varcount) is None:
            return False
    return True


def express_by_cramer(b, classes, target):
    """The coefficients of ``express_in_basis``, by Cramer's rule per fiber.

    Solves each fiber's square polynomial system with Bareiss
    determinants (``linalg.solve_poly_square``), trusting no
    certificate; returns the coefficients as classes on the base, or
    None if some fiber has no polynomial solution.
    """
    beta_vals = [[None] * b.base.nvertices for _ in classes]
    for p in range(b.base.nvertices):
        fverts = b.fiber_vertices(p)
        rows = [[c.values[v] for c in classes] for v in fverts]
        sol = linalg.solve_poly_square(rows, [target.values[v] for v in fverts])
        if sol is None:
            return None
        for k, val in enumerate(sol):
            beta_vals[k][p] = val
    return [CohClass(b.base, vals) for vals in beta_vals]


def express_in_forms(f: Polynomial, forms: Sequence[LinearForm]):
    """Rewrite f as a polynomial in the given linear forms, if possible.

    Returns g in Q[y1..yk] (k = len(forms)) with g(forms) == f, or None if
    f is not in the subring they generate.  Solved degreewise by dense
    rational elimination on monomial coefficients.
    """
    k = len(forms)
    m = f.varcount
    form_polys = [l.to_polynomial() for l in forms]
    out_terms: dict = {}
    for d in f.degrees_present() or []:
        fd = f.homogeneous_component(d)
        monos = linalg.monomials_of_degree(k, d)
        prods = []
        for lam in monos:
            p = Polynomial.one(m)
            for i, e in enumerate(lam):
                if e:
                    p = p * form_polys[i] ** e
            prods.append(p)
        support = sorted({e for p in prods for e in p.terms} | set(fd.terms))
        rows = [[p.terms.get(e, Fraction(0)) for p in prods] for e in support]
        rhs = [fd.terms[e] if e in fd.terms else Fraction(0) for e in support]
        sol = linalg.solve_fraction(rows, rhs)
        if sol is None:
            return None
        for lam, c in zip(monos, sol):
            if c != 0:
                out_terms[lam] = out_terms.get(lam, Fraction(0)) + c
    return Polynomial(k, out_terms)
