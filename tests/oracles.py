"""Independent oracles used by the tests.

These deliberately avoid the production code paths they are checking:
the Schubert solver works from the degree/support/normalization
conditions as a plain linear system, the Bruhat oracle enumerates
subwords, the toy polynomial expander multiplies term lists directly,
the spanning oracle solves for the module coefficients of every
Schubert class instead of trusting the determinant certificate, the
bundle expanders solve each fiber of the tower bundle, on the fiber
classes built on the whole flag graph, by Cramer's rule or by one
degree-wise sparse rational system instead of interpolating down the
tower, the
form expander rewrites a polynomial in given linear forms by dense
elimination, the connection oracle reflects edge labels by the
textbook formula instead of acting by Weyl group elements, the
closure oracle finds <Sigma> from the simple-root coordinates of each
root instead of as the orbit of Sigma's simple roots, the coset oracle
enumerates W(Sigma2) and multiplies out each coset, with lengths counted
from the positive roots, instead of walking the minimal representatives
and stepping down by descents, the representative oracle builds a coset
graph on arbitrary representatives with u = (w s_beta)^-1 w' by group
products instead of reading u off the word of a descent, the
axiom oracle decides every label axiom afresh on every edge instead of
once per distinct label, the Chevalley oracle checks a Schubert
table by the equivariant Chevalley formula, with tau_{s_i} in closed
form, instead of by nilCoxeter products or the class condition, the
projection oracle maps the edges of a coset bundle by the Weyl action
instead of by matching endpoints, the loop and model-iso oracles
multiply out the transport around one base loop edge by edge and place
the typical fiber on the induced subgraph over a base vertex, instead of
walking distinct transport states from the placed fiber, the extension
oracle carries values across the base edge by edge instead of testing holonomy
elements, the restriction oracle decides the class condition by
substituting the solution of label = 0 into each edge difference
instead of dividing, the long-division oracle divides by a linear form
one grlex leading term at a time instead of by synthetic division in
the pivot variable, the table emitter writes the Schubert TSV whole from
the stored table instead of streaming it from the walk, the term
formatter writes a polynomial's text term by term with no memo and
none of ``polyring``'s helpers, the file oracle writes a graph or bundle
file with ``json.dumps`` from its dict form instead of streaming it from
``%``-templates, the subgraph oracle finds the edges a vertex set
induces by scanning every edge of the graph instead of the stars of the
set, the per-edge coset oracle builds a coset graph from one ``Edge`` and
one ``act_linear`` label per edge, interned by :func:`edge_graph`,
instead of writing int columns with label ids looked up by
the entries of w on each direction's support, and the basis oracle decides a family
given as classes by the class condition on every member and one
|W| x |W| value determinant over the whole flag graph, with a
degree-bounded grid of regular points when it vanishes, instead of by
one certificate per level of the tower, and the reassembly oracles sum
coefficient times tau_u over every vertex of the whole Schubert table
instead of streaming a Schubert walk cut at the target's degree.

The connection oracles read a connection's star positions through
``connection_dict``, which decodes them with ``edges_at`` alone, not with
``GkmGraph.along`` or ``GkmGraph.connection_pairs``.

``GkmGraph`` keeps its edges as int columns only.  Tests name an edge
as an :class:`Edge` (src, dst, label), list a graph's edges with
:func:`edges_of`, and build graphs from such lists through
:func:`edge_graph`, which interns the labels in order of first
occurrence before it calls the ``GkmGraph`` constructor.  ``GkmGraph`` reads each edge's reverse off
its connection; the coset oracles compute the reverse by their own
route, the textbook formula, and return it beside the graph, and
:func:`reverse_by_matching` finds it by endpoints and labels alone.

``changed_graph`` is not an oracle: graphs are immutable, so the tests
that tamper with one build the tampered copy with it.
"""

import json
import operator
from fractions import Fraction
from functools import reduce
from itertools import combinations, islice
from math import comb
from typing import NamedTuple, Sequence

from gkmflag import linalg
from gkmflag.gkmgraph import CohClass, GkmGraph, GkmIso, Report, coh_failure, graph_to_json
from gkmflag.invbases import _basis_failures, class_cI, index_set, tower_bundle
from gkmflag.parabolic import base_tree, build_coset_graph
from gkmflag.polyring import LinearForm, Polynomial, grlex_key
from gkmflag.rootsys import group_closure
from gkmflag.schubert import flag_graph, schubert_table


class Edge(NamedTuple):
    src: int
    dst: int
    label: LinearForm


def edges_of(g):
    """The edges of g as a tuple of :class:`Edge`, in edge-id order."""
    return tuple(map(Edge, g.src, g.dst, map(g.labels.__getitem__, g.label_id)))


def edge_graph(varcount, vertices, edges, connection):
    """The ``GkmGraph`` of a list of (src, dst, label) triples such as
    ``Edge``, with the labels interned: equal forms share one id, the
    first of them is the label, and ids number the labels in order of
    first occurrence."""
    src, dst, forms = zip(*edges) if edges else ((), (), ())
    index = {form: k for k, form in enumerate(dict.fromkeys(forms))}
    return GkmGraph(varcount, vertices, src, dst, index, map(index.__getitem__, forms), connection)


def changed_graph(g, labels=None, connection=None):
    """A new graph equal to g but at the given edge ids: ``labels`` maps an
    edge id to its new label and ``connection`` to its new connection
    tuple of star positions.  The vertices and edge ends are g's, and the
    reverse map is read off the new connection."""
    labels, connection = labels or {}, connection or {}
    forms = [labels.get(eid, g.label(eid)) for eid in range(len(g.src))]
    return edge_graph(g.varcount, g.vertices, list(zip(g.src, g.dst, forms)),
                      [connection.get(eid, c) for eid, c in enumerate(g.connection)])


def reverse_by_matching(g):
    """The reverse of each edge of g found by its endpoints and label: the
    one edge from its head to its tail whose label is its negation.  On a
    graph whose labels at each vertex are pairwise independent there is at
    most one; ValueError if there is none or more than one."""
    back, edges = {}, edges_of(g)
    for eid, e in enumerate(edges):
        back.setdefault((e.src, e.dst, e.label), []).append(eid)
    out = []
    for e in edges:
        found = back.get((e.dst, e.src, -e.label), [])
        if len(found) != 1:
            raise ValueError(f"{len(found)} edges reverse {e}")
        out.append(found[0])
    return tuple(out)


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


def cosets_by_enumeration(rs, sigma1, sigma2):
    """(reps, vertex) for W(Sigma2)/W(Sigma1): the minimal element of each
    coset w W(Sigma1), in (length, one-line) order, and the map from every
    element of W(Sigma2) to the index of its coset.  Both groups are
    enumerated breadth first, W(Sigma2) is sorted by the number of
    positive roots each element sends to negative ones, and each coset is
    multiplied out from its first element, which must be its only element
    of least length."""
    def length(w):
        return sum(w.act_linear(beta) not in rs.positive_roots for beta in rs.positive_roots)

    def group(sigma):
        return group_closure([rs.identity()], [rs.simple_reflection(i) for i in sigma],
                             operator.mul)

    w1 = group(sigma1)
    reps, vertex = [], {}
    for w in sorted(group(sigma2), key=lambda w: (length(w), w.one_line())):
        if w in vertex:
            continue
        coset = [w * u for u in w1]
        if sum(length(x) == length(w) for x in coset) != 1:
            raise AssertionError(f"{w} is not the only minimal element of its coset")
        vertex.update(dict.fromkeys(coset, len(reps)))
        reps.append(w)
    return reps, vertex


def coset_graph_from_reps(rs, sigma1, sigma2, reps):
    """The coset graph of W(Sigma2)/W(Sigma1) built on the given
    representatives, reps[p] in the p-th coset of
    :func:`cosets_by_enumeration`, by the textbook formula: vertex p
    (w = reps[p]) has one edge per direction beta of <Sigma2> \\ <Sigma1>
    (from :func:`closure_by_coordinates`), to the coset q of w s_beta,
    labeled w beta, and with u = (w s_beta)^-1 reps[q], found by group
    products, the connection sends direction beta' at p to direction
    u^-1 beta' at q.  Vertices are named by the minimal representatives.
    Returns (graph, reverse), with reverse[e] the edge at q in direction
    u^-1 beta, the image of direction beta."""
    minimal, vertex = cosets_by_enumeration(rs, sigma1, sigma2)
    if [vertex[w] for w in reps] != list(range(len(minimal))):
        raise ValueError("a representative lies in the wrong coset")
    inner = set(closure_by_coordinates(rs, sigma1))
    roots = [beta for beta in closure_by_coordinates(rs, sigma2) if beta not in inner]
    edges, reverse, connection = [], [], []
    for p, w in enumerate(reps):
        for k, beta in enumerate(roots):
            ws = w * rs.reflection(beta)
            q = vertex[ws]
            u = ws.inverse() * reps[q]
            directions = tuple(roots.index(u.inverse().act_linear(b)) for b in roots)
            edges.append(Edge(p, q, w.act_linear(beta)))
            connection.append(directions)
            reverse.append(q * len(roots) + directions[k])
    names = [w.one_line_str() for w in minimal]
    return edge_graph(rs.varcount, names, edges, connection), tuple(reverse)


def coset_graph_by_edges(cg):
    """The graph of the coset graph ``cg`` built edge by edge: for each
    representative w and direction k, one ``Edge`` labeled
    ``w.act_linear(roots[k])`` to the coset of w s_beta, with the
    connection read off the word of the ``coset_min`` descent, handed to
    :func:`edge_graph`, which interns the labels.  Returns (graph,
    reverse), with reverse[e] the edge at q in the direction the
    connection gives direction k."""
    rs, roots, sigma1 = cg.rs, cg.roots, cg.sigma1
    d = len(roots)
    index = {beta: k for k, beta in enumerate(roots)}
    vertex = {w: p for p, w in enumerate(cg.reps)}
    refl = [rs.reflection(beta) for beta in roots]
    t = {i: [index[rs.simple_reflection(i).act_linear(b)] for b in roots] for i in sigma1}
    perm = {(): tuple(range(d))}
    edges, reverse, connection = [], [], []
    for p, w in enumerate(cg.reps):
        for k, beta in enumerate(roots):
            ws, word = rs.coset_min(w * refl[k], sigma1)
            if word not in perm:
                perm[word] = tuple(reduce(lambda js, i: [t[i][j] for j in js], word, range(d)))
            q, dirs = vertex[ws], perm[word]
            edges.append(Edge(p, q, w.act_linear(beta)))
            connection.append(dirs)
            reverse.append(q * d + dirs[k])
    names = [w.one_line_str() for w in cg.reps]
    return edge_graph(rs.varcount, names, edges, connection), tuple(reverse)


def connection_dict(g, eid):
    """The connection along eid as {edge at the tail: its image}, decoded
    from star positions through ``edges_at`` alone."""
    head = g.edges_at[g.dst[eid]]
    return {e1: head[i] for e1, i in zip(g.edges_at[g.src[eid]], g.connection[eid])}


def induced_subgraph_by_scan(g, vertexset):
    """``gkmgraph.induced_subgraph`` by whole-graph scans: the edges the
    set induces are found by a scan of every edge of g, once to check the
    set and once to build the subgraph, and connectivity by a walk on an
    adjacency dict built for it.  Returns (graph, vertex_map, edge_map) or
    raises ValueError with the text ``induced_subgraph`` gives."""
    vs = set(vertexset)
    scanned = edges_of(g)
    induced = {eid for eid, e in enumerate(scanned) if e.src in vs and e.dst in vs}
    adj = {v: [] for v in vs}
    for eid in induced:
        adj[scanned[eid].src].append(scanned[eid].dst)
    stack = list(vs)[:1]
    seen = set(stack)
    while stack:
        for q in adj[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    if len(seen) != len(vs):
        raise ValueError("vertex set induces a disconnected subgraph")
    for eid in induced:
        e, conn = scanned[eid], connection_dict(g, eid)
        if ({conn[x] for x in g.edges_at[e.src] if x in induced}
                != {x for x in g.edges_at[e.dst] if x in induced}):
            raise ValueError("not a GKM subgraph for the stored connection")
    vmap = {old: new for new, old in enumerate(sorted(vs))}
    eids = [eid for eid, e in enumerate(scanned) if e.src in vmap and e.dst in vmap]
    emap = {old: new for new, old in enumerate(eids)}
    edges = [Edge(vmap[scanned[eid].src], vmap[scanned[eid].dst], scanned[eid].label)
             for eid in eids]
    slot, degree = [], [0] * len(vmap)  # each new edge's position in its new star
    for e in edges:
        slot.append(degree[e.src])
        degree[e.src] += 1
    connection = [tuple(slot[emap[b]] for a, b in connection_dict(g, eid).items() if a in emap)
                  for eid in eids]
    sub = edge_graph(g.varcount, [g.vertices[v] for v in sorted(vs)], edges, connection)
    return sub, vmap, emap


def connection_failure(g):
    """First (eid, e1) whose connection image is not the edge at dst(eid)
    labeled s_{label(eid)}(label(e1)), or None.

    On a coset graph the labels at a vertex are distinct, so this pins
    the connection down completely.
    """
    edges = edges_of(g)
    for eid, e in enumerate(edges):
        for e1, e2 in connection_dict(g, eid).items():
            image = edges[e2]
            if (edges[e1].src != e.src or image.src != e.dst
                    or image.label != reflect_form(e.label, edges[e1].label)):
                return eid, e1
    return None


def restrict_to_hyperplane(f, l):
    """f restricted to the hyperplane l = 0: ``substitute_linear`` sends
    the pivot x_p (the highest-index variable of l) to -m/a, for
    l = a*x_p + m, and fixes every other variable."""
    p = max(i for i, c in enumerate(l.coeffs) if c != 0)
    images = []
    for i in range(l.varcount):
        unit = [0] * l.varcount
        if i == p:
            unit = [Fraction(-c, l.coeffs[p]) for c in l.coeffs]
            unit[p] = 0
        else:
            unit[i] = 1
        images.append(LinearForm(unit))
    return f.substitute_linear(images)


def coh_failure_by_restriction(c):
    """The first unoriented edge whose end values differ by a
    non-multiple of its label: a difference that does not vanish on the
    label's hyperplane."""
    g = c.graph
    for eid, e in enumerate(edges_of(g)):
        if eid > g.reverse[eid]:
            continue
        if not restrict_to_hyperplane(c.values[e.dst] - c.values[e.src], e.label).is_zero():
            return eid
    return None


def divrem_by_long_division(f, l):
    """(q, r) with f == q*l + r and r free of the pivot x_p of l, by
    long division: while a term holds x_p, the grlex-largest such term
    is cancelled by a multiple of l."""
    p = max(i for i, c in enumerate(l.coeffs) if c != 0)
    a = l.coeffs[p]
    work = dict(f.terms)
    qterms = {}
    while True:
        cand = [e for e in work if e[p] > 0]
        if not cand:
            break
        e = max(cand, key=grlex_key)
        factor = Fraction(work[e]) / a
        eq = e[:p] + (e[p] - 1,) + e[p + 1:]
        qterms[eq] = qterms.get(eq, 0) + factor
        for i, li in enumerate(l.coeffs):
            if li:
                et = eq[:i] + (eq[i] + 1,) + eq[i + 1:]
                s = work.get(et, 0) - factor * li
                if s == 0:
                    work.pop(et, None)
                else:
                    work[et] = s
    return Polynomial(f.varcount, qterms), Polynomial(f.varcount, work)


def gkm_report_by_edges(g):
    """The (name, passed, witness) list of ``verify_gkm(g)``, edge by edge.

    Every label axiom is decided with fresh LinearForm arithmetic on each
    edge, pair of edges at a vertex and connection entry, so no verdict
    is shared between edges that carry equal labels.  The reverse of e is
    the image of e under the connection along e, decoded by
    :func:`connection_dict`.
    """
    out, edges = [], edges_of(g)

    reverse = [connection_dict(g, eid)[eid] for eid in range(len(edges))]
    bad = ""
    for eid, e in enumerate(edges):
        r = reverse[eid]
        if reverse[r] != eid or r == eid:
            bad = f"edge {g.edge_str(eid)} has no valid reverse"
            break
        re = edges[r]
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
            li = edges[eids[i]].label
            lj = edges[eids[j]].label
            if li.proportional_to(lj) is not None:
                bad = f"labels {li} and {lj} at vertex {g.vertices[p]} are proportional"
                break
        if bad:
            break
    out.append(("independence", not bad, bad))

    bad = ""
    for eid, e in enumerate(edges):
        conn = connection_dict(g, eid)
        if (set(conn.keys()) != set(g.edges_at[e.src])
                or set(conn.values()) != set(g.edges_at[e.dst])
                or len(set(conn.values())) != len(conn)):
            bad = f"connection along {g.edge_str(eid)} is not a bijection E_p -> E_q"
            break
        rconn = connection_dict(g, reverse[eid])
        if any(rconn.get(v) != k for k, v in conn.items()):
            bad = f"connection along reverse of {g.edge_str(eid)} is not the inverse"
            break
    out.append(("connection-shape", not bad, bad))

    bad = ""
    for eid, e in enumerate(edges):
        for e1, e2 in connection_dict(g, eid).items():
            diff = edges[e2].label - edges[e1].label
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
        if ui.act_linear(beta) not in rs.positive_roots:
            prod = prod * beta.to_polynomial()
    for e in monos:
        row = {unknown(u, e): Fraction(1)}
        rows.append(row)
        rhs.append(prod.terms.get(e, Fraction(0)))
    # divisibility along every unoriented edge
    rem_cache = {}
    for eid, edge in enumerate(edges_of(g)):
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
    for eid, e in enumerate(edges_of(total.graph)):
        beta = total.roots[eid % len(total.roots)]  # edge p*d + k has direction roots[k]
        if beta in closure2:
            continue
        u = base.reps[pi[e.src]].inverse() * total.reps[e.src]
        gamma = rs.positive_part(u.act_linear(beta))
        dpi[eid] = pi[e.src] * len(base.roots) + base.roots.index(gamma)
    vmaps = {}
    for beid, e in enumerate(edges_of(base.graph)):
        s = rs.reflection(e.label)
        vmaps[beid] = {x: total.vertex_of(s * total.reps[x])
                       for x in range(total.nvertices) if pi[x] == e.src}
    return pi, dpi, vmaps


def fiber_model_iso(b, p, vm):
    """(phi_w, psi_w): typical fiber -> fiber subgraph over base vertex p
    of a coset bundle, whose vertex map is ``vm`` (total vertex ->
    subgraph vertex); u goes to [r u], r the representative of p."""
    rs, full = b.rs, b.rs.full_sigma()
    r = build_coset_graph(rs, b.sigma2, full).reps[p]
    total = build_coset_graph(rs, b.sigma1, full)
    return GkmIso(tuple(vm[total.vertex_of(r * u)]
                        for u in build_coset_graph(rs, b.sigma1, b.sigma2).reps), r.matrix())


def holonomy_of_loop(b, fiber, loop_edges):
    """(vertex map on ``fiber``, linear part) of transport around a loop
    of base edges that starts at the base vertex under ``fiber``,
    multiplied out edge by edge through the stored transitions."""
    cur = {p: p for p in fiber}
    psi = linalg.identity_matrix(b.total.varcount)
    for beid in loop_edges:
        t = b.transitions[beid]
        cur = {p: t.vmap[q] for p, q in cur.items()}
        psi = linalg.mat_mul(t.psi, psi)
    return cur, psi


def extend_by_edges(b, fiber_class, base_point=0):
    """``invbases.extend_invariant``, carrying values edge by edge.

    The class is placed on the fiber over the base point through its
    representative r and carried along every edge of ``base_tree``:
    across an edge labeled gamma the value at [s_gamma x] is s_gamma
    applied to the value at x.  Carrying it across each non-tree edge
    must then agree with the value already there; the first edge that
    disagrees is named in the ValueError.  Then the input must be a class
    on the typical fiber.
    """
    full = b.rs.full_sigma()
    fib = build_coset_graph(b.rs, b.sigma1, b.sigma2)
    if len(fiber_class.values) != fib.nvertices:
        raise ValueError("class does not live on the typical fiber")
    total = build_coset_graph(b.rs, b.sigma1, full)
    rep = build_coset_graph(b.rs, b.sigma2, full).reps[base_point]
    vals = [None] * b.total.nvertices
    for u, value in zip(fib.reps, fiber_class.values):
        vals[total.vertex_of(rep * u)] = rep.act_poly(value)

    fibers = b.fibers()

    def transported(beid):
        s = b.rs.reflection(b.base.label(beid))
        return [(total.vertex_of(s * total.reps[x]), s.act_poly(vals[x]))
                for x in fibers[b.base.src[beid]]]

    tree, chords = base_tree(b.base, base_point)
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


def regular_grid(rs, e: int):
    """The C(e + m, m) points (a_{1,k_1}, ..., a_{m,k_m}) with k_1 + ... +
    k_m <= e, where a_{i,k} = 2^(i - 1 + k m).

    Coordinates are distinct powers of 2, so no root x_i -+ x_j, x_i, 2 x_i
    vanishes.  The first point, (1, 2, 4, ...), is the regular point of the
    certificate.  A polynomial f of total degree at most e that vanishes on
    the grid is zero, by induction on m (m = 0 is a constant vanishing at
    one point).  In the Newton basis N_j = prod_{k<j} (x_1 - a_{1,k}),
    f = sum_{j<=e} f_j N_j with f_j free of x_1 and of degree at most
    e - j (the change from the powers of x_1 to the N_j is triangular with
    constant entries).  At x_1 = a_{1,j} every N_l with l > j vanishes and
    N_j does not, so once f_0 = ... = f_{j-1} = 0, f_j vanishes on the
    grid of the other m - 1 coordinates with index sum at most e - j, and
    is zero.
    """
    m = rs.varcount

    def points(i, budget):
        if i == m:
            yield []
            return
        for k in range(budget + 1):
            for rest in points(i + 1, budget - k):
                yield [2 ** (i + k * m)] + rest

    return points(0, e)


def verify_basis_by_determinant(rs, family):
    """The count, independence and spanning checks of
    ``invbases.verify_basis`` for any ``BasisFamily`` of classes on the
    flag graph, decided on the whole flag graph.

    Spanning: every member passes ``coh_failure`` and ``_basis_failures``
    holds with the flag graph as its one block.  Independence is exact: a
    nonzero certificate determinant det M proves it.  Else det M, or det B
    = det M / prod_w tau_w(w) when every member is a class, has degree at
    most e = sum_k (top degree of c_k), less sum_w l(w) for det B.  It is
    zero if e < 0, else iff it vanishes on ``regular_grid`` (whose points
    avoid the root hyperplanes): the regular point alone when every
    premise holds, else C(e + m, m) value determinants of size |W|.
    """
    rep = Report()
    nW = len(rs.elements())
    square = len(family.indices) == nW
    rep.add("count", square,
            f"{len(family.indices)} classes for a group of order {nW}")
    if not square:
        rep.add("independence", False, "the value matrix is not square")
        rep.add("spanning", False, "the value matrix is not square")
        return rep

    names = family.names()
    bad = {}
    for name, c in zip(names, family.classes):
        edge = coh_failure(c)
        if edge is not None:
            bad["class"] = f"{name} fails the class condition at {c.graph.edge_str(edge)}"
            break
    bad.update(_basis_failures(family.classes, names, "the flag graph"))
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
                for pt in islice(regular_grid(rs, e), 1, None))
            factor = "" if "class" in bad else "prod_w tau_w(w) times "
            witness = "" if independent else (
                f"the value determinant is {factor}a polynomial of degree at "
                f"most {e}, and it vanishes on the {comb(e + rs.varcount, e)}-point "
                f"regular grid")
    rep.add("independence", independent, witness)
    rep.add("spanning", not bad, next(iter(bad.values()), ""))
    return rep


def express_by_cramer(b, classes, target):
    """The coefficients of ``express_in_basis``, by Cramer's rule per fiber.

    Solves each fiber's square polynomial system with Bareiss
    determinants (``linalg.solve_poly_square``), trusting no
    certificate; returns the coefficients as classes on the base, or
    None if some fiber has no polynomial solution.
    """
    beta_vals = [[None] * b.base.nvertices for _ in classes]
    for p, fverts in enumerate(b.fibers()):
        rows = [[c.values[v] for c in classes] for v in fverts]
        sol = linalg.solve_poly_square(rows, [target.values[v] for v in fverts])
        if sol is None:
            return None
        for k, val in enumerate(sol):
            beta_vals[k][p] = val
    return [CohClass(b.base, vals) for vals in beta_vals]


def express_by_module_solve(rs, target):
    """The coefficients of ``express_in_basis``, by one degree-wise sparse
    rational solve per fiber of ``tower_bundle`` (``linalg.solve_module_coeffs``)
    on the classes c_(0,J) of the flag graph: {"c[0,J]": beta_J} with
    beta_J the solved values on the base, or None if some fiber has no
    polynomial solution.  No certificate is trusted, and whether each
    beta_J is a class on the base is not checked."""
    b = tower_bundle(rs)
    indices = [(0,) + J for J in index_set(rs.kind, rs.rank - 1)]
    classes = [class_cI(rs, I) for I in indices]
    beta_vals = [[None] * b.base.nvertices for _ in classes]
    for p, fverts in enumerate(b.fibers()):
        sol = linalg.solve_module_coeffs([[c.values[v] for v in fverts] for c in classes],
                                         [target.values[v] for v in fverts], rs.varcount)
        if sol is None:
            return None
        for k, val in enumerate(sol):
            beta_vals[k][p] = val
    return {"c[" + ",".join(map(str, I)) + "]": CohClass(b.base, vals)
            for I, vals in zip(indices, beta_vals)}


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


def reassemble(table, coeffs: dict) -> CohClass:
    """sum_w coeffs[w] * tau_w as a class on the flag graph, read off the
    whole Schubert table of its root system."""
    rs = table.rs
    flag = flag_graph(rs)
    vals = [Polynomial.zero(rs.varcount) for _ in range(flag.nvertices)]
    for w, coeff in coeffs.items():
        for p, v in enumerate(flag.reps):
            vals[p] = vals[p] + coeff * table.tau_value(w, v)
    return CohClass(flag.graph, vals)


def seeded_class_from_table(table, degree: int, rng) -> CohClass:
    """``seeded_random_class`` drawn the same way, with the same calls of
    ``rng`` in the same order, but summed by ``reassemble`` over the whole
    Schubert table."""
    rs = table.rs
    coeffs = {}
    for u in rs.elements():
        rem = degree - rs.length(u)
        if rem < 0:
            continue
        terms = {}
        for _ in range(rng.randint(1, 2)):
            exps = [0] * rs.varcount
            for _ in range(rem):
                exps[rng.randrange(rs.varcount)] += 1
            c = rng.randint(-3, 3)
            if c:
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
        poly = Polynomial(rs.varcount, terms)
        if not poly.is_zero():
            coeffs[u] = poly
    if not coeffs:
        coeffs[rs.identity()] = Polynomial.one(rs.varcount)
    return reassemble(table, coeffs)


def schubert_tsv_from_table(rs):
    """The Schubert TSV built whole from ``schubert_table(rs).columns``:
    rows = evaluation points w, columns = Schubert classes tau_u."""
    table = schubert_table(rs)
    names = ["tau[" + u.one_line_str() + "]" for u in table.order]
    lines = ["\t".join(["word", "one_line"] + names)]
    for w in table.order:
        cells = [str(table.tau_value(u, w)) for u in table.order]
        lines.append("\t".join([rs.word_str(w), w.one_line_str()] + cells))
    return "\n".join(lines) + "\n"


def polynomial_text(p):
    """The text of a polynomial written out term by term: graded-lex
    descending, coefficient 1 and exponent 1 omitted, "a/b" for a
    fraction, and " + " or " - " between terms."""
    terms = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    out = ""
    for n, (exps, c) in enumerate(terms):
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "")
                   for i, k in enumerate(exps) if k > 0]
        mag = abs(Fraction(c))
        number = (str(mag.numerator) if mag.denominator == 1
                  else f"{mag.numerator}/{mag.denominator}")
        if not factors:
            body = number
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = number + "*" + "*".join(factors)
        if n == 0:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


def bundle_to_json(b):
    """The bundle file as a dict: the total graph with each edge's class,
    the base graph, and the projection by vertex names."""
    total = graph_to_json(b.total)
    for eid, entry in enumerate(total["edges"]):
        entry["class"] = "horizontal" if eid in b.dpi else "vertical"
    return {
        "total": total,
        "base": graph_to_json(b.base),
        "projection": {
            b.total.vertices[q]: b.base.vertices[b.pi[q]]
            for q in range(b.total.nvertices)
        },
    }


def json_file_text(data):
    """What a graph or bundle file holds for its dict form ``data``."""
    return json.dumps(data, indent=1) + "\n"
