"""Independent oracles used by the tests.

These deliberately avoid the production code paths they are checking:
the Schubert solver works from the degree/support/normalization
conditions as a plain linear system, the Bruhat oracle enumerates
subwords, the toy polynomial expander multiplies term lists directly,
the spanning oracle solves for the module coefficients of every
Schubert class instead of trusting the determinant certificate, the
bundle expander solves each fiber by Cramer's rule instead, and the
form expander rewrites a polynomial in given linear forms by dense
elimination.
"""

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from gkmflag import linalg
from gkmflag.gkmgraph import CohClass
from gkmflag.polyring import LinearForm, Polynomial
from gkmflag.schubert import flag_graph, schubert_table


def naive_product(terms_a, terms_b, varcount):
    """Multiply two {exponents: coeff} maps the long way."""
    out = {}
    for ea, ca in terms_a.items():
        for eb, cb in terms_b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return Polynomial(varcount, out)


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
