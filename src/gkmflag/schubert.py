"""Equivariant Schubert classes via the nilCoxeter product formula.

The nilCoxeter ring has one generator per simple reflection, squaring to
zero and satisfying the braid relations, with basis u_w indexed by the
Weyl group: u_w u_v = u_{wv} when lengths add and 0 otherwise.  For a
reduced word w = s_{i_1} ... s_{i_r} set

    H_w = (1 + a_1 u_{i_1}) (1 + a_2 u_{i_2}) ... (1 + a_r u_{i_r}),
    a_k = s_{i_1} ... s_{i_{k-1}} (alpha_{i_k}),

a product that does not depend on the chosen word.  Expanding it in the
u-basis produces, all at once, the column of Schubert-class values at w:
the coefficient of u_v is tau_v(w), the value at w of the unique class of
degree 2*len(v) supported on the Bruhat up-set of v and normalized at v
by the product of its inversion roots.  Reversing the factors with
negated arguments inverts H_w, which is where the alternating formula
and the transition matrices between permuted Schubert bases come from.

All columns come from one walk of the weak order, by length
(``walk_columns``).  If s_i ends the reduced word of w, then
H_w = H_{w s_i} (1 + (w s_i)(alpha_i) u_i) (Billey's formula, applied one
factor at a time), so the column at w is the column at w s_i plus
c * (w s_i)(alpha_i) at v s_i for each of its terms c u_v with
len(v s_i) > len(v).  The walk holds only the columns of two lengths at a
time.  Since a step only raises lengths, a walk cut at length l, which
drops every term longer than l, is exact on the terms it keeps.
``schubert_table_tsv`` streams one row per column of the whole walk and
keeps none, and ``seeded_random_class`` sums its target vertex by vertex
from a walk cut at its degree, so no verb holds the whole table.  Only
the objects of the paper that read every column (the key identity, the
transition matrices) build a ``SchubertTable``, which keeps them all.

The Weyl group acts on classes by f^w(v) = w^{-1} f(wv); averaging over
the group symmetrizes a class, and the change of basis from symmetrized
Schubert classes back to Schubert classes is unitriangular for the weak
left order.  Divided differences decompose any invariant class c_T(f),
f a polynomial, with coefficient (-1)^len(w) * partial_w(f) on tau_w.
The table of the invariant classes c_I is streamed one row per element
by ``invariant_table_tsv``, as the Schubert table is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gkmgraph import CohClass
from .parabolic import CosetGraph, build_coset_graph
from .polyring import LinearForm, Polynomial
from .rootsys import RootSystem, WeylElement

__all__ = [
    "NilCoxElt",
    "SchubertTable",
    "TransitionMatrix",
    "flag_graph",
    "nilcox_one",
    "nilcox_generator",
    "H",
    "H_inv",
    "walk_columns",
    "schubert_table",
    "key_identity_check",
    "permuted_class",
    "symmetrize",
    "transition_matrices",
    "symmetrized_matrix",
    "divided_difference",
    "partial_w",
    "sign_of",
    "invariant_class",
    "invariant_decomposition",
    "seeded_random_class",
    "invariant_table_tsv",
    "schubert_table_tsv",
    "matrix_to_json",
]


def flag_graph(rs: RootSystem) -> CosetGraph:
    """The full graph on W (vertices = group elements), cached on rs."""
    return build_coset_graph(rs, frozenset(), rs.full_sigma())


class NilCoxElt:
    """A finitely supported map from the Weyl group to polynomials."""

    __slots__ = ("rs", "coeffs")

    def __init__(self, rs: RootSystem, coeffs: dict | None = None):
        self.rs = rs
        clean = {}
        if coeffs:
            for w, c in coeffs.items():
                if not c.is_zero():
                    clean[w] = c
        self.coeffs = clean

    def __add__(self, other: "NilCoxElt") -> "NilCoxElt":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = out.get(w)
            out[w] = c if s is None else s + c
        return NilCoxElt(self.rs, out)

    def __mul__(self, other) -> "NilCoxElt":
        if isinstance(other, Polynomial):
            return NilCoxElt(self.rs, {w: c * other for w, c in self.coeffs.items()})
        self._check(other)
        rs = self.rs
        out: dict = {}
        for w1, c1 in self.coeffs.items():
            l1 = rs.length(w1)
            for w2, c2 in other.coeffs.items():
                if rs.length(w2) + l1 != rs.length(w1 * w2):
                    continue
                w = w1 * w2
                c = c1 * c2
                s = out.get(w)
                out[w] = c if s is None else s + c
        return NilCoxElt(self.rs, out)

    def act(self, w: WeylElement) -> "NilCoxElt":
        """Apply w to every coefficient (the basis elements are untouched)."""
        return NilCoxElt(self.rs, {v: w.act_poly(c) for v, c in self.coeffs.items()})

    def coefficient(self, w: WeylElement) -> Polynomial:
        return self.coeffs.get(w, Polynomial.zero(self.rs.varcount))

    def _check(self, other):
        if not isinstance(other, NilCoxElt) or other.rs is not self.rs:
            raise ValueError("nilCoxeter elements over different groups")

    def __eq__(self, other):
        return (
            isinstance(other, NilCoxElt)
            and other.rs is self.rs
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "NilCox(0)"
        parts = [
            f"({c})*u[{w.one_line_str()}]"
            for w, c in sorted(self.coeffs.items(), key=lambda kv: self.rs.sort_key(kv[0]))
        ]
        return "NilCox(" + " + ".join(parts) + ")"


def nilcox_one(rs: RootSystem) -> NilCoxElt:
    return NilCoxElt(rs, {rs.identity(): Polynomial.one(rs.varcount)})


def nilcox_generator(rs: RootSystem, i: int, form: LinearForm) -> NilCoxElt:
    """h_i(x) = 1 + x*u_i for a linear form x (central over the generators)."""
    return NilCoxElt(rs, {
        rs.identity(): Polynomial.one(rs.varcount),
        rs.simple_reflection(i): form.to_polynomial(),
    })


def H(rs: RootSystem, w: WeylElement, word=None) -> NilCoxElt:
    """The distinguished invertible element whose u_v coefficients are tau_v(w)."""
    if word is None:
        word = rs.reduced_word(w)
    elif rs.from_word(word) != w or len(word) != rs.length(w):
        raise ValueError("not a reduced word for w")
    out = nilcox_one(rs)
    prefix = rs.identity()
    for i in word:
        arg = prefix.act_linear(rs.simple_roots[i - 1])
        out = out * nilcox_generator(rs, i, arg)
        prefix = prefix * rs.simple_reflection(i)
    return out


def H_inv(rs: RootSystem, w: WeylElement, word=None) -> NilCoxElt:
    """Inverse of H(w): w applied to H(w^-1) along the reversed word.

    w s_{i_r} ... s_{i_{k+1}}(alpha_{i_k}) = -s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}),
    so this is the reversed product with negated arguments.
    """
    if word is None:
        word = rs.reduced_word(w)
    return H(rs, w.inverse(), word[::-1]).act(w)


def walk_columns(rs: RootSystem, max_length: int):
    """Yield (w, H(w)) for every w of ``rs.elements()``, in that order,
    without the terms c u_v with len(v) > ``max_length``.

    For w != e, with i the last letter of ``rs.reduced_word(w)``,
    w' = w s_i and a = w'(alpha_i), the column H(w) = H(w')(1 + a u_i) is
    H(w') plus c * a at v s_i for every term c u_v of H(w') with
    len(v s_i) > len(v): one generator step, with no general product.
    A step only raises lengths, so a term of length l at w comes only from
    the terms of length l and l - 1 at w'; dropping every term longer than
    ``max_length`` therefore leaves each kept term exact, and with
    ``max_length`` = |Phi+| nothing is dropped.  The elements come by
    length and w' is one shorter than w, so only the columns of the
    previous and the current length are held, never the whole table.
    """
    order = rs.elements()
    level_len, prev_level = 0, {}
    level = {order[0]: nilcox_one(rs)}  # order[0] is the identity
    yield order[0], level[order[0]]
    for w in order[1:]:
        if rs.length(w) != level_len:
            level_len, prev_level, level = rs.length(w), level, {}
        i = rs.reduced_word(w)[-1]
        si = rs.simple_reflection(i)
        w_prev = w * si
        a = w_prev.act_linear(rs.simple_roots[i - 1]).to_polynomial()
        base = prev_level[w_prev].coeffs
        coeffs = dict(base)
        for v, c in base.items():
            vs = v * si
            if rs.length(v) < rs.length(vs) <= max_length:
                old = coeffs.get(vs)
                new = c * a if old is None else old + c * a
                if new.is_zero():
                    del coeffs[vs]
                else:
                    coeffs[vs] = new
        level[w] = col = NilCoxElt(rs, coeffs)
        yield w, col


class SchubertTable:
    """All values tau_u(w) for one Weyl group: the column at w is H(w).

    ``columns`` keeps every column of one untruncated ``walk_columns``
    walk."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.order = list(rs.elements())
        self.columns = dict(walk_columns(rs, len(rs.positive_roots)))

    def tau_value(self, u: WeylElement, w: WeylElement) -> Polynomial:
        return self.columns[w].coefficient(u)

    def tau(self, u: WeylElement) -> CohClass:
        flag = flag_graph(self.rs)
        return CohClass(flag.graph, [self.tau_value(u, w) for w in flag.reps])


def schubert_table(rs: RootSystem) -> SchubertTable:
    """A new Schubert table of rs, for the objects that read the whole
    table (the key identity, the transition matrices); no verb builds one."""
    return SchubertTable(rs)


def key_identity_check(rs: RootSystem, pairs=None):
    """Does H(w*v) == H(w) * (w applied to H(v)) on the given pairs?

    H is read from the Schubert table.  Its walk uses only the pairs
    (w s_i, s_i), so every other pair checks the walk.
    Returns (ok, first bad pair or None).  Defaults to all pairs.
    """
    columns = schubert_table(rs).columns
    if pairs is None:
        pairs = [(w, v) for w in rs.elements() for v in rs.elements()]
    for w, v in pairs:
        if columns[w * v] != columns[w] * columns[v].act(w):
            return False, (w, v)
    return True, None


# ----------------------------------------------------------------------
# the group action on classes


def permuted_class(rs: RootSystem, c: CohClass, w: WeylElement) -> CohClass:
    """f^w(v) = w^{-1} f(wv), a class again on the full flag graph."""
    flag = flag_graph(rs)
    if c.graph is not flag.graph:
        raise ValueError("class does not live on the flag graph")
    winv = w.inverse()
    vals = [
        winv.act_poly(c.values[flag.vertex_of(w * v)]) for v in flag.reps
    ]
    return CohClass(flag.graph, vals)


def symmetrize(rs: RootSystem, c: CohClass) -> CohClass:
    """Average the permuted classes f^w over the whole group."""
    flag = flag_graph(rs)
    acc = [Polynomial.zero(rs.varcount)] * flag.nvertices
    for w in rs.elements():
        cw = permuted_class(rs, c, w)
        acc = [a + b for a, b in zip(acc, cw.values)]
    scale = Fraction(1, len(rs.elements()))
    return CohClass(flag.graph, [a.scale(scale) for a in acc])


@dataclass
class TransitionMatrix:
    """Square matrix over the polynomial ring indexed by group elements."""

    rs: RootSystem
    order: tuple
    entries: dict  # (u, v) -> Polynomial, zeros omitted

    def entry(self, u, v) -> Polynomial:
        return self.entries.get((u, v), Polynomial.zero(self.rs.varcount))

    def __matmul__(self, other: "TransitionMatrix") -> "TransitionMatrix":
        out = {}
        for u in self.order:
            for v in other.order:
                acc = Polynomial.zero(self.rs.varcount)
                for t in self.order:
                    a = self.entries.get((u, t))
                    b = other.entries.get((t, v))
                    if a is not None and b is not None:
                        acc = acc + a * b
                if not acc.is_zero():
                    out[(u, v)] = acc
        return TransitionMatrix(self.rs, self.order, out)

    def is_identity(self) -> bool:
        one = Polynomial.one(self.rs.varcount)
        for u in self.order:
            for v in self.order:
                want = one if u == v else None
                got = self.entries.get((u, v))
                if want is None and got is not None:
                    return False
                if want is not None and got != want:
                    return False
        return True

    def is_unitriangular_weak_left(self) -> bool:
        one = Polynomial.one(self.rs.varcount)
        for (u, v), val in self.entries.items():
            if u == v:
                if val != one:
                    return False
            elif not self.rs.weak_left_leq(v, u):
                return False
        return True


def transition_matrices(table: SchubertTable, w: WeylElement):
    """The pair (a^w, b^w) relating permuted and plain Schubert bases,
    read off the table of the root system.

    a^w expresses tau_u^w in the tau basis with entries
    (-1)^len(v u^-1) tau_{v u^-1}(w^-1) for v weakly below u, and b^w is
    its inverse, with entries tau_{u v^-1}(w^-1).
    """
    rs = table.rs
    winv = w.inverse()
    order = tuple(table.order)
    a_entries = {}
    b_entries = {}
    for u in order:
        for v in order:
            if not rs.weak_left_leq(v, u):
                continue
            t = v * u.inverse()
            val = table.tau_value(t, winv)
            if not val.is_zero():
                sgn = -1 if rs.length(t) % 2 else 1
                a_entries[(u, v)] = val.scale(sgn)
            t2 = u * v.inverse()
            val2 = table.tau_value(t2, winv)
            if not val2.is_zero():
                b_entries[(u, v)] = val2
    return (
        TransitionMatrix(rs, order, a_entries),
        TransitionMatrix(rs, order, b_entries),
    )


def symmetrized_matrix(rs: RootSystem) -> TransitionMatrix:
    """Average of the a^w over the group: tau_u^sym = sum_v a_{u,v} tau_v."""
    table = schubert_table(rs)
    order = tuple(table.order)
    acc: dict = {}
    for w in rs.elements():
        aw, _ = transition_matrices(table, w)
        for key, val in aw.entries.items():
            cur = acc.get(key)
            acc[key] = val if cur is None else cur + val
    scale = Fraction(1, len(rs.elements()))
    return TransitionMatrix(
        rs, order,
        {k: v.scale(scale) for k, v in acc.items() if not v.scale(scale).is_zero()},
    )


# ----------------------------------------------------------------------
# divided differences and invariant classes


def divided_difference(rs: RootSystem, f: Polynomial, i: int) -> Polynomial:
    """(f - s_i f) / alpha_i; the division is always exact."""
    si = rs.simple_reflection(i)
    num = f - si.act_poly(f)
    q, r = num.divrem_linear(rs.simple_roots[i - 1])
    if not r.is_zero():
        raise ArithmeticError("divided difference left a remainder")
    return q


def partial_w(rs: RootSystem, f: Polynomial, w: WeylElement | None = None, word=None) -> Polynomial:
    """Compose divided differences along a reduced word of w."""
    if word is None:
        if w is None:
            raise ValueError("need w or a word")
        word = rs.reduced_word(w)
    for i in reversed(word):
        f = divided_difference(rs, f, i)
    return f


def sign_of(rs: RootSystem, w: WeylElement) -> int:
    return -1 if rs.length(w) % 2 else 1


def invariant_class(rs: RootSystem, f: Polynomial) -> CohClass:
    """c_T(f): the invariant class v -> v . f on the full flag graph."""
    flag = flag_graph(rs)
    return CohClass(flag.graph, [v.act_poly(f) for v in flag.reps])


def invariant_decomposition(rs: RootSystem, f: Polynomial) -> dict:
    """Coefficients of c_T(f) on the Schubert basis: w -> sign * partial_w f."""
    out = {}
    for w in rs.elements():
        coeff = partial_w(rs, f, w)
        if not coeff.is_zero():
            coeff = coeff.scale(sign_of(rs, w))
            out[w] = coeff
    return out


def seeded_random_class(rs: RootSystem, degree: int, rng) -> CohClass:
    """A reproducible random class: a polynomial combination of tau's.

    Homogeneous of the requested degree; coefficients are random small
    integers on random monomials, so the result is a genuine class by
    construction.  Only the tau_u with len(u) <= degree take a
    coefficient, so the value at each w is summed from the column H(w) of
    a ``walk_columns`` walk cut at ``degree``, which is exact on those
    terms; the columns come in the order of the flag graph's vertices,
    and no whole table is held.
    """
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
    zero = Polynomial.zero(rs.varcount)
    vals = [sum((coeffs[u] * tau for u, tau in col.coeffs.items() if u in coeffs), zero)
            for _, col in walk_columns(rs, degree)]
    return CohClass(flag_graph(rs).graph, vals)


# ----------------------------------------------------------------------
# emitters


def _row_labels(rs: RootSystem, w: WeylElement):
    return rs.word_str(w), w.one_line_str()


def invariant_table_tsv(rs: RootSystem, indices):
    """Rows = group elements, columns = c_I values; layout of the worked tables.

    Yields the header line, then the row of each element in canonical
    order, as ``schubert_table_tsv`` does, so the whole table is never
    held.  A group over the enumeration cap is refused before the header."""
    order = rs.elements()
    names = ("c[" + ",".join(map(str, I)) + "]" for I in indices)
    yield "\t".join(["word", "one_line", *names]) + "\n"
    monos = [Polynomial.monomial(rs.varcount, list(I) + [0] * (rs.varcount - len(I)))
             for I in indices]
    for w in order:
        yield "\t".join([*_row_labels(rs, w), *(str(w.act_poly(m)) for m in monos)]) + "\n"


def schubert_table_tsv(rs: RootSystem):
    """Rows = evaluation points w, columns = Schubert classes tau_u.

    Yields the header line, then the row of each w (the column H(w)) as
    ``walk_columns`` produces it, so the whole table is never held."""
    order = rs.elements()
    names = ["tau[" + u.one_line_str() + "]" for u in order]
    yield "\t".join(["word", "one_line"] + names) + "\n"
    for w, col in walk_columns(rs, len(rs.positive_roots)):
        coeffs = col.coeffs
        cells = [str(coeffs[u]) if u in coeffs else "0" for u in order]
        yield "\t".join([*_row_labels(rs, w), *cells]) + "\n"


def matrix_to_json(mat: TransitionMatrix) -> dict:
    return {
        "order": [u.one_line_str() for u in mat.order],
        "entries": {
            f"{u.one_line_str()};{v.one_line_str()}": str(val)
            for (u, v), val in sorted(
                mat.entries.items(),
                key=lambda kv: (mat.rs.sort_key(kv[0][0]), mat.rs.sort_key(kv[0][1])),
            )
        },
    }
