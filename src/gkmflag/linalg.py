"""Exact linear algebra helpers: rational matrices and polynomial systems.

Entries are numbers in ``polyring``'s normal form: an ``int`` when
integral, else a ``Fraction``.  Every routine takes them in that form and
returns them in that form, and its only true divisions go through
``polyring._div``, so integral data stays in ``int`` arithmetic until a
pivot does not divide.

One rational elimination core and Bareiss, all exact:

* one sparse Gauss elimination over Q with Markowitz-style pivoting
  (``_eliminate``) on rows given as {col: nonzero number} dicts.  Every
  rational routine is a thin wrapper over it: ``solve_sparse_fraction``
  and ``solve_fraction`` back-substitute, ``rank_fraction`` counts the
  pivots, ``det_fraction`` multiplies them (the determinant at one point
  that the basis certificate of ``invbases`` rests on), and
  ``invert_fraction`` solves on it.
  ``solve_module_coeffs`` writes the unknown polynomial coefficients of
  a module-coefficient system degree by degree, which turns it into one
  sparse linear system over Q per degree; a solution certificate is
  polynomial by construction, so no fraction-field divisions ever
  appear.  It is now only an oracle and a benchmark name: no production
  path calls it, since ``invbases.express_in_basis`` interpolates down
  the tower instead; the tests' spanning oracle calls it for every
  Schubert class, and their ``express`` oracle once per fiber;

* fraction-free (Bareiss) determinants of polynomial matrices plus a
  Cramer-style square solve whose final divisions are checked to be exact
  polynomial divisions (``det_poly``, ``solve_poly_square``).  No
  production path calls them: ``solve_poly_square`` serves only the
  tests' Cramer oracle for ``express_in_basis``, and both stay while the
  benchmark's per-layer metrics name them.
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement
from typing import Sequence

from .polyring import Polynomial, _div, _q

__all__ = [
    "identity_matrix",
    "mat_mul",
    "mat_vec",
    "invert_fraction",
    "det_fraction",
    "rank_fraction",
    "solve_fraction",
    "det_poly",
    "solve_poly_square",
    "solve_module_coeffs",
    "monomials_of_degree",
]

Matrix = tuple  # tuple of row tuples of numbers in polyring's normal form


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    return tuple(
        tuple(
            _q(sum(a[i][k] * b[k][j] for k in range(len(b))))
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    if len(a[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(
        _q(sum(a[i][k] * v[k] for k in range(len(v))))
        for i in range(len(a))
    )


# ----------------------------------------------------------------------
# rational elimination


def _eliminate(rows, rhs=None) -> list:
    """Forward elimination in place; returns the pivots (row, col) in order.

    ``rows`` are dicts {col: nonzero number}; ``rhs``, if given, is
    updated alongside them, and every updated entry is put back in normal
    form, so an integral one stays an int.  Pivot choice approximates
    Markowitz order: always eliminate with the shortest active row, on its
    least-used column.  A pivot row keeps only its pivot and columns
    pivoted later, and every row that is not a pivot ends empty.
    """
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    active = set(range(len(rows)))
    pivots = []
    while True:
        best = None
        for i in active:
            if not rows[i]:
                continue
            ln = len(rows[i])
            if best is None or ln < best[0]:
                best = (ln, i)
                if ln == 1:
                    break
        if best is None:
            return pivots
        _, pr = best
        prow = rows[pr]
        pc = min(prow, key=lambda c: (len(col_rows[c]), c))
        active.discard(pr)
        pivots.append((pr, pc))
        for c in prow:
            col_rows[c].discard(pr)
        pv = prow[pc]
        for i in list(col_rows[pc]):
            row = rows[i]
            f = _div(row[pc], pv)
            for c, v in prow.items():
                if c in row:
                    s = _q(row[c] - f * v)
                    if s:
                        row[c] = s
                    else:
                        del row[c]
                        col_rows[c].discard(i)
                else:
                    row[c] = _q(-f * v)
                    col_rows[c].add(i)
            if rhs is not None:
                rhs[i] = _q(rhs[i] - f * rhs[pr])


def _sparse_rows(rows) -> list:
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def solve_sparse_fraction(rows, rhs, ncols):
    """Solve a sparse rational system; rows are dicts {col: nonzero coeff}.

    The rows and ``rhs`` are worked on in copies.  Returns a solution
    list (free columns set to 0) or None if inconsistent.
    """
    rows = [dict(r) for r in rows]
    rhs = list(rhs)
    pivots = _eliminate(rows, rhs)
    # a row the elimination emptied reads 0 = rhs
    if any(rhs[i] for i, r in enumerate(rows) if not r):
        return None
    sol = [0] * ncols
    for pr, pc in reversed(pivots):
        s = rhs[pr]
        for c, v in rows[pr].items():
            if c != pc:
                s -= v * sol[c]
        sol[pc] = _div(s, rows[pr][pc])
    return sol


def solve_fraction(rows, rhs):
    """One exact solution of A x = b over Q, or None if inconsistent.

    Free variables are set to zero.  Works for any shape.
    """
    if not rows:
        return []
    return solve_sparse_fraction(_sparse_rows(rows), rhs, len(rows[0]))


def rank_fraction(rows) -> int:
    return len(_eliminate(_sparse_rows(rows)))


def det_fraction(rows):
    """The product of the pivots times the sign of the row -> column
    pivot permutation; 0 when there are fewer pivots than rows."""
    work = _sparse_rows(rows)
    pivots = _eliminate(work)
    if len(pivots) < len(rows):
        return 0
    det = 1
    for r, c in pivots:
        det *= work[r][c]
    cols = [c for _, c in sorted(pivots)]
    inversions = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
    return _q(-det if inversions % 2 else det)


def invert_fraction(rows):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("not a square matrix")
    cols = [solve_fraction(rows, [int(i == j) for i in range(n)]) for j in range(n)]
    return None if None in cols else tuple(zip(*cols))


# ----------------------------------------------------------------------
# polynomial matrices


def det_poly(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square polynomial matrix by Bareiss elimination.

    All intermediate divisions are exact, so entries stay polynomial.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    m = rows[0][0].varcount
    a = [[p for p in row] for row in rows]
    sign = 1
    prev = Polynomial.one(m)
    for k in range(n - 1):
        if a[k][k].is_zero():
            swap = None
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    swap = i
                    break
            if swap is None:
                return Polynomial.zero(m)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                q, r = num.divmod_poly(prev)
                if not r.is_zero():
                    raise ArithmeticError("Bareiss division not exact")
                a[i][j] = q
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


def solve_poly_square(
    rows: Sequence[Sequence[Polynomial]], rhs: Sequence[Polynomial]
):
    """Solve A x = b with A square over the polynomial ring.

    Returns the list of solutions if the (unique, by nonzero determinant)
    fraction-field solution happens to be polynomial; returns None when A
    is singular or some coordinate is not polynomial.  Uses Cramer's rule
    with Bareiss determinants, so everything stays fraction-free and the
    final division is an exact polynomial division test.
    """
    n = len(rows)
    d = det_poly(rows)
    if d.is_zero():
        return None
    sol = []
    for j in range(n):
        col_rows = [
            [rhs[i] if k == j else rows[i][k] for k in range(n)] for i in range(n)
        ]
        dj = det_poly(col_rows)
        q, r = dj.divmod_poly(d)
        if not r.is_zero():
            return None
        sol.append(q)
    return sol


# ----------------------------------------------------------------------
# module coefficients


def monomials_of_degree(varcount: int, d: int):
    """All exponent tuples of total degree d, in a fixed order."""
    if d == 0:
        return [(0,) * varcount]
    out = []
    for combo in combinations_with_replacement(range(varcount), d):
        e = [0] * varcount
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def solve_module_coeffs(columns, target, varcount: int):
    """Solve target[v] == sum_k beta_k * columns[k][v] for polynomials beta_k.

    ``columns[k]`` is the vector of values of the k-th class at every
    vertex; each column must be homogeneous (all its nonzero values of one
    common degree).  The unknown beta_k are split into homogeneous layers,
    one sparse rational system per degree of the target.  Returns the list
    of beta_k or None if no polynomial solution exists.
    """
    ncls = len(columns)
    nvert = len(target)
    col_deg = []
    for col in columns:
        degs = {p.homogeneous_degree() for p in col if not p.is_zero()}
        if len(degs) > 1 or None in degs:
            raise ValueError("columns must be homogeneous classes")
        col_deg.append(degs.pop() if degs else 0)
    tgt_degs = sorted({d for p in target for d in p.degrees_present()})
    betas = [Polynomial.zero(varcount) for _ in range(ncls)]
    for d in tgt_degs:
        # unknowns: coefficients of each beta_k in degree d - col_deg[k]
        offsets = []
        monos = []
        total = 0
        for k in range(ncls):
            dk = d - col_deg[k]
            if dk < 0:
                offsets.append((total, []))
                continue
            mk = monomials_of_degree(varcount, dk)
            offsets.append((total, mk))
            total += len(mk)
        rows = []
        rhs = []
        eq_index: dict = {}
        for v in range(nvert):
            tv = target[v].homogeneous_component(d)
            for e, c in tv.terms.items():
                eq_index[(v, e)] = len(rows)
                rows.append({})
                rhs.append(c)
            for k in range(ncls):
                off, mk = offsets[k]
                if not mk:
                    continue
                cv = columns[k][v]
                for j, lam in enumerate(mk):
                    for e0, c0 in cv.terms.items():
                        e = tuple(map(operator.add, e0, lam))
                        key = (v, e)
                        if key not in eq_index:
                            eq_index[key] = len(rows)
                            rows.append({})
                            rhs.append(0)
                        r = rows[eq_index[key]]
                        r[off + j] = r.get(off + j, 0) + c0
        sol = solve_sparse_fraction(rows, rhs, total)
        if sol is None:
            return None
        for k in range(ncls):
            off, mk = offsets[k]
            add = {}
            for j, lam in enumerate(mk):
                if sol[off + j] != 0:
                    add[lam] = sol[off + j]
            if add:
                betas[k] = betas[k] + Polynomial(varcount, add)
    # verify exactly; cheap insurance against a consistent-but-wrong split
    for v in range(nvert):
        acc = Polynomial.zero(varcount)
        for k in range(ncls):
            acc = acc + betas[k] * columns[k][v]
        if acc != target[v]:
            return None
    return betas

