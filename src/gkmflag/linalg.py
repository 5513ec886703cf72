"""Exact linear algebra helpers: rational matrices and polynomial systems.

Three solvers, all exact:

* dense Gauss elimination over Q (``solve_fraction``, ``rank_fraction``,
  ``det_fraction``, ``invert_fraction``) for small matrices of Fractions;

* fraction-free (Bareiss) determinants of polynomial matrices plus a
  Cramer-style square solve whose final divisions are checked to be exact
  polynomial divisions (``det_poly``, ``solve_poly_square``);

* a sparse rational solver for the large homogeneous module-coefficient
  systems that arise when expressing one cohomology class in a family of
  homogeneous classes (``solve_module_coeffs``).  Writing the unknown
  polynomial coefficients degree by degree turns the polynomial system
  into one sparse linear system over Q per degree, which is solved with
  Markowitz-style pivoting.  A solution certificate is always polynomial
  by construction, so no fraction-field divisions ever appear.  The
  package itself no longer calls it: ``invbases.verify_basis`` proves
  spanning with a determinant certificate, and this solver is the one
  the tests' spanning oracle uses to cross-check that certificate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .polyring import LinearForm, Polynomial

__all__ = [
    "identity_matrix",
    "mat_mul",
    "mat_vec",
    "apply_matrix_form",
    "invert_fraction",
    "left_inverse_fraction",
    "det_fraction",
    "rank_fraction",
    "solve_fraction",
    "det_poly",
    "solve_poly_square",
    "solve_module_coeffs",
    "monomials_of_degree",
]

Matrix = tuple  # tuple of row tuples of Fractions


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def as_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
            for j in range(len(b[0]))
        )
        for i in range(len(a))
    )


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> tuple:
    if len(a[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(
        sum((a[i][k] * v[k] for k in range(len(v))), Fraction(0))
        for i in range(len(a))
    )


def apply_matrix_form(a: Matrix, form: LinearForm) -> LinearForm:
    """Apply a linear map (rows x cols matrix) to a linear form (a vector)."""
    return LinearForm(mat_vec(a, form.coeffs))


def _elim(rows, ncols):
    """In-place row echelon; returns list of (row_index, pivot_col)."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


def rank_fraction(rows) -> int:
    work = [list(map(Fraction, row)) for row in rows]
    if not work:
        return 0
    return len(_elim(work, len(work[0])))


def det_fraction(rows) -> Fraction:
    n = len(rows)
    work = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if work[i][c] != 0:
                pr = i
                break
        if pr is None:
            return Fraction(0)
        if pr != c:
            work[c], work[pr] = work[pr], work[c]
            det = -det
        det *= work[c][c]
        inv = 1 / work[c][c]
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] * inv
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return det


def invert_fraction(rows):
    """Inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    work = [list(map(Fraction, row)) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(rows)]
    pivots = _elim(work, n)
    if len(pivots) != n:
        return None
    return tuple(tuple(work[i][n:]) for i in range(n))


def left_inverse_fraction(rows):
    """A left inverse L (L @ A = I) of a full-column-rank matrix, or None."""
    a = as_matrix(rows)
    nrows, ncols = len(a), len(a[0])
    if nrows == ncols:
        return invert_fraction(a)
    # Solve A^T A x = A^T e_j columnwise via the normal equations; A has
    # full column rank iff A^T A is invertible.
    at = tuple(tuple(a[i][j] for i in range(nrows)) for j in range(ncols))
    gram = mat_mul(at, a)
    gram_inv = invert_fraction(gram)
    if gram_inv is None:
        return None
    return mat_mul(gram_inv, at)


def solve_fraction(rows, rhs):
    """One exact solution of A x = b over Q, or None if inconsistent.

    Free variables are set to zero.  Works for any shape.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    work = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots = _elim(work, n)
    piv_cols = {c for _, c in pivots}
    for i in range(len(pivots), m):
        if work[i][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for r, c in pivots:
        sol[c] = work[r][n] - sum(
            (work[r][j] * sol[j] for j in range(n) if j != c and j not in piv_cols),
            Fraction(0),
        )
    return sol


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
# sparse rational elimination


def solve_sparse_fraction(rows, rhs, ncols):
    """Solve a sparse rational system; rows are dicts {col: coeff}.

    Returns a solution list (free columns set to 0) or None if
    inconsistent.  Pivot choice approximates Markowitz order: always
    eliminate with the shortest available row, on its least-used column.
    """
    rows = [dict(r) for r in rows]
    rhs = [Fraction(v) for v in rhs]
    col_rows: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for c in r:
            col_rows.setdefault(c, set()).add(i)
    active = set(range(len(rows)))
    pivots = []  # (row index, col) in elimination order
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
            break
        _, pr = best
        pc = min(rows[pr], key=lambda c: (len(col_rows.get(c, ())), c))
        pv = rows[pr][pc]
        for i in list(col_rows.get(pc, ())):
            if i == pr or i not in active:
                continue
            f = rows[i][pc] / pv
            for c, v in rows[pr].items():
                s = rows[i].get(c, Fraction(0)) - f * v
                if s == 0:
                    if c in rows[i]:
                        del rows[i][c]
                        col_rows[c].discard(i)
                else:
                    if c not in rows[i]:
                        col_rows.setdefault(c, set()).add(i)
                    rows[i][c] = s
            rhs[i] -= f * rhs[pr]
        active.discard(pr)
        pivots.append((pr, pc))
        for c in rows[pr]:
            col_rows[c].discard(pr)
    for i in active:
        if not rows[i] and rhs[i] != 0:
            return None
    sol = [Fraction(0)] * ncols
    for pr, pc in reversed(pivots):
        s = rhs[pr]
        for c, v in rows[pr].items():
            if c != pc:
                s -= v * sol[c]
        sol[pc] = s / rows[pr][pc]
    return sol


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
                        e = tuple(a + b for a, b in zip(e0, lam))
                        key = (v, e)
                        if key not in eq_index:
                            eq_index[key] = len(rows)
                            rows.append({})
                            rhs.append(Fraction(0))
                        r = rows[eq_index[key]]
                        r[off + j] = r.get(off + j, Fraction(0)) + c0
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

