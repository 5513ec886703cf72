"""Exact sparse multivariate polynomials over the rationals.

Everything downstream (edge labels, cohomology classes, nilCoxeter
coefficients) lives in Q[x1,...,xm], so this module is deliberately
self-contained and exact.  Every stored coefficient is in one normal form
(``_q``): an ``int`` when it is integral, otherwise a
``fractions.Fraction`` with denominator > 1; never a float, which the
constructors refuse with TypeError.  The objects of the paper (roots,
labels, Schubert values) are integral, so their arithmetic stays in
``int``.  Every true division goes through ``_div``, so two ints never
meet in a float division.  A polynomial is a finite map from exponent
vectors (tuples of non-negative ints of fixed length ``varcount``) to
nonzero coefficients.

Canonical term order is graded lexicographic, descending, with
x1 > x2 > ... > xm.  The string format is bit-exact under that order:

    "x1^2*x2 - 1/2*x3"

Coefficient 1 and exponent 1 are omitted; ``parse_polynomial`` accepts the
same grammar with arbitrary whitespace.

Linear forms (degree-one polynomials without constant term) get their own
lightweight class because they are used as dictionary keys (roots, edge
labels) and support the handful of vector operations the rest of the code
needs: negation, scaling, proportionality tests, and division of a
polynomial by a linear form.  That division, ``divrem_linear``, is the
one exact step behind every divisibility test: its remainder is the
restriction of the polynomial to the form's hyperplane.

All values are immutable by convention: no operation mutates its inputs,
so instances can be shared freely across threads.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import Iterable, Sequence

Monomial = tuple  # exponent vector, length == varcount

__all__ = [
    "Monomial",
    "LinearForm",
    "Polynomial",
    "parse_polynomial",
    "parse_rational",
    "grlex_key",
]


def _q(c):
    """The normal form of an exact coefficient: an int when integral, else
    a Fraction with denominator > 1.  A float raises TypeError."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        if isinstance(c, float):
            raise TypeError(f"float coefficient {c!r}: coefficients must be exact")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """The exact quotient a / b in normal form; the module's only division."""
    return _q(Fraction(a) / b)


def parse_rational(s: str):
    if not re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", s):
        raise ValueError(f"not an integer or n/d: {s!r}")
    try:
        return _q(Fraction(s.strip()))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


@functools.lru_cache(maxsize=4096)
def _monomial_text(exps: Monomial) -> str:
    """The text of one monomial, e.g. "x1^2*x3" for (2, 0, 1); "" for the
    constant monomial.  Pure, so memoised: a table prints few distinct
    monomials many times."""
    return "*".join(f"x{i}" if k == 1 else f"x{i}^{k}"
                    for i, k in enumerate(exps, 1) if k)


def grlex_key(exps: Monomial):
    """Sort key for graded-lex with x1 > x2 > ...; use with reverse=True."""
    return (sum(exps), exps)


class LinearForm:
    """A linear form sum(a_i * x_i) with rational coefficients, each in the
    normal form of ``_q`` (int when integral, else Fraction).

    Hashable and immutable; used for roots and axial-function values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        self.coeffs = tuple(map(_q, coeffs))

    @property
    def varcount(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __neg__(self) -> "LinearForm":
        return LinearForm(tuple(-c for c in self.coeffs))

    def __add__(self, other: "LinearForm") -> "LinearForm":
        if self.varcount != other.varcount:
            raise ValueError("varcount mismatch")
        return LinearForm(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return self + (-other)

    def scale(self, c) -> "LinearForm":
        c = _q(c)
        return LinearForm(tuple(c * a for a in self.coeffs))

    def dot(self, other: "LinearForm"):
        if self.varcount != other.varcount:
            raise ValueError("varcount mismatch")
        return _q(sum(a * b for a, b in zip(self.coeffs, other.coeffs)))

    def proportional_to(self, other: "LinearForm"):
        """Return c with self == c*other, or None if not proportional.

        The zero form is proportional to everything (c = 0), except that
        nothing nonzero is proportional to the zero form.
        """
        if self.varcount != other.varcount:
            raise ValueError("varcount mismatch")
        if self.is_zero():
            return 0
        if other.is_zero():
            return None
        c = None
        for a, b in zip(self.coeffs, other.coeffs):
            if b == 0:
                if a != 0:
                    return None
            else:
                ratio = _div(a, b)
                if c is None:
                    c = ratio
                elif ratio != c:
                    return None
        return c

    def to_polynomial(self) -> "Polynomial":
        terms = {}
        m = self.varcount
        for i, c in enumerate(self.coeffs):
            if c != 0:
                e = [0] * m
                e[i] = 1
                terms[tuple(e)] = c
        return Polynomial(m, terms)

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"LinearForm({self})"

    def __str__(self):
        return str(self.to_polynomial())


def _normal_linear_form(coeffs) -> LinearForm:
    """A LinearForm from coefficients already in the normal form of
    ``_q``, without normalising them again: the Weyl action only moves
    and negates coefficients."""
    form = LinearForm.__new__(LinearForm)
    form.coeffs = tuple(coeffs)
    return form


class Polynomial:
    """Sparse polynomial in Q[x1,...,x_varcount].

    ``terms`` maps exponent tuples to nonzero coefficients in the normal
    form of ``_q`` (int when integral, else Fraction with denominator > 1);
    the zero polynomial has an empty map.  Instances are never mutated
    after construction.
    """

    __slots__ = ("varcount", "terms")

    def __init__(self, varcount: int, terms: dict | None = None):
        if varcount < 1:
            raise ValueError("varcount must be positive")
        self.varcount = varcount
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != varcount:
                    raise ValueError("exponent length != varcount")
                c = _q(c)
                if c != 0:
                    clean[tuple(e)] = c
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, varcount: int) -> "Polynomial":
        return cls(varcount, {})

    @classmethod
    def one(cls, varcount: int) -> "Polynomial":
        return cls.constant(varcount, 1)

    @classmethod
    def constant(cls, varcount: int, c) -> "Polynomial":
        return cls(varcount, {(0,) * varcount: c})

    @classmethod
    def variable(cls, varcount: int, i: int) -> "Polynomial":
        """x_i, with i 1-based."""
        if not 1 <= i <= varcount:
            raise ValueError(f"variable index {i} out of range")
        e = [0] * varcount
        e[i - 1] = 1
        return cls(varcount, {tuple(e): 1})

    @classmethod
    def monomial(cls, varcount: int, exps: Sequence[int], coeff=1) -> "Polynomial":
        if any(e < 0 for e in exps):
            raise ValueError(f"exponents must be non-negative, got {tuple(exps)}")
        return cls(varcount, {tuple(exps): coeff})

    # ------------------------------------------------------------------
    # ring structure

    def _check_compatible(self, other: "Polynomial"):
        if not isinstance(other, Polynomial):
            raise TypeError("expected Polynomial")
        if self.varcount != other.varcount:
            raise ValueError("varcount mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            elif type(s) is int or s.denominator != 1:
                terms[e] = s
            else:
                terms[e] = s.numerator
        out = Polynomial.__new__(Polynomial)
        out.varcount = self.varcount
        out.terms = terms
        return out

    def __neg__(self) -> "Polynomial":
        out = Polynomial.__new__(Polynomial)
        out.varcount = self.varcount
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(operator.add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        for e, s in terms.items():
            if type(s) is not int and s.denominator == 1:
                terms[e] = s.numerator
        out = Polynomial.__new__(Polynomial)
        out.varcount = self.varcount
        out.terms = terms
        return out

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.varcount)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, c) -> "Polynomial":
        c = _q(c)
        return Polynomial(self.varcount, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.varcount == other.varcount
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.varcount, frozenset(self.terms.items())))

    # ------------------------------------------------------------------
    # queries

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self):
        """Degree d if all terms have total degree d, else None.

        The zero polynomial is homogeneous of every degree; it returns 0.
        """
        if not self.terms:
            return 0
        degs = {sum(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def homogeneous_component(self, d: int) -> "Polynomial":
        return Polynomial(
            self.varcount, {e: c for e, c in self.terms.items() if sum(e) == d}
        )

    def degrees_present(self):
        return sorted({sum(e) for e in self.terms})

    def coefficient(self, exps: Sequence[int]):
        return self.terms.get(tuple(exps), 0)

    def leading_term(self):
        """(exponents, coeff) of the graded-lex leading term; None if zero."""
        if not self.terms:
            return None
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        """Terms in canonical (graded-lex descending) order."""
        # descending lex, then a stable sort by descending degree: grlex
        order = sorted(self.terms, reverse=True)
        order.sort(key=sum, reverse=True)
        return [(e, self.terms[e]) for e in order]

    # ------------------------------------------------------------------
    # substitution, division, evaluation

    def substitute_linear(self, images: Sequence[LinearForm]) -> "Polynomial":
        """Apply the ring homomorphism x_i -> images[i-1].

        Every image must be a linear form in the same number of variables;
        this is how linear changes of coordinates (Weyl actions, the Psi of
        a graph isomorphism) act on polynomials.
        """
        if len(images) != self.varcount:
            raise ValueError("need one image per variable")
        m = None
        polys = []
        for img in images:
            if m is None:
                m = img.varcount
            elif img.varcount != m:
                raise ValueError("images have mixed varcounts")
            polys.append(img.to_polynomial())
        result = Polynomial.zero(m)
        cache: dict = {}

        def power(i, k):
            if k == 0:
                return Polynomial.one(m)
            key = (i, k)
            if key not in cache:
                cache[key] = power(i, k - 1) * polys[i]
            return cache[key]

        for e, c in self.terms.items():
            term = Polynomial.constant(m, c)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            result = result + term
        return result

    def divrem_linear(self, l: LinearForm) -> tuple["Polynomial", "Polynomial"]:
        """Divide by a nonzero linear form; the module's one such division.

        Returns (q, r) with self == q*l + r where r does not involve the
        pivot variable x_p of l (its highest-index variable with nonzero
        coefficient).  That pair is unique, and r is the restriction of
        self to the hyperplane l = 0, with x_p solved for: self is
        divisible by l iff r == 0.

        It is synthetic division in x_p.  With l = a*x_p + m and
        self = sum_k f_k*x_p^k, each f_k free of x_p, the quotient
        q = sum_k q_k*x_p^k has q_{k-1} = (f_k - m*q_k)/a from the top
        power down, and r = f_0 - m*q_0.
        """
        if l.varcount != self.varcount:
            raise ValueError("varcount mismatch")
        m = [(i, c) for i, c in enumerate(l.coeffs) if c != 0]
        if not m:
            raise ZeroDivisionError("division by zero linear form")
        p, a = m.pop()
        # one inverse for every step; a unit pivot is its own inverse, so
        # integral work stays in int
        inv = a if a in (1, -1) else _div(1, a)
        # f[k]: the terms of self with x_p^k, keyed by exponents free of x_p
        f = [{} for _ in range(1 + max((e[p] for e in self.terms), default=0))]
        for e, c in self.terms.items():
            f[e[p]][e[:p] + (0,) + e[p + 1:]] = c
        qterms: dict = {}
        level: dict = {}  # q_k, keyed as f[k]; zero above the top power
        for k in range(len(f) - 1, -1, -1):
            acc = f[k]  # becomes f_k - m*q_k
            for e, c in level.items():
                for i, mi in m:
                    et = e[:i] + (e[i] + 1,) + e[i + 1:]
                    acc[et] = acc.get(et, 0) - mi * c
            if not k:
                return Polynomial(self.varcount, qterms), Polynomial(self.varcount, acc)
            level = {e: c * inv for e, c in acc.items() if c}
            for e, c in level.items():
                qterms[e[:p] + (k - 1,) + e[p + 1:]] = c

    def divmod_poly(self, g: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Single-divisor division with remainder in graded-lex order.

        If self == q*g exactly then the remainder is zero, so this doubles
        as an exact-divisibility test for arbitrary polynomial divisors
        (used by the fraction-free solvers).
        """
        self._check_compatible(g)
        if g.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        ge, gc = g.leading_term()
        work = dict(self.terms)
        qterms: dict = {}
        rterms: dict = {}
        while work:
            e = max(work, key=grlex_key)
            c = work.pop(e)
            diff = tuple(map(operator.sub, e, ge))
            if any(d < 0 for d in diff):
                rterms[e] = c
                continue
            factor = _div(c, gc)
            qterms[diff] = qterms.get(diff, 0) + factor
            for e2, c2 in g.terms.items():
                if e2 == ge:
                    continue
                et = tuple(map(operator.add, diff, e2))
                s = work.get(et, 0) - factor * c2
                if s == 0:
                    work.pop(et, None)
                else:
                    work[et] = s
        return Polynomial(self.varcount, qterms), Polynomial(self.varcount, rterms)

    def evaluate(self, point: Sequence[Fraction | int]):
        """The value at ``point``, in normal form; int arithmetic throughout
        when the point and the coefficients are integral."""
        if len(point) != self.varcount:
            raise ValueError("point length != varcount")
        pt = [_q(v) for v in point]
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return _q(total)

    # ------------------------------------------------------------------
    # text format

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = _monomial_text(e)
            mag = abs(c)
            parts.append(" - " if c < 0 else " + ")
            if not mono:
                parts.append(str(mag))
            elif mag == 1:
                parts.append(mono)
            else:
                parts.append(str(mag) + "*" + mono)
        parts[0] = "-" if parts[0] == " - " else ""
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self.varcount}, {self})"


_TOKEN = re.compile(r"\s*(x\d+|\d+|\^|\*|\+|-|/)")


def _tokenize(s: str):
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise ValueError(f"bad character in polynomial string at {s[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_polynomial(s: str, varcount: int) -> Polynomial:
    """Parse the canonical string format: terms joined by single ``+`` or
    ``-`` with at most one leading sign, each term a ``*``-product of
    factors ``x<i>``, ``x<i>^<k>``, ``<n>`` or ``<n>/<d>``.  Whitespace
    between tokens is ignored; any other deviation raises ValueError."""
    tokens = _tokenize(s)
    if not tokens:
        raise ValueError("empty polynomial string")
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"polynomial string ends early: {s!r}")
        pos += 1
        return tokens[pos - 1]

    def accept(tok):
        nonlocal pos
        if pos < len(tokens) and tokens[pos] == tok:
            pos += 1
            return True
        return False

    def parse_factor():
        tok = take()
        if tok.startswith("x"):
            idx = int(tok[1:])
            if not 1 <= idx <= varcount:
                raise ValueError(f"variable {tok} out of range for varcount {varcount}")
            exp = 1
            if accept("^"):
                tok = take()
                if not tok.isdigit():
                    raise ValueError("expected exponent after ^")
                exp = int(tok)
            return Polynomial.variable(varcount, idx) ** exp
        if tok.isdigit():
            if not accept("/"):
                return Polynomial.constant(varcount, int(tok))
            den = take()
            if not den.isdigit():
                raise ValueError(f"expected denominator after / in {s!r}")
            if int(den) == 0:
                raise ValueError(f"zero denominator in {s!r}")
            return Polynomial.constant(varcount, Fraction(int(tok), int(den)))
        raise ValueError(f"unexpected token {tok!r}")

    def parse_term():
        term = parse_factor()
        while accept("*"):
            term = term * parse_factor()
        return term

    result = Polynomial.zero(varcount)
    sign = take() if tokens[0] in ("+", "-") else "+"
    while True:
        term = parse_term()
        result = result + term if sign == "+" else result - term
        if pos == len(tokens):
            return result
        sign = take()
        if sign not in ("+", "-"):
            raise ValueError(f"expected + or - between terms, got {sign!r}")
