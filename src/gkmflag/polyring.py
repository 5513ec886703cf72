"""Exact sparse multivariate polynomials over the rationals.

Everything downstream (edge labels, cohomology classes, nilCoxeter
coefficients) lives in Q[x1,...,xm], so this module is deliberately
self-contained and exact: coefficients are ``fractions.Fraction``, never
floats.  A polynomial is a finite map from exponent vectors (tuples of
non-negative ints of fixed length ``varcount``) to nonzero rationals.

Canonical term order is graded lexicographic, descending, with
x1 > x2 > ... > xm.  The string format is bit-exact under that order:

    "x1^2*x2 - 1/2*x3"

Coefficient 1 and exponent 1 are omitted; ``parse_polynomial`` accepts the
same grammar with arbitrary whitespace.

Linear forms (degree-one polynomials without constant term) get their own
lightweight class because they are used as dictionary keys (roots, edge
labels) and support the handful of vector operations the rest of the code
needs: negation, scaling, proportionality tests, and division of a
polynomial by a linear form.

All values are immutable by convention: no operation mutates its inputs,
so instances can be shared freely across threads.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction
Monomial = tuple  # exponent vector, length == varcount

__all__ = [
    "Rational",
    "Monomial",
    "LinearForm",
    "Polynomial",
    "parse_polynomial",
    "parse_rational",
    "format_rational",
    "grlex_key",
]


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def format_rational(c: Fraction) -> str:
    return str(c)


def grlex_key(exps: Monomial):
    """Sort key for graded-lex with x1 > x2 > ...; use with reverse=True."""
    return (sum(exps), exps)


class LinearForm:
    """A linear form sum(a_i * x_i) with rational coefficients.

    Hashable and immutable; used for roots and axial-function values.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int]):
        self.coeffs = tuple(Fraction(c) for c in coeffs)

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
        c = Fraction(c)
        return LinearForm(tuple(c * a for a in self.coeffs))

    def dot(self, other: "LinearForm") -> Fraction:
        if self.varcount != other.varcount:
            raise ValueError("varcount mismatch")
        return sum((a * b for a, b in zip(self.coeffs, other.coeffs)), Fraction(0))

    def proportional_to(self, other: "LinearForm"):
        """Return c with self == c*other, or None if not proportional.

        The zero form is proportional to everything (c = 0), except that
        nothing nonzero is proportional to the zero form.
        """
        if self.varcount != other.varcount:
            raise ValueError("varcount mismatch")
        if self.is_zero():
            return Fraction(0)
        if other.is_zero():
            return None
        c = None
        for a, b in zip(self.coeffs, other.coeffs):
            if b == 0:
                if a != 0:
                    return None
            else:
                ratio = a / b
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


class Polynomial:
    """Sparse polynomial in Q[x1,...,x_varcount].

    ``terms`` maps exponent tuples to nonzero Fractions; the zero
    polynomial has an empty map.  Instances are never mutated after
    construction.
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
                c = Fraction(c)
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
        return cls(varcount, {(0,) * varcount: Fraction(c)})

    @classmethod
    def variable(cls, varcount: int, i: int) -> "Polynomial":
        """x_i, with i 1-based."""
        if not 1 <= i <= varcount:
            raise ValueError(f"variable index {i} out of range")
        e = [0] * varcount
        e[i - 1] = 1
        return cls(varcount, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, varcount: int, exps: Sequence[int], coeff=1) -> "Polynomial":
        return cls(varcount, {tuple(exps): Fraction(coeff)})

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
            s = terms.get(e, Fraction(0)) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
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
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
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
        c = Fraction(c)
        if c == 0:
            return Polynomial.zero(self.varcount)
        out = Polynomial.__new__(Polynomial)
        out.varcount = self.varcount
        out.terms = {e: c * v for e, v in self.terms.items()}
        return out

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

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def leading_term(self):
        """(exponents, coeff) of the graded-lex leading term; None if zero."""
        if not self.terms:
            return None
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        """Terms in canonical (graded-lex descending) order."""
        return [(e, self.terms[e]) for e in sorted(self.terms, key=grlex_key, reverse=True)]

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
        """Divide by a nonzero linear form.

        Returns (q, r) with self == q*l + r where r does not involve the
        pivot variable of l (the highest-index variable with nonzero
        coefficient).  self is divisible by l iff r == 0, and that fact is
        independent of the pivot choice; the fixed pivot rule just makes
        the pair (q, r) deterministic.
        """
        if l.varcount != self.varcount:
            raise ValueError("varcount mismatch")
        if l.is_zero():
            raise ZeroDivisionError("division by zero linear form")
        p = max(i for i, c in enumerate(l.coeffs) if c != 0)
        a = l.coeffs[p]
        work = dict(self.terms)
        qterms: dict = {}
        while True:
            cand = [e for e in work if e[p] > 0]
            if not cand:
                break
            e = max(cand, key=grlex_key)
            c = work[e]
            eq = list(e)
            eq[p] -= 1
            eq = tuple(eq)
            factor = c / a
            qterms[eq] = qterms.get(eq, Fraction(0)) + factor
            # work -= factor * x^eq * l
            for i, li in enumerate(l.coeffs):
                if li == 0:
                    continue
                et = list(eq)
                et[i] += 1
                et = tuple(et)
                s = work.get(et, Fraction(0)) - factor * li
                if s == 0:
                    work.pop(et, None)
                else:
                    work[et] = s
        return Polynomial(self.varcount, qterms), Polynomial(self.varcount, work)

    def is_multiple_of(self, l: LinearForm) -> bool:
        return self.divrem_linear(l)[1].is_zero()

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
            diff = tuple(a - b for a, b in zip(e, ge))
            if any(d < 0 for d in diff):
                rterms[e] = c
                continue
            factor = c / gc
            qterms[diff] = qterms.get(diff, Fraction(0)) + factor
            for e2, c2 in g.terms.items():
                if e2 == ge:
                    continue
                et = tuple(a + b for a, b in zip(diff, e2))
                s = work.get(et, Fraction(0)) - factor * c2
                if s == 0:
                    work.pop(et, None)
                else:
                    work[et] = s
        return Polynomial(self.varcount, qterms), Polynomial(self.varcount, rterms)

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        if len(point) != self.varcount:
            raise ValueError("point length != varcount")
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x**k
            total += v
        return total

    # ------------------------------------------------------------------
    # text format

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e, c in self.sorted_terms():
            mag = abs(c)
            vars_ = []
            for i, k in enumerate(e):
                if k == 1:
                    vars_.append(f"x{i + 1}")
                elif k > 1:
                    vars_.append(f"x{i + 1}^{k}")
            if not vars_:
                body = format_rational(mag)
            elif mag == 1:
                body = "*".join(vars_)
            else:
                body = format_rational(mag) + "*" + "*".join(vars_)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

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
    """Parse the canonical string format (whitespace-insensitive)."""
    tokens = _tokenize(s)
    if not tokens:
        raise ValueError("empty polynomial string")
    result = Polynomial.zero(varcount)
    pos = 0

    def parse_factor(pos):
        tok = tokens[pos]
        if tok.startswith("x"):
            idx = int(tok[1:])
            if not 1 <= idx <= varcount:
                raise ValueError(f"variable {tok} out of range for varcount {varcount}")
            exp = 1
            pos += 1
            if pos < len(tokens) and tokens[pos] == "^":
                pos += 1
                if pos >= len(tokens) or not tokens[pos].isdigit():
                    raise ValueError("expected exponent after ^")
                exp = int(tokens[pos])
                pos += 1
            return Polynomial.variable(varcount, idx) ** exp, pos
        if tok.isdigit():
            num = int(tok)
            pos += 1
            if pos + 1 < len(tokens) and tokens[pos] == "/" and tokens[pos + 1].isdigit():
                den = int(tokens[pos + 1])
                if den == 0:
                    raise ValueError(f"zero denominator in {s!r}")
                pos += 2
                return Polynomial.constant(varcount, Fraction(num, den)), pos
            return Polynomial.constant(varcount, num), pos
        raise ValueError(f"unexpected token {tok!r}")

    while pos < len(tokens):
        sign = 1
        while pos < len(tokens) and tokens[pos] in "+-":
            if tokens[pos] == "-":
                sign = -sign
            pos += 1
        if pos >= len(tokens):
            raise ValueError("dangling sign")
        term, pos = parse_factor(pos)
        while pos < len(tokens) and tokens[pos] == "*":
            factor, npos = parse_factor(pos + 1)
            term = term * factor
            pos = npos
        result = result + term.scale(sign)
    return result
