from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmflag.invbases import basis_family
from gkmflag.polyring import LinearForm, Polynomial, parse_polynomial, parse_rational
from gkmflag.rootsys import RootSystem
from gkmflag.schubert import schubert_table

from oracles import divrem_by_long_division, naive_product, polynomial_text, restrict_to_hyperplane

X1 = Polynomial.variable(3, 1)
X2 = Polynomial.variable(3, 2)
X3 = Polynomial.variable(3, 3)


def lf(*coeffs):
    return LinearForm(coeffs)


# ----------------------------------------------------------------------
# pinned examples


def test_add_examples():
    assert (X1 + (-X1)).is_zero()
    assert (X1 - X2) + (X2 - X3) == X1 - X3
    assert X1 ** 2 * X2 + X1 ** 2 * X2 == (X1 ** 2 * X2).scale(2)


def test_add_varcount_mismatch():
    with pytest.raises(ValueError):
        X1 + Polynomial.variable(2, 1)


def test_mul_examples():
    f = X1 ** 2 * X2 - X3.scale(Fraction(1, 2))
    assert Polynomial.one(3) * f == f
    assert (X1 - X2) * (X1 + X2) == X1 ** 2 - X2 ** 2


def test_a2_positive_root_product():
    # brute-force expansion, frozen
    p = (X1 - X2) * (X1 - X3) * (X2 - X3)
    assert str(p) == "x1^2*x2 - x1^2*x3 - x1*x2^2 + x1*x3^2 + x2^2*x3 - x2*x3^2"


def test_substitute_linear():
    f = X1 * X2
    identity = [lf(1, 0, 0), lf(0, 1, 0), lf(0, 0, 1)]
    assert f.substitute_linear(identity) == f
    swap = [lf(0, 1, 0), lf(1, 0, 0), lf(0, 0, 1)]
    assert X1.substitute_linear(swap) == X2
    # u = 312 acting by x_k -> x_{u(k)}: x1 -> x3, x2 -> x1
    act = [lf(0, 0, 1), lf(1, 0, 0), lf(0, 1, 0)]
    assert (X1 ** 2 * X2).substitute_linear(act) == X3 ** 2 * X1


def test_divrem_linear_examples():
    q, r = (X1 ** 2 - X2 ** 2).divrem_linear(lf(1, -1, 0))
    assert q == X1 + X2 and r.is_zero()
    q, r = X1.divrem_linear(lf(0, 1, -1))
    assert q.is_zero() and r == X1
    q, r = (X2 - X1).divrem_linear(lf(1, -1, 0))
    assert q == Polynomial.constant(3, -1) and r.is_zero()


def test_divrem_zero_form():
    with pytest.raises(ZeroDivisionError):
        X1.divrem_linear(lf(0, 0, 0))


def divides(l, f) -> bool:
    return f.divrem_linear(l)[1].is_zero()


def test_divrem_remainder_decides_multiples():
    l = lf(2, 0, -3)
    f = (X1 + X2 ** 2) * l.to_polynomial()
    assert divides(l, f)
    assert not divides(l, f + X2)
    assert divides(lf(0, 0, 5), X3 ** 2 * X1)
    assert not divides(lf(0, 0, 5), X1 ** 2 + X3)
    three = lf(1, 1, 1)
    assert divides(three, X1 * three.to_polynomial())
    assert not divides(three, X1 ** 2)
    assert divides(three, Polynomial.zero(3))


def test_divrem_remainder_decides_congruences():
    l = lf(1, 0, -1)
    assert divides(l, X1 ** 2 - X3 ** 2)
    assert not divides(l, X1 ** 2 - (X3 ** 2 + X2))
    assert divides(l, X1 * X2 - X2 * X3)
    assert divides(lf(4, 0, 0), (X1 + X2) - X2)


def test_divisibility_errors():
    with pytest.raises(ZeroDivisionError):
        divides(lf(0, 0, 0), X1)
    with pytest.raises(ZeroDivisionError):
        divides(lf(0, 0, 0), X1 - X2)
    with pytest.raises(ValueError, match="varcount"):
        divides(lf(1, 0), X1)
    with pytest.raises(ValueError, match="varcount"):
        divides(lf(1, 0, 0), X1 - Polynomial.variable(2, 1))


def test_monomial_rejects_negative_exponent():
    assert Polynomial.monomial(3, (2, 0, 1)) == X1 ** 2 * X3
    with pytest.raises(ValueError, match="non-negative"):
        Polynomial.monomial(3, (-1, 0, 0))


def test_eval_examples():
    assert Polynomial.zero(3).evaluate([7, 8, 9]) == 0
    assert (X1 - X2).evaluate([3, 1, 0]) == 2
    vandermonde = (X1 - X2) * (X1 - X3) * (X2 - X3)
    assert vandermonde.evaluate([1, 2, 4]) == -6


@pytest.mark.parametrize("build", [
    lambda: Polynomial(1, {(1,): 0.1}),
    lambda: LinearForm([0.1]),
    lambda: Polynomial.variable(1, 1).scale(0.5),
    lambda: LinearForm([1]).scale(0.5),
    lambda: Polynomial.constant(1, 0.5),
    lambda: Polynomial.monomial(1, (1,), 0.5),
], ids=["Polynomial", "LinearForm", "Polynomial.scale", "LinearForm.scale",
        "constant", "monomial"])
def test_float_coefficients_are_refused(build):
    """Fraction(0.1) is exact, so a float would silently become
    3602879701896397/36028797018963968; every entry point refuses it."""
    with pytest.raises(TypeError, match="float"):
        build()


def test_integral_values_are_stored_as_int():
    assert Polynomial.constant(2, Fraction(4, 2)).terms == {(0, 0): 2}
    assert type(LinearForm([Fraction(3, 3)]).coeffs[0]) is int
    assert type(X1.scale(Fraction(1, 2)).scale(2).coefficient((1, 0, 0))) is int
    assert LinearForm([1, 2]).proportional_to(LinearForm([3, 6])) == Fraction(1, 3)
    assert type(LinearForm([3, 6]).proportional_to(LinearForm([1, 2]))) is int
    assert type((X1 - X2).evaluate([Fraction(6, 2), 1, 0])) is int


def test_eval_length_mismatch():
    with pytest.raises(ValueError):
        X1.evaluate([1, 2])


def test_string_format():
    assert str(Polynomial.zero(3)) == "0"
    assert str(-X1) == "-x1"
    assert str(X1 ** 2 * X2 - X3.scale(Fraction(1, 2))) == "x1^2*x2 - 1/2*x3"
    assert str(Polynomial.constant(3, Fraction(-3, 4))) == "-3/4"


def test_parse_round_trip_and_whitespace():
    for text in ["x1^2*x2 - 1/2*x3", "0", "-x1 + 5", "2*x2^3", "1/3"]:
        p = parse_polynomial(text, 3)
        assert str(p) == text
    spaced = parse_polynomial("  x1 ^ 2 * x2   -  1/2 * x3 ", 3)
    assert str(spaced) == "x1^2*x2 - 1/2*x3"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x1 + y2", 3)
    with pytest.raises(ValueError):
        parse_polynomial("x9", 3)


@pytest.mark.parametrize("text", [
    "x1 x2", "3x1", "- - x1", "x1--x2", "x1 + + x2", "+-x1",
    "x1*", "x1^", "x1 +", "-", "1/", "1/x1", "*x1", "x1**x2",
])
def test_parse_rejects_malformed_grammar(text):
    """Terms are joined by exactly one + or -, with at most one leading
    sign, and every operator needs its operand."""
    with pytest.raises(ValueError):
        parse_polynomial(text, 3)


def test_parse_rational_reads_only_integers_and_fractions():
    assert parse_rational(" -3/4\n") == Fraction(-3, 4)
    assert parse_rational("+5") == 5
    for text in ["0.5", "1e3", "1e999999999", "1_000", "", "1/", "/2", "inf", "1/0"]:
        with pytest.raises(ValueError):
            parse_rational(text)


# ----------------------------------------------------------------------
# properties

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=3
).filter(lambda c: c != 0)
exponents = st.tuples(*(st.integers(0, 3) for _ in range(3)))


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(exponents)] = draw(coeffs)
    return Polynomial(3, terms)


@st.composite
def nonzero_forms(draw):
    c = draw(st.tuples(*(st.integers(-3, 3) for _ in range(3))))
    if all(v == 0 for v in c):
        c = (1, -1, 0)
    return LinearForm(c)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_mul_matches_naive_oracle(f, g):
    assert f * g == naive_product(f.terms, g.terms, 3)


@settings(max_examples=100, deadline=None)
@given(polys(max_terms=6))
def test_text_matches_term_formatter(f):
    assert str(f) == polynomial_text(f)


def test_text_matches_term_formatter_on_pinned_shapes():
    one = Polynomial.one(3)
    for f in [Polynomial.zero(3), one.scale(7), one.scale(Fraction(-3, 4)), -X1 ** 2 * X3 + X2,
              X1.scale(Fraction(-5, 2)) - one, X1 * X2 * X3 - one]:
        assert str(f) == polynomial_text(f)


def test_text_is_unchanged_after_more_monomials_than_the_memo_holds():
    """Formatting 6,561 distinct monomials, more than the 4,096 memoised
    monomial texts, evicts early entries; the text must not change."""
    f = X1 ** 2 * X3 - X2.scale(Fraction(1, 3)) + Polynomial.constant(3, 4)
    before = str(f)
    monomials = [Polynomial.monomial(4, e, -2) for e in product(range(9), repeat=4)]
    assert all(str(m) == polynomial_text(m) for m in monomials)
    assert str(f) == before == polynomial_text(f)
    assert all(str(m) == polynomial_text(m) for m in monomials[:100])


@settings(max_examples=60, deadline=None)
@given(polys(), nonzero_forms())
def test_divrem_reconstructs_and_is_idempotent(f, l):
    q, r = f.divrem_linear(l)
    assert q * l.to_polynomial() + r == f
    q2, r2 = r.divrem_linear(l)
    assert q2.is_zero() and r2 == r


@settings(max_examples=60, deadline=None)
@given(polys(), nonzero_forms())
def test_divisibility_is_substitution_independent(f, l):
    """r == 0 iff f vanishes after substituting the pivot solution of l=0."""
    _, r = f.divrem_linear(l)
    assert r.is_zero() == restrict_to_hyperplane(f, l).is_zero()


@st.composite
def sparse_forms(draw):
    """Forms with one, two or three nonzero coefficients, such as
    2*x1 - 3*x3, so ratios other than +-1 occur."""
    size = draw(st.integers(1, 3))
    support = draw(st.permutations([0, 1, 2]))[:size]
    return LinearForm([draw(coeffs) if i in support else 0 for i in range(3)])


@settings(max_examples=120, deadline=None)
@given(polys(), sparse_forms(), exponents, coeffs)
def test_restriction_decides_divisibility_as_long_division(f, l, e, c):
    """The divrem_linear remainder is the restriction to l = 0, and its
    verdict is that of long division."""
    multiple = f * l.to_polynomial()
    mono = Polynomial.monomial(3, e, c)
    assert divides(l, multiple)
    assert divides(l, (multiple + mono) - mono)
    for g in (f, multiple + mono, multiple - mono, f - mono):
        r = g.divrem_linear(l)[1]
        assert r == restrict_to_hyperplane(g, l)
        assert r.is_zero() == divrem_by_long_division(g, l)[1].is_zero()


@st.composite
def divisors(draw):
    """Forms with one, two or three nonzero coefficients, the pivot
    (last nonzero) coefficient often non-unit: 2 as for the long root of
    type C, 1/3, or any Fraction."""
    form = draw(sparse_forms())
    p = max(i for i, c in enumerate(form.coeffs) if c != 0)
    pivot = draw(st.sampled_from([None, 2, -2, Fraction(1, 3)]))
    if pivot is None:
        return form
    return LinearForm([pivot if i == p else c for i, c in enumerate(form.coeffs)])


@settings(max_examples=200, deadline=None)
@given(polys(max_terms=6), divisors())
def test_divrem_matches_long_division_term_for_term(f, l):
    q, r = f.divrem_linear(l)
    oq, orem = divrem_by_long_division(f, l)
    assert q.terms == oq.terms and r.terms == orem.terms
    assert_normal(q, r)


@settings(max_examples=40, deadline=None)
@given(polys(), st.permutations([0, 1, 2]))
def test_substitute_permutation_round_trip(f, perm):
    def unit(i):
        e = [0, 0, 0]
        e[i] = 1
        return LinearForm(e)

    forward = [unit(perm[i]) for i in range(3)]
    inverse = [unit(perm.index(i)) for i in range(3)]
    assert f.substitute_linear(forward).substitute_linear(inverse) == f


@settings(max_examples=40, deadline=None)
@given(polys())
def test_string_round_trip(f):
    assert parse_polynomial(str(f), 3) == f


def normal(c) -> bool:
    """The coefficient normal form: an int, or a Fraction that is not one."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_normal(*values):
    for v in values:
        coeffs = v.coeffs if isinstance(v, LinearForm) else v.terms.values()
        bad = [c for c in coeffs if not normal(c)]
        assert bad == [], f"{v!r} stores {bad!r}"


B3 = RootSystem("B", 3)  # varcount 3, with sign changes


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), nonzero_forms(), sparse_forms(), coeffs,
       st.integers(0, 3), st.sampled_from(B3.elements()))
def test_coefficients_stay_in_normal_form(f, g, l, m, c, k, w):
    assert_normal(f, g, f + g, f - g, -f, f * g, f ** k, f.scale(c), f.scale(0))
    assert_normal(*f.divrem_linear(l), *f.divrem_linear(m))
    divisor = g if not g.is_zero() else l.to_polynomial()
    assert_normal(*f.divmod_poly(divisor))
    assert_normal(f.substitute_linear([l, m, l + m]))
    assert_normal(parse_polynomial(str(f), 3), w.act_poly(f))
    assert_normal(l, m, l + m, l - m, -m, m.scale(c), m.scale(c).scale(1 / c))
    for ratio in (m.scale(c).proportional_to(m), m.proportional_to(m.scale(c)),
                  l.proportional_to(m)):
        assert ratio is None or normal(ratio)
    assert normal(f.evaluate([1, 2, Fraction(1, 3)]))


@pytest.mark.parametrize("kind, rank", [("A", 3), ("B", 3)])
def test_schubert_table_values_are_in_normal_form(kind, rank):
    table = schubert_table(RootSystem(kind, rank))
    for w in table.order:
        assert_normal(*table.columns[w].coeffs.values())


def test_basis_family_values_are_in_normal_form():
    for c in basis_family(B3).classes:
        assert_normal(*c.values)
