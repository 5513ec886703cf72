import copy
import pickle
import random
from fractions import Fraction

import pytest

from gkmflag.polyring import LinearForm, Polynomial
from gkmflag.rootsys import RootSystem, WeylElement

from oracles import bruhat_by_subwords, closure_by_coordinates, reflect_form

CLASSICAL = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4),
]


def lf(*coeffs):
    return LinearForm(coeffs)


# ----------------------------------------------------------------------
# construction


def test_build_a2(a2):
    assert a2.varcount == 3
    assert set(a2.positive_roots) == {lf(1, -1, 0), lf(1, 0, -1), lf(0, 1, -1)}
    assert a2.simple_roots == (lf(1, -1, 0), lf(0, 1, -1))


def test_build_b2(b2):
    assert b2.varcount == 2
    assert set(b2.positive_roots) == {lf(1, 0), lf(0, 1), lf(1, -1), lf(1, 1)}
    assert b2.simple_roots[-1] == lf(0, 1)


def test_build_c2(c2):
    assert set(c2.positive_roots) == {lf(2, 0), lf(0, 2), lf(1, -1), lf(1, 1)}
    assert c2.simple_roots[-1] == lf(0, 2)


def test_build_d3(d3):
    assert len(d3.positive_roots) == 6
    assert d3.simple_roots[-1] == lf(0, 1, 1)


def test_positive_root_counts():
    for kind, n, count in [("A", 3, 6), ("B", 3, 9), ("C", 3, 9), ("D", 4, 12)]:
        rs = RootSystem(kind, n)
        assert len(rs.positive_roots) == count


def test_rank_bounds():
    with pytest.raises(ValueError):
        RootSystem("B", 1)
    with pytest.raises(ValueError):
        RootSystem("D", 2)
    with pytest.raises(ValueError):
        RootSystem("E", 6)


# ----------------------------------------------------------------------
# reflections and the action


def test_reflection_examples(a2, b2, d3):
    s = a2.reflection(lf(1, -1, 0))
    assert s.perm == (2, 1, 3) and s.signs == (1, 1, 1)
    s = b2.reflection(lf(1, 0))
    assert s.perm == (1, 2) and s.signs == (-1, 1)
    s = d3.reflection(lf(1, 0, 1))
    assert s.perm == (3, 2, 1) and s.signs == (-1, 1, -1)


@pytest.mark.parametrize("kind,n", CLASSICAL)
def test_reflection_matches_the_textbook_formula(kind, n):
    """s_beta x_k = x_k - 2 (x_k, beta) / (beta, beta) beta, and s_beta^2 = e."""
    rs = RootSystem(kind, n)
    m = rs.varcount
    for beta in rs.positive_roots:
        s = rs.reflection(beta)
        for k in range(m):
            x = lf(*(int(j == k) for j in range(m)))
            assert s.act_linear(x) == reflect_form(beta, x), (beta, k)
        assert s * s == rs.identity()
        assert rs.reflection(-beta) == s


def test_reflection_rejects_non_roots(a2):
    with pytest.raises(ValueError):
        a2.reflection(lf(1, 1, 0))


def test_act_examples(a2, b2):
    w = a2.identity()
    assert w.act_linear(lf(1, -1, 0)) == lf(1, -1, 0)
    u231 = WeylElement((2, 3, 1))
    assert u231.act_linear(lf(1, -1, 0)) == lf(0, 1, -1)
    w = WeylElement((2, 1), (-1, 1))  # one-line -2,1
    assert w.act_linear(lf(1, 0)) == lf(0, -1)


@pytest.mark.parametrize("kind,n", [("A", 3), ("B", 3), ("C", 3), ("D", 3)])
def test_act_poly_is_substitution_of_the_linear_action(kind, n):
    """w acts on polynomials as the ring map x_k -> w x_k."""
    rs = RootSystem(kind, n)
    m = rs.varcount
    rng = random.Random(13)
    f = Polynomial(m, {
        tuple(rng.randrange(4) for _ in range(m)): Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
        for _ in range(8)
    })
    xs = [lf(*(int(j == k) for j in range(m))) for k in range(m)]
    for w in rs.elements():
        assert w.act_poly(f) == f.substitute_linear([w.act_linear(x) for x in xs]), w


def test_one_line_forms():
    w = WeylElement((2, 1), (-1, 1))
    assert w.one_line_str() == "-2,1"
    assert WeylElement.from_one_line("-2,1") == w
    assert WeylElement.from_one_line("2,-1").one_line() == (2, -1)


def test_an_element_is_its_one_line_tuple():
    w = WeylElement((2, 3, 1), (-1, 1, -1))
    assert w == (-2, 3, -1) and hash(w) == hash((-2, 3, -1))
    assert w.perm == (2, 3, 1) and w.signs == (-1, 1, -1)
    assert {w: 0}[(-2, 3, -1)] == 0


@pytest.mark.parametrize("kind", ["A", "B", "D"])
def test_copies_and_pickles_are_equal_elements(kind):
    for w in RootSystem(kind, 3).elements():
        for twin in (copy.deepcopy(w), copy.copy(w), pickle.loads(pickle.dumps(w))):
            assert type(twin) is WeylElement and twin == w and twin.signs == w.signs


@pytest.mark.parametrize("operation", [
    lambda w: w + w, lambda w: 2 * w, lambda w: w * 2,
], ids=["w+w", "2*w", "w*2"])
def test_sequence_operators_are_refused(operation):
    with pytest.raises(TypeError):
        operation(WeylElement((2, 1), (-1, 1)))


@pytest.mark.parametrize("kind,n", CLASSICAL)
def test_plain_order_is_the_canonical_order(kind, n):
    """Plain tuple order is one-line order, so sort_key, (length, w), is
    the canonical (length, one-line) order that elements() lists."""
    rs = RootSystem(kind, n)
    elements = rs.elements()
    by_one_line = sorted(elements, key=lambda w: (
        rs.length(w), [s * u for u, s in zip(w.perm, w.signs)]))
    assert sorted(elements, key=rs.sort_key) == by_one_line == elements


# ----------------------------------------------------------------------
# lengths, words, orders


def test_length_examples(a2, b2):
    assert a2.length(a2.identity()) == 0
    s1, s2 = a2.simple_reflection(1), a2.simple_reflection(2)
    assert a2.length(s1 * s2 * s1) == 3
    t1, t2 = b2.simple_reflection(1), b2.simple_reflection(2)
    assert b2.length(t1 * t2 * t1 * t2) == 4


def test_reduced_word_examples(a2, b2):
    assert a2.reduced_word(a2.identity()) == ()
    w321 = WeylElement((3, 2, 1))
    assert a2.reduced_word(w321) == (1, 2, 1)
    w0 = b2.longest_element()
    word = b2.reduced_word(w0)
    assert len(word) == 4
    assert b2.from_word(word) == w0


def test_word_length_consistency(a3, b2):
    for rs in (a3, b2):
        for w in rs.elements():
            word = rs.reduced_word(w)
            assert len(word) == rs.length(w)
            assert rs.from_word(word) == w


def test_length_changes_by_one(b3):
    rng = random.Random(7)
    elems = b3.elements()
    for w in rng.sample(elems, 25):
        for i in range(1, b3.rank + 1):
            assert abs(b3.length(b3.simple_reflection(i) * w) - b3.length(w)) == 1


def test_group_orders():
    import math

    for kind, make in [("A", lambda n: math.factorial(n + 1)),
                       ("B", lambda n: 2**n * math.factorial(n)),
                       ("C", lambda n: 2**n * math.factorial(n)),
                       ("D", lambda n: 2**(n - 1) * math.factorial(n))]:
        lo = {"A": 1, "B": 2, "C": 2, "D": 3}[kind]
        for n in range(lo, 5):
            rs = RootSystem(kind, n)
            elems = rs.elements()
            assert len(elems) == make(n) == rs.group_order()


def test_group_axioms_spot(b2):
    elems = b2.elements()
    e = b2.identity()
    for w in elems:
        assert w * w.inverse() == e
        assert e * w == w * e == w
    rng = random.Random(3)
    for _ in range(40):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("name", ["a3", "b3", "d3"])
def test_products_and_inverses_match_the_matrices(request, name):
    """Products and inverses skip the constructor's checks, so compare
    them with the matrices of the action on linear forms, for every pair."""
    rs = request.getfixturevalue(name)
    elems = rs.elements()
    mats = {w: w.matrix() for w in elems}
    m = rs.varcount
    e = rs.identity()
    for w in elems:
        a = mats[w]
        assert w.inverse() * w == e
        for v in elems:
            b = mats[v]
            product = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m))
                            for i in range(m))
            assert (w * v).matrix() == product, (w, v)


@pytest.mark.parametrize("perm, signs, match", [
    ((1, 1, 3), None, "not a permutation"),
    ((0, 1, 2), None, "not a permutation"),
    ((1, 2, 4), (1, 1, 1), "not a permutation"),
    ((1, 2, 3), (1, 2, 1), "signs must be"),
    ((1, 2, 3), (1, 0, -1), "signs must be"),
    ((1, 2, 3), (1, -1), "signs must be"),
    ((1, 2, 3), (1, -1, 1, 1), "signs must be"),
], ids=["repeat", "zero", "gap", "sign-2", "sign-0", "too-few-signs", "too-many-signs"])
def test_constructor_refuses_what_is_not_a_signed_permutation(perm, signs, match):
    with pytest.raises(ValueError, match=match):
        WeylElement(perm, signs)


def test_product_of_different_sizes_is_refused():
    with pytest.raises(ValueError, match="size mismatch"):
        WeylElement((2, 1)) * WeylElement((1, 2, 3))
    with pytest.raises(ValueError, match="size mismatch"):
        WeylElement((1, 2, 3)) * WeylElement((2, 1))


def test_type_constraints(a3, d3):
    assert all(all(s == 1 for s in w.signs) for w in a3.elements())
    assert all(w.signs.count(-1) % 2 == 0 for w in d3.elements())


def test_enumeration_cap(a2):
    with pytest.raises(ValueError):
        RootSystem("A", 10).elements()


# ----------------------------------------------------------------------
# Bruhat and weak orders


def test_order_examples(a2):
    s1, s2 = a2.simple_reflection(1), a2.simple_reflection(2)
    for w in a2.elements():
        assert a2.bruhat_leq(a2.identity(), w)
        assert a2.weak_left_leq(a2.identity(), w)
    assert a2.weak_left_leq(s1, s2 * s1)
    assert not a2.weak_left_leq(s1, s1 * s2)


def test_bruhat_matches_subword_oracle(a2, b2):
    for rs in (a2, b2):
        for u in rs.elements():
            for v in rs.elements():
                assert rs.bruhat_leq(u, v) == bruhat_by_subwords(rs, u, v)


def test_bruhat_sampled_rank3(a3):
    rng = random.Random(11)
    elems = a3.elements()
    for _ in range(120):
        u, v = rng.choice(elems), rng.choice(elems)
        assert a3.bruhat_leq(u, v) == bruhat_by_subwords(a3, u, v)


# ----------------------------------------------------------------------
# parabolic data


def test_closure_examples(a2, b2):
    assert a2.closure(frozenset()) == ()
    assert set(a2.closure({2})) == {lf(0, 1, -1)}
    assert set(b2.closure({2})) == {lf(0, 1)}
    assert a2.parabolic_elements(frozenset()) == [a2.identity()]


def test_closure_full(b3):
    assert set(b3.closure(b3.full_sigma())) == set(b3.positive_roots)


@pytest.mark.parametrize("kind,n", CLASSICAL)
def test_closure_is_the_roots_reflecting_in_the_parabolic_subgroup(kind, n):
    """<Sigma> = {beta in Phi+ : s_beta in W(Sigma)} for every Sigma: the
    roots reflecting in W(Sigma) are exactly those supported on Sigma in
    simple-root coordinates, in the order of the positive roots."""
    import itertools

    rs = RootSystem(kind, n)
    for r in range(n + 1):
        for sigma in itertools.combinations(range(1, n + 1), r):
            group = set(rs.parabolic_elements(sigma))
            reflecting = tuple(
                beta for beta in rs.positive_roots if rs.reflection(beta) in group
            )
            assert rs.closure(sigma) == reflecting, (kind, n, sigma)
            assert reflecting == closure_by_coordinates(rs, sigma), (kind, n, sigma)


def test_parabolic_group_sizes(a3):
    assert len(a3.parabolic_elements({1})) == 2
    assert len(a3.parabolic_elements({1, 2})) == 6
    assert len(a3.parabolic_elements({1, 3})) == 4


def test_sigma_difference_invariance_rank_le_3():
    """For Sigma1 inside Sigma2, W(Sigma1) permutes <Sigma2> \\ <Sigma1>."""
    import itertools

    for kind, n in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("D", 3)]:
        rs = RootSystem(kind, n)
        idxs = list(range(1, n + 1))
        for r1 in range(len(idxs) + 1):
            for s1 in itertools.combinations(idxs, r1):
                for r2 in range(r1, len(idxs) + 1):
                    for s2 in itertools.combinations(idxs, r2):
                        if not set(s1) <= set(s2):
                            continue
                        diff = set(rs.closure(s2)) - set(rs.closure(s1))
                        for w in rs.parabolic_elements(s1):
                            image = {rs.positive_part(w.act_linear(b)) for b in diff}
                            moved = {w.act_linear(b) for b in diff}
                            assert moved == {
                                b for b in moved if b in rs.positive_roots
                            }, (kind, n, s1, s2)
                            assert image == diff


def test_reflection_conjugation_identity(a2, b2, d3):
    """w s_beta = s_{w beta} w, exhaustively at rank 2 and sampled at rank 3."""
    for rs in (a2, b2):
        for w in rs.elements():
            for beta in rs.positive_roots:
                assert w * rs.reflection(beta) == rs.reflection(w.act_linear(beta)) * w
    rng = random.Random(5)
    elems = d3.elements()
    for _ in range(100):
        w = rng.choice(elems)
        beta = rng.choice(d3.positive_roots)
        assert w * d3.reflection(beta) == d3.reflection(w.act_linear(beta)) * w


def test_type_c_shares_the_type_b_group(b2, c2):
    assert set(b2.elements()) == set(c2.elements())
    b3 = RootSystem("B", 3)
    c3 = RootSystem("C", 3)
    assert set(b3.elements()) == set(c3.elements())
