import random
from fractions import Fraction

import pytest

from gkmflag.gkmgraph import coh_failure, degree_of
from gkmflag.polyring import Polynomial
from gkmflag.rootsys import RootSystem
from gkmflag.schubert import (
    H,
    H_inv,
    NilCoxElt,
    SchubertTable,
    divided_difference,
    invariant_class,
    invariant_decomposition,
    key_identity_check,
    matrix_to_json,
    nilcox_generator,
    nilcox_one,
    partial_w,
    permuted_class,
    schubert_table,
    schubert_table_tsv,
    seeded_random_class,
    sign_of,
    symmetrize,
    symmetrized_matrix,
    transition_matrices,
)

from oracles import (
    chevalley_failures,
    reassemble,
    schubert_by_conditions,
    schubert_tsv_from_table,
    seeded_class_from_table,
)


def x(rs, i):
    return Polynomial.variable(rs.varcount, i)


# ----------------------------------------------------------------------
# nilCoxeter arithmetic


def test_nilcox_basics(a2):
    one = nilcox_one(a2)
    h1 = nilcox_generator(a2, 1, a2.simple_roots[0])
    assert one * h1 == h1
    s1 = a2.simple_reflection(1)
    s2 = a2.simple_reflection(2)
    u1 = NilCoxElt(a2, {s1: Polynomial.one(3)})
    u2 = NilCoxElt(a2, {s2: Polynomial.one(3)})
    assert (u1 * u1).coeffs == {}
    assert (u1 * u2).coeffs == {s1 * s2: Polynomial.one(3)}


def test_H_examples(a2):
    assert H(a2, a2.identity()) == nilcox_one(a2)
    s1 = a2.simple_reflection(1)
    hs1 = H(a2, s1)
    assert hs1.coefficient(a2.identity()) == Polynomial.one(3)
    assert hs1.coefficient(s1) == x(a2, 1) - x(a2, 2)
    assert len(hs1.coeffs) == 2


def test_H_word_independence(a2, b2):
    # the longest elements admit several reduced words
    w0 = a2.longest_element()
    assert H(a2, w0, word=(1, 2, 1)) == H(a2, w0, word=(2, 1, 2))
    v0 = b2.longest_element()
    assert H(b2, v0, word=(1, 2, 1, 2)) == H(b2, v0, word=(2, 1, 2, 1))


def test_H_rejects_non_reduced(a2):
    with pytest.raises(ValueError):
        H(a2, a2.simple_reflection(1), word=(1, 1, 1))


def test_H_inv_examples(a2, b2):
    assert H_inv(a2, a2.identity()) == nilcox_one(a2)
    s1 = a2.simple_reflection(1)
    assert H(a2, s1) * H_inv(a2, s1) == nilcox_one(a2)
    one = nilcox_one(b2)
    for w in b2.elements():
        assert H(b2, w) * H_inv(b2, w) == one


def test_alternating_formula(b2):
    tab = schubert_table(b2)
    for w in b2.elements():
        hinv = H_inv(b2, w)
        for v in b2.elements():
            vi = v.inverse()
            expect = tab.tau_value(vi, w).scale(sign_of(b2, vi))
            assert hinv.coefficient(v) == expect


# ----------------------------------------------------------------------
# the Schubert table


def test_tau_id_is_one(a2):
    tab = schubert_table(a2)
    assert all(v == Polynomial.one(3) for v in tab.tau(a2.identity()).values)


def test_tau_top_normalization(a2):
    tab = schubert_table(a2)
    w0 = a2.longest_element()
    assert str(tab.tau_value(w0, w0)) == (
        "x1^2*x2 - x1^2*x3 - x1*x2^2 + x1*x3^2 + x2^2*x3 - x2*x3^2"
    )


def test_tau_defining_conditions(a2, b2, a3, d3):
    for rs in (a2, b2, a3, d3):
        tab = schubert_table(rs)
        for u in tab.order:
            c = tab.tau(u)
            assert coh_failure(c) is None
            assert degree_of(c) == 2 * rs.length(u)
            ui = u.inverse()
            prod = Polynomial.one(rs.varcount)
            for beta in rs.positive_roots:
                if ui.act_linear(beta) not in rs.positive_roots:
                    prod = prod * beta.to_polynomial()
            assert tab.tau_value(u, u) == prod
            for v in tab.order:
                if not tab.tau_value(u, v).is_zero():
                    assert rs.bruhat_leq(u, v)


def test_tau_support_vanishes_below(a2):
    tab = schubert_table(a2)
    s1 = a2.simple_reflection(1)
    for v in tab.order:
        if not a2.bruhat_leq(s1, v):
            assert tab.tau_value(s1, v).is_zero()


def test_oracle_equivalence_spot(a2):
    tab = schubert_table(a2)
    s1 = a2.simple_reflection(1)
    values, unique = schubert_by_conditions(a2, s1)
    assert unique
    for v in tab.order:
        assert values[v] == tab.tau_value(s1, v)


@pytest.mark.parametrize("name", ["a3", "b3", "c3", "d3"])
def test_table_walk_matches_the_product_along_each_word(request, name):
    rs = request.getfixturevalue(name)
    columns = schubert_table(rs).columns
    for w in rs.elements():
        assert columns[w] == H(rs, w), w.one_line_str()


@pytest.mark.parametrize("name", ["a3", "b3", "c3", "d3"])
def test_streamed_tsv_matches_the_whole_table(request, name):
    rs = request.getfixturevalue(name)
    assert "".join(schubert_table_tsv(rs)) == schubert_tsv_from_table(rs)


@pytest.mark.parametrize("name", ["a3", "b3", "c3", "d3"])
def test_table_satisfies_chevalley_formula(request, name):
    rs = request.getfixturevalue(name)
    assert chevalley_failures(rs, schubert_table(rs)) == []


def test_chevalley_oracle_sees_a_tampered_entry():
    rs = RootSystem("A", 3)
    table = SchubertTable(rs)
    w0, s2 = rs.longest_element(), rs.simple_reflection(2)
    table.columns[w0] = table.columns[w0] + NilCoxElt(rs, {s2: x(rs, 1)})
    # tau_{s2}(w0) enters the formula at v = w0 only: as tau_w(v) for
    # w = s2, with a nonzero coefficient for every i, and as the cover
    # term tau_{w s_beta}(v) for w = e, where only i = 2 pairs with beta
    e = rs.identity()
    assert chevalley_failures(rs, table) == [
        (1, s2, w0), (2, e, w0), (2, s2, w0), (3, s2, w0)]


def test_key_identity_a2(a2):
    ok, bad = key_identity_check(a2)
    assert ok, bad


# ----------------------------------------------------------------------
# group action, symmetrization, transition matrices


def test_permuted_class_properties(a2):
    tab = schubert_table(a2)
    s1 = a2.simple_reflection(1)
    c = tab.tau(s1)
    assert permuted_class(a2, c, a2.identity()) == c
    one = tab.tau(a2.identity())
    for w in a2.elements():
        assert permuted_class(a2, one, w) == one
        back = permuted_class(a2, permuted_class(a2, c, w), w.inverse())
        assert back == c


def test_permuted_action_is_ring_action(a2):
    tab = schubert_table(a2)
    s1, s2 = a2.simple_reflection(1), a2.simple_reflection(2)
    f, g = tab.tau(s1), tab.tau(s2)
    rng = random.Random(0)
    for _ in range(6):
        w = rng.choice(a2.elements())
        v = rng.choice(a2.elements())
        assert permuted_class(a2, f * g, w) == (
            permuted_class(a2, f, w) * permuted_class(a2, g, w)
        )
        assert permuted_class(a2, permuted_class(a2, f, w), v) == permuted_class(
            a2, f, w * v
        )


def test_transition_identity_at_id(a2):
    a, b = transition_matrices(schubert_table(a2), a2.identity())
    assert a.is_identity() and b.is_identity()


def test_transition_inverse_pairs(a2, b2):
    for rs in (a2, b2):
        table = schubert_table(rs)
        for w in rs.elements():
            a, b = transition_matrices(table, w)
            assert (a @ b).is_identity()
            for u in rs.elements():
                assert b.entry(u, u) == Polynomial.one(rs.varcount)


def test_permuted_decomposition_matches(a2):
    tab = schubert_table(a2)
    w0 = a2.longest_element()
    a, _ = transition_matrices(tab, w0)
    for u in tab.order:
        lhs = permuted_class(a2, tab.tau(u), w0)
        rhs = reassemble(tab, {v: a.entry(u, v) for v in tab.order
                               if not a.entry(u, v).is_zero()})
        assert lhs == rhs


def test_symmetrize_properties(a2):
    tab = schubert_table(a2)
    sym = symmetrize(a2, tab.tau(a2.identity()))
    assert sym == tab.tau(a2.identity())
    s1 = a2.simple_reflection(1)
    f = symmetrize(a2, tab.tau(s1))
    for w in a2.elements():
        assert permuted_class(a2, f, w) == f
    assert symmetrize(a2, f) == f


def test_symmetrized_matrix(a2):
    tab = schubert_table(a2)
    sm = symmetrized_matrix(a2)
    assert sm.is_unitriangular_weak_left()
    for u in tab.order:
        assert sm.entry(u, u) == Polynomial.one(3)
        lhs = symmetrize(a2, tab.tau(u))
        rhs = reassemble(tab, {v: sm.entry(u, v) for v in tab.order
                               if not sm.entry(u, v).is_zero()})
        assert lhs == rhs


def test_matrix_json(a2):
    sm = symmetrized_matrix(a2)
    data = matrix_to_json(sm)
    assert data["order"][0] == "1,2,3"
    assert all(";" in key for key in data["entries"])


# ----------------------------------------------------------------------
# divided differences and invariant classes


def test_divided_difference_examples(a2):
    assert divided_difference(a2, x(a2, 1), 1) == Polynomial.one(3)
    sym = x(a2, 1) * x(a2, 2)  # s_1-invariant
    assert divided_difference(a2, sym, 1).is_zero()


def test_braid_and_square(a2, b2):
    f = x(a2, 1) ** 2 * x(a2, 2)
    lhs = divided_difference(a2, divided_difference(a2, divided_difference(a2, f, 1), 2), 1)
    rhs = divided_difference(a2, divided_difference(a2, divided_difference(a2, f, 2), 1), 2)
    assert lhs == rhs
    for rs in (a2, b2):
        rng = random.Random(1)
        for _ in range(10):
            terms = {}
            for _ in range(3):
                e = [rng.randint(0, 2) for _ in range(rs.varcount)]
                terms[tuple(e)] = Fraction(rng.randint(-4, 4))
            g = Polynomial(rs.varcount, terms)
            for i in range(1, rs.rank + 1):
                assert divided_difference(rs, divided_difference(rs, g, i), i).is_zero()


def test_partial_w_word_independent(a2, b2):
    f = x(a2, 1) ** 2 * x(a2, 2)
    w0 = a2.longest_element()
    assert partial_w(a2, f, word=(1, 2, 1)) == partial_w(a2, f, word=(2, 1, 2))
    g = x(b2, 1) ** 3 * x(b2, 2)
    assert partial_w(b2, g, word=(1, 2, 1, 2)) == partial_w(b2, g, word=(2, 1, 2, 1))


def test_invariant_class_examples(a2, b2):
    one = invariant_class(a2, Polynomial.one(3))
    assert all(v == Polynomial.one(3) for v in one.values)
    c10 = invariant_class(a2, x(a2, 1))
    assert coh_failure(c10) is None
    assert str(c10.values[c10.graph.vertices.index("3,1,2")]) == "x3"
    c31 = invariant_class(b2, x(b2, 1) ** 3 * x(b2, 2))
    # row s2s1 of the worked table
    assert str(c31.values[c31.graph.vertices.index("-2,1")]) == "-x1*x2^3"
    assert coh_failure(c31) is None


def test_invariant_class_is_ring_morphism(a2):
    f = x(a2, 1)
    g = x(a2, 1) * x(a2, 2)
    assert invariant_class(a2, f * g) == invariant_class(a2, f) * invariant_class(a2, g)


def test_invariant_decomposition(a2, b2):
    dec = invariant_decomposition(a2, Polynomial.one(3))
    assert set(dec) == {a2.identity()}
    assert dec[a2.identity()] == Polynomial.one(3)
    dec = invariant_decomposition(a2, x(a2, 1))
    assert all(a2.length(w) <= 1 for w in dec)
    assert reassemble(schubert_table(a2), dec) == invariant_class(a2, x(a2, 1))
    f = x(b2, 1) * x(b2, 2)
    dec = invariant_decomposition(b2, f)
    assert reassemble(schubert_table(b2), dec) == invariant_class(b2, f)


def test_tau_recursion_property(a2, b2):
    """tau_w(s_i v) = s_i tau_w(v) (+ alpha_i s_i tau_{s_i w}(v) on descents)."""
    for rs in (a2, b2):
        tab = schubert_table(rs)
        for i in range(1, rs.rank + 1):
            si = rs.simple_reflection(i)
            ai = rs.simple_roots[i - 1].to_polynomial()
            for w in tab.order:
                for v in tab.order:
                    rhs = si.act_poly(tab.tau_value(w, v))
                    if rs.length(si * w) < rs.length(w):
                        rhs = rhs + ai * si.act_poly(tab.tau_value(si * w, v))
                    assert tab.tau_value(w, si * v) == rhs


def test_seeded_random_class(a2):
    rng = random.Random(42)
    c = seeded_random_class(a2, 4, rng)
    assert coh_failure(c) is None
    assert degree_of(c) == 8
    rng2 = random.Random(42)
    assert seeded_random_class(a2, 4, rng2) == c


@pytest.mark.parametrize("kind,rank", [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4)])
def test_streamed_target_matches_the_whole_table(kind, rank):
    """The target summed from a walk cut at its degree equals the one
    ``reassemble`` reads off the whole table: at degrees 0 and 1, at half
    the top length, and above the top length, where nothing is cut; the
    two draw the same numbers, so the generator continues alike."""
    rs = RootSystem(kind, rank)
    table = SchubertTable(rs)
    top = len(rs.positive_roots)
    for degree in (0, 1, top // 2, top + 1):
        streamed, whole = random.Random(degree), random.Random(degree)
        assert seeded_random_class(rs, degree, streamed) == seeded_class_from_table(
            table, degree, whole), degree
        assert streamed.random() == whole.random()


def test_H_word_independence_rank3(a3):
    w0 = a3.longest_element()
    word = a3.reduced_word(w0)
    # a second reduced word from largest-descent extraction
    alt = []
    cur = w0
    while a3.length(cur) > 0:
        i = max(i for i in range(1, 4)
                if a3.length(a3.simple_reflection(i) * cur) < a3.length(cur))
        alt.append(i)
        cur = a3.simple_reflection(i) * cur
    assert tuple(alt) != word
    assert H(a3, w0, word=word) == H(a3, w0, word=tuple(alt))
