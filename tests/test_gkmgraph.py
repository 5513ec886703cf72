import copy
import json
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmflag.gkmgraph import (
    CohClass,
    GkmGraph,
    GkmIso,
    Report,
    _direction,
    _residue_rows,
    class_from_json,
    class_to_json,
    complete_graph,
    degree_of,
    coh_failure,
    graph_from_json,
    graph_from_text,
    graph_hash,
    graph_json_chunks,
    graph_to_dot,
    graph_to_json,
    induced_subgraph,
    pullback_class,
    verify_gkm,
    verify_iso,
)
from gkmflag.invbases import basis_family
from gkmflag.linalg import identity_matrix
from gkmflag.parabolic import build_coset_graph
from gkmflag.polyring import LinearForm, Polynomial
from gkmflag.rootsys import RootSystem

from oracles import (Edge, changed_graph, coh_failure_by_restriction, divrem_by_long_division,
                     edge_graph, edges_of, gkm_report_by_edges, json_file_text,
                     restrict_to_hyperplane)


@pytest.fixture(scope="module")
def s3_graph(a2_mod):
    return build_coset_graph(a2_mod, frozenset(), a2_mod.full_sigma())


@pytest.fixture(scope="module")
def a2_mod():
    return RootSystem("A", 2)


def column_class(flag, fn):
    return CohClass(flag.graph, [fn(w) for w in flag.reps])


# ----------------------------------------------------------------------
# axioms


def test_report_first_reads_one_witness_only():
    def walk():
        yield "first witness"
        raise RuntimeError("read past the first witness")

    rep = Report()
    rep.first("a", walk())
    rep.first("b", iter(()))
    rep.first("c", ["one", "two"])
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
        ("a", False, "first witness"), ("b", True, ""), ("c", False, "one")]


def test_k2_k3_pass():
    assert verify_gkm(complete_graph(2)).ok
    assert verify_gkm(complete_graph(3)).ok


def test_k3_bad_label_fails_congruence():
    g = complete_graph(3)
    eid = g.find_edges(0, 1)[0]
    rev = g.reverse[eid]
    label = LinearForm([1, 1, 0])
    bad = changed_graph(g, labels={eid: label, rev: -label})
    rep = verify_gkm(bad)
    assert not rep.ok
    names = {c.name for c in rep.failures()}
    assert "congruence" in names


def test_flag_graph_passes(s3_graph):
    assert verify_gkm(s3_graph.graph).ok


def checks_of(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def subsets(indices):
    return [frozenset(c) for k in range(len(indices) + 1)
            for c in combinations(sorted(indices), k)]


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                    ("C", 2), ("C", 3), ("D", 3)])
def test_verify_gkm_matches_edge_oracle_on_every_coset_graph(kind, n):
    rs = RootSystem(kind, n)
    for sigma2 in subsets(rs.full_sigma()):
        for sigma1 in subsets(sigma2):
            g = build_coset_graph(rs, sigma1, sigma2).graph
            assert checks_of(verify_gkm(g)) == gkm_report_by_edges(g), (sigma1, sigma2)


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                    ("C", 2), ("C", 3), ("D", 3)])
def test_labels_are_interned_once_on_every_coset_graph(kind, n):
    """Each edge label is the graph's one object for that form; ``labels``
    lists the distinct forms in order of first occurrence; on the full
    flag graph they are exactly the roots; and the graph is immutable."""
    rs = RootSystem(kind, n)
    roots = set(rs.positive_roots) | {-beta for beta in rs.positive_roots}
    for sigma2 in subsets(rs.full_sigma()):
        for sigma1 in subsets(sigma2):
            g = build_coset_graph(rs, sigma1, sigma2).graph
            assert len(g.label_id) == len(g.src)
            assert len(set(g.labels)) == len(g.labels)
            assert list(dict.fromkeys(g.label_id)) == list(range(len(g.labels)))
            if not sigma1 and sigma2 == rs.full_sigma():
                assert set(g.labels) == roots
            for field in ("reverse", "vertices", "edges_at", "slot", "connection", "labels"):
                with pytest.raises(TypeError):
                    getattr(g, field)[0] = None


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                    ("C", 2), ("C", 3), ("D", 3)])
def test_connections_are_shared_star_positions_on_every_coset_graph(kind, n):
    """Each edge sits at ``slot`` in the star of its tail, the edges share
    at most |W(Sigma1)| connection tuples, and a JSON round trip keeps the
    connection, the reverse map and the hash."""
    rs = RootSystem(kind, n)
    for sigma2 in subsets(rs.full_sigma()):
        for sigma1 in subsets(sigma2):
            g = build_coset_graph(rs, sigma1, sigma2).graph
            assert all(g.edges_at[e.src][g.slot[eid]] == eid for eid, e in enumerate(edges_of(g)))
            assert len({id(c) for c in g.connection}) <= len(rs.parabolic_elements(sigma1))
            back = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
            assert back.connection == g.connection and back.reverse == g.reverse
            assert graph_hash(back) == graph_hash(g)


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                                    ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4)])
def test_full_flag_graph_shares_one_connection_tuple(kind, n):
    """W(Sigma1) is trivial, so every edge carries the identity positions."""
    rs = RootSystem(kind, n)
    g = build_coset_graph(rs, frozenset(), rs.full_sigma()).graph
    assert len({id(c) for c in g.connection}) == 1
    assert g.connection[0] == tuple(range(len(rs.positive_roots)))


@pytest.mark.parametrize("connection", [[(0, 0), (0,)], [(0,), (1,)], [(-1,), (0,)], [(), (0,)]],
                         ids=["too-long", "past-the-head", "negative", "empty"])
def test_graph_refuses_a_connection_that_is_not_star_positions(connection):
    l = LinearForm([1, -1])
    with pytest.raises(ValueError, match="position in the star of vertex"):
        edge_graph(2, ["a", "b"], [Edge(0, 1, l), Edge(1, 0, -l)], connection)


def test_connection_onto_a_smaller_star_is_not_a_bijection():
    """On the path b - a - c the connection along a -> b sends both edges
    at a to the one edge at b: its image fills b's star, but it is not
    injective."""
    l1, l2 = LinearForm([1, 0]), LinearForm([0, 1])
    edges = [Edge(0, 1, l1), Edge(1, 0, -l1), Edge(0, 2, l2), Edge(2, 0, -l2)]
    g = edge_graph(2, ["a", "b", "c"], edges, [(0, 0), (0,), (0, 0), (1,)])
    rep = verify_gkm(g)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == gkm_report_by_edges(g)
    check = next(c for c in rep.checks if c.name == "connection-shape")
    assert not check.passed
    assert check.witness == f"connection along {g.edge_str(0)} is not a bijection E_p -> E_q"


def test_connection_into_a_larger_star_is_not_a_bijection():
    """On the same path, the connection along b -> a is injective, but a
    has two edges and b one, so it is not onto; that edge comes first."""
    l1, l2 = LinearForm([1, 0]), LinearForm([0, 1])
    edges = [Edge(1, 0, l1), Edge(0, 1, -l1), Edge(0, 2, l2), Edge(2, 0, -l2)]
    g = edge_graph(2, ["a", "b", "c"], edges, [(0,), (0, 0), (0, 0), (1,)])
    rep = verify_gkm(g)
    assert checks_of(rep) == gkm_report_by_edges(g)
    check = next(c for c in rep.checks if c.name == "connection-shape")
    assert check.witness == f"connection along {g.edge_str(0)} is not a bijection E_p -> E_q"


def _set_label(g, eid, label):
    """g with the label on eid and the negated label on its reverse."""
    r = g.reverse[eid]
    return changed_graph(g, labels={eid: label, r: -label})


def _scale_label(g, e, f):
    return _set_label(g, e, g.label(e).scale(2))


def _swap_labels_at_vertex(g, e, f):
    return changed_graph(g, labels={e: g.label(f), f: g.label(e)})


def _swap_connection_images(g, e, f):
    conn = list(g.connection[e])
    a, b = [i for i, k in enumerate(g.edges_at[g.src[e]]) if k != e][:2]
    conn[a], conn[b] = conn[b], conn[a]
    return changed_graph(g, connection={e: tuple(conn)})


def _reverse_not_negated(g, e, f):
    r = g.reverse[e]
    return changed_graph(g, labels={r: g.label(e)})


def _zero_label(g, e, f):
    return _set_label(g, e, LinearForm([0] * g.varcount))


def _proportional_to_neighbour(g, e, f):
    return _set_label(g, e, g.label(f).scale(-3))


@pytest.mark.parametrize("mutate", [
    _scale_label, _swap_labels_at_vertex, _swap_connection_images,
    _reverse_not_negated, _zero_label, _proportional_to_neighbour,
])
@pytest.mark.parametrize("kind", ["A", "B"])
def test_verify_gkm_matches_edge_oracle_on_mutated_flag_graphs(kind, mutate):
    """``mutate(g, e, f)`` is g broken at edge e, using f, another edge at
    the same vertex; both sides must fail with the same first witnesses."""
    rs = RootSystem(kind, 3)
    g = build_coset_graph(rs, frozenset(), rs.full_sigma()).graph
    e, f = g.edges_at[g.nvertices // 2][1:3]
    g = mutate(g, e, f)
    rep = verify_gkm(g)
    assert not rep.ok
    assert checks_of(rep) == gkm_report_by_edges(g)


FRACTIONS = [Fraction(c) for c in (0, 1, -1, 2, -3, "1/2", "-2/3", "3/2", "-1/3")]


def _random_mutation(g, rng, i):
    """g broken at a random edge e, in way i mod 8, within the star of the
    tail of e: a label with Fraction coefficients, whose pivot is often
    not a unit; a zero label at the first, a middle or the last position
    of the star (by i); a label scaled by -1, 2 or 1/3; a label copied
    from an edge of the star; one coefficient bumped by a fraction; two
    connection images swapped (ways 5 and 6); one image duplicated.  A
    changed label is negated on the reverse edge, except in a quarter of
    the draws, which leave the reverse as it was."""
    star = g.edges_at[g.src[rng.randrange(len(g.src))]]
    e = rng.choice(star)
    way = i % 8
    if way == 0:
        label = LinearForm([rng.choice(FRACTIONS) for _ in range(g.varcount)])
    elif way == 1:
        e = star[[0, len(star) // 2, len(star) - 1][i // 8 % 3]]
        label = LinearForm([0] * g.varcount)
    elif way == 2:
        label = g.label(e).scale(rng.choice([-1, 2, Fraction(1, 3)]))
    elif way == 3:
        label = g.label(rng.choice(star))
    elif way == 4:
        bump = [0] * g.varcount
        bump[rng.randrange(g.varcount)] = rng.choice(FRACTIONS[1:])
        label = g.label(e) + LinearForm(bump)
    else:
        conn = list(g.connection[e])
        a, b = rng.sample(range(len(conn)), 2) if len(conn) > 1 else (0, 0)
        conn[a], conn[b] = (conn[b], conn[a]) if way < 7 else (conn[b], conn[b])
        return changed_graph(g, connection={e: tuple(conn)})
    if rng.random() < 0.25:
        return changed_graph(g, labels={e: label})
    return _set_label(g, e, label)


def test_verify_gkm_matches_edge_oracle_on_randomly_mutated_graphs():
    """Seeded mutations of coset graphs up to rank 3 with Sigma1 nonempty,
    of K4 and of graphs with stars of degree 1 (A1, K2) and 0 (Sigma1 =
    Sigma2): every check and first witness agrees with the edge-by-edge
    oracle, and each of the four label and shape checks fails often."""
    graphs = [complete_graph(4), complete_graph(2)]
    for kind, n, sigma1 in [("A", 1, ()), ("A", 2, (1,)), ("A", 3, (2,)), ("A", 3, (1, 3)),
                            ("B", 2, (1,)), ("B", 3, (1,)), ("C", 3, (2, 3)), ("D", 3, (1,)),
                            ("A", 2, (1, 2))]:
        rs = RootSystem(kind, n)
        graphs.append(build_coset_graph(rs, frozenset(sigma1), rs.full_sigma()).graph)
    assert {len(g.edges_at[0]) for g in graphs} >= {0, 1}
    rng = Random(30)
    failed = Counter()
    for g in graphs:
        assert checks_of(verify_gkm(g)) == gkm_report_by_edges(g)
        for i in range(48 if g.src else 0):
            h = _random_mutation(g, rng, i)
            if rng.random() < 0.3:
                h = _random_mutation(h, rng, rng.randrange(8))
            checks = checks_of(verify_gkm(h))
            assert checks == gkm_report_by_edges(h), (g, i)
            failed.update(name for name, passed, _ in checks if not passed)
    for name in ("edge-reversal", "independence", "connection-shape", "congruence"):
        assert failed[name] >= 30, failed


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.lists(
    st.tuples(st.lists(st.sampled_from(FRACTIONS), min_size=m, max_size=m),
              st.sampled_from([1, -1, 2, Fraction(1, 3), Fraction(-3, 2)])),
    min_size=1, max_size=12)), st.data())
def test_residue_rows_and_direction_classes(draws, data):
    """On distinct labels with zero labels, repeated directions and
    denominators 2 and 3, and random stars of them: row k holds an entry
    at each label of near[k] and at no other, two entries share a residue
    iff their labels differ by a rational multiple of k, and k and -k
    share a row; the direction of a label is None iff the label is zero,
    and two nonzero labels have one direction iff they are proportional."""
    labels = list(dict.fromkeys(LinearForm(coeffs).scale(c) for coeffs, c in draws))
    index = {form: k for k, form in enumerate(labels)}
    neg = [index.get(-form) for form in labels]
    home = [k if n is None else min(k, n) for k, n in enumerate(neg)]
    some = st.integers(0, len(labels) - 1)
    stars = data.draw(st.lists(st.lists(some, unique=True, max_size=4), max_size=6))
    # near[h] as verify_gkm needs it: every star holding h or -h, and maybe more
    near = [set(range(len(labels))) if data.draw(st.booleans()) else set() for _ in labels]
    for h, a in data.draw(st.lists(st.tuples(some, some), max_size=8)):
        near[home[h]].add(a)
    for star in stars:
        for k in star:
            near[home[k]].update(star)
    rows = _residue_rows(labels, home, near)
    for k, form in enumerate(labels):
        assert rows[k] is rows[home[k]]
        if not form.is_zero():
            assert {a for a, r in enumerate(rows[k]) if r is not None} == near[home[k]]
        for a, b in combinations(near[home[k]], 2):
            assert (rows[k][a] == rows[k][b]) == (
                (labels[b] - labels[a]).proportional_to(form) is not None)
    ids = [_direction(form) for form in labels]
    for a, form in enumerate(labels):
        assert (ids[a] is None) == form.is_zero()
    for a, b in combinations(range(len(labels)), 2):
        if None not in (ids[a], ids[b]):
            assert (ids[a] == ids[b]) == (labels[a].proportional_to(labels[b]) is not None)


def test_b4_axioms_take_label_work_per_label(monkeypatch):
    """verify_gkm on the B4 flag graph divides and tests proportionality
    a number of times bounded by its 32 distinct labels, not by its 6,144
    edges or 98,304 connection entries."""
    rs = RootSystem("B", 4)
    g = build_coset_graph(rs, frozenset(), rs.full_sigma()).graph
    calls = Counter()
    for cls, name in [(LinearForm, "proportional_to"), (Polynomial, "divrem_linear")]:
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a, real=real, name=name: (
            calls.update([name]), real(*a))[1])
    assert verify_gkm(g).ok
    assert len(g.labels) == 32
    assert 0 < sum(calls.values()) <= 2 * len(g.labels) ** 2, calls


@pytest.mark.parametrize("n", [8, 12])
def test_projective_space_axioms_take_label_work_per_entry(monkeypatch, n):
    """CP^n, the type A coset graph with Sigma1 = {2..n}, is the complete
    graph on n+1 vertices: its n(n+1) labels are all distinct, each on one
    edge.  verify_gkm then divides and tests proportionality at most twice
    per connection entry, not once per pair of labels."""
    rs = RootSystem("A", n)
    g = build_coset_graph(rs, frozenset(range(2, n + 1)), rs.full_sigma()).graph
    calls = Counter()
    for cls, name in [(LinearForm, "proportional_to"), (Polynomial, "divrem_linear")]:
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a, real=real, name=name: (
            calls.update([name]), real(*a))[1])
    assert verify_gkm(g).ok
    assert len(g.labels) == n * (n + 1)
    assert 0 < sum(calls.values()) <= 2 * sum(map(len, g.connection)), calls


# ----------------------------------------------------------------------
# classes


def test_constant_class(s3_graph):
    assert coh_failure(CohClass.constant(s3_graph.graph, 1)) is None


def test_first_coordinate_class(s3_graph):
    c = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    assert coh_failure(c) is None


def test_broken_class_witness(s3_graph):
    g = s3_graph.graph
    vals = [Polynomial.zero(3)] * g.nvertices
    vals[g.vertices.index("1,2,3")] = Polynomial.variable(3, 1)
    c = CohClass(g, vals)
    bad = coh_failure(c)
    assert bad is not None
    assert {g.vertices[g.src[bad]], g.vertices[g.dst[bad]]} == {"1,2,3", "2,1,3"}


def _tampered_at_one_edge(c):
    """c plus, at vertex 0, the product of the labels of all its edges
    but the last: still divisible along every edge at 0 except that one.
    Returns the tampered class and that edge as coh_failure reports it."""
    g = c.graph
    *others, last = g.edges_at[0]
    bump = Polynomial.one(g.varcount)
    for eid in others:
        bump = bump * g.label(eid).to_polynomial()
    values = list(c.values)
    values[0] = values[0] + bump
    return CohClass(g, values), min(last, g.reverse[last])


@pytest.mark.parametrize("kind,n", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                    ("C", 2), ("C", 3), ("D", 3)])
def test_restriction_verdicts_match_long_division_on_flag_graphs(kind, n):
    """On every unoriented edge, for every basis_family class and one
    tampered class, the divrem_linear remainder of the edge difference is
    its restriction to the label's hyperplane, the verdict is that of
    long division, and coh_failure agrees with its restriction oracle."""
    classes = basis_family(RootSystem(kind, n)).classes
    tampered, bad_edge = _tampered_at_one_edge(classes[-1])
    g = tampered.graph
    for c in classes + [tampered]:
        for eid, e in enumerate(edges_of(g)):
            if eid > g.reverse[eid]:
                continue
            diff = c.values[e.dst] - c.values[e.src]
            rem = diff.divrem_linear(e.label)[1]
            assert rem == restrict_to_hyperplane(diff, e.label)
            assert rem.is_zero() == divrem_by_long_division(diff, e.label)[1].is_zero()
        assert coh_failure(c) == coh_failure_by_restriction(c)
    assert coh_failure(tampered) == bad_edge


def test_coh_failure_with_three_term_labels():
    """A label with three nonzero coefficients is decided like any other."""
    l = LinearForm([2, -1, 3])
    g = edge_graph(3, ["a", "b"], [Edge(0, 1, l), Edge(1, 0, -l)], [(0,), (0,)])
    x1 = Polynomial.variable(3, 1)
    good = CohClass(g, [x1, x1 + x1 * l.to_polynomial()])
    bad = CohClass(g, [x1, x1 * x1])
    assert coh_failure(good) is None and coh_failure_by_restriction(good) is None
    assert coh_failure(bad) == 0 == coh_failure_by_restriction(bad)


def test_class_ring(s3_graph):
    c10 = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    c01 = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[1]))
    c11 = c10 * c01
    assert coh_failure(c11) is None
    for w, v in zip(s3_graph.reps, c11.values):
        assert v == Polynomial.variable(3, w.perm[0]) * Polynomial.variable(3, w.perm[1])
    zero = CohClass.constant(s3_graph.graph, 0)
    assert c10 + zero == c10
    f = Polynomial.variable(3, 1) + Polynomial.variable(3, 2) + Polynomial.variable(3, 3)
    assert coh_failure(c10.scale_poly(f)) is None


def test_class_sums_products_stay_classes(s3_graph):
    c = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    d = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[1]))
    assert coh_failure(c + d) is None and coh_failure(c * d) is None


def test_degree_of(s3_graph):
    one = CohClass.constant(s3_graph.graph, 1)
    assert degree_of(one) == 0
    c10 = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    c11 = c10 * column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[1]))
    assert degree_of(c11) == 4
    assert degree_of(one + c10) is None


def test_constructor_refuses_a_label_without_varcount_coefficients():
    """K3's labels have three coefficients.  Rebuilt with varcount 2, the
    graph used to construct and pass every check of verify_gkm."""
    g = complete_graph(3)
    with pytest.raises(ValueError, match="label x1 - x2 has 3 coefficients, not 2"):
        GkmGraph(2, g.vertices, g.src, g.dst, g.labels, g.label_id, g.connection)


# A path d - b - a - c: a and b have two edges, c and d one.  Each
# connection tuple below is legal on the edges it is given for, and sends
# its edge to the edge PATH_REVERSE names.
PATH_VERTICES = ["a", "b", "c", "d"]
PATH_LABELS = [LinearForm([1, 0]), LinearForm([0, 1]), LinearForm([1, 1])]
PATH_EDGES = [Edge(0, 1, PATH_LABELS[0]), Edge(0, 2, PATH_LABELS[1]), Edge(1, 0, -PATH_LABELS[0]),
              Edge(1, 3, PATH_LABELS[2]), Edge(2, 0, -PATH_LABELS[1]), Edge(3, 1, -PATH_LABELS[2])]
PATH_REVERSE = [2, 4, 0, 5, 1, 3]
PATH_CONNECTION = [(0, 1), (0, 0), (0, 1), (0, 0), (1,), (1,)]


def path_graph(entry, edges=PATH_EDGES, connection=PATH_CONNECTION, labels=None, label_id=None):
    """The path through :func:`edge_graph`, which interns the labels of
    ``edges``, or through the constructor with the columns of ``edges``
    and the labels and ids given (or those of ``edges``), with the given
    connection."""
    if entry == "edges":
        return edge_graph(2, PATH_VERTICES, edges, connection)
    forms = [e.label for e in edges]
    labels = list(dict.fromkeys(forms)) if labels is None else labels
    label_id = [labels.index(f) for f in forms] if label_id is None else label_id
    return GkmGraph(2, PATH_VERTICES, [e.src for e in edges], [e.dst for e in edges], labels,
                    label_id, connection)


def test_both_constructor_entries_build_the_same_graph():
    """The Edge-list helper and the constructor build one graph, whose
    reverse is read off the connection."""
    g, h = path_graph("edges"), path_graph("columns")
    for name in ("src", "dst", "label_id", "labels", "reverse", "connection", "edges_at", "slot"):
        assert getattr(g, name) == getattr(h, name), name
    assert (g.src, g.dst, g.label_id) == ((0, 0, 1, 1, 2, 3), (1, 2, 0, 3, 0, 1), tuple(range(6)))
    assert g.labels == tuple(e.label for e in PATH_EDGES)
    assert g.edges_at == ((0, 1), (2, 3), (4,), (5,)) and g.slot == (0, 1, 0, 1, 0, 0)
    assert g.reverse == tuple(PATH_REVERSE)
    assert edges_of(g) == edges_of(h) == tuple(PATH_EDGES)
    assert checks_of(verify_gkm(g)) == checks_of(verify_gkm(h))
    k3 = complete_graph(3)
    assert edges_of(edge_graph(3, k3.vertices, edges_of(k3), k3.connection)) == edges_of(k3)


@pytest.mark.parametrize("entry", ["edges", "columns"])
@pytest.mark.parametrize("shared,eid,tail,head", [(0, 1, 0, 2), (4, 0, 0, 1)],
                         ids=["smaller-head-star", "other-tail-degree"])
def test_constructor_checks_a_shared_connection_tuple_at_every_edge(entry, shared, eid, tail, head):
    """The connection tuple of edge ``shared``, legal there, is also given
    to edge ``eid``, whose head star is smaller or whose tail degree
    differs, where it is out of range: one check per distinct tuple must
    still look at every pair of degrees the tuple meets."""
    connection = list(PATH_CONNECTION)
    connection[eid] = connection[shared]
    with pytest.raises(ValueError, match=f"^a connection must give a position in the star of "
                                         f"vertex {head} for each edge at vertex {tail}$"):
        path_graph(entry, connection=connection)


@pytest.mark.parametrize("entry", ["edges", "columns"])
def test_constructor_refuses_a_label_of_the_wrong_width(entry):
    edges = list(PATH_EDGES)
    edges[3] = Edge(1, 3, LinearForm([1, 1, 0]))
    with pytest.raises(ValueError, match="label x1 \\+ x2 has 3 coefficients, not 2"):
        path_graph(entry, edges=edges)


def test_edge_list_constructor_interns_equal_forms_to_one_id():
    """The Edge-list helper finds the labels and ids itself, so it can give
    neither a repeated form nor an id out of range: equal forms that are
    distinct objects share one id, and the first of them is the label."""
    edges = list(PATH_EDGES)
    edges[3] = Edge(1, 3, LinearForm([1, 0]))
    g = path_graph("edges", edges=edges)
    assert g.label_id == (0, 1, 2, 0, 3, 4) and g.labels[0] is edges[0].label


@pytest.mark.parametrize("labels,label_id", [
    ([e.label for e in PATH_EDGES[:5]] + [LinearForm([1, 0])], [0, 1, 2, 3, 4, 5]),
    (PATH_LABELS + [-f for f in PATH_LABELS], [0, 1, 3, 2, 4, 6]),
    (PATH_LABELS + [-f for f in PATH_LABELS], [0, 1, 3, 2, 4, -1]),
    (PATH_LABELS + [-f for f in PATH_LABELS], [0, 1, 3, 2, 4, 5]),
], ids=["repeated-form", "id-past-the-end", "negative-id", "not-first-occurrence"])
def test_column_constructor_refuses_labels_and_ids_that_do_not_match(labels, label_id):
    """``labels`` must be distinct and ``label_id`` must number them in
    order of first occurrence, so every id is in range."""
    with pytest.raises(ValueError, match="labels must be distinct and numbered"):
        path_graph("columns", labels=labels, label_id=label_id)


@pytest.mark.parametrize("entry", ["edges", "columns"])
@pytest.mark.parametrize("end", [-1, 4])
def test_constructor_refuses_an_edge_end_outside_the_vertices(entry, end):
    """-1 used to be read as the last vertex, silently."""
    edges = list(PATH_EDGES)
    edges[5] = Edge(3, end, -PATH_LABELS[2])
    with pytest.raises(ValueError, match="edge ends must be vertices 0..3"):
        path_graph(entry, edges=edges)


def test_edge_antisymmetry(s3_graph):
    g = s3_graph.graph
    for eid in range(len(g.src)):
        total = g.label(eid) + g.label(g.reverse[eid])
        assert total.is_zero()


# ----------------------------------------------------------------------
# subgraphs


def test_subgraph_checks(s3_graph):
    """The whole graph, a fiber and one long edge are GKM subgraphs for
    the stored connection: induced_subgraph builds each."""
    g = s3_graph.graph
    fiber = {g.vertices.index("1,2,3"), g.vertices.index("1,3,2")}
    long_edge = {g.vertices.index("1,2,3"), g.vertices.index("3,2,1")}
    for vs in (range(g.nvertices), fiber, long_edge):
        sub, vmap, emap = induced_subgraph(g, vs)
        assert sorted(vmap) == sorted(vs) and sub.nvertices == len(vmap)


def test_subgraph_disconnected_raises(s3_graph):
    g = s3_graph.graph
    with pytest.raises(ValueError, match="disconnected"):
        induced_subgraph(g, {g.vertices.index("1,2,3"), g.vertices.index("2,3,1")})


@pytest.mark.parametrize("outside", [-1, 6, "1,2,3"])
def test_subgraph_of_a_vertex_outside_the_graph_raises(s3_graph, outside):
    g = s3_graph.graph
    with pytest.raises(ValueError, match="vertex outside 0..5"):
        induced_subgraph(g, [0, outside])


def test_induced_subgraph_is_gkm(s3_graph):
    g = s3_graph.graph
    fiber = [g.vertices.index("1,2,3"), g.vertices.index("1,3,2")]
    sub, vmap, _ = induced_subgraph(g, fiber)
    assert verify_gkm(sub).ok
    assert sub.nvertices == 2


# ----------------------------------------------------------------------
# isomorphisms


def canonical_s2_graph():
    """The rank-1 flag graph in its own two coordinates."""
    return build_coset_graph(RootSystem("A", 1), frozenset(), frozenset({1})).graph


def fiber_over(s3_graph, first_value):
    g = s3_graph.graph
    verts = [p for p, w in enumerate(s3_graph.reps) if w.perm[0] == first_value]
    return induced_subgraph(g, verts)


def test_identity_iso(s3_graph):
    g = s3_graph.graph
    iso = GkmIso(tuple(range(g.nvertices)), identity_matrix(3))
    assert verify_iso(iso, g, g)


def fiber_iso(s3_graph, w, a):
    """Left multiplication by w from the fiber over a to the fiber over
    w(a), with Psi the (square) matrix of w."""
    sub_a, vmap_a, _ = fiber_over(s3_graph, a)
    sub_b, vmap_b, _ = fiber_over(s3_graph, w.perm[a - 1])
    phi = [None] * sub_a.nvertices
    for p, i in vmap_a.items():
        phi[i] = vmap_b[s3_graph.vertex_of(w * s3_graph.reps[p])]
    return GkmIso(tuple(phi), w.matrix()), sub_a, sub_b


def test_model_fiber_iso(s3_graph, a2_mod):
    """The transposition (1 3) carries the fiber over 1 onto the fiber
    over 3; only a square invertible Psi is an isomorphism."""
    w = a2_mod.reflection(LinearForm([1, 0, -1]))
    iso, sub1, sub3 = fiber_iso(s3_graph, w, 1)
    assert verify_iso(iso, sub1, sub3)
    assert not verify_iso(GkmIso(iso.phi, identity_matrix(3)), sub1, sub3)
    # the embedding of a two-coordinate model graph is no longer an iso
    embed = ((1, 0), (0, 1), (0, 0))
    assert not verify_iso(GkmIso(iso.phi, embed), canonical_s2_graph(), sub3)
    with pytest.raises(ValueError, match="not a square matrix"):
        pullback_class(GkmIso(iso.phi, embed), canonical_s2_graph(), sub3,
                       CohClass(sub3, [Polynomial.variable(3, 1)] * 2))
    # pull the fiber restriction of u -> x_{u(2)} back to the fiber over 1
    assert list(sub3.vertices) == ["3,1,2", "3,2,1"]
    assert list(sub1.vertices) == ["1,2,3", "1,3,2"]
    c = CohClass(sub3, [Polynomial.variable(3, k) for k in (1, 2)])
    pulled = pullback_class(iso, sub1, sub3, c)
    assert [str(v) for v in pulled.values] == ["x2", "x3"]
    assert coh_failure(pulled) is None


def test_wrong_psi_fails():
    """A twisted fiber of the rank-2 signed group needs a nontrivial Psi.

    Across the base edge from the identity coset to the coset of the
    long-root reflection the fiber labels move from +-x2 to +-x1, so the
    correct linear part is the reflection in x1+x2 and the identity must
    fail to intertwine.
    """
    rs = RootSystem("B", 2)
    flag = build_coset_graph(rs, frozenset(), rs.full_sigma())
    g = flag.graph
    fibers = {}
    for p, w in enumerate(flag.reps):
        key = w.signs[0] * w.perm[0]
        fibers.setdefault(key, []).append(p)
    sub1, _, _ = induced_subgraph(g, fibers[1])   # over omega_1^+
    sub2, _, _ = induced_subgraph(g, fibers[-2])  # over omega_2^-
    refl = rs.reflection(LinearForm([1, 1]))
    phi_map = {}
    for p in fibers[1]:
        target = flag.vertex_of(refl * flag.reps[p])
        phi_map[fibers[1].index(p)] = fibers[-2].index(target)
    phi = tuple(phi_map[i] for i in range(len(fibers[1])))
    good = GkmIso(phi, refl.matrix())
    bad = GkmIso(phi, identity_matrix(2))
    assert verify_iso(good, sub1, sub2)
    assert not verify_iso(bad, sub1, sub2)


def test_pullback_round_trip(s3_graph):
    g = s3_graph.graph
    # a nontrivial automorphism: relabel through w0-conjugation is overkill;
    # the identity is its own inverse, so pulling back twice is a round trip
    iso = GkmIso(tuple(range(g.nvertices)), identity_matrix(3))
    c = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    assert pullback_class(iso, g, g, c) == c
    assert pullback_class(iso, g, g, pullback_class(iso, g, g, c)) == c


def test_pullback_is_ring_morphism(s3_graph, a2_mod):
    w = a2_mod.reflection(LinearForm([1, 0, -1]))
    iso, sub1, sub3 = fiber_iso(s3_graph, w, 1)
    c = CohClass(sub3, [Polynomial.variable(3, k) for k in (1, 2)])
    d = CohClass(sub3, [Polynomial.variable(3, 2) * Polynomial.variable(3, 1)] * 2)
    lhs = pullback_class(iso, sub1, sub3, c * d)
    rhs = pullback_class(iso, sub1, sub3, c) * pullback_class(iso, sub1, sub3, d)
    assert lhs == rhs


# ----------------------------------------------------------------------
# serialization


def test_json_round_trip(s3_graph):
    g = s3_graph.graph
    data = json.loads(json.dumps(graph_to_json(g)))
    g2 = graph_from_json(data)
    assert graph_hash(g2) == graph_hash(g)
    assert verify_gkm(g2).ok


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                                    ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4)])
def test_graph_file_of_every_full_flag_graph_is_its_json_dump(kind, n):
    """The streamed writer gives the bytes of ``json.dumps(..., indent=1)``
    and a newline; B4 is pinned by its digest in test_cli."""
    rs = RootSystem(kind, n)
    g = build_coset_graph(rs, frozenset(), rs.full_sigma()).graph
    assert "".join(graph_json_chunks(g)) == json_file_text(graph_to_json(g))


@pytest.mark.parametrize("kind", "ABCD")
def test_graph_file_of_every_rank_3_coset_graph_is_its_json_dump(kind):
    rs = RootSystem(kind, 3)
    for sigma1 in subsets(rs.full_sigma()):
        g = build_coset_graph(rs, sigma1, rs.full_sigma()).graph
        assert "".join(graph_json_chunks(g)) == json_file_text(graph_to_json(g)), sigma1


def test_graph_file_escapes_names_and_writes_fractions():
    """Vertex names are written with ``json``'s ASCII escapes and label
    coefficients as ``Fraction`` text, as ``json.dumps`` writes them."""
    data = graph_to_json(complete_graph(3))
    data["vertices"] = ['a"b', "c\\d", "é"]
    data["edges"][0]["alpha"] = ["1/2", "-1/2", "0"]
    g = graph_from_json(data)
    text = "".join(graph_json_chunks(g))
    assert text == json_file_text(graph_to_json(g)) == json_file_text(data)
    for written in ['"a\\"b"', '"c\\\\d"', '"\\u00e9"', '"1/2"', '"-1/2"']:
        assert written in text


def test_graph_file_is_streamed_one_entry_per_chunk():
    """Each vertex name, edge entry and connection entry is its own chunk,
    so a writer of the chunks never holds more than one entry as text."""
    rs = RootSystem("B", 3)
    g = build_coset_graph(rs, frozenset(), rs.full_sigma()).graph
    chunks = list(graph_json_chunks(g))
    assert len(chunks) >= g.nvertices + 2 * len(g.src)
    assert max(c.count('"src"') + c.count('"edge"') for c in chunks) == 1


def _k3_map(pairs):
    """K3's graph data with ``pairs`` as the map of edge 0 = (1 -> 2), whose
    map in star order is [[0, 2], [1, 3]]."""
    data = graph_to_json(complete_graph(3))
    assert data["connection"][0]["map"] == [[0, 2], [1, 3]]
    data["connection"][0]["map"] = pairs
    return data


@pytest.mark.parametrize("pairs", [
    [[0, 2], [True, 3]],
    [[0, 2.0], [1, 3]],
    [[0, 2], (1, 3)],
    [[0, 2], [1, 3, 3]],
    [[0, 2], [1]],
    [[0, 2], [0, 3]],
    [[0, 2], [2, 3]],
    [[0, 2], [1, 0]],
    [[0, 2]],
    {"0": 2, "1": 3},
], ids=["bool-key", "float-image", "tuple-pair", "long-pair", "short-pair", "repeated-key",
        "key-off-the-tail", "image-off-the-head", "missing-key", "dict-map"])
def test_graph_from_json_refuses_a_malformed_map(pairs):
    """A map is checked whole, against the star of the tail and of the
    head; an entry equal to an edge id but not an ``int`` is refused."""
    with pytest.raises(ValueError) as err:
        graph_from_json(_k3_map(pairs))
    assert str(err.value) == ("connection 0: map must pair each edge at vertex 0 "
                              "once with an edge at vertex 1")


def test_graph_from_json_names_the_lowest_edge_with_a_malformed_map():
    """With the edge ids of K3 reversed, edge 0 sits at the last vertex;
    breaking its map and that of edge 5, at vertex 0, names edge 0.  With
    edges 0 and 5 at vertex 0 and edges 1 and 2 at vertex 1, the star of
    edge 0 is complete only after that of edge 1; breaking both maps still
    names edge 0."""
    data = graph_to_json(complete_graph(3))
    for new_id, other, vertex in [((5, 4, 3, 2, 1, 0), 5, 2), ((0, 5, 1, 2, 3, 4), 1, 0)]:
        edges, connection = [None] * 6, [None] * 6
        for old, (edge, entry) in enumerate(zip(data["edges"], data["connection"])):
            edges[new_id[old]] = edge
            connection[new_id[old]] = {"edge": entry["edge"],
                                       "map": [[new_id[x], new_id[y]] for x, y in entry["map"]]}
        renumbered = {**data, "edges": edges, "connection": connection}
        assert graph_from_json(copy.deepcopy(renumbered)).src[0] == vertex
        for eid in (0, other):
            renumbered["connection"][eid]["map"][0][0] = True
        with pytest.raises(ValueError, match=rf"^connection 0: map must pair each edge at "
                                             rf"vertex {vertex} "):
            graph_from_json(renumbered)


@pytest.mark.parametrize("variant", [
    lambda e: e.update(src=True),
    lambda e: e.update(dst=float(e["dst"])),
    lambda e: e.update(dst=8),
    lambda e: e["alpha"].pop(),
    lambda e: e["alpha"].__setitem__(1, 0),
    lambda e: [e["src"], e["dst"]],
], ids=["bool-src", "float-dst", "index-n", "short-alpha", "non-string-coefficient", "non-dict"])
def test_graph_from_json_names_a_malformed_edge_entry(variant):
    """The edge entries are checked column by column; a malformed entry at
    a middle edge of the B2 file is named with the text the per-entry
    check gave."""
    data = graph_to_json(build_coset_graph(RootSystem("B", 2), frozenset(), {1, 2}).graph)
    mid = len(data["edges"]) // 2
    entry = data["edges"][mid]
    data["edges"][mid] = variant(entry) or entry
    with pytest.raises(ValueError) as err:
        graph_from_json(data)
    assert str(err.value) == f"edge {mid}: need vertex indices src, dst and 2 rationals alpha"


def test_graph_from_json_reads_a_map_in_any_order():
    g = graph_from_json(_k3_map([[1, 3], [0, 2]]))
    assert g.connection == complete_graph(3).connection
    assert g.reverse == complete_graph(3).reverse


def _columns(g):
    return (g.varcount, g.vertices, g.src, g.dst, g.labels, g.label_id, g.connection, g.reverse)


def _assert_reader_matches_the_parsed_file(g):
    """``graph_from_text`` reads the written file and a compact dump of
    ``g`` into the columns that ``graph_from_json`` reads from the parsed
    file, with equal connection tuples shared alike."""
    for text in ("".join(graph_json_chunks(g)),
                 json.dumps(graph_to_json(g), separators=(",", ":"))):
        read, parsed = graph_from_text(text), graph_from_json(json.loads(text))
        assert _columns(read) == _columns(parsed) == _columns(g)
        assert len({id(c) for c in read.connection}) == len({id(c) for c in parsed.connection})


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                    ("C", 2), ("C", 3), ("D", 3)])
def test_graph_from_text_matches_the_parsed_file_on_every_coset_graph(kind, n):
    rs = RootSystem(kind, n)
    for sigma1 in subsets(rs.full_sigma()):
        _assert_reader_matches_the_parsed_file(build_coset_graph(rs, sigma1, rs.full_sigma()).graph)


def test_graph_from_text_matches_the_parsed_file_on_k5():
    _assert_reader_matches_the_parsed_file(complete_graph(5))


def test_graph_from_text_holds_less_than_half_of_the_parsed_file():
    """Reading the B3 flag file a connection entry at a time peaks, by
    ``tracemalloc``, at no more than half of parsing it whole first."""
    rs = RootSystem("B", 3)
    text = "".join(graph_json_chunks(build_coset_graph(rs, frozenset(), rs.full_sigma()).graph))

    def peak(read):
        tracemalloc.start()
        try:
            read(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(graph_from_text) <= peak(lambda t: graph_from_json(json.loads(t))) / 2


def test_class_json_round_trip(s3_graph):
    g = s3_graph.graph
    c = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    data = class_to_json(c)
    c2 = class_from_json(data, g)
    assert c2 == c
    with pytest.raises(ValueError):
        class_from_json(data, complete_graph(3))
    # x2 at the identity breaks divisibility by x1 - x3 on the edge to 3,2,1
    tampered = copy.deepcopy(data)
    tampered["values"]["1,2,3"] = "x2"
    with pytest.raises(ValueError, match=r"fails at \(1,2,3 -> 3,2,1; x1 - x3\)"):
        class_from_json(tampered, g)


def test_class_json_zero_denominator_is_value_error(s3_graph):
    g = s3_graph.graph
    data = class_to_json(CohClass.constant(g, 1))
    data["values"]["1,2,3"] = "x1 + 1/0"
    with pytest.raises(ValueError, match="zero denominator"):
        class_from_json(data, g)


def test_class_json_trailing_operator_is_value_error(s3_graph):
    g = s3_graph.graph
    data = class_to_json(CohClass.constant(g, 1))
    data["values"]["1,2,3"] = "x1*"
    with pytest.raises(ValueError, match="ends early"):
        class_from_json(data, g)


def test_class_json_on_a_graph_with_a_zero_label_is_value_error(s3_graph):
    """A zero label would make every class check divide by zero; the
    graph is refused instead, naming the first edge that carries it."""
    data = graph_to_json(s3_graph.graph)
    data["edges"][0]["alpha"] = ["0", "0", "0"]
    g = graph_from_json(data)
    with pytest.raises(ValueError, match=r"zero label on \(1,2,3 -> 2,1,3; 0\)"):
        class_from_json(class_to_json(CohClass.constant(g, 1)), g)


def test_class_json_missing_values_name_the_vertex(s3_graph):
    g = s3_graph.graph
    c = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    data = class_to_json(c)
    no_values = {k: v for k, v in data.items() if k != "values"}
    with pytest.raises(ValueError, match="vertex 1,2,3"):
        class_from_json(no_values, g)
    lacking = copy.deepcopy(data)
    del lacking["values"]["2,3,1"]
    with pytest.raises(ValueError, match="vertex 2,3,1"):
        class_from_json(lacking, g)

def test_dot_export():
    dot = graph_to_dot(complete_graph(3), name="K3")
    assert dot.count(" -- ") == 3
    for label in ["x1 - x2", "x1 - x3", "x2 - x3"]:
        assert f'[label="{label}"]' in dot
