import copy
import json
from fractions import Fraction
from itertools import combinations

import pytest

from gkmflag.gkmgraph import (
    CohClass,
    Edge,
    GkmGraph,
    GkmIso,
    check_subgraph,
    class_from_json,
    class_to_json,
    complete_graph,
    compose_iso,
    degree_of,
    coh_failure,
    graph_from_json,
    graph_hash,
    graph_to_dot,
    graph_to_json,
    induced_subgraph,
    invert_iso,
    is_coh_class,
    pullback_class,
    verify_gkm,
    verify_iso,
)
from gkmflag.invbases import basis_family
from gkmflag.linalg import identity_matrix
from gkmflag.parabolic import build_coset_graph
from gkmflag.polyring import LinearForm, Polynomial
from gkmflag.rootsys import RootSystem

from oracles import changed_graph, coh_failure_by_division, gkm_report_by_edges


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


def test_k2_k3_pass():
    assert verify_gkm(complete_graph(2)).ok
    assert verify_gkm(complete_graph(3)).ok


def test_k3_bad_label_fails_congruence():
    g = complete_graph(3)
    eid = g.find_edges(0, 1)[0]
    rev = g.reverse[eid]
    label = LinearForm([1, 1, 0])
    bad = changed_graph(g, edges={eid: g.edges[eid]._replace(label=label),
                                  rev: g.edges[rev]._replace(label=-label)})
    rep = verify_gkm(bad)
    assert not rep.ok
    names = {c.name for c in rep.failures()}
    assert "congruence" in names


def test_flag_graph_passes(s3_graph):
    assert verify_gkm(s3_graph.graph).ok


def test_strict_independence_fails_on_flag_graphs(s3_graph):
    # three edge directions in an effective rank-2 span
    rep = verify_gkm(s3_graph.graph, strict_independence=True)
    assert not rep.ok and not verify_gkm(s3_graph.graph).failures()


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
            assert len(g.label_id) == len(g.edges)
            assert all(e.label is g.labels[k] for e, k in zip(g.edges, g.label_id))
            assert len(set(g.labels)) == len(g.labels)
            assert list(dict.fromkeys(g.label_id)) == list(range(len(g.labels)))
            if not sigma1 and sigma2 == rs.full_sigma():
                assert set(g.labels) == roots
            for field in ("edges", "reverse", "vertices", "edges_at", "slot", "connection",
                          "labels"):
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
            assert all(g.edges_at[e.src][g.slot[eid]] == eid for eid, e in enumerate(g.edges))
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
        GkmGraph(2, ["a", "b"], [Edge(0, 1, l), Edge(1, 0, -l)], [1, 0], connection)


def _set_label(g, eid, label):
    """g with the label on eid and the negated label on its reverse."""
    r = g.reverse[eid]
    return changed_graph(g, edges={eid: g.edges[eid]._replace(label=label),
                                   r: g.edges[r]._replace(label=-label)})


def _scale_label(g, e, f):
    return _set_label(g, e, g.edges[e].label.scale(2))


def _swap_labels_at_vertex(g, e, f):
    le, lf = g.edges[e].label, g.edges[f].label
    return changed_graph(g, edges={e: g.edges[e]._replace(label=lf),
                                   f: g.edges[f]._replace(label=le)})


def _swap_connection_images(g, e, f):
    conn = list(g.connection[e])
    a, b = [i for i, k in enumerate(g.edges_at[g.edges[e].src]) if k != e][:2]
    conn[a], conn[b] = conn[b], conn[a]
    return changed_graph(g, connection={e: tuple(conn)})


def _reverse_not_negated(g, e, f):
    r = g.reverse[e]
    return changed_graph(g, edges={r: g.edges[r]._replace(label=g.edges[e].label)})


def _zero_label(g, e, f):
    return _set_label(g, e, LinearForm([0] * g.varcount))


def _proportional_to_neighbour(g, e, f):
    return _set_label(g, e, g.edges[f].label.scale(-3))


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


# ----------------------------------------------------------------------
# classes


def test_constant_class(s3_graph):
    assert is_coh_class(CohClass.constant(s3_graph.graph, 1))


def test_first_coordinate_class(s3_graph):
    c = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    assert is_coh_class(c)


def test_broken_class_witness(s3_graph):
    g = s3_graph.graph
    vals = [Polynomial.zero(3)] * g.nvertices
    vals[g.vertex_index("1,2,3")] = Polynomial.variable(3, 1)
    c = CohClass(g, vals)
    bad = coh_failure(c)
    assert bad is not None
    e = g.edges[bad]
    assert {g.vertices[e.src], g.vertices[e.dst]} == {"1,2,3", "2,1,3"}


def _tampered_at_one_edge(c):
    """c plus, at vertex 0, the product of the labels of all its edges
    but the last: still divisible along every edge at 0 except that one.
    Returns the tampered class and that edge as coh_failure reports it."""
    g = c.graph
    *others, last = g.edges_at[0]
    bump = Polynomial.one(g.varcount)
    for eid in others:
        bump = bump * g.edges[eid].label.to_polynomial()
    values = list(c.values)
    values[0] = values[0] + bump
    return CohClass(g, values), min(last, g.reverse[last])


@pytest.mark.parametrize("kind,n", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                    ("C", 2), ("C", 3), ("D", 3)])
def test_restriction_verdicts_match_long_division_on_flag_graphs(kind, n):
    """On every unoriented edge, for every basis_family class and one
    tampered class, congruent_mod and is_multiple_of agree with the
    remainder of divrem_linear, and coh_failure with its oracle."""
    classes = basis_family(RootSystem(kind, n)).classes
    tampered, bad_edge = _tampered_at_one_edge(classes[-1])
    g = tampered.graph
    for c in classes + [tampered]:
        for eid, e in enumerate(g.edges):
            if eid > g.reverse[eid]:
                continue
            hi, lo = c.values[e.dst], c.values[e.src]
            divisible = (hi - lo).divrem_linear(e.label)[1].is_zero()
            assert hi.congruent_mod(lo, e.label) == divisible
            assert (hi - lo).is_multiple_of(e.label) == divisible
        assert coh_failure(c) == coh_failure_by_division(c)
    assert coh_failure(tampered) == bad_edge


def test_coh_failure_with_three_term_labels():
    """Labels with three nonzero coefficients are decided by division."""
    l = LinearForm([2, -1, 3])
    g = GkmGraph(3, ["a", "b"], [Edge(0, 1, l), Edge(1, 0, -l)], [1, 0], [(0,), (0,)])
    x1 = Polynomial.variable(3, 1)
    good = CohClass(g, [x1, x1 + x1 * l.to_polynomial()])
    bad = CohClass(g, [x1, x1 * x1])
    assert coh_failure(good) is None and coh_failure_by_division(good) is None
    assert coh_failure(bad) == 0 == coh_failure_by_division(bad)


def test_class_ring(s3_graph):
    c10 = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    c01 = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[1]))
    c11 = c10 * c01
    assert is_coh_class(c11)
    for w, v in zip(s3_graph.reps, c11.values):
        assert v == Polynomial.variable(3, w.perm[0]) * Polynomial.variable(3, w.perm[1])
    zero = CohClass.constant(s3_graph.graph, 0)
    assert c10 + zero == c10
    f = Polynomial.variable(3, 1) + Polynomial.variable(3, 2) + Polynomial.variable(3, 3)
    assert is_coh_class(c10.scale_poly(f))


def test_class_sums_products_stay_classes(s3_graph):
    c = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    d = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[1]))
    assert is_coh_class(c + d) and is_coh_class(c * d)


def test_degree_of(s3_graph):
    one = CohClass.constant(s3_graph.graph, 1)
    assert degree_of(one) == 0
    c10 = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    c11 = c10 * column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[1]))
    assert degree_of(c11) == 4
    assert degree_of(one + c10) is None


def test_edge_antisymmetry(s3_graph):
    g = s3_graph.graph
    for eid in range(len(g.edges)):
        total = g.edges[eid].label + g.edges[g.reverse[eid]].label
        assert total.is_zero()


# ----------------------------------------------------------------------
# subgraphs


def test_subgraph_checks(s3_graph):
    g = s3_graph.graph
    assert check_subgraph(g, range(g.nvertices))
    fiber = {g.vertex_index("1,2,3"), g.vertex_index("1,3,2")}
    assert check_subgraph(g, fiber)
    long_edge = {g.vertex_index("1,2,3"), g.vertex_index("3,2,1")}
    assert check_subgraph(g, long_edge)


def test_subgraph_disconnected_raises(s3_graph):
    g = s3_graph.graph
    with pytest.raises(ValueError):
        check_subgraph(g, {g.vertex_index("1,2,3"), g.vertex_index("2,3,1")})


def test_induced_subgraph_is_gkm(s3_graph):
    g = s3_graph.graph
    fiber = [g.vertex_index("1,2,3"), g.vertex_index("1,3,2")]
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


def test_model_fiber_iso(s3_graph):
    """The model rank-1 graph embeds onto the fiber over 3."""
    s2 = canonical_s2_graph()
    sub, vmap, _ = fiber_over(s3_graph, 3)
    # phi: id -> 312, s1 -> 321; psi embeds x1, x2 into three coordinates
    g = s3_graph.graph
    phi = (
        sub.vertex_index("3,1,2"),
        sub.vertex_index("3,2,1"),
    )
    psi = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    iso = GkmIso(phi, psi)
    assert verify_iso(iso, s2, sub)
    # pull the fiber restriction of u -> x_{u(2)} back to the model graph
    c = CohClass(sub, [Polynomial.variable(3, w) for w in (1, 2)])
    pulled = pullback_class(iso, s2, sub, c)
    assert [str(v) for v in pulled.values] == ["x1", "x2"]
    assert is_coh_class(pulled)


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
    # the identity round trip already exercises inverse composition
    iso = GkmIso(tuple(range(g.nvertices)), identity_matrix(3))
    c = column_class(s3_graph, lambda w: Polynomial.variable(3, w.perm[0]))
    assert pullback_class(iso, g, g, c) == c
    inv = invert_iso(iso)
    assert pullback_class(inv, g, g, pullback_class(iso, g, g, c)) == c
    assert compose_iso(iso, inv).phi == tuple(range(g.nvertices))


def test_pullback_is_ring_morphism(s3_graph):
    g = s3_graph.graph
    sub, vmap, _ = fiber_over(s3_graph, 3)
    s2 = canonical_s2_graph()
    phi = (sub.vertex_index("3,1,2"), sub.vertex_index("3,2,1"))
    psi = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    iso = GkmIso(phi, psi)
    c = CohClass(sub, [Polynomial.variable(3, w) for w in (1, 2)])
    d = CohClass(sub, [Polynomial.variable(3, 2) * Polynomial.variable(3, 1)] * 2)
    lhs = pullback_class(iso, s2, sub, c * d)
    rhs = pullback_class(iso, s2, sub, c) * pullback_class(
        iso, s2, sub, d
    )
    assert lhs == rhs


# ----------------------------------------------------------------------
# serialization


def test_json_round_trip(s3_graph):
    g = s3_graph.graph
    data = json.loads(json.dumps(graph_to_json(g)))
    g2 = graph_from_json(data)
    assert graph_hash(g2) == graph_hash(g)
    assert verify_gkm(g2).ok


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
