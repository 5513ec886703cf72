import copy
import json
from fractions import Fraction

import pytest

from gkmflag.gkmgraph import (
    CohClass,
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
from gkmflag.linalg import identity_matrix
from gkmflag.parabolic import build_coset_graph
from gkmflag.polyring import LinearForm, Polynomial
from gkmflag.rootsys import RootSystem


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
    bad = copy.deepcopy(g)
    eid = g.find_edges(0, 1)[0]
    rev = g.reverse[eid]
    label = LinearForm([1, 1, 0])
    bad.edges[eid] = bad.edges[eid]._replace(label=label)
    bad.edges[rev] = bad.edges[rev]._replace(label=-label)
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
