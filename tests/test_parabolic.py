import copy
import hashlib
import itertools
import random

import pytest

from gkmflag.gkmgraph import (
    Edge,
    GkmGraph,
    GkmIso,
    compose_iso,
    graph_hash,
    invert_iso,
    verify_gkm,
    verify_iso,
)
from gkmflag.linalg import identity_matrix
from gkmflag.parabolic import (
    base_tree,
    build_bundle,
    build_coset_graph,
    bundle_from_json,
    bundle_hash,
    bundle_to_json,
    fiber_model_iso,
    holonomy,
    holonomy_exhaustive,
    holonomy_of_loop,
    make_bundle,
    product_bundle,
    typical_fiber,
    upsilon_elements,
    verify_fiber_bundle,
    verify_fibration,
)
from gkmflag.polyring import LinearForm
from gkmflag.rootsys import RootSystem

from oracles import changed_graph, connection_dict, connection_failure, coset_projection

BUNDLES = [
    ("A", 2, frozenset({2})),
    ("A", 3, frozenset({2, 3})),
    ("A", 3, frozenset({1, 3})),
    ("B", 2, frozenset({2})),
    ("C", 2, frozenset({2})),
    ("D", 3, frozenset({2, 3})),
]


def tower(kind, n, sigma2=None):
    rs = RootSystem(kind, n)
    if sigma2 is None:
        sigma2 = rs.full_sigma() - {1}
    return rs, build_bundle(rs, frozenset(), sigma2)


def canonical_structure(cg):
    """Labeled-graph shape independent of edge ordering, for comparisons."""
    g = cg.graph
    key = {}
    for eid, e in enumerate(g.edges):
        key[eid] = (g.vertices[e.src], g.vertices[e.dst], str(e.label))
    edges = sorted(key.values())
    conn = set()
    for eid in range(len(g.edges)):
        for a, b in connection_dict(g, eid).items():
            conn.add((key[eid], key[a], key[b]))
    return edges, conn


# ----------------------------------------------------------------------
# coset graphs


def test_flag_graph_a2(a2):
    cg = build_coset_graph(a2, frozenset(), a2.full_sigma())
    assert cg.nvertices == 6
    g = cg.graph
    eid = g.find_edges(g.vertex_index("1,2,3"), g.vertex_index("1,3,2"))[0]
    assert str(g.edges[eid].label) == "x2 - x3"
    eid = g.find_edges(g.vertex_index("2,3,1"), g.vertex_index("3,2,1"))[0]
    assert str(g.edges[eid].label) == "x2 - x3"


def test_k4_from_a3(a3):
    cg = build_coset_graph(a3, frozenset({2, 3}), a3.full_sigma())
    assert cg.nvertices == 4
    g = cg.graph
    for p in range(4):
        assert {g.edges[eid].dst for eid in g.edges_at[p]} == set(range(4)) - {p}
    assert verify_gkm(g).ok


def test_b2_base_half_label(b2):
    cg = build_coset_graph(b2, frozenset({2}), b2.full_sigma())
    g = cg.graph
    eid = g.find_edges(g.vertex_index("1,2"), g.vertex_index("-1,2"))[0]
    assert str(g.edges[eid].label) == "x1"


def test_all_built_graphs_pass_axioms():
    for kind, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                    ("C", 2), ("C", 3), ("D", 3)]:
        rs = RootSystem(kind, n)
        assert verify_gkm(build_coset_graph(rs, frozenset(), rs.full_sigma()).graph).ok
    a3 = RootSystem("A", 3)
    assert verify_gkm(build_coset_graph(a3, frozenset({1, 3}), a3.full_sigma()).graph).ok


def test_representative_independence(a2, b2):
    rng = random.Random(17)
    for rs, sigma1 in [(a2, frozenset({2})), (b2, frozenset({2}))]:
        canonical = build_coset_graph(rs, sigma1, rs.full_sigma())
        w1 = rs.parabolic_elements(sigma1)
        reps = [w * rng.choice(w1) for w in canonical.reps]
        rebuilt = build_coset_graph(rs, sigma1, rs.full_sigma(), build_reps=reps)
        assert canonical_structure(rebuilt) == canonical_structure(canonical)


# sha256 over the graph_hash of every coset graph of the type at rank 3,
# one per line, in the order of test_connection_reflects_labels
RANK3_GRAPH_DIGESTS = {
    "A": "d4c9581040fa3972447ebdbd556fe91b6e5057c15d5ffb34ae1952ccc6f30bc6",
    "B": "5e8c32bbbbba33830a5bc7fd9864af556bddfae6e56285c98760aa400b060ece",
    "C": "97a5f0d31618a054c3c8425a1425e69923924f02aa4013586eb7ca2e7363f477",
    "D": "05997efd3bd70d78da7ca3f6891ea5d0c6f2ffb4bdc346cfb2e329ca4629bdd8",
}


@pytest.mark.parametrize("kind", "ABCD")
def test_connection_reflects_labels(kind):
    """On every coset graph of rank 3, canonical and rebuilt from random
    representatives, the connection along e sends e1 to the edge at dst(e)
    labeled s_{label(e)}(label(e1)); the canonical graphs are byte-stable."""
    rs = RootSystem(kind, 3)
    rng = random.Random(kind)
    hashes = []
    for r2 in range(4):
        for sigma2 in itertools.combinations((1, 2, 3), r2):
            for r1 in range(r2 + 1):
                for sigma1 in itertools.combinations(sigma2, r1):
                    cg = build_coset_graph(rs, sigma1, sigma2)
                    w1 = rs.parabolic_elements(sigma1)
                    reps = [w * rng.choice(w1) for w in cg.reps]
                    rebuilt = build_coset_graph(rs, sigma1, sigma2, build_reps=reps)
                    for g in (cg.graph, rebuilt.graph):
                        assert connection_failure(g) is None, (sigma1, sigma2)
                    hashes.append(graph_hash(cg.graph))
    assert len(hashes) == 27
    digest = hashlib.sha256("\n".join(hashes).encode()).hexdigest()
    assert digest == RANK3_GRAPH_DIGESTS[kind]


def test_connection_oracle_catches_a_swapped_connection(a2):
    g = build_coset_graph(a2, frozenset(), a2.full_sigma()).graph
    assert connection_failure(g) is None
    conn = list(g.connection[0])
    (i, e1), (j, _) = [(i, k) for i, k in enumerate(g.edges_at[0]) if k != 0]
    conn[i], conn[j] = conn[j], conn[i]
    assert connection_failure(changed_graph(g, connection={0: tuple(conn)})) == (0, e1)


def test_sigma_ordering_enforced(a2):
    with pytest.raises(ValueError):
        build_coset_graph(a2, frozenset({1}), frozenset({2}))


def test_minimal_representatives(a2, b2):
    reps = build_coset_graph(a2, frozenset({2}), a2.full_sigma()).reps
    assert set(reps) == {
        a2.identity(),
        a2.simple_reflection(1),
        a2.simple_reflection(2) * a2.simple_reflection(1),
    }
    reps_b = build_coset_graph(b2, frozenset({2}), b2.full_sigma()).reps
    assert sorted(b2.length(w) for w in reps_b) == [0, 1, 2, 3]
    full = build_coset_graph(a2, a2.full_sigma(), a2.full_sigma()).reps
    assert full == [a2.identity()]


# ----------------------------------------------------------------------
# bundles


def test_projection_is_first_value(a3):
    rs, b = tower("A", 3)
    for p, w in enumerate(b.total_coset.reps):
        base_rep = b.base_coset.reps[b.pi[p]]
        assert base_rep.perm[0] == w.perm[0]


def test_all_bundles_verify():
    for kind, n, sigma2 in BUNDLES:
        rs = RootSystem(kind, n)
        b = build_bundle(rs, frozenset(), sigma2)
        rep = verify_fibration(b)
        assert rep.ok, (kind, n, rep.summary())
        rep = verify_fiber_bundle(b)
        assert rep.ok, (kind, n, rep.summary())


def test_lift_paths(a2):
    rs, b = tower("A", 2)
    start = b.total.vertex_index("1,2,3")
    assert b.lift_path([], start) == [start]
    lifted = b.lift_path([0, 1, 2, 0], start)
    assert [b.total.vertices[q] for q in lifted] == ["1,2,3", "2,1,3", "3,1,2", "1,3,2"]
    # an edge followed by its reverse returns to the start
    beid = b.base.edges_at[0][0]
    back = b.base.reverse[beid]
    out = b.lift_path([beid, back], start, edges=True)
    assert out[0] == out[-1] == start


def test_lift_path_bad_start(a2):
    rs, b = tower("A", 2)
    other = b.total.vertex_index("2,1,3")
    with pytest.raises(ValueError):
        b.lift_path([0, 1], other)


def test_transition_formula_sn(a3):
    """Across the base edge i -> j the transition is left multiplication
    by the transposition (i, j)."""
    rs, b = tower("A", 3)
    for beid, e in enumerate(b.base.edges):
        refl = rs.reflection(e.label)
        t = b.transitions[beid]
        for p, q in t.vmap.items():
            assert b.total_coset.reps[q] == refl * b.total_coset.reps[p]


def test_transition_composition_with_reverse(b2):
    rs, b = tower("B", 2)
    for beid in range(len(b.base.edges)):
        t = b.transitions[beid]
        back = b.transitions[b.base.reverse[beid]]
        for p, q in t.vmap.items():
            assert back.vmap[q] == p


def test_b2_transition_psi_is_sign_flip(b2):
    rs, b = tower("B", 2)
    g = b.base
    eid = g.find_edges(g.vertex_index("1,2"), g.vertex_index("-1,2"))[0]
    psi = b.transitions[eid].psi
    assert psi == rs.reflection(LinearForm([1, 0])).matrix()
    assert psi[0][0] == -1


def test_psi_shifts_along_base_label(b2, d3):
    for rs in (b2, d3):
        b = build_bundle(rs, frozenset(), rs.full_sigma() - {1})
        for beid, e in enumerate(b.base.edges):
            t = b.transitions[beid]
            sub, _, _ = b.fiber_subgraph(e.src)
            for fe in sub.edges:
                from gkmflag.linalg import apply_matrix_form

                diff = apply_matrix_form(t.psi, fe.label) - fe.label
                assert diff.proportional_to(e.label) is not None


def test_fiber_model_isos(a3, b2):
    for rs in (a3, b2):
        b = build_bundle(rs, frozenset(), rs.full_sigma() - {1})
        fib = typical_fiber(b)
        for p in range(b.base.nvertices):
            iso = fiber_model_iso(b, p)
            sub, _, _ = b.fiber_subgraph(p)
            assert verify_iso(iso, fib.graph, sub)
        # a non-minimal representative works too
        w2 = rs.parabolic_elements(b.sigma2)
        rep = b.base_coset.reps[1] * w2[1]
        iso = fiber_model_iso(b, 1, rep=rep)
        sub, _, _ = b.fiber_subgraph(1)
        assert verify_iso(iso, fib.graph, sub)


# ----------------------------------------------------------------------
# mutation detection


def test_deleted_edge_detected(a2):
    rs, b = tower("A", 2)
    mutated = copy.deepcopy(b)
    victim = min(b.dpi)  # the first horizontal edge
    # drop the edge's projection: its dpi image disappears
    mutated.dpi.pop(victim)
    rep = verify_fibration(mutated)
    failed = {c.name: c.witness for c in rep.failures()}
    assert failed["graph-morphism"] == (
        f"horizontal edge {b.total.edge_str(victim)} has no projection")
    assert "dpi-bijective" in failed
    failed = {c.name: c.witness for c in verify_fiber_bundle(mutated).failures()}
    assert failed["transition-from-lifts"] == "edge (1,2,3 -> 2,1,3; x1 - x2) has 0 lifts at 1,2,3"


def _dpi_off_the_base(b):
    b.dpi[min(b.dpi)] = 999


def _pi_off_the_base(b):
    b.pi[0] = 99


@pytest.mark.parametrize("tamper,witness", [
    (_dpi_off_the_base, "dpi sends (1,2,3 -> 2,1,3; x1 - x2) to 999, not a base edge"),
    (_pi_off_the_base, "pi sends 1,2,3 to 99, not a base vertex"),
], ids=["dpi-999", "pi-99"])
def test_projection_outside_the_base_is_reported_not_raised(tamper, witness):
    _, b = tower("A", 2)
    mutated = copy.deepcopy(b)
    tamper(mutated)
    rep = verify_fibration(mutated)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
        ("graph-morphism", False, witness), ("dpi-bijective", False, witness)]
    failed = {c.name: c.witness for c in verify_fiber_bundle(mutated).failures()}
    assert failed["graph-morphism"] == witness
    assert failed["transition-gkm-iso"] == witness


def _drop_projection(b):
    b.dpi.pop(min(b.dpi))


def _drop_transition_entry(b):
    del b.transitions[0].vmap[min(b.transitions[0].vmap)]


@pytest.mark.parametrize("tamper,witnesses", [
    (_drop_projection, {
        "transition-from-lifts": "edge (1,2,3 -> 2,1,3; x1 - x2) has 0 lifts at 1,2,3",
        "transition-connection-compatible":
            "edge (1,2,3 -> 2,1,3; x1 - x2) has 0 lifts at 1,2,3",
    }),
    (_drop_transition_entry, {
        "transition-from-lifts": "transition across (1,2,3 -> 2,1,3; x1 - x2) is not a bijection",
        "transition-connection-compatible":
            "transition across (1,2,3 -> 2,1,3; x1 - x2) is not a bijection",
        "transition-gkm-iso": "transition across (1,2,3 -> 2,1,3; x1 - x2) is not a bijection",
    }),
], ids=["dpi-pop", "vmap-entry"])
def test_broken_lift_data_is_reported_not_raised(tamper, witnesses):
    """A transition check that cannot run fails with the reason."""
    _, b = tower("A", 2)
    mutated = copy.deepcopy(b)
    tamper(mutated)
    failed = {c.name: c.witness for c in verify_fiber_bundle(mutated).failures()}
    for name, witness in witnesses.items():
        assert failed[name] == witness


def test_fiber_that_is_not_a_subgraph_is_reported():
    """A fiber on which the stored connection does not restrict fails
    transition-gkm-iso at the first base edge that touches it."""
    _, b = tower("A", 2)
    mutated = copy.deepcopy(b)
    eid = next(e for e in range(len(b.total.edges)) if e not in b.dpi)
    h = next(e for e in b.total.edges_at[b.total.edges[eid].src] if e in b.dpi)
    conn = list(b.total.connection[eid])
    i, j = b.total.slot[eid], b.total.slot[h]
    conn[i], conn[j] = conn[j], conn[i]
    mutated.total = changed_graph(b.total, connection={eid: tuple(conn)})
    failed = {c.name: c.witness for c in verify_fiber_bundle(mutated).failures()}
    assert failed["transition-gkm-iso"] == (
        "transition across (1,2,3 -> 2,1,3; x1 - x2): not a GKM subgraph for "
        "the stored connection")


def test_changed_fiber_labels_are_checked_as_they_stand():
    """Verifying a bundle stores nothing on it: after a vertical edge and
    its reverse are scaled, the transitions are checked against the
    fibers as they now are."""
    _, b = tower("A", 3)
    assert verify_fiber_bundle(b).ok
    mutated = copy.deepcopy(b)
    eid = next(e for e in range(len(b.total.edges)) if e not in b.dpi)
    old = b.total.edges
    mutated.total = changed_graph(b.total, edges={
        f: Edge(old[f].src, old[f].dst, old[f].label.scale(2)) for f in (eid, b.total.reverse[eid])})
    failed = {c.name: c.witness for c in verify_fiber_bundle(mutated).failures()}
    assert failed["transition-gkm-iso"] == (
        "transition across (1,2,3,4 -> 2,1,3,4; x1 - x2) is not an isomorphism "
        "of labeled fibers")


def test_label_mutation_detected(b2):
    rs, b = tower("B", 2)
    mutated = copy.deepcopy(b)
    eid = min(b.dpi)  # the first horizontal edge
    old = b.total.edges[eid]
    mutated.total = changed_graph(
        b.total, edges={eid: Edge(old.src, old.dst, old.label + old.label)})
    rep = verify_fiber_bundle(mutated)
    assert not rep.ok


def test_connection_mutation_detected(a2):
    rs, b = tower("A", 2)
    mutated = copy.deepcopy(b)
    eid = 0
    conn = list(b.total.connection[eid])
    keys = [i for i, k in enumerate(b.total.edges_at[b.total.edges[eid].src]) if k != eid]
    a, bb = keys[0], keys[1]
    conn[a], conn[bb] = conn[bb], conn[a]
    mutated.total = changed_graph(b.total, connection={eid: tuple(conn)})
    rep = verify_fiber_bundle(mutated)
    assert not rep.ok


def test_psi_mutation_detected(b2):
    rs, b = tower("B", 2)
    mutated = copy.deepcopy(b)
    g = b.base
    eid = g.find_edges(g.vertex_index("1,2"), g.vertex_index("-2,1"))[0]
    mutated.transitions[eid].psi = identity_matrix(2)
    rep = verify_fiber_bundle(mutated)
    assert not rep.ok
    assert any("transition-gkm-iso" == c.name for c in rep.failures())


def _identity_psi(rs, b, beid):
    b.transitions[beid].psi = identity_matrix(rs.varcount)


def _conjugated_transition(rs, b, beid):
    """Left multiplication by s_alpha w s_2 w^-1, w over the source: an
    isomorphism of the labeled fibers whose linear part does not shift
    the fiber labels along alpha."""
    e = b.base.edges[beid]
    w = b.base_coset.reps[e.src]
    g = rs.reflection(e.label) * w * rs.simple_reflection(2) * w.inverse()
    t = b.transitions[beid]
    t.vmap = {x: b.total_coset.vertex_of(g * b.total_coset.reps[x]) for x in t.vmap}
    t.psi = g.matrix()


@pytest.mark.parametrize("tamper,witness", [
    (_identity_psi, "transition across (2,1,3,4 -> 4,1,2,3; x2 - x4) is not an "
                    "isomorphism of labeled fibers"),
    (_conjugated_transition, "linear part across (2,1,3,4 -> 4,1,2,3; x2 - x4) "
                             "does not shift x1 - x3 along x2 - x4"),
], ids=["identity-psi", "conjugated"])
def test_tampered_a3_transition_fails_gkm_iso_with_its_witness(tamper, witness):
    rs, b = tower("A", 3)
    mutated = copy.deepcopy(b)
    tamper(rs, mutated, 5)
    failed = {c.name: c.witness for c in verify_fiber_bundle(mutated).failures()}
    assert failed["transition-gkm-iso"] == witness


# ----------------------------------------------------------------------
# holonomy


def test_holonomy_orders():
    for kind, n, sigma2, order in [
        ("A", 2, frozenset({2}), 2),
        ("A", 3, frozenset({2, 3}), 6),
        ("A", 3, frozenset({1, 3}), 4),
        ("B", 2, frozenset({2}), 2),
        ("C", 2, frozenset({2}), 2),
        ("D", 3, frozenset({2, 3}), 4),
    ]:
        rs = RootSystem(kind, n)
        b = build_bundle(rs, frozenset(), sigma2)
        group = holonomy(b)
        assert group.order == order, (kind, n)
        assert group.matches_upsilon


def test_holonomy_base_point_independent(a2):
    rs, b = tower("A", 2)
    keys = None
    for p in range(b.base.nvertices):
        group = holonomy(b, base_point=p)
        assert group.matches_upsilon
        if keys is None:
            keys = group.element_keys()
        else:
            assert group.element_keys() == keys


def test_holonomy_exhaustive_agrees(a2, b2):
    for rs in (a2, b2):
        b = build_bundle(rs, frozenset(), rs.full_sigma() - {1})
        cons = holonomy(b)
        exh = holonomy_exhaustive(b, cons.base_point)
        assert exh.element_keys() == cons.element_keys()


def test_generators_come_from_loops(a2):
    """The stored transitions (data, not Weyl elements) are the oracle;
    A4 with Sigma2={1} has a 60-vertex base, Sigma1 != {} gives fibers on
    which only psi is faithful, and B3 with Sigma2={1,2} has generators
    that are not involutions, so h and h^-1 differ."""
    for kind, n, sigma1, sigma2 in [
        ("A", 2, (), {2}), ("A", 3, (), {2, 3}), ("B", 2, (), {1}),
        ("D", 3, (), {2, 3}), ("A", 4, (), {1}), ("A", 3, {3}, {2, 3}),
        ("B", 3, {1}, {1, 3}), ("B", 3, (), {1, 2}),
    ]:
        rs = RootSystem(kind, n)
        b = build_bundle(rs, frozenset(sigma1), frozenset(sigma2))
        group = holonomy(b)
        assert group.matches_upsilon
        assert group.order == len(rs.parabolic_elements(sigma2))
        bp = group.base_point
        rho = fiber_model_iso(b, bp)  # typical fiber -> fiber over bp
        _, vm, _ = b.fiber_subgraph(bp)
        for loop, iso in group.generators:
            assert loop, "generator without a loop"
            # the loop is a closed edge path at the base point
            assert b.base.edges[loop[0]].src == bp
            assert b.base.edges[loop[-1]].dst == bp
            for e1, e2 in zip(loop, loop[1:]):
                assert b.base.edges[e1].dst == b.base.edges[e2].src
            # transport around the loop, conjugated to the typical fiber
            vmap, psi = holonomy_of_loop(b, loop)
            on_fiber = GkmIso(tuple(vm[vmap[v]] for v in sorted(vm, key=vm.get)), psi)
            assert compose_iso(compose_iso(rho, on_fiber), invert_iso(rho)) == iso
        assert len({iso for _, iso in group.generators}) == len(group.generators)


def test_base_tree_spans(a3):
    b = build_bundle(a3, frozenset(), frozenset({2}))
    n = b.base.nvertices
    tree, chords = base_tree(b, 0)
    assert len(tree) == n - 1
    reached = {0}
    for eid in tree:
        assert b.base.edges[eid].src in reached
        reached.add(b.base.edges[eid].dst)
    assert reached == set(range(n))
    assert 2 * (len(tree) + len(chords)) == len(b.base.edges)


_SMALL_TYPES = [("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 3)]


@pytest.mark.parametrize("kind,n", _SMALL_TYPES)
def test_holonomy_is_sigma2_action_for_every_proper_sigma2(kind, n):
    """Every Sigma1 within every proper Sigma2, the empty set included
    (order 1).  The order stays |W(Sigma2)| for Sigma1 != {} because psi
    is faithful even where the vertex action is not."""
    rs = RootSystem(kind, n)
    for k in range(n):
        for sigma2 in itertools.combinations(range(1, n + 1), k):
            for j in range(k + 1):
                for sigma1 in itertools.combinations(sigma2, j):
                    b = build_bundle(rs, frozenset(sigma1), frozenset(sigma2))
                    group = holonomy(b)
                    assert group.matches_upsilon, (kind, n, sigma1, sigma2)
                    assert group.order == len(rs.parabolic_elements(sigma2))


@pytest.mark.parametrize("kind,n", _SMALL_TYPES)
def test_bundle_data_matches_the_projection_oracle(kind, n):
    """pi, dpi and the transition vertex maps of every Sigma1 within
    Sigma2 agree with the Weyl-action formulas of ``coset_projection``."""
    rs = RootSystem(kind, n)
    for k in range(n + 1):
        for sigma2 in itertools.combinations(range(1, n + 1), k):
            for j in range(k + 1):
                for sigma1 in itertools.combinations(sigma2, j):
                    b = build_bundle(rs, frozenset(sigma1), frozenset(sigma2))
                    pi, dpi, vmaps = coset_projection(rs, frozenset(sigma1),
                                                      frozenset(sigma2))
                    assert b.pi == pi, (sigma1, sigma2)
                    assert b.dpi == dpi, (sigma1, sigma2)
                    assert {e: t.vmap for e, t in b.transitions.items()} == vmaps


def _negative_label_counts(g, xi):
    """Coefficients of sum over vertices v of t^k, k = #labels at v negative at xi."""
    counts = [0] * (max(len(at) for at in g.edges_at) + 1)
    for at in g.edges_at:
        counts[sum(1 for eid in at if g.edges[eid].label.dot(xi) < 0)] += 1
    return counts


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize(
    "kind,n", [("A", 1)] + _SMALL_TYPES + [("A", 4), ("B", 4), ("C", 4), ("D", 4)])
def test_betti_numbers_from_negative_labels(kind, n):
    """For xi = (m, m-1, ..., 1), positive on every positive root, b_2k of
    W(Sigma2)/W(Sigma1) is the number of vertices with exactly k labels
    negative at xi (Guillemin and Zara, Duke Math. J. 107, 2001).  These
    counts are sum over the minimal representatives w of t^l(w), and the
    Poincare polynomials multiply along W/W(Sigma1) -> W/W(Sigma2)."""
    rs = RootSystem(kind, n)
    xi = LinearForm(range(rs.varcount, 0, -1))
    assert all(beta.dot(xi) > 0 for beta in rs.positive_roots)
    subsets = [frozenset(s) for k in range(n + 1)
               for s in itertools.combinations(range(1, n + 1), k)]
    poincare = {}
    for sigma2 in subsets:
        for sigma1 in (s for s in subsets if s <= sigma2):
            cg = build_coset_graph(rs, sigma1, sigma2)
            counts = _negative_label_counts(cg.graph, xi)
            by_length = [0] * len(counts)
            for w in cg.reps:
                by_length[rs.length(w)] += 1
            assert counts == by_length, (sigma1, sigma2)
            poincare[sigma1, sigma2] = counts
    full = rs.full_sigma()
    for (sigma1, sigma2), fiber in poincare.items():
        assert poincare[sigma1, full] == _times(poincare[sigma2, full], fiber), (
            sigma1, sigma2)


def test_holonomy_refuses_a_one_vertex_base(a2):
    b = build_bundle(a2, frozenset(), a2.full_sigma())
    with pytest.raises(ValueError, match="every simple root"):
        holonomy(b)


def test_trivial_product_bundle():
    def k2(label, names):
        edges = [Edge(0, 1, label), Edge(1, 0, -label)]
        return GkmGraph(3, names, edges, [1, 0], [(0,), (0,)])

    base = k2(LinearForm([1, -1, 0]), ["a", "b"])
    fiber = k2(LinearForm([0, 0, 1]), ["u", "v"])
    b = product_bundle(base, fiber)
    assert verify_fibration(b).ok
    assert verify_fiber_bundle(b).ok
    group = holonomy_exhaustive(b, 0)
    assert group.order == 1


def test_make_bundle_matches_parallel_base_edges_by_label():
    """A base with two edges a -> b labeled x1 and x2: each horizontal
    edge projects onto the base edge with its own label."""
    x1, x2, x3 = (LinearForm([int(i == j) for j in range(3)]) for i in range(3))
    base = GkmGraph(3, ["a", "b"],
                    [Edge(0, 1, x1), Edge(0, 1, x2), Edge(1, 0, -x1), Edge(1, 0, -x2)],
                    [2, 3, 0, 1],
                    [(0, 1)] * 4)
    fiber = GkmGraph(3, ["u", "v"], [Edge(0, 1, x3), Edge(1, 0, -x3)],
                     [1, 0], [(0,), (0,)])
    product = product_bundle(base, fiber)
    b = make_bundle(product.total, base, product.pi)
    assert len(b.dpi) == 8
    for eid, beid in b.dpi.items():
        e, be = b.total.edges[eid], base.edges[beid]
        assert (be.src, be.dst, be.label) == (b.pi[e.src], b.pi[e.dst], e.label)


def test_make_bundle_matches_built(a2):
    """Rebuilding from raw data recovers the structure; the linear parts
    are only pinned on the fiber spans, so they are checked by axiom."""
    rs, b = tower("A", 2)
    rebuilt = make_bundle(b.total, b.base, b.pi)
    assert rebuilt.dpi == b.dpi
    for beid in range(len(b.base.edges)):
        assert rebuilt.transitions[beid].vmap == b.transitions[beid].vmap
    assert verify_fiber_bundle(rebuilt).ok


# ----------------------------------------------------------------------
# serialization


def test_bundle_json_round_trip(b2):
    rs, b = tower("B", 2)
    data = bundle_to_json(b)
    b2_ = bundle_from_json(data)
    assert bundle_hash(b2_) == bundle_hash(b)
    assert verify_fiber_bundle(b2_).ok



@pytest.mark.parametrize("key", ["total", "base", "projection"])
def test_bundle_json_missing_key_is_value_error(key):
    _, b = tower("A", 2)
    data = bundle_to_json(b)
    del data[key]
    with pytest.raises(ValueError, match=key):
        bundle_from_json(data)


def test_bundle_json_projection_outside_base_is_value_error():
    _, b = tower("A", 2)
    data = bundle_to_json(b)
    name = b.total.vertices[0]
    data["projection"][name] = "no-such-vertex"
    with pytest.raises(ValueError, match="not a base vertex"):
        bundle_from_json(data)
    del data["projection"][name]
    with pytest.raises(ValueError, match="not a base vertex"):
        bundle_from_json(data)

def test_d3_base_partition_structure(d3):
    """The type-D base is complete multipartite: each vertex misses
    exactly its opposite, the vertex with negated degree-one value."""
    b = build_bundle(d3, frozenset(), frozenset({2, 3}))
    g = b.base
    tau_vals = [w.act_poly(__import__("gkmflag.polyring", fromlist=["Polynomial"])
                .Polynomial.variable(3, 1)) for w in b.base_coset.reps]
    for p in range(g.nvertices):
        missing = set(range(g.nvertices)) - {p} - {
            g.edges[eid].dst for eid in g.edges_at[p]
        }
        assert len(missing) == 1
        q = missing.pop()
        assert tau_vals[q] == -tau_vals[p]


def test_holonomy_all_base_points_d3(d3):
    b = build_bundle(d3, frozenset(), frozenset({2, 3}))
    keys = None
    for p in range(b.base.nvertices):
        group = holonomy(b, base_point=p)
        assert group.matches_upsilon
        keys = group.element_keys() if keys is None else keys
        assert group.element_keys() == keys
