import copy
import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from gkmflag.gkmgraph import (
    CohClass,
    GkmIso,
    complete_graph,
    compose_iso,
    graph_from_json,
    graph_hash,
    graph_json_chunks,
    graph_to_json,
    induced_subgraph,
    verify_gkm,
    verify_iso,
)
from gkmflag import linalg, parabolic
from gkmflag.invbases import extend_invariant
from gkmflag.linalg import identity_matrix, mat_vec
from gkmflag.parabolic import (
    base_tree,
    build_bundle,
    build_coset_graph,
    bundle_from_json,
    bundle_json_chunks,
    holonomy,
    holonomy_exhaustive,
    left_multiplication,
    make_bundle,
    product_bundle,
    verify_fiber_bundle,
    verify_fibration,
)
from gkmflag.polyring import LinearForm, Polynomial
from gkmflag.rootsys import RootSystem, WeylElement

from oracles import (
    Edge,
    bundle_to_json,
    changed_graph,
    json_file_text,
    connection_dict,
    connection_failure,
    coset_graph_by_edges,
    coset_graph_from_reps,
    coset_projection,
    cosets_by_enumeration,
    edge_graph,
    edges_of,
    fiber_model_iso,
    holonomy_of_loop,
    induced_subgraph_by_scan,
    reverse_by_matching,
)

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


def upsilon(rs, sigma1, sigma2, elements):
    """Weyl elements of W(Sigma2) as their left-multiplication isos of the
    typical fiber W(Sigma2)/W(Sigma1), sorted."""
    fib = build_coset_graph(rs, sigma1, sigma2)
    return sorted(left_multiplication(fib, h) for h in elements)


def canonical_structure(g):
    """Labeled-graph shape independent of edge ordering, for comparisons."""
    key = {}
    for eid, e in enumerate(edges_of(g)):
        key[eid] = (g.vertices[e.src], g.vertices[e.dst], str(e.label))
    edges = sorted(key.values())
    conn = set()
    for eid in range(len(g.src)):
        for a, b in connection_dict(g, eid).items():
            conn.add((key[eid], key[a], key[b]))
    return edges, conn


# ----------------------------------------------------------------------
# coset graphs


def test_flag_graph_a2(a2):
    cg = build_coset_graph(a2, frozenset(), a2.full_sigma())
    assert cg.nvertices == 6
    g = cg.graph
    eid = g.find_edges(g.vertices.index("1,2,3"), g.vertices.index("1,3,2"))[0]
    assert str(g.label(eid)) == "x2 - x3"
    eid = g.find_edges(g.vertices.index("2,3,1"), g.vertices.index("3,2,1"))[0]
    assert str(g.label(eid)) == "x2 - x3"


def test_k4_from_a3(a3):
    cg = build_coset_graph(a3, frozenset({2, 3}), a3.full_sigma())
    assert cg.nvertices == 4
    g = cg.graph
    for p in range(4):
        assert {g.dst[eid] for eid in g.edges_at[p]} == set(range(4)) - {p}
    assert verify_gkm(g).ok


def test_b2_base_half_label(b2):
    cg = build_coset_graph(b2, frozenset({2}), b2.full_sigma())
    g = cg.graph
    eid = g.find_edges(g.vertices.index("1,2"), g.vertices.index("-1,2"))[0]
    assert str(g.label(eid)) == "x1"


def test_all_built_graphs_pass_axioms():
    for kind, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                    ("C", 2), ("C", 3), ("D", 3)]:
        rs = RootSystem(kind, n)
        assert verify_gkm(build_coset_graph(rs, frozenset(), rs.full_sigma()).graph).ok
    a3 = RootSystem("A", 3)
    assert verify_gkm(build_coset_graph(a3, frozenset({1, 3}), a3.full_sigma()).graph).ok


def sigma_pairs(n):
    """Every (Sigma1, Sigma2) with Sigma1 within Sigma2 within 1..n."""
    for r2 in range(n + 1):
        for sigma2 in itertools.combinations(range(1, n + 1), r2):
            for r1 in range(r2 + 1):
                for sigma1 in itertools.combinations(sigma2, r1):
                    yield frozenset(sigma1), frozenset(sigma2)


def assert_cosets_match_the_oracle(rs, sigma1, sigma2):
    cg = build_coset_graph(rs, sigma1, sigma2)
    reps, vertex = cosets_by_enumeration(rs, sigma1, sigma2)
    assert cg.reps == reps, (rs, sigma1, sigma2)
    assert all(cg.vertex_of(w) == p for w, p in vertex.items()), (rs, sigma1, sigma2)


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                    ("C", 2), ("C", 3), ("D", 3)])
def test_walked_cosets_match_the_enumeration_oracle(kind, n):
    """The walked representatives are the minimal elements of the
    enumerated cosets in canonical order, and vertex_of finds the coset of
    every element of W(Sigma2), for every Sigma1 within Sigma2."""
    rs = RootSystem(kind, n)
    for sigma1, sigma2 in sigma_pairs(n):
        assert_cosets_match_the_oracle(rs, sigma1, sigma2)


@pytest.mark.parametrize("kind,sigma1,sigma2", [
    ("B", (), (1, 2, 3, 4)),
    ("D", (), (1, 2, 3, 4)),
    ("A", (), (1, 2, 3, 4)),
    ("A", (2, 3, 4), (1, 2, 3, 4)),
    ("A", (), (2, 3, 4)),
    ("A", (3, 4), (2, 3, 4)),
    ("A", (4,), (3, 4)),
])
def test_rank_4_benchmark_cosets_match_the_enumeration_oracle(kind, sigma1, sigma2):
    """The rank-4 coset graphs the benchmark builds: the flag graphs, the
    A4 bundle with Sigma2 = {2,3,4} (total, base and typical fiber) and
    the A4 tower levels."""
    assert_cosets_match_the_oracle(RootSystem(kind, 4), sigma1, sigma2)


@pytest.mark.parametrize("kind", "ABCD")
def test_identity_coset_is_vertex_0(kind):
    """holonomy and extend_invariant default to base point 0, the coset
    of the identity on every coset graph."""
    rs = RootSystem(kind, 3)
    for sigma1, sigma2 in sigma_pairs(3):
        cg = build_coset_graph(rs, sigma1, sigma2)
        assert cg.reps[0] == rs.identity() and cg.vertex_of(rs.identity()) == 0


def test_representative_independence(a2, b2):
    rng = random.Random(17)
    for rs, sigma1 in [(a2, frozenset({2})), (b2, frozenset({2}))]:
        canonical = build_coset_graph(rs, sigma1, rs.full_sigma())
        w1 = rs.parabolic_elements(sigma1)
        reps = [w * rng.choice(w1) for w in canonical.reps]
        rebuilt, _ = coset_graph_from_reps(rs, sigma1, rs.full_sigma(), reps)
        assert canonical_structure(rebuilt) == canonical_structure(canonical.graph)


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
    labeled s_{label(e)}(label(e1)), the reverse read off the connection is
    the oracle's; the canonical graphs are byte-stable."""
    rs = RootSystem(kind, 3)
    rng = random.Random(kind)
    hashes = []
    for sigma1, sigma2 in sigma_pairs(3):
        cg = build_coset_graph(rs, sigma1, sigma2)
        w1 = rs.parabolic_elements(sigma1)
        reps = [w * rng.choice(w1) for w in cg.reps]
        rebuilt, reverse = coset_graph_from_reps(rs, sigma1, sigma2, reps)
        assert rebuilt.reverse == reverse, (sigma1, sigma2)
        for g in (cg.graph, rebuilt):
            assert connection_failure(g) is None, (sigma1, sigma2)
        hashes.append(graph_hash(cg.graph))
    assert len(hashes) == 27
    digest = hashlib.sha256("\n".join(hashes).encode()).hexdigest()
    assert digest == RANK3_GRAPH_DIGESTS[kind]


def assert_columns_match_the_edge_oracle(cg):
    """The columns equal the per-edge oracle's, and the reverse read off
    the connection is the one the oracle computes."""
    g, (oracle, reverse) = cg.graph, coset_graph_by_edges(cg)
    for name in ("src", "dst", "label_id", "labels", "connection", "edges_at", "slot"):
        assert getattr(g, name) == getattr(oracle, name), (cg, name)
    assert g.reverse == reverse, cg


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                    ("C", 2), ("C", 3), ("D", 3)])
def test_column_build_matches_the_per_edge_oracle(kind, n):
    """The columns of every coset graph up to rank 3, label ids found by
    the entries of w on each direction's support, equal those of one Edge
    and one act_linear label per edge interned by the constructor, labels
    in the same order of first occurrence."""
    rs = RootSystem(kind, n)
    for sigma1, sigma2 in sigma_pairs(n):
        assert_columns_match_the_edge_oracle(build_coset_graph(rs, sigma1, sigma2))


@pytest.mark.parametrize("kind", "BD")
def test_rank_4_flag_graph_columns_match_the_per_edge_oracle(kind):
    rs = RootSystem(kind, 4)
    assert_columns_match_the_edge_oracle(build_coset_graph(rs, frozenset(), rs.full_sigma()))


def test_reverse_read_off_the_connection_matches_the_oracles():
    """GkmGraph reads each edge's reverse off its connection.  It is the
    edge found by endpoints and label on K_2 to K_5 and on a product
    bundle's total graph; on every fiber subgraph of the product and of
    the coset bundles it is the total graph's reverse, renumbered; and on
    the B2 and B4 flag graphs read back from their files it is the one the
    per-edge coset oracle computes."""
    for n in range(2, 6):
        g = complete_graph(n)
        assert g.reverse == reverse_by_matching(g), n
    a2 = RootSystem("A", 2)
    product = product_bundle(build_coset_graph(a2, {2}, {1, 2}).graph, complete_graph(3))
    assert product.total.reverse == reverse_by_matching(product.total)
    bundles = [product] + [build_bundle(RootSystem(kind, n), frozenset(), sigma2)
                           for kind, n, sigma2 in BUNDLES]
    for b in bundles:
        for fiber in b.fibers():
            sub, _, emap = induced_subgraph(b.total, fiber)
            assert [sub.reverse[new] for new in emap.values()] == [
                emap[b.total.reverse[old]] for old in emap], (b.total, fiber)
    for kind, n in [("B", 2), ("B", 4)]:
        rs = RootSystem(kind, n)
        cg = build_coset_graph(rs, frozenset(), rs.full_sigma())
        back = graph_from_json(json.loads("".join(graph_json_chunks(cg.graph))))
        assert back.reverse == coset_graph_by_edges(cg)[1], kind + str(n)


@pytest.mark.parametrize("sigma1", [frozenset(), frozenset({2, 3})], ids=["flag", "sigma1-23"])
def test_b4_build_takes_no_group_inverse(sigma1, monkeypatch):
    """Each connection is read off the word of the descent from w s_beta
    to the next vertex, so once the representatives are walked the build
    takes no inverse; every word is empty on the flag graph alone."""
    rs = RootSystem("B", 4)
    rs.coset_reps(sigma1, rs.full_sigma())
    calls = []
    real = WeylElement.inverse
    monkeypatch.setattr(WeylElement, "inverse", lambda w: calls.append(w) or real(w))
    cg = build_coset_graph(rs, sigma1, rs.full_sigma())
    assert calls == []
    assert len(cg.graph.src) == cg.nvertices * len(cg.roots)
    assert (len(set(cg.graph.connection)) == 1) == (not sigma1)


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
    base = build_coset_graph(rs, b.sigma2, rs.full_sigma())
    for p, w in enumerate(build_coset_graph(rs, frozenset(), rs.full_sigma()).reps):
        base_rep = base.reps[b.pi[p]]
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
    """A base path lifted edge by edge with lift_edge, from a start over
    its first vertex, visits the expected total vertices."""
    rs, b = tower("A", 2)

    def lift(path_edges, start):
        out = [start]
        for beid in path_edges:
            out.append(b.total.dst[b.lift_edge(beid, out[-1])])
        return out

    start = b.total.vertices.index("1,2,3")
    assert lift([], start) == [start]
    steps = [b.base.find_edges(p, q) for p, q in [(0, 1), (1, 2), (2, 0)]]
    assert [len(found) for found in steps] == [1, 1, 1]
    lifted = lift([found[0] for found in steps], start)
    assert [b.total.vertices[q] for q in lifted] == ["1,2,3", "2,1,3", "3,1,2", "1,3,2"]
    # an edge followed by its reverse returns to the start
    beid = b.base.edges_at[0][0]
    back = b.base.reverse[beid]
    out = lift([beid, back], start)
    assert out[0] == out[-1] == start


def test_transition_formula_sn(a3):
    """Across the base edge i -> j the transition is left multiplication
    by the transposition (i, j)."""
    rs, b = tower("A", 3)
    reps = build_coset_graph(rs, frozenset(), rs.full_sigma()).reps
    for beid, e in enumerate(edges_of(b.base)):
        refl = rs.reflection(e.label)
        t = b.transitions[beid]
        for p, q in t.vmap.items():
            assert reps[q] == refl * reps[p]


def test_transition_composition_with_reverse(b2):
    rs, b = tower("B", 2)
    for beid in range(len(b.base.src)):
        t = b.transitions[beid]
        back = b.transitions[b.base.reverse[beid]]
        for p, q in t.vmap.items():
            assert back.vmap[q] == p


def test_b2_transition_psi_is_sign_flip(b2):
    rs, b = tower("B", 2)
    g = b.base
    eid = g.find_edges(g.vertices.index("1,2"), g.vertices.index("-1,2"))[0]
    psi = b.transitions[eid].psi
    assert psi == rs.reflection(LinearForm([1, 0])).matrix()
    assert psi[0][0] == -1


def test_psi_shifts_along_base_label(b2, d3):
    for rs in (b2, d3):
        b = build_bundle(rs, frozenset(), rs.full_sigma() - {1})
        for beid, e in enumerate(edges_of(b.base)):
            t = b.transitions[beid]
            sub, _, _ = induced_subgraph(b.total, b.fibers()[e.src])
            for fe in edges_of(sub):
                diff = LinearForm(mat_vec(t.psi, fe.label.coeffs)) - fe.label
                assert diff.proportional_to(e.label) is not None


def test_fiber_model_isos(a3, b2):
    for rs in (a3, b2):
        b = build_bundle(rs, frozenset(), rs.full_sigma() - {1})
        fib = build_coset_graph(rs, b.sigma1, b.sigma2)
        for p, fiber in enumerate(b.fibers()):
            sub, vm, _ = induced_subgraph(b.total, fiber)
            assert verify_iso(fiber_model_iso(b, p, vm), fib.graph, sub)


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


def _dpi_key_off_the_total(b):
    b.dpi[999] = 0


def _pi_short(b):
    b.pi.pop()


@pytest.mark.parametrize("tamper,witness", [
    (_dpi_off_the_base, "dpi sends (1,2,3 -> 2,1,3; x1 - x2) to 999, not a base edge"),
    (_pi_off_the_base, "pi sends 1,2,3 to 99, not a base vertex"),
    (_dpi_key_off_the_total, "dpi has key 999, not a total edge"),
    (_pi_short, "pi has 5 entries for 6 total vertices"),
], ids=["dpi-999", "pi-99", "dpi-key-999", "pi-short"])
def test_projection_outside_the_base_is_reported_not_raised(tamper, witness):
    """The fault is the first witness of every check that reads pi or
    dpi, and the report names the checks of a passing bundle, in order."""
    _, b = tower("A", 2)
    mutated = copy.deepcopy(b)
    tamper(mutated)
    rep = verify_fibration(mutated)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
        ("graph-morphism", False, witness), ("dpi-bijective", False, witness)]
    rep = verify_fiber_bundle(mutated)
    assert [c.name for c in rep.checks] == [c.name for c in verify_fiber_bundle(b).checks]
    assert [(c.name, c.witness) for c in rep.failures()] == [
        (c.name, witness) for c in rep.checks if not c.name.startswith(("total-", "base-"))]
    assert len(rep.failures()) == 8


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
    eid = next(e for e in range(len(b.total.src)) if e not in b.dpi)
    h = next(e for e in b.total.edges_at[b.total.src[eid]] if e in b.dpi)
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
    eid = next(e for e in range(len(b.total.src)) if e not in b.dpi)
    mutated.total = changed_graph(b.total, labels={
        f: b.total.label(f).scale(2) for f in (eid, b.total.reverse[eid])})
    failed = {c.name: c.witness for c in verify_fiber_bundle(mutated).failures()}
    assert failed["transition-gkm-iso"] == (
        "transition across (1,2,3,4 -> 2,1,3,4; x1 - x2) is not an isomorphism "
        "of labeled fibers")


def test_label_mutation_detected(b2):
    rs, b = tower("B", 2)
    mutated = copy.deepcopy(b)
    eid = min(b.dpi)  # the first horizontal edge
    mutated.total = changed_graph(b.total, labels={eid: b.total.label(eid).scale(2)})
    rep = verify_fiber_bundle(mutated)
    assert not rep.ok


def test_connection_mutation_detected(a2):
    rs, b = tower("A", 2)
    mutated = copy.deepcopy(b)
    eid = 0
    conn = list(b.total.connection[eid])
    keys = [i for i, k in enumerate(b.total.edges_at[b.total.src[eid]]) if k != eid]
    a, bb = keys[0], keys[1]
    conn[a], conn[bb] = conn[bb], conn[a]
    mutated.total = changed_graph(b.total, connection={eid: tuple(conn)})
    rep = verify_fiber_bundle(mutated)
    assert not rep.ok


def test_psi_mutation_detected(b2):
    rs, b = tower("B", 2)
    mutated = copy.deepcopy(b)
    g = b.base
    eid = g.find_edges(g.vertices.index("1,2"), g.vertices.index("-2,1"))[0]
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
    e = edges_of(b.base)[beid]
    w = build_coset_graph(rs, b.sigma2, rs.full_sigma()).reps[e.src]
    g = rs.reflection(e.label) * w * rs.simple_reflection(2) * w.inverse()
    t = b.transitions[beid]
    total = build_coset_graph(rs, b.sigma1, rs.full_sigma())
    t.vmap = {x: total.vertex_of(g * total.reps[x]) for x in t.vmap}
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


TRANSITION_CHECKS = ("transition-from-lifts", "transition-connection-compatible",
                     "transition-gkm-iso")


def test_each_transition_check_names_the_lower_of_two_tampered_edges():
    rs, b = tower("A", 3)

    def witnesses(*beids):
        mutated = copy.deepcopy(b)
        for beid in beids:
            _conjugated_transition(rs, mutated, beid)
        failed = {c.name: c.witness for c in verify_fiber_bundle(mutated).failures()}
        assert set(failed) == set(TRANSITION_CHECKS)
        return failed

    lower, upper = witnesses(2), witnesses(9)
    for name in TRANSITION_CHECKS:
        assert b.base.edge_str(2) in lower[name]
        assert b.base.edge_str(9) in upper[name]
    assert witnesses(9, 2) == lower


def test_gkm_iso_check_stops_at_its_first_witness(monkeypatch):
    """After the witness at base edge 0, no other fiber subgraph is built."""
    rs, b = tower("A", 3)
    mutated = copy.deepcopy(b)
    _identity_psi(rs, mutated, 0)
    built = []
    induced = parabolic.induced_subgraph
    monkeypatch.setattr(parabolic, "induced_subgraph",
                        lambda g, vs: built.append(sorted(vs)) or induced(g, vs))
    failed = {c.name: c.witness for c in verify_fiber_bundle(mutated).failures()}
    assert failed == {"transition-gkm-iso": "transition across (1,2,3,4 -> 2,1,3,4; x1 - x2) "
                                            "is not an isomorphism of labeled fibers"}
    fibers = b.fibers()
    assert built == [fibers[b.base.src[0]], fibers[b.base.dst[0]]]


# ----------------------------------------------------------------------
# fiber subgraphs


def subgraph_outcome(build, g, vs):
    """What ``build(g, vs)`` gives: the subgraph's fields with the vertex
    and edge maps as item lists, or the text of its ValueError."""
    try:
        sub, vmap, emap = build(g, vs)
    except ValueError as exc:
        return str(exc)
    return (sub.varcount, sub.vertices, edges_of(sub), sub.reverse, sub.connection,
            list(vmap.items()), list(emap.items()))


def assert_subgraphs_match_the_scan(g, vertex_sets):
    """induced_subgraph agrees with the whole-graph scan on each set;
    returns the outcomes."""
    outcomes = []
    for vs in vertex_sets:
        outcomes.append(subgraph_outcome(induced_subgraph, g, vs))
        assert outcomes[-1] == subgraph_outcome(induced_subgraph_by_scan, g, vs), sorted(vs)
    return outcomes


def connected_sets(g, rng, count):
    """``count`` random vertex sets of 2 to 6 vertices, each grown from a
    vertex along random edges, so connected."""
    for _ in range(count):
        vs, size = {rng.randrange(g.nvertices)}, min(rng.randint(2, 6), g.nvertices)
        while len(vs) < size:
            vs.add(g.dst[rng.choice(g.edges_at[rng.choice(sorted(vs))])])
        yield vs


def shuffled_graph(g, rng):
    """g read back from its file with the edge entries, and so the edge
    ids, in random order: its edges are no longer grouped by tail."""
    data = graph_to_json(g)
    order = rng.sample(range(len(g.src)), len(g.src))  # order[new id] = old id
    new_id = {old: new for new, old in enumerate(order)}
    data["edges"] = [data["edges"][old] for old in order]
    data["connection"] = [{"edge": entry["edge"],
                           "map": [[new_id[a], new_id[b]] for a, b in entry["map"]]}
                          for entry in map(data["connection"].__getitem__, order)]
    return graph_from_json(data)


@pytest.mark.parametrize("kind, n", [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                     ("C", 2), ("C", 3), ("D", 3)])
def test_fiber_subgraphs_of_every_coset_bundle_match_the_scan(kind, n):
    rs = RootSystem(kind, n)
    for sigma1, sigma2 in sigma_pairs(n):
        b = build_bundle(rs, sigma1, sigma2)
        outcomes = assert_subgraphs_match_the_scan(b.total, b.fibers())
        assert not any(isinstance(o, str) for o in outcomes), (sigma1, sigma2)


def test_subgraphs_of_a_product_and_of_a_shuffled_file_match_the_scan():
    """Fibers and random connected sets of a product bundle and of the A3
    flag graph read back with its edges shuffled, and a disconnected set;
    between them they give subgraphs and both ValueError texts."""
    rng = random.Random(31)
    a2 = RootSystem("A", 2)
    product = product_bundle(build_coset_graph(a2, {2}, {1, 2}).graph, complete_graph(3))
    _, a3 = tower("A", 3)
    shuffled = shuffled_graph(a3.total, rng)
    assert any(star != tuple(range(star[0], star[0] + len(star))) for star in shuffled.edges_at)
    outcomes = []
    for g, fibers in ((product.total, product.fibers()), (shuffled, a3.fibers())):
        outcomes += assert_subgraphs_match_the_scan(g, [*fibers, *connected_sets(g, rng, 60)])
    flag = build_coset_graph(a2, frozenset(), frozenset({1, 2})).graph
    disconnected = {flag.vertices.index("1,2,3"), flag.vertices.index("2,3,1")}
    outcomes += assert_subgraphs_match_the_scan(flag, [disconnected])
    assert outcomes[-1] == "vertex set induces a disconnected subgraph"
    assert "not a GKM subgraph for the stored connection" in outcomes
    assert sum(not isinstance(o, str) for o in outcomes) > len(a3.fibers())


def test_fiber_subgraphs_read_the_stars_not_the_whole_total_graph(monkeypatch):
    """A5 with Sigma2 = {1} has 360 fibers of two vertices.  Verifying it
    passes over the total edges a few times in all, where a scan of them
    per fiber subgraph would take at least 2 x 360.  A pass over the edges
    iterates over one or more edge columns once each, so the passes are at
    most the largest number of iterations over any one column."""
    _, b = tower("A", 5, frozenset({1}))
    scans = Counter()

    class CountingColumn(tuple):
        def __iter__(self):
            scans[self.name] += 1
            return super().__iter__()

    for name in ("src", "dst", "label_id", "reverse", "connection"):
        column = CountingColumn(getattr(b.total, name))
        column.name = name
        monkeypatch.setattr(b.total, name, column)
    assert len(b.fibers()) == 360
    assert verify_fiber_bundle(b).ok
    assert scans["src"] > 0 and max(scans.values()) <= 10, scans


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
        group = holonomy(RootSystem(kind, n), sigma2)
        assert group.order == order, (kind, n)
        assert group.matches_upsilon


def test_holonomy_base_point_independent(a2):
    rs, b = tower("A", 2)
    elements = None
    for p in range(b.base.nvertices):
        group = holonomy(rs, b.sigma2, base_point=p)
        assert group.matches_upsilon
        if elements is None:
            elements = set(group.elements)
        else:
            assert set(group.elements) == elements


def test_holonomy_builds_only_the_base(monkeypatch):
    """On a fresh root system, the group of A4 with Sigma2 = {2,3,4} is
    read off the 5-vertex base alone: one coset graph is constructed, the
    120-vertex typical fiber is not, and no element is turned into an iso."""
    built, mapped = [], []
    coset_graph, upsilon_ = parabolic.CosetGraph, parabolic.left_multiplication
    monkeypatch.setattr(parabolic, "CosetGraph",
                        lambda *args: built.append(args[1:]) or coset_graph(*args))
    monkeypatch.setattr(parabolic, "left_multiplication",
                        lambda *args: mapped.append(args) or upsilon_(*args))
    rs = RootSystem("A", 4)
    group = holonomy(rs, {2, 3, 4})
    assert built == [(frozenset({2, 3, 4}), rs.full_sigma())]
    assert mapped == []
    assert group.order == 24 and group.matches_upsilon
    assert group.elements == rs.parabolic_elements(frozenset({2, 3, 4}))
    assert all(isinstance(h, WeylElement) for _, h in group.generators)


@pytest.mark.parametrize("base_point", [-1, 4], ids=["below", "above"])
@pytest.mark.parametrize("call", [
    lambda b, bp: holonomy(b.rs, b.sigma2, bp),
    holonomy_exhaustive,
    lambda b, bp: extend_invariant(b, CohClass(
        build_coset_graph(b.rs, b.sigma1, b.sigma2).graph, [Polynomial.one(4)] * 6), bp),
], ids=["holonomy", "holonomy_exhaustive", "extend_invariant"])
def test_base_point_outside_the_base_is_refused(call, base_point):
    """A base point outside 0..3 of the A3 base with Sigma2 = {2,3} is a
    ValueError that names it, not a misread vertex (-1 would index the
    last one) or a bare KeyError or IndexError."""
    _, b = tower("A", 3, frozenset({2, 3}))
    with pytest.raises(ValueError, match=rf"^base point {base_point} is not a base vertex 0\.\.3$"):
        call(b, base_point)


def test_holonomy_exhaustive_agrees():
    """The cycle search gives the constructive group at every base point
    of every Sigma1 within a proper Sigma2 up to rank 3 whose base has at
    most EXHAUSTIVE_MAX_BASE vertices, and of D4 with Sigma2 = {2,3,4} at
    base point 0."""
    def agrees(b, bp):
        exh = holonomy_exhaustive(b, bp)
        assert exh.elements == upsilon(b.rs, b.sigma1, b.sigma2,
                                       holonomy(b.rs, b.sigma2, bp).elements), (
            b.rs, b.sigma1, b.sigma2, bp)
        return 1

    checked = 0
    for kind, n in _SMALL_TYPES:
        rs = RootSystem(kind, n)
        for sigma1, sigma2 in sigma_pairs(n):
            if (len(sigma2) < n and len(rs.coset_reps(sigma2, rs.full_sigma()))
                    <= parabolic.EXHAUSTIVE_MAX_BASE):
                b = build_bundle(rs, sigma1, sigma2)
                checked += sum(agrees(b, bp) for bp in range(b.base.nvertices))
    assert checked == 290
    d4 = RootSystem("D", 4)
    agrees(build_bundle(d4, frozenset(), frozenset({2, 3, 4})), 0)


@pytest.mark.parametrize("kind,n,sigma2,orders", [
    ("A", 2, {2}, (12, 2)), ("A", 3, {2, 3}, (144, 6)), ("B", 2, {2}, (4, 2)),
], ids=["A2", "A3", "B2"])
def test_holonomy_exhaustive_sees_a_tampered_transition(kind, n, sigma2, orders):
    """The cycle search reads the stored transitions, the constructive
    group only the Weyl data, so a transition whose linear part is
    replaced by the identity makes the two groups differ."""
    rs, b = tower(kind, n, frozenset(sigma2))
    b.transitions[0].psi = identity_matrix(rs.varcount)
    exh, cons = holonomy_exhaustive(b, 0), holonomy(rs, b.sigma2)
    assert (exh.order, cons.order) == orders
    # both sides are isos of the typical fiber, so the inequality is not
    # that of a Weyl element and an iso
    assert set(exh.elements) != set(upsilon(rs, b.sigma1, b.sigma2, cons.elements))


@pytest.mark.parametrize("kind,n,sigma2", [("A", 3, {2, 3}), ("B", 2, {2})], ids=["A3", "B2"])
def test_holonomy_exhaustive_derives_the_base_fiber_once(monkeypatch, kind, n, sigma2):
    """The walk derives the fibers at most once per call and builds no
    fiber subgraph: the start frame is a vertex list."""
    rs, b = tower(kind, n, frozenset(sigma2))
    calls = Counter()

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(parabolic.BundleMap, "fibers",
                        counted("fibers", parabolic.BundleMap.fibers))
    monkeypatch.setattr(parabolic, "induced_subgraph",
                        counted("induced_subgraph", induced_subgraph))
    group = holonomy_exhaustive(b, 0)
    assert calls["fibers"] <= 1
    assert calls["induced_subgraph"] == 0
    assert set(group.elements) == set(
        upsilon(rs, b.sigma1, b.sigma2, holonomy(rs, b.sigma2).elements))


@pytest.mark.parametrize("kind,n,sigma2,bound", [("A", 3, {2, 3}, 400), ("B", 2, {2}, 150)],
                         ids=["A3", "B2"])
def test_holonomy_exhaustive_multiplies_each_state_once(monkeypatch, kind, n, sigma2, bound):
    """Psi is multiplied once per distinct state and base edge, not once
    per edge of every loop, and the group is closed over the distinct
    transports only (A3: 190 products, B2: 69)."""
    rs, b = tower(kind, n, frozenset(sigma2))
    calls = Counter()
    mat_mul = linalg.mat_mul

    def counted(a, c):
        calls["mat_mul"] += 1
        return mat_mul(a, c)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    group = holonomy_exhaustive(b, 0)
    assert calls["mat_mul"] <= bound
    assert group.order == len(rs.parabolic_elements(sigma2))


def test_holonomy_exhaustive_generators_come_from_loops():
    """Each generator is the transport around its loop, multiplied out
    edge by edge and read on the typical fiber, and no two are equal."""
    for kind, n, sigma1, sigma2 in [("A", 3, (), {2, 3}), ("B", 3, {1}, {1, 2}),
                                    ("B", 3, (), {1, 2})]:
        rs = RootSystem(kind, n)
        b = build_bundle(rs, frozenset(sigma1), frozenset(sigma2))
        for bp in range(b.base.nvertices):
            group = holonomy_exhaustive(b, bp)
            fiber = b.fibers()[bp]
            _, vm, _ = induced_subgraph(b.total, fiber)
            rho = fiber_model_iso(b, bp, vm)  # typical fiber -> fiber over bp
            for loop, iso in group.generators:
                assert b.base.src[loop[0]] == bp and b.base.dst[loop[-1]] == bp
                vmap, psi = holonomy_of_loop(b, fiber, loop)
                on_fiber = GkmIso(tuple(vm[vmap[v]] for v in fiber), psi)
                assert compose_iso(rho, on_fiber) == compose_iso(iso, rho)
            assert len({iso for _, iso in group.generators}) == len(group.generators)


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
        group = holonomy(rs, sigma2)
        assert group.matches_upsilon
        assert group.order == len(rs.parabolic_elements(sigma2))
        bp = group.base_point
        fiber = b.fibers()[bp]
        _, vm, _ = induced_subgraph(b.total, fiber)
        rho = fiber_model_iso(b, bp, vm)  # typical fiber -> fiber over bp
        fib = build_coset_graph(rs, b.sigma1, b.sigma2)
        isos = [(loop, left_multiplication(fib, h)) for loop, h in group.generators]
        for loop, iso in isos:
            assert loop, "generator without a loop"
            # the loop is a closed edge path at the base point
            assert b.base.src[loop[0]] == bp
            assert b.base.dst[loop[-1]] == bp
            for e1, e2 in zip(loop, loop[1:]):
                assert b.base.dst[e1] == b.base.src[e2]
            # transport around the loop, conjugated to the typical fiber
            vmap, psi = holonomy_of_loop(b, fiber, loop)
            on_fiber = GkmIso(tuple(vm[vmap[v]] for v in fiber), psi)
            # rho^-1 . on_fiber . rho == iso, without inverting rho
            assert compose_iso(rho, on_fiber) == compose_iso(iso, rho)
        assert len({iso for _, iso in isos}) == len(group.generators)


def test_base_tree_spans(a3):
    b = build_bundle(a3, frozenset(), frozenset({2}))
    n = b.base.nvertices
    tree, chords = base_tree(b.base, 0)
    assert len(tree) == n - 1
    reached = {0}
    for eid in tree:
        assert b.base.src[eid] in reached
        reached.add(b.base.dst[eid])
    assert reached == set(range(n))
    assert 2 * (len(tree) + len(chords)) == len(b.base.src)


_SMALL_TYPES = [("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 3)]


@pytest.mark.parametrize("kind,n", _SMALL_TYPES)
def test_holonomy_is_sigma2_action_for_every_proper_sigma2(kind, n):
    """Every proper Sigma2, the empty set included (order 1), and every
    Sigma1 within it: Upsilon on W(Sigma2)/W(Sigma1) gives ``order``
    distinct isos even for Sigma1 != {}, because psi is faithful even
    where the vertex action is not."""
    rs = RootSystem(kind, n)
    for k in range(n):
        for sigma2 in itertools.combinations(range(1, n + 1), k):
            group = holonomy(rs, sigma2)
            assert group.matches_upsilon, (kind, n, sigma2)
            assert group.order == len(rs.parabolic_elements(sigma2))
            for j in range(k + 1):
                for sigma1 in itertools.combinations(sigma2, j):
                    isos = upsilon(rs, sigma1, sigma2, group.elements)
                    assert len(set(isos)) == group.order, (kind, n, sigma1, sigma2)


@pytest.mark.parametrize("kind,n", _SMALL_TYPES)
def test_bundle_data_matches_the_projection_oracle(kind, n):
    """pi, dpi and the transition vertex maps of every Sigma1 within
    Sigma2 agree with the Weyl-action formulas of ``coset_projection``."""
    rs = RootSystem(kind, n)
    for sigma1, sigma2 in sigma_pairs(n):
        b = build_bundle(rs, sigma1, sigma2)
        pi, dpi, vmaps = coset_projection(rs, sigma1, sigma2)
        assert b.pi == pi, (sigma1, sigma2)
        assert b.dpi == dpi, (sigma1, sigma2)
        assert {e: t.vmap for e, t in b.transitions.items()} == vmaps


def _negative_label_counts(g, xi):
    """Coefficients of sum over vertices v of t^k, k = #labels at v negative at xi."""
    counts = [0] * (max(len(at) for at in g.edges_at) + 1)
    for at in g.edges_at:
        counts[sum(1 for eid in at if g.label(eid).dot(xi) < 0)] += 1
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
    with pytest.raises(ValueError, match="every simple root"):
        holonomy(a2, a2.full_sigma())


def test_trivial_product_bundle():
    def k2(label, names):
        return edge_graph(3, names, [Edge(0, 1, label), Edge(1, 0, -label)], [(0,), (0,)])

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
    base = edge_graph(3, ["a", "b"],
                      [Edge(0, 1, x1), Edge(0, 1, x2), Edge(1, 0, -x1), Edge(1, 0, -x2)],
                      [(0, 1)] * 4)
    assert base.reverse == (2, 3, 0, 1)
    fiber = edge_graph(3, ["u", "v"], [Edge(0, 1, x3), Edge(1, 0, -x3)], [(0,), (0,)])
    product = product_bundle(base, fiber)
    b = make_bundle(product.total, base, product.pi)
    assert len(b.dpi) == 8
    edges, base_edges = edges_of(b.total), edges_of(base)
    for eid, beid in b.dpi.items():
        e, be = edges[eid], base_edges[beid]
        assert (be.src, be.dst, be.label) == (b.pi[e.src], b.pi[e.dst], e.label)


def test_make_bundle_matches_built(a2):
    """Rebuilding from raw data recovers the structure; the linear parts
    are only pinned on the fiber spans, so they are checked by axiom."""
    rs, b = tower("A", 2)
    rebuilt = make_bundle(b.total, b.base, b.pi)
    assert rebuilt.dpi == b.dpi
    for beid in range(len(b.base.src)):
        assert rebuilt.transitions[beid].vmap == b.transitions[beid].vmap
    assert verify_fiber_bundle(rebuilt).ok


# ----------------------------------------------------------------------
# serialization


def test_bundle_json_round_trip(b2):
    rs, b = tower("B", 2)
    data = bundle_to_json(b)
    b2_ = bundle_from_json(data)
    assert bundle_to_json(b2_) == bundle_to_json(b)
    assert verify_fiber_bundle(b2_).ok



@pytest.mark.parametrize("kind", "ABCD")
def test_bundle_file_of_every_rank_3_bundle_is_its_json_dump(kind):
    """The streamed bundle writer gives the bytes of ``json.dumps(...,
    indent=1)`` and a newline, for every Sigma1 within a nonempty Sigma2."""
    rs = RootSystem(kind, 3)
    for sigma2 in itertools.chain.from_iterable(
            itertools.combinations((1, 2, 3), k) for k in (1, 2, 3)):
        for sigma1 in itertools.chain.from_iterable(
                itertools.combinations(sigma2, k) for k in range(len(sigma2) + 1)):
            b = build_bundle(rs, sigma1, sigma2)
            assert "".join(bundle_json_chunks(b)) == json_file_text(bundle_to_json(b)), (
                sigma1, sigma2)


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
    base = build_coset_graph(d3, frozenset({2, 3}), d3.full_sigma())
    g = base.graph
    tau_vals = [w.act_poly(Polynomial.variable(3, 1)) for w in base.reps]
    for p in range(g.nvertices):
        missing = set(range(g.nvertices)) - {p} - {
            g.dst[eid] for eid in g.edges_at[p]
        }
        assert len(missing) == 1
        q = missing.pop()
        assert tau_vals[q] == -tau_vals[p]


def test_holonomy_all_base_points_d3(d3):
    b = build_bundle(d3, frozenset(), frozenset({2, 3}))
    elements = None
    for p in range(b.base.nvertices):
        group = holonomy(d3, b.sigma2, base_point=p)
        assert group.matches_upsilon
        elements = set(group.elements) if elements is None else elements
        assert set(group.elements) == elements
