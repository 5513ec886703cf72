"""Coset graphs of Weyl groups, their fiber bundles, and holonomy.

For nested subsets Sigma1 within Sigma2 of simple roots, the vertices of
the coset graph are the cosets w*W(Sigma1) with w in W(Sigma2); [w] and
[w s_beta] are joined for every beta in <Sigma2> \\ <Sigma1>, the edge is
labeled w*beta, and the connection along ([w], [w s_beta]) sends
([w], [w s_beta']) to ([w s_beta], [w s_beta s_beta']).  Everything is
stored relative to the canonical minimal-length coset representatives;
labels and the connection do not depend on that choice (tests rebuild
from random representatives and compare).  W(Sigma1) permutes the edge
directions, so one pass builds the graph (see :class:`CosetGraph`).

The projection W/W1 -> W/W2 is a fiber bundle of such graphs: an edge in
direction beta is vertical when beta lies in <Sigma2> and horizontal
otherwise, horizontal edges project isomorphically, and the transition
across a base edge labeled w*beta is left multiplication by the
reflection s_{w beta} together with that same reflection on coordinates.
Transport along a base path is therefore one Weyl element, the product
of the reflections of its edge labels.  Holonomy is computed exactly from
one breadth-first spanning tree of the base: the loops "tree path, one
non-tree edge, tree path back" generate the fundamental group of a
graph, so their transports generate the holonomy group, a subgroup of
W(Sigma2) (optionally cross-checked by exhausting short based cycles
through the stored transition data).  For these bundles the group is
W(Sigma2) acting on the typical fiber by left multiplication; whether
that identity holds is reported in ``HolonomyGroup.matches_upsilon``.

A :class:`BundleMap` stores only the bundle data: the total and base
graphs, pi on vertices, dpi on edges (its keys are the horizontal edges;
every other edge is vertical), the transitions, and the coset metadata
of a Weyl-group bundle.  Nothing derived is stored: each function derives
fibers, lifts and fiber subgraphs from that data when called, so a
bundle whose data changed is checked as it now stands.  Bundles assembled
from raw graph data (no Weyl group behind them) are also supported for
axiom verification; see :func:`make_bundle` and :func:`product_bundle`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate

from . import linalg
from .gkmgraph import (
    CohClass,
    Edge,
    GkmGraph,
    GkmIso,
    Report,
    compose_iso,
    induced_subgraph,
    invert_iso,
    verify_gkm,
    verify_iso,
)
from .polyring import LinearForm
from .rootsys import RootSystem, WeylElement, group_closure

__all__ = [
    "CosetGraph",
    "BundleMap",
    "Transition",
    "HolonomyGroup",
    "build_coset_graph",
    "build_bundle",
    "make_bundle",
    "product_bundle",
    "verify_fibration",
    "bundle_to_json",
    "bundle_from_json",
    "bundle_hash",
    "verify_fiber_bundle",
    "base_tree",
    "tree_transport",
    "holonomy",
    "upsilon_elements",
    "lift_class",
]

# Bounds of the cycle search in holonomy_exhaustive: the number of based
# cycles grows exponentially with their length.
EXHAUSTIVE_MAX_LEN = 6
EXHAUSTIVE_MAX_BASE = 8


def _check_sigmas(rs: RootSystem, sigma1, sigma2):
    """(Sigma1, Sigma2) as frozensets of simple-root indices, Sigma1 within
    Sigma2; the indices are checked first, so a bad set is named as given."""
    sigma1, sigma2 = frozenset(sigma1), frozenset(sigma2)
    for name, sigma in (("Sigma1", sigma1), ("Sigma2", sigma2)):
        if not sigma <= rs.full_sigma():
            raise ValueError(f"{name} must consist of simple-root indices "
                             f"1..{rs.rank}, not {sorted(sigma)}")
    if not sigma1 <= sigma2:
        raise ValueError("Sigma1 must be contained in Sigma2")
    return sigma1, sigma2


class CosetGraph:
    """The labeled graph of W(Sigma2)/W(Sigma1) with its connection.

    Vertex p (representative w = build_reps[p]) has one edge per direction
    beta in ``roots`` = <Sigma2> \\ <Sigma1>, to q = [w s_beta], labeled
    w beta.  With w' = build_reps[q], u = (w s_beta)^-1 w' lies in
    W(Sigma1), and the connection sends direction beta' at p to direction
    u^-1 beta' at q, labeled w s_beta beta' = s_{w beta}(w beta').  Each s_i
    with i in Sigma1 permutes the positive roots other than alpha_i and
    preserves the span of Sigma1, so W(Sigma1) permutes ``roots`` and each
    u acts as one index permutation, tabulated once per graph.  Edge p*d + k
    (d = len(roots)) is the edge at p in direction roots[k], so directions
    are positions in stars and that table, one tuple per u, is the
    connection: every edge whose u agrees shares its tuple.  The labels
    at a vertex are w beta for distinct positive roots beta, which are never
    proportional in a reduced root system, so the build checks no labels;
    the independence axiom of :func:`verify_gkm` reports that condition.
    """

    def __init__(self, rs: RootSystem, sigma1, sigma2, build_reps=None):
        sigma1, sigma2 = _check_sigmas(rs, sigma1, sigma2)
        self.rs = rs
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        inner = set(rs.closure(sigma1))
        self.roots = [beta for beta in rs.closure(sigma2) if beta not in inner]
        w2 = rs.parabolic_elements(sigma2)
        w1 = rs.parabolic_elements(sigma1)
        self.reps: list[WeylElement] = []
        self.elem_vertex: dict[WeylElement, int] = {}
        for w in w2:  # canonical order; first element of each coset is minimal
            if w in self.elem_vertex:
                continue
            coset = [w * u for u in w1]
            min_len = min(rs.length(x) for x in coset)
            if sum(1 for x in coset if rs.length(x) == min_len) != 1:
                raise AssertionError("minimal coset representative is not unique")
            idx = len(self.reps)
            self.reps.append(w)
            for x in coset:
                self.elem_vertex[x] = idx
        if build_reps is None:
            build_reps = self.reps
        else:
            build_reps = list(build_reps)
            for i, w in enumerate(build_reps):
                if self.elem_vertex.get(w) != i:
                    raise ValueError("build representative lies in the wrong coset")
        self.build_reps = build_reps
        self.graph = self._build_graph()

    # ------------------------------------------------------------------

    def _build_graph(self) -> GkmGraph:
        rs = self.rs
        d = len(self.roots)
        index = {beta: k for k, beta in enumerate(self.roots)}
        # perm[u][k] is the direction of u^-1 * roots[k]; see the class docstring
        perm = {
            u: tuple(index[u.inverse().act_linear(beta)] for beta in self.roots)
            for u in rs.parabolic_elements(self.sigma1)
        }
        refl = [rs.reflection(beta) for beta in self.roots]
        edges, reverse, connection = [], [], []
        for p, w in enumerate(self.build_reps):
            for k, beta in enumerate(self.roots):
                ws = w * refl[k]
                q = self.elem_vertex[ws]
                u = ws.inverse() * self.build_reps[q]
                if u not in perm:
                    raise AssertionError("coset transport left W(Sigma1)")
                edges.append(Edge(p, q, w.act_linear(beta)))
                connection.append(perm[u])
                reverse.append(q * d + perm[u][k])
        names = [w.one_line_str() for w in self.reps]
        return GkmGraph(rs.varcount, names, edges, reverse, connection)

    # ------------------------------------------------------------------

    @property
    def nvertices(self) -> int:
        return len(self.reps)

    def vertex_of(self, w: WeylElement) -> int:
        return self.elem_vertex[w]

    def direction(self, eid: int) -> LinearForm:
        return self.roots[eid % len(self.roots)]

    def edge_id(self, p: int, beta: LinearForm) -> int:
        return p * len(self.roots) + self.roots.index(beta)

    def __repr__(self):
        return (f"CosetGraph({self.rs.kind}{self.rs.rank}, "
                f"S1={sorted(self.sigma1)}, S2={sorted(self.sigma2)}, "
                f"{self.nvertices} vertices)")


def build_coset_graph(rs: RootSystem, sigma1, sigma2, build_reps=None) -> CosetGraph:
    """Build (and cache, per root system) the coset graph for the pair.

    Passing explicit build representatives bypasses the cache; that path
    exists so tests can confirm representative independence.
    """
    if build_reps is not None:
        return CosetGraph(rs, sigma1, sigma2, build_reps)
    key = (frozenset(sigma1), frozenset(sigma2))
    cache = rs.coset_graph_cache
    if key not in cache:
        cache[key] = CosetGraph(rs, key[0], key[1])
    return cache[key]


# ----------------------------------------------------------------------
# bundles


@dataclass
class Transition:
    """Fiber transport across one base edge: vertex map plus linear part."""

    vmap: dict  # total vertex -> total vertex, defined on the source fiber
    psi: tuple  # m x m rational matrix


@dataclass
class BundleMap:
    """The data of a graph fiber bundle, and nothing derived from it.

    ``total`` and ``base`` are the graphs, ``pi`` sends each total vertex
    to a base vertex, ``dpi`` sends each horizontal total edge to a base
    edge (an edge is horizontal exactly when it is a key of ``dpi``), and
    ``transitions`` holds one :class:`Transition` per base edge.  Coset
    bundles also carry their coset graphs, root system and Sigma pair.
    """

    total: GkmGraph
    base: GkmGraph
    pi: list
    dpi: dict  # horizontal total edge -> base edge
    transitions: dict  # base edge -> Transition
    total_coset: CosetGraph | None = None
    base_coset: CosetGraph | None = None
    rs: RootSystem | None = None
    sigma1: frozenset | None = None
    sigma2: frozenset | None = None

    # -- fibers --------------------------------------------------------

    def fiber_vertices(self, p: int):
        return [q for q in range(self.total.nvertices) if self.pi[q] == p]

    def fibers(self):
        """The total vertices over each base vertex, in increasing order."""
        out = [[] for _ in range(self.base.nvertices)]
        for q, p in enumerate(self.pi):
            out[p].append(q)
        return out

    def fiber_subgraph(self, p: int):
        """(subgraph, old->new vertex map, old->new edge map)."""
        return induced_subgraph(self.total, self.fiber_vertices(p))

    def base_point(self) -> int:
        """Default base point: the coset of the identity when available."""
        if self.base_coset is not None:
            return self.base_coset.vertex_of(self.rs.identity())
        return 0

    # -- lifting -------------------------------------------------------

    def lift_edge(self, base_eid: int, start: int):
        """The unique horizontal edge at ``start`` projecting onto base_eid."""
        hits = [eid for eid in self.total.edges_at[start] if self.dpi.get(eid) == base_eid]
        if len(hits) != 1:
            raise ValueError(
                f"edge {self.base.edge_str(base_eid)} has {len(hits)} lifts at "
                f"{self.total.vertices[start]}"
            )
        return hits[0]

    def lift_path(self, path, start: int, edges: bool = False):
        """Lift a base path starting at ``start``; returns the visited
        total vertices.

        ``path`` is a list of base vertices by default (each consecutive
        pair must be joined by a unique edge); pass ``edges=True`` to give
        base edge ids instead, which disambiguates parallel edges.
        """
        path_edges = list(path) if edges else self._path_edges(path)
        if path_edges and self.base.edges[path_edges[0]].src != self.pi[start]:
            raise ValueError("start vertex does not lie over the path head")
        out = [start]
        cur = start
        for beid in path_edges:
            te = self.lift_edge(beid, cur)
            cur = self.total.edges[te].dst
            out.append(cur)
        return out

    def _path_edges(self, path):
        edges = []
        for a, b in zip(path, path[1:]):
            cands = self.base.find_edges(a, b)
            if len(cands) != 1:
                raise ValueError(
                    f"path step {a}->{b} matches {len(cands)} base edges; "
                    "pass edge ids with edges=True instead"
                )
            edges.append(cands[0])
        return edges

    def transition_iso(self, base_eid: int) -> GkmIso:
        """The stored transition as an isomorphism of fiber subgraphs."""
        e = self.base.edges[base_eid]
        return _transition_iso(self.transitions[base_eid], self.fiber_subgraph(e.src)[1],
                               self.fiber_subgraph(e.dst)[1])


def _transition_iso(t: Transition, vmap_p, vmap_q) -> GkmIso:
    """``t`` as an isomorphism between the fiber subgraphs at its ends;
    vmap_p and vmap_q renumber their vertices (see :func:`induced_subgraph`)."""
    phi = {vmap_p[a]: vmap_q[b] for a, b in t.vmap.items()}
    return GkmIso(tuple(phi[i] for i in range(len(vmap_p))), t.psi)


def build_bundle(rs: RootSystem, sigma1, sigma2) -> BundleMap:
    """The bundle W/W(Sigma1) -> W/W(Sigma2) with its transition data.

    pi sends [w] to [w] W(Sigma2), and the transition across a base edge
    labeled gamma sends [x] to [s_gamma x]; :func:`make_bundle` matches
    the horizontal edges to their base edges.
    """
    sigma1, sigma2 = _check_sigmas(rs, sigma1, sigma2)
    full = rs.full_sigma()
    total = build_coset_graph(rs, sigma1, full)
    base = build_coset_graph(rs, sigma2, full)
    pi = [base.vertex_of(w) for w in total.reps]
    refls = [rs.reflection(e.label) for e in base.graph.edges]
    vmaps = [{} for _ in refls]
    for q, p in enumerate(pi):
        for beid in base.graph.edges_at[p]:
            vmaps[beid][q] = total.vertex_of(refls[beid] * total.reps[q])
    transitions = {beid: Transition(vmaps[beid], refl.matrix())
                   for beid, refl in enumerate(refls)}
    return replace(make_bundle(total.graph, base.graph, pi, transitions),
                   total_coset=total, base_coset=base, rs=rs,
                   sigma1=sigma1, sigma2=sigma2)


def make_bundle(total: GkmGraph, base: GkmGraph, pi, transitions=None) -> BundleMap:
    """Assemble a bundle from raw graph data (for user-supplied bundles).

    The projection on edges, and (if absent) the transition maps are
    derived from the data: an edge between two fibers is horizontal and
    projects onto the base edge joining their base vertices (matched by
    label among parallel edges); lifts give the vertex maps, and linear
    parts solve the intertwining condition on fiber labels.
    """
    pi = list(pi)
    dpi = {}
    for eid, e in enumerate(total.edges):
        if pi[e.src] == pi[e.dst]:
            continue
        cands = base.find_edges(pi[e.src], pi[e.dst])
        if len(cands) > 1:
            cands = [c for c in cands if base.edges[c].label == e.label]
        if len(cands) != 1:
            raise ValueError(f"cannot project edge {total.edge_str(eid)}")
        dpi[eid] = cands[0]
    b = BundleMap(total=total, base=base, pi=pi, dpi=dpi, transitions={})
    if transitions is None:
        transitions = {}
        for beid in range(len(base.edges)):
            e = base.edges[beid]
            vmap = {}
            for p in b.fiber_vertices(e.src):
                te = b.lift_edge(beid, p)
                vmap[p] = total.edges[te].dst
            psi = _solve_transition_psi(b, beid, vmap)
            transitions[beid] = Transition(vmap, psi)
    b.transitions = transitions
    return b


def _solve_transition_psi(b: BundleMap, beid: int, vmap):
    """Linear part x -> x + c(x)*alpha_e pinned by the fiber labels."""
    m = b.total.varcount
    alpha = b.base.edges[beid].label
    pairs = []
    src = b.base.edges[beid].src
    for p in b.fiber_vertices(src):
        for eid in b.total.edges_at[p]:
            if eid in b.dpi:
                continue
            e = b.total.edges[eid]
            # the matching fiber edge between the transported endpoints
            targets = [
                t for t in b.total.edges_at[vmap[p]]
                if b.total.edges[t].dst == vmap[e.dst]
            ]
            if len(targets) != 1:
                raise ValueError("ambiguous transported fiber edge")
            pairs.append((e.label, b.total.edges[targets[0]].label))
    rows = []
    rhs = []
    for v, w in pairs:
        diff = w - v
        c = diff.proportional_to(alpha)
        if c is None:
            raise ValueError("fiber labels do not shift along the base label")
        rows.append(list(v.coeffs))
        rhs.append(c)
    cvec = linalg.solve_fraction(rows, rhs) if rows else [Fraction(0)] * m
    if cvec is None:
        raise ValueError("no linear transition exists")
    # x -> x + c(x) alpha has determinant 1 + c(alpha); the data pins c only
    # on the fiber-label span, so steer the free part away from -1.
    c_alpha = sum(a * b for a, b in zip(cvec, alpha.coeffs))
    if 1 + c_alpha == 0:
        z = linalg.solve_fraction(rows + [list(alpha.coeffs)],
                                  [Fraction(0)] * len(rows) + [Fraction(1)])
        if z is None:
            raise ValueError("transition is singular on the fiber span")
        cvec = [c - c_alpha * zi for c, zi in zip(cvec, z)]
    ident = linalg.identity_matrix(m)
    return tuple(
        tuple(ident[i][j] + alpha.coeffs[i] * cvec[j] for j in range(m))
        for i in range(m)
    )


def product_bundle(base: GkmGraph, fiber: GkmGraph) -> BundleMap:
    """The trivial bundle base x fiber -> base (labels share one space)."""
    if base.varcount != fiber.varcount:
        raise ValueError("base and fiber labels must share a coordinate space")
    nf = fiber.nvertices
    vertices = [
        f"{bv}|{fv}" for bv in base.vertices for fv in fiber.vertices
    ]

    def vid(b_, f_):
        return b_ * nf + f_

    # the star at (b, f) is the base star at b, then the fiber star at f
    nb = [len(star) for star in base.edges_at]
    first = list(accumulate((nb[b_] + len(fiber.edges_at[f_])
                             for b_ in range(base.nvertices) for f_ in range(nf)), initial=0))

    edges, reverse, connection = [], [], []
    for b_ in range(base.nvertices):
        for f_ in range(nf):
            p = vid(b_, f_)
            df = len(fiber.edges_at[f_])
            for beid in base.edges_at[b_]:
                e = base.edges[beid]
                edges.append(Edge(p, vid(e.dst, f_), e.label))
                r = base.reverse[beid]  # its lift at f_ is edge slot[r] of (src(r), f_)
                reverse.append(first[vid(base.edges[r].src, f_)] + base.slot[r])
                connection.append(base.connection[beid] + tuple(range(nb[e.dst], nb[e.dst] + df)))
            for feid in fiber.edges_at[f_]:
                e = fiber.edges[feid]
                edges.append(Edge(p, vid(b_, e.dst), e.label))
                r = fiber.reverse[feid]
                reverse.append(first[vid(b_, fiber.edges[r].src)] + nb[b_] + fiber.slot[r])
                connection.append(tuple(range(nb[b_]))
                                  + tuple(nb[b_] + i for i in fiber.connection[feid]))
    total = GkmGraph(base.varcount, vertices, edges, reverse, connection)
    pi = [b_ for b_ in range(base.nvertices) for _ in range(nf)]
    return make_bundle(total, base, pi)


# ----------------------------------------------------------------------
# verification


def _projection_fault(b: BundleMap) -> str:
    """Why pi or dpi does not map into the graphs, or "" if they do."""
    if len(b.pi) != b.total.nvertices:
        return f"pi has {len(b.pi)} entries for {b.total.nvertices} total vertices"
    for q, p in enumerate(b.pi):
        if not 0 <= p < b.base.nvertices:
            return f"pi sends {b.total.vertices[q]} to {p}, not a base vertex"
    for eid, beid in b.dpi.items():
        if not 0 <= eid < len(b.total.edges):
            return f"dpi has key {eid}, not a total edge"
        if not 0 <= beid < len(b.base.edges):
            return f"dpi sends {b.total.edge_str(eid)} to {beid}, not a base edge"
    return ""


def verify_fibration(b: BundleMap) -> Report:
    """graph-morphism and dpi-bijective.  When pi or dpi points outside
    the graphs, graph-morphism fails with the first such entry and
    dpi-bijective, which cannot run, fails with the same witness."""
    rep = Report()
    fault = _projection_fault(b)
    if fault:
        rep.add("graph-morphism", False, fault)
        rep.add("dpi-bijective", False, fault)
        return rep
    bad = ""
    for eid, e in enumerate(b.total.edges):
        beid = b.dpi.get(eid)
        if b.pi[e.src] == b.pi[e.dst]:
            if beid is not None:
                bad = f"edge {b.total.edge_str(eid)} misclassified"
                break
        elif beid is None:
            bad = f"horizontal edge {b.total.edge_str(eid)} has no projection"
            break
        else:
            be = b.base.edges[beid]
            if (be.src, be.dst) != (b.pi[e.src], b.pi[e.dst]):
                bad = (f"projection of {b.total.edge_str(eid)} has wrong "
                       f"endpoints")
                break
    rep.add("graph-morphism", not bad, bad)

    bad = ""
    for q in range(b.total.nvertices):
        images = [b.dpi[eid] for eid in b.total.edges_at[q] if eid in b.dpi]
        if sorted(images) != sorted(b.base.edges_at[b.pi[q]]):
            bad = (f"horizontal differential not bijective at vertex "
                   f"{b.total.vertices[q]}")
            break
    rep.add("dpi-bijective", not bad, bad)
    return rep


# The checks of verify_fiber_bundle after those of the two graphs.
_BUNDLE_CHECKS = ("lifted-labels", "connection-preserves-class",
                  "horizontal-connection-compatible", "transition-from-lifts",
                  "transition-connection-compatible", "transition-gkm-iso")


def verify_fiber_bundle(b: BundleMap) -> Report:
    """All the fiber-bundle axioms, data-driven so mutations are caught.

    Like :func:`verify_gkm` and :func:`verify_iso`, the label axioms are
    decided once per distinct label: the transition-gkm-iso shift check
    asks "Psi(lambda) - lambda in Q*alpha" once per label lambda of the
    fiber subgraph over the tail of each base edge, read off its interned
    ``labels``, which are in order of first occurrence, so the first
    witness is that of a per-edge check.  The fibers and their subgraphs
    are derived from the bundle data once per call, and lifts come from
    :meth:`BundleMap.lift_edge`; nothing is stored on the bundle, whose
    data may change after construction.  A transition
    check that cannot run (no transition, a vertex map that is not a
    bijection of fibers, a base edge without exactly one lift at a
    vertex) fails with that reason; if pi or dpi points outside the
    graphs, every bundle check fails with the first such entry.
    """
    rep = verify_fibration(b)
    for check in verify_gkm(b.total).checks:
        rep.add("total-" + check.name, check.passed, check.witness)
    for check in verify_gkm(b.base).checks:
        rep.add("base-" + check.name, check.passed, check.witness)
    fault = _projection_fault(b)
    if fault:
        for name in _BUNDLE_CHECKS:
            rep.add(name, False, fault)
        return rep

    bad = ""
    for eid, beid in b.dpi.items():
        if b.total.edges[eid].label != b.base.edges[beid].label:
            bad = (f"lift {b.total.edge_str(eid)} does not carry the base "
                   f"label {b.base.edges[beid].label}")
            break
    rep.add("lifted-labels", not bad, bad)

    bad = ""
    for eid in range(len(b.total.edges)):
        for e1, e2 in b.total.connection_pairs(eid):
            if (e1 in b.dpi) != (e2 in b.dpi):
                bad = (f"connection along {b.total.edge_str(eid)} mixes "
                       f"vertical and horizontal at {b.total.edge_str(e1)}")
                break
        if bad:
            break
    rep.add("connection-preserves-class", not bad, bad)

    bad = ""
    for eid, beid in b.dpi.items():
        for e1, e2 in b.total.connection_pairs(eid):
            if e1 not in b.dpi:
                continue
            # a wrong dpi can send e1 off the tail of beid, where it has no image
            x = b.dpi[e1]
            want = b.base.along(beid, x) if b.base.edges[x].src == b.base.edges[beid].src else None
            got = b.dpi.get(e2)
            if want != got:
                bad = (f"horizontal connection over {b.base.edge_str(beid)} "
                       f"is not compatible at {b.total.edge_str(e1)}")
                break
        if bad:
            break
    rep.add("horizontal-connection-compatible", not bad, bad)

    fibers = b.fibers()
    unusable = {}  # base edge -> why its transition cannot be checked
    for beid, e in enumerate(b.base.edges):
        t = b.transitions.get(beid)
        if t is None:
            unusable[beid] = f"no transition stored for {b.base.edge_str(beid)}"
        elif sorted(t.vmap) != fibers[e.src] or sorted(t.vmap.values()) != fibers[e.dst]:
            unusable[beid] = f"transition across {b.base.edge_str(beid)} is not a bijection"

    bad = ""
    for beid, e in enumerate(b.base.edges):
        if beid in unusable:
            bad = unusable[beid]
            break
        for p in fibers[e.src]:
            try:
                lifted = b.lift_edge(beid, p)
            except ValueError as exc:
                bad = str(exc)
                break
            if b.total.edges[lifted].dst != b.transitions[beid].vmap[p]:
                bad = (f"transition across {b.base.edge_str(beid)} disagrees "
                       f"with path lifting at {b.total.vertices[p]}")
                break
        if bad:
            break
    rep.add("transition-from-lifts", not bad, bad)

    bad = ""
    for beid, e in enumerate(b.base.edges):
        if beid in unusable:
            bad = unusable[beid]
            break
        vmap = b.transitions[beid].vmap
        for p in fibers[e.src]:
            try:
                lifted = b.lift_edge(beid, p)
            except ValueError as exc:
                bad = str(exc)
                break
            for e1, e2 in b.total.connection_pairs(lifted):
                if e1 in b.dpi:
                    continue
                if (b.total.edges[e2].src != vmap[p]
                        or b.total.edges[e2].dst != vmap.get(b.total.edges[e1].dst)):
                    bad = (f"connection along a lift of {b.base.edge_str(beid)} "
                           f"does not follow the transition at "
                           f"{b.total.edge_str(e1)}")
                    break
            if bad:
                break
        if bad:
            break
    rep.add("transition-connection-compatible", not bad, bad)

    bad = ""
    subgraphs = {}  # base vertex -> its fiber subgraph, built on first use
    for beid, e in enumerate(b.base.edges):
        if beid in unusable:
            bad = unusable[beid]
            break
        try:
            for p in (e.src, e.dst):
                if p not in subgraphs:
                    subgraphs[p] = induced_subgraph(b.total, fibers[p])
        except ValueError as exc:  # check_subgraph on a broken connection
            bad = f"transition across {b.base.edge_str(beid)}: {exc}"
            break
        (sub_p, vmap_p, _), (sub_q, vmap_q, _) = subgraphs[e.src], subgraphs[e.dst]
        iso = _transition_iso(b.transitions[beid], vmap_p, vmap_q)
        if not verify_iso(iso, sub_p, sub_q):
            bad = (f"transition across {b.base.edge_str(beid)} is not an "
                   f"isomorphism of labeled fibers")
            break
        alpha = e.label
        for label in sub_p.labels:
            if (iso.apply_form(label) - label).proportional_to(alpha) is None:
                bad = (f"linear part across {b.base.edge_str(beid)} does not "
                       f"shift {label} along {alpha}")
                break
        if bad:
            break
    rep.add("transition-gkm-iso", not bad, bad)
    return rep


# ----------------------------------------------------------------------
# holonomy


@dataclass
class HolonomyGroup:
    base_point: int
    fiber: "CosetGraph | GkmGraph"
    generators: list  # (loop as base edge ids, GkmIso)
    elements: list  # GkmIso, canonically ordered
    matches_upsilon: bool | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_keys(self):
        return {iso.key() for iso in self.elements}


def typical_fiber(b: BundleMap) -> CosetGraph:
    if b.rs is None:
        raise ValueError("typical fiber as a coset graph needs Weyl-group data")
    return build_coset_graph(b.rs, b.sigma1, b.sigma2)


def fiber_model_iso(b: BundleMap, p: int, rep: WeylElement | None = None) -> GkmIso:
    """(phi_w, psi_w): typical fiber -> fiber subgraph over base vertex p."""
    fib = typical_fiber(b)
    if rep is None:
        rep = b.base_coset.reps[p]
    elif b.base_coset.vertex_of(rep) != p:
        raise ValueError("representative lies over a different base vertex")
    sub, vmap, _ = b.fiber_subgraph(p)
    phi = tuple(
        vmap[b.total_coset.vertex_of(rep * u)] for u in fib.reps
    )
    return GkmIso(phi, rep.matrix())


def base_tree(b: BundleMap, base_point: int):
    """(tree, chords) for a breadth-first spanning tree of the base.

    ``tree`` lists the tree edges in BFS order from ``base_point``, so
    each leaves a vertex reached before; ``chords`` lists every base edge
    outside the tree once, in its lower-numbered orientation.
    """
    seen = {base_point}
    tree = []
    queue = [base_point]
    for p in queue:
        for eid in b.base.edges_at[p]:
            q = b.base.edges[eid].dst
            if q not in seen:
                seen.add(q)
                tree.append(eid)
                queue.append(q)
    in_tree = set(tree) | {b.base.reverse[eid] for eid in tree}
    chords = [eid for eid in range(len(b.base.edges))
              if eid not in in_tree and eid < b.base.reverse[eid]]
    return tree, chords


def tree_transport(b: BundleMap, base_point: int):
    """(transports, generators) of a coset bundle, from one walk of
    :func:`base_tree`.

    Transport across a base edge labeled gamma is left multiplication by
    s_gamma, so ``transports[q]`` = T_q . r (r the representative of the
    base point, T_q = s_gamma . T_src along the tree edge into q) carries
    the typical fiber onto the fiber over q: [u] -> [T_q r u].  Each chord
    e = (p -> q) closes the loop "tree path, e, tree path back" with
    holonomy h = (T_q r)^-1 . s_e . (T_p r) on the typical fiber.
    ``generators`` lists (chord, loop as base edge ids, h) for each chord
    whose h is not the identity and not met at an earlier chord.
    """
    rs = b.rs
    transports = {base_point: b.base_coset.reps[base_point]}
    path = {base_point: []}
    tree, chords = base_tree(b, base_point)
    for eid in tree:
        e = b.base.edges[eid]
        transports[e.dst] = rs.reflection(e.label) * transports[e.src]
        path[e.dst] = path[e.src] + [eid]
    seen = {rs.identity()}
    generators = []
    for eid in chords:
        e = b.base.edges[eid]
        h = transports[e.dst].inverse() * rs.reflection(e.label) * transports[e.src]
        if h in seen:
            continue
        seen.add(h)
        loop = (path[e.src] + [eid]
                + [b.base.reverse[f] for f in reversed(path[e.dst])])
        generators.append((eid, loop, h))
    return transports, generators


def holonomy_of_loop(b: BundleMap, loop_edges) -> tuple:
    """(vertex map on the start fiber, linear part) of transport around a loop."""
    if not loop_edges:
        raise ValueError("need a non-empty loop")
    cur = {p: p for p in b.fiber_vertices(b.base.edges[loop_edges[0]].src)}
    psi = linalg.identity_matrix(b.total.varcount)
    for beid in loop_edges:
        t = b.transitions[beid]
        cur = {p: t.vmap[q] for p, q in cur.items()}
        psi = linalg.mat_mul(t.psi, psi)
    return cur, psi


def _left_mult_iso(fib: CosetGraph, w: WeylElement) -> GkmIso:
    """Left multiplication by w on the typical fiber: u -> [w u], psi = w."""
    return GkmIso(tuple(fib.vertex_of(w * u) for u in fib.reps), w.matrix())


def upsilon_elements(b: BundleMap):
    """Left multiplication by W(Sigma2) on the typical fiber, as iso pairs."""
    fib = typical_fiber(b)
    return sorted((_left_mult_iso(fib, w) for w in b.rs.parabolic_elements(b.sigma2)),
                  key=GkmIso.key)


def holonomy(b: BundleMap, base_point: int | None = None) -> HolonomyGroup:
    """The holonomy group of a coset bundle, exactly, from one spanning tree.

    Transport across a base edge labeled gamma is left multiplication by
    s_gamma, so transport along a path is one Weyl element.
    :func:`tree_transport` walks the spanning tree once; each unoriented
    non-tree edge e = (p -> q) gives the loop "tree path, e, tree path
    back", whose holonomy on the typical fiber is
    h = r^{-1} . T_q^{-1} . s_e . T_p . r, an element of W(Sigma2) (T the
    tree transport, r the base representative).  These loops generate the
    fundamental group of the base (Serre, *Trees*), and backtracking is
    trivial because an edge and its reverse carry the same reflection, so
    the distinct non-identity h generate the whole holonomy group.
    ``generators`` holds their left-multiplication isos with the loops as
    base edge ids; ``matches_upsilon`` reports whether the group is all of
    W(Sigma2).  When Sigma2 is every simple root the base is one vertex
    without loops, so ValueError is raised.
    """
    if b.rs is None:
        raise ValueError("constructive holonomy needs Weyl-group data; "
                         "use holonomy_exhaustive for raw bundles")
    rs = b.rs
    if b.sigma2 == rs.full_sigma():
        raise ValueError("Sigma2 contains every simple root, so the base is "
                         "one vertex and has no loops")
    if base_point is None:
        base_point = b.base_point()
    _, generators = tree_transport(b, base_point)
    elements = group_closure([rs.identity()], [h for _, _, h in generators], operator.mul)
    fib = typical_fiber(b)
    return HolonomyGroup(
        base_point,
        fib,
        [(loop, _left_mult_iso(fib, h)) for _, loop, h in generators],
        sorted((_left_mult_iso(fib, w) for w in elements), key=GkmIso.key),
        set(elements) == set(rs.parabolic_elements(b.sigma2)),
    )


def holonomy_exhaustive(b: BundleMap, base_point: int = 0) -> HolonomyGroup:
    """Subgroup generated by all based cycles of at most EXHAUSTIVE_MAX_LEN
    edges, on a base of at most EXHAUSTIVE_MAX_BASE vertices.

    Transport is read from the stored transitions.  Only guaranteed to
    exhaust the holonomy group for the coset bundles (where it is
    cross-checked against the constructive generators, conjugated to the
    typical fiber by :func:`fiber_model_iso`); for arbitrary data it
    reports the subgroup its cycles happen to generate on the fiber over
    the base point.
    """
    if b.base.nvertices > EXHAUSTIVE_MAX_BASE:
        raise ValueError("base too large for exhaustive cycle enumeration")
    loops = []

    def extend(path, cur):
        if len(path) >= 1 and cur == base_point:
            loops.append(list(path))
        if len(path) >= EXHAUSTIVE_MAX_LEN:
            return
        for eid in b.base.edges_at[cur]:
            path.append(eid)
            extend(path, b.base.edges[eid].dst)
            path.pop()

    extend([], base_point)
    fib, vm, _ = b.fiber_subgraph(base_point)
    if b.rs is not None:
        rho = fiber_model_iso(b, base_point)  # typical fiber -> fiber over base point
        rho_inv = invert_iso(rho)
        fib = typical_fiber(b)
    gens = []
    for loop in loops:
        vmap, psi = holonomy_of_loop(b, loop)
        iso = GkmIso(tuple(vm[vmap[p]] for p in sorted(vm)), psi)
        if b.rs is not None:
            iso = compose_iso(compose_iso(rho, iso), rho_inv)
        gens.append((loop, iso))
    ident = GkmIso(tuple(range(fib.nvertices)), linalg.identity_matrix(b.total.varcount))
    elements = sorted(group_closure([ident], [iso for _, iso in gens], compose_iso),
                      key=GkmIso.key)
    return HolonomyGroup(base_point, fib, gens, elements)


# ----------------------------------------------------------------------
# classes


def bundle_to_json(b: BundleMap) -> dict:
    """Bundle serialization: graphs, per-edge classes, and the projection."""
    from .gkmgraph import graph_to_json

    total = graph_to_json(b.total)
    for eid, entry in enumerate(total["edges"]):
        entry["class"] = "horizontal" if eid in b.dpi else "vertical"
    return {
        "total": total,
        "base": graph_to_json(b.base),
        "projection": {
            b.total.vertices[q]: b.base.vertices[b.pi[q]]
            for q in range(b.total.nvertices)
        },
    }


def bundle_from_json(data: dict) -> BundleMap:
    """Parse :func:`bundle_to_json` output; malformed input raises ValueError."""
    from .gkmgraph import graph_from_json

    missing = [k for k in ("total", "base", "projection")
               if not isinstance(data, dict) or k not in data]
    if missing:
        raise ValueError(f"bundle JSON lacks {', '.join(missing)}")
    total = graph_from_json(data["total"])
    base = graph_from_json(data["base"])
    projection = data["projection"]
    if not isinstance(projection, dict):
        raise ValueError("projection must map total vertices to base vertices")
    base_index = {name: i for i, name in enumerate(base.vertices)}
    pi = []
    for name in total.vertices:
        target = projection.get(name)
        if not isinstance(target, str) or target not in base_index:
            raise ValueError(f"projection sends {name} to {target!r}, which is not a base vertex")
        pi.append(base_index[target])
    return make_bundle(total, base, pi)


def bundle_hash(b: BundleMap) -> str:
    import hashlib
    import json as _json

    text = _json.dumps(bundle_to_json(b), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def lift_class(b: BundleMap, base_class: CohClass) -> CohClass:
    """Pull a base class up to the total space through the projection."""
    if base_class.graph is not b.base:
        raise ValueError("class does not live on the base")
    vals = [base_class.values[b.pi[q]] for q in range(b.total.nvertices)]
    return CohClass(b.total, vals)
