"""Coset graphs of Weyl groups, their fiber bundles, and holonomy.

For nested subsets Sigma1 within Sigma2 of simple roots, the vertices of
the coset graph are the cosets w*W(Sigma1) with w in W(Sigma2); [w] and
[w s_beta] are joined for every beta in <Sigma2> \\ <Sigma1>, the edge is
labeled w*beta, and the connection along ([w], [w s_beta]) sends
([w], [w s_beta']) to ([w s_beta], [w s_beta s_beta']).  Everything is
stored relative to the canonical minimal-length coset representatives;
labels and the connection do not depend on that choice (a test oracle
rebuilds the graph on random representatives and compares).  W(Sigma1)
permutes the edge directions, so one pass builds the graph (see
:class:`CosetGraph`).

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
W(Sigma2).  :func:`holonomy` returns that subgroup as Weyl elements: it
reads only the root system and Sigma2, through the base coset graph
W/W(Sigma2) that :func:`build_coset_graph` caches, and builds no bundle
and no typical fiber.  The transports are products of the reflections
in the base labels, so the group does not depend on Sigma1, which only
fixes the typical fiber W(Sigma2)/W(Sigma1) it acts on, by
:func:`left_multiplication` (Upsilon).  For these bundles the group is
all of W(Sigma2); whether that identity holds is reported in
``HolonomyGroup.matches_upsilon``.  The cross-check,
:func:`holonomy_exhaustive`, reads the stored transitions of a bundle
instead and returns isos of the typical fiber: from the typical fiber
placed over the base point, it walks the distinct states (base vertex,
transport) that based paths of at most EXHAUSTIVE_MAX_LEN edges reach,
so each state is extended once along each base edge, and it closes the
group over the distinct transports of the loops among them; the two
groups compare through :func:`left_multiplication`.

A :class:`BundleMap` stores only the bundle data: the total and base
graphs, pi on vertices, dpi on edges (its keys are the horizontal edges;
every other edge is vertical), the transitions, and the root system and
Sigma pair of a Weyl-group bundle.  Nothing derived is stored: each
function derives fibers, lifts and fiber subgraphs from that data when
called, and the coset graphs from :func:`build_coset_graph`, so a
bundle whose data changed is checked as it now stands.  Bundles assembled
from raw graph data (no Weyl group behind them) are also supported for
axiom verification; see :func:`make_bundle` and :func:`product_bundle`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain
from json.encoder import encode_basestring_ascii as _json_str

from . import linalg
from .gkmgraph import (
    CohClass,
    GkmGraph,
    GkmIso,
    Report,
    compose_iso,
    graph_from_json,
    graph_json_chunks,
    induced_subgraph,
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
    "check_sigmas",
    "build_coset_graph",
    "build_bundle",
    "make_bundle",
    "product_bundle",
    "verify_fibration",
    "bundle_json_chunks",
    "bundle_from_json",
    "verify_fiber_bundle",
    "base_tree",
    "tree_transport",
    "holonomy",
    "left_multiplication",
    "lift_class",
]

# Bounds of the cycle search in holonomy_exhaustive: the number of based
# cycles grows exponentially with their length.
EXHAUSTIVE_MAX_LEN = 6
EXHAUSTIVE_MAX_BASE = 8


def check_sigmas(rs: RootSystem, sigma1, sigma2):
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

    The vertices are ``reps`` = ``rs.coset_reps(Sigma1, Sigma2)``, the
    minimal coset representatives in canonical order, so the identity's
    coset is vertex 0.  ``vertex_of(w)`` finds the coset of any w in
    W(Sigma2): ``rs.coset_min`` steps down to its minimal element, which
    is looked up among ``reps``; with Sigma1 empty it is the lookup alone.
    Vertex p (representative w = reps[p]) has one edge per direction beta
    in ``roots`` = <Sigma2> \\ <Sigma1>, to q = [w s_beta], labeled
    w beta.  ``coset_min`` steps from w s_beta to w' = reps[q] = w s_beta u
    with u = s_i1 ... s_im, i1 ... im its word in Sigma1 (empty on every
    flag graph), and the connection sends direction beta' at p to
    direction u^-1 beta' at q, labeled w s_beta beta' = s_{w beta}(w beta').
    Each s_i with i in Sigma1 permutes the positive roots other than
    alpha_i and preserves the span of Sigma1, so it permutes ``roots``:
    t_i[k] is the direction of s_i roots[k], and u^-1 acts on directions
    as t_i1, then t_i2, ..., then t_im.  Edge p*d + k (d = len(roots)) is
    the edge at p in direction roots[k], so directions are positions in
    stars and that permutation, one tuple per word, is the connection:
    every edge whose word agrees shares its tuple, and no edge takes a
    group inverse.  The graph is handed to :class:`GkmGraph` as int
    columns, with no ``LinearForm`` or other object per edge, and the
    constructor reads each edge's reverse off its connection: the edge at
    q in direction u^-1 beta, which leads to [w' s_{u^-1 beta}] = [w u] =
    [w].  w beta depends on w only through the entries of its one-line
    form at the support of beta, so the label id of edge (p, k) is looked
    up by k and those entries, and ``act_linear`` runs once per such key,
    in edge order, so the labels keep their order of first occurrence.
    The labels at a vertex are w beta for distinct positive roots beta,
    which are never proportional in a reduced root system, so the build
    checks no labels; the independence axiom of :func:`verify_gkm`
    reports that condition.
    """

    def __init__(self, rs: RootSystem, sigma1, sigma2):
        sigma1, sigma2 = check_sigmas(rs, sigma1, sigma2)
        self.rs = rs
        self.sigma1 = sigma1
        self.sigma2 = sigma2
        inner = set(rs.closure(sigma1))
        self.roots = [beta for beta in rs.closure(sigma2) if beta not in inner]
        self.reps: list[WeylElement] = rs.coset_reps(sigma1, sigma2)
        self._vertex = {w: p for p, w in enumerate(self.reps)}
        self.graph = self._build_graph()

    # ------------------------------------------------------------------

    def _build_graph(self) -> GkmGraph:
        rs, roots, sigma1 = self.rs, self.roots, self.sigma1
        d = len(roots)
        index = {beta: k for k, beta in enumerate(roots)}
        refl = [rs.reflection(beta) for beta in roots]
        # t[i][k] is the direction of s_i * roots[k]; perm[word][k] that of
        # u^-1 * roots[k] for u = s_i1 ... s_im, applying t_i1 first
        t = {i: [index[rs.simple_reflection(i).act_linear(b)] for b in roots] for i in sigma1}
        perm = {(): tuple(range(d))}
        # w beta depends on w only through its entries on the support of
        # beta: label_of sends (k, those entries) to the id of w beta in
        # labels, which numbers the labels in order of first occurrence
        support = [operator.itemgetter(*(i for i, c in enumerate(b.coeffs) if c)) for b in roots]
        labels, label_of = {}, {}
        dst, label_id, connection = [], [], []
        for w in self.reps:
            for k, beta in enumerate(roots):
                ws, word = rs.coset_min(w * refl[k], sigma1)
                if word not in perm:
                    perm[word] = tuple(reduce(lambda js, i: [t[i][j] for j in js], word, range(d)))
                q, dirs, key = self._vertex[ws], perm[word], (k, support[k](w))
                if key not in label_of:
                    label_of[key] = labels.setdefault(w.act_linear(beta), len(labels))
                dst.append(q)
                label_id.append(label_of[key])
                connection.append(dirs)
        names = [w.one_line_str() for w in self.reps]
        src = [p for p in range(len(names)) for _ in roots]
        return GkmGraph(rs.varcount, names, src, dst, labels, label_id, connection)

    # ------------------------------------------------------------------

    @property
    def nvertices(self) -> int:
        return len(self.reps)

    def vertex_of(self, w: WeylElement) -> int:
        """The vertex of the coset w W(Sigma1); KeyError for w outside W(Sigma2)."""
        if self.sigma1:
            w = self.rs.coset_min(w, self.sigma1)[0]
        return self._vertex[w]

    def __repr__(self):
        return (f"CosetGraph({self.rs.kind}{self.rs.rank}, "
                f"S1={sorted(self.sigma1)}, S2={sorted(self.sigma2)}, "
                f"{self.nvertices} vertices)")


def build_coset_graph(rs: RootSystem, sigma1, sigma2) -> CosetGraph:
    """Build (and cache, per root system) the coset graph for the pair."""
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
    bundles also carry their root system and Sigma pair, from which
    :func:`build_coset_graph` gives their coset graphs.
    """

    total: GkmGraph
    base: GkmGraph
    pi: list
    dpi: dict  # horizontal total edge -> base edge
    transitions: dict  # base edge -> Transition
    rs: RootSystem | None = None
    sigma1: frozenset | None = None
    sigma2: frozenset | None = None

    # -- fibers --------------------------------------------------------

    def fibers(self):
        """The total vertices over each base vertex, in increasing order: the
        one way fibers are derived, in one pass over pi."""
        out = [[] for _ in range(self.base.nvertices)]
        for q, p in enumerate(self.pi):
            out[p].append(q)
        return out

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


def build_bundle(rs: RootSystem, sigma1, sigma2) -> BundleMap:
    """The bundle W/W(Sigma1) -> W/W(Sigma2) with its transition data.

    pi sends [w] to [w] W(Sigma2), and the transition across a base edge
    labeled gamma sends [x] to [s_gamma x]; :func:`make_bundle` matches
    the horizontal edges to their base edges.
    """
    sigma1, sigma2 = check_sigmas(rs, sigma1, sigma2)
    full = rs.full_sigma()
    total = build_coset_graph(rs, sigma1, full)
    base = build_coset_graph(rs, sigma2, full)
    pi = [base.vertex_of(w) for w in total.reps]
    refls = [rs.reflection(base.graph.labels[k]) for k in base.graph.label_id]
    vmaps = [{} for _ in refls]
    for q, p in enumerate(pi):
        for beid in base.graph.edges_at[p]:
            vmaps[beid][q] = total.vertex_of(refls[beid] * total.reps[q])
    transitions = {beid: Transition(vmaps[beid], refl.matrix())
                   for beid, refl in enumerate(refls)}
    return replace(make_bundle(total.graph, base.graph, pi, transitions),
                   rs=rs, sigma1=sigma1, sigma2=sigma2)


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
    for eid, (p, q) in enumerate(zip(total.src, total.dst)):
        if pi[p] == pi[q]:
            continue
        cands = base.find_edges(pi[p], pi[q])
        if len(cands) > 1:
            cands = [c for c in cands if base.label(c) == total.label(eid)]
        if len(cands) != 1:
            raise ValueError(f"cannot project edge {total.edge_str(eid)}")
        dpi[eid] = cands[0]
    b = BundleMap(total=total, base=base, pi=pi, dpi=dpi, transitions={})
    if transitions is None:
        transitions = {}
        fibers = b.fibers()
        for beid, fiber in enumerate(map(fibers.__getitem__, base.src)):
            vmap = {p: total.dst[b.lift_edge(beid, p)] for p in fiber}
            transitions[beid] = Transition(vmap, _solve_transition_psi(b, beid, fiber, vmap))
    b.transitions = transitions
    return b


def _solve_transition_psi(b: BundleMap, beid: int, fiber, vmap):
    """Linear part x -> x + c(x)*alpha_e pinned by the labels of
    ``fiber``, the fiber over the tail of base edge beid."""
    total = b.total
    m = total.varcount
    alpha = b.base.label(beid)
    pairs = []
    for p in fiber:
        for eid in total.edges_at[p]:
            if eid in b.dpi:
                continue
            # the matching fiber edge between the transported endpoints
            targets = total.find_edges(vmap[p], vmap[total.dst[eid]])
            if len(targets) != 1:
                raise ValueError("ambiguous transported fiber edge")
            pairs.append((total.label(eid), total.label(targets[0])))
    rows = []
    rhs = []
    for v, w in pairs:
        c = (w - v).proportional_to(alpha)
        if c is None:
            raise ValueError("fiber labels do not shift along the base label")
        rows.append(list(v.coeffs))
        rhs.append(c)
    cvec = linalg.solve_fraction(rows, rhs) if rows else [0] * m
    if cvec is None:
        raise ValueError("no linear transition exists")
    c = LinearForm(cvec)
    # x -> x + c(x) alpha has determinant 1 + c(alpha); the data pins c only
    # on the fiber-label span, so steer the free part away from -1.
    c_alpha = c.dot(alpha)
    if 1 + c_alpha == 0:
        z = linalg.solve_fraction(rows + [list(alpha.coeffs)], [0] * len(rows) + [1])
        if z is None:
            raise ValueError("transition is singular on the fiber span")
        c = c - LinearForm(z).scale(c_alpha)
    return tuple((LinearForm(row) + c.scale(a)).coeffs
                 for row, a in zip(linalg.identity_matrix(m), alpha.coeffs))


def product_bundle(base: GkmGraph, fiber: GkmGraph) -> BundleMap:
    """The trivial bundle base x fiber -> base (labels share one space).

    Vertex (b, f) is b * |fiber| + f, and its star is the base star at b,
    then the fiber star at f, so a connection keeps the block it acts on
    and shifts the other.  The labels are interned in order of first
    occurrence."""
    if base.varcount != fiber.varcount:
        raise ValueError("base and fiber labels must share a coordinate space")
    nf = fiber.nvertices
    vertices = [f"{bv}|{fv}" for bv in base.vertices for fv in fiber.vertices]
    nb = [len(star) for star in base.edges_at]
    index: dict = {}  # the labels, numbered in order of first occurrence
    src, dst, label_id, connection = [], [], [], []
    for b_ in range(base.nvertices):
        for f_ in range(nf):
            df = len(fiber.edges_at[f_])
            src += [b_ * nf + f_] * (nb[b_] + df)
            for beid in base.edges_at[b_]:
                q = base.dst[beid]
                dst.append(q * nf + f_)
                label_id.append(index.setdefault(base.label(beid), len(index)))
                connection.append(base.connection[beid] + tuple(range(nb[q], nb[q] + df)))
            for feid in fiber.edges_at[f_]:
                dst.append(b_ * nf + fiber.dst[feid])
                label_id.append(index.setdefault(fiber.label(feid), len(index)))
                connection.append(tuple(range(nb[b_]))
                                  + tuple(nb[b_] + i for i in fiber.connection[feid]))
    total = GkmGraph(base.varcount, vertices, src, dst, index, label_id, connection)
    pi = [b_ for b_ in range(base.nvertices) for _ in range(nf)]
    return make_bundle(total, base, pi)


# ----------------------------------------------------------------------
# verification


def _projection_fault(b: BundleMap) -> list:
    """[why pi or dpi does not map into the graphs], or [] if they do: the
    first witness of every check that reads them."""
    if len(b.pi) != b.total.nvertices:
        return [f"pi has {len(b.pi)} entries for {b.total.nvertices} total vertices"]
    for q, p in enumerate(b.pi):
        if not 0 <= p < b.base.nvertices:
            return [f"pi sends {b.total.vertices[q]} to {p}, not a base vertex"]
    for eid, beid in b.dpi.items():
        if not 0 <= eid < len(b.total.src):
            return [f"dpi has key {eid}, not a total edge"]
        if not 0 <= beid < len(b.base.src):
            return [f"dpi sends {b.total.edge_str(eid)} to {beid}, not a base edge"]
    return []


def verify_fibration(b: BundleMap) -> Report:
    """graph-morphism and dpi-bijective.  When pi or dpi points outside
    the graphs, the first such entry is the first witness of both."""
    rep = Report()
    blocked = _projection_fault(b)
    rep.first("graph-morphism", chain(blocked, _morphism_faults(b)))
    rep.first("dpi-bijective", chain(blocked, (
        f"horizontal differential not bijective at vertex {b.total.vertices[q]}"
        for q in range(b.total.nvertices)
        if sorted(b.dpi[eid] for eid in b.total.edges_at[q] if eid in b.dpi)
        != sorted(b.base.edges_at[b.pi[q]]))))
    return rep


def _morphism_faults(b: BundleMap):
    """The graph-morphism witnesses, total edge by total edge."""
    for eid, (p, q) in enumerate(zip(b.total.src, b.total.dst)):
        beid = b.dpi.get(eid)
        if b.pi[p] == b.pi[q]:
            if beid is not None:
                yield f"edge {b.total.edge_str(eid)} misclassified"
        elif beid is None:
            yield f"horizontal edge {b.total.edge_str(eid)} has no projection"
        elif (b.base.src[beid], b.base.dst[beid]) != (b.pi[p], b.pi[q]):
            yield f"projection of {b.total.edge_str(eid)} has wrong endpoints"


def verify_fiber_bundle(b: BundleMap) -> Report:
    """All the fiber-bundle axioms, data-driven so mutations are caught.

    Every check is a walk that yields its witnesses in order, and
    :meth:`Report.first` keeps the first, so a walk stops at its first
    witness.  If pi or dpi points outside the graphs, the first such
    entry is the first witness of every bundle check, and nothing that
    reads them runs.  Label arithmetic runs per distinct label, not per
    edge, as in :func:`verify_gkm` (once per pair of labels that meet at
    the ends of an edge) and :func:`verify_iso` (Psi once per label): the
    transition-gkm-iso shift check asks "Psi(lambda) - lambda in
    Q*alpha" once per label lambda of the fiber subgraph over the tail of
    each base edge, read off its interned ``labels``, which are in order
    of first occurrence, so the first witness is that of a per-edge
    check.  The fibers come from :meth:`BundleMap.fibers`, once per call,
    and each fiber subgraph from :func:`induced_subgraph` on first use,
    which reads only the stars of the fiber's vertices, so all of them
    together read each total edge a bounded number of times; lifts come
    from :meth:`BundleMap.lift_edge`.  Nothing is stored on the bundle,
    whose data may change after construction.  The transition checks
    walk the base edges through :func:`_transition_faults`: an edge whose
    transition cannot be checked (none is stored, or its vertex map is
    not a bijection of fibers) is a witness, and so is a vertex at which
    a base edge has not exactly one lift.
    """
    rep = verify_fibration(b)
    for prefix, g in (("total-", b.total), ("base-", b.base)):
        for check in verify_gkm(g).checks:
            rep.add(prefix + check.name, check.passed, check.witness)
    blocked = _projection_fault(b)
    total, base, dpi = b.total, b.base, b.dpi
    fibers = [] if blocked else b.fibers()  # with a pi outside the base it would raise
    rep.first("lifted-labels", chain(blocked, (
        f"lift {total.edge_str(eid)} does not carry the base label {base.label(beid)}"
        for eid, beid in dpi.items() if total.label(eid) != base.label(beid))))
    rep.first("connection-preserves-class", chain(blocked, (
        f"connection along {total.edge_str(eid)} mixes vertical and horizontal at "
        f"{total.edge_str(e1)}"
        for eid in range(len(total.src)) for e1, e2 in total.connection_pairs(eid)
        if (e1 in dpi) != (e2 in dpi))))
    rep.first("horizontal-connection-compatible", chain(blocked, (
        f"horizontal connection over {base.edge_str(beid)} is not compatible at "
        f"{total.edge_str(e1)}"
        for eid, beid in dpi.items() for e1, e2 in total.connection_pairs(eid)
        # a wrong dpi can send e1 off the tail of beid, where it has no image
        if e1 in dpi and dpi.get(e2) != (base.along(beid, dpi[e1])
                                         if base.src[dpi[e1]] == base.src[beid] else None))))

    def disagrees(beid, t, p, lifted):
        if total.dst[lifted] != t.vmap[p]:
            yield (f"transition across {base.edge_str(beid)} disagrees "
                   f"with path lifting at {total.vertices[p]}")

    def unfollowed(beid, t, p, lifted):
        return (f"connection along a lift of {base.edge_str(beid)} does not follow the "
                f"transition at {total.edge_str(e1)}"
                for e1, e2 in total.connection_pairs(lifted)
                if e1 not in dpi and (total.src[e2] != t.vmap[p]
                                      or total.dst[e2] != t.vmap.get(total.dst[e1])))

    subgraphs = {}  # base vertex -> its fiber subgraph, built on first use

    def not_an_iso(beid, p, q, t):
        try:
            for end in (p, q):
                if end not in subgraphs:
                    subgraphs[end] = induced_subgraph(total, fibers[end])
        except ValueError as exc:  # induced_subgraph on a broken connection
            yield f"transition across {base.edge_str(beid)}: {exc}"
            return
        (sub_p, vmap_p, _), (sub_q, vmap_q, _) = subgraphs[p], subgraphs[q]
        # t as an isomorphism of the fiber subgraphs, renumbered by vmap_p and vmap_q
        phi = {vmap_p[x]: vmap_q[y] for x, y in t.vmap.items()}
        iso = GkmIso(tuple(phi[i] for i in range(len(vmap_p))), t.psi)
        if not verify_iso(iso, sub_p, sub_q):
            yield (f"transition across {base.edge_str(beid)} is not an "
                   f"isomorphism of labeled fibers")
        else:
            alpha = base.label(beid)
            yield from (f"linear part across {base.edge_str(beid)} does not shift {label} "
                        f"along {alpha}" for label in sub_p.labels
                        if (iso.apply_form(label) - label).proportional_to(alpha) is None)

    rep.first("transition-from-lifts", chain(blocked, _lift_faults(b, fibers, disagrees)))
    rep.first("transition-connection-compatible", chain(blocked, _lift_faults(b, fibers, unfollowed)))
    rep.first("transition-gkm-iso", chain(blocked, _transition_faults(b, fibers, not_an_iso)))
    return rep


def _transition_faults(b: BundleMap, fibers, faults):
    """The witnesses of one transition check, base edge by base edge: the
    reason an edge's transition cannot be used (none is stored, or its
    vertex map is not a bijection of the fibers), else the witnesses
    ``faults(beid, p, q, t)`` yields for the edge from p to q and its
    transition."""
    for beid, (p, q) in enumerate(zip(b.base.src, b.base.dst)):
        t = b.transitions.get(beid)
        if t is None:
            yield f"no transition stored for {b.base.edge_str(beid)}"
        elif sorted(t.vmap) != fibers[p] or sorted(t.vmap.values()) != fibers[q]:
            yield f"transition across {b.base.edge_str(beid)} is not a bijection"
        else:
            yield from faults(beid, p, q, t)


def _lift_faults(b: BundleMap, fibers, faults):
    """:func:`_transition_faults` of a check on the lifts of each base
    edge, vertex by vertex over its tail: where the edge has not exactly
    one lift, the text of :meth:`BundleMap.lift_edge`, else the witnesses
    ``faults(beid, t, x, lift)`` yields."""
    def at_edge(beid, p, q, t):
        for x in fibers[p]:
            try:
                lifted = b.lift_edge(beid, x)
            except ValueError as exc:
                yield str(exc)
            else:
                yield from faults(beid, t, x, lifted)
    return _transition_faults(b, fibers, at_edge)


# ----------------------------------------------------------------------
# holonomy


@dataclass
class HolonomyGroup:
    """A holonomy group at a base point, with the loops behind its
    generators.  :func:`holonomy` gives Weyl elements of W(Sigma2), and
    :func:`holonomy_exhaustive` isos of the typical fiber."""

    base_point: int
    generators: list  # (loop as base edge ids, element)
    elements: list  # the whole group, sorted: WeylElement by (length, one-line), or GkmIso
    matches_upsilon: bool | None = None

    @property
    def order(self) -> int:
        return len(self.elements)


def base_tree(g: GkmGraph, base_point: int):
    """(tree, chords) for a breadth-first spanning tree of the base g.

    ``tree`` lists the tree edges in BFS order from ``base_point``, so
    each leaves a vertex reached before; ``chords`` lists every base edge
    outside the tree once, in its lower-numbered orientation.  A base
    point outside 0..n-1 raises ValueError.
    """
    if not 0 <= base_point < g.nvertices:
        raise ValueError(f"base point {base_point} is not a base vertex 0..{g.nvertices - 1}")
    seen = {base_point}
    tree = []
    queue = [base_point]
    for p in queue:
        for eid in g.edges_at[p]:
            q = g.dst[eid]
            if q not in seen:
                seen.add(q)
                tree.append(eid)
                queue.append(q)
    in_tree = set(tree) | {g.reverse[eid] for eid in tree}
    chords = [eid for eid, r in enumerate(g.reverse) if eid not in in_tree and eid < r]
    return tree, chords


def tree_transport(base: CosetGraph, base_point: int):
    """(transports, generators) over the base coset graph W/W(Sigma2) of a
    coset bundle, from one walk of :func:`base_tree`.

    Transport across a base edge labeled gamma is left multiplication by
    s_gamma, so ``transports[q]`` = T_q . r (r the representative of the
    base point, T_q = s_gamma . T_src along the tree edge into q) carries
    the typical fiber onto the fiber over q: [u] -> [T_q r u].  Each chord
    e = (p -> q) closes the loop "tree path, e, tree path back" with
    holonomy h = (T_q r)^-1 . s_e . (T_p r) on the typical fiber.
    ``generators`` lists (chord, loop as base edge ids, h) for each chord
    whose h is not the identity and not met at an earlier chord.
    """
    rs, g = base.rs, base.graph
    tree, chords = base_tree(g, base_point)
    transports = {base_point: base.reps[base_point]}
    path = {base_point: []}
    src, dst = g.src, g.dst
    for eid in tree:
        transports[dst[eid]] = rs.reflection(g.label(eid)) * transports[src[eid]]
        path[dst[eid]] = path[src[eid]] + [eid]
    seen = {rs.identity()}
    generators = []
    for eid in chords:
        h = transports[dst[eid]].inverse() * rs.reflection(g.label(eid)) * transports[src[eid]]
        if h in seen:
            continue
        seen.add(h)
        loop = path[src[eid]] + [eid] + [g.reverse[f] for f in reversed(path[dst[eid]])]
        generators.append((eid, loop, h))
    return transports, generators


def left_multiplication(fib: CosetGraph, w: WeylElement) -> GkmIso:
    """Upsilon(w), left multiplication by w in W(Sigma2) on the typical
    fiber W(Sigma2)/W(Sigma1): u -> [w u], psi = w."""
    return GkmIso(tuple(fib.vertex_of(w * u) for u in fib.reps), w.matrix())


def holonomy(rs: RootSystem, sigma2, base_point: int = 0) -> HolonomyGroup:
    """The holonomy group of the coset bundles W/W(Sigma1) -> W/W(Sigma2),
    exactly, from one spanning tree, as a subgroup of W(Sigma2).

    It reads only the root system and Sigma2: the base W/W(Sigma2) comes
    from :func:`build_coset_graph`, and no bundle and no typical fiber is
    built.  Transport across a base edge labeled gamma is left
    multiplication by s_gamma, so transport along a path is one Weyl
    element.  :func:`tree_transport` walks the spanning tree once; each
    unoriented non-tree edge e = (p -> q) gives the loop "tree path, e,
    tree path back", whose holonomy is h = r^{-1} . T_q^{-1} . s_e .
    T_p . r, an element of W(Sigma2) (T the tree transport, r the base
    representative).  These loops generate the fundamental group of the
    base (Serre, *Trees*), and backtracking is trivial because an edge and
    its reverse carry the same reflection, so the distinct non-identity h
    generate the whole holonomy group.  Nothing here reads Sigma1: for
    every Sigma1 within Sigma2 the group is the same, acting on the
    typical fiber W(Sigma2)/W(Sigma1) by :func:`left_multiplication`.
    ``elements`` lists the group in canonical (length, one-line) order,
    ``generators`` the (loop as base edge ids, h) pairs, and
    ``matches_upsilon`` reports whether the group is all of W(Sigma2).  A
    bad Sigma2 raises ValueError as :func:`check_sigmas` does; when
    Sigma2 is every simple root the base is one vertex without loops, so
    ValueError is raised too, before any coset graph is built; so is a
    base point outside the base, by :func:`base_tree`.
    """
    _, sigma2 = check_sigmas(rs, (), sigma2)
    if sigma2 == rs.full_sigma():
        raise ValueError("Sigma2 contains every simple root, so the base is "
                         "one vertex and has no loops")
    _, generators = tree_transport(build_coset_graph(rs, sigma2, rs.full_sigma()), base_point)
    elements = group_closure([rs.identity()], [h for _, _, h in generators], operator.mul)
    return HolonomyGroup(
        base_point,
        [(loop, h) for _, loop, h in generators],
        sorted(elements, key=rs.sort_key),
        set(elements) == set(rs.parabolic_elements(sigma2)),
    )


def holonomy_exhaustive(b: BundleMap, base_point: int = 0) -> HolonomyGroup:
    """Subgroup generated by all based cycles of at most EXHAUSTIVE_MAX_LEN
    edges, on a base of at most EXHAUSTIVE_MAX_BASE vertices.

    It reads the base graph and the stored transitions of ``b``.  The
    walk starts in the frame the group is reported in: on a coset bundle
    the typical fiber W(Sigma2)/W(Sigma1), placed over the base point by
    its representative r (u goes to [r u], and Psi starts as r), so the
    group is the image of :func:`holonomy` under
    :func:`left_multiplication`; on other data the fiber over
    the base point, in increasing order, with Psi the identity.  A state
    is (base vertex, images of the start vertices, Psi), and each layer
    extends every state of the last along each base edge through its
    transition; a dict drops repeated states, so the layers hold the
    transports of all paths of each length without multiplying out one
    path twice.  A state back at the base point is the transport
    (position of each image among the start vertices, r^-1 Psi) of a
    loop.  ``generators`` holds one (loop, iso) pair per distinct
    transport, with the first loop that reached it, shortest first, and
    the group is closed over those isos.  Only guaranteed to exhaust the
    holonomy group for the coset bundles; for arbitrary data it reports
    the subgroup its cycles happen to generate.  A base point outside
    0..n-1 raises ValueError.
    """
    if b.base.nvertices > EXHAUSTIVE_MAX_BASE:
        raise ValueError("base too large for exhaustive cycle enumeration")
    if not 0 <= base_point < b.base.nvertices:
        raise ValueError(f"base point {base_point} is not a base vertex 0..{b.base.nvertices - 1}")
    ident = linalg.identity_matrix(b.total.varcount)
    if b.rs is None:
        start, psi, back = b.fibers()[base_point], ident, ident
    else:
        full = b.rs.full_sigma()
        r = build_coset_graph(b.rs, b.sigma2, full).reps[base_point]
        total = build_coset_graph(b.rs, b.sigma1, full)
        start = [total.vertex_of(r * u) for u in build_coset_graph(b.rs, b.sigma1, b.sigma2).reps]
        psi, back = r.matrix(), r.inverse().matrix()
    position = {x: i for i, x in enumerate(start)}
    layer = {(base_point, tuple(start), psi): []}  # state -> the first path reaching it
    found = {}  # transport -> the first loop reaching it
    for _ in range(EXHAUSTIVE_MAX_LEN):
        nxt = {}
        for (p, images, psi), path in layer.items():
            for eid in b.base.edges_at[p]:
                t = b.transitions[eid]
                state = (b.base.dst[eid], tuple(t.vmap[x] for x in images),
                         linalg.mat_mul(t.psi, psi))
                nxt.setdefault(state, path + [eid])
        layer = nxt
        for (p, images, psi), loop in layer.items():
            if p == base_point:
                iso = GkmIso(tuple(position[x] for x in images), linalg.mat_mul(back, psi))
                found.setdefault(iso, loop)
    elements = sorted(group_closure([GkmIso(tuple(range(len(start))), ident)], found, compose_iso))
    return HolonomyGroup(base_point, [(loop, iso) for iso, loop in found.items()], elements)


# ----------------------------------------------------------------------
# serialization


def bundle_json_chunks(b: BundleMap):
    """The bundle file as a generator of text chunks: an object with the
    ``"total"`` graph, each of its edges with a ``"class"``,
    ``"horizontal"`` or ``"vertical"``, the ``"base"`` graph, and the
    ``"projection"`` from total to base vertex names.  The graphs are laid
    out by :func:`gkmgraph.graph_json_chunks`, and the bytes are those of
    ``json.dumps`` with ``indent=1`` and a newline.
    """
    classes = ("horizontal" if eid in b.dpi else "vertical" for eid in range(len(b.total.src)))
    yield '{\n "total": '
    yield from graph_json_chunks(b.total, 1, classes)
    yield ',\n "base": '
    yield from graph_json_chunks(b.base, 1)
    yield ',\n "projection": '
    sep = "{\n  "
    for q, p in zip(b.total.vertices, b.pi):
        yield f"{sep}{_json_str(q)}: {_json_str(b.base.vertices[p])}"
        sep = ",\n  "
    yield "{}\n}\n" if sep[0] == "{" else "\n }\n}\n"


def bundle_from_json(data: dict) -> BundleMap:
    """Parse a bundle file (see :func:`bundle_json_chunks`); malformed
    input raises ValueError."""
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


# ----------------------------------------------------------------------
# classes


def lift_class(b: BundleMap, base_class: CohClass) -> CohClass:
    """Pull a base class up to the total space through the projection."""
    if base_class.graph is not b.base:
        raise ValueError("class does not live on the base")
    vals = [base_class.values[b.pi[q]] for q in range(b.total.nvertices)]
    return CohClass(b.total, vals)
