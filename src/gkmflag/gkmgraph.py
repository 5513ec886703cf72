"""Labeled graphs with connections, their axioms, and graph cohomology.

A graph here is regular, with *oriented* edges: an unoriented edge
between p and q shows up twice, once per orientation, and the two copies
carry opposite labels.  Each oriented edge e = (p, q) also carries a
connection map, a bijection from the edges at p to the edges at q sending
e to its reverse.  The edges at a vertex, in increasing id order, are its
*star*, and the connection along e is stored as positions in stars: a
tuple whose entry i is the position, within the star of q, of the image
of the i-th edge of the star of p.  On a coset graph the connection is
left multiplication by W(Sigma1) (Guillemin & Zara, Duke Math. J. 107,
2001), so its edges share at most |W(Sigma1)| such tuples.  Only this
module decodes the format: :meth:`GkmGraph.along` and
:meth:`GkmGraph.connection_pairs` read it as edge ids.  The axioms checked
by :func:`verify_gkm` are

1. reversal antisymmetry of labels,
2. pairwise independence of the labels at every vertex (full linear
   independence would fail on every flag graph with more edges at a
   vertex than dimensions), and
3. the congruence condition: along any edge e, a label and its
   connection image differ by a rational multiple of the label of e.

Every check here, and in ``parabolic.verify_fibration`` and
``parabolic.verify_fiber_bundle``, is a walk that yields its witnesses
in walk order; :meth:`Report.first` keeps the first, or records a pass,
and reads nothing after it, so each walk stops at its first witness.  In
a bundle, an entry of pi or dpi that points outside the graphs is the
first witness of every check that reads them.

A cohomology class assigns a polynomial to every vertex so that the two
ends of each edge agree modulo the edge label: their difference leaves
no remainder under ``Polynomial.divrem_linear``, ``polyring``'s one
division by a linear form, whose remainder is the restriction to the
hyperplane where the label vanishes.  Classes form a ring, and
pullback along an isomorphism sends classes to classes, so ring
operations and :func:`pullback_class` never re-check their output.  The
class condition is checked only where values come from outside the
ring: :func:`class_from_json` and the input of
``invbases.extend_invariant`` (its output is a class by construction).
The coefficients of ``invbases.express_in_basis`` are classes by
construction too: its exact interpolation on the base makes each one a
polynomial combination of the base classes.  Classes built from an invariant
polynomial, such as the level classes of ``invbases.tower_levels``
and the family that ``invbases.verify_basis`` proves, are classes by
proof and are not checked either.

Isomorphisms are pairs (Phi, Psi): a vertex bijection plus an invertible
linear map of the label space intertwining the labels, as in the
transition maps of a graph fiber bundle (Guillemin, Sabatini & Zara,
J. Algebraic Combin. 35, 2012).  Psi is a square matrix, one row per
coordinate, with entries in ``polyring``'s number normal form.

A graph is an immutable value, like ``Polynomial`` and ``LinearForm``:
its fields are tuples, fixed at construction.  A flag graph has
|W|*|Phi+| oriented edges but only |Phi| distinct labels, so the edges
are int columns (``src``, ``dst``, ``label_id``) beside ``labels``, each
distinct form once, in order of first occurrence, and no object is built
per edge: edge e is ``src[e]``, ``dst[e]`` and ``label(e)``.  The reverse
of each edge is not given but read off its connection, which sends the
edge to its reverse.  Verification does its label arithmetic once per
distinct label or pair of labels, by id, into tables local to one call,
and a changed graph is a new graph, so no derived data can go stale.

The text layout of a graph file is known only here:
:func:`graph_json_chunks` writes it as a stream of entries (a bundle file
nests two graphs through it), :func:`graph_from_text` reads a file's text
and hands its connection entries to :func:`graph_from_json` one at a
time, :func:`graph_from_json` also builds a graph from the parsed data
(each graph of a bundle file), and :func:`graph_to_json` gives the file
as a dict, which :func:`graph_hash` hashes.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, combinations, repeat
from operator import itemgetter
from json.decoder import WHITESPACE, scanstring as _scanstring
from json.encoder import encode_basestring_ascii as _json_str

from . import linalg
from .polyring import LinearForm, Polynomial, _div, parse_polynomial, parse_rational

__all__ = [
    "GkmGraph",
    "CohClass",
    "GkmIso",
    "Check",
    "Report",
    "verify_gkm",
    "coh_failure",
    "degree_of",
    "induced_subgraph",
    "verify_iso",
    "pullback_class",
    "compose_iso",
    "complete_graph",
    "graph_to_json",
    "graph_from_json",
    "graph_from_text",
    "graph_json_chunks",
    "graph_hash",
    "graph_to_dot",
    "class_to_json",
    "class_from_json",
]


@dataclass
class Check:
    name: str
    passed: bool
    witness: str = ""

    def line(self) -> str:
        tail = f" {self.witness}" if (not self.passed and self.witness) else ""
        return f"CHECK {self.name}: {'PASS' if self.passed else 'FAIL'}{tail}"


@dataclass
class Report:
    checks: list = field(default_factory=list)

    def add(self, name: str, passed: bool, witness: str = ""):
        self.checks.append(Check(name, passed, witness))

    def first(self, name: str, witnesses):
        """Record check ``name``: it fails with the first of ``witnesses``,
        an iterable of witness texts, and passes if there is none.  No item
        after the first is read, so a lazy walk stops at its first witness."""
        witness = next(iter(witnesses), None)
        self.add(name, witness is None, witness or "")

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        return "\n".join(c.line() for c in self.checks)


class GkmGraph:
    """Vertices, oriented labeled edges, and a stored per-edge connection.

    ``GkmGraph(varcount, vertices, src, dst, labels, label_id,
    connection)``: edge e runs from ``src[e]`` to ``dst[e]`` and is
    labeled ``labels[label_id[e]]`` (also ``label(e)``), where ``labels``
    are the distinct labels in order of first occurrence.
    ``connection[e]`` is a tuple of positions: entry i is the position, in
    the star of dst(e), of the image of ``edges_at[src(e)][i]``; equal
    tuples may be one shared object.  Immutable: every field is a tuple.

    Derived here: ``edges_at[p]``, the star of p, its edge ids in
    increasing order; ``slot[e]``, the position of e in the star of its
    tail; and ``reverse[e]``, where the connection along e sends e itself
    (Guillemin & Zara), ``edges_at[dst[e]][connection[e][slot[e]]]``.
    The graph has ``len(src)`` edges.

    Refused, with ValueError: columns of unequal length, a label without
    ``varcount`` coefficients, a label given twice, label ids that do not
    number ``labels`` in order of first occurrence (so an id out of
    range), an edge end that is not a vertex, and a connection tuple
    whose length is not the degree of the tail or whose positions fall
    outside the star of the head.  Each label is checked once, and each
    connection tuple once per pair of tail and head degrees it meets, so
    every connection is a function from star to star and every reverse is
    an edge at the head; whether the connection is a bijection, and the
    reverse an involution, is left to :func:`verify_gkm`.
    """

    def __init__(self, varcount: int, vertices: Sequence[str], src: Sequence[int],
                 dst: Sequence[int], labels: Sequence[LinearForm], label_id: Sequence[int],
                 connection: Sequence[Sequence[int]]):
        self.varcount, self.vertices, self.labels = varcount, tuple(vertices), tuple(labels)
        self.src, self.dst, self.label_id = map(tuple, (src, dst, label_id))
        self.connection = tuple(map(tuple, connection))
        if len(set(map(len, (self.src, self.dst, self.label_id, self.connection)))) > 1:
            raise ValueError("edge columns and connection must have equal length")
        for form in self.labels:
            if form.varcount != varcount:
                raise ValueError(f"label {form} has {form.varcount} coefficients, not {varcount}")
        if (len(set(self.labels)) != len(self.labels)
                or list(dict.fromkeys(self.label_id)) != list(range(len(self.labels)))):
            raise ValueError("labels must be distinct and numbered in order of first occurrence")
        if self.src and not 0 <= min(ends := self.src + self.dst) <= max(ends) < len(vertices):
            raise ValueError(f"edge ends must be vertices 0..{self.nvertices - 1}")
        self.edges_at, self.slot = _stars(self.src, self.nvertices)
        degree = list(map(len, self.edges_at)).__getitem__
        keys = set(zip(self.connection, map(degree, self.src), map(degree, self.dst)))
        bad = {(conn, tail, head) for conn, tail, head in keys
               if len(conn) != tail or not 0 <= min(conn) <= max(conn) < head}
        if bad:
            eid = next(e for e, (conn, p, q) in enumerate(zip(self.connection, self.src, self.dst))
                       if (conn, degree(p), degree(q)) in bad)
            raise ValueError(f"a connection must give a position in the star of vertex "
                             f"{self.dst[eid]} for each edge at vertex {self.src[eid]}")
        self.reverse = tuple(self.edges_at[q][conn[i]]
                             for q, conn, i in zip(self.dst, self.connection, self.slot))

    @property
    def nvertices(self) -> int:
        return len(self.vertices)

    def label(self, eid: int) -> LinearForm:
        return self.labels[self.label_id[eid]]

    def along(self, eid: int, x: int) -> int:
        """The image of x, an edge at the tail of eid, under the connection
        along eid.  An edge elsewhere has no image; the caller checks."""
        return self.edges_at[self.dst[eid]][self.connection[eid][self.slot[x]]]

    def connection_pairs(self, eid: int):
        """(x, image of x) for each edge x at the tail of eid, in star order."""
        return zip(self.edges_at[self.src[eid]],
                   map(self.edges_at[self.dst[eid]].__getitem__, self.connection[eid]))

    def find_edges(self, src: int, dst: int):
        return [eid for eid in self.edges_at[src] if self.dst[eid] == dst]

    def edge_str(self, eid: int) -> str:
        names = self.vertices
        return f"({names[self.src[eid]]} -> {names[self.dst[eid]]}; {self.label(eid)})"

    def __repr__(self):
        return f"GkmGraph({self.nvertices} vertices, {len(self.src)} oriented edges)"


def _stars(src: Sequence[int], nvertices: int):
    """(edges_at, slot) for the tails ``src``: the star of each vertex and
    each edge's position in the star of its tail."""
    edges_at: list[list[int]] = [[] for _ in range(nvertices)]
    slot = []
    for eid, p in enumerate(src):
        slot.append(len(edges_at[p]))
        edges_at[p].append(eid)
    return tuple(map(tuple, edges_at)), tuple(slot)


# ----------------------------------------------------------------------
# axiom verification


def verify_gkm(g: GkmGraph) -> Report:
    """Check the connection/axial-function axioms; report first witnesses.

    Each check is a walk that yields its witnesses in order, and
    :meth:`Report.first` keeps the first.  A flag graph carries only
    |Phi| distinct labels but |W|*|Phi+|^2 connection entries, so every
    ``LinearForm`` operation runs once per distinct label or pair of
    labels, into tables local to the call, and each star or edge is then
    tested by lookups in them.  A label k and its negation share one
    entry of each table, at the first of them, its home h; near[h] is the
    set of labels at both ends of the edges labelled k or -k.

    - Congruence.  By the uniqueness of ``divrem_linear``'s (q, r) with r
      free of the pivot variable of k, and since q is a constant when the
      dividend is linear, b - a lies in Q*k iff a and b leave the same
      remainder modulo k (for k = 0: iff a == b).  :func:`_residue_rows`
      numbers the remainders of the labels in near[h], which are those
      the edges labelled k or -k read, so an edge passes iff the residues
      of the labels at its tail equal those at its head permuted by its
      connection.
    - Independence.  Each nonzero label gets the number of its direction
      (:func:`_direction`, the label scaled to lead with coefficient 1),
      so two nonzero labels are proportional iff their ids are equal; the
      zero label's id is None.  A star of nonzero labels with distinct ids
      passes; any other star walks its pairs with ``proportional_to``,
      whose zero form is proportional to every form while no nonzero form
      is proportional to it.
    - Connection shape.  Whether a connection tuple has distinct entries,
      and its inverse permutation, are found once per distinct tuple.

    Only a star or edge that fails its table test walks its pairs, so
    the walks over vertices and edges, and the first witness of each
    check, are those of a per-edge check.  Each label takes one scaling,
    each home h at most |near[h]| divisions, and the sizes
    |near[h]| sum to at most min(|L|*|homes|, 2N) for |L| distinct labels
    and N connection entries: |Phi|^2/2 on a flag graph, and about N on a
    graph whose labels are mostly distinct, such as K_n or CP^n.
    """
    rep = Report()
    lid = g.label_id
    index = {form: k for k, form in enumerate(g.labels)}
    neg = [index.get(-form) for form in g.labels]  # the id of each label's negation
    rep.first("edge-reversal", _reversal_faults(g, neg))
    degrees = {len(g.edges_at[p]) for p in range(g.nvertices)}
    rep.add("regular", len(degrees) <= 1, f"vertex degrees {sorted(degrees)}")
    # home[k]: the first of k and -k, whose table row the two share
    home = [k if n is None else min(k, n) for k, n in enumerate(neg)]
    stars = [[lid[e] for e in star] for star in g.edges_at]
    # near[h]: the labels at both ends of every edge labelled h or -h, the
    # entries of row h that the congruence test reads; it holds every label
    # that shares a star with h or -h, and stops growing once it holds all
    near: list[set] = [set() for _ in home]
    for p, q, h in zip(g.src, g.dst, map(home.__getitem__, lid)):
        if len(near[h]) < len(home):
            near[h].update(stars[p], stars[q])
    at = [_picker(star) for star in stars]  # at[p] reads a table row at the labels of star p
    directions: dict = {None: None}  # numbered in order of first occurrence; zero stays None
    ids = [directions.setdefault(_direction(form), len(directions)) for form in g.labels]
    rep.first("independence", (
        f"labels {g.label(e1)} and {g.label(e2)} at vertex {g.vertices[p]} are proportional"
        # a zero label (id None) or a repeated direction sends a star to its pairs
        for p, star in enumerate(g.edges_at) if len({*at[p](ids), None}) <= len(star)
        for e1, e2 in combinations(star, 2)
        if g.label(e1).proportional_to(g.label(e2)) is not None))
    conns: dict[tuple, int] = {}  # the distinct connection tuples, numbered
    cid = [conns.setdefault(conn, len(conns)) for conn in g.connection]
    rep.first("connection-shape", _shape_faults(g, cid, list(conns)))
    permute = [_picker(conn) for conn in conns]
    rows = _residue_rows(g.labels, home, near)
    rep.first("congruence", (
        f"congruence fails along {g.edge_str(eid)} at {g.edge_str(e1)} -> {g.edge_str(e2)}"
        for eid, (p, q, c, row) in enumerate(zip(g.src, g.dst, cid, map(rows.__getitem__, lid)))
        if at[p](row) != permute[c](at[q](row))
        for e1, e2 in g.connection_pairs(eid) if row[lid[e1]] != row[lid[e2]]))
    return rep


def _picker(idx):
    """The function taking s to ``tuple(s[i] for i in idx)``; it is
    ``itemgetter`` but for fewer than two indices, where ``itemgetter``
    gives a bare item or refuses."""
    return itemgetter(*idx) if len(idx) > 1 else lambda s: tuple(s[i] for i in idx)


def _residue_rows(labels: Sequence[LinearForm], home: Sequence[int], near: Sequence) -> list:
    """rows[k][a], for a in ``near[home[k]]``: the id of the remainder of
    labels[a] under ``divrem_linear`` by labels[k], numbered per row, so
    that rows[k][a] == rows[k][b] iff labels[b] - labels[a] lies in
    Q*labels[k]; other entries are None.  Labels k and -k share the row of
    ``home[k]``, and the zero label's row is the identity, the labels
    being distinct."""
    polys = [form.to_polynomial() for form in labels]
    rows: list = []
    for k, form in enumerate(labels):
        if home[k] < k:
            rows.append(rows[home[k]])
        elif form.is_zero():
            rows.append(range(len(labels)))
        else:
            ids: dict[Polynomial, int] = {}
            rows.append(row := [None] * len(labels))
            for a in near[k]:
                row[a] = ids.setdefault(polys[a].divrem_linear(form)[1], len(ids))
    return rows


def _direction(form: LinearForm):
    """None for the zero form, else the form scaled by the inverse of its
    first nonzero coefficient: two nonzero forms are proportional iff
    their directions are equal."""
    lead = next((c for c in form.coeffs if c), None)
    return None if lead is None else form.scale(_div(1, lead))


def _reversal_faults(g: GkmGraph, neg: Sequence):
    """The edge-reversal witnesses, edge by edge.  ``neg[k]`` is the id of
    the negation of label k, or None, so labels are compared by id; only
    the zero label is its own negation.  The reverse r of e lies at the
    head of e, so r leads back to the tail of e exactly when its own
    reverse is e: a valid reverse has the endpoints of e swapped."""
    for eid, (r, k) in enumerate(zip(g.reverse, g.label_id)):
        if not g.reverse[r] == eid != r:
            yield f"edge {g.edge_str(eid)} has no valid reverse"
        elif g.label_id[r] != neg[k]:
            yield f"label of reverse of {g.edge_str(eid)} is not negated"
        elif neg[k] == k:
            yield f"zero label on {g.edge_str(eid)}"


def _shape_faults(g: GkmGraph, cid: Sequence[int], conns: Sequence[tuple]):
    """The connection-shape witnesses, edge by edge.  ``cid[e]`` is the
    index in ``conns``, the distinct connection tuples, of the tuple of e.
    Whether a tuple has distinct entries, and its inverse if it does, are
    found once per tuple; a tuple with distinct entries is a bijection
    onto the star of the head iff it is as long as that star.  It sends e
    to its reverse by the definition of ``reverse``."""
    distinct = [len(set(conn)) == len(conn) for conn in conns]
    inverse = [tuple(sorted(range(len(conn)), key=conn.__getitem__)) for conn in conns]
    for eid, (src, dst, conn, c, r) in enumerate(zip(g.src, g.dst, g.connection, cid, g.reverse)):
        if not (distinct[c] and len(conn) == len(g.edges_at[dst])):
            yield f"connection along {g.edge_str(eid)} is not a bijection E_p -> E_q"
        # r lies at the head of e; its connection undoes conn exactly when it
        # leads back to the tail of e and is the inverse permutation
        elif g.dst[r] != src or g.connection[r] != inverse[c]:
            yield f"connection along reverse of {g.edge_str(eid)} is not the inverse"


# ----------------------------------------------------------------------
# cohomology classes

class CohClass:
    """A vertex-indexed family of polynomials subject to edge divisibility."""

    __slots__ = ("graph", "values")

    def __init__(self, graph: GkmGraph, values: Sequence[Polynomial]):
        if len(values) != graph.nvertices:
            raise ValueError("need one value per vertex")
        for v in values:
            if v.varcount != graph.varcount:
                raise ValueError("value varcount does not match graph")
        self.graph = graph
        self.values = tuple(values)

    @classmethod
    def constant(cls, graph: GkmGraph, c) -> "CohClass":
        return cls(graph, [Polynomial.constant(graph.varcount, c)] * graph.nvertices)

    def _binop(self, other, op):
        if isinstance(other, CohClass):
            if other.graph is not self.graph:
                raise ValueError("classes live on different graphs")
            vals = [op(a, b) for a, b in zip(self.values, other.values)]
        else:
            raise TypeError("expected CohClass")
        return CohClass(self.graph, vals)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return self.scale_poly(other)
        return self._binop(other, lambda a, b: a * b)

    def scale_poly(self, f: Polynomial) -> "CohClass":
        vals = [f * v for v in self.values]
        return CohClass(self.graph, vals)

    def scale(self, c) -> "CohClass":
        return CohClass(self.graph, [v.scale(c) for v in self.values])

    def __eq__(self, other):
        return (
            isinstance(other, CohClass)
            and self.graph is other.graph
            and self.values == other.values
        )

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        body = ", ".join(
            f"{n}: {v}" for n, v in zip(self.graph.vertices, self.values)
        )
        return f"CohClass({body})"


def coh_failure(c: CohClass):
    """The first edge violating divisibility, or None if c is a class.

    Each unoriented edge is checked once, in edge order: the difference
    of the values at its ends must leave no remainder under
    ``Polynomial.divrem_linear`` by the label, that is, vanish on the
    hyperplane where the label does.  An edge whose two values are equal
    passes without a division.
    """
    g, values = c.graph, c.values
    for eid, (p, q, r, k) in enumerate(zip(g.src, g.dst, g.reverse, g.label_id)):
        if eid > r:
            continue  # each unoriented edge once
        hi, lo = values[q], values[p]
        if hi != lo and not (hi - lo).divrem_linear(g.labels[k])[1].is_zero():
            return eid
    return None


def degree_of(c: CohClass):
    """2k when every nonzero value is homogeneous of degree k; else None."""
    degs = set()
    for v in c.values:
        if v.is_zero():
            continue
        d = v.homogeneous_degree()
        if d is None:
            return None
        degs.add(d)
    if not degs:
        return 0
    if len(degs) > 1:
        return None
    return 2 * degs.pop()


# ----------------------------------------------------------------------
# subgraphs


def _induced_edges(g: GkmGraph, vs: set) -> list:
    """The ids of the edges with both ends in ``vs``, in increasing order:
    the edges in the stars of vs whose heads lie in vs.  The order is that
    of the edge ids even where edges are not grouped by tail, as in a graph
    read from a file."""
    if not all(type(p) is int and 0 <= p < g.nvertices for p in vs):
        raise ValueError(f"vertex set holds a vertex outside 0..{g.nvertices - 1}")
    return sorted(eid for p in vs for eid in g.edges_at[p] if g.dst[eid] in vs)


def _restricts(g: GkmGraph, vs: set, induced) -> bool:
    """Does the stored connection preserve ``induced``, the edges vs
    induces?  A walk along them from one vertex must reach all of vs, or
    ValueError is raised; then the connection along each of them must send
    the induced edges at its tail onto those at its head.  Only the stars
    of vs are visited, so the cost does not grow with g."""
    stack = sorted(vs)[:1]
    seen = set(stack)
    while stack:
        for eid in g.edges_at[stack.pop()]:
            if eid in induced and g.dst[eid] not in seen:
                seen.add(g.dst[eid])
                stack.append(g.dst[eid])
    if len(seen) != len(vs):
        raise ValueError("vertex set induces a disconnected subgraph")
    return all({b for a, b in g.connection_pairs(eid) if a in induced}
               == {x for x in g.edges_at[g.dst[eid]] if x in induced} for eid in induced)


def induced_subgraph(g: GkmGraph, vertexset):
    """The induced GKM subgraph; returns (graph, vertex_map, edge_map).

    vertex_map and edge_map send old indices to new ones, both in
    increasing order.  Raises ValueError if the set is not one of vertex
    indices, if it induces a disconnected subgraph, and if the stored
    connection does not restrict (the set is not a GKM subgraph for the
    stored connection).  Only the stars of the set are visited, and the
    induced edges are found once.
    """
    vs = set(vertexset)
    eids = _induced_edges(g, vs)
    emap = {old: new for new, old in enumerate(eids)}
    if not _restricts(g, vs, emap):
        raise ValueError("not a GKM subgraph for the stored connection")
    vmap = {old: new for new, old in enumerate(sorted(vs))}
    src = [vmap[g.src[eid]] for eid in eids]
    # the labels of the induced edges, renumbered in order of first occurrence
    ids = [g.label_id[eid] for eid in eids]
    renumber = {k: new for new, k in enumerate(dict.fromkeys(ids))}
    _, slot = _stars(src, len(vs))
    connection = [tuple(slot[emap[b]] for a, b in g.connection_pairs(eid) if a in emap)
                  for eid in eids]
    return GkmGraph(
        g.varcount, [g.vertices[v] for v in vmap], src, [vmap[g.dst[eid]] for eid in eids],
        [g.labels[k] for k in renumber], [renumber[k] for k in ids], connection), vmap, emap


# ----------------------------------------------------------------------
# isomorphisms


@dataclass(frozen=True, order=True)
class GkmIso:
    """A vertex bijection Phi plus a label-intertwining linear map Psi.

    ``phi`` maps vertex indices of the source graph to vertex indices of
    the target; ``psi`` is a square matrix applied to labels.  Isos
    compare, hash and sort as the pair (phi, psi).
    """

    phi: tuple
    psi: tuple

    def apply_form(self, form: LinearForm) -> LinearForm:
        return LinearForm(linalg.mat_vec(self.psi, form.coeffs))


def verify_iso(iso: GkmIso, g1: GkmGraph, g2: GkmGraph) -> bool:
    """Graph morphism + bijectivity + label intertwining, all by inspection.

    Psi must be an invertible m x m matrix, m the label dimension of both
    graphs; it is applied once per distinct source label, by label id.
    """
    if len(iso.phi) != g1.nvertices or sorted(iso.phi) != list(range(g2.nvertices)):
        return False
    m = g1.varcount
    if g2.varcount != m or len(iso.psi) != m or any(len(r) != m for r in iso.psi):
        return False
    if linalg.rank_fraction(iso.psi) != m:
        return False
    image = [iso.apply_form(label).coeffs for label in g1.labels]
    for p in range(g1.nvertices):
        have = sorted((iso.phi[g1.dst[eid]], image[g1.label_id[eid]]) for eid in g1.edges_at[p])
        want = sorted((g2.dst[eid], g2.label(eid).coeffs) for eid in g2.edges_at[iso.phi[p]])
        if have != want:
            return False
    return True


def compose_iso(first: GkmIso, second: GkmIso) -> GkmIso:
    """second after first (first: G1->G2, second: G2->G3)."""
    phi = tuple(second.phi[p] for p in first.phi)
    psi = linalg.mat_mul(second.psi, first.psi)
    return GkmIso(phi, psi)


def pullback_class(iso: GkmIso, g1: GkmGraph, g2: GkmGraph, c2: CohClass) -> CohClass:
    """Pull a class on g2 back to g1 through (Phi, Psi).

    The value at p is Psi^{-1} applied to the value at Phi(p).
    """
    inv = linalg.invert_fraction(iso.psi)
    if inv is None:
        raise ValueError("Psi is not invertible")
    images = [LinearForm(col) for col in zip(*inv)]
    vals = [c2.values[iso.phi[p]].substitute_linear(images)
            for p in range(g1.nvertices)]
    return CohClass(g1, vals)


# ----------------------------------------------------------------------
# stock graphs


def complete_graph(n: int) -> GkmGraph:
    """K_n with labels x_i - x_j and the standard connection.

    Along (i, j) the connection sends (i, k) to (j, k) and (i, j) to
    (j, i); every triangle closes, which is what makes the labels sum to
    zero around it.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]  # the edges, all labels distinct
    labels = [LinearForm([(k == i) - (k == j) for k in range(n)]) for i, j in pairs]
    # (j, k) is at position k - (k > j) of the star at j; along (i, j),
    # (i, k) goes to (j, k) and (i, j) to (j, i)
    connection = [tuple(k - (k > j) for k in (i if k == j else k for k in range(n) if k != i))
                  for i, j in pairs]
    return GkmGraph(n, [str(i + 1) for i in range(n)], *zip(*pairs), labels, range(len(pairs)),
                    connection)


# ----------------------------------------------------------------------
# serialization


def graph_to_json(g: GkmGraph) -> dict:
    """The graph file as a dict, which :func:`graph_hash` hashes; the file
    itself is written by :func:`graph_json_chunks`."""
    return {
        "varcount": g.varcount,
        "vertices": list(g.vertices),
        "edges": [
            {"src": p, "dst": q, "alpha": [str(c) for c in g.labels[k].coeffs]}
            for p, q, k in zip(g.src, g.dst, g.label_id)
        ],
        "connection": [
            {"edge": [p, q], "map": [[a, b] for a, b in g.connection_pairs(eid)]}
            for eid, (p, q) in enumerate(zip(g.src, g.dst))
        ],
    }


def graph_json_chunks(g: GkmGraph, depth: int = 0, edge_class: Sequence[str] | None = None):
    """The graph file, ``json.dumps(graph_to_json(g), indent=1)`` and a
    newline, as a generator of text chunks: one per vertex name, per edge
    entry and per connection entry, so the whole file is never held as text.

    Each entry is one ``%``-template filled with integers, and each string
    goes through the escaping ``json`` itself uses (``ensure_ascii``), so
    the bytes are those of ``json.dumps``.  A label's ``alpha`` block is
    formatted once per distinct label.  ``depth`` > 0 writes the graph as a
    value nested that many levels deep in a larger object, with no newline
    after it; ``edge_class``, if given, is written after each edge's
    ``alpha`` as its ``"class"`` (the total graph of a bundle file).
    """
    i0, i1, i2, i3, i4, i5 = ("\n" + " " * (depth + k) for k in range(6))
    yield f'{{{i1}"varcount": {g.varcount},{i1}"vertices": '
    yield from _json_items(map(_json_str, g.vertices), i2, i1)
    yield f',{i1}"edges": '
    alpha = [f'"alpha": {"".join(_json_items(map(_json_str, map(str, label.coeffs)), i4, i3))}'
             for label in g.labels]
    extra = (repeat("") if edge_class is None
             else (f',{i3}"class": {_json_str(c)}' for c in edge_class))
    entry = f'{{{i3}"src": %d,{i3}"dst": %d,{i3}%s%s{i2}}}'
    entries = (entry % (src, dst, alpha[k], x)
               for src, dst, k, x in zip(g.src, g.dst, g.label_id, extra))
    yield from _json_items(entries, i2, i1)
    yield f',{i1}"connection": '
    # one template per star size: the edge, then its (edge, image) id pairs
    head = f'{{{i3}"edge": [{i4}%d,{i4}%d{i3}],{i3}"map": [{i4}'
    pair, tail = f"[{i5}%d,{i5}%d{i4}]", f"{i3}]{i2}}}"
    templates = {deg: head + f",{i4}".join([pair] * deg) + tail
                 for deg in set(map(len, filter(None, g.edges_at)))}
    entries = (templates[len(g.edges_at[src])]
               % (src, dst, *chain.from_iterable(g.connection_pairs(eid)))
               for eid, (src, dst) in enumerate(zip(g.src, g.dst)))
    yield from _json_items(entries, i2, i1)
    yield i0 + "}" + ("" if depth else "\n")


def _json_items(texts, inner: str, outer: str):
    """Chunks of a JSON list of items already written as text, indented as
    ``json.dumps`` indents it: each item after ``inner``, the closing
    bracket after ``outer``."""
    sep = "[" + inner
    for text in texts:
        yield sep + text
        sep = "," + inner
    yield "[]" if sep[0] == "[" else outer + "]"


_DECODER = json.JSONDecoder()
_space = WHITESPACE.match  # _space(text, pos).end(): the end of the whitespace at pos
_HEAD_KEYS = {"varcount", "vertices", "edges"}  # what graph_from_json reads before the connection


def graph_from_text(text: str) -> GkmGraph:
    """Read a graph file, given as its text.

    The top-level object is decoded here, key by key, with ``json``'s
    own decoder for each key and each value.  A ``connection`` list that
    follows ``varcount``, ``vertices`` and ``edges``, as in every written
    file, is not decoded whole: :func:`graph_from_json` gets an iterator
    that decodes its entries one at a time.  In any other order it is
    decoded whole; both feed the same checks.  Text that is not one JSON
    value raises ``json.JSONDecodeError``, as ``json.loads`` does, and so
    does a key repeated in the top-level object, whose last value
    ``json.loads`` would keep.
    """
    pos = _space(text, 0).end()
    # anything but an object is decoded whole, for graph_from_json to refuse
    return graph_from_json(_members(text, pos + 1, {}) if text[pos:pos + 1] == "{"
                           else json.loads(text))


def _members(text: str, pos: int, data: dict):
    """Decode members of the top-level object into ``data``, from ``pos``,
    just after its ``{`` or after the last member in ``data``, through the
    end of the text, and return ``data``.  A ``connection`` list after the
    other three keys becomes an iterator, :func:`_entries`, which decodes
    the rest of the object once the list is read: keys that
    :func:`graph_from_json` does not read, checked for syntax and
    repetition against a copy of the keys, so that no cycle holds ``data``
    and the text.  Text is indexed only through slices, so no input raises
    IndexError."""
    pos = _space(text, pos).end()
    while text[pos:pos + 1] != "}":
        if data:
            pos = _after(text, pos, ",")
        if text[pos:pos + 1] != '"':
            raise json.JSONDecodeError("Expecting property name in double quotes", text, pos)
        key, end = _scanstring(text, pos + 1)
        if key in data:
            raise json.JSONDecodeError(f"Repeated key {key!r}", text, pos)
        pos = _after(text, end, ":")
        if key == "connection" and text[pos:pos + 1] == "[" and data.keys() >= _HEAD_KEYS:
            data[key] = _entries(text, pos + 1, dict.fromkeys([*data, key]))
            return data
        data[key], pos = _DECODER.raw_decode(text, pos)
        pos = _space(text, pos).end()
    pos = _space(text, pos + 1).end()
    if pos != len(text):
        raise json.JSONDecodeError("Extra data", text, pos)
    return data


def _entries(text: str, pos: int, seen: dict):
    """The entries of the list that opens just before ``pos``, each
    decoded as it is read; after the list, :func:`_members` decodes the
    rest of the object into ``seen``, which holds the keys before it."""
    pos, more = _space(text, pos).end(), False
    while text[pos:pos + 1] != "]":
        if more:
            pos = _after(text, pos, ",")
        entry, pos = _DECODER.raw_decode(text, pos)
        yield entry
        pos, more = _space(text, pos).end(), True
    _members(text, pos + 1, seen)


def _after(text: str, pos: int, char: str) -> int:
    """The position past ``char``, which must come next at or after
    ``pos`` but for whitespace, and past the whitespace after it."""
    pos = _space(text, pos).end()
    if text[pos:pos + 1] != char:
        raise json.JSONDecodeError(f"Expecting {char!r} delimiter", text, pos)
    return _space(text, pos + 1).end()


def graph_from_json(data: dict) -> GkmGraph:
    """Parse :func:`graph_to_json` output, whose ``connection`` may also be
    an iterator over its entries, as :func:`graph_from_text` gives it.

    Malformed structure raises ValueError: types, index ranges, label
    lengths, vertex names that are not distinct strings, a connection
    ``edge`` that is not ``[src, dst]`` of the edge with the same index,
    and a connection ``map`` that is not a function from the edges at the
    tail to the edges at the head (every edge at the tail paired once, each
    with an edge at the head).  The edge entries are checked column by
    column, and only a failure walks them one at a time, to name the first
    bad entry; equal forms written differently share one label.  The
    connection entries are read in order, once: each ``edge`` is checked
    as it arrives, and the first bad one is named at once, before any bad
    map.  Each ``map`` is held only until the last edge of its tail's star
    has arrived; then the maps of that star are read together and
    dropped, and the lowest edge whose map fails is named after the last
    entry.  Equal connection tuples are stored once.  The graph is handed
    over as columns, with the labels and ids read here.  The axioms,
    bijectivity of the connection among them, are left to
    :func:`verify_gkm`.
    """
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    m, vertices = data.get("varcount"), data.get("vertices")
    if type(m) is not int or m < 1 or not isinstance(vertices, list):
        raise ValueError("need an integer varcount >= 1 and a list of vertices")
    if not all(isinstance(v, str) for v in vertices) or len(set(vertices)) != len(vertices):
        raise ValueError("vertex names must be distinct strings")
    raw_edges, raw_connection = data.get("edges"), data.get("connection")
    unequal = "edges and connection must be lists of equal length"
    if not (isinstance(raw_edges, list) and isinstance(raw_connection, (list, Iterator))):
        raise ValueError(unequal)
    columns = _edge_columns(raw_edges, m, n := len(vertices))
    if columns is None:  # name the first bad entry
        eid = next(eid for eid, e in enumerate(raw_edges) if _edge_columns([e], m, n) is None)
        raise ValueError(f"edge {eid}: need vertex indices src, dst and {m} rationals alpha")
    src, dst, keys = columns
    index: dict[LinearForm, int] = {}  # each distinct alpha is parsed once; equal forms share an id
    key_id = {key: index.setdefault(LinearForm(list(map(parse_rational, key))), len(index))
              for key in dict.fromkeys(keys)}
    edges_at, _ = _stars(src, n)
    position = [dict(zip(star, range(len(star)))) for star in edges_at]
    left = list(map(len, edges_at))  # per vertex, the edges of its star still to arrive
    maps: dict[int, object] = {}  # the maps of the edges whose star is not complete
    connection: list = [None] * len(src)
    shared: dict[tuple, tuple] = {}
    bad = []
    for eid, entry in enumerate(raw_connection):
        if eid == len(src):
            raise ValueError(unequal)
        edge = entry.get("edge") if isinstance(entry, dict) else None
        if not (edge == [src[eid], dst[eid]] and type(edge[0]) is type(edge[1]) is int):
            raise ValueError(f"connection {eid}: edge must be [{src[eid]}, {dst[eid]}], the src "
                             f"and dst of edge {eid}")
        maps[eid] = entry.get("map")
        left[src[eid]] -= 1
        if left[src[eid]]:
            continue
        star = edges_at[src[eid]]
        star_maps = [maps.pop(e) for e in star]
        at_heads = [position[dst[e]] for e in star]
        conns = _star_maps(star_maps, star, at_heads)
        if conns is None:  # name the first edge of the star whose map fails
            bad.append(next(e for e, one, at_head in zip(star, star_maps, at_heads)
                            if _star_maps([one], star, [at_head]) is None))
            continue
        for e, conn in zip(star, conns):
            connection[e] = shared.setdefault(conn, conn)
    if any(left):
        raise ValueError(unequal)
    if bad:
        raise ValueError(f"connection {min(bad)}: map must pair each edge at vertex "
                         f"{src[min(bad)]} once with an edge at vertex {dst[min(bad)]}")
    return GkmGraph(m, vertices, src, dst, index, list(map(key_id.__getitem__, keys)), connection)


def _edge_columns(entries: list, m: int, n: int):
    """(src, dst, alpha) of the edge entries of a graph file, as three
    lists with each alpha a tuple, or None unless every entry is a dict
    whose ``src`` and ``dst`` are ints in 0..n-1 and whose ``alpha`` is a
    list of m strings.  The entries are checked together, one pass per
    condition over a column, not entry by entry."""
    if not all(map(isinstance, entries, repeat(dict))):
        return None
    src, dst, alphas = (list(map(dict.get, entries, repeat(k))) for k in ("src", "dst", "alpha"))
    ends = src + dst
    if (all(map(isinstance, alphas, repeat(list))) and set(map(len, alphas)) <= {m}
            and all(map(isinstance, chain.from_iterable(alphas), repeat(str)))
            and set(map(type, ends)) <= {int} and (not ends or 0 <= min(ends) <= max(ends) < n)):
        return src, dst, list(map(tuple, alphas))
    return None


def _star_maps(maps: list, star: tuple, at_heads: list):
    """The connection tuples of edges at one vertex, read from their
    ``maps``, or None unless every map is a list of two-element lists of
    ints whose first entries are ``star`` in some order and whose second
    entries lie in the star of that edge's head.  ``at_heads`` gives, per
    edge, the position of each edge id in the star of its head.

    The maps of a star are checked together, one pass per condition over
    all their pairs, not pair by pair; ``bool`` and ``float`` entries equal
    to an edge id are turned away by their type, not by their value.
    """
    d = len(star)
    if not (all(map(isinstance, maps, repeat(list))) and set(map(len, maps)) == {d}):
        return None
    pairs = list(chain.from_iterable(maps))
    if not set(map(type, pairs)) <= {list}:
        return None
    try:
        xs, ys = zip(*pairs, strict=True)
    except ValueError:  # a pair that is not two entries long
        return None
    if not {*map(type, xs), *map(type, ys)} <= {int}:
        return None
    if xs != star * len(maps):  # a map not in star order: sort its pairs
        ordered = [sorted(zip(xs[i:i + d], ys[i:i + d])) for i in range(0, len(xs), d)]
        if any(tuple(x for x, _ in pairs_) != star for pairs_ in ordered):
            return None
        ys = [y for pairs_ in ordered for _, y in pairs_]
    try:
        return [tuple(map(at_head.__getitem__, ys[i:i + d]))
                for at_head, i in zip(at_heads, range(0, len(ys), d))]
    except KeyError:  # an image outside the star of the head
        return None


def graph_hash(g: GkmGraph) -> str:
    text = json.dumps(graph_to_json(g), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def class_to_json(c: CohClass) -> dict:
    return {
        "graph_hash": graph_hash(c.graph),
        "values": {
            name: str(v) for name, v in zip(c.graph.vertices, c.values)
        },
    }


def class_from_json(data: dict, g: GkmGraph) -> CohClass:
    """Parse :func:`class_to_json` output; malformed input raises ValueError,
    and so does a graph with a zero label, on which no class is defined."""
    if not isinstance(data, dict) or data.get("graph_hash") != graph_hash(g):
        raise ValueError("class was saved for a different graph")
    for k, label in enumerate(g.labels):
        if label.is_zero():
            raise ValueError(f"zero label on {g.edge_str(g.label_id.index(k))}")
    values = data.get("values", {})
    if not isinstance(values, dict):
        raise ValueError("class values must map vertex names to polynomials")
    vals = []
    for name in g.vertices:
        if not isinstance(values.get(name), str):
            raise ValueError(f"no polynomial value for vertex {name}")
        vals.append(parse_polynomial(values[name], g.varcount))
    c = CohClass(g, vals)
    bad = coh_failure(c)
    if bad is not None:
        raise ValueError(f"not a cohomology class; fails at {g.edge_str(bad)}")
    return c


def graph_to_dot(g: GkmGraph, name: str = "gkm") -> str:
    """Undirected DOT rendering, one line per unoriented edge."""
    lines = [f'graph "{name}" {{', *(f'  "{v}";' for v in g.vertices)]
    seen, rendered = set(), []
    for eid, r in enumerate(g.reverse):
        if frozenset((eid, r)) not in seen:
            seen.add(frozenset((eid, r)))
            a = r if g.src[eid] > g.dst[eid] else eid  # the orientation with src <= dst
            rendered.append((g.src[a], g.dst[a], str(g.label(a))))
    for src, dst, label in sorted(rendered):
        lines.append(f'  "{g.vertices[src]}" -- "{g.vertices[dst]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
