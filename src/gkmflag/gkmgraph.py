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
2. independence of the labels at every vertex (pairwise independence by
   default; a strict mode demands full linear independence, which fails
   for flag graphs whenever there are more edges than dimensions), and
3. the congruence condition: along any edge e, a label and its
   connection image differ by a rational multiple of the label of e.

A cohomology class assigns a polynomial to every vertex so that the two
ends of each edge agree modulo the edge label.  Classes form a ring, and
pullback along an isomorphism sends classes to classes, so ring
operations and :func:`pullback_class` never re-check their output.  The
class condition is checked only where values come from outside the
ring: :func:`class_from_json`, the members given to
``invbases.verify_basis``, the input of ``invbases.extend_invariant``
(its output is a class by construction) and the coefficients solved for
by ``invbases.express_in_basis``.  Classes built from an invariant
polynomial, such as ``invbases.base_tau``, are classes by proof and are
not checked either.

Isomorphisms are pairs (Phi, Psi): a vertex bijection plus a linear map
intertwining the labels.  Psi is stored as a matrix with one row per
target coordinate; it is usually square and invertible, but a rectangular
injective Psi is accepted so a small model graph can be identified with a
fiber living in a bigger coordinate space.

A graph is an immutable value, like ``Polynomial`` and ``LinearForm``:
its fields are tuples, fixed at construction.  A flag graph has
|W|*|Phi+| oriented edges but only |Phi| distinct labels, so the
constructor interns them once: ``labels`` holds each distinct form in
order of first occurrence, ``label_id`` the index of each edge's label,
and every ``Edge.label`` is the interned object.  Verification decides
each label axiom once per distinct label (or tuple of labels) by id,
and a changed graph is a new graph, so no derived data can go stale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple, Sequence

from . import linalg
from .polyring import LinearForm, Polynomial, parse_polynomial, parse_rational

__all__ = [
    "Edge",
    "GkmGraph",
    "CohClass",
    "GkmIso",
    "Check",
    "Report",
    "verify_gkm",
    "is_coh_class",
    "coh_failure",
    "degree_of",
    "check_subgraph",
    "induced_subgraph",
    "verify_iso",
    "pullback_class",
    "compose_iso",
    "invert_iso",
    "complete_graph",
    "graph_to_json",
    "graph_from_json",
    "graph_hash",
    "graph_to_dot",
    "class_to_json",
    "class_from_json",
]


class Edge(NamedTuple):
    src: int
    dst: int
    label: LinearForm


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

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        return "\n".join(c.line() for c in self.checks)


class GkmGraph:
    """Vertices, oriented labeled edges, and a stored per-edge connection.

    Immutable: every field is a tuple.  ``edges_at[p]`` is the star of p,
    its edge ids in increasing order, and ``slot[e]`` the position of e in
    the star of its tail.  ``connection[e]`` is a tuple of positions: entry
    i is the position, in the star of dst(e), of the image of
    ``edges_at[src(e)][i]``.  The constructor refuses, with ValueError, a
    connection tuple whose length is not the degree of the tail or whose
    positions fall outside the star of the head, so every connection is a
    function from star to star; whether it is a bijection is left to
    :func:`verify_gkm`.  Equal tuples may be one shared object.
    ``labels`` are the distinct edge labels in order of first occurrence
    and ``edges[e].label is labels[label_id[e]]``.
    """

    def __init__(self, varcount: int, vertices: Sequence[str], edges: Sequence[Edge],
                 reverse: Sequence[int], connection: Sequence[Sequence[int]]):
        self.varcount = varcount
        self.vertices = tuple(vertices)
        index: dict[LinearForm, int] = {}
        self.label_id = tuple(index.setdefault(label, len(index)) for _, _, label in edges)
        self.labels = tuple(index)
        self.edges = tuple(Edge(e[0], e[1], self.labels[k]) for e, k in zip(edges, self.label_id))
        self.reverse = tuple(reverse)
        self.connection = tuple(map(tuple, connection))
        if len(self.reverse) != len(self.edges) or len(self.connection) != len(self.edges):
            raise ValueError("edges, reverse and connection must have equal length")
        self.edges_at, self.slot = _stars(self.edges, len(self.vertices))
        for (src, dst, _), conn in zip(self.edges, self.connection):
            if (len(conn) != len(self.edges_at[src]) or min(conn) < 0
                    or max(conn) >= len(self.edges_at[dst])):
                raise ValueError(f"a connection must give a position in the star of "
                                 f"vertex {dst} for each edge at vertex {src}")

    @property
    def nvertices(self) -> int:
        return len(self.vertices)

    def along(self, eid: int, x: int) -> int:
        """The image of x, an edge at the tail of eid, under the connection
        along eid.  An edge elsewhere has no image; the caller checks."""
        return self.edges_at[self.edges[eid].dst][self.connection[eid][self.slot[x]]]

    def connection_pairs(self, eid: int):
        """(x, image of x) for each edge x at the tail of eid, in star order."""
        src, dst, _ = self.edges[eid]
        return zip(self.edges_at[src], map(self.edges_at[dst].__getitem__, self.connection[eid]))

    def vertex_index(self, name: str) -> int:
        return self.vertices.index(name)

    def find_edges(self, src: int, dst: int):
        return [eid for eid in self.edges_at[src] if self.edges[eid].dst == dst]

    def edge_str(self, eid: int) -> str:
        e = self.edges[eid]
        return f"({self.vertices[e.src]} -> {self.vertices[e.dst]}; {e.label})"

    def __repr__(self):
        return f"GkmGraph({self.nvertices} vertices, {len(self.edges)} oriented edges)"


def _stars(edges: Sequence[Edge], nvertices: int):
    """(edges_at, slot): the star of each vertex and each edge's position
    in the star of its tail."""
    edges_at: list[list[int]] = [[] for _ in range(nvertices)]
    slot = []
    for eid, e in enumerate(edges):
        slot.append(len(edges_at[e.src]))
        edges_at[e.src].append(eid)
    return tuple(map(tuple, edges_at)), tuple(slot)


# ----------------------------------------------------------------------
# axiom verification


def verify_gkm(g: GkmGraph, strict_independence: bool = False) -> Report:
    """Check the connection/axial-function axioms; report first witnesses.

    Each label axiom is a function of label values alone, and a flag
    graph carries only |Phi| distinct labels but |W|*|Phi+|^2 connection
    entries.  So each axiom is decided once per distinct tuple of the
    graph's label ids: each label is negated once, independence is
    decided once per (id_i, id_j) and congruence once per
    (id_e, id_e1, id_e2).  The walks over vertices and edges, and so the
    first witness of each check, are those of a per-edge check.
    """
    rep = Report()
    labels, lid = g.labels, g.label_id
    negated = [-label for label in labels]

    bad = ""
    for eid, e in enumerate(g.edges):
        r = g.reverse[eid] if 0 <= g.reverse[eid] < len(g.edges) else None
        if r is None or g.reverse[r] != eid or r == eid:
            bad = f"edge {g.edge_str(eid)} has no valid reverse"
            break
        re = g.edges[r]
        if (re.src, re.dst) != (e.dst, e.src):
            bad = f"reverse of {g.edge_str(eid)} has wrong endpoints"
            break
        if re.label != negated[lid[eid]]:
            bad = f"label of reverse of {g.edge_str(eid)} is not negated"
            break
        if e.label.is_zero():
            bad = f"zero label on {g.edge_str(eid)}"
            break
    rep.add("edge-reversal", not bad, bad)

    degrees = {len(g.edges_at[p]) for p in range(g.nvertices)}
    rep.add("regular", len(degrees) <= 1, f"vertex degrees {sorted(degrees)}")

    bad = ""
    proportional: dict[tuple, bool] = {}
    for p in range(g.nvertices):
        eids = g.edges_at[p]
        if strict_independence:
            rows = [g.edges[eid].label.coeffs for eid in eids]
            if linalg.rank_fraction(rows) != len(rows):
                bad = f"labels at vertex {g.vertices[p]} are linearly dependent"
                break
        else:
            for e1, e2 in combinations(eids, 2):
                a, b = lid[e1], lid[e2]
                if (a, b) not in proportional:
                    proportional[a, b] = labels[a].proportional_to(labels[b]) is not None
                if proportional[a, b]:
                    bad = (f"labels {labels[a]} and {labels[b]} at vertex "
                           f"{g.vertices[p]} are proportional")
                    break
        if bad:
            break
    rep.add("independence", not bad, bad)

    bad = ""
    for eid, e in enumerate(g.edges):
        conn = g.connection[eid]
        if len(set(conn)) != len(g.edges_at[e.dst]):
            bad = f"connection along {g.edge_str(eid)} is not a bijection E_p -> E_q"
            break
        r = g.along(eid, eid)
        if r != g.reverse[eid]:
            bad = f"connection along {g.edge_str(eid)} does not reverse the edge"
            break
        # r lies at the head of e; its connection undoes conn exactly when it
        # leads back to the tail of e and maps each position back to itself
        if g.edges[r].dst != e.src or list(map(g.connection[r].__getitem__, conn)) != list(
                range(len(conn))):
            bad = f"connection along reverse of {g.edge_str(eid)} is not the inverse"
            break
    rep.add("connection-shape", not bad, bad)

    bad = ""
    congruent: dict[tuple, bool] = {}
    for eid, e in enumerate(g.edges):
        for e1, e2 in g.connection_pairs(eid):
            k, k1, k2 = key = lid[eid], lid[e1], lid[e2]
            if key not in congruent:
                congruent[key] = (labels[k2] - labels[k1]).proportional_to(labels[k]) is not None
            if not congruent[key]:
                bad = (f"congruence fails along {g.edge_str(eid)} at "
                       f"{g.edge_str(e1)} -> {g.edge_str(e2)}")
                break
        if bad:
            break
    rep.add("congruence", not bad, bad)
    return rep


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

    def value_at(self, name: str) -> Polynomial:
        return self.values[self.graph.vertex_index(name)]

    def __repr__(self):
        body = ", ".join(
            f"{n}: {v}" for n, v in zip(self.graph.vertices, self.values)
        )
        return f"CohClass({body})"


def coh_failure(c: CohClass):
    """The first edge violating divisibility, or None if c is a class.

    Each unoriented edge is checked once, in edge order, with
    ``Polynomial.congruent_on``: the values at its ends are restricted
    to the hyperplane where the label vanishes, and they must agree
    there.  That restriction is the remainder ``divrem_linear`` would
    leave on the difference, so the verdict and the first failing edge
    are those of long division; labels with three or more nonzero
    coefficients are decided by ``divrem_linear`` itself.  Each label's
    substitution (``LinearForm.hyperplane``) is derived once per label
    id, on the first edge that carries it.
    """
    g = c.graph
    planes: dict[int, tuple | None] = {}
    for eid, e in enumerate(g.edges):
        if eid > g.reverse[eid]:
            continue  # each unoriented edge once
        k = g.label_id[eid]
        if k not in planes:
            planes[k] = e.label.hyperplane()
        if not c.values[e.dst].congruent_on(c.values[e.src], e.label, planes[k]):
            return eid
    return None


def is_coh_class(c: CohClass) -> bool:
    return coh_failure(c) is None


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


def check_subgraph(g: GkmGraph, vertexset) -> bool:
    """Does the stored connection preserve the induced edge sets?"""
    vs = set(vertexset)
    induced = {
        eid for eid, e in enumerate(g.edges) if e.src in vs and e.dst in vs
    }
    if not _induced_connected(g, vs, induced):
        raise ValueError("vertex set induces a disconnected subgraph")
    for eid in induced:
        e = g.edges[eid]
        img = {g.along(eid, x) for x in g.edges_at[e.src] if x in induced}
        want = {x for x in g.edges_at[e.dst] if x in induced}
        if img != want:
            return False
    return True


def _induced_connected(g: GkmGraph, vs, induced) -> bool:
    vs = list(vs)
    if not vs:
        return True
    adj = {v: [] for v in vs}
    for eid in induced:
        adj[g.edges[eid].src].append(g.edges[eid].dst)
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        p = stack.pop()
        for q in adj[p]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen) == len(vs)


def induced_subgraph(g: GkmGraph, vertexset):
    """The induced GKM subgraph; returns (graph, vertex_map, edge_map).

    vertex_map and edge_map send old indices to new ones.  Raises if the
    stored connection does not restrict (i.e. the set is not a GKM
    subgraph for the stored connection).
    """
    if not check_subgraph(g, vertexset):
        raise ValueError("not a GKM subgraph for the stored connection")
    vs = sorted(set(vertexset))
    vmap = {old: new for new, old in enumerate(vs)}
    eids = [
        eid for eid, e in enumerate(g.edges) if e.src in vmap and e.dst in vmap
    ]
    emap = {old: new for new, old in enumerate(eids)}
    edges = [Edge(vmap[g.edges[eid].src], vmap[g.edges[eid].dst], g.edges[eid].label)
             for eid in eids]
    reverse = [emap[g.reverse[eid]] for eid in eids]
    _, slot = _stars(edges, len(vs))
    connection = [tuple(slot[emap[b]] for a, b in g.connection_pairs(eid) if a in emap)
                  for eid in eids]
    sub = GkmGraph(g.varcount, [g.vertices[v] for v in vs], edges, reverse, connection)
    return sub, vmap, emap


# ----------------------------------------------------------------------
# isomorphisms


@dataclass(frozen=True)
class GkmIso:
    """A vertex bijection Phi plus a label-intertwining linear map Psi.

    ``phi`` maps vertex indices of the source graph to vertex indices of
    the target; ``psi`` is a matrix (rows = target coordinates) applied to
    labels.
    """

    phi: tuple
    psi: tuple

    def apply_form(self, form: LinearForm) -> LinearForm:
        return linalg.apply_matrix_form(self.psi, form)

    def key(self):
        return (self.phi, self.psi)


def verify_iso(iso: GkmIso, g1: GkmGraph, g2: GkmGraph) -> bool:
    """Graph morphism + bijectivity + label intertwining, all by inspection.

    Psi is applied once per distinct source label, by label id.
    """
    if len(iso.phi) != g1.nvertices or sorted(iso.phi) != list(range(g2.nvertices)):
        return False
    rows = iso.psi
    if len(rows) != g2.varcount or any(len(r) != g1.varcount for r in rows):
        return False
    if linalg.rank_fraction(rows) != g1.varcount:
        return False
    image = [iso.apply_form(label).coeffs for label in g1.labels]
    for p in range(g1.nvertices):
        have = sorted(
            ((iso.phi[g1.edges[eid].dst], image[g1.label_id[eid]])
             for eid in g1.edges_at[p])
        )
        want = sorted(
            ((g2.edges[eid].dst, g2.edges[eid].label.coeffs)
             for eid in g2.edges_at[iso.phi[p]])
        )
        if have != want:
            return False
    return True


def compose_iso(first: GkmIso, second: GkmIso) -> GkmIso:
    """second after first (first: G1->G2, second: G2->G3)."""
    phi = tuple(second.phi[p] for p in first.phi)
    psi = linalg.mat_mul(second.psi, first.psi)
    return GkmIso(phi, psi)


def invert_iso(iso: GkmIso) -> GkmIso:
    phi = [0] * len(iso.phi)
    for p, q in enumerate(iso.phi):
        phi[q] = p
    psi = linalg.invert_fraction(iso.psi)
    if psi is None:
        raise ValueError("Psi is not invertible")
    return GkmIso(tuple(phi), psi)


def pullback_class(iso: GkmIso, g1: GkmGraph, g2: GkmGraph, c2: CohClass) -> CohClass:
    """Pull a class on g2 back to g1 through (Phi, Psi).

    The value at p is Psi^{-1} applied to the value at Phi(p).  For a
    rectangular injective Psi a left inverse is used; values are then
    assumed to lie in the image span (true for classes supported on the
    image fiber, which is the only use).
    """
    left = linalg.left_inverse_fraction(iso.psi)
    if left is None:
        raise ValueError("Psi has no left inverse")
    images = [LinearForm([left[i][j] for i in range(len(left))])
              for j in range(len(left[0]))]
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
    vertices = [str(i + 1) for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            coeffs = [0] * n
            coeffs[i] += 1
            coeffs[j] -= 1
            edges.append(Edge(i, j, LinearForm(coeffs)))
    # (i, k) is at position k - (k > i) of the star at i, which starts at
    # edge id i*(n-1); along (i, j), (i, k) goes to (j, k) and (i, j) to (j, i)
    reverse = [j * (n - 1) + i - (i > j) for i, j, _ in edges]
    connection = []
    for i, j, _ in edges:
        images = [i if k == j else k for k in range(n) if k != i]
        connection.append(tuple(k - (k > j) for k in images))
    return GkmGraph(n, vertices, edges, reverse, connection)


# ----------------------------------------------------------------------
# serialization


def graph_to_json(g: GkmGraph) -> dict:
    return {
        "varcount": g.varcount,
        "vertices": list(g.vertices),
        "edges": [
            {"src": e.src, "dst": e.dst,
             "alpha": [str(c) for c in e.label.coeffs]}
            for e in g.edges
        ],
        "connection": [
            {"edge": [g.edges[eid].src, g.edges[eid].dst],
             "map": [[a, b] for a, b in g.connection_pairs(eid)]}
            for eid in range(len(g.edges))
        ],
    }


def _is_index(v, n: int) -> bool:
    return type(v) is int and 0 <= v < n


def graph_from_json(data: dict) -> GkmGraph:
    """Parse :func:`graph_to_json` output.

    Malformed structure raises ValueError: types, index ranges, label
    lengths, vertex names that are not distinct strings, and a connection
    ``map`` that is not a function from the edges at the tail to the edges
    at the head (every edge at the tail paired once, each with an edge at
    the head).  Equal connection tuples are stored once.  The axioms,
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
    if not (isinstance(raw_edges, list) and isinstance(raw_connection, list)
            and len(raw_edges) == len(raw_connection)):
        raise ValueError("edges and connection must be lists of equal length")
    n, edges = len(vertices), []
    forms: dict[tuple, LinearForm] = {}  # each distinct alpha is parsed once
    for eid, e in enumerate(raw_edges):
        alpha = e.get("alpha") if isinstance(e, dict) else None
        if not (isinstance(alpha, list) and len(alpha) == m
                and all(isinstance(c, str) for c in alpha)
                and _is_index(e.get("src"), n) and _is_index(e.get("dst"), n)):
            raise ValueError(f"edge {eid}: need vertex indices src, dst and {m} rationals alpha")
        key = tuple(alpha)
        if key not in forms:
            forms[key] = LinearForm([parse_rational(c) for c in alpha])
        edges.append(Edge(e["src"], e["dst"], forms[key]))
    edges_at, slot = _stars(edges, n)
    shared: dict[tuple, tuple] = {}
    connection, reverse = [], []
    for eid, entry in enumerate(raw_connection):
        src, dst, _ = edges[eid]
        pairs = entry.get("map") if isinstance(entry, dict) else None
        conn = [-1] * len(edges_at[src])
        # with as many pairs as edges at src, no repeated key means no missing one
        ok = isinstance(pairs, list) and len(pairs) == len(conn)
        for pair in pairs if ok else ():
            ok = (type(pair) is list and len(pair) == 2 and _is_index(pair[0], len(edges))
                  and _is_index(pair[1], len(edges)) and edges[pair[0]].src == src
                  and edges[pair[1]].src == dst and conn[slot[pair[0]]] < 0)
            if not ok:
                break
            conn[slot[pair[0]]] = slot[pair[1]]
        if not ok:
            raise ValueError(f"connection {eid}: map must pair each edge at vertex {src} "
                             f"once with an edge at vertex {dst}")
        connection.append(shared.setdefault(tuple(conn), tuple(conn)))
        # the reverse of e is where the connection along e sends e itself
        reverse.append(edges_at[dst][conn[slot[eid]]])
    return GkmGraph(m, vertices, edges, reverse, connection)


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
    lines = [f'graph "{name}" {{']
    for v in g.vertices:
        lines.append(f'  "{v}";')
    seen = set()
    rendered = []
    for eid, e in enumerate(g.edges):
        pair = frozenset((eid, g.reverse[eid]))
        if pair in seen:
            continue
        seen.add(pair)
        a, b = (eid, g.reverse[eid])
        if (g.edges[a].src, g.edges[a].dst) > (g.edges[a].dst, g.edges[a].src):
            a = b
        e = g.edges[a]
        rendered.append((e.src, e.dst, str(e.label)))
    for src, dst, label in sorted(rendered):
        lines.append(f'  "{g.vertices[src]}" -- "{g.vertices[dst]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
