"""Labeled graphs with connections, their axioms, and graph cohomology.

A graph here is regular, with *oriented* edges: an unoriented edge
between p and q shows up twice, once per orientation, and the two copies
carry opposite labels.  Each oriented edge e = (p, q) also carries a
connection map, a bijection from the edges at p to the edges at q sending
e to its reverse.  The axioms checked by :func:`verify_gkm` are

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
ring: construction with ``check=True``, :func:`class_from_json`, the
members given to ``invbases.verify_basis``, the input of
``invbases.extend_invariant`` (its output is a class by construction)
and the coefficients solved for by ``invbases.express_in_basis``.

Isomorphisms are pairs (Phi, Psi): a vertex bijection plus a linear map
intertwining the labels.  Psi is stored as a matrix with one row per
target coordinate; it is usually square and invertible, but a rectangular
injective Psi is accepted so a small model graph can be identified with a
fiber living in a bigger coordinate space.

Graphs are immutable after construction by convention; verification
walks are read-only and safe to run concurrently.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
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
    """Vertices, oriented labeled edges, and a stored per-edge connection."""

    def __init__(self, varcount: int, vertices: Sequence[str], edges: Sequence[Edge],
                 reverse: Sequence[int], connection: Sequence[dict]):
        self.varcount = varcount
        self.vertices = list(vertices)
        self.edges = [Edge(e.src, e.dst, e.label) if isinstance(e, Edge) else Edge(*e)
                      for e in edges]
        self.reverse = list(reverse)
        self.connection = [dict(c) for c in connection]
        if len(self.reverse) != len(self.edges) or len(self.connection) != len(self.edges):
            raise ValueError("edges, reverse and connection must have equal length")
        self.edges_at: list[list[int]] = [[] for _ in self.vertices]
        for eid, e in enumerate(self.edges):
            self.edges_at[e.src].append(eid)

    @property
    def nvertices(self) -> int:
        return len(self.vertices)

    def degree(self) -> int:
        return len(self.edges_at[0]) if self.vertices else 0

    def vertex_index(self, name: str) -> int:
        return self.vertices.index(name)

    def find_edges(self, src: int, dst: int):
        return [eid for eid in self.edges_at[src] if self.edges[eid].dst == dst]

    def edge_str(self, eid: int) -> str:
        e = self.edges[eid]
        return f"({self.vertices[e.src]} -> {self.vertices[e.dst]}; {e.label})"

    def __repr__(self):
        return f"GkmGraph({self.nvertices} vertices, {len(self.edges)} oriented edges)"


# ----------------------------------------------------------------------
# axiom verification


def verify_gkm(g: GkmGraph, strict_independence: bool = False) -> Report:
    """Check the connection/axial-function axioms; report first witnesses."""
    rep = Report()

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
        if re.label != -e.label:
            bad = f"label of reverse of {g.edge_str(eid)} is not negated"
            break
        if e.label.is_zero():
            bad = f"zero label on {g.edge_str(eid)}"
            break
    rep.add("edge-reversal", not bad, bad)

    degrees = {len(g.edges_at[p]) for p in range(g.nvertices)}
    rep.add("regular", len(degrees) <= 1, f"vertex degrees {sorted(degrees)}")

    bad = ""
    for p in range(g.nvertices):
        eids = g.edges_at[p]
        if strict_independence:
            rows = [list(g.edges[eid].label.coeffs) for eid in eids]
            cols = list(zip(*rows)) if rows else []
            if rows and linalg.rank_fraction(cols) != len(rows):
                bad = f"labels at vertex {g.vertices[p]} are linearly dependent"
                break
        else:
            for i in range(len(eids)):
                for j in range(i + 1, len(eids)):
                    li = g.edges[eids[i]].label
                    lj = g.edges[eids[j]].label
                    if li.proportional_to(lj) is not None:
                        bad = (f"labels {li} and {lj} at vertex "
                               f"{g.vertices[p]} are proportional")
                        break
                if bad:
                    break
        if bad:
            break
    rep.add("independence", not bad, bad)

    bad = ""
    for eid, e in enumerate(g.edges):
        conn = g.connection[eid]
        src_edges = set(g.edges_at[e.src])
        dst_edges = set(g.edges_at[e.dst])
        if set(conn.keys()) != src_edges or set(conn.values()) != dst_edges:
            bad = f"connection along {g.edge_str(eid)} is not a bijection E_p -> E_q"
            break
        if conn[eid] != g.reverse[eid]:
            bad = f"connection along {g.edge_str(eid)} does not reverse the edge"
            break
        rconn = g.connection[g.reverse[eid]]
        if any(rconn.get(v) != k for k, v in conn.items()):
            bad = f"connection along reverse of {g.edge_str(eid)} is not the inverse"
            break
    rep.add("connection-shape", not bad, bad)

    bad = ""
    for eid, e in enumerate(g.edges):
        for e1, e2 in g.connection[eid].items():
            diff = g.edges[e2].label - g.edges[e1].label
            if diff.proportional_to(e.label) is None:
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

    def __init__(self, graph: GkmGraph, values: Sequence[Polynomial], check: bool = False):
        if len(values) != graph.nvertices:
            raise ValueError("need one value per vertex")
        for v in values:
            if v.varcount != graph.varcount:
                raise ValueError("value varcount does not match graph")
        self.graph = graph
        self.values = tuple(values)
        if check:
            bad = coh_failure(self)
            if bad is not None:
                raise ValueError(f"not a cohomology class; fails at {graph.edge_str(bad)}")

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
    """The first edge violating divisibility, or None if c is a class."""
    g = c.graph
    for eid, e in enumerate(g.edges):
        if eid > g.reverse[eid]:
            continue  # each unoriented edge once
        diff = c.values[e.dst] - c.values[e.src]
        if not diff.is_multiple_of(e.label):
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
        img = {g.connection[eid][x] for x in g.edges_at[e.src] if x in induced}
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
    connection = []
    for eid in eids:
        connection.append({
            emap[a]: emap[b] for a, b in g.connection[eid].items() if a in emap
        })
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
    """Graph morphism + bijectivity + label intertwining, all by inspection."""
    if len(iso.phi) != g1.nvertices or sorted(iso.phi) != list(range(g2.nvertices)):
        return False
    rows = iso.psi
    if len(rows) != g2.varcount or any(len(r) != g1.varcount for r in rows):
        return False
    cols = list(zip(*rows))
    if linalg.rank_fraction(cols) != g1.varcount:
        return False
    for p in range(g1.nvertices):
        have = sorted(
            ((iso.phi[g1.edges[eid].dst], iso.apply_form(g1.edges[eid].label).coeffs)
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
    eid = {}
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            coeffs = [Fraction(0)] * n
            coeffs[i] += 1
            coeffs[j] -= 1
            eid[(i, j)] = len(edges)
            edges.append(Edge(i, j, LinearForm(coeffs)))
    reverse = [eid[(e.dst, e.src)] for e in edges]
    connection = []
    for e in edges:
        i, j = e.src, e.dst
        conn = {}
        for k in range(n):
            if k == i:
                continue
            if k == j:
                conn[eid[(i, j)]] = eid[(j, i)]
            else:
                conn[eid[(i, k)]] = eid[(j, k)]
        connection.append(conn)
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
             "map": sorted([a, b] for a, b in g.connection[eid].items())}
            for eid in range(len(g.edges))
        ],
    }


def _is_index(v, n: int) -> bool:
    return type(v) is int and 0 <= v < n


def graph_from_json(data: dict) -> GkmGraph:
    """Parse :func:`graph_to_json` output.

    Malformed structure (types, index ranges, label lengths, connection
    entries) raises ValueError; the axioms are left to :func:`verify_gkm`.
    """
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    m, vertices = data.get("varcount"), data.get("vertices")
    if type(m) is not int or m < 1 or not isinstance(vertices, list):
        raise ValueError("need an integer varcount >= 1 and a list of vertices")
    raw_edges, raw_connection = data.get("edges"), data.get("connection")
    if not (isinstance(raw_edges, list) and isinstance(raw_connection, list)
            and len(raw_edges) == len(raw_connection)):
        raise ValueError("edges and connection must be lists of equal length")
    n, edges = len(vertices), []
    for eid, e in enumerate(raw_edges):
        alpha = e.get("alpha") if isinstance(e, dict) else None
        if not (isinstance(alpha, list) and len(alpha) == m
                and all(isinstance(c, str) for c in alpha)
                and _is_index(e.get("src"), n) and _is_index(e.get("dst"), n)):
            raise ValueError(f"edge {eid}: need vertex indices src, dst and {m} rationals alpha")
        edges.append(Edge(e["src"], e["dst"], LinearForm([parse_rational(c) for c in alpha])))
    connection = []
    for eid, entry in enumerate(raw_connection):
        pairs = entry.get("map") if isinstance(entry, dict) else None
        if not (isinstance(pairs, list) and all(
                isinstance(pair, list) and len(pair) == 2
                and all(_is_index(x, len(edges)) for x in pair) for pair in pairs)):
            raise ValueError(f"connection {eid}: map must pair existing edge ids")
        connection.append(dict(pairs))
        if eid not in connection[eid]:
            raise ValueError(f"connection {eid}: map does not send edge {eid} anywhere")
    # the reverse of e is where the connection along e sends e itself
    reverse = [connection[eid][eid] for eid in range(len(edges))]
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
    """Parse :func:`class_to_json` output; malformed input raises ValueError."""
    if not isinstance(data, dict) or data.get("graph_hash") != graph_hash(g):
        raise ValueError("class was saved for a different graph")
    values = data.get("values", {})
    if not isinstance(values, dict):
        raise ValueError("class values must map vertex names to polynomials")
    vals = []
    for name in g.vertices:
        if not isinstance(values.get(name), str):
            raise ValueError(f"no polynomial value for vertex {name}")
        vals.append(parse_polynomial(values[name], g.varcount))
    return CohClass(g, vals, check=True)


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
