"""Undirected multigraph model and its structural operations.

Vertices are the integers 0..vertex_count-1.  Edges are an ordered tuple of
(u, v) pairs: the position of an edge in the tuple is its edge index, and
the stored pair order is its reference orientation.  Loops (u == v) and
parallel edges (repeated pairs) are allowed.  Edge order is part of the
value; it fixes the oriented-edge indexing used by the edge operator.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, GraphParseError, TheoremViolation

__all__ = [
    "Multigraph",
    "parse_graph",
    "format_graph",
    "graph_to_json",
    "valences",
    "is_connected",
    "require_connected",
    "betti_number",
    "spanning_tree",
    "cycle_basis",
    "boundary",
    "contract_edge",
    "is_stable",
    "classify_end_edges",
    "generate_flower",
    "generate_theta",
    "generate_chain",
    "generate_cycle",
]


@dataclass(frozen=True)
class Multigraph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        n = self.vertex_count
        if n < 0:
            raise DomainError("vertex_count must be nonnegative")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(
                    f"edge endpoint out of range: ({u}, {v}) with {n} vertices"
                )

    @cached_property
    def connected(self):
        """Whether the edges join all vertices, proved once per graph."""
        return edges_connect(self.vertex_count, self.edges)


def valences(G):
    """Vertex valences; a loop contributes 2 to its vertex."""
    val = [0] * G.vertex_count
    for u, v in G.edges:
        val[u] += 1
        val[v] += 1
    return val


def _incidence(G):
    # vertex -> list of (edge index, other endpoint); loops appear once
    inc = [[] for _ in range(G.vertex_count)]
    for i, (u, v) in enumerate(G.edges):
        inc[u].append((i, v))
        if u != v:
            inc[v].append((i, u))
    return inc


def _forest(n, edges, order):
    """Indices, taken in the given order, of the edges that join two
    components so far: a spanning forest, by union-find."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]  # path halving
            x = root[x]
        return x

    tree = []
    for i in order:
        u, v = edges[i]
        u, v = find(u), find(v)
        if u != v:
            root[u] = v
            tree.append(i)
    return tree


def edges_connect(n, edges):
    """Whether the edges join all n vertices, by union-find.  A connected
    graph has at least n - 1 edges, so fewer are refused before any
    allocation."""
    if n == 0 or n > len(edges) + 1:
        return False
    return len(_forest(n, edges, range(len(edges)))) == n - 1


def is_connected(G):
    return G.connected


def require_connected(G):
    if not is_connected(G):
        raise DomainError("graph must be connected")


def betti_number(G):
    """First Betti number g = m - n + 1 of a connected multigraph."""
    require_connected(G)
    return len(G.edges) - G.vertex_count + 1


def _tree(G):
    # The spanning tree that Kruskal builds from the highest edge index down,
    # rooted at vertex 0.  By the cycle property (Kruskal, Proc. AMS 1956)
    # the fundamental cycle of a non-tree edge e uses only tree edges above e.
    tree = set(_forest(G.vertex_count, G.edges, range(len(G.edges) - 1, -1, -1)))
    inc = _incidence(G)
    parent = {0: None}  # vertex -> (parent vertex, tree edge index)
    stack = [0]
    while stack:
        u = stack.pop()
        for i, w in inc[u]:
            if i in tree and w not in parent:
                parent[w] = (u, i)
                stack.append(w)
    return tree, parent


def spanning_tree(G):
    """Edge indices of the spanning tree that Kruskal builds from the
    highest edge index down."""
    require_connected(G)
    return _tree(G)[0]


def boundary(G, coeffs):
    """Image of an edge chain under the boundary map (terminus minus origin)."""
    out = [0] * G.vertex_count
    for i, (u, v) in enumerate(G.edges):
        c = coeffs[i]
        if c:
            out[v] += c
            out[u] -= c
    return out


def cycle_basis(G):
    """Fundamental cycles of ``spanning_tree``, one per non-tree edge in
    increasing index, as length-m coefficient vectors over the stored edge
    orientations: the non-tree edge carries +1 in its stored (u, v)
    direction, and each tree edge on the path closing the cycle +1 or -1 by
    its direction of traversal.  They are a basis of the integral cycle space.
    """
    require_connected(G)
    tree, parent = _tree(G)
    m = len(G.edges)
    basis = []
    for i, (u, v) in enumerate(G.edges):
        if i in tree:
            continue
        coeffs = [0] * m
        coeffs[i] = 1
        # v up to the root, then the root down to u: the steps above their
        # meeting point cancel
        for x, sign in ((v, 1), (u, -1)):
            while parent[x] is not None:
                p, e = parent[x]
                coeffs[e] += sign if G.edges[e] == (x, p) else -sign
                x = p
        basis.append(coeffs)
    return basis


def contract_edge(G, e):
    """Merge the endpoints of the non-loop edge e and delete it.

    The surviving endpoint is min(u, v); vertices above max(u, v) shift
    down by one.  All other edges keep their relative order and stored
    orientation, so surviving edge indices just close the gap left by e.
    """
    if not 0 <= e < len(G.edges):
        raise DomainError(f"edge index {e} out of range")
    u, v = G.edges[e]
    if u == v:
        raise DomainError("cannot contract a loop")
    lo, hi = (u, v) if u < v else (v, u)

    def remap(x):
        if x == hi:
            return lo
        return x - 1 if x > hi else x

    edges = tuple(
        (remap(a), remap(b)) for i, (a, b) in enumerate(G.edges) if i != e
    )
    return Multigraph(G.vertex_count - 1, edges)


def is_stable(G):
    """Connected, and every loop-free vertex has valence at least 3."""
    if not is_connected(G):
        return False
    val = valences(G)
    has_loop = [False] * G.vertex_count
    for u, v in G.edges:
        if u == v:
            has_loop[u] = True
    return all(has_loop[x] or val[x] >= 3 for x in range(G.vertex_count))


def classify_end_edges(G):
    """Edge indices lying in ends (pendant trees), found by iteratively
    stripping valence-1 vertices until none remain."""
    n, m = G.vertex_count, len(G.edges)
    inc = _incidence(G)
    val = valences(G)
    removed = [False] * m
    queue = deque(x for x in range(n) if val[x] == 1)
    while queue:
        x = queue.popleft()
        if val[x] != 1:
            continue
        for i, w in inc[x]:
            if not removed[i]:
                removed[i] = True
                val[x] -= 1
                val[w] -= 1
                if val[w] == 1:
                    queue.append(w)
                break
    return {i for i in range(m) if removed[i]}


def generate_flower(g):
    """One vertex carrying g loops."""
    if g < 1:
        raise DomainError("flower requires g >= 1")
    return Multigraph(1, tuple((0, 0) for _ in range(g)))


def generate_theta(g):
    """Two vertices joined by g + 1 parallel edges."""
    if g < 1:
        raise DomainError("theta requires g >= 1")
    return Multigraph(2, tuple((0, 1) for _ in range(g + 1)))


def generate_chain(g):
    """Stable chain on 2g - 2 vertices: a loop at each end of a path whose
    consecutive vertices are joined alternately by one edge and by two
    parallel edges, with single edges adjacent to the two loop vertices."""
    if g < 2:
        raise DomainError("chain requires g >= 2")
    n = 2 * g - 2
    edges = [(0, 0)]
    for k in range(n - 1):
        edges.append((k, k + 1))
        if k % 2 == 1:
            edges.append((k, k + 1))
    edges.append((n - 1, n - 1))
    G = Multigraph(n, tuple(edges))
    if betti_number(G) != g or not is_stable(G):
        raise TheoremViolation("the chain construction must give a stable graph of Betti number g")
    return G


def generate_cycle(n):
    """Simple cycle on n vertices (n = 1 is a loop, n = 2 a double edge)."""
    if n < 1:
        raise DomainError("cycle requires n >= 1")
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def parse_graph(text):
    """Parse a graph from the text or JSON file format.

    Text format: first non-comment line ``vertices <n>``, then one
    ``edge <u> <v>`` line per edge (0-based, loops as ``edge u u``,
    parallel edges by repetition).  Lines starting with ``#`` and blank
    lines are ignored.  A JSON object ``{"vertices": n, "edges": [[u, v],
    ...]}`` is accepted as an alternative.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_text(text):
    vertex_count = None
    header_line = 1
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if vertex_count is None:
            if len(parts) != 2 or parts[0] != "vertices":
                raise GraphParseError("expected 'vertices <n>'", lineno)
            try:
                n = int(parts[1])
            except ValueError:
                raise GraphParseError("vertex count is not an integer", lineno)
            if n < 0:
                raise GraphParseError("vertex count must be nonnegative", lineno)
            vertex_count = n
            header_line = lineno
            continue
        if parts[0] != "edge" or len(parts) != 3:
            raise GraphParseError("expected 'edge <u> <v>'", lineno)
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphParseError("edge endpoints are not integers", lineno)
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise GraphParseError("vertex index out of range", lineno)
        edges.append((u, v))
    if vertex_count is None:
        raise GraphParseError("missing 'vertices <n>' header", 1)
    if not edges:
        raise GraphParseError("empty edge list", header_line)
    return Multigraph(vertex_count, tuple(edges))


def _parse_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", exc.lineno)
    if not isinstance(data, dict):
        raise GraphParseError("JSON graph must be an object", 1)
    for key in ("vertices", "edges"):
        if key not in data:
            raise GraphParseError(f"JSON graph is missing '{key}'", 1)
    n = data["vertices"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise GraphParseError("'vertices' must be a nonnegative integer", 1)
    raw_edges = data["edges"]
    if not isinstance(raw_edges, list):
        raise GraphParseError("'edges' must be a list of pairs", 1)
    edges = []
    for pair in raw_edges:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(x, bool) or not isinstance(x, int) for x in pair)
        ):
            raise GraphParseError("each edge must be a pair of integers", 1)
        u, v = pair
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError("vertex index out of range", 1)
        edges.append((u, v))
    if not edges:
        raise GraphParseError("empty edge list", 1)
    return Multigraph(n, tuple(edges))


def format_graph(G):
    """Render a graph in the text file format (edge order = edge index)."""
    lines = [f"vertices {G.vertex_count}"]
    lines.extend(f"edge {u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


def graph_to_json(G):
    """Render a graph in the JSON file format."""
    payload = {"edges": [[u, v] for u, v in G.edges], "vertices": G.vertex_count}
    return json.dumps(payload, sort_keys=True)
