"""Shared hypothesis strategies."""

from hypothesis import strategies as st

from graphkt import Multigraph
from graphkt.multigraph import is_connected


@st.composite
def connected_multigraphs(draw, max_vertices=4, max_edges=6, min_genus=0):
    """Small connected multigraphs with loops and parallel edges.

    Disconnected draws get a path wired through all vertices, and loops are
    appended if the drawn graph falls short of min_genus, so the bounds are
    soft by a few edges.
    """
    n = draw(st.integers(1, max_vertices))
    m_min = n - 1 + min_genus
    m = draw(st.integers(m_min, max(max_edges, m_min)))
    edges = tuple(
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    )
    G = Multigraph(n, edges)
    if not is_connected(G):
        path = tuple((i, i + 1) for i in range(n - 1))
        G = Multigraph(n, path + edges)
    genus = len(G.edges) - n + 1
    if genus < min_genus:
        pad = tuple((0, 0) for _ in range(min_genus - genus))
        G = Multigraph(n, G.edges + pad)
    return G


@st.composite
def int_matrices(draw, max_size=4, max_abs=9):
    n = draw(st.integers(1, max_size))
    cols = draw(st.integers(1, max_size))
    return [
        [draw(st.integers(-max_abs, max_abs)) for _ in range(cols)] for _ in range(n)
    ]
