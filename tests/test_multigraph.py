import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphkt import (
    DomainError,
    GraphParseError,
    Multigraph,
    format_graph,
    generate_chain,
    generate_cycle,
    generate_flower,
    generate_theta,
    graph_to_json,
    parse_graph,
)
from graphkt.exact_linalg import hermite_normal_form
from graphkt.multigraph import (
    betti_number,
    boundary,
    classify_end_edges,
    contract_edge,
    cycle_basis,
    is_connected,
    is_stable,
    spanning_tree,
    valences,
)
from graphkt.sweep import enumerate_connected

from .strategies import connected_multigraphs


class TestParse:
    def test_smallest_graph(self):
        G = parse_graph("vertices 1\nedge 0 0\n")
        assert G == Multigraph(1, ((0, 0),))

    def test_theta_file(self):
        G = parse_graph("vertices 2\nedge 0 1\nedge 0 1\nedge 0 1\n")
        assert G.vertex_count == 2 and len(G.edges) == 3
        assert betti_number(G) == 2

    def test_out_of_range_reports_line(self):
        with pytest.raises(GraphParseError, match="vertex index out of range, line 2"):
            parse_graph("vertices 2\nedge 0 2\n")

    def test_comments_and_blank_lines(self):
        text = "# a flower\n\nvertices 1\n# loop below\nedge 0 0\n"
        assert parse_graph(text) == generate_flower(1)

    def test_empty_edge_list_rejected(self):
        with pytest.raises(GraphParseError, match="empty edge list"):
            parse_graph("vertices 3\n")

    def test_missing_header(self):
        with pytest.raises(GraphParseError, match="vertices"):
            parse_graph("edge 0 1\n")

    def test_malformed_edge_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("vertices 2\nedge 0\n")

    def test_json_roundtrip(self):
        G = generate_chain(3)
        assert parse_graph(graph_to_json(G)) == G
        assert parse_graph(format_graph(G)) == G

    def test_json_range_check(self):
        with pytest.raises(GraphParseError, match="out of range"):
            parse_graph('{"vertices": 2, "edges": [[0, 2]]}')

    def test_bytes_accepted(self):
        assert parse_graph(b"vertices 1\nedge 0 0\n") == generate_flower(1)

    def test_bad_endpoint_in_constructor(self):
        with pytest.raises(DomainError):
            Multigraph(2, ((0, 2),))


class TestBetti:
    def test_flower(self):
        assert betti_number(generate_flower(3)) == 3

    def test_theta(self):
        # theta(4): 2 vertices, 5 edges
        assert betti_number(generate_theta(4)) == 4

    def test_chain(self):
        G = generate_chain(3)
        assert (G.vertex_count, len(G.edges)) == (4, 6)
        assert betti_number(G) == len(G.edges) - G.vertex_count + 1 == 3

    def test_disconnected_rejected(self):
        with pytest.raises(DomainError, match="connected"):
            betti_number(Multigraph(4, ((0, 1), (2, 3))))


def reachable(G):
    """Vertices reachable from vertex 0, by repeated sweeps over the edges."""
    seen = {0}
    while True:
        grown = seen | {w for u, v in G.edges for a, w in ((u, v), (v, u)) if a in seen}
        if grown == seen:
            return seen
        seen = grown


class TestConnected:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=9)
        .map(lambda edges: Multigraph(n, tuple(edges)))
    ))
    def test_matches_reachability(self, G):
        assert is_connected(G) == (len(reachable(G)) == G.vertex_count)

    def test_empty_graph_not_connected(self):
        assert not is_connected(Multigraph(0, ()))
        assert is_connected(Multigraph(1, ()))

    def test_too_few_edges_refused_before_allocation(self):
        import tracemalloc

        G = Multigraph(100_000, ((0, 1), (1, 2), (2, 3)))
        tracemalloc.start()
        try:
            assert not is_connected(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000  # nothing per vertex


class TestSpanningTree:
    def test_flower_empty(self):
        assert spanning_tree(generate_flower(2)) == set()

    def test_theta_last_edge(self):
        # Kruskal from the highest edge index down takes the last parallel edge
        assert spanning_tree(generate_theta(2)) == {2}

    def test_path(self):
        assert spanning_tree(Multigraph(3, ((0, 1), (1, 2)))) == {0, 1}


class TestCycleBasis:
    def test_flower_loops(self):
        basis = cycle_basis(generate_flower(2))
        assert basis == [[1, 0], [0, 1]]

    def test_tree_empty(self):
        assert cycle_basis(Multigraph(3, ((0, 1), (1, 2)))) == []

    def test_theta2_lattice(self):
        # the cycle space of theta(2) is spanned by (1, -1, 0) and (1, 0, -1):
        # every cycle sends as much flow up one strand as comes back another
        basis = cycle_basis(generate_theta(2))
        assert len(basis) == 2
        for c in basis:
            assert not any(boundary(generate_theta(2), c))
        got = hermite_normal_form(basis)
        want = hermite_normal_form([[1, -1, 0], [1, 0, -1]])
        assert got == want

    def test_nontree_edge_carries_plus_one(self):
        basis = cycle_basis(generate_theta(2))
        tree = spanning_tree(generate_theta(2))
        nontree = [i for i in range(3) if i not in tree]
        for c, i in zip(basis, nontree):
            assert c[i] == 1

    def test_cycle_property(self):
        # the tree is the one Kruskal builds from the highest edge index
        # down, so a non-tree edge's fundamental cycle uses only tree edges
        # above it, and the lifted cycles are a Hermite basis as they stand
        for G in enumerate_connected(5, 6):
            tree = spanning_tree(G)
            nontree = [i for i in range(len(G.edges)) if i not in tree]
            basis = cycle_basis(G)
            assert len(basis) == len(nontree)
            for e, c in zip(nontree, basis):
                assert c[e] == 1
                assert all(i > e for i, k in enumerate(c) if k and i != e)
                assert all(c[f] == 0 for f in nontree if f != e)

    @settings(max_examples=60)
    @given(connected_multigraphs())
    def test_basis_properties(self, G):
        basis = cycle_basis(G)
        assert len(basis) == betti_number(G)
        for c in basis:
            assert not any(boundary(G, c))


class TestContract:
    def test_theta_to_flower(self):
        assert contract_edge(generate_theta(2), 0) == generate_flower(2)

    def test_single_edge(self):
        assert contract_edge(Multigraph(2, ((0, 1),)), 0) == Multigraph(1, ())

    def test_loop_rejected(self):
        with pytest.raises(DomainError, match="loop"):
            contract_edge(generate_flower(1), 0)

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_chain_contracts_to_flower(self, g):
        G = generate_chain(g)
        while True:
            nonloops = [e for e, (u, v) in enumerate(G.edges) if u != v]
            if not nonloops:
                break
            G = contract_edge(G, nonloops[0])
        assert G == generate_flower(g)

    @settings(max_examples=40)
    @given(connected_multigraphs(min_genus=1), st.integers(0, 2**16))
    def test_random_contraction_reaches_flower(self, G, seed):
        import random

        rng = random.Random(seed)
        g = betti_number(G)
        while True:
            nonloops = [e for e, (u, v) in enumerate(G.edges) if u != v]
            if not nonloops:
                break
            G = contract_edge(G, rng.choice(nonloops))
        assert G == generate_flower(g)

    @settings(max_examples=60)
    @given(connected_multigraphs(min_genus=1))
    def test_contraction_invariants(self, G):
        g = betti_number(G)
        for e, (u, v) in enumerate(G.edges):
            if u == v:
                continue
            H = contract_edge(G, e)
            assert is_connected(H)
            assert betti_number(H) == g
            assert H.vertex_count == G.vertex_count - 1
            assert len(H.edges) == len(G.edges) - 1


class TestStable:
    @pytest.mark.parametrize("g", [1, 2, 3, 5])
    def test_flowers(self, g):
        assert is_stable(generate_flower(g))

    @pytest.mark.parametrize("g", [2, 3, 5])
    def test_chains(self, g):
        assert is_stable(generate_chain(g))

    def test_path_not_stable(self):
        assert not is_stable(Multigraph(2, ((0, 1),)))

    def test_theta4_stable(self):
        # both vertices have valence 5
        assert valences(generate_theta(4)) == [5, 5]
        assert is_stable(generate_theta(4))

    def test_chain_stays_stable_under_contraction(self):
        G = generate_chain(4)
        while True:
            nonloops = [e for e, (u, v) in enumerate(G.edges) if u != v]
            if not nonloops:
                break
            G = contract_edge(G, nonloops[0])
            assert is_stable(G)
            assert betti_number(G) == 4


class TestEnds:
    def test_flower_no_ends(self):
        assert classify_end_edges(generate_flower(2)) == set()

    def test_pendant(self):
        G = Multigraph(2, ((0, 0), (0, 1)))
        assert classify_end_edges(G) == {1}

    def test_star(self):
        G = Multigraph(4, ((0, 1), (0, 2), (0, 3)))
        assert classify_end_edges(G) == {0, 1, 2}

    def test_pendant_path_stripped_fully(self):
        G = Multigraph(3, ((0, 0), (0, 1), (1, 2)))
        assert classify_end_edges(G) == {1, 2}


class TestGenerators:
    def test_flower(self):
        assert generate_flower(1) == Multigraph(1, ((0, 0),))
        assert generate_flower(2) == Multigraph(1, ((0, 0), (0, 0)))
        assert betti_number(generate_flower(5)) == 5

    def test_theta(self):
        assert generate_theta(1) == Multigraph(2, ((0, 1), (0, 1)))
        G = generate_theta(3)
        assert (G.vertex_count, len(G.edges)) == (2, 4)
        assert betti_number(G) == 3

    def test_chain(self):
        G = generate_chain(2)
        assert G.vertex_count == 2 and betti_number(G) == 2
        assert generate_chain(5).vertex_count == 8
        assert is_stable(generate_chain(5))

    def test_cycle(self):
        assert generate_cycle(1) == generate_flower(1)
        assert betti_number(generate_cycle(5)) == 1

    def test_parameter_validation(self):
        for fn, bad in ((generate_flower, 0), (generate_theta, 0), (generate_chain, 1), (generate_cycle, 0)):
            with pytest.raises(DomainError):
                fn(bad)


@settings(max_examples=60)
@given(connected_multigraphs())
def test_betti_is_euler(G):
    assert betti_number(G) == len(G.edges) - G.vertex_count + 1
    assert len(spanning_tree(G)) == G.vertex_count - 1
