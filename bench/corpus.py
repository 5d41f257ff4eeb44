"""Seeded inputs for the benchmark workloads.

Nothing here imports graphkt: graphs are built as ``(vertex_count, edges)``
pairs, written as graph files, and every command is paired with a check
from :mod:`oracle` that derives the expected answer from the same pair.
The same ``(workload, seed)`` always gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import oracle

# Class count of `verify --max-vertices 5 --max-edges 6` at the commit that
# defined this benchmark; a change to enumeration must keep it.
VERIFY_BOUNDS = (5, 6)
VERIFY_GRAPHS = 405


@dataclass(frozen=True)
class Command:
    label: str
    argv: list
    graphs: int  # input graphs this command completes
    check: Callable  # (exit_code, stdout) -> None, raises oracle.Mismatch


def random_connected(rng, n, m):
    """A random spanning tree on shuffled labels plus m - n + 1 uniformly
    placed extra edges (loops and parallel edges allowed), in shuffled
    order with random orientations."""
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(m - n + 1)]
    rng.shuffle(edges)
    return n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]


def flower(g):
    return 1, [(0, 0)] * g


def theta(g, rng):
    """Two vertices joined by g + 1 parallel edges, each oriented at random."""
    return 2, [(0, 1) if rng.random() < 0.5 else (1, 0) for _ in range(g + 1)]


def chain(g):
    """The stable chain: a path on 2g - 2 vertices whose links alternate
    between one and two edges, starting and ending with one, and a loop
    at each end."""
    n = 2 * g - 2
    edges = [(0, 0)]
    for k in range(n - 1):
        edges.append((k, k + 1))
        if k % 2 == 1:
            edges.append((k, k + 1))
    edges.append((n - 1, n - 1))
    return n, edges


def graph_text(graph):
    n, edges = graph
    return "".join([f"vertices {n}\n"] + [f"edge {u} {v}\n" for u, v in edges])


def _sparse(two_m):
    """Mean valence 4: m = 2|V|."""
    m = two_m // 2
    return m // 2, m


# Sizes are in oriented edges (2m).  The lists are fixed and the seed only
# draws the random graphs and orientations.  The 42 commands of
# invariants-sparse and of zeta fall into four latency groups: 17 small, 8
# middle, 13 large and the 4 largest.  The median latency (ranks 21 and 22)
# falls in the middle of the middle group and the tail latency (rank 32,
# with 10 above it) in the middle of the large group, so each figure is an
# order statistic of a cluster of one size, not one graph's cost, and a
# change that slows only large graphs moves the tail.
INVARIANTS_RANDOM = [40, 44, 48, 52, 56] * 3 + [68] * 8 + [88] * 13 + [120, 152]
INVARIANTS_CHAINS = [8, 10, 20, 34]  # 2m = 6g - 6: 42, 54 small; 114, 198 largest
CLASSIFY_GENUS = list(range(8, 49))
ZETA_RANDOM = [16, 20, 24] * 5 + [32] * 7 + [40] * 12 + [48, 60, 76]
ZETA_CHAINS = [2, 4, 6, 8, 10]  # 2m = 6, 18 small; 30 middle; 42 large; 54 largest


def add_file(files, directory, name, graph):
    """Record the graph's file text under ``directory / name`` in
    ``files`` and return the path as graphkt will be given it."""
    path = directory / name
    files[path] = graph_text(graph)
    return str(path)


def _one_graph_per_command(command, randoms, chains, check):
    """A workload running ``graphkt <command> FILE`` on random graphs of
    the given sizes and on chains of the given genera."""

    def build(rng, directory, files):
        graphs = [random_connected(rng, *_sparse(s)) for s in randoms]
        graphs += [chain(g) for g in chains]
        return [
            Command(f"{command} #{i} 2m={2 * len(graph[1])}",
                    [command, add_file(files, directory, f"{command}{i:03d}.graph", graph)],
                    1, partial(check, graph))
            for i, graph in enumerate(graphs)
        ]

    return build


def _classify(rng, directory, files):
    order = list(CLASSIFY_GENUS)
    rng.shuffle(order)
    commands = []
    for i, g in enumerate(order):
        pair = [flower(g), theta(g, rng)]
        if rng.random() < 0.5:
            pair.reverse()
        paths = [add_file(files, directory, f"classify{i:03d}{side}.graph", G)
                 for side, G in zip("ab", pair)]
        commands.append(
            Command(f"classify #{i} g={g}", ["classify", *paths, "--strict"], 2,
                    partial(oracle.check_classify, pair))
        )
    return commands


def _verify(rng, directory, files):
    vertices, edges = VERIFY_BOUNDS
    argv = ["verify", "--max-vertices", str(vertices), "--max-edges", str(edges)]
    return [
        Command("verify exhaustive", argv, VERIFY_GRAPHS,
                partial(oracle.check_verify, VERIFY_GRAPHS))
    ]


WORKLOADS = {
    "invariants-sparse": _one_graph_per_command(
        "invariants", INVARIANTS_RANDOM, INVARIANTS_CHAINS, oracle.check_invariants),
    "classify-dense": _classify,
    "zeta": _one_graph_per_command("zeta", ZETA_RANDOM, ZETA_CHAINS, oracle.check_zeta),
    "verify-exhaustive": _verify,
}


def build(workload, seed, directory):
    """The workload's commands in pass order, reading files under
    ``directory``, and the files' contents as {path: text}."""
    files = {}
    commands = WORKLOADS[workload](random.Random(f"{workload}/{seed}"), directory, files)
    return commands, files


def write(files):
    for path, text in files.items():
        path.write_text(text, encoding="utf-8")
