"""The schema's join-graph queries, checked against networkx as an oracle.

networkx is a dev-only dependency: the library answers connectivity,
spanning trees, components and articulation points with its own
breadth-first search over at most 21 tables. The oracle graph is built
afresh for each subset from the joins inside it, in declaration order, so
networkx's answers do not depend on set iteration order either.
"""

import numpy as np
import pytest

from repro.attack.algorithms import _shrink_join_pattern
from repro.datasets import load_dataset
from repro.db import DatabaseSchema

nx = pytest.importorskip("networkx")

#: Connected join sets of each multi-table schema (every size).
CONNECTED_SETS = {"tpch": 93, "stats": 118, "imdb": 95_135}


def fresh_schema(name):
    """An unmemoized copy of a dataset's schema (its caches die with it)."""
    schema = load_dataset(name, scale="smoke").schema
    return DatabaseSchema(schema.name, list(schema.tables.values()), list(schema.joins))


def induced(schema, tables):
    graph = nx.Graph()
    graph.add_nodes_from(t for t in schema.table_names if t in tables)
    graph.add_edges_from(
        (e.left_table, e.right_table, {"edge": e})
        for e in schema.joins
        if e.left_table in tables and e.right_table in tables
    )
    return graph


def all_subsets(schema):
    names = schema.table_names
    for mask in range(1 << len(names)):
        yield {names[i] for i in range(len(names)) if mask >> i & 1}


def seeded_subsets(schema, count, seed=0):
    rng = np.random.default_rng(seed)
    names = np.array(schema.table_names)
    for _ in range(count):
        size = int(rng.integers(0, len(names) + 1))
        yield set(rng.choice(names, size=size, replace=False).tolist())


def check_subset(schema, tables, rng):
    graph = induced(schema, tables)
    connected = bool(tables) and nx.is_connected(graph)
    assert schema.is_valid_join_set(tables) == connected
    expected = sorted(
        nx.connected_components(graph), key=lambda c: min(map(schema.table_index, c))
    )
    components = schema.components(tables)
    assert [set(c) for c in components] == expected
    for component in components:
        assert component == sorted(component, key=schema.table_index)
    if connected and len(tables) > 2:
        # The shrink drops the lowest-scored table whose removal keeps
        # the pattern connected, i.e. a non-articulation point.
        scores = rng.uniform(size=schema.num_tables)
        articulation = set(nx.articulation_points(graph))
        weakest = min(
            (t for t in sorted(tables) if t not in articulation),
            key=lambda t: scores[schema.table_index(t)],
        )
        pattern = np.array([float(t in tables) for t in schema.table_names])
        shrunk = _shrink_join_pattern(schema, pattern, scores)
        expected_pattern = pattern.copy()
        expected_pattern[schema.table_index(weakest)] = 0.0
        np.testing.assert_array_equal(shrunk, expected_pattern)


@pytest.mark.parametrize("name", sorted(CONNECTED_SETS))
def test_spanning_trees_match_bfs_edges(name):
    schema = fresh_schema(name)
    sets = schema.connected_join_sets(schema.num_tables)
    assert len(sets) == CONNECTED_SETS[name]
    for tables in sets:
        graph = induced(schema, tables)
        start = min(tables, key=schema.table_index)
        expected = [graph.edges[u, v]["edge"] for u, v in nx.bfs_edges(graph, start)]
        assert schema.join_edges_within(tables) == expected


@pytest.mark.parametrize("name", ["tpch", "stats"])
def test_every_subset_matches_networkx(name):
    schema = fresh_schema(name)
    rng = np.random.default_rng(0)
    subsets = list(all_subsets(schema))
    assert len(subsets) == 256
    for tables in subsets:
        check_subset(schema, tables, rng)


def test_seeded_imdb_subsets_match_networkx():
    schema = fresh_schema("imdb")
    rng = np.random.default_rng(1)
    for tables in seeded_subsets(schema, 2000):
        check_subset(schema, tables, rng)
    # Small connected sets around the hub tables, where a random subset of
    # 21 tables is rarely connected.
    for tables in schema.connected_join_sets(5):
        check_subset(schema, set(tables), rng)


def test_a_repeated_join_pair_keeps_the_last_edge():
    schema = fresh_schema("tpch")
    first, *rest = schema.joins
    duplicate = type(first)(
        first.left_table, first.left_column, first.right_table, first.right_column
    )
    twice = DatabaseSchema(
        "twice", list(schema.tables.values()), [first, *rest, duplicate]
    )
    tables = {first.left_table, first.right_table}
    graph = nx.Graph()
    for edge in twice.joins:
        graph.add_edge(edge.left_table, edge.right_table, edge=edge)
    (u, v), = nx.bfs_edges(graph.subgraph(tables), min(tables, key=twice.table_index))
    assert twice.join_edges_within(tables) == [graph.edges[u, v]["edge"]]
    assert twice.join_edges_within(tables)[0] is duplicate
