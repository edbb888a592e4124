"""Relational schema: columns, tables, foreign-key join graph.

The schema is the only information PACE's threat model grants the attacker
(Section 2.2 of the paper), so it is deliberately a small, self-contained
value object: names, attribute domains, and which key columns join to which.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.errors import SchemaError


@dataclass(frozen=True)
class Column:
    """One table column.

    Attributes:
        name: column name, unique within its table.
        kind: ``"attribute"`` (filterable numeric column) or ``"key"``
            (join key; never filtered by SPJ predicates).
        low/high: inclusive domain bounds used to normalize predicate
            bounds into ``[0, 1]``. Only meaningful for attributes.
    """

    name: str
    kind: str = "attribute"
    low: float = 0.0
    high: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("attribute", "key"):
            raise SchemaError(f"column kind must be 'attribute' or 'key', got {self.kind!r}")
        if self.kind == "attribute" and not self.high > self.low:
            raise SchemaError(
                f"column {self.name!r} needs high > low, got [{self.low}, {self.high}]"
            )

    def normalize(self, value):
        """Map a physical value into ``[0, 1]``."""
        return (value - self.low) / (self.high - self.low)

    def denormalize(self, value):
        """Map a normalized value back into the physical domain."""
        return value * (self.high - self.low) + self.low


@dataclass(frozen=True)
class TableSchema:
    """A table definition: an ordered tuple of columns."""

    name: str
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}: {names}")

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    @property
    def attributes(self) -> tuple[Column, ...]:
        """Filterable (non-key) columns, in declaration order."""
        return tuple(c for c in self.columns if c.kind == "attribute")

    @property
    def keys(self) -> tuple[Column, ...]:
        return tuple(c for c in self.columns if c.kind == "key")


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join edge ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    def touches(self, table: str) -> bool:
        return table in (self.left_table, self.right_table)

    def other(self, table: str) -> str:
        if table == self.left_table:
            return self.right_table
        if table == self.right_table:
            return self.left_table
        raise SchemaError(f"join edge {self} does not touch table {table!r}")

    def column_for(self, table: str) -> str:
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise SchemaError(f"join edge {self} does not touch table {table!r}")


class DatabaseSchema:
    """All tables plus the FK join graph; also fixes the encoding order.

    Table order and per-table attribute order are part of the public
    contract: the query encoder, the generators, and the CE models all index
    into vectors laid out by this schema.
    """

    def __init__(self, name: str, tables: list[TableSchema], joins: list[JoinEdge]) -> None:
        self.name = name
        self.tables: dict[str, TableSchema] = {}
        for table in tables:
            if table.name in self.tables:
                raise SchemaError(f"duplicate table {table.name!r}")
            self.tables[table.name] = table
        self.joins = tuple(joins)
        for edge in self.joins:
            for tbl, col in (
                (edge.left_table, edge.left_column),
                (edge.right_table, edge.right_column),
            ):
                if tbl not in self.tables:
                    raise SchemaError(f"join edge references unknown table {tbl!r}")
                self.tables[tbl].column(col)  # raises if missing

        self.table_names: tuple[str, ...] = tuple(self.tables)
        self._table_index = {t: i for i, t in enumerate(self.table_names)}
        # Global attribute order: tables in declaration order, attributes in
        # column order. This is the layout of the predicate section of a
        # query encoding.
        self.attribute_order: tuple[tuple[str, str], ...] = tuple(
            (t, c.name) for t in self.table_names for c in self.tables[t].attributes
        )
        self._attribute_index = {tc: i for i, tc in enumerate(self.attribute_order)}

        # The join graph as adjacency in join-declaration order. A later
        # edge between the same two tables replaces the earlier one but
        # keeps its place in the order.
        self._adjacency: dict[str, dict[str, JoinEdge]] = {t: {} for t in self.table_names}
        for edge in self.joins:
            self._adjacency[edge.left_table][edge.right_table] = edge
            self._adjacency[edge.right_table][edge.left_table] = edge

        # The schema is immutable after construction, so join-graph queries
        # keyed by table subsets are memoized (the generators and the
        # executor probe the same handful of subsets millions of times).
        self._valid_join_sets: dict[frozenset[str], bool] = {}
        self._tree_edges: dict[frozenset[str], list[JoinEdge]] = {}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self.table_names)

    @property
    def num_attributes(self) -> int:
        return len(self.attribute_order)

    def table(self, name: str) -> TableSchema:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"schema {self.name!r} has no table {name!r}") from None

    def table_index(self, name: str) -> int:
        self.table(name)
        return self._table_index[name]

    def attribute_index(self, table: str, column: str) -> int:
        try:
            return self._attribute_index[(table, column)]
        except KeyError:
            raise SchemaError(f"no attribute {table}.{column} in schema {self.name!r}") from None

    def attributes_of(self, table: str) -> tuple[tuple[str, str], ...]:
        self.table(table)
        return tuple(tc for tc in self.attribute_order if tc[0] == table)

    # ------------------------------------------------------------------
    # join-graph queries
    # ------------------------------------------------------------------
    def is_valid_join_set(self, tables) -> bool:
        """True when ``tables`` is non-empty and connected in the join graph."""
        key = frozenset(tables)
        cached = self._valid_join_sets.get(key)
        if cached is None:
            cached = self._is_valid_join_set(key)
            self._valid_join_sets[key] = cached
        return cached

    def _is_valid_join_set(self, tables: frozenset[str]) -> bool:
        if not tables or not tables <= set(self.table_names):
            return False
        start = min(tables, key=self._table_index.__getitem__)
        reached, _ = self._breadth_first(start, tables)
        return len(reached) == len(tables)

    def join_edges_within(self, tables) -> list[JoinEdge]:
        """Edges of a spanning tree over ``tables`` (deterministic BFS order)."""
        key = frozenset(tables)
        cached = self._tree_edges.get(key)
        if cached is None:
            cached = self._join_edges_within(key)
            self._tree_edges[key] = cached
        return list(cached)

    def _join_edges_within(self, tables: frozenset[str]) -> list[JoinEdge]:
        if not self.is_valid_join_set(tables):
            raise SchemaError(f"tables {sorted(tables)} are not a connected join set")
        start = min(tables, key=self._table_index.__getitem__)
        _, tree = self._breadth_first(start, tables)
        return tree

    def _breadth_first(self, start: str, tables) -> tuple[list[str], list[JoinEdge]]:
        """Breadth-first search from ``start`` within ``tables``.

        Returns the tables reached, in visiting order, and the tree edges
        that reached them. Neighbors are visited in join-declaration order,
        so both are a pure function of the schema, never of set order.
        """
        reached = [start]
        tree: list[JoinEdge] = []
        for table in reached:
            for neighbor, edge in self._adjacency[table].items():
                if neighbor in tables and neighbor not in reached:
                    reached.append(neighbor)
                    tree.append(edge)
        return reached, tree

    def components(self, tables) -> list[list[str]]:
        """Connected components of ``tables`` in the join graph.

        Tables are in schema order within each component, and components
        are listed by their earliest table.
        """
        members = set(tables)
        seen: set[str] = set()
        found: list[list[str]] = []
        for table in self.table_names:
            if table in members and table not in seen:
                reached = set(self._breadth_first(table, members)[0])
                seen |= reached
                found.append([t for t in self.table_names if t in reached])
        return found

    def neighbors(self, table: str) -> tuple[str, ...]:
        self.table(table)
        return tuple(sorted(self._adjacency[table]))

    def connected_join_sets(self, max_size: int) -> list[frozenset[str]]:
        """Enumerate every connected table subset up to ``max_size`` tables."""
        found: set[frozenset[str]] = {frozenset([t]) for t in self.table_names}
        frontier = list(found)
        while frontier:
            current = frontier.pop()
            if len(current) >= max_size:
                continue
            for table in current:
                for neighbor in self._adjacency[table]:
                    grown = current | {neighbor}
                    if grown not in found:
                        found.add(grown)
                        frontier.append(grown)
        return sorted(found, key=lambda s: (len(s), sorted(s)))

    def __repr__(self) -> str:
        return (
            f"DatabaseSchema({self.name!r}, tables={len(self.tables)}, "
            f"attributes={self.num_attributes}, joins={len(self.joins)})"
        )
