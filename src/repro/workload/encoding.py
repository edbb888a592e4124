"""Query <-> vector encoding (Section 5.2 of the paper).

A query over a schema with ``T`` tables and ``A`` global attributes becomes
a vector of width ``T + 2A``:

* positions ``[0, T)`` — binary join vector (1 = table participates);
* positions ``[T + 2i, T + 2i + 2)`` — normalized ``[low, high]`` bounds of
  attribute ``i`` (schema attribute order); unconstrained attributes and
  attributes of non-joined tables encode as ``[0, 1]``.

The encoder is shared by every consumer — CE models, the PACE generator,
the anomaly detector — so the layout lives in exactly one place.
"""

from __future__ import annotations

import numpy as np

from repro.db.query import Query
from repro.db.schema import DatabaseSchema
from repro.utils.errors import EncodingError

#: Bounds closer than this to [0, 1] are treated as "no predicate" on decode.
_OPEN_EPS = 1e-9


class QueryEncoder:
    """Encodes queries of one schema into fixed-width vectors."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self.num_tables = schema.num_tables
        self.num_attributes = schema.num_attributes
        self.dim = self.num_tables + 2 * self.num_attributes
        # (T, A) 0/1 matrix: attribute_mask[t, a] == 1 iff attribute a
        # belongs to table t. Used to mask generated predicates.
        self.attribute_mask = np.zeros((self.num_tables, self.num_attributes))
        for a, (table, _col) in enumerate(schema.attribute_order):
            self.attribute_mask[schema.table_index(table), a] = 1.0
        # Flat lookup tables so the batch encoder never walks the schema.
        self._table_index = {name: i for i, name in enumerate(schema.table_names)}
        self._attr_index = {key: a for a, key in enumerate(schema.attribute_order)}
        self._attr_order = list(schema.attribute_order)

    def _attribute_position(self, table: str, col: str) -> int:
        position = self._attr_index.get((table, col))
        if position is None:
            # Defer to the schema for its (richer) unknown-attribute error.
            position = self.schema.attribute_index(table, col)
        return position

    # ------------------------------------------------------------------
    # encode
    # ------------------------------------------------------------------
    def encode(self, query: Query) -> np.ndarray:
        """Vector representation of one query."""
        vec = np.zeros(self.dim)
        base = self.num_tables
        vec[base + 1 :: 2] = 1.0
        for table in query.tables:
            vec[self._table_index[table]] = 1.0
        for (table, col), (low, high) in query.predicates.items():
            a = self._attribute_position(table, col)
            vec[base + 2 * a] = low
            vec[base + 2 * a + 1] = high
        return vec

    def encode_many(self, queries) -> np.ndarray:
        """Matrix of encodings, one row per query.

        Batched: per-query structure is flattened into index arrays once,
        then written with two fancy-index scatters instead of one numpy
        round-trip per (query, attribute) pair.
        """
        queries = list(queries)
        n = len(queries)
        out = np.zeros((n, self.dim))
        base = self.num_tables
        out[:, base + 1 :: 2] = 1.0
        if n == 0:
            return out
        table_index = self._table_index
        join_rows: list[int] = []
        join_cols: list[int] = []
        pred_rows: list[int] = []
        pred_cols: list[int] = []
        pred_lows: list[float] = []
        pred_highs: list[float] = []
        for i, query in enumerate(queries):
            for table in query.tables:
                join_rows.append(i)
                join_cols.append(table_index[table])
            for (table, col), (low, high) in query.predicates.items():
                a = self._attribute_position(table, col)
                pred_rows.append(i)
                pred_cols.append(base + 2 * a)
                pred_lows.append(low)
                pred_highs.append(high)
        if join_rows:
            out[join_rows, join_cols] = 1.0
        if pred_rows:
            rows = np.asarray(pred_rows)
            cols = np.asarray(pred_cols)
            out[rows, cols] = pred_lows
            out[rows, cols + 1] = pred_highs
        return out

    # ------------------------------------------------------------------
    # decode
    # ------------------------------------------------------------------
    def decode(self, vector: np.ndarray, repair: bool = False, snap: float = 0.02) -> Query:
        """Reconstruct a query from a vector.

        Join bits are thresholded at 0.5; bound pairs with ``low > high``
        are swapped; bounds equal to ``[0, 1]`` become "no predicate".

        Args:
            repair: when the thresholded join set is invalid (empty or
                disconnected), fall back to the best valid subset instead of
                raising — the connected component with the largest total
                join-bit mass, or the single highest-bit table.
            snap: bounds within ``snap`` of the domain edge are snapped onto
                it, so a generated "almost unconstrained" attribute decodes
                to an actually unconstrained one (continuous generators
                cannot emit exact 0/1 through a sigmoid).

        Raises:
            EncodingError: wrong vector width, or invalid join set with
                ``repair=False``.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise EncodingError(f"expected vector of shape ({self.dim},), got {vector.shape}")
        join_bits = vector[: self.num_tables]
        tables = {self.schema.table_names[i] for i in np.nonzero(join_bits > 0.5)[0]}
        if not self.schema.is_valid_join_set(tables):
            if not repair:
                raise EncodingError(f"decoded join set {sorted(tables)} is invalid")
            tables = self._repair_join_set(join_bits, tables)

        predicates: dict[tuple[str, str], tuple[float, float]] = {}
        base = self.num_tables
        for a, (table, col) in enumerate(self.schema.attribute_order):
            if table not in tables:
                continue
            low = float(np.clip(vector[base + 2 * a], 0.0, 1.0))
            high = float(np.clip(vector[base + 2 * a + 1], 0.0, 1.0))
            if low > high:
                low, high = high, low
            if low <= snap:
                low = 0.0
            if high >= 1.0 - snap:
                high = 1.0
            if low <= _OPEN_EPS and high >= 1.0 - _OPEN_EPS:
                continue
            predicates[(table, col)] = (low, high)
        return Query.build(self.schema, tables, predicates)

    def decode_many(self, matrix: np.ndarray, repair: bool = False) -> list[Query]:
        return [self.decode(row, repair=repair) for row in np.asarray(matrix)]

    def _repair_join_set(self, join_bits: np.ndarray, tables: set[str]) -> set[str]:
        if not tables:
            best = int(np.argmax(join_bits))
            return {self.schema.table_names[best]}
        # Components and their members come in schema order, so the float
        # sums and the argmax tie-break (to the component holding the
        # earliest table) never depend on the hash seed.
        components = self.schema.components(tables)
        scores = [sum(join_bits[self.schema.table_index(t)] for t in comp) for comp in components]
        return set(components[int(np.argmax(scores))])

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------
    def join_slice(self) -> slice:
        """Positions of the join-bit section."""
        return slice(0, self.num_tables)

    def predicate_slice(self) -> slice:
        """Positions of the bounds section."""
        return slice(self.num_tables, self.dim)

    def bounds_positions(self, table: str, column: str) -> tuple[int, int]:
        """Vector positions of ``(low, high)`` for one attribute."""
        a = self.schema.attribute_index(table, column)
        base = self.num_tables
        return base + 2 * a, base + 2 * a + 1

    def expand_attribute_mask(self, join_binary: np.ndarray) -> np.ndarray:
        """Per-attribute 0/1 mask implied by a batch of join vectors.

        Args:
            join_binary: ``(batch, T)`` 0/1 matrix.

        Returns:
            ``(batch, A)`` matrix: 1 where the attribute's table is joined.
        """
        join_binary = np.asarray(join_binary, dtype=np.float64)
        return join_binary @ self.attribute_mask
