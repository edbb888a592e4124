"""Query encoding: layout, roundtrips, repair, property-based checks."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.db import Query
from repro.utils.errors import EncodingError
from repro.workload import QueryEncoder, WorkloadGenerator


@pytest.fixture(scope="module")
def imdb():
    db = load_dataset("imdb", scale="smoke", seed=0)
    return db, QueryEncoder(db.schema)


@pytest.fixture(scope="module")
def dmv():
    db = load_dataset("dmv", scale="smoke", seed=0)
    return db, QueryEncoder(db.schema)


class TestLayout:
    def test_dim_formula(self, imdb):
        db, enc = imdb
        assert enc.dim == db.schema.num_tables + 2 * db.schema.num_attributes

    def test_join_bits_set(self, imdb):
        db, enc = imdb
        q = Query.build(db.schema, ["title", "cast_info"])
        vec = enc.encode(q)
        assert vec[db.schema.table_index("title")] == 1.0
        assert vec[db.schema.table_index("cast_info")] == 1.0
        assert vec[enc.join_slice()].sum() == 2.0

    def test_unconstrained_attributes_are_open(self, imdb):
        db, enc = imdb
        q = Query.build(db.schema, ["title"])
        vec = enc.encode(q)
        bounds = vec[enc.predicate_slice()].reshape(-1, 2)
        np.testing.assert_array_equal(bounds[:, 0], 0.0)
        np.testing.assert_array_equal(bounds[:, 1], 1.0)

    def test_bounds_positions(self, imdb):
        db, enc = imdb
        q = Query.build(
            db.schema, ["title"], {("title", "production_year"): (0.25, 0.75)}
        )
        vec = enc.encode(q)
        lo, hi = enc.bounds_positions("title", "production_year")
        assert vec[lo] == 0.25 and vec[hi] == 0.75

    def test_attribute_mask_rows_sum_to_table_attr_counts(self, imdb):
        db, enc = imdb
        for t in db.schema.table_names:
            row = enc.attribute_mask[db.schema.table_index(t)]
            assert row.sum() == len(db.schema.attributes_of(t))

    def test_expand_attribute_mask(self, imdb):
        db, enc = imdb
        join = np.zeros((1, enc.num_tables))
        join[0, db.schema.table_index("title")] = 1.0
        mask = enc.expand_attribute_mask(join)
        assert mask.sum() == len(db.schema.attributes_of("title"))


class TestRoundtrip:
    def test_encode_decode_identity(self, imdb):
        db, enc = imdb
        q = Query.build(
            db.schema,
            ["title", "cast_info", "name"],
            {("title", "production_year"): (0.3, 0.7), ("name", "gender"): (0.1, 0.4)},
        )
        back = enc.decode(enc.encode(q))
        assert back.tables == q.tables
        for key, bounds in q.predicates.items():
            assert back.predicates[key] == pytest.approx(bounds)

    def test_wrong_width_rejected(self, imdb):
        _db, enc = imdb
        with pytest.raises(EncodingError):
            enc.decode(np.zeros(enc.dim + 1))

    def test_invalid_join_set_raises_without_repair(self, imdb):
        db, enc = imdb
        vec = np.zeros(enc.dim)
        vec[enc.predicate_slice()] = np.tile([0.0, 1.0], enc.num_attributes)
        # two disconnected dimension tables
        vec[db.schema.table_index("kind_type")] = 1.0
        vec[db.schema.table_index("link_type")] = 1.0
        with pytest.raises(EncodingError):
            enc.decode(vec)
        repaired = enc.decode(vec, repair=True)
        assert db.schema.is_valid_join_set(repaired.tables)

    def test_repair_of_empty_join_picks_best_bit(self, imdb):
        db, enc = imdb
        vec = np.zeros(enc.dim)
        vec[enc.predicate_slice()] = np.tile([0.0, 1.0], enc.num_attributes)
        vec[db.schema.table_index("title")] = 0.45  # below threshold
        q = enc.decode(vec, repair=True)
        assert q.tables == frozenset({"title"})

    def test_repair_tie_goes_to_the_earliest_table_under_every_hash_seed(self, imdb):
        # "name" and "kind_type" share no join, so each is its own
        # component with the same score; the tie must not follow the
        # hash-seeded iteration order of the table set.
        db, enc = imdb
        assert db.schema.table_index("name") < db.schema.table_index("kind_type")
        snippet = (
            "import numpy as np\n"
            "from repro.datasets import load_dataset\n"
            "from repro.workload import QueryEncoder\n"
            "enc = QueryEncoder(load_dataset('imdb', scale='smoke', seed=0).schema)\n"
            "print(sorted(enc._repair_join_set(np.ones(21), {'name', 'kind_type'})))\n"
        )
        answers = set()
        for hash_seed in ("0", "4", "5", "7"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            done = subprocess.run(
                [sys.executable, "-c", snippet], env=env,
                capture_output=True, text=True, check=True,
            )
            answers.add(done.stdout.strip())
        assert answers == {"['name']"}

    def test_swapped_bounds_fixed(self, dmv):
        db, enc = dmv
        q = Query.build(db.schema, ["dmv"])
        vec = enc.encode(q)
        lo, hi = enc.bounds_positions("dmv", "city")
        vec[lo], vec[hi] = 0.8, 0.3
        back = enc.decode(vec)
        assert back.predicates[("dmv", "city")] == (0.3, 0.8)

    def test_snap_turns_near_open_into_open(self, dmv):
        db, enc = dmv
        q = Query.build(db.schema, ["dmv"])
        vec = enc.encode(q)
        lo, hi = enc.bounds_positions("dmv", "city")
        vec[lo], vec[hi] = 0.01, 0.995
        back = enc.decode(vec)
        assert ("dmv", "city") not in back.predicates

    def test_predicates_of_unjoined_tables_dropped(self, imdb):
        db, enc = imdb
        vec = np.zeros(enc.dim)
        vec[enc.predicate_slice()] = np.tile([0.0, 1.0], enc.num_attributes)
        vec[db.schema.table_index("title")] = 1.0
        lo, hi = enc.bounds_positions("name", "gender")
        vec[lo], vec[hi] = 0.2, 0.4
        q = enc.decode(vec)
        assert q.tables == frozenset({"title"})
        assert not q.predicates


class TestRandomRoundtrip:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_generated_queries_roundtrip(self, seed):
        db = load_dataset("tpch", scale="smoke", seed=0)
        enc = QueryEncoder(db.schema)
        gen = WorkloadGenerator(db, seed=seed)
        q = gen.random_query(max_tables=3)
        back = enc.decode(enc.encode(q))
        assert back.tables == q.tables
        # predicates survive modulo snap of near-open bounds
        for key, (lo, hi) in q.predicates.items():
            if lo <= 0.02 and hi >= 0.98:
                continue
            assert key in back.predicates


class TestBatchedEncodeEquivalence:
    """encode_many's scatter-based batching vs the per-query reference."""

    def _random_queries(self, db, count, seed):
        generator = WorkloadGenerator(db, seed=seed)
        return [generator.random_query() for _ in range(count)]

    def test_encode_many_matches_per_query_encode(self, imdb):
        db, enc = imdb
        queries = self._random_queries(db, 40, seed=5)
        batched = enc.encode_many(queries)
        reference = np.stack([enc.encode(q) for q in queries])
        np.testing.assert_array_equal(batched, reference)

    def test_encode_many_on_single_table_dataset(self, dmv):
        db, enc = dmv
        queries = self._random_queries(db, 20, seed=9)
        np.testing.assert_array_equal(
            enc.encode_many(queries), np.stack([enc.encode(q) for q in queries])
        )

    def test_encode_many_empty(self, imdb):
        _db, enc = imdb
        out = enc.encode_many([])
        assert out.shape == (0, enc.dim)


class TestWorkloadEncodingMemo:
    def _workload(self, db, count=12, seed=3):
        return WorkloadGenerator(db, seed=seed).generate(count)

    def test_encode_memoized_per_encoder(self, dmv):
        db, enc = dmv
        workload = self._workload(db)
        first = workload.encode(enc)
        second = workload.encode(enc)
        assert first is second  # cached, not re-encoded

    def test_memoized_matrix_is_readonly(self, dmv):
        db, enc = dmv
        workload = self._workload(db)
        matrix = workload.encode(enc)
        with pytest.raises(ValueError):
            matrix[0, 0] = 99.0

    def test_distinct_encoders_get_distinct_entries(self, dmv):
        db, enc = dmv
        other = QueryEncoder(db.schema)
        workload = self._workload(db)
        np.testing.assert_array_equal(workload.encode(enc), workload.encode(other))
        assert workload.encode(enc) is not workload.encode(other)

    def test_cardinalities_memoized_and_readonly(self, dmv):
        db, _enc = dmv
        workload = self._workload(db)
        cards = workload.cardinalities
        assert workload.cardinalities is cards
        with pytest.raises(ValueError):
            cards[0] = -1.0
