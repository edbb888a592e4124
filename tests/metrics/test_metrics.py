"""Q-error summaries, JS divergence, table rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics import (
    QErrorSummary,
    degradation_factor,
    format_value,
    js_divergence_1d,
    q_errors,
    render_table,
    workload_divergence,
)
from repro.utils.errors import ReproError


class TestQErrors:
    def test_symmetry(self):
        a = q_errors(np.array([10.0]), np.array([100.0]))
        b = q_errors(np.array([1000.0]), np.array([100.0]))
        np.testing.assert_allclose(a, b)

    def test_floor_at_one(self):
        errors = q_errors(np.array([5.0, 5.0]), np.array([5.0, 5.0]))
        np.testing.assert_array_equal(errors, [1.0, 1.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError):
            q_errors(np.ones(3), np.ones(4))

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, 8, elements=st.floats(1.0, 1e6)))
    def test_always_at_least_one(self, estimates):
        truths = np.full(8, 100.0)
        assert np.all(q_errors(estimates, truths) >= 1.0)


class TestSummary:
    def test_percentiles_ordered(self):
        errors = np.random.default_rng(0).uniform(1, 100, size=500)
        s = QErrorSummary.from_errors(errors)
        assert s.median <= s.p90 <= s.p95 <= s.p99 <= s.max
        assert s.count == 500

    def test_as_row_matches_paper_columns(self):
        s = QErrorSummary.from_errors(np.array([1.0, 2.0, 3.0]))
        assert set(s.as_row()) == {"90th", "95th", "99th", "max"}

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            QErrorSummary.from_errors(np.array([]))

    def test_degradation_factor(self):
        before = np.array([2.0, 2.0])
        after = np.array([20.0, 20.0])
        assert degradation_factor(before, after) == pytest.approx(10.0)
        with pytest.raises(ReproError):
            degradation_factor(np.array([]), after)


class TestDivergence:
    def test_identical_samples_near_zero(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=500)
        assert js_divergence_1d(x, x.copy()) == pytest.approx(0.0, abs=1e-9)

    def test_disjoint_samples_near_one(self):
        a = np.zeros(200)
        b = np.ones(200)
        assert js_divergence_1d(a, b) > 0.9

    def test_monotone_in_shift(self):
        rng = np.random.default_rng(1)
        base = rng.normal(0, 1, size=800)
        d_small = js_divergence_1d(base, base + 0.5)
        d_large = js_divergence_1d(base, base + 3.0)
        assert d_small < d_large

    def test_constant_samples_zero(self):
        assert js_divergence_1d(np.full(10, 3.0), np.full(10, 3.0)) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            js_divergence_1d(np.array([]), np.ones(3))

    def test_workload_divergence_averages_dimensions(self):
        rng = np.random.default_rng(2)
        history = rng.uniform(size=(200, 4))
        same = rng.uniform(size=(200, 4))
        shifted = same.copy()
        shifted[:, 0] = shifted[:, 0] * 0.05  # collapse one dimension
        assert workload_divergence(shifted, history) > workload_divergence(same, history)

    def test_workload_divergence_width_mismatch(self):
        with pytest.raises(ReproError):
            workload_divergence(np.ones((3, 2)), np.ones((3, 5)))

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(np.float64, 30, elements=st.floats(0, 1)),
        arrays(np.float64, 30, elements=st.floats(0, 1)),
    )
    def test_bounded_and_symmetric(self, a, b):
        d_ab = js_divergence_1d(a, b)
        d_ba = js_divergence_1d(b, a)
        assert 0.0 <= d_ab <= 1.0 + 1e-9
        assert d_ab == pytest.approx(d_ba, abs=1e-9)


class TestScipyOracle:
    """The NumPy JS divergence against ``scipy.spatial.distance.jensenshannon``.

    SciPy is a dev-only dependency, so it serves here as an oracle that
    shares no code with :mod:`repro.metrics.divergence`.
    """

    @staticmethod
    def _oracle_1d(a, b, bins=20):
        jensenshannon = pytest.importorskip("scipy.spatial.distance").jensenshannon
        lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
        if hi <= lo:
            return 0.0
        edges = np.linspace(lo, hi, bins + 1)
        pa = np.histogram(a, bins=edges)[0] + 1e-9
        pb = np.histogram(b, bins=edges)[0] + 1e-9
        return float(jensenshannon(pa, pb, base=2.0) ** 2)

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_histograms(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 1.0, size=300)
        b = rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0), size=200)
        assert js_divergence_1d(a, b) == pytest.approx(
            self._oracle_1d(a, b), abs=1e-12
        )

    def test_identical_support(self):
        x = np.random.default_rng(3).uniform(size=400)
        assert js_divergence_1d(x, x.copy()) == pytest.approx(
            self._oracle_1d(x, x.copy()), abs=1e-12
        )

    def test_disjoint_support(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.0, 0.4, size=250)
        b = rng.uniform(0.6, 1.0, size=250)
        expected = self._oracle_1d(a, b)
        assert expected > 0.99
        assert js_divergence_1d(a, b) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_workload_divergence(self, seed):
        rng = np.random.default_rng(100 + seed)
        poison = rng.beta(0.5, 2.0, size=(64, 6))
        history = rng.uniform(size=(256, 6))
        poison[:, 0] = 0.25  # a constant column piles into a single bin
        expected = np.mean([
            self._oracle_1d(poison[:, d], history[:, d]) for d in range(6)
        ])
        assert workload_divergence(poison, history) == pytest.approx(
            expected, abs=1e-12
        )


class TestReport:
    def test_render_alignment(self):
        text = render_table(["name", "value"], [["a", 1.0], ["bb", 22.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_value_ranges(self):
        assert format_value(None) == "-"
        assert format_value("x") == "x"
        assert format_value(0) == "0"
        assert format_value(123456) == "1.23e+05"
        assert format_value(123.4) == "123.4"
        assert format_value(1.23456) == "1.235"
        assert format_value(0.012) == "0.0120"
