"""Distribution divergence between poisoning and historical workloads.

The paper's "Divergence" metric is the Jensen-Shannon divergence between
the encodings of the poisoning queries and the historical queries
(Section 2.2). Encodings are continuous vectors, so we histogram each
dimension on a shared grid and average the per-dimension JS divergences.
"""

from __future__ import annotations

import numpy as np

from repro.utils.errors import ReproError


def js_divergence_1d(a: np.ndarray, b: np.ndarray, bins: int = 20) -> float:
    """JS divergence between two scalar samples on a shared histogram grid."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ReproError("JS divergence needs non-empty samples")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    pa, _ = np.histogram(a, bins=edges)
    pb, _ = np.histogram(b, bins=edges)
    # Laplace smoothing keeps the divergence finite on disjoint supports.
    pa = pa.astype(np.float64) + 1e-9
    pb = pb.astype(np.float64) + 1e-9
    pa /= pa.sum()
    pb /= pb.sum()
    # (KL(pa || m) + KL(pb || m)) / 2 in bits, with m the midpoint.
    m = (pa + pb) / 2.0
    nats = np.sum(pa * np.log(pa / m)) + np.sum(pb * np.log(pb / m))
    return float(nats / np.log(2.0) / 2.0)


def workload_divergence(
    poison_encodings: np.ndarray, history_encodings: np.ndarray, bins: int = 20
) -> float:
    """Mean per-dimension JS divergence between two encoding matrices."""
    poison = np.atleast_2d(np.asarray(poison_encodings, dtype=np.float64))
    history = np.atleast_2d(np.asarray(history_encodings, dtype=np.float64))
    if poison.shape[1] != history.shape[1]:
        raise ReproError(
            f"encoding widths differ: {poison.shape[1]} vs {history.shape[1]}"
        )
    divergences = [
        js_divergence_1d(poison[:, d], history[:, d], bins=bins)
        for d in range(poison.shape[1])
    ]
    return float(np.mean(divergences))
