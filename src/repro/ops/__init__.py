"""Autonomous ops plane: monitoring, anomaly detection, self-healing.

The serve/cluster layers recover from failures they are *told* about
(heartbeats, closed pipes). This package closes the remaining gap — the
paper's central finding is that learned estimators degrade *silently*
under drift and poisoning — by watching the telemetry the serving layers
already export and acting on what it finds:

* :mod:`repro.ops.tsdb` — a small in-memory time-series store ingesting
  :meth:`~repro.serve.stats.ServeStats.to_json` snapshots as named
  metric streams (ring-buffer retention, windowed queries), driven
  entirely by :mod:`repro.utils.clock`;
* :mod:`repro.ops.detect` — spike, CUSUM level-shift, and
  forecast-residual detectors over those streams, byte-deterministic;
* :mod:`repro.ops.diagnose` — a root-cause classifier mapping alarm
  combinations to causes (poisoning vs. model drift vs. cache-miss
  storm vs. dead shard);
* :mod:`repro.ops.actions` — guarded actuators: bitwise rollback to the
  last known-good promoted digest, guard installation on the retrain
  loop, shard quarantine, each committed as run-lineage events;
* :mod:`repro.ops.loop` — the closed-loop controller gluing the above;
* :mod:`repro.ops.chaos` / :mod:`repro.ops.sim` — ``ops-sim`` replays
  attack traffic the controller is *not told about* and proves
  detection + recovery in one scenario digest.
"""

from repro.ops.actions import (
    ActionResult,
    AdvisoryAction,
    GuardedRetrainAction,
    QuarantineAction,
    RollbackAction,
    ServePlant,
)
from repro.ops.detect import (
    Alarm,
    CusumDetector,
    DetectorBank,
    ForecastResidualDetector,
    SpikeDetector,
    default_bank,
)
from repro.ops.diagnose import CAUSES, Diagnosis, RootCauseClassifier
from repro.ops.loop import OpsController, TickResult
from repro.ops.tsdb import MetricSeries, TimeSeriesDB

__all__ = [
    "ActionResult",
    "AdvisoryAction",
    "Alarm",
    "CAUSES",
    "CusumDetector",
    "DetectorBank",
    "Diagnosis",
    "ForecastResidualDetector",
    "GuardedRetrainAction",
    "MetricSeries",
    "OpsController",
    "QuarantineAction",
    "RollbackAction",
    "RootCauseClassifier",
    "ServePlant",
    "SpikeDetector",
    "TickResult",
    "TimeSeriesDB",
    "default_bank",
]
