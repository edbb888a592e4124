"""Self-time arithmetic and exact restoration of wrapped functions."""

import sys
import types

import pytest

import layers
from tracer import Target, Tracer, covered, self_times, summarize, under


def span(name, start, end, parent=-1, rows=0):
    return [name, start, end, parent, False, rows]


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 2.0, 3.0, parent=1),
        span("c", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 3.0, 0), span("b", 2.0, 4.0, 0)]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_summarize_and_ancestry():
    spans = [
        span("gen", 0.0, 4.0),
        span("decode", 1.0, 2.0, parent=0, rows=5),
        span("decode", 5.0, 6.0, rows=7),
    ]
    summary = summarize(spans)
    assert summary["decode"]["calls"] == 2
    assert summary["decode"]["rows"] == 12
    assert summary["gen"]["self_s"] == pytest.approx(3.0)
    assert [s[5] for s in under(spans, "decode", "gen")] == [5]


@pytest.fixture
def fake_modules():
    """A library module and a client that imported one function by name."""
    lib = types.ModuleType("repro_fake_lib")

    def work(x):
        return x + 1

    class Thing:
        def method(self, x):
            return x * 2

        @staticmethod
        def static(x):
            return -x

        @classmethod
        def klass(cls, x):
            return (cls.__name__, x)

    lib.work, lib.Thing = work, Thing
    client = types.ModuleType("repro_fake_client")
    client.work = work
    sys.modules[lib.__name__] = lib
    sys.modules[client.__name__] = client
    yield lib, client
    del sys.modules[lib.__name__], sys.modules[client.__name__]


def test_wrappers_trace_calls_and_restore_exactly(fake_modules):
    lib, client = fake_modules
    before_work = lib.work
    before_raw = dict(lib.Thing.__dict__)
    tracer = Tracer()
    tracer.install([
        Target("repro_fake_lib", "work", "lib.work"),
        Target("repro_fake_lib:Thing", "method", "lib.method"),
        Target("repro_fake_lib:Thing", "static", "lib.static"),
        Target("repro_fake_lib:Thing", "klass", "lib.klass"),
    ])
    assert lib.work is not before_work and client.work is lib.work
    with tracer.span("root"):
        assert client.work(1) == 2
        assert lib.Thing().method(3) == 6
        assert lib.Thing.static(4) == -4
        assert lib.Thing.klass(5) == ("Thing", 5)
    tracer.restore()
    assert lib.work is before_work and client.work is before_work
    for key in ("method", "static", "klass"):
        assert lib.Thing.__dict__[key] is before_raw[key]
    names = [s[0] for s in tracer.spans]
    assert names == ["root", "lib.work", "lib.method", "lib.static", "lib.klass"]
    assert all(s[3] == 0 for s in tracer.spans[1:])


def test_flat_target_records_only_the_outermost_call(fake_modules):
    lib, _ = fake_modules

    def outer(n):
        return 0 if n == 0 else 1 + lib.work(n - 1)

    lib.work = outer
    with Tracer() as tracer:
        tracer.install([Target("repro_fake_lib", "work", "w", flat=True)])
        assert lib.work(3) == 3
    assert [s[0] for s in tracer.spans] == ["w"]
    assert lib.work is outer


def test_errors_are_flagged_and_the_stack_unwinds(fake_modules):
    lib, _ = fake_modules

    def boom():
        raise ValueError("no")

    lib.boom = boom
    with Tracer() as tracer:
        tracer.install([Target("repro_fake_lib", "boom", "boom")])
        with pytest.raises(ValueError):
            lib.boom()
        with tracer.span("after"):
            pass
    assert tracer.spans[0][4] is True
    assert tracer.spans[1][3] == -1


def test_library_targets_are_restored_exactly():
    """Every real layer boundary goes back to the identical object."""
    import importlib

    def slots():
        out = {}
        for target in layers.TARGETS:
            module_name, _, class_name = target.module.partition(":")
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            out[(target.module, target.attr)] = owner.__dict__[target.attr]
        return out

    before = slots()
    with Tracer() as tracer:
        tracer.install(layers.TARGETS)
        during = slots()
    after = slots()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)
    from repro.harness import experiments
    from repro.ce import trainer

    assert experiments.train_model is trainer.train_model


def test_chrome_trace_has_one_complete_event_per_span():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            pass
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["root", "child"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == 0
