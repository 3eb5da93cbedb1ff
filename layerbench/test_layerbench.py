"""Self-test of the layer-ledger benchmark on tiny configurations.

Run from the repository root::

    python3 -m pytest layerbench -q
"""

from __future__ import annotations

import importlib
import sys

import pytest

import run  # sets up sys.path for repro and benchmarks
import workloads
from spans import LAYERS, TARGETS, SpanRecorder, _class_and_subclasses


class TinyMergePass(workloads.MergePassObserved):
    records = 4_000


class TinyCluster(workloads.ClusterRecovery):
    records = 20_000
    crash_at = 1.0e-4


class TinyService(workloads.Service):
    horizon = 0.0005


TINY = [TinyMergePass(), TinyCluster(), TinyService()]


def _targets():
    """Every attribute the recorder patches, with its current value."""
    found = []
    for module_name, cls_name, attr, _layer, _measure in TARGETS:
        module = importlib.import_module(module_name)
        if cls_name is None:
            original = getattr(module, attr)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "repro" and mod is not None \
                        and mod.__dict__.get(attr) is original:
                    found.append((mod, attr, original))
            continue
        for cls in _class_and_subclasses(getattr(module, cls_name)):
            if attr in cls.__dict__:
                found.append((cls, attr, cls.__dict__[attr]))
    return found


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_layer_self_times_sum_to_root(wl):
    recorder = SpanRecorder()
    with recorder.installed():
        with recorder.root("setup"):
            st = wl.setup(1)
        with recorder.root("run"):
            wl.run(st)
    roll = recorder.rollup()
    assert roll.root_wall > 0
    total = sum(roll.layer_self.values())
    assert total == pytest.approx(roll.root_wall, rel=1e-9, abs=1e-9)
    assert min(roll.layer_self.values()) >= -1e-9
    assert set(roll.layer_self) == set(LAYERS)
    # The program did real work inside its own layers, not the glue.
    assert roll.layer_self["bench"] < 0.5 * roll.root_wall


def test_each_layer_is_seen():
    """The tiny workloads together bill time to every program layer."""
    seen = set()
    for wl in TINY:
        recorder = SpanRecorder()
        with recorder.installed():
            with recorder.root("run"):
                wl.run(wl.setup(1))
        roll = recorder.rollup()
        seen |= {layer for layer, t in roll.layer_self.items() if t > 0}
    assert set(LAYERS) - {"other"} <= seen


def test_every_wrapped_function_is_restored():
    before = _targets()
    assert len(before) >= len(TARGETS)
    recorder = SpanRecorder()
    with pytest.raises(RuntimeError, match="boom"):
        with recorder.installed():
            assert recorder.patches
            for owner, attr, original in before:
                assert owner.__dict__[attr] is not original
            raise RuntimeError("boom")
    assert not recorder.patches
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, f"{owner}.{attr}"


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
def test_traced_reps_reproduce_untraced_results(wl):
    bench = run.Bench(wl, seed=3)
    recorder = SpanRecorder()
    untraced, _ = bench.timed(0)
    traced, _ = bench.timed(0, recorder)
    traced_again, _ = bench.timed(0, recorder)
    assert untraced and traced and traced_again
    assert bench.checks.failures == []
    # Per rep: output and problems; per later rep: fingerprint and
    # counters; per later traced rep: wrapped-call counts.
    assert bench.checks.attempted == 2 + 4 + 5


def test_a_failed_check_is_counted_not_raised():
    class Broken(TinyService):
        def output_digest(self, st):
            return "not a digest"

    bench = run.Bench(Broken(), seed=3)
    reps, _ = bench.timed(0)
    assert reps
    assert bench.checks.failures == ["output is not the input in sorted order"]
