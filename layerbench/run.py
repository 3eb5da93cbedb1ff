"""Layer ledger: host-speed benchmark of the simulator, end to end and per layer.

One command per workload prints every metric by name and unit, checks
every output, and ends with one JSON line::

    python3 layerbench/run.py --workload mergepass --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced reps and reports the end-to-end metrics;
``--trace 1`` times untraced and then span-traced reps and reports the
per-layer metrics.  Run it from a checkout of the repository (it imports
``src/repro`` and ``benchmarks/bench_selfperf.py`` from there);
``python3 -m pytest layerbench`` runs the benchmark's self-test.

Workloads (single process, single thread, input generated from --seed)
-----------------------------------------------------------------------
``mergepass``
    WiscSort forced MergePass over 200k gensort records: 96 KiB read
    buffer (a 134-way merge), ``merge_chunk_entries=1500``, 8 background
    writer clients.  ``bench_selfperf``'s frozen workload.  *Why:*
    kernel-bound -- 13.8k vector solves of ~9 ops and 4.1k MergeFrontier
    steps, so ``sim``, ``core`` and ``device`` do most of the work.
``mergepass-observed``
    The same run with ``Tracer(analyze=True)``, ``SimSanitizer`` and
    ``RaceDetector`` installed and their checks asserted.  *Why:*
    observer hooks fire on every engine event; an observer-bus change
    should speed this workload and leave ``mergepass`` unmoved.
``cluster-recovery``
    4-shard ``ShardedWiscSort(checkpoint=True)`` over 100k records;
    shard1 crashes at simulated t=0.82 ms (about 60% in) and
    ``run_cluster_with_faults`` recovers it.  *Why:* data movement --
    shuffle, network model, manifests and ``recover()``; its shard sorts
    are OnePass, so it bypasses MergeFrontier and fluid batching.  At
    1M records its run medians spread 20-40% between runs on a shared
    VM: each rep page-faulted in hundreds of MB, a cost that varies
    with the host's load.  At 100k its arrays are reused from the heap.
``service``
    Open-loop Poisson arrivals of 2,000-record jobs at 80k jobs per
    simulated second over 0.01 s (~800 jobs) on 2 shards, 48 MB DRAM,
    ``backpressure`` policy, ``queue_cap=8``, 0.5 ms deadline.  *Why:*
    past the knee, so admission and shedding run on every arrival; many
    small jobs stress per-job set-up and the engine's process machinery,
    and no merge runs.

End-to-end metrics (``--trace 0``)
----------------------------------
``records_per_s``  input records sorted per host second of the timed
                   call (``service``: records of every arrived job per
                   host second of ``serve()``), median over reps.
``setup_s``        host seconds to build the machine or cluster, install
                   observers and generate the input, median over reps.

Both are rescaled to a reference host speed: a fixed memory-bound numpy
probe (:func:`probe_seconds`) is timed before and after every rep, and
the run's host times are multiplied by ``PROBE_REF_S`` over the median
probe time.  On a shared VM raw medians drift by 10-40% between runs
minutes apart; the probe drifts with them.  The raw walls, raw set-up
times and each rep's host speed are printed beside the metrics.
``peak_rss_mb``    host memory high-water mark of the process.
``sim_s``          simulated seconds (``service``: simulated makespan).

Each printed metric line gives the median with its rep count ``n`` and
quartiles ``q1``/``q3``, so the noise band is in the output itself.  The
process pins itself to one CPU: on a small VM the CPUs run at different
speeds, and placement otherwise spreads host times between runs.

Every rep is checked, and a failed check is counted, not fatal: the
error rate is ``failed``/``attempted`` of the JSON line (it is not a
metric, because a metric must never read 0).  MergePass and the cluster
run with ``validate=False``; the service validates each job inside
``serve()``, as ``repro serve`` does.  Checks:
the output equals the input sorted by the benchmark's own oracle;
the simulated fingerprint and the work counters repeat exactly across
reps and between traced and untraced reps; a warm-up rep at the anchor
seed matches frozen values (``BENCH_selfperf.json`` for the MergePass
workloads, ``layerbench/frozen.json`` for the others); the observers
report no drift, race or broken decomposition; the fault report shows
a crash and a recovery.

Per-layer metrics (``--trace 1``) and the end-to-end metric each moves
--------------------------------------------------------------------
=========  ==========================================  ==========================
layer      metrics                                     should move
=========  ==========================================  ==========================
sim        self_s engine_steps clock_advances          records_per_s on mergepass
           rerate_calls ops_rerated rerate_useful_frac  and mergepass-observed;
           vector_batch_avg us_per_step                ~nothing on cluster-recovery
device     self_s assign_calls rate_cache_hit_rate     records_per_s on mergepass
core       self_s frontier_steps entries_per_step      records_per_s on mergepass;
                                                       none on service and
                                                       cluster-recovery
storage    self_s file_ops bytes_copied gather_s       records_per_s on
                                                       cluster-recovery and
                                                       service; peak_rss_mb,
                                                       setup_s
records    self_s validate_s                           setup_s everywhere;
                                                       records_per_s on
                                                       cluster-recovery, service
cluster    self_s net_bytes policy_calls jobs_shed     records_per_s on service
                                                       (admission) and
                                                       cluster-recovery (shuffle)
faults     self_s recover_s crashes salvage_frac       records_per_s on
                                                       cluster-recovery
observers  self_s hook_calls                           records_per_s on
                                                       mergepass-observed; zero
                                                       elsewhere
other      self_s (machine.py, workloads/, ...)        --
bench      self_s, ledger.wall_s, trace_overhead       none; keeps the tracer
                                                       honest
=========  ==========================================  ==========================

Times are per traced rep (set-up plus timed call); the self times of all
layers add up to ``ledger.wall_s``.  ``trace_overhead`` is the median
traced timed-call wall over the median untraced one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FROZEN = Path(__file__).resolve().parent / "frozen.json"
SELFPERF = ROOT / "BENCH_selfperf.json"

if not (ROOT / "src" / "repro").is_dir() or not SELFPERF.is_file():
    raise SystemExit(
        "layerbench: run from a repository checkout (needs src/repro and "
        "BENCH_selfperf.json next to layerbench/)"
    )
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from spans import LAYERS, SpanRecorder  # noqa: E402
from workloads import ANCHOR_SEED, WORKLOADS, rate_cache  # noqa: E402

#: Seconds the host-speed probe takes on the reference host (a 2-vCPU
#: Xeon VM); host times are reported rescaled to that host.
PROBE_REF_S = 0.050


def probe_seconds() -> float:
    """Host time of a fixed memory-bound numpy job (30 MB fill + copy).

    On a shared VM the host slows and speeds up by tens of percent over
    minutes, as neighbours load memory.  This probe, which runs none of
    the program's code, slows with it: timed around every rep it
    correlated ~0.6 with the rep's wall.  Over sets of 5-10 runs on a
    2-vCPU VM, rescaling by it cut the run-to-run spread of the median
    rate from 10-25% to 3-11% on the MergePass and service workloads;
    on cluster-recovery it gave 17-21% against 6-26% raw.
    """
    t = time.perf_counter()
    a = np.random.default_rng(7).integers(0, 256, size=(300_000, 100),
                                          dtype=np.uint8)
    int(a.copy()[:, :10].sum())
    return time.perf_counter() - t


class Rep(NamedTuple):
    setup_s: float
    run_s: float
    records: int
    #: Host speed relative to the reference host, from the probe.
    speed: float


class Checks:
    """Counts correctness checks; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _plain(value):
    """JSON round trip, so fresh results compare equal to frozen ones."""
    return json.loads(json.dumps(value))


def frozen_anchor(name: str) -> dict:
    """Frozen ``{fingerprint, counters}`` of ``name``'s anchor rep."""
    if name.startswith("mergepass"):
        ref = json.loads(SELFPERF.read_text())["workloads"]["mergepass"]
        return {"fingerprint": ref["fingerprint"], "counters": ref["counters"]}
    return json.loads(FROZEN.read_text())[name]


class Bench:
    """One workload's reps, checks and walls within one process."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.seed = seed
        self.checks = Checks()
        #: Reference results of the first rep at ``seed``: every later
        #: rep, traced or not, must reproduce them exactly.
        self.ref = None
        #: Wrapped-call counts of the first traced rep, likewise.
        self.ref_calls = None

    def rep(self, seed: int, recorder=None):
        """Set up and run once; returns ``(state, setup_s, run_s)``."""
        gc.collect()
        wl = self.wl
        clock = time.perf_counter
        if recorder is None:
            t0 = clock()
            st = wl.setup(seed)
            t1 = clock()
            wl.run(st)
            t2 = clock()
            return st, t1 - t0, t2 - t1
        with recorder.installed():
            t0 = clock()
            with recorder.root("setup"):
                st = wl.setup(seed)
            t1 = clock()
            with recorder.root("run"):
                wl.run(st)
            t2 = clock()
        return st, t1 - t0, t2 - t1

    def anchor(self, freeze: bool = False) -> None:
        """Warm-up rep at the anchor seed, checked against frozen values.

        ``freeze`` first records this rep's results as the frozen ones
        (in ``frozen.json``; the MergePass workloads are frozen by
        ``bench_selfperf`` instead).
        """
        wl = self.wl
        try:
            st, _, _ = self.rep(ANCHOR_SEED)
        except Exception as exc:  # a crashing program is a failed check
            self.checks.expect(False, f"anchor rep raised {exc!r}")
            return
        if freeze and not wl.name.startswith("mergepass"):
            table = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}
            table[wl.name] = _plain({"fingerprint": wl.fingerprint(st),
                                     "counters": wl.counters(st)})
            FROZEN.write_text(json.dumps(table, indent=1, sort_keys=True)
                              + "\n")
        frozen = frozen_anchor(wl.name)
        c = self.checks
        c.expect(_plain(wl.fingerprint(st)) == frozen["fingerprint"],
                 "anchor fingerprint differs from the frozen one")
        c.expect(_plain(wl.counters(st)) == frozen["counters"],
                 "anchor work counters differ from the frozen ones")
        self.verify_output(st, wl.oracle_digest(st))

    def verify_output(self, st, oracle: str) -> None:
        self.checks.expect(self.wl.output_digest(st) == oracle,
                           "output is not the input in sorted order")
        problems = self.wl.problems(st)
        self.checks.expect(not problems, "; ".join(problems))

    def timed(self, seconds: float, recorder=None):
        """Reps at ``self.seed`` for ``seconds`` (at least one).

        Returns a :class:`Rep` per rep and the last rep's
        ``layer_counters``; no rep's state outlives it, to bound memory.
        """
        wl = self.wl
        reps = []
        start = time.perf_counter()
        tries = 0
        last = None
        # Stop when the next rep, as long as the mean one so far, would
        # end past the window, so a run takes ``seconds`` and no more.
        while tries == 0 or (time.perf_counter() - start) * (tries + 1) / tries \
                <= seconds:
            tries += 1
            mark = len(recorder.starts) if recorder else 0
            try:
                probe = probe_seconds()
                st, setup_s, run_s = self.rep(self.seed, recorder)
                probe += probe_seconds()
            except Exception as exc:  # a crashing program is a failed check
                self.checks.expect(False, f"rep raised {exc!r}")
                continue
            got = {
                "fingerprint": _plain(wl.fingerprint(st)),
                "counters": _plain(wl.counters(st)),
                "sim_s": wl.sim_seconds(st),
                "records": wl.records_sorted(st),
            }
            if self.ref is None:
                got["oracle"] = wl.oracle_digest(st)
                self.ref = got
            else:
                self.checks.expect(got["fingerprint"] == self.ref["fingerprint"],
                                   "simulated fingerprint changed between reps")
                self.checks.expect(got["counters"] == self.ref["counters"],
                                   "work counters changed between reps"
                                   + (" (traced)" if recorder else ""))
            if recorder:
                calls = recorder.calls_since(mark)
                if self.ref_calls is None:
                    self.ref_calls = calls
                else:
                    self.checks.expect(calls == self.ref_calls,
                                       "wrapped-call counts changed between "
                                       "traced reps")
            self.verify_output(st, self.ref["oracle"])
            reps.append(Rep(setup_s, run_s, got["records"],
                            2 * PROBE_REF_S / probe))
            last = wl.layer_counters(st)
            del st
        return reps, last


def spread(values):
    """``(median, q1, q3)`` as ``statistics.quantiles`` gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def host_speed(reps) -> float:
    """The run's host speed: one factor, as single probes are noisy."""
    return statistics.median(r.speed for r in reps)


def end_to_end(bench: Bench, seconds: float):
    """``(metric rows, printed-only rows)`` of untraced reps."""
    reps, _ = bench.timed(seconds)
    if not reps:
        return None, []
    speed = host_speed(reps)
    rates = [r.records / (r.run_s * speed) for r in reps]
    setups = [r.setup_s * speed for r in reps]
    rows = [
        ("records_per_s", "1/s", rates),
        ("setup_s", "s", setups),
        ("peak_rss_mb", "MB",
         [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]),
        ("sim_s", "s", [bench.ref["sim_s"]]),
    ]
    return rows, [("raw_run_s", "s", [r.run_s for r in reps]),
                  ("raw_setup_s", "s", [r.setup_s for r in reps]),
                  ("host_speed", "ratio", [r.speed for r in reps])]


def per_layer(bench: Bench, seconds: float):
    """``(metric rows, printed-only rows)``: untraced, then traced reps."""
    untraced, _ = bench.timed(seconds / 2)
    recorder = SpanRecorder()
    traced, lc = bench.timed(seconds / 2, recorder)
    if not untraced or not traced:
        return None, []
    n = len(traced)
    roll = recorder.rollup()
    c = lc["counters"]
    self_s = {layer: roll.layer_self[layer] / n for layer in LAYERS}
    cache = rate_cache(c)
    frontier = roll.calls("MergeFrontier.step")
    storage_names = [m for m, l in zip(roll.names, roll.layers)
                     if l == "storage"]
    policy_names = [m for m in roll.names
                    if m.endswith((".pick", ".on_arrival"))]
    salvage = lc["salvaged"] + lc["redone"]

    def ratio(a, b):
        return a / b if b else 0.0

    untraced_run = host_speed(untraced) * statistics.median(
        r.run_s for r in untraced)
    traced_run = host_speed(traced) * statistics.median(r.run_s for r in traced)
    metrics = [
        ("sim.self_s", "s", self_s["sim"]),
        ("sim.engine_steps", "count", c["engine_steps"]),
        ("sim.clock_advances", "count", c["clock_advances"]),
        ("sim.rerate_calls", "count", c["rerate_calls"]),
        ("sim.ops_rerated", "count", c["ops_rerated"]),
        ("sim.rerate_useful_frac", "ratio",
         ratio(c["rate_changes"], c["ops_rerated"])),
        ("sim.vector_batch_avg", "ops", c["vector_batch_size_avg"]),
        ("sim.us_per_step", "us", ratio(self_s["sim"] * 1e6,
                                        c["engine_steps"])),
        ("device.self_s", "s", self_s["device"]),
        ("device.assign_calls", "count",
         roll.calls("BraidRateModel.assign") / n),
        ("device.rate_cache_hit_rate", "ratio",
         ratio(cache["hits"], cache["lookups"])),
        ("core.self_s", "s", self_s["core"]),
        ("core.frontier_steps", "count", frontier / n),
        ("core.entries_per_step", "entries",
         ratio(roll.measured.get("MergeFrontier.step", 0.0), frontier)),
        ("storage.self_s", "s", self_s["storage"]),
        ("storage.file_ops", "count",
         roll.layer_calls("storage", entries=True) / n),
        ("storage.bytes_copied", "B",
         sum(roll.measured.get(m, 0.0) for m in storage_names) / n),
        ("storage.gather_s", "s",
         roll.incl("SimFile.read_gather", "SimFile.read_gather_var",
                   "SimFile.read_strided") / n),
        ("records.self_s", "s", self_s["records"]),
        ("records.validate_s", "s", roll.incl("validate_sorted_file") / n),
        ("cluster.self_s", "s", self_s["cluster"]),
        ("cluster.net_bytes", "B", lc["net_bytes"]),
        ("cluster.policy_calls", "count", roll.calls(*policy_names) / n),
        ("cluster.jobs_shed", "count", lc["jobs_shed"]),
        ("faults.self_s", "s", self_s["faults"]),
        ("faults.recover_s", "s", roll.incl("SortSystem.recover") / n),
        ("faults.crashes", "count", lc["crashes"]),
        ("faults.salvage_frac", "ratio", ratio(lc["salvaged"], salvage)),
        ("observers.self_s", "s", self_s["observers"]),
        ("observers.hook_calls", "count", roll.layer_calls("observers") / n),
        ("other.self_s", "s", self_s["other"]),
        ("bench.self_s", "s", self_s["bench"]),
        ("ledger.wall_s", "s", roll.root_wall / n),
        ("trace_overhead", "ratio", traced_run / untraced_run),
    ]
    print(f"[{bench.wl.name}] ledger over {n} traced rep(s): "
          f"{roll.root_wall / n:.4f} s per rep (set-up + timed call), "
          f"layer self times sum to {sum(self_s.values()):.4f} s")
    for layer in LAYERS:
        share = ratio(self_s[layer], roll.root_wall / n)
        print(f"  {layer:10s} {self_s[layer]:9.4f} s  {share:6.1%}")
    top = sorted(roll.name_self.items(), key=lambda kv: -kv[1])[:12]
    print("  top spans by self time per rep:")
    for name, t in top:
        print(f"    {t / n:9.4f} s  {roll.name_calls[name] / n:10.0f} calls  "
              f"{name}")
    rows = [(name, unit, [value]) for name, unit, value in metrics]
    return rows, [("untraced_run_s", "s", [r.run_s for r in untraced]),
                  ("traced_run_s", "s", [r.run_s for r in traced]),
                  ("host_speed", "ratio", [r.speed for r in untraced + traced])]


def pin_to_one_cpu() -> None:
    """Run on the highest-numbered allowed CPU for the whole process.

    On small VMs the CPUs differ in speed (CPU 0 takes most interrupts),
    so letting the scheduler place and migrate the process spreads host
    times between runs far more than between reps.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of timed reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a span trace")
    parser.add_argument("--freeze", action="store_true",
                        help="record the anchor rep's results as the frozen "
                        "ones first (after an intended change of simulated "
                        "results)")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    bench = Bench(WORKLOADS[args.workload], args.seed)
    print(f"[{args.workload}] seed {args.seed}, {args.seconds:g} s of reps, "
          f"trace {args.trace}", flush=True)
    bench.anchor(freeze=args.freeze)
    if args.trace:
        rows, notes = per_layer(bench, args.seconds)
    else:
        rows, notes = end_to_end(bench, args.seconds)
    checks = bench.checks
    for failure in checks.failures:
        print(f"[{args.workload}] CHECK FAILED: {failure}")
    if rows is None:
        print(f"[{args.workload}] no rep completed", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit, values in rows + notes:
        med, q1, q3 = spread(values)
        print(f"  {name:26s} {med:>16.6g} {unit:8s} "
              f"n={len(values)} q1={q1:.6g} q3={q3:.6g}")
    for name, unit, values in rows:
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(f"[{args.workload}] checks: {checks.attempted} attempted, "
          f"{len(checks.failures)} failed, error_rate "
          f"{len(checks.failures) / max(checks.attempted, 1):.4f}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
