"""The four benchmark workloads: set-up, timed call, and what to check.

Each workload is single-process, single-threaded and a pure function of
its seed.  ``setup(seed)`` builds the machine or cluster, installs the
observers and generates the input; ``run(state)`` is the one timed call.
Everything else reads the finished state outside the timed region:

* ``output_digest`` / ``oracle_digest`` -- SHA-256 of the program's
  output and of the input sorted by this module's own numpy oracle
  (stable by key, independent of ``repro``'s sort code);
* ``fingerprint`` -- exact simulated results (float-hex), which must
  repeat across reps and, at the anchor seed, equal the frozen values;
* ``counters`` -- deterministic work counters from the program's own
  surfaces, which must repeat across reps, runs and traced/untraced;
* ``problems`` -- workload-specific checks (observers, crash recovery).
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace
from typing import Dict, List

import numpy as np

from benchmarks.bench_selfperf import fingerprint as selfperf_fingerprint
from repro.cluster import Cluster, ShardedWiscSort, generate_cluster_dataset
from repro.cluster.service import SortService
from repro.core.base import SortConfig
from repro.core.wiscsort import WiscSort
from repro.faults import harness
from repro.faults.plan import parse_fault_spec
from repro.machine import Machine
from repro.perf import collect_cluster_counters, collect_counters
from repro.records import gensort
from repro.records.format import RecordFormat
from repro.trace import Tracer
from repro.trace.analyze import analyze_tracer
from repro.units import KiB
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.background import BackgroundClients

FMT = RecordFormat()

#: Seed of the warm-up rep whose results are compared with frozen
#: values; ``bench_selfperf``'s MergePass uses the same one.
ANCHOR_SEED = 2023


def sorted_records(records: np.ndarray) -> np.ndarray:
    """The oracle: records in stable ascending key order."""
    rec = records.reshape(-1, FMT.record_size)
    padded = np.zeros((rec.shape[0], 16), dtype=np.uint8)
    padded[:, : FMT.key_size] = rec[:, : FMT.key_size]
    hi = padded[:, :8].copy().view(">u8").ravel()
    lo = padded[:, 8:].copy().view(">u8").ravel()
    return rec[np.lexsort((lo, hi))]


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.tobytes())
    return h.hexdigest()


def _tag_table(tags: dict) -> dict:
    return {
        tag: {
            "busy_time": s.busy_time.hex(),
            "internal_bytes": float(s.internal_bytes).hex(),
            "user_bytes": float(s.user_bytes).hex(),
            "op_count": s.op_count,
        }
        for tag, s in sorted(tags.items())
    }


def rate_cache(counters: dict) -> Dict[str, float]:
    """Machine-wide rate-memo hits/lookups (clusters sum their shards)."""
    hits = sum(v for k, v in counters.items() if k.endswith("rate_cache_hits"))
    misses = sum(
        v for k, v in counters.items() if k.endswith("rate_cache_misses")
    )
    return {"hits": hits, "lookups": hits + misses}


class MergePass:
    """WiscSort forced MergePass, ``bench_selfperf``'s frozen workload."""

    name = "mergepass"
    why = ("kernel-bound: 13.8k vector solves and 4.1k MergeFrontier steps, "
           "so sim, core and device do most of the work")
    records = 200_000
    observed = False

    def setup(self, seed: int):
        st = SimpleNamespace(seed=seed, machine=Machine())
        if self.observed:
            st.tracer = Tracer(analyze=True).install(st.machine)
            st.sanitizer = st.machine.install_sanitizer()
            st.detector = st.machine.install_race_detector()
        st.data = gensort.generate_dataset(
            st.machine, "input", self.records, FMT, seed=seed
        )
        BackgroundClients(st.machine, 8, "write").start()
        st.system = WiscSort(
            FMT,
            config=SortConfig(read_buffer=96 * KiB, write_buffer=8 * KiB),
            force_merge_pass=True,
            merge_chunk_entries=1_500,
        )
        return st

    def run(self, st) -> None:
        st.result = st.system.run(st.machine, st.data, validate=False)

    def records_sorted(self, st) -> int:
        return self.records

    def sim_seconds(self, st) -> float:
        return st.result.total_time

    def fingerprint(self, st) -> dict:
        return selfperf_fingerprint(st.machine, st.result)

    def output_digest(self, st) -> str:
        return self.fingerprint(st)["output_sha256"]

    def oracle_digest(self, st) -> str:
        return _sha(sorted_records(st.data.peek()))

    def counters(self, st) -> dict:
        return collect_counters(st.machine)

    def problems(self, st) -> List[str]:
        if not self.observed:
            return []
        found = []
        for label, check in (("sanitizer", st.sanitizer.check),
                             ("race detector", st.detector.check)):
            try:
                check()
            except Exception as exc:  # each observer raises its own type
                found.append(f"{label}: {exc}")
        report = analyze_tracer(st.tracer)
        if not report.phases:
            found.append("analyzer: no sort/phase spans decomposed")
        for phase in report.phases:
            total = sum(phase.components.values())
            if abs(total - phase.duration) > 1e-9 * max(1.0, phase.duration):
                found.append(
                    f"analyzer: {phase.name} components sum {total!r} != "
                    f"duration {phase.duration!r}"
                )
        return found

    def layer_counters(self, st) -> dict:
        c = self.counters(st)
        return {"counters": c, "net_bytes": 0.0, "jobs_shed": 0,
                "crashes": 0, "salvaged": 0.0, "redone": 0.0}


class MergePassObserved(MergePass):
    """The same MergePass with every observer installed and checked."""

    name = "mergepass-observed"
    why = ("mergepass with Tracer(analyze=True), SimSanitizer and "
           "RaceDetector: observer hooks fire on every engine event")
    observed = True


class ClusterRecovery:
    """4-shard checkpointed sort; one shard crashes and is recovered."""

    name = "cluster-recovery"
    why = ("data movement: shuffle, network, manifests and recover(); "
           "OnePass shards bypass MergeFrontier, so storage and records lead")
    #: 100k records (10 MB): the arrays stay under glibc's mmap
    #: threshold, so reps reuse heap pages instead of faulting in fresh
    #: ones.  At 250k-1M records every rep page-faults in hundreds of MB,
    #: and the host's varying cost of that spread run medians by 20-40%.
    records = 100_000
    shards = 4
    #: Simulated crash time of shard1, ~60% into the ~1.4 ms fault-free
    #: run: every seed has committed its scatter manifests by then, so
    #: recovery salvages the same bytes and sim_s barely varies by seed.
    crash_at = 0.00082

    def setup(self, seed: int):
        st = SimpleNamespace(seed=seed, cluster=Cluster(shards=self.shards))
        st.data = generate_cluster_dataset(
            st.cluster, "input", self.records, FMT, seed=seed
        )
        st.cluster.install_faults(
            parse_fault_spec(f"shard1:crash@t:{self.crash_at!r}", seed=seed)
        )
        st.system = ShardedWiscSort(FMT, checkpoint=True)
        return st

    def run(self, st) -> None:
        st.result, st.report = harness.run_cluster_with_faults(
            st.system, st.cluster, st.data, validate=False
        )

    def records_sorted(self, st) -> int:
        return self.records

    def sim_seconds(self, st) -> float:
        return st.result.total_time

    def _output(self, st) -> List[np.ndarray]:
        parts = []
        for d in range(self.shards):
            name = f"{st.system.output_name}.shard{d}"
            for shard in st.cluster.shards:
                if shard.fs.exists(name):
                    parts.append(shard.fs.open(name).peek())
        return parts

    def output_digest(self, st) -> str:
        return _sha(*self._output(st))

    def oracle_digest(self, st) -> str:
        return _sha(sorted_records(gensort.make_records(self.records, FMT,
                                                        seed=st.seed)))

    def fingerprint(self, st) -> dict:
        return {
            "total_time": st.result.total_time.hex(),
            "tags": _tag_table(st.cluster.stats.tags),
            "output_sha256": self.output_digest(st),
            "crash_points": [[t.hex(), op] for t, op in st.report.crash_points],
            "recovery": dict(sorted(st.system.last_recovery.items())),
        }

    def counters(self, st) -> dict:
        return collect_cluster_counters(st.cluster)

    def problems(self, st) -> List[str]:
        found = []
        if st.report.crashes < 1 or st.report.recoveries < 1:
            found.append(f"fault report: {st.report.summary()}")
        return found

    def layer_counters(self, st) -> dict:
        rec = st.system.last_recovery or {}
        return {"counters": self.counters(st),
                "net_bytes": st.cluster.net_stats.bytes_total, "jobs_shed": 0,
                "crashes": st.report.crashes,
                "salvaged": rec.get("salvaged_bytes", 0.0),
                "redone": rec.get("redone_bytes", 0.0)}


class Service:
    """Open-loop sort service past the throughput knee."""

    name = "service"
    why = ("~800 2k-record Poisson jobs past the knee: admission and "
           "shedding on every arrival, per-job set-up, no merge")
    shards = 2
    rate = 80_000.0
    horizon = 0.01
    records_per_job = 2_000

    def setup(self, seed: int):
        st = SimpleNamespace(seed=seed)
        st.cluster = Cluster(shards=self.shards, dram_budget=48_000_000)
        st.arrivals = PoissonArrivals(
            self.rate, seed=seed, records=self.records_per_job, tenants=2,
            systems=("wiscsort",), deadline=0.0005,
        )
        # Validation stays on, as in `repro serve`: the service checks
        # each job's output inside serve(), which records.validate_s bills.
        st.service = SortService(st.cluster, policy="backpressure",
                                 queue_cap=8)
        return st

    def run(self, st) -> None:
        st.report = st.service.serve(st.arrivals, horizon=self.horizon)

    def records_sorted(self, st) -> int:
        return sum(job.n_records for job in st.service.jobs)

    def sim_seconds(self, st) -> float:
        return st.report.makespan

    def _done(self, st):
        return [j for j in st.service.jobs if j.output_file is not None]

    def output_digest(self, st) -> str:
        return _sha(*(c for j in self._done(st)
                      for c in (j.name.encode(), j.output_file.peek())))

    def oracle_digest(self, st) -> str:
        return _sha(*(c for j in self._done(st)
                      for c in (j.name.encode(),
                                sorted_records(j.input_file.peek()))))

    def fingerprint(self, st) -> dict:
        r = st.report
        return {
            "makespan": r.makespan.hex(),
            "jobs": [r.jobs_arrived, r.jobs_admitted, r.jobs_completed,
                     r.jobs_shed, r.deadline_misses],
            "percentiles": {
                metric: {p: float(v).hex() for p, v in sorted(pcts.items())}
                for metric, pcts in sorted(r.percentiles.items())
            },
            "tags": _tag_table(st.cluster.stats.tags),
            "output_sha256": self.output_digest(st),
        }

    def counters(self, st) -> dict:
        r = st.report
        c = collect_cluster_counters(st.cluster)
        c.update(jobs_arrived=r.jobs_arrived, jobs_admitted=r.jobs_admitted,
                 jobs_completed=r.jobs_completed, jobs_shed=r.jobs_shed,
                 deadline_misses=r.deadline_misses)
        return c

    def problems(self, st) -> List[str]:
        r = st.report
        found = []
        if r.jobs_arrived != len(st.service.jobs):
            found.append(f"{r.jobs_arrived} arrived but "
                         f"{len(st.service.jobs)} jobs recorded")
        if r.jobs_completed + r.jobs_shed != r.jobs_arrived:
            found.append(f"completed {r.jobs_completed} + shed {r.jobs_shed}"
                         f" != arrived {r.jobs_arrived}")
        if r.jobs_shed == 0:
            found.append("no job was shed: the rate is not past the knee")
        return found

    def layer_counters(self, st) -> dict:
        return {"counters": self.counters(st),
                "net_bytes": st.cluster.net_stats.bytes_total,
                "jobs_shed": st.report.jobs_shed,
                "crashes": 0, "salvaged": 0.0, "redone": 0.0}


WORKLOADS = {
    w.name: w
    for w in (MergePass(), MergePassObserved(), ClusterRecovery(), Service())
}

