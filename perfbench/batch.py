"""The batch workload: ``run_rack_experiment`` on one in-process rack.

RackBlox, 4 servers x 4 pairs, YCSB-50 (50% writes, zipf 0.99), pssd
device, medium network, 1500 IOPS per pair.  A run simulates several
racks, each seeded from the workload seed, and pools their latency
samples, so the tail percentiles rest on more samples than one rack
gives in the same host time.  The first rack is run twice to check that
the simulation repeats exactly for a seed.
"""

import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from host import CPUS, peak_rss_mb
from repro.cluster.config import RackConfig, SystemType
from repro.cluster.rack import Rack
from repro.experiments.runner import RackResult, run_rack_experiment
from repro.flash.timing import profile_by_name
from repro.metrics.percentiles import percentile as pct
from repro.net.latency import profile_by_name as net_profile_by_name
from repro.workloads.spec import ycsb

perf = time.perf_counter
SERVERS, PAIRS, IOPS_PER_PAIR = 4, 4, 1500.0
#: Requests per pair of one rack: 10k requests, which run GC about 30
#: times per rack.
REQUESTS_PER_PAIR = 2500
#: Host seconds one rack takes, roughly; a run pools ``--seconds`` worth.
RACK_SECONDS = 3.4
#: The traced run times one longer rack, untraced and then traced.
TRACED_REQUESTS_PER_PAIR = 3 * REQUESTS_PER_PAIR
WARM_UP_REQUESTS_PER_PAIR = 500
#: Summary fields that measure the host, not the simulated rack.
HOST_FIELDS = ("wall_clock_s", "events_per_sec")


def rack_config(seed: int) -> RackConfig:
    return RackConfig(
        system=SystemType.RACKBLOX, num_servers=SERVERS, num_pairs=PAIRS,
        device_profile=profile_by_name("pssd"),
        network_profile=net_profile_by_name("medium"), seed=seed,
    )


def rack_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def pooled_racks(seconds: float) -> int:
    return max(1, int(seconds / RACK_SECONDS))


@dataclass
class RackRun:
    """One experiment and how long the host took over it."""

    result: RackResult
    setup_s: float
    run_s: float


def run_rack(seed: int, on_setup: Optional[Callable[[], None]] = None,
             requests_per_pair: int = REQUESTS_PER_PAIR) -> RackRun:
    """One experiment, timed from outside.

    Set-up ends when ``Rack.precondition`` returns, which a one-call hook
    observes; ``on_setup`` runs at that moment.
    """
    marks: List[float] = []
    precondition = Rack.precondition

    def hooked(rack, *args, **kwargs):
        precondition(rack, *args, **kwargs)
        marks.append(perf())
        if on_setup is not None:
            on_setup()

    Rack.precondition = hooked
    try:
        t0 = perf()
        result = run_rack_experiment(rack_config(seed), ycsb(0.5),
                                     requests_per_pair=requests_per_pair,
                                     rate_iops_per_pair=IOPS_PER_PAIR)
        t1 = perf()
    finally:
        Rack.precondition = precondition
    return RackRun(result, marks[0] - t0, t1 - marks[0])


def simulated_summary(result: RackResult) -> str:
    """Everything the simulation decided, as canonical text."""
    summary = {k: v for k, v in result.summary().items() if k not in HOST_FIELDS}
    return json.dumps({
        "summary": summary, "switch": result.switch_counters,
        "events": result.events, "sim_duration_us": result.sim_duration_us,
        "redirects": result.redirects, "gc_runs": result.gc_runs,
    }, sort_keys=True)


def completed(result: RackResult) -> int:
    return result.metrics.read_total.count + result.metrics.write_total.count


def stats_ms(result: RackResult) -> float:
    """Median time of the batch engine's stats call, ``summary()``."""
    times = []
    for _ in range(5):
        t0 = perf()
        result.summary()
        times.append((perf() - t0) * 1e3)
    return statistics.median(times)


def run_untraced(seed: int, seconds: float) -> Dict[str, Any]:
    """The end-to-end run: pooled racks plus a repeat of the first.

    ``throughput_rps`` is every rack's requests over their host run time;
    the latencies pool every request of the pooled racks.
    """
    racks = pooled_racks(seconds)
    wall0, cpu0 = perf(), time.process_time()
    runs = []
    for turn, index in enumerate([*range(racks), 0]):
        if len(CPUS) > 1:
            os.sched_setaffinity(0, [CPUS[turn % len(CPUS)]])
        runs.append(run_rack(rack_seed(seed, index)))
    cpu_util = (time.process_time() - cpu0) / (perf() - wall0)
    pooled, repeat = runs[:-1], runs[-1]

    failures: Dict[str, int] = {}
    attempted = len(runs) * PAIRS * REQUESTS_PER_PAIR
    done = sum(completed(r.result) for r in runs)
    if done != attempted:
        failures["requests not completed"] = attempted - done
    if simulated_summary(repeat.result) != simulated_summary(pooled[0].result):
        failures["simulation did not repeat for its seed"] = 1

    reads = [v for r in pooled for v in r.result.metrics.read_total.values]
    writes = [v for r in pooled for v in r.result.metrics.write_total.values]
    every = reads + writes
    metrics = {
        "throughput_rps": done / sum(r.run_s for r in runs),
        "p50_ms": pct(every, 50) / 1e3,
        "p99_ms": pct(every, 99) / 1e3,
        "ok_frac": 1.0 - sum(failures.values()) / attempted,
        "setup_s": statistics.median(r.setup_s for r in runs),
        "rss_mb": peak_rss_mb(),
    }
    extra = {
        "stats_ms": stats_ms(pooled[0].result),
        "sim_read_p99_us": pct(reads, 99), "sim_read_p999_us": pct(reads, 99.9),
        "sim_write_p999_us": pct(writes, 99.9),
    }
    header = {
        "racks": len(runs), "requests_per_pair": REQUESTS_PER_PAIR,
        "cpu_util": round(cpu_util, 3),
        "setup_s": [round(r.setup_s, 4) for r in runs],
        "run_s": [round(r.run_s, 3) for r in runs],
        "rack_rps": [round(completed(r.result) / r.run_s) for r in runs],
        "gc_runs": [r.result.gc_runs for r in pooled],
        "redirected_reads": [r.result.redirects for r in pooled],
    }
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "header": header, "extra": extra}


def run_traced(seed: int, seconds: float) -> Dict[str, Any]:
    """Per-layer run: the first rack untraced, then again with probes.

    The two simulated summaries must match exactly: the probes observe
    the model without changing it.
    """
    import layers

    # The first rack of a process runs slower than later ones; warm up so
    # that the overhead compares like with like.
    run_rack(rack_seed(seed, 1), requests_per_pair=WARM_UP_REQUESTS_PER_PAIR)
    plain_run = run_rack(rack_seed(seed, 0), requests_per_pair=TRACED_REQUESTS_PER_PAIR)
    probes = layers.Probes()
    probes.track_instances()
    probes.install(layers.RACK_PROBES)
    traced_run = run_rack(rack_seed(seed, 0), on_setup=lambda: probes.snapshot("setup"),
                          requests_per_pair=TRACED_REQUESTS_PER_PAIR)
    plain, traced = plain_run.result, traced_run.result
    end = probes.snapshot("end")
    win = layers.window(probes.snapshots[0], end)
    failures: Dict[str, int] = {}
    attempted = 2 * PAIRS * TRACED_REQUESTS_PER_PAIR
    done = completed(plain) + completed(traced)
    if done != attempted:
        failures["requests not completed"] = attempted - done
    if simulated_summary(plain) != simulated_summary(traced):
        failures["tracing changed the simulation"] = 1
    metrics = layers.layer_metrics(win, completed(traced), live=False)
    metrics["metrics.stats_ms"] = stats_ms(plain)
    metrics["sim.read_p99_us"] = plain.metrics.read_total.p99()
    metrics["sim.read_p999_us"] = plain.metrics.read_total.p999()
    metrics["sim.write_p99_us"] = plain.metrics.write_total.p99()
    metrics["sim.write_p999_us"] = plain.metrics.write_total.p999()
    overhead = {"untraced_rps": completed(plain) / plain_run.run_s,
                "traced_rps": completed(traced) / traced_run.run_s}
    return {"metrics": metrics, "attempted": attempted, "failures": failures,
            "overhead": overhead}
