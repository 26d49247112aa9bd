"""The repository benchmark: one workload, measured end to end or per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload kv-cached --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``kv-cached``  -- two in-process racks behind the tenant QoS gate and
  the DRAM read cache, binary wire, zipf KV gets of loaded keys;
* ``sim-ycsb50`` -- the batch engine, no service layers.

``--seed`` draws the request streams and seeds the racks.  ``--seconds``
scales the fixed operation counts, so a run measures for about that long.

``--trace 0`` prints every end-to-end metric.  ``--trace 1`` runs the
workload untraced and then again with timing probes around each layer's
entry points (``layers.py``), and prints every per-layer metric and the
tracing overhead; a layer that does not run in a workload reports 0.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.

Every workload reports every end-to-end metric:

* ``throughput_rps`` -- live: acknowledged ops per wall second over
  every closed-loop round; batch: simulated requests per host second
  over every rack, set-up excluded.
* ``p50_ms``, ``p99_ms`` -- live: open-loop latency, each op timed from
  its due time, as the median over windows of 1000 consecutive ops of
  each window's percentile, counting the windows in which the generator
  kept its schedule (``live.WINDOW_OPS`` and ``live.LATE_LIMIT_MS`` say
  why); batch: the simulated latency of every request, the paper's own
  metric.
* ``ok_frac`` -- the share of attempted ops acknowledged and checked
  correct (errors, BUSY, TIMEOUT and failed checks count against it).
* ``setup_s`` -- median over several set-ups: process start to the first
  successful ``hello`` (live), or rack built and preconditioned (batch).
* ``rss_mb`` -- peak RSS (``VmHWM``) of the server or the batch process.

The server and the generator sit on opposite CPUs and trade them every
round, as successive racks of the batch workload do, because the shared
host runs one CPU up to 1.75 times slower than the other for seconds at
a time.

The untraced run also prints, on ``# not gated`` lines, the other
end-to-end figures: the cost of a ``stats`` call (``stats_ms``), the
simulated read p99/p999 and write p999, the live open-loop p99 pooled
over the whole run, and ``failed_frac``.  They are not in
``BENCHMARK.json``: ``stats_ms``, timed in one burst after the fixed op
count, and the pooled p99, set by how many host stalls a run meets,
move between runs by more than any bound the benchmark may set; the
simulated tails of a served rack move with how fast the host pumps the
model (the batch workload's p50/p99 are the simulated latency); and
``failed_frac`` is 0 on every correct run, which a metric may not be
(``ok_frac`` is reported instead).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Seconds a live run may take before it gives up, so that a wedged
#: server still ends the run well within three minutes.
RUN_LIMIT_S = 165
#: A closed-loop phase is flagged unless the server was busier than the
#: generator and at least this busy.
SATURATED = 0.75


#: The simulated tail latencies the paper reports, in the rack model's
#: stats (live) or over the pooled racks (batch).
SIM_TAILS = ("read_p99_us", "read_p999_us", "write_p999_us")


def print_header(args) -> None:
    import host

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"commit={host.git_commit(os.getcwd())}")


def print_phases(tag: str, phases) -> None:
    import live

    for p in phases:
        server = p.server_cpu_s / p.wall_s
        gen = p.gen_cpu_s / p.wall_s
        tail = ""
        if p.latencies_ms:
            tail = (f" p50 {live.pct(p.latencies_ms, 50):.4f} "
                    f"p99 {live.pct(p.latencies_ms, 99):.4f} "
                    f"late p99 {live.pct(p.late_ms, 99):.4f}")
        print(f"# [{tag}] phase {p.name:8s} ops {p.ops:7d} ok {p.ok:7d} "
              f"wall {p.wall_s:7.3f}s server cpu_util {server:5.2f} "
              f"generator cpu_util {gen:5.2f}{tail}")
        if p.name.startswith("closed") and (server < SATURATED or gen > server):
            print(f"# WARNING [{tag}] capacity phase was not server-bound "
                  f"(server {server:.2f}, generator {gen:.2f})")


def live_traced(spec, args, workdir: str, deadline: float):
    """Untraced pass (for /proc figures and overhead), then the traced pass."""
    import layers
    import live

    cpus = live.split_cpus()
    plain, _ = live.run_live(spec, args.seed, args.seconds, workdir, "plain", deadline, cpus)
    traced, _ = live.run_live(spec, args.seed, args.seconds, workdir, "traced", deadline,
                              cpus, trace=True)
    print_phases("untraced", plain.phases)
    print_phases("traced", traced.phases)
    with open(traced.trace_path) as handle:
        snaps = json.load(handle)["snapshots"]
    failures = dict(plain.failures)
    for reason, count in traced.failures.items():
        failures[reason] = failures.get(reason, 0) + count
    metrics = {}
    if len(snaps) < 2:
        failures["traced server wrote no window"] = 1
    else:
        ops = sum(p.ok for p in traced.phases)
        metrics = layers.layer_metrics(layers.window(snaps[0], snaps[1]), ops, live=True)
    closed = plain.rounds("closed")
    server_cpu, gen_cpu = sum(p.server_cpu_s for p in closed), sum(p.gen_cpu_s for p in closed)
    wall = sum(p.wall_s for p in closed)
    metrics.update({
        "service.server.cpu_us_per_op": server_cpu * 1e6 / sum(p.ok for p in closed),
        "service.server.cpu_util": server_cpu / wall,
        "loadgen.cpu_util": gen_cpu / wall,
        "loadgen.late_p99_ms": live.pct([v for p in plain.rounds("open") for v in p.late_ms],
                                        99),
        "metrics.stats_ms": statistics.median(plain.stats_ms),
    })
    sim = plain.stats.get("metrics", {})
    for name in ("read_p99_us", "read_p999_us", "write_p99_us", "write_p999_us"):
        metrics[f"sim.{name}"] = sim.get(name, 0.0)
    overhead = {"untraced_rps": plain.closed_rate(), "traced_rps": traced.closed_rate()}
    return metrics, plain.attempted + traced.attempted, failures, overhead


def live_untraced(spec, args, workdir: str, deadline: float):
    import live

    run, setups = live.run_live(spec, args.seed, args.seconds, workdir, "e2e", deadline,
                                live.split_cpus(), setups=live.SETUPS)
    print_phases("e2e", run.phases)
    windows = run.open_windows()
    print(f"# setup_s {[round(s, 4) for s in setups]} served {run.served} "
          f"acked-in-sim {run.acked_in_sim} exit {run.exit_code}")
    print(f"# open-loop windows {len(windows)}, on time "
          f"{sum(on_time for _, on_time in windows)}")
    sim = run.stats.get("metrics", {})
    extra = {"stats_ms": statistics.median(run.stats_ms),
             "p99_pooled_ms": live.pct(run.open_latencies_ms(), 99)}
    for name in SIM_TAILS:
        extra[f"sim_{name}"] = sim.get(name, 0.0)
    return live.end_to_end(run, setups), run.attempted, run.failures, extra


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(root, "src")]
    workdir = os.path.join(root, ".perfbench_run")
    os.makedirs(workdir, exist_ok=True)
    print_header(args)
    try:
        overhead = extra = None
        if args.workload == "sim-ycsb50":
            import batch

            out = (batch.run_traced if args.trace else batch.run_untraced)(
                args.seed, args.seconds)
            metrics, attempted, failures = out["metrics"], out["attempted"], out["failures"]
            overhead, extra = out.get("overhead"), out.get("extra")
            if "header" in out:
                print(f"# {json.dumps(out['header'])}")
        else:
            import live

            spec = live.SPECS[args.workload]
            if args.trace:
                metrics, attempted, failures, overhead = live_traced(
                    spec, args, workdir, deadline)
            else:
                metrics, attempted, failures, extra = live_untraced(
                    spec, args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
              for m in declared}
    for name, entry in report.items():
        print(f"{name:36s} {entry['value']:14.4f} {entry['unit']}")
    if overhead is not None:
        ratio = overhead["traced_rps"] / overhead["untraced_rps"]
        print(f"# tracing overhead: throughput {overhead['untraced_rps']:.1f} untraced, "
              f"{overhead['traced_rps']:.1f} traced ({ratio:.3f}x)")
    failed = sum(failures.values())
    if extra is not None:
        # The other end-to-end figures, printed but not gated (see the
        # module docstring for why).
        extra["failed_frac"] = failed / attempted
        for name, value in extra.items():
            unit = "ratio" if name == "failed_frac" else name.rsplit("_", 1)[1]
            print(f"# not gated: {name:25s} {value:14.4f} {unit}")
    for reason, count in sorted(failures.items()):
        print(f"# FAILED check: {reason} x{count}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
