"""Golden simulated results: a rewrite of the engine must not move a bit.

Each case runs one small seeded rack (2 servers x 2 pairs) and hashes
what the simulation decided: the summary fields the benchmark compares
(``perfbench/batch.py``'s ``simulated_summary`` minus the host-dependent
event count) plus every request's read and write latency, in completion
order.  The digests in ``tests/golden/sim_digests.json`` were recorded
once; an engine change that reorders same-instant work, drops or adds
an RNG draw, or shifts any completion fails here with the case named.

To record digests after a deliberate change to the simulated model, run
``PYTHONPATH=src python tests/test_sim_golden.py --write`` and say in the
change log why every moved case moved.
"""

import hashlib
import json
import os
import sys
from typing import Callable, Dict

import pytest

from repro.chaos.schedule import FaultSchedule
from repro.cluster.config import RackConfig, SystemType
from repro.experiments import run_rack_experiment
from repro.workloads.spec import ycsb

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "sim_digests.json")
REQUESTS_PER_PAIR = 1000
SEED = 7
#: A little fuller than the default so every case runs GC (and the
#: coordinated systems redirect reads) inside 1,000 requests per pair.
PRECONDITION_FILL = 0.63


def _rack(**overrides) -> RackConfig:
    fields = dict(num_servers=2, num_pairs=2, seed=SEED,
                  precondition_fill=PRECONDITION_FILL)
    fields.update(overrides)
    return RackConfig(**fields)


def _cases() -> Dict[str, Callable[[], tuple]]:
    cases: Dict[str, Callable[[], tuple]] = {}
    for system in SystemType:
        for write_ratio in (0.2, 0.8):
            cases[f"{system.value}-w{int(write_ratio * 100)}"] = (
                lambda s=system, w=write_ratio: (_rack(system=s), w)
            )
    for policy in ("tb", "fq", "priority"):
        cases[f"net-{policy}-background"] = lambda p=policy: (
            _rack(network_scheduler=p, background_traffic=True,
                  egress_rate_kb_per_us=0.05),
            0.5,
        )
    for policy in ("fifo", "deadline"):
        cases[f"storage-{policy}"] = lambda p=policy: (
            _rack(storage_scheduler=p), 0.5
        )
    cases["erase-suspend"] = lambda: (_rack(erase_suspend=True), 0.5)
    cases["write-cache-8"] = lambda: (_rack(write_cache_pages=8), 0.8)
    for system in (SystemType.RACKBLOX, SystemType.RACKBLOX_SOFTWARE):
        cases[f"sw-isolated-{system.value}"] = lambda s=system: (
            _rack(system=s, sw_isolated=True), 0.5
        )
    cases["chaos-random"] = lambda: (
        _rack(fault_schedule=FaultSchedule.random(
            SEED, num_servers=2, num_crashes=1, horizon_us=400_000.0)),
        0.5,
    )
    return cases


CASES = _cases()


def digest(config: RackConfig, write_ratio: float) -> str:
    result = run_rack_experiment(
        config, ycsb(write_ratio), requests_per_pair=REQUESTS_PER_PAIR
    )
    summary = {
        k: v for k, v in result.summary().items()
        if k not in ("wall_clock_s", "events_per_sec")
    }
    text = json.dumps({
        "summary": summary, "switch": result.switch_counters,
        "sim_duration_us": result.sim_duration_us,
        "redirects": result.redirects, "gc_runs": result.gc_runs,
        "reads": result.metrics.read_total.values,
        "writes": result.metrics.write_total.values,
    }, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _golden() -> Dict[str, str]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_every_case_has_a_golden_digest():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulated_results_match_golden(name):
    config, write_ratio = CASES[name]()
    assert digest(config, write_ratio) == _golden()[name], (
        f"{name}: the simulated results moved"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_sim_golden.py --write")
    digests = {name: digest(*build()) for name, build in sorted(CASES.items())}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
