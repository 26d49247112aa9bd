"""Host-independent engine gates: the request path runs no processes.

Each request of the batch rack is driven by callback continuations
(client, egress ports, server dispatch and service, write cache, vSSD,
flash channel); only housekeeping -- the GC monitor's periodic checks
and the GC passes they start -- still runs as generator processes.
These counts do not depend on how fast the host is, so the gates arm
on every machine.
"""

from repro.cluster.config import RackConfig
from repro.cluster.rack import Rack
from repro.experiments import run_rack_experiment
from repro.sim import process
from repro.workloads.spec import ycsb

#: The request path builds no Process; what is left is the GC monitor
#: (about 0.22 per request on this rack; every request built 5 or more
#: when the path was generator processes).
MAX_PROCESSES_PER_REQUEST = 0.3
#: Heap events per request: real delays plus the two same-instant hops
#: (service start, flush submission); about 15 on this rack, where the
#: process-driven path needed about 19.
MAX_EVENTS_PER_REQUEST = 16.5


def test_run_phase_processes_and_events_per_request(monkeypatch):
    built = [0]
    init = process.Process.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(process.Process, "__init__", counting_init)
    rack = Rack(RackConfig(num_servers=2, num_pairs=4, seed=5))
    rack.precondition()
    monkeypatch.setattr(rack, "precondition", lambda **kwargs: None)
    processes_before, events_before = built[0], rack.sim.event_count

    result = run_rack_experiment(
        rack.config, ycsb(0.5), requests_per_pair=800, rack=rack
    )

    completed = result.metrics.read_total.count + result.metrics.write_total.count
    assert completed == 4 * 800
    assert result.gc_runs > 0  # the housekeeping being allowed for ran
    processes = (built[0] - processes_before) / completed
    events = (rack.sim.event_count - events_before) / completed
    assert processes < MAX_PROCESSES_PER_REQUEST, f"{processes:.3f} processes/request"
    assert events < MAX_EVENTS_PER_REQUEST, f"{events:.2f} events/request"
