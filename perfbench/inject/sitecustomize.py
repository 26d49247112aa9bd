"""Installs the per-layer probes in a traced ``repro.cli serve`` process.

The benchmark puts this directory first on ``PYTHONPATH`` for traced
runs, so the interpreter imports this module at start-up.  It does
nothing unless ``PERFBENCH_TRACE_OUT`` names the file to write.  Every
``stats`` request takes a snapshot of the counters; the snapshots are
written to that file when the process exits.
"""

import os


def _install(out_path: str) -> None:
    import atexit
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers
    from repro.service.router import ShardedRackService
    from repro.service.server import RackService

    probes = layers.Probes()
    probes.track_instances()
    probes.install(layers.RACK_PROBES + layers.SERVICE_PROBES)
    for cls in (RackService, ShardedRackService):
        payload = cls._stats_payload

        def stats_payload(service, _payload=payload):
            probes.snapshot()
            return _payload(service)

        cls._stats_payload = stats_payload
    atexit.register(layers.dump, probes, out_path)


if os.environ.get("PERFBENCH_TRACE_OUT"):
    _install(os.environ["PERFBENCH_TRACE_OUT"])
