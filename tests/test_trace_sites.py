"""The benchmark's per-layer trace still finds every layer it wraps.

perfbench/tracing.py installs its wrappers where klstab looks names up.  A
function that is renamed or no longer called through those sites reads zero
in the trace; ``completeness_errors`` names each such layer.
"""

import os
import time

import klstab.verdict
from klstab import ReconstructionSpec, template

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def test_trace_sees_every_map_layer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        # o3 at lambda = 1 sends every curve point through the fallback and
        # the Rouche count, the two layers only the map workload requires
        tracer.run_op(
            lambda: klstab.verdict.check(
                template("o3"), ReconstructionSpec(3, 0, -0.4), 1.0
            )
        )
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer, 0, len(tracer))
    assert tracing.completeness_errors("map", layers, wall) == []
