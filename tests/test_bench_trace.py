"""The benchmark's traced mode still finds everything it patches and times.

``perfbench/run.py --trace 1`` wraps ``RandomStream.__init__``,
``next_index`` and ``next_flip_count``, the classmethod ``Population.random``
and the ``core.mutate_value_*`` functions; a refactor that renames or
reshapes one of them breaks only that mode.  One small traced pass of each
kind of workload must report every declared per-layer metric with no problem.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_pass_reports_every_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    import workloads

    monkeypatch.setattr(tracing, "CALLS_PER_LOOP", 2000)
    # pop at n=10 rather than 6: at n=6 most trials start at the optimum and
    # draw no flip count, which leaves core.flip_refill_us without a sample
    runs = [workloads.mc_short(0, trials=20), workloads.pop(0, n_values=(10,), trials=4),
            workloads.Exact(lumped_n=20, full_n=4, lemma2_n=10)]
    found = set()
    for wl in runs:
        tracer = tracing.Tracer()
        with tracer.span("bench.pass"), tracing.traced_linalg_solve(tracer):
            result = wl.run_pass(tracer.span)
        metrics, problems = tracing.layer_metrics(wl, result, tracer)
        assert problems == []
        found |= metrics.keys()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    assert found == declared
