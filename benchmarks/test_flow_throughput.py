"""RTL flow throughput benchmark -> BENCH_flows.json.

Times the suite-scale RTL verification — every (kernel, lanes) family of
the golden grid elaborated from its emitted Verilog text and
cycle-simulated against the kernel Python reference — and records the
points/s plus the per-stage breakdown (emit, elaborate, reference,
simulate, verify) as a CI artifact, so regressions in the pure-Python
backend's speed are visible run over run.
"""

from __future__ import annotations

import json

from repro.cost.cache import redirected_cache_dir
from repro.flows import run_flow_suite
from repro.kernels import kernel_names
from repro.suite.golden import golden_config

#: CI gates; recorded throughput lives in the artifact.  The items/s gate
#: sits between the compiled netlist simulator (5,500-6,900 items/s serial
#: on a 2-vCPU x86 host) and the tree-walking interpreter it replaced
#: (490-730 items/s), so falling back to interpreter speed fails it
MIN_ITEMS_PER_SECOND = 2000.0
MIN_FAMILIES_PER_SECOND = 1.0


def test_flow_suite_throughput_artifact(results_dir, tmp_path):
    """Record the golden-grid RTL verification rates in BENCH_flows.json."""
    with redirected_cache_dir(tmp_path / "flow-bench-cache"):
        run = run_flow_suite(golden_config())
    assert run.ok, run.failures
    assert run.families == 3 * len(kernel_names())

    payload = {
        "kernels": kernel_names(),
        "grid": {
            "points": run.sweep.evaluated,
            "families": run.families,
            "simulated_items": run.simulated_items,
        },
        "throughput": {
            "flow_seconds": run.flow_seconds,
            "families_per_second": run.families_per_second,
            "items_per_second": run.items_per_second,
        },
        "stage_seconds": run.stage_seconds,
        "totals": run.report.totals,
    }
    (results_dir / "BENCH_flows.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    assert run.items_per_second > MIN_ITEMS_PER_SECOND, payload
    assert run.families_per_second > MIN_FAMILIES_PER_SECOND, payload
    # the breakdown covers the whole pipeline of every flow
    assert {"emit", "elaborate", "reference", "simulate", "verify"} <= set(
        run.stage_seconds)


def test_flow_cache_serves_repeat_runs(tmp_path):
    """A second identical suite-scale run is served from the flow cache."""
    with redirected_cache_dir(tmp_path / "flow-bench-cache"):
        cold = run_flow_suite(golden_config(kernels=("nw",)))
        warm = run_flow_suite(golden_config(kernels=("nw",)))
    assert warm.report.to_json() == cold.report.to_json()
    # cache-served flows skip simulation entirely
    assert warm.flow_seconds < cold.flow_seconds
    assert not warm.stage_seconds


def test_flow_benchmark(benchmark):
    """pytest-benchmark timing of one uncached single-kernel flow pass."""
    from repro.flows import FlowSettings, RTLSimFlow
    from repro.kernels import get_kernel
    from repro.suite.runner import tiny_grid

    kernel = get_kernel("nw")
    module = kernel.build_module(lanes=1, grid=tiny_grid(kernel.default_grid))

    def _run():
        flow = RTLSimFlow(module, FlowSettings(n_items=64, use_cache=False))
        return flow.run().payload["ok"]

    assert benchmark(_run) is True
