"""rtl-verify: the RTL flow suite, the slowest layer the system runs.

Each op is an in-process ``run_flow_suite(golden_config(), seed=<seeded>,
jobs=2)``: the tiny suite grid is costed, then 18 RTL families (2240
simulated items) are emitted, elaborated, simulated and checked against
the Python reference model on a two-worker process pool.  A fresh stimulus
seed per op keeps the flow cache from replaying an earlier op.  Its oracle
is the program's own verdict: ``run.ok`` with all 18 families, i.e. RTL
outputs and cycle counts agree with the reference model.

Set-up runs the same suite with set-up seeds, each in a fresh cache
directory with the in-memory caches dropped; the ops reuse the last one.
One set-up unit runs first and one more before every SETUP_EVERY-th op, so
the units behind ``setup_s`` are spread over the run, as the host probes
are: one unit varies by up to 20 % with the host's speed.
Pool workers fork from this process, so the traced run's timers reach them.
"""

from __future__ import annotations

import functools
import os
import random
import resource
import time
from statistics import median

from harness import Context, cpu_seconds, headline
from layers import LayerTracer, delta, install, layer_metrics, uninstall

FAMILIES = 18
JOBS = 2
#: set-up units before the first op, then one before every SETUP_EVERY-th op
SETUP_FIRST = 1
SETUP_EVERY = 4
#: seconds one op takes on the nominal host of ``harness.NOMINAL_REF_S``
#: (1.6-2.4 s on a 2-core x86 host as its speed varies); fixes the op count
#: for --seconds
NOMINAL_OP_S = 1.55
#: prefix of the worker-side layer totals carried home in stage_seconds
_WORKER_KEY = "perfbench:"


def op_count(seconds: int) -> int:
    return max(3, round(seconds / NOMINAL_OP_S))


def run(ctx: Context) -> dict:
    from repro.compiler.pipeline import clear_calibration_cache
    from repro.flows.suite import run_flow_suite
    from repro.suite.golden import golden_config

    n_ops = op_count(ctx.seconds)
    rng = random.Random(f"rtl-verify/{ctx.seed}")
    seeds = rng.sample(range(1, 1 << 30), SETUP_FIRST + 3 * n_ops)
    setup = []

    def set_up() -> None:
        k = len(setup)
        os.environ["TYBEC_CACHE_DIR"] = str(ctx.cache_dir(f"setup{k}"))
        cpu = cpu_seconds()
        started = time.perf_counter()
        clear_calibration_cache()
        flow_run = run_flow_suite(golden_config(), seed=seeds.pop(), jobs=JOBS)
        setup.append((started, time.perf_counter() - started, cpu_seconds() - cpu))
        if not (flow_run.ok and flow_run.families == FAMILIES):
            raise RuntimeError(f"set-up flow suite {k} failed: {flow_run.failures}")

    for _ in range(SETUP_FIRST):
        set_up()
    # a probe's interpreter reports this process's peak RSS as its own (it
    # is forked from here), so the pool workers' peak is read before one runs
    workers_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def op(index: int):
        seed = seeds.pop()
        cpu = cpu_seconds()
        started = time.perf_counter()
        flow_run = run_flow_suite(golden_config(), seed=seed, jobs=JOBS)
        seconds = time.perf_counter() - started
        cpu = cpu_seconds() - cpu
        ok = flow_run.ok and flow_run.families == FAMILIES
        if not ok:
            ctx.failures.append(f"op {index} (stimulus seed {seed}): "
                                f"{flow_run.families} families, failing "
                                f"{flow_run.failures}")
        return flow_run, (started, seconds), cpu, ok

    if ctx.trace:
        return _traced(ctx, op, n_ops)

    ops, cpu_s, ok_ops, points = [], 0.0, 0, 0
    for index in range(n_ops):
        if index and index % SETUP_EVERY == 0:
            set_up()
        ctx.probe()
        flow_run, timed, cpu, ok = op(index)
        ops.append(timed)
        cpu_s += cpu
        ok_ops += ok
        points += flow_run.sweep.evaluated if ok else 0
    ctx.probe()
    peak = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + workers_peak) / 1024.0
    return {
        "attempted": n_ops,
        "ok": ok_ops,
        **headline(ctx, setup=setup, ops=ops, headline_ops=ops,
                   busy_s=sum(wall for _, wall in ops), cpu_s=cpu_s,
                   points=points, ok=ok_ops, attempted=n_ops,
                   peak_rss_mb=peak),
    }


def _install_worker_hook(tracer: LayerTracer) -> None:
    """Carry each pool worker's layer totals home in its stage timings.

    The pool forks after :func:`layers.install`, so workers inherit the
    wrapped functions and a copy of ``tracer``; this wraps the worker entry
    point to return the difference its family made to that copy.
    """
    import repro.flows.suite as flow_suite

    original = flow_suite._family_payload

    @functools.wraps(original)
    def family_payload(family):
        before = tracer.snapshot()
        payload, stages = original(family)
        change = delta(tracer.snapshot(), before)
        stages = dict(stages)
        for name, seconds in change["self_s"].items():
            stages[f"{_WORKER_KEY}{name}"] = seconds
        return payload, stages

    tracer.patched.append((flow_suite, "_family_payload", original))
    flow_suite._family_payload = family_payload


def _traced(ctx: Context, op, n_ops: int) -> dict:
    """Pairs of an untraced and a traced op (fresh seeds, same grid)."""
    pairs = max(2, n_ops // 2)
    tracer = LayerTracer()
    clean, traced, parent, workers = [], [], [], []
    ok_ops = 0
    items = cycles = 0
    for index in range(pairs):
        ctx.probe()
        _, (_, elapsed), _, ok = op(2 * index)
        clean.append(elapsed)
        ok_ops += ok
        install(tracer)
        _install_worker_hook(tracer)
        before = tracer.snapshot()
        try:
            flow_run, (_, elapsed), _, ok = op(2 * index + 1)
        finally:
            uninstall(tracer)
        traced.append(elapsed)
        ok_ops += ok
        change = delta(tracer.snapshot(), before)
        parent.append(change)
        worker_self = {name[len(_WORKER_KEY):]: seconds / JOBS
                       for name, seconds in flow_run.stage_seconds.items()
                       if name.startswith(_WORKER_KEY)}
        workers.append({
            "self_s": {**worker_self, "flows.fanout_overhead":
                       flow_run.flow_seconds - sum(worker_self.values())},
            "counts": {},
        })
        items += flow_run.simulated_items
        cycles += sum(payload["cycles"]["rtl"]
                      for records in flow_run.records.values()
                      for payload in records.values())
    ctx.probe()
    metrics, self_total = layer_metrics(parent + workers, pairs)
    simulate_worker_s = sum(w["self_s"].get("flows.simulate", 0.0)
                            for w in workers) * JOBS
    return {
        "attempted": 2 * pairs,
        "ok": ok_ops,
        "layers": {
            **metrics,
            "flows.items": items / pairs,
            "flows.cycles_per_s": cycles / simulate_worker_s,
            "trace.unattributed_s": sum(traced) / pairs - self_total,
            "trace.overhead_ratio": median(traced) / median(clean),
        },
    }
