"""dense-report: the big ``tybec suite run --dense`` command, one process per op.

Each op is a fresh ``python -m repro.cli suite run --dense --max-lanes 64
--iterations 10 --clocks <41 MHz values> --output <file>`` over all six
kernels: 2132 design points and a ~5.6 MB canonical report, where imports
and serialization outweigh the dense sweep itself.  Its oracle is the
scalar-path report of the same configuration, byte for byte.

Set-up runs the scalar-path command once per seeded configuration, each in
a fresh cache directory (a cold start), and keeps those bytes as the
oracles; the ops then run against the first, now warm, cache directory.
Before every SETUP_EVERY-th op one more cold scalar-path run repeats an
oracle, so the units behind ``setup_s`` are spread over the run, as the
host probes are: one unit varies by up to 20 % with the host's speed.
"""

from __future__ import annotations

import json
import random
from statistics import median

from harness import Context, headline, run_child
from layers import layer_metrics

#: seeded configurations the ops cycle through
CONFIGS = 3
CLOCKS_PER_CONFIG = 41
SETUP_EVERY = 5
#: seconds one op takes on a 2-core x86 host; fixes the op count for --seconds
NOMINAL_OP_S = 1.8


def op_count(seconds: int) -> int:
    return max(CONFIGS, round(seconds / NOMINAL_OP_S))


def _configs(seed: int) -> list[list[int]]:
    rng = random.Random(f"dense-report/{seed}")
    return [sorted(rng.sample(range(100, 401), CLOCKS_PER_CONFIG))
            for _ in range(CONFIGS)]


def _command(clocks: list[int], output, dense: bool) -> list[str]:
    return ["suite", "run", *(["--dense"] if dense else []),
            "--max-lanes", "64", "--iterations", "10",
            "--clocks", *map(str, clocks), "--output", str(output)]


def run(ctx: Context) -> dict:
    log = ctx.run_dir / "program.log"
    configs = _configs(ctx.seed)
    setup = []

    def scalar_report(k: int) -> bytes:
        """One set-up unit: config ``k`` on the scalar path, cold."""
        output = ctx.run_dir / f"scalar{len(setup)}.json"
        child = run_child(ctx.tybec(*_command(configs[k], output, dense=False)),
                          ctx.program_env(ctx.cache_dir(f"setup{len(setup)}")), log)
        if child.returncode != 0:
            raise RuntimeError(f"scalar-path config {k} exited {child.returncode}")
        setup.append((child.started, child.seconds, child.cpu_s))
        return output.read_bytes()

    oracles = [scalar_report(k) for k in range(CONFIGS)]
    points = json.loads(oracles[0])["totals"]["points"]
    env = ctx.program_env(ctx.cache_dir("setup0"))
    output = ctx.run_dir / "op.json"

    def op(index: int, spans=None):
        output.unlink(missing_ok=True)
        k = index % CONFIGS
        child = run_child(ctx.tybec(*_command(configs[k], output, dense=True),
                                    spans=spans), env, log)
        ok = child.returncode == 0 and output.read_bytes() == oracles[k]
        if not ok:
            ctx.failures.append(f"op {index} (config {k}): exit "
                                f"{child.returncode}, report differs from "
                                f"the scalar-path oracle")
        return child, ok

    n_ops = op_count(ctx.seconds)
    if ctx.trace:
        return _traced(ctx, op, n_ops, len(oracles[0]))

    ops, cpu_s, ok_ops, peak = [], 0.0, 0, 0.0
    for index in range(n_ops):
        if index and index % SETUP_EVERY == 0:
            k = index // SETUP_EVERY % CONFIGS
            if scalar_report(k) != oracles[k]:
                raise RuntimeError(f"scalar-path config {k} is not deterministic")
        ctx.probe()
        child, ok = op(index)
        ops.append((child.started, child.seconds))
        cpu_s += child.cpu_s
        ok_ops += ok
        peak = max(peak, child.peak_rss_mb)
    ctx.probe()
    return {
        "attempted": n_ops,
        "ok": ok_ops,
        **headline(ctx, setup=setup, ops=ops, headline_ops=ops,
                   busy_s=sum(wall for _, wall in ops), cpu_s=cpu_s,
                   points=points * ok_ops, ok=ok_ops, attempted=n_ops,
                   peak_rss_mb=peak),
    }


def _traced(ctx: Context, op, n_ops: int, report_bytes: int) -> dict:
    """Pairs of an untraced and a traced op on the same configuration."""
    pairs = max(CONFIGS, n_ops // 2)
    clean, traced, layers = [], [], []
    ok_ops = 0
    for index in range(pairs):
        ctx.probe()
        child, ok = op(index)
        clean.append(child.seconds)
        ok_ops += ok
        spans_path = ctx.run_dir / f"spans{index}.json"
        child, ok = op(index, spans=spans_path)
        traced.append(child.seconds)
        ok_ops += ok
        if spans_path.is_file():
            layers.append(json.loads(spans_path.read_text()))
    ctx.probe()
    metrics, self_total = layer_metrics(layers, pairs)
    return {
        "attempted": 2 * pairs,
        "ok": ok_ops,
        "layers": {
            **metrics,
            "report.bytes": report_bytes,
            "trace.unattributed_s": sum(traced) / pairs - self_total,
            "trace.overhead_ratio": median(traced) / median(clean),
        },
    }
