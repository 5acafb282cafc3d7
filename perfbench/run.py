"""The repository's benchmark: three workloads, every op checked.

One run:

    python3 perfbench/run.py --workload dense-report --seed 1 --seconds 25 --trace 0

runs a fixed, seeded number of ops (the count follows from ``--seconds``),
checks every op's output against an oracle, prints every metric with its
unit (and, as ``# raw`` lines, the unadjusted figures behind the
host-adjusted ones), and ends with one JSON line: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  End-to-end figures are timed with the program's telemetry
off; ``--trace 1`` times the layers from outside (see ``layers.py``) in a
separate pass.

Steadiness:

    python3 perfbench/run.py --steadiness 10 --workload rtl-verify

runs a workload once per seed 1..N and prints each end-to-end metric's
median and quartiles against its bound; it exits 1 when any spread,
``setup_s``'s too, exceeds its bound.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: workload name -> the module in this directory that runs it
WORKLOADS = {"dense-report": "dense_report", "rtl-verify": "rtl_verify",
             "service-mix": "service_mix"}

#: environment that would change what is measured: the program's own
#: telemetry and fault injection
_REFUSED_ENV = ("TYBEC_TRACE", "TYBEC_PROFILE_DIR", "TYBEC_FAULT_PLAN")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment() -> str:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (f"python={platform.python_version()} numpy={numpy_version} "
            f"nproc={os.cpu_count()} machine={platform.machine()}")


def run_once(args) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {src}; run from a full checkout")
    refused = [name for name in _REFUSED_ENV if os.environ.get(name)]
    if refused:
        return _fail(f"refusing to time with {', '.join(refused)} set")
    manifest = _manifest()

    run_dir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # the benchmark's own process imports the program too (rtl-verify runs
    # in process, service-mix computes its expected answers): same source,
    # and never the user's cache
    sys.path.insert(0, str(src))
    os.environ["TYBEC_CACHE_DIR"] = str(run_dir / "cache-benchmark")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("TYBEC_")}
    env["PYTHONPATH"] = str(src)

    from harness import Context

    ctx = Context(root=ROOT, run_dir=run_dir, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace), env=env)
    try:
        import repro

        if Path(repro.__file__).resolve().parents[1] != src:
            return _fail(f"imported repro from {repro.__file__}, not {src}")
        result = importlib.import_module(WORKLOADS[args.workload]).run(ctx)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    section = "per_layer" if args.trace else "end_to_end"
    measured = result["layers" if args.trace else "metrics"]
    metrics = {}
    for spec in manifest[section]:
        value = measured.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    attempted, ok = result["attempted"], result["ok"]
    wrong = result.get("wrong", attempted - ok)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {_environment()}")
    print(f"# ops: {attempted} attempted, {ok} answered correctly, "
          f"{wrong} answered wrongly, {attempted - ok - wrong} not answered")
    if ctx.probes:
        probes = [value for _, value in ctx.probes]
        print(f"# host probes: {len(probes)}, min {min(probes):.4f} s, "
              f"median {statistics.median(probes):.4f} s, "
              f"max {max(probes):.4f} s")
    for name, value in result.get("raw", {}).items():
        print(f"# raw {name} {value:.6g}")
    for line in ctx.failures:
        print(f"# failed: {line}")
    for name, entry in metrics.items():
        print(f"{name:28s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
    }))
    return 0


def steadiness(args) -> int:
    """Run a workload once per seed; compare each metric's spread to its bound."""
    manifest = _manifest()
    workloads = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    seconds = args.seconds or manifest["run_seconds"]
    status = 0
    for workload in workloads:
        runs = []
        for seed in range(1, args.steadiness + 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=False)
            if out.returncode != 0:
                print(out.stdout, out.stderr, sep="\n")
                return 1
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        counts = {(r["attempted"], r["failed"]) for r in runs}
        print(f"{workload}: {len(runs)} runs, (attempted, failed) = {sorted(counts)}")
        for spec in manifest["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else 0.0
            verdict = "ok" if spread <= spec["bound"] else "FAIL"
            if spread > spec["bound"]:
                status = 1
            print(f"  {spec['name']:14s} median {mid:<11.6g} q1 {q1:<11.6g} q3 {q3:<11.6g}"
                  f" spread {spread:6.3f} bound {spec['bound']:.3f} {verdict}")
            print("    runs: " + " ".join(f"{value:.4g}" for value in values))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run each workload with seeds 1..N and check "
                             "every spread against its bound")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = _manifest()["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
