"""Shared pieces of the benchmark: host probe, statistics, child processes.

Nothing here imports ``repro``; the workloads do, after :mod:`run` has
pointed ``TYBEC_CACHE_DIR`` at the run's own directory.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: the host probe: a fresh interpreter that imports a few standard modules
#: and nothing of the program, ~50 ms of CPU on a 2-core x86 host (Python
#: 3.11); a probe is the median of PROBE_REPEATS of them
PROBE_ARGV = (sys.executable, "-I", "-c", "import json, decimal, fractions")
PROBE_REPEATS = 3
#: the probe's time on a host of nominal speed (the 2-core x86 host above):
#: host-adjusted figures are stated for a host that fast
NOMINAL_REF_S = 0.05

#: a child that outlives this is killed and its op counted as failed
CHILD_TIMEOUT_S = 120.0


def _probe_once() -> float:
    proc = subprocess.Popen(PROBE_ARGV, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"host probe exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime


def host_probe() -> float:
    """CPU seconds a fixed interpreter start takes on this host right now.

    It imports nothing from the program and runs only while the program
    under test is idle, so it measures the host's speed, not the
    program's.  The host's speed changes from second to second and
    differs by kind of work: a tight loop on a few integers slows less
    than the program does, while starting an interpreter (process set-up,
    page faults, unmarshalling and running module code) slows about as
    much.  CPU time is read from the child's rusage, so time the
    hypervisor steals from this virtual CPU does not count.
    """
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


def host_scale(ref: float, share: float) -> float:
    """Factor that turns seconds here into seconds on the nominal host.

    ``ref`` is the probe around the interval and ``share`` the part of
    the interval that was CPU-bound.  Only that part follows the host's
    speed; time spent waiting, on a timer or a socket, does not.  For
    CPU-bound work (``share`` 1) the factor is ``NOMINAL_REF_S / ref``.
    """
    return 1.0 - share + share * NOMINAL_REF_S / ref


def cpu_share(cpu: float, wall: float) -> float:
    """The CPU-bound part of an interval; ``cpu`` may exceed ``wall`` when
    processes run in parallel, and then the whole interval counts."""
    return min(1.0, cpu / wall)


def p90(values) -> float:
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


@dataclass
class Context:
    """What a workload gets from :mod:`run`."""

    root: Path
    run_dir: Path
    seed: int
    seconds: int
    trace: bool
    #: environment for program processes (PYTHONPATH, TYBEC_CACHE_DIR unset)
    env: dict
    #: (time, seconds) of every host probe, in the order taken
    probes: list = field(default_factory=list)
    #: one line per op that was not answered correctly
    failures: list = field(default_factory=list)

    def probe(self) -> None:
        self.probes.append((time.perf_counter(), host_probe()))

    def ref(self, start: float, end: float) -> float:
        """The host probe around ``[start, end]``: the mean of the last
        probe before it and the first after it, or the one there is."""
        before = [value for at, value in self.probes if at <= start][-1:]
        after = [value for at, value in self.probes if at >= end][:1]
        around = before + after
        return sum(around) / len(around)

    def cache_dir(self, name: str) -> Path:
        path = self.run_dir / f"cache-{name}"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def program_env(self, cache_dir: Path) -> dict:
        return {**self.env, "TYBEC_CACHE_DIR": str(cache_dir)}

    def tybec(self, *args: str, spans: Path | None = None) -> list[str]:
        """argv of one ``tybec`` command; traced when ``spans`` is given."""
        if spans is None:
            return [sys.executable, "-m", "repro.cli", *args]
        traced_main = Path(__file__).resolve().parent / "traced_main.py"
        return [sys.executable, str(traced_main), str(spans), "--", *args]


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def process_cpu_seconds(pid: int) -> float:
    """CPU time of process ``pid`` so far, its exited threads included."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@dataclass
class ChildRun:
    started: float
    seconds: float
    cpu_s: float
    returncode: int
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, log: Path,
              timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run one program process to completion; time it and read its rusage.

    ``wait4`` reports the peak RSS of this child alone, so set-up
    processes do not leak into the figure the way ``RUSAGE_CHILDREN``
    would.
    """
    with open(log, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(started=started, seconds=seconds,
                    cpu_s=usage.ru_utime + usage.ru_stime,
                    returncode=proc.returncode,
                    peak_rss_mb=usage.ru_maxrss / 1024.0)


def headline(ctx: Context, *, setup: list, ops: list, headline_ops: list,
             busy_s: float, cpu_s: float, points: int, ok: int,
             attempted: int, peak_rss_mb: float) -> dict:
    """The end-to-end metrics every workload reports, and raw figures beside them.

    ``setup`` holds ``(start, wall, cpu)`` of each set-up unit, ``ops``
    ``(start, wall)`` of every measured op and ``headline_ops`` those of
    the workload's headline op kind, the only kind a percentile is taken
    over.  ``busy_s`` is the wall time of the ops without the probes
    between them (less than the sum of latencies when clients overlap)
    and ``cpu_s`` the CPU time the program and this process spent in
    them.  Each op is host-adjusted by the probes around it.
    """
    share = cpu_share(cpu_s, sum(wall for _, wall in ops))

    def adjusted(start: float, wall: float, share: float = share) -> float:
        return wall * host_scale(ctx.ref(start, start + wall), share)

    scale = sum(adjusted(*op) for op in ops) / sum(wall for _, wall in ops)
    ops_per_s = attempted / busy_s
    metrics = {
        "setup_s": statistics.median(adjusted(start, wall, cpu_share(cpu, wall))
                                     for start, wall, cpu in setup),
        "ops_per_ref": ops_per_s / scale * NOMINAL_REF_S,
        "op_p50_rel": statistics.median(adjusted(*op) for op in headline_ops)
                      / NOMINAL_REF_S,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": ok / attempted,
    }
    raw = {
        "setup_raw_s": statistics.median(wall for _, wall, _ in setup),
        "ops_per_s": ops_per_s,
        "op_p50_s": statistics.median(wall for _, wall in headline_ops),
        "points_per_s": points / busy_s,
        "host_ref_s": statistics.median(value for _, value in ctx.probes),
        "cpu_share": share,
    }
    return {"metrics": metrics, "raw": raw}
