"""service-mix: a closed loop of mixed requests against one ``tybec serve``.

Two client connections each send their next request only after the
previous reply has been read to its last NDJSON line (callers wait for
answers, so the loop is closed).  The seeded, fixed-length stream is

* ~85 % ``POST /cost`` of a ``print_module`` design drawn with Zipf reuse
  from a working set of 80 distinct (kernel x lanes x grid) designs --
  larger than the service's 64-entry results cache, so some requests replay and some
  recompute;
* ~8 % ``POST /suite`` tiny single-kernel sweeps, half of them dense;
* ~4 % ``POST /dse`` tiny fmax searches;
* ~3 % malformed bodies, whose expected answer is a 4xx JSON error.

Expected answers: ``/suite`` against ``tests/golden/<kernel>.json``,
``/cost`` and ``/dse`` against results computed in this process during
set-up.  A request the server drops without any response counts as
failed, not as wrong.  No request can stall the server.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import signal
import subprocess
import threading
import time
from statistics import median

from harness import Context, headline, p90, process_cpu_seconds
from layers import layer_metrics

CLIENTS = 2
#: probes run between segments, while the service is idle
SEGMENTS = 10
#: a spare server is booted and stopped every BOOT_EVERY segments, so the
#: boots behind setup_s are spread over the run, as the probes are: a boot
#: takes 0.45-0.75 s on a 2-core x86 host, as the host's speed varies
BOOT_EVERY = 2
#: requests per second of --seconds; fixes the stream length.  A 2-core x86
#: host serves ~46 requests/s, so the stream takes about two thirds of
#: --seconds and set-up (expected answers, server boots) the rest
STREAM_RATE = 30
MIX = (("cost", 85), ("suite", 8), ("dse", 4), ("malformed", 3))
LANES = (1, 2, 4, 8)
#: grid = the kernel's default grid with every dimension divided by this,
#: but at least 8; divisors that give the same grid give one design
GRID_DIVISORS = (1, 2, 4, 8)
ITERATIONS = 100
ZIPF_S = 1.0
READY_TIMEOUT_S = 60.0


def _design_key(kernel: str, lanes: int, grid) -> str:
    return f"{kernel}/l{lanes}/g{'x'.join(map(str, grid))}"


def _working_set():
    from repro.ir import print_module
    from repro.kernels import REGISTRY, get_kernel

    designs = {}
    for name in REGISTRY.names():
        kernel = get_kernel(name)
        grids = dict.fromkeys(tuple(max(8, d // divisor) for d in kernel.default_grid)
                              for divisor in GRID_DIVISORS)
        for grid in grids:
            for lanes in LANES:
                text = print_module(kernel.build_module(lanes=lanes, grid=grid))
                designs[_design_key(name, lanes, grid)] = {
                    "design": text, "grid": list(grid),
                    "iterations": ITERATIONS, "name": name,
                }
    return designs


def _malformed(sample_design: str) -> dict:
    """Bodies the service must reject with a 4xx JSON error."""
    return {
        "not-json": ("/cost", b"{not json"),
        "array-body": ("/suite", b"[1, 2, 3]"),
        "cost-no-design": ("/cost", {"grid": [8, 8]}),
        "cost-bad-tirl": ("/cost", {"design": "this is not tirl"}),
        "cost-unknown-device": ("/cost", {"design": sample_design,
                                          "device": "no-such-fpga"}),
        "cost-iterations-not-int": ("/cost", {"design": sample_design,
                                              "iterations": "x"}),
        "cost-grid-not-ints": ("/cost", {"design": sample_design,
                                         "grid": ["a", "b"]}),
        "suite-unknown-kernel": ("/suite", {"tiny": True, "kernels": ["nope"]}),
        "suite-unknown-field": ("/suite", {"tiny": True, "colour": "red"}),
        "dse-unknown-optimizer": ("/dse", {"tiny": True, "optimizer": "nope"}),
        "dse-params-not-object": ("/dse", {"tiny": True, "params": [1]}),
        "unknown-endpoint": ("/nope", {}),
    }


def _stream(seed: int, designs: dict, malformed: dict, length: int) -> list:
    """The seeded request stream: (kind, label, path, body bytes)."""
    from repro.kernels import REGISTRY

    rng = random.Random(f"service-mix/{seed}")
    ranked = sorted(designs)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    kernels = REGISTRY.names()
    kinds, kind_weights = zip(*MIX)
    stream = []
    for _ in range(length):
        kind = rng.choices(kinds, kind_weights)[0]
        if kind == "cost":
            label = rng.choices(ranked, weights)[0]
            path, body = "/cost", designs[label]
        elif kind == "suite":
            kernel = rng.choice(kernels)
            dense = rng.random() < 0.5
            label = f"{kernel}/{'dense' if dense else 'scalar'}"
            path, body = "/suite", {"tiny": True, "kernels": [kernel], "dense": dense}
        elif kind == "dse":
            label = rng.choice(kernels)
            path, body = "/dse", {"tiny": True, "kernels": [label], "optimizer": "fmax"}
        else:
            label = rng.choice(sorted(malformed))
            path, body = malformed[label]
        if not isinstance(body, bytes):
            body = json.dumps(body).encode()
        stream.append((kind, label, path, body))
    return stream


def _expected(root, designs: dict) -> dict:
    """The right answer to every well-formed request of the working set."""
    from repro.compiler import TybecCompiler
    from repro.compiler.pipeline import CompilationOptions, EstimationPipeline
    from repro.explore.engine import canonical_report_dict
    from repro.kernels import REGISTRY
    from repro.models import KernelInstance, NDRange, PatternKind
    from repro.substrate import get_device
    from repro.suite.report import canonicalize
    from repro.suite.runner import SuiteConfig, run_dse

    pipeline = EstimationPipeline(CompilationOptions(device=get_device("stratix-v")))
    expected = {}
    for label, spec in designs.items():
        module = TybecCompiler(CompilationOptions()).parse(spec["design"],
                                                           name=spec["name"])
        workload = KernelInstance(kernel=module.name, ndrange=NDRange(tuple(spec["grid"])),
                                  repetitions=spec["iterations"])
        report = pipeline.cost(module, workload, PatternKind.CONTIGUOUS)
        expected[("cost", label)] = canonicalize(canonical_report_dict(report))
    for kernel in REGISTRY.names():
        golden = json.loads((root / "tests" / "golden" / f"{kernel}.json").read_text())
        for mode in ("dense", "scalar"):
            expected[("suite", f"{kernel}/{mode}")] = golden
        dse = run_dse(SuiteConfig.tiny(kernels=(kernel,)), "fmax")
        expected[("dse", kernel)] = canonicalize(dse.report.canonical_dict())
    return expected


def _stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM ``proc`` (the service drains on it), then wait; kill if stuck."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class _Server:
    """One ``tybec serve`` process on an ephemeral port."""

    def __init__(self, argv: list[str], env: dict, log):
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self._log)
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        marker = "listening on http://127.0.0.1:"
        if marker not in line:
            self.close()
            raise RuntimeError(f"tybec serve did not start: {line!r}")
        return int(line.split(marker, 1)[1].split()[0])

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        try:
            _stop(self.proc)
        finally:
            self.proc.stdout.close()
            self._log.close()


def _boot(ctx: Context, cache_name: str, spans=None) -> tuple[_Server, tuple]:
    """A healthy server, and the start, wall and CPU seconds of its boot."""
    started = time.perf_counter()
    server = _Server(ctx.tybec("serve", "--port", "0", spans=spans),
                     ctx.program_env(ctx.cache_dir(cache_name)),
                     ctx.run_dir / "program.log")
    try:
        if not server.get("/healthz").get("ok"):
            raise RuntimeError("tybec serve is not healthy")
        seconds = time.perf_counter() - started
        cpu = process_cpu_seconds(server.proc.pid)
    except BaseException:
        server.close()
        raise
    return server, (started, seconds, cpu)


class _Client:
    """One persistent connection, reopened after the server drops it."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None

    def post(self, path: str, body: bytes):
        """``(status, body bytes)``, or None when no response arrived."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            self.conn.request("POST", path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
        except (http.client.HTTPException, OSError):
            self.conn.close()
            self.conn = None
            return None
        if response.will_close:
            self.conn.close()
            self.conn = None
        return response.status, data

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()


def _verdict(kind: str, label: str, reply, expected: dict):
    """``(outcome, role, points)``; outcome is ok, wrong or dropped."""
    if reply is None:
        return "dropped", None, 0
    status, data = reply
    try:
        if kind == "malformed":
            error = json.loads(data).get("error")
            return ("ok" if 400 <= status < 500 and error else "wrong"), None, 0
        if status != 200:
            return "wrong", None, 0
        events = [json.loads(line) for line in data.decode().splitlines() if line]
        role = events[0].get("role")
        final = events[-1]
        if final.get("event") != "report":
            return "wrong", role, 0
        payload = final["payload"]
        if kind == "suite":
            from repro.suite.report import SuiteReport

            kernel = label.split("/")[0]
            got = SuiteReport(payload).kernel_payload(kernel)
            points = got["kernels"][kernel]["points"]
        else:
            got = payload
            points = final.get("evaluated", 1)
    except (ValueError, LookupError, TypeError, AttributeError):
        return "wrong", None, 0
    return ("ok" if got == expected[(kind, label)] else "wrong"), role, points


def _drive(ctx: Context, server: _Server, stream: list, expected: dict,
           first_index: int = 0, idle=None) -> dict:
    """Send ``stream`` in segments, probing the host between them.

    ``idle(segment)``, when given, runs before each segment, while the
    server under load is idle.
    """
    records = [None] * len(stream)
    #: CPU seconds each client thread spent sending and reading a request
    client_cpu = [0.0] * CLIENTS
    clients = [_Client(server.port) for _ in range(CLIENTS)]

    def worker(c: int, indices):
        for index in indices:
            kind, label, path, body = stream[index]
            cpu = time.thread_time()
            started = time.perf_counter()
            reply = clients[c].post(path, body)
            seconds = time.perf_counter() - started
            client_cpu[c] += time.thread_time() - cpu
            status = reply[0] if reply else None
            outcome, role, points = _verdict(kind, label, reply, expected)
            records[index] = (kind, label, seconds, status, outcome, role,
                              points, started)

    busy = server_cpu = 0.0
    bounds = [len(stream) * s // SEGMENTS for s in range(SEGMENTS + 1)]
    try:
        for segment, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if idle is not None:
                idle(segment)
            ctx.probe()
            threads = [threading.Thread(target=worker,
                                        args=(c, range(lo + c, hi, CLIENTS)))
                       for c in range(CLIENTS)]
            cpu = process_cpu_seconds(server.proc.pid)
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            busy += time.perf_counter() - started
            server_cpu += process_cpu_seconds(server.proc.pid) - cpu
        ctx.probe()
    finally:
        for client in clients:
            client.close()
    if any(record is None for record in records):
        raise RuntimeError("a client thread died before finishing its requests")
    for index, (kind, label, _, status, outcome, *_) in enumerate(records):
        if outcome != "ok":
            what = ("connection dropped without a response" if outcome == "dropped"
                    else f"wrong answer (HTTP {status})")
            ctx.failures.append(f"request {first_index + index} {kind} "
                                f"{label}: {what}")
    return {"records": records, "busy_s": busy,
            "cpu_s": server_cpu + sum(client_cpu)}


def _summary(records: list) -> dict:
    by_kind = {}
    for kind, _, seconds, *_ in records:
        by_kind.setdefault(kind, []).append(seconds)
    outcomes = [r[4] for r in records]
    roles = [r[5] for r in records]
    shared = sum(1 for r in records if r[0] != "malformed")
    return {
        "by_kind": by_kind,
        "ok": outcomes.count("ok"),
        "wrong": outcomes.count("wrong"),
        "points": sum(r[6] for r in records if r[4] == "ok"),
        "replayed": roles.count("replay"),
        "joined": roles.count("follower"),
        "shared": shared,
        "responses_4xx": sum(1 for r in records if r[3] and 400 <= r[3] < 500),
        "failed": sum(1 for o in outcomes if o != "ok"),
        "dse_points": [r[6] for r in records if r[0] == "dse" and r[4] == "ok"],
    }


def run(ctx: Context) -> dict:
    designs = _working_set()
    malformed = _malformed(designs[_design_key("sor", 1, (8, 8, 8))]["design"])
    length = max(SEGMENTS * CLIENTS, ctx.seconds * STREAM_RATE)
    stream = _stream(ctx.seed, designs, malformed, length)

    server, boot = _boot(ctx, "setup0")
    setup = [boot]

    def spare_boot(segment: int) -> None:
        if segment % BOOT_EVERY == 0:
            spare, boot = _boot(ctx, f"setup{len(setup)}")
            spare.close()
            setup.append(boot)

    try:
        expected = _expected(ctx.root, designs)
        if ctx.trace:
            return _traced(ctx, server, stream[: length // 2], expected)
        driven = _drive(ctx, server, stream, expected, idle=spare_boot)
        peak = server.peak_rss_mb()
    finally:
        server.close()

    summary = _summary(driven["records"])
    return {
        "attempted": length,
        "ok": summary["ok"],
        "wrong": summary["wrong"],
        **headline(ctx, setup=setup,
                   ops=[(r[7], r[2]) for r in driven["records"]],
                   headline_ops=[(r[7], r[2]) for r in driven["records"]
                                 if r[0] == "cost"],
                   busy_s=driven["busy_s"], cpu_s=driven["cpu_s"],
                   points=summary["points"], ok=summary["ok"],
                   attempted=length, peak_rss_mb=peak),
    }


def _traced(ctx: Context, server: _Server, stream: list, expected: dict) -> dict:
    """The same half-length stream, untraced then against a traced server."""
    clean = _drive(ctx, server, stream, expected)
    server.close()
    spans_path = ctx.run_dir / "spans.json"
    traced_server, _ = _boot(ctx, "traced", spans=spans_path)
    try:
        traced = _drive(ctx, traced_server, stream, expected, len(stream))
        pipeline = traced_server.get("/metrics")["pipeline"]
    finally:
        traced_server.close()
    spans = json.loads(spans_path.read_text())

    n = len(stream)
    metrics, self_total = layer_metrics([spans], n)
    summary = _summary(clean["records"])
    traced_summary = _summary(traced["records"])
    cost_core = ((spans["total_s"].get("service.lease_cost", 0.0)
                  + spans["total_s"].get("service.run_cost", 0.0))
                 / max(1, spans["calls"].get("service.lease_cost", 0)))
    family = pipeline.get("family") or [0, 0]
    traced_latency = [r[2] for r in traced["records"]]
    return {
        "attempted": 2 * n,
        "ok": summary["ok"] + traced_summary["ok"],
        "wrong": summary["wrong"] + traced_summary["wrong"],
        "layers": {
            **metrics,
            "pipeline.family_hit_ratio": family[0] / max(1, sum(family)),
            "service.cost_core_s": cost_core,
            "service.http_overhead_s":
                sum(traced_summary["by_kind"]["cost"])
                / len(traced_summary["by_kind"]["cost"]) - cost_core,
            "service.cost_p90_s": p90(summary["by_kind"]["cost"]),
            "service.suite_p50_s": median(summary["by_kind"].get("suite", [0.0])),
            "service.dse_p50_s": median(summary["by_kind"].get("dse", [0.0])),
            "service.replayed": summary["replayed"],
            "service.joined": summary["joined"],
            "service.coalesce_ratio":
                (summary["replayed"] + summary["joined"]) / summary["shared"],
            "service.responses_4xx": summary["responses_4xx"],
            "service.failed_or_dropped": summary["failed"],
            "dse.points_costed": (sum(summary["dse_points"])
                                  / max(1, len(summary["dse_points"]))),
            "trace.unattributed_s": sum(traced_latency) / n - self_total,
            "trace.overhead_ratio": traced["busy_s"] / clean["busy_s"],
        },
    }
