"""The ``live_tcp`` workload: the live service in its own process, under open-loop load.

One client process, one event-loop thread, at most two protocol
connections.  It replays a calm trace at a fixed rate: each submission is
due at ``start + arrival``, is handed to whichever connection is free, and
is timed from its due instant, so a stalled server delays the requests
queued behind it in the figures too.  A warm-up precedes the timed window,
and ``GET /metrics`` is scraped once a second as a Prometheus server would.
Nothing is simulated: the cMA plans wall-clock batches in the server's
activation thread, which shares the interpreter lock with intake.  The
untraced run samples the box's speed in the client through the set-ups
(:class:`common.BoxSpeed`) and calibrates ``setup_s`` by it.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from common import OUT, ROOT, BoxSpeed, Metric, median, percentile, timing_note
from spans import Recorder

from repro.core.config import TraceConfig
from repro.service import ServiceClient
from repro.traces.generators import generate_trace

#: Offered jobs per second: keeps the activation thread busy roughly half
#: to three quarters of the time under the server's iteration budget.
RATE = 150.0
#: Planned work per second over the park's capacity.  Job sizes are scaled
#: to each seed's park so that machines' ready times, hence plan quality,
#: do not swing with the park's drawn speed.
UTILISATION = 0.7
WARMUP_S = {"full": 3.0, "tiny": 0.5}
SETUPS = 7
CONNECTIONS = 2
SCRAPE_EVERY_S = 1.0
_PLANNED = "repro_service_job_latency_seconds_count "


def live_trace_config(duration: float) -> TraceConfig:
    return TraceConfig(
        family="calm",
        duration=duration,
        rate=RATE,
        nb_machines=16,
        job_heterogeneity="lo",
        machine_heterogeneity="lo",
    )


class Server:
    """One server process: started, pinged, stopped, its last line kept."""

    def __init__(self, seed: int, latency_window: int, trace: bool) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("live_server.py")),
             "--seed", str(seed), "--latency-window", str(latency_window),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.ports: dict | None = None

    async def ready(self) -> ServiceClient:
        line = await asyncio.get_running_loop().run_in_executor(None, self.process.stdout.readline)
        if not line:
            raise RuntimeError("the service process exited before listening")
        self.ports = json.loads(line)
        client = await ServiceClient.connect("127.0.0.1", self.ports["port"], timeout=10.0)
        await client.ping()
        return client

    async def stop(self) -> dict:
        out, _ = await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.process.communicate("stop\n", timeout=120)
        )
        if self.process.returncode != 0:
            raise RuntimeError(f"the service process exited with {self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


async def _planned_count(port: int) -> float:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
        await writer.drain()
        body = (await reader.read()).decode()
    finally:
        writer.close()
        await writer.wait_closed()
    for line in body.splitlines():
        if line.startswith(_PLANNED):
            return float(line[len(_PLANNED):])
    return 0.0


async def _session(seed: int, seconds: float, warmup: float, trace: bool, setups: int,
                   box: BoxSpeed | None = None) -> dict:
    """Set up (``setups`` times), load, drain, stop; everything one session measures.

    *box*, if given, samples the box's speed through the set-ups, and
    ``setup_at`` holds its clock's readings around each set-up.
    """
    loop = asyncio.get_running_loop()
    recorder = Recorder() if trace else None
    generate = recorder.span if recorder is not None else lambda name: nullcontext()
    clock = box.now if box is not None else perf_counter
    setup_at: list[tuple[float, float]] = []
    servers: list[Server] = []
    try:
        with box if box is not None else nullcontext():
            for _ in range(setups):
                start = clock()
                with generate("traces.generate_trace"):
                    jobs = generate_trace(live_trace_config(warmup + seconds), seed)
                window_jobs = int((jobs.job_arrivals >= warmup).sum())
                server = Server(seed, window_jobs, trace)
                servers.append(server)
                first = await server.ready()
                setup_at.append((start, clock()))
                if len(setup_at) < setups:
                    await first.close()
                    await server.stop()
        server = servers[-1]
        clients = [first] + [
            await ServiceClient.connect("127.0.0.1", server.ports["port"], timeout=10.0)
            for _ in range(CONNECTIONS - 1)
        ]
        if recorder is not None:
            for method in ("submit", "metrics"):
                recorder.patch(ServiceClient, method, f"service.client.{method}")
        try:
            load = await _load(loop, clients, jobs, warmup, seconds, server.ports)
            snapshot = await _drained(clients[0])
        finally:
            if recorder is not None:
                recorder.unpatch()
            for client in clients:
                await client.close()
        result = await server.stop()
    finally:
        for server in servers:
            server.kill()
    return {"setup_at": setup_at, "load": load, "snapshot": snapshot, "server": result,
            "window_jobs": window_jobs, "recorder": recorder}


async def _load(loop, clients, jobs, warmup, seconds, ports) -> dict:
    arrivals = jobs.job_arrivals
    scale = UTILISATION * float(jobs.machine_mips.sum()) / (RATE * float(jobs.job_workloads.mean()))
    workloads = jobs.job_workloads * scale
    queue: asyncio.Queue = asyncio.Queue()
    records: list[tuple[float, float, float, float, int | None]] = []
    errors: list[str] = []
    scrapes: list[tuple[float, float]] = []
    start = loop.time() + 0.05

    async def generate():
        for index, arrival in enumerate(arrivals):
            due = start + float(arrival)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due))
        for _ in clients:
            queue.put_nowait(None)

    async def send(client):
        while (item := await queue.get()) is not None:
            index, due = item
            sent = loop.time()
            try:
                job_id = await client.submit(float(workloads[index]))
            except (asyncio.TimeoutError, ConnectionError, RuntimeError) as error:
                errors.append(repr(error))
                job_id = None
            records.append((float(arrivals[index]), due, sent, loop.time(), job_id))

    async def scrape():
        # Planned-job counts at the window's edges give the served rate;
        # the scrapes in between are the /metrics load a scraper adds.
        ticks = int(round(seconds / SCRAPE_EVERY_S))
        for tick in range(ticks + 1):
            due = start + warmup + tick * SCRAPE_EVERY_S
            await asyncio.sleep(max(0.0, due - loop.time()))
            at = loop.time()
            scrapes.append((at, await _planned_count(ports["metrics_port"])))

    tasks = [loop.create_task(generate()), loop.create_task(scrape())]
    tasks += [loop.create_task(send(client)) for client in clients]
    await asyncio.gather(*tasks)
    return {"records": records, "errors": errors, "scrapes": scrapes, "warmup": warmup}


async def _drained(client: ServiceClient, timeout: float = 60.0) -> dict:
    """The snapshot, read only once every accepted job has been planned."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        snapshot = await client.metrics()
        if snapshot["scheduled"] == snapshot["accepted"] or loop.time() > deadline:
            return snapshot
        await asyncio.sleep(0.05)


def _served_rate(load: dict) -> float:
    (first_at, first), (last_at, last) = load["scrapes"][0], load["scrapes"][-1]
    return (last - first) / (last_at - first_at)


def _check(session: dict, problems: list[str]) -> tuple[int, int]:
    load, snapshot = session["load"], session["snapshot"]
    attempted = len(load["records"])
    accepted = sum(1 for record in load["records"] if record[4] is not None)
    problems.extend(f"request failed: {error}" for error in load["errors"][:3])
    if snapshot["accepted"] != accepted:
        problems.append(f"service accepted {snapshot['accepted']}, client saw {accepted}")
    if snapshot["scheduled"] != snapshot["accepted"]:
        problems.append(
            f"{snapshot['accepted'] - snapshot['scheduled']} accepted jobs never planned"
        )
    if snapshot["shed"] or snapshot["degraded_batches"]:
        problems.append(
            f"overloaded: {snapshot['shed']} shed, {snapshot['degraded_batches']} degraded batches"
        )
    failed = attempted - accepted + snapshot["shed"] + snapshot["accepted"] - snapshot["scheduled"]
    return attempted, failed


def _window(load: dict) -> list[tuple]:
    return [record for record in load["records"] if record[0] >= load["warmup"]]


def measure(seed: int, seconds: float, tiny: bool) -> dict:
    """The untraced run: several set-ups, one load window, end-to-end metrics.

    Set-up, mostly the server process starting, is work on the box, so it
    is calibrated by the box's speed sampled in the client meanwhile.  The
    latencies stay on the wall clock: the submit latency read the same
    across box speeds 0.7-1.2 (the event loop's wake-ups and the loopback
    round trip set it), so scaling it by the speed only added spread.
    """
    warmup = WARMUP_S["tiny" if tiny else "full"]
    box = BoxSpeed()
    session = asyncio.run(_session(seed, seconds, warmup, trace=False, setups=SETUPS, box=box))
    setup_speed, setup_probes = box.speed(session["setup_at"])
    problems: list[str] = []
    attempted, failed = _check(session, problems)
    snapshot, server = session["snapshot"], session["server"]
    wall_setups = [end - start for start, end in session["setup_at"]]
    submit = [(reply - due) * 1e3 for _, due, _, reply, _ in _window(session["load"])]
    planned = session["window_jobs"]
    batches = f"over {server['batches']} batches, vs MCT on each batch instance"
    metrics = [
        Metric("setup_s", median(wall_setups) * setup_speed, "s",
               f"median of {len(wall_setups)} set-ups; wall {median(wall_setups):.4g} s "
               f"at box speed {setup_speed:.3f} (n={setup_probes} probes)"),
        Metric("peak_rss_mb", server["peak_rss_mb"], "MB", "service process"),
        Metric("jobs_per_s", _served_rate(session["load"]), "jobs/s",
               f"planned over the {seconds:g} s window, offered {RATE:g}/s"),
        Metric("makespan_vs_mct", server["makespan_vs_mct"], "ratio", "summed " + batches),
        Metric("flowtime_vs_mct", server["flowtime_vs_mct"], "ratio", "summed " + batches),
        Metric("planned_p50_ms", snapshot["p50_latency"] * 1e3, "ms",
               f"p50 of n={planned} (service snapshot)"),
        Metric("planned_p99_ms", snapshot["p99_latency"] * 1e3, "ms",
               f"p99 of n={planned} ({int(planned * 0.01)} beyond, service snapshot)"),
        Metric("submit_p50_ms", percentile(submit, 50), "ms", timing_note(submit, 50)),
        Metric("failed_frac", failed / attempted, "ratio", f"{failed} of {attempted}"),
    ]
    box_record = {"setup_speed": setup_speed, "probes": len(box.samples), "probe_s": box.probe_s}
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "box": box_record}


def measure_traced(seed: int, seconds: float, tiny: bool) -> dict:
    """An untraced and a traced session of half the window each."""
    warmup = WARMUP_S["tiny" if tiny else "full"]
    half = seconds / 2.0
    plain = asyncio.run(_session(seed, half, warmup, trace=False, setups=1))
    traced = asyncio.run(_session(seed, half, warmup, trace=True, setups=1))
    problems: list[str] = []
    attempted = failed = 0
    for session in (plain, traced):
        counts = _check(session, problems)
        attempted += counts[0]
        failed += counts[1]
    recorder: Recorder = traced["recorder"]
    layers = dict(traced["server"]["layers"])
    window = _window(traced["load"])
    rtt = [(reply - sent) * 1e3 for _, _, sent, reply, _ in window]
    late = [(sent - due) * 1e3 for _, due, sent, _, _ in window]
    submit = [(reply - due) * 1e3 for _, due, _, reply, _ in window]
    for module, seconds_ in recorder.module_self_seconds().items():
        key = f"self.{module}_s"
        layers[key] = layers.get(key, 0.0) + seconds_
    self_s = layers.pop("trace.self_s") + sum(span.self_s for span in recorder.spans)
    root_s = layers.pop("trace.root_s") + recorder.root_seconds()
    layers.update({
        "traces.generate_s": recorder.total("traces.generate_trace"),
        "service.rtt_p50_ms": percentile(rtt, 50),
        "service.rtt_p99_ms": percentile(rtt, 99),
        "service.submit_p99_ms": percentile(submit, 99),
        "service.send_late_p99_ms": percentile(late, 99),
        "trace.self_sum_frac": self_s / root_s,
        "trace.nesting_errors": layers["trace.nesting_errors"] + recorder.nesting_errors(),
        "trace.overhead_frac": 1.0 - _served_rate(traced["load"]) / _served_rate(plain["load"]),
    })
    if layers["trace.nesting_errors"]:
        problems.append("spans do not nest")
    if abs(layers["trace.self_sum_frac"] - 1.0) > 1e-9:
        problems.append(f"self times sum to {layers['trace.self_sum_frac']} of the span time")
    recorder.write(OUT / "spans" / f"live_tcp-client-seed{seed}.jsonl")
    return {"layers": layers, "problems": problems, "attempted": attempted, "failed": failed}
