"""serve_mixed: one `ethsm serve` daemon under an open-loop generator.

The generator is one process with one keep-alive connection per CPU, as
many as the daemon has worker threads. All connections share one schedule
ordered by due time: a free connection claims the next request, waits until
it is due and sends it. Latency is timed from the due
time, so waiting for a free connection counts against the daemon. A
sender that wakes late on its own is generator lag; a phase whose lag
exceeds the limit is reported invalid rather than passed."""

from __future__ import annotations

import asyncio
import gc
import http.client
import os
import selectors
import subprocess
import time
from pathlib import Path

import gen
from common import (BenchError, Sample, median, run_program, stop_and_reap,
                    tail)

SLOTS = len(os.sched_getaffinity(0))
# Daemons launched for set-up; setup_s is their median.
SETUP_REPEATS = 3
# Daemon restarts on the finished store; resume_s is their median.
RESUME_REPEATS = 3
# Tail-latency and drain limit of the reference phase.
TAIL_LIMIT_MS = 200.0
# A phase in which the generator itself woke later than this is invalid.
MAX_GEN_LAG_MS = 20.0
# Computed payloads compared with the CLI's, besides one cache hit.
PAYLOAD_CHECKS = 3


class Daemon:
    """A running `ethsm serve` on an ephemeral port."""

    def __init__(self, ethsm: Path, work: Path, store: Path, cache_entries: int,
                 trace: Path | None = None):
        self.port_file = work / f"port-{time.monotonic_ns()}"
        argv = [str(ethsm), "serve", "--port", "0",
                "--port-file", str(self.port_file),
                "--checkpoint-dir", str(store), "--workers", str(SLOTS),
                "--cache-entries", str(cache_entries),
                # Admission is sized above the generator's concurrency, so a
                # refusal (429) can only come from a daemon fault.
                "--max-inflight", str(4 * SLOTS), "--client-jobs", str(4 * SLOTS),
                "--quiet"]
        if trace:
            argv += ["--trace", str(trace)]
        self.started = time.perf_counter()
        self.popen = subprocess.Popen(argv, cwd=work, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL)
        deadline = self.started + 30.0
        while not (self.port_file.is_file() and self.port_file.read_text().strip()):
            if self.popen.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("ethsm serve did not start listening")
            time.sleep(0.001)
        self.port = int(self.port_file.read_text())

    def stop(self):
        return stop_and_reap(self.popen, self.started)

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.read().decode()
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """User + sys CPU of the daemon so far, every thread included."""
        fields = Path(f"/proc/{self.popen.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def counters(self) -> dict[str, float]:
        values = {}
        for line in self.get("/metrics").splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                values[name] = float(value)
        return values


class Result:
    __slots__ = ("key", "due", "claimed", "sent", "done", "status", "source",
                 "body")


def drive(daemon: Daemon, requests: list, targets: dict) -> tuple:
    """Sends `requests` [(due_s, kind, key)] open-loop through SLOTS
    keep-alive connections, each as POST targets[key] = (path, body);
    returns (t0, results).

    One thread drives every connection from an asyncio loop over
    select(), whose timeouts have microsecond resolution (epoll rounds up
    to whole milliseconds); sender threads would instead wait on each
    other for the interpreter lock. The collector is off while the senders
    run so that no collection pause lands inside a timing, and the thread
    runs at real-time priority (where permitted) so that its own wake-ups
    are on time: a request that waits should be waiting on the daemon."""
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    gc.disable()
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(1))
    except OSError:
        pass  # unprivileged: wake-ups keep ordinary priority, lag is reported
    try:
        return loop.run_until_complete(_drive(daemon.port, requests, targets))
    finally:
        os.sched_setscheduler(0, os.SCHED_OTHER, os.sched_param(0))
        gc.enable()
        loop.close()


async def _drive(port: int, requests: list, targets: dict) -> tuple:
    results = []
    pending = iter(requests)  # shared: each request is claimed exactly once
    t0 = time.perf_counter() + 0.05

    async def sender(slot: int):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        headers = ("HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   f"X-Ethsm-Client: perfbench-{slot}\r\n"
                   "Content-Type: text/plain\r\n")
        try:
            for due, _, key in pending:
                r = Result()
                r.key, r.due = key, t0 + due
                r.claimed = time.perf_counter()
                if r.due > r.claimed:
                    await asyncio.sleep(r.due - r.claimed)
                r.sent = time.perf_counter()
                path, body = targets[key]
                try:
                    writer.write(f"POST {path} {headers}Content-Length: "
                                 f"{len(body)}\r\n\r\n".encode() + body)
                    r.status, r.source, r.body = await read_response(reader)
                except (OSError, ValueError, asyncio.IncompleteReadError):
                    # Counted as failed; the next request gets a fresh connection.
                    r.status, r.source, r.body = 0, "", b""
                    writer.close()
                    reader, writer = await asyncio.open_connection("127.0.0.1", port)
                r.done = time.perf_counter()
                results.append(r)
        finally:
            writer.close()

    await asyncio.gather(*(sender(s) for s in range(SLOTS)))
    return t0, results


async def read_response(reader: asyncio.StreamReader) -> tuple[int, str, bytes]:
    status = int((await reader.readline()).split()[1])
    headers = {}
    while (line := await reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers.get("x-ethsm-source", ""), body


def latency_ms(r: Result) -> float:
    return (r.done - r.due) * 1000.0


def lag_ms(r: Result) -> float:
    """How late the sender itself woke: zero when it was busy at the due
    time (that wait is the daemon's backlog and counts as latency)."""
    return max(0.0, r.sent - max(r.due, r.claimed)) * 1000.0




def phase_report(rate: float | None, requests: list, t0: float,
                 results: list) -> dict:
    """Requests due, sent, succeeded and failed, tail latency, generator lag
    and achieved rate of one phase. `rate` is the offered rate, None for the
    closed-loop saturation phase. An open-loop phase passes when nothing
    failed and both its tail latency and its drain time (last response after
    the last due time: the backlog it leaves) stay within TAIL_LIMIT_MS; one
    in which the generator itself fell behind is invalid, never passed."""
    ok = [r for r in results if r.status == 200]
    lags = [lag_ms(r) for r in results]
    latencies = [latency_ms(r) for r in results]
    span = max(r.done for r in results) - t0
    last_due = max(r.due for r in results)
    report = {
        "rate_rps": rate,
        "due": len(requests),
        "sent": len(results),
        "succeeded": len(ok),
        "failed": len(requests) - len(ok),
        "gen_lag_tail_ms": tail(lags, "ms").value,
        "tail_ms": tail(latencies, "ms").value,
        "drain_ms": (max(r.done for r in results) - last_due) * 1000.0,
        "achieved_rps": len(ok) / span,
    }
    report["valid"] = report["gen_lag_tail_ms"] <= MAX_GEN_LAG_MS
    report["passed"] = (report["valid"] and report["failed"] == 0
                        and (rate is None or max(report["tail_ms"],
                                                 report["drain_ms"]) <= TAIL_LIMIT_MS))
    return report


def payload_checks(ethsm: Path, work: Path, plan: dict, results: list) -> None:
    """A sample of served payloads -- computed ones and one cache hit --
    must be byte-equal to the CLI's `--format json` output."""
    sample = {}
    for source in ("computed", "cache"):
        for r in results:
            if r.status == 200 and r.source == source and r.key not in sample:
                sample[r.key] = r.body
                if source == "cache" or len(sample) >= PAYLOAD_CHECKS:
                    break
    spec_file = work / "payload-check.spec"
    for (kind, i), body in sample.items():
        if kind == "hit":
            argv = [ethsm, "run", plan["hot"][i], "--quick"]
        else:
            spec_file.write_text(plan["novel"][i])
            argv = [ethsm, "run", "--spec", spec_file]
        cli = run_program(argv + ["--format", "json"], work, capture=True)
        if cli.stdout.encode() != body:
            raise BenchError(f"served payload for {kind} {i} differs from "
                             "the CLI's")


def run_serve(bins: dict, work: Path, seed: int, seconds: float,
              traced: bool = False) -> dict:
    live: list[Daemon] = []
    try:
        return _run_serve(bins, work, seed, seconds, traced, live)
    finally:
        for daemon in live:
            if daemon.popen.returncode is None:
                daemon.stop()


def _run_serve(bins, work, seed, seconds, traced, live) -> dict:
    plan = gen.serve_plan(seed, seconds)
    targets = {("hit", i): (f"/v1/run?preset={name}&quick=1", b"")
               for i, name in enumerate(plan["hot"])}
    targets.update({("miss", i): ("/v1/run", s.encode())
                    for i, s in enumerate(plan["novel"])})

    def keyed(requests):
        return [(due, kind, ("hit" if kind == "hit" else "miss", key))
                for due, kind, key in requests]

    def launch(store: Path, trace: Path | None = None) -> Daemon:
        live.append(Daemon(bins["ethsm"], work, store, plan["cache_entries"],
                           trace))
        return live[-1]

    # Set-up: launch, listen, pre-fill the hot set; repeated on fresh stores,
    # the last daemon stays up for the timed traffic.
    prefill = [(0.0, "hit", ("hit", i)) for i in range(len(plan["hot"]))]
    trace_file = work / "serve.trace.json" if traced else None
    setups, procs, daemon = [], [], None
    for i in range(SETUP_REPEATS):
        if daemon:
            procs.append(daemon.stop())
        last = i == SETUP_REPEATS - 1
        daemon = launch(work / f"store{i}", trace_file if last else None)
        _, results = drive(daemon, prefill, targets)
        if any(r.status != 200 for r in results):
            raise BenchError("hot-set pre-fill failed")
        setups.append(max(r.done for r in results) - daemon.started)
    store = work / f"store{SETUP_REPEATS - 1}"

    before = daemon.counters() if traced else {}
    traffic_start = time.perf_counter()

    # The reference phase, then the saturation phase.
    phases, computed = [], []
    cpu_before = daemon.cpu_s()
    attempted = failed = 0
    for phase in plan["phases"]:
        requests = keyed(phase["requests"])
        t0, results = drive(daemon, requests, targets)
        phases.append(phase_report(phase["rate"], requests, t0, results))
        attempted += phases[-1]["due"]
        failed += phases[-1]["failed"]
        computed += [r.key[1] for r in results
                     if r.key[0] == "miss" and r.source == "computed"]
        if len(phases) == 1:
            reference = results
            wall = max(r.done for r in results) - daemon.started
            cpu = daemon.cpu_s() - cpu_before
    traffic_s = time.perf_counter() - traffic_start
    after = daemon.counters() if traced else {}
    payload_checks(bins["ethsm"], work, plan, reference)
    procs.append(daemon.stop())

    # Resume: restart on the same store (empty cache) and re-request the
    # novel specs the reference phase computed; they reload from checkpoints.
    # Repeated; resume_s is the median.
    first = {r.key: r.body for r in reference
             if r.source == "computed" and r.key[0] == "miss"}
    again = [(0.0, "miss", key) for key in first]
    resumes = []
    for _ in range(RESUME_REPEATS):
        restarted = launch(store)
        _, restart_results = drive(restarted, again, targets)
        resumes.append(max(r.done for r in restart_results) - restarted.started)
        procs.append(restarted.stop())
        attempted += len(restart_results)
        failed += sum(r.status != 200 for r in restart_results)
        if any(r.body != first[r.key] for r in restart_results
               if r.status == 200):
            raise BenchError("a payload changed across a daemon restart")

    hits = [latency_ms(r) for r in reference if r.source == "cache"]
    misses = [latency_ms(r) for r in reference
              if r.source in ("computed", "dedup")]
    metrics = {
        "setup_s": median(setups, "s"),
        "wall_s": Sample(wall, "s", 1),
        "resume_s": median(resumes, "s"),
        "cpu_s": Sample(cpu, "s", 1),
        "peak_rss_mb": Sample(max(p.rss_mb for p in procs), "MB", len(procs), "max"),
        "hit_p50_ms": median(hits, "ms"),
        "hit_tail_ms": tail(hits, "ms"),
        "miss_p50_ms": median(misses, "ms"),
        "miss_tail_ms": tail(misses, "ms"),
        # The rate the daemon sustains with one request in flight per
        # connection: the highest rate at which its backlog cannot grow.
        "max_rate_rps": Sample(phases[-1]["achieved_rps"], "1/s",
                               phases[-1]["succeeded"],
                               f"closed loop, {SLOTS} in flight"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "phases": phases, "before": before, "after": after,
            "trace": trace_file, "wall": wall, "traffic_s": traffic_s,
            "hot": len(plan["hot"]),
            # A re-sent copy that computes again loads from checkpoints.
            "computed_specs": [plan["novel"][i] for i in dict.fromkeys(computed)]}
