"""Shared plumbing for the ethsm benchmark: building the program, running its
processes with resource accounting, statistics, tree digests and the
environment stamp. Standard library only."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Same mask as tools/compare_trees.py and the study tests: the flat per-cell
# "timing" object is the one run-mode-dependent field of a results tree.
TIMING_RE = re.compile(r',\s*"timing": \{[^}]*\}')
MASKED_NAMES = {"manifest.json", "orchestrate-manifest.json"}


class BenchError(RuntimeError):
    """A failed build, program error or output check: the run exits nonzero."""


# ------------------------------------------------------------------ build --

def build_dir(root: Path) -> Path:
    return root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(root: Path) -> dict[str, Path]:
    """Configures and builds the Release `ethsm` CLI and the layer harness
    from the checkout's sources; returns the two binaries. Incremental: a
    second call in the same checkout only checks timestamps."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise BenchError(f"no ethsm source tree under {root}")
    out = build_dir(root)
    out.mkdir(parents=True, exist_ok=True)
    log = out / "perfbench-build.log"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release", f"-DETHSM_ROOT={root}"],
        ["cmake", "--build", str(out), "-j", jobs,
         "--target", "ethsm_cli", "ethsm_layers"],
    ]
    with log.open("w") as handle:
        for step in steps:
            if subprocess.run(step, stdout=handle, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                raise BenchError(f"build step failed: {' '.join(step)}")
    bins = {"ethsm": out / "ethsm", "layers": out / "ethsm_layers"}
    for name, path in bins.items():
        if not path.is_file():
            raise BenchError(f"build produced no {name} binary at {path}")
    return bins


# -------------------------------------------------------------- processes --

class Proc:
    """One finished program process: wall seconds, CPU seconds (user + sys,
    including every descendant it waited for, e.g. orchestrate workers) and
    peak RSS in MB (the largest of the process and those descendants)."""

    def __init__(self, wall_s: float, cpu_s: float, rss_mb: float,
                 returncode: int, stdout: str):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.returncode = returncode
        self.stdout = stdout


def reap(popen: subprocess.Popen, started: float) -> Proc:
    """Waits for `popen` with wait4, which reports its resource usage."""
    _, status, usage = os.wait4(popen.pid, 0)
    wall = time.perf_counter() - started
    popen.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                popen.returncode, "")


def run_program(argv: list, cwd: Path, capture: bool = False,
                timeout: float = 170.0) -> Proc:
    """Runs one program process to completion and accounts for it; SIGKILLs
    it after `timeout` seconds. A nonzero exit raises BenchError."""
    argv = [str(a) for a in argv]
    with tempfile.TemporaryFile("w+", dir=cwd) as out:
        started = time.perf_counter()
        popen = subprocess.Popen(argv, cwd=cwd, stdout=out,
                                 stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, popen.kill)
        timer.start()
        try:
            proc = reap(popen, started)
        finally:
            timer.cancel()
        out.seek(0)
        if capture or proc.returncode != 0:
            proc.stdout = out.read()
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(argv)}\n"
                         f"{proc.stdout[-3000:]}")
    return proc


def stop_and_reap(popen: subprocess.Popen, started: float,
                  grace: float = 20.0) -> Proc:
    """SIGTERMs a long-running process (SIGKILL after `grace` seconds) and
    accounts for it like run_program."""
    popen.send_signal(signal.SIGTERM)
    timer = threading.Timer(grace, popen.kill)
    timer.start()
    try:
        return reap(popen, started)
    finally:
        timer.cancel()


# ------------------------------------------------------------- statistics --

class Sample:
    """A named metric value with its unit, sample count and, for tails, the
    percentile it reports."""

    def __init__(self, value: float, unit: str, n: int, pct: str = ""):
        self.value = float(value)
        self.unit = unit
        self.n = n
        self.pct = pct


def median(values: list[float], unit: str) -> Sample:
    if not values:
        raise BenchError("no samples for a median")
    return Sample(statistics.median(values), unit, len(values), "p50")


def tail(values: list[float], unit: str) -> Sample:
    """The highest order statistic that still has at least ten samples beyond
    it, labelled with its percentile. Below 21 samples that statistic would
    sit under the median, so the maximum is reported instead (and labelled
    as such)."""
    if not values:
        raise BenchError("no samples for a tail")
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return Sample(ordered[-1], unit, n, "max (fewer than 21 samples)")
    index = n - 11
    return Sample(ordered[index], unit, n, f"p{100.0 * (index + 1) / n:.1f}")


# ------------------------------------------------------------------ trees --

def masked_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name in MASKED_NAMES:
        data = TIMING_RE.sub("", data.decode("utf-8", "surrogateescape")).encode(
            "utf-8", "surrogateescape")
    return data


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and timing-masked bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(masked_bytes(path) + b"\0")
    return digest.hexdigest()


def check_tree(root: Path) -> dict:
    """Loads a results tree's manifest and checks every cell is `ok`."""
    manifest = json.loads((root / "manifest.json").read_text())
    bad = [e["name"] for e in manifest["entries"] if e.get("status") != "ok"]
    if bad or not manifest.get("complete"):
        raise BenchError(f"{root}: cells not ok: {bad}")
    return manifest


# ------------------------------------------------------------------ stamp --

def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for sub in ("CMakeLists.txt", "src", "cli"):
        base = root / sub
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for path in files:
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_stamp(root: Path) -> dict:
    """What a result depends on besides the code under test. Results whose
    stamps differ (revision and source aside) are not comparable."""
    cache = {}
    cache_file = build_dir(root) / "CMakeCache.txt"
    if cache_file.is_file():
        for line in cache_file.read_text().splitlines():
            key, sep, value = line.partition("=")
            if sep:
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    version = "unknown"
    if shutil.which(compiler) or Path(compiler).is_file():
        probe = subprocess.run([compiler, "--version"], capture_output=True,
                               text=True)
        version = probe.stdout.splitlines()[0] if probe.stdout else "unknown"
    revision = "none (not a git checkout)"
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        revision = probe.stdout.strip() or revision
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "ETHSM_METRICS": cache.get("ETHSM_METRICS", "ON"),
        "ETHSM_THREADS": os.environ.get("ETHSM_THREADS", "unset"),
        "revision": revision,
        "source_digest": source_digest(root),
    }


# Stamp keys that identify the code under test rather than the environment:
# two results may differ in these and still be compared.
CODE_KEYS = ("revision", "source_digest")


def stamp_mismatches(a: dict, b: dict) -> list[str]:
    return [f"{key}: {a.get(key)!r} != {b.get(key)!r}"
            for key in sorted(a.keys() | b.keys())
            if key not in CODE_KEYS and a.get(key) != b.get(key)]
