"""Per-layer numbers for the traced run (--trace 1).

A traced run repeats the workload once with the program's own surfaces
switched on (--trace, --metrics-out, GET /metrics, manifest "timing",
orchestrate-manifest.json) and runs the layer harness (ethsm_layers) over
the same inputs. Layers are named after the src/ modules. Time that no span
covers is reported as an explicit `remainder.*` metric, never dropped."""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

import batch
import serve
from common import run_program
from gen import PRESETS

PER_LAYER = (
    ["pool.tasks", "pool.busy_s", "pool.idle_frac",
     "checkpoint.appends", "checkpoint.append_bytes", "checkpoint.append_s",
     "checkpoint.read_records", "checkpoint.load_s",
     "checkpoint.imported_records",
     "markov.builds", "markov.build_s", "markov.states", "markov.nnz",
     "markov.solves", "markov.solve_s", "markov.iterations", "markov.fallbacks",
     "analysis.kernel_calls", "analysis.kernel_s",
     "analysis.kernel_entries_per_s", "analysis.serial_s",
     "sim.runs", "sim.blocks", "sim.run_s", "sim.blocks_per_s",
     "net.runs", "net.events", "net.run_s", "net.events_per_s",
     "net.fault_drops"]
    + [f"api.cell_s.{p}" for p in PRESETS]
    + ["api.tail_cell_s", "api.render_s",
       "serve.requests", "serve.hit_ratio", "serve.evictions",
       "serve.dedupe_attached", "serve.admission_rejected",
       "serve.queue_depth_max", "serve.parse_s", "serve.cache_lookup_s",
       "serve.admission_s", "serve.dedupe_wait_s", "serve.compute_s",
       "serve.render_s", "serve.gen_lag_ms",
       "orchestrate.units", "orchestrate.attempts", "orchestrate.unit_s_max",
       "orchestrate.unit_s_median", "orchestrate.merge_s",
       "remainder.outside_cells_s", "remainder.pool_task_s",
       "remainder.serve_request_s",
       "trace.overhead_frac"])

def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name or "_s_" in name:
        return "s"
    for suffix, unit in (("_frac", "ratio"), ("_ratio", "ratio"),
                         ("_ms", "ms"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------- trace files --

def spans(trace_file: Path) -> list[dict]:
    data = json.loads(trace_file.read_text())
    events = data["traceEvents"] if isinstance(data, dict) else data
    return [e for e in events if e.get("ph") == "X"]


def span_seconds(events: list[dict], prefix: str) -> float:
    return sum(e["dur"] for e in events if e["name"].startswith(prefix)) / 1e6


def uncovered_seconds(outer: dict, inner: list[dict]) -> float:
    """Part of `outer` that no `inner` span on the same thread covers."""
    start, end = outer["ts"], outer["ts"] + outer["dur"]
    covered, cursor = 0.0, start
    for e in sorted((e for e in inner if e["tid"] == outer["tid"]),
                    key=lambda e: e["ts"]):
        lo, hi = max(e["ts"], cursor), min(e["ts"] + e["dur"], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (outer["dur"] - covered) / 1e6


def flat_metrics(snapshot: dict) -> dict[str, float]:
    """`--metrics-out` JSON -> Prometheus-style flat names."""
    flat = dict(snapshot.get("counters", {}))
    flat.update(snapshot.get("gauges", {}))
    for name, histogram in snapshot.get("histograms", {}).items():
        flat[f"{name}_sum"] = histogram["sum"]
        flat[f"{name}_count"] = histogram["count"]
    return flat


def program_layers(m: dict[str, float], wall: float) -> dict[str, float]:
    """Layers read from the program's own metric registry."""
    threads = int(os.environ.get("ETHSM_THREADS", "0") or 0) or len(
        os.sched_getaffinity(0))
    busy = m.get("ethsm_pool_task_seconds_sum", 0.0)
    return {
        "pool.tasks": m.get("ethsm_pool_tasks_total", 0.0),
        "pool.busy_s": busy,
        "pool.idle_frac": 1.0 - busy / (wall * threads) if wall > 0 else 0.0,
        "checkpoint.appends": m.get("ethsm_checkpoint_appends_total", 0.0),
        "checkpoint.append_bytes": m.get("ethsm_checkpoint_append_bytes_total", 0.0),
        "checkpoint.append_s": m.get("ethsm_checkpoint_append_seconds_sum", 0.0),
        "checkpoint.imported_records":
            m.get("ethsm_checkpoint_imported_records_total", 0.0),
        "markov.solves": m.get("ethsm_solver_solves_total", 0.0),
        "markov.iterations": m.get("ethsm_solver_iterations_total", 0.0),
        "markov.fallbacks": m.get("ethsm_solver_fallbacks_total", 0.0),
        "net.runs": m.get("ethsm_net_runs_total", 0.0),
        "net.events": m.get("ethsm_net_events_total", 0.0),
        "net.fault_drops": m.get("ethsm_net_fault_messages_dropped_total", 0.0),
    }


def cell_layers(events: list[dict], wall: float) -> dict[str, float]:
    """Layers read from a `run` trace: cells, pool regions, net runs."""
    cells = [e for e in events if e["name"].startswith("study.cell ")]
    regions = [e for e in events if e["name"] == "pool.region"]
    out = {f"api.cell_s.{e['name'].split(' ', 1)[1]}": e["dur"] / 1e6
           for e in cells if e["name"].split(" ", 1)[1] in PRESETS}
    out["api.tail_cell_s"] = max((e["dur"] for e in cells), default=0) / 1e6
    out["analysis.serial_s"] = sum(uncovered_seconds(c, regions) for c in cells)
    out["net.run_s"] = span_seconds(events, "net.run")
    out["remainder.outside_cells_s"] = wall - sum(e["dur"] for e in cells) / 1e6
    return out


def harness(bins: dict, work: Path, source: list, store: Path | None) -> dict:
    argv = [bins["layers"]] + source
    if store:
        argv += ["--store", store]
    h = json.loads(run_program(argv, work, capture=True).stdout)
    out = {k: h.get(k, 0.0) for k in (
        "markov.builds", "markov.build_s", "markov.states", "markov.nnz",
        "markov.solve_s", "analysis.kernel_calls", "analysis.kernel_s",
        "sim.runs", "sim.blocks", "sim.run_s", "checkpoint.load_s",
        "api.render_s")}
    out["analysis.kernel_entries_per_s"] = (
        h.get("analysis.kernel_entries", 0.0) / h["analysis.kernel_s"]
        if h.get("analysis.kernel_s") else 0.0)
    out["sim.blocks_per_s"] = (h["sim.blocks"] / h["sim.run_s"]
                               if h.get("sim.run_s") else 0.0)
    return out


# ------------------------------------------------------------- workloads --

def traced_batch(name: str, bins: dict, work: Path, seed: int,
                 untraced_wall: float) -> dict[str, float]:
    trace, snapshot, warm_snapshot = (work / "cold.trace.json",
                                      work / "cold.metrics.json",
                                      work / "warm.metrics.json")
    orchestrated = name == "orchestrate_artefact"

    def extra(kind: str) -> list:
        if kind == "warm":
            return ["--metrics-out", warm_snapshot]
        if orchestrated:
            return ["--trace", trace]
        return ["--trace", trace, "--metrics-out", snapshot]

    record = batch.run_batch(name, bins, work, seed, 0.0, extra)
    p = record["passes"][-1]
    wall = p["cold"].wall_s
    events = spans(trace)
    out = dict.fromkeys(PER_LAYER, 0.0)
    if orchestrated:
        out.update(orchestrate_layers(events, p["store"], wall))
    else:
        out.update(program_layers(flat_metrics(json.loads(snapshot.read_text())), wall))
        out.update(cell_layers(events, wall))
        out["net.events_per_s"] = (out["net.events"] / out["net.run_s"]
                                   if out["net.run_s"] else 0.0)
        out["remainder.pool_task_s"] = out["pool.busy_s"] - out["net.run_s"]
    # Store loads on the rerun have no program counter of their own
    # (ethsm_checkpoint_read_records_total counts only the read-only reader
    # path); the rerun's manifest timing says how many jobs it loaded.
    warm = flat_metrics(json.loads(warm_snapshot.read_text()))
    out["checkpoint.read_records"] = warm.get(
        "ethsm_checkpoint_read_records_total", 0.0) + sum(
        e["timing"]["jobs_loaded"] for e in p["warm_manifest"]["entries"])
    out.update(harness(bins, work, record["workload"].source_args(), p["store"]))
    out["trace.overhead_frac"] = wall / untraced_wall - 1.0
    return out


def orchestrate_layers(events: list[dict], store: Path, wall: float) -> dict:
    """The coordinator's view: unit spans, its merge pass, and the manifest.
    Worker processes expose no metrics surface of their own, so pool, net
    and solver counters of the distributed phase are not observable here."""
    manifest = json.loads((store / "orchestrate-manifest.json").read_text())
    units = [u["timing"]["wall_ms"] / 1000.0 for u in manifest["shards"]]
    run_end = max(e["ts"] + e["dur"] for e in events
                  if e["name"] == "orchestrate.run") / 1e6
    out = cell_layers([e for e in events if e["ts"] / 1e6 >= run_end], wall)
    cells_end = max((e["ts"] + e["dur"] for e in events), default=0) / 1e6
    out.update({
        "orchestrate.units": manifest["units"],
        "orchestrate.attempts": manifest["attempts_total"],
        "orchestrate.unit_s_max": max(units),
        "orchestrate.unit_s_median": statistics.median(units),
        "orchestrate.merge_s": cells_end - run_end,
        "checkpoint.imported_records": manifest["records_imported"],
        # Coordinator wall outside the distributed phase and its merge pass.
        "remainder.outside_cells_s": wall - cells_end,
    })
    return out


def traced_serve(bins: dict, work: Path, seed: int, seconds: float,
                 untraced_wall: float) -> dict[str, float]:
    record = serve.run_serve(bins, work, seed, seconds, traced=True)
    before, after = record["before"], record["after"]

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    # The trace covers the daemon's life; keep what starts after its set-up,
    # whose last span is the last of the hot set's pre-fill requests.
    events = spans(record["trace"])
    requests = sorted((e for e in events if e["name"] == "serve.request /v1/run"),
                      key=lambda e: e["ts"])
    setup_end = max(e["ts"] + e["dur"] for e in requests[:record["hot"]])
    events = [e for e in events if e["ts"] >= setup_end]
    out = dict.fromkeys(PER_LAYER, 0.0)
    diff = {k: delta(k) for k in after}
    out.update(program_layers(diff, record["traffic_s"]))
    hits, misses = delta("ethsm_serve_cache_hits_total"), delta(
        "ethsm_serve_cache_misses_total")
    stages = {"parse": "serve.parse_spec", "cache_lookup": "serve.cache_lookup",
              "admission": "serve.admission", "dedupe_wait": "serve.dedupe_wait",
              "compute": "serve.compute", "render": "serve.render"}
    out.update({f"serve.{k}_s": span_seconds(events, v) for k, v in stages.items()})
    out.update({
        "serve.requests": delta("ethsm_serve_requests_run_total"),
        "serve.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.evictions": delta("ethsm_serve_cache_evictions_total"),
        "serve.dedupe_attached": delta("ethsm_serve_dedupe_attached_total"),
        "serve.admission_rejected": delta("ethsm_serve_admission_rejected_total"),
        # The generator never opens more connections than the daemon has
        # workers, so this is the gauge at the end of the run.
        "serve.queue_depth_max": after.get("ethsm_serve_queue_depth", 0.0),
        "serve.gen_lag_ms": max(p["gen_lag_tail_ms"] for p in record["phases"]),
        "remainder.serve_request_s": span_seconds(events, "serve.request /v1/run")
        - sum(out[f"serve.{k}_s"] for k in stages),
        "net.run_s": span_seconds(events, "net.run"),
    })
    # The harness replays every spec the daemon computed in the timed
    # traffic (the hot set was computed during set-up).
    spec_dir = work / "harness-specs"
    spec_dir.mkdir(exist_ok=True)
    source = []
    for i, text in enumerate(record["computed_specs"]):
        (spec_dir / f"{i}.spec").write_text(text)
        source += ["--spec", spec_dir / f"{i}.spec"]
    out.update(harness(bins, work, source, None))
    out["trace.overhead_frac"] = record["wall"] / untraced_wall - 1.0
    return out


def collect(name: str, bins: dict, work: Path, seed: int, seconds: float,
            untraced_wall: float) -> dict[str, float]:
    if name == "serve_mixed":
        return traced_serve(bins, work, seed, seconds, untraced_wall)
    return traced_batch(name, bins, work, seed, untraced_wall)
