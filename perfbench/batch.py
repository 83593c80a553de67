"""The three batch workloads: paper_artefact, markov_grid and
orchestrate_artefact. Each run expands the study (set-up), repeats a cold
pass on a fresh store until --seconds have passed, then reruns on the store
the last cold pass left."""

from __future__ import annotations

import json
import time
from pathlib import Path

import gen
from common import (BENCH_DIR, BenchError, Sample, check_tree, median,
                    run_program, tail, tree_digest)

# `ethsm expand` runs per benchmark run; setup_s is their median.
SETUP_REPEATS = 5
# Reruns on the last cold pass's store; resume_s is their median. Only the
# last: reruns after every pass left markov_grid (3.3 s cold passes) two
# passes per run, and its wall_s medians of ten runs spread 0.21.
RESUME_REPEATS = 3
ORCHESTRATE_WORKERS = 4
# Digest of the paper artefact's results tree, "timing" masked.
PINNED_ARTEFACT = json.loads(
    (BENCH_DIR / "pinned.json").read_text())["artefact_tree_sha256"]


class Batch:
    """One batch workload: the program commands it runs and its own checks."""

    name = ""
    study_name = ""  # results subdirectory of a study run ("" for --all)

    def __init__(self, bins: dict, work: Path, seed: int):
        self.ethsm = bins["ethsm"]
        self.work = work

    # What the program is asked to expand and run; overridden per workload.
    def source_args(self) -> list[str]:
        return ["--all"]

    def expand_argv(self) -> list:
        return [self.ethsm, "expand"] + self.source_args()

    def cold_argv(self, store: Path, out: Path, extra: list) -> list:
        return self.warm_argv(store, out, extra)

    def warm_argv(self, store: Path, out: Path, extra: list) -> list:
        return ([self.ethsm, "run"] + self.source_args()
                + ["--checkpoint-dir", store, "--out", out] + extra)

    def tree(self, out: Path) -> Path:
        return out / self.study_name if self.study_name else out

    def miss_samples_ms(self, cold_tree: dict, store: Path) -> list[float]:
        """Latency of each result the cold pass computed: its cells."""
        return [e["timing"]["wall_ms"] for e in cold_tree["entries"]]

    def check_cells(self, tree: Path, manifest: dict) -> None:
        """Workload-specific output checks on a complete tree."""

    def pinned_digest(self) -> str | None:
        return None


class PaperArtefact(Batch):
    name = "paper_artefact"

    def pinned_digest(self):
        return PINNED_ARTEFACT


class OrchestrateArtefact(PaperArtefact):
    """The cold pass is orchestrated; the rerun is `ethsm run --all` on the
    store the workers' records were imported into, so the two trees also
    check that orchestration is bitwise-identical to a single process.
    (Rerunning `ethsm orchestrate` itself recomputes every unit, which would
    double the run's length.)"""

    name = "orchestrate_artefact"

    def cold_argv(self, store, out, extra):
        return ([self.ethsm, "orchestrate"] + self.source_args()
                + ["--workers", str(ORCHESTRATE_WORKERS),
                   "--checkpoint-dir", store,
                   "--out", out, "--quiet"] + extra)

    def miss_samples_ms(self, cold_tree, store):
        """The orchestrator's results are its shard units."""
        manifest = json.loads((store / "orchestrate-manifest.json").read_text())
        if manifest.get("status") != "ok":
            raise BenchError(f"orchestrate manifest status {manifest.get('status')}")
        return [u["timing"]["wall_ms"] for u in manifest["shards"]]


class MarkovGrid(Batch):
    name = "markov_grid"
    study_name = "markov_grid"

    def __init__(self, bins, work, seed):
        super().__init__(bins, work, seed)
        self.study = work / "markov_grid.study"
        self.study.write_text(gen.markov_grid_study(seed))

    def source_args(self):
        return ["--study", str(self.study)]

    def expand_argv(self):
        return [self.ethsm, "expand", self.study]

    # Every other column of a Markov cell is a revenue share (revenue) or a
    # profitability threshold (threshold, reward_design). The skipped ones
    # are grid axes and the threshold kind's two comparison columns.
    RANGES = {"revenue": 1.0, "threshold": 0.5, "reward_design": 0.5}
    AXES = {"alpha", "gamma", "ku", "Schedule", "scn1 vs BTC", "scn2 vs BTC"}

    def check_cells(self, tree, manifest):
        for entry in manifest["entries"]:
            data = json.loads((tree / entry["dir"] / "data.json").read_text())
            upper = self.RANGES.get(data["kind"])
            if upper is None:
                raise BenchError(f"{self.name}: cell {entry['name']} is "
                                 f"{data['kind']}, not Markov-only")
            for table in data["tables"]:
                for column in table["columns"]:
                    if column["header"] in self.AXES:
                        continue
                    for value in column["values"]:
                        if not isinstance(value, (int, float)) or not 0.0 <= value <= upper:
                            raise BenchError(
                                f"{entry['name']}: {column['header']} value "
                                f"{value!r} outside [0, {upper}]")


WORKLOADS = {w.name: w for w in (PaperArtefact, MarkovGrid, OrchestrateArtefact)}


def run_batch(name: str, bins: dict, work: Path, seed: int, seconds: float,
              pass_extra=lambda kind: []) -> dict:
    """Runs one batch workload; returns its end-to-end samples plus what the
    traced run needs (the last store and trees, per-pass records).
    `pass_extra(kind)` gives extra program flags for the "cold" and "warm"
    passes."""
    w = WORKLOADS[name](bins, work, seed)

    setups = [run_program(w.expand_argv(), work).wall_s
              for _ in range(SETUP_REPEATS)]

    started = time.perf_counter()
    passes = []
    miss_ms: list[float] = []
    attempted = 0
    while True:
        i = len(passes)
        store, cold = work / f"store{i}", work / f"cold{i}"
        cold_proc = run_program(w.cold_argv(store, cold, pass_extra("cold")), work)
        cold_manifest = check_tree(w.tree(cold))
        digest = tree_digest(w.tree(cold))
        pinned = w.pinned_digest()
        if pinned and digest != pinned:
            raise BenchError(f"{name}: tree digest {digest} != pinned {pinned}")
        w.check_cells(w.tree(cold), cold_manifest)
        miss_ms += w.miss_samples_ms(cold_manifest, store)
        attempted += len(cold_manifest["entries"])
        passes.append({"cold": cold_proc, "store": store,
                       "cold_manifest": cold_manifest, "digest": digest})
        if time.perf_counter() - started >= seconds:
            break

    last = passes[-1]
    warms = []
    for k in range(RESUME_REPEATS):
        warm = work / f"warm{k}"
        warms.append(run_program(
            w.warm_argv(last["store"], warm, pass_extra("warm")), work))
        last["warm_manifest"] = check_tree(w.tree(warm))
        if tree_digest(w.tree(warm)) != last["digest"]:
            raise BenchError(f"{name}: resumed tree differs from the cold tree")
        attempted += len(last["warm_manifest"]["entries"])

    n_cells = len(last["cold_manifest"]["entries"])
    colds = [p["cold"] for p in passes]
    procs = colds + warms
    metrics = {
        "setup_s": median(setups, "s"),
        "wall_s": median([p.wall_s for p in colds], "s"),
        "resume_s": median([r.wall_s for r in warms], "s"),
        "cpu_s": median([p.cpu_s for p in colds], "s"),
        "peak_rss_mb": Sample(max(p.rss_mb for p in procs), "MB", len(procs),
                              "max"),
        "miss_p50_ms": median(miss_ms, "ms"),
        "miss_tail_ms": tail(miss_ms, "ms"),
        # Cells per second of the cold pass: n_cells / wall_s, reported only
        # because every workload emits every gated metric.
        "max_rate_rps": median([n_cells / p.wall_s for p in colds], "1/s"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": 0,
            "passes": passes, "workload": w, "digest": passes[-1]["digest"]}

