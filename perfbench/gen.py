"""Seeded input generation. One seed produces every study file, spec list and
arrival schedule; the same seed gives byte-identical inputs.

The two artefact workloads take no generated input: they run the paper
artefact exactly as registered, with every preset's own seed, whatever the
benchmark seed. Re-seeding them was tried and rejected: the net_faults cell
alone took 7.3 s under one simulation seed and 14.6 s under another (same
event count within 3%), so the seed, not the program, would set their wall
time.

Markov grids are a fixed base grid with a small seeded jitter: the solver's
cost rises steeply towards alpha = 0.5 and gamma = 0, so freely drawn grids
would change the amount of work from seed to seed, not just the values."""

from __future__ import annotations

import random


def rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"ethsm-perfbench:{seed}:{stream}")


def jittered(r: random.Random, base: list[float], width: float) -> list[float]:
    return [round(b + r.uniform(-width, width), 4) for b in base]


def fmt(values: list[float]) -> str:
    return ",".join(f"{v:g}" for v in values)


def table_schedule(r: random.Random, length: int = 6) -> str:
    """A random decreasing `table:` uncle schedule (Ritz-style Ku(d))."""
    values, value = [], r.uniform(0.6, 0.95)
    for _ in range(length):
        values.append(round(value, 4))
        value *= r.uniform(0.5, 0.9)
    return "table:" + fmt(values)


# ------------------------------------------------------------- markov grid --

def markov_grid_study(seed: int) -> str:
    """A Markov-only study: revenue curves at deep max_lead and threshold
    curves at tight tolerance, over Byzantium, flat and random `table:`
    schedules crossed with a gamma grid, plus reward_design cells. No cell
    runs a simulation or the network engine."""
    r = rng(seed, "markov_grid")
    alphas = jittered(r, [0.05 * i for i in range(1, 9)], 0.004)
    gammas = jittered(r, [0.2, 0.5, 0.8], 0.03)
    threshold_gammas = jittered(r, [0.125, 0.375, 0.625, 0.875], 0.03)
    schedules = {
        "byzantium": "byzantium",
        "flat": f"flat:{r.uniform(0.3, 0.8):.4f}:100",
        "table": table_schedule(r),
    }
    design_kus = jittered(r, [0.35, 0.65], 0.03)
    lines = [
        "study = markov_grid",
        f"title = Markov-only grid (benchmark seed {seed})",
        "max_lead = 200",
        "tolerance = 1e-9",
        f"alphas = {fmt(alphas)}",
        f"gammas = {fmt(threshold_gammas)}",
        f"ku_values = {fmt(design_kus)}",
    ]
    for name, schedule in schedules.items():
        for i, gamma in enumerate(gammas):
            variant = f"variant.revenue_{name}_g{i}"
            lines += [f"{variant}.kind = revenue",
                      f"{variant}.rewards = {schedule}",
                      f"{variant}.gamma = {gamma:g}"]
    for name, schedule in schedules.items():
        variant = f"variant.threshold_{name}"
        lines += [f"{variant}.kind = threshold",
                  f"{variant}.rewards = {schedule}"]
    for i, gamma in enumerate(jittered(r, [0.35, 0.65], 0.03)):
        variant = f"variant.design_g{i}"
        lines += [f"{variant}.kind = reward_design",
                  f"{variant}.gamma = {gamma:g}",
                  f"{variant}.tolerance = 1e-5"]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ serve --
# The repository records no production traffic, so the serve_mixed mix is
# assumed; each share below says what it was chosen to exercise.

# The hot set is the request set tools/replay_load.py drives: every
# registered preset at quick size, posted as `?preset=NAME&quick=1`.
PRESETS = ["fig8", "fig9", "fig10", "table1", "table2", "sec6_reward_design",
           "ext_stubborn", "ext_timeline", "ext_difficulty", "delay_network",
           "net_gamma", "net_faults"]
# Offered rate of the reference phase, in requests per second, and the
# share of requests that post a never-seen spec. At 60 req/s, 15% misses
# are 9 computes a second of about 0.1 CPU-s each, under half of what the
# daemon sustains on 4 CPUs: misses overlap each other and the hits beside
# them, yet the reference phase builds no backlog, so its latencies are the
# daemon's, not a queue's, and it yields about 45 misses per run.
REFERENCE_RPS = 60
MISS_FRACTION = 0.15
# Share of novel specs posted a second time DEDUPE_DELAY_S after the first
# copy, while it still computes (a novel spec takes tens of milliseconds),
# so that each run attaches a few dozen followers to an in-flight job.
DEDUPE_FRACTION = 0.25
DEDUPE_DELAY_S = 0.002
# The reference phase takes this share of --seconds. The saturation phase
# that follows sends the same mix closed-loop, each connection posting its
# next request as soon as the last is answered; it holds this many requests
# per second of --seconds, which lasts for the rest of --seconds at the
# rate the daemon sustained on the 4-CPU machine it was tuned on.
REFERENCE_SHARE = 0.6
SATURATION_REQUESTS_PER_S = 110
# Cache slots beyond the hot set, as a share of the run's novel specs: half
# of them are evicted. With only 32 extra slots, 3 to 8 hot presets were
# evicted and recomputed in each saturation phase, the number set by the
# seed, and the other connections waited on those recomputes. The achieved
# rate then followed the seed by 15%.
CACHE_EXTRA_SHARE = 0.5


def novel_spec(r: random.Random, title: str) -> str:
    """A never-seen spec shaped like the fig8 preset: its 19-job Markov
    revenue sweep (which a daemon worker runs inline: sweeps inside a pool
    worker do not fan out again), without the Monte-Carlo cross-check
    (fig9's presets carry none either; with it a miss costs three times as
    much CPU and the reference phase saturates).
    Only gamma and the flat uncle reward are drawn, in a band where the
    solves cost about the same."""
    return "\n".join([
        "kind = revenue",
        f"title = {title}",
        f"gamma = {r.uniform(0.45, 0.55):.4f}",
        "series.0.label = Ku",
        f"series.0.rewards = flat:{r.uniform(0.3, 0.7):.4f}",
    ]) + "\n"


def serve_plan(seed: int, seconds: float) -> dict:
    """Hot set, novel specs and the arrival schedule for serve_mixed: the
    reference phase at a fixed offered rate with evenly spaced arrivals,
    then the saturation phase with every request due at once. A request
    re-fetches a hot preset, or (MISS_FRACTION of them) posts the next
    never-seen spec, which computes. Each phase uses its own novel specs."""
    r = rng(seed, "serve")
    reference = max(1, int(REFERENCE_RPS * seconds * REFERENCE_SHARE))
    saturation = max(1, int(SATURATION_REQUESTS_PER_S * seconds))
    novel: list[str] = []
    phases = []
    for rate, count in ((REFERENCE_RPS, reference), (None, saturation)):
        # Exact counts at seeded positions: seeds move requests, not the
        # amount of work.
        misses = round(count * MISS_FRACTION)
        n_dups = round(misses * DEDUPE_FRACTION)
        if rate:
            kinds = ["miss"] * misses + ["hit"] * (count - misses)
            r.shuffle(kinds)
            dups = set(r.sample(range(misses), n_dups))
        else:
            # Closed loop: evenly spaced, the same sequence of kinds for
            # every seed, so that where misses bunch does not set the rate.
            kinds = ["miss" if (k + 1) * misses // count > k * misses // count
                     else "hit" for k in range(count)]
            dups = {j * misses // n_dups for j in range(n_dups)}
        requests, seen = [], 0
        for k, kind in enumerate(kinds):
            due = k / rate if rate else 0.0
            if kind == "miss":
                novel.append(novel_spec(r, f"novel {len(novel)}"))
                requests.append((due, "miss", len(novel) - 1))
                if seen in dups:
                    # Closed loop: next in line, claimed while the first
                    # copy computes (the sort below is stable).
                    dup_due = due + DEDUPE_DELAY_S if rate else due
                    requests.append((dup_due, "dup", len(novel) - 1))
                seen += 1
            else:
                requests.append((due, "hit", r.randrange(len(PRESETS))))
        requests.sort()
        phases.append({"rate": rate, "requests": requests})
    return {"hot": PRESETS, "novel": novel, "phases": phases,
            "cache_entries": len(PRESETS) + int(len(novel) * CACHE_EXTRA_SHARE)}
