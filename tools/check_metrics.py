#!/usr/bin/env python3
"""CI gate over a live `ethsm serve` daemon's GET /metrics endpoint.

Usage:  python3 tools/check_metrics.py --port PORT [--host HOST]

Checks, in order:

1. The Prometheus text exposition parses: every non-comment line is
   `name[{labels}] value`, every sample is preceded by a `# TYPE` for its
   family, histogram families carry _bucket/_sum/_count series and their
   bucket counts are cumulative (monotone in `le`, +Inf == _count).
2. Counters are monotone: a second scrape never shows a smaller value for
   any counter-typed family.
3. /metrics and /v1/status agree: both are renderings of the same registry,
   so the cache hit/miss/eviction counters and the computation counters
   must match exactly (modulo requests that land between the two reads --
   the probe orders its reads so the shared counters are quiescent).
4. After the daemon has computed at least one spec, the engine families
   prove the taps fired: ethsm_solver_solves_total and
   ethsm_solver_iterations_total are nonzero and checkpoint appends
   happened.
5. Each served request makes at most one result-cache lookup: POST
   /v1/run and GET /v1/result are the only routes that look up, so
   cache_hits_total + cache_misses_total <= requests_run_total +
   requests_result_total.

Exit 0 when all checks pass; 1 with a diagnostic on the first failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import urllib.request

SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\+Inf|-Inf|NaN))$'
)


def fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def parse_exposition(text: str) -> tuple[dict[str, float], dict[str, str], dict[str, dict[str, float]]]:
    """Returns (samples, family types, histogram buckets by family)."""
    samples: dict[str, float] = {}
    types: dict[str, str] = {}
    buckets: dict[str, dict[str, float]] = {}
    for line_number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {line_number}: malformed TYPE: {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {line_number}: unparseable sample: {line!r}")
        name = match.group("name")
        value = float(match.group("value"))
        family = re.sub(r"_(bucket|sum|count)$", "", name)
        if family not in types and name not in types:
            raise ValueError(f"line {line_number}: sample {name!r} without TYPE")
        if name.endswith("_bucket"):
            labels = match.group("labels") or ""
            le_match = re.search(r'le="([^"]*)"', labels)
            if not le_match:
                raise ValueError(f"line {line_number}: bucket without le label")
            buckets.setdefault(family, {})[le_match.group(1)] = value
        else:
            samples[name] = value
    return samples, types, buckets


def check_histograms(samples: dict[str, float], types: dict[str, str],
                     buckets: dict[str, dict[str, float]]) -> None:
    for family, kind in types.items():
        if kind != "histogram":
            continue
        series = buckets.get(family)
        if not series or "+Inf" not in series:
            raise ValueError(f"{family}: histogram without +Inf bucket")
        if f"{family}_sum" not in samples or f"{family}_count" not in samples:
            raise ValueError(f"{family}: histogram missing _sum/_count")
        ordered = sorted(
            ((float("inf") if le == "+Inf" else float(le)), count)
            for le, count in series.items()
        )
        counts = [count for _, count in ordered]
        if counts != sorted(counts):
            raise ValueError(f"{family}: bucket counts are not cumulative")
        if counts[-1] != samples[f"{family}_count"]:
            raise ValueError(f"{family}: +Inf bucket != _count")


def counter_values(samples: dict[str, float], types: dict[str, str]) -> dict[str, float]:
    return {n: v for n, v in samples.items() if types.get(n) == "counter"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--expect-computations",
        action="store_true",
        help="require the solver/checkpoint engine counters to be nonzero "
        "(use after the daemon has computed at least one spec)",
    )
    args = parser.parse_args()
    base = f"http://{args.host}:{args.port}"

    # Scrape order matters for the consistency check: /v1/status first, then
    # /metrics -- the only traffic in between is our own GET /metrics, which
    # touches no cache/computation counters.
    status = json.loads(fetch(f"{base}/v1/status"))
    first_text = fetch(f"{base}/metrics").decode()
    samples, types, buckets = parse_exposition(first_text)
    check_histograms(samples, types, buckets)
    first_counters = counter_values(samples, types)

    second_text = fetch(f"{base}/metrics").decode()
    second_samples, second_types, _ = parse_exposition(second_text)
    second_counters = counter_values(second_samples, second_types)

    for name, before in first_counters.items():
        after = second_counters.get(name)
        if after is None:
            raise ValueError(f"{name}: disappeared between scrapes")
        if after < before:
            raise ValueError(f"{name}: counter went backwards ({before} -> {after})")

    # Two renderings of one registry: the numbers must match, not merely
    # correlate. (No request between the status read and the first scrape
    # can touch these counters.)
    pairs = [
        ("ethsm_serve_cache_hits_total", status["cache"]["hits"]),
        ("ethsm_serve_cache_misses_total", status["cache"]["misses"]),
        ("ethsm_serve_cache_evictions_total", status["cache"]["evictions"]),
        ("ethsm_serve_computations_total", status["jobs"]["computed"]),
        ("ethsm_serve_failures_total", status["jobs"]["failed"]),
        ("ethsm_serve_dedupe_attached_total", status["jobs"]["dedupe_attached"]),
        ("ethsm_serve_admission_rejected_total", status["admission"]["rejected"]),
        ("ethsm_serve_requests_run_total", status["requests"]["run"]),
    ]
    for name, expected in pairs:
        actual = samples.get(name)
        if actual is None:
            raise ValueError(f"{name}: missing from /metrics")
        if actual != expected:
            raise ValueError(
                f"{name}: /metrics says {actual}, /v1/status says {expected}"
            )

    # The serve request counter advances with our own scrapes.
    if samples["ethsm_serve_requests_total"] < status["requests"]["total"]:
        raise ValueError("ethsm_serve_requests_total below /v1/status total")
    if second_samples["ethsm_serve_requests_metrics_total"] < 2:
        raise ValueError("GET /metrics requests are not being counted")

    if args.expect_computations:
        for name in (
            "ethsm_solver_solves_total",
            "ethsm_solver_iterations_total",
            "ethsm_checkpoint_appends_total",
        ):
            if samples.get(name, 0) <= 0:
                raise ValueError(f"{name}: expected nonzero after a computation")

    lookups = (samples["ethsm_serve_cache_hits_total"]
               + samples["ethsm_serve_cache_misses_total"])
    lookup_requests = (samples["ethsm_serve_requests_run_total"]
                       + samples["ethsm_serve_requests_result_total"])
    if lookups > lookup_requests:
        raise ValueError(
            f"{lookups:g} cache lookups for {lookup_requests:g} run/result "
            "requests: a request looked the cache up more than once"
        )

    families = sum(1 for kind in types.values())
    print(
        f"check_metrics: OK -- {families} families, "
        f"{len(first_counters)} counters monotone, "
        f"/v1/status consistent with /metrics, "
        f"{lookups:g} cache lookups for {lookup_requests:g} requests"
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ValueError, KeyError, OSError) as error:
        print(f"check_metrics: FAIL -- {error}", file=sys.stderr)
        sys.exit(1)
