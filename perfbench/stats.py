"""Statistics for the serving benchmark, kept apart so they can be tested.

Every function here is pure; test_stats.py checks each of them.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it,
# so a "p99" of a small sample is never just its maximum.
MIN_BEYOND = 10


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q * n))


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of `values`, or None when fewer
    than MIN_BEYOND samples lie beyond it."""
    n = len(values)
    if samples_beyond(n, q) < MIN_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * n)) - 1]


def account(parts):
    """Totals over launches/sections: each part has `attempted` and `failed`.

    A failed request counts against the attempts; only the rest are correct.
    """
    attempted = sum(int(p["attempted"]) for p in parts)
    failed = sum(int(p["failed"]) for p in parts)
    if failed > attempted:
        raise ValueError("more failures than attempts")
    return {"attempted": attempted, "failed": failed,
            "correct": attempted - failed}


def rate(correct, seconds):
    """Correct responses per wall-clock second."""
    return correct / seconds if seconds > 0 else 0.0


def across_launches(values):
    """Median of per-launch values and their spread (max - min).

    A rung's median within one launch can sit in one of two modes that differ
    between launches of the same binary, so the reported value is the median
    over launches, never over pooled samples of one launch.
    """
    values = [v for v in values if v is not None]
    if not values:
        return None, None
    return statistics.median(values), max(values) - min(values)


# Ladder rungs from the bottom up; each marginal is a rung minus the one
# below it. The bottom rung is Orchestrator::Run plus the Wfd::Reset a
# pooled invocation pays after it.
def marginals(rungs):
    """Marginal costs from rung medians.

    rungs: orchestrator.run_us, wfd.reset_us, visor.invoke_us,
    router.dispatch_us, http.roundtrip_us.
    """
    base = rungs["orchestrator.run_us"] + rungs["wfd.reset_us"]
    return {
        "visor.marginal_us": rungs["visor.invoke_us"] - base,
        "router.marginal_us":
            rungs["router.dispatch_us"] - rungs["visor.invoke_us"],
        "http.marginal_us":
            rungs["http.roundtrip_us"] - rungs["router.dispatch_us"],
    }


def ladder_sum(rungs, margins):
    """Bottom rung plus every marginal; equals http.roundtrip_us."""
    return (rungs["orchestrator.run_us"] + rungs["wfd.reset_us"] +
            margins["visor.marginal_us"] + margins["router.marginal_us"] +
            margins["http.marginal_us"])


def self_times(spans):
    """Per span: its duration minus the part of it its children cover.

    spans: dicts with id, parent, start, dur (same time unit). Children may
    overlap each other (parallel stage instances); covered time is the union
    of their intervals clipped to the parent's.
    """
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    result = {}
    for s in spans:
        lo, hi = s["start"], s["start"] + s["dur"]
        intervals = sorted(
            (max(lo, c["start"]), min(hi, c["start"] + c["dur"]))
            for c in children.get(s["id"], []))
        covered = 0
        cur_lo = cur_hi = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        result[s["id"]] = s["dur"] - covered
    return result
