#!/usr/bin/env python3
"""AlloyStack serving benchmark: one run of one workload.

    python3 perfbench/run.py --workload edge-noop --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the src/ tree plus the servebench harness) into
.bench_build/perfbench. A run launches servebench several times, because some
medians differ between launches of the same binary, and aggregates:

  --trace 0  each launch sets up and drives closed-loop load for
             seconds/launches; prints the end-to-end metrics.
  --trace 1  each launch drives the load untraced and traced (half the time
             each), then walks the layer ladder and the data plane in
             processes of their own; two known-defect probes run once in
             child processes. Prints the per-layer metrics.

The report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics. README.md explains every metric.
"""

import argparse
import array
import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "servebench")
WORKLOADS = ("edge-noop", "dataflow-wc", "cold-tenants")
LAUNCHES = 8
# The ladder and data-plane sections run in their own processes in the first
# LAYER_LAUNCHES launches of a traced run.
LAYER_LAUNCHES = 3
# Per-process limits, well inside the 180 s a run may take.
LOAD_TIMEOUT_EXTRA_S = 40
LAYER_TIMEOUT_S = 60
PROBE_TIMEOUT_S = 40
CRASH_PROBE_SECONDS = 3


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds servebench; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "servebench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build step %s failed: %s" % (step[:2], error))
            return False
        if done.returncode != 0:
            log(done.stdout.decode(errors="replace")[-4000:])
            log("build step %s failed (exit %d)" % (step[:2], done.returncode))
            return False
    return True


def no_core_dumps():
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def run_child(argv, timeout):
    """Runs one servebench process to completion (killed at `timeout`).

    Returns (returncode, parsed last stdout line or None, stderr tail).
    """
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=timeout,
                              preexec_fn=no_core_dumps)
    except subprocess.TimeoutExpired:
        return None, None, "timed out after %ds" % timeout
    lines = done.stdout.decode(errors="replace").strip().splitlines()
    parsed = None
    if done.returncode == 0 and lines:
        try:
            parsed = json.loads(lines[-1])
        except ValueError:
            parsed = None
    return done.returncode, parsed, done.stderr.decode(errors="replace")[-2000:]


def launch(args, section, index, seconds, traced_first=False):
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(args.trace),
            "--section", section, "--launch", str(index),
            "--out-dir", OUT_DIR, "--traced-first", "1" if traced_first else "0",
            "--t0-ns", str(time.monotonic_ns())]
    code, parsed, err = run_child(argv, seconds + LOAD_TIMEOUT_EXTRA_S
                                  if section == "load" else LAYER_TIMEOUT_S)
    if parsed is None:
        raise RuntimeError("servebench %s launch %d failed (exit %s): %s"
                           % (section, index, code, err.strip()))
    return parsed


def read_samples(path):
    samples = array.array("q")
    with open(path, "rb") as f:
        samples.frombytes(f.read())
    return samples.tolist()


# --------------------------------------------------------------- header


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
        if done.returncode == 0:
            return done.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unavailable (not a git checkout)"


def source_digest():
    """sha1 over src/ and perfbench/ sources: identifies the code measured
    when no git sha is available."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build_type():
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------- end to end


def end_to_end(args, launches, report):
    """Per-launch rps and latency percentiles, reported as the median over
    launches, so one launch that shared the machine with a burst of other
    work does not move the run's figure."""
    per_launch = {"rps": [], "p50_us": [], "p90_us": []}
    pooled = []
    for part in (l["load"] for l in launches):
        us = [v / 1e3 for v in read_samples(part["lat_file"])]
        pooled.extend(us)
        per_launch["rps"].append(stats.rate(part["correct"], part["window_s"]))
        per_launch["p50_us"].append(stats.percentile(us, 0.50))
        per_launch["p90_us"].append(stats.percentile(us, 0.90))
    per_launch["setup_s"] = [l["setup_s"] for l in launches]
    per_launch["rss_mib"] = [l["rss_mib"] for l in launches]
    units = {"rps": "1/s", "p50_us": "us", "p90_us": "us", "setup_s": "s",
             "rss_mib": "MiB"}
    report.append("end-to-end (tracing off; median over %d launches of "
                  "%.2f s each; %d requests)" % (
                      len(launches), args.seconds / len(launches),
                      len(pooled)))
    samples = {"rps": sum(l["load"]["correct"] for l in launches),
               "p50_us": len(pooled), "p90_us": len(pooled),
               "setup_s": len(launches), "rss_mib": len(launches)}
    metrics = {}
    for name, values in per_launch.items():
        value, spread = stats.across_launches(values)
        if value is None:
            raise RuntimeError("too few samples for %s" % name)
        metrics[name] = {"value": value, "unit": units[name]}
        report.append("  %-8s %12.4f %-4s spread %10.4f  samples=%d  "
                      "launches: %s" % (
                          name, value, units[name], spread, samples[name],
                          " ".join("%.4g" % v for v in values
                                   if v is not None)))
    p99 = stats.percentile(pooled, 0.99)
    report.append("  p99_us   %12s us   over all %d requests (printed only "
                  "with >= %d samples beyond it; not gated)" % (
                      "n/a" if p99 is None else "%.4f" % p99, len(pooled),
                      stats.MIN_BEYOND))
    return metrics


# -------------------------------------------------------------- per layer

LADDER = ("orchestrator.run_us", "wfd.reset_us", "visor.invoke_us",
          "router.dispatch_us", "http.roundtrip_us")
# Metrics the layer sections report per launch: name -> (unit, the key of
# their per-launch sample count, or None for one sample per launch). Each is
# reported as the median over launches.
ACROSS = {
    "orchestrator.run_us": ("us", "ladder_samples"),
    "wfd.reset_us": ("us", "ladder_samples"),
    "visor.invoke_us": ("us", "invoke_samples"),
    "router.dispatch_us": ("us", "dispatch_samples"),
    "http.roundtrip_us": ("us", "http_samples"),
    "wfd.clone_us": ("us", "clone_samples"),
    "wfd.destroy_us": ("us", "clone_samples"),
    "wfd.create_ms": ("ms", None),
    "wfd.capture_ms": ("ms", None),
    "mpk.enter_ns": ("ns", None),
    "orchestrator.stage_us.upload": ("us", "dataplane_samples"),
    "orchestrator.stage_us.map": ("us", "dataplane_samples"),
    "orchestrator.stage_us.reduce": ("us", "dataplane_samples"),
    "orchestrator.stage_us.collect": ("us", "dataplane_samples"),
    "orchestrator.fanin_wait_frac": ("ratio", "dataplane_samples"),
    "orchestrator.run_unpinned_us": ("us", "dataplane_samples"),
    "asstd.write_mib_s": ("MiB/s", "dataplane_samples"),
    "asstd.read_mib_s": ("MiB/s", "dataplane_samples"),
    "alloc.send_us": ("us", "dataplane_samples"),
    "alloc.recv_us": ("us", "dataplane_samples"),
    "alloc.bytes_per_req": ("bytes", "dataplane_samples"),
    "mpk.enters_per_req": ("count", "dataplane_samples"),
    "mpk.pkru_switches_per_req": ("count", "dataplane_samples"),
}


def probe_live_wfd_limit():
    code, parsed, err = run_child([BINARY, "--probe", "live-wfd-limit"],
                                  PROBE_TIMEOUT_S)
    if parsed is None:
        raise RuntimeError("live-wfd-limit probe failed (exit %s): %s"
                           % (code, err.strip()))
    return parsed


def probe_concurrent_dataflow(seed):
    code, parsed, err = run_child(
        [BINARY, "--probe", "concurrent-dataflow", "--seed", str(seed),
         "--seconds", str(CRASH_PROBE_SECONDS)], PROBE_TIMEOUT_S)
    if code is None:
        return 1, "did not finish; " + err
    if code < 0:
        return 1, "killed by %s" % signal.Signals(-code).name
    if parsed is None:
        raise RuntimeError("concurrent-dataflow probe failed (exit %s): %s"
                           % (code, err.strip()))
    return 0, "survived: %d requests, %d failed" % (parsed["completed"],
                                                    parsed["failed"])


def load_spans(paths):
    spans = []
    for path in paths:
        with open(path) as f:
            for event in json.load(f)["traceEvents"]:
                a = event["args"]
                spans.append({
                    "name": event["name"], "start": event["ts"],
                    "dur": event["dur"],
                    # ids are unique within one process only
                    "id": (path, a["id"]),
                    "parent": (path, a["parent"]) if a["parent"] else None,
                })
    return spans


def span_table(spans, report):
    selfs = stats.self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append((s["dur"], selfs[s["id"]]))
    report.append("spans (benchmark code only): name, count, p50 duration, "
                  "p50 self time (duration minus child spans), in us")
    for name in sorted(by_name):
        rows = by_name[name]
        durs = sorted(r[0] for r in rows)
        own = sorted(r[1] for r in rows)
        report.append("  %-28s %8d %12.3f %12.3f" % (
            name, len(rows), durs[len(durs) // 2], own[len(own) // 2]))


def per_layer(args, loads, layers, report):
    values = {}
    spreads = {}
    counts = {}
    for name, (_, sample_key) in ACROSS.items():
        reported = [l["layers"][name] for l in layers if name in l["layers"]]
        values[name], spreads[name] = stats.across_launches(reported)
        counts[name] = (sum(l["layers"].get(sample_key, 0) for l in layers)
                        if sample_key else len(reported))
    margins = stats.marginals({k: values[k] for k in LADDER})
    values.update(margins)

    base = [l["load"] for l in loads]
    traced = [l["traced_load"] for l in loads]
    edge, edge_spread = stats.across_launches(
        [p["edge_overhead_us"] for p in base])
    values["edge.overhead_us"], spreads["edge.overhead_us"] = edge, edge_spread
    counts["edge.overhead_us"] = sum(p["correct"] for p in base)

    hits = sum(p["pool_hits"] for p in base)
    misses = sum(p["pool_misses"] for p in base)
    clones = sum(p["snapshot_clones"] for p in base)
    leases = hits + misses
    values["visor.pool_hit_ratio"] = hits / leases if leases else 0.0
    values["visor.clone_ratio"] = clones / leases if leases else 0.0

    correct = sum(p["correct"] for p in base)
    values["proc.cpu_us_per_req"] = sum(p["cpu_us"] for p in base) / correct
    values["proc.ctx_switches_per_req"] = (
        sum(p["voluntary_switches"] for p in base) / correct)

    limit = probe_live_wfd_limit()
    crash, crash_note = probe_concurrent_dataflow(args.seed)
    values["mpk.live_wfd_limit"] = limit["live_wfd_limit"]
    values["mpk.concurrent_dataflow_crash"] = crash

    untraced_us = [v / 1e3 for p in base for v in read_samples(p["lat_file"])]
    traced_us = [v / 1e3 for p in traced for v in read_samples(p["lat_file"])]
    p50_off = stats.percentile(untraced_us, 0.5)
    p50_on = stats.percentile(traced_us, 0.5)
    values["trace.overhead_pct"] = (
        (p50_on - p50_off) / p50_off * 100 if p50_off and p50_on else 0.0)
    rps_off = stats.rate(correct, sum(p["window_s"] for p in base))
    rps_on = stats.rate(sum(p["correct"] for p in traced),
                        sum(p["window_s"] for p in traced))

    units = {name: unit for name, (unit, _) in ACROSS.items()}
    units.update({k: "us" for k in margins})
    units.update({"edge.overhead_us": "us",
                  "visor.pool_hit_ratio": "ratio",
                  "visor.clone_ratio": "ratio",
                  "proc.cpu_us_per_req": "us",
                  "proc.ctx_switches_per_req": "count",
                  "mpk.live_wfd_limit": "count",
                  "mpk.concurrent_dataflow_crash": "count",
                  "trace.overhead_pct": "%"})

    report.append("ladder (%s request, each rung alone; median over %d "
                  "launches, spread = max - min of launch medians)"
                  % (args.workload, LAYER_LAUNCHES))
    for name in LADDER:
        report.append("  %-28s %12.3f us  spread %10.3f  samples=%d" % (
            name, values[name], spreads[name], counts[name]))
    for name in margins:
        report.append("  %-28s %12.3f us" % (name, values[name]))
    total = stats.ladder_sum({k: values[k] for k in LADDER}, margins)
    spread_sum = sum(spreads[k] for k in LADDER)
    report.append("  marginals + bottom rung = %.3f us vs http.roundtrip_us "
                  "%.3f us (|diff| %.3f <= summed spread %.3f: %s)" % (
                      total, values["http.roundtrip_us"],
                      abs(total - values["http.roundtrip_us"]), spread_sum,
                      abs(total - values["http.roundtrip_us"]) <= spread_sum))
    report.append("  %-28s %12.3f us  spread %10.3f  samples=%d" % (
        "edge.overhead_us", edge, edge_spread, counts["edge.overhead_us"]))
    report.append("miss path, data plane, mpk")
    for name in ACROSS:
        if name in LADDER:
            continue
        report.append("  %-28s %14.4f %-6s spread %10.4f  samples=%d" % (
            name, values[name], units[name], spreads[name], counts[name]))
    report.append("pool (deltas of /metrics over the untraced load): "
                  "hit ratio %.4f, clone ratio %.4f, base %d leases "
                  "(%d hits, %d misses, %d clones)" % (
                      values["visor.pool_hit_ratio"],
                      values["visor.clone_ratio"], leases, hits, misses,
                      clones))
    report.append("process (untraced load, whole process incl. clients): "
                  "%.2f us CPU/req, %.3f voluntary switches/req over %d "
                  "requests" % (values["proc.cpu_us_per_req"],
                                values["proc.ctx_switches_per_req"], correct))
    report.append("known defects (child processes): live WFD limit %d (%s); "
                  "concurrent dataflow crash %d (%s)" % (
                      limit["live_wfd_limit"], limit["error"] or "no error",
                      crash, crash_note))
    report.append("tracing overhead: p50 %.3f us traced vs %.3f us untraced "
                  "(%+.2f%%); %.1f vs %.1f rps" % (
                      p50_on or 0, p50_off or 0,
                      values["trace.overhead_pct"], rps_on, rps_off))
    span_table(load_spans([l["spans_file"] for l in loads + layers]), report)
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


# ------------------------------------------------------------------ main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    per_launch = args.seconds / LAUNCHES
    try:
        loads = [launch(args, "load", i, per_launch, traced_first=i % 2 == 1)
                 for i in range(LAUNCHES)]
        layers = []
        if args.trace:
            for i in range(LAYER_LAUNCHES):
                layers.append(launch(args, "ladder", i, per_launch))
                layers.append(launch(args, "dataplane", i, per_launch))
    except RuntimeError as error:
        log(str(error))
        return 1

    first = loads[0]
    report = [
        "perfbench serving benchmark",
        "  workload=%s seed=%d seconds=%g trace=%d launches=%d" % (
            args.workload, args.seed, args.seconds, args.trace, LAUNCHES),
        "  git=%s source=%s build=%s" % (git_sha(), source_digest(),
                                         build_type()),
        "  nproc=%d cpu=%s" % (os.cpu_count() or 0, cpu_model()),
        "  shards=%d mpk_backend=%s (PkeyRuntime::DefaultBackend())" % (
            first["shards"], first["mpk_backend"]),
    ]
    totals = stats.account(loads + layers)
    report.append("  requests: %d attempted, %d failed (non-200 or wrong "
                  "result), %d correct" % (
                      totals["attempted"], totals["failed"],
                      totals["correct"]))
    for part in loads:
        if part["load"]["first_error"]:
            report.append("  first error: " + part["load"]["first_error"])

    if args.trace:
        metrics = per_layer(args, loads, layers, report)
    else:
        metrics = end_to_end(args, loads, report)
    for line in report:
        print(line)
    result = {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
