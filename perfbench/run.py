#!/usr/bin/env python3
"""The repository benchmark: one command per workload, every answer checked.

    python3 perfbench/run.py --workload hot_whatif|slide_1m|offline_m64|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds the cdpd library, advisor_server
and the benchmark driver from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build), runs the driver, and prints a
run header, a metric table and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"), measured with tracing off; with --trace 1 they are the
per-layer ones, from a traced in-process replay of the same inputs.
perfbench/README.md maps each layer metric to the end-to-end metric and
workload it should move.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("hot_whatif", "slide_1m", "offline_m64")
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
STEAL_FLAG_PCT = 2.0  # Quiet hosts measure well under 1%.


class RunFailed(Exception):
    """The run cannot produce a trustworthy result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the driver and advisor_server."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
                    "--target", "perfbench_driver", "advisor_server"])
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "advisor_server"))


def run_build_step(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S, check=False)
    if result.returncode != 0:
        raise RunFailed("build step failed: %s" % " ".join(command))


# --------------------------------------------------------------------------
# Run header


def cache_value(key):
    path = os.path.join(build_dir(), "CMakeCache.txt")
    with open(path, encoding="utf-8") as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def compiler_version():
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=30, check=False).stdout
        return out.splitlines()[0] if out else compiler
    except OSError:
        return compiler


def git_head():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30,
                                check=False)
    except OSError:
        return "unknown (git unavailable)"
    if result.returncode != 0:
        return "unknown (not a git checkout)"
    return result.stdout.strip()


def print_header(workload, seed, shape, steal_pct):
    print("== perfbench %s ==" % workload)
    print("nproc        %s" % shape.get("nproc", "?"))
    print("cpu          %s" % shape.get("cpu_model", "?"))
    print("compiler     %s" % compiler_version())
    print("build type   %s" % cache_value("CMAKE_BUILD_TYPE"))
    print("git HEAD     %s" % git_head())
    print("seed         %s" % seed)
    print("host steal   %.1f%% of CPU time during the run" % steal_pct)
    skip = ("nproc", "cpu_model")
    print("shape        %s" % ", ".join(
        "%s=%s" % (k, v) for k, v in sorted(shape.items()) if k not in skip))


# --------------------------------------------------------------------------
# Metrics


def pct(series, name, p):
    """Nearest-rank percentile of a driver series; fails the run if unpublishable."""
    values = series.get(name) or []
    try:
        value, n, _ = stats.percentile(values, p)
    except stats.NotPublishable as err:
        raise RunFailed("cannot publish p%s of %s: %s" % (p, name, err)) from err
    return value, n


def p50(series, name):
    return pct(series, name, 50)[0]


def issue_metrics(workload, d):
    """The thirteen user-facing metrics that apply to this workload.

    Rows of (name, unit, value, samples).
    """
    series, scalars = d["series"], d["scalars"]
    attempted = max(d["attempted"], 1)
    rows = [("setup_s", "s", stats.median(series["setup_s"]),
             len(series["setup_s"]))]
    if workload != "offline_m64":
        rows.append(("requests_per_s", "1/s",
                     scalars["requests"] / scalars["wall_s"],
                     int(scalars["requests"])))
    rows.append(("error_rate", "fraction", d["failed"] / attempted, attempted))
    if workload == "hot_whatif":
        rows.append(("ping_p50_us", "us") + pct(series, "ping_us", 50))
    if workload != "offline_m64":
        rows.append(("whatif_p50_us", "us") + pct(series, "whatif_us", 50))
        rows.append(("whatif_p99_us", "us") + pct(series, "whatif_us", 99))
        rows.append(("recommend_p50_us", "us") + pct(series, "recommend_us", 50))
    if workload == "slide_1m":
        rows.append(("recommend_p90_us", "us") + pct(series, "recommend_us", 90))
        rows.append(("ingest_p50_us", "us") + pct(series, "ingest_us", 50))
        rows.append(("ingest_p90_us", "us") + pct(series, "ingest_us", 90))
    if workload == "offline_m64":
        value, n = pct(series, "iteration_us", 50)
        rows.append(("offline_p50_ms", "ms", value / 1e3, n))
        first = series["first_iteration_us"]
        rows.append(("offline_first_ms", "ms", stats.median(first) / 1e3,
                     len(first)))
    rows.append(("peak_rss_mb", "MiB", scalars["peak_rss_mb"], 1))
    return rows


def end_to_end(workload, d):
    """The BENCHMARK.json end-to-end metrics: one definition per workload.

    p50_us and tail_us follow each workload's primary operation; see
    perfbench/README.md.
    """
    series, scalars = d["series"], d["scalars"]
    if workload == "hot_whatif":
        primary = p50(series, "whatif_us")
        tail = pct(series, "whatif_us", 90)[0]
    elif workload == "slide_1m":
        primary = p50(series, "ingest_us")
        tail = pct(series, "ingest_us", 90)[0]
    else:
        primary = p50(series, "iteration_us")
        tail = pct(series, "iteration_us", 75)[0]
    return {
        "setup_s": stats.median(series["setup_s"]),
        "requests_per_s": scalars["requests"] / scalars["wall_s"],
        "p50_us": primary,
        "tail_us": tail,
        "recommend_p50_us": p50(series, "recommend_us"),
        "peak_rss_mb": scalars["peak_rss_mb"],
    }


def layer_p50(series, name):
    """(p50, n) of a replay series, or (0, 0) where the layer is idle."""
    return pct(series, name, 50) if series.get(name) else (0.0, 0)


# Per-layer metrics that are the p50 of one replay series.
LAYER_SERIES = {
    "service.handle_whatif_us": "layer.handle_whatif_us",
    "service.handle_recommend_us": "layer.handle_recommend_us",
    "service.handle_ingest_us": "layer.handle_ingest_us",
    "service.ingest_sql_us": "layer.ingest_sql_us",
    "service.ingest_locked_us": "layer.ingest_locked_us",
    "service.recommend_now_us": "layer.recommend_now_us",
    "service.encode_recommend_us": "layer.encode_recommend_us",
    "whatif.engine_build_us": "layer.engine_build_us",
    "whatif.config_cost_us": "layer.config_cost_us",
    "whatif.precompute_us": "layer.precompute_us",
    "whatif.costings_per_solve": "layer.costings_per_solve",
    "cost_cache.hit_rate": "layer.cache_hit_rate",
    "cost_cache.probes": "layer.cache_probes",
    "solver.solve_us": "layer.solve_us",
    "solver.dp_us": "layer.dp_us",
    "solver.dp_kernel_us": "layer.dp_kernel_us",
    "solver.relaxations": "layer.relaxations",
    "solver.dp_cells_per_s": "layer.dp_cells_per_s",
    "solver.segment_chunks": "layer.segment_chunks",
    "solver.peak_table_bytes": "layer.peak_table_bytes",
    "validator.validate_us": "layer.validate_us",
}


def per_layer(workload, d):
    """The per-layer metrics as name -> (value, samples); 0 where idle."""
    s, sc = d["series"], d["scalars"]
    m = {name: layer_p50(s, series) for name, series in LAYER_SERIES.items()}
    if workload == "offline_m64":
        m["transport.overhead_us"] = (0.0, 0)
        m["transport.server_cpu_us_per_req"] = (0.0, 0)
    else:
        # Round trip from send: slide_1m's whatif_us counts from due.
        client, n = pct(s, "whatif_rtt_us" if s.get("whatif_rtt_us")
                        else "whatif_us", 50)
        m["transport.overhead_us"] = (
            client - m["service.handle_whatif_us"][0], n)
        m["transport.server_cpu_us_per_req"] = (
            sc["server_cpu_s"] * 1e6 / sc["requests"], int(sc["requests"]))
    overlap = s.get("whatif_overlap_us") or []
    m["service.whatif_overlap_p90_us"] = (
        pct(s, "whatif_overlap_us", 90) if overlap else (0.0, 0))
    m["service.whatif_overlaps"] = (float(len(overlap)), len(overlap))
    read, n = layer_p50(s, "layer.read_trace_us")
    m["sql.read_trace_us_per_kstmt"] = (
        read / sc["layer.read_trace_kstmt"] if n else 0.0, n)
    late = s.get("ingest_late_us") or []
    m["loadgen.ingest_late_p90_us"] = (
        pct(s, "ingest_late_us", 90) if late else (0.0, 0))
    m["trace.replay_wall_s"] = (sc["trace.replay_wall_s"], 1)
    m["trace.untraced_wall_s"] = (sc["trace.untraced_wall_s"], 1)
    return m


def declared(kind):
    """name -> unit of the BENCHMARK.json metrics of `kind`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def with_units(kind, values):
    """values (name -> value) as the result line's metrics, checked
    against the names BENCHMARK.json declares."""
    units = declared(kind)
    if set(units) != set(values):
        raise RunFailed("metrics %s do not match BENCHMARK.json %s" % (
            sorted(values), sorted(units)))
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def print_rows(title, rows):
    print(title)
    for name, unit, value, n in rows:
        count = "" if n is None else "(n=%s)" % n
        print("  %-34s %16.4f %-9s %s" % (name, value, unit, count))


def print_span_table(d):
    spans = sorted(d["spans"], key=lambda r: -r["self_us"])
    wall_us = d["scalars"]["trace.replay_wall_s"] * 1e6
    print("per-layer spans of the traced replay (self = total minus child spans;"
          " share base = replay wall %.3f s; solver:* rows are the solver's own"
          " Tracer spans, across its worker threads)" % (wall_us / 1e6))
    print("  %-34s %8s %12s %12s %7s" % ("span", "count", "total ms",
                                         "self ms", "self %"))
    for row in spans:
        print("  %-34s %8d %12.3f %12.3f %6.1f%%" % (
            row["name"], row["count"], row["total_us"] / 1e3,
            row["self_us"] / 1e3, 100.0 * row["self_us"] / wall_us))


def print_checks(workload, d, layers):
    sc = d["scalars"]
    print("tracing and transport overhead: traced replay %.3f s for %d units,"
          " untraced run %.3f s for %d units" % (
              sc["trace.replay_wall_s"], sc["trace.replay_units"],
              sc["trace.untraced_wall_s"], sc["trace.untraced_units"]))
    if workload != "slide_1m":
        return
    value = lambda name: layers[name][0]  # noqa: E731
    parts = value("sql.read_trace_us_per_kstmt") * sc["layer.read_trace_kstmt"]
    parts += value("service.ingest_locked_us")
    print("accounting: read_trace + ingest_locked = %.1f us of IngestSql p50"
          " %.1f us (%.1f%%)" % (parts, value("service.ingest_sql_us"),
                                  100.0 * parts / value("service.ingest_sql_us")))
    parts = (value("whatif.precompute_us") + value("solver.dp_us") +
             value("validator.validate_us") + value("service.encode_recommend_us"))
    print("accounting: precompute + dp + validate + encode = %.1f us of"
          " RecommendNow p50 %.1f us (%.1f%%)" % (
              parts, value("service.recommend_now_us"),
              100.0 * parts / value("service.recommend_now_us")))


def loadgen_flag(d):
    """A warning when the open-loop generator fell behind its schedule."""
    late = d["series"].get("ingest_late_us") or []
    if not late:
        return None
    late_p90 = pct(d["series"], "ingest_late_us", 90)[0]
    period = d["scalars"]["tick_period_us"]
    if late_p90 > 0.1 * period:
        return ("FLAG: load generator fell behind its schedule: ticks sent"
                " p90 %.0f us late against a %.0f us period" % (late_p90, period))
    return None


# --------------------------------------------------------------------------
# Driver


def run_driver(driver, server, workload, seed, seconds, trace):
    command = [driver, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--server", server]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=DRIVER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as err:
        raise RunFailed("driver timed out after %d s" % DRIVER_TIMEOUT_S) from err
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RunFailed("driver exited with code %d" % result.returncode)
    return json.loads(lines[-1])


def run_one(driver, server, workload, seed, seconds, trace):
    d = run_driver(driver, server, workload, seed, seconds, trace)
    steal = d["scalars"]["host_steal_pct"]
    print_header(workload, seed, d["shape"], steal)
    for error in d["errors"]:
        print("ERROR: %s" % error)
    flags = [loadgen_flag(d)]
    if steal > STEAL_FLAG_PCT:
        flags.append("FLAG: the hypervisor withheld %.1f%% of CPU time (steal);"
                     " timings describe a slower machine" % steal)
    for flag in filter(None, flags):
        print(flag)
        log(flag)
    if trace:
        layers = per_layer(workload, d)
        units = declared("per_layer")
        print_rows("per-layer metrics (traced replay):",
                   [(k, units.get(k, "?"), v, n)
                    for k, (v, n) in sorted(layers.items())])
        print_span_table(d)
        print_checks(workload, d, layers)
        metrics = with_units("per_layer",
                             {k: v for k, (v, _) in layers.items()})
    else:
        print_rows("end-to-end metrics:", issue_metrics(workload, d))
        metrics = with_units("end_to_end", end_to_end(workload, d))
    return {
        "correct": d["failed"] == 0,
        "attempted": d["attempted"],
        "failed": d["failed"],
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        driver, server = build()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_one(driver, server, w, args.seed, args.seconds,
                              args.trace) for w in workloads}
    except (RunFailed, OSError, KeyError, ValueError) as err:
        log("perfbench: run failed: %s" % err)
        return 1
    if args.workload == "all":
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        summary = results[args.workload]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
