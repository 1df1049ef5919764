#!/usr/bin/env python3
"""oociso benchmark: one workload, its metrics as one JSON line.

    python3 perfbench/run.py --workload explore-cold --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the library plus two programs) into .bench_build/perfbench; later
runs rebuild only what changed. The C++ program does the measuring (see
perfbench.cpp); this script derives the program's inputs from --seed, turns
its raw per-query samples into the named metrics and prints, as the last
line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no tracing
code in the program. With --trace 1 they are the per-layer ones, from the
traced program: half the run untraced, half traced, the two halves' median
latencies giving the tracing overhead. A line of run metadata precedes the
result. The exit code is 0 only when every output check passed.

Self-tests: python3 perfbench/test_run.py
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = BUILD_DIR / "work"

WORKLOADS = ("explore-cold", "serve-warm", "preview-progressive")
# The paper's 11-value isovalue sweep; a run queries whole sweeps of it.
ISOVALUES = tuple(range(10, 211, 20))
# Nearest-rank percentiles are reported only with this many samples beyond
# them.
MIN_BEYOND = 10
# A p90 is taken over the sweep's per-isovalue medians, each over at least
# this many repeats.
MIN_REPEATS = 10
PROGRAM_TIMEOUT_S = 170

# name -> unit. Must match BENCHMARK.json (test_run.py checks it).
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "throughput_qps": "1/s",
    "mtri_per_s": "MTri/s",
    "first_surface_p50_ms": "ms",
    "first_surface_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
# Per query (summed over the node threads) unless the unit says otherwise.
PER_LAYER = {
    "data.generate_s": "s",
    "data.voxels_per_s": "vox/s",
    "preprocess.s": "s",
    "preprocess.bytes_written": "B",
    "index.plan_us": "us",
    "index.schedule_us": "us",
    "index.records_planned": "count",
    "index.reads_scheduled": "count",
    "index.fetch_overshoot": "ratio",
    "io.read_s": "s",
    "io.read_ops": "count",
    "io.bytes_read": "B",
    "io.seeks": "count",
    "io.retries": "count",
    "io.mib_per_s": "MiB/s",
    "io.resident_after_evict": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.misses": "count",
    "cache.waits": "count",
    "cache.evictions": "count",
    "metacell.decode_s": "s",
    "extract.s": "s",
    "extract.mesh_crc_s": "s",
    "extract.cells_classified": "count",
    "extract.active_cells": "count",
    "extract.active_ratio": "ratio",
    "extract.triangles": "count",
    "extract.mcells_per_s": "Mcell/s",
    "render.s": "s",
    "render.fragments_tested": "count",
    "render.fragments_written": "count",
    "render.write_ratio": "ratio",
    "composite.s": "s",
    "composite.bytes": "B",
    "composite.rounds": "count",
    "serve.admission_wait_ms": "ms",
    "serve.peak_in_flight": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "failed_fraction": "ratio",
}


class NotEnoughSamples(ValueError):
    pass


def percentile(latencies, q, failures=0):
    """Nearest-rank q-quantile of `latencies`.

    Each of `failures` failed queries counts as slower than any limit
    (infinity). Raises NotEnoughSamples unless at least MIN_BEYOND samples
    lie beyond the chosen rank.
    """
    values = sorted(latencies) + [math.inf] * failures
    rank = max(1, math.ceil(q * len(values)))
    if len(values) - rank < MIN_BEYOND:
        raise NotEnoughSamples(
            f"p{round(q * 100)} of {len(values)} samples has fewer than "
            f"{MIN_BEYOND} beyond it")
    return values[rank - 1]


def sweep_percentile(queries, value, q):
    """Nearest-rank q-quantile, over the sweep's isovalues, of each
    isovalue's median `value(query)`.

    A failed query's value counts as infinite. The median over an isovalue's
    repeats is its typical cost: host stalls that hit fewer than half of its
    repeats leave it alone, where they set a pooled p90 on a shared host. The
    quantile over the sweep keeps the tail that the data makes (some
    isovalues cost several times others). Raises NotEnoughSamples unless
    every isovalue has at least MIN_REPEATS repeats.
    """
    repeats = {}
    for query in queries:
        repeats.setdefault(query[0], []).append(value(query) if query[3] else math.inf)
    if not repeats or min(map(len, repeats.values())) < MIN_REPEATS:
        raise NotEnoughSamples(
            f"an isovalue has fewer than {MIN_REPEATS} repeats")
    medians = sorted(statistics.median(v) for v in repeats.values())
    return medians[max(1, math.ceil(q * len(medians))) - 1]


def window_rates(queries, windows):
    """Median over `windows` equal slices of the busy time (wall time with a
    query in flight) of the successful queries and of their triangles
    completed per second.

    A query counts in a slice in proportion to its time inside it. The
    median keeps a slow spell of the host that covers fewer than half the
    slices out of the rate.
    """
    # Busy-time position of each query: its wall time (from the phase's
    # start) less the idle gaps before it. Sorted by start, a query starting
    # past the busy stretch so far opens a new one.
    placed = []
    idle = 0.0
    reach = 0.0
    for _, begin, end, good, triangles, _ in sorted(queries, key=lambda q: q[1]):
        if begin > reach:
            idle += begin - reach
        reach = max(reach, end)
        if good:
            placed.append((begin - idle, end - idle, triangles))
    slice_ms = (reach - idle) / windows
    done = [0.0] * windows
    tris = [0.0] * windows
    for begin, end, triangles in placed:
        first = min(int(begin // slice_ms), windows - 1)
        last = min(int(end // slice_ms), windows - 1)
        for k in range(first, last + 1):
            inside = min(end, (k + 1) * slice_ms) - max(begin, k * slice_ms)
            share = inside / (end - begin) if end > begin else 1.0
            done[k] += share
            tris[k] += share * triangles
    per_s = 1000.0 / slice_ms
    return (statistics.median(done) * per_s, statistics.median(tris) * per_s)


def make_inputs(seed, sweeps):
    """Volume generator seed and isovalue sequence for a workload seed.

    The sequence is `sweeps` shuffled copies of ISOVALUES back to back.
    """
    rng = random.Random(f"oociso-perfbench/{seed}")
    volume_seed = rng.getrandbits(32)
    sequence = []
    for _ in range(sweeps):
        sweep = list(ISOVALUES)
        rng.shuffle(sweep)
        sequence += sweep
    return volume_seed, sequence


def sweeps_for(seconds):
    """Sweeps enough for any run: 200 queries a second, above every
    workload's measured rate, plus 20 sweeps for the program's minimum of 10
    per measured phase."""
    return math.ceil(seconds * 200 / len(ISOVALUES)) + 20


def build():
    """Configures and builds both programs; output goes to stderr."""
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured from another checkout
    if not (BUILD_DIR / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench", "perfbench_traced"],
                   check=True, stdout=sys.stderr)


def run_program(workload, seed, seconds, trace):
    volume_seed, sequence = make_inputs(seed, sweeps_for(seconds))
    program = BUILD_DIR / ("perfbench_traced" if trace else "perfbench")
    cmd = [str(program), "--workload", workload,
           "--volume-seed", str(volume_seed),
           "--sequence", ",".join(map(str, sequence)),
           "--seconds", str(seconds),
           "--work", str(WORK_DIR / workload),
           "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=PROGRAM_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def latency_ms(query):
    return query[2] - query[1]


def first_surface_ms(query):
    return query[5]


def latencies(phase):
    """(latencies of the successful queries in ms, number failed)."""
    ok = [latency_ms(q) for q in phase["queries"] if q[3]]
    return ok, len(phase["queries"]) - len(ok)


def median_ms(phase):
    lat, failures = latencies(phase)
    return percentile(lat, 0.5, failures)


def end_to_end(raw):
    phase = raw["phases"][0]
    queries = phase["queries"]
    lat, failures = latencies(phase)
    # A flat query's first surface is its whole surface.
    surface = (first_surface_ms if raw["workload"] == "preview-progressive"
               else latency_ms)
    qps, tri_per_s = window_rates(queries, len(queries) // len(ISOVALUES))
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "query_p50_ms": percentile(lat, 0.5, failures),
        "query_p90_ms": sweep_percentile(queries, latency_ms, 0.9),
        "throughput_qps": qps,
        "mtri_per_s": tri_per_s / 1e6,
        "first_surface_p50_ms": percentile(
            [surface(q) for q in queries if q[3]], 0.5, failures),
        "first_surface_p90_ms": sweep_percentile(queries, surface, 0.9),
        "peak_rss_mib": raw["peak_rss_mib"],
    }


def per_layer(raw):
    untraced, traced = raw["phases"]
    generate = statistics.median(raw["generate_s"])
    pages = sum(p["evicted_pages"] for p in raw["phases"])
    resident = sum(p["resident_after_evict"] for p in raw["phases"])
    metrics = dict(traced["layers"])
    metrics.update({
        "data.generate_s": generate,
        "data.voxels_per_s": raw["voxels"] / generate,
        "preprocess.s": statistics.median(raw["preprocess_s"]),
        "preprocess.bytes_written": raw["preprocess_bytes"],
        "io.resident_after_evict": resident / pages if pages else 0.0,
        "trace.overhead": median_ms(traced) / median_ms(untraced) - 1.0,
        "failed_fraction": raw["failed"] / raw["attempted"],
    })
    return metrics


def result(raw, trace):
    units = PER_LAYER if trace else END_TO_END
    values = per_layer(raw) if trace else end_to_end(raw)
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"perfbench produced no value for {missing}")
    correct = raw["failed"] == 0 and not raw["problems"]
    return {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        # A failed query can put a percentile at infinity, which JSON lacks.
        "metrics": {name: {"value": values[name] if math.isfinite(values[name]) else None,
                           "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        build()
        raw = run_program(args.workload, args.seed, args.seconds, args.trace == 1)
        out = result(raw, args.trace == 1)
    except subprocess.CalledProcessError as error:
        print(f"perfbench: {Path(error.cmd[0]).name} exited with {error.returncode}",
              file=sys.stderr)
        return 1
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    meta = dict(raw["meta"], workload=args.workload, seed=args.seed,
                run_seconds=args.seconds, trace=args.trace,
                queries_per_run=[len(p["queries"]) for p in raw["phases"]])
    if raw["problems"]:
        print("perfbench: " + "; ".join(raw["problems"]), file=sys.stderr)
    pages = sum(p["evicted_pages"] for p in raw["phases"])
    resident = sum(p["resident_after_evict"] for p in raw["phases"])
    if pages and resident > pages // 2:
        # The cold workloads would be measuring warm reads on this host.
        print(f"perfbench: page-cache eviction ineffective here "
              f"({resident} of {pages} store pages stayed resident)", file=sys.stderr)
        meta["page_cache_eviction"] = "ineffective"
    elif pages:
        meta["page_cache_eviction"] = "effective"
    print(json.dumps({"meta": meta}))
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
