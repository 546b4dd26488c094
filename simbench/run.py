#!/usr/bin/env python3
"""FleetIO simulator benchmark.

Builds the fleetio library and the two benchmark programs from this
checkout into .bench_build/ (one fixed build type), runs one workload,
checks the outputs and prints every metric with its unit and kind. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 simbench/run.py --workload fleetio-mix4 --seed 7 --seconds 35 --trace 0
    python3 simbench/run.py --workload all --seed 7

A measured run (--trace 0) evaluates a panel of cell seeds (RUN_SEEDS
drawn from --seed plus the shared REFERENCE_SEEDS), one experiment cell
per fresh single-threaded process (simbench_cell, which calls
runExperiment), workers() processes at a time, then repeats panel cells
until --seconds have passed. Host time metrics are scaled to a
reference core speed and are the mean over the run's FASTEST fastest
cells, peak_rss_mb the median over every cell;
simulated metrics are taken per tenant over the panel's seeds. A traced
run (--trace 1) runs the outside-in driver (simbench_driver --trace) on
the panel's first seed beside untraced cells of that seed and prints
the per-layer metrics. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "Release"
WORKLOADS = ("fleetio-mix4", "swiso-mix8-obs", "hwiso-gc-writes")
# A run's panel: REFERENCE_SEEDS shared by every run plus RUN_SEEDS
# drawn from --seed. FleetIO's outcome varies widely from seed to seed
# (each seed trains different agents); sharing two thirds of the inputs
# between runs, and so between the two commits a comparison runs, is
# the common-random-numbers way to compare them on the same ground.
REFERENCE_SEEDS = tuple(range(1, 25))
RUN_SEEDS = 12
MIN_REPEATS = 2
CELL_TIMEOUT_S = 150
# Host time metrics are taken at a fixed core speed, over a run's
# FASTEST fastest cells. The machine's other tenants slow a cell by
# anything from nothing to 2x, at random and by more at some times than
# at others. Each cell reads its core's speed just before and after it
# (core_ns_per_step) and its times are scaled to CORE_REF_NS_PER_STEP,
# which takes out the slowdowns that last longer than a cell; the
# fastest cells then leave out the short ones. See README.md, "Host
# metrics".
CORE_REF_NS_PER_STEP = 1.5
FASTEST = 3
# The host time metrics, each with whether higher is better.
TIMED = {"cell_s": False, "setup_s": False, "measure_kreq_per_s": True}

# The metric names and units are defined in BENCHMARK.json. Units
# with a sim_ prefix are simulated: the modelled device's outcome,
# identical for a given seed on any host. The rest are host metrics.
SPEC_FILE = ROOT / "BENCHMARK.json"


def metric_specs(section):
    """(name, unit) pairs of one BENCHMARK.json metric list."""
    return [(m["name"], m["unit"]) for m in json.loads(SPEC_FILE.read_text())[section]]


# Layers that only fleetio-mix4 exercises, and the one only
# swiso-mix8-obs exercises: their counters must be zero elsewhere.
FLEETIO_ONLY = ("rl.optimizer_steps", "core.decisions", "harvest.gsb_created")
OBS_ONLY = ("obs.trace_events",)


class BuildError(Exception):
    pass


def workers():
    """Concurrent cell processes: one per core, at most four."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def cell_seeds(seed):
    """The run's own seeds first, then the reference seeds."""
    own = [((seed + 1) * 1_000_003 + i) % 2**64 for i in range(RUN_SEEDS)]
    return own + list(REFERENCE_SEEDS)


def clean_env():
    # FLEETIO_TRACE / FLEETIO_CHECKPOINT_* would change what a cell does.
    return {k: v for k, v in os.environ.items() if not k.startswith("FLEETIO_")}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BuildError("no fleetio sources (src/CMakeLists.txt) in " + str(ROOT))
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(len(os.sched_getaffinity(0)))
    with open(log, "w") as f:
        for cmd in (
            ["cmake", "-S", str(BENCH), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            ["cmake", "--build", str(BUILD), "-j", jobs],
        ):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=clean_env()).returncode:
                raise BuildError(" ".join(cmd) + " failed; see " + str(log))


def sources_sha256():
    """Hash of the code under test: src/ and simbench/."""
    h = hashlib.sha256()
    for d in ("src", "simbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance():
    info = dict(line.split("=", 1) for line in
                (BUILD / "provenance.txt").read_text().splitlines() if "=" in line)
    try:
        info["commit"] = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["commit"] = "unknown (not a git checkout)"
    info["sources_sha256"] = sources_sha256()
    info["cpu"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info["nproc"] = str(len(os.sched_getaffinity(0)))
    info["workers"] = str(workers())
    return info


def cell_job(workload, seed, kind="plain", spans=None):
    """kind: plain (runExperiment), noobs (same, obs sinks off), traced."""
    if kind == "traced":
        argv = [str(BUILD / "simbench_driver"), workload, str(seed), "--trace"]
        if spans:
            argv += ["--spans", str(spans)]
    else:
        argv = [str(BUILD / "simbench_cell"), workload, str(seed)]
        if kind == "noobs":
            argv.append("--no-obs")
    return {"kind": kind, "seed": seed, "argv": argv}


def run_one(job):
    try:
        p = subprocess.run(job["argv"], capture_output=True, text=True,
                           timeout=CELL_TIMEOUT_S, env=clean_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return dict(job, record=None, error="timed out")
    if p.returncode != 0:
        return dict(job, record=None,
                    error="exit %d: %s" % (p.returncode, p.stderr.strip()[-300:]))
    try:
        return dict(job, record=json.loads(p.stdout.strip().splitlines()[-1]))
    except (ValueError, IndexError):
        return dict(job, record=None, error="no JSON record")


def run_cells(required, optional, deadline, concurrency=None):
    """Run every required job, then optional(k) for k = 0, 1, ... while
    a cell of median length still ends before the deadline; at most
    `concurrency` (default workers()) cells at a time."""
    concurrency = concurrency or workers()
    results, walls, pending, k = [], [], list(required), 0
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        running = {}
        while True:
            while len(running) < concurrency:
                if pending:
                    job = pending.pop(0)
                else:
                    est = statistics.median(walls) if walls else 0.0
                    if time.monotonic() + est > deadline:
                        break
                    job, k = optional(k), k + 1
                running[pool.submit(run_one, job)] = time.monotonic()
            if not running:
                return results
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for fut in done:
                walls.append(time.monotonic() - running.pop(fut))
                results.append(fut.result())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fastest_mean(values, higher=False):
    """Mean of the FASTEST best values: the lowest, or if higher the highest."""
    return statistics.mean(sorted(values, reverse=higher)[:FASTEST])


def host_values(rec):
    """Host metrics of one cell, times at the reference core speed."""
    ph = rec["phases"]
    k = CORE_REF_NS_PER_STEP / rec["core_ns_per_step"]
    return {
        "cell_s": rec["cell_s"] * k,
        "setup_s": (ph["calibrate"] + ph["build"] + ph["warmup"]) * k,
        "measure_kreq_per_s":
            sum(t["requests"] for t in rec["tenants"]) / (ph["measure"] * k) / 1e3,
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def interquartile_mean(values):
    v = sorted(values)
    cut = len(v) // 4
    return statistics.mean(v[cut:len(v) - cut])


def sim_values(recs):
    """Simulated metrics of cells of one workload (one or many seeds).
    Each tenant's figure is first taken over the cells, then LS and BI
    figures average over tenants, as the paper's do. Per tenant first,
    so that one tenant's queue collapse on some seeds (FleetIO's agents
    learn it on about a third of them, hitting one LS tenant at a time)
    does not decide a whole seed's value. Latencies take the median over
    seeds, which ignores the collapsed seeds' seconds-long tails; the
    SLO-miss share is continuous with a long tail, so it takes the
    interquartile mean, which is steadier than the median."""
    med = statistics.median
    tenants = list(zip(*(r["tenants"] for r in recs)))
    ls = [t for t in tenants if not t[0]["bi"]]
    bi = [t for t in tenants if t[0]["bi"]]
    ls_req = [med(x["requests"] for x in t) for t in ls]
    return {
        "util_avg": med(r["avg_util"] for r in recs),
        "ls_p50_ms": statistics.mean(med(x["p50_ns"] for x in t) for t in ls) / 1e6,
        "ls_p99_ms": statistics.mean(med(x["p99_ns"] for x in t) for t in ls) / 1e6,
        "ls_slo_miss_pct": 100.0 * sum(
            interquartile_mean(x["slo_violation"] for x in t) * n
            for t, n in zip(ls, ls_req)) / max(sum(ls_req), 1),
        "bi_bw_mbps": statistics.mean(med(x["bw_mbps"] for x in t) for t in bi),
        "write_amp": med(r["write_amp"] for r in recs),
        "ls_requests": sum(sum(x["requests"] for x in t) for t in ls),
    }


class Verdict:
    """Output checks; any failure makes the run incorrect."""

    def __init__(self):
        self.failures = []

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)
        return ok


def check_cells(workload, results, verdict):
    """Per-cell checks. Returns the records of the cells that passed,
    in completion order, and the count of failed cells."""
    first_digest, good, failed = {}, [], 0
    for r in results:
        rec = r["record"]
        if rec is None:
            verdict.check(False, "%s cell seed %d: %s" % (r["kind"], r["seed"], r["error"]))
            failed += 1
            continue
        ok = verdict.check(rec["min_tenant_requests"] > 0 if "min_tenant_requests" in rec
                           else min(t["requests"] for t in rec["tenants"]) > 0,
                           "seed %d: a tenant completed no request in the measure phase"
                           % r["seed"])
        if workload == "swiso-mix8-obs":
            ok &= verdict.check(rec["attr_sum_mismatches"] == 0,
                                "seed %d: attr_sum_mismatches = %d"
                                % (r["seed"], rec["attr_sum_mismatches"]))
        # Traced and obs-off cells must reproduce the outcome too: neither
        # tracing nor the obs sinks may change what the device does.
        want = first_digest.setdefault(r["seed"], rec["digest"])
        ok &= verdict.check(rec["digest"] == want,
                            "seed %d: %s digest %s differs from %s"
                            % (r["seed"], r["kind"], rec["digest"], want))
        if ok:
            good.append(r)
        else:
            failed += 1
    return good, failed


def fmt(v):
    return "%.6g" % v


def measured_run(workload, seed, seconds):
    panel = cell_seeds(seed)
    start = time.monotonic()
    required = [cell_job(workload, s) for s in panel]
    required += [cell_job(workload, panel[i]) for i in range(MIN_REPEATS)]
    results = run_cells(required,
                        lambda k: cell_job(workload, panel[(k + MIN_REPEATS) % len(panel)]),
                        start + seconds)
    verdict = Verdict()
    good, failed = check_cells(workload, results, verdict)
    recs = [r["record"] for r in good]
    by_seed = {}
    for r in good:
        by_seed.setdefault(r["seed"], r["record"])
    verdict.check(len(by_seed) == len(panel),
                  "%d of %d panel seeds have no valid cell" % (len(panel) - len(by_seed), len(panel)))

    rows, metrics = [], {}
    if recs and by_seed:
        host = [host_values(r) for r in recs]
        seeds = [by_seed[s] for s in panel if s in by_seed]
        sim = sim_values(seeds)
        per_seed = [sim_values([r]) for r in seeds]
        for name, unit in metric_specs("end_to_end"):
            kind = "simulated" if unit.startswith("sim_") else "host"
            if kind == "host":
                vals = [h[name] for h in host]
                q1, q3 = quartiles(vals)
                if name in TIMED:
                    value = fastest_mean(vals, TIMED[name])
                    basis = "mean of the %d fastest of %d cells (median %s, q1 %s, q3 %s)" % (
                        FASTEST, len(vals), fmt(statistics.median(vals)), fmt(q1), fmt(q3))
                else:
                    value = statistics.median(vals)
                    basis = "median of %d cells (q1 %s, q3 %s)" % (len(vals), fmt(q1), fmt(q3))
            else:
                value = sim[name]
                basis = "over %d seeds (one seed: q1 %s, q3 %s)" % (
                    (len(seeds),) + tuple(fmt(q) for q in
                                          quartiles([s[name] for s in per_seed])))
                if name == "ls_p99_ms":
                    basis += "; %d LS requests" % sim["ls_requests"]
            metrics[name] = {"value": value, "unit": unit}
            rows.append((name, value, unit, kind, basis))
    print("cells: %d attempted, %d failed; %d panel seeds, %d repeats; digests of "
          "repeated seeds %s" % (len(results), failed, len(by_seed), len(results) - len(panel),
                                 "agree" if not any("digest" in f for f in verdict.failures)
                                 else "DIFFER"))
    if recs:
        core = [r["core_ns_per_step"] for r in recs]
        print("core speed probe: median %s ns/step (q1 %s, q3 %s); host times are scaled "
              "to %s ns/step" % ((fmt(statistics.median(core)),)
                                 + tuple(fmt(q) for q in quartiles(core))
                                 + (fmt(CORE_REF_NS_PER_STEP),)))
    print("%-20s %14s  %-10s %-10s %s" % ("metric", "value", "unit", "kind", "basis"))
    for name, value, unit, kind, basis in rows:
        print("%-20s %14s  %-10s %-10s %s" % (name, fmt(value), unit, kind, basis))
    return verdict, len(results), failed, metrics


def gc_order_check(workload, layers, verdict):
    """GC blocks reclaimed per simulated second per vSSD must be highest
    on hwiso-gc-writes. Each traced run caches its rate in the build
    tree under the hash of the code under test; the check compares the
    workloads traced so far with the same hash."""
    cache = BUILD / "results"
    cache.mkdir(exist_ok=True)
    key = "ssd.gc_reclaimed_per_vssd_s"
    code = sources_sha256()
    (cache / ("gc-%s.json" % workload)).write_text(
        json.dumps({"sources_sha256": code, key: layers[key]}))
    rates = {}
    for w in WORKLOADS:
        p = cache / ("gc-%s.json" % w)
        if p.exists():
            entry = json.loads(p.read_text())
            if entry.get("sources_sha256") == code:
                rates[w] = entry[key]
    others = [w for w in rates if w != "hwiso-gc-writes"]
    if "hwiso-gc-writes" not in rates or not others:
        print("gc order: pending (traced so far with sources %s: %s)"
              % (code, ", ".join(sorted(rates))))
        return
    top = rates["hwiso-gc-writes"]
    ok = all(top > rates[w] for w in others)
    print("gc order: reclaimed/s/vSSD " + ", ".join(
        "%s %s" % (w, fmt(rates[w])) for w in sorted(rates)) + (" ok" if ok else " FAILED"))
    verdict.check(ok, "GC reclaim rate is not highest on hwiso-gc-writes: %s" % rates)


def traced_run(workload, seed, seconds):
    s0 = cell_seeds(seed)[0]
    (BUILD / "traces").mkdir(exist_ok=True)
    spans = BUILD / "traces" / ("%s-%d.spans.json" % (workload, s0))
    kinds = ["traced", "plain"] + (["noobs"] if workload == "swiso-mix8-obs" else [])
    required = [cell_job(workload, s0, "traced", spans)]
    required += [cell_job(workload, s0, k) for k in kinds[1:]]
    required += [cell_job(workload, s0, k) for k in kinds]
    start = time.monotonic()
    results = run_cells(required, lambda k: cell_job(workload, s0, kinds[k % len(kinds)]),
                        start + seconds)
    verdict = Verdict()
    good, failed = check_cells(workload, results, verdict)
    by_kind = {k: [r["record"] for r in good if r["kind"] == k] for k in kinds}
    if not verdict.check(all(by_kind.values()), "a cell kind has no valid cell"):
        return verdict, len(results), failed, {}

    traced = by_kind["traced"]
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    def cell_s(kind):
        return fastest_mean([r["cell_s"] for r in by_kind[kind]])

    layers["harness.trace_overhead_pct"] = 100.0 * (cell_s("traced") / cell_s("plain") - 1.0)
    layers["obs.overhead_pct"] = 100.0 * (
        cell_s("plain") / cell_s("noobs") - 1.0 if by_kind.get("noobs") else 0.0)
    per_layer = metric_specs("per_layer")
    verdict.check(sorted(layers) == sorted(n for n, _ in per_layer),
                  "driver layer metrics differ from BENCHMARK.json per_layer")
    if workload == "hwiso-gc-writes":
        verdict.check(all(r["min_window_completions"] > 0 for r in traced),
                      "a tenant completed no request in some measure window")
    for name in FLEETIO_ONLY:
        verdict.check((layers[name] > 0) == (workload == "fleetio-mix4"),
                      "%s = %s on %s" % (name, fmt(layers[name]), workload))
    for name in OBS_ONLY:
        verdict.check((layers[name] > 0) == (workload == "swiso-mix8-obs"),
                      "%s = %s on %s" % (name, fmt(layers[name]), workload))
    gc_order_check(workload, layers, verdict)

    print("cells: %d traced, %d untraced%s of seed %d; traced outcome %s the untraced "
          "digest; spans in %s" % (
              len(traced), len(by_kind["plain"]),
              ", %d obs-off" % len(by_kind["noobs"]) if "noobs" in by_kind else "",
              s0, "matches" if not any("digest" in f for f in verdict.failures)
              else "DIFFERS from", spans.relative_to(ROOT)))
    metrics = {}
    for name, unit in per_layer:
        metrics[name] = {"value": layers.get(name, 0.0), "unit": unit}
        print("%-38s %14s  %s" % (name, fmt(metrics[name]["value"]), unit))
    return verdict, len(results), failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    try:
        build()
    except (BuildError, OSError) as e:
        print("simbench: build failed: %s" % e, file=sys.stderr)
        return 2
    info = provenance()
    print("provenance: " + "  ".join("%s=%s" % kv for kv in info.items()))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        print("\n== %s  seed %d  %g s  trace %d" % (w, args.seed, args.seconds, args.trace))
        run = traced_run if args.trace else measured_run
        verdict, n, f, m = run(w, args.seed, args.seconds)
        for failure in verdict.failures:
            print("CHECK FAILED: " + failure)
        correct &= not verdict.failures
        attempted += n
        failed += f
        prefix = "" if len(workloads) == 1 else w + "/"
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
