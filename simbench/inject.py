#!/usr/bin/env python3
"""Cost-injection check: does the benchmark measure?

Installs a fixed busy-wait on one of three library hooks that the
benchmark's workloads leave unset, through the outside-in driver
(simbench_driver --hook), and compares hooked cells with unhooked cells
of the same seed, interleaved and one at a time:

  event    EventQueue::setAfterDispatch   once per dispatched event
  request  IoScheduler::setCompletionTap  once per completed request
  reward   FleetIoController::setRewardHook  once per agent per window,
           returning the reward unchanged (fleetio-mix4 only)

For each hook and workload it shows that the host time behind cell_s
(the whole cell) and behind measure_kreq_per_s (the measure phase)
grows by about calls x injected cost where the hook runs, does not move
beyond the metric's bound where it never runs, and that the simulated
outcome digest is unchanged. It reports each workload's sim share: how
much longer the measure phase behind measure_kreq_per_s takes per 100 ns
added to every event, against the layer table's prediction for the sim
layer. It also gives the smallest
per-event cost that the cell_s and measure_kreq_per_s bounds in
BENCHMARK.json flag, and injects it to confirm, raising it until a bound
is crossed. Run on demand:

    python3 simbench/inject.py --seed 1
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

DEFAULT_NS = {"event": 500, "request": 3000, "reward": 500000}
REPS = 7
# Confirming the flagged cost: raise the spin by this factor per step
# until a bound is crossed, for at most this many steps.
FLAG_STEP = 1.5
FLAG_STEPS = 6
# The layer table's prediction for the sim layer's share of
# measure_kreq_per_s: largest on the first workload, smallest on the second.
SIM_PREDICTED = ("swiso-mix8-obs", "hwiso-gc-writes")
# Each checked metric: the record's hook call count and host seconds
# behind it, and its change as a percentage for a host-time change.
METRICS = {
    "cell_s": ("hook_calls", "cell_s",
               lambda base, delta: 100.0 * delta / base),
    "measure_kreq_per_s": ("measure_hook_calls", "measure_s",
                           lambda base, delta: 100.0 * (base / (base + delta) - 1.0)),
}


def driver_job(workload, seed, hook=None, ns=0):
    argv = [str(bench.BUILD / "simbench_driver"), workload, str(seed)]
    if hook:
        argv += ["--hook", hook, "--hook-ns", str(ns)]
    return {"kind": hook or "base", "seed": seed, "argv": argv, "ns": ns}


def worse_than_bound(change_pct, metric, bounds):
    """Does a change of the metric cross its bound in the worse direction?"""
    worse = change_pct if metric == "cell_s" else -change_pct
    return worse >= 100.0 * bounds[metric]


def check_workload(workload, seed, costs, bounds):
    s0 = bench.cell_seeds(seed)[0]
    jobs = [driver_job(workload, s0)]
    for hook, ns in costs.items():
        jobs.append(driver_job(workload, s0, hook, ns))
    # One cell at a time: a busy-waiting cell would slow the cells
    # sharing its core's execution units and blur the comparison.
    results = bench.run_cells(jobs * REPS, lambda k: None, 0.0, concurrency=1)
    failures = [r for r in results if r["record"] is None]
    if failures:
        return {"error": "; ".join(r["error"] for r in failures)}, False

    # Results come back in job order; each rep is one base cell followed
    # by one cell per hook, so each hooked cell pairs with the base cell
    # run just before it, which cancels the machine's slow drift.
    n = len(jobs)
    reps = [[r["record"] for r in results[i:i + n]] for i in range(0, len(results), n)]
    base = [rep[0] for rep in reps]
    digest = base[0]["digest"]
    out = {"workload": workload, "seed": s0, "base": {}, "hooks": {}}
    for metric, (_, secs, _) in METRICS.items():
        vals = [r[secs] for r in base]
        q1, q3 = bench.quartiles(vals)
        out["base"][metric] = {"s": statistics.median(vals),
                               "spread": (q3 - q1) / statistics.median(vals)}
    ok = all(r["digest"] == digest for r in base)
    for j, (hook, ns) in enumerate(costs.items(), start=1):
        recs = [rep[j] for rep in reps]
        cost_ns = statistics.median(r["hook_cost_ns"] for r in recs)
        h = {"ns": ns, "cost_ns": cost_ns,
             "digest_same": all(r["digest"] == digest for r in recs)}
        passed = h["digest_same"]
        for metric, (calls_key, secs, change) in METRICS.items():
            base_s = out["base"][metric]["s"]
            calls = statistics.median(r[calls_key] for r in recs)
            delta = statistics.median(rep[j][secs] - rep[0][secs] for rep in reps)
            predicted = calls * cost_ns * 1e-9
            m = {"calls": calls, "delta_s": delta, "predicted_s": predicted,
                 "change_pct": change(base_s, delta),
                 "predicted_pct": change(base_s, predicted)}
            if calls > 0:
                m["pass"] = 0.5 <= delta / predicted <= 1.5
            else:  # the hook never runs: the benchmark must not flag a change
                m["pass"] = abs(m["change_pct"]) < 100.0 * bounds[metric]
            passed &= m["pass"]
            h[metric] = m
        h["pass"] = passed
        ok &= passed
        out["hooks"][hook] = h
    return out, ok


def flag_event_ns(out, bounds):
    """Smallest per-event cost that the cell_s or the measure_kreq_per_s
    bound flags, from the event hook's call counts: cell_s grows by
    bound x cell_s; measure_kreq_per_s falls by its bound when the
    measure phase grows by 1 / (1 - bound) - 1 of itself."""
    ev = out["hooks"]["event"]
    by_cell = bounds["cell_s"] * out["base"]["cell_s"]["s"] / ev["cell_s"]["calls"]
    b = bounds["measure_kreq_per_s"]
    by_measure = ((1.0 / (1.0 - b) - 1.0) * out["base"]["measure_kreq_per_s"]["s"]
                  / ev["measure_kreq_per_s"]["calls"])
    return min(by_cell, by_measure) * 1e9


def confirm_flag(workload, seed, out, bounds):
    """Inject the flagged per-event cost; raise it by FLAG_STEP until a
    bound is crossed. Returns the last confirmation (with "error" when
    cells failed) and whether it crossed a bound."""
    event = out["hooks"]["event"]
    # The spin's clock reads add a fixed overhead to its argument, so
    # subtract the one just measured.
    spin_ns = max(1, round(flag_event_ns(out, bounds) - (event["cost_ns"] - event["ns"])))
    for step in range(FLAG_STEPS):
        confirm, _ = check_workload(workload, seed, {"event": spin_ns}, bounds)
        if "error" in confirm:
            return confirm, False
        h = confirm["hooks"]["event"]
        confirm["steps"] = step + 1
        if any(worse_than_bound(h[m]["change_pct"], m, bounds) for m in METRICS):
            return confirm, True
        spin_ns = round(spin_ns * FLAG_STEP)
    return confirm, False


def print_workload(out, confirm, crossed, bounds):
    base = out["base"]
    print("\n%s (seed %d): base cell_s %.4f s (spread %.1f %%), measure phase %.4f s "
          "(spread %.1f %%)" % (out["workload"], out["seed"], base["cell_s"]["s"],
                                100 * base["cell_s"]["spread"],
                                base["measure_kreq_per_s"]["s"],
                                100 * base["measure_kreq_per_s"]["spread"]))
    print("  %-8s %8s %9s  %-20s %10s %10s %11s %8s %8s  %-6s %s" % (
        "hook", "spin_ns", "cost_ns", "metric", "calls", "measured_s", "predicted_s",
        "change%", "pred%", "digest", "verdict"))
    for hook, h in out["hooks"].items():
        for k, metric in enumerate(METRICS):
            m = h[metric]
            print("  %-8s %8s %9s  %-20s %10d %10.4f %11.4f %8.2f %8.2f  %-6s %s" % (
                hook if k == 0 else "", h["ns"] if k == 0 else "",
                "%.1f" % h["cost_ns"] if k == 0 else "", metric, m["calls"], m["delta_s"],
                m["predicted_s"], m["change_pct"], m["predicted_pct"],
                ("same" if h["digest_same"] else "DIFFERS") if k == 0 else "",
                "ok" if m["pass"] else "FAIL"))
    flagged = confirm["hooks"]["event"]
    print("  smallest per-event cost the bounds (cell_s %.0f %%, measure_kreq_per_s %.0f %%) "
          "flag, from the counts: %.1f ns" % (100 * bounds["cell_s"],
                                              100 * bounds["measure_kreq_per_s"],
                                              flag_event_ns(out, bounds)))
    print("  confirmed: a %d ns spin (%.1f ns with its clock reads), after %d step(s), moved "
          "cell_s by %+.1f %% and measure_kreq_per_s by %+.1f %%: %s" % (
              flagged["ns"], flagged["cost_ns"], confirm["steps"],
              flagged["cell_s"]["change_pct"], flagged["measure_kreq_per_s"]["change_pct"],
              "flagged" if crossed else "NOT FLAGGED"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    bench.build()
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if m["name"] in METRICS}

    all_ok, shares = True, {}
    for w in bench.WORKLOADS:
        out, ok = check_workload(w, args.seed, DEFAULT_NS, bounds)
        if "error" in out:
            print("%s: cells failed: %s" % (w, out["error"]))
            all_ok = False
            continue
        confirm, crossed = confirm_flag(w, args.seed, out, bounds)
        if "error" in confirm:
            print("%s: cells failed: %s" % (w, confirm["error"]))
            all_ok = False
            continue
        all_ok &= ok and crossed
        print_workload(out, confirm, crossed, bounds)
        # How much longer the measure phase takes per 100 ns added to
        # every event: linear in the cost, unlike the metric's fall.
        event = out["hooks"]["event"]["measure_kreq_per_s"]
        base_s = out["base"]["measure_kreq_per_s"]["s"]
        per_100ns = 100.0 * 100.0 / out["hooks"]["event"]["cost_ns"] / base_s
        shares[w] = (per_100ns * event["delta_s"], per_100ns * event["predicted_s"])

    # The sim layer's share of measure_kreq_per_s on each workload. This
    # tests the program, not the benchmark, so it is reported and does
    # not enter the verdict.
    if len(shares) == len(bench.WORKLOADS):
        order = sorted(shares, key=lambda w: shares[w][0], reverse=True)
        print("\nsim share: each 100 ns per event lengthens the measure phase by %s" % (
            ", ".join("%.1f %% on %s (%.1f %% from the counts)" % (shares[w][0], w, shares[w][1])
                      for w in order)))
        holds = (order[0], order[-1]) == SIM_PREDICTED
        print("layer table: largest on %s, smallest on %s: %s" % (
            SIM_PREDICTED[0], SIM_PREDICTED[1],
            "holds" if holds else "does not hold (observed %s)" % " > ".join(order)))
    print("\ncost injection: %s" % ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
