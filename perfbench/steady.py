#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one build.

    python3 perfbench/steady.py [--runs 10] [--workloads storm,policy,...]
        [--seconds S] [--seed0 N] [--traced] [--json FILE]

For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile range over median) of each set, and
whether the metric holds its bound from BENCHMARK.json: the two medians
differ by at most the bound, in either direction, and neither set
spreads past it. setup_s is held to the medians only: a run sets up a
few times in a few seconds, so its spread shows how much of the
machine's noise those seconds catch rather than a property of the
build; its spread is printed all the same.

Every run is the benchmark's command from BENCHMARK.json, run from the
repository root. Runs of the two sets alternate (A, B, A, B, ...) with
a fresh seed each, so a slow stretch of the machine lands in both sets.

Each run also reports a reference kernel (a fixed CPU loop timed right
before and after its timed phase). The "kern" column gives the spread
once each run's figure is put in kernel units (times divided by the
run's mean kernel time, rates multiplied by it): what is left when the
machine's speed, as the kernel saw it, is taken out.

With --traced, each run is followed by a traced run of the same seed;
the per-layer medians and the harness overhead (untraced throughput over
traced throughput) are printed as well.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_once(command, workload, seed, seconds, trace, env):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    result = json.loads(lines[-1])
    kernel = None
    for line in lines:
        m = re.match(r"# reference_kernel_ms before=([\d.]+) after=([\d.]+)", line)
        if m:
            kernel = (float(m.group(1)), float(m.group(2)))
    return result, kernel


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    env = dict(os.environ)

    # data[workload][set] = list of (metrics, kernel, failed share)
    data = {w: {"A": [], "B": []} for w in workloads}
    traced = {w: [] for w in workloads}
    seed = args.seed0
    for i in range(args.runs):
        for s in ("A", "B"):
            for w in workloads:
                seed += 1
                res, kernel = run_once(spec["command"], w, seed, seconds, False, env)
                share = res["failed"] / res["attempted"]
                data[w][s].append((res["metrics"], kernel, share, seed))
                print("run %2d set %s %-8s seed %d  %s  kernel %s" % (
                    i + 1, s, w, seed,
                    " ".join("%s=%.4g" % (k, v["value"])
                             for k, v in res["metrics"].items()),
                    kernel), flush=True)
                if args.traced and s == "A":
                    tres, _ = run_once(spec["command"], w, seed, seconds, True, env)
                    traced[w].append((tres["metrics"], res["metrics"]))

    report = {"seconds": seconds, "runs_per_set": args.runs, "workloads": {}}
    ok_all = True
    for w in workloads:
        print("\n== %s ==" % w)
        print("%-14s %6s | %10s %10s %10s %7s | %10s %10s %10s %7s | %7s %5s | %7s %7s" % (
            "metric", "bound", "A q1", "A med", "A q3", "A sprd",
            "B q1", "B med", "B q3", "B sprd", "diff", "ok", "all", "kern"))
        wrep = {}
        for name, bound in bounds.items():
            row = {}
            for s in ("A", "B"):
                xs = [m[name]["value"] for m, _, _, _ in data[w][s]]
                row[s] = (quartiles(xs), spread(xs))
            ma, mb = row["A"][0][1], row["B"][0][1]
            diff = abs(mb - ma) / ma if ma else float("inf")
            agree = diff <= bound and (name == "setup_s"
                                       or max(row["A"][1], row["B"][1]) <= bound)
            ok_all &= agree
            # The same figures in kernel units.
            normed = []
            for m, kernel, _, _ in data[w]["A"] + data[w]["B"]:
                k = (kernel[0] + kernel[1]) / 2
                v = m[name]["value"]
                u = m[name]["unit"]
                normed.append(v * k if u == "1/s" else v / k if u in ("s", "ms") else v)
            nsp = spread(normed)
            # Spread over every run of both sets.
            allsp = spread([m[name]["value"] for m, _, _, _ in data[w]["A"] + data[w]["B"]])
            print("%-14s %6.2f | %10.4g %10.4g %10.4g %6.1f%% | %10.4g %10.4g %10.4g %6.1f%% | %6.1f%% %5s | %6.1f%% %6.1f%%" % (
                name, bound, *row["A"][0], 100 * row["A"][1], *row["B"][0],
                100 * row["B"][1], 100 * diff, "yes" if agree else "NO",
                100 * allsp, 100 * nsp))
            wrep[name] = {"A": {"q1": row["A"][0][0], "median": row["A"][0][1],
                                "q3": row["A"][0][2], "spread": row["A"][1]},
                          "B": {"q1": row["B"][0][0], "median": row["B"][0][1],
                                "q3": row["B"][0][2], "spread": row["B"][1]},
                          "agree": agree, "spread_all_runs": allsp,
                          "spread_in_kernel_units": nsp}
        kernels = [k for s in ("A", "B") for _, ks, _, _ in data[w][s] for k in ks]
        shares = {s: sorted({sh for _, _, sh, _ in data[w][s]}) for s in ("A", "B")}
        print("reference kernel ms: min %.1f median %.1f max %.1f (spread %.1f%%)" % (
            min(kernels), statistics.median(kernels), max(kernels),
            100 * spread(kernels)))
        print("failed share per run: A %s  B %s" % (shares["A"], shares["B"]))
        ok_all &= shares["A"] == shares["B"] and len(shares["A"]) == 1
        wrep["reference_kernel_ms"] = {"min": min(kernels), "max": max(kernels),
                                       "median": statistics.median(kernels),
                                       "spread": spread(kernels)}
        wrep["failed_share"] = shares
        if traced[w]:
            layer = {}
            for name in traced[w][0][0]:
                layer[name] = statistics.median(m[name]["value"] for m, _ in traced[w])
            over = statistics.median(
                u["ops_per_s"]["value"] / t["trace.ops_per_s"]["value"] - 1
                for t, u in traced[w])
            print("traced runs: %d; harness overhead (untraced/traced throughput - 1): %.1f%%"
                  % (len(traced[w]), 100 * over))
            for name, v in layer.items():
                print("  %-34s %.6g" % (name, v))
            wrep["layers_median"] = layer
            wrep["harness_overhead"] = over
        report["workloads"][w] = wrep
    print("\nall within bounds: %s" % ok_all)
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok_all else 1


if __name__ == "__main__":
    sys.exit(main())
