#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each workload and prints, per metric,
the median of the runs and the distance between their first and third
quartiles as a share of the median (the spread a regression bound must
exceed). Run it from the root of the repository:

    python3 perfbench/spread.py --workloads serve-json --seeds 1-5 --seconds 40

Each run's result line is appended to --out (JSON lines) so a later
invocation can re-summarize without re-running (--summarize). Every
metric, setup_s included, is flagged "over" when its spread exceeds a
third of its bound. --baseline names an earlier --out file: each median
is then also compared with that file's, and flagged "drift" when it is
worse by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def by_metric(records):
    by = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], name), []).append(m["value"])
    return by


def summarize(records, bounds, better, baseline):
    by = by_metric(records)
    base = {k: statistics.median(v) for k, v in by_metric(baseline).items()}
    print(f"{'workload':<14} {'metric':<16} {'n':>3} {'median':>12} {'iqr/med':>8} {'bound/3':>8} {'worse':>8}")
    worst = True
    for (w, name), vals in sorted(by.items()):
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        b = bounds.get(name)
        flag = ""
        if b is not None and not spread <= b / 3:
            flag, worst = "  over", False
        worse = float("nan")
        if (w, name) in base and base[(w, name)]:
            worse = (med - base[(w, name)]) / abs(base[(w, name)])
            if better.get(name) == "higher":
                worse = -worse
            if b is not None and worse > b:
                flag, worst = flag + "  drift", False
        print(f"{w:<14} {name:<16} {len(vals):>3} {med:>12.6g} {spread:>8.4f} "
              f"{(b / 3 if b else float('nan')):>8.4f} {worse:>8.4f}{flag}")
    fails = sum(r["result"]["failed"] for r in records)
    bad = [r for r in records if not r["result"]["correct"]]
    print(f"runs {len(records)}, failed ops {fails}, incorrect runs {len(bad)}")
    return worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="spmv-mix,serve-json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=".bench_build/spread.jsonl")
    ap.add_argument("--summarize", action="store_true", help="only summarize --out")
    ap.add_argument("--baseline", help="an earlier --out file to compare medians with")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    if not args.summarize:
        os.makedirs(os.path.dirname(args.out), exist_ok=True)
        with open(args.out, "a") as f:
            for seed in seeds_of(args.seeds):
                for w in args.workloads.split(","):
                    info, res = run_once(w, seed, seconds, args.trace)
                    rec = {"workload": w, "seed": seed, "seconds": seconds, "info": info, "result": res}
                    f.write(json.dumps(rec) + "\n")
                    f.flush()
                    ms = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
                    print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']} {ms}", flush=True)
    wl = set(args.workloads.split(","))

    def load(path):
        records = [json.loads(l) for l in open(path)]
        return [r for r in records if r["workload"] in wl and r["result"]["metrics"] and
                ("setup_s" in r["result"]["metrics"]) == (args.trace == 0)]

    ok = summarize(load(args.out), bounds, better, load(args.baseline) if args.baseline else [])
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
