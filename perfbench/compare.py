"""Sweep seeds into a result set, and compare two result sets.

    python3 perfbench/compare.py sweep OUT_DIR [--seeds 1-10]
    python3 perfbench/compare.py compare BASE_DIR NEW_DIR

``sweep`` makes one untraced ``run.py`` run per workload of
``BENCHMARK.json`` and seed, one process at a time, each for the
benchmark's ``run_seconds``, and keeps each run's record in OUT_DIR.
``compare`` reads the untraced records of two sets and prints, for each
workload and end-to-end metric, each side's median and quartiles, its
spread (quartile distance over median), the fraction of seed-matched pairs
that NEW wins, and a verdict:

* improved: NEW wins at least 9 in 10 pairs (ties count for neither) and
  the medians differ, in NEW's favour, by more than BASE's quartile
  distance;
* unresolved: either side's spread is wider than the metric's bound and
  not every NEW run beats every BASE run;
* regressed: NEW's median is worse than BASE's by more than the bound;
* unchanged: otherwise.

A workload also counts as regressed when, summed over the paired seeds,
NEW fails more distinct operations than BASE; its improved verdicts are
then void, so a change that makes operations fail fast cannot pass as a
speed-up. Failures are counted per distinct operation (input and kind,
command line or suite seed), not per attempt: a run repeats its inputs,
and how often depends on its speed.

Comparing two sets of the same code is the steadiness check: every verdict
should be unchanged, and every spread within the bound.

To compare two commits, sweep each from its own checkout, alternating the
side that runs first seed by seed (``--seeds N-N``), then compare.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def sweep(out_dir, seeds):
    out_dir = Path(out_dir).resolve()
    for workload in (w["name"] for w in harness.load_spec()["workloads"]):
        for seed in seeds:
            cmd = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--trace", "0", "--results", str(out_dir)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=harness.ROOT)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:160]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr.strip()[-2000:], file=sys.stderr)


def load_set(directory):
    """{workload: {seed: {metric: value}}} from the untraced records in ``directory``."""
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        values = {k: m["value"] for k, m in rec["result"]["metrics"].items()}
        values["failed_frac"] = rec["failed_frac"]
        values["failed_ops"] = len(rec["failed_ops"])
        runs.setdefault(rec["workload"], {})[rec["seed"]] = values
    return runs


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3


def verdict(base, new, better, bound):
    """Verdict on one metric from BASE and NEW values paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    b_med, b_q1, b_q3 = summary(base)
    n_med, n_q1, n_q3 = summary(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    win_frac = wins / len(pairs)
    spread = max((b_q3 - b_q1) / abs(b_med), (n_q3 - n_q1) / abs(n_med))
    gain = sign * (n_med - b_med)
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if win_frac >= 0.9 and gain > b_q3 - b_q1:
        word = "improved"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif -gain > bound * abs(b_med):
        word = "regressed"
    else:
        word = "unchanged"
    return word, win_frac


def compare(base_dir, new_dir):
    spec = harness.load_spec()
    base, new = load_set(base_dir), load_set(new_dir)
    worst = "unchanged"
    print(f"{'workload':8s} {'metric':12s} {'base median [q1, q3] spread':>40s} {'new median [q1, q3] spread':>40s} "
          f"{'bound':>6s} {'wins':>5s}  verdict")
    for workload in sorted(set(base) & set(new)):
        seeds = sorted(set(base[workload]) & set(new[workload]))
        if not seeds:
            continue
        ob = sum(base[workload][s]["failed_ops"] for s in seeds)
        on = sum(new[workload][s]["failed_ops"] for s in seeds)
        more_failures = on > ob
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [base[workload][s][name] for s in seeds]
            n = [new[workload][s][name] for s in seeds]
            word, win_frac = verdict(b, n, metric["better"], metric["bound"])
            if word == "improved" and more_failures:
                word = "void (more failures)"
            if word in ("regressed", "unresolved") and worst != "regressed":
                worst = word
            cells = []
            for values in (b, n):
                med, q1, q3 = summary(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {(q3 - q1) / abs(med):6.1%}")
            print(f"{workload:8s} {name:12s} {cells[0]:>40s} {cells[1]:>40s} {metric['bound']:6.2f} "
                  f"{win_frac:5.2f}  {word}")
        fb = statistics.median(base[workload][s]["failed_frac"] for s in seeds)
        fn = statistics.median(new[workload][s]["failed_frac"] for s in seeds)
        print(f"{workload:8s} {'failed_frac':12s} {fb:>40.4g} {fn:>40.4g}   (median over {len(seeds)} seeds)")
        if more_failures:
            worst = "regressed"
        print(f"{workload:8s} {'failed_ops':12s} {ob:>40d} {on:>40d} {'':6s} {'':5s}  "
              f"{'regressed' if more_failures else 'unchanged'}  (distinct failed operations over {len(seeds)} seeds)")
    return 0 if worst == "unchanged" else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sweep", help="run every workload over seeds into a result set")
    p.add_argument("out_dir")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("base_dir")
    p.add_argument("new_dir")
    args = parser.parse_args(argv)
    if args.command == "sweep":
        sweep(args.out_dir, parse_seeds(args.seeds))
        return 0
    return compare(args.base_dir, args.new_dir)


if __name__ == "__main__":
    sys.exit(main())
