#!/usr/bin/env python3
"""Compare two result sets written by bench/e2e/run.sh.

    python3 bench/e2e/compare.py PARENT.json CHANGE.json

One row per workload x metric: both sides' median and quartiles, and a
verdict against the bounds in BENCHMARK.json:

  unresolved  either side's spread (IQR / median) exceeds the bound,
              unless every run of the change beats every run of the parent
  worse       the change's median is worse than the parent's by more than
              the bound
  better      the change wins at least 9/10 of the pairs (runs paired by
              repetition; ties count for neither) and the medians differ
              by more than the parent's IQR
  same        otherwise

Per-layer metrics have no bound; their rows carry no verdict. Exits 1 when
any row is worse.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def stats(values):
    median = statistics.median(values)
    if len(values) > 1:
        q25, _, q75 = statistics.quantiles(values, n=4)
    else:
        q25 = q75 = median
    return median, q25, q75


def runs_by_rep(result, workload, metric):
    return {run["rep"]: run["metrics"][metric]["value"]
            for run in result["runs"]
            if run["workload"] == workload and metric in run["metrics"]}


def verdict(parent, change, better, bound):
    """parent/change: {rep: value}; better: 'higher' or 'lower'."""
    sign = 1 if better == "higher" else -1
    p_med, p_q25, p_q75 = stats(list(parent.values()))
    c_med, c_q25, c_q75 = stats(list(change.values()))

    def gain(a, b):  # how much better b is than a, signed
        return sign * (b - a)

    spread = max((p_q75 - p_q25) / abs(p_med) if p_med else 0,
                 (c_q75 - c_q25) / abs(c_med) if c_med else 0)
    if spread > bound:
        all_better = all(gain(p, c) > 0
                         for p in parent.values() for c in change.values())
        return "better" if all_better else "unresolved"
    if p_med and -gain(p_med, c_med) / abs(p_med) > bound:
        return "worse"
    pairs = [(parent[r], change[r]) for r in parent if r in change]
    wins = sum(1 for p, c in pairs if gain(p, c) > 0)
    if (pairs and wins >= 0.9 * len(pairs) and gain(p_med, c_med) > 0
            and abs(c_med - p_med) > p_q75 - p_q25):
        return "better"
    return "same"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent = json.loads(pathlib.Path(argv[1]).read_text())
    change = json.loads(pathlib.Path(argv[2]).read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]

    print(f"{'workload':22} {'metric':34} {'parent med [q25, q75]':>36} "
          f"{'change med [q25, q75]':>36} {'bound':>6}  verdict")
    worse = 0
    for workload in workloads:
        for name, d in defs.items():
            p = runs_by_rep(parent, workload, name)
            c = runs_by_rep(change, workload, name)
            if not p or not c:
                continue
            bound = d.get("bound")
            v = verdict(p, c, d["better"], bound) if bound is not None else "-"
            worse += v == "worse"
            pm, p25, p75 = stats(list(p.values()))
            cm, c25, c75 = stats(list(c.values()))
            print(f"{workload:22} {name:34} "
                  f"{pm:12.5g} [{p25:10.5g}, {p75:10.5g}] "
                  f"{cm:12.5g} [{c25:10.5g}, {c75:10.5g}] "
                  f"{'' if bound is None else bound:>6}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
