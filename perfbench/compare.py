"""Read sets of benchmark runs (sweep.py output) and judge them.

    python3 perfbench/compare.py runs/a.jsonl                  # spread of one set
    python3 perfbench/compare.py runs/parent.jsonl runs/change.jsonl

With one set it prints, per workload and metric, the median, the quartiles
and the spread (Q3 - Q1) / median, and flags every spread above the metric's
bound in BENCHMARK.json ("over bound") or above a third of it ("> bound/3").

With two sets (parent first) it prints both sides' medians and quartiles,
the relative change of the median (positive = better), the paired win rate
of the change over runs with the same seed (ties count for neither side),
and a verdict, following the rules of the benchmark:
  unresolved  a side's spread exceeds the bound, unless every change run
              beats every parent run (then "better, all runs")
  worse       the change's median is worse than the parent's by more than the bound
  gain        the change wins at least 9/10 of the pairs and the medians differ
              by more than the parent's own quartile distance
  same        none of the above
Exit status 1 if any metric is "worse".
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    metrics = {m["name"]: m for m in b["end_to_end"]}
    metrics.update({m["name"]: dict(m, bound=None) for m in b["per_layer"]})
    return metrics


def load_runs(path):
    """{(workload, metric): {seed: value}} of the runs that returned a result."""
    out = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if not r.get("result"):
                continue
            for name, m in r["result"]["metrics"].items():
                out.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
    return out


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf") if q3 != q1 else 0.0


def one_set(runs, metrics):
    print(f"{'workload':14} {'metric':36} {'n':>3} {'median':>12} {'Q1':>12} {'Q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for (w, name), by_seed in sorted(runs.items()):
        vals = list(by_seed.values())
        q1, med, q3 = quartiles(vals)
        sp, bound = spread(vals), metrics.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "over bound" if sp > bound else "> bound/3" if sp > bound / 3 else ""
        b = "" if bound is None else f"{bound:.2f}"
        print(f"{w:14} {name:36} {len(vals):3d} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{sp:7.3f} {b:>6} {flag}")


def two_sets(parent, change, metrics):
    worse = 0
    print(f"{'workload':14} {'metric':36} {'parent med [Q1, Q3]':>34} {'change med [Q1, Q3]':>34} "
          f"{'better':>8} {'wins':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        w, name = key
        m = metrics.get(name, {"better": "lower", "bound": None})
        sign = 1 if m["better"] == "higher" else -1
        p, c = parent[key], change[key]
        pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
        rel = sign * (cq[1] - pq[1]) / abs(pq[1]) if pq[1] else 0.0
        pairs = [(p[s], c[s]) for s in p if s in c]
        wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
        losses = sum(1 for a, b in pairs if sign * (b - a) < 0)
        rate = wins / len(pairs) if pairs else 0.0
        bound = m.get("bound")
        all_better = min(sign * v for v in c.values()) > max(sign * v for v in p.values())
        if bound is not None and (spread(list(p.values())) > bound
                                  or spread(list(c.values())) > bound):
            verdict = "better, all runs" if all_better else "unresolved"
        elif bound is not None and rel < -bound:
            verdict = "worse"
            worse += 1
        elif rate >= 0.9 and abs(cq[1] - pq[1]) > (pq[2] - pq[0]):
            verdict = "gain"
        elif losses and losses / len(pairs) >= 0.9 and abs(cq[1] - pq[1]) > (pq[2] - pq[0]):
            verdict = "loss (within bound)" if bound is not None else "loss"
        else:
            verdict = "same"
        ps = f"{pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
        cs = f"{cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
        print(f"{w:14} {name:36} {ps:>34} {cs:>34} {100 * rel:7.1f}% "
              f"{wins:2d}/{len(pairs):<3d} {verdict}")
    return worse


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = load_bench()
    if len(argv) == 2:
        one_set(load_runs(argv[1]), metrics)
        return 0
    return 1 if two_sets(load_runs(argv[1]), load_runs(argv[2]), metrics) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
