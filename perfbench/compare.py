#!/usr/bin/env python3
"""Compare two sets of benchmark result records.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file is the standard output of any number of runs of
perfbench/run.py, concatenated: a {"context": ...} line naming the
workload, then the result line. For every workload and metric present
on both sides it prints each side's median and quartiles, the share of
pairs won by NEW (runs paired in file order, ties counting for
neither), and a verdict:

  worse       NEW's median is worse than OLD's by more than the bound;
  better      NEW wins at least 9 in 10 pairs and the medians differ by
              more than the distance between OLD's quartiles;
  unchanged   neither;
  unresolved  either side's quartile spread exceeds the bound, unless
              every NEW run beats (or loses to) every OLD run.

Bounds and directions come from BENCHMARK.json; per-layer metrics have
no bound and are judged by the better rule alone.
"""
import json
import os
import statistics
import sys


def load(path):
    """{(workload, trace): {metric: [values in run order]}}"""
    out = {}
    ctx = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if "context" in rec:
                ctx = rec["context"]
            elif "metrics" in rec and ctx is not None:
                key = (ctx["workload"], ctx.get("trace", 0))
                runs = out.setdefault(key, {})
                for name, m in rec["metrics"].items():
                    runs.setdefault(name, []).append(m["value"])
                ctx = None
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(old, new, lower_better, bound):
    sign = 1 if lower_better else -1
    o_med, n_med = statistics.median(old), statistics.median(new)
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    share = wins / len(pairs) if pairs else 0.0
    all_better = all(sign * (n - o) < 0 for o in old for n in new)
    all_worse = all(sign * (n - o) > 0 for o in old for n in new)
    if bound is not None and max(spread(old), spread(new)) > bound:
        v = "better" if all_better else "worse" if all_worse else "unresolved"
        return share, v
    q1, _, q3 = quartiles(old)
    worse_by = sign * (n_med - o_med) / abs(o_med) if o_med else 0.0
    if bound is not None and worse_by > bound:
        return share, "worse"
    if share >= 0.9 and sign * (o_med - n_med) > (q3 - q1):
        return share, "better"
    if bound is None and share <= 0.1 and sign * (n_med - o_med) > (q3 - q1):
        return share, "worse"
    return share, "unchanged"


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    old, new = load(argv[1]), load(argv[2])
    fmt = "%-14s %-36s %12s %12s %12s %12s %12s %12s %6s  %s"
    print(fmt % ("workload", "metric", "old q1", "old med", "old q3",
                 "new q1", "new med", "new q3", "won", "verdict"))
    for key in sorted(set(old) & set(new)):
        for name in old[key]:
            if name not in new[key] or name not in spec:
                continue
            o, n = old[key][name], new[key][name]
            m = spec[name]
            share, v = verdict(o, n, m["better"] == "lower", m.get("bound"))
            oq, nq = quartiles(o), quartiles(n)
            print(fmt % ((key[0], name) + tuple("%.5g" % x for x in oq + nq)
                         + ("%.2f" % share, v)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
