#!/usr/bin/env python3
"""Compare two sets of ddosbench results: a parent and a change.

    python3 bench/e2e/compare.py --parent P1.json P2.json ... \\
                                 --change C1.json C2.json ...
    python3 bench/e2e/compare.py --aa --parent A/*.json --change B/*.json

Each file is one run's result.json or a full pass saved by
`run.py --save`. Runs pair up in order within each workload, so make
them in pairs and alternate which side runs first.

For every (workload, metric) the table shows each side's median, q1 and
q3 and how many pairs the change won (ties count for neither side).

  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's q1-q3 spread
  regression  an end-to-end metric's median worsened by more than its
              bound (a bound of 0: any worsening)
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run
  ok          none of the above

--aa compares two sets of the same code: any end-to-end median that moves
by more than its bound, either way, fails. Sets from different machines
are refused. Exit status: 0 clean, 1 regression (or A/A failure),
2 unusable input.
"""

import argparse
import json
import statistics
import sys

FINGERPRINT_KEYS = ("nproc", "cpu_model", "compiler", "build_type",
                    "threads")


class InputError(Exception):
    pass


def load_results(paths):
    """Flatten result files (single runs or full passes) into a list."""
    results = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        results.extend(doc["results"] if "results" in doc else [doc])
    return results


def fingerprint(result):
    machine = result["machine"]
    return tuple(machine.get(k) for k in FINGERPRINT_KEYS)


def by_workload(results):
    out = {}
    for r in results:
        out.setdefault(r["workload"], []).append(r)
    return out


def check_machines(parent, change):
    prints = {fingerprint(r) for r in parent + change}
    if len(prints) > 1:
        raise InputError("results come from different machines: " +
                         "; ".join(str(p) for p in sorted(prints, key=str)))


def quartiles(values):
    """q1, median, q3, interpolating linearly between order statistics:
    the rule ddosbench uses for the q1/q3 it writes into result.json."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True when a reads better than b."""
    return a < b if direction == "lower" else a > b


def compare_metric(parent_values, change_values, meta, aa=False):
    """Verdict and statistics for one (workload, metric) row."""
    p_q1, p_med, p_q3 = quartiles(parent_values)
    c_q1, c_med, c_q3 = quartiles(change_values)
    direction = meta["better"]
    pairs = list(zip(parent_values, change_values))
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    spread = p_q3 - p_q1
    row = {"parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
           "wins": wins, "pairs": len(pairs)}

    bound = meta.get("bound")
    scale = abs(p_med)
    worse_by = (c_med - p_med) if direction == "lower" else (p_med - c_med)
    all_better = bool(pairs) and all(
        better(c, p, direction) for c in change_values for p in parent_values)
    if aa:
        moved = bound is not None and abs(c_med - p_med) > bound * scale
        row["verdict"] = "differs" if moved else "ok"
        if not moved and bound is not None and spread > bound * scale:
            row["verdict"] = "unresolved"
        return row
    if bound is not None and worse_by > bound * scale:
        row["verdict"] = "regression"
    elif (pairs and wins >= 0.9 * len(pairs) and better(c_med, p_med, direction)
          and abs(c_med - p_med) > spread):
        row["verdict"] = "gain"
    elif bound is not None and spread > bound * scale and not all_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "ok"
    return row


def compare_sets(parent, change, aa=False):
    check_machines(parent, change)
    rows = []
    p_sets, c_sets = by_workload(parent), by_workload(change)
    for workload in sorted(set(p_sets) & set(c_sets)):
        ps = sorted(p_sets[workload], key=lambda r: r["seed"])
        cs = sorted(c_sets[workload], key=lambda r: r["seed"])
        names = sorted(set(ps[0]["metrics"]) & set(cs[0]["metrics"]))
        for name in names:
            pv = [r["metrics"][name]["value"] for r in ps
                  if r["metrics"].get(name, {}).get("value") is not None]
            cv = [r["metrics"][name]["value"] for r in cs
                  if r["metrics"].get(name, {}).get("value") is not None]
            if not pv or not cv:
                continue
            meta = ps[0]["metrics"][name]
            if meta["kind"] != "end_to_end":
                meta = dict(meta)
                meta.pop("bound", None)
            row = compare_metric(pv, cv, meta, aa)
            row.update(workload=workload, metric=name, unit=meta["unit"],
                       kind=meta["kind"])
            rows.append(row)
    return rows


def print_table(rows):
    fmt = "%-13s %-26s %-7s %12s %12s %12s %12s %12s %12s %6s  %s"
    print(fmt % ("workload", "metric", "unit", "parent", "p.q1", "p.q3",
                 "change", "c.q1", "c.q3", "wins", "verdict"))
    for r in rows:
        # Layer metrics have no bound: only a gain is worth a verdict.
        verdict = r["verdict"] if r["kind"] == "end_to_end" or \
            r["verdict"] == "gain" else ""
        print(fmt % (r["workload"], r["metric"], r["unit"],
                     "%.5g" % r["parent"][0], "%.5g" % r["parent"][1],
                     "%.5g" % r["parent"][2], "%.5g" % r["change"][0],
                     "%.5g" % r["change"][1], "%.5g" % r["change"][2],
                     "%d/%d" % (r["wins"], r["pairs"]), verdict))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--aa", action="store_true",
                        help="both sets ran the same code")
    args = parser.parse_args(argv)
    try:
        rows = compare_sets(load_results(args.parent),
                            load_results(args.change), args.aa)
    except (InputError, OSError, KeyError, ValueError) as e:
        print("compare.py: %s" % e, file=sys.stderr)
        return 2
    print_table(rows)
    e2e = [r for r in rows if r["kind"] == "end_to_end"]
    bad = [r for r in e2e
           if r["verdict"] in (("differs",) if args.aa else ("regression",))]
    for r in bad:
        print("%s: %s %s" % (r["verdict"].upper(), r["workload"], r["metric"]))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
