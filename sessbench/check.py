#!/usr/bin/env python3
"""The benchmark's bound check, its seed-spread report and its self-test.

    python3 sessbench/check.py spread --workload storm --seeds 1-10
    python3 sessbench/check.py compare OLD.json NEW.json
    python3 sessbench/check.py selftest

spread   runs the untraced benchmark once per seed and prints, for every
         end-to-end metric, the median and the distance between the
         first and third quartile as a share of the median (flagged when
         it exceeds a third of the metric's bound).  --save FILE keeps
         the results for compare.
compare  applies the bound check to two saved result sets: a metric is
         a regression when its median got worse by more than its bound.
selftest plants a regression for each deterministic end-to-end metric
         and checks the bound check rejects it, checks two runs of
         unchanged code pass it, and checks that the traced run's layer
         costs add up to its total.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def run(workload, seed, seconds, trace=0, plant=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if plant:
        cmd += ["--plant", plant]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit("benchmark failed (exit %d): %s" % (out.returncode, " ".join(cmd)))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit("benchmark reported incorrect output: %s" % " ".join(cmd))
    return {k: v["value"] for k, v in result["metrics"].items()}


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def worse_by(metric, old, new):
    """How much worse [new] is than [old], as a share of [old]."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return -change if metric["better"] == "higher" else change


def regressions(old_runs, new_runs, spec):
    """Metrics whose median over [new_runs] is worse than over [old_runs]
    by more than the metric's bound."""
    found = []
    for m in spec["end_to_end"]:
        old = statistics.median(r[m["name"]] for r in old_runs)
        new = statistics.median(r[m["name"]] for r in new_runs)
        w = worse_by(m, old, new)
        if w > m["bound"]:
            found.append((m["name"], old, new, w))
    return found


def cmd_spread(args):
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    runs = [run(args.workload, s, seconds) for s in seeds_of(args.seeds)]
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "runs": runs}, f)
    print("%-24s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    steady = True
    for m in spec["end_to_end"]:
        med, sp = spread([r[m["name"]] for r in runs])
        flag = ""
        if m["name"] != "setup_s" and sp > m["bound"] / 3:
            flag = "  > bound/3"
            steady = False
        print("%-24s %14.4f %7.2f%% %7.2f%%%s" % (m["name"], med, 100 * sp, 100 * m["bound"], flag))
    return 0 if steady else 1


def cmd_compare(args):
    spec = load_spec()
    with open(args.old) as f:
        old = json.load(f)["runs"]
    with open(args.new) as f:
        new = json.load(f)["runs"]
    bad = regressions(old, new, spec)
    for name, o, n, w in bad:
        print("regression %-24s %.4f -> %.4f (%.1f%% worse)" % (name, o, n, 100 * w))
    print("accepted" if not bad else "rejected")
    return 1 if bad else 0


# Which deterministic end-to-end metrics each planted regression must
# push past its bound.
PLANTS = {
    "alloc": ["alloc_words_per_round"],
    "linger": ["rounds_to_goal_p50", "rounds_to_goal_p99", "latency_ticks_p50", "latency_ticks_p99"],
    "sabotage": ["done_pct"],
}


def close(a, b):
    return abs(a - b) <= 1e-6 * max(1.0, abs(b))


def layer_sums(workload, seed, seconds):
    """The traced run's rung costs plus engine.* must equal its total, and
    its span self times must sum to the root span."""
    layers = run(workload, seed, seconds, trace=1)
    failures = []
    parts = ["exec", "universal", "referee", "faults", "engine"]
    if workload == "capture":  # the only workload with a ring sink
        parts.append("ring")
    for unit in ("ns", "words"):
        total = sum(layers["%s.%s_per_round" % (p, unit)] for p in parts)
        want = layers["total.%s_per_round" % unit]
        if not close(total, want):
            failures.append("%s: layer %s sum to %.4f, total is %.4f" % (workload, unit, total, want))
    selfs = sum(v for k, v in layers.items() if k.startswith("span.") and k.endswith(".self_ms"))
    if not close(selfs, layers["span.total_ms"]):
        failures.append("%s: span self times sum to %.3f, root is %.3f" % (workload, selfs, layers["span.total_ms"]))
    print("%-8s layer costs and span self times add up: %s" % (workload, "no" if failures else "yes"))
    return failures


def cmd_selftest(args):
    spec = load_spec()
    seeds = seeds_of(args.seeds)
    go = lambda plant=None: [run(args.workload, s, args.seconds, plant=plant) for s in seeds]
    failures = []
    base, again = go(), go()
    bad = regressions(base, again, spec)
    print("unchanged code, two runs: %s" % ("accepted" if not bad else "rejected %s" % bad))
    if bad:
        failures.append("two runs of unchanged code were rejected")
    for plant, expect in PLANTS.items():
        caught = {name for name, _, _, _ in regressions(base, go(plant), spec)}
        for name in expect:
            ok = name in caught
            print("plant %-9s -> %-24s %s" % (plant, name, "rejected" if ok else "MISSED"))
            if not ok:
                failures.append("plant %s did not move %s past its bound" % (plant, name))
    for w in spec["workloads"]:
        failures += layer_sums(w["name"], seeds[0], args.seconds)
    for f in failures:
        print("FAIL: " + f)
    print("selftest %s" % ("passed" if not failures else "failed"))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    s.add_argument("--save")
    c = sub.add_parser("compare")
    c.add_argument("old")
    c.add_argument("new")
    t = sub.add_parser("selftest")
    t.add_argument("--workload", default="net")
    t.add_argument("--seeds", default="1-3")
    t.add_argument("--seconds", type=int, default=1)
    args = p.parse_args()
    return {"spread": cmd_spread, "compare": cmd_compare, "selftest": cmd_selftest}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
