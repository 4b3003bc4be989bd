#!/usr/bin/env python3
"""Entry point of the fsmc performance ledger.

Run from the repository root:

  python3 fsmc_bench/run.py --workload NAME [--seed N] [--seconds S]
                            [--trace 0|1] [--passes N] [--out FILE]
      Builds fsmc_bench (Release) from source if needed, runs one workload
      and forwards its result: the last line of stdout is one JSON object
      with "correct", "attempted", "failed" and "metrics". The full report
      goes to fsmc_bench/out/ unless --out names another file.

  python3 fsmc_bench/run.py --compare A.json B.json [A2.json B2.json ...]
      Compares run reports of a parent (A) and a change (B), pairwise.
      Prints each metric's medians, quartiles and change, flags end-to-end
      metrics worse than their BENCHMARK.json bound (exit 1), and with ten
      or more pairs per workload applies the claim rule: the change wins at
      least 9 of 10 pairs and the medians differ by more than the parent's
      interquartile range.

  python3 fsmc_bench/run.py --check [--binary PATH]
      One pass of every workload, untraced and traced; fails unless every
      search passes and the metric and workload names match BENCHMARK.json
      exactly.

The build goes to $CARGO_TARGET_DIR/fsmc_bench (default .bench_build), so
everything the ledger writes stays inside the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_INPUTS = [os.path.join(ROOT, "src"), HERE]


def fail(msg):
    print("fsmc_bench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "fsmc_bench")


def newest_input():
    newest = 0.0
    for top in BUILD_INPUTS:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d != "out"]
            for f in filenames:
                if f.endswith((".cpp", ".h", ".txt")):
                    newest = max(newest, os.path.getmtime(os.path.join(dirpath, f)))
    return newest


def build():
    """Configures and builds the binary unless it is newer than every input."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no checker sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    binary = os.path.join(out, "fsmc_bench")
    if os.path.isfile(binary) and os.path.getmtime(binary) >= newest_input():
        return binary
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j4", "--target", "fsmc_bench"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return binary


def run_binary(binary, args):
    """Runs the binary from the root; returns (exit code, parsed last line)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cmd_run(opts):
    binary = build()
    out = opts.out or os.path.join(
        "fsmc_bench", "out", "%s-seed%d-trace%d.json" % (opts.workload, opts.seed, opts.trace))
    os.makedirs(os.path.dirname(os.path.join(ROOT, out)), exist_ok=True)
    args = ["--workload=" + opts.workload, "--seed=%d" % opts.seed,
            "--seconds=%s" % opts.seconds, "--trace=%d" % opts.trace, "--out=" + out]
    if opts.passes:
        args.append("--passes=%d" % opts.passes)
    code, result = run_binary(binary, args)
    if code != 0 or result is None:
        fail("benchmark run failed (exit %d)" % code)
    print(json.dumps(result))
    return 0


def cmd_check(opts):
    binary = opts.binary or build()
    bench = load_benchmark()
    problems = []
    listed = subprocess.run([binary, "--list"], stdout=subprocess.PIPE, text=True).stdout.split()
    declared = [w["name"] for w in bench["workloads"]]
    if sorted(listed) != sorted(declared):
        problems.append("workloads: binary has %s, BENCHMARK.json %s" % (listed, declared))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for name in declared:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = os.path.join(HERE, "out", "check-%s-trace%d.json" % (name, trace))
            code, result = run_binary(binary, ["--workload=" + name, "--passes=1",
                                               "--trace=%d" % trace, "--out=" + out])
            where = "%s trace=%d" % (name, trace)
            if code != 0 or result is None:
                problems.append("%s: run failed (exit %d)" % (where, code))
                continue
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d searches failed" % (
                    where, result["failed"], result["attempted"]))
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                problems.append("%s: metrics missing %s, undeclared %s, unit mismatches %s" % (
                    where, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in set(want) & set(got) if want[k] != got[k])))
    for p in problems:
        print("FAIL " + p)
    print("ledger check: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def cmd_compare(opts):
    files = opts.compare
    if len(files) < 2 or len(files) % 2:
        fail("--compare takes pairs of reports: A.json B.json [A2.json B2.json ...]")
    bench = load_benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    pairs = {}
    for a, b in zip(files[0::2], files[1::2]):
        ra, rb = (json.load(open(f)) for f in (a, b))
        if (ra["workload"], ra["trace"]) != (rb["workload"], rb["trace"]):
            fail("%s and %s measure different things" % (a, b))
        for r, f in ((ra, a), (rb, b)):
            if not r["correct"]:
                print("WARN %s: %d searches failed" % (f, r["failed"]))
        pairs.setdefault((ra["workload"], ra["trace"]), []).append((ra, rb))

    regressions = 0
    for (workload, trace), runs in sorted(pairs.items()):
        print("== %s%s: %d pair(s)" % (workload, " (traced)" if trace else "", len(runs)))
        print("%-30s %14s %25s %14s %25s %9s  %s" % (
            "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "change", "verdict"))
        shared = [n for n in runs[0][0]["metrics"]
                  if all(n in r["metrics"] for pair in runs for r in pair)]
        for name in shared:
            a_med = [ra["metrics"][name]["median"] for ra, _ in runs]
            b_med = [rb["metrics"][name]["median"] for _, rb in runs]
            if len(runs) == 1:
                ma, mb = runs[0][0]["metrics"][name], runs[0][1]["metrics"][name]
                a, b = ma["median"], mb["median"]
                a_q, b_q = (ma["q1"], ma["q3"]), (mb["q1"], mb["q3"])
            else:
                a, b = statistics.median(a_med), statistics.median(b_med)
                a_q, b_q = spread(a_med), spread(b_med)
            change = (b - a) / a if a else 0.0
            verdict = ""
            if name in bounds:
                lower = bounds[name]["better"] == "lower"
                worse = change if lower else -change
                if worse > bounds[name]["bound"]:
                    verdict = "REGRESSION (bound %g%%)" % (100 * bounds[name]["bound"])
                    regressions += 1
                if len(runs) >= 10:
                    wins = sum(1 for x, y in zip(a_med, b_med) if (y < x if lower else y > x))
                    claim = wins >= 0.9 * len(runs) and abs(b - a) > a_q[1] - a_q[0]
                    verdict = (verdict + " " if verdict else "") + "wins %d/%d%s" % (
                        wins, len(runs), ", gain holds" if claim else "")
            print("%-30s %14.6g %25s %14.6g %25s %8.2f%%  %s" % (
                name, a, "[%.6g, %.6g]" % a_q, b, "[%.6g, %.6g]" % b_q, 100 * change, verdict))
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs="+", metavar="REPORT")
    p.add_argument("--check", action="store_true")
    p.add_argument("--binary")
    opts = p.parse_args()
    if opts.compare:
        return cmd_compare(opts)
    if opts.check:
        return cmd_check(opts)
    if not opts.workload:
        fail("--workload is required (or --compare / --check)")
    return cmd_run(opts)


if __name__ == "__main__":
    sys.exit(main())
