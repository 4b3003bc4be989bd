#!/usr/bin/env python3
"""Byte-identity sweep over the workload registry.

Runs fsmc_run on every program `fsmc_run --list` prints, except the
crashfault-* programs (they crash or hang on purpose), in five
configurations, each capped at 3000 executions:

  --cb=1 --coverage      context bound 1 with state-signature coverage
  --cb=1 --memory=tso    the same search under store buffers
  --cb=1 --por=on        the same search with sleep-set reduction
  --cb=2 --memory=tso --por=on
                         sleep-set reduction under store buffers, where
                         flush agents join the sleep sets
  --unfair --depth=20 --por=on
                         sleep-set reduction without fairness, where a
                         state whose every move sleeps is pruned instead
                         of woken; past the depth bound a random tail
                         runs to the execution bound

plus the dining-livelock divergence hunt at --bound=300, and two legs on
the process engines:

  --cb=1 --coverage --isolate=batch --checkpoint-every=100
                         crash isolation under the same cap, which also
                         digests the last periodic checkpoint; one worker
                         runs its units in DFS order, so the leg is
                         deterministic
  --cb=1 --coverage --fleet=2
                         a two-worker fleet, only where the --coverage
                         run exhausted within the cap (a capped wide fleet
                         overshoots by timing). Above width 1 a worker is
                         also stopped early to feed an idle one, so where
                         units end moves with timing, and with it the
                         rows FLEET_TIMED strips: the units committed,
                         the bytes of their hand-backs, and the coverage
                         hits, which a unit counts against its own states

For each run it prints one line: the program, the configuration, the
--stats-json report with its timing fields stripped, and a digest of the
--trace-out trace. Everything printed is a function of the code alone, so
two builds that explore identically print identical output:

  python3 tools/registry_sweep.py --fsmc-run A/tools/fsmc_run > a.txt
  python3 tools/registry_sweep.py --fsmc-run B/tools/fsmc_run > b.txt
  diff a.txt b.txt
"""

import argparse
import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import tempfile

CONFIGS = [
    ["--cb=1", "--coverage"],
    ["--cb=1", "--memory=tso"],
    ["--cb=1", "--por=on"],
    ["--cb=2", "--memory=tso", "--por=on"],
    ["--unfair", "--depth=20", "--por=on"],
]
EXECUTIONS = 3000  # cap per configuration run; uncapped for EXTRA_RUNS
EXTRA_RUNS = [("dining-livelock", ["--bound=300"])]
ISOLATE = ["--cb=1", "--coverage", "--isolate=batch", "--checkpoint-every=100"]
FLEET = ["--cb=1", "--coverage", "--fleet=2"]
FLEET_TIMED = ("fleet_units", "donation_bytes", "state_hits", "hit_rate")


def strip_timing(node, extra=()):
    """Drops wall-clock fields, which differ from run to run, and the
    keys in extra."""
    if isinstance(node, dict):
        return {k: strip_timing(v, extra) for k, v in node.items()
                if k != "seconds" and k not in extra
                and not k.endswith(("_s", "_ns", "_per_sec"))}
    if isinstance(node, list):
        return [strip_timing(v, extra) for v in node]
    return node


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def run_one(fsmc_run, tmp, index, program, flags):
    """Runs one search; returns its line and its stop reason."""
    stats = os.path.join(tmp, "%d.json" % index)
    trace = os.path.join(tmp, "%d.jsonl" % index)
    ckpt = os.path.join(tmp, "%d.ckpt" % index)
    cmd = [fsmc_run, "--program=" + program, "--quiet",
           "--stats-json=" + stats, "--trace-out=" + trace] + flags
    if "--checkpoint-every" in " ".join(flags):
        cmd.append("--checkpoint=" + ckpt)
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    label = "%s %s" % (program, " ".join(flags))
    # Exit 1 means a bug was found, which is a result like any other.
    if proc.returncode not in (0, 1) or not os.path.isfile(stats):
        return "%s exit=%d %s" % (label, proc.returncode,
                                  proc.stderr.strip().replace("\n", " | ")), None
    with open(stats) as f:
        raw = json.load(f)
    report = strip_timing(raw, FLEET_TIMED if "--fleet=2" in flags else ())
    line = "%s exit=%d %s trace=%s" % (
        label, proc.returncode, json.dumps(report, sort_keys=True,
                                           separators=(",", ":")),
        file_digest(trace))
    if os.path.isfile(ckpt):
        line += " ckpt=" + file_digest(ckpt)
        os.remove(ckpt)
    os.remove(stats)
    os.remove(trace)
    return line, raw.get("stop_reason")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--fsmc-run", default=os.path.join("build", "tools", "fsmc_run"),
                   help="fsmc_run binary to sweep (default: build/tools/fsmc_run)")
    p.add_argument("--jobs", type=int, default=1,
                   help="runs in flight at once (default 1)")
    args = p.parse_args()

    listing = subprocess.run([args.fsmc_run, "--list"], capture_output=True,
                             text=True, check=True).stdout.split()
    cap = ["--executions=%d" % EXECUTIONS]
    programs = [p for p in listing if not p.startswith("crashfault-")]
    runs = [(prog, cfg + cap) for prog in programs
            for cfg in CONFIGS + [ISOLATE]]
    runs += EXTRA_RUNS

    with tempfile.TemporaryDirectory(prefix="registry_sweep.") as tmp:
        with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
            def sweep(runs, start):
                futures = [pool.submit(run_one, args.fsmc_run, tmp, start + i,
                                       prog, flags)
                           for i, (prog, flags) in enumerate(runs)]
                results = [fut.result() for fut in futures]
                for line, _ in results:
                    print(line, flush=True)
                return results

            results = sweep(runs, 0)
            exhausted = [prog for (prog, flags), (_, stop) in zip(runs, results)
                         if flags == CONFIGS[0] + cap
                         and stop == "search_exhausted"]
            sweep([(prog, FLEET + cap) for prog in exhausted], len(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
