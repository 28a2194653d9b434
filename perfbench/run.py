#!/usr/bin/env python3
"""The repository's benchmark: build, run one workload, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper|serve \\
        --seed N --seconds S --trace 0|1

builds perfbench/bench.exe and bin/serve_main.exe with dune, runs the
workload and passes its report through.  The report ends with the
full record: provenance, and every metric the workload measured, with
its better direction and basis.  The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}, which
holds exactly the metrics BENCHMARK.json names: its end_to_end list
with --trace 0, its per_layer list with --trace 1.  Every workload
measures every one of them; the others (a workload's own figures, such
as serve's rps or approx's density_gm) are in the record only.  The
exit code is non-zero, and no result is printed, when the build fails,
a check fails, a percentile lacks samples, or the record lacks a named
metric, has it in another unit, or has an end-to-end value that is not
a positive number.

    python3 perfbench/run.py --compare BASE NEW

reads the record lines from two files of captured standard output and
prints, per workload and metric, each side's median and quartiles and
a verdict from the bounds in BENCHMARK.json: worse by more than the
bound, unresolved when the base's own quartiles lie further apart than
the bound (unless every new run beats every base run), or ok.  It exits
1 if any end-to-end metric got worse by more than its bound.

Scratch files (ooc store, serve socket, span traces) live in .perfbench/
at the checkout root.  The measuring process runs in its own process
group, which is killed on every exit path, so no server child outlives
a run.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys

WORKLOADS = ("paper", "serve")
RUN_DIR = ".perfbench"
BENCH_EXE = "_build/default/perfbench/bench.exe"
SERVE_EXE = "_build/default/bin/serve_main.exe"


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    # No shared dune cache: the build reads and writes only this checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/serve_main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    return proc.returncode == 0


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def remove_scratch(pid=None):
    """Remove the scratch entries of measuring process [pid], and those of
    any earlier one that is gone without cleaning up after itself."""
    if not os.path.isdir(RUN_DIR):
        return
    for name in os.listdir(RUN_DIR):
        m = re.match(r"(?:ooc|serve)-(\d+)-", name)
        if not m or (int(m.group(1)) != pid and alive(int(m.group(1)))):
            continue
        path = os.path.join(RUN_DIR, name)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path, ignore_errors=True)
        else:
            os.unlink(path)


def run(args):
    if not (os.path.isfile("dune-project") and build()):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    remove_scratch()
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", RUN_DIR, "--serve-exe", SERVE_EXE, "--rev", git_rev()]
    env = dict(os.environ, TMPDIR=os.path.abspath(RUN_DIR))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                            text=True, start_new_session=True)

    def forward(signum, _frame):
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass

    old = {s: signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        out = ""
        print("perfbench: the measuring process timed out", file=sys.stderr)
    finally:
        # the group holds the measuring process and any server it started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()
        for s, h in old.items():
            signal.signal(s, h)
        remove_scratch(proc.pid)
    lines = out.splitlines()
    result = None
    if proc.returncode == 0 and lines and lines[-1].startswith('{"record"'):
        result = contract_line(json.loads(lines[-1]), args.trace)
    if result is None:
        sys.stderr.write(out)
        print("perfbench: %s failed (exit %d)" % (args.workload, proc.returncode),
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


def contract_line(record, trace):
    """The result object: the manifest's metrics of this kind, taken from
    the record; None, with the reason on stderr, if one is missing, in
    another unit, or (end to end) not a positive number."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = record["metrics"].get(m["name"])
        why = None
        if got is None:
            why = "not measured"
        elif got["unit"] != m["unit"]:
            why = "unit %s, not %s" % (got["unit"], m["unit"])
        elif not trace and not got["value"] > 0:
            why = "value %r is not positive" % got["value"]
        if why:
            print("perfbench: %s: %s %s" % (record["workload"], m["name"], why),
                  file=sys.stderr)
            return None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


# --- compare ------------------------------------------------------------

def records(path):
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith('{"record"'):
                yield json.loads(line)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def compare(paths):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    sides = [list(records(path)) for path in paths]
    keys = sorted({(r["workload"], r["trace"], name)
                   for side in sides for r in side for name in r["metrics"]})
    worse = 0
    print("%-8s %-32s %-30s %-30s %s" % ("workload", "metric", "base median [q1, q3]",
                                         "new median [q1, q3]", "verdict"))
    for workload, trace, name in keys:
        vals = []
        meta = None
        for side in sides:
            xs = [r["metrics"][name]["value"] for r in side
                  if r["workload"] == workload and r["trace"] == trace
                  and name in r["metrics"]]
            meta = meta or next((r["metrics"][name] for r in side
                                 if r["workload"] == workload
                                 and name in r["metrics"]), None)
            vals.append(sorted(xs))
        cells = []
        for xs in vals:
            if xs:
                lo, hi = quartiles(xs)
                cells.append("%.5g [%.5g, %.5g] n=%d" % (statistics.median(xs), lo, hi, len(xs)))
            else:
                cells.append("-")
        verdict = "-"
        bound = bounds.get(name) if trace == 0 else None
        if all(vals):
            base, new = statistics.median(vals[0]), statistics.median(vals[1])
            lower = meta["better"] == "lower"
            change = (new - base) / base if base else 0.0
            if not lower:
                change = -change
            lo, hi = quartiles(vals[0])
            spread = (hi - lo) / base if base else 0.0
            all_better = (max(vals[1]) < min(vals[0]) if lower
                          else min(vals[1]) > max(vals[0]))
            if bound is None:
                verdict = "%+.1f%% (%s is better; no bound)" % (change * 100, meta["better"])
            elif change > bound:
                verdict = "WORSE by %.1f%% > bound %.0f%%" % (change * 100, bound * 100)
                worse += 1
            elif spread > bound and not all_better:
                # the base's own runs disagree by more than the bound
                verdict = "unresolved (base spread %.0f%% > bound %.0f%%)" % (
                    spread * 100, bound * 100)
            else:
                verdict = "ok (%+.1f%% worse, bound %.0f%%)" % (change * 100, bound * 100)
        print("%-8s %-32s %-30s %-30s %s" % (workload, name, cells[0], cells[1], verdict))
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args()
    if args.compare:
        return compare(args.compare)
    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seconds < 1:
        p.error("--workload, --seed, --seconds (>= 1) and --trace are required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
