#!/usr/bin/env python3
"""Runs the benchmark over several seeds and appends each result to a JSONL file.

    python3 perfbench/sweep.py --out results/parent.jsonl --seeds 1-10 \
        [--workloads ingest,serve] [--seconds N] [--trace 0|1]

Run it from the repository root.  Each output line is
{"workload": ..., "seed": ..., "trace": ..., "exit": <exit code>,
 "result": <the benchmark's JSON line, or null when the run printed none>}.
Every run is recorded whatever its exit code: a run whose output check failed
still prints its result, with "correct": false, and diff.py flags it.
Workloads and run length default to those in BENCHMARK.json.  Compare two
files with perfbench/diff.py.
"""

import argparse
import json
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def last_json(stdout):
    """The run's result line, or None when the last line is not one."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    with open(args.out, "a") as out:
        for seed in seeds(args.seeds):
            for workload in args.workloads.split(","):
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", args.trace,
                ]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
                result = last_json(proc.stdout)
                rec = {"workload": workload, "seed": seed, "trace": int(args.trace),
                       "exit": proc.returncode, "result": result}
                # A run that printed no result (a panic) is recorded too, with
                # "result": null, so diff.py sees that a seed is missing.
                out.write(json.dumps(rec) + "\n")
                out.flush()
                if result is None:
                    tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
                    print(f"{workload} seed {seed}: exit {proc.returncode}, no result\n{tail}",
                          file=sys.stderr)
                else:
                    print(f"{workload} seed {seed}: exit {proc.returncode}, "
                          f"correct={result['correct']}", file=sys.stderr)


if __name__ == "__main__":
    main()
