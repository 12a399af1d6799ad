"""Airphant benchmark: three workloads, two clocks, answers checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed 1] [--seconds 6]
    python3 perfbench/run.py --selftest

Workloads (see BENCHMARK.json for why each exists): topk-hdfs, full-windows,
dsv2-spark. One run builds the benchmark if a source changed (build.py),
starts one JVM, builds the workload's corpus and index, checks every answer
against exact answers computed without the index, and prints the metrics;
the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones. `--workload all` runs
every workload with and without tracing and prints every metric by name.
Spans of traced runs land in .bench_build/perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ["topk-hdfs", "full-windows", "dsv2-spark"]
# A run must end within 180 s; the JVM stops querying well before this.
RUN_TIMEOUT_S = 175


def jvm(jars, args):
    """Run one benchmark JVM, echo its stdout, return (exit code, last line)."""
    extra = [f"-XX:SharedArchiveFile={build.CDS}"] if os.path.isfile(build.CDS) else []
    cmd = build.java_cmd(jars, args, extra=extra)
    last = ""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=build.ROOT,
                            env=build.java_env())
    killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line:
                last = line
                if not line.startswith("{"):
                    print(line, flush=True)
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    return code, last


def parse_result(line):
    try:
        r = json.loads(line)
    except ValueError:
        return None
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return r


def one(jars, workload, seed, seconds, trace):
    code, last = jvm(jars, ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)])
    result = parse_result(last)
    if code != 0 or result is None:
        print(f"[perfbench] run failed (exit {code})", file=sys.stderr)
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=6)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("give --workload or --selftest")
    try:
        jars = build.ensure_built()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    if a.selftest:
        code, _ = jvm(jars, ["--selftest"])
        return code
    if a.workload != "all":
        result = one(jars, a.workload, a.seed, a.seconds, a.trace)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0

    summary = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            print(f"== {w} trace={trace} seed={a.seed} seconds={a.seconds}", flush=True)
            result = one(jars, w, a.seed, a.seconds, trace)
            if result is None:
                return 1
            summary.setdefault(w, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}})
            s = summary[w]
            s["correct"] = s["correct"] and result["correct"]
            s["attempted"] += result["attempted"]
            s["failed"] += result["failed"]
            s["metrics"].update(result["metrics"])
    for w, s in summary.items():
        print(f"== {w}: attempted {s['attempted']}, failed {s['failed']}, "
              f"failed_frac {s['failed'] / max(1, s['attempted'])}")
        for name, m in s["metrics"].items():
            print(f"   {w} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": all(s["correct"] for s in summary.values()),
                      "attempted": sum(s["attempted"] for s in summary.values()),
                      "failed": sum(s["failed"] for s in summary.values()),
                      "workloads": summary}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
