"""Run the benchmark over several seeds and keep every result.

    python3 perfbench/sweep.py --out runs/parent.jsonl [--workloads a,b] [--seeds 1-10]
                               [--seconds N] [--trace 0|1]

Each run is one `perfbench/run.py` process, started the way any single run
is; each line of the output file is
{"workload", "seed", "trace", "elapsed_s", "env", "result"}, where `env` is
the run's recorded environment (nproc, heap, Spark master, passes, samples). Workloads and seeds
alternate run by run so slow drift of the machine spreads over all of them.
Read the file with compare.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    os.makedirs(os.path.dirname(os.path.abspath(a.out)), exist_ok=True)
    failures = 0
    for seed in seeds(a.seeds):
        for w in a.workloads.split(","):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
            t0 = time.time()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            elapsed = time.time() - t0
            lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
            env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env {")), None)
            try:
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            except ValueError:
                result = None
            ok = result is not None and result.get("correct") is True
            failures += not ok
            print(f"{w} seed={seed} trace={a.trace} {elapsed:.1f}s "
                  f"{'ok' if ok else 'FAILED (exit %d)' % proc.returncode}", flush=True)
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": seed, "trace": a.trace,
                                    "elapsed_s": round(elapsed, 1), "env": env,
                                    "result": result}) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
