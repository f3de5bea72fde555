#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload predict-v2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds `tsda_serve`, `tsda_router`
(the repository workspace) and the `perfbench` package into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
binary. Its last stdout line is the JSON result; build output and the
human-readable report go to stderr. The binary and every server it
spawns run in their own process group, which is killed if the run
overruns its time limit.

    python3 perfbench/run.py --spread [--runs 10] [--workloads a,b] [--seconds S]

runs each workload with seeds 1..runs and prints, per end-to-end
metric, the median and the interquartile distance as a share of the
median (`statistics.quantiles(values, n=4)`), next to the metric's
bound in BENCHMARK.json.
"""

import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run must end within 180 s; leave room for reaping.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 890


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build")).resolve()


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "tsda-serve",
         "--bin", "tsda_serve", "--bin", "tsda_router"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
    ]
    if not (ROOT / "Cargo.toml").is_file():
        sys.exit("perfbench: no repository workspace (Cargo.toml) beside perfbench/")
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def run_once(args):
    """Run the benchmark binary; return (exit code, stdout text)."""
    binary = target_dir() / "release" / "perfbench"
    cmd = [str(binary), *args, "--root", str(ROOT), "--bin-dir", str(target_dir() / "release")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit("perfbench: run exceeded its time limit; killed its process group")
    finally:
        # Reap anything left in the group (a crashed binary's servers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
    return proc.returncode, out


def spread(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    opts = dict(zip(argv[::2], argv[1::2]))
    runs = int(opts.get("--runs", 10))
    seconds = opts.get("--seconds", str(spec["run_seconds"]))
    names = opts.get("--workloads")
    workloads = names.split(",") if names else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        values = {m: [] for m in bounds}
        for seed in range(1, runs + 1):
            code, out = run_once(["--workload", w, "--seed", str(seed), "--seconds", seconds,
                                  "--trace", "0"])
            result = json.loads(out.strip().splitlines()[-1])
            if code != 0 or not result["correct"]:
                sys.exit(f"perfbench: {w} seed {seed} failed (exit {code})")
            for m in values:
                values[m].append(result["metrics"][m]["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{m}={v[-1]:.6g}" for m, v in values.items()),
                  file=sys.stderr)
        for m, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print(f"{w:<24} {m:<16} median {med:12.6g}  spread {(q3 - q1) / med:7.4f}"
                  f"  bound {bounds[m]}  ({'ok' if (q3 - q1) / med < bounds[m] / 3 else 'WIDE'})")


def main():
    argv = sys.argv[1:]
    build()
    if argv[:1] == ["--spread"]:
        spread(argv[1:])
        return
    code, out = run_once(argv)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
