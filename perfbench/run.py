#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload decode_accel --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (the library
sources under src/ plus the benchmark binary) into .bench_build/; later calls
rebuild incrementally. The binary's output is checked against BENCHMARK.json:
with --trace 0 the result must hold exactly the end_to_end metrics, with
--trace 1 exactly the per_layer metrics, each with its declared unit. The last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; --trace 1 also writes a Chrome trace (open it in Perfetto) and a
per-layer breakdown into .bench_build/trace/.

--self-test runs every workload briefly three ways -- clean, clean and
traced, and with one corrupted output plus one provoked exception -- and
fails unless the clean runs report no failure, the faulty run reports at
least two, and every printed metric name is declared in BENCHMARK.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then build incrementally; returns the binary path."""
    sources = os.path.join(ROOT, "src")
    if not os.path.isdir(sources) or not any(
        f.endswith(".cpp") for _, _, files in os.walk(sources) for f in files
    ):
        raise RuntimeError(f"no library sources under {sources}")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr,
            )
        subprocess.run(
            ["cmake", "--build", out, "-j", BUILD_JOBS],
            check=True, stdout=sys.stderr,
        )
    return os.path.join(out, "tfacc_bench")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace, inject_faults=False):
    """Run one workload; returns (stdout lines, parsed result)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
        "--out-dir", os.path.join(build_dir(), "trace"),
    ]
    if inject_faults:
        cmd.append("--inject-faults")
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: benchmark exited with {proc.returncode}")
    return lines, json.loads(lines[-1])


def validate(result, spec, trace):
    """Raise unless `result` has the contract's keys and exactly the metrics
    BENCHMARK.json declares for this mode, with their units."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    unknown = sorted(set(printed) - set(declared))
    missing = sorted(set(declared) - set(printed))
    if unknown or missing:
        raise ValueError(f"metrics not in BENCHMARK.json: {unknown}; missing: {missing}")
    for name, m in printed.items():
        if m.get("unit") != declared[name] or not isinstance(m.get("value"), (int, float)):
            raise ValueError(f"metric {name}: {m} (declared unit {declared[name]})")


def self_test(binary, spec):
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        for label, trace, faults in (
            ("clean", False, False), ("traced", True, False), ("faulty", False, True),
        ):
            _, res = run_binary(binary, name, 7, 1, trace, faults)
            validate(res, spec, trace)
            good = (res["failed"] >= 2 and not res["correct"]) if faults else (
                res["failed"] == 0 and res["correct"])
            log(f"self-test {name} {label}: attempted {res['attempted']}, "
                f"failed {res['failed']} -> {'ok' if good else 'WRONG'}")
            ok = ok and good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        binary = build()
        if args.self_test:
            return 0 if self_test(binary, spec) else 1
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise ValueError(f"unknown workload {args.workload!r}")
        lines, result = run_binary(
            binary, args.workload, args.seed, args.seconds, bool(args.trace))
        validate(result, spec, bool(args.trace))
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    print("\n".join(lines))  # the result line verbatim, every digit kept
    return 0


if __name__ == "__main__":
    sys.exit(main())
