#!/usr/bin/env python3
"""tzllm benchmark: one command, two workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 40 \
        --trace 0

Run from the repository root. It builds perfbench/tzbench.cc against the
library (CMake, Release, into .bench_build/perfbench), runs the named
workload for --seconds of timed work, checks every output token against the
unprotected reference engine, and prints a report followed, as its last
line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(names, units and the workload each should move are in BENCHMARK.json and
perfbench/stats.py). The exit code is 0 only when every request completed
with the reference's tokens.

Workloads:
  cold-start  a request reaches a TA with no model resident: fresh LlmTa,
              LoadModel (restoration), BeginSession with NPU prefill, a
              short decode, Unload.
  chat-serve  a warm TA serves bursts of chat requests sharing a system
              prompt: batched decode, chunked prefill, prefix adoption with
              copy-on-write, checkpoint preemption. Its pool never spills;
              the traced run adds one burst over a smaller pool for the KV
              page spill/restore figures.

Environment variables that change what is measured (the CI fault and SIMD
legs set them) make the benchmark refuse to run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import stats  # noqa: E402

WORKLOADS = ("cold-start", "chat-serve")
REFUSED_ENV = ("TZLLM_FAULT_PLAN", "TZLLM_SERVE_FAULT_PLAN", "TZLLM_SIMD")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

UNITS = {
    "setup_s": "s",
    "ttft_ms.p50": "ms",
    "itl_ms.p50": "ms",
    "itl_ms.p90": "ms",
    "tokens_per_s": "1/s",
    "secure_mem_mb": "MB",
    "peak_rss_mb": "MB",
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds tzbench; a no-op when it is up to date."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "tzbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "tzbench")


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    armed = [v for v in REFUSED_ENV if os.environ.get(v)]
    if armed:
        fail(f"refusing to run with {', '.join(armed)} set: each changes "
             "what is measured")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode not in (0, 3):  # 3: ran, but outputs were wrong.
        fail(f"tzbench exited with {proc.returncode}")
    rec = json.loads(proc.stdout)

    meta = rec["meta"]
    check = rec["check"]
    # The spill probe's requests are token-checked too.
    attempted = sum(u["sent"] for u in rec["units"] + rec["spill_probe"])
    failed = check["mismatched"]
    prompt_tokens = sum(u["prompt_tokens"] for u in rec["units"])
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"model={meta['model']} nproc={meta['nproc']} cpu=\"{meta['cpu']}\" "
          f"simd={meta['simd']} n_threads={meta['n_threads']}")
    print(f"requests={attempted} prompt_tokens={prompt_tokens} "
          f"units={len(rec['units'])} timed_s={rec['timed_s']:.3f} "
          f"checked_outputs={check['requests']} failed={failed} "
          f"failed_frac={failed / max(attempted, 1):.6g}")
    print(f"host.ref_ms start={rec['host']['ref_ms_start']:.4f} "
          f"end={rec['host']['ref_ms_end']:.4f}")
    print("counts " + json.dumps(stats.counts(rec), sort_keys=True))

    if args.trace:
        computed = stats.per_layer(rec)
        units = {k: v[0] for k, v in stats.PER_LAYER.items()}
    else:
        computed = stats.end_to_end(rec)
        units = UNITS
        for name, (value, n) in stats.tail_report(rec).items():
            print(f"  {name:36s} {fmt(value):>14s} ms  (n={n}, report only)")
    metrics = {}
    for name, (value, n) in computed.items():
        print(f"  {name:36s} {fmt(value):>14s} {units[name]}  (n={n})")
        metrics[name] = {"value": value, "unit": units[name]}

    correct = failed == 0 and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
