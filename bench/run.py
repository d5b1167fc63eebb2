"""The minkdim benchmark: one command, one workload per run.

Usage (from the root of the repository):
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of cli-readme, covering, solve, exact (see bench/README.md).  The
run pins its environment (PYTHONPATH=src, one BLAS/OpenMP thread, no
MINKDIM_BUDGET) and all its processes to one CPU, runs the workload in its
own worker process, which checks every output, and times ``setup_s`` over
fresh interpreters before and after.  Every time it reports is calibrated
against the machine's current speed (``calib.py``).
Human-readable lines come first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5  # setup probes before the worker, and again after it
IMPORTTIME_REPEATS = 3
WORKER_TIMEOUT_S = 170

# op_ms_tail: this percentile of the ops' calibrated times (see bench/README.md).
TAIL_PERCENTILE = 90


def percentile(values: list[float], p: float) -> float:
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def time_setup(workload: str, env: dict, calibrator) -> list[float]:
    """Calibrated times of fresh interpreters importing minkdim.cli and
    running the workload's warm-up op."""
    from workloads import WARMUP

    times = []
    before = calibrator.measure()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", WARMUP[workload]], cwd=ROOT, env=env, check=True,
                       capture_output=True, timeout=60)
        dt = time.perf_counter() - t0
        after = calibrator.measure()
        times.append(calib.calibrated(dt, before, after))
        before = after
    return times


def import_times(env: dict) -> dict[str, float]:
    """Cumulative import seconds of minkdim, numpy and mpmath (-X importtime)."""
    samples: dict[str, list[float]] = {"minkdim": [], "numpy": [], "mpmath": []}
    for _ in range(IMPORTTIME_REPEATS):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import minkdim.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stderr
        for line in err.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1e6)
    return {f"import.{k}_s": statistics.median(v) for k, v in samples.items()}


def end_to_end(res: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    op_ms = res["op_ms"]
    pass_s = sum(op_ms) / 1e3
    cyl_s = res["cylinder_s"]
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "ops_per_s": (len(op_ms) / pass_s, "1/s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (percentile(op_ms, TAIL_PERCENTILE), "ms"),
        "cylinders_per_s": (res["cylinders"] / cyl_s if cyl_s else 0.0, "1/s"),
        "answered_ratio": (res["outcomes"].get("answered", 0) / res["attempted"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


LAYER_UNITS = {"self_s": "s", "calls": "count", "cylinders": "count", "evals": "count",
               "evals_per_root": "count", "overhead_s": "s"}


def per_layer(res: dict, env: dict) -> dict[str, tuple[float, str]]:
    metrics = {k: (v, LAYER_UNITS[k.rsplit(".", 1)[1]]) for k, v in res["layers"].items()}
    metrics.update({k: (v, "s") for k, v in import_times(env).items()})
    overhead = sum(res["op_ms"]) / 1e3 - res["untraced_pass_s"]
    metrics["tracing.overhead_s"] = (overhead, "s")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("cli-readme", "covering", "solve", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="tiny inputs, for bench/selftest.py")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "minkdim" / "__init__.py").is_file():
        print(f"error: no minkdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import env as bench_env

    # Every process of the run shares one CPU, the highest-numbered one: in a
    # small VM CPU 0 takes the device and most timer interrupts, and times
    # measured there spread much more.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = bench_env.pinned_env(ROOT)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    record = {**bench_env.record(ROOT), "pinned_cpu": cpu}
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    with calib.Calibrator() as calibrator:
        setup_times = [] if args.trace else time_setup(args.workload, env, calibrator)
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        if not args.trace:
            # Probes on both sides of the worker, so one slow spell of the
            # machine does not hit them all.
            setup_times += time_setup(args.workload, env, calibrator)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if args.trace:
        metrics = per_layer(res, env)
    else:
        metrics = end_to_end(res, statistics.median(setup_times))
    outcomes = res["outcomes"]
    attempted = res["attempted"]
    failed = outcomes.get("failed", 0)
    print(f"workload {args.workload} seed {args.seed} inputs sha256:{res['input_digest']} "
          f"({res['ops_per_pass']} ops per pass, {res['passes']} passes, trace {args.trace})")
    print("environment " + json.dumps(record))
    print(f"ops {attempted}: answered {outcomes.get('answered', 0)}, documented-defect errors "
          f"{outcomes.get('documented_error', 0)}, failed {failed}; "
          f"fail_ratio {1 - outcomes.get('answered', 0) / attempted:.4f}")
    if not args.trace:
        print(f"op times: calibrated, median of {res['passes']} passes for each of {res['ops_per_pass']} ops; "
              f"op_ms_tail is their p{TAIL_PERCENTILE}")
    else:
        print(f"spans written to {res['spans_file']}")
    print(f"calibration: median {res['calib_ms_median']:.4g} ms against {calib.CALIB_REF_S * 1e3:g} ms "
          f"at the reference speed; median pass as measured {res['raw_pass_s']:.4g} s")
    print("calibrated ms per pass by op kind " + json.dumps(res["kind_ms"]))
    for reason in res["failures"]:
        print(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
