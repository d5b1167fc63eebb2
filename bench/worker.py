"""One workload in its own process: a closed loop with one client.

Usage (from the root of the repository, with PYTHONPATH=src):
    python bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--quick]

The op list is built once from the seed and run pass after pass; the next op
starts only after the previous one returns.  Each output is checked outside
the timed region: fully the first time an op answers, and afterwards by
comparing a fingerprint with the output already verified for that op.  Each
op is bracketed by calibrations from a child process (``calib.py``), and its
time is reported calibrated.  The loop runs whole passes, at least one, for
about S seconds.  With ``--trace 1`` it runs passes untraced for S/2 seconds,
then passes under the tracer for S/2 seconds; the spans go to
``.bench_out/spans-<workload>-<seed>.json``.  The last stdout line is a JSON
object that ``bench/run.py`` turns into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter

import calib
import workloads
from env import ROOT
from tracer import Tracer, rebase, summarize

OUT = ROOT / ".bench_out"
OVERRUN = 1.25


class ChildSpans:
    """Tracer stand-in for cli-readme: each traced CLI child dumps its spans."""

    def __init__(self, workload: str, seed: int):
        self.dir = OUT / f"child-spans-{workload}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[list] = []
        self.counters = {"evals": 0, "roots": 0}

    def child_spans_path(self, op_id: int):
        return self.dir / f"{op_id}.json"

    def collect_child(self, path) -> None:
        if path.exists():
            dump = json.loads(path.read_text(encoding="utf-8"))
            self.spans += rebase(dump["spans"], len(self.spans))
            for k, v in dump["counters"].items():
                self.counters[k] += v
            path.unlink()

    def begin_op(self, op_id, name) -> None:
        pass

    def end_op(self) -> None:
        pass

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
        self.dir.rmdir()


class Loop:
    """Runs whole passes of the op list and keeps per-op latencies and outcomes."""

    def __init__(self, ops: list[workloads.Op]):
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]  # calibrated, per pass
        self.raw: list[list[float]] = [[] for _ in ops]  # as measured, per pass
        self.calibrations: list[float] = []
        self.answered = [True] * len(ops)
        self.outcomes: Counter = Counter()
        self.failures: list[str] = []
        self.verified: dict[int, str] = {}

    def run(self, seconds: float, calibrator, tracer=None) -> None:
        """Whole passes for about ``seconds``: another pass starts only if the
        last one, repeated, would end within OVERRUN of the deadline."""
        deadline = time.perf_counter() + seconds * OVERRUN
        while True:
            t0 = time.perf_counter()
            gc.collect()
            calib_s = calibrator.measure()
            for i, op in enumerate(self.ops):
                calib_s = self.one(i, op, calibrator, calib_s, tracer)
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                return

    def one(self, i: int, op: workloads.Op, calibrator, calib_before: float, tracer) -> float:
        """Runs op ``i`` once; returns the calibration taken right after it,
        which is also the one before the next op."""
        if tracer is not None:
            tracer.begin_op(i, op.kind)
        error = None
        t0 = time.perf_counter()
        try:
            out = op.run(tracer)
        except op.defect:
            outcome = "documented_error"
        except Exception as exc:  # any other error is a failed op
            outcome, error = "failed", f"{type(exc).__name__}: {exc}"
        else:
            outcome = "answered"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        calib_after = calibrator.measure()
        self.raw[i].append(dt)
        self.times[i].append(calib.calibrated(dt, calib_before, calib_after))
        self.calibrations.append(calib_after)
        if outcome == "answered":
            error = self.verify(i, op, out)
            if error:
                outcome = "failed"
        if outcome != "answered":
            self.answered[i] = False
        self.outcomes[outcome] += 1
        if error and len(self.failures) < 10:
            self.failures.append(f"{op.kind} {op.inputs!r:.80}: {error}")
        # Collect this op's garbage here, untimed, so it is not charged to
        # whichever op the seed-shuffled order puts next.
        gc.collect()
        return calib_after

    def verify(self, i: int, op: workloads.Op, out) -> str | None:
        fp = op.fingerprint(out) if op.fingerprint else None
        if fp is not None and self.verified.get(i) == fp:
            return None
        error = op.check(out)
        if error is None and fp is not None:
            self.verified[i] = fp
        return error

    def op_s(self) -> list[float]:
        """Each op's median calibrated time across passes (see calib.py)."""
        return [statistics.median(t) for t in self.times]

    def summary(self) -> dict:
        op_s = self.op_s()
        kinds: dict[str, list[float]] = {}
        for op, t in zip(self.ops, op_s):
            kinds.setdefault(op.kind, []).append(t * 1e3)
        answered = [(op.cylinders, t) for op, t, ok in zip(self.ops, op_s, self.answered) if ok and op.cylinders]
        return {
            "passes": len(self.times[0]),
            "kind_ms": {k: round(sum(v), 3) for k, v in sorted(kinds.items())},
            "op_ms": [t * 1e3 for t in op_s],
            "raw_pass_s": statistics.median(map(sum, zip(*self.raw))),
            "calib_ms_median": statistics.median(self.calibrations) * 1e3,
            "attempted": sum(len(t) for t in self.times),
            "outcomes": dict(self.outcomes),
            "failures": self.failures,
            "cylinders": sum(c for c, _ in answered),
            "cylinder_s": sum(b for _, b in answered),
        }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-readme" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.quick)
    exec(workloads.WARMUP[args.workload], {})
    result = {"input_digest": workloads.input_digest(ops), "ops_per_pass": len(ops)}
    with calib.Calibrator() as calibrator:
        if not args.trace:
            loop = Loop(ops)
            loop.run(args.seconds, calibrator)
            # Before the calibrator is waited for, so that on cli-readme
            # RUSAGE_CHILDREN covers only the CLI children.
            result.update(loop.summary(), peak_rss_mb=peak_rss_mb(args.workload))
        else:
            plain = Loop(ops)
            plain.run(args.seconds / 2, calibrator)
            if args.workload == "cli-readme":
                tracer = ChildSpans(args.workload, args.seed)
            else:
                tracer = Tracer()
                tracer.install()
            traced = Loop(ops)
            traced.run(args.seconds / 2, calibrator, tracer)
            spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
            tracer.dump(spans_file)
            passes = len(traced.times[0])
            layers = {
                k: v if k.endswith("_per_root") else v / passes
                for k, v in summarize(tracer.spans, tracer.counters).items()
            }
            result.update(
                traced.summary(),
                attempted=sum(map(len, plain.times + traced.times)),
                outcomes=dict(plain.outcomes + traced.outcomes),
                failures=(plain.failures + traced.failures)[:10],
                untraced_pass_s=sum(plain.op_s()),
                layers=layers,
                spans_file=str(spans_file.relative_to(ROOT)),
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
