"""Self-test of the benchmark at tiny sizes.

Usage (from the root of the repository): python3 bench/selftest.py

1. Runs every workload with ``--quick --seconds 1`` at ``--trace 0`` and
   ``--trace 1`` and asserts that each metric BENCHMARK.json names is printed
   with its unit, that the result is correct and that no op failed.
2. Feeds every oracle a result corrupted on purpose (one digit changed in a
   golden output, a root shifted by 1e-6, an exact value off by one ulp of
   its denominator, ...) and asserts that it is rejected, while the
   uncorrupted result is accepted.
3. Checks that the same seed builds the same inputs and another seed other
   inputs, that the calibration child answers and is stopped, and that the
   tracer wraps re-exported names and counts pulled cylinders toward the
   enumerating module.
Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calib  # noqa: E402
import golden  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def metrics_emitted() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            check(out.returncode == 0, f"{workload} trace {trace} exits 0 ({out.stderr[-300:]})")
            last = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{workload} result keys")
            check(last["correct"] and last["failed"] == 0, f"{workload} trace {trace} correct, no failures")
            for m in spec[key]:
                got = last["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{workload} trace {trace} emits {m['name']} in {m['unit']}")


def corrupt_digit(text: str, anchor: str) -> str:
    """Change the first digit after ``anchor``."""
    i = text.index(anchor) + len(anchor)
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def golden_oracle() -> None:
    for name, fmt, anchor in (
        ("verdict", "text", "dimension bounds: ["),
        ("bounds", "json", '"upper": '),
        ("construct", "csv", "1-2,"),
        ("eval-cf", "json", '"exact": "'),
        ("empirical", "csv", "\n4,"),
    ):
        want = golden.load_golden(name, fmt)
        check(golden.compare(fmt, want, want) is None, f"golden {name}.{fmt} accepts itself")
        check(golden.compare(fmt, want, corrupt_digit(want, anchor)) is not None,
              f"golden {name}.{fmt} rejects one changed digit")
    want = golden.load_golden("empirical", "text")
    timed = want.replace(want.split("cylinders, ")[1].split(" ms")[0], "999.9")
    check(golden.compare("text", want, timed) is None, "golden masks wall_time_ms")
    s_hat = want.split("s_hat = ")[1].split(" ")[0]
    shifted = want.replace(s_hat, repr(float(s_hat) + 1e-6))
    check(golden.compare("text", want, shifted) is not None, "golden rejects s_hat shifted by 1e-6")
    want = golden.load_golden("moran", "json")
    root = json.loads(want)["result"]["moran_root"]["s"]
    check(golden.compare("json", want, want.replace(root, root[:-1] + "0" if root[-1] != "0" else root[:-1] + "1")) is None,
          "golden lets the 20th digit of a Moran root move")
    check(golden.compare("json", want, want.replace(root, root[:8] + "9" + root[9:])) is not None,
          "golden rejects a Moran root changed in its 7th decimal")


def covering_oracle() -> None:
    import minkdim as m

    refs = oracles.load_refs()
    digits = (1, 2)
    est = m.estimate_series(m.DigitSet(digits), range(1, 6), m.Side.DOMAIN)
    check(oracles.check_covering(digits, "domain", est, 1e-10, refs) is None, "covering domain accepts")
    bad = [e.__class__(**{**e.__dict__, "s_hat": e.s_hat + 1e-6}) for e in est]
    check(oracles.check_covering(digits, "domain", bad, 1e-10, refs) is not None, "covering domain rejects +1e-6")
    est = m.estimate_series(m.DigitSet(digits), range(2, 6), m.Side.IMAGE)
    s = float(m.moran_root(m.DigitSet(digits)).s)
    check(oracles.check_covering(digits, "image", est, 1e-10, refs, s) is None, "covering image accepts")
    bad = [e.__class__(**{**e.__dict__, "s_hat": e.s_hat + 1e-6}) for e in est]
    check(oracles.check_covering(digits, "image", bad, 1e-10, refs, s) is not None, "covering image rejects +1e-6")


def solve_oracle() -> None:
    import minkdim as m
    from mpmath import mpf

    digits = (3, 17, 250, 4000)
    root = m.moran_root(m.DigitSet(digits), 1e-12)
    check(oracles.check_moran(digits, 1e-12, root) is None, "moran oracle accepts")
    shifted = root.__class__(root.s + mpf("1e-6"), root.residual, root.iterations, root.bracket)
    check(oracles.check_moran(digits, 1e-12, shifted) is not None, "moran oracle rejects root + 1e-6")
    flipped = root.__class__(root.s, root.residual, root.iterations, root.bracket[::-1])
    check(oracles.check_moran(digits, 1e-12, flipped) is not None, "moran oracle rejects a bracket without sign change")
    v = m.preservation_verdict(40)
    check(oracles.check_verdict(40, v) is None, "verdict oracle accepts")
    bad = v.__class__(**{**v.__dict__, "gap": v.gap + 1e-9})
    check(oracles.check_verdict(40, bad) is not None, "verdict oracle rejects a shifted gap")


def exact_oracle() -> None:
    import minkdim as m

    value = lambda p, q: m.minkowski_finite(m.cf_from_rational(p, q)).as_fraction()  # noqa: E731
    items = [(p, q, value(p, q)) for p, q in ((2, 3), (123456789, 987654321), (5, 8))]
    check(oracles.check_finite_batch(items, value) is None, "finite oracle accepts")
    p, q, v = items[1]
    bad = items[:1] + [(p, q, v + Fraction(1, v.denominator))] + items[2:]
    check(oracles.check_finite_batch(bad, value) is not None, "finite oracle rejects a value off by one ulp")

    periodic = lambda pre, per: m.minkowski_periodic(m.ContinuedFraction(pre, per))  # noqa: E731
    items = [(pre, per, periodic(pre, per)) for pre, per in (((), (1,)), ((2,), (1, 2)), ((1, 5), (3,)))]
    check(oracles.check_periodic_batch(items, periodic) is None, "periodic oracle accepts")
    pre, per, v = items[2]
    bad = items[:2] + [(pre, per, v + Fraction(1, 2**40))]
    check(oracles.check_periodic_batch(bad, periodic) is not None, "periodic oracle rejects a shifted value")

    import contextlib
    import io

    for fmt, anchor in (("text", "sup "), ("json", '"diameter": {\n'), ("csv", "\n1-2-1,")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            m.cli.main(["construct", "--digits", "1,2,5", "--depth", "3", "--format", fmt])
        text = buf.getvalue()
        check(oracles.check_construct((1, 2, 5), 3, fmt, text) is None, f"construct oracle accepts {fmt}")
        check(oracles.check_construct((1, 2, 5), 3, fmt, corrupt_digit(text, anchor)) is not None,
              f"construct oracle rejects one changed digit in {fmt}")


def inputs_reproducible() -> None:
    for w in workloads.WORKLOADS:
        digest = workloads.input_digest(workloads.build(w, 5, quick=True))
        check(digest == workloads.input_digest(workloads.build(w, 5, quick=True)), f"{w}: same seed, same inputs")
        check(digest != workloads.input_digest(workloads.build(w, 6, quick=True)), f"{w}: another seed, other inputs")


def calibration() -> None:
    with calib.Calibrator() as calibrator:
        times = [calibrator.measure() for _ in range(3)]
        proc = calibrator.proc
    check(all(0 < t < 1 for t in times), "calibrator answers with positive times")
    check(proc.returncode is not None, "calibrator child is waited for on close")
    check(abs(calib.calibrated(2.0, calib.CALIB_REF_S, calib.CALIB_REF_S) - 2.0) < 1e-12,
          "a time at the reference speed is unchanged by calibration")
    check(abs(calib.calibrated(2.0, 2 * calib.CALIB_REF_S, 2 * calib.CALIB_REF_S) - 1.0) < 1e-12,
          "a time measured at half the reference speed is halved")


def tracer_counts() -> None:
    import minkdim
    import minkdim.empirical_dim

    tracer = Tracer()
    tracer.install()
    check(getattr(minkdim.estimate_series, "__wrapped_by_tracer__", False), "tracer wraps the re-export in minkdim")
    check(getattr(minkdim.empirical_dim.enumerate_cylinders, "__wrapped_by_tracer__", False),
          "tracer wraps the binding imported into empirical_dim")
    tracer.begin_op(0, "selftest")
    minkdim.estimate_series(minkdim.DigitSet((1, 2)), [6], minkdim.Side.DOMAIN)
    minkdim.moran_root(minkdim.DigitSet((1, 2)))
    tracer.end_op()
    layers = summarize(tracer.spans, tracer.counters)
    check(layers["empirical_dim.cylinders"] == 64, "tracer counts 64 cylinders pulled by empirical_dim")
    check(layers["cf_core.self_s"] > 0 and layers["moran_solver.evals"] > 0, "tracer attributes time and evals")
    check(layers["moran_solver.evals_per_root"] > 1, "tracer counts evals per root")


if __name__ == "__main__":
    import minkdim.cli  # noqa: F401  (binds minkdim.cli for the oracles)

    golden_oracle()
    covering_oracle()
    solve_oracle()
    exact_oracle()
    inputs_reproducible()
    calibration()
    tracer_counts()
    metrics_emitted()
    print("selftest passed")
