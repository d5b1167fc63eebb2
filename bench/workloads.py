"""Seeded op lists for the four workloads.

Every op draws its inputs from ``random.Random(f"{workload}:{seed}")``, so the
same seed gives the same inputs; ``input_digest`` hashes them for the run
record.  The program only ever sees the generated inputs.  Op costs are
stratified (fixed digit-set sizes and depths per op class, values drawn
within a class), so the work in a pass barely depends on the seed.

Every in-process workload also runs ``slice_ops()``: four cheap in-process
CLI commands that together touch all eight modules, so each per-layer metric
is measured on every workload.  They are a few percent of a pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import golden
import oracles
from env import ROOT, pinned_env

WORKLOADS = ("cli-readme", "covering", "solve", "exact")

# The warm-up op of each workload; setup_s times a fresh interpreter running
# ``import minkdim.cli`` plus this snippet, and the worker runs it untimed.
WARMUP = {
    "cli-readme": "import contextlib, io, minkdim.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    minkdim.cli.main(['verdict', '--n', '9'])",
    "covering": "import minkdim.cli, minkdim as m\n"
    "m.estimate_series(m.DigitSet((1, 2)), range(1, 9), m.Side.DOMAIN)\n"
    "m.estimate_series(m.DigitSet((1, 2)), range(1, 9), m.Side.IMAGE)",
    "solve": "import minkdim.cli, minkdim as m\n"
    "m.moran_root(m.DigitSet(tuple(range(1, 10))))\n"
    "m.preservation_verdict(9)",
    "exact": "import minkdim.cli, minkdim as m\n"
    "m.minkowski_finite(m.cf_from_rational(2, 3))\n"
    "m.minkowski_periodic(m.ContinuedFraction((2,), (1, 2)))",
}

# Covering shapes: (digit count, digit range, depth).  Domain inputs come
# from these finite pools, so their reference roots can be recorded once.
WIDE = (9, 11, 5)  # S = 9 like {1..9}; 66k cylinders over depths 1..5
NARROW = (2, 5, 15)  # S = 2 small digits, deep; 65k cylinders over depths 1..15
MID = (3, 6, 9)  # S = 3; 30k cylinders over depths 1..9
UNDERFLOW_BITS = 1075  # 2^-1075 rounds to zero in float64


@dataclass
class Op:
    kind: str
    inputs: tuple
    run: Callable[[Any], Any]  # takes the tracer (or None), returns the output
    check: Callable[[Any], "str | None"]
    defect: tuple = ()  # errors this input raises through a documented defect
    cylinders: int = 0  # cylinders enumerated when the op answers
    fingerprint: Callable[[Any], str] | None = field(default=repr)


def input_digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.kind, op.inputs)).encode())
    return h.hexdigest()[:16]


def domain_pool():
    """Every (digits, max depth) a domain-side covering op can draw."""
    for size, top, depth in (WIDE, NARROW, MID):
        for digits in combinations(range(1, top + 1), size):
            yield digits, depth


def _m():
    # Imported on first use: run.py imports this module for WARMUP without
    # src/ on its path.
    import minkdim
    import minkdim.cli  # noqa: F401  (binds minkdim.cli)

    return minkdim


def _cli_inprocess(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = _m().cli.main(argv)
    return rc, buf.getvalue()


def _cli_check(check_text: Callable[[str], "str | None"]):
    def check(out):
        rc, text = out
        return f"exit code {rc}" if rc != 0 else check_text(text)

    return check


def _golden_check(name: str, fmt: str):
    want = golden.load_golden(name, fmt)
    return _cli_check(lambda text: golden.compare(fmt, want, text))


def _image_json_check(digits, tol):
    def check_text(text):
        series = [SimpleNamespace(**d) for d in json.loads(text)["result"]["series"]]
        return oracles.check_covering(digits, "image", series, tol, None, _moran_float(digits))

    return _cli_check(check_text)


def _moran_float(digits) -> float:
    m = _m()
    return float(m.moran_root(m.DigitSet(tuple(digits))).s)


def slice_ops() -> list[Op]:
    """In-process CLI commands covering cli, report and all six library modules."""
    specs = [
        (["verdict", "--n", "9", "--format", "text"], _golden_check("verdict", "text"), 0),
        (["eval", "--rational", "2/3", "--format", "json"], _golden_check("eval-rational", "json"), 0),
        (["construct", "--digits", "1,2", "--depth", "2", "--format", "csv"], _golden_check("construct", "csv"), 0),
        (
            ["empirical", "--digits", "1,2", "--side", "image", "--depths", "1..8", "--format", "json"],
            _image_json_check((1, 2), 1e-10),
            2**9 - 2,
        ),
    ]
    return [
        Op("slice-cli", tuple(argv), lambda tr, a=argv: _cli_inprocess(a), check, cylinders=cyl)
        for argv, check, cyl in specs
    ]


# -- cli-readme -----------------------------------------------------------------
def _subprocess_cli(argv: list[str], tracer, op_id: int):
    env = pinned_env()
    if tracer is None:
        cmd = [sys.executable, "-m", "minkdim.cli", *argv]
    else:
        spans = tracer.child_spans_path(op_id)
        cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(spans), str(op_id), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    if tracer is not None:
        tracer.collect_child(spans)
    return proc.returncode, proc.stdout


def cli_readme(rng: random.Random, quick: bool) -> list[Op]:
    formats = ("text",) if quick else golden.FORMATS
    specs = [(name, fmt) for name in golden.README_COMMANDS for fmt in formats]
    rng.shuffle(specs)
    ops = []
    for i, (name, fmt) in enumerate(specs):
        argv = golden.cli_argv(name, fmt)
        cyl = 9**3 + 9**4 + 9**5 if name == "empirical" else 0
        ops.append(
            Op(
                f"cli-{name}",
                (name, fmt),
                lambda tr, a=argv, i=i: _subprocess_cli(a, tr, i),
                _golden_check(name, fmt),
                cylinders=cyl,
                fingerprint=None,
            )
        )
    return ops


# -- covering -------------------------------------------------------------------
def _covering_op(kind, digits, depth, side, refs) -> Op:
    m = _m()
    tol = 1e-10
    defect = ()
    if side == "image" and depth * digits[-1] >= UNDERFLOW_BITS:
        defect = (m.ToleranceError,)  # image lengths underflow float64

    def run(tr):
        return m.estimate_series(m.DigitSet(digits), range(1, depth + 1), m.Side(side))

    def check(estimates):
        moran_s = _moran_float(digits) if side == "image" else None
        return oracles.check_covering(digits, side, estimates, tol, refs, moran_s)

    def fingerprint(estimates):
        return repr([(e.depth, e.cylinder_count, e.s_hat, e.sum_at_root) for e in estimates])

    cyl = sum(len(digits) ** d for d in range(1, depth + 1))
    return Op(kind, (digits, depth, side), run, check, defect, cyl, fingerprint)


def covering(rng: random.Random, quick: bool) -> list[Op]:
    refs = oracles.load_refs()

    def draw(shape):
        size, top, depth = shape
        return tuple(sorted(rng.sample(range(1, top + 1), size))), depth - (2 if quick else 0)

    ops = []
    for _ in range(1 if quick else 2):
        digits, depth = draw(WIDE)
        ops.append(_covering_op("wide-domain", digits, depth, "domain", refs))
        digits, depth = draw(WIDE)
        ops.append(_covering_op("wide-image", digits, depth - 1, "image", refs))
        digits, depth = draw(NARROW)
        ops.append(_covering_op("narrow-domain", digits, depth, "domain", refs))
        digits, depth = draw(NARROW)
        ops.append(_covering_op("narrow-image", digits, depth - 2, "image", refs))
        digits, depth = draw(MID)
        ops.append(_covering_op("mid-domain", digits, depth, "domain", refs))
        # Large digits on the image side: digit sums past 1074 underflow.
        big = tuple(sorted(rng.sample(range(180, 401), 2)))
        ops.append(_covering_op("large-image", big, 6, "image", refs))
    # A third mid-domain op puts the median op of a pass inside that class
    # rather than on the boundary between two classes.
    digits, depth = draw(MID)
    ops.append(_covering_op("mid-domain", digits, depth, "domain", refs))
    ops += slice_ops()
    rng.shuffle(ops)
    return ops


# -- solve ------------------------------------------------------------------------
MORAN_SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 300)
DIGIT_TOPS = (30, 300, 3000, 10_000)
VERDICT_DEFECT_N = 129  # preservation_verdict(n) raises for n >= 129


def solve(rng: random.Random, quick: bool) -> list[Op]:
    m = _m()
    ops = []
    sizes = MORAN_SIZES[:4] if quick else MORAN_SIZES
    for i, size in enumerate(sizes):
        top = max(DIGIT_TOPS[i % len(DIGIT_TOPS)], 2 * size)
        digits = tuple(sorted(rng.sample(range(1, top + 1), size)))
        tol = 2.0 ** rng.uniform(-50, -10)  # the CLI accepts [2^-50, 1e-3]
        ops.append(
            Op(
                "moran",
                (digits, tol),
                lambda tr, d=digits, t=tol: m.moran_root(m.DigitSet(d), t),
                lambda root, d=digits, t=tol: oracles.check_moran(d, t, root),
            )
        )
    strata = 4 if quick else 14
    ns = [rng.randint(9 + i * 120 // strata, 8 + (i + 1) * 120 // strata) for i in range(strata)]
    ns += [rng.randint(VERDICT_DEFECT_N, 200) for _ in range(1 if quick else 2)]
    for n in ns:
        ops.append(
            Op(
                "verdict",
                (n,),
                lambda tr, n=n: m.preservation_verdict(n),
                lambda v, n=n: oracles.check_verdict(n, v),
                defect=(ValueError, m.ToleranceError) if n >= VERDICT_DEFECT_N else (),
            )
        )
    ops += slice_ops()
    rng.shuffle(ops)
    return ops


# -- exact --------------------------------------------------------------------------
CONSTRUCT_SHAPES = ((2, 6, 12), (4, 8, 6), (8, 12, 4))  # 4096 cylinders each
# ?(p/q) has a 2^-(sum of partial quotients) term, so one huge partial
# quotient would make an op arbitrarily expensive; about 8% of uniform
# 30-digit rationals exceed this cap and are redrawn.
MAX_PARTIAL_QUOTIENT = 1000


def _primitive(word: tuple) -> tuple:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _finite_value(p: int, q: int):
    m = _m()
    return m.minkowski_finite(m.cf_from_rational(p, q)).as_fraction()


def _periodic_value(pre: tuple, period: tuple):
    m = _m()
    return m.minkowski_periodic(m.ContinuedFraction(pre, period))


def _construct_op(i: int, digits: tuple, depth: int, fmt: str) -> Op:
    m = _m()
    out = ROOT / ".bench_out" / "tmp" / f"construct-{i}.{golden.SUFFIX[fmt]}"
    out.parent.mkdir(parents=True, exist_ok=True)
    argv = ["construct", "--digits", ",".join(map(str, digits)), "--depth", str(depth),
            "--format", fmt, "--out", str(out)]

    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        return oracles.check_construct(digits, depth, fmt, out.read_text(encoding="utf-8"))

    return Op("construct", (digits, depth, fmt), lambda tr: m.cli.main(argv), check, fingerprint=None)


def exact(rng: random.Random, quick: bool) -> list[Op]:
    m = _m()
    ops = []
    finite, periodic, batch = (2, 1, 10) if quick else (16, 8, 100)
    for _ in range(finite):
        pairs = []
        while len(pairs) < batch:
            q = rng.randrange(10**29, 10**30)
            p = rng.randrange(1, q)
            if max(m.cf_from_rational(p, q).preperiod) <= MAX_PARTIAL_QUOTIENT:
                pairs.append((p, q))
        ops.append(
            Op(
                "finite",
                tuple(pairs),
                lambda tr, ps=pairs: [(p, q, m.minkowski_finite(m.cf_from_rational(p, q))) for p, q in ps],
                lambda out: oracles.check_finite_batch(
                    [(p, q, v.as_fraction()) for p, q, v in out], _finite_value
                ),
                fingerprint=lambda out: str(hash(tuple((v.mantissa, v.exponent) for _, _, v in out))),
            )
        )
    for _ in range(periodic):
        cfs = []
        for _ in range(batch // 2):
            pre = tuple(rng.randint(1, 20) for _ in range(rng.randint(0, 4)))
            period = _primitive(tuple(rng.randint(1, 20) for _ in range(rng.randint(1, 6))))
            cfs.append((pre, period))
        ops.append(
            Op(
                "periodic",
                tuple(cfs),
                lambda tr, cs=cfs: [(pre, per, m.minkowski_periodic(m.ContinuedFraction(pre, per))) for pre, per in cs],
                lambda out: oracles.check_periodic_batch(out, _periodic_value),
                fingerprint=lambda out: str(hash(tuple(v for _, _, v in out))),
            )
        )
    for i, ((size, top, depth), fmt) in enumerate(product(CONSTRUCT_SHAPES, golden.FORMATS)):
        digits = tuple(sorted(rng.sample(range(1, top + 1), size)))
        ops.append(_construct_op(i, digits, depth - (2 if quick else 0), fmt))
    ops += slice_ops()
    rng.shuffle(ops)
    return ops


BUILDERS = {"cli-readme": cli_readme, "covering": covering, "solve": solve, "exact": exact}


def build(workload: str, seed: int, quick: bool = False) -> list[Op]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), quick)
