#!/usr/bin/env python3
"""Benchmark of the lenspoly command line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-large --seed 1 --seconds 30 --trace 0

Every operation is one call of ``lenspoly.cli.main`` in this process, with
stdout captured; its exit code, stdout and the files it writes are checked
against goldens recorded at a reference commit (``goldens.json``).  Sweep and
verify exit 1 by design (the literal reading of the theorem has
violations), so 1 is the expected code there.

Workloads (see README.md for the reasons behind each one):

* ``sweep-large``: fresh CSV ``sweep`` and ``verify`` at ``--jobs 2`` over
  p <= 640; before, between and after them, ``curve``/``matrix`` twice
  round the 25 pairs ``verify`` prints.
* ``sweep-resume``: serial JSONL ``sweep`` to p <= 100, a resume of the
  same report to p <= 200 (which must equal a fresh sweep byte for byte),
  serial ``verify``, then the printed pairs as above.
* ``curves``: ``curve --svg`` and ``matrix --kind dA`` on a seeded sample
  of 300 pairs, in 6 chunks, each after a quick serial ``sweep``/``verify``
  at p <= 100.

The two sweep workloads are exhaustive and do not depend on ``--seed``;
only the pair sample of ``curves`` does.  One untimed warm-up pass at
the ``TINY`` sizes comes first; then passes repeat until the next one
would overrun ``--seconds`` (at least one pass).

With ``--trace 0`` the end-to-end metrics are printed; their timings are
wall times scaled to a reference machine speed, sampled around and
during each call (``speed.py``).  With ``--trace 1``
one pass runs serially untraced (without ``verify``), its sweeps run again
with ``--jobs 2``, then the whole pass runs serially and traced; the
per-layer metrics are printed, and ``--seconds`` does not apply.
The last stdout line is the result JSON; the line before it is the run
context (machine, code version, sample counts).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

from speed import REFERENCE_S, WINDOW, Speedometer, timed_kernel
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDENS = BENCH / "goldens.json"
WORKLOADS = ("sweep-large", "sweep-resume", "curves")
SETUP_PROBES = 7
LONG_KINDS = ("sweep", "verify")  # calls with WINDOW speed samples on each side
MIN_DURING = 5  # speed samples a pool call needs to be scaled by them
CURVES_CHUNKS = 6  # the curves pass: 6 x (sweep, verify, every 6th sampled pair)


@dataclass(frozen=True)
class Sizes:
    large_max_p: int  # sweep-large bound, jobs 2
    resume_max_p: int  # sweep-resume bound; the first sweep stops at half
    curves_max_p: int  # the quick sweep/verify of the curves workload
    curve_p: tuple[int, int]  # p range of the curves sample (inclusive)
    curve_pairs: int  # size of the curves sample
    flagged: int  # how many of the pairs printed by verify the sweep workloads inspect
    rounds: int  # times sweep-large goes round them at each stop


FULL = Sizes(640, 200, 100, (20, 120), 300, 25, 2)
TINY = Sizes(40, 30, 20, (20, 26), 5, 3, 1)  # warm-up and selftest.py


@dataclass(frozen=True)
class Op:
    kind: str  # "sweep" | "verify" | "curve" | "matrix"
    golden: str  # key into goldens["ops"], or "p,k" into goldens["pairs"]
    argv: tuple[str, ...]
    out: str | None = None  # the report (sweep) or SVG (curve) the call writes

    @property
    def pooled(self) -> bool:
        """Whether the call runs in pool workers (``--jobs`` > 1)."""
        return "--jobs" in self.argv and int(self.argv[self.argv.index("--jobs") + 1]) > 1


def sweep_ops(work: Path, fmt: str, max_p: int, jobs: int, half: int | None = None) -> list[Op]:
    out = str(work / f"report.{fmt}")

    def op(golden: str, bound: int, *extra: str) -> Op:
        argv = ("sweep", "--max-p", str(bound), "--jobs", str(jobs), "--out", out,
                "--format", fmt, *extra)
        return Op("sweep", golden, argv, out)

    if half is None:
        return [op(f"sweep-{fmt}-{max_p}", max_p, "--from-scratch")]
    return [op(f"sweep-{fmt}-{half}", half, "--from-scratch"),
            op(f"sweep-{fmt}-{max_p}-resumed-{half}", max_p)]


def verify_op(max_p: int, jobs: int) -> Op:
    return Op("verify", f"verify-{max_p}", ("verify", "--max-p", str(max_p), "--jobs", str(jobs)))


def pair_ops(work: Path, pairs: list[tuple[int, int]]) -> list[Op]:
    svg = str(work / "curve.svg")
    ops = []
    for p, k in pairs:
        key = f"{p},{k}"
        ops.append(Op("curve", key, ("curve", "-p", str(p), "-k", str(k), "--svg", svg,
                                     "--format", "json"), svg))
        ops.append(Op("matrix", key, ("matrix", "-p", str(p), "-k", str(k), "--kind", "dA",
                                      "--format", "json")))
    return ops


def sample_pairs(seed: int, goldens: dict, sizes: Sizes) -> list[tuple[int, int]]:
    """Seeded stratified sample of ``curve_pairs`` canonical pairs, p in ``curve_p``.

    The population (pairs with goldens) is ordered by each pair's
    curve+matrix latency at the reference commit (``cost_ms``), cut into
    ``curve_pairs`` equal strata, and one pair is drawn from each.  Every
    seed thus gets the same mix of cheap and expensive pairs, which keeps
    the latency percentiles comparable across seeds; a plain random
    sample of this size moves p50 and p90 by 5-10% from seed to seed.
    """
    lo, hi = sizes.curve_p
    population = sorted((entry["cost_ms"], key) for key, entry in goldens["pairs"].items()
                        if lo <= int(key.split(",")[0]) <= hi)
    rng = random.Random(seed)
    n, size = sizes.curve_pairs, len(population)
    keys = [population[rng.randrange(size * i // n, size * (i + 1) // n)][1] for i in range(n)]
    return sorted(tuple(map(int, key.split(","))) for key in keys)


def plan(workload: str, seed: int, work: Path, goldens: dict, sizes: Sizes,
         jobs: int | None = None) -> list[Op]:
    """The operations of one pass; ``jobs`` overrides the workload's job count."""
    # The machine's speed drifts over seconds, so short calls are spread
    # over the pass instead of being timed in one burst.
    flagged = [tuple(pair) for pair in goldens["flagged"][:sizes.flagged]]
    if workload == "sweep-large":
        jobs = jobs or 2
        # with one pass a run, one round of the printed pairs left
        # curve_ms_p50 and matrix_ms_p90 spreading 0.10 from run to run
        inspect = pair_ops(work, flagged * sizes.rounds)
        return (inspect + sweep_ops(work, "csv", sizes.large_max_p, jobs)
                + inspect + [verify_op(sizes.large_max_p, jobs)] + inspect)
    if workload == "sweep-resume":
        jobs = jobs or 1
        bound = sizes.resume_max_p
        return (sweep_ops(work, "jsonl", bound, jobs, half=bound // 2)
                + [verify_op(bound, jobs)] + pair_ops(work, flagged))
    if workload == "curves":
        jobs = jobs or 1
        pairs = sample_pairs(seed, goldens, sizes)
        ops = []
        for chunk in range(CURVES_CHUNKS):
            ops += (sweep_ops(work, "csv", sizes.curves_max_p, jobs)
                    + [verify_op(sizes.curves_max_p, jobs)]
                    + pair_ops(work, pairs[chunk::CURVES_CHUNKS]))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# program under test


def load_program():
    """Import lenspoly from this checkout's ``src``; exit 2 if it is not there."""
    src = ROOT / "src"
    if not (src / "lenspoly" / "__init__.py").is_file():
        print(f"error: no lenspoly package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    cli = importlib.import_module("lenspoly.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported lenspoly from {cli.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return cli


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def file_sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return sha256(fh.read())
    except OSError:
        return None


def normalized(op: Op, stdout: str) -> str:
    """Stdout with the run-specific report path replaced by ``<out>``."""
    return stdout if op.out is None else stdout.replace(op.out, "<out>")


def check(op: Op, code, stdout: str, goldens: dict) -> str | None:
    """None when the call's exit code, stdout and written file match the golden."""
    if op.kind in ("curve", "matrix"):
        want = goldens["pairs"].get(op.golden)
        if want is None:
            return "no golden for this pair"
        if code != 0:
            return f"exit code {code!r}, expected 0"
        if sha256(stdout) != want[op.kind]:
            return "stdout differs from golden"
        if op.kind == "curve" and file_sha256(op.out) != want["svg"]:
            return "SVG differs from golden"
        return None
    want = goldens["ops"].get(op.golden)
    if want is None:
        return "no golden for this operation"
    if code != want["code"]:
        return f"exit code {code!r}, expected {want['code']}"
    if sha256(normalized(op, stdout)) != want["stdout"]:
        return "stdout differs from golden"
    if op.kind == "sweep" and file_sha256(op.out) != want["report"]:
        return "report differs from golden"
    return None


@dataclass
class OpResult:
    op: Op
    seconds: float
    failure: str | None
    at: int | None = None  # speed sample index the call was made before (speed.Speedometer)
    during: list[float] | None = None  # speed samples taken while a pool call ran
    record_us: int | None = None  # sweep: sum of per_p_elapsed_us in <out>.timing.json
    report_bytes: int | None = None
    report_rows: int | None = None


def call(cli, op: Op) -> tuple[object, str, float]:
    """(exit code or what was raised, stdout, wall seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


def run_op(cli, op: Op, goldens: dict) -> OpResult:
    code, stdout, seconds = call(cli, op)
    result = OpResult(op, seconds, check(op, code, stdout, goldens))
    if op.kind == "sweep":
        try:
            with open(op.out + ".timing.json", encoding="utf-8") as fh:
                result.record_us = sum(json.load(fh)["per_p_elapsed_us"].values())
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            pass
        try:
            with open(op.out, "rb") as fh:
                data = fh.read()
            result.report_bytes = len(data)
            result.report_rows = data.count(b"\n") - (1 if op.out.endswith(".csv") else 0)
        except OSError:
            pass
    if result.failure is not None:
        print(f"FAILED {' '.join(op.argv)}: {result.failure}", file=sys.stderr)
    return result


def run_pass(cli, ops: list[Op], goldens: dict, tracer=None,
             speed: Speedometer | None = None) -> list[OpResult]:
    """Run ``ops`` in order; with ``speed``, sample the machine's speed between calls."""
    results = []
    for op in ops:
        if tracer is not None:
            tracer.mark(op.kind)
        if speed is None:
            results.append(run_op(cli, op, goldens))
            continue
        long = op.kind in LONG_KINDS
        at = speed.sample(WINDOW if long else 1)
        if op.pooled:
            with speed.during() as during:
                results.append(run_op(cli, op, goldens))
            results[-1].during = during
        else:
            results.append(run_op(cli, op, goldens))
        results[-1].at = at
        if long:
            speed.sample(WINDOW)
    if speed is not None:
        speed.sample()
    return results


# ---------------------------------------------------------------------------
# metrics


def setup_seconds(workload: str, seed: int, probes: int) -> list[tuple[float, float]]:
    """Process start to the first timed call, measured on fresh processes.

    Each probe is this script with ``--setup-probe``: it imports lenspoly
    and prepares the workload exactly as a run does, reads the monotonic
    clock (system-wide on Linux), then times the speed kernel ``WINDOW``
    times on the vCPU it ran on, and prints both.  Returns (wall seconds,
    scale to the reference speed) per probe.
    """
    out = []
    for _ in range(probes):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        ready, kernel_s = map(float, proc.stdout.split()[-2:])
        out.append((ready - start, REFERENCE_S / kernel_s))
    return out


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def timings(passes: list[list[OpResult]], setups: list[float], seconds) -> dict:
    """The timed end-to-end metrics, with ``seconds(result)`` as each call's time."""
    def per_pass(kind: str) -> list[float]:
        return [sum(seconds(r) for r in results if r.op.kind == kind) for results in passes]

    def latencies_ms(kind: str) -> list[float]:
        return [1000 * seconds(r) for results in passes for r in results if r.op.kind == kind]

    curve, matrix = latencies_ms("curve"), latencies_ms("matrix")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_s": (statistics.median(per_pass("sweep")), "s"),
        "verify_s": (statistics.median(per_pass("verify")), "s"),
        "curve_ms_p50": (statistics.median(curve), "ms"),
        "curve_ms_p90": (p90(curve), "ms"),
        "matrix_ms_p50": (statistics.median(matrix), "ms"),
        "matrix_ms_p90": (p90(matrix), "ms"),
    }


def scaled(r: OpResult, speed: Speedometer) -> float:
    """The call's wall time at the reference speed (speed.py)."""
    if r.during is not None and len(r.during) >= MIN_DURING:
        return r.seconds * speed.mean_scale(r.during)
    return r.seconds * speed.scale(r.at, WINDOW if r.op.kind in LONG_KINDS else 1)


def end_to_end(passes: list[list[OpResult]], setups: list[tuple[float, float]],
               speed: Speedometer) -> tuple[dict, dict]:
    """Timings scaled to the reference speed (speed.py), then memory."""
    metrics = timings(passes, [s * scale for s, scale in setups], lambda r: scaled(r, speed))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # largest child (pool workers, setup probes) added to our own peak
    metrics["peak_rss_mb"] = ((own + children) / 1024, "MB")
    raw = timings(passes, [s for s, _ in setups], lambda r: r.seconds)
    samples = {"passes": len(passes), "setup_probes": len(setups),
               "curve": sum(r.op.kind == "curve" for results in passes for r in results),
               "matrix": sum(r.op.kind == "matrix" for results in passes for r in results),
               "kernel_s_median": statistics.median(speed.samples),
               "unscaled": {name: value for name, (value, _) in raw.items()}}
    return metrics, samples


def per_layer(untraced: list[OpResult], jobs2: list[OpResult], traced: list[OpResult],
              tracer) -> tuple[dict, dict]:
    spans = tracer.summary()

    def field(name: str, key: str, kinds=None) -> float:
        return sum(rows[name][key] for kind, rows in spans.items()
                   if name in rows and (kinds is None or kind in kinds))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sweeps = [r for r in traced if r.op.kind == "sweep"]
    # every verify of a pass runs at the bound of the pass's last sweep
    verified_pairs = sum(r.op.kind == "verify" for r in traced) * (sweeps[-1].report_rows or 0)
    records = field("sweep.compute_record", "calls", ("sweep", "verify"))
    serial_record_s = sum(r.record_us or 0 for r in untraced if r.op.kind == "sweep") / 1e6
    jobs2_wall = sum(r.seconds for r in jobs2)
    traced_wall = sum(r.seconds for r in traced)
    overhead = (sum(r.seconds for r in traced if r.op.kind != "verify")
                - sum(r.seconds for r in untraced))
    self_total = sum(row["self_s"] for rows in spans.values() for row in rows.values())
    s = "s"
    metrics = {
        "surgery.derive_invariants.calls_per_record": (ratio(
            field("surgery.derive_invariants", "calls", ("sweep", "verify")), records),
            "calls/record"),
        "surgery.derive_invariants.self_s": (field("surgery.derive_invariants", "self_s"), s),
        "alexander.generate.calls": (field("alexander.generate", "calls"), "count"),
        "alexander.generate.self_s": (field("alexander.generate", "self_s"), s),
        "alexander.predicates.self_s": (field("alexander.predicates", "self_s"), s),
        "lattice.check_lemma.self_s": (field("lattice.check_lemma", "self_s"), s),
        "sweep.compute_record.self_s": (field("sweep.compute_record", "self_s"), s),
        "sweep.run_sweep.self_s": (field("sweep.run_sweep", "self_s"), s),
        "sweep.verify.self_s": (field("sweep.verify", "self_s"), s),
        "sweep.report_bytes": (sweeps[-1].report_bytes or 0, "B"),
        "sweep.records_per_verify": (ratio(
            field("sweep.compute_record", "calls", ("verify",)), verified_pairs), "records/pair"),
        "sweep.pool.efficiency": (ratio(serial_record_s, 2 * jobs2_wall), "ratio"),
        "lattice.trace_curves.self_s": (field("lattice.trace_curves", "self_s"), s),
        "lattice.window_cells": (tracer.counts.get("lattice.window_cells", 0), "count"),
        "lattice.arrows": (tracer.counts.get("lattice.arrows", 0), "count"),
        "lattice.non_zero_region.self_s": (field("lattice.non_zero_region", "self_s"), s),
        "lattice.build_view.self_s": (field("lattice.build_view", "self_s"), s),
        "render.svg_curves.self_s": (field("render.svg_curves", "self_s"), s),
        "render.svg_bytes": (tracer.counts.get("render.svg_bytes", 0), "B"),
        "render.view_to_json.self_s": (field("render.view_to_json", "self_s"), s),
        "cli.self_s": (field("cli.main", "self_s"), s),
        "trace.wall_s": (traced_wall, s),
        "trace.overhead_s": (overhead, s),
        "trace.accounted_share": (ratio(self_total, traced_wall), "ratio"),
        "trace.absent_spans": (len(tracer.absent), "count"),
    }
    return metrics, spans


# ---------------------------------------------------------------------------
# running a benchmark


def bench(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
          goldens: dict | None = None, tracer=None, probes: int = SETUP_PROBES) -> dict:
    """Run one benchmark and return {"result": ..., "context": ...}."""
    cli = load_program()
    goldens = load_goldens() if goldens is None else goldens
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops = plan(workload, seed, work, goldens, sizes)
        # first calls pay one-off costs (lazy imports, first pool); keep them untimed
        warmup = run_pass(cli, plan(workload, seed, work, goldens, TINY), goldens)
        if trace:
            tracer = Tracer() if tracer is None else tracer
            # one round of inspected pairs, and verify, the longest call, left
            # out of the untraced reference, keep the traced run of sweep-large
            # well inside 180 s
            sizes = replace(sizes, rounds=1)
            serial = plan(workload, seed, work, goldens, sizes, jobs=1)
            untraced = run_pass(cli, [op for op in serial if op.kind != "verify"], goldens)
            jobs2 = run_pass(cli, [op for op in plan(workload, seed, work, goldens, sizes, jobs=2)
                                   if op.kind == "sweep"], goldens)
            tracer.install()
            try:
                traced = run_pass(cli, serial, goldens, tracer)
            finally:
                tracer.uninstall()
            done = warmup + untraced + jobs2 + traced
            metrics, spans = per_layer(untraced, jobs2, traced, tracer)
            extra = {"spans": spans, "absent": tracer.absent}
            context_key = "trace"
        else:
            speed = Speedometer()
            setups = setup_seconds(workload, seed, probes)
            passes = []
            started = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(run_pass(cli, ops, goldens, speed=speed))
                last = time.perf_counter() - t0
                if time.perf_counter() - started + last > seconds:
                    break
            done = warmup + [r for results in passes for r in results]
            metrics, extra = end_to_end(passes, setups, speed)
            metrics["ok_ratio"] = (sum(r.failure is None for r in done) / len(done), "ratio")
            context_key = "samples"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(r.failure is not None for r in done)
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    context = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               **machine(), context_key: extra}
    return {"result": result, "context": context}


def machine() -> dict:
    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
        git = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lenspoly").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, timeout=60)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": git,
            "src_sha256": src.hexdigest(),
            "numpy": numpy.stdout.strip() if numpy.returncode == 0 else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        load_program()
        work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        plan(args.workload, args.seed, work, load_goldens(), FULL)
        ready = time.monotonic()
        print(ready, statistics.median(timed_kernel() for _ in range(WINDOW)), flush=True)
        shutil.rmtree(work, ignore_errors=True)
        return 0
    out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["context"], separators=(",", ":")))
    print(json.dumps(out["result"], separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
