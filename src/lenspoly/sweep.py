"""Exhaustive parameter sweeps with deterministic, resumable reports.

Work is partitioned by p: each worker computes every canonical k for one
p, the coordinator writes batches in ascending p order, so the report is
byte-identical for any job count.  A checkpoint (JSON, written atomically
via a temporary file and rename) records the last fully completed p;
resumption drops any rows beyond it and continues.

Report files carry no timing: per-record wall-clock microseconds live in
memory on :class:`SweepRecord` and are summarized into a side file
``<out>.timing.json``, which is run-specific and excluded from the
determinism contract.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from math import gcd
from multiprocessing import Pool
from typing import Callable, Iterator, TypeVar

from .alexander import generate, is_alternating, is_flat, is_trivial, top_coefficient
from .lattice import check_lemma
from .surgery import SurgeryParams, reduce_mod

_R = TypeVar("_R")


class CheckpointError(Exception):
    """The checkpoint file cannot be trusted; rerun with --from-scratch."""


CSV_COLUMNS = (
    "p", "k", "k2", "e", "m", "g", "alpha1", "alpha2",
    "trivial", "flat", "alternating", "torus2_match", "top_sign_ok",
    "lemma_hypothesis", "lemma_bound_ok", "lemma_zeros_ok",
)

_BOOL_COLUMNS = CSV_COLUMNS[8:]


@dataclass(frozen=True)
class SweepRecord:
    p: int
    k: int
    k2: int
    e: int
    m: int
    g: int
    alpha1: int  # second top coefficient a_{g-1}
    alpha2: int  # third top coefficient a_{g-2}
    trivial: bool
    flat: bool
    alternating: bool
    torus2_match: bool
    top_sign_ok: bool
    lemma_hypothesis: bool
    lemma_bound_ok: bool
    lemma_zeros_ok: bool
    elapsed_us: int  # in-memory only; never written to the report


@dataclass(frozen=True)
class Violation:
    p: int
    k: int
    reason: str


@dataclass
class SweepConfig:
    max_p: int
    out_path: str
    checkpoint_path: str | None = None  # default: out_path + ".checkpoint.json"
    jobs: int = 1
    from_scratch: bool = False
    report_format: str = "csv"  # "csv" | "jsonl"

    def __post_init__(self) -> None:
        if self.max_p < 2:
            raise ValueError("max_p must be >= 2")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.report_format not in ("csv", "jsonl"):
            raise ValueError(f"unknown report format {self.report_format!r}")
        if self.checkpoint_path is None:
            self.checkpoint_path = str(self.out_path) + ".checkpoint.json"


@dataclass
class SweepSummary:
    records: int = 0
    nontrivial: int = 0
    top_sign_ok: int = 0
    flat: int = 0
    alternating: int = 0
    theorem_violations: int = 0
    lemma_violations: int = 0
    resumed_from: int | None = None
    elapsed_us: int = 0


def _canonical_ks(p: int) -> list[int]:
    if p == 2:
        return [1]
    out = []
    for k in range(1, (p + 1) // 2):
        if gcd(k, p) != 1:
            continue
        k2 = abs(reduce_mod(pow(k, -1, p), p))
        if k <= k2:
            out.append(k)
    return out


def enumerate_params(max_p: int) -> Iterator[SurgeryParams]:
    """Every canonical (p, k) with 2 <= p <= max_p, sorted by (p, k).

    One representative per normalization orbit: of the pair {k, k2} the
    smaller is kept (mirror parameters generate identical data).
    """
    if max_p < 2:
        raise ValueError("max_p must be >= 2")
    for p in range(2, max_p + 1):
        for k in _canonical_ks(p):
            yield SurgeryParams(p, k)


def _torus2_coeffs(g: int) -> tuple[int, ...]:
    # T(2, 2g+1) has strictly alternating +-1 coefficients with a_g = 1;
    # the equivalence with the closed-form division is pinned by a test.
    return tuple((-1) ** (g - abs(i)) for i in range(-g, g + 1))


def compute_record(params: SurgeryParams) -> SweepRecord:
    start = time.perf_counter_ns()
    gen = generate(params)
    inv, poly = gen.inv, gen.poly
    trivial = is_trivial(poly)
    lemma = check_lemma(params, inv)
    record = SweepRecord(
        p=params.p,
        k=params.k,
        k2=inv.k2,
        e=inv.e,
        m=inv.m,
        g=poly.g,
        alpha1=top_coefficient(poly, 1),
        alpha2=top_coefficient(poly, 2),
        trivial=trivial,
        flat=is_flat(poly),
        alternating=is_alternating(poly),
        torus2_match=poly.coeffs == _torus2_coeffs(poly.g),
        top_sign_ok=trivial or (top_coefficient(poly, 0) == 1 and top_coefficient(poly, 1) == -1),
        lemma_hypothesis=lemma.hypothesis_found,
        lemma_bound_ok=lemma.bound_ok,
        lemma_zeros_ok=lemma.no_adjacent_zeros,
        elapsed_us=(time.perf_counter_ns() - start) // 1000,
    )
    return record


def _records_for_p(p: int) -> list[SweepRecord]:
    return [compute_record(SurgeryParams(p, k)) for k in _canonical_ks(p)]


def _theorem_trigger(record: SweepRecord) -> bool:
    # nontrivial with top coefficients (1, -1, nonzero)
    return (not record.trivial) and record.top_sign_ok and record.alpha2 != 0


def is_theorem_violation(record: SweepRecord) -> bool:
    return _theorem_trigger(record) and not (record.torus2_match and record.k == 2)


def is_lemma_violation(record: SweepRecord) -> bool:
    return record.lemma_hypothesis and not (record.lemma_bound_ok and record.lemma_zeros_ok)


def _theorem_violations(record: SweepRecord) -> list[Violation]:
    if not is_theorem_violation(record):
        return []
    reasons = []
    if not record.torus2_match:
        reasons.append("polynomial is not the T(2, 2g+1) polynomial")
    if record.k != 2:
        reasons.append(f"k = {record.k} != 2")
    return [Violation(p=record.p, k=record.k, reason="; ".join(reasons))]


def _corollary_violations(record: SweepRecord) -> list[Violation]:
    out = []
    pattern = _theorem_trigger(record)
    equiv = record.k == 2 and record.p in (4 * record.g + 1, 4 * record.g + 3)
    if pattern and not equiv:
        out.append(Violation(
            p=record.p, k=record.k,
            reason=f"forward: pattern holds but (k, p) = ({record.k}, {record.p}) "
                   f"is not (2, 4g+1) or (2, 4g+3) for g = {record.g}",
        ))
    if record.k == 2:
        problems = []
        if not record.torus2_match:
            problems.append("polynomial is not the T(2, 2g+1) polynomial")
        if record.p not in (4 * record.g + 1, 4 * record.g + 3):
            problems.append(f"p = {record.p} is not 4g+1 or 4g+3 for g = {record.g}")
        if not pattern:
            problems.append("top coefficients are not (1, -1, nonzero)")
        if problems:
            out.append(Violation(p=record.p, k=record.k,
                                 reason="reverse: " + "; ".join(problems)))
    return out


def _violations_for_p(p: int) -> tuple[list[Violation], list[Violation]]:
    records = _records_for_p(p)
    return ([v for record in records for v in _theorem_violations(record)],
            [v for record in records for v in _corollary_violations(record)])


def _map_over_p(
    worker: Callable[[int], _R], start_p: int, max_p: int, jobs: int
) -> Iterator[tuple[int, _R]]:
    """Apply worker to each p in order, optionally across processes.

    Results are yielded in ascending p regardless of job count, which is
    what makes the reports deterministic.
    """
    ps = range(start_p, max_p + 1)
    if jobs == 1:
        for p in ps:
            yield p, worker(p)
        return
    with Pool(processes=jobs) as pool:
        for p, result in zip(ps, pool.imap(worker, ps, chunksize=4)):
            yield p, result


def verify(max_p: int, jobs: int = 1) -> tuple[list[Violation], list[Violation]]:
    """(theorem violations, corollary violations) for every canonical
    parameter with p <= max_p, each record computed once.

    Theorem: the top-coefficient pattern (1, -1, nonzero) forces the
    T(2, 2g+1) polynomial with k = 2.  Corollary, both directions: the
    pattern holds iff k = 2 and p is 4g+1 or 4g+3 (in which case the
    polynomial is T(2, 2g+1)'s).  Violations are data, not errors.
    """
    theorem: list[Violation] = []
    corollary: list[Violation] = []
    for _, (found_theorem, found_corollary) in _map_over_p(_violations_for_p, 2, max_p, jobs):
        theorem.extend(found_theorem)
        corollary.extend(found_corollary)
    return theorem, corollary


def verify_theorem(max_p: int, jobs: int = 1) -> list[Violation]:
    """The theorem half of :func:`verify`."""
    return verify(max_p, jobs)[0]


def verify_corollary(max_p: int, jobs: int = 1) -> list[Violation]:
    """The corollary half of :func:`verify`."""
    return verify(max_p, jobs)[1]


# ---------------------------------------------------------------------------
# report serialization


def _record_row(record: SweepRecord) -> list[int]:
    return [int(getattr(record, name)) for name in CSV_COLUMNS]


def _serialize_batch(records: list[SweepRecord], fmt: str) -> str:
    if fmt == "csv":
        return "".join(",".join(map(str, _record_row(record))) + "\n" for record in records)
    return "".join(
        json.dumps({name: getattr(record, name) for name in CSV_COLUMNS},
                   separators=(",", ":")) + "\n"
        for record in records
    )


def _csv_header() -> str:
    return ",".join(CSV_COLUMNS) + "\n"


def _parse_row(line: str, fmt: str) -> SweepRecord:
    """Inverse of the row serialization (elapsed_us, never written, is 0).

    Raises ValueError, KeyError or TypeError on a line that is not a
    report row of this format.
    """
    if fmt == "csv":
        values = [int(v) for v in line.split(",")]
    else:
        obj = json.loads(line)
        values = [int(obj[name]) for name in CSV_COLUMNS]
    if len(values) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(values)}")
    fields = dict(zip(CSV_COLUMNS, values))
    for name in _BOOL_COLUMNS:
        fields[name] = bool(fields[name])
    return SweepRecord(**fields, elapsed_us=0)


def _load_checkpoint(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable ({exc}); rerun with --from-scratch"
        ) from exc
    if (
        not isinstance(data, dict)
        or data.get("schema") != 1
        or not isinstance(data.get("max_p"), int)
        or not isinstance(data.get("completed_p"), int)
    ):
        raise CheckpointError(
            f"checkpoint {path} is corrupted or from an unknown schema; "
            "rerun with --from-scratch"
        )
    return data


def _write_checkpoint(path: str, max_p: int, completed_p: int) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"max_p": max_p, "completed_p": completed_p, "schema": 1}, fh)
    os.replace(tmp, path)


def _filter_resumable(out_path: str, fmt: str, completed_p: int) -> list[SweepRecord]:
    """Drop report rows beyond the checkpoint (a kill mid-batch can leave
    some); returns the kept records.  Rewrites the file atomically.

    Only the last line may be cut short by an interrupted write; it is
    dropped when it does not parse.  Any other line that does not parse
    means the report is not the one the checkpoint describes (another
    format, say), so CheckpointError is raised before the file is touched.
    """
    try:
        with open(out_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint exists but report {out_path} is unreadable ({exc}); "
            "rerun with --from-scratch"
        ) from exc
    if fmt == "csv":
        if not lines or lines[0] != _csv_header().rstrip("\n"):
            raise CheckpointError(
                f"report {out_path} does not start with the expected header; "
                "rerun with --from-scratch"
            )
        header, body = lines[0], lines[1:]
    else:
        header, body = None, lines
    kept_lines, kept = [], []
    for n, line in enumerate(body, start=1):
        try:
            record = _parse_row(line, fmt)
        except (ValueError, KeyError, TypeError) as exc:
            if n == len(body):
                break  # partial trailing row from an interrupted write
            raise CheckpointError(
                f"report {out_path} line {n + (header is not None)} is not a {fmt} "
                f"report row ({exc}); rerun with --from-scratch"
            ) from exc
        if record.p <= completed_p:
            kept_lines.append(line)
            kept.append(record)
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        if header is not None:
            fh.write(header + "\n")
        for line in kept_lines:
            fh.write(line + "\n")
    os.replace(tmp, out_path)
    return kept


def _tally(summary: SweepSummary, record: SweepRecord) -> None:
    summary.records += 1
    if not record.trivial:
        summary.nontrivial += 1
        summary.top_sign_ok += record.top_sign_ok
        summary.flat += record.flat
        summary.alternating += record.alternating
    summary.theorem_violations += is_theorem_violation(record)
    summary.lemma_violations += is_lemma_violation(record)


def run_sweep(
    config: SweepConfig,
    progress: Callable[[int], None] | None = None,
) -> SweepSummary:
    """Compute one SweepRecord per canonical parameter and persist the report.

    ``progress(p)`` is invoked after each p is written (rows flushed,
    checkpoint replaced by rename); an exception raised from it aborts the
    run and leaves the files consistent for resumption -- tests use this
    to simulate interruption.  The files survive a killed process, not a
    power loss: nothing is fsynced.
    """
    started = time.perf_counter_ns()
    out_path = str(config.out_path)
    checkpoint_path = str(config.checkpoint_path)
    fmt = config.report_format

    start_p = 2
    summary = SweepSummary()

    if config.from_scratch:
        for stale in (out_path, checkpoint_path):
            if os.path.exists(stale):
                os.remove(stale)

    if os.path.exists(checkpoint_path) and not config.from_scratch:
        checkpoint = _load_checkpoint(checkpoint_path)
        completed = min(checkpoint["completed_p"], config.max_p)
        for record in _filter_resumable(out_path, fmt, completed):
            _tally(summary, record)
        start_p = completed + 1
        summary.resumed_from = completed
        handle = open(out_path, "a", encoding="utf-8", newline="")
    else:
        handle = open(out_path, "w", encoding="utf-8", newline="")
        if fmt == "csv":
            handle.write(_csv_header())
            handle.flush()

    per_p_elapsed: dict[int, int] = {}
    try:
        if start_p <= config.max_p:
            for p, records in _map_over_p(_records_for_p, start_p, config.max_p, config.jobs):
                handle.write(_serialize_batch(records, fmt))
                handle.flush()
                _write_checkpoint(checkpoint_path, config.max_p, p)
                per_p_elapsed[p] = sum(r.elapsed_us for r in records)
                for record in records:
                    _tally(summary, record)
                if progress is not None:
                    progress(p)
    finally:
        handle.close()

    summary.elapsed_us = (time.perf_counter_ns() - started) // 1000
    timing = {
        "schema": 1,
        "max_p": config.max_p,
        "jobs": config.jobs,
        "resumed_from": summary.resumed_from,
        "elapsed_us": summary.elapsed_us,
        "per_p_elapsed_us": {str(p): us for p, us in sorted(per_p_elapsed.items())},
    }
    timing_tmp = out_path + ".timing.json.tmp"
    with open(timing_tmp, "w", encoding="utf-8") as fh:
        json.dump(timing, fh, indent=2)
    os.replace(timing_tmp, out_path + ".timing.json")

    return summary
