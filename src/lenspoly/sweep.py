"""Exhaustive parameter sweeps with deterministic, resumable reports.

Work is partitioned by p: each worker computes every canonical k for one
p, the coordinator writes batches in ascending p order, so the report is
byte-identical for any job count.  The report is its own record of
progress: rows come in ascending (p, k), one flushed batch per p, so a
resume keeps the rows of every complete p, drops the rest and continues.

A :class:`SweepRecord` is one report row: its fields are the columns, in
order.  Each pair comes, with its invariants, from the canonical walk of
its p, as plain ints, and its row is read off its checked period
(:func:`lenspoly.alexander._period`: the window counts, g and the top
terms), gathering nothing.  ``verify`` works by p too, but builds the
record only of a pair whose top terms can hold a violation.  A resume
matches rows, decoding none, each against its pair's walk.

With more than one job the p are spread over worker processes
(:func:`_map_over_p`).  A worker's exception is raised in the
coordinator, and a worker that dies ends the run with ChildProcessError
(exit 3 in the CLI); either way the report resumes from its last
complete p.  A sweep's worker hands back finished rows: for its p it
returns the batch's report text, the batch's counts for the summary and
the time its records took, so the coordinator only writes text and adds
counts, and receives no record.  Each row is one ``%``-format of its int
columns and one lookup of its bools' text.

Report files carry no timing: each worker times the records of its p
(computing them, not serializing or counting them), and the per-p and
total wall-clock microseconds go to a side file ``<out>.timing.json``,
which is run-specific and excluded from the determinism contract.
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import islice, product
from typing import Callable, Iterator, NamedTuple, TypeVar, get_type_hints

from .alexander import _alternation, _is_flat, _period
from .surgery import InvalidParameterError, SurgeryParams, _canonical_walk

_R = TypeVar("_R")


class CheckpointError(Exception):
    """The report cannot be resumed (rerun with --from-scratch) or is not a regular file."""


class SweepRecord(NamedTuple):
    """One report row; the fields are the report columns, in order."""

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


CSV_COLUMNS = SweepRecord._fields
_CSV_HEADER = ",".join(CSV_COLUMNS)
_COLUMN_TYPES = tuple(get_type_hints(SweepRecord).values())  # int or bool
_INTS = _COLUMN_TYPES.index(bool)  # the int columns come first, then the bools
_BOOLS = CSV_COLUMNS[_INTS:]
# A row: a format of its int columns, then its bools' text looked up by
# their values (0 or 1 in CSV, JSON spellings in JSONL), built at C speed.
_ROW_HEAD = {"csv": "%d," * _INTS,
             "jsonl": "{" + "".join(f'"{n}":%d,' for n in CSV_COLUMNS[:_INTS])}
_ROW_TAIL = {fmt: dict(zip(product((False, True), repeat=len(_BOOLS)),
                           map(tail.__mod__, product(spellings, repeat=len(_BOOLS)))))
             for fmt, tail, spellings in (
                 ("csv", ",".join(["%s"] * len(_BOOLS)) + "\n", "01"),
                 ("jsonl", ",".join(f'"{n}":%s' for n in _BOOLS) + "}\n", ("false", "true")))}
# A row is read back by a pattern of its int columns as %d writes them (no
# sign on 0, no leading zero), then its bools by their text, newline cut off.
_ROW_MATCH = {fmt: re.compile("(0|-?[1-9][0-9]*)".join(map(re.escape, head.split("%d")))).match
              for fmt, head in _ROW_HEAD.items()}
_TAIL_BOOLS = {fmt: {t[:-1]: b for b, t in tails.items()} for fmt, tails in _ROW_TAIL.items()}


class Violation(NamedTuple):
    p: int
    k: int
    reason: str


def _check_range(max_p: int, jobs: int) -> None:
    if max_p < 2:
        raise InvalidParameterError(f"max_p must be >= 2, got {max_p}")
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")


@dataclass
class SweepConfig:
    max_p: int
    out_path: str
    jobs: int = 1
    from_scratch: bool = False
    report_format: str = "csv"  # "csv" | "jsonl"

    def __post_init__(self) -> None:
        _check_range(self.max_p, self.jobs)
        if self.report_format not in ("csv", "jsonl"):
            raise InvalidParameterError(f"unknown report format {self.report_format!r}")


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

    def add(self, counts: SweepSummary) -> None:
        """Add the row counts of another summary (a worker's, of one p)."""
        for name in ("records", "nontrivial", "top_sign_ok", "flat", "alternating",
                     "theorem_violations", "lemma_violations"):
            setattr(self, name, getattr(self, name) + getattr(counts, name))


def enumerate_params(max_p: int) -> Iterator[SurgeryParams]:
    """Every canonical (p, k) with 2 <= p <= max_p, sorted by (p, k).

    One representative per normalization orbit: of the pair {k, k2} the
    smaller is kept (mirror parameters generate identical data).
    """
    _check_range(max_p, 1)
    for p in range(2, max_p + 1):
        for k, _ in _canonical_walk(p):
            yield SurgeryParams(p, k)


def compute_record(params: SurgeryParams) -> SweepRecord:
    """The report row of one parameter (:func:`_row`)."""
    p, k, inv = params.p, params.k, params.inv
    return _row(p, k, inv.k2, _period(p, k, inv))


def _row(p: int, k: int, k2: int, period: tuple) -> SweepRecord:
    """The report row of (p, k), read off its :func:`_period`."""
    w, step, e, m, g, top0, top1, top2 = period
    trivial = g == 0 and top0 == 1  # a_g is a_0 when g = 0
    flat = _is_flat(w, m)  # w holds the count of every a_i, |i| <= p/2
    alternating, strictly = _alternation(w, step, e, m, g)
    return tuple.__new__(SweepRecord, (  # without the generated __new__'s frame
        p, k, k2, e, m, g, top1, top2, trivial, flat, alternating,
        # torus2_match: the coefficients are T(2, 2g+1)'s, as every one is
        # +-1, the signs alternate and the top one is 1
        flat and strictly and top0 == 1,
        trivial or (top0 == 1 and top1 == -1),  # top_sign_ok
        p < 3 * k2, True, True,  # the lemma's hypothesis, then its conclusions (check_lemma)
    ))


def _records_for_p(p: int) -> tuple[list[SweepRecord], int]:
    """The records of one p, and the wall-clock microseconds they took."""
    start = time.perf_counter_ns()
    records = [_row(p, k, inv[0], _period(p, k, inv)) for k, inv in _canonical_walk(p)]
    return records, (time.perf_counter_ns() - start) // 1000


def _top_trigger(top0: int, top1: int, top2: int) -> bool:
    """The theorem's hypothesis on a_g, a_{g-1}, a_{g-2}: (1, -1, nonzero).
    The trivial polynomial, whose a_{g-1} is 0, never meets it."""
    return top0 == 1 and top1 == -1 and top2 != 0


def _theorem_trigger(record: SweepRecord) -> bool:
    # a row keeps a_g only through top_sign_ok, which says a_g = 1 when
    # a_{g-1} = -1 (the row is then nontrivial)
    return _top_trigger(1 if record.top_sign_ok else 0, record.alpha1, record.alpha2)


def is_theorem_violation(record: SweepRecord) -> bool:
    return _theorem_trigger(record) and not (record.torus2_match and record.k == 2)


def is_lemma_violation(record: SweepRecord) -> bool:
    return record.lemma_hypothesis and not (record.lemma_bound_ok and record.lemma_zeros_ok)


def _violations(record: SweepRecord) -> tuple[list[Violation], list[Violation]]:
    """The theorem and the corollary violations of one record, as in
    :func:`verify`."""
    p, k, g = record.p, record.k, record.g
    pattern = _theorem_trigger(record)
    p_ok = p in (4 * g + 1, 4 * g + 3)
    not_torus = "polynomial is not the T(2, 2g+1) polynomial"
    theorem: list[Violation] = []
    corollary: list[Violation] = []
    if is_theorem_violation(record):
        reasons = []
        if not record.torus2_match:
            reasons.append(not_torus)
        if k != 2:
            reasons.append(f"k = {k} != 2")
        theorem.append(Violation(p=p, k=k, reason="; ".join(reasons)))
    if pattern and not (k == 2 and p_ok):
        corollary.append(Violation(
            p=p, k=k,
            reason=f"forward: pattern holds but (k, p) = ({k}, {p}) "
                   f"is not (2, 4g+1) or (2, 4g+3) for g = {g}",
        ))
    if k == 2:
        problems = []
        if not record.torus2_match:
            problems.append(not_torus)
        if not p_ok:
            problems.append(f"p = {p} is not 4g+1 or 4g+3 for g = {g}")
        if not pattern:
            problems.append("top coefficients are not (1, -1, nonzero)")
        if problems:
            corollary.append(Violation(p=p, k=k, reason="reverse: " + "; ".join(problems)))
    return theorem, corollary


def _serve(conn, worker: Callable[[int], _R]) -> None:
    """A worker process: apply worker to each p of every chunk it is sent
    and send back the chunk with its results, or with the exception that
    stopped them, until the coordinator's end of the pipe closes."""
    while True:
        try:
            ps = conn.recv()
        except EOFError:
            return
        try:
            conn.send((ps, [worker(p) for p in ps]))
        except Exception as exc:
            conn.send((ps, exc))


def _map_over_p(
    worker: Callable[[int], _R], start_p: int, max_p: int, jobs: int
) -> Iterator[tuple[int, _R]]:
    """Apply worker to each p in order, across at most ``jobs`` processes,
    no more than there are chunks of 4 p or CPUs; serially when that is
    one.

    Results are yielded in ascending p regardless of job count, which is
    what makes the reports deterministic.  Each worker, on its own pipe,
    has two chunks of 4 consecutive p in flight and is sent the next as
    soon as it returns one, so it never waits for work.  Every worker is
    stopped when the generator ends or is closed.
    """
    ps = range(start_p, max_p + 1)
    chunks = [ps[i:i + 4] for i in range(0, len(ps), 4)]
    workers = min(jobs, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        for p in ps:
            yield p, worker(p)
        return
    import multiprocessing  # imported here, as serial runs never need it
    from multiprocessing.connection import wait

    unsent = iter(chunks)
    arrived: dict[range, list] = {}  # chunk -> its results, until its turn
    conns, children = [], []
    try:
        for _ in range(workers):
            conn, child_end = multiprocessing.Pipe()
            child = multiprocessing.Process(target=_serve, args=(child_end, worker), daemon=True)
            child.start()
            children.append(child)
            child_end.close()  # so the pipe reads EOF once the worker is gone
            conns.append(conn)
        for conn, chunk in zip(conns * 2, unsent):
            conn.send(chunk)
        for chunk in chunks:
            while chunk not in arrived:
                for conn in wait(conns):  # an idle worker's pipe is ready only at EOF
                    try:
                        done, results = conn.recv()
                    except (EOFError, ConnectionError) as exc:
                        raise ChildProcessError("a worker process died") from exc
                    if isinstance(results, Exception):
                        raise results
                    arrived[done] = results
                    for ahead in islice(unsent, 1):  # the next chunk, if any is left
                        conn.send(ahead)
            yield from zip(chunk, arrived.pop(chunk))
    finally:
        for child in children:
            child.terminate()
            child.join()


def _violations_for_p(p: int) -> tuple[list[Violation], list[Violation]]:
    """The theorem and corollary violations of one p, as in :func:`verify`:
    a record is built only from the period of a pair that meets the
    trigger or has k = 2."""
    theorem: list[Violation] = []
    corollary: list[Violation] = []
    for k, inv in _canonical_walk(p):
        period = _period(p, k, inv)
        if k == 2 or _top_trigger(*period[5:]):
            th, co = _violations(_row(p, k, inv[0], period))
            theorem += th
            corollary += co
    return theorem, corollary


def verify(max_p: int, jobs: int = 1) -> tuple[list[Violation], list[Violation]]:
    """(theorem violations, corollary violations) for every canonical
    parameter with p <= max_p, in ascending (p, k).

    Theorem: the top-coefficient pattern (1, -1, nonzero) forces the
    T(2, 2g+1) polynomial with k = 2.  Corollary, both directions: the
    pattern holds iff k = 2 and p is 4g+1 or 4g+3 (in which case the
    polynomial is T(2, 2g+1)'s).  Violations are data, not errors.

    Every pair's whole period is generated and checked for a_i = a_{-i},
    and its top three coefficients are read off it.  A pair without the
    pattern and with k != 2 is the hypothesis of neither statement, so it
    can hold no violation; only the other pairs (225 of the 3,272 with
    p <= 200) get a full record, which the violation predicates read.
    """
    _check_range(max_p, jobs)
    theorem: list[Violation] = []
    corollary: list[Violation] = []
    for _, (th, co) in _map_over_p(_violations_for_p, 2, max_p, jobs):
        theorem += th
        corollary += co
    return theorem, corollary


def verify_theorem(max_p: int, jobs: int = 1) -> list[Violation]:
    """The theorem half of :func:`verify`."""
    return verify(max_p, jobs)[0]


# ---------------------------------------------------------------------------
# report serialization


def _serialize_batch(records: list[SweepRecord], fmt: str) -> str:
    head, tail = _ROW_HEAD[fmt], _ROW_TAIL[fmt]
    return "".join([head % record[:_INTS] + tail[record[_INTS:]] for record in records])


def _parse_row(line: str, fmt: str) -> SweepRecord:
    """Inverse of the row serialization, on a line without its newline: it
    accepts exactly the lines the serialization writes, else ValueError."""
    ints = _ROW_MATCH[fmt](line)
    bools = ints and _TAIL_BOOLS[fmt].get(line[ints.end():])
    if not bools:
        raise ValueError("it is not a row as this format writes one")
    return tuple.__new__(SweepRecord, (*map(int, ints.groups()), *bools))


def _replace_file(path: str, text: str) -> None:
    """Write text to path through a temporary file and a rename, so a
    killed process leaves either the old file or the new one; an OSError
    names path, and leaves no temporary file behind."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, path) from exc


def _resume_point(out_path: str, fmt: str, max_p: int, summary: SweepSummary) -> int:
    """Check the report in one pass and tally the rows of every complete
    p <= max_p into summary, whose resumed_from becomes the last such p.
    Returns the byte offset just after that p's rows (after the CSV
    header, or 0, when there is none).

    Every complete line must be exactly a row of this format (a CSV
    report starts with its header), and the rows must run through the
    canonical pairs in ascending (p, k) from (2, 1) on, each with the
    k2, e and m that :func:`_canonical_walk` derives for it and the lemma
    columns :func:`_row` writes.  A kill can cut only the line being
    written, so a last line without a newline must be the start of the
    next line due: the header, or the row of the next canonical pair, the
    only record a resume computes.  The rows of a p cut short by a kill,
    and of every p > max_p, are checked and then left past the offset.
    Anything else raises CheckpointError; the file is only read.
    """
    def refuse(why: str) -> CheckpointError:
        return CheckpointError(f"report {out_path} cannot be resumed: {why}; "
                               "rerun with --from-scratch")

    offset = cut = 0
    p, pairs, batch = 2, list(_canonical_walk(2)), []  # batch: the rows of p so far
    with open(out_path, "rb") as fh:
        for n, line in enumerate(fh, start=1):
            is_header = n == 1 and fmt == "csv"
            k, inv = pairs[len(batch)]
            if not line.endswith(b"\n"):  # the last line, cut short by a kill?
                due = (_CSV_HEADER + "\n" if is_header
                       else _serialize_batch([_row(p, k, inv[0], _period(p, k, inv))], fmt))
                if not due.encode().startswith(line):
                    raise refuse(f"its last line {n} has no newline and is not the start of "
                                 + ("the header" if is_header else f"the row of ({p}, {k})"))
                break
            offset += len(line)
            if is_header:
                if line != (_CSV_HEADER + "\n").encode():
                    raise refuse("it does not start with the expected header")
                cut = offset
                continue
            try:
                record = _parse_row(line[:-1].decode(), fmt)
            except ValueError as exc:
                raise refuse(f"line {n} is not a {fmt} report row ({exc})") from exc
            lemma = (p < 3 * inv[0], True, True)  # as _row writes them
            if record[:5] != (p, k, *inv[:3]) or record[-3:] != lemma:
                raise refuse(f"line {n} holds (p, k, k2, e, m) = {record[:5]} with lemma "
                             f"columns {record[-3:]}, but the next canonical pair is p = {p}, "
                             f"k = {k}, with k2, e, m = {inv[:3]} and lemma columns {lemma}")
            batch.append(record)
            if len(batch) == len(pairs):
                if p <= max_p:
                    _tally(summary, batch)
                    summary.resumed_from, cut = p, offset
                p, pairs, batch = p + 1, list(_canonical_walk(p + 1)), []
    return cut


def _tally(summary: SweepSummary, records: list[SweepRecord]) -> None:
    """Count the rows of a batch into summary: fresh rows, in the worker
    that computed them, and resumed rows, as the report is read."""
    summary.records += len(records)
    for record in records:
        if not record.trivial:
            summary.nontrivial += 1
            summary.top_sign_ok += record.top_sign_ok
            summary.flat += record.flat
            summary.alternating += record.alternating
        summary.theorem_violations += is_theorem_violation(record)
        summary.lemma_violations += is_lemma_violation(record)


def _rows_for_p(fmt: str, p: int) -> tuple[str, SweepSummary, int]:
    """The sweep's worker: the report text of one p's rows, their counts,
    and the wall-clock microseconds the records took (serializing and
    counting them is not included)."""
    records, elapsed_us = _records_for_p(p)
    counts = SweepSummary()
    _tally(counts, records)
    return _serialize_batch(records, fmt), counts, elapsed_us


def run_sweep(
    config: SweepConfig,
    progress: Callable[[int], None] | None = None,
) -> SweepSummary:
    """Compute one SweepRecord per canonical parameter and persist the report.

    An existing report is resumed unless ``config.from_scratch`` is set:
    see :func:`_resume_point` for what is kept, and what makes it raise
    CheckpointError instead; so does an ``out_path`` that is not a
    regular file, before it is read or replaced.  A fresh report is
    written by rename, a resumed one is truncated after its last kept
    row; both then grow by appending.  ``progress(p)`` is invoked after
    the rows of each p are flushed; an exception raised from it aborts
    the run and leaves a report that resumes from p -- tests use this to
    simulate interruption.  The report survives a killed process, not a
    power loss: nothing is fsynced.
    """
    started = time.perf_counter_ns()
    out_path = str(config.out_path)
    fmt = config.report_format
    summary = SweepSummary()

    if os.path.exists(out_path) and not os.path.isfile(out_path):  # a FIFO, a device
        raise CheckpointError(f"report {out_path} exists and is not a regular file")
    if not config.from_scratch and os.path.exists(out_path):
        cut = _resume_point(out_path, fmt, config.max_p, summary)
    if summary.resumed_from is None:
        start_p = 2
        _replace_file(out_path, _CSV_HEADER + "\n" if fmt == "csv" else "")
    else:
        start_p = summary.resumed_from + 1
        os.truncate(out_path, cut)

    per_p_elapsed: dict[int, int] = {}
    with open(out_path, "a", encoding="utf-8", newline="") as handle:
        for p, (text, counts, elapsed_us) in _map_over_p(
            partial(_rows_for_p, fmt), start_p, config.max_p, config.jobs
        ):
            handle.write(text)
            handle.flush()
            per_p_elapsed[p] = elapsed_us
            summary.add(counts)
            if progress is not None:
                progress(p)

    summary.elapsed_us = (time.perf_counter_ns() - started) // 1000
    timing = {
        "schema": 1,
        "max_p": config.max_p,
        "jobs": config.jobs,
        "resumed_from": summary.resumed_from,
        "elapsed_us": summary.elapsed_us,
        "per_p_elapsed_us": {str(p): us for p, us in sorted(per_p_elapsed.items())},
    }
    _replace_file(out_path + ".timing.json", json.dumps(timing, indent=2))

    return summary
