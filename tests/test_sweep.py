"""Enumeration, record assembly, verification passes, and resumable reports."""

import hashlib
import itertools
import json
import math
import multiprocessing
import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

import lenspoly.alexander
import lenspoly.surgery
import lenspoly.sweep
from lenspoly.alexander import IntegrityError, _period, _top_terms, generate
from lenspoly.cli import _encode_json
from lenspoly.lattice import check_lemma
from lenspoly.surgery import SurgeryParams, _canonical_walk, reduce_mod
from lenspoly.sweep import (
    CSV_COLUMNS,
    CheckpointError,
    SweepConfig,
    SweepRecord,
    SweepSummary,
    Violation,
    _map_over_p,
    _parse_row,
    _records_for_p,
    _resume_point,
    _row,
    _serialize_batch,
    _theorem_trigger,
    _violations,
    _violations_for_p,
    compute_record,
    enumerate_params,
    is_lemma_violation,
    is_theorem_violation,
    run_sweep,
    verify,
    verify_theorem,
)


def canonical_params(p):
    """The canonical pairs of p, in the walk's order, each a SurgeryParams
    that validates itself and derives its own invariants."""
    return [SurgeryParams(p, k) for k, _ in _canonical_walk(p)]


def brute_force_orbit_count(max_p):
    seen = set()
    for p in range(2, max_p + 1):
        for k in range(1, p):
            if math.gcd(p, k) != 1:
                continue
            kinv = pow(k, -1, p)
            orbit = frozenset(
                abs(reduce_mod(x, p)) for x in (k, -k, kinv, -kinv)
            )
            seen.add((p, orbit))
    return len(seen)


def torus2_coeffs(g):
    """T(2, 2g+1): strictly alternating +-1 coefficients with a_g = 1."""
    return tuple((-1) ** (g - abs(i)) for i in range(-g, g + 1))


def is_flat_full(coeffs):
    return -1 <= min(coeffs) and max(coeffs) <= 1


def is_alternating_full(coeffs):
    """Consecutive nonzero coefficients have opposite signs, read on all
    2g+1 coefficients: the nonzero ones at even positions share the first
    one's sign, the rest the other."""
    nonzero = list(filter(None, coeffs))
    if not nonzero:
        return True
    evens, odds = nonzero[0::2], nonzero[1::2]
    if nonzero[0] > 0:
        return min(evens) > 0 and max(odds, default=-1) < 0
    return max(evens) < 0 and min(odds, default=1) > 0


def record_full_coeffs(params):
    """The report row with every predicate read on all 2g+1 coefficients."""
    gen = generate(params)
    inv, g, coeffs = params.inv, gen.poly.g, gen.poly.coeffs
    top0, top1, top2 = (gen.poly.coefficient(g - n) for n in range(3))
    trivial = coeffs == (1,)
    flat, alternating = is_flat_full(coeffs), is_alternating_full(coeffs)
    return SweepRecord(
        params.p, params.k, inv.k2, inv.e, inv.m, g, top1, top2, trivial, flat, alternating,
        flat and alternating and 0 not in coeffs and top0 == 1,
        trivial or (top0 == 1 and top1 == -1),
        check_lemma(params), True, True,
    )


# --------------------------------------------------------------- enumeration


def test_enumerate_small_golden():
    got = [(x.p, x.k) for x in enumerate_params(5)]
    assert got == [(2, 1), (3, 1), (4, 1), (5, 1), (5, 2)]


def test_enumerate_orbit_dedup():
    got = [(x.p, x.k) for x in enumerate_params(7)]
    assert (7, 2) in got
    assert (7, 3) not in got  # 3 = k2(7,2), same orbit


def test_enumerate_all_canonical():
    from lenspoly.surgery import canonicalize_dual_class

    for params in enumerate_params(40):
        assert canonicalize_dual_class(params.p, params.k) == params


def test_enumerate_sorted_and_unique():
    seq = [(x.p, x.k) for x in enumerate_params(100)]
    assert seq == sorted(set(seq))


def test_enumerate_count_matches_brute_force():
    got = sum(1 for _ in enumerate_params(300))
    assert got == brute_force_orbit_count(300)


def test_enumerate_rejects_small_max():
    with pytest.raises(ValueError):
        list(enumerate_params(1))


# ------------------------------------------------------------ record fields


def test_compute_record_11_2():
    r = compute_record(SurgeryParams(11, 2))
    assert (r.p, r.k, r.k2, r.e, r.m, r.g) == (11, 2, 5, -1, 1, 2)
    assert (r.alpha1, r.alpha2) == (-1, 1)
    assert not r.trivial
    assert r.flat and r.alternating and r.torus2_match and r.top_sign_ok
    assert r.lemma_hypothesis and r.lemma_bound_ok and r.lemma_zeros_ok


def test_compute_record_19_7():
    r = compute_record(SurgeryParams(19, 7))
    assert (r.p, r.k, r.k2, r.e, r.m, r.g) == (19, 7, 8, -1, 3, 5)
    assert r.alpha1 == -1
    assert r.alpha2 == 0          # the pattern's third term vanishes
    assert not r.torus2_match
    assert r.top_sign_ok
    assert r.flat and r.alternating


def test_compute_record_8_3():
    # hand evaluation of the counting formula gives a_0..a_4 = -1,1,0,-1,2
    r = compute_record(SurgeryParams(8, 3))
    assert (r.p, r.k, r.k2, r.e, r.m, r.g) == (8, 3, 3, 1, 1, 4)
    assert (r.alpha1, r.alpha2) == (-1, 0)
    assert not r.trivial
    assert not r.flat             # |a_4| = 2
    assert r.alternating          # nonzero signs still alternate
    assert not r.top_sign_ok      # a_g = 2, not +1
    assert not r.torus2_match


def test_compute_record_trivial():
    r = compute_record(SurgeryParams(9, 1))
    assert r.trivial
    assert r.g == 0
    assert (r.alpha1, r.alpha2) == (0, 0)
    assert r.top_sign_ok  # trivial counts as OK by definition


def test_record_predicates_match_definitions_up_to_300():
    """The record's builtin-pass predicates against their literal
    definitions, and the whole record against the one read on all 2g+1
    coefficients, on every canonical pair with p <= 300.

    Also the two identities that put unit evaluation and the L-space
    domain on the record: the window counts sum to k*k2 = p*m + e, so the
    a_i over one period sum to 1 and Delta(1) = 1 + [2g = p]*a_g; and a
    flat, alternating polynomial has Delta(1) = a_g = 1."""
    wide = 0
    for params in enumerate_params(300):
        period = _period(params.p, params.k, params.inv)
        r = _row(params.p, params.k, params.inv.k2, period)
        assert r == record_full_coeffs(params), params
        assert sum(period[0]) == params.k * r.k2, params
        out = generate(params)
        coeffs = out.poly.coeffs
        nonzero = [c for c in coeffs if c]
        assert r.flat == all(abs(c) <= 1 for c in coeffs), params
        assert r.alternating == all(x * y < 0 for x, y in zip(nonzero, nonzero[1:])), params
        assert r.torus2_match == (coeffs == torus2_coeffs(r.g)), params
        wide += 2 * r.g == r.p
        assert out.delta_one == 1 + (coeffs[-1] if 2 * r.g == r.p else 0), params
        if r.flat and r.alternating:
            assert out.delta_one == 1 == coeffs[-1], params
    assert wide == 7189 - 5872  # the pairs where the torsion identity fails


# ---------------------------------------------------------------- verifiers


def test_verify_theorem_small_range_clean():
    assert verify_theorem(14) == []


def test_verify_theorem_first_violation():
    violations = verify_theorem(100)
    assert violations, "expected violations in this range"
    first = violations[0]
    assert (first.p, first.k) == (15, 4)
    assert "k = 4" in first.reason or "torus" in first.reason.lower()


def test_verify_theorem_known_trigger_pass():
    # (11,2) triggers the hypothesis and passes both conclusions
    assert all((v.p, v.k) != (11, 2) for v in verify_theorem(11))


def test_verify_corollary_small_range_clean():
    assert verify(14)[1] == []


def test_verify_corollary_reverse_direction_clean():
    """Every canonical (p,2) gives the (2,2g+1) torus polynomial with
    p in {4g+1, 4g+3}; only forward-direction failures exist below 200."""
    for violation in verify(200)[1]:
        assert violation.reason.startswith("forward:"), violation


def test_verify_folds_the_parsed_report(tmp_path):
    """verify gives the violations folded from a sweep report read back."""
    out = tmp_path / "r.csv"
    run_sweep(SweepConfig(max_p=200, out_path=str(out)))
    records = [_parse_row(line, "csv") for line in out.read_text().splitlines()[1:]]
    folded = [_violations(r) for r in records]
    assert verify(200) == (
        [v for th, _ in folded for v in th],
        [v for _, co in folded for v in co],
    )


def test_violations_name_every_failed_conclusion():
    """Each conclusion a record fails gets its reason, on records edited
    from (11, 2), whose T(2, 5) polynomial meets the pattern with p = 4g+3.
    No canonical k = 2 pair lacks the pattern, so only an edited record
    reaches the reverse direction's last reason."""
    record = compute_record(SurgeryParams(11, 2))
    assert _violations(record) == ([], [])
    assert _violations(record._replace(alpha2=0)) == ([], [
        Violation(11, 2, "reverse: top coefficients are not (1, -1, nonzero)"),
    ])
    not_torus = "polynomial is not the T(2, 2g+1) polynomial"
    assert _violations(record._replace(torus2_match=False, g=3)) == ([
        Violation(11, 2, not_torus),
    ], [
        Violation(11, 2, "forward: pattern holds but (k, p) = (2, 11) "
                         "is not (2, 4g+1) or (2, 4g+3) for g = 3"),
        Violation(11, 2, f"reverse: {not_torus}; p = 11 is not 4g+1 or 4g+3 for g = 3"),
    ])
    assert _violations(record._replace(k=3)) == ([Violation(11, 3, "k = 3 != 2")], [
        Violation(11, 3, "forward: pattern holds but (k, p) = (3, 11) "
                         "is not (2, 4g+1) or (2, 4g+3) for g = 2"),
    ])


def test_verify_with_jobs_matches_serial():
    assert verify(80, jobs=3) == verify(80)


def test_verify_builds_records_only_for_candidates(monkeypatch):
    """verify(200) builds, through _row, the records of the 225 pairs that
    meet the trigger or have k = 2, and of no other of the 3,272 pairs;
    with a reader that never fires, of the k = 2 pairs alone."""
    records = [compute_record(params) for params in enumerate_params(200)]
    assert len(records) == 3272
    candidates = [(r.p, r.k) for r in records if _theorem_trigger(r) or r.k == 2]
    calls = []
    fn = lenspoly.sweep._row

    def counted(p, k, *given):
        calls.append((p, k))
        return fn(p, k, *given)
    monkeypatch.setattr(lenspoly.sweep, "_row", counted)
    verify(200)
    assert len(calls) == 225
    assert calls == candidates
    # k = 2 gets its record whatever its top coefficients read
    calls.clear()
    monkeypatch.setattr(lenspoly.alexander, "_top_terms", lambda w, step, e, m: (0, 0, 0, 0))
    verify(200)
    assert calls == [(p, 2) for p in range(5, 201, 2)]


def test_verify_checks_symmetry_off_the_candidates(monkeypatch):
    """verify checks a_i = a_-i on the pairs it builds no record for:
    a break planted in (13, 5), where g = 6, the trigger does not fire and
    k != 2, raises IntegrityError for that pair."""
    params = SurgeryParams(13, 5)
    record = compute_record(params)
    assert record.g == 6 and not _theorem_trigger(record)
    residue_values = lenspoly.alexander._residue_values

    def broken(p, k, inv):
        w, step, e, m = residue_values(p, k, inv)
        if (p, k) == (13, 5):
            w = bytearray(w)
            w[-step % 13] += 1  # a_1 != a_-1
        return w, step, e, m
    monkeypatch.setattr(lenspoly.alexander, "_residue_values", broken)
    with pytest.raises(IntegrityError) as exc_info:
        verify(13)
    assert (exc_info.value.p, exc_info.value.k, exc_info.value.index) == (13, 5, 1)


_POOL_SCRIPT = """
import multiprocessing, os, sys
import lenspoly.alexander
from lenspoly.alexander import IntegrityError
from lenspoly.cli import main
from lenspoly.sweep import SweepConfig, run_sweep, verify

residue_values = lenspoly.alexander._residue_values

def broken(p, k, inv):
    w, step, e, m = residue_values(p, k, inv)
    if (p, k) == (13, 5):
        w = bytearray(w)
        w[-step % 13] += 1  # a_1 != a_-1
    return w, step, e, m

lenspoly.alexander._residue_values = broken
multiprocessing.set_start_method("fork")  # so the workers inherit the break
os.cpu_count = lambda: 2  # so one CPU still gets a pool of two
for run in (lambda: verify(13, jobs=2),
            lambda: run_sweep(SweepConfig(max_p=13, out_path=sys.argv[1], jobs=2))):
    try:
        run()
    except IntegrityError as exc:
        print(exc.p, exc.k, exc.index)
print(main(["verify", "--max-p", "13", "--jobs", "2"]))
"""


def test_worker_integrity_error_reaches_the_caller(tmp_path):
    """An IntegrityError raised in a pool worker ends verify, the sweep
    and the CLI (exit 4) in the caller; a hang fails by the timeout."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _POOL_SCRIPT, str(tmp_path / "r.csv")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
        proc.communicate()
        pytest.fail("a worker's IntegrityError did not reach the caller within 60 s")
    assert out == "13 5 1\n13 5 1\n4\n", err
    assert "integrity error: (p=13, k=5, i=1): a_i != a_-i" in err


_DEAD_WORKER_SCRIPT = """
import multiprocessing, os, sys
import lenspoly.alexander
from lenspoly.cli import main
from lenspoly.sweep import SweepConfig, run_sweep, verify

residue_values = lenspoly.alexander._residue_values

def dying(p, k, inv):
    if p == 11:
        os._exit(1)
    return residue_values(p, k, inv)

lenspoly.alexander._residue_values = dying
multiprocessing.set_start_method("fork")  # so the workers inherit the exit
os.cpu_count = lambda: 2  # so one CPU still gets two workers
for run in (lambda: verify(13, jobs=2),
            lambda: run_sweep(SweepConfig(max_p=13, out_path=sys.argv[1], jobs=2))):
    try:
        run()
    except ChildProcessError:
        print("ChildProcessError", multiprocessing.active_children())
print(main(["verify", "--max-p", "13", "--jobs", "2"]), multiprocessing.active_children())
lenspoly.alexander._residue_values = residue_values
print(run_sweep(SweepConfig(max_p=13, out_path=sys.argv[1], jobs=2)).resumed_from)
"""


def test_dead_worker_ends_the_run(tmp_path):
    """A worker process that dies at p = 11 ends verify and the sweep with
    ChildProcessError and the CLI with exit 3, leaves no child alive, and
    leaves a report that resumes; a hang fails by the timeout."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "r.csv"
    proc = subprocess.Popen(
        [sys.executable, "-c", _DEAD_WORKER_SCRIPT, str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workers too
        proc.communicate()
        pytest.fail("a dead worker did not end the run within 60 s")
    # the chunks are p 2-5, 6-9 and 10-13, and the worker of p 2-5 and
    # 10-13 may be found dead before p 6-9 arrive from the other
    *lines, resumed_from = stdout.splitlines()
    assert lines == ["ChildProcessError []", "ChildProcessError []", "3 []"], err
    assert resumed_from in ("5", "9")
    assert "error: a worker process died" in err
    assert out.read_text() == _sweep(tmp_path, "fresh.csv", max_p=13)[0].read_text()


def run_script(name, *flags):
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *flags],
        capture_output=True, text=True, timeout=120, env=env,
    )


def run_verify_report(*flags):
    return run_script("verify_report.py", *flags)


def test_verify_report_script():
    """scripts/verify_report.py prints the pinned table, its literal
    trigger finds the theorem violations that verify_theorem finds, and
    bad arguments exit 2 as they do for `lenspoly verify`."""
    proc = run_verify_report("--max-p", "200")
    assert proc.returncode == 0, proc.stderr
    table = re.sub(r"\([0-9.]+s\)", "(Xs)", proc.stdout, count=1)
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "67189607eb19fdacd640ea8849d72b10e6f844bb5041dcd1d4686659b0e8c1d1"
    ), proc.stdout
    literal = next(line for line in proc.stdout.splitlines()
                   if line.startswith("literal (1, -1, nonzero)"))
    _, violations, first = literal.split()[-3:]
    assert int(violations) == len(verify_theorem(200)) == 127
    assert first == "(15,4)"
    for flags in (("--max-p", "1"), ("--max-p", "10", "--jobs", "0")):
        proc = run_verify_report(*flags)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr.startswith("error: ") and "must be >= " in proc.stderr


def test_stage_times_script():
    """scripts/stage_times.py times every stage of the record layer on
    p <= 30, one line per stage in the order they run, also against a
    second import of this checkout's package, and bad arguments exit 2."""
    timing = r"[a-z_]+ +\d+\.\d{4} s +\d+\.\d{3} us/pair"
    against = timing + r" +against +\d+\.\d{4} s +ratio +\d+\.\d{3}"
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    for flags, row_format in (((), timing), (("--against", src), against)):
        proc = run_script("stage_times.py", "--min-p", "2", "--max-p", "30", "--repeat", "2",
                          *flags)
        assert proc.returncode == 0, proc.stderr
        head, *rows = proc.stdout.splitlines()
        pairs = sum(len(canonical_params(p)) for p in range(2, 31))
        assert head == f"p 2..30: {pairs} pairs, best of 2 per p"
        assert [row.split()[0] for row in rows] == [
            "enumerate", "kernel", "top_terms", "flat", "alternation", "record", "tally", "csv",
            "jsonl", "sweep", "verify"]
        for row in rows:
            assert re.fullmatch(row_format, row), row
    for flags in (("--min-p", "1"), ("--min-p", "9", "--max-p", "8"), ("--repeat", "0")):
        proc = run_script("stage_times.py", *flags)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr.startswith("error: ")


# -------------------------------------------------------------------- sweep


def test_report_bytes_pinned_up_to_600():
    """The p <= 600 record stream, as computed by two workers and
    serialized as a CSV report (header included) and as a JSONL report,
    hashes to the pinned sha256 of each."""
    records = [r for _, (batch, _) in _map_over_p(_records_for_p, 2, 600, 2) for r in batch]
    assert len(records) == 28117
    csv = ",".join(CSV_COLUMNS) + "\n" + _serialize_batch(records, "csv")
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "727d10bd8bd0bd1faff7d11ff012c86736e0c413b53550d167d03ff49fbfde84")
    assert hashlib.sha256(_serialize_batch(records, "jsonl").encode()).hexdigest() == (
        "5e9df7e73016eb474c36dfd9de6179d58e060e78b45a0143ee38e57045abb396")
    # Delta(1) != 1 exactly when 2g = p: acceptance 6's pairs
    assert sum(2 * r.g == r.p for r in records) == 5484
    # the L-space domain (Delta(1) = 1, flat, alternating, a_g = 1) is
    # flat and alternating, as those force Delta(1) = a_g = 1
    lspace = [r for r in records if r.flat and r.alternating]
    assert len(lspace) == 3422
    assert sum(map(_theorem_trigger, lspace)) == 298
    assert not any(map(is_theorem_violation, lspace))
    assert not any(not r.trivial and r.alpha1 != -1 for r in lspace)


def test_csv_columns_contract():
    assert CSV_COLUMNS == (
        "p", "k", "k2", "e", "m", "g", "alpha1", "alpha2",
        "trivial", "flat", "alternating", "torus2_match", "top_sign_ok",
        "lemma_hypothesis", "lemma_bound_ok", "lemma_zeros_ok",
    )


def row_oracle(record, fmt):
    """A report row through the generic encoders: each field as an int
    for CSV, the record as a JSON object for JSONL."""
    if fmt == "csv":
        return ",".join(map(str, map(int, record))) + "\n"
    return _encode_json(record._asdict()) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_row_format_matches_generic_encoders(fmt):
    """The row format writes what the generic encoders write: on every
    record with p <= 200, on hand-made records with e = -1, negative top
    coefficients and p past 2^40, and on one with each of the 2^8
    combinations of the bool columns, whose text is looked up."""
    records = [compute_record(params) for params in enumerate_params(200)]
    assert any(r.e == -1 for r in records) and any(r.alpha1 < 0 for r in records)
    big = 2**40 + 15
    records += [
        SweepRecord(big, 7, big // 7, -1, 3, big // 2, -5, -(2**45), *[False] * 8),
        SweepRecord(big * big, big - 2, big + 1, 1, 2**41, 2**42, 3, -1,
                    *[i % 3 == 0 for i in range(8)]),
        SweepRecord(13, 5, 8, -1, -2, 0, -1, -7, *[True] * 8),
    ]
    records += [SweepRecord(11, 2, 5, -1, 1, 2, -1, 1, *bools)
                for bools in itertools.product((False, True), repeat=8)]
    for record in records:
        assert _serialize_batch([record], fmt) == row_oracle(record, fmt), record
    assert _serialize_batch(records, fmt) == "".join(row_oracle(r, fmt) for r in records)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_row_codec_round_trip_up_to_200(fmt):
    """_parse_row inverts the row serialization, field types included."""
    for params in enumerate_params(200):
        record = compute_record(params)
        line = _serialize_batch([record], fmt)
        assert line.endswith("\n") and line.count("\n") == 1
        parsed = _parse_row(line[:-1], fmt)
        assert parsed == record, params
        assert list(map(type, parsed)) == list(map(type, record)), params


def last_row(out, fmt):
    return _parse_row(out.read_text().splitlines()[-1], fmt)


def _sweep(tmp_path, name, **kwargs):
    out = tmp_path / name
    config = SweepConfig(max_p=kwargs.pop("max_p", 60), out_path=str(out), **kwargs)
    summary = run_sweep(config)
    return out, summary


def test_sweep_csv_header_and_rows(tmp_path):
    out, summary = _sweep(tmp_path, "s.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "p,k,k2,e,m,g,alpha1,alpha2,trivial,flat,alternating,torus2_match,top_sign_ok,lemma_hypothesis,lemma_bound_ok,lemma_zeros_ok"
    assert lines[1] == "2,1,1,1,0,0,0,0,1,1,1,1,1,1,1,1"
    assert len(lines) - 1 == summary.records == sum(1 for _ in enumerate_params(60))
    row_11_2 = next(l for l in lines if l.startswith("11,2,"))
    assert row_11_2 == "11,2,5,-1,1,2,-1,1,0,1,1,1,1,1,1,1"


def test_sweep_job_count_invariance(tmp_path):
    out1, _ = _sweep(tmp_path, "a.csv", jobs=1)
    out4, _ = _sweep(tmp_path, "b.csv", jobs=4)
    assert out1.read_bytes() == out4.read_bytes()


def test_sweep_interrupt_and_resume(tmp_path):
    clean, _ = _sweep(tmp_path, "clean.csv")

    out = tmp_path / "resumed.csv"

    class Stop(Exception):
        pass

    def interrupt(p):
        if p >= 30:
            raise Stop

    config = SweepConfig(max_p=60, out_path=str(out))
    with pytest.raises(Stop):
        run_sweep(config, progress=interrupt)
    assert last_row(out, "csv").p == 30

    summary = run_sweep(SweepConfig(max_p=60, out_path=str(out)))
    assert summary.resumed_from == 30
    assert out.read_bytes() == clean.read_bytes()
    # the report is the only record of progress
    assert not (tmp_path / "resumed.csv.checkpoint.json").exists()


def test_sweep_resume_discards_rows_past_checkpoint(tmp_path):
    """A kill inside the batch of p = 40 leaves some of its rows and a
    torn line; resume drops them and continues from p = 39."""
    clean, _ = _sweep(tmp_path, "clean.csv", max_p=40)
    out, _ = _sweep(tmp_path, "crashy.csv", max_p=40)
    lines = out.read_text().splitlines(keepends=True)
    assert [line.split(",")[:2] for line in lines[-6:]] == [
        ["40", str(k)] for k in (1, 3, 7, 9, 11, 19)
    ]
    # two whole rows of p = 40, then the third cut short
    out.write_text("".join(lines[:-4]) + lines[-4][:9])
    summary = run_sweep(SweepConfig(max_p=40, out_path=str(out)))
    assert summary.resumed_from == 39
    assert out.read_bytes() == clean.read_bytes()


def test_sweep_resume_after_smaller_max_p(tmp_path):
    """A resume to a smaller --max-p truncates the report and the checkpoint
    together, so growing it again re-sweeps the dropped p."""
    clean, _ = _sweep(tmp_path, "clean.csv", max_p=100)
    out, _ = _sweep(tmp_path, "shrunk.csv", max_p=100)
    _sweep(tmp_path, "shrunk.csv", max_p=50)
    assert last_row(out, "csv").p == 50
    _, summary = _sweep(tmp_path, "shrunk.csv", max_p=100)
    assert summary.resumed_from == 50
    assert out.read_bytes() == clean.read_bytes()


def test_resume_keeping_every_row_rewrites_nothing(tmp_path):
    """A resume truncates the report in place: the file keeps its inode,
    whether it keeps every row, drops a torn line or grows."""
    clean, _ = _sweep(tmp_path, "clean.csv", max_p=40)
    out, _ = _sweep(tmp_path, "r.csv", max_p=30)
    inode = os.stat(out).st_ino
    for max_p, resumed_from in ((30, 30), (40, 30), (40, 40)):
        assert _sweep(tmp_path, "r.csv", max_p=max_p)[1].resumed_from == resumed_from
        assert os.stat(out).st_ino == inode
    assert out.read_bytes() == clean.read_bytes()
    out.write_bytes(clean.read_bytes()[:-1])  # the last row loses its newline
    assert _sweep(tmp_path, "r.csv", max_p=40)[1].resumed_from == 39
    assert os.stat(out).st_ino == inode
    assert out.read_bytes() == clean.read_bytes()


def test_resume_takes_invariants_from_the_walk(tmp_path, monkeypatch):
    """A resume derives each pair's invariants once, in the canonical walk
    of its p, up to the p after the last complete one, and nowhere else:
    the row due after a torn last line takes the walk's."""
    out, _ = _sweep(tmp_path, "r.csv", max_p=40)
    whole = out.read_text()
    walked = [(p, params.k) for p in range(2, 42) for params in canonical_params(p)]
    calls = []
    derive = lenspoly.surgery._invariants

    def counted(p, k):
        calls.append((p, k))
        return derive(p, k)
    monkeypatch.setattr(lenspoly.surgery, "_invariants", counted)
    assert _resume_point(str(out), "csv", 40, SweepSummary()) == len(whole)
    assert calls == walked
    calls.clear()
    lines = whole.splitlines(keepends=True)
    out.write_text("".join(lines[:-4]) + lines[-4][:9])  # the row of (40, 7) cut short
    assert _resume_point(str(out), "csv", 40, SweepSummary()) == len("".join(lines[:-6]))
    assert calls == [pair for pair in walked if pair[0] <= 40]


@pytest.mark.parametrize("fmt, pair, old, new", [
    ("csv", (3, 1), "3,", "3 ,"),
    ("csv", (5, 2), ",1\n", ",7\n"),
    ("csv", (2, 1), "2,", "\u0662,"),  # a non-ASCII digit two
    ("csv", (4, 1), "4,1,", "4,0_1,"),
    ("jsonl", (3, 1), '"flat":true', '"flat":1'),
    ("jsonl", (4, 1), '"p":4', '"p":4.0'),
    ("jsonl", (5, 2), '{"p":5,"k":2', '{"k":2,"p":5'),
    ("jsonl", (5, 1), '"p":5,', '"p": 5,'),
    ("jsonl", (3, 1), '"p":3', '"p":Infinity'),  # OverflowError in int()
    ("jsonl", (4, 1), '"p":4', '"p":1e400'),     # parses as infinity too
    ("jsonl", (3, 1), '"flat":true', '"flat":7'),  # KeyError in the serialization
    ("csv", (5, 2), "5,2,2,", "5,2,02,"),  # a leading zero: the ints still read 5, 2, 2
    ("jsonl", (5, 2), '"k2":2', '"k2":02'),
    ("csv", (3, 1), ",0,0,0,0,", ",-0,0,0,0,"),
    ("jsonl", (3, 1), '"m":0', '"m":-0'),
    ("csv", (5, 1), "5,1,", "+5,1,"),
    ("jsonl", (5, 1), '"p":5', '"p":+5'),
    ("csv", (4, 1), "1\n", "1\r\n"),  # a CRLF line end
    ("jsonl", (4, 1), "}\n", "}\r\n"),
    ("csv", (3, 1), "1\n", "1 \n"),  # a space before the newline
    ("jsonl", (3, 1), "}\n", "} \n"),
    ("jsonl", (5, 2), '"flat":true', '"flat":True'),
    pytest.param("jsonl", (5, 2), "{", "[" * 100_000 + "{", id="jsonl-deep-nesting"),
])
def test_resume_refuses_rows_that_are_not_exact(tmp_path, fmt, pair, old, new):
    """A line counts as a row only if it is exactly the serialization of
    the record it parses to; anything looser is refused, not rewritten."""
    out, _ = _sweep(tmp_path, "r", max_p=5, report_format=fmt)
    lines = out.read_text().splitlines(keepends=True)
    n = lines.index(_serialize_batch([compute_record(SurgeryParams(*pair))], fmt))
    assert old in lines[n]
    lines[n] = lines[n].replace(old, new, 1)
    out.write_text("".join(lines), encoding="utf-8")
    damaged = out.read_bytes()
    with pytest.raises(CheckpointError, match=f"line {n + 1} is not a {fmt} report row"):
        run_sweep(SweepConfig(max_p=7, out_path=str(out), report_format=fmt))
    assert out.read_bytes() == damaged


@pytest.mark.parametrize("fmt, old, new", [
    ("csv", "5,2,2,-1,1,", "5,2,3,-1,1,"),  # k2
    ("csv", "5,2,2,-1,1,", "5,2,2,1,1,"),   # e
    ("csv", "5,2,2,-1,1,", "5,2,2,-1,0,"),  # m
    ("jsonl", '"k2":2,', '"k2":3,'),
    ("jsonl", '"e":-1,', '"e":1,'),
    ("jsonl", '"m":1,', '"m":0,'),
])
def test_resume_refuses_rows_with_wrong_invariants(tmp_path, fmt, old, new):
    """A row of the right (p, k) whose k2, e or m is not the one the walk
    derives for that pair is refused, and the report left untouched."""
    out, _ = _sweep(tmp_path, "r", max_p=5, report_format=fmt)
    lines = out.read_text().splitlines(keepends=True)
    n = lines.index(_serialize_batch([compute_record(SurgeryParams(5, 2))], fmt))
    assert old in lines[n]
    lines[n] = lines[n].replace(old, new, 1)
    out.write_text("".join(lines))
    damaged = out.read_bytes()
    with pytest.raises(CheckpointError, match=f"line {n + 1} holds .*"
                                              r"p = 5, k = 2, with k2, e, m = \(2, -1, 1\)"):
        run_sweep(SweepConfig(max_p=7, out_path=str(out), report_format=fmt))
    assert out.read_bytes() == damaged


@pytest.mark.parametrize("fmt, rows, tail", [
    ("csv", 0, "p,k,k2,f"),  # not the header
    ("csv", 1, "2,1,1"),     # a prefix of (2, 1), but (3, 1) is due
    ("csv", 1, "TODO: check p=3"),
    ("csv", 4, "6,1,"),      # (5, 2) is due
    ("jsonl", 0, '{"p":3'),  # (2, 1) is due
    ("jsonl", 0, "my notes, no newline"),
    ("jsonl", 3, '{"p":4,"k":1,"k2":1,"e":1,"m":0,"g":0,"alpha1":0,"alpha2":0,"trivial":false'),
])
def test_resume_refuses_tail_that_is_not_the_next_line(tmp_path, fmt, rows, tail):
    """A kill cuts only the line being written: a last line without a
    newline that does not start the next line due is refused, untouched."""
    out, _ = _sweep(tmp_path, "r", max_p=6, report_format=fmt)
    lines = out.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[:rows + (fmt == "csv")]) + tail)
    damaged = out.read_bytes()
    with pytest.raises(CheckpointError, match="no newline.*--from-scratch"):
        run_sweep(SweepConfig(max_p=6, out_path=str(out), report_format=fmt))
    assert out.read_bytes() == damaged


@pytest.mark.parametrize(
    "worker, p",
    [(w, p) for w in (_records_for_p, _violations_for_p) for p in (2, 3, 8, 101, 600)],
    ids=[f"{prefix}{p}" for prefix in ("", "verify-") for p in (2, 3, 8, 101, 600)],
)
def test_records_check_canonicity_once(monkeypatch, worker, p):
    """Each canonical pair's invariants are derived once, when the walk of
    p yields it, by the sweep's worker and by verify's, which builds some
    of the records from those same invariants."""
    pairs = len(canonical_params(p))
    calls = []
    fn = lenspoly.surgery._invariants

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(lenspoly.surgery, "_invariants", counted)
    worker(p)
    assert len(calls) == pairs


@pytest.mark.parametrize(
    "worker, p",
    [(w, p) for w in (_records_for_p, _violations_for_p) for p in (2, 3, 8, 101, 600)],
    ids=[f"{prefix}{p}" for prefix in ("", "verify-") for p in (2, 3, 8, 101, 600)],
)
def test_records_scan_top_terms_once(monkeypatch, worker, p):
    """Each canonical pair's top terms are scanned once, when its period
    is checked, by the sweep's worker and by verify's, which tests the
    trigger on them and hands the same period to the records it builds
    (k = 2 and the trigger pairs)."""
    pairs = len(canonical_params(p))
    calls = []
    fn = lenspoly.alexander._top_terms

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(lenspoly.alexander, "_top_terms", counted)
    worker(p)
    assert len(calls) == pairs


@pytest.mark.parametrize("worker", [_records_for_p, _violations_for_p], ids=["sweep", "verify"])
def test_workers_read_the_values_of_canonical_params(monkeypatch, worker):
    """Each worker, walking the pairs of p as plain ints, hands the kernel
    the (p, k, inv) that SurgeryParams(p, k) validates and derives on its
    own, for each canonical k, and gets the same period, its top terms
    those _top_terms reads off its counts, pair by pair, for every
    p <= 300; the sweep's rows carry that k, k2, e, m, g and those top
    terms."""
    seen = []

    def period(*pair):
        seen.append((pair, _period(*pair)))
        return seen[-1][1]
    monkeypatch.setattr(lenspoly.sweep, "_period", period)
    for p in range(2, 301):
        seen.clear()
        out = worker(p)
        want = []
        for params in canonical_params(p):
            w = _period(params.p, params.k, params.inv)
            assert w[4:] == _top_terms(*w[:4]), params
            want.append(((p, params.k, params.inv), w))
        assert seen == want, p
        if worker is _records_for_p:
            assert [(r.k, r.k2, r.e, r.m, r.g, r.alpha1, r.alpha2) for r in out[0]] == [
                (k, inv.k2, inv.e, inv.m, w[4], w[6], w[7]) for (_, k, inv), w in want], p


def test_map_over_p_caps_workers(monkeypatch):
    """No more workers than jobs, chunks of 4 p or CPUs, and no worker
    process at all for one worker; a stand-in for the process start
    records how many this map started and starts the real process."""
    started = []
    process = multiprocessing.Process

    def counted(*args, **kwargs):
        started[:] = [sum(started) + 1]
        return process(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Process", counted)
    for cpus, jobs, start_p, max_p, want in [
        (4, 100000, 2, 11, [3]),  # 10 p, 3 chunks
        (64, 8, 2, 4, []),  # 3 p, one chunk
        (2, 2, 37, 40, []),  # 4 p, one chunk
        (2, 2, 36, 40, [2]),  # 5 p, 2 chunks
        (2, 2, 2, 40, [2]),
        (8, 2, 7, 7, []),   # one p value
        (8, 3, 8, 7, []),   # none
        (None, 8, 2, 40, []),
        (1, 8, 2, 40, []),
    ]:
        started.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = list(lenspoly.sweep._map_over_p(str, start_p, max_p, jobs))
        assert got == [(p, str(p)) for p in range(start_p, max_p + 1)]
        assert started == want, (cpus, jobs, start_p, max_p)
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("start_p, max_p", [(2, 40), (5, 11), (2, 9), (39, 40)])
def test_map_over_p_pooled_equals_serial(monkeypatch, start_p, max_p):
    """Two workers give the serial map, in p order, when the number of p
    is not a multiple of the chunk size of 4 (39 and 7 p) and when there
    are fewer chunks than the 4 sent ahead (2 chunks).  The 2 p of
    (39, 40) make one chunk, so that map runs serially."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    serial = list(_map_over_p(_violations_for_p, start_p, max_p, 1))
    assert list(_map_over_p(_violations_for_p, start_p, max_p, 2)) == serial
    assert [p for p, _ in serial] == list(range(start_p, max_p + 1))


def test_sweep_resume_rejects_gap(tmp_path):
    """A row missing from the middle of a complete p is not a kill: the
    resume refuses instead of sweeping on past the gap; so it does for a
    duplicated row and for two rows out of order."""
    out, _ = _sweep(tmp_path, "gap.csv", max_p=30)
    lines = out.read_text().splitlines(keepends=True)
    n = lines.index(next(line for line in lines if line.startswith("17,3,")))
    for damaged in (lines[:n] + lines[n + 1:],
                    lines[:n + 1] + lines[n:],
                    lines[:n] + [lines[n + 1], lines[n]] + lines[n + 2:]):
        out.write_text("".join(damaged))
        with pytest.raises(CheckpointError, match="p = 17"):
            run_sweep(SweepConfig(max_p=40, out_path=str(out)))
        assert out.read_text() == "".join(damaged)


@pytest.mark.parametrize("fmt, text", [
    ("csv", ""), ("csv", ",".join(CSV_COLUMNS) + "\n"), ("csv", "p,k,k2,e"),
    ("jsonl", ""), ("jsonl", '{"p":2,"k"'),
])
def test_sweep_resume_without_complete_p_starts_fresh(tmp_path, fmt, text):
    """An empty or header-only report, or one cut inside its first line,
    holds no complete p: the run starts fresh."""
    clean, _ = _sweep(tmp_path, "clean", max_p=20, report_format=fmt)
    out = tmp_path / "out"
    out.write_text(text)
    summary = run_sweep(SweepConfig(max_p=20, out_path=str(out), report_format=fmt))
    assert summary.resumed_from is None
    assert out.read_bytes() == clean.read_bytes()


def test_sweep_corrupted_checkpoint(tmp_path):
    out, _ = _sweep(tmp_path, "s.csv")
    lines = out.read_text().splitlines(keepends=True)
    lines[100] = "not a row at all {\n"
    out.write_text("".join(lines))
    damaged = out.read_bytes()
    with pytest.raises(CheckpointError, match="--from-scratch"):
        run_sweep(SweepConfig(max_p=70, out_path=str(out)))
    assert out.read_bytes() == damaged
    # explicit restart clears the bad state
    summary = run_sweep(SweepConfig(max_p=70, out_path=str(out), from_scratch=True))
    assert summary.resumed_from is None
    fresh, _ = _sweep(tmp_path, "fresh.csv", max_p=70)
    assert out.read_bytes() == fresh.read_bytes()


def test_sweep_rejects_unknown_schema(tmp_path):
    """A report from another format version (here one more column) is
    not resumed and not touched, in either format."""
    for fmt in ("csv", "jsonl"):
        out, _ = _sweep(tmp_path, "s." + fmt, report_format=fmt)
        lines = out.read_text().splitlines()
        if fmt == "csv":
            other = "".join(line + ",0\n" for line in lines)
        else:
            other = "".join(json.dumps({**json.loads(line), "delta_one": 1},
                                       separators=(",", ":")) + "\n" for line in lines)
        out.write_text(other)
        with pytest.raises(CheckpointError, match="--from-scratch"):
            run_sweep(SweepConfig(max_p=70, out_path=str(out), report_format=fmt))
        assert out.read_text() == other


def test_sweep_jsonl_format(tmp_path):
    out_csv, _ = _sweep(tmp_path, "s.csv")
    out = tmp_path / "s.jsonl"
    summary = run_sweep(SweepConfig(max_p=60, out_path=str(out), report_format="jsonl"))
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == summary.records
    assert rows[0] == {
        "p": 2, "k": 1, "k2": 1, "e": 1, "m": 0, "g": 0, "alpha1": 0, "alpha2": 0,
        "trivial": True, "flat": True, "alternating": True, "torus2_match": True,
        "top_sign_ok": True, "lemma_hypothesis": True, "lemma_bound_ok": True,
        "lemma_zeros_ok": True,
    }
    # same data as the CSV, field for field
    csv_lines = out_csv.read_text().splitlines()[1:]
    assert len(csv_lines) == len(rows)
    for line, row in zip(csv_lines, rows):
        cells = line.split(",")
        for idx, col in enumerate(CSV_COLUMNS):
            want = row[col]
            want = int(want) if isinstance(want, bool) else want
            assert int(cells[idx]) == want


def test_sweep_jsonl_resume(tmp_path):
    out = tmp_path / "r.jsonl"
    run_sweep(SweepConfig(max_p=30, out_path=str(out), report_format="jsonl"))
    summary = run_sweep(SweepConfig(max_p=50, out_path=str(out), report_format="jsonl"))
    assert summary.resumed_from == 30
    clean = tmp_path / "c.jsonl"
    run_sweep(SweepConfig(max_p=50, out_path=str(clean), report_format="jsonl"))
    assert out.read_bytes() == clean.read_bytes()


def test_sweep_timing_side_file(tmp_path):
    out, _ = _sweep(tmp_path, "s.csv", jobs=2)
    meta = json.loads((tmp_path / "s.csv.timing.json").read_text())
    assert meta["schema"] == 1
    assert meta["max_p"] == 60
    assert meta["jobs"] == 2
    assert meta["resumed_from"] is None
    assert meta["elapsed_us"] > 0
    assert set(meta["per_p_elapsed_us"]) == {str(p) for p in range(2, 61)}
    assert all(isinstance(us, int) and us >= 0 for us in meta["per_p_elapsed_us"].values())
    # timing lives only here; the report itself has no timing column
    assert "elapsed" not in out.read_text().splitlines()[0]
    # a resumed run times the p it sweeps
    run_sweep(SweepConfig(max_p=70, out_path=str(out)))
    meta = json.loads((tmp_path / "s.csv.timing.json").read_text())
    assert (meta["schema"], meta["resumed_from"]) == (1, 60)
    assert set(meta["per_p_elapsed_us"]) == {str(p) for p in range(61, 71)}


def test_sweep_summary_violations(tmp_path):
    _, s14 = _sweep(tmp_path, "a.csv", max_p=14)
    assert s14.theorem_violations == 0
    assert s14.lemma_violations == 0
    _, s20 = _sweep(tmp_path, "b.csv", max_p=20)
    assert s20.theorem_violations == 1  # (15,4)
    assert s20.lemma_violations == 0


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_sweep_summary_same_for_any_jobs_and_resume(tmp_path, fmt):
    """The workers count the rows they return and the coordinator adds
    the counts up: every count of the summary is the same with one job,
    with two, and after an interrupt and a resume, and is the tally of
    the rows of the report."""
    def counts(summary):
        return [getattr(summary, name) for name in (
            "records", "nontrivial", "top_sign_ok", "flat", "alternating",
            "theorem_violations", "lemma_violations")]

    _, one = _sweep(tmp_path, "one", jobs=1, report_format=fmt)
    _, two = _sweep(tmp_path, "two", jobs=2, report_format=fmt)

    class Stop(Exception):
        pass

    def interrupt(p):
        if p >= 30:
            raise Stop

    out = tmp_path / "resumed"
    with pytest.raises(Stop):
        run_sweep(SweepConfig(max_p=60, out_path=str(out), jobs=2, report_format=fmt), interrupt)
    assert multiprocessing.active_children() == []
    resumed = run_sweep(SweepConfig(max_p=60, out_path=str(out), jobs=2, report_format=fmt))
    assert resumed.resumed_from == 30

    oracle = SweepSummary()
    for record in map(compute_record, enumerate_params(60)):
        oracle.records += 1
        if not record.trivial:
            oracle.nontrivial += 1
            oracle.top_sign_ok += record.top_sign_ok
            oracle.flat += record.flat
            oracle.alternating += record.alternating
        oracle.theorem_violations += is_theorem_violation(record)
        oracle.lemma_violations += is_lemma_violation(record)
    assert counts(one) == counts(two) == counts(resumed) == counts(oracle)
    assert one.records == 329 and one.theorem_violations > 0


def test_sweep_unwritable_path(tmp_path):
    config = SweepConfig(max_p=10, out_path=str(tmp_path / "missing" / "x.csv"))
    with pytest.raises(OSError):
        run_sweep(config)


def test_sweep_config_validation(tmp_path):
    with pytest.raises(ValueError):
        SweepConfig(max_p=1, out_path=str(tmp_path / "x.csv"))
    with pytest.raises(ValueError):
        SweepConfig(max_p=10, out_path=str(tmp_path / "x.csv"), jobs=0)
    with pytest.raises(ValueError):
        SweepConfig(max_p=10, out_path=str(tmp_path / "x.csv"), report_format="xml")
