"""Enumeration, record assembly, verification passes, and resumable reports."""

import json
import math

import pytest

from lenspoly.surgery import SurgeryParams, reduce_mod
from lenspoly.sweep import (
    CSV_COLUMNS,
    CheckpointError,
    SweepConfig,
    compute_record,
    enumerate_params,
    run_sweep,
    verify_corollary,
    verify_theorem,
)


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
    got = sum(1 for _ in enumerate_params(100))
    assert got == brute_force_orbit_count(100)


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
    assert r.elapsed_us >= 0


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
    assert verify_corollary(14) == []


def test_verify_corollary_reverse_direction_clean():
    """Every canonical (p,2) gives the (2,2g+1) torus polynomial with
    p in {4g+1, 4g+3}; only forward-direction failures exist below 200."""
    for violation in verify_corollary(200):
        assert violation.reason.startswith("forward:"), violation


def test_verify_with_jobs_matches_serial():
    assert verify_theorem(80, jobs=3) == verify_theorem(80)
    assert verify_corollary(80, jobs=3) == verify_corollary(80)


# -------------------------------------------------------------------- sweep


def test_csv_columns_contract():
    assert CSV_COLUMNS == (
        "p", "k", "k2", "e", "m", "g", "alpha1", "alpha2",
        "trivial", "flat", "alternating", "torus2_match", "top_sign_ok",
        "lemma_hypothesis", "lemma_bound_ok", "lemma_zeros_ok",
    )


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
    checkpoint = json.loads((tmp_path / "resumed.csv.checkpoint.json").read_text())
    assert checkpoint["schema"] == 1
    assert checkpoint["completed_p"] == 30

    summary = run_sweep(SweepConfig(max_p=60, out_path=str(out)))
    assert summary.resumed_from == 30
    assert out.read_bytes() == clean.read_bytes()


def test_sweep_resume_discards_rows_past_checkpoint(tmp_path):
    """Rows written after the last checkpointed p (a mid-write crash),
    the last one cut short, are dropped on resume instead of duplicated."""
    clean, _ = _sweep(tmp_path, "clean.csv", max_p=40)
    out = tmp_path / "crashy.csv"
    _sweep(tmp_path, "crashy.csv", max_p=40)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("41,2,10,")
    # simulate: checkpoint rolled back to 25, report retains rows up to 40
    (tmp_path / "crashy.csv.checkpoint.json").write_text(
        json.dumps({"max_p": 40, "completed_p": 25, "schema": 1})
    )
    summary = run_sweep(SweepConfig(max_p=40, out_path=str(out)))
    assert summary.resumed_from == 25
    assert out.read_bytes() == clean.read_bytes()


def test_sweep_corrupted_checkpoint(tmp_path):
    out, _ = _sweep(tmp_path, "s.csv")
    (tmp_path / "s.csv.checkpoint.json").write_text("not json at all {")
    with pytest.raises(CheckpointError):
        run_sweep(SweepConfig(max_p=70, out_path=str(out)))
    # explicit restart clears the bad state
    summary = run_sweep(SweepConfig(max_p=70, out_path=str(out), from_scratch=True))
    assert summary.resumed_from is None
    fresh, _ = _sweep(tmp_path, "fresh.csv", max_p=70)
    assert out.read_bytes() == fresh.read_bytes()


def test_sweep_rejects_unknown_schema(tmp_path):
    out, _ = _sweep(tmp_path, "s.csv")
    (tmp_path / "s.csv.checkpoint.json").write_text(
        json.dumps({"max_p": 60, "completed_p": 60, "schema": 99})
    )
    with pytest.raises(CheckpointError):
        run_sweep(SweepConfig(max_p=70, out_path=str(out)))


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
    # timing lives only here; the report itself has no timing column
    assert "elapsed" not in out.read_text().splitlines()[0]


def test_sweep_summary_violations(tmp_path):
    _, s14 = _sweep(tmp_path, "a.csv", max_p=14)
    assert s14.theorem_violations == 0
    assert s14.lemma_violations == 0
    _, s20 = _sweep(tmp_path, "b.csv", max_p=20)
    assert s20.theorem_violations == 1  # (15,4)
    assert s20.lemma_violations == 0


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
