"""Exit codes, golden text output, and format round trips for the CLI."""

import hashlib
import json
import math
import random
import subprocess
import sys

import pytest

from lenspoly.alexander import IntegrityError, polynomial, polynomial_from_json
from lenspoly.cli import main
from lenspoly.surgery import SurgeryParams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- goldens


def test_invariants_json_golden(capsys):
    code, out, _ = run_cli(capsys, "invariants", "-p", "19", "-k", "7", "--format", "json")
    assert code == 0
    assert out == '{"p":19,"k":7,"k2":8,"e":-1,"m":3,"q":-8,"q2":7,"c":-33}\n'


def test_invariants_text(capsys):
    code, out, _ = run_cli(capsys, "invariants", "-p", "11", "-k", "2")
    assert code == 0
    assert "p = 11" in out
    assert "k2 = 5" in out
    assert "c = -4" in out


def test_poly_text_golden(capsys):
    code, out, _ = run_cli(capsys, "poly", "-p", "7", "-k", "2")
    assert code == 0
    assert out == "t - 1 + t^-1\n"


def test_poly_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "-p", "11", "-k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"g": 2, "coeffs": [1, -1, 1, -1, 1]}


def test_matrix_text_golden(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "-p", "11", "-k", "2",
        "--i0", "0", "--i1", "2", "--j0", "0", "--j1", "4",
    )
    assert code == 0
    assert out == "+ . -\n- . +\n+ . -\n- . +\n+ . .\n"


def test_matrix_json_da(capsys):
    code, out, _ = run_cli(
        capsys, "matrix", "-p", "11", "-k", "2", "--kind", "dA",
        "--format", "json", "--i0", "0", "--i1", "2", "--j0", "0", "--j1", "1",
    )
    assert code == 0
    assert json.loads(out) == {"kind": "dA", "i0": 0, "j0": 0,
                               "rows": [[1, -1, 0], [-1, 1, 1]]}


def test_lemma_json(capsys):
    code, out, _ = run_cli(capsys, "lemma", "-p", "11", "-k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "p": 11, "k": 2, "k2": 5,
        "hypothesis_found": True, "bound_ok": True, "no_adjacent_zeros": True,
    }


def test_curve_json_and_svg(capsys, tmp_path):
    svg_path = tmp_path / "c.svg"
    code, out, _ = run_cli(
        capsys, "curve", "-p", "11", "-k", "2", "--format", "json",
        "--i0", "-1", "--i1", "6", "--j0", "-6", "--j1", "5",
        "--svg", str(svg_path),
    )
    assert code == 0
    blob = json.loads(out)
    assert (blob["i0"], blob["i1"], blob["j0"], blob["j1"]) == (-1, 6, -6, 5)
    translates = [c["translate"] for c in blob["components"]]
    assert translates == sorted(translates)
    for translate in (0, 1, 2):  # fully covered by this window
        assert translates.count(translate) == 1
    for component in blob["components"]:
        for i, j, sign in component["arrows"]:
            assert sign in (-1, 1)
    text = svg_path.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and 'version="1.1"' in text
    assert text.count("<polyline") == len(blob["components"])


def test_curve_text_for_trivial_parameter(capsys):
    code, out, _ = run_cli(capsys, "curve", "-p", "7", "-k", "1",
                           "--i0", "0", "--i1", "3", "--j0", "0", "--j1", "2")
    assert code == 0
    for line in out.rstrip("\n").splitlines():
        assert set(line) <= {".", " "}  # no arrows anywhere


# ------------------------------------------------------------ normalization


def test_noncanonical_k_notice(capsys):
    code6, out6, err6 = run_cli(capsys, "invariants", "-p", "11", "-k", "6", "--format", "json")
    code2, out2, err2 = run_cli(capsys, "invariants", "-p", "11", "-k", "2", "--format", "json")
    assert code6 == code2 == 0
    assert out6 == out2
    assert "canonical" in err6
    assert err2 == ""


def test_round_trip_100_random_parameters(capsys):
    pool = []
    for p in range(2, 301):
        for k in range(1, p // 2 + 1):
            if math.gcd(p, k) != 1:
                continue
            try:
                pool.append(SurgeryParams(p, k))
            except ValueError:
                pass
    sample = random.Random(0xC11).sample(pool, 100)
    for params in sample:
        code, out, _ = run_cli(capsys, "poly", "-p", str(params.p), "-k", str(params.k),
                               "--format", "json")
        if code == 4:
            # the strict layer rejects parameters whose generated series
            # does not evaluate to 1; confirm and move on
            with pytest.raises(IntegrityError):
                polynomial(params)
            continue
        assert code == 0
        assert polynomial_from_json(json.loads(out)) == polynomial(params)


# ---------------------------------------------------------------- verifiers


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-p", "14")
    assert code == 0
    assert "theorem violations: 0" in out
    assert "corollary violations: 0" in out

    code, out, _ = run_cli(capsys, "verify", "--max-p", "20")
    assert code == 1
    assert "(p=15, k=4)" in out


def test_sweep_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "sweep", "--max-p", "14",
                           "--out", str(tmp_path / "a.csv"))
    assert code == 0
    assert "records:" in out

    code, out, _ = run_cli(capsys, "sweep", "--max-p", "20",
                           "--out", str(tmp_path / "b.csv"))
    assert code == 1
    assert "theorem violations: 1" in out


def test_report_and_verify_bytes_pinned(capsys, tmp_path):
    """Refactor guard: the p <= 200 reports and verify output, byte for byte."""
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    for fmt, digest in (
        ("csv", "c2827b2d6e30541dd3139dc3e1f9d2e8019fd07b85da6b585e5381bfd630df93"),
        ("jsonl", "f15491f6b4985065c118737b048c6bccb819ca8d68a11dea9eff94b2c5a76626"),
    ):
        out = tmp_path / f"r.{fmt}"
        code, _, _ = run_cli(capsys, "sweep", "--max-p", "200", "--out", str(out),
                             "--format", fmt)
        assert code == 1
        assert sha(out.read_bytes()) == digest, fmt
    code, out, _ = run_cli(capsys, "verify", "--max-p", "200")
    assert code == 1
    assert sha(out.encode()) == "b3666a3c97037ae459eb935d67e9dff5098bbb502e4ad2b7bc5b355d9ede5579"


# -------------------------------------------------------------- error paths


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["poly", "-p", "7"])  # missing -k
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        main(["poly", "-p", "7", "-k", "2", "--format", "xml"])
    assert exc_info.value.code == 2
    capsys.readouterr()


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "poly", "-p", "10", "-k", "4")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "invariants", "-p", "1", "-k", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "matrix", "-p", "11", "-k", "2", "--i0", "0")
    assert code == 2
    assert "--i0 --i1 --j0 --j1" in err


def test_integrity_failure_exit_4(capsys):
    code, _, err = run_cli(capsys, "poly", "-p", "8", "-k", "3")
    assert code == 4
    assert "p=8" in err and "k=3" in err


def test_io_failure_exit_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", "--max-p", "10",
                           "--out", str(tmp_path / "missing" / "x.csv"))
    assert code == 3
    code, _, err = run_cli(capsys, "curve", "-p", "11", "-k", "2",
                           "--svg", str(tmp_path / "missing" / "c.svg"))
    assert code == 3


def test_corrupted_checkpoint_exit_3(capsys, tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli(capsys, "sweep", "--max-p", "12", "--out", str(out))[0] == 0
    (tmp_path / "s.csv.checkpoint.json").write_text("{broken")
    code, _, err = run_cli(capsys, "sweep", "--max-p", "14", "--out", str(out))
    assert code == 3
    assert "--from-scratch" in err


@pytest.mark.parametrize("first, second", [("csv", "jsonl"), ("jsonl", "csv")])
def test_resume_in_other_format_exit_3(capsys, tmp_path, first, second):
    """Resuming a report in the other format must not drop its rows."""
    out = tmp_path / "r.csv"
    assert run_cli(capsys, "sweep", "--max-p", "20", "--out", str(out),
                   "--format", first)[0] == 1
    before = out.read_bytes()
    code, _, err = run_cli(capsys, "sweep", "--max-p", "30", "--out", str(out),
                           "--format", second)
    assert code == 3
    assert "--from-scratch" in err
    assert out.read_bytes() == before


# ----------------------------------------------------------------- packaging


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lenspoly", "poly", "-p", "7", "-k", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "t - 1 + t^-1\n"


def test_console_script_notice_on_stderr():
    proc = subprocess.run(
        [sys.executable, "-m", "lenspoly", "poly", "-p", "11", "-k", "9"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "t^2 - t + 1 - t^-1 + t^-2\n"
    assert "canonical" in proc.stderr
