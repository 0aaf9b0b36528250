"""Exit codes, golden text output, and format round trips for the CLI."""

import argparse
import hashlib
import json
import math
import random
import subprocess
import sys

import pytest

import lenspoly.alexander
import lenspoly.cli
import lenspoly.lattice
from lenspoly.alexander import IntegrityError, polynomial
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


@pytest.mark.parametrize("command", ["curve", "matrix"])
def test_curve_and_matrix_generate_once(capsys, monkeypatch, tmp_path, command):
    """One polynomial and one set of invariants per call, whichever module
    asks for them."""
    calls = {"generate": 0, "derive_invariants": 0}
    for module in (lenspoly.cli, lenspoly.lattice, lenspoly.alexander):
        for name in calls:
            fn = getattr(module, name, None)
            if fn is not None:
                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)
    extra = ("--svg", str(tmp_path / "c.svg")) if command == "curve" else ("--kind", "dA")
    assert run_cli(capsys, command, "-p", "19", "-k", "7", *extra)[0] == 0
    assert calls == {"generate": 1, "derive_invariants": 1}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_parser_reused_without_leaks(capsys, monkeypatch, tmp_path):
    """After one warm call no parser is built again (no argument is added to
    any parser), and nothing one call parsed reaches the next: a dA matrix
    then an A one, a curve with --svg then one without, and usage errors
    (one after --svg was read) then valid calls all give their goldens."""
    a_19_7 = "0bd17a89e1f750b4ccd015aa2c9add59251c53ad9696ecc834f6816369aac5e2"
    da_19_7 = "19d11dc97c895ea06b8c6afc0901b941de33f9a131cc8bdfaff8a7dc8584e5b7"
    curve_19_7 = "6d33371ad5582a5832bb393fb9d9f90e37ee2421b9e91751cd99633cceb239cf"
    assert run_cli(capsys, "poly", "-p", "7", "-k", "2")[0] == 0  # warm
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    matrix = ("matrix", "-p", "19", "-k", "7", "--format", "json")
    code, out, _ = run_cli(capsys, *matrix, "--kind", "dA")
    assert (code, _sha(out)) == (0, da_19_7)
    code, out, _ = run_cli(capsys, *matrix)
    assert (code, _sha(out)) == (0, a_19_7)

    svg, unwritten = tmp_path / "c.svg", tmp_path / "never.svg"
    assert run_cli(capsys, "curve", "-p", "11", "-k", "2", "--svg", str(svg))[0] == 0
    before = svg.read_bytes()
    code, out, _ = run_cli(capsys, "curve", "-p", "19", "-k", "7", "--format", "json")
    assert (code, _sha(out)) == (0, curve_19_7)
    assert svg.read_bytes() == before

    for bad in ((*matrix, "--kind", "B"),
                ("curve", "-p", "11", "-k", "2", "--svg", str(unwritten), "--i0", "x")):
        with pytest.raises(SystemExit) as exc_info:
            main(list(bad))
        assert exc_info.value.code == 2
        capsys.readouterr()
    code, out, _ = run_cli(capsys, *matrix)
    assert (code, _sha(out)) == (0, a_19_7)
    code, out, _ = run_cli(capsys, "curve", "-p", "19", "-k", "7", "--format", "json")
    assert (code, _sha(out)) == (0, curve_19_7)
    assert not unwritten.exists()
    assert added == []


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
        poly = polynomial(params)
        assert json.loads(out) == {"g": poly.g, "coeffs": list(poly.coeffs)}


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


@pytest.mark.parametrize("p, k, window, stdout_digest, svg_digest", [
    ("11", "2", ("--i0", "-1", "--i1", "6", "--j0", "-6", "--j1", "5"),
     "48a220a8a3df109f320676178aa6ec4f30b79eec11518d5a4c36282f6163c9c8",
     "4c566ee52ae9a4ee72abbbd379467c792460872fea0fe739ef56c5714557618a"),
    ("19", "7", (),
     "6d33371ad5582a5832bb393fb9d9f90e37ee2421b9e91751cd99633cceb239cf",
     "7b27abafd581be26ceeaaa777858db3bb869890f3757ff679620e417225f4e00"),
    ("31", "12", (),
     "3385fd1a2ffce10230ea077b3c516c1a7f01ef4a29cb6d2c3a998803fb9b2e04",
     "68b5ab59c860c997b6751c4cb449ccdb88091950724872da22fbb0f19cbdb745"),
    ("8", "3", (),  # anomalous: the strict polynomial is refused, the curve is not
     "3fb724f936fb98a3ebc4a9356e8c7ec9adcc54d69a23feb3aa817aa342dd590b",
     "da7e06ddfa1c9cc2cbf304fe872cc37fba0a331471830ab36cb3ab9af401269a"),
    ("13", "1", (),  # trivial polynomial: no components, no region
     "0b4b1167eb330c31ec35c12c74e6a8d5579380120e2e322a91ac7004a492c087",
     "1b9d490483c9260fabcc860be21b108eaf6f032e7f202f4f2c0ebb76f336fd55"),
], ids=["11-2-window", "19-7", "31-12", "8-3", "13-1"])
def test_curve_bytes_pinned(capsys, tmp_path, p, k, window, stdout_digest, svg_digest):
    """Refactor guard: the curve JSON on stdout and the SVG file, byte for byte."""
    svg_path = tmp_path / "c.svg"
    code, out, _ = run_cli(capsys, "curve", "-p", p, "-k", k, "--format", "json", *window,
                           "--svg", str(svg_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == svg_digest


@pytest.mark.parametrize("kind, p, k, window, digest", [
    ("A", "19", "7", (), "0bd17a89e1f750b4ccd015aa2c9add59251c53ad9696ecc834f6816369aac5e2"),
    ("A", "31", "12", (), "5c98a6cce910a9e56b8e0f602d339d3f68062582e7874974bba340f061139072"),
    ("A", "8", "3", (), "76cc9393f6a127d8946dedd052e7e9353f602b5a15c6ca804605eff31a2e1fe4"),
    ("A", "13", "1", (), "8c94a0aeaa90008e0228fe654c03c406b56d563260ad3561ad129316477720b0"),
    ("A", "11", "2", ("--i0", "-1", "--i1", "6", "--j0", "-6", "--j1", "5"),
     "ee1e3dcc29bceb902361c695f09149e40008b7fe62fa5cb98609435b2804a6b7"),
    ("dA", "19", "7", (), "19d11dc97c895ea06b8c6afc0901b941de33f9a131cc8bdfaff8a7dc8584e5b7"),
    ("dA", "31", "12", (), "e9d31e689ac6923425f8919ea63d76eaeca75f51465e32f09c2f76e94bb00897"),
    ("dA", "8", "3", (), "b382311a7266b8f638733c06e097af3dc64b07d16904dc48e93a82d779449615"),
    ("dA", "13", "1", (), "d44c94ec7bcf85fc986e1136bf6982b1b70ce15d293d6bdb8a528fad41141d18"),
    ("dA", "11", "2", ("--i0", "-1", "--i1", "6", "--j0", "-6", "--j1", "5"),
     "bf804e3e673ba85a91356bb47515022435f100fd81a6b1d162f9e8437db09e76"),
], ids=[f"{kind}-{case}" for kind in ("A", "dA")
        for case in ("19-7", "31-12", "8-3", "13-1", "11-2-window")])
def test_matrix_bytes_pinned(capsys, kind, p, k, window, digest):
    """Refactor guard: the matrix JSON on stdout, byte for byte."""
    code, out, _ = run_cli(capsys, "matrix", "-p", p, "-k", k, "--kind", kind,
                           "--format", "json", *window)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("kind, p, k, window, digest", [
    ("A", "19", "7", (), "16bd94a6eb985104a066394c73e7ec71ed8463584bc3b19171d3021cf234701c"),
    ("A", "31", "12", (), "b634410e51a975280de34d45e2e2bae89aa74eef192b55cf77185a77c0de1f8f"),
    ("A", "8", "3", (), "f1e6372d8a4300d958f196b59adccd37086d5520fd6b0243242d19944c63f013"),
    ("A", "13", "1", (), "33dac45069812a2139ec148496801a4253e5f5495909f93d73789e40b6b6d58e"),
    ("A", "11", "2", ("--i0", "-1", "--i1", "6", "--j0", "-6", "--j1", "5"),
     "c079191fb09855e340729b644d5f2d759279fe56662dd8f75d902f2909b0e9ad"),
    ("dA", "19", "7", (), "2a6fe4cb328a99adaaba1bb09c549d6a87932299fff4b2502ff7944e240f271e"),
    ("dA", "31", "12", (), "a977e4dfa8ab0a22af50d347920334624650654a1cf070a7070d9ac7f01be903"),
    ("dA", "8", "3", (), "d4ffdbe011d798d806ab0e47615537f5cc8e544e6ff47a8316ed43833d18e966"),
    ("dA", "13", "1", (), "c1ca6e330f488ce1d0a08d2f75f34581d67937cdcb8447de5c122cd357f1c93c"),
    ("dA", "11", "2", ("--i0", "-1", "--i1", "6", "--j0", "-6", "--j1", "5"),
     "cf3fe939a32113d309c4b49234b342f48648c8e9c47c6dfa751c3c2f4b1c84f4"),
], ids=[f"{kind}-{case}" for kind in ("A", "dA")
        for case in ("19-7", "31-12", "8-3", "13-1", "11-2-window")])
def test_matrix_text_bytes_pinned(capsys, kind, p, k, window, digest):
    """Refactor guard: the default text matrix on stdout, byte for byte."""
    code, out, _ = run_cli(capsys, "matrix", "-p", p, "-k", k, "--kind", kind,
                           "--format", "text", *window)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    huge = ("-p", "11", "-k", "2", "--i0", "0", "--i1", "100000", "--j0", "0", "--j1", "100000")
    # no columns, but one empty row per j: the rows count against the limit
    tall = ("-p", "11", "-k", "2", "--i0", "1", "--i1", "0", "--j0", "0", "--j1", "4194304")
    for command in ("matrix", "curve"):
        for window in (huge, tall):
            code, out, err = run_cli(capsys, command, *window, "--format", "json")
            assert (code, out) == (2, "")
            assert "exceeds the limit" in err
    for flags in (("--max-p", "1"), ("--max-p", "10", "--jobs", "0")):
        code, out, err = run_cli(capsys, "verify", *flags)
        assert (code, out) == (2, "")
        assert "must be >= " in err


def test_generating_commands_refuse_huge_p(capsys, monkeypatch):
    """poly, matrix and curve exit 2 above p = 2^22 before generate runs;
    invariants and lemma, which are O(1), still answer there."""
    class Generated(Exception):
        pass

    def generate(*args, **kwargs):
        raise Generated

    for module in (lenspoly.cli, lenspoly.alexander):
        monkeypatch.setattr(module, "generate", generate)
    window = ("--i0", "0", "--i1", "1", "--j0", "0", "--j1", "1")
    for p in (2**22 + 1, 1000000007):
        pk = ("-p", str(p), "-k", "2")
        for argv in (("poly", *pk), ("matrix", *pk, *window), ("curve", *pk, *window),
                     ("curve", *pk)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert f"p = {p} exceeds the limit of 4194304" in err
        for command in ("invariants", "lemma"):
            assert run_cli(capsys, command, *pk)[0] == 0
    for argv in (("poly",), ("matrix", *window), ("curve", *window)):
        with pytest.raises(Generated):  # p = 2^22 is still in range
            main([*argv, "-p", str(2**22), "-k", "3"])
    capsys.readouterr()


def test_integrity_failure_exit_4(capsys):
    code, _, err = run_cli(capsys, "poly", "-p", "8", "-k", "3")
    assert code == 4
    assert "p=8" in err and "k=3" in err


def test_internal_value_error_exit_4(capsys, monkeypatch):
    """A ValueError that is not an argument error is internal, not usage."""
    def broken(params):
        raise ValueError("coefficients not symmetric at index 1")

    monkeypatch.setattr(lenspoly.cli, "polynomial", broken)
    code, _, err = run_cli(capsys, "poly", "-p", "7", "-k", "2")
    assert code == 4
    assert err.startswith("internal error:")


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
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("{broken\n")
    before = out.read_bytes()
    code, _, err = run_cli(capsys, "sweep", "--max-p", "14", "--out", str(out))
    assert code == 3
    assert "--from-scratch" in err
    assert out.read_bytes() == before
    assert run_cli(capsys, "sweep", "--max-p", "14", "--out", str(out), "--from-scratch")[0] == 0
    assert out.read_text().splitlines()[-1].startswith("14,")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_resume_damaged_single_row_exit_3(capsys, tmp_path, fmt):
    """A complete row that lost a field is damage, not a torn write: the
    resume exits 3 and leaves the report as it was, so the row survives."""
    out = tmp_path / f"r.{fmt}"
    assert run_cli(capsys, "sweep", "--max-p", "2", "--out", str(out), "--format", fmt)[0] == 0
    lines = out.read_text().splitlines()
    assert len(lines) == (2 if fmt == "csv" else 1)
    if fmt == "csv":
        lines[1] = lines[1].rsplit(",", 1)[0]
    else:
        row = json.loads(lines[0])
        del row["lemma_zeros_ok"]
        lines[0] = json.dumps(row, separators=(",", ":"))
    out.write_text("".join(line + "\n" for line in lines))
    before = out.read_bytes()
    code, _, err = run_cli(capsys, "sweep", "--max-p", "5", "--out", str(out), "--format", fmt)
    assert code == 3
    assert "--from-scratch" in err
    assert out.read_bytes() == before


def test_resume_without_checkpoint_file_exit_3(capsys, tmp_path):
    """Without a checkpoint file the report alone decides: a finished
    report with a line that is not a row is refused, not overwritten."""
    out = tmp_path / "s.csv"
    assert run_cli(capsys, "sweep", "--max-p", "12", "--out", str(out))[0] == 0
    (tmp_path / "s.csv.checkpoint.json").unlink(missing_ok=True)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("notes\n")
    before = out.read_bytes()
    code, _, err = run_cli(capsys, "sweep", "--max-p", "14", "--out", str(out))
    assert code == 3
    assert "--from-scratch" in err
    assert out.read_bytes() == before


def test_checkpoint_flag_removed_exit_2(capsys, tmp_path):
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc_info:
        main(["sweep", "--max-p", "5", "--out", str(out), "--checkpoint", "x"])
    assert exc_info.value.code == 2
    assert "--checkpoint" in capsys.readouterr().err
    assert not out.exists()


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
