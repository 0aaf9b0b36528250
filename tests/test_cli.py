"""Exit codes, golden text output, and format round trips for the CLI."""

import argparse
import hashlib
import json
import os
import pathlib
import random
import resource
import stat
import subprocess
import sys
import tracemalloc

import pytest

import lenspoly.alexander
import lenspoly.cli
import lenspoly.lattice
import lenspoly.render
import lenspoly.surgery
from lenspoly.alexander import (
    IntegrityError,
    SymmetricLaurentPolynomial,
    format_polynomial,
    generate,
    polynomial,
)
from lenspoly.cli import _encode_json, main
from lenspoly.lattice import Window, fundamental_window, non_zero_region, trace_curves
from lenspoly.render import ascii_curves
from lenspoly.surgery import SurgeryParams
from lenspoly.sweep import enumerate_params
from test_lattice import svg_curves_per_cell


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


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_poly_text_is_format_polynomial_in_chunks(capsys, monkeypatch, chunk):
    """`poly` writes its text a chunk of terms at a time, and the chunks
    join to format_polynomial's text: with a top coefficient of -1,
    coefficients of magnitude 2 and 3, the trivial 1 and the zero
    polynomial (which the strict generator never returns, so it is
    patched in)."""
    monkeypatch.setattr(lenspoly.cli, "_POLY_CHUNK_TERMS", chunk)
    for p, k in [(7, 2), (19, 7), (4, 1), (13, 5), (17, 3), (17, 4)]:
        code, out, _ = run_cli(capsys, "poly", "-p", str(p), "-k", str(k))
        assert code == 0
        assert out == format_polynomial(polynomial(SurgeryParams(p, k))) + "\n", (p, k)
    zero = SymmetricLaurentPolynomial(0, (0,))
    monkeypatch.setattr(lenspoly.cli, "polynomial", lambda params: zero)
    assert run_cli(capsys, "poly", "-p", "7", "-k", "2") == (0, "0\n", "")
    assert format_polynomial(zero) == "0"


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
    assert json.loads(out) == {"p": 11, "k": 2, "k2": 5, "hypothesis_found": True}
    assert out == '{"p":11,"k":2,"k2":5,"hypothesis_found":true}\n'


@pytest.mark.parametrize("k, line", [
    ("2", "hypothesis_found = true (p = 11, 3*k2 = 15)"),
    ("1", "hypothesis_found = false (p = 11, 3*k2 = 3)"),
])
def test_lemma_text(capsys, k, line):
    code, out, _ = run_cli(capsys, "lemma", "-p", "11", "-k", k)
    assert code == 0
    assert out == line + "\n"


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


def test_curve_svg_shades_region_without_arrows(capsys, tmp_path):
    """A window of a nontrivial pair that holds no arrow still shades its
    region cells: (3, -19) of (19, 7) lies in translate -1."""
    svg_path = tmp_path / "z.svg"
    code, out, _ = run_cli(capsys, "curve", "-p", "19", "-k", "7", "--i0", "3", "--i1", "3",
                           "--j0", "-19", "--j1", "-19", "--svg", str(svg_path))
    assert code == 0
    assert set(out.split()) == {"."}
    text = svg_path.read_text()
    assert text.count("<rect") == 1
    assert '<rect x="10" y="10" width="20" height="20" fill="#d7d7d7"/>' in text


def test_curve_lone_row_splits_where_the_entry_changes(capsys):
    """A lone row splits where the A entry changes, sign kept or not:
    (1, -23) and (2, -23) sit side by side in translate -9 with entries
    2 and 1, and come back as two components."""
    code, out, _ = run_cli(capsys, "curve", "-p", "23", "-k", "5", "--i0", "0", "--i1", "3",
                           "--j0", "-23", "--j1", "-23", "--format", "json")
    assert code == 0
    assert out == (
        '{"i0":0,"i1":3,"j0":-23,"j1":-23,"components":['
        '{"id":0,"translate":-10,"arrows":[[0,-23,2]]},'
        '{"id":1,"translate":-9,"arrows":[[1,-23,2]]},'
        '{"id":2,"translate":-9,"arrows":[[2,-23,1],[3,-23,1]]}]}\n'
    )


def test_curve_text_for_trivial_parameter(capsys):
    code, out, _ = run_cli(capsys, "curve", "-p", "7", "-k", "1",
                           "--i0", "0", "--i1", "3", "--j0", "0", "--j1", "2")
    assert code == 0
    for line in out.rstrip("\n").splitlines():
        assert set(line) <= {".", " "}  # no arrows anywhere


@pytest.mark.parametrize("command", ["curve", "matrix"])
def test_curve_and_matrix_generate_once(capsys, monkeypatch, tmp_path, command):
    """One polynomial and one set of invariants per call, whichever module
    asks for them; the invariants are derived only where SurgeryParams
    validates, in lenspoly.surgery."""
    calls = {"generate": 0, "derive_invariants": 0}
    for module in (lenspoly.cli, lenspoly.lattice, lenspoly.alexander, lenspoly.surgery):
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
    sample = random.Random(0xC11).sample(list(enumerate_params(300)), 100)
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


_CURVE_PINS = [  # (p, k, window flags, stdout sha256, SVG sha256)
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
]


@pytest.mark.parametrize("p, k, window, stdout_digest, svg_digest", _CURVE_PINS,
                         ids=["11-2-window", "19-7", "31-12", "8-3", "13-1"])
def test_curve_bytes_pinned(capsys, tmp_path, p, k, window, stdout_digest, svg_digest):
    """Refactor guard: the curve JSON on stdout and the SVG file, byte for byte."""
    svg_path = tmp_path / "c.svg"
    code, out, _ = run_cli(capsys, "curve", "-p", p, "-k", k, "--format", "json", *window,
                           "--svg", str(svg_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == svg_digest


def test_curve_svg_written_over_in_place(capsys, tmp_path):
    """Each pinned SVG written over the file before it, which is shorter
    for 19-7 and 31-12 and longer for 11-2 (a 200 KB filler), 8-3 and
    13-1, gives the bytes of a fresh write in the same file."""
    svg_path = tmp_path / "c.svg"
    svg_path.write_bytes(b"<" * 200_000)
    inode = svg_path.stat().st_ino
    for p, k, window, _, svg_digest in _CURVE_PINS:
        assert run_cli(capsys, "curve", "-p", p, "-k", k, *window, "--svg", str(svg_path))[0] == 0
        assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == svg_digest, (p, k)
        assert svg_path.stat().st_ino == inode


def test_curve_svg_open_does_not_truncate(capsys, monkeypatch, tmp_path):
    """The SVG is opened without O_TRUNC: truncating to zero first makes
    ext4 free the old blocks and start writeback at close, and the cut at
    the end leaves the same bytes."""
    svg_path = str(tmp_path / "c.svg")
    flags = []

    def recording_open(path, flag, *rest, **kwargs):
        if path == svg_path:
            flags.append(flag)
        return real_open(path, flag, *rest, **kwargs)

    real_open = os.open
    monkeypatch.setattr(os, "open", recording_open)
    assert run_cli(capsys, "curve", "-p", "11", "-k", "2", "--svg", svg_path)[0] == 0
    assert len(flags) == 1
    assert flags[0] & os.O_TRUNC == 0
    assert flags[0] & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT


def test_curve_svg_to_devnull(capsys):
    """A target that is not a regular file is written and never cut."""
    plain = run_cli(capsys, "curve", "-p", "19", "-k", "7")
    assert run_cli(capsys, "curve", "-p", "19", "-k", "7", "--svg", os.devnull) == plain
    assert plain[0] == 0


def test_curve_svg_failure_keeps_the_written_prefix(capsys, monkeypatch, tmp_path):
    """An error part-way leaves exactly what was written, none of the
    longer old file behind it, as a file truncated at open would."""
    def failing_pieces(*args):
        yield "<svg>\n"
        raise OSError("renderer failed")

    monkeypatch.setattr(lenspoly.cli, "svg_pieces", failing_pieces)
    svg_path = tmp_path / "c.svg"
    svg_path.write_text("x" * 10_000)
    code, _, err = run_cli(capsys, "curve", "-p", "11", "-k", "2", "--svg", str(svg_path))
    assert (code, err) == (3, "error: renderer failed\n")
    assert svg_path.read_text() == "<svg>\n"


def test_curve_svg_mode_follows_umask(capsys, tmp_path):
    """A new SVG gets the permission bits open() gives: 0o666 & ~umask."""
    old = os.umask(0o027)
    try:
        assert run_cli(capsys, "curve", "-p", "11", "-k", "2",
                       "--svg", str(tmp_path / "c.svg"))[0] == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    mode = (tmp_path / "c.svg").stat().st_mode & 0o777
    assert mode == (tmp_path / "plain").stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("pieces", [1, 4096])
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("p, k, window, components", [
    (19, 7, Window(3, 2, 0, 4), 0),  # empty: no columns
    (13, 1, None, 0),  # g = 0: no region
    (11, 2, Window(-1, 1, -1, 1), 1),
    (101, 30, None, 46),  # the fundamental window
    (8, 3, None, 9),  # entries reach 2
    (31, 12, Window(-20, -2, -40, -5), 13),  # negative i, j and translates
], ids=["empty", "13-1", "one-component", "101-30", "8-3", "31-12-negative"])
def test_curve_streams_the_one_shot_bytes(capsys, monkeypatch, tmp_path, pieces, fmt, p, k,
                                          window, components):
    """curve writes its stdout a component at a time and its SVG a piece
    at a time; the bytes are those of the one-shot encoders, kept here as
    the oracle: the JSON of window._asdict() with every component's
    _asdict() encoded in one call, the ASCII overlay, and the per-cell
    SVG.  One element a piece cuts after every row and curve."""
    monkeypatch.setattr(lenspoly.render, "_SVG_PIECE_ELEMENTS", pieces)
    params = SurgeryParams(p, k)
    window = window or fundamental_window(params)
    svg_path = tmp_path / "c.svg"
    code, out, _ = run_cli(capsys, "curve", "-p", str(p), "-k", str(k), "--format", fmt,
                           "--i0", str(window.i0), "--i1", str(window.i1),
                           "--j0", str(window.j0), "--j1", str(window.j1),
                           "--svg", str(svg_path))
    gen = generate(params)
    curves = trace_curves(params, window, gen)
    region = non_zero_region(params, gen) if gen.poly.g else None
    if fmt == "json":
        expected = _encode_json({**window._asdict(),
                                 "components": [c._asdict() for c in curves]})
    else:
        expected = ascii_curves(window, curves)
    assert code == 0
    assert out == expected + "\n"
    assert svg_path.read_text() == svg_curves_per_cell(params, window, curves, region)
    assert len(curves) == components


def test_curve_memory_stays_below_its_svg(capsys, tmp_path):
    """curve holds neither its SVG nor its JSON whole: at (251, 2) the
    peak traced memory stays below the size of the SVG it writes (the
    one-shot writer peaked at 19.5 MiB for this 6.7 MiB SVG, the piecewise
    one at 4.8 MiB, under Python 3.11)."""
    svg_path = tmp_path / "c.svg"
    tracemalloc.start()
    try:
        code = main(["curve", "-p", "251", "-k", "2", "--svg", str(svg_path), "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and out.endswith("]}\n")
    assert peak < svg_path.stat().st_size


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


_USAGE_ERRORS = [  # argv, and the last line of its stderr
    (["no-such-command"],
     "lenspoly: error: argument command: invalid choice: 'no-such-command' (choose from "
     "'invariants', 'poly', 'matrix', 'curve', 'lemma', 'sweep', 'verify')"),
    (["poly", "-p", "7"], "lenspoly poly: error: the following arguments are required: -k"),
    (["poly", "-p", "7", "-k", "2", "--format", "xml"],
     "lenspoly poly: error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["poly", "-p", "7", "-k", "2", "--bogus"], "lenspoly: error: unrecognized arguments: --bogus"),
]


def test_usage_errors_exit_2(capsys):
    for argv, last_line in _USAGE_ERRORS:
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == last_line


@pytest.mark.parametrize("command, digest", [
    ("", "9a654a07270361b8fc49174d11d2a66ef22df4355d0de82689b7a2a55c0f07cb"),
    ("invariants", "d3ead2345273032c195edbaa5eadd1b1843f8c9ed9f137fee7c2716a839eba64"),
    ("poly", "3d7363dd83d050285eb93ac3cd0fafb0c719a6f72b0a87768e86411a3b5983c2"),
    ("matrix", "195ca94c1430f0569b52608c8472a97f0c45ae3823e8509831134aedff944ca2"),
    ("curve", "f57f8b01b78f89d982d2fe7c4b8af06f428b20f8231c1aebd988c6ce954b6a99"),
    ("lemma", "d3fdf52f70589bb59182e2669f67cc71b6a0ffec3c52d8fcc7a3a293f509f52a"),
    ("sweep", "04d92bff19efe62e462084d038e3bf68070ab9cd440728793c9e69bacea78324"),
    ("verify", "de57a3faf4270d4477b89263b912cc01144634c89b109fb89edb5de3ddc31bab"),
], ids=["lenspoly", "invariants", "poly", "matrix", "curve", "lemma", "sweep", "verify"])
def test_help_text_pinned(capsys, monkeypatch, command, digest):
    """Refactor guard: ``lenspoly -h`` and each ``lenspoly <command> -h``
    on stdout, byte for byte, as argparse wraps it at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc_info:
        main([command, "-h"] if command else ["-h"])
    assert exc_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


_MATRIX =["matrix", "-p", "11", "-k", "2"]
_WINDOW = ["--i0", "-3", "--i1", "0", "--j0", "0", "--j1", "1"]
# argvs the two parsing routes must read alike: the first group is parsed
# whole by its command's parser, the rest exit or take the full parser
_PARSED_WHOLE = [
    [*_MATRIX], [*_MATRIX, "--kind", "dA", "--form", "json"],
    [*_MATRIX, "--format=json", "--kind=dA"], [*_MATRIX, *_WINDOW],
    ["matrix", "-p", "13", "-k", "3", "-p", "11"],
    ["curve", "-p", "7", "-k", "2", "--svg", "out.svg", "--format", "json"],
    ["curve", "-p", "11", "-k", "2", "--i0", "1"],
    ["invariants", "-p", "19", "-k", "7"], ["poly", "-k", "2", "-p", "7"],
    ["poly", "-p", "7", "-k", "2", "--format", "json"],
    ["lemma", "-p", "11", "-k", "2", "--format", "json"],
    ["sweep", "--max-p", "10", "--out", "r.csv", "--from-scratch", "--format", "jsonl"],
    ["sweep", "--jobs", "2", "--max-p", "10", "--out", "r.csv"],
    ["verify", "--max-p", "10", "--jobs", "2"],
]
_ROUTE_ARGVS = _PARSED_WHOLE + [
    [], ["-h"], ["-h", "matrix"], ["bogus"], ["bogus", "-p", "11"], ["--", "matrix"],
    ["matrix"], ["matrix", "-h"], [*_MATRIX, "-h"], ["matrix", "-p", "11"],
    ["matrix", "-p", "x", "-k", "2"], [*_MATRIX, "--kind", "B"], [*_MATRIX, "--i0"],
    ["matrix", "--", "-p", "11", "-k", "2"], [*_MATRIX, "--"], [*_MATRIX, "--", "--kind", "dA"],
    [*_MATRIX, "stray"], ["stray", *_MATRIX], [*_MATRIX, "--bogus"], [*_MATRIX, "-x"],
    ["sweep", "--max-p", "10", "--out", "r.csv", "--checkpoint", "x"],
    ["verify", "--max-p", "10", "--jobs"],
    # shared flags on the commands the cases above do not reach
    ["invariants", "-p", "19", "-k", "7", "--format", "xml"], ["lemma", "-k", "2"],
    ["poly", "-p", "7", "-k", "2", "--i0", "1"], ["verify", "--max-p", "x"],
    ["sweep", "--out", "r.csv", "--jobs", "2"], ["sweep", "--max-p", "10", "--out", "r.csv",
                                                "--format", "json"],
]


def _parse_outcome(capsys, parse, argv):
    """``vars`` of the Namespace ``parse(argv)`` gives, or its SystemExit
    code, with what it wrote to stdout and stderr."""
    try:
        outcome = vars(parse(list(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize("argv", _ROUTE_ARGVS, ids=" ".join)
def test_command_parser_route_equals_full_parser(capsys, argv):
    """``main`` reads a call that starts with a known command through that
    command's parser alone; every argv gives what the full parser gives,
    the same Namespace or the same exit code, stdout and stderr."""
    full = _parse_outcome(capsys, lenspoly.cli._parsers()[0].parse_args, argv)
    assert _parse_outcome(capsys, lenspoly.cli._parse_args, argv) == full
    assert isinstance(full[0], dict) == (argv in _PARSED_WHOLE)


def test_command_parsed_whole_skips_the_full_parser(monkeypatch):
    def full_parse(*_):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(lenspoly.cli._parsers()[0], "parse_args", full_parse)
    for argv in _PARSED_WHOLE:
        assert lenspoly.cli._parse_args(list(argv)).command == argv[0]
    with pytest.raises(AssertionError, match="the full parser ran"):
        lenspoly.cli._parse_args([*_MATRIX, "--bogus"])


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    """The console script calls ``main()``: it parses ``sys.argv[1:]``."""
    monkeypatch.setattr(sys, "argv", ["lenspoly", "lemma", "-p", "11", "-k", "2",
                                      "--format", "json"])
    assert main() == 0
    assert capsys.readouterr() == ('{"p":11,"k":2,"k2":5,"hypothesis_found":true}\n', "")


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


def test_matrix_without_rows_stays_small(capsys):
    """A window with no rows passes the cell limit at any width; its view
    allocates no row period for that width."""
    window = ("--i0", "0", "--i1", "10000000", "--j0", "1", "--j1", "0")
    tracemalloc.start()
    try:
        json_run = run_cli(capsys, "matrix", "-p", "11", "-k", "2", *window, "--format", "json")
        text_run = run_cli(capsys, "matrix", "-p", "11", "-k", "2", *window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json_run[:2] == (0, '{"kind":"A","i0":0,"j0":1,"rows":[]}\n')
    assert text_run[:2] == (0, "\n")
    assert peak < 10 * 2**20


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
    """An unwritable output exits 3 with the path the user gave, for the
    sweep's report (written through a temporary file) and its timing side
    file, and for curve --svg."""
    out = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--max-p", "10", "--out", str(out))
    assert code == 3
    assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
    out = tmp_path / "x.csv"
    os.mkdir(f"{out}.timing.json")
    code, _, err = run_cli(capsys, "sweep", "--max-p", "10", "--out", str(out))
    assert code == 3
    assert err == f"error: [Errno 21] Is a directory: '{out}.timing.json'\n"
    svg_path = tmp_path / "missing" / "c.svg"
    code, _, err = run_cli(capsys, "curve", "-p", "11", "-k", "2", "--svg", str(svg_path))
    assert code == 3
    assert err == f"error: [Errno 2] No such file or directory: '{svg_path}'\n"
    code, _, err = run_cli(capsys, "curve", "-p", "11", "-k", "2", "--svg", str(tmp_path))
    assert code == 3
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_failed_replace_leaves_no_temporary_file(capsys, tmp_path):
    """A sweep whose timing side file cannot be renamed into place (the
    path is a directory) exits 3 and leaves no temporary file behind."""
    out = tmp_path / "x.csv"
    os.mkdir(f"{out}.timing.json")
    assert run_cli(capsys, "sweep", "--max-p", "5", "--out", str(out))[0] == 3
    assert sorted(os.listdir(tmp_path)) == ["x.csv", "x.csv.timing.json"]


@pytest.mark.parametrize("flags", [(), ("--from-scratch",)], ids=["resume", "from-scratch"])
def test_sweep_out_not_a_regular_file_exit_3(tmp_path, flags):
    """An existing --out that is not a regular file is refused, exit 3,
    before it is read (a FIFO would block the resume) or replaced (a
    rename would put a file in its place).  Run in a subprocess with a
    timeout, so a blocked read fails fast."""
    fifo = tmp_path / "report.csv"
    os.mkfifo(fifo)
    proc = run_module("sweep", "--max-p", "10", "--out", str(fifo), *flags, timeout=20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: report {fifo} exists and is not a regular file\n"
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["report.csv"]  # no temporary or timing file


def test_curve_json_without_rows_at_any_width():
    """A window with no rows passes the cell limit at any width, and its
    curve JSON builds no per-column table: 10^12 columns answer at once.
    Run in a subprocess with a timeout and 1 GiB of address space, so a
    table over every column fails fast instead of filling memory."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    proc = subprocess.run(
        [sys.executable, "-m", "lenspoly", "curve", "-p", "11", "-k", "2", "--format", "json",
         "--i0", "0", "--i1", str(10**12), "--j0", "1", "--j1", "0"],
        capture_output=True, text=True, timeout=20, env=module_env(), preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == '{"i0":0,"i1":1000000000000,"j0":1,"j1":0,"components":[]}\n'


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


@pytest.mark.parametrize("old, new", [
    ('"p":2', '"p":Infinity'),
    ('"p":2', '"p":1e400'),
    (None, "[" * 100_000),
], ids=["infinity", "1e400", "deep-nesting"])
def test_resume_unparsable_jsonl_row_exit_3(capsys, tmp_path, old, new):
    """A row whose number overflows an int, or whose nesting is too deep
    to parse, refuses the resume (exit 3) and leaves the report as it was."""
    out = tmp_path / "r.jsonl"
    assert run_cli(capsys, "sweep", "--max-p", "5", "--out", str(out), "--format", "jsonl")[0] == 0
    lines = out.read_text().splitlines(keepends=True)
    assert old is None or lines[0].startswith('{' + old + ',')
    lines[0] = lines[0].replace(old, new, 1) if old else new + "\n"
    out.write_text("".join(lines))
    before = out.read_bytes()
    code, _, err = run_cli(capsys, "sweep", "--max-p", "6", "--out", str(out), "--format", "jsonl")
    assert code == 3
    assert "line 1 is not a jsonl report row" in err
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


def module_env():
    """The environment in which ``python -m lenspoly`` runs the source
    tree, installed or not."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_module(*argv, timeout=60):
    """``python -m lenspoly`` on the source tree, installed or not; a run
    past ``timeout`` seconds is killed and fails the test."""
    return subprocess.run(
        [sys.executable, "-m", "lenspoly", *argv],
        capture_output=True, text=True, timeout=timeout, env=module_env(),
    )


def test_readme_library_block_runs():
    """The README's Library code block runs as written; its asserts hold."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Library\n\n```python\n", 1)[1]
    namespace = {}
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), namespace)
    assert json.loads(namespace["text"])["kind"] == "dA"


def test_module_entry_point():
    proc = run_module("poly", "-p", "7", "-k", "2")
    assert proc.returncode == 0
    assert proc.stdout == "t - 1 + t^-1\n"


def test_console_script_notice_on_stderr():
    proc = run_module("poly", "-p", "11", "-k", "9")
    assert proc.returncode == 0
    assert proc.stdout == "t^2 - t + 1 - t^-1 + t^-2\n"
    assert "canonical" in proc.stderr


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("argv", [
    ("verify", "--max-p", "300"),  # about 4 KB, written by the last flush
    ("matrix", "-p", "101", "-k", "30"),  # about 16 KB, written while running
])
def test_closed_stdout_exits_3_quietly(argv, unbuffered):
    """A reader that closes the pipe before any output comes, as
    ``verify --max-p 300 | head -1`` may, gets exit 3, the I/O-error
    code, and nothing on stderr, whether stdout is block-buffered (as a
    pipe is by default) or not."""
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "lenspoly", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 3
    assert err == b""


def test_broken_pipe_off_stdout_keeps_its_message(tmp_path):
    """A broken pipe on a file other than stdout, such as an ``--svg``
    FIFO whose reader has gone, is an I/O error like any other: exit 3
    with its message, while stdout stays open."""
    script = (
        "import errno, sys, lenspoly.cli as cli\n"
        "def broken(*args):\n"
        "    raise BrokenPipeError(errno.EPIPE, 'Broken pipe')\n"
        "cli.svg_pieces = broken\n"
        "sys.exit(cli.main(['curve', '-p', '7', '-k', '2', '--svg', sys.argv[1]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "curve.svg")],
        capture_output=True, text=True, env=module_env(), timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"


def test_broken_pipe_without_stdout_fd_keeps_its_message(capsys, monkeypatch, tmp_path):
    """In process, where stdout has no file descriptor, a broken pipe
    still exits 3 with its message."""
    def broken(*args):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(lenspoly.cli, "svg_pieces", broken)
    code, _, err = run_cli(capsys, "curve", "-p", "7", "-k", "2", "--svg", str(tmp_path / "c.svg"))
    assert code == 3
    assert err == "error: [Errno 32] Broken pipe\n"
