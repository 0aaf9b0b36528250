"""Command-line front end.

Exit codes: 0 success / no violations, 1 violations found, 2 usage
error (an :class:`InvalidParameterError` from argument checking), 3 I/O
error or a report that cannot be resumed, 4 internal error (integrity
check or any other ``ValueError``).

A known command's own parser reads its flags, and the full parser handles
every other call, or any string left over, so messages are the full parser's.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import select
import stat
import sys
from itertools import islice
from typing import Iterable, Iterator

from .alexander import (
    GeneratedPolynomial,
    IntegrityError,
    _format_terms,
    generate,
    polynomial,
    polynomial_to_json,
)
from .lattice import (
    NonZeroCurve,
    Window,
    build_view,
    check_lemma,
    fundamental_window,
    non_zero_region,
    trace_curves,
)
from .render import ascii_curves, ascii_view, svg_pieces, view_to_json
from .surgery import (
    InvalidParameterError,
    SurgeryParams,
    canonicalize_dual_class,
)
from .sweep import (
    CheckpointError,
    SweepConfig,
    run_sweep,
    verify,
)

_MAX_PRINTED_VIOLATIONS = 25
# Cells a matrix or curve window may hold: the default window of every
# p <= 2000 fits, since (999 + 3) * (2*2000 + 1) = 4,009,002.
_MAX_WINDOW_CELLS = 2**22
# Largest p that poly, matrix and curve accept: generate holds packed window
# counts and one big-int box sum (a peak RSS of 114 MB at p = 4,000,037).
_MAX_GENERATED_P = 2**22
# Terms of `poly` text written to stdout at a time: the text of a large
# polynomial (40 MiB at the largest p) is never held whole.
_POLY_CHUNK_TERMS = 4096
# The compact JSON the commands print: every object encoded is a fresh
# tree, so there are no cycles to check.
_encode_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _resolve_params(args) -> SurgeryParams:
    params = canonicalize_dual_class(args.p, args.k)
    if params.k != args.k:
        print(
            f"note: k = {args.k} is not the canonical representative for p = {args.p}; "
            f"using k = {params.k}",
            file=sys.stderr,
        )
    return params


def _resolve_generated_params(args) -> SurgeryParams:
    """The parameter of a command that generates its polynomial."""
    params = _resolve_params(args)
    if params.p > _MAX_GENERATED_P:
        raise InvalidParameterError(
            f"p = {params.p} exceeds the limit of {_MAX_GENERATED_P} for this command"
        )
    return params


def _window_from_args(args, params: SurgeryParams) -> Window:
    given = [args.i0, args.i1, args.j0, args.j1]
    if all(v is None for v in given):
        window = fundamental_window(params)
    elif any(v is None for v in given):
        raise InvalidParameterError("window flags --i0 --i1 --j0 --j1 must all be given together")
    else:
        window = Window(*given)
    # a window with no columns still has one (empty) row per j
    cells = max(window.width(), 1) * window.height()
    if cells > _MAX_WINDOW_CELLS:
        raise InvalidParameterError(
            f"window of {cells} cells exceeds the limit of {_MAX_WINDOW_CELLS}"
        )
    return window


def _generate_in_window(args) -> tuple[SurgeryParams, Window, GeneratedPolynomial]:
    """The parameter, its checked window, then its polynomial, generated once."""
    params = _resolve_generated_params(args)
    window = _window_from_args(args, params)
    return params, window, generate(params)


def _cmd_invariants(args) -> int:
    params = _resolve_params(args)
    if args.format == "json":
        print(_encode_json({"p": params.p, "k": params.k, **params.inv._asdict()}))
    else:
        print(f"p = {params.p}")
        print(f"k = {params.k}")
        for name, value in params.inv._asdict().items():
            print(f"{name} = {value}")
    return 0


def _cmd_poly(args) -> int:
    params = _resolve_generated_params(args)
    poly = polynomial(params)
    if args.format == "json":
        print(_encode_json(polynomial_to_json(poly)))
    else:  # format_polynomial's text, written a chunk of terms at a time
        terms, sep = _format_terms(poly), ""
        while chunk := list(islice(terms, _POLY_CHUNK_TERMS)):
            sys.stdout.write(sep + " ".join(chunk))
            sep = " "
        sys.stdout.write("\n")
    return 0


def _cmd_matrix(args) -> int:
    params, window, gen = _generate_in_window(args)
    view = build_view(params, args.kind, window, gen)
    if args.format == "json":
        print(view_to_json(view))
    else:
        print(ascii_view(view))
    return 0


def _components_json(window: Window, curves: list[NonZeroCurve],
                     values: Iterable[int]) -> Iterator[str]:
    """Each component's ``_encode_json(curve._asdict())``, after a comma
    but the first, with the key names of ``NonZeroCurve._fields``.  An
    arrow's text is its column's "[i,", its row's "j," and its entry's
    "v]", read off tables built once per window with a curve (``values``
    holds every entry of the window)."""
    if not curves:
        return
    id_key, translate_key, arrows_key = (f'"{name}":' for name in NonZeroCurve._fields)
    cols = {i: f"[{i}," for i in range(window.i0, window.i1 + 1)}
    rows = {j: f"{j}," for j in range(window.j0, window.j1 + 1)}
    entries = {v: f"{v}]" for v in values}
    for n, curve in enumerate(curves):
        arrows = ",".join([f"{cols[i]}{rows[j]}{entries[v]}" for i, j, v in curve.arrows])
        yield (f'{"," if n else ""}{{{id_key}{curve.id},{translate_key}{curve.translate},'
               f'{arrows_key}[{arrows}]}}')


def _cmd_curve(args) -> int:
    params, window, gen = _generate_in_window(args)
    cells = (non_zero_region(params, gen).window_translates(window)  # tracer's and shading's
             if args.svg and gen.poly.g and not window.is_empty() else None)
    curves = trace_curves(params, window, gen, cells)
    if args.svg:
        pieces = svg_pieces(params, window, curves, cells)
        del cells  # the shading holds the table alone, and frees it once drawn
        # written over in place and cut at its end: truncating to zero first
        # makes ext4 free the old blocks and start writeback at close
        # (auto_da_alloc), and skipping both is the saving. So a kill
        # mid-write, or a crash before writeback even after exit 0, can
        # leave old bytes after or among the new. Only a regular file is cut.
        fd = os.open(args.svg, os.O_WRONLY | os.O_CREAT, 0o666)
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        with open(fd, "w", encoding="utf-8") as fh:
            try:
                fh.writelines(pieces)
            finally:
                if regular:
                    fh.truncate()
    if args.format == "json":  # window._asdict() with "components", a curve at a time
        out = sys.stdout
        out.write(_encode_json(window._asdict())[:-1] + ',"components":[')
        out.writelines(_components_json(window, curves, set(gen.poly.coeffs)))
        out.write("]}\n")
    else:
        print(ascii_curves(window, curves))
    return 0


def _cmd_lemma(args) -> int:
    params = _resolve_params(args)
    found, k2 = check_lemma(params), params.inv.k2
    if args.format == "json":
        print(_encode_json({"p": params.p, "k": params.k, "k2": k2, "hypothesis_found": found}))
    else:
        print(f"hypothesis_found = {str(found).lower()} (p = {params.p}, 3*k2 = {3 * k2})")
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        max_p=args.max_p,
        out_path=args.out,
        jobs=args.jobs,
        from_scratch=args.from_scratch,
        report_format=args.format,
    )
    summary = run_sweep(config)
    nontrivial = summary.nontrivial or 1  # avoid 0/0 in the percentages
    print(f"records: {summary.records} (resumed from p = {summary.resumed_from})"
          if summary.resumed_from is not None else f"records: {summary.records}")
    print(f"nontrivial: {summary.nontrivial}")
    for name in ("top_sign_ok", "flat", "alternating"):
        count = getattr(summary, name)
        print(f"{name}: {count}/{summary.nontrivial} ({100.0 * count / nontrivial:.1f}%)")
    print(f"theorem violations: {summary.theorem_violations}")
    print(f"lemma violations: {summary.lemma_violations}")
    print(f"report: {args.out}")
    return 1 if summary.theorem_violations or summary.lemma_violations else 0


def _print_violations(label: str, violations) -> None:
    print(f"{label} violations: {len(violations)}")
    for violation in violations[:_MAX_PRINTED_VIOLATIONS]:
        print(f"  (p={violation.p}, k={violation.k}): {violation.reason}")
    if len(violations) > _MAX_PRINTED_VIOLATIONS:
        print(f"  ... and {len(violations) - _MAX_PRINTED_VIOLATIONS} more")


def _cmd_verify(args) -> int:
    theorem, corollary = verify(args.max_p, jobs=args.jobs)
    _print_violations("theorem", theorem)
    _print_violations("corollary", corollary)
    return 1 if theorem or corollary else 0


@functools.cache  # built on the first main call, then reused
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser by its name.  Each
    group of shared flags is declared once, in a parent parser."""
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("-p", type=int, required=True, help="surgery order p (>= 2)")
    pair.add_argument("-k", type=int, required=True,
                      help="dual class k (any coprime representative; normalized)")
    pair.add_argument("--format", choices=("text", "json"), default="text")
    window = argparse.ArgumentParser(add_help=False)
    for flag in ("--i0", "--i1", "--j0", "--j1"):
        window.add_argument(flag, type=int, default=None,
                            help="window bound (default: fundamental window)")
    span = argparse.ArgumentParser(add_help=False)
    span.add_argument("--max-p", type=int, required=True)
    span.add_argument("--jobs", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="lenspoly",
        description="Lens surgery polynomials, lattice curves, and verification sweeps",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def command(name, about, func, *parents):
        sub = subparsers.add_parser(name, help=about, parents=parents)
        sub.set_defaults(func=func)
        return sub

    command("invariants", "derived invariants of (p, k)", _cmd_invariants, pair)
    command("poly", "the generated polynomial (strict)", _cmd_poly, pair)
    command("matrix", "an A or dA window", _cmd_matrix, pair, window).add_argument(
        "--kind", choices=("A", "dA"), default="A")
    command("curve", "trace and render non-zero curves", _cmd_curve, pair, window).add_argument(
        "--svg", metavar="PATH", default=None, help="also write an SVG file")
    command("lemma", "whether the lemma's hypothesis holds, in closed form", _cmd_lemma, pair)
    sub = command("sweep", "run a parameter sweep and write a report", _cmd_sweep, span)
    sub.add_argument("--out", required=True, help="report path")
    sub.add_argument("--from-scratch", action="store_true",
                     help="overwrite an existing report instead of resuming it")
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    command("verify", "check the theorem and corollary over a range", _cmd_verify, span)

    return parser, subparsers.choices


def _stdout_closed() -> bool:
    """Whether stdout is a pipe or socket whose reader has gone (False
    where stdout has no file descriptor or ``select.poll`` is missing)."""
    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
    except (AttributeError, OSError, ValueError):
        return False
    return any(events & (select.POLLERR | select.POLLHUP) for _, events in poller.poll(0))


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The full parser's ``parse_args(argv)``, with its pass over
    ``argv`` skipped where it would only hand ``argv[1:]`` to a command."""
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
    if sub is None or rest:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        status = args.func(args)
        # flushed here, not at exit, so that a closed stdout is caught below
        sys.stdout.flush()
        return status
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CheckpointError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and _stdout_closed():
            # the reader closed stdout early: no message, and stdout goes
            # to devnull so the interpreter's last flush cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 3
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
