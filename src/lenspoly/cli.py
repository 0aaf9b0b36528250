"""Command-line front end.

Exit codes: 0 success / no violations, 1 violations found, 2 usage
error (an :class:`InvalidParameterError` from argument checking), 3 I/O
error or a report that cannot be resumed, 4 internal error (integrity
check or any other ``ValueError``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .alexander import (
    GeneratedPolynomial,
    IntegrityError,
    format_polynomial,
    generate,
    polynomial,
    polynomial_to_json,
)
from .lattice import (
    Window,
    build_view,
    check_lemma,
    fundamental_window,
    non_zero_region,
    trace_curves,
)
from .render import ascii_curves, ascii_view, svg_curves, view_to_json
from .surgery import (
    DerivedInvariants,
    InvalidParameterError,
    SurgeryParams,
    canonicalize_dual_class,
    derive_invariants,
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
# Largest p that poly, matrix and curve accept: generate holds O(p) lists
# (a peak RSS above 100 MB at p = 4,000,037).
_MAX_GENERATED_P = 2**22


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


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


def _window_from_args(args, params: SurgeryParams, inv: DerivedInvariants) -> Window:
    given = [args.i0, args.i1, args.j0, args.j1]
    if all(v is None for v in given):
        window = fundamental_window(params, inv)
    elif any(v is None for v in given):
        raise InvalidParameterError("window flags --i0 --i1 --j0 --j1 must all be given together")
    else:
        window = Window(i0=args.i0, i1=args.i1, j0=args.j0, j1=args.j1)
    # a window with no columns still has one (empty) row per j
    cells = max(window.i1 - window.i0 + 1, 1) * (window.j1 - window.j0 + 1)
    if cells > _MAX_WINDOW_CELLS:
        raise InvalidParameterError(
            f"window of {cells} cells exceeds the limit of {_MAX_WINDOW_CELLS}"
        )
    return window


def _generate_in_window(args) -> tuple[SurgeryParams, Window, GeneratedPolynomial]:
    """The parameter, its checked window, then its polynomial, generated once."""
    params = _resolve_generated_params(args)
    inv = derive_invariants(params)
    window = _window_from_args(args, params, inv)
    return params, window, generate(params, inv)


def _cmd_invariants(args) -> int:
    params = _resolve_params(args)
    inv = derive_invariants(params)
    if args.format == "json":
        print(_dumps({"p": params.p, "k": params.k, **inv._asdict()}))
    else:
        print(f"p = {params.p}")
        print(f"k = {params.k}")
        for name, value in inv._asdict().items():
            print(f"{name} = {value}")
    return 0


def _cmd_poly(args) -> int:
    params = _resolve_generated_params(args)
    poly = polynomial(params)
    if args.format == "json":
        print(_dumps(polynomial_to_json(poly)))
    else:
        print(format_polynomial(poly))
    return 0


def _cmd_matrix(args) -> int:
    params, window, gen = _generate_in_window(args)
    view = build_view(params, args.kind, window, gen)
    if args.format == "json":
        print(_dumps(view_to_json(view)))
    else:
        print(ascii_view(view))
    return 0


def _cmd_curve(args) -> int:
    params, window, gen = _generate_in_window(args)
    curves = trace_curves(params, window, gen)
    if args.svg:
        region = non_zero_region(params, gen) if curves else None
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg_curves(params, window, curves, region))
    if args.format == "json":
        print(_dumps({
            "i0": window.i0, "i1": window.i1, "j0": window.j0, "j1": window.j1,
            "components": [
                {"id": c.id, "translate": c.translate, "arrows": c.arrows}
                for c in curves
            ],
        }))
    else:
        print(ascii_curves(window, curves))
    return 0


def _cmd_lemma(args) -> int:
    params = _resolve_params(args)
    report = check_lemma(params)
    if args.format == "json":
        print(_dumps(report._asdict()))
    else:
        print(f"hypothesis_found = {str(report.hypothesis_found).lower()}")
        print(f"bound_ok = {str(report.bound_ok).lower()} (p = {report.p}, 3*k2 = {3 * report.k2})")
        print(f"no_adjacent_zeros = {str(report.no_adjacent_zeros).lower()}")
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
    print(f"top_sign_ok: {summary.top_sign_ok}/{summary.nontrivial} "
          f"({100.0 * summary.top_sign_ok / nontrivial:.1f}%)")
    print(f"flat: {summary.flat}/{summary.nontrivial} "
          f"({100.0 * summary.flat / nontrivial:.1f}%)")
    print(f"alternating: {summary.alternating}/{summary.nontrivial} "
          f"({100.0 * summary.alternating / nontrivial:.1f}%)")
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


def _add_param_flags(sub) -> None:
    sub.add_argument("-p", type=int, required=True, help="surgery order p (>= 2)")
    sub.add_argument("-k", type=int, required=True,
                     help="dual class k (any coprime representative; normalized)")


def _add_format_flag(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")


def _add_window_flags(sub) -> None:
    for flag in ("--i0", "--i1", "--j0", "--j1"):
        sub.add_argument(flag, type=int, default=None,
                         help="window bound (default: fundamental window)")


@functools.cache  # built on the first main call, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenspoly",
        description="Lens surgery polynomials, lattice curves, and verification sweeps",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("invariants", help="derived invariants of (p, k)")
    _add_param_flags(sub)
    _add_format_flag(sub)
    sub.set_defaults(func=_cmd_invariants)

    sub = subparsers.add_parser("poly", help="the generated polynomial (strict)")
    _add_param_flags(sub)
    _add_format_flag(sub)
    sub.set_defaults(func=_cmd_poly)

    sub = subparsers.add_parser("matrix", help="an A or dA window")
    _add_param_flags(sub)
    _add_format_flag(sub)
    _add_window_flags(sub)
    sub.add_argument("--kind", choices=("A", "dA"), default="A")
    sub.set_defaults(func=_cmd_matrix)

    sub = subparsers.add_parser("curve", help="trace and render non-zero curves")
    _add_param_flags(sub)
    _add_format_flag(sub)
    _add_window_flags(sub)
    sub.add_argument("--svg", metavar="PATH", default=None, help="also write an SVG file")
    sub.set_defaults(func=_cmd_curve)

    sub = subparsers.add_parser("lemma", help="the lemma's hypothesis and conclusions, in closed form")
    _add_param_flags(sub)
    _add_format_flag(sub)
    sub.set_defaults(func=_cmd_lemma)

    sub = subparsers.add_parser("sweep", help="run a parameter sweep and write a report")
    sub.add_argument("--max-p", type=int, required=True)
    sub.add_argument("--jobs", type=int, default=1)
    sub.add_argument("--out", required=True, help="report path")
    sub.add_argument("--from-scratch", action="store_true",
                     help="overwrite an existing report instead of resuming it")
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sub.set_defaults(func=_cmd_sweep)

    sub = subparsers.add_parser("verify", help="check the theorem and corollary over a range")
    sub.add_argument("--max-p", type=int, required=True)
    sub.add_argument("--jobs", type=int, default=1)
    sub.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
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
