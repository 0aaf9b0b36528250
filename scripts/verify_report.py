#!/usr/bin/env python3
"""Tabulate how the theorem's trigger behaves under stricter readings.

The literal trigger (nontrivial, top coefficients 1, -1, nonzero) fires on
many parameters whose generated series does not even evaluate to 1 at t=1.
This script counts, for several progressively stricter trigger variants,
how many parameters fire and how many of those violate the conclusion
(polynomial = T(2, 2g+1) and k = 2), so the discrepancy can be localized.
Every row is the sweep's record; the trigger and the violation are the
sweep's own predicates.

Usage: PYTHONPATH=src python3 scripts/verify_report.py [--max-p 600] [--jobs 8]
"""

import argparse
import sys
import time

from lenspoly.alexander import _gather, _period
from lenspoly.surgery import InvalidParameterError, SurgeryParams, _canonical_ks
from lenspoly.sweep import (
    _check_range,
    _map_over_p,
    _theorem_trigger,
    compute_record,
    is_theorem_violation,
)


def _record_and_unit(params):
    period = _period(params)
    return compute_record(params, period), _gather(*period).delta_one == 1


def _rows_for_p(p):
    return [_record_and_unit(SurgeryParams(p, k)) for k in _canonical_ks(p)]


VARIANTS = [
    ("literal (1, -1, nonzero)", lambda r, unit: True),
    ("+ unit evaluation", lambda r, unit: unit),
    ("+ flat", lambda r, unit: unit and r.flat),
    ("+ alternating", lambda r, unit: unit and r.alternating),
    ("+ flat + alternating", lambda r, unit: unit and r.flat and r.alternating),
    ("+ flat + alternating + a2 = +1",
     lambda r, unit: unit and r.flat and r.alternating and r.alpha2 == 1),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=600)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    try:
        _check_range(args.max_p, args.jobs)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    rows = [row for _, chunk in _map_over_p(_rows_for_p, 2, args.max_p, args.jobs)
            for row in chunk]
    elapsed = time.perf_counter() - t0

    base = [(r, unit) for r, unit in rows if _theorem_trigger(r)]
    print(f"parameters p <= {args.max_p}: {len(rows)} total, "
          f"{len(base)} fire the literal trigger ({elapsed:.1f}s)")
    print()
    print(f"{'trigger variant':<34} {'fires':>7} {'violations':>11} {'first violation':>16}")
    for label, extra in VARIANTS:
        fired = [r for r, unit in base if extra(r, unit)]
        bad = [r for r in fired if is_theorem_violation(r)]
        first = f"({bad[0].p},{bad[0].k})" if bad else "-"
        print(f"{label:<34} {len(fired):>7} {len(bad):>11} {first:>16}")

    print()
    unit = [r for r, is_unit in rows if is_unit]
    print(f"unit-evaluation parameters: {len(unit)}/{len(rows)}")
    print(f"  flat:        {sum(r.flat for r in unit)}/{len(unit)}")
    print(f"  alternating: {sum(r.alternating for r in unit)}/{len(unit)}")
    nontrivial_unit = [r for r in unit if not r.trivial]
    top_ok = sum(r.top_sign_ok for r in nontrivial_unit)
    print(f"  top signs (1, -1) among nontrivial: {top_ok}/{len(nontrivial_unit)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
