#!/usr/bin/env python3
"""Tabulate how the theorem's trigger behaves under stricter readings.

The literal trigger (nontrivial, top coefficients 1, -1, nonzero) fires on
many pairs whose polynomial is not flat or not alternating, as a lens
space knot's polynomial is (Ozsvath-Szabo).  This script counts, for
several progressively stricter trigger variants, how many parameters fire
and how many of those violate the conclusion (polynomial = T(2, 2g+1) and
k = 2), so the discrepancy can be localized.  Every row is the sweep's
record, from the sweep's own per-p worker; the trigger and the violation
are the sweep's own predicates.

Unit evaluation is read off the record: Delta(1) = 1 + [2g = p]*a_g (see
the ``lenspoly.alexander`` module docstring), so the value at t = 1 is 1
exactly when 2g != p (a_g is nonzero).  At p <= 600 the literal trigger
never fires on a pair with 2g = p, so the "+ unit evaluation" row equals
the literal one.

Usage: PYTHONPATH=src python3 scripts/verify_report.py [--max-p 600] [--jobs 8]
"""

import argparse
import sys
import time

from lenspoly.surgery import InvalidParameterError
from lenspoly.sweep import (
    _check_range,
    _map_over_p,
    _records_for_p,
    _theorem_trigger,
    is_theorem_violation,
)


def _unit(r):
    """Whether the record's polynomial is 1 at t = 1 (see the module docstring)."""
    return 2 * r.g != r.p


VARIANTS = [
    ("literal (1, -1, nonzero)", lambda r: True),
    ("+ unit evaluation", _unit),
    ("+ flat", lambda r: _unit(r) and r.flat),
    ("+ alternating", lambda r: _unit(r) and r.alternating),
    ("+ flat + alternating", lambda r: _unit(r) and r.flat and r.alternating),
    ("+ flat + alternating + a2 = +1",
     lambda r: _unit(r) and r.flat and r.alternating and r.alpha2 == 1),
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
    rows = [r for _, (batch, _) in _map_over_p(_records_for_p, 2, args.max_p, args.jobs)
            for r in batch]
    elapsed = time.perf_counter() - t0

    base = [r for r in rows if _theorem_trigger(r)]
    print(f"parameters p <= {args.max_p}: {len(rows)} total, "
          f"{len(base)} fire the literal trigger ({elapsed:.1f}s)")
    print()
    print(f"{'trigger variant':<34} {'fires':>7} {'violations':>11} {'first violation':>16}")
    for label, extra in VARIANTS:
        fired = [r for r in base if extra(r)]
        bad = [r for r in fired if is_theorem_violation(r)]
        first = f"({bad[0].p},{bad[0].k})" if bad else "-"
        print(f"{label:<34} {len(fired):>7} {len(bad):>11} {first:>16}")

    print()
    unit = [r for r in rows if _unit(r)]
    print(f"unit-evaluation parameters: {len(unit)}/{len(rows)}")
    print(f"  flat:        {sum(r.flat for r in unit)}/{len(unit)}")
    print(f"  alternating: {sum(r.alternating for r in unit)}/{len(unit)}")
    nontrivial_unit = [r for r in unit if not r.trivial]
    top_ok = sum(r.top_sign_ok for r in nontrivial_unit)
    print(f"  top signs (1, -1) among nontrivial: {top_ok}/{len(nontrivial_unit)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
