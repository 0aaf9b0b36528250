#!/usr/bin/env python3
"""Tabulate how the theorem's trigger behaves under stricter readings.

The literal trigger (nontrivial, top coefficients 1, -1, nonzero) fires on
many parameters whose generated series does not even evaluate to 1 at t=1.
This script counts, for several progressively stricter trigger variants,
how many parameters fire and how many of those violate the conclusion
(polynomial = T(2, 2g+1) and k = 2), so the discrepancy can be localized.

Usage: python3 scripts/verify_report.py [--max-p 600] [--jobs 8]
"""

import argparse
import time

from lenspoly.alexander import generate, is_alternating, is_flat, top_coefficient
from lenspoly.surgery import SurgeryParams
from lenspoly.sweep import _canonical_ks, _map_over_p, _torus2_coeffs


def summarize(params):
    out = generate(params)
    poly = out.poly
    g = poly.g
    return {
        "p": params.p,
        "k": params.k,
        "g": g,
        "trivial": g == 0 and poly.coeffs == (1,),
        "a0": top_coefficient(poly, 0),
        "a1": top_coefficient(poly, 1),
        "a2": top_coefficient(poly, 2),
        "flat": is_flat(poly),
        "alternating": is_alternating(poly),
        "unit": out.delta_one == 1,
        "torus2": g > 0 and poly.coeffs == _torus2_coeffs(g),
    }


def _rows_for_p(p):
    return [summarize(SurgeryParams(p, k)) for k in _canonical_ks(p)]


VARIANTS = [
    ("literal (1, -1, nonzero)", lambda r: True),
    ("+ unit evaluation", lambda r: r["unit"]),
    ("+ flat", lambda r: r["unit"] and r["flat"]),
    ("+ alternating", lambda r: r["unit"] and r["alternating"]),
    ("+ flat + alternating", lambda r: r["unit"] and r["flat"] and r["alternating"]),
    ("+ flat + alternating + a2 = +1",
     lambda r: r["unit"] and r["flat"] and r["alternating"] and r["a2"] == 1),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=600)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    t0 = time.perf_counter()
    rows = [row for _, chunk in _map_over_p(_rows_for_p, 2, args.max_p, args.jobs)
            for row in chunk]
    elapsed = time.perf_counter() - t0

    base = [r for r in rows if not r["trivial"] and r["a0"] == 1 and r["a1"] == -1 and r["a2"] != 0]
    print(f"parameters p <= {args.max_p}: {len(rows)} total, "
          f"{len(base)} fire the literal trigger ({elapsed:.1f}s)")
    print()
    print(f"{'trigger variant':<34} {'fires':>7} {'violations':>11} {'first violation':>16}")
    for label, extra in VARIANTS:
        fired = [r for r in base if extra(r)]
        bad = [r for r in fired if not (r["torus2"] and r["k"] == 2)]
        first = f"({bad[0]['p']},{bad[0]['k']})" if bad else "-"
        print(f"{label:<34} {len(fired):>7} {len(bad):>11} {first:>16}")

    print()
    unit = [r for r in rows if r["unit"]]
    print(f"unit-evaluation parameters: {len(unit)}/{len(rows)}")
    print(f"  flat:        {sum(1 for r in unit if r['flat'])}/{len(unit)}")
    print(f"  alternating: {sum(1 for r in unit if r['alternating'])}/{len(unit)}")
    nontrivial_unit = [r for r in unit if not r["trivial"]]
    top_ok = sum(1 for r in nontrivial_unit if r["a0"] == 1 and r["a1"] == -1)
    print(f"  top signs (1, -1) among nontrivial: {top_ok}/{len(nontrivial_unit)}")


if __name__ == "__main__":
    main()
