#!/usr/bin/env python3
"""Render the two worked examples: ASCII to stdout, SVG files to out/.

Usage: PYTHONPATH=src python3 scripts/render_examples.py [--out-dir out]
"""

import argparse
import pathlib

from lenspoly.alexander import format_polynomial, generate
from lenspoly.lattice import (
    Window,
    build_view,
    covered_translates,
    non_zero_region,
    trace_curves,
)
from lenspoly.render import ascii_curves, ascii_view, svg_pieces
from lenspoly.surgery import SurgeryParams

EXAMPLES = [
    (SurgeryParams(11, 2), Window(-1, 6, -6, 5)),
    (SurgeryParams(19, 7), Window(-1, 9, -19, 19)),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for params, window in EXAMPLES:
        print(f"=== (p, k) = ({params.p}, {params.k}) ===")
        gen = generate(params)
        print(f"polynomial: {format_polynomial(gen.poly)}")
        print()
        print("A matrix:")
        print(ascii_view(build_view(params, "A", window, gen)))
        print()
        curves = trace_curves(params, window, gen)
        full = covered_translates(params, window, gen)
        print(f"curves: {len(curves)} components, translates "
              f"{[c.translate for c in curves]} (fully covered: {full})")
        print(ascii_curves(window, curves))
        print()
        path = out_dir / f"curves_{params.p}_{params.k}.svg"
        cells = non_zero_region(params, gen).window_translates(window)
        path.write_text("".join(svg_pieces(params, window, curves, cells)))
        print(f"wrote {path}")
        print()


if __name__ == "__main__":
    main()
