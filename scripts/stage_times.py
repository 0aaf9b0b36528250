#!/usr/bin/env python3
"""Time each stage of the sweep's record layer, in process, one p at a time.

For every p in the range, each stage runs over all of that p's canonical
pairs before the next one starts, and the stages take turns p by p, so a
change in the machine's speed during the run falls on every stage alike.
With ``--repeat N`` each p runs N times and every stage keeps its fastest
time of that p.  The stages, in the order they run:

  enumerate    _canonical_walk(p): each pair with its _invariants(p, k)
  kernel       _period(p, k, inv): the window counts, checked for
               symmetry, with g and the top terms
  top_terms    _top_terms(*period[:4]): the part of kernel that reads g
               and the top terms, timed again on its own
  flat         _is_flat(w, m)
  alternation  _alternation(w, step, e, m, g)
  record       _row(p, k, k2, period): the row, flatness, alternation
               and the lemma check included
  tally        _tally(SweepSummary(), records)
  csv, jsonl   _serialize_batch(records, fmt)
  sweep        _rows_for_p("csv", p): the sweep's whole worker
  verify       _violations_for_p(p): verify's whole worker

It times whatever ``lenspoly`` is on the path.  ``--against DIR`` also
imports the ``lenspoly`` package under DIR (another checkout's ``src``)
under another name and runs every p on both, the order swapped from one
p to the next, and prints the other code's time and the ratio of the two.
The ratio has a spread of its own: at 2960 <= p <= 3000, stages whose code
is the same on both sides read 0.97-1.05 against each other, so a ratio
inside that band is not a change.

Usage: PYTHONPATH=src python3 scripts/stage_times.py [--min-p 600] [--max-p 640]
       [--repeat 1] [--against OTHER/src]
"""

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path
from time import perf_counter_ns

STAGES = ("enumerate", "kernel", "top_terms", "flat", "alternation", "record", "tally",
          "csv", "jsonl", "sweep", "verify")


def load(package: str, src: str | None = None) -> tuple:
    """The alexander, surgery and sweep modules of ``package``; with src,
    the lenspoly package under src is first imported as ``package``."""
    if src is not None:
        init = Path(src) / "lenspoly" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            package, init, submodule_search_locations=[str(init.parent)])
        sys.modules[package] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return tuple(importlib.import_module(f"{package}.{name}")
                 for name in ("alexander", "surgery", "sweep"))


def stage_times(code: tuple, p: int) -> tuple[int, list[int]]:
    """The number of canonical pairs of p and the nanoseconds of each stage."""
    alexander, surgery, sweep = code
    clock = [perf_counter_ns()]

    def lap():
        clock.append(perf_counter_ns())

    pairs = list(surgery._canonical_walk(p))
    lap()
    periods = [alexander._period(p, k, inv) for k, inv in pairs]
    lap()
    tops = [alexander._top_terms(*period[:4]) for period in periods]
    lap()
    [alexander._is_flat(period[0], period[3]) for period in periods]
    lap()
    [alexander._alternation(*period[:4], top[0]) for period, top in zip(periods, tops)]
    lap()
    records = [sweep._row(p, k, inv.k2, period) for (k, inv), period in zip(pairs, periods)]
    lap()
    sweep._tally(sweep.SweepSummary(), records)
    lap()
    sweep._serialize_batch(records, "csv")
    lap()
    sweep._serialize_batch(records, "jsonl")
    lap()
    sweep._rows_for_p("csv", p)
    lap()
    sweep._violations_for_p(p)
    lap()
    return len(pairs), [b - a for a, b in zip(clock, clock[1:])]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--min-p", type=int, default=600)
    parser.add_argument("--max-p", type=int, default=640)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--against", metavar="DIR", help="another checkout's src directory")
    args = parser.parse_args()
    if not 2 <= args.min_p <= args.max_p or args.repeat < 1:
        print("error: need 2 <= --min-p <= --max-p and --repeat >= 1", file=sys.stderr)
        return 2
    codes = [load("lenspoly")]
    if args.against is not None:
        codes.append(load("lenspoly_against", args.against))
    pairs, totals = 0, [[0] * len(STAGES) for _ in codes]
    for p in range(args.min_p, args.max_p + 1):
        order = range(len(codes)) if p % 2 else range(len(codes) - 1, -1, -1)
        runs = {side: [stage_times(codes[side], p) for _ in range(args.repeat)] for side in order}
        pairs += runs[0][0][0]
        for side, total in enumerate(totals):
            best = map(min, zip(*(ns for _, ns in runs[side])))
            totals[side] = [t + ns for t, ns in zip(total, best)]
    print(f"p {args.min_p}..{args.max_p}: {pairs} pairs, best of {args.repeat} per p")
    for name, *ns in zip(STAGES, *totals):
        line = f"{name:<12} {ns[0] / 1e9:9.4f} s {ns[0] / 1e3 / pairs:9.3f} us/pair"
        if len(ns) > 1:
            line += f"   against {ns[1] / 1e9:9.4f} s  ratio {ns[0] / ns[1]:6.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
