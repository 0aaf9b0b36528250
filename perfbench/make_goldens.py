#!/usr/bin/env python3
"""Record the outputs the benchmark checks against (``goldens.json``).

Run once, from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/make_goldens.py

It records, for every sweep and verify operation of every workload (full
and self-test sizes), the exit code and the sha256 of stdout and of the
report; for every canonical pair with p <= 120, the sha256 of the
``curve`` JSON, its SVG and the ``matrix --kind dA`` JSON, and the two
calls' best latency of three tries (``cost_ms``, used only to stratify
the curves sample); and
the pairs that ``verify`` prints, which the sweep workloads inspect.  It refuses to
write anything unless the sweep reports at p <= 600 match the hashes the
ROADMAP gives and a resumed sweep equals a fresh one byte for byte.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run

PAIRS_MAX_P = 120
ROADMAP_600 = {
    "csv": "727d10bd8bd0bd1faff7d11ff012c86736e0c413b53550d167d03ff49fbfde84",
    "jsonl": "5e9df7e73016eb474c36dfd9de6179d58e060e78b45a0143ee38e57045abb396",
}


def record(cli, op: run.Op) -> tuple[dict, str]:
    code, stdout, _ = run.call(cli, op)
    entry = {"code": code, "stdout": run.sha256(run.normalized(op, stdout))}
    if op.kind == "sweep":
        entry["report"] = run.file_sha256(op.out)
    return entry, stdout


def main() -> int:
    cli = run.load_program()
    from lenspoly.sweep import enumerate_params

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    goldens: dict = {"context": run.machine(), "flagged": [], "ops": {}, "pairs": {}}
    try:
        for fmt, want in ROADMAP_600.items():
            op = run.sweep_ops(work, fmt, 600, 2)[0]
            entry, _ = record(cli, op)
            if entry["report"] != want:
                sys.exit(f"{fmt} report at p <= 600 is {entry['report']}, ROADMAP says {want}")
        for params in enumerate_params(PAIRS_MAX_P):
            curve, matrix = run.pair_ops(work, [(params.p, params.k)])
            c_code, c_out, _ = run.call(cli, curve)
            m_code, m_out, _ = run.call(cli, matrix)
            # the fastest of three tries: machine speed drifts, the pair's cost does not
            cost = min(run.call(cli, curve)[2] + run.call(cli, matrix)[2] for _ in range(3))
            if (c_code, m_code) != (0, 0):
                sys.exit(f"({params.p}, {params.k}): curve/matrix exited {c_code}/{m_code}")
            goldens["pairs"][curve.golden] = {"curve": run.sha256(c_out),
                                              "svg": run.file_sha256(curve.out),
                                              "matrix": run.sha256(m_out),
                                              "cost_ms": round(1000 * cost, 2)}
        verify_out = {}
        for sizes in (run.FULL, run.TINY):
            for workload in run.WORKLOADS:
                for op in run.plan(workload, 0, work, goldens, sizes):
                    if op.kind not in ("sweep", "verify") or op.golden in goldens["ops"]:
                        continue
                    entry, stdout = record(cli, op)
                    goldens["ops"][op.golden] = entry
                    verify_out[op.golden] = stdout
                    resumed = re.fullmatch(r"sweep-(\w+)-(\d+)-resumed-\d+", op.golden)
                    if resumed:
                        fmt, bound = resumed.groups()
                        fresh, _ = record(cli, run.sweep_ops(work, fmt, int(bound), 1)[0])
                        if fresh["report"] != entry["report"]:
                            sys.exit(f"{op.golden}: resumed report differs from a fresh sweep")
        largest = f"verify-{run.FULL.large_max_p}"
        for p, k in re.findall(r"\(p=(\d+), k=(\d+)\)", verify_out[largest]):
            if [int(p), int(k)] not in goldens["flagged"]:
                goldens["flagged"].append([int(p), int(k)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    missing = [pair for pair in goldens["flagged"] if f"{pair[0]},{pair[1]}" not in goldens["pairs"]]
    if missing or len(goldens["flagged"]) < run.FULL.flagged:
        sys.exit(f"flagged pairs without goldens or too few: {goldens['flagged']}")
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.GOLDENS}: {len(goldens['ops'])} operations, "
          f"{len(goldens['pairs'])} pairs, {len(goldens['flagged'])} flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
