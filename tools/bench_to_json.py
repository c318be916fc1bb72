#!/usr/bin/env python3
"""Fold bench `ROW {...}` lines into a JSON results file.

The scalability bench (bench/fig3a_scalability) emits one machine-readable
line per (driver, world size):

    ROW {"bench":"fig3a","driver":"pioblast","procs":64,...}

This script collects those lines — from files given on the command line or
from stdin — and writes them as one JSON document, so figure data survives
as an artifact instead of scrollback:

    bench/fig3a_scalability --ranks 64,512,4096 \
        | tools/bench_to_json.py -o BENCH_scalability.json

Lines that are not ROW lines are ignored, so piping the bench's full
stdout (banner, tables) through is fine.

With --append, rows already present in the output file are kept and the
new rows are added after them — the trajectory-file mode used by
BENCH_pario.json, where each PR appends its measurement:

    bench/fig4_nfs_cluster --drivers none \
        | tools/bench_to_json.py --append -o BENCH_pario.json
"""

import argparse
import json
import sys


def collect_rows(stream):
    rows = []
    for line in stream:
        line = line.strip()
        if not line.startswith("ROW "):
            continue
        try:
            rows.append(json.loads(line[len("ROW "):]))
        except json.JSONDecodeError as e:
            print(f"bench_to_json: skipping malformed ROW line: {e}",
                  file=sys.stderr)
    return rows


def main():
    ap = argparse.ArgumentParser(
        description="collect bench ROW lines into a JSON results file")
    ap.add_argument("inputs", nargs="*",
                    help="bench output files (default: stdin)")
    ap.add_argument("-o", "--output", default="BENCH_scalability.json",
                    help="output path (default: %(default)s)")
    ap.add_argument("--append", action="store_true",
                    help="keep rows already present in the output file and "
                         "add the new ones after them")
    args = ap.parse_args()

    rows = []
    if args.inputs:
        for path in args.inputs:
            with open(path, encoding="utf-8") as f:
                rows.extend(collect_rows(f))
    else:
        rows.extend(collect_rows(sys.stdin))

    if not rows:
        print("bench_to_json: no ROW lines found", file=sys.stderr)
        return 1

    if args.append:
        try:
            with open(args.output, encoding="utf-8") as f:
                prior = json.load(f).get("rows", [])
        except FileNotFoundError:
            prior = []
        rows = prior + rows

    doc = {"rows": rows}
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"{args.output}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
