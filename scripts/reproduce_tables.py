#!/usr/bin/env python3
"""Emit the worked invariant-class tables for any classical type and rank.

Examples:
    python scripts/reproduce_tables.py            # the two rank-2 tables
    python scripts/reproduce_tables.py --type D --rank 3
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkmflag.invbases import index_set
from gkmflag.rootsys import RootSystem
from gkmflag.schubert import invariant_table_tsv


def emit(kind, rank):
    rs = RootSystem(kind, rank)
    print(f"# invariant classes on the {kind}{rank} flag graph "
          f"({len(rs.elements())} elements)")
    sys.stdout.writelines(invariant_table_tsv(rs, index_set(kind, rank)))
    print()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--type", choices=list("ABCD"))
    ap.add_argument("--rank", type=int)
    args = ap.parse_args()
    if args.type and args.rank:
        emit(args.type, args.rank)
    else:
        emit("A", 2)
        emit("B", 2)


if __name__ == "__main__":
    main()
