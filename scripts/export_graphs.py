#!/usr/bin/env python3
"""Export the standard small graphs and bundles as DOT / JSON files.

Writes the complete graph on three vertices, the full rank-2 type-A flag
graph, and the 24-to-6 bundle of the rank-3 type-A group into the given
output directory (default ./exports).  The JSON files are written by the
same writers as ``gkm export``, so each equals what ``export`` writes for
the same object.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gkmflag.gkmgraph import graph_json_chunks, graph_to_dot
from gkmflag.parabolic import build_bundle, build_coset_graph, bundle_json_chunks
from gkmflag.rootsys import RootSystem


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="exports")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    a2 = RootSystem("A", 2)
    k3 = build_coset_graph(a2, frozenset({2}), a2.full_sigma()).graph
    (out / "k3.dot").write_text(graph_to_dot(k3, name="K3"))
    (out / "k3.json").write_text("".join(graph_json_chunks(k3)))

    s3 = build_coset_graph(a2, frozenset(), a2.full_sigma()).graph
    (out / "s3_flag.dot").write_text(graph_to_dot(s3, name="S3"))
    (out / "s3_flag.json").write_text("".join(graph_json_chunks(s3)))

    a3 = RootSystem("A", 3)
    b = build_bundle(a3, frozenset(), frozenset({1, 3}))
    (out / "s4_over_j42.json").write_text("".join(bundle_json_chunks(b)))
    (out / "j42.dot").write_text(graph_to_dot(b.base, name="J42"))

    print(f"wrote {len(list(out.iterdir()))} files under {out}/")


if __name__ == "__main__":
    main()
