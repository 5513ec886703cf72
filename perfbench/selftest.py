#!/usr/bin/env python3
"""Self-test of the benchmark on the rank-2 smoke jobs.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit in both modes on every workload, that a corrupted reference digest
makes the run fail, and that a directory without the program makes it
exit nonzero without a result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--smoke", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def expect(cond: bool, what: str, proc=None):
    if not cond:
        detail = f"\n--- stdout\n{proc.stdout}\n--- stderr\n{proc.stderr}" if proc else ""
        raise SystemExit(f"selftest FAILED: {what}{detail}")
    print(f"ok  {what}")


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for wl in BENCH["workloads"]:
        name = wl["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run("--workload", name, "--trace", str(trace))
            expect(proc.returncode == 0 and result is not None and result["correct"],
                   f"{name} --trace {trace} passes", proc)
            wanted = {m["name"]: m["unit"] for m in BENCH[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} --trace {trace} prints every {section} metric with its unit", proc)
            printed = [ln.split() for ln in proc.stdout.splitlines()[:-1]]
            printed = {words[0]: words[-1] for words in printed if len(words) == 3}
            expect(all(printed.get(k) == u for k, u in wanted.items())
                   and printed.get("failed_ratio") == "ratio",
                   f"{name} --trace {trace} prints each metric and failed_ratio with units", proc)

    bad_refs = OUT / "selftest-references.json"
    for workload, key in (("graphs", "verify --type B --rank 2"),
                          ("classes", "iterated_family --type A --rank 2")):
        refs = json.loads((HERE / "references.json").read_text())
        refs[key] = "0" * 64
        bad_refs.write_text(json.dumps(refs))
        proc, result = run("--workload", workload, "--references", str(bad_refs))
        expect(proc.returncode != 0 and result is not None and not result["correct"]
               and result["failed"] >= 1, f"a corrupted reference digest of {key} fails the run", proc)

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run("--workload", "graphs", cwd=bare)
    expect(proc.returncode != 0 and result is None,
           "without the program the run exits nonzero and prints no result", proc)
    shutil.rmtree(bare)
    bad_refs.unlink()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
