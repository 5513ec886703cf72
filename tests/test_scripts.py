"""The scripts under scripts/ run end to end and exit 0."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


def test_run_verification_passes():
    out = run_script("run_verification.py")
    assert "FAIL" not in out
    assert out.splitlines()[-1].startswith("total: PASS")


def test_reproduce_tables_prints_both_rank_2_tables():
    out = run_script("reproduce_tables.py")
    assert "# invariant classes on the A2 flag graph (6 elements)" in out
    assert "# invariant classes on the B2 flag graph (8 elements)" in out


def test_export_graphs_writes_its_files(tmp_path):
    out = run_script("export_graphs.py", "--out", str(tmp_path))
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"k3.dot", "k3.json", "s3_flag.dot", "s3_flag.json",
                     "s4_over_j42.json", "j42.dot"}
    assert out.startswith("wrote 6 files")

