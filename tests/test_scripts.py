"""The scripts under scripts/ run end to end and exit 0."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from gkmflag.cli import main
from gkmflag.gkmgraph import Check, Report

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
    for kind in "ABCD":
        assert f"CHECK invariant-module-{kind}8: PASS\n" in out
    assert "CHECK axioms-D5: PASS\n" in out
    assert "CHECK axioms-B5: PASS\n" in out
    for name in ("B4", "D5"):
        assert f"CHECK graph-file-{name}: PASS\n" in out
    for name in ("B4", "D4"):
        assert f"CHECK express-{name}: PASS\n" in out
        assert f"CHECK holonomy-exhaustive-{name}-S2=2,3,4: PASS\n" in out
    assert "CHECK holonomy-A7-S2=2,3,4,5,6,7: PASS (order 5040)\n" in out


def test_run_verification_prints_what_failed(capsys):
    spec = importlib.util.spec_from_file_location("run_verification",
                                                  SCRIPTS / "run_verification.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rep = Report()
    rep.add("count", True)
    rep.add("spanning", False, "level 2 fails")
    rep.add("independence", False)
    assert not script.show("basis-X1", rep)
    assert script.show("basis-X2", Report([Check("count", True)]))
    assert capsys.readouterr().out == (
        "CHECK basis-X1: FAIL\n"
        "  CHECK spanning: FAIL level 2 fails\n"
        "  CHECK independence: FAIL\n"
        "CHECK basis-X2: PASS\n")


def test_reproduce_tables_prints_both_rank_2_tables():
    out = run_script("reproduce_tables.py")
    assert "# invariant classes on the A2 flag graph (6 elements)" in out
    assert "# invariant classes on the B2 flag graph (8 elements)" in out


def test_export_graphs_writes_its_files(tmp_path):
    out_dir = tmp_path / "exports"
    out = run_script("export_graphs.py", "--out", str(out_dir))
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"k3.dot", "k3.json", "s3_flag.dot", "s3_flag.json",
                     "s4_over_j42.json", "j42.dot"}
    assert out.startswith("wrote 6 files")
    # each JSON file is byte for byte what ``gkm export`` writes
    for name, argv in [
        ("k3.json", ["--type", "A", "--rank", "2", "--sigma1", "2"]),
        ("s3_flag.json", ["--type", "A", "--rank", "2"]),
        ("s4_over_j42.json", ["--what", "bundle", "--type", "A", "--rank", "3", "--sigma2", "1,3"]),
    ]:
        exported = tmp_path / name
        assert main(["export", *argv, "--out", str(exported)]) == 0
        assert (out_dir / name).read_bytes() == exported.read_bytes(), name



def test_code_lines_counts_each_module_and_the_total():
    """The script counts the library, its total is the sum of the modules,
    and docstrings, comments and blank lines are not counted while a
    string that spans lines counts every line."""
    rows = [line.split("\t") for line in run_script("code_lines.py").splitlines()]
    library = sorted(path.name for path in (SCRIPTS.parent / "src" / "gkmflag").glob("*.py"))
    assert [name for name, _ in rows[:-1]] == library
    assert rows[-1][0] == "total" and int(rows[-1][1]) == sum(int(n) for _, n in rows[:-1])
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPTS / "code_lines.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.code_lines(
        '"""A module docstring\n\nover three lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """One docstring line."""\n'
        "    return (x +  # a trailing comment\n"
        "            1)\n"
        "\n"
        'TEXT = """a string\n'
        'that is not a docstring"""\n') == 5
    assert script.code_lines("") == 0
