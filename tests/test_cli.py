import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gkmflag
from gkmflag.cli import main
from gkmflag.gkmgraph import graph_from_json, graph_hash, graph_to_json
from gkmflag.parabolic import build_coset_graph
from gkmflag.rootsys import RootSystem


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_a2(capsys):
    code, out, _ = run(capsys, "table", "--type", "A", "--rank", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == [
        "word", "one_line", "c[0,0]", "c[0,1]", "c[1,0]", "c[1,1]", "c[2,0]", "c[2,1]",
    ]
    assert len(lines) == 7
    rows = {line.split("\t")[1]: line.split("\t") for line in lines[1:]}
    assert rows["3,1,2"][7] == "x1*x3^2"


def test_missing_graph_file_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--graph", "missing.json")
    assert code == 2
    assert "missing.json" in err


def test_table_refuses_the_removed_basis_flag(capsys):
    code, out, err = run(capsys, "table", "--type", "A", "--rank", "2", "--basis")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --basis" in err
    assert "Traceback" not in err


def _readme_commands():
    """The argv of each ``gkm`` line in the README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:]
            for line in block.splitlines() if line.startswith("gkm ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    """Every documented command exits 0; my_graph.json stands for user data."""
    monkeypatch.chdir(tmp_path)
    assert main(["export", "--type", "B", "--rank", "2", "--out", "my_graph.json"]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "Traceback" not in out + err


def test_bad_flags_exit_2(capsys):
    assert main(["table", "--type", "Z", "--rank", "2"]) == 2
    assert main(["nonsense"]) == 2
    assert main(["table", "--rank", "2"]) == 2  # no --type


def test_verify_built_graph(capsys):
    code, out, _ = run(capsys, "verify", "--type", "B", "--rank", "2")
    assert code == 0
    assert "CHECK congruence: PASS" in out


def test_verify_graph_file_round_trip(tmp_path, capsys):
    rs = RootSystem("A", 2)
    g = build_coset_graph(rs, frozenset({2}), rs.full_sigma()).graph
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(graph_to_json(g)))
    code, out, _ = run(capsys, "verify", "--graph", str(path))
    assert code == 0


def test_verify_detects_broken_file(tmp_path, capsys):
    rs = RootSystem("A", 2)
    g = build_coset_graph(rs, frozenset({2}), rs.full_sigma()).graph
    data = graph_to_json(g)
    data["edges"][0]["alpha"] = ["1", "1", "0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--graph", str(path))
    assert code == 1
    assert "FAIL" in out


def _dst_out_of_range(data):
    data["edges"][0]["dst"] = len(data["vertices"])
    return data


def _missing_connection_target(data):
    data["connection"][0]["map"][0][1] = len(data["edges"])
    return data


def _repeated_map_key(data):
    data["connection"][0]["map"][1][0] = data["connection"][0]["map"][0][0]
    return data


def _map_key_off_the_tail(data):
    data["connection"][0]["map"][1][0] = len(data["edges"]) - 1  # an edge at the last vertex
    return data


def _map_image_off_the_head(data):
    data["connection"][0]["map"][0][1] = 0  # edge 0 lies at the tail, not the head
    return data


def _missing_map_key(data):
    del data["connection"][0]["map"][-1]
    return data


def _zero_denominator(data):
    data["edges"][0]["alpha"][0] = "1/0"
    return data


def _exponent_string(data):
    data["edges"][0]["alpha"][0] = "1e999999999"
    return data


@pytest.mark.parametrize("mutate", [
    _dst_out_of_range,
    _missing_connection_target,
    _zero_denominator,
    _exponent_string,
    lambda data: [data],
    lambda data: {**data, "vertices": "123456"},
    lambda data: {**data, "varcount": 0},
    "[" * 200000 + "]" * 200000,
    lambda data: {**data, "vertices": [{"a": 1}] * len(data["vertices"])},
    lambda data: {**data, "vertices": ["a"] * len(data["vertices"])},
    _repeated_map_key,
    _map_key_off_the_tail,
    _map_image_off_the_head,
    _missing_map_key,
], ids=["dst-out-of-range", "missing-connection-target", "zero-denominator",
        "exponent-string", "top-level-list", "vertices-string", "varcount-zero", "deeply-nested",
        "vertices-not-strings", "vertices-repeated", "repeated-map-key", "map-key-off-the-tail",
        "map-image-off-the-head", "missing-map-key"])
def test_verify_malformed_graph_file_is_usage_error(tmp_path, capsys, mutate):
    """``mutate`` edits a valid graph's JSON, or is the raw file text."""
    rs = RootSystem("A", 2)
    data = graph_to_json(build_coset_graph(rs, frozenset({2}), rs.full_sigma()).graph)
    path = tmp_path / "malformed.json"
    path.write_text(mutate if isinstance(mutate, str) else json.dumps(mutate(data)))
    code, out, err = run(capsys, "verify", "--graph", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_verify_non_injective_connection_fails_its_check(tmp_path, capsys):
    """A map that pairs each edge at the tail once, two of them with one
    edge at the head, is a graph whose connection-shape check fails."""
    rs = RootSystem("A", 2)
    data = graph_to_json(build_coset_graph(rs, frozenset(), rs.full_sigma()).graph)
    pairs = data["connection"][0]["map"]
    pairs[2][1] = pairs[1][1]
    path = tmp_path / "non_injective.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--graph", str(path))
    assert code == 1
    assert ("CHECK connection-shape: FAIL connection along (1,2,3 -> 2,1,3; x1 - x2) "
            "is not a bijection E_p -> E_q\n") in out


def test_bundle_verify(capsys):
    code, out, _ = run(capsys, "bundle", "--type", "A", "--rank", "3",
                       "--sigma2", "1,3", "--verify")
    assert code == 0
    assert "CHECK transition-gkm-iso: PASS" in out


@pytest.mark.parametrize("argv,message", [
    (["bundle", "--sigma2", "0", "--verify"],
     "Sigma2 must consist of simple-root indices 1..3, not [0]"),
    (["verify", "--sigma1", "5"], "Sigma1 must consist of simple-root indices 1..3, not [5]"),
    (["holonomy", "--sigma2", "0,2"],
     "Sigma2 must consist of simple-root indices 1..3, not [0, 2]"),
], ids=["bundle", "verify", "holonomy"])
def test_bad_sigma_index_names_the_given_set(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--type", "A", "--rank", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_holonomy_verb(capsys):
    code, out, _ = run(capsys, "holonomy", "--type", "A", "--rank", "2",
                       "--sigma2", "2", "--exhaustive")
    assert code == 0
    assert "holonomy group order: 2" in out
    assert "CHECK holonomy-equals-group-action: PASS" in out


def test_holonomy_exhaustive_refusal_prints_no_partial_report(capsys):
    code, out, err = run(capsys, "holonomy", "--type", "A", "--rank", "3",
                         "--sigma2", "2", "--exhaustive")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "too large" in err


def test_basis_verb(capsys):
    code, out, _ = run(capsys, "basis", "--type", "A", "--rank", "2",
                       "--max-degree", "3")
    assert code == 0
    assert "CHECK spanning: PASS" in out


def test_express_verb_deterministic(capsys):
    code, out1, _ = run(capsys, "express", "--type", "A", "--rank", "2",
                        "--seed", "5", "--degree", "3")
    assert code == 0
    assert "CHECK express-reassembly: PASS" in out1
    code, out2, _ = run(capsys, "express", "--type", "A", "--rank", "2",
                        "--seed", "5", "--degree", "3")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("express", "--type", "A", "--rank", "2", "--degree", "-1"),
    ("basis", "--type", "A", "--rank", "2", "--max-degree", "-1"),
    ("export", "--type", "A", "--rank", "2", "--what", "class", "--index=-1,0"),
])
def test_negative_degree_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "non-negative" in err


@pytest.mark.parametrize("key", [
    *(f"express --type {kind} --rank {rank} --seed {seed}"
      for kind, rank, seeds in [("B", 2, (0, 1, 2)), ("C", 2, (0, 1, 2)),
                                ("B", 3, (0, 7)), ("D", 3, (0, 7))]
      for seed in seeds),
    "schubert --type A --rank 2",
    "schubert --type A --rank 4",
    "verify --type B --rank 4",
    "verify --type D --rank 4",
    "bundle --type A --rank 4 --sigma2 2,3,4 --verify",
    "holonomy --type A --rank 4 --sigma2 2,3,4",
    "export --type B --rank 4 --out {B4_JSON}",
    "verify --graph {B4_JSON}",
], ids=lambda key: "-".join(key.replace("--", "").replace("{", "").replace("}", "").split()))
def test_stdout_matches_bench_references(capsys, tmp_path, key):
    """The command ``key`` prints byte for byte what the benchmark recorded.

    ``{B4_JSON}`` stands for the benchmark's input file, the B4 flag graph
    written by ``export --type B --rank 4``: for the export itself the
    recorded digest is that of the file, which pins the ``graph_to_json``
    bytes, and ``verify --graph`` reads the file the export wrote.
    """
    references = json.loads(
        (Path(__file__).parent.parent / "perfbench" / "references.json").read_text())
    b4_json = str(tmp_path / "B4_JSON.json")
    export = ["export", "--type", "B", "--rank", "4", "--out", b4_json]
    argv = [b4_json if arg == "{B4_JSON}" else arg for arg in key.split()]
    if "{B4_JSON}" in key and argv != export:
        assert run(capsys, *export)[0] == 0
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if argv == export:
        out = Path(b4_json).read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == references[key]


def test_export_json_round_trip(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run(capsys, "export", "--type", "A", "--rank", "2",
                     "--sigma1", "2", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    g = graph_from_json(data)
    rs = RootSystem("A", 2)
    expected = build_coset_graph(rs, frozenset({2}), rs.full_sigma()).graph
    assert graph_hash(g) == graph_hash(expected)


def test_export_dot_k3(capsys):
    code, out, _ = run(capsys, "export", "--type", "A", "--rank", "2",
                       "--sigma1", "2", "--format", "dot")
    assert code == 0
    assert out.count(" -- ") == 3
    for label in ["x1 - x2", "x1 - x3", "x2 - x3"]:
        assert label in out


def test_export_class(capsys):
    code, out, _ = run(capsys, "export", "--type", "B", "--rank", "2",
                       "--what", "class", "--index", "3,1")
    assert code == 0
    data = json.loads(out)
    assert data["values"]["-2,1"] == "-x1*x2^3"
    assert data["values"]["2,1"] == "x1*x2^3"


def test_export_bundle_round_trip(tmp_path, capsys):
    from gkmflag.parabolic import bundle_from_json, bundle_to_json, build_bundle

    path = tmp_path / "b.json"
    code, _, _ = run(capsys, "export", "--type", "B", "--rank", "2",
                     "--what", "bundle", "--sigma2", "2", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    b = bundle_from_json(data)
    rs = RootSystem("B", 2)
    built = build_bundle(rs, frozenset(), frozenset({2}))
    assert bundle_to_json(b) == bundle_to_json(built) == data


def test_schubert_verb(capsys):
    code, out, _ = run(capsys, "schubert", "--type", "A", "--rank", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("word\tone_line\ttau[1,2,3]")
    # the identity column is constant 1
    col = lines[0].split("\t").index("tau[1,2,3]")
    for line in lines[1:]:
        assert line.split("\t")[col] == "1"


def test_build_verb(tmp_path, capsys):
    path = tmp_path / "flag.json"
    code, out, _ = run(capsys, "build", "--type", "B", "--rank", "2",
                       "--out", str(path))
    assert code == 0
    assert "8 vertices" in out
    data = json.loads(path.read_text())
    g = graph_from_json(data)
    assert g.nvertices == 8


def test_group_order_cap_is_checked_before_the_root_system(capsys, monkeypatch):
    def refuse(self):
        raise RuntimeError("root system built for a refused group")

    monkeypatch.setattr(RootSystem, "_make_positives", refuse)
    for verb in ("verify", "basis"):
        code, _, err = run(capsys, verb, "--type", "A", "--rank", "200")
        assert code == 2
        assert err.startswith("error: group order ")
        assert err.rstrip().endswith("exceeds --max-group-order")
    code, _, err = run(capsys, "verify", "--type", "D", "--rank", "2")
    assert code == 2
    assert err == "error: type D needs rank >= 3\n"


@pytest.mark.parametrize("flag", ["--sigma1", "--sigma2"])
@pytest.mark.parametrize("verb", ["schubert", "table", "basis", "express"])
def test_verbs_without_sigmas_refuse_sigma_flags(capsys, verb, flag):
    """Only the verbs that read Sigma1/Sigma2 accept them; the rest exit 2
    instead of ignoring the flag."""
    code, out, err = run(capsys, verb, "--type", "A", "--rank", "2", flag, "1")
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} 1" in err
    assert "Traceback" not in err


def test_holonomy_one_vertex_base_is_usage_error(capsys):
    code, _, err = run(capsys, "holonomy", "--type", "A", "--rank", "2",
                       "--sigma2", "1,2")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_closed_stdout_exits_2_without_traceback():
    """A reader that closes the pipe before any output gets one error line."""
    env = dict(os.environ, PYTHONPATH=str(Path(gkmflag.__file__).resolve().parent.parent))
    # the child waits for stdin to close, so its stdout is closed first
    code = "import sys; sys.stdin.read(); from gkmflag.cli import main; sys.exit(main())"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, "schubert", "--type", "A", "--rank", "3"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    proc.stdin.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err.strip() == "error: cannot write to stdout"
