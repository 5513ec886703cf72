import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gkmflag
from gkmflag import cli, gkmgraph, invbases, parabolic, schubert
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


def test_verify_refuses_the_removed_strict_independence_flag(capsys):
    code, out, err = run(capsys, "verify", "--type", "A", "--rank", "2",
                         "--strict-independence")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --strict-independence" in err
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


@pytest.mark.parametrize("argv,line", [
    (("--type", "B", "--rank", "3"), "built B3 coset graph on 48 vertices, 432 oriented edges"),
    (("--type", "A", "--rank", "3", "--sigma1", "2,3"),
     "built A3 coset graph on 4 vertices, 12 oriented edges"),
])
def test_build_counts_vertices_and_oriented_edges(capsys, argv, line):
    assert run(capsys, "build", *argv) == (0, line + "\n", "")


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


def _wrong_connection_edge(data):
    data["connection"][0]["edge"] = [5, 5]
    return data


def _non_list_connection_edge(data):
    data["connection"][1]["edge"] = "junk"
    return data


def _missing_connection_edge(data):
    del data["connection"][2]["edge"]
    return data


MALFORMED = [
    pytest.param(_dst_out_of_range, id="dst-out-of-range"),
    pytest.param(_missing_connection_target, id="missing-connection-target"),
    pytest.param(_zero_denominator, id="zero-denominator"),
    pytest.param(_exponent_string, id="exponent-string"),
    pytest.param(lambda data: [data], id="top-level-list"),
    pytest.param(lambda data: {**data, "vertices": "123456"}, id="vertices-string"),
    pytest.param(lambda data: {**data, "varcount": 0}, id="varcount-zero"),
    pytest.param("[" * 200000 + "]" * 200000, id="deeply-nested"),
    pytest.param(lambda data: {**data, "vertices": [{"a": 1}] * len(data["vertices"])},
                 id="vertices-not-strings"),
    pytest.param(lambda data: {**data, "vertices": ["a"] * len(data["vertices"])},
                 id="vertices-repeated"),
    pytest.param(_repeated_map_key, id="repeated-map-key"),
    pytest.param(_map_key_off_the_tail, id="map-key-off-the-tail"),
    pytest.param(_map_image_off_the_head, id="map-image-off-the-head"),
    pytest.param(_missing_map_key, id="missing-map-key"),
    pytest.param(_wrong_connection_edge, id="wrong-connection-edge"),
    pytest.param(_non_list_connection_edge, id="non-list-connection-edge"),
    pytest.param(_missing_connection_edge, id="missing-connection-edge"),
    pytest.param(lambda data: {**data, "connection": data["connection"][:-1]},
                 id="connection-short"),
    pytest.param(lambda data: {**data, "connection": data["connection"] * 2},
                 id="connection-long"),
    pytest.param(lambda data: {**data, "connection": {}}, id="connection-object"),
]


def _k3_data():
    rs = RootSystem("A", 2)
    return graph_to_json(build_coset_graph(rs, frozenset({2}), rs.full_sigma()).graph)


@pytest.mark.parametrize("mutate", MALFORMED)
def test_verify_malformed_graph_file_is_usage_error(tmp_path, capsys, mutate):
    """``mutate`` edits a valid graph's JSON, or is the raw file text."""
    path = tmp_path / "malformed.json"
    path.write_text(mutate if isinstance(mutate, str) else json.dumps(mutate(_k3_data())))
    code, out, err = run(capsys, "verify", "--graph", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("mutate", [case for case in MALFORMED
                                    if not isinstance(case.values[0], str)])
@pytest.mark.parametrize("indent", [1, None], ids=["written", "compact"])
def test_reader_refuses_a_malformed_graph_as_the_parsed_file_is_refused(mutate, indent):
    """The streaming reader raises the ValueError, with its message, that
    ``graph_from_json`` raises on the parsed file."""
    text = json.dumps(mutate(_k3_data()), indent=indent)
    with pytest.raises(ValueError) as parsed:
        graph_from_json(json.loads(text))
    with pytest.raises(ValueError) as streamed:
        gkmgraph.graph_from_text(text)
    assert type(streamed.value) is type(parsed.value)
    assert str(streamed.value) == str(parsed.value)


def _a2_flag():
    rs = RootSystem("A", 2)
    return build_coset_graph(rs, frozenset(), rs.full_sigma()).graph


def test_verify_refuses_a_graph_file_cut_short(tmp_path, capsys):
    """The A2 flag file cut at every tenth character, short of its closing
    brace, exits 2 with one error line."""
    text = "".join(gkmgraph.graph_json_chunks(_a2_flag()))
    path = tmp_path / "cut.json"
    for end in range(0, len(text.rstrip()), 10):
        path.write_text(text[:end])
        code, out, err = run(capsys, "verify", "--graph", str(path))
        assert (code, out) == (2, ""), end
        assert err.startswith(f"error: cannot load graph {path}: ") and err.count("\n") == 1, end
        assert "Traceback" not in err, end


@pytest.mark.parametrize("edit,message", [
    (lambda text: text + "x", "Extra data"),
    (lambda text: text + "{}\n", "Extra data"),
    (lambda text: text.rstrip()[:-1] + ',\n "varcount": 3\n}\n', "Repeated key 'varcount'"),
    (lambda text: '{"edges": [],' + text[1:], "Repeated key 'edges'"),
    (lambda text: text.replace('},\n  {\n   "edge"', '}\n  {\n   "edge"', 1),
     "Expecting ',' delimiter"),
], ids=["trailing-text", "trailing-object", "key-repeated-after-connection",
        "key-repeated-before-connection", "connection-entries-without-comma"])
def test_verify_refuses_a_graph_file_off_the_grammar(tmp_path, capsys, edit, message):
    """A graph file holds one object, its list entries apart by commas and
    each of its keys given once: text after the object, entries without a
    comma and a repeated key, whose last value ``json.load`` would keep,
    each exit 2."""
    path = tmp_path / "edited.json"
    path.write_text(edit("".join(gkmgraph.graph_json_chunks(_a2_flag()))))
    code, out, err = run(capsys, "verify", "--graph", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot load graph {path}: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("reorder", [
    lambda data: {"connection": data.pop("connection"), **data},
    lambda data: {"note": "from elsewhere", **data},
    lambda data: {**data, "note": {"nested": [1, 2]}},
], ids=["connection-first", "unknown-key-first", "unknown-key-last"])
def test_verify_reads_the_keys_in_any_order_and_skips_unknown_ones(tmp_path, capsys, reorder):
    """The connection before the edges is decoded whole, and an unknown
    key is read and ignored: the graph and the report are the canonical
    file's."""
    g = _a2_flag()
    canonical = tmp_path / "canonical.json"
    canonical.write_text("".join(gkmgraph.graph_json_chunks(g)))
    want = run(capsys, "verify", "--graph", str(canonical))
    text = json.dumps(reorder(graph_to_json(g)), indent=1)
    path = tmp_path / "reordered.json"
    path.write_text(text)
    assert run(capsys, "verify", "--graph", str(path)) == want
    assert want[0] == 0
    read = gkmgraph.graph_from_text(text)
    assert graph_hash(read) == graph_hash(g)
    assert (read.connection, read.reverse) == (g.connection, g.reverse)


def test_verify_names_the_first_connection_entry_with_a_bad_edge(tmp_path, capsys):
    """The connection ``edge`` fields of the B2 file are checked as the
    entries arrive; a wrong, non-list, missing, float, long or bool field,
    with a wrong field at the last entry too, is named at its own entry."""
    rs = RootSystem("B", 2)
    data = graph_to_json(build_coset_graph(rs, frozenset(), rs.full_sigma()).graph)
    mid = len(data["connection"]) // 2
    p, q = data["connection"][mid]["edge"]
    one = next(eid for eid, entry in enumerate(data["connection"]) if entry["edge"] == [0, 1])
    for eid, edge in [(mid, [q, p]), (mid, "junk"), (mid, None), (mid, [float(p), q]),
                      (mid, [p, q, q]), (one, [False, True])]:
        bad = json.loads(json.dumps(data))
        bad["connection"][-1]["edge"] = [5, 5]
        if edge is None:
            del bad["connection"][eid]["edge"]
        else:
            bad["connection"][eid]["edge"] = edge
        path = tmp_path / "bad_edge.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "verify", "--graph", str(path))
        assert (code, out) == (2, ""), edge
        src, dst = data["connection"][eid]["edge"]
        assert err == (f"error: cannot load graph {path}: connection {eid}: edge must be "
                       f"[{src}, {dst}], the src and dst of edge {eid}\n"), edge


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
    assert "CHECK holonomy-exhaustive-agrees: PASS" in out


def test_holonomy_base_point(capsys):
    code, out, _ = run(capsys, "holonomy", "--type", "A", "--rank", "2",
                       "--sigma2", "1", "--base-point", "3,1,2")
    assert code == 0
    assert "holonomy group order: 2" in out


@pytest.mark.parametrize("argv", [
    ["--type", "A", "--rank", "2", "--sigma2", "1", "--base-point=-1,2,3"],
    ["--type", "D", "--rank", "3", "--sigma2", "3", "--base-point=-1,2,3"],
    ["--type", "D", "--rank", "3", "--sigma2", "3", "--base-point=1,2"],
], ids=["sign-in-type-A", "odd-signs-in-type-D", "wrong-length"])
def test_holonomy_base_point_outside_w_is_usage_error(capsys, argv):
    """A signed permutation outside W, or of the wrong length, lies in no
    base coset.  The descent from -1,2,3 in type A must end, not step back
    and forth through 2,-1,3."""
    code, out, err = run(capsys, "holonomy", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: bad base point {argv[-1].split('=')[1]!r}\n"


def test_holonomy_exhaustive_refusal_prints_no_partial_report(capsys):
    code, out, err = run(capsys, "holonomy", "--type", "A", "--rank", "3",
                         "--sigma2", "2", "--exhaustive")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "too large" in err


@pytest.mark.parametrize("base_point", [[], ["--base-point", "2,1,3,4"]],
                         ids=["base-point-0", "base-point-2134"])
def test_holonomy_without_exhaustive_builds_no_bundle(capsys, monkeypatch, base_point):
    """The group comes from the coset graphs of base and typical fiber;
    only the cycle search of --exhaustive reads a bundle."""
    argv = ["holonomy", "--type", "A", "--rank", "3", "--sigma2", "2,3", *base_point]

    def refuse(*args):
        raise AssertionError("build_bundle called")

    with monkeypatch.context() as patched:
        patched.setattr(parabolic, "build_bundle", refuse)
        assert run(capsys, *argv) == (
            0, "holonomy group order: 6\nCHECK holonomy-equals-group-action: PASS\n", "")
    code, out, _ = run(capsys, *argv, "--exhaustive")
    assert code == 0
    assert out.endswith("CHECK holonomy-exhaustive-agrees: PASS\n")


@pytest.mark.parametrize("argv,message", [
    (["--sigma1", "1", "--sigma2", "2,3", "--base-point", "9,9,9,9"],
     "Sigma1 must be contained in Sigma2"),
    (["--sigma2", "2,3,9", "--base-point", "9"],
     "Sigma2 must consist of simple-root indices 1..3, not [2, 3, 9]"),
    (["--sigma2", "1,2,3", "--base-point", "9"], "bad base point '9'"),
    (["--sigma1", "2", "--sigma2", "2", "--base-point", "2,1,3,4", "--exhaustive"],
     "base too large for exhaustive cycle enumeration"),
], ids=["sigma-pair", "sigma-index", "base-point", "exhaustive-base"])
def test_holonomy_errors_come_in_order(capsys, argv, message):
    """The Sigma pair is checked first, then the base point, then the
    one-vertex base, and the cycle search refuses a large base last."""
    assert run(capsys, "holonomy", "--type", "A", "--rank", "3", *argv) == (
        2, "", f"error: {message}\n")


def test_holonomy_refuses_a_full_sigma2_before_any_coset_graph(capsys, monkeypatch):
    """A Sigma2 that holds every simple root is refused from the Sigma pair
    alone, before the 5,040-vertex typical fiber of A6 is built."""
    built = []
    coset_graph = parabolic.CosetGraph
    monkeypatch.setattr(parabolic, "CosetGraph",
                        lambda *args: built.append(args) or coset_graph(*args))
    assert run(capsys, "holonomy", "--type", "A", "--rank", "6", "--sigma2", "1,2,3,4,5,6") == (
        2, "", "error: Sigma2 contains every simple root, so the base is one vertex "
        "and has no loops\n")
    assert built == []


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
    recorded digest is that of the file, which pins the graph-file
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


def test_express_builds_no_whole_schubert_table(capsys, monkeypatch):
    """``express`` sums its target from a truncated walk: it prints the
    recorded stdout with ``SchubertTable`` unusable, and the root system
    keeps no table."""
    def refuse(self, rs):
        raise AssertionError("express built a whole Schubert table")
    monkeypatch.setattr(schubert.SchubertTable, "__init__", refuse)
    references = json.loads(
        (Path(__file__).parent.parent / "perfbench" / "references.json").read_text())
    code, out, _ = run(capsys, "express", "--type", "B", "--rank", "3")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == references[
        "express --type B --rank 3 --seed 0"]
    assert not hasattr(RootSystem("B", 3), "schubert_table_cache")


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


@pytest.mark.parametrize("argv,message", [
    (("--what", "class", "--index", "3,1", "--format", "dot"),
     "class export has no DOT format"),
    (("--index", "3,1"), "--index is read only with --what class, not graph"),
    (("--what", "bundle", "--sigma2", "2", "--index", "3,1"),
     "--index is read only with --what class, not bundle"),
    (("--what", "class", "--index", "1,0", "--sigma1", "1"),
     "class export reads neither --sigma1 nor --sigma2"),
    (("--what", "class", "--index", "1,0", "--sigma2", "1"),
     "class export reads neither --sigma1 nor --sigma2"),
])
def test_export_refuses_flags_it_would_ignore(capsys, argv, message):
    """``--what class`` has no DOT form and no Sigma flags, and only it
    reads --index; each such flag is a usage error, not silently dropped."""
    code, out, err = run(capsys, "export", "--type", "B", "--rank", "2", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_export_bundle_round_trip(tmp_path, capsys):
    from gkmflag.parabolic import bundle_from_json, build_bundle
    from oracles import bundle_to_json

    path = tmp_path / "b.json"
    code, _, _ = run(capsys, "export", "--type", "B", "--rank", "2",
                     "--what", "bundle", "--sigma2", "2", "--out", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    b = bundle_from_json(data)
    rs = RootSystem("B", 2)
    built = build_bundle(rs, frozenset(), frozenset({2}))
    assert bundle_to_json(b) == bundle_to_json(built) == data


def test_schubert_out_file_holds_the_stdout_bytes(capsys, tmp_path):
    path = tmp_path / "a3.tsv"
    code, out, _ = run(capsys, "schubert", "--type", "A", "--rank", "3")
    assert code == 0
    code, quiet, _ = run(capsys, "schubert", "--type", "A", "--rank", "3", "--out", str(path))
    assert code == 0 and quiet == ""
    assert path.read_bytes() == out.encode()


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


@pytest.mark.parametrize(
    "verb", ["build", "verify", "schubert", "table", "bundle", "holonomy", "export"])
def test_verbs_without_a_seed_refuse_the_seed_flag(capsys, verb):
    """Only ``express`` and ``basis`` accept --seed; the rest exit 2
    instead of ignoring it."""
    code, out, err = run(capsys, verb, "--type", "A", "--rank", "2", "--seed", "1")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --seed 1" in err
    assert "Traceback" not in err


def test_holonomy_one_vertex_base_is_usage_error(capsys):
    code, _, err = run(capsys, "holonomy", "--type", "A", "--rank", "2",
                       "--sigma2", "1,2")
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_memory_exhaustion_exits_2_without_traceback(capsys, monkeypatch):
    def exhaust(rs):
        raise MemoryError

    monkeypatch.setattr(invbases, "verify_basis", exhaust)
    code, out, err = run(capsys, "basis", "--type", "A", "--rank", "2")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory; try a smaller rank\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("module,writer,argv", [
    (gkmgraph, "graph_json_chunks", ("export", "--type", "A", "--rank", "2")),
    (parabolic, "bundle_json_chunks",
     ("export", "--what", "bundle", "--type", "A", "--rank", "2", "--sigma2", "2")),
    (schubert, "schubert_table_tsv", ("schubert", "--type", "A", "--rank", "2")),
    (schubert, "invariant_table_tsv", ("table", "--type", "A", "--rank", "2")),
], ids=["export-graph", "export-bundle", "schubert", "table"])
def test_out_file_is_removed_when_a_streamed_write_fails(capsys, monkeypatch, tmp_path,
                                                         module, writer, argv):
    """Chunks that run out of memory part way leave no truncated file."""
    def exhausted(*args):
        yield "{\n"
        raise MemoryError

    monkeypatch.setattr(module, writer, exhausted)
    path = tmp_path / "partial.out"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: out of memory; try a smaller rank\n"
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("export", "--type", "A", "--rank", "2"),
    ("export", "--what", "bundle", "--type", "A", "--rank", "2", "--sigma2", "2"),
    ("build", "--type", "A", "--rank", "2", "--out", "flag.json"),
    ("table", "--type", "A", "--rank", "2"),
], ids=["export-graph", "export-bundle", "build", "table"])
def test_graph_and_bundle_files_are_streamed(monkeypatch, capsys, argv):
    """The verbs hand the file, or the invariant-class table, over in
    chunks, never as one string."""
    handed = []
    monkeypatch.setattr(cli, "_write_out", lambda args, text: handed.append(text))
    assert run(capsys, *argv)[0] == 0
    assert len(handed) == 1 and not isinstance(handed[0], str)


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
