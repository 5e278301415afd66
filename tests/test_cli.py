"""Command-line behavior: outputs, exit codes, reproducibility."""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from mislab import Graph, graph6_decode, graph6_encode, count_k_mis, has_clique
from mislab.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_comatching(capsys, tmp_path):
    code, out, err = run(["construct", "comatching", "--n", "8"], capsys)
    assert code == 0
    g = graph6_decode(out.strip())
    assert g.n == 8 and count_k_mis(g, 2) == 4
    assert "K3-free=True" in err


def test_construct_theorem_b(capsys):
    code, out, _ = run(
        ["construct", "theorem-b", "--t", "3", "--k", "5", "--m", "2"], capsys
    )
    assert code == 0
    g = graph6_decode(out.strip())
    assert g.n == 20 and not has_clique(g, 3)
    assert count_k_mis(g, 5) >= 32


def test_construct_theorem_b_beyond_62_vertices(capsys, tmp_path):
    path = tmp_path / "b.g6"
    code, _, err = run(
        ["construct", "theorem-b", "--t", "3", "--k", "5", "--m", "4", "--out", str(path)],
        capsys,
    )
    assert code == 0 and "n=80" in err
    g = graph6_decode(path.read_bytes())
    assert g.n == 80 and not has_clique(g, 3)
    code, out, _ = run(["count", "--graph", str(path), "--k", "5"], capsys)
    assert code == 0 and int(out) == count_k_mis(g, 5)


def test_count_graph6_above_max_vertices_exits_2(capsys, tmp_path):
    path = tmp_path / "big.g6"
    path.write_bytes(b"~?A@" + b"?" * ((129 * 128 // 2 + 5) // 6) + b"\n")
    code, out, err = run(["count", "--graph", str(path)], capsys)
    assert code == 2 and out == ""
    assert "129" in err and "Traceback" not in err


def test_construct_blowup_from_spec_file(capsys, tmp_path):
    spec = {
        "template": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
        "sizes": [2, 2, 2, 2, 2],
        "gadget": "comatching",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(["construct", "blowup", "--spec", str(path)], capsys)
    assert code == 0
    assert graph6_decode(out.strip()).n == 20


def test_construct_json_report(capsys):
    code, out, _ = run(
        ["construct", "comatching", "--n", "6", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["clique_free"] is True
    assert graph6_decode(doc["result"]["data"]).n == 6


def test_construct_missing_params_exits_2(capsys):
    code, _, err = run(["construct", "comatching"], capsys)
    assert code == 2 and "needs" in err


def test_construct_all_names_smoke(capsys):
    cases = [
        ["construct", "gadget", "--r", "3", "--m", "2"],
        ["construct", "gadget", "--packing", "rs", "--m", "3"],
        ["construct", "tight-cycle", "--r", "3", "--k", "6"],
        ["construct", "theorem-a", "--k", "4", "--t", "4", "--m", "2"],
        ["construct", "hyper", "--r", "3", "--k", "3", "--n", "6"],
        ["construct", "star-hyper", "--n", "5"],
        ["construct", "dominating", "--t", "5", "--n", "8"],
        ["construct", "c4-leaves"],
    ]
    for argv in cases:
        code, out, _ = run(argv, capsys)
        assert code == 0, argv
        assert out.strip(), argv


def test_count_command(capsys, tmp_path):
    path = tmp_path / "g.g6"
    code, _, _ = run(["construct", "comatching", "--n", "8", "--out", str(path)], capsys)
    assert code == 0
    code, out, _ = run(["count", "--graph", str(path), "--k", "2"], capsys)
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(["count", "--graph", str(path)], capsys)
    assert code == 0 and out.strip() == "6"


def test_count_transversal(capsys, tmp_path):
    gpath = tmp_path / "g.g6"
    run(["construct", "comatching", "--n", "8", "--out", str(gpath)], capsys)
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0, 1, 2, 3], [4, 5, 6, 7]]))
    code, out, _ = run(
        ["count", "--graph", str(gpath), "--transversal", "--parts", str(ppath)],
        capsys,
    )
    assert code == 0 and out.strip() == "4"


def test_count_transversal_malformed_parts_exits_2(capsys, tmp_path):
    gpath = tmp_path / "g.g6"
    run(["construct", "comatching", "--n", "8", "--out", str(gpath)], capsys)
    ppath = tmp_path / "parts.json"
    for blob in ("5", '[[0,"a"],[1]]'):
        ppath.write_text(blob)
        code, _, err = run(
            ["count", "--graph", str(gpath), "--transversal", "--parts", str(ppath)],
            capsys,
        )
        assert code == 2, blob
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, blob


def test_count_forbid_clique_violation_exits_3(capsys, tmp_path):
    path = tmp_path / "k3.g6"
    path.write_bytes(graph6_encode(Graph.complete(3)) + b"\n")
    code, _, err = run(
        ["count", "--graph", str(path), "--forbid-clique", "3"], capsys
    )
    assert code == 3 and "K_3" in err
    code, out, _ = run(["count", "--graph", str(path), "--forbid-clique", "4"], capsys)
    assert code == 0 and out.strip() == "3"


def test_count_hypergraph_json(capsys, tmp_path):
    path = tmp_path / "star.json"
    code, _, _ = run(["construct", "star-hyper", "--n", "6", "--out", str(path)], capsys)
    assert code == 0
    code, out, _ = run(["count", "--graph", str(path), "--k", "2"], capsys)
    assert code == 0 and out.strip() == "5"
    code, _, err = run(["count", "--graph", str(path)], capsys)
    assert code == 2 and "--k" in err


def test_count_bad_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("\x01\x02\n")
    code, _, _ = run(["count", "--graph", str(path)], capsys)
    assert code == 2
    code, _, _ = run(["count", "--graph", str(tmp_path / "missing.g6")], capsys)
    assert code == 2


def test_count_json_array_names_json(capsys, tmp_path):
    # A JSON array used to be read as graph6 ("malformed graph6 byte 48").
    path = tmp_path / "edges.json"
    for text in ("[[0,1],[1,2]]", json.dumps([[0, 1], [1, 2]], indent=1)):
        path.write_text(text)
        code, out, err = run(["count", "--graph", str(path)], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "JSON" in err and "graph6" not in err and "Traceback" not in err


def test_count_graph6_starting_like_json(capsys, tmp_path):
    # The graph6 size byte is '[' for n=28 and '{' for n=60.
    path = tmp_path / "g.g6"
    for n in (28, 60):
        data = graph6_encode(Graph.empty(n))
        assert data[:1] in (b"[", b"{")
        path.write_bytes(data + b"\n")
        code, out, _ = run(["count", "--graph", str(path), "--k", str(n)], capsys)
        assert code == 0 and out.strip() == "1"


def test_count_non_integer_hypergraph_json_exits_2(capsys, tmp_path):
    # Truncating 4.9 to 4 and 1.5 to 1 used to count a different hypergraph.
    path = tmp_path / "bad.json"
    for doc in ({"n": 4.9, "edges": [[0, 1.5, 2]]}, {"n": "4", "edges": [[0, 1]]}):
        path.write_text(json.dumps(doc))
        code, out, err = run(["count", "--graph", str(path), "--k", "2"], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
    path.write_text(json.dumps({"n": 3, "edges": [[False, True, 2]]}))
    code, out, _ = run(["count", "--graph", str(path), "--k", "2"], capsys)
    assert code == 0 and out.strip() == "3"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
)
_VERTEX = st.integers(-1, 12) | st.booleans() | st.floats(-1, 12)
_EDGES = st.lists(st.lists(_VERTEX, min_size=1, max_size=4, unique=True), max_size=8)
_VALID_EDGES = st.lists(
    st.lists(st.integers(0, 9), min_size=2, max_size=4, unique=True), max_size=8
)
# Arbitrary JSON, hypergraph-shaped documents with missing keys or bad values,
# and documents that are mostly valid, so the counting path runs too.
_DOCS = (
    _JSON
    | st.fixed_dictionaries(
        {}, optional={"n": st.integers(0, 10) | _JSON, "edges": _EDGES | _JSON}
    )
    | st.fixed_dictionaries({"n": st.just(10), "edges": _VALID_EDGES})
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(doc=_DOCS, k=st.integers(-2, 12))
def test_count_fuzzed_json_exits_with_documented_code(doc, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["count", "--graph", path, "--k", str(k)])
    assert code in {0, 2, 3, 4}
    assert "Traceback" not in err.getvalue()


def test_search_json_and_witnesses(capsys):
    code, out, _ = run(
        ["search", "--n", "6", "--k", "2", "--t", "3", "--witnesses",
         "--threads", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == 3
    assert len(doc["result"]["witnesses"]) >= 2
    assert doc["version"]


def test_search_cap_exceeded_exits_2(capsys):
    code, _, err = run(["search", "--n", "9", "--threads", "1"], capsys)
    assert code == 2 and "capped" in err


def test_verify_table_and_exit(capsys):
    code, out, _ = run(
        ["verify", "--theorem", "nielsen", "--n", "4..6", "--k", "2..3",
         "--threads", "1"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,computed,formula,match"
    assert all(line.endswith(",1") for line in lines[1:])
    code, out, _ = run(
        ["verify", "--theorem", "hyper-m432", "--n", "4..5", "--threads", "1"],
        capsys,
    )
    assert code == 0


def test_search_hypergraph_mode(capsys):
    code, out, _ = run(
        ["search", "--n", "5", "--k", "2", "--t", "4", "--r", "3",
         "--threads", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 4


def test_search_csv_format(capsys):
    code, out, _ = run(
        ["search", "--n", "5", "--k", "2", "--t", "3", "--threads", "1",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    header, row = out.strip().splitlines()[:2]
    assert header == "n,k,t,r,value,graphs_scanned,truncated"
    assert row.startswith("5,2,3,2,5,")


def test_verify_json_format(capsys):
    code, out, _ = run(
        ["verify", "--theorem", "m3n2", "--n", "3..6", "--threads", "1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["all_match"] is True
    assert len(doc["result"]["rows"]) == 4


def test_reports_are_byte_identical(capsys, tmp_path):
    argv = [
        "search", "--n", "5", "--k", "2", "--t", "3", "--witnesses",
        "--threads", "1", "--seed", "0", "--format", "json",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_thread_default_env_fallback(monkeypatch):
    from mislab.cli import _default_threads

    monkeypatch.setenv("MIS_LAB_THREADS", "3")
    assert _default_threads() == 3
    monkeypatch.setenv("MIS_LAB_THREADS", "junk")
    assert _default_threads() >= 1
    monkeypatch.delenv("MIS_LAB_THREADS")
    assert _default_threads() >= 1
