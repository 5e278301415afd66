"""Command-line behavior: outputs, exit codes, reproducibility."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mislab import Graph, graph6_decode, graph6_encode, count_k_mis, has_clique, star_hypergraph
from mislab.cli import main
from mislab.search import THEOREM_IDS
from naive import naive_hyper_count_k_mis, rec_calls


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
    for bad in ([2.9], ["3"], "23"):
        path.write_text(json.dumps({"template": {"n": 2, "edges": [[0, 1]]}, "sizes": bad}))
        code, out, err = run(["construct", "blowup", "--spec", str(path)], capsys)
        assert code == 2 and out == "" and err.startswith("error: bad blowup spec JSON")


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


def test_count_theorem_a_at_2_to_the_30(capsys, tmp_path):
    # 120 vertices and 2^30 sets of size 30: a walk that visits them one by
    # one would run for minutes, so its inner recursion is capped.
    path = tmp_path / "a.g6"
    argv = ["construct", "theorem-a", "--k", "30", "--t", "3", "--m", "4", "--out", str(path)]
    assert run(argv, capsys)[0] == 0
    (code, out, _), _ = rec_calls(lambda: run(["count", "--graph", str(path), "--k", "30"], capsys))
    assert code == 0 and out.strip() == "1073741824"


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


def test_count_refuses_flags_it_would_ignore(capsys, tmp_path):
    # --parts only feeds --transversal, and a transversal MIS has one vertex
    # per part, so neither is silently dropped.
    gpath = tmp_path / "p4.g6"
    gpath.write_bytes(graph6_encode(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])) + b"\n")
    ppath = tmp_path / "parts.json"
    ppath.write_text(json.dumps([[0, 2], [1, 3]]))
    graph, parts = ["count", "--graph", str(gpath)], ["--parts", str(ppath)]
    cases = [
        (graph + parts, "--parts needs --transversal"),
        (graph + ["--transversal"] + parts + ["--k", "3"],
         "--transversal takes one vertex per part; drop --k"),
    ]
    for argv, message in cases:
        assert run(argv, capsys) == (2, "", f"error: {message}\n"), argv
    assert run(graph + ["--transversal"] + parts, capsys)[:2] == (0, "1\n")  # {0, 3}


def test_construct_hypergraph_rejects_graph6_format(capsys):
    # Hypergraphs are edge-list JSON, which is not graph6; text keeps JSON.
    argv = ["construct", "hyper", "--r", "3", "--k", "3", "--n", "6"]
    assert run(argv + ["--format", "graph6"], capsys) == (
        2, "", "error: --format graph6 needs a graph; construct hyper gives JSON\n")
    code, out, _ = run(argv + ["--format", "text"], capsys)
    assert code == 0 and json.loads(out)["n"] == 6
    code, out, _ = run(["construct", "comatching", "--n", "6", "--format", "graph6"], capsys)
    assert code == 0 and graph6_decode(out.strip()).n == 6


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
    for extra in (["--transversal", "--parts", str(path)], ["--forbid-clique", "3"]):
        code, out, err = run(["count", "--graph", str(path)] + extra, capsys)
        assert code == 2 and out == "" and err.startswith("error: ")


def test_count_hypergraph_every_size(capsys, tmp_path):
    # Without --k a hypergraph is counted at every size, as a graph is.
    path = tmp_path / "star.json"
    for n in (4, 5, 8):
        code, _, _ = run(["construct", "star-hyper", "--n", str(n), "--out", str(path)], capsys)
        assert code == 0
        h = star_hypergraph(n)
        want = sum(naive_hyper_count_k_mis(h, k) for k in range(n + 1))
        code, out, _ = run(["count", "--graph", str(path)], capsys)
        assert code == 0 and out == f"{want}\n"
        code, out, _ = run(["count", "--graph", str(path), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["result"] == {"what": "hypergraph MIS count", "value": want}


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


def test_verify_rejects_a_bad_row_before_scanning_any(capsys, monkeypatch):
    # A row past the scan cap, or one whose closed form is undefined, fails
    # the whole range before the rows ahead of it are scanned: moon-moser
    # 5..9 would otherwise run the full n=8 census first.
    import mislab.search as search

    scans = []
    monkeypatch.setattr(search, "exhaustive_m", lambda spec, workers=1: scans.append(spec))
    cases = [
        ("5..9", "scan capped at n <= 8 for r=2, got 9"),
        ("1..3", "need n >= 2"),
    ]
    for n, message in cases:
        code, out, err = run(["verify", "--theorem", "moon-moser", "--n", n, "--threads", "1"],
                             capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), n
    assert scans == []


def test_search_hypergraph_mode(capsys):
    code, out, _ = run(
        ["search", "--n", "5", "--k", "2", "--t", "4", "--r", "3",
         "--threads", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 4


def test_search_hypergraph_all_sizes_and_cap(capsys):
    code, out, _ = run(
        ["search", "--n", "5", "--t", "4", "--r", "3", "--threads", "1", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["result"]["value"] == 7
    code, _, err = run(["search", "--n", "7", "--r", "3", "--threads", "1"], capsys)
    assert code == 2 and "capped" in err


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
        "--threads", "1", "--format", "json",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_reports_leave_the_worker_count_out(capsys, tmp_path):
    # Only search and verify run workers, and no report names their count,
    # so a report's bytes do not depend on the machine's cores.
    path = tmp_path / "g.g6"
    path.write_bytes(graph6_encode(Graph.cycle(5)) + b"\n")
    runs = {
        "construct": ["construct", "comatching", "--n", "6"],
        "count": ["count", "--graph", str(path), "--k", "2"],
        "search": ["search", "--n", "4", "--threads", "2"],
        "verify": ["verify", "--theorem", "m3n2", "--n", "3..4", "--threads", "2"],
    }
    for argv in runs.values():
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0, argv
        assert "threads" not in json.loads(out)["config"], argv
    for command in ("construct", "count"):
        try:
            main(runs[command] + ["--threads", "1"])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            raise AssertionError(f"{command} accepted --threads")
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


def test_import_and_count_do_not_load_numpy(tmp_path):
    # numpy serves only the exhaustive scan; importing the package and
    # counting a graph never load it.
    import mislab

    path = tmp_path / "g.g6"
    path.write_bytes(graph6_encode(Graph.cycle(7)) + b"\n")
    code = (
        "import sys, mislab\n"
        "from mislab import cli\n"
        f"assert cli.main(['count', '--graph', {str(path)!r}, '--k', '3']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
    )
    src = os.path.dirname(os.path.dirname(mislab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7\n"


def test_inputs_that_select_nothing_exit_2(capsys):
    cases = [
        (["verify", "--theorem", "moon-moser", "--n", "9..3"], "empty range '9..3'"),
        (["verify", "--theorem", "nielsen", "--n", "3", "--k", "9..2"], "empty range '9..2'"),
        (["verify", "--theorem", "nielsen", "--n", "3", "--k", "3..6"],
         "no nielsen row in the given ranges"),
        (["search", "--n", "4", "--witnesses", "--witness-cap", "-1"],
         "witness cap must be >= 1, got -1"),
        (["search", "--n", "4", "--witnesses", "--witness-cap", "0"],
         "witness cap must be >= 1, got 0"),
        (["verify", "--theorem", "nielsen", "--n", "..4", "--k", "2"],
         "--n: expected N or LO..HI, got '..4'"),
        (["verify", "--theorem", "nielsen", "--n", "4..x", "--k", "2"],
         "--n: expected N or LO..HI, got '4..x'"),
        (["verify", "--theorem", "nielsen", "--n", "3..4..5", "--k", "2"],
         "--n: expected N or LO..HI, got '3..4..5'"),
        (["verify", "--theorem", "nielsen", "--n", "5", "--k", "2.."],
         "--k: expected N or LO..HI, got '2..'"),
        (["verify", "--theorem", "mt-n1", "--n", "5", "--t", "three"],
         "--t: expected N or LO..HI, got 'three'"),
    ]
    for argv, message in cases:
        code, out, err = run(argv + ["--threads", "1"], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv
    # A one-value range and a cap left unused by a witness-free search still run.
    code, out, _ = run(["verify", "--theorem", "moon-moser", "--n", "4..4", "--threads", "1"],
                       capsys)
    assert (code, out) == (0, "n,computed,formula,match\n4,4,4,1\n")
    code, _, _ = run(["search", "--n", "4", "--witness-cap", "0", "--threads", "1"], capsys)
    assert code == 0


def test_search_r3_rejects_graph6_format(capsys):
    # 3-graph witnesses are edge-list JSON, which is not graph6.
    code, out, err = run(
        ["search", "--n", "4", "--r", "3", "--witnesses", "--format", "graph6", "--threads", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: --format graph6 needs --r 2; 3-graph witnesses are JSON\n"


def _count_forks(monkeypatch) -> list[int]:
    """Record the pid of every child that os.fork starts from now on."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_search_threads_are_capped_by_chunks_and_cpus(monkeypatch, capsys):
    # n=7 has 1024 chunks, 34 of them orbit-least (the graphs on vertices
    # 2..6) and 14 of those triangle-free: only those 14 are scanned for the
    # value.  A request for 100000 workers runs no more processes than those
    # chunks or the CPUs, the caller and one forked child per other process;
    # the result is the serial one.
    import mislab.search as search

    forks = _count_forks(monkeypatch)
    argv = ["search", "--n", "7", "--k", "2", "--t", "3", "--format", "json"]
    code, out, _ = run(argv + ["--threads", "1"], capsys)
    assert code == 0 and forks == []
    serial = json.loads(out)["result"]
    for cpus, want in ((1000, 14), (2, 2)):
        monkeypatch.setattr(search, "_cpu_count", lambda: cpus)
        forks.clear()
        code, out, _ = run(argv + ["--threads", "100000"], capsys)
        assert code == 0 and json.loads(out)["result"] == serial
        assert len(forks) == want - 1
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_verify_table_forks_per_multi_chunk_row(monkeypatch, capsys):
    # nielsen at n=7 has five rows of 34 orbit-least chunks each: with 2
    # threads each row forks one child.  m3n2 up to n=6 scans one chunk per
    # row: no fork.
    import mislab.search as search

    monkeypatch.setattr(search, "_cpu_count", lambda: 1000)
    forks = _count_forks(monkeypatch)
    argv = ["verify", "--theorem", "nielsen", "--n", "7", "--k", "2..6", "--format", "json"]
    code, out, _ = run(argv + ["--threads", "1"], capsys)
    assert code == 0 and forks == []
    serial = json.loads(out)["result"]["rows"]
    assert len(serial) == 5
    code, out, _ = run(argv + ["--threads", "2"], capsys)
    assert code == 0 and json.loads(out)["result"]["rows"] == serial
    assert len(forks) == 5
    code, _, _ = run(["verify", "--theorem", "m3n2", "--n", "3..6", "--threads", "2"], capsys)
    assert code == 0 and len(forks) == 5
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_threads_default_to_the_cpus_this_process_may_use(monkeypatch):
    import mislab.search as search
    from mislab.cli import build_parser

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert search._cpu_count() == 3
    assert build_parser().parse_args(["search", "--n", "4"]).threads == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert search._cpu_count() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert build_parser().parse_args(["verify", "--theorem", "m3n2", "--n", "4"]).threads == 1


REPORTS = [
    ["search", "--n", "8", "--k", "2", "--t", "3", "--witnesses"],
    ["search", "--n", "7", "--k", "0", "--witnesses", "--witness-cap", "200"],
    ["search", "--n", "6", "--k", "2", "--t", "4", "--r", "3", "--witnesses"],
    ["search", "--n", "8", "--k", "8", "--witnesses", "--witness-cap", "1"],
    ["verify", "--theorem", "moon-moser", "--n", "2..7"],
    ["verify", "--theorem", "hujter-tuza", "--n", "4..7"],
    ["verify", "--theorem", "nielsen", "--n", "3..7", "--k", "2..6"],
    ["verify", "--theorem", "m3n2", "--n", "3..7"],
    ["verify", "--theorem", "mt-n1", "--t", "3..5", "--n", "1..7"],
    ["verify", "--theorem", "hyper-m432", "--n", "4..6"],
] + [["search", "--n", "6", "--k", str(k), "--t", "4", "--r", "3"] for k in range(1, 7)]


def test_reports_are_byte_identical_for_1_2_and_3_threads(monkeypatch, capsys):
    import mislab.search as search

    monkeypatch.setattr(search, "_cpu_count", lambda: 3)
    for argv in REPORTS:
        outs = {run(argv + ["--format", "json", "--threads", t], capsys) for t in "123"}
        assert len(outs) == 1, argv
        code, _, err = outs.pop()
        assert (code, err) == (0, ""), argv


def test_worker_counts_below_one_exit_2(capsys):
    runs = (
        ["search", "--n", "5", "--k", "2"],
        ["search", "--n", "7", "--k", "2"],
        ["verify", "--theorem", "m3n2", "--n", "3..4"],
        ["verify", "--theorem", "nielsen", "--n", "7", "--k", "2..3"],
    )
    for argv in runs:
        for threads in ("0", "-3"):
            code, out, err = run(argv + ["--threads", threads], capsys)
            assert (code, out) == (2, ""), argv
            assert err == f"error: worker count must be >= 1, got {threads}\n", argv


def _main_quietly(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process run; argparse errors exit 2."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv + ["--threads", "1"])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# Sizes up to 6 scan quickly; 7 stands for the first capped size, 9 for graphs
# and 7 for 3-graphs.  Valid k and t are drawn more often, so that many
# draws scan.  A witness cap is always given and stays small, so that no draw
# canonicalises thousands of witnesses.
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(-1, 7),
    k=st.none() | st.integers(0, 6) | st.integers(-1, 7),
    t=st.none() | st.integers(4, 7) | st.integers(-1, 7),
    r=st.sampled_from((2, 3)),
    witnesses=st.booleans(),
    cap=st.integers(-1, 3),
    fmt=st.sampled_from(("json", "csv", "graph6")),
)
def test_search_fuzz_exits_with_documented_code(n, k, t, r, witnesses, cap, fmt):
    argv = ["search", "--n", str({2: 9, 3: 7}[r] if n == 7 else n), "--r", str(r)]
    argv += ["--witness-cap", str(cap), "--format", fmt]
    for flag, value in (("--k", k), ("--t", t)):
        if value is not None:
            argv += [flag, str(value)]
    if witnesses:
        argv.append("--witnesses")
    code, err = _main_quietly(argv)
    assert code in {0, 2, 3, 4}, argv
    assert "Traceback" not in err


# Range ends up to 7; 9, the first size the graph scan refuses, alone (a range
# through 8 would run the full census); and some malformed ranges.
_END = st.integers(-1, 7)
_RANGE = st.one_of(
    st.tuples(_END, _END).map(lambda ends: f"{min(ends)}..{max(ends)}"),
    st.tuples(_END, _END).map(lambda ends: f"{ends[0]}..{ends[1]}"),
    _END.map(str),
    st.sampled_from(("9", "9..9", "", "x", "3..", "..4", "2..3..4")),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    theorem=st.sampled_from(THEOREM_IDS),
    n=_RANGE,
    k=st.none() | _RANGE,
    t=st.none() | _RANGE,
    fmt=st.sampled_from(("csv", "json")),
)
def test_verify_fuzz_exits_with_documented_code(theorem, n, k, t, fmt):
    # --flag=value, so that a range like -1..3 reaches the range parser.
    argv = ["verify", "--theorem", theorem, f"--n={n}", "--format", fmt]
    argv += [f"{flag}={value}" for flag, value in (("--k", k), ("--t", t)) if value is not None]
    code, err = _main_quietly(argv)
    assert code in {0, 2, 3, 4}, argv
    assert "Traceback" not in err
