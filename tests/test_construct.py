"""`mislab construct`: the construction table, required flags, size limits, fuzzing."""

from __future__ import annotations

import io
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mislab
from mislab import graph6_decode
from mislab.cli import CONSTRUCTIONS, main

# Each construction id and the flags it names when run with none.
NEEDED = {
    "comatching": "--n",
    "gadget": "--m",
    "tight-cycle": "--r --k",
    "blowup": "--spec",
    "theorem-a": "--k --t --m",
    "theorem-b": "--k --t --m",
    "hyper": "--r --k --n",
    "star-hyper": "--n",
    "dominating": "--t --n",
    "c4-leaves": None,
}


def _construct(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["construct", *argv])
    return code, out.getvalue(), err.getvalue()


def test_each_id_without_flags_names_its_flags():
    assert tuple(CONSTRUCTIONS) == tuple(NEEDED)
    for name, flags in NEEDED.items():
        code, out, err = _construct([name])
        if flags is None:
            assert code == 0 and out.strip(), name
        else:
            assert (code, out, err) == (2, "", f"error: construct {name} needs {flags}\n")


def test_gadget_packing_decides_whether_r_is_needed(tmp_path):
    code, _, err = _construct(["gadget", "--m", "3"])
    assert (code, err) == (2, "error: construct gadget needs --r\n")
    code, out, err = _construct(["gadget", "--m", "3", "--packing", "rs"])
    assert code == 0 and graph6_decode(out.strip()).n == 18
    trivial = _construct(["gadget", "--m", "3", "--r", "4", "--packing", "trivial"])
    assert trivial[0] == 0 and graph6_decode(trivial[1].strip()).n == 12
    assert _construct(["gadget", "--m", "3", "--r", "4"]) == trivial
    # rs packings are 3-partite: --r 3 changes nothing, any other --r is
    # refused with a message that names both flags.
    rs = _construct(["gadget", "--m", "3", "--packing", "rs"])
    assert _construct(["gadget", "--m", "3", "--packing", "rs", "--r", "3"]) == rs
    for r in ("7", "2"):
        code, out, err = _construct(["gadget", "--m", "2", "--packing", "rs", "--r", r])
        assert (code, out, err) == (2, "", f"error: --packing rs fixes r=3; drop --r {r}\n")
    # A blowup spec names no flag: its message speaks of the template's edges.
    spec = tmp_path / "spec.json"
    spec.write_text('{"template": {"n": 3, "edges": [[0, 1]]}, "sizes": [2], "gadget": "rs"}')
    code, out, err = _construct(["blowup", "--spec", str(spec)])
    assert (code, out, err) == (2, "", "error: rs gadgets need 3-uniform edges\n")


def test_clique_size_is_read_from_the_table():
    # A promised size: comatching is triangle-free; one named by a flag: --t.
    assert "K3-free=True" in _construct(["comatching", "--n", "6"])[2]
    assert "K4-free=True" in _construct(["theorem-a", "--k", "4", "--t", "4", "--m", "2"])[2]
    assert "K5-free=True" in _construct(["dominating", "--t", "5", "--n", "8"])[2]
    # Hypergraphs promise nothing and come out as JSON.
    code, out, err = _construct(["star-hyper", "--n", "5"])
    assert code == 0 and out.startswith("{") and "free" not in err


def _limit_memory() -> None:
    cap = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize(
    "argv, n",
    [
        (["comatching", "--n", "20000"], 20000),
        (["theorem-a", "--k", "4", "--t", "3", "--m", "5000"], 20000),
        (["gadget", "--r", "3", "--m", "300000"], 900000),
        (["hyper", "--r", "3", "--k", "3", "--n", "3000"], 3000),
        (["theorem-b", "--k", "40", "--t", "3", "--m", "60"], 144000),
    ],
)
def test_oversized_construction_exits_2_before_building(argv, n):
    _exits_2_before_building(argv, f"error: vertex count {n} outside [0, 128]")


def test_oversized_hypergraph_exits_2_before_building():
    # Within the vertex cap, but sum_i C(|P_i|, 2) * prod_j |P_{i+j}| edges of
    # 88 + 8 bytes each over parts 22, 22, 21, 21, 21, 21.
    _exits_2_before_building(
        ["hyper", "--r", "6", "--k", "6", "--n", "128"],
        "error: 269245053 edges need 24650 MiB, above the 256 MiB edge budget",
    )


def _exits_2_before_building(argv: list[str], error: str) -> None:
    # A separate process with a memory cap and a timeout, so that a generator
    # that builds before it checks fails this test instead of the machine.
    src = os.path.dirname(os.path.dirname(mislab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "mislab", "construct", *argv],
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_memory,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [error]


# Small sizes are drawn more often, so that many draws build something.
_SIZE = st.none() | st.integers(-2, 24) | st.integers(2, 6)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    name=st.sampled_from(tuple(CONSTRUCTIONS)),
    sizes=st.fixed_dictionaries({f: _SIZE for f in ("--n", "--k", "--t", "--m", "--r")}),
    packing=st.sampled_from((None, "trivial", "rs")),
)
def test_construct_fuzz_exits_with_documented_code(name, sizes, packing):
    argv = [name]
    for flag, value in sizes.items():
        if value is not None:
            argv += [flag, str(value)]
    if packing is not None:
        argv += ["--packing", packing]
    code, _, err = _construct(argv)
    assert code in {0, 2, 3, 4}, argv
    assert "Traceback" not in err
