"""Self-tests of the benchmark at tiny sizes (plus one full-size step count).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src on the path)
from children import Cli, check_query  # noqa: E402
from layers import count_steps  # noqa: E402
from memlight import Text, build_suffix_structures  # noqa: E402
from oracle import Oracle, suffix_array  # noqa: E402
from workloads import GENERATORS  # noqa: E402

TINY = {
    "paper-binary": {"n": 3000, "m": 300},
    "dna-repeats": {"n": 16000, "m": 400, "reads": 3},
}


@pytest.fixture(autouse=True)
def work_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def tiny_inputs(workload, seed, tmp_path):
    return GENERATORS[workload](seed, tmp_path, **TINY[workload])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_prints_with_its_unit(workload, trace, capsys):
    out = run.run(workload, 3, 0.0, trace, **TINY[workload])
    listed = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        metric = out["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert np.isfinite(metric["value"])
    assert json.loads(json.dumps(out)) == out
    assert "# meta " in capsys.readouterr().out


def test_same_seed_gives_identical_inputs(tmp_path):
    for workload in TINY:
        sides = []
        for side in "ab":
            workdir = tmp_path / side / workload
            workdir.mkdir(parents=True)
            sides.append(tiny_inputs(workload, 5, workdir))
        assert sides[0].sha256 == sides[1].sha256
        assert sides[0].text == sides[1].text


@pytest.fixture()
def indexed(tmp_path):
    inputs = tiny_inputs("dna-repeats", 7, tmp_path)
    cli = Cli(run.ROOT, tmp_path)
    assert cli.index(inputs, tmp_path / "idx").returncode == 0
    return inputs, Oracle(inputs.text, inputs.patterns), cli


def test_a_shifted_row_fails(indexed, tmp_path):
    inputs, oracle, cli = indexed
    query = inputs.queries[0]
    child = cli.query(inputs, query, tmp_path / "idx")
    assert check_query(inputs, oracle, query, child)[1] == 0
    lines = child.out.decode().splitlines()
    fields = lines[0].split("\t")
    fields[1] = str(int(fields[1]) + 1)
    lines[0] = "\t".join(fields)
    child.out = ("\n".join(lines) + "\n").encode()
    assert check_query(inputs, oracle, query, child)[1] == 1


def test_a_child_exiting_non_zero_fails(indexed, tmp_path):
    inputs, oracle, cli = indexed
    query = inputs.queries[0]
    child = cli.query(inputs, query, tmp_path / "missing")
    assert child.returncode != 0
    assert check_query(inputs, oracle, query, child)[1] == len(inputs.patterns)


def test_oracle_suffix_array_matches_the_library():
    rng = np.random.default_rng(11)
    for sigma, n in [(1, 50), (2, 300), (4, 1000), (11, 500)]:
        codes = rng.integers(0, sigma, size=n, dtype=np.uint8)
        codes[:n // 3] = codes[n // 3 : 2 * (n // 3)]  # a long repeat
        text = Text.from_bytes(bytes(codes + 65))
        assert np.array_equal(suffix_array(text.data, text.alphabet.size),
                              build_suffix_structures(text).sa)


def test_paper_binary_seed_42_backward_steps(tmp_path):
    """154,978 (full scan) + 13,002 (L = 40) + 4,909 (lcs), at full size."""
    inputs = GENERATORS["paper-binary"](42, tmp_path)
    assert Cli(run.ROOT, tmp_path).index(inputs, tmp_path / "idx").returncode == 0
    assert count_steps(inputs, tmp_path / "idx") == 172_889
