"""The package's lazy exports, a query process that imports neither numpy nor
dataclasses, the value semantics of the records it uses instead, and the
one BLAS thread that `index` asks numpy for and the modules it skips."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import memlight
from memlight import Alphabet, BwtInterval, MemRecord, Pattern, Text
from memlight.cli import main
from memlight.fasta import FastaRecord

from conftest import DEMO_PATTERN, DEMO_TEXT

SRC = Path(memlight.__file__).resolve().parents[1]

# runs one CLI command, then fails if numpy or dataclasses was imported on the way
QUERY_CHILD = ("import sys\n"
               "from memlight.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "heavy = [name for name in ('numpy', 'dataclasses') if name in sys.modules]\n"
               "sys.exit(code or (f'{heavy} imported' if heavy else 0))\n")

# runs one CLI command through the console entry point, then prints which of
# memlight.lce and memlight.experiment it imported, and the value
# OPENBLAS_NUM_THREADS had when numpy was first imported
BLAS_CHILD = ("import os, sys\n"
              "seen = []\n"
              "class Spy:\n"
              "    def find_spec(self, name, path=None, target=None):\n"
              "        if name == 'numpy' and not seen:\n"
              "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
              "sys.meta_path.insert(0, Spy())\n"
              "from memlight.cli import entry\n"
              "try:\n"
              "    entry()\n"
              "finally:\n"
              "    print([m for m in ('memlight.lce', 'memlight.experiment') if m in sys.modules])\n"
              "    print(seen)\n")


def test_every_exported_name_resolves():
    for name in memlight.__all__:
        assert getattr(memlight, name) is not None
    with pytest.raises(AttributeError):
        memlight.count_occurrences


@pytest.mark.parametrize("command", [
    ["mems", "-L", "3", "--locate", "--intervals"],
    ["mems", "--all"],
    ["lcs"],
])
def test_query_commands_do_not_import_numpy(tmp_path, command):
    (tmp_path / "text.fa").write_bytes(b">t\n" + DEMO_TEXT + b"\n")
    (tmp_path / "reads.fa").write_bytes(b">p\n" + DEMO_PATTERN + b"N" + DEMO_PATTERN + b"\n")
    prefix = str(tmp_path / "idx")
    assert main(["index", str(tmp_path / "text.fa"), "-o", prefix, "--sample-rate", "4"]) == 0
    done = subprocess.run(
        [sys.executable, "-c", QUERY_CHILD, command[0], prefix,
         str(tmp_path / "reads.fa"), *command[1:]],
        capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert done.stderr == b""
    assert done.returncode == 0
    assert done.stdout.startswith(b"p\t")


def test_records_compare_by_value_hash_and_reject_assignment():
    alphabet = Alphabet(b"ACGT")
    interval = BwtInterval(2, 5)
    # (a record, an equal one built apart, a different one, a field)
    cases = [
        (alphabet, Alphabet(b"ACGT"), Alphabet(b"ACG"), "symbols"),
        (interval, BwtInterval(2, 5), BwtInterval(2, 6), "hi"),
        (MemRecord(1, 4, interval), MemRecord(1, 4, BwtInterval(2, 5)),
         MemRecord(1, 4), "length"),
        (FastaRecord("r", b"ACGT"), FastaRecord("r", b"ACGT"),
         FastaRecord("s", b"ACGT"), "sequence"),
    ]
    for record, same, other, field in cases:
        assert record == same
        assert hash(record) == hash(same)
        assert record != other
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(other, field))
        assert record == same
    with pytest.raises(AttributeError):
        Text.from_bytes(b"GATTACA").alphabet = alphabet
    with pytest.raises(AttributeError):
        Pattern(alphabet, b"\x01").code_bytes = b"\x00"


@pytest.mark.parametrize("user_value,expected", [(None, "1"), ("3", "3")])
def test_index_imports_numpy_with_one_blas_thread_unless_the_user_says(
        tmp_path, user_value, expected):
    # memlight calls no BLAS routine: OpenBLAS need not start a thread per core
    (tmp_path / "text.fa").write_bytes(b">t\n" + DEMO_TEXT + b"\n")
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if user_value is not None:
        env["OPENBLAS_NUM_THREADS"] = user_value
    done = subprocess.run(
        [sys.executable, "-c", BLAS_CHILD, "index", str(tmp_path / "text.fa"),
         "-o", str(tmp_path / "idx")],
        capture_output=True, env=env, timeout=60)
    assert done.stderr == b""
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == repr([expected]).encode()
    # a process compiles each module it imports unless its bytecode is cached,
    # so `index` leaves the LCE and experiment modules unimported
    assert done.stdout.splitlines()[-2] == b"[]"
