"""The package's lazy exports, and a query process that never imports numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import memlight
from memlight.cli import main

from conftest import DEMO_PATTERN, DEMO_TEXT

SRC = Path(memlight.__file__).resolve().parents[1]

# runs one CLI command, then fails if numpy was imported on the way
QUERY_CHILD = ("import sys\n"
               "from memlight.cli import main\n"
               "code = main(sys.argv[1:])\n"
               "sys.exit(code or ('numpy was imported' if 'numpy' in sys.modules else 0))\n")


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
