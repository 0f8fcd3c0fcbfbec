"""Byte-for-byte CLI reports for a fixed list of small-field invocations.

Each case stores the exit code and the stdout JSON of one ``ellnmds``
invocation.

Re-record (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from ellnmds.cli import main

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens", "cli.json")
MATRIX_TEXT = "7 3 6\n1 0 0 1 2 3\n0 1 0 4 5 6\n0 0 1 1 1 2\n"

CASES = [
    ["nq1", "--q", "13"],
    ["curve-scan", "--q", "7", "--j-nonzero", "--max", "12"],
    ["build", "--q", "7", "--curve", "0,0,0,5,1", "--k", "4"],
    ["classify", "--q", "11", "--curve", "0,0,0,1,3", "--k", "4"],
    ["classify", "--matrix", "{matrix}"],
    ["arc", "--q", "13", "--curve", "0,0,0,2,5", "--k", "4", "--complete"],
    ["trisecants", "--q", "13", "--curve", "0,0,0,2,5"],
    ["trisecants", "--q", "13", "--curve", "0,0,0,2,5", "--point", "1,0,1"],
    ["verify", "--q", "9", "--curve", "0,0,0,1,2", "--k", "3", "--force"],
    ["verify", "--q", "13", "--curve", "0,0,0,2,5", "--k", "4", "--force"],
    ["verify", "--q", "13", "--curve", "0,0,0,2,5", "--k", "4", "--force", "--budget", "100000"],
    ["verify", "--q", "11", "--curve", "0,0,0,1,4", "--k", "5", "--force", "--sample", "200"],
    ["verify", "--q", "11", "--curve", "0,0,0,1,4", "--k", "5", "--force", "--sample", "200",
     "--budget", "160000"],
    ["verify", "--q", "11", "--curve", "0,0,0,1,4", "--k", "5", "--force", "--sample", "200",
     "--budget", "20000"],
    ["verify", "--q", "9", "--curve", "0,0,0,4,1", "--k", "5", "--force", "--sample", "200"],
    ["verify", "--q", "11", "--curve", "0,0,0,1,3", "--k", "6", "--force", "--sample", "200"],
    ["verify", "--q", "7", "--curve", "0,0,0,1,4", "--k", "6", "--force", "--sample", "200"],
    ["oracle", "--q", "7", "--curve", "0,0,0,5,1", "--k", "3", "--h", "1"],
]


def run_normalized(argv, matrix_path):
    """Exit code and stdout of one invocation."""
    argv = [matrix_path if a == "{matrix}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _matrix_file(directory):
    path = os.path.join(directory, "code.txt")
    with open(path, "w") as fh:
        fh.write(MATRIX_TEXT)
    return path


def _load_goldens():
    with open(GOLDENS) as fh:
        return {" ".join(g["argv"]): g for g in json.load(fh)}


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(c) for c in CASES])
def test_cli_output_matches_golden(argv, tmp_path):
    golden = _load_goldens()[" ".join(argv)]
    code, stdout = run_normalized(argv, _matrix_file(str(tmp_path)))
    assert code == golden["exit"]
    assert stdout == golden["stdout"]


def test_goldens_cover_every_case():
    assert set(_load_goldens()) == {" ".join(c) for c in CASES}


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        matrix = _matrix_file(tmp)
        goldens = []
        for argv in CASES:
            code, stdout = run_normalized(argv, matrix)
            goldens.append({"argv": argv, "exit": code, "stdout": stdout})
    os.makedirs(os.path.dirname(GOLDENS), exist_ok=True)
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(record())
