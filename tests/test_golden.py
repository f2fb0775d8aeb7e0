"""Byte-for-byte golden reports for the bundled corpus.

Each case runs `equichern.cli.main` in process and compares its stdout with a
file under `tests/golden/`.  The files pin canonical bases, verdicts and check
counts, so arithmetic refactors must leave them unchanged.

To write the files afresh (only when a report change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from equichern.cli import main

GOLDEN = Path(__file__).parent / "golden"
COEFFS = ("constant", "burnside", "repring")
SPACES = (("dihedral_polygon", "d4"), ("reflection_circle", "z2"), ("s3_triangle", "s3"))
MACKEY_GROUPS = ("s3", "d4", "q8", "a4", "z6")


def _cases():
    cases = []
    for space, group in SPACES:
        for coeff in COEFFS:
            base = ["--group", group, "--space", space, "--coeff", coeff]
            cases.append((f"chern_{space}_{coeff}.txt", ["chern", *base]))
            cases.append((f"bredon_{space}_{coeff}.json", ["bredon", *base, "--format", "json"]))
    for group in MACKEY_GROUPS:
        for coeff in COEFFS:
            cases.append((f"mackey_{group}_{coeff}.txt", ["mackey", "--group", group, "--coeff", coeff]))
    return cases


CASES = _cases()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_report(name, argv):
    code, out = _run(argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
