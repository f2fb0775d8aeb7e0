"""Byte-for-byte golden reports for the bundled corpus.

Each CLI case runs `equichern.cli.main` in process and compares its stdout
with a file under `tests/golden/`.  Each library case writes, one matrix
after another, the exact output of a routine no report prints: the
components of nu(M), the Kronecker pairing alpha and the (co)induced
modules.  The files pin canonical bases, verdicts and check counts, so
arithmetic refactors must leave them unchanged.

To write the files afresh (only when a report change is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from equichern.bredon import alpha_map
from equichern.cli import main
from equichern.data import bundled_group, bundled_group_names
from equichern.eicat import Coinduction, Induction
from equichern.gcw import builtin_examples
from equichern.mackey import builtin_mackey, mackey_to_sub_module, nu_of_mackey

GOLDEN = Path(__file__).parent / "golden"
COEFFS = ("constant", "burnside", "repring")
SPACES = (("dihedral_polygon", "d4"), ("reflection_circle", "z2"), ("s3_triangle", "s3"))
MACKEY_GROUPS = ("s3", "d4", "q8", "a4", "z6", "z2", "z3", "z4", "z5", "z7", "z8", "s4")
NU_GROUPS = ("s3", "d4", "q8")


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
    for group in bundled_group_names():
        cases.append((f"info_{group}.txt", ["info", "--group", group]))
    return cases


CASES = _cases()


def _matrix_lines(label, m):
    return [f"{label} {m.rows}x{m.cols}"] + [" ".join(str(x) for x in row) for row in m.data]


def _nu_text(group, coeff):
    nu = nu_of_mackey(builtin_mackey(coeff, bundled_group(group)))
    lines = []
    for x, comp in enumerate(nu.map.components):
        lines += _matrix_lines(f"component {x}", comp)
    return lines


def _alpha_text(space, coeff):
    X = builtin_examples(space)
    M = builtin_mackey(coeff, X.group)
    lines = []
    for p in range(X.dim + 1):
        lines += _matrix_lines(f"p={p}", alpha_map(X, M, p).matrix)
    return lines


def _induced_text(group):
    """i(c)_* V and i(c)_! V for V the aut(c)-action on the Burnside module."""
    M = mackey_to_sub_module(builtin_mackey("burnside", bundled_group(group)))
    cat = M.cat
    lines = []
    for c in range(len(cat.objects)):
        V = M.action_at(c)
        for kind, built in (("ind", Induction(cat, c, V)), ("coind", Coinduction(cat, c, V))):
            for f in cat.all_mors():
                lines += _matrix_lines(f"{kind} c={c} {f.src}->{f.dst} rep={f.rep}", built.module.maps[f])
    return lines


def _library_cases():
    cases = []
    for group in NU_GROUPS:
        for coeff in COEFFS:
            cases.append((f"nu_{group}_{coeff}.txt", _nu_text, (group, coeff)))
    for space, _group in SPACES:
        for coeff in COEFFS:
            cases.append((f"alpha_{space}_{coeff}.txt", _alpha_text, (space, coeff)))
    for group in NU_GROUPS:
        cases.append((f"induced_{group}_burnside.txt", _induced_text, (group,)))
    return cases


LIBRARY_CASES = _library_cases()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _library_output(fn, args):
    return "\n".join(fn(*args)) + "\n"


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_golden_report(name, argv):
    code, out = _run(argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name,fn,args", LIBRARY_CASES, ids=[name for name, _, _ in LIBRARY_CASES]
)
def test_golden_matrices(name, fn, args):
    assert _library_output(fn, args) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES:
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
    for name, fn, args in LIBRARY_CASES:
        (GOLDEN / name).write_text(_library_output(fn, args), encoding="utf-8")
