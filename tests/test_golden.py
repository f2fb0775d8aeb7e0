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
from equichern.gcw import builtin_examples, parse_gcw
from equichern.groups import FiniteGroup, format_group
from equichern.mackey import builtin_mackey, mackey_to_sub_module, nu_of_mackey

import oracles
from generators import direct_product, permutation_closure

GOLDEN = Path(__file__).parent / "golden"
COEFFS = ("constant", "burnside", "repring")
SPACES = (("dihedral_polygon", "d4"), ("reflection_circle", "z2"), ("s3_triangle", "s3"))
# test fixtures kept beside the goldens, not bundled, so `selftest` and `info`
# do not see them; free_wedge_s3 gives alpha a nonempty matrix in degree 1
FIXTURE_SPACES = (("free_wedge_s3", "s3"),)
MACKEY_GROUPS = ("s3", "d4", "q8", "a4", "z6", "z2", "z3", "z4", "z5", "z7", "z8", "s4")
# groups past the bundled corpus, kept beside the goldens as `.grp` fixtures
# built by tests/generators.py; S5 and S4xZ3 exceed the default --cap of 64
S4_GENS = [(1, 0, 2, 3), (1, 2, 3, 0)]
FIXTURE_GROUPS = {
    "a5": lambda: permutation_closure([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
    "s5": lambda: permutation_closure([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
    "s4xz3": lambda: direct_product(permutation_closure(S4_GENS), permutation_closure([(1, 2, 0)])),
}
NU_GROUPS = ("s3", "d4", "q8")
# chern of a point with repring coefficients: character values outside Q (a4)
# and a group past order 8 (s4)
REPRING_POINT_GROUPS = ("a4", "s4")


def _group_arg(group):
    return str(GOLDEN / f"{group}.grp")


def _fixture_group_text(group):
    return format_group(FiniteGroup(FIXTURE_GROUPS[group](), name=group))


def _space_arg(space):
    if space in dict(FIXTURE_SPACES):
        return str(GOLDEN / f"{space}.gcw")
    return space


def _space(space):
    group = dict(FIXTURE_SPACES).get(space)
    if group is None:
        return builtin_examples(space)
    return parse_gcw(Path(_space_arg(space)).read_text(encoding="utf-8"), bundled_group(group))


def _cases():
    cases = []
    for space, group in SPACES + FIXTURE_SPACES:
        for coeff in COEFFS:
            base = ["--group", group, "--space", _space_arg(space), "--coeff", coeff]
            cases.append((f"chern_{space}_{coeff}.txt", ["chern", *base]))
            cases.append((f"bredon_{space}_{coeff}.json", ["bredon", *base, "--format", "json"]))
    for group in MACKEY_GROUPS:
        for coeff in COEFFS:
            cases.append((f"mackey_{group}_{coeff}.txt", ["mackey", "--group", group, "--coeff", coeff]))
    for group in bundled_group_names():
        cases.append((f"info_{group}.txt", ["info", "--group", group]))
    cases.append(("mackey_a5_burnside.txt", ["mackey", "--group", _group_arg("a5"), "--coeff", "burnside"]))
    cases.append((
        "mackey_s5_burnside.txt",
        ["mackey", "--group", _group_arg("s5"), "--coeff", "burnside", "--cap", "128"],
    ))
    for group in REPRING_POINT_GROUPS:
        cases.append((
            f"chern_point_{group}_repring.txt",
            ["chern", "--group", group, "--space", "point", "--coeff", "repring"],
        ))
    cases.append((
        "chern_point_s4xz3_burnside.txt",
        ["chern", "--group", _group_arg("s4xz3"), "--space", "point", "--coeff", "burnside", "--cap", "128"],
    ))
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
    X = _space(space)
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
    for space, _group in SPACES + FIXTURE_SPACES:
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


@pytest.mark.parametrize("group", REPRING_POINT_GROUPS)
def test_repring_point_degree_zero_counts_conjugacy_classes(group):
    """H^0 of a point with repring coefficients is R(G) tensor Q, whose
    dimension is the number of conjugacy classes of G: 4 for A4, 5 for S4."""
    classes = len(oracles.brute_element_classes(bundled_group(group).table))
    assert classes == {"a4": 4, "s4": 5}[group]
    row = (GOLDEN / f"chern_point_{group}_repring.txt").read_text(encoding="utf-8").splitlines()[1]
    assert row == f"n=0 bredon={classes} chern-target={classes} ok"


@pytest.mark.parametrize("group", sorted(FIXTURE_GROUPS))
def test_group_fixture_is_generated(group):
    assert _fixture_group_text(group) == (GOLDEN / f"{group}.grp").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name,fn,args", LIBRARY_CASES, ids=[name for name, _, _ in LIBRARY_CASES]
)
def test_golden_matrices(name, fn, args):
    assert _library_output(fn, args) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for group in FIXTURE_GROUPS:
        (GOLDEN / f"{group}.grp").write_text(_fixture_group_text(group), encoding="utf-8")
    for name, argv in CASES:
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_text(out, encoding="utf-8")
    for name, fn, args in LIBRARY_CASES:
        (GOLDEN / name).write_text(_library_output(fn, args), encoding="utf-8")
