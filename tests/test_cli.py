from __future__ import annotations

import json

import pytest

from equichern.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_s3(capsys):
    code, out, _ = run(capsys, "info", "--group", "s3")
    assert code == 0
    assert "group s3 order 6" in out
    assert out.count("class ") == 4
    assert "|W|=2" in out  # the C3 class


def test_info_double_cosets(capsys):
    code, out, _ = run(
        capsys, "info", "--group", "s3", "--double-cosets", "{0,3,4}", "{0,3,4}"
    )
    assert code == 0
    assert "2 cells" in out


def test_info_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "info", "--group", "d4", "--format", "json")
    code2, out2, _ = run(capsys, "info", "--group", "d4", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    blob = json.loads(out1)
    assert blob["order"] == 8
    assert len(blob["classes"]) == 8


def test_info_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("group g\norder 2\n0 1\n1 1\n")
    code, _out, err = run(capsys, "info", "--group", str(bad))
    assert code == 2
    assert "error" in err

    # syntax errors carry line numbers
    bad2 = tmp_path / "bad2.grp"
    bad2.write_text("group g\norder 2\n0 x\n1 0\n")
    code2, _out, err2 = run(capsys, "info", "--group", str(bad2))
    assert code2 == 2
    assert "line 3" in err2


def test_info_cap_exceeded(capsys):
    code, _out, err = run(capsys, "info", "--group", "s4", "--cap", "8")
    assert code == 2
    assert "cap" in err


def _z67_file(tmp_path):
    """Z/67 (order 67, two subgroups) as a group file."""
    from equichern.groups import FiniteGroup, format_group

    path = tmp_path / "z67.grp"
    table = [[(a + b) % 67 for b in range(67)] for a in range(67)]
    path.write_text(format_group(FiniteGroup(table, name="z67")))
    return str(path)


def test_cap_is_one_guard_in_the_cli(tmp_path, capsys):
    group = _z67_file(tmp_path)
    point = ["--space", "point", "--coeff", "burnside"]
    code, out, err = run(capsys, "chern", "--group", group, *point)
    assert (code, out) == (2, "")
    assert "exceeds --cap 64" in err
    # a raised cap reaches the library, which has no cap of its own
    code, out, err = run(capsys, "chern", "--group", group, "--cap", "128", *point)
    assert (code, err) == (0, "")
    assert "n=0 bredon=2 chern-target=2 ok" in out
    code, out, err = run(capsys, "mackey", "--group", group, "--cap", "128", "--coeff", "burnside")
    assert (code, err) == (0, "")
    assert "pass" in out


def test_mackey_validate(capsys):
    code, out, _ = run(capsys, "mackey", "--group", "s3", "--coeff", "repring")
    assert code == 0
    assert "pass" in out
    code2, out2, _ = run(capsys, "mackey", "--group", "d4", "--coeff", "burnside")
    assert code2 == 0


def test_mackey_file_round_trip(tmp_path, capsys):
    from equichern.data import bundled_group
    from equichern.mackey import constant_mackey, format_mackey

    text = format_mackey(constant_mackey(bundled_group("s3")))
    path = tmp_path / "const.mky"
    path.write_text(text)
    code, out, _ = run(capsys, "mackey", "--group", "s3", "--coeff", f"file:{path}")
    assert code == 0
    assert "pass" in out


def test_bredon_reflection_circle(capsys):
    code, out, _ = run(
        capsys,
        "bredon",
        "--group", "z2",
        "--space", "reflection_circle",
        "--coeff", "repring",
        "--n-range", "0..1",
    )
    assert code == 0
    assert "total n=0 dim=3" in out
    assert "total n=1 dim=0" in out


def test_bredon_orbit(capsys):
    code, out, _ = run(
        capsys,
        "bredon",
        "--group", "s3",
        "--space", "orbit:{0,3,4}",
        "--coeff", "repring",
        "--n-range", "0..1",
    )
    assert code == 0
    assert "total n=0 dim=3" in out


def test_bredon_point_constant(capsys):
    code, out, _ = run(
        capsys,
        "bredon",
        "--group", "z4",
        "--space", "point",
        "--coeff", "constant",
        "--n-range", "0..0",
    )
    assert code == 0
    assert "total n=0 dim=1" in out


def test_chern_agree(capsys):
    code, out, _ = run(
        capsys,
        "chern",
        "--group", "z2",
        "--space", "reflection_circle",
        "--coeff", "repring",
        "--n-range", "0..1",
    )
    assert code == 0
    assert "n=0 bredon=3 chern-target=3 ok" in out


def test_chern_s3_triangle_burnside(capsys):
    code, out, _ = run(
        capsys,
        "chern",
        "--group", "s3",
        "--space", "s3_triangle",
        "--coeff", "burnside",
        "--n-range", "0..1",
    )
    assert code == 0
    assert "ok" in out


def test_chern_injected_fault(capsys):
    code, out, _ = run(
        capsys,
        "chern",
        "--group", "z2",
        "--space", "reflection_circle",
        "--coeff", "repring",
        "--n-range", "0..1",
        "--inject-fault",
    )
    assert code == 1
    assert "MISMATCH" in out
    # the Bredon side is not split by subgroup class; the header says so
    assert "-- left breakdown (Bredon side per (n, p, q) only, not per class) --" in out
    assert "-- right breakdown --" in out
    # the fault is in the Bredon report itself, so the row and the left
    # breakdown agree: its last entry and its total at n=1 both carry it
    assert "n=1 bredon=1 chern-target=0 MISMATCH" in out
    left = out.split("-- left breakdown")[1].split("-- right breakdown --")[0]
    assert "n=1 p=1 q=0 class=- dim=1" in left
    assert "total n=1 dim=1" in left


def test_chern_json(capsys):
    code, out, _ = run(
        capsys,
        "chern",
        "--group", "z2",
        "--space", "reflection_circle",
        "--coeff", "repring",
        "--n-range", "0..1",
        "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["passed"] is True
    assert blob["rows"][0] == {"n": 0, "bredon": 3, "chern_target": 3, "ok": True}


def test_byte_identical_reports(capsys):
    args = (
        "chern",
        "--group", "s3",
        "--space", "s3_triangle",
        "--coeff", "repring",
        "--n-range", "0..1",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_space_from_file(tmp_path, capsys):
    from tests_disk_text import DISK_TEXT  # local helper below

    path = tmp_path / "disk.gcw"
    path.write_text(DISK_TEXT)
    code, out, _ = run(
        capsys,
        "chern",
        "--group", "z2",
        "--space", str(path),
        "--coeff", "repring",
        "--n-range", "0..2",
    )
    assert code == 0
    assert "n=0 bredon=2 chern-target=2 ok" in out


def test_chern_even_periodic_q_range(capsys):
    code, out, _ = run(
        capsys,
        "chern",
        "--group", "z2",
        "--space", "reflection_circle",
        "--coeff", "repring",
        "--q-range=-2..2",
        "--even-only",
        "--n-range", "0..2",
    )
    assert code == 0
    assert "n=0 bredon=3 chern-target=3 ok" in out
    assert "n=1 bredon=0 chern-target=0 ok" in out
    assert "n=2 bredon=3 chern-target=3 ok" in out


@pytest.mark.parametrize("flag,text", [("--n-range", "1..0"), ("--q-range", "2..1")])
def test_chern_rejects_empty_range(capsys, flag, text):
    with pytest.raises(SystemExit) as exc:
        main(["chern", "--group", "s3", "--space", "point", "--coeff", "burnside", f"{flag}={text}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"empty range {text}" in captured.err
    assert flag in captured.err


def test_chern_rejects_space_of_another_group(capsys):
    code, out, err = run(
        capsys, "chern", "--group", "q8", "--space", "dihedral_polygon", "--coeff", "burnside"
    )
    assert code == 2
    assert out == ""
    assert "space declares d4, got q8" in err


def test_mackey_rejects_file_of_another_group(tmp_path, capsys):
    from equichern.data import bundled_group
    from equichern.mackey import constant_mackey, format_mackey

    # d4 and q8 have the same order, so only the header tells the files apart
    path = tmp_path / "d4_const.mky"
    path.write_text(format_mackey(constant_mackey(bundled_group("d4"))))
    code, out, err = run(capsys, "mackey", "--group", "q8", "--coeff", f"file:{path}")
    assert code == 2
    assert out == ""
    assert "coefficients declare d4, got q8" in err
    code, _out, _err = run(capsys, "mackey", "--group", "d4", "--coeff", f"file:{path}")
    assert code == 0


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def _relabelled_s4_file(tmp_path):
    """s4 with its non-identity elements renamed, in a file whose stem is not its name."""
    from equichern.data import bundled_group
    from equichern.groups import FiniteGroup, format_group

    s4 = bundled_group("s4")
    new = [0] + list(range(s4.order - 1, 0, -1))
    table = [[0] * s4.order for _ in range(s4.order)]
    for a, row in enumerate(s4.table):
        for b, c in enumerate(row):
            table[new[a]][new[b]] = new[c]
    path = tmp_path / "s4_relabelled.grp"
    path.write_text(format_group(FiniteGroup(table, name="s4")))
    return path


@pytest.mark.parametrize("declared", ["s4", "d4"])
def test_group_file_is_named_by_its_header(tmp_path, capsys, declared):
    group_path = _relabelled_s4_file(tmp_path)
    space_path = tmp_path / "free_orbit.gcw"
    space_path.write_text(f"gcw free_orbit\ngroup {declared}\ndim 0\ncells 0: a iso={{0}}\n")
    code, out, err = run(
        capsys, "chern", "--group", str(group_path), "--space", str(space_path), "--coeff", "burnside"
    )
    if declared == "s4":
        assert code == 0, err
        assert "n=0 bredon=1 chern-target=1 ok" in out
    else:
        assert code == 2
        assert out == ""
        assert "space declares d4, got s4" in err


def test_selftest_fails_when_enumeration_drops_a_subgroup(capsys, monkeypatch):
    from equichern import cli

    enumerate_all = cli.enumerate_subgroups
    monkeypatch.setattr(cli, "enumerate_subgroups", lambda G: enumerate_all(G)[:-1])
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert "FAIL group z2: subgroup count oracle: subgroup count mismatch" in out


# negative controls: every bad input file exits 2 and names the cause

WEDGE_GCW = (
    "gcw t\n"
    "group s3\n"
    "dim 1\n"
    "cells 0: v iso={0}\n"
    "cells 1: e iso={0}; f iso={0}\n"
    "boundary e = (v, 1) - (v, 0)\n"
    "boundary f = (v, 3) - (v, 0)\n"
)


def _with_line(text, lineno, replacement):
    """text with line `lineno` (from 1) replaced, or dropped for None."""
    lines = text.splitlines()
    if replacement is None:
        del lines[lineno - 1]
    else:
        lines[lineno - 1] = replacement
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "lineno,replacement,message",
    [
        (3, "dim one", "line 3: bad dimension 'one'"),
        (3, "dim", "line 3: expected `dim <value>`"),
        (1, "gcw", "line 1: expected `gcw <value>`"),
        (4, "cells zero: v iso={0}", "line 4: bad cell degree 'zero'"),
        (5, "cells 2: e iso={0}; f iso={0}", "line 5: cell degree 2 outside 0..1"),
        (6, "boundary e = x*(v, 1) - (v, 0)", "line 6: bad boundary coefficient 'x'"),
        (7, "boundary f = (v, g) - (v, 0)", "line 7: bad morphism element 'g'"),
        (4, "cells 0: v iso={0,7}", "line 4: subgroup element 7 out of range for s3"),
        (4, "cells 0: v iso={0,3}", "line 4: subgroup not closed under inverse at element 3"),
        (2, None, "missing `group` header"),
    ],
)
def test_bad_gcw_file_exits_2_naming_the_line(tmp_path, capsys, lineno, replacement, message):
    path = tmp_path / "bad.gcw"
    path.write_text(_with_line(WEDGE_GCW, lineno, replacement))
    code, out, err = run(capsys, "chern", "--group", "s3", "--space", str(path), "--coeff", "burnside")
    assert (code, out) == (2, "")
    assert message in err


def test_wedge_gcw_is_good(tmp_path, capsys):
    path = tmp_path / "good.gcw"
    path.write_text(WEDGE_GCW)
    code, out, _err = run(capsys, "chern", "--group", "s3", "--space", str(path), "--coeff", "burnside")
    assert code == 0
    assert "n=1 bredon=2 chern-target=2 ok" in out


@pytest.mark.parametrize(
    "lineno,replacement,message",
    [
        (1, "mackey", "line 1: too few fields for `mackey`"),
        (3, "object {0} dim x", "line 3: bad dimension 'x'"),
        (3, "object {0} dim -1", "line 3: negative dimension -1"),
        (4, "object {0,1}", "line 4: too few fields for `object`"),
        (11, "conj x {0,3,4}", "line 11: bad group element 'x'"),
        (11, "conj 9 {0,3,4}", "line 11: group element 9 out of range"),
        (11, "conj 1", "line 11: too few fields for `conj`"),
        (8, "  1/0", "line 8: bad matrix row '1/0'"),
        (8, "  one", "line 8: bad matrix row 'one'"),
        (8, "  1 2", "line 8: matrix row has 2 entries, expected 1"),
        (8, None, "line 7: expected 1 matrix rows for res, got 0"),
        (3, "res {0} {0,1}", "line 3: res before object declaration"),
        (3, "ind {0} {0,1}", "line 3: ind before object declaration"),
        (2, None, "missing mackey/group header"),
        (3, "object {0,7} dim 1", "line 3: subgroup element 7 out of range for s3"),
        (7, "res {0,7} {0,1}", "line 7: subgroup element 7 out of range for s3"),
        (9, "ind {0} {0,3}", "line 9: subgroup not closed under inverse at element 3"),
        (11, "conj 1 {0,9}", "line 11: subgroup element 9 out of range for s3"),
    ],
)
def test_bad_mackey_file_exits_2_naming_the_line(tmp_path, capsys, lineno, replacement, message):
    from equichern.data import bundled_group
    from equichern.mackey import constant_mackey, format_mackey

    text = format_mackey(constant_mackey(bundled_group("s3")))
    assert text.splitlines()[6:8] == ["res {0} {0,1}", "  1"]
    assert text.splitlines()[10] == "conj 1 {0,3,4}"
    path = tmp_path / "bad.mky"
    path.write_text(_with_line(text, lineno, replacement))
    code, out, err = run(capsys, "mackey", "--group", "s3", "--coeff", f"file:{path}")
    assert (code, out) == (2, "")
    assert message in err


def test_undecodable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.grp"
    path.write_bytes(b"group g\norder 1\n\xff\n")
    code, out, err = run(capsys, "info", "--group", str(path))
    assert (code, out) == (2, "")
    assert "error:" in err


@pytest.mark.parametrize(
    "target,argv",
    [
        ("verify_collapse", ["chern", "--group", "s3", "--space", "point", "--coeff", "burnside"]),
        ("validate_mackey", ["mackey", "--group", "s3", "--coeff", "burnside"]),
    ],
)
@pytest.mark.parametrize("error", ["LinAlgError", "KeyError"])
def test_internal_errors_are_not_input_errors(monkeypatch, target, argv, error):
    from equichern import cli
    from equichern.qlinalg import LinAlgError

    exc_type = {"LinAlgError": LinAlgError, "KeyError": KeyError}[error]

    def broken(*args, **kwargs):
        raise exc_type("internal")

    monkeypatch.setattr(cli, target, broken)
    with pytest.raises(exc_type):
        main(argv)
