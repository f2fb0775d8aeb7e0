"""Access to the bundled corpus: group tables, character tables, G-CW files."""

from __future__ import annotations

from importlib import resources

from .chartab import parse_character_table
from .groups import parse_group

_GROUPS = ("z2", "z3", "z4", "z5", "z6", "z7", "z8", "s3", "d4", "q8", "a4", "s4")
_CHARTABS = ("s3", "d4", "q8", "a4", "s4")
_SPACES = ("reflection_circle", "dihedral_polygon", "s3_triangle")


def _read(kind, filename):
    root = resources.files("equichern").joinpath("data", kind, filename)
    return root.read_text(encoding="utf-8")


def bundled_group_names():
    return _GROUPS


def bundled_chartab_names():
    return _CHARTABS


def bundled_space_names():
    return _SPACES


def bundled_group_text(name):
    return _read("groups", f"{name}.grp")


_group_cache = {}


def bundled_group(name):
    """The bundled group, one shared instance per name (caches live on it)."""
    if name not in _GROUPS:
        raise KeyError(f"no bundled group named {name!r}")
    if name not in _group_cache:
        _group_cache[name] = parse_group(bundled_group_text(name), name=name)
    return _group_cache[name]


def bundled_chartab_text(name):
    return _read("chartabs", f"{name}.ctb")


def bundled_chartabs():
    """The bundled standalone character tables (parsed and validated)."""
    out = []
    for name in _CHARTABS:
        G = bundled_group(name)
        out.append(parse_character_table(bundled_chartab_text(name), G))
    return tuple(out)


def bundled_space_text(name):
    return _read("spaces", f"{name}.gcw")
