"""Finite G-CW complexes as chain complexes of free orbit-category modules.

A complex stores, per degree, cells with their actual isotropy subgroups and
boundary data as integer formal sums of orbit-category morphisms.  Evaluation
at a subgroup H produces the cellular chain complex of the H-fixed points;
evaluation through the subgroup category produces the chain complex of the
centralizer quotient of the fixed points, carrying the Weyl-group action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import bundled_group, bundled_space_text
from .eicat import (
    build_sub_category,
    or_canon_raw,
    or_valid_raw,
    sub_canon_raw,
    sub_mors_raw,
)
from .groups import (
    Subgroup,
    full_subgroup,
    parse_int,
    parse_subgroup_on_line,
    subgroup_conjugacy_classes,
)
from .qlinalg import GroupAction, RationalMatrix, induced_action, kernel_mod_image


class GcwError(ValueError):
    pass


@dataclass(frozen=True)
class Cell:
    ident: str
    iso: Subgroup


@dataclass(frozen=True)
class BoundaryTerm:
    coeff: int
    target: int  # index of the target cell in the next-lower degree
    rep: int  # orbit-category morphism e*Iso -> rep*Iso_target


class GCWComplex:
    def __init__(self, group, name, dim, cells, boundaries, validate=True):
        self.group = group
        self.name = name
        self.dim = dim
        self.cells = cells  # per degree: tuple of Cell
        self.boundaries = boundaries  # per degree >= 1: tuple per cell of BoundaryTerm tuples
        self._cache = {}
        if validate:
            self._validate()

    def _validate(self):
        G = self.group
        if len(self.cells) != self.dim + 1:
            raise GcwError("cell data does not match the stated dimension")
        for n in range(1, self.dim + 1):
            if len(self.boundaries[n]) != len(self.cells[n]):
                raise GcwError(f"boundary data missing for some {n}-cells")
            for i, terms in enumerate(self.boundaries[n]):
                src = self.cells[n][i]
                for t in self.boundaries[n][i]:
                    tgt = self.cells[n - 1][t.target]
                    if not or_valid_raw(G, src.iso, tgt.iso, t.rep):
                        raise GcwError(
                            f"invalid morphism in boundary of {src.ident}: "
                            f"element {t.rep} does not map {src.iso.literal()} "
                            f"into {tgt.iso.literal()}"
                        )
        # d o d = 0 at the formal-sum level
        for n in range(2, self.dim + 1):
            for i, terms in enumerate(self.boundaries[n]):
                acc = {}
                for t in terms:
                    for u in self.boundaries[n - 1][t.target]:
                        tgt_cell = self.cells[n - 2][u.target]
                        rep = or_canon_raw(
                            G, tgt_cell.iso, G.mul(t.rep, u.rep)
                        )
                        key = (u.target, rep)
                        acc[key] = acc.get(key, 0) + t.coeff * u.coeff
                bad = {k: v for k, v in acc.items() if v != 0}
                if bad:
                    cell = self.cells[n][i]
                    raise GcwError(
                        f"d∘d != 0 at cell {cell.ident}: residual formal sum {bad}"
                    )


@dataclass
class EvaluatedChainComplex:
    """Chain complex over Q with an optional group action commuting with d."""

    dims: tuple
    boundaries: tuple  # index n in 0..top+1: RationalMatrix C_n -> C_{n-1}, C_{-1} = C_{top+1} = 0
    labels: tuple  # per degree: tuple of basis labels
    actions: tuple | None  # per degree: GroupAction of one fixed group

    def validate(self):
        for n in range(2, len(self.dims)):
            prod = self.boundaries[n - 1].mul(self.boundaries[n])
            if not prod.is_zero():
                raise GcwError(f"boundary squared is nonzero in degree {n}")
        if self.actions is not None:
            for n in range(len(self.dims)):
                self.actions[n].validate()
            W = self.actions[0].group
            for n in range(1, len(self.dims)):
                d = self.boundaries[n]
                for w in range(W.order):
                    if d.mul(self.actions[n].mats[w]) != self.actions[n - 1].mats[w].mul(d):
                        raise GcwError(
                            f"group action does not commute with the boundary in degree {n}"
                        )
        return self

    def euler_characteristic(self):
        return sum((-1) ** n * d for n, d in enumerate(self.dims))


def fixed_point_chain(X, H):
    """C_*(X^H): evaluation of the free orbit-category chain complex at G/H."""
    G = X.group
    labels = []
    index = []
    for n in range(X.dim + 1):
        basis = []
        for i, cell in enumerate(X.cells[n]):
            for a in range(G.order):
                if or_valid_raw(G, H, cell.iso, a):
                    rep = or_canon_raw(G, cell.iso, a)
                    if (i, rep) not in basis:
                        basis.append((i, rep))
        basis.sort()
        labels.append(tuple(basis))
        index.append({b: k for k, b in enumerate(basis)})
    boundaries = [RationalMatrix.zero(0, len(labels[0]))]
    for n in range(1, X.dim + 1):
        rows = len(labels[n - 1])
        cols = len(labels[n])
        data = [[0] * cols for _ in range(rows)]
        for col, (i, a) in enumerate(labels[n]):
            for t in X.boundaries[n][i]:
                tgt = X.cells[n - 1][t.target]
                rep = or_canon_raw(G, tgt.iso, G.mul(a, t.rep))
                data[index[n - 1][(t.target, rep)]][col] += t.coeff
        boundaries.append(RationalMatrix(rows, cols, data))
    boundaries.append(RationalMatrix.zero(len(labels[-1]), 0))
    return EvaluatedChainComplex(
        dims=tuple(len(l) for l in labels),
        boundaries=tuple(boundaries),
        labels=tuple(labels),
        actions=None,
    ).validate()


def sub_chain_data(X):
    """Bases and boundaries of the Sub(G,F)-chain complex, per skeleton object.

    For each object index r the degree-n basis is the set of pairs
    (cell i, g) with g the canonical representative of a Sub-morphism
    rep_r -> Iso(cell i).
    """
    if "sub_chain_data" in X._cache:
        return X._cache["sub_chain_data"]
    G = X.group
    cat = build_sub_category(G)
    labels = {}
    for r, R in enumerate(cat.objects):
        per_degree = []
        for n in range(X.dim + 1):
            basis = []
            for i, cell in enumerate(X.cells[n]):
                for g in sub_mors_raw(G, R, cell.iso):
                    basis.append((i, g))
            basis.sort()
            per_degree.append(tuple(basis))
        labels[r] = per_degree
    X._cache["sub_chain_data"] = labels
    return labels


def sub_boundaries(X, r):
    """The boundaries C_n -> C_{n-1} of the Sub(G,F)-chain complex at object
    r, for n = 0..dim+1, in the bases of `sub_chain_data`; the first and the
    last are the maps to and from the zero module."""
    G = X.group
    R = build_sub_category(G).objects[r]
    labels = sub_chain_data(X)[r]
    out = [RationalMatrix.zero(0, len(labels[0]))]
    for n in range(1, X.dim + 1):
        index = {b: k for k, b in enumerate(labels[n - 1])}
        data = [[0] * len(labels[n]) for _ in labels[n - 1]]
        for col, (i, g) in enumerate(labels[n]):
            for t in X.boundaries[n][i]:
                tgt = X.cells[n - 1][t.target]
                moved = sub_canon_raw(G, R, tgt.iso, G.mul(G.inv(t.rep), g))
                data[index[(t.target, moved)]][col] += t.coeff
        out.append(RationalMatrix(len(labels[n - 1]), len(labels[n]), data))
    out.append(RationalMatrix.zero(len(labels[-1]), 0))
    return tuple(out)


def quotient_chain(X, H):
    """C_*(C_G(H)\\X^H) with its Weyl-group action, via the Sub(G,F) complex.

    H is transported to its class representative; the degree-n basis consists
    of the Sub-morphisms rep -> Iso(cell), the Weyl group acting by
    precomposition.
    """
    G = X.group
    cat = build_sub_category(G)
    ct = cat.class_table
    r, _t = ct.transport(H)
    R = ct.rep(r)
    labels = sub_chain_data(X)[r]
    index = [{b: k for k, b in enumerate(lab)} for lab in labels]
    weyl = ct.classes[r].weyl
    W = weyl.group
    actions = []
    for n in range(X.dim + 1):
        mats = []
        for w in range(W.order):
            n_w = weyl.coset_reps[W.inv(w)]
            data = [[0] * len(labels[n]) for _ in range(len(labels[n]))]
            for col, (i, g) in enumerate(labels[n]):
                moved = sub_canon_raw(
                    G, R, X.cells[n][i].iso, G.mul(g, n_w)
                )
                data[index[n][(i, moved)]][col] = 1
            mats.append(RationalMatrix(len(labels[n]), len(labels[n]), data))
        actions.append(GroupAction(W, len(labels[n]), tuple(mats)))
    return EvaluatedChainComplex(
        dims=tuple(len(l) for l in labels),
        boundaries=sub_boundaries(X, r),
        labels=tuple(labels),
        actions=tuple(actions),
    ).validate()


@dataclass
class GradedHomology:
    dims: tuple
    reps: tuple  # per degree: RationalMatrix of representative-cycle columns
    actions: tuple | None  # per degree: induced GroupAction (if input had one)
    characters: tuple | None  # per degree: trace per group element


def homology_with_action(C):
    """H_p = ker d_p / im d_{p+1}, with the induced action on chosen cycles."""
    reps_all = []
    actions = []
    for p in range(len(C.dims)):
        reps, image = kernel_mod_image(C.boundaries[p], C.boundaries[p + 1])
        reps_all.append(reps)
        if C.actions is not None:
            actions.append(induced_action(C.actions[p], reps, image))
    has_action = C.actions is not None
    return GradedHomology(
        dims=tuple(r.cols for r in reps_all),
        reps=tuple(reps_all),
        actions=tuple(actions) if has_action else None,
        characters=tuple(a.character() for a in actions) if has_action else None,
    )


def euler_check(X):
    """Per subgroup class: chain-level and homology-level Euler characteristics."""
    ct = subgroup_conjugacy_classes(X.group)
    report = []
    for cls in ct.classes:
        fixed = fixed_point_chain(X, cls.rep)
        hom = homology_with_action(fixed)
        chain_euler = fixed.euler_characteristic()
        hom_euler = sum((-1) ** p * d for p, d in enumerate(hom.dims))
        report.append((cls.rep.literal(), chain_euler, hom_euler))
        if chain_euler != hom_euler:
            raise GcwError(
                f"Euler characteristic mismatch at H = {cls.rep.literal()}: "
                f"chains give {chain_euler}, homology gives {hom_euler}"
            )
    return tuple(report)


def point_complex(G):
    return GCWComplex(
        G, "point", 0, (tuple([Cell("pt", full_subgroup(G))]),), (None,)
    )


def orbit_complex(G, H):
    return GCWComplex(G, f"orbit{H.literal()}", 0, (tuple([Cell("o", H)]),), (None,))


def parse_gcw(text, G):
    """Parse the line-oriented G-CW file format."""
    name = None
    group_name = None
    dim = None
    cells = {}
    boundary_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, value = (line.split(None, 1) + [""])[:2]
        if head in ("gcw", "group", "dim") and not value:
            raise GcwError(f"line {lineno}: expected `{head} <value>`")
        if head == "gcw":
            name = value
        elif head == "group":
            group_name = value
            if group_name != G.name:
                raise GcwError(f"line {lineno}: space declares {group_name}, got {G.name}")
        elif head == "dim":
            dim = parse_int(value, "dimension", GcwError, lineno)
            if dim < 0:
                raise GcwError(f"line {lineno}: negative dimension {dim}")
        elif head == "cells":
            rest = line[len("cells"):].strip()
            deg_txt, _, body = rest.partition(":")
            degree = parse_int(deg_txt.strip(), "cell degree", GcwError, lineno)
            found = []
            for chunk in body.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                ident, _, iso_txt = chunk.partition("iso=")
                ident = ident.strip()
                if not ident or not iso_txt:
                    raise GcwError(f"line {lineno}: bad cell declaration {chunk!r}")
                iso = parse_subgroup_on_line(iso_txt, G, GcwError, lineno)
                found.append(Cell(ident, iso))
            cells[degree] = (lineno, tuple(found))
        elif head == "boundary":
            boundary_lines.append((lineno, line))
        else:
            raise GcwError(f"line {lineno}: unexpected {line!r}")
    for header, value in (("gcw", name), ("group", group_name), ("dim", dim)):
        if value is None:
            raise GcwError(f"missing `{header}` header")
    for degree, (lineno, _cells) in cells.items():
        if not 0 <= degree <= dim:
            raise GcwError(f"line {lineno}: cell degree {degree} outside 0..{dim}")
    cell_tuple = tuple(cells[n][1] if n in cells else () for n in range(dim + 1))
    ident_index = {}
    for n, cs in enumerate(cell_tuple):
        for i, c in enumerate(cs):
            if c.ident in ident_index:
                raise GcwError(f"duplicate cell id {c.ident!r}")
            ident_index[c.ident] = (n, i)
    boundaries = [None] + [
        [list() for _ in cell_tuple[n]] for n in range(1, dim + 1)
    ]
    for lineno, line in boundary_lines:
        body = line[len("boundary"):].strip()
        ident, _, sum_txt = body.partition("=")
        ident = ident.strip()
        if ident not in ident_index:
            raise GcwError(f"line {lineno}: unknown cell {ident!r}")
        n, i = ident_index[ident]
        if n == 0:
            raise GcwError(f"line {lineno}: 0-cells have no boundary")
        terms = _parse_boundary_sum(sum_txt.strip(), ident_index, n, G, lineno)
        boundaries[n][i] = terms
    final = [None]
    for n in range(1, dim + 1):
        final.append(tuple(tuple(ts) for ts in boundaries[n]))
    return GCWComplex(G, name, dim, cell_tuple, tuple(final))


def _parse_boundary_sum(text, ident_index, degree, G, lineno):
    if text == "0" or not text:
        return []
    terms = []
    # split on +/- at top level
    chunks = []
    sign = 1
    buf = ""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0:
            if buf.strip():
                chunks.append((sign, buf.strip()))
                sign = 1
            sign *= 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
    if buf.strip():
        chunks.append((sign, buf.strip()))
    for sign, chunk in chunks:
        coeff = sign
        if "*" in chunk:
            coeff_txt, _, rest = chunk.partition("*")
            coeff_txt = coeff_txt.strip()
            if "/" in coeff_txt or "." in coeff_txt:
                raise GcwError(
                    f"line {lineno}: boundary coefficients must be integers, "
                    f"got {coeff_txt!r}"
                )
            coeff *= parse_int(coeff_txt, "boundary coefficient", GcwError, lineno)
            chunk = rest.strip()
        if not (chunk.startswith("(") and chunk.endswith(")")):
            raise GcwError(f"line {lineno}: bad boundary term {chunk!r}")
        ident, _, g_txt = chunk[1:-1].partition(",")
        ident = ident.strip()
        if ident not in ident_index:
            raise GcwError(f"line {lineno}: unknown target cell {ident!r}")
        tn, ti = ident_index[ident]
        if tn != degree - 1:
            raise GcwError(
                f"line {lineno}: boundary target {ident!r} is not one degree down"
            )
        rep = parse_int(g_txt.strip(), "morphism element", GcwError, lineno)
        if not 0 <= rep < G.order:
            raise GcwError(f"line {lineno}: morphism element {rep} out of range")
        terms.append(BoundaryTerm(coeff, ti, rep))
    return terms


def format_gcw(X):
    lines = [f"gcw {X.name}", f"group {X.group.name}", f"dim {X.dim}"]
    for n in range(X.dim + 1):
        if not X.cells[n]:
            continue
        body = "; ".join(f"{c.ident} iso={c.iso.literal()}" for c in X.cells[n])
        lines.append(f"cells {n}: {body}")
    for n in range(1, X.dim + 1):
        for i, terms in enumerate(X.boundaries[n]):
            parts = []
            for t in terms:
                target = X.cells[n - 1][t.target].ident
                parts.append(f"{t.coeff}*({target}, {t.rep})")
            rhs = " + ".join(parts).replace("+ -", "- ") if parts else "0"
            lines.append(f"boundary {X.cells[n][i].ident} = {rhs}")
    return "\n".join(lines) + "\n"


def builtin_examples(name, G=None, H=None):
    """Bundled and parametric example complexes."""
    if name == "point":
        if G is None:
            raise GcwError("point requires a group")
        return point_complex(G)
    if name == "orbit":
        if G is None or H is None:
            raise GcwError("orbit requires a group and a subgroup")
        return orbit_complex(G, H)
    spaces = {
        "reflection_circle": "z2",
        "dihedral_polygon": "d4",
        "s3_triangle": "s3",
    }
    if name not in spaces:
        raise GcwError(f"unknown example complex {name!r}")
    group = G if G is not None else bundled_group(spaces[name])
    return parse_gcw(bundled_space_text(name), group)
