"""Bredon cohomology via the subgroup category, and the Chern-character
target decomposition.

The left-hand side of the comparison is the cohomology of the hom-complex
from the free Sub(G,F)-chain complex of a G-CW complex into a coefficient
module.  The right-hand side pairs quotient fixed-point homology with the
primitive parts of the Mackey coefficients through equivariant hom spaces.
The two sides share no linear algebra beyond the raw cell data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .eicat import (
    CatModule,
    CatModuleMap,
    build_sub_category,
    extended_sub_mor,
    hom_over_category,
    sub_canon_raw,
)
from .gcw import homology_with_action, quotient_chain, sub_chain_data
from .mackey import T_H_of_mackey, mackey_to_sub_module
from .qlinalg import (
    RationalMatrix,
    block_matrix,
    complement_in,
    equivariant_hom_dim,
    induced_map,
)


class BredonError(ValueError):
    pass


@dataclass
class CoefficientSystem:
    """A graded family of Mackey functors, zero outside q_range."""

    group: object
    by_q: dict  # q -> MackeyFunctor
    name: str

    @staticmethod
    def single(M, q=0):
        return CoefficientSystem(M.group, {q: M}, M.name)

    @staticmethod
    def even_periodic(M, q_min, q_max):
        """M at every even q in [q_min, q_max], zero at odd q."""
        by_q = {q: M for q in range(q_min, q_max + 1) if q % 2 == 0}
        return CoefficientSystem(M.group, by_q, f"{M.name}-even")

    def q_values(self):
        return sorted(self.by_q)

    def functor(self, q):
        return self.by_q.get(q)


@dataclass
class CochainComplex:
    dims: tuple
    deltas: tuple  # deltas[p]: C^p -> C^{p+1}, for p in 0..top-1
    blocks: tuple  # per degree: tuple of (cell index, class index) labels

    def validate(self):
        for p in range(len(self.deltas) - 1):
            if not self.deltas[p + 1].mul(self.deltas[p]).is_zero():
                raise BredonError(f"delta squared is nonzero at degree {p}")
        return self


def bredon_cochain(X, Mcat):
    """hom over Sub(G,F) from the chain complex of X into Mcat, degreewise."""
    cat = Mcat.cat
    ct = cat.class_table
    G = X.group
    dims = []
    blocks = []
    for n in range(X.dim + 1):
        labels = tuple(
            (i, ct.class_of(cell.iso)) for i, cell in enumerate(X.cells[n])
        )
        blocks.append(labels)
        dims.append(sum(Mcat.dims[cls] for _i, cls in labels))
    deltas = []
    for n in range(X.dim):
        # delta_n : C^n -> C^{n+1} assembled from the boundaries of (n+1)-cells
        row_dims = [Mcat.dims[cls] for _i, cls in blocks[n + 1]]
        col_dims = [Mcat.dims[cls] for _i, cls in blocks[n]]
        entry = {}
        for i, cell in enumerate(X.cells[n + 1]):
            for t in X.boundaries[n + 1][i]:
                f = extended_sub_mor(
                    cat, cell.iso, X.cells[n][t.target].iso, G.inv(t.rep)
                )
                mat = Mcat.maps[f].scale(t.coeff)
                key = (i, t.target)
                entry[key] = entry.get(key, RationalMatrix.zero(mat.rows, mat.cols)).add(mat)
        deltas.append(block_matrix(entry, row_dims, col_dims))
    return CochainComplex(tuple(dims), tuple(deltas), tuple(blocks)).validate()


@dataclass
class CohomologyData:
    dims: tuple
    cocycles: tuple  # per degree: RationalMatrix whose columns represent classes
    cochain: CochainComplex


def bredon_cohomology(X, Mcat):
    """H^p of the Bredon cochain complex, with echelon cocycle representatives."""
    cx = bredon_cochain(X, Mcat)
    top = len(cx.dims) - 1
    dims = []
    reps_all = []
    for p in range(top + 1):
        n_p = cx.dims[p]
        if p <= top - 1:
            kernel = cx.deltas[p].kernel_basis()
        else:
            kernel = RationalMatrix.identity(n_p).columns()
        if p >= 1:
            image = RationalMatrix.from_columns(
                cx.deltas[p - 1].image_basis(), dim=n_p
            )
        else:
            image = RationalMatrix.zero(n_p, 0)
        reps = RationalMatrix.from_columns(complement_in(image, kernel, n_p), dim=n_p)
        dims.append(reps.cols)
        reps_all.append(reps)
    return CohomologyData(tuple(dims), tuple(reps_all), cx)


def _cohomology_cached(X, M):
    key = ("bredon_cohomology", M)
    if key not in X._cache:
        X._cache[key] = bredon_cohomology(X, mackey_to_sub_module(M))
    return X._cache[key]


def _quotient_homology_cached(X, r):
    key = ("quotient_homology", r)
    if key not in X._cache:
        rep = build_sub_category(X.group).objects[r]
        X._cache[key] = homology_with_action(quotient_chain(X, rep))
    return X._cache[key]


# the chain complex of X as modules over Sub(G,F), used by the alpha map

def sub_chain_module(X, n):
    """Degree-n chains of X as a contravariant Sub(G,F)-module."""
    key = ("sub_chain_module", n)
    if key in X._cache:
        return X._cache[key]
    G = X.group
    cat = build_sub_category(G)
    labels = sub_chain_data(X)
    dims = tuple(len(labels[r][n]) for r in range(len(cat.objects)))
    maps = {}
    for f in cat.all_mors():
        src_basis = labels[f.src][n]
        dst_basis = labels[f.dst][n]
        index = {b: k for k, b in enumerate(src_basis)}
        data = [[0] * len(dst_basis) for _ in range(len(src_basis))]
        R_src = cat.objects[f.src]
        for col, (i, g) in enumerate(dst_basis):
            moved = sub_canon_raw(G, R_src, X.cells[n][i].iso, G.mul(g, f.rep))
            data[index[(i, moved)]][col] = 1
        maps[f] = RationalMatrix(len(src_basis), len(dst_basis), data)
    module = CatModule(cat, dims, maps, name=f"C_{n}({X.name})").validate()
    X._cache[key] = module
    return module


def sub_boundary_map(X, n):
    """The boundary C_n -> C_{n-1} as a map of Sub(G,F)-modules."""
    G = X.group
    cat = build_sub_category(G)
    labels = sub_chain_data(X)
    src_mod = sub_chain_module(X, n)
    dst_mod = sub_chain_module(X, n - 1)
    comps = []
    for r in range(len(cat.objects)):
        R = cat.objects[r]
        src_basis = labels[r][n]
        dst_basis = labels[r][n - 1]
        index = {b: k for k, b in enumerate(dst_basis)}
        data = [[0] * len(src_basis) for _ in range(len(dst_basis))]
        for col, (i, g) in enumerate(src_basis):
            for t in X.boundaries[n][i]:
                tgt = X.cells[n - 1][t.target]
                moved = sub_canon_raw(G, R, tgt.iso, G.mul(G.inv(t.rep), g))
                data[index[(t.target, moved)]][col] += t.coeff
        comps.append(RationalMatrix(len(dst_basis), len(src_basis), data))
    return CatModuleMap(src_mod, dst_mod, tuple(comps)).validate()


def homology_module(X, p, perturb=None):
    """H_p(C_G ? \\ X^?) as a Sub(G,F)-module, with chosen cycle columns.

    `perturb` optionally re-randomizes the chosen cycle representatives by
    adding boundaries (used to certify representative independence).
    """
    G = X.group
    cat = build_sub_category(G)
    nobj = len(cat.objects)
    chain_p = sub_chain_module(X, p)
    d_p = sub_boundary_map(X, p) if p >= 1 else None
    d_next = sub_boundary_map(X, p + 1) if p + 1 <= X.dim else None
    reps_per_obj = []
    images = []
    for r in range(nobj):
        n_r = chain_p.dims[r]
        if d_p is not None:
            kernel = d_p.components[r].kernel_basis()
        else:
            kernel = RationalMatrix.identity(n_r).columns()
        if d_next is not None:
            image = RationalMatrix.from_columns(
                d_next.components[r].image_basis(), dim=n_r
            )
        else:
            image = RationalMatrix.zero(n_r, 0)
        chosen = [list(v) for v in complement_in(image, kernel, n_r)]
        if perturb is not None and image.cols:
            for vec in chosen:
                for j in range(image.cols):
                    c = perturb.randint(-2, 2)
                    if c:
                        for i in range(n_r):
                            vec[i] += c * image.data[i][j]
        reps = RationalMatrix.from_columns([tuple(v) for v in chosen], dim=n_r)
        reps_per_obj.append(reps)
        images.append(image)
    dims = tuple(r.cols for r in reps_per_obj)
    maps = {
        f: induced_map(chain_p.maps[f], reps_per_obj[f.dst], reps_per_obj[f.src], images[f.src])
        for f in cat.all_mors()
    }
    module = CatModule(cat, dims, maps, name=f"H_{p}({X.name})").validate()
    return module, reps_per_obj


@dataclass
class AlphaResult:
    p: int
    matrix: RationalMatrix  # hom-space coordinates x cohomology classes
    cohomology_dim: int
    hom_dim: int
    bijective: bool
    stable: bool  # unchanged under re-randomized representatives


def alpha_map(X, M, p, rng=None):
    """The Kronecker pairing H^p(X; M) -> hom_Sub(H_p(C_G?\\X^?), M).

    Returns the matrix in a fixed hom-space basis; with `rng`, re-randomizes
    cocycle and cycle representatives and certifies the matrix is unchanged.
    """
    Mcat = mackey_to_sub_module(M)
    cat = Mcat.cat
    G = X.group
    cohom = _cohomology_cached(X, M)
    hmod, cycle_reps = homology_module(X, p)
    hom_basis = hom_over_category(hmod, Mcat)

    def pairing_components(cocycle_vec):
        """The natural transformation H_p => M produced by one cocycle."""
        # cocycle blocks per p-cell
        offsets = []
        t = 0
        for _i, cls in cohom.cochain.blocks[p]:
            offsets.append(t)
            t += Mcat.dims[cls]
        comps = []
        labels = sub_chain_data(X)
        for r in range(len(cat.objects)):
            R = cat.objects[r]
            basis = labels[r][p]
            cols = []
            for j in range(cycle_reps[r].cols):
                z = cycle_reps[r].column(j)
                acc = tuple(Fraction(0) for _ in range(Mcat.dims[r]))
                for k, (i, g) in enumerate(basis):
                    if z[k] == 0:
                        continue
                    cell_cls = cohom.cochain.blocks[p][i][1]
                    m_i = cocycle_vec[offsets[i]: offsets[i] + Mcat.dims[cell_cls]]
                    f = extended_sub_mor(cat, R, X.cells[p][i].iso, g)
                    val = Mcat.maps[f].apply(m_i)
                    acc = tuple(a + z[k] * v for a, v in zip(acc, val))
                cols.append(acc)
            comps.append(RationalMatrix.from_columns(cols, dim=Mcat.dims[r]))
        return comps

    def flatten(comps):
        return tuple(x for c in comps for row in c.data for x in row)

    flat_dim = sum(Mcat.dims[r] * hmod.dims[r] for r in range(len(cat.objects)))
    B = RationalMatrix.from_columns([flatten(h.components) for h in hom_basis], dim=flat_dim)

    def alpha_matrix(cocycles, comps_fn):
        """hom-space coordinates of the transformations of all cocycles, from one solve."""
        flat_cols = []
        for j in range(cocycles.cols):
            comps = comps_fn(cocycles.column(j))
            CatModuleMap(hmod, Mcat, tuple(comps)).validate()
            flat_cols.append(flatten(comps))
        return B.solve(RationalMatrix.from_columns(flat_cols, dim=flat_dim))

    cocycles = cohom.cocycles[p]
    matrix = alpha_matrix(cocycles, pairing_components)
    bijective = (
        matrix.rows == matrix.cols == matrix.rank()
    )
    stable = True
    if rng is not None:
        # perturb cocycle representatives by coboundaries
        if p >= 1:
            img = RationalMatrix.from_columns(
                cohom.cochain.deltas[p - 1].image_basis(), dim=cohom.cochain.dims[p]
            )
            cols = []
            for j in range(cocycles.cols):
                v = list(cocycles.column(j))
                for k in range(img.cols):
                    c = rng.randint(-2, 2)
                    if c:
                        for i in range(len(v)):
                            v[i] += c * img.data[i][k]
                cols.append(tuple(v))
            perturbed = RationalMatrix.from_columns(
                cols, dim=cohom.cochain.dims[p]
            )
            m2 = alpha_matrix(perturbed, pairing_components)
            stable = stable and (m2 == matrix)
        # perturb cycle representatives by boundaries; the hom-space basis and
        # homology coordinates are unchanged, so the matrix must agree
        hmod2, cycle_reps2 = homology_module(X, p, perturb=rng)
        if hmod2.dims != hmod.dims:
            stable = False
        else:
            cycle_backup = cycle_reps
            cycle_reps = cycle_reps2
            m3 = alpha_matrix(cocycles, pairing_components)
            cycle_reps = cycle_backup
            stable = stable and (m3 == matrix)
    return AlphaResult(
        p=p,
        matrix=matrix,
        cohomology_dim=cocycles.cols,
        hom_dim=len(hom_basis),
        bijective=bijective,
        stable=stable,
    )


@dataclass
class ReportEntry:
    n: int
    p: int
    q: int
    cls: str  # subgroup-class literal, or "-" for cochain-side records
    dim: int
    basis: tuple = ()  # echelon-canonical cocycle representatives (columns)

    def record(self):
        return f"n={self.n} p={self.p} q={self.q} class={self.cls} dim={self.dim}"


@dataclass
class BredonReport:
    group: str
    space: str
    coefficients: str
    entries: tuple
    totals: dict  # n -> dim
    header: str = "bredon"

    def lines(self):
        out = [
            f"{self.header} group={self.group} space={self.space} "
            f"coeff={self.coefficients}"
        ]
        out.extend(e.record() for e in self.entries)
        for n in sorted(self.totals):
            out.append(f"total n={n} dim={self.totals[n]}")
        return out

    def to_json(self):
        return json.dumps(
            {
                "group": self.group,
                "space": self.space,
                "coefficients": self.coefficients,
                "entries": [
                    {
                        "n": e.n,
                        "p": e.p,
                        "q": e.q,
                        "class": e.cls,
                        "dim": e.dim,
                        "basis": [[str(x) for x in vec] for vec in e.basis],
                    }
                    for e in self.entries
                ],
                "totals": {str(n): d for n, d in sorted(self.totals.items())},
            },
            indent=2,
            sort_keys=True,
        )


def parse_records(text):
    """Round-trip parser for `n= p= q= class= dim=` record lines."""
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("n="):
            continue
        fields = {}
        for tok in line.split():
            k, _, v = tok.partition("=")
            fields[k] = v
        entries.append(
            ReportEntry(
                int(fields["n"]),
                int(fields["p"]),
                int(fields["q"]),
                fields["class"],
                int(fields["dim"]),
            )
        )
    return entries


def assemble_BH(X, coeffs, n):
    """dim BH^n = sum over p+q = n of H^p(X; M^q), as a report slice."""
    entries = []
    total = 0
    for p in range(0, X.dim + 1):
        q = n - p
        M = coeffs.functor(q)
        if M is None:
            continue
        cohom = _cohomology_cached(X, M)
        d = cohom.dims[p]
        basis = tuple(cohom.cocycles[p].columns())
        entries.append(ReportEntry(n, p, q, "-", d, basis))
        total += d
    return entries, total


def bredon_report(X, coeffs, n_range):
    entries = []
    totals = {}
    for n in n_range:
        es, total = assemble_BH(X, coeffs, n)
        entries.extend(es)
        totals[n] = total
    return BredonReport(
        group=X.group.name,
        space=X.name,
        coefficients=coeffs.name,
        entries=tuple(entries),
        totals=totals,
    )


def chern_target(X, coeffs, n):
    """Right-hand side of the collapse: per class (H), p+q = n,
    dim hom_{QW}(H_p(C_G H\\X^H), T_H M^q)."""
    cat = build_sub_category(X.group)
    ct = cat.class_table
    entries = []
    total = 0
    for r, cls in enumerate(ct.classes):
        hom_data = _quotient_homology_cached(X, r)
        for p in range(0, X.dim + 1):
            q = n - p
            M = coeffs.functor(q)
            if M is None:
                continue
            t_part = T_H_of_mackey(M, cls.rep)
            d = equivariant_hom_dim(hom_data.actions[p], t_part.action)
            entries.append(ReportEntry(n, p, q, cls.rep.literal(), d))
            total += d
    return entries, total


def chern_report(X, coeffs, n_range):
    entries = []
    totals = {}
    for n in n_range:
        es, total = chern_target(X, coeffs, n)
        entries.extend(es)
        totals[n] = total
    return BredonReport(
        group=X.group.name,
        space=X.name,
        coefficients=coeffs.name,
        entries=tuple(entries),
        totals=totals,
        header="chern-target",
    )


@dataclass
class CollapseRow:
    n: int
    left: int
    right: int

    @property
    def ok(self):
        return self.left == self.right


@dataclass
class CollapseReport:
    group: str
    space: str
    coefficients: str
    rows: tuple
    left: BredonReport
    right: BredonReport

    def passed(self):
        return all(r.ok for r in self.rows)

    def lines(self):
        out = [
            f"collapse group={self.group} space={self.space} "
            f"coeff={self.coefficients}"
        ]
        for r in self.rows:
            status = "ok" if r.ok else "MISMATCH"
            out.append(f"n={r.n} bredon={r.left} chern-target={r.right} {status}")
        if not self.passed():
            out.append("-- left breakdown --")
            out.extend(self.left.lines())
            out.append("-- right breakdown --")
            out.extend(self.right.lines())
        return out


def verify_collapse(X, coeffs, n_range):
    left = bredon_report(X, coeffs, n_range)
    right = chern_report(X, coeffs, n_range)
    rows = tuple(
        CollapseRow(n, left.totals[n], right.totals[n]) for n in n_range
    )
    return CollapseReport(
        group=X.group.name,
        space=X.name,
        coefficients=coeffs.name,
        rows=rows,
        left=left,
        right=right,
    )
