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
    hom_system,
    sub_canon_raw,
)
from .gcw import homology_with_action, quotient_chain, sub_boundaries, sub_chain_data
from .mackey import T_H_of_mackey, mackey_to_sub_module
from .qlinalg import (
    RationalMatrix,
    block_matrix,
    equivariant_hom_dim,
    induced_map,
    kernel_mod_image,
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
    coboundaries: tuple  # per degree: echelon basis of the coboundaries, as columns
    cochain: CochainComplex


def bredon_cohomology(X, Mcat):
    """H^p of the Bredon cochain complex, with echelon cocycle representatives."""
    cx = bredon_cochain(X, Mcat)
    # d[p]: C^{p-1} -> C^p, with C^{-1} = C^{top+1} = 0
    d = (RationalMatrix.zero(cx.dims[0], 0), *cx.deltas, RationalMatrix.zero(0, cx.dims[-1]))
    cocycles, coboundaries = zip(*(kernel_mod_image(d[p + 1], d[p]) for p in range(len(cx.dims))))
    return CohomologyData(tuple(c.cols for c in cocycles), cocycles, coboundaries, cx)


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
    """Degree-n chains of X as a contravariant Sub(G,F)-module (zero for n
    outside 0..dim)."""
    key = ("sub_chain_module", n)
    if key in X._cache:
        return X._cache[key]
    G = X.group
    cat = build_sub_category(G)
    labels = sub_chain_data(X)
    bases = [labels[r][n] if 0 <= n <= X.dim else () for r in range(len(cat.objects))]
    maps = {}
    for f in cat.all_mors():
        src_basis = bases[f.src]
        dst_basis = bases[f.dst]
        index = {b: k for k, b in enumerate(src_basis)}
        data = [[0] * len(dst_basis) for _ in range(len(src_basis))]
        R_src = cat.objects[f.src]
        for col, (i, g) in enumerate(dst_basis):
            moved = sub_canon_raw(G, R_src, X.cells[n][i].iso, G.mul(g, f.rep))
            data[index[(i, moved)]][col] = 1
        maps[f] = RationalMatrix(len(src_basis), len(dst_basis), data)
    dims = tuple(len(b) for b in bases)
    module = CatModule(cat, dims, maps, name=f"C_{n}({X.name})").validate()
    X._cache[key] = module
    return module


def sub_boundary_map(X, n):
    """The boundary C_n -> C_{n-1} as a map of Sub(G,F)-modules, for
    n = 0..dim+1."""
    nobj = len(build_sub_category(X.group).objects)
    comps = tuple(sub_boundaries(X, r)[n] for r in range(nobj))
    return CatModuleMap(sub_chain_module(X, n), sub_chain_module(X, n - 1), comps).validate()


def _add_random_boundaries(reps, image, rng):
    """reps + image.C for a random integer C with entries in -2..2, drawn
    for each column of reps in turn."""
    C = [[0] * reps.cols for _ in range(image.cols)]
    for j in range(reps.cols):
        for k in range(image.cols):
            C[k][j] = rng.randint(-2, 2)
    return reps.add(image.mul(RationalMatrix(image.cols, reps.cols, C)))


def homology_module(X, p, perturb=None):
    """H_p(C_G ? \\ X^?) as a Sub(G,F)-module, with chosen cycle columns.

    `perturb` optionally re-randomizes the chosen cycle representatives by
    adding boundaries (used to certify representative independence).
    """
    cat = build_sub_category(X.group)
    chain_p = sub_chain_module(X, p)
    d_out, d_in = sub_boundary_map(X, p), sub_boundary_map(X, p + 1)
    reps_per_obj = []
    images = []
    for r in range(len(cat.objects)):
        reps, image = kernel_mod_image(d_out.components[r], d_in.components[r])
        if perturb is not None:
            reps = _add_random_boundaries(reps, image, perturb)
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
    cohom = _cohomology_cached(X, M)
    hmod, cycle_reps = homology_module(X, p)
    # hom-space basis: the kernel of the system, one column per transformation
    system = hom_system(hmod, Mcat)
    B = system.kernel_basis()

    def pairing_components(cocycle_vec, cycle_reps):
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

    def alpha_matrix(cocycles, cycle_reps):
        """hom-space coordinates of the transformations of all cocycles, from
        one solve; each is flattened in the layout of `hom_system`."""
        flat_cols = []
        for j in range(cocycles.cols):
            comps = pairing_components(cocycles.column(j), cycle_reps)
            CatModuleMap(hmod, Mcat, tuple(comps)).validate()
            flat_cols.append(tuple(x for c in comps for row in c.data for x in row))
        return B.solve(RationalMatrix.from_columns(flat_cols, dim=system.cols))

    cocycles = cohom.cocycles[p]
    matrix = alpha_matrix(cocycles, cycle_reps)
    bijective = (
        matrix.rows == matrix.cols == matrix.rank()
    )
    stable = True
    if rng is not None:
        # perturb cocycle representatives by coboundaries; unchanged ones
        # (no coboundaries, or all coefficients 0) leave nothing to check
        perturbed = _add_random_boundaries(cocycles, cohom.coboundaries[p], rng)
        stable = perturbed == cocycles or alpha_matrix(perturbed, cycle_reps) == matrix
        # perturb cycle representatives by boundaries; the hom-space basis and
        # homology coordinates are unchanged, so the matrix must agree
        hmod2, cycle_reps2 = homology_module(X, p, perturb=rng)
        stable = stable and hmod2.dims == hmod.dims and alpha_matrix(cocycles, cycle_reps2) == matrix
    return AlphaResult(
        p=p,
        matrix=matrix,
        cohomology_dim=cocycles.cols,
        hom_dim=B.cols,
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
    left: BredonReport
    right: BredonReport

    @property
    def rows(self):
        """One row per n, from the totals of the two reports."""
        return tuple(
            CollapseRow(n, self.left.totals[n], self.right.totals[n])
            for n in sorted(self.left.totals)
        )

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
            out.append("-- left breakdown (Bredon side per (n, p, q) only, not per class) --")
            out.extend(self.left.lines())
            out.append("-- right breakdown --")
            out.extend(self.right.lines())
        return out


def verify_collapse(X, coeffs, n_range):
    return CollapseReport(
        group=X.group.name,
        space=X.name,
        coefficients=coeffs.name,
        left=bredon_report(X, coeffs, n_range),
        right=chern_report(X, coeffs, n_range),
    )
