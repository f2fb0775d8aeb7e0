"""Randomized inputs for property tests: representations and small modules.

Test-only; the library never builds random inputs itself.
"""

from __future__ import annotations

from fractions import Fraction

from equichern.eicat import (
    CatModule,
    CatModuleMap,
    Coinduction,
    Induction,
    free_module,
    hom_over_category,
)
from equichern.groups import enumerate_subgroups
from equichern.qlinalg import GroupAction, RationalMatrix, block_matrix


def _random_unimodular(rng, n, steps=4):
    m = RationalMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        data = [list(row) for row in m.data]
        for col in range(n):
            data[i][col] += c * data[j][col]
        m = RationalMatrix(n, n, data)
    return m


def random_action(W, rng, max_blocks=2):
    """A random exact Q-representation: permutation modules twisted by a unimodular."""
    subs = enumerate_subgroups(W)
    blocks = []
    for _ in range(rng.randint(1, max_blocks)):
        U = rng.choice(subs)
        # permutation action on cosets of U
        cosets = {}
        for g in range(W.order):
            key = min(W.mul(g, u) for u in U.elems)
            cosets.setdefault(key, []).append(g)
        reps = sorted(cosets)
        index = {r: i for i, r in enumerate(reps)}

        def to_rep(g):
            return min(W.mul(g, u) for u in U.elems)

        mats = []
        for w in range(W.order):
            mat = [[Fraction(0)] * len(reps) for _ in range(len(reps))]
            for i, r in enumerate(reps):
                mat[index[to_rep(W.mul(w, r))]][i] = Fraction(1)
            mats.append(RationalMatrix(len(reps), len(reps), mat))
        blocks.append(mats)
    dim = sum(len(b[0].data) for b in blocks)
    mats = []
    for w in range(W.order):
        blk = {}
        for k, b in enumerate(blocks):
            blk[(k, k)] = b[w]
        mats.append(
            block_matrix(blk, [b[0].rows for b in blocks], [b[0].rows for b in blocks])
        )
    U = _random_unimodular(rng, dim)
    U_inv = U.solve(RationalMatrix.identity(dim))
    mats = tuple(U_inv.mul(m).mul(U) for m in mats)
    return GroupAction(W, dim, mats)


def image_module(phi):
    """The image of a natural transformation, as a submodule of the target."""
    cat = phi.cat
    nobj = len(cat.objects)
    bases = []
    for x in range(nobj):
        img = phi.components[x].image_basis()
        bases.append(RationalMatrix.from_columns(img, dim=phi.target.dims[x]))
    dims = tuple(b.cols for b in bases)
    maps = {}
    for f in cat.all_mors():
        x, y = f.src, f.dst
        Nf = phi.target.maps[f]
        maps[f] = bases[x].solve(Nf.mul(bases[y]))
    return CatModule(cat, dims, maps, name="im")


def random_module(cat, rng, max_dim=2):
    """A random small module: image of a random map between canonical modules.

    Sources mix frees and inductions, targets mix frees and coinductions, so
    the images are generally neither projective nor injective.
    """
    nobj = len(cat.objects)

    def random_piece(kind):
        c = rng.randrange(nobj)
        if kind == "free" or rng.random() < 0.3:
            return free_module(cat, c)
        V = random_action(cat.aut(c).group, rng, max_blocks=1)
        if kind == "ind":
            return Induction(cat, c, V).module
        return Coinduction(cat, c, V).module

    src = random_piece(rng.choice(["free", "ind"]))
    tgt = random_piece(rng.choice(["free", "coind"]))
    homs = hom_over_category(src, tgt)
    if not homs:
        return tgt if rng.random() < 0.5 else src
    coeffs = [rng.randint(-2, 2) for _ in homs]
    if all(c == 0 for c in coeffs):
        coeffs[rng.randrange(len(coeffs))] = 1
    comps = []
    for x in range(nobj):
        acc = RationalMatrix.zero(tgt.dims[x], src.dims[x])
        for c, h in zip(coeffs, homs):
            if c:
                acc = acc.add(h.components[x].scale(c))
        comps.append(acc)
    phi = CatModuleMap(src, tgt, tuple(comps))
    return image_module(phi)
