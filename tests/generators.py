"""Inputs for property tests: groups past the bundled corpus, random
representations and small modules.

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
from equichern.groups import FiniteGroup, enumerate_subgroups
from equichern.qlinalg import GroupAction, RationalMatrix, block_matrix


def permutation_closure(gens):
    """Table of the permutation group generated by `gens` (tuples of images),
    with the identity as element 0 and (a * b)(i) = a(b(i))."""
    ident = tuple(range(len(gens[0])))
    elems = [ident]
    index = {ident: 0}
    for p in elems:  # grows while it is walked
        for g in gens:
            q = tuple(p[g[i]] for i in ident)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    return [[index[tuple(a[b[i]] for i in ident)] for b in elems] for a in elems]


def direct_product(t1, t2):
    """Table of G1 x G2, with (a1, a2) numbered a1 * |G2| + a2."""
    n2 = len(t2)
    return [
        [t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(len(t1)) for b2 in range(n2)]
        for a1 in range(len(t1))
        for a2 in range(n2)
    ]


def relabelled_group(table, rng, name):
    """The group of `table` with its non-identity elements renamed at random."""
    n = len(table)
    new = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[new[a]][new[b]] = new[c]
    return FiniteGroup(out, name=name)


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
