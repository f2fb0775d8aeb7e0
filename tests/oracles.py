"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive; none of it shares code paths with the
implementation it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from equichern.groups import conjugate_subgroup, subgroup, subgroup_conjugacy_classes
from equichern.mackey import _class_index_within, _subgroup_classes_within
from equichern.qlinalg import RationalMatrix, hstack


def brute_closure(table, seed):
    els = set(seed) | {0}
    changed = True
    while changed:
        changed = False
        for a in list(els):
            for b in list(els):
                c = table[a][b]
                if c not in els:
                    els.add(c)
                    changed = True
    return frozenset(els)


def brute_subgroups(table):
    """All subgroups via closures of generator subsets of growing size."""
    n = len(table)
    found = {brute_closure(table, ())}
    k = 1
    while True:
        before = len(found)
        for combo in itertools.combinations(range(n), k):
            found.add(brute_closure(table, combo))
        if len(found) == before and k >= 2:
            return sorted((tuple(sorted(s)) for s in found), key=lambda t: (len(t), t))
        k += 1


def brute_inv(table, g):
    return table[g].index(0)


def brute_conj(table, g, x):
    return table[table[g][x]][brute_inv(table, g)]


def brute_element_classes(table):
    n = len(table)
    seen, classes = set(), []
    for x in range(n):
        if x in seen:
            continue
        orbit = sorted({brute_conj(table, g, x) for g in range(n)})
        seen.update(orbit)
        classes.append(tuple(orbit))
    return sorted(classes)


def brute_centralizer(table, elems):
    n = len(table)
    return tuple(
        g for g in range(n) if all(table[g][h] == table[h][g] for h in elems)
    )


def brute_normalizer(table, elems):
    n = len(table)
    s = set(elems)
    return tuple(
        g for g in range(n) if {brute_conj(table, g, h) for h in elems} == s
    )


def brute_double_cosets(table, K, H):
    n = len(table)
    remaining = set(range(n))
    cells = []
    while remaining:
        g = min(remaining)
        cell = sorted({table[table[k][g]][h] for k in K for h in H})
        remaining.difference_update(cell)
        cells.append(tuple(cell))
    return sorted(cells)


def brute_sub_mor_count(table, H, K):
    """|mor_Sub(H,K)| counted at the level of actual conjugation maps.

    Each valid g gives the function h -> g h g^-1 on H; two functions give the
    same morphism iff they differ by postcomposition with an inner
    automorphism of K.
    """
    n = len(table)
    kset = set(K)
    maps = set()
    for g in range(n):
        img = tuple(brute_conj(table, g, h) for h in H)
        if all(x in kset for x in img):
            maps.add(img)
    # quotient by Inn(K)
    remaining = set(maps)
    count = 0
    while remaining:
        f = next(iter(sorted(remaining)))
        orbit = {tuple(brute_conj(table, k, x) for x in f) for k in K}
        remaining.difference_update(orbit)
        count += 1
    return count


def brute_rank(rows):
    """Row-reduction rank over Fraction, independent of RationalMatrix."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    cols = len(m[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        rank += 1
    return rank


def greedy_complement(image, vectors, dim):
    """The vectors that extend the image columns, chosen one at a time: a
    vector is kept when it raises the rank.  This is the loop the library
    used before `complement_in`, with ranks taken by `brute_rank`."""
    chosen = []
    current = image
    for v in vectors:
        candidate = hstack([current, RationalMatrix.from_columns([v], dim=dim)])
        if brute_rank(candidate.data) > brute_rank(current.data):
            chosen.append(v)
            current = candidate
    return tuple(chosen)


def _frozen(out):
    return tuple(tuple(Fraction(x) for x in row) for row in out)


def dense_mul(a, b):
    """(rows, cols, data) of a.b by the dense loop over every entry."""
    ot = list(zip(*b.data)) if b.data else [()] * b.cols
    out = []
    for row in a.data:
        out.append([sum(x * y for x, y in zip(row, col)) for col in ot])
    if b.cols == 0:
        out = [[] for _ in range(a.rows)]
    return a.rows, b.cols, _frozen(out)


def dense_rref(a):
    """(reduced row echelon data, pivot columns) by dense Gauss-Jordan
    elimination with first-nonzero pivots in row-major order."""
    m = [list(row) for row in a.data]
    pivots = []
    r = 0
    for c in range(a.cols):
        pivot_row = None
        for i in range(r, a.rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(a.rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == a.rows:
            break
    return _frozen(m), tuple(pivots)


def column_solve(a, b):
    """The columns x_j with a.x_j = b_j, each solved on its own as
    RationalMatrix.solve did before it took a matrix: `dense_rref` of
    [a | b_j], unknowns at non-pivot columns 0.  None if some column is
    inconsistent."""
    out = []
    for j in range(b.cols):
        aug = RationalMatrix(
            a.rows, a.cols + 1, [list(row) + [b.data[i][j]] for i, row in enumerate(a.data)]
        )
        R, pivots = dense_rref(aug)
        if a.cols in pivots:
            return None
        x = [Fraction(0)] * a.cols
        for r, p in enumerate(pivots):
            x[p] = R[r][a.cols]
        out.append(tuple(x))
    return out


def quotient_cw_homology_dims(X, H_elems):
    """Homology dims of C_G(H) \\ X^H computed from raw fixed-point cells.

    Cells of X^H in degree n are pairs (cell index, coset a*Iso); the
    centralizer acts by left multiplication and the quotient complex has the
    orbits as basis.  Completely independent of the Sub(G,F) machinery.
    """
    G = X.group
    table = G.table
    inv = G.inverses
    cent = brute_centralizer(table, H_elems)

    def coset(a, iso):
        return tuple(sorted(table[a][h] for h in iso))

    def fixed_cells(n):
        out = []
        for idx, cell in enumerate(X.cells[n]):
            iso = cell.iso.elems
            iso_set = set(iso)
            seen = set()
            for a in range(G.order):
                cs = coset(a, iso)
                if cs in seen:
                    continue
                seen.add(cs)
                ai = inv[a]
                if all(table[table[ai][h]][a] in iso_set for h in H_elems):
                    out.append((idx, cs))
        return out

    # orbits under the centralizer
    def orbits(cells):
        remaining = set(cells)
        orbs = {}
        reps = []
        while remaining:
            c = min(remaining)
            idx, cs = c
            orbit = set()
            for z in cent:
                moved = (idx, tuple(sorted(table[z][x] for x in cs)))
                orbit.add(moved)
            remaining.difference_update(orbit)
            for o in orbit:
                orbs[o] = len(reps)
            reps.append(c)
        return reps, orbs

    degree_data = []
    for n in range(X.dim + 1):
        reps, orbs = orbits(fixed_cells(n))
        degree_data.append((reps, orbs))

    # boundary matrices on orbit bases
    boundaries = []
    for n in range(1, X.dim + 1):
        reps_n, _ = degree_data[n]
        reps_m, orbs_m = degree_data[n - 1]
        rows = [[Fraction(0)] * len(reps_n) for _ in range(len(reps_m))]
        for j, (idx, cs) in enumerate(reps_n):
            a = cs[0]
            # translate so that the representative coset is a * iso; boundary of
            # the cell a*(e Iso) is a * boundary(e Iso)
            # find a coset element a0 such that coset(a0) == cs
            iso = X.cells[n][idx].iso.elems
            a0 = None
            for cand in cs:
                if coset(cand, iso) == cs:
                    a0 = cand
                    break
            for term in X.boundaries[n][idx]:
                tgt_iso = X.cells[n - 1][term.target].iso.elems
                moved = coset(table[a0][term.rep], tgt_iso)
                key = (term.target, moved)
                rows[orbs_m[key]][j] += term.coeff
        boundaries.append(rows)

    dims = [len(degree_data[n][0]) for n in range(X.dim + 1)]
    h = []
    for p in range(X.dim + 1):
        rank_in = brute_rank(boundaries[p]) if p + 1 <= X.dim else 0
        rank_out = brute_rank(boundaries[p - 1]) if p >= 1 else 0
        h.append(dims[p] - rank_out - rank_in)
    return h


def pairwise_closure(table, seed):
    """Closure of `seed` multiplying each new element by every element found
    so far, on both sides."""
    els = set(seed) | {0}
    frontier = list(els)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(els):
                for c in (table[a][b], table[b][a]):
                    if c not in els:
                        els.add(c)
                        nxt.append(c)
        frontier = nxt
    return els


def quadratic_subgroups(table):
    """All subgroups as sorted element tuples, ordered by (order, elements):
    breadth first from the trivial subgroup, closing H and g pairwise for
    every g outside every H found."""
    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        nxt = []
        for elems in frontier:
            for g in range(1, len(table)):
                if g in elems:
                    continue
                new = tuple(sorted(pairwise_closure(table, set(elems) | {g})))
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), s))


def per_g_sub_mors(table, H, K):
    """Minimal elements of the double cosets K g C_G(H) of the g with
    g H g^-1 <= K, each found by a min over the whole double coset."""
    C = brute_centralizer(table, H)
    kset = set(K)
    out = set()
    for g in range(len(table)):
        if all(brute_conj(table, g, h) in kset for h in H):
            out.add(min(table[table[k][g]][c] for k in K for c in C))
    return tuple(sorted(out))


def per_a_or_mors(table, H, K):
    """Minimal elements of the cosets aK of the a with a^-1 H a <= K."""
    kset = set(K)
    out = set()
    for a in range(len(table)):
        ai = brute_inv(table, a)
        if all(table[table[ai][h]][a] in kset for h in H):
            out.add(min(table[a][k] for k in K))
    return tuple(sorted(out))


def min_scan_burnside_incl_res(G, L, j):
    """Rows of the Burnside restriction matrix from rep(j) to L, with every
    coset key found by a min over the whole coset at every step.  Class
    indices come from the library's class tables."""
    ct = subgroup_conjugacy_classes(G)
    R = ct.rep(j)
    li, t_l = ct.transport(L)
    classes_r = _subgroup_classes_within(G, R)
    rows = len(_subgroup_classes_within(G, ct.rep(li)))
    data = [[0] * len(classes_r) for _ in range(rows)]
    for col, (rep_elems, _members) in enumerate(classes_r):
        J = set(rep_elems)
        remaining = {min(G.mul(r, u) for u in J) for r in R.elems}
        while remaining:
            x = min(remaining)
            orbit = set()
            stack = [x]
            while stack:
                y = stack.pop()
                ykey = min(G.mul(y, u) for u in J)
                if ykey in orbit:
                    continue
                orbit.add(ykey)
                stack.extend(G.mul(l, y) for l in L.elems)
            remaining.difference_update(orbit)
            stab = [l for l in L.elems
                    if min(G.mul(G.mul(l, x), u) for u in J) == min(G.mul(x, u) for u in J)]
            moved = conjugate_subgroup(G, G.inv(t_l), subgroup(G, stab, validate=False))
            data[_class_index_within(G, ct.rep(li), moved)][col] += 1
    return _frozen(data)
