"""Seeded inputs for the benchmark workloads, with their expected answers.

Every group is written as a `.grp` file whose elements are relabelled by a
seeded permutation (the identity stays 0), so each seed gives different files
for the same abstract group. The subgroup structure used to choose isotropy
and to predict answers is computed here, independently of the library.
"""

from __future__ import annotations

import random
from math import gcd
from pathlib import Path

# Label-invariant facts used as expected results.
# S3 x S3 has 22 conjugacy classes of subgroups, so the Burnside functor
# gives BH^0(point) = 22 and nothing above degree 0.
S3XS3_SUBGROUP_CLASSES = 22
# The Mackey axiom checks printed for the Burnside functor on A5 (59 subgroups
# in 9 classes): sum of normalizer orders 180; 9 Weyl actions plus a res/ind
# pair per subgroup, 9 + 2 * 59 = 127; 59 * 59 double coset pairs; 885 chains
# H <= K <= L.
A5_AXIOM_CHECKS = (180, 127, 3481, 885)

# Isotropy shapes of the seeded G-graphs, as subgroup classes keyed by
# (order, exponent, number of conjugates). Each edge names its isotropy and
# joins two distinct vertex orbits whose isotropy contains a conjugate of it.
# The sizes make Bredon cochains and fixed-point homology the bulk of a job.
GRAPH_SHAPES = {
    "s4": {
        "vertices": [(2, 2, 6), (3, 3, 4), (4, 2, 3), (6, 6, 4), (8, 4, 3)] * 2,
        "edges": [(1, 1, 1), (1, 1, 1), (1, 1, 1), (2, 2, 6), (2, 2, 6), (2, 2, 3)] * 4,
    },
    "d4": {
        "vertices": [(2, 2, 2), (2, 2, 2), (2, 2, 1), (4, 2, 1), (4, 4, 1)] * 2,
        "edges": [(1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1), (2, 2, 1), (2, 2, 1)] * 4,
    },
}


def read_table(path):
    """The multiplication table of a `.grp` file."""
    rows = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens and tokens[0] not in ("group", "order"):
            rows.append([int(t) for t in tokens])
    return rows


def format_group(name, table):
    body = "\n".join(" ".join(str(x) for x in row) for row in table)
    return f"group {name}\norder {len(table)}\n{body}\n"


def relabel(table, rng):
    """The same group with elements renamed by a seeded permutation fixing 0."""
    n = len(table)
    new = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[new[a]][new[b]] = new[c]
    return out


def direct_product(t1, t2):
    """Table of G1 x G2 with (a1, a2) numbered a1 * |G2| + a2."""
    n2 = len(t2)
    return [
        [t1[a1][b1] * n2 + t2[a2][b2] for b1 in range(len(t1)) for b2 in range(n2)]
        for a1 in range(len(t1))
        for a2 in range(n2)
    ]


def permutation_closure(gens):
    """Table of the permutation group generated by `gens` (tuples of images)."""
    ident = tuple(range(len(gens[0])))
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[i] for i in p)
                if q not in index:
                    index[q] = len(elems)
                    elems.append(q)
                    nxt.append(q)
        frontier = nxt
    # (a * b)(i) = a(b(i)): apply b first
    return [[index[tuple(a[i] for i in b)] for b in elems] for a in elems]


class GroupFacts:
    """Subgroups and their conjugacy classes, found by closure."""

    def __init__(self, table):
        self.table = table
        self.order = len(table)
        self.inv = [row.index(0) for row in table]
        subs = {frozenset([0])}
        frontier = list(subs)
        while frontier:
            nxt = []
            for s in frontier:
                for g in range(self.order):
                    if g not in s:
                        t = self.closure(s | {g})
                        if t not in subs:
                            subs.add(t)
                            nxt.append(t)
            frontier = nxt
        self.subgroups = sorted(subs, key=lambda s: (len(s), sorted(s)))
        self.classes = self.orbits(self.subgroups, range(self.order))

    def closure(self, gens):
        elems = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.table[x][g]
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(elems)

    def conj(self, g, x):
        return self.table[self.table[g][x]][self.inv[g]]

    def conjugate(self, g, sub):
        return frozenset(self.conj(g, x) for x in sub)

    def orbits(self, subs, by):
        """Orbits of `subs` under conjugation by the elements `by`."""
        seen = set()
        out = []
        for s in subs:
            if s not in seen:
                orbit = sorted({self.conjugate(g, s) for g in by}, key=sorted)
                seen.update(orbit)
                out.append(orbit)
        return out

    def exponent(self, sub):
        e = 1
        for x in sub:
            k, y = 1, x
            while y != 0:
                y = self.table[y][x]
                k += 1
            e = e * k // gcd(e, k)
        return e

    def class_key(self, orbit):
        return (len(orbit[0]), self.exponent(orbit[0]), len(orbit))

    def burnside_dim(self, sub):
        """Number of sub-conjugacy classes of subgroups of sub."""
        inside = [s for s in self.subgroups if s <= sub]
        return len(self.orbits(inside, sub))

    def repring_dim(self, sub):
        """Number of conjugacy classes of elements of sub."""
        return len({frozenset(self.conj(g, x) for g in sub) for x in sub})


def literal(sub):
    return "{" + ",".join(str(x) for x in sorted(sub)) + "}"


def suspension_gcw(name, group_name, facts, shape, rng):
    """The suspension of a seeded G-graph, as `.gcw` text, and its cell isotropy.

    Vertex orbits become 1-cells from the south pole S to the north pole N
    (both fixed by G); edge orbits become 2-cells bounded by the difference
    of their endpoint 1-cells, which makes d o d = 0.
    """
    by_key = {}
    for orbit in facts.classes:
        by_key.setdefault(facts.class_key(orbit), []).append(orbit)

    def pick(key):
        return rng.choice(rng.choice(by_key[key]))

    full = frozenset(range(facts.order))
    verts = [pick(key) for key in shape["vertices"]]
    edges = []
    for key in shape["edges"]:
        iso = pick(key)
        ends = []
        for v, hv in enumerate(verts):
            maps = [x for x in range(facts.order) if facts.conjugate(facts.inv[x], iso) <= hv]
            if maps:
                ends.append((v, maps))
        (t, xs), (s, ys) = rng.sample(ends, 2)
        edges.append((iso, t, rng.choice(xs), s, rng.choice(ys)))
    lines = [
        f"gcw {name}",
        f"group {group_name}",
        "dim 2",
        f"cells 0: N iso={literal(full)}; S iso={literal(full)}",
        "cells 1: " + "; ".join(f"v{i} iso={literal(h)}" for i, h in enumerate(verts)),
        "cells 2: " + "; ".join(f"e{j} iso={literal(e[0])}" for j, e in enumerate(edges)),
    ]
    lines += [f"boundary v{i} = 1*(N, 0) - 1*(S, 0)" for i in range(len(verts))]
    lines += [
        f"boundary e{j} = 1*(v{t}, {x}) - 1*(v{s}, {y})"
        for j, (_iso, t, x, s, y) in enumerate(edges)
    ]
    isotropy = [[full, full], verts, [e[0] for e in edges]]
    return "\n".join(lines) + "\n", isotropy


def euler_characteristic(facts, isotropy, coeff):
    """sum_n (-1)^n sum over n-cells of dim M(isotropy), which equals the
    alternating sum of the Bredon cohomology dimensions."""
    dim = facts.burnside_dim if coeff == "burnside" else facts.repring_dim
    return sum((-1) ** n * dim(h) for n, cells in enumerate(isotropy) for h in cells)
