"""Finite groups given by full multiplication tables.

Element 0 is always the identity.  All operations are exact and
deterministic: subgroups, conjugacy classes, cosets and double cosets are
reported through canonical minimal representatives, so repeated runs (and
report fixtures) are byte-stable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd


class GroupError(ValueError):
    """A multiplication table violates the group axioms."""


class GroupParseError(ValueError):
    """A group file does not conform to the grammar."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FiniteGroup:
    """A finite group on elements 0..order-1 with its multiplication table."""

    __slots__ = ("order", "table", "inverses", "name", "_cache")

    def __init__(self, table, name="G", validate=True):
        self.table = tuple(tuple(int(x) for x in row) for row in table)
        self.order = len(self.table)
        self.name = name
        self._cache = {}
        if validate:
            self._validate()
        self.inverses = self._compute_inverses()

    def _validate(self):
        n = self.order
        t = self.table
        if n == 0:
            raise GroupError("empty multiplication table")
        for g, row in enumerate(t):
            if len(row) != n:
                raise GroupError(f"row {g} has {len(row)} entries, expected {n}")
            for h, v in enumerate(row):
                if not 0 <= v < n:
                    raise GroupError(f"entry ({g},{h}) = {v} out of range")
        for g in range(n):
            if t[0][g] != g:
                raise GroupError(f"element 0 is not a left identity at {g}")
            if t[g][0] != g:
                raise GroupError(f"element 0 is not a right identity at {g}")
        for g in range(n):
            if len(set(t[g])) != n:
                raise GroupError(f"row {g} is not a permutation")
            if len({t[h][g] for h in range(n)}) != n:
                raise GroupError(f"column {g} is not a permutation")
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = t[ta[b]]
                tb = t[b]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise GroupError(f"associativity fails at ({a},{b},{c})")

    def _compute_inverses(self):
        inv = []
        for g in range(self.order):
            h = self.table[g].index(0)
            if self.table[h][g] != 0:
                raise GroupError(f"element {g} has no two-sided inverse")
            inv.append(h)
        return tuple(inv)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverses[a]

    def conj(self, g, x):
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inverses[g]]

    def elements(self):
        return range(self.order)

    def element_order(self, g):
        k, x = 1, g
        while x != 0:
            x = self.table[x][g]
            k += 1
        return k

    def exponent(self):
        if "exponent" not in self._cache:
            e = 1
            for g in range(self.order):
                o = self.element_order(g)
                e = e * o // gcd(e, o)
            self._cache["exponent"] = e
        return self._cache["exponent"]

    def is_abelian(self):
        if "abelian" not in self._cache:
            t = self.table
            self._cache["abelian"] = all(
                t[a][b] == t[b][a] for a in range(self.order) for b in range(self.order)
            )
        return self._cache["abelian"]

    def generators(self):
        """A small deterministic generating sequence (greedy closure growth)."""
        if "generators" not in self._cache:
            gens = []
            closure = {0}
            while len(closure) < self.order:
                candidates = [g for g in range(self.order) if g not in closure]
                best = max(candidates, key=lambda g: (self.element_order(g), -g))
                gens.append(best)
                closure = _span(self, closure, gens)
            self._cache["generators"] = tuple(gens)
        return self._cache["generators"]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup stored as the sorted tuple of its element indices."""

    elems: tuple[int, ...]
    group: FiniteGroup = field(compare=False, repr=False, hash=False)

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, g):
        return g in self.elems

    @property
    def order(self):
        return len(self.elems)

    def literal(self):
        return "{" + ",".join(str(e) for e in self.elems) + "}"

    def __repr__(self):
        return f"Subgroup{self.literal()}"


def subgroup(G, elems, validate=True):
    elems = tuple(sorted(set(int(e) for e in elems)))
    if validate:
        if 0 not in elems:
            raise GroupError(f"subgroup {set(elems)} does not contain the identity")
        eset = set(elems)
        for a in elems:
            if G.inverses[a] not in eset:
                raise GroupError(f"subgroup not closed under inverse at element {a}")
            for b in elems:
                if G.table[a][b] not in eset:
                    raise GroupError(f"subgroup not closed under product at ({a},{b})")
        if G.order % len(elems) != 0:
            raise GroupError(f"subgroup size {len(elems)} does not divide {G.order}")
    return Subgroup(elems, G)


def _span(G, base, gens):
    """Elements of <gens>, grown from `base`, a subset of <gens> holding 0.

    Only right multiplication by the generators is needed: in a finite group
    the monoid generated by `gens` is the subgroup, so each element is
    multiplied |gens| times rather than by every element found so far.
    """
    els = set(base)
    frontier = list(els)
    table = G.table
    while frontier:
        nxt = []
        for a in frontier:
            row = table[a]
            for s in gens:
                c = row[s]
                if c not in els:
                    els.add(c)
                    nxt.append(c)
        frontier = nxt
    return els


def generated_subgroup(G, gens):
    return subgroup(G, _span(G, (0,), tuple(gens)), validate=False)


def trivial_subgroup(G):
    return Subgroup((0,), G)


def full_subgroup(G):
    return Subgroup(tuple(range(G.order)), G)


def enumerate_subgroups(G):
    """All subgroups of G, sorted by (order, elements).

    Breadth first from the trivial subgroup: each subgroup H found carries
    the generators it was built from, and <H, g> is spanned from H by those
    generators and g alone. Every g' in the right coset Hg spans the same
    subgroup, so one g per coset of H is tried.
    """
    key = ("subgroups",)
    if key in G._cache:
        return G._cache[key]
    seen = {(0,): trivial_subgroup(G)}
    frontier = [((0,), ())]
    table = G.table
    while frontier:
        nxt = []
        for elems, gens in frontier:
            covered = set(elems)
            for g in range(1, G.order):
                if g in covered:
                    continue
                covered.update(table[h][g] for h in elems)
                new_gens = gens + (g,)
                new = tuple(sorted(_span(G, elems, new_gens)))
                if new not in seen:
                    seen[new] = Subgroup(new, G)
                    nxt.append((new, new_gens))
        frontier = nxt
    subs = tuple(sorted(seen.values(), key=lambda s: (len(s.elems), s.elems)))
    G._cache[key] = subs
    return subs


def subgroup_count_oracle(G):
    """Independent subgroup count: closures of all k-subsets, growing k until stable.

    Its closure multiplies all pairs of elements found so far and shares no
    code with `enumerate_subgroups`.

    The stopping rule is exact.  After step k, `found` holds every subgroup
    generated by at most k elements.  Suppose nothing new appears at k, so
    every subgroup generated by k elements is generated by k - 1.  Take
    L = <g_1, ..., g_(k+1)>: then <g_1, ..., g_k> = <h_1, ..., h_(k-1)>, so
    L = <h_1, ..., h_(k-1), g_(k+1)> is generated by k elements and was found.
    Step k + 1 therefore adds nothing either, and by induction no later step
    does; as every subgroup of a finite group is finitely generated, `found`
    then holds them all.
    """

    def closure(seed):
        els = set(seed) | {0}
        frontier = list(els)
        while frontier:
            nxt = []
            for a in frontier:
                row = G.table[a]
                for b in list(els):
                    for c in (row[b], G.table[b][a]):
                        if c not in els:
                            els.add(c)
                            nxt.append(c)
            frontier = nxt
        return els

    found = {(0,)}
    elems = list(range(G.order))
    k = 1
    while True:
        before = len(found)
        for combo in itertools.combinations(elems, k):
            found.add(tuple(sorted(closure(combo))))
        if len(found) == before and k >= 2:
            return len(found)
        k += 1


def centralizer(G, H):
    """C_G(H) = elements commuting with every element of H."""
    els = [g for g in range(G.order) if all(G.table[g][h] == G.table[h][g] for h in H.elems)]
    return Subgroup(tuple(els), G)


def normalizer(G, H):
    hset = set(H.elems)
    els = [g for g in range(G.order) if {G.conj(g, h) for h in H.elems} == hset]
    return Subgroup(tuple(els), G)


def conjugate_subgroup(G, g, H):
    return Subgroup(tuple(sorted(G.conj(g, h) for h in H.elems)), G)


def product_subgroup(G, A, B):
    """A*B as a subgroup (caller guarantees the product set is one)."""
    prod = {G.table[a][b] for a in A.elems for b in B.elems}
    return subgroup(G, prod)


@dataclass(frozen=True)
class WeylGroup:
    """W = N_G(H) / (H * C_G(H)), as a multiplication-table group.

    `coset_reps[i]` is the minimal element of the coset mapping to Weyl
    element i; `to_weyl` sends each element of N_G(H) to its Weyl index.
    """

    group: FiniteGroup
    normalizer: Subgroup
    hc: Subgroup
    coset_reps: tuple[int, ...]
    to_weyl: dict

    @property
    def order(self):
        return self.group.order


def weyl_group(G, H):
    N = normalizer(G, H)
    C = centralizer(G, H)
    HC = product_subgroup(G, H, C)
    hc = set(HC.elems)
    if any(n not in N.elems for n in HC.elems):
        raise GroupError("H*C_G(H) is not contained in N_G(H)")
    cosets = {}
    for n in N.elems:
        key = min(G.table[n][h] for h in hc)
        cosets.setdefault(key, []).append(n)
    reps = tuple(sorted(cosets))
    index = {rep: i for i, rep in enumerate(reps)}
    to_weyl = {}
    for rep, members in cosets.items():
        for n in members:
            to_weyl[n] = index[rep]
    table = [
        [to_weyl[G.table[a][b]] for b in reps]
        for a in reps
    ]
    W = FiniteGroup(table, name=f"W_{G.name}({H.literal()})")
    return WeylGroup(W, N, HC, reps, to_weyl)


@dataclass(frozen=True)
class ElementClass:
    rep: int
    members: tuple[int, ...]


def element_conjugacy_classes(G):
    if "elem_classes" in G._cache:
        return G._cache["elem_classes"]
    seen = set()
    classes = []
    for x in range(G.order):
        if x in seen:
            continue
        orbit = sorted({G.conj(g, x) for g in range(G.order)})
        seen.update(orbit)
        classes.append(ElementClass(orbit[0], tuple(orbit)))
    classes = tuple(sorted(classes, key=lambda c: c.rep))
    G._cache["elem_classes"] = classes
    return classes


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    left: Subgroup
    right: Subgroup
    representatives: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]


def double_cosets(G, K, H):
    """Partition of G into double cosets KgH, with minimal representatives."""
    remaining = set(range(G.order))
    cells = []
    while remaining:
        g = min(remaining)
        cell = sorted({G.table[G.table[k][g]][h] for k in K.elems for h in H.elems})
        remaining.difference_update(cell)
        cells.append(tuple(cell))
    cells.sort(key=lambda c: c[0])
    return DoubleCosetDecomposition(
        left=K, right=H, representatives=tuple(c[0] for c in cells), cosets=tuple(cells)
    )


@dataclass(frozen=True)
class SubgroupClass:
    rep: Subgroup
    members: tuple[Subgroup, ...]
    conjugators: dict  # member elems -> minimal g with g*rep*g^-1 = member
    normalizer: Subgroup
    centralizer: Subgroup
    weyl: WeylGroup


class SubgroupClassTable:
    """Conjugacy classes of subgroups with normalizer/centralizer/Weyl data."""

    def __init__(self, G):
        self.group = G
        subs = enumerate_subgroups(G)
        by_elems = {s.elems: s for s in subs}
        assigned = set()
        classes = []
        for s in subs:
            if s.elems in assigned:
                continue
            # g ascends, so members[m] is the minimal g with g*s*g^-1 = m
            members = {}
            for g in range(G.order):
                cs = conjugate_subgroup(G, g, s)
                if cs.elems not in members:
                    members[cs.elems] = g
            member_subs = tuple(sorted((by_elems[e] for e in members), key=lambda t: t.elems))
            rep = member_subs[0]
            # subs is sorted and classes are disjoint, so s is its class's minimum
            assert s == rep
            assigned.update(members)
            classes.append((rep, member_subs, members))
        classes.sort(key=lambda c: (len(c[0].elems), c[0].elems))
        built = []
        for rep, members, conjugators in classes:
            built.append(
                SubgroupClass(
                    rep=rep,
                    members=members,
                    conjugators=conjugators,
                    normalizer=normalizer(G, rep),
                    centralizer=centralizer(G, rep),
                    weyl=weyl_group(G, rep),
                )
            )
        self.classes = tuple(built)
        self._index = {}
        for i, cls in enumerate(self.classes):
            for m in cls.members:
                self._index[m.elems] = i

    def __len__(self):
        return len(self.classes)

    def class_of(self, sub):
        return self._index[sub.elems]

    def rep(self, i):
        return self.classes[i].rep

    def transport(self, sub):
        """(class index, minimal t with t * rep * t^-1 = sub)."""
        i = self._index[sub.elems]
        return i, self.classes[i].conjugators[sub.elems]


def subgroup_conjugacy_classes(G):
    key = ("classtable",)
    if key not in G._cache:
        G._cache[key] = SubgroupClassTable(G)
    return G._cache[key]


@dataclass(frozen=True)
class SubgroupView:
    """A subgroup reindexed as a standalone group, with element translation."""

    group: FiniteGroup
    to_parent: tuple[int, ...]
    from_parent: dict


def as_group(sub):
    key = ("as_group", sub.elems)
    G = sub.group
    if key in G._cache:
        return G._cache[key]
    to_parent = sub.elems  # sorted, so local 0 is the parent identity
    from_parent = {p: i for i, p in enumerate(to_parent)}
    table = [
        [from_parent[G.table[a][b]] for b in to_parent]
        for a in to_parent
    ]
    # group axioms are inherited from the parent table
    H = FiniteGroup(table, name=f"{G.name}|{sub.literal()}", validate=False)
    view = SubgroupView(H, to_parent, from_parent)
    G._cache[key] = view
    return view


def find_isomorphism(A, B):
    """An isomorphism A -> B as an image list, or None.

    Deterministic backtracking over images of a greedy generating sequence of
    A; candidates are filtered by element order and each complete candidate is
    verified against the full multiplication tables.
    """
    if A.order != B.order:
        return None
    gens = A.generators() if A.order > 1 else ()
    if A.order == 1:
        return [0]
    orders_b = {}
    for b in range(B.order):
        orders_b.setdefault(B.element_order(b), []).append(b)

    def extend(idx, images):
        if idx == len(gens):
            phi = _build_hom(A, B, gens, images)
            if phi is not None and len(set(phi)) == A.order:
                return phi
            return None
        g = gens[idx]
        for b in orders_b.get(A.element_order(g), ()):
            result = extend(idx + 1, images + [b])
            if result is not None:
                return result
        return None

    return extend(0, [])


def _build_hom(A, B, gens, images):
    phi = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g, img in zip(gens, images):
                ag = A.table[a][g]
                bg = B.table[phi[a]][img]
                if ag in phi:
                    if phi[ag] != bg:
                        return None
                else:
                    phi[ag] = bg
                    nxt.append(ag)
        frontier = nxt
    if len(phi) != A.order:
        return None
    out = [phi[a] for a in range(A.order)]
    for a in range(A.order):
        for b in range(A.order):
            if out[A.table[a][b]] != B.table[out[a]][out[b]]:
                return None
    return out


def parse_int(token, what, error, lineno):
    """int(token); a token that is not an integer raises `error` naming the
    line and what the token stands for."""
    try:
        return int(token)
    except ValueError:
        raise error(f"line {lineno}: bad {what} {token!r}") from None


def parse_subgroup_on_line(text, G, error, lineno):
    """parse_subgroup_literal(text, G); a bad literal raises `error` naming
    the line."""
    try:
        return parse_subgroup_literal(text, G)
    except (GroupParseError, GroupError) as exc:
        raise error(f"line {lineno}: {exc}") from None


def parse_subgroup_literal(text, G):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise GroupParseError(f"bad subgroup literal {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise GroupParseError("empty subgroup literal")
    try:
        elems = [int(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise GroupParseError(f"bad subgroup literal {text!r}: {exc}") from None
    for e in elems:
        if not 0 <= e < G.order:
            raise GroupParseError(f"subgroup element {e} out of range for {G.name}")
    return subgroup(G, elems)


def parse_group(text, name=None):
    """Parse the line-oriented group file format.

    Grammar: `group <name>`, `order <n>`, then n rows of n element indices.
    `#` starts a comment.
    """
    rows = []
    header_name = None
    order = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header_name is None:
            parts = line.split(None, 1)
            if parts[0] != "group" or len(parts) != 2:
                raise GroupParseError("expected `group <name>`", line=lineno)
            header_name = parts[1].strip()
            continue
        if order is None:
            parts = line.split()
            if parts[0] != "order" or len(parts) != 2:
                raise GroupParseError("expected `order <n>`", line=lineno)
            try:
                order = int(parts[1])
            except ValueError:
                raise GroupParseError(f"bad order {parts[1]!r}", line=lineno) from None
            if order <= 0:
                raise GroupParseError(f"order must be positive, got {order}", line=lineno)
            continue
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise GroupParseError(f"bad table row {line!r}", line=lineno) from None
        if len(row) != order:
            raise GroupParseError(
                f"table row has {len(row)} entries, expected {order}", line=lineno
            )
        rows.append(row)
    if header_name is None:
        raise GroupParseError("missing `group` header")
    if order is None:
        raise GroupParseError("missing `order` line")
    if len(rows) != order:
        raise GroupParseError(f"expected {order} table rows, found {len(rows)}")
    return FiniteGroup(rows, name=name or header_name)


def format_group(G):
    lines = [f"group {G.name}", f"order {G.order}"]
    for row in G.table:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
