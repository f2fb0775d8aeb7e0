"""Finite EI-categories on subgroup classes and their module calculus.

Two categories are built for a finite group G, both skeletal on subgroup
conjugacy-class representatives:

* the orbit category: objects G/H, morphisms the G-maps eH -> aK (stored by
  the canonical minimal element of the coset aK, valid iff a^-1 H a <= K);
* the subgroup category: objects H, morphisms the conjugation-induced
  injections c(g): H -> K modulo inner automorphisms of K (stored by the
  minimal element of the double coset K g C_G(H)).

The morphisms between two objects are enumerated in one ascending pass over
G: each coset aK (or double coset K g C_G(H)) is marked covered when first
met, so the element that opens it is its minimal representative, and the
validity test, constant on the coset, runs once per coset.

Contravariant modules over these categories are functors into Q-vector
spaces; a morphism f: c -> d is stored as the matrix M(f): M(d) -> M(c).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import FiniteGroup, centralizer, subgroup_conjugacy_classes
from .qlinalg import (
    GroupAction,
    RationalMatrix,
    averaging_projector,
    block_matrix,
    hstack,
    induced_action,
    vstack,
)


class CategoryError(ValueError):
    pass


@dataclass(frozen=True)
class Mor:
    """A canonical morphism between skeleton objects (indices into cat.objects)."""

    src: int
    dst: int
    rep: int


def _cached_centralizer(G, sub):
    key = ("centralizer", sub.elems)
    if key not in G._cache:
        G._cache[key] = centralizer(G, sub)
    return G._cache[key]


# morphism helpers on raw subgroups (shared by the categories, gcw and bredon)

def sub_valid_raw(G, src, dst, g):
    dset = set(dst.elems)
    return all(G.conj(g, h) in dset for h in src.elems)


def sub_canon_raw(G, src, dst, g):
    """Minimal element of the double coset dst * g * C_G(src)."""
    C = _cached_centralizer(G, src)
    return min(G.mul(G.mul(k, g), c) for k in dst.elems for c in C.elems)


def sub_mors_raw(G, src, dst):
    """Canonical reps of mor_Sub(src, dst): the minima of the valid double
    cosets dst * g * C_G(src), in one ascending pass over G."""
    C = _cached_centralizer(G, src)
    t = G.table
    covered = set()
    out = []
    for g in range(G.order):
        if g in covered:
            continue
        covered.update(t[t[k][g]][c] for k in dst.elems for c in C.elems)
        if sub_valid_raw(G, src, dst, g):
            out.append(g)
    return tuple(out)


def or_valid_raw(G, src, dst, a):
    dset = set(dst.elems)
    ai = G.inv(a)
    return all(G.mul(G.mul(ai, h), a) in dset for h in src.elems)


def or_canon_raw(G, dst, a):
    return min(G.mul(a, k) for k in dst.elems)


def or_mors_raw(G, src, dst):
    """Canonical reps of mor_Or(G/src, G/dst): the minima of the valid cosets
    a * dst, in one ascending pass over G."""
    t = G.table
    covered = set()
    out = []
    for a in range(G.order):
        if a in covered:
            continue
        covered.update(t[a][k] for k in dst.elems)
        if or_valid_raw(G, src, dst, a):
            out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class AutData:
    """Automorphism group of an object, with the morphism <-> element bijection."""

    group: FiniteGroup
    mor_of: tuple  # element index -> Mor
    index_of: dict  # Mor -> element index


class EICategory:
    """A skeletal finite EI-category on subgroup class representatives."""

    def __init__(self, G, kind):
        if kind not in ("sub", "or"):
            raise CategoryError(f"unknown category kind {kind!r}")
        self.group = G
        self.kind = kind
        self.class_table = subgroup_conjugacy_classes(G)
        self.objects = tuple(c.rep for c in self.class_table.classes)
        self._object_index = {o.elems: i for i, o in enumerate(self.objects)}
        self.mors = {}
        self.mor_index = {}
        for i, src in enumerate(self.objects):
            for j, dst in enumerate(self.objects):
                reps = (
                    sub_mors_raw(G, src, dst)
                    if kind == "sub"
                    else or_mors_raw(G, src, dst)
                )
                lst = tuple(Mor(i, j, r) for r in reps)
                self.mors[(i, j)] = lst
                for pos, m in enumerate(lst):
                    self.mor_index[m] = pos
        self._compose = {}
        for (i, j), fs in self.mors.items():
            for k in range(len(self.objects)):
                gs = self.mors[(j, k)]
                for f in fs:
                    for g in gs:
                        self._compose[(f, g)] = self._raw_then(f, g)
        self._identities = tuple(
            self.canon_mor(i, i, 0) for i in range(len(self.objects))
        )
        self._aut = {}

    def object_index(self, sub):
        return self._object_index[sub.elems]

    def canon_mor(self, i, j, rep):
        G = self.group
        if self.kind == "sub":
            r = sub_canon_raw(G, self.objects[i], self.objects[j], rep)
        else:
            r = or_canon_raw(G, self.objects[j], rep)
        return Mor(i, j, r)

    def _raw_then(self, f, g):
        """f: a -> b followed by g: b -> c."""
        if f.dst != g.src:
            raise CategoryError("morphisms are not composable")
        G = self.group
        if self.kind == "sub":
            rep = G.mul(g.rep, f.rep)
        else:
            rep = G.mul(f.rep, g.rep)
        return self.canon_mor(f.src, g.dst, rep)

    def then(self, f, g):
        return self._compose[(f, g)]

    def identity(self, i):
        return self._identities[i]

    def is_iso(self, f):
        return f.src == f.dst

    def all_mors(self):
        for lst in self.mors.values():
            yield from lst

    def aut(self, i):
        """The automorphism group of object i as an AutData."""
        if i in self._aut:
            return self._aut[i]
        G = self.group
        endos = self.mors[(i, i)]
        if self.kind == "sub":
            weyl = self.class_table.classes[i].weyl
            mor_of = []
            for w in range(weyl.order):
                mor_of.append(self.canon_mor(i, i, weyl.coset_reps[w]))
            if sorted(set(mor_of), key=lambda m: m.rep) != sorted(endos, key=lambda m: m.rep):
                raise CategoryError(
                    f"aut({self.objects[i].literal()}) does not match the Weyl group"
                )
            aut_group = weyl.group
        else:
            # aut(G/H) is N_G(H)/H; the element-index table is built opposite
            # to coset multiplication so that, as in the Sub case,
            # then(mor_of[a], mor_of[b]) = mor_of[b * a] (composition order)
            H = self.objects[i]
            N = self.class_table.classes[i].normalizer
            cosets = {}
            for n in N.elems:
                key = min(G.mul(n, h) for h in H.elems)
                cosets.setdefault(key, []).append(n)
            reps = tuple(sorted(cosets))
            index = {r: k for k, r in enumerate(reps)}
            to_coset = {}
            for r, members in cosets.items():
                for n in members:
                    to_coset[n] = index[r]
            table = [[to_coset[G.mul(b, a)] for b in reps] for a in reps]
            aut_group = FiniteGroup(table, name=f"N/H({H.literal()})", validate=False)
            mor_of = [self.canon_mor(i, i, r) for r in reps]
            if sorted(set(mor_of), key=lambda m: m.rep) != sorted(endos, key=lambda m: m.rep):
                raise CategoryError("aut(G/H) does not match N_G(H)/H")
        # invariant used throughout the module calculus: element multiplication
        # mirrors composition via then(mor_of[a], mor_of[b]) = mor_of[b * a]
        for a in range(aut_group.order):
            for b in range(aut_group.order):
                if self.then(mor_of[a], mor_of[b]) != mor_of[aut_group.mul(b, a)]:
                    raise CategoryError(
                        f"aut({self.objects[i].literal()}) element table does not "
                        f"mirror composition"
                    )
        data = AutData(aut_group, tuple(mor_of), {m: w for w, m in enumerate(mor_of)})
        self._aut[i] = data
        return data

    def validate(self):
        n = len(self.objects)
        for i in range(n):
            ident = self.identity(i)
            for j in range(n):
                for f in self.mors[(i, j)]:
                    if self.then(ident, f) != f:
                        raise CategoryError(f"left identity fails for {f}")
                for f in self.mors[(j, i)]:
                    if self.then(f, ident) != f:
                        raise CategoryError(f"right identity fails for {f}")
        for (i, j) in self.mors:
            for k in range(n):
                for l in range(n):
                    for f in self.mors[(i, j)]:
                        for g in self.mors[(j, k)]:
                            fg = self.then(f, g)
                            for h in self.mors[(k, l)]:
                                if self.then(fg, h) != self.then(f, self.then(g, h)):
                                    raise CategoryError(
                                        f"associativity fails at {f}, {g}, {h}"
                                    )
        # every endomorphism is an isomorphism
        for i in range(n):
            for f in self.mors[(i, i)]:
                if not any(
                    self.then(f, g) == self.identity(i) and self.then(g, f) == self.identity(i)
                    for g in self.mors[(i, i)]
                ):
                    raise CategoryError(f"endomorphism {f} is not invertible")
        if self.kind == "sub":
            self._validate_sub_counts()
        return self

    def _validate_sub_counts(self):
        """|mor(H,K)| must match an independent count of conjugation maps mod Inn(K)."""
        G = self.group
        for i, H in enumerate(self.objects):
            for j, K in enumerate(self.objects):
                kset = set(K.elems)
                maps = set()
                for g in range(G.order):
                    img = tuple(G.conj(g, h) for h in H.elems)
                    if all(x in kset for x in img):
                        maps.add(img)
                remaining = set(maps)
                count = 0
                while remaining:
                    f = min(remaining)
                    orbit = {tuple(G.conj(k, x) for x in f) for k in K.elems}
                    remaining.difference_update(orbit)
                    count += 1
                if count != len(self.mors[(i, j)]):
                    raise CategoryError(
                        f"|mor({H.literal()},{K.literal()})| = {len(self.mors[(i, j)])} "
                        f"disagrees with independent count {count}"
                    )


def build_sub_category(G):
    key = ("sub_category",)
    if key not in G._cache:
        G._cache[key] = EICategory(G, "sub").validate()
    return G._cache[key]


def build_or_category(G):
    key = ("or_category",)
    if key not in G._cache:
        G._cache[key] = EICategory(G, "or").validate()
    return G._cache[key]


def project_or_to_sub(or_cat, sub_cat, f):
    """The projection Or(G,F) -> Sub(G,F): eH -> aK goes to c(a^-1): H -> K."""
    G = or_cat.group
    return sub_cat.canon_mor(f.src, f.dst, G.inv(f.rep))


def extended_sub_mor(cat, src, dst, g):
    """The skeleton morphism for c(g): src -> dst between arbitrary subgroups.

    Both subgroups are transported to their class representatives via the
    class-table conjugators, so c(g) becomes c(t_dst^-1 g t_src).
    """
    G = cat.group
    ct = cat.class_table
    i, t_src = ct.transport(src)
    j, t_dst = ct.transport(dst)
    rep = G.mul(G.mul(G.inv(t_dst), g), t_src)
    return cat.canon_mor(i, j, rep)


@dataclass
class CatModule:
    """A contravariant functor to Q-vector spaces: f: c -> d gives M(f): M(d) -> M(c)."""

    cat: EICategory
    dims: tuple
    maps: dict  # Mor -> RationalMatrix
    name: str = "M"

    def dim(self, i):
        return self.dims[i]

    def map(self, f):
        return self.maps[f]

    def total_dim(self):
        return sum(self.dims)

    def validate(self):
        cat = self.cat
        n = len(cat.objects)
        if len(self.dims) != n:
            raise CategoryError("module has wrong number of spaces")
        for f in cat.all_mors():
            m = self.maps[f]
            if m.rows != self.dims[f.src] or m.cols != self.dims[f.dst]:
                raise CategoryError(f"map for {f} has wrong shape")
        for i in range(n):
            if not self.maps[cat.identity(i)].is_identity():
                raise CategoryError(f"module map at identity of object {i} is not the identity")
        for (i, j), fs in cat.mors.items():
            for k in range(n):
                for f in fs:
                    for g in cat.mors[(j, k)]:
                        if self.maps[cat.then(f, g)] != self.maps[f].mul(self.maps[g]):
                            raise CategoryError(
                                f"functoriality fails at {f} then {g}"
                            )
        return self

    def action_at(self, i):
        """The left aut-action on M(object i): w acts by M(w^-1)."""
        aut = self.cat.aut(i)
        W = aut.group
        mats = tuple(self.maps[aut.mor_of[W.inv(w)]] for w in range(W.order))
        return GroupAction(W, self.dims[i], mats)

    def is_zero(self):
        return all(d == 0 for d in self.dims)


@dataclass
class CatModuleMap:
    """A natural transformation between contravariant modules."""

    source: CatModule
    target: CatModule
    components: tuple  # per object, RationalMatrix source(x) -> target(x)

    def validate(self):
        for f in self.cat.all_mors():
            lhs = self.components[f.src].mul(self.source.maps[f])
            rhs = self.target.maps[f].mul(self.components[f.dst])
            if lhs != rhs:
                raise CategoryError(f"naturality fails at {f}")
        return self

    @property
    def cat(self):
        return self.source.cat


def zero_module(cat):
    dims = tuple(0 for _ in cat.objects)
    maps = {f: RationalMatrix.zero(0, 0) for f in cat.all_mors()}
    return CatModule(cat, dims, maps, name="0")


def free_module(cat, c):
    """Q mor(?, c): dimensions |mor(x, c)|, maps by precomposition."""
    dims = tuple(len(cat.mors[(x, c)]) for x in range(len(cat.objects)))
    maps = {}
    for f in cat.all_mors():
        src_basis = cat.mors[(f.src, c)]
        dst_basis = cat.mors[(f.dst, c)]
        idx = {m: p for p, m in enumerate(src_basis)}
        mat = [[Fraction(0)] * len(dst_basis) for _ in range(len(src_basis))]
        for col, phi in enumerate(dst_basis):
            mat[idx[cat.then(f, phi)]][col] = Fraction(1)
        maps[f] = RationalMatrix(len(src_basis), len(dst_basis), mat)
    return CatModule(cat, dims, maps, name=f"free({cat.objects[c].literal()})")


def direct_sum(modules):
    modules = list(modules)
    if not modules:
        raise CategoryError("direct_sum of no modules")
    cat = modules[0].cat
    dims = tuple(sum(m.dims[i] for m in modules) for i in range(len(cat.objects)))
    maps = {}
    for f in cat.all_mors():
        blocks = {}
        for k, m in enumerate(modules):
            blocks[(k, k)] = m.maps[f]
        maps[f] = block_matrix(
            blocks,
            [m.dims[f.src] for m in modules],
            [m.dims[f.dst] for m in modules],
        )
    return CatModule(cat, dims, maps, name="(+)".join(m.name for m in modules))


def hom_over_category(M, N):
    """A basis of the natural transformations M => N."""
    if M.cat is not N.cat:
        raise CategoryError("hom over different categories")
    cat = M.cat
    nobj = len(cat.objects)
    offsets = []
    total = 0
    for x in range(nobj):
        offsets.append(total)
        total += N.dims[x] * M.dims[x]
    rows = []
    for f in cat.all_mors():
        x, y = f.src, f.dst
        Mf, Nf = M.maps[f], N.maps[f]
        # constraint: t_x . M(f) = N(f) . t_y   (both N(x) x M(y))
        for i in range(N.dims[x]):
            for j in range(M.dims[y]):
                row = [Fraction(0)] * total
                for l in range(M.dims[x]):
                    row[offsets[x] + i * M.dims[x] + l] += Mf.data[l][j]
                for k in range(N.dims[y]):
                    row[offsets[y] + k * M.dims[y] + j] -= Nf.data[i][k]
                rows.append(row)
    system = RationalMatrix(len(rows), total, rows) if rows else RationalMatrix.zero(0, total)
    basis = system.kernel_basis()
    out = []
    for vec in basis:
        comps = []
        for x in range(nobj):
            mat = [
                [vec[offsets[x] + i * M.dims[x] + l] for l in range(M.dims[x])]
                for i in range(N.dims[x])
            ]
            comps.append(RationalMatrix(N.dims[x], M.dims[x], mat))
        out.append(CatModuleMap(M, N, tuple(comps)))
    return out


@dataclass
class TSplitting:
    """T_c M: joint kernel of all non-isomorphisms into c, with its aut-action."""

    object: int
    action: GroupAction
    basis: RationalMatrix  # columns, in M(c)-coordinates


@dataclass
class SSplitting:
    """S_c M: cokernel of all non-isomorphisms out of c, with its aut-action."""

    object: int
    action: GroupAction
    reps: RationalMatrix  # columns: unit-vector representatives in M(c)
    image: RationalMatrix  # columns spanning the image being killed


def splitting_T(M, c):
    cat = M.cat
    stack = [
        M.maps[f]
        for d in range(len(cat.objects))
        for f in cat.mors[(d, c)]
        if not cat.is_iso(f)
    ]
    n = M.dims[c]
    if stack:
        big = vstack(stack)
    else:
        big = RationalMatrix.zero(0, n)
    kernel = big.kernel_basis()
    basis = RationalMatrix.from_columns(kernel, dim=n)
    empty = RationalMatrix.zero(n, 0)
    return TSplitting(c, induced_action(M.action_at(c), basis, empty), basis)


def splitting_S(M, c):
    cat = M.cat
    pieces = [
        M.maps[f]
        for d in range(len(cat.objects))
        for f in cat.mors[(c, d)]
        if not cat.is_iso(f)
    ]
    n = M.dims[c]
    combined = hstack(pieces) if pieces else RationalMatrix.zero(n, 0)
    image = RationalMatrix.from_columns(combined.image_basis(), dim=n)
    reps = RationalMatrix.from_columns(combined.cokernel_basis(), dim=n)
    return SSplitting(c, induced_action(M.action_at(c), reps, image), reps, image)


@dataclass
class OrbitInfo:
    rep: Mor
    stab: tuple  # aut-element indices stabilizing rep
    projector: RationalMatrix  # averaging over stab on V
    basis: RationalMatrix  # columns: basis of V^stab (dim V x k)


def _orbit_decomposition(W, V, morlist, act_fn):
    """Orbits of aut-group elements acting on a morphism list via act_fn(w, mor),
    each with its stabilizer's averaging projector on V and fixed-space basis,
    and the lookup m -> (orbit index, w) with m = act_fn(w, orbit rep)."""
    remaining = set(morlist)
    orbits = []
    lookup = {}
    while remaining:
        rep = min(remaining, key=lambda m: m.rep)
        stab = []
        seen = {}
        for w in range(W.order):
            moved = act_fn(w, rep)
            if moved == rep:
                stab.append(w)
            if moved not in seen:
                seen[moved] = w
        remaining.difference_update(seen)
        for m, w in seen.items():
            lookup[m] = (len(orbits), w)
        P = averaging_projector(V, stab)
        basis = RationalMatrix.from_columns(P.image_basis(), dim=V.dim)
        orbits.append(OrbitInfo(rep, tuple(stab), P, basis))
    return orbits, lookup


def _block_dims(infos):
    return [info.basis.cols for info in infos]


class Coinduction:
    """i(c)_! V: value at x is hom_{aut(c)}(Q mor(c,x), V).

    Bases are indexed per aut(c)-orbit of mor(c, x) (action by precomposition
    with w^-1) by an invariant basis of V^{stab}.
    """

    def __init__(self, cat, c, V):
        self.cat = cat
        self.c = c
        self.V = V
        aut = cat.aut(c)
        W = aut.group

        def _pre(w, m):
            # pi(w)(phi) = phi o w^-1
            return cat.then(aut.mor_of[W.inv(w)], m)

        self.orbit_data, self.lookup = zip(*(
            _orbit_decomposition(W, V, cat.mors[(c, x)], _pre) for x in range(len(cat.objects))
        ))
        dims = tuple(sum(_block_dims(infos)) for infos in self.orbit_data)
        maps = {f: self._value_map(f) for f in cat.all_mors()}
        self.module = CatModule(cat, dims, maps, name=f"coind({c})")

    def _value_map(self, u):
        """(i_! V)(u): value(dst) -> value(src) for u: src -> dst."""
        cat, V = self.cat, self.V
        src_infos = self.orbit_data[u.src]
        dst_infos = self.orbit_data[u.dst]
        blocks = {}
        for i, info in enumerate(src_infos):
            target = cat.then(info.rep, u)  # u o phi_O in mor(c, u.dst)
            o_idx, w = self.lookup[u.dst][target]
            # lambda(u o phi_O) = rho_V(w) . lambda(rep_{O'})
            rhs = V.mats[w].mul(dst_infos[o_idx].basis)
            blocks[(i, o_idx)] = info.basis.solve(rhs)
        return block_matrix(blocks, _block_dims(src_infos), _block_dims(dst_infos))

    def eval_matrix(self, M, rho, x):
        """The adjoint of rho: M(c) -> V at object x: m -> (phi -> rho(M(phi) m))."""
        blocks = [info.basis.solve(rho.mul(M.maps[info.rep])) for info in self.orbit_data[x]]
        if blocks:
            return vstack(blocks)
        return RationalMatrix.zero(0, M.dims[x])


class Induction:
    """i(c)_* V: value at x is V tensor_{Q[aut(c)]} Q mor(x, c).

    Orbits of mor(x, c) are taken under postcomposition; coinvariants of each
    stabilizer are represented by their invariant images under averaging.
    """

    def __init__(self, cat, c, V):
        self.cat = cat
        self.c = c
        self.V = V
        aut = cat.aut(c)
        W = aut.group

        def _post(w, m):
            # act(w)(phi) = w o phi
            return cat.then(m, aut.mor_of[w])

        self.orbit_data, self.lookup = zip(*(
            _orbit_decomposition(W, V, cat.mors[(x, c)], _post) for x in range(len(cat.objects))
        ))
        dims = tuple(sum(_block_dims(infos)) for infos in self.orbit_data)
        maps = {f: self._value_map(f) for f in cat.all_mors()}
        self.module = CatModule(cat, dims, maps, name=f"ind({c})")

    def _value_map(self, u):
        """(i_* V)(u): value(dst) -> value(src) for u: src -> dst (precompose morphisms)."""
        cat, V = self.cat, self.V
        W = cat.aut(self.c).group
        src_infos = self.orbit_data[u.src]
        dst_infos = self.orbit_data[u.dst]
        blocks = {}
        for j, dst_info in enumerate(dst_infos):
            target = cat.then(u, dst_info.rep)  # psi_{O'} o u in mor(u.src, c)
            o_idx, w = self.lookup[u.src][target]
            src_info = src_infos[o_idx]
            rhs = src_info.projector.mul(V.mats[W.inv(w)].mul(dst_info.basis))
            blocks[(o_idx, j)] = src_info.basis.solve(rhs)
        return block_matrix(blocks, _block_dims(src_infos), _block_dims(dst_infos))


def coinduction(cat, c, V):
    return Coinduction(cat, c, V)


def induction(cat, c, V):
    return Induction(cat, c, V)


def restriction_along_pr(sub_module, or_cat):
    """Pull a Sub(G,F)-module back to Or(G,F) along the projection functor."""
    sub_cat = sub_module.cat
    maps = {}
    for f in or_cat.all_mors():
        maps[f] = sub_module.maps[project_or_to_sub(or_cat, sub_cat, f)]
    return CatModule(or_cat, sub_module.dims, maps, name=f"pr^*{sub_module.name}")


def retraction_rho(M, c, tsplit=None):
    """An aut(c)-equivariant retraction rho: M(c) -> T_c M with rho o incl = id.

    Built from the coordinate projection onto the kernel's free coordinates,
    then averaged over aut(c).
    """
    if tsplit is None:
        tsplit = splitting_T(M, c)
    n = M.dims[c]
    k = tsplit.basis.cols
    # free coordinates: each RREF kernel vector has a unit coordinate of its own
    free_rows = []
    for j in range(k):
        col = tsplit.basis.column(j)
        pivot = next(
            i for i in range(n)
            if col[i] == 1 and all(tsplit.basis.data[i][l] == 0 for l in range(k) if l != j)
        )
        free_rows.append(pivot)
    r0 = RationalMatrix(
        k, n, [[1 if i == free_rows[row] else 0 for i in range(n)] for row in range(k)]
    )
    act = M.action_at(c)
    W = act.group
    acc = RationalMatrix.zero(k, n)
    for w in range(W.order):
        t_inv = tsplit.action.mats[W.inv(w)]
        acc = acc.add(t_inv.mul(r0).mul(act.mats[w]))
    rho = acc.scale(Fraction(1, W.order))
    if rho.mul(tsplit.basis) != RationalMatrix.identity(k):
        raise CategoryError("retraction does not restrict to the identity on T_c M")
    for w in range(W.order):
        if rho.mul(act.mats[w]) != tsplit.action.mats[w].mul(rho):
            raise CategoryError("retraction is not equivariant")
    return rho


@dataclass
class NuVerdict:
    injective: bool
    bijective: bool
    dim_source: int
    dim_target: int


@dataclass
class NuMap:
    module: CatModule
    target: CatModule
    map: CatModuleMap
    verdicts: tuple  # per object
    splittings: tuple  # per class index: TSplitting
    retractions: tuple  # per class index: RationalMatrix
    coinductions: tuple  # per class index: Coinduction

    def all_injective(self):
        return all(v.injective for v in self.verdicts)

    def all_bijective(self):
        return all(v.bijective for v in self.verdicts)


def nu_map(M):
    """The canonical map nu(M): M -> prod_c i(c)_! T_c M, with verdicts."""
    cat = M.cat
    nobj = len(cat.objects)
    splittings, retractions, coinds = [], [], []
    for c in range(nobj):
        t = splitting_T(M, c)
        rho = retraction_rho(M, c, t)
        splittings.append(t)
        retractions.append(rho)
        coinds.append(Coinduction(cat, c, t.action))
    target = direct_sum([ci.module for ci in coinds])
    components = []
    for x in range(nobj):
        blocks = [ci.eval_matrix(M, rho, x) for ci, rho in zip(coinds, retractions)]
        components.append(vstack(blocks))
    numap = CatModuleMap(M, target, tuple(components)).validate()
    verdicts = []
    for x in range(nobj):
        comp = components[x]
        injective = len(comp.kernel_basis()) == 0
        bijective = injective and comp.rows == comp.cols
        verdicts.append(NuVerdict(injective, bijective, comp.cols, comp.rows))
    return NuMap(
        module=M,
        target=target,
        map=numap,
        verdicts=tuple(verdicts),
        splittings=tuple(splittings),
        retractions=tuple(retractions),
        coinductions=tuple(coinds),
    )


@dataclass
class SplittingIdentityReport:
    c: int
    d: int
    s_of_ind_character: tuple
    t_of_coind_character: tuple
    v_character: tuple
    ok: bool
    detail: str


def check_splitting_identities(cat, c, d, V):
    """S_d(i(c)_* V) and T_d(i(c)_! V): isomorphic to V if d == c, zero otherwise."""
    ind = Induction(cat, c, V)
    s = splitting_S(ind.module, d)
    coind = Coinduction(cat, c, V)
    t = splitting_T(coind.module, d)
    s_char = s.action.character()
    t_char = t.action.character()
    v_char = V.character()
    if c == d:
        ok = s_char == v_char and t_char == v_char
        detail = "identity equivalences" if ok else (
            f"characters differ: S={s_char}, T={t_char}, V={v_char}"
        )
    else:
        ok = s.action.dim == 0 and t.action.dim == 0
        detail = "vanishing" if ok else (
            f"expected zero, got dims S={s.action.dim}, T={t.action.dim}"
        )
    return SplittingIdentityReport(c, d, s_char, t_char, v_char, ok, detail)
