"""Mackey functors on the subgroups of a fixed finite group.

A functor is stored on subgroup-class representatives only: per class a value
dimension, the covariant conjugation action of the normalizer (factoring
through the Weyl group), and restriction/induction matrices for the actual
subgroups of each representative.  Every morphism c(g): H -> K is derived
from this canonical data by class-representative transport, which makes
well-definedness a checked property rather than a storage convention.

Built-in instances: the constant functor, the rational Burnside ring, and the
rational complex representation ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chartab import character_table_for_subgroup
from .cyclotomic import weighted_sum
from .data import bundled_chartabs
from .eicat import CatModule, _cached_centralizer, build_sub_category, nu_map
from .groups import (
    Subgroup,
    as_group,
    conjugate_subgroup,
    double_cosets,
    element_conjugacy_classes,
    enumerate_subgroups,
    normalizer,
    parse_int,
    parse_subgroup_on_line,
    subgroup,
    subgroup_conjugacy_classes,
)
from .qlinalg import GroupAction, LinAlgError, RationalMatrix, joint_kernel


class MackeyError(ValueError):
    pass


class MackeyFunctor:
    """Mackey-functor data in class-representative coordinates.

    `incl_res_fn(L, j)` and `incl_ind_fn(L, j)` supply the matrices for the
    inclusion L <= rep_j (L an actual subgroup of the j-th class
    representative), written in the transported bases; `weyl_fn(j, n)` the
    covariant conjugation action of n in N_G(rep_j).

    `res` and `ind` along c(g): H -> K are products of these matrices that
    depend only on the transport key (i, j, L.elems, w) of `_transport_data`.
    They are cached on that key, so each distinct product is multiplied once;
    a second map takes (g, H.elems, K.elems) to the key and holds no matrices.
    """

    def __init__(self, group, name, dims, incl_res_fn, incl_ind_fn, weyl_fn):
        self.group = group
        self.name = name
        self.classes = subgroup_conjugacy_classes(group)
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != len(self.classes.classes):
            raise MackeyError("one dimension per subgroup class is required")
        self._incl_res_fn = incl_res_fn
        self._incl_ind_fn = incl_ind_fn
        self._weyl_fn = weyl_fn
        self._incl_res = {}
        self._incl_ind = {}
        self._weyl = {}
        self._keys = {}  # (g, H.elems, K.elems) -> transport key
        self._res = {}  # transport key -> matrix
        self._ind = {}
        self._cache = {}

    # canonical data accessors

    def dim_of(self, sub):
        return self.dims[self.classes.class_of(sub)]

    def weyl_matrix(self, j, w):
        key = (j, w)
        if key not in self._weyl:
            if w == 0:
                self._weyl[key] = RationalMatrix.identity(self.dims[j])
            else:
                n = self.classes.classes[j].weyl.coset_reps[w]
                m = self._weyl_fn(j, n)
                if m.rows != self.dims[j] or m.cols != self.dims[j]:
                    raise MackeyError(f"conjugation matrix at class {j} has wrong shape")
                self._weyl[key] = m
        return self._weyl[key]

    def incl_res(self, L, j):
        key = (L.elems, j)
        if key not in self._incl_res:
            rep = self.classes.rep(j)
            if not set(L.elems) <= set(rep.elems):
                raise MackeyError(f"{L.literal()} is not a subgroup of {rep.literal()}")
            if L.elems == rep.elems:
                m = RationalMatrix.identity(self.dims[j])
            else:
                m = self._incl_res_fn(L, j)
            lcls = self.classes.class_of(L)
            if m.rows != self.dims[lcls] or m.cols != self.dims[j]:
                raise MackeyError(
                    f"res matrix for {L.literal()} <= {rep.literal()} has wrong shape"
                )
            self._incl_res[key] = m
        return self._incl_res[key]

    def incl_ind(self, L, j):
        key = (L.elems, j)
        if key not in self._incl_ind:
            rep = self.classes.rep(j)
            if L.elems == rep.elems:
                m = RationalMatrix.identity(self.dims[j])
            else:
                m = self._incl_ind_fn(L, j)
            lcls = self.classes.class_of(L)
            if m.rows != self.dims[j] or m.cols != self.dims[lcls]:
                raise MackeyError(
                    f"ind matrix for {L.literal()} <= {rep.literal()} has wrong shape"
                )
            self._incl_ind[key] = m
        return self._incl_ind[key]

    def _transport_data(self, g, H, K):
        """Factor c(g): H -> K through class representatives.

        Returns (i, j, L, w) with i = class(H), j = class(K), L = the image
        of rep_i inside rep_j, and w the Weyl index of the normalizer part.
        """
        G = self.group
        i, t_h = self.classes.transport(H)
        j, t_k = self.classes.transport(K)
        x = G.mul(G.mul(G.inv(t_k), g), t_h)
        rep_i = self.classes.rep(i)
        L = conjugate_subgroup(G, x, rep_i)
        li, t_l = self.classes.transport(L)
        if li != i:
            raise MackeyError("transport landed in the wrong class")
        n = G.mul(G.inv(t_l), x)
        weyl = self.classes.classes[i].weyl
        if n not in weyl.to_weyl:
            raise MackeyError("normalizer part is not in the normalizer")
        return i, j, L, weyl.to_weyl[n]

    def transport_key(self, g, H, K):
        """(i, j, L.elems, w) of `_transport_data` for c(g): H -> K."""
        key = self._keys.get((g, H.elems, K.elems))
        if key is None:
            i, j, L, w = self._transport_data(g, H, K)
            key = self._keys[(g, H.elems, K.elems)] = (i, j, L.elems, w)
        return key

    def res(self, g, H, K):
        """res along c(g): H -> K, as a matrix M(K) -> M(H)."""
        key = self.transport_key(g, H, K)
        if key not in self._res:
            i, j, l_elems, w = key
            w_inv = self.classes.classes[i].weyl.group.inv(w)
            L = Subgroup(l_elems, self.group)
            self._res[key] = self.weyl_matrix(i, w_inv).mul(self.incl_res(L, j))
        return self._res[key]

    def ind(self, g, H, K):
        """ind along c(g): H -> K, as a matrix M(H) -> M(K)."""
        key = self.transport_key(g, H, K)
        if key not in self._ind:
            i, j, l_elems, w = key
            L = Subgroup(l_elems, self.group)
            self._ind[key] = self.incl_ind(L, j).mul(self.weyl_matrix(i, w))
        return self._ind[key]

    def weyl_action(self, j):
        """The covariant W-action on M(rep_j) as a GroupAction."""
        W = self.classes.classes[j].weyl.group
        mats = tuple(self.weyl_matrix(j, w) for w in range(W.order))
        return GroupAction(W, self.dims[j], mats)

    def raw_conj_matrix(self, j, n):
        """Supplier conjugation matrix for an arbitrary normalizer element."""
        if n == 0:
            return RationalMatrix.identity(self.dims[j])
        return self._weyl_fn(j, n)

    def __repr__(self):
        return f"MackeyFunctor({self.name} on {self.group.name})"


@dataclass
class AxiomVerdict:
    ok: bool
    checked: int
    witness: str | None = None


@dataclass
class MackeyValidationReport:
    functor: str
    group: str
    conjugation: AxiomVerdict  # axiom (a): inner conjugation trivial
    isomorphisms: AxiomVerdict  # axiom (b): res/ind inverse on isos
    double_coset: AxiomVerdict  # axiom (c)
    transitivity: AxiomVerdict

    def passed(self):
        return all(
            v.ok
            for v in (self.conjugation, self.isomorphisms, self.double_coset, self.transitivity)
        )

    def lines(self):
        out = [f"mackey {self.functor} on {self.group}:"]
        for label, v in (
            ("axiom (a) inner conjugation", self.conjugation),
            ("axiom (b) isomorphisms", self.isomorphisms),
            ("axiom (c) double cosets", self.double_coset),
            ("transitivity", self.transitivity),
        ):
            status = "pass" if v.ok else f"FAIL ({v.witness})"
            out.append(f"  {label}: {status} [{v.checked} checks]")
        return out


def validate_mackey(M):
    """Exhaustive Mackey-axiom suite over all subgroup pairs of G."""
    G = M.group
    ct = M.classes
    subs = enumerate_subgroups(G)

    # axiom (a): the supplier's conjugation action factors through the Weyl
    # group, i.e. every n in H*C_G(H) (in particular every inner element)
    # acts as the identity.
    conj_checked = 0
    conj_witness = None
    for j, cls in enumerate(ct.classes):
        weyl = cls.weyl
        for n in cls.normalizer.elems:
            expected = M.weyl_matrix(j, weyl.to_weyl[n])
            got = M.raw_conj_matrix(j, n)
            conj_checked += 1
            if got != expected:
                conj_witness = (
                    f"conjugation by {n} on M({cls.rep.literal()}) does not factor "
                    f"through the Weyl group"
                )
                break
        if conj_witness:
            break
    conj = AxiomVerdict(conj_witness is None, conj_checked, conj_witness)

    # axiom (b): conjugation action is a group action; res/ind are mutually
    # inverse on isomorphisms witnessed across class members.
    iso_checked = 0
    iso_witness = None
    try:
        for j in range(len(ct.classes)):
            M.weyl_action(j).validate()
            iso_checked += 1
    except (LinAlgError, MackeyError) as exc:
        iso_witness = f"conjugation matrices are not a group action: {exc}"
    if iso_witness is None:
        for cls in ct.classes:
            for member in cls.members:
                g = cls.conjugators[member.elems]
                r = M.res(g, cls.rep, member)
                i = M.ind(g, cls.rep, member)
                iso_checked += 2
                if not r.mul(i).is_identity() or not i.mul(r).is_identity():
                    iso_witness = (
                        f"res/ind not inverse for c({g}): "
                        f"{cls.rep.literal()} -> {member.literal()}"
                    )
                    break
            if iso_witness:
                break
    iso = AxiomVerdict(iso_witness is None, iso_checked, iso_witness)

    # axiom (c): the double coset formula for every pair of subgroups of G
    # with the conjugates K^g and the terms ind . res memoised: a term depends
    # only on the transport keys of its two factors
    full = subs[-1]
    dc_checked = 0
    dc_witness = None
    conjugates = {}  # (g, K.elems) -> elements of K^g
    terms = {}  # (transport key of ind, transport key of res) -> term
    for H in subs:
        hs = set(H.elems)
        for K in subs:
            lhs = M.res(0, K, full).mul(M.ind(0, H, full))
            acc = RationalMatrix.zero(M.dim_of(K), M.dim_of(H))
            for g in double_cosets(G, K, H).representatives:
                kg = conjugates.get((g, K.elems))
                if kg is None:
                    kg = conjugates[(g, K.elems)] = conjugate_subgroup(G, G.inv(g), K).elems
                inter = Subgroup(tuple(sorted(hs.intersection(kg))), G)
                pair = (M.transport_key(g, inter, K), M.transport_key(0, inter, H))
                term = terms.get(pair)
                if term is None:
                    term = terms[pair] = M.ind(g, inter, K).mul(M.res(0, inter, H))
                acc = acc.add(term)
            dc_checked += 1
            if lhs != acc:
                dc_witness = (
                    f"double coset formula fails for H={H.literal()}, K={K.literal()}"
                )
                break
        if dc_witness:
            break
    dcf = AxiomVerdict(dc_witness is None, dc_checked, dc_witness)

    # transitivity along chains of inclusions
    tr_checked = 0
    tr_witness = None
    for H in subs:
        hs = set(H.elems)
        for K in subs:
            if not hs <= set(K.elems):
                continue
            ks = set(K.elems)
            for L in subs:
                if not ks <= set(L.elems):
                    continue
                tr_checked += 1
                if M.res(0, H, K).mul(M.res(0, K, L)) != M.res(0, H, L):
                    tr_witness = (
                        f"res not transitive along {H.literal()} <= {K.literal()} "
                        f"<= {L.literal()}"
                    )
                    break
                if M.ind(0, K, L).mul(M.ind(0, H, K)) != M.ind(0, H, L):
                    tr_witness = (
                        f"ind not transitive along {H.literal()} <= {K.literal()} "
                        f"<= {L.literal()}"
                    )
                    break
            if tr_witness:
                break
        if tr_witness:
            break
    trans = AxiomVerdict(tr_witness is None, tr_checked, tr_witness)

    return MackeyValidationReport(M.name, G.name, conj, iso, dcf, trans)


def mackey_to_sub_module(M):
    """The induced contravariant module over Sub(G,F) (class representatives)."""
    key = ("sub_module",)
    if key in M._cache:
        return M._cache[key]
    cat = build_sub_category(M.group)
    G = M.group
    maps = {}
    for f in cat.all_mors():
        src = cat.objects[f.src]
        dst = cat.objects[f.dst]
        mat = M.res(f.rep, src, dst)
        # well-definedness: every representative of the double coset
        # dst * rep * C_G(src) must induce the same matrix
        C = _cached_centralizer(G, src)
        seen = set()
        for k in dst.elems:
            for c in C.elems:
                g2 = G.mul(G.mul(k, f.rep), c)
                if g2 in seen:
                    continue
                seen.add(g2)
                if M.res(g2, src, dst) != mat:
                    raise MackeyError(
                        f"{M.name}: morphism {src.literal()} -> {dst.literal()} is "
                        f"not well defined (reps {f.rep} and {g2} disagree); "
                        f"input is not a Mackey functor"
                    )
        maps[f] = mat
    module = CatModule(cat, M.dims, maps, name=M.name).validate()
    M._cache[key] = module
    return module


@dataclass
class TPart:
    """T_H M with its Weyl action; basis columns live in M(rep H) coordinates."""

    class_index: int
    action: GroupAction
    basis: RationalMatrix


def T_H_of_mackey(M, H):
    """Joint kernel of the restrictions to all proper subgroups, with W-action."""
    j, _ = M.classes.transport(H)
    key = ("T", j)
    if key in M._cache:
        return M._cache[key]
    G = M.group
    rep = M.classes.rep(j)
    rset = set(rep.elems)
    stack = [
        M.incl_res(L, j)
        for L in enumerate_subgroups(G)
        if set(L.elems) < rset
    ]
    basis, action = joint_kernel(stack, M.weyl_action(j))
    part = TPart(j, action, basis)
    M._cache[key] = part
    return part


def nu_of_mackey(M):
    """nu on the induced Sub(G,F)-module, plus per-object bijectivity verdicts."""
    key = ("nu",)
    if key in M._cache:
        return M._cache[key]
    nu = nu_map(mackey_to_sub_module(M))
    M._cache[key] = nu
    return nu


@dataclass
class MuBlock:
    row_class: int
    row_orbit: int
    col_class: int
    col_orbit: int
    ok: bool
    detail: str


@dataclass
class MuReport:
    object_class: int
    diagonal_multiples: tuple  # per (class, orbit): the integer |H ∩ N_G(im f)|
    triangular: bool
    invertible: bool
    violations: tuple

    def passed(self):
        return self.triangular and self.invertible


def mu_H_check(M, H):
    """Assemble mu(H) and verify nu(H) . mu(H) is triangular with the
    predicted invertible diagonal blocks."""
    G = M.group
    ct = M.classes
    h_idx, _ = ct.transport(H)
    rep_h = ct.rep(h_idx)
    nu = nu_of_mackey(M)
    cat = nu.module.cat
    # column/row layout: per class K (in object order), per orbit of
    # mor(K, H) under aut(K), a block of dim (T_K)^{stab}
    layout = []
    columns = []
    for k_idx, coind in enumerate(nu.coinductions):
        t_basis = nu.splittings[k_idx].basis
        rep_k = ct.rep(k_idx)
        for o_idx, info in enumerate(coind.orbit_data[h_idx]):
            f = info.rep  # Mor(k_idx, h_idx, g)
            img = conjugate_subgroup(G, f.rep, rep_k)
            n_img = normalizer(G, img)
            # the diagonal block of nu(H) . mu(H) is d * id with d the number
            # of qualifying double cosets im(f)\N_H(im(f))/im(f), i.e. the
            # index of im(f) in its normalizer inside H
            transporter = len(set(rep_h.elems) & set(n_img.elems))
            dmul = transporter // len(img.elems)
            layout.append((k_idx, o_idx, info.basis.cols, dmul))
            ind_f = M.ind(f.rep, rep_k, rep_h)
            for col in range(info.basis.cols):
                vec_t = info.basis.column(col)  # in T_K coordinates
                vec_m = t_basis.apply(vec_t)  # in M(rep_K) coordinates
                columns.append(ind_f.apply(vec_m))
    total = sum(blk[2] for blk in layout)
    mu = RationalMatrix.from_columns(columns, dim=M.dims[h_idx])
    nu_h = nu.map.components[h_idx]
    C = nu_h.mul(mu)
    if C.rows != total or C.cols != total:
        raise MackeyError("mu/nu block layouts are inconsistent")
    # examine blocks
    offsets = []
    t = 0
    for blk in layout:
        offsets.append(t)
        t += blk[2]
    violations = []
    diagonal = []
    for bi, (kl, ol, size_l, _dl) in enumerate(layout):
        for bj, (kk, ok_, size_k, dk) in enumerate(layout):
            block = [
                [C.data[offsets[bi] + r][offsets[bj] + c] for c in range(size_k)]
                for r in range(size_l)
            ]
            is_zero = all(x == 0 for row in block for x in row)
            if bi == bj:
                expected = dk
                ok = all(
                    block[r][c] == (expected if r == c else 0)
                    for r in range(size_l)
                    for c in range(size_k)
                )
                diagonal.append(((kk, ok_), dk))
                if not ok and size_k > 0:
                    violations.append(
                        MuBlock(kl, ol, kk, ok_, False,
                                f"diagonal block is not {expected} * identity")
                    )
            elif not is_zero:
                # off-diagonal blocks may be nonzero only when the column
                # class is strictly subconjugate to the row class
                if kk == kl:
                    detail = "nonzero block between distinct orbits of one class"
                elif not cat.hom(kk, kl):
                    detail = "nonzero block violates subconjugacy triangularity"
                else:
                    continue
                violations.append(MuBlock(kl, ol, kk, ok_, False, detail))
    invertible = C.rank() == total
    return MuReport(
        object_class=h_idx,
        diagonal_multiples=tuple(diagonal),
        triangular=not violations,
        invertible=invertible,
        violations=tuple(violations),
    )


# built-in instances

def constant_mackey(G):
    """M(H) = Q, res = id, ind for f: H -> K is multiplication by [K : f(H)]."""
    ct = subgroup_conjugacy_classes(G)
    dims = [1] * len(ct.classes)

    def incl_res(L, j):
        return RationalMatrix.identity(1)

    def incl_ind(L, j):
        index = Fraction(len(ct.rep(j).elems), len(L.elems))
        return RationalMatrix.from_rows([[index]])

    def weyl(j, n):
        return RationalMatrix.identity(1)

    return MackeyFunctor(G, "constant", dims, incl_res, incl_ind, weyl)


def _subgroup_classes_within(G, S):
    """S-conjugacy classes of subgroups of S, as (representative, members)."""
    key = ("subclasses_within", S.elems)
    if key in G._cache:
        return G._cache[key]
    inside = [T for T in enumerate_subgroups(G) if set(T.elems) <= set(S.elems)]
    seen = set()
    classes = []
    for T in inside:
        if T.elems in seen:
            continue
        orbit = {conjugate_subgroup(G, s, T).elems for s in S.elems}
        seen.update(orbit)
        members = tuple(sorted(orbit))
        classes.append((min(members, key=lambda e: (len(e), e)), members))
    classes.sort(key=lambda c: (len(c[0]), c[0]))
    G._cache[key] = classes
    return classes


def _class_index_within(G, S, P):
    for i, (_rep, members) in enumerate(_subgroup_classes_within(G, S)):
        if P.elems in members:
            return i
    raise MackeyError(f"{P.literal()} is not a subgroup of {S.literal()}")


def burnside_mackey(G):
    """A(H) tensor Q with basis the H-classes of subgroups of H."""
    ct = subgroup_conjugacy_classes(G)
    dims = [len(_subgroup_classes_within(G, c.rep)) for c in ct.classes]

    def transported_class_index(L, P):
        # index of the L-set class [L/P] in the M(L) basis (rep(L)-classes)
        li, t_l = ct.transport(L)
        moved = conjugate_subgroup(G, G.inv(t_l), P)
        return li, _class_index_within(G, ct.rep(li), moved)

    def incl_res(L, j):
        R = ct.rep(j)
        lcls = ct.class_of(L)
        rows = dims[lcls]
        classes_r = _subgroup_classes_within(G, R)
        data = [[0] * len(classes_r) for _ in range(rows)]
        t = G.table
        for col, (rep_elems, _members) in enumerate(classes_r):
            # label each r in R by min(rJ), the canonical element of its coset
            label = {}
            for r in R.elems:
                if r not in label:
                    coset = [t[r][u] for u in rep_elems]
                    key = min(coset)
                    for y in coset:
                        label[y] = key
            # decompose the coset space R/J into L-orbits
            remaining = set(label.values())
            while remaining:
                x = min(remaining)
                # orbit of the coset xJ under L; stabilizer L ∩ xJx^-1
                orbit = set()
                stack = [x]
                while stack:
                    ykey = label[stack.pop()]
                    if ykey in orbit:
                        continue
                    orbit.add(ykey)
                    for l in L.elems:
                        stack.append(t[l][ykey])
                remaining.difference_update(orbit)
                stab = [l for l in L.elems if label[t[l][x]] == x]
                P = subgroup(G, stab, validate=False)
                _li, idx = transported_class_index(L, P)
                data[idx][col] += 1
        return RationalMatrix(rows, len(classes_r), data)

    def incl_ind(L, j):
        R = ct.rep(j)
        li, t_l = ct.transport(L)
        classes_l = _subgroup_classes_within(G, ct.rep(li))
        classes_r = _subgroup_classes_within(G, R)
        data = [[0] * len(classes_l) for _ in range(len(classes_r))]
        for col, (q_elems, _members) in enumerate(classes_l):
            Q = subgroup(G, q_elems, validate=False)
            moved = conjugate_subgroup(G, t_l, Q)  # subgroup of L <= R
            idx = _class_index_within(G, R, moved)
            data[idx][col] += 1
        return RationalMatrix(len(classes_r), len(classes_l), data)

    def weyl(j, n):
        R = ct.rep(j)
        classes_r = _subgroup_classes_within(G, R)
        data = [[0] * len(classes_r) for _ in range(len(classes_r))]
        for col, (rep_elems, _members) in enumerate(classes_r):
            J = subgroup(G, rep_elems, validate=False)
            moved = conjugate_subgroup(G, n, J)
            idx = _class_index_within(G, R, moved)
            data[idx][col] += 1
        return RationalMatrix(len(classes_r), len(classes_r), data)

    return MackeyFunctor(G, "burnside", dims, incl_res, incl_ind, weyl)


def repring_mackey(G, tables=None):
    """R(H) tensor Q in the irreducible-character bases of the class tables."""
    if tables is None:
        tables = bundled_chartabs()
    ct = subgroup_conjugacy_classes(G)
    reps = [c.rep for c in ct.classes]
    rep_tables = [character_table_for_subgroup(r, tables) for r in reps]
    views = [as_group(r) for r in reps]
    dims = [t.n_irr for t in rep_tables]

    def value_on_subgroup(sub_cls, t_sub, irr, y):
        """Character value of the transported irreducible at y in the subgroup."""
        table = rep_tables[sub_cls]
        view = views[sub_cls]
        local = view.from_parent[G.mul(G.mul(G.inv(t_sub), y), t_sub)]
        return table.value(irr, local)

    def incl_res(L, j):
        table_r = rep_tables[j]
        view_r = views[j]
        li, t_l = ct.transport(L)
        lview = as_group(L)
        l_classes = element_conjugacy_classes(lview.group)
        sizes = [len(cls.members) for cls in l_classes]
        ys = [lview.to_parent[cls.rep] for cls in l_classes]
        a_rows = [
            [table_r.value(ii, view_r.from_parent[y]) for y in ys] for ii in range(dims[j])
        ]
        rows = dims[li]
        data = []
        for jj in range(rows):
            b = [value_on_subgroup(li, t_l, jj, G.inv(y)) for y in ys]
            row = []
            for a in a_rows:
                total = weighted_sum(zip(sizes, a, b), L.order)
                if not total.is_rational():
                    raise MackeyError(
                        f"non-rational multiplicity restricting to {L.literal()}"
                    )
                q = total.as_rational()
                if q.denominator != 1 or q < 0:
                    raise MackeyError(
                        f"multiplicity {q} restricting to {L.literal()} is not a "
                        f"non-negative integer"
                    )
                row.append(q)
            data.append(row)
        return RationalMatrix(rows, dims[j], data)

    def incl_ind(L, j):
        return incl_res(L, j).transpose()

    def weyl(j, n):
        table = rep_tables[j]
        view = views[j]
        n_inv = G.inv(n)
        perm = []
        for ii in range(dims[j]):
            moved = tuple(
                table.value(
                    ii,
                    view.from_parent[
                        G.mul(G.mul(n_inv, view.to_parent[r]), n)
                    ],
                )
                for r in table.class_reps
            )
            target = None
            for kk in range(dims[j]):
                if tuple(table.irreducibles[kk].values) == moved:
                    target = kk
                    break
            if target is None:
                raise MackeyError("conjugate of an irreducible is not in the table")
            perm.append(target)
        data = [[0] * dims[j] for _ in range(dims[j])]
        for ii, target in enumerate(perm):
            data[target][ii] = 1
        return RationalMatrix(dims[j], dims[j], data)

    return MackeyFunctor(G, "repring", dims, incl_res, incl_ind, weyl)


def zero_mackey(G):
    ct = subgroup_conjugacy_classes(G)
    dims = [0] * len(ct.classes)

    def nil(*args):
        return RationalMatrix.zero(0, 0)

    return MackeyFunctor(G, "zero", dims, nil, nil, nil)


BUILTIN_MACKEY = {
    "constant": constant_mackey,
    "burnside": burnside_mackey,
    "repring": repring_mackey,
}


def builtin_mackey(name, G):
    if name not in BUILTIN_MACKEY:
        raise MackeyError(f"unknown Mackey functor {name!r}")
    key = ("mackey", name)
    if key not in G._cache:
        G._cache[key] = BUILTIN_MACKEY[name](G)
    return G._cache[key]


# text format

def format_mackey(M):
    """Serialize the canonical data in the line-oriented Mackey format."""
    G = M.group
    ct = M.classes
    lines = [f"mackey {M.name}", f"group {G.name}"]
    for j, cls in enumerate(ct.classes):
        lines.append(f"object {cls.rep.literal()} dim {M.dims[j]}")
    for j, cls in enumerate(ct.classes):
        weyl = cls.weyl
        for w in range(1, weyl.group.order):
            lines.append(f"conj {weyl.coset_reps[w]} {cls.rep.literal()}")
            for row in M.weyl_matrix(j, w).data:
                lines.append("  " + " ".join(str(x) for x in row))
        rset = set(cls.rep.elems)
        for L in enumerate_subgroups(G):
            if not set(L.elems) < rset:
                continue
            lines.append(f"res {L.literal()} {cls.rep.literal()}")
            for row in M.incl_res(L, j).data:
                lines.append("  " + " ".join(str(x) for x in row))
            lines.append(f"ind {L.literal()} {cls.rep.literal()}")
            for row in M.incl_ind(L, j).data:
                lines.append("  " + " ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_mackey(text, G):
    """Parse the Mackey text format into a MackeyFunctor over G."""
    ct = subgroup_conjugacy_classes(G)
    name = None
    group_name = None
    dims = {}
    conj_data = {}
    res_data = {}
    ind_data = {}
    pending = None  # (kind, key, rows_needed, cols, rows, line of the block header)
    lines = text.splitlines()

    def close_pending():
        nonlocal pending
        if pending is None:
            return
        kind, key, need, cols, rows, at = pending
        if len(rows) != need:
            raise MackeyError(f"line {at}: expected {need} matrix rows for {kind}, got {len(rows)}")
        m = RationalMatrix(need, cols, rows)
        {"conj": conj_data, "res": res_data, "ind": ind_data}[kind][key] = m
        pending = None

    def declared_dim(j, head, lineno):
        if j not in dims:
            raise MackeyError(f"line {lineno}: {head} before object declaration")
        return dims[j]

    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        parts = stripped.split()
        head = parts[0]
        arity = {"mackey": 2, "group": 2, "object": 4, "conj": 3, "res": 3, "ind": 3}.get(head)
        if arity is not None:
            close_pending()
            if len(parts) < arity:
                raise MackeyError(f"line {lineno}: too few fields for `{head}`")
        if head == "mackey":
            name = stripped.split(None, 1)[1]
            continue
        if head == "group":
            group_name = stripped.split(None, 1)[1]
            if group_name != G.name:
                raise MackeyError(
                    f"line {lineno}: coefficients declare {group_name}, got {G.name}"
                )
            continue
        if head == "object":
            sub = parse_subgroup_on_line(parts[1], G, MackeyError, lineno)
            if parts[2] != "dim":
                raise MackeyError(f"line {lineno}: expected `dim`")
            j = ct.class_of(sub)
            if ct.rep(j).elems != sub.elems:
                raise MackeyError(
                    f"line {lineno}: {sub.literal()} is not a class representative"
                )
            dims[j] = parse_int(parts[3], "dimension", MackeyError, lineno)
            if dims[j] < 0:
                raise MackeyError(f"line {lineno}: negative dimension {dims[j]}")
            continue
        if head == "conj":
            n = parse_int(parts[1], "group element", MackeyError, lineno)
            if not 0 <= n < G.order:
                raise MackeyError(f"line {lineno}: group element {n} out of range")
            sub = parse_subgroup_on_line(parts[2], G, MackeyError, lineno)
            j = ct.class_of(sub)
            d = declared_dim(j, head, lineno)
            pending = ("conj", (j, n), d, d, [], lineno)
            continue
        if head in ("res", "ind"):
            L = parse_subgroup_on_line(parts[1], G, MackeyError, lineno)
            R = parse_subgroup_on_line(parts[2], G, MackeyError, lineno)
            j = ct.class_of(R)
            li = ct.class_of(L)
            if ct.rep(j).elems != R.elems:
                raise MackeyError(
                    f"line {lineno}: {R.literal()} is not a class representative"
                )
            d_l, d_r = declared_dim(li, head, lineno), declared_dim(j, head, lineno)
            if head == "res":
                pending = ("res", (L.elems, j), d_l, d_r, [], lineno)
            else:
                pending = ("ind", (L.elems, j), d_r, d_l, [], lineno)
            continue
        # a matrix row
        if pending is None:
            raise MackeyError(f"line {lineno}: unexpected content {stripped!r}")
        try:
            row = [Fraction(tok) for tok in parts]
        except (ValueError, ZeroDivisionError):
            raise MackeyError(f"line {lineno}: bad matrix row {stripped!r}") from None
        if len(row) != pending[3]:
            raise MackeyError(
                f"line {lineno}: matrix row has {len(row)} entries, expected {pending[3]}"
            )
        pending[4].append(row)
    close_pending()
    if name is None or group_name is None:
        raise MackeyError("missing mackey/group header")
    if set(dims) != set(range(len(ct.classes))):
        raise MackeyError("missing object declaration for some subgroup class")

    # completeness
    for j, cls in enumerate(ct.classes):
        weyl = cls.weyl
        for w in range(1, weyl.group.order):
            if (j, weyl.coset_reps[w]) not in conj_data:
                raise MackeyError(
                    f"missing conj data for {weyl.coset_reps[w]} on {cls.rep.literal()}"
                )
        rset = set(cls.rep.elems)
        for L in enumerate_subgroups(G):
            if set(L.elems) < rset:
                if (L.elems, j) not in res_data:
                    raise MackeyError(
                        f"missing res {L.literal()} {cls.rep.literal()}"
                    )
                if (L.elems, j) not in ind_data:
                    raise MackeyError(
                        f"missing ind {L.literal()} {cls.rep.literal()}"
                    )

    dims_list = [dims[j] for j in range(len(ct.classes))]

    def incl_res(L, j):
        return res_data[(L.elems, j)]

    def incl_ind(L, j):
        return ind_data[(L.elems, j)]

    def weyl_fn(j, n):
        weyl = ct.classes[j].weyl
        w = weyl.to_weyl[n]
        if w == 0:
            return RationalMatrix.identity(dims_list[j])
        return conj_data[(j, weyl.coset_reps[w])]

    return MackeyFunctor(G, name, dims_list, incl_res, incl_ind, weyl_fn)
