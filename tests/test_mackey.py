from __future__ import annotations

import dataclasses

import pytest

from equichern.chartab import Irreducible

from equichern.eicat import build_sub_category, splitting_T
from equichern.groups import (
    enumerate_subgroups,
    generated_subgroup,
    normalizer,
    subgroup,
)
from equichern.mackey import (
    MackeyError,
    MackeyFunctor,
    T_H_of_mackey,
    burnside_mackey,
    constant_mackey,
    format_mackey,
    mackey_to_sub_module,
    mu_H_check,
    nu_of_mackey,
    parse_mackey,
    repring_mackey,
    validate_mackey,
    zero_mackey,
)
from equichern.qlinalg import RationalMatrix, invariants

import oracles


def test_constant_validates(s3, z6):
    for G in (s3, z6):
        report = validate_mackey(constant_mackey(G))
        assert report.passed(), report.lines()


def test_constant_double_coset_identity(s3):
    # for the constant functor axiom (c) says sum over KgH of
    # [K : K ∩ gHg^-1] = [G : H]
    M = constant_mackey(s3)
    c2 = generated_subgroup(s3, [1])
    c3 = generated_subgroup(s3, [3])
    full = subgroup(s3, range(6))
    lhs = M.res(0, c3, full).mul(M.ind(0, c2, full))
    assert lhs == RationalMatrix.from_rows([[3]])  # [S3 : C2] = 3


def test_burnside_dims(s3, d4, q8, s4):
    assert burnside_mackey(s3).dims == (1, 2, 2, 4)
    assert len(burnside_mackey(d4).dims) == 8
    assert burnside_mackey(s4).dims[-1] == 11  # classes of subgroups of S4


def test_burnside_res_ind_small(s3):
    M = burnside_mackey(s3)
    triv = generated_subgroup(s3, [])
    c2 = generated_subgroup(s3, [1])
    # res M(C2) -> M(1): [C2/1] -> 2*[1/1], [C2/C2] -> [1/1]
    j = M.classes.class_of(c2)
    res = M.incl_res(triv, j)
    assert res == RationalMatrix.from_rows([[2, 1]])
    # ind M(1) -> M(C2): [1/1] -> [C2/1]
    ind = M.incl_ind(triv, j)
    assert ind == RationalMatrix.from_rows([[1], [0]])


def test_burnside_validates(s3, q8):
    for G in (s3, q8):
        report = validate_mackey(burnside_mackey(G))
        assert report.passed(), report.lines()


def test_repring_dims(s3, z4, q8):
    assert repring_mackey(s3).dims == (1, 2, 3, 3)
    assert repring_mackey(z4).dims == (1, 2, 4)
    assert repring_mackey(q8).dims[-1] == 5


def test_repring_validates(s3, z4):
    for G in (s3, z4):
        report = validate_mackey(repring_mackey(G))
        assert report.passed(), report.lines()


def test_corrupted_ind_fails_axiom_c(s3):
    """Negative control: a corrupted induction matrix breaks the double coset
    formula with a named witness."""
    good = constant_mackey(s3)

    def bad_ind(L, j):
        m = good.incl_ind(L, j)
        if len(L.elems) == 1 and len(good.classes.rep(j).elems) == 2:
            return m.add(RationalMatrix.from_rows([[1]]))
        return m

    bad = MackeyFunctor(
        s3,
        "corrupted",
        good.dims,
        good.incl_res,
        bad_ind,
        lambda j, n: RationalMatrix.identity(1),
    )
    report = validate_mackey(bad)
    assert not report.passed()
    assert not report.double_coset.ok
    assert "H={" in report.double_coset.witness and "K={" in report.double_coset.witness


def _constant_with_conjugation(G, matrix):
    """The constant functor on G with `matrix` for every conjugation outside
    the Weyl identity, so axiom (a) holds whatever `matrix` is."""
    good = constant_mackey(G)

    def weyl(j, n):
        if good.classes.classes[j].weyl.to_weyl[n] == 0:
            return RationalMatrix.identity(1)
        return matrix

    return MackeyFunctor(G, "twisted", good.dims, good.incl_res, good.incl_ind, weyl)


def test_conjugation_not_a_group_action_fails_axiom_b(s3):
    """Negative control: conjugation by 2 on every nontrivial Weyl element is
    no homomorphism (2 * 2 != 2), and axiom (b) names it."""
    report = validate_mackey(_constant_with_conjugation(s3, RationalMatrix.from_rows([[2]])))
    assert report.conjugation.ok
    assert not report.isomorphisms.ok
    assert report.isomorphisms.witness.startswith(
        "conjugation matrices are not a group action: action is not a homomorphism"
    )
    assert "axiom (b) isomorphisms: FAIL (conjugation matrices are not a group action" in "\n".join(
        report.lines()
    )


class _MulBug(RationalMatrix):
    __slots__ = ()

    def mul(self, other):
        raise TypeError("bug in a supplied matrix")


def test_internal_error_in_axiom_b_propagates(s3):
    """An internal bug in the group-action check is raised, not reported as
    a verdict on the input."""
    M = _constant_with_conjugation(s3, _MulBug(1, 1, [[1]]))
    with pytest.raises(TypeError, match="bug in a supplied matrix"):
        validate_mackey(M)


def test_transport_keyed_products_match_uncached_oracle(s3, d4, a4, monkeypatch):
    """res and ind on every morphism c(g): H -> K equal the matrices built
    from the suppliers with no cache, and each distinct transport key costs
    exactly one product."""
    muls = []
    mul = RationalMatrix.mul

    def counted_mul(a, b):
        muls.append(1)
        return mul(a, b)

    monkeypatch.setattr(RationalMatrix, "mul", counted_mul)
    for G in (s3, d4, a4):
        subs = enumerate_subgroups(G)
        for build in (constant_mackey, burnside_mackey, repring_mackey):
            M = build(G)
            keys = set()
            del muls[:]
            for H in subs:
                for K in subs:
                    kset = set(K.elems)
                    for g in range(G.order):
                        if any(G.conj(g, h) not in kset for h in H.elems):
                            continue
                        i, j, L, w = M._transport_data(g, H, K)
                        keys.add((i, j, L.elems, w))
                        assert M.res(g, H, K) == oracles.uncached_res(M, g, H, K)
                        assert M.ind(g, H, K) == oracles.uncached_ind(M, g, H, K)
            assert len(M._res) == len(M._ind) == len(keys), (G.name, M.name)
            assert len(muls) == 2 * len(keys), (G.name, M.name)


def test_repring_incl_res_matches_fraction_reference(groups):
    """Every restriction matrix of the representation ring equals the
    multiplicities summed element by element in the reference arithmetic."""
    for name in ("z8", "q8", "d4", "a4", "s4"):
        G = groups[name]
        M = repring_mackey(G)
        subs = enumerate_subgroups(G)
        for j, cls in enumerate(M.classes.classes):
            rep = set(cls.rep.elems)
            for L in subs:
                if set(L.elems) <= rep:
                    got = M._incl_res_fn(L, j)
                    assert got.data == oracles.reference_repring_incl_res(G, L, j), (name, j)


def test_repring_rejects_a_negative_multiplicity(s3, monkeypatch):
    """A supplied table whose trivial character of S3 is negated restricts
    to the trivial subgroup with multiplicity -1."""
    from equichern import mackey

    supplied = mackey.character_table_for_subgroup

    def negated_top(sub, tables):
        t = supplied(sub, tables)
        if sub.order != s3.order:
            return t
        first = t.irreducibles[0]
        negated = Irreducible(first.name, tuple(-v for v in first.values))
        return dataclasses.replace(t, irreducibles=(negated,) + t.irreducibles[1:])

    monkeypatch.setattr(mackey, "character_table_for_subgroup", negated_top)
    M = repring_mackey(s3)
    top = next(j for j, c in enumerate(M.classes.classes) if c.rep.order == s3.order)
    with pytest.raises(MackeyError, match="multiplicity -1 restricting to .* not a non-negative"):
        M._incl_res_fn(generated_subgroup(s3, []), top)


def test_mackey_to_sub_module(s3):
    M = mackey_to_sub_module(repring_mackey(s3))
    assert M.dims == (1, 2, 3, 3)
    M.validate()
    const = mackey_to_sub_module(constant_mackey(s3))
    assert const.dims == (1, 1, 1, 1)
    for f in const.cat.all_mors():
        assert const.maps[f].is_identity()
    burn = mackey_to_sub_module(burnside_mackey(s3))
    assert burn.dims == (1, 2, 2, 4)


def test_well_definedness_catches_fake_mackey(s3):
    """A conjugation-sensitive `res` cannot descend to Sub(G,F)."""
    good = burnside_mackey(s3)

    def bad_res(L, j):
        m = good.incl_res(L, j)
        # depend on the raw subgroup L rather than its class: scale one entry
        if len(L.elems) == 2 and L.elems != (0, 1) and len(good.classes.rep(j).elems) == 6:
            return m.scale(2)
        return m

    bad = MackeyFunctor(s3, "fake", good.dims, bad_res, good.incl_ind, good._weyl_fn)
    with pytest.raises(MackeyError, match="not well defined|functoriality"):
        mackey_to_sub_module(bad)


def test_T_dims_repring_s3(s3):
    M = repring_mackey(s3)
    ct = M.classes
    dims = []
    inv_dims = []
    for cls in ct.classes:
        part = T_H_of_mackey(M, cls.rep)
        dims.append(part.action.dim)
        inv_dims.append(len(invariants(part.action)))
    assert dims == [1, 1, 2, 0]
    assert inv_dims == [1, 1, 1, 0]


def test_T_dims_burnside_s3(s3):
    M = burnside_mackey(s3)
    dims = [T_H_of_mackey(M, c.rep).action.dim for c in M.classes.classes]
    invs = [len(invariants(T_H_of_mackey(M, c.rep).action)) for c in M.classes.classes]
    assert dims == [1, 1, 1, 1]
    assert invs == [1, 1, 1, 1]


def test_T_matches_splitting_T(s3, z4):
    for G, build in ((s3, repring_mackey), (s3, burnside_mackey), (z4, repring_mackey)):
        M = build(G)
        sub_mod = mackey_to_sub_module(M)
        for j, cls in enumerate(M.classes.classes):
            part = T_H_of_mackey(M, cls.rep)
            split = splitting_T(sub_mod, j)
            assert part.action.dim == split.action.dim
            assert part.action.character() == split.action.character()
            # same subspace of M(rep)
            assert part.basis.rank() == split.basis.rank()
            if part.basis.cols:
                from equichern.qlinalg import hstack

                assert hstack([part.basis, split.basis]).rank() == part.basis.cols


def test_nu_bijective_s3_all_builtins(s3):
    for build in (constant_mackey, burnside_mackey, repring_mackey):
        nu = nu_of_mackey(build(s3))
        assert nu.all_bijective(), build.__name__


def test_nu_bijective_s4(s4):
    from equichern.mackey import builtin_mackey

    for coeff in ("constant", "burnside", "repring"):
        nu = nu_of_mackey(builtin_mackey(coeff, s4))
        assert nu.all_bijective(), coeff


def test_top_object_dimension_identity(s3, z4):
    # dim M(G) = sum over classes of dim (T_H M)^{W_G H}
    cases = [
        (repring_mackey(s3), 3, [1, 1, 1, 0]),
        (burnside_mackey(s3), 4, [1, 1, 1, 1]),
        (repring_mackey(z4), 4, [1, 1, 2]),
    ]
    for M, total, expected in cases:
        per_class = [
            len(invariants(T_H_of_mackey(M, c.rep).action)) for c in M.classes.classes
        ]
        assert per_class == expected
        assert M.dims[-1] == total == sum(per_class)


def test_mu_check_s3(s3):
    M = repring_mackey(s3)
    full = subgroup(s3, range(6))
    report = mu_H_check(M, full)
    assert report.passed()
    # diagonal multiples are [N_H(im f) : im f] -- brute-forced here
    ct = M.classes
    expected = []
    for k_idx, cls in enumerate(ct.classes):
        cat = build_sub_category(s3)
        h_idx = ct.class_of(full)
        for f in cat.mors[(k_idx, h_idx)]:
            from equichern.groups import conjugate_subgroup

            img = conjugate_subgroup(s3, f.rep, cls.rep)
            n_img = normalizer(s3, img)
            expected.append(
                len(set(full.elems) & set(n_img.elems)) // len(img.elems)
            )
    got = [d for (_key, d) in report.diagonal_multiples]
    assert got == expected == [6, 1, 2, 1]
    # trivial object: single 1x1 block
    report1 = mu_H_check(M, generated_subgroup(s3, []))
    assert report1.passed()
    assert len(report1.diagonal_multiples) == 1


def test_mu_check_burnside_d4(d4):
    M = burnside_mackey(d4)
    full = subgroup(d4, range(8))
    report = mu_H_check(M, full)
    assert report.passed()


def test_mu_check_reports_a_bad_block_once(d4, monkeypatch):
    # mor(K, H) for K = {0,1} and H = {0,1,4,5} in D4 has two aut(K)-orbits
    M = burnside_mackey(d4)
    H = subgroup(d4, (0, 1, 4, 5))
    assert mu_H_check(M, H).passed()  # also caches nu before ind is wrapped
    ct = M.classes
    h_idx, _ = ct.transport(H)
    k_idx, _ = ct.transport(subgroup(d4, (0, 1)))
    rep_k, rep_h = ct.rep(k_idx), ct.rep(h_idx)
    f0, f1 = (o.rep for o in nu_of_mackey(M).coinductions[k_idx].orbit_data[h_idx])
    ind = M.ind

    def corrupted(g, L, K):
        # the second orbit's induction picks up the first one's
        out = ind(g, L, K)
        if g == f1.rep and L.elems == rep_k.elems and K.elems == rep_h.elems:
            out = out.add(ind(f0.rep, L, K))
        return out

    monkeypatch.setattr(M, "ind", corrupted)
    report = mu_H_check(M, H)
    assert not report.passed()
    assert [
        (b.row_class, b.row_orbit, b.col_class, b.col_orbit, b.detail)
        for b in report.violations
    ] == [(k_idx, 0, k_idx, 1, "nonzero block between distinct orbits of one class")]


def test_zero_mackey(s3):
    Z = zero_mackey(s3)
    assert all(d == 0 for d in Z.dims)
    assert validate_mackey(Z).passed()
    nu = nu_of_mackey(Z)
    assert nu.all_bijective()


def test_format_parse_round_trip(s3):
    for build in (constant_mackey, burnside_mackey):
        M = build(s3)
        text = format_mackey(M)
        M2 = parse_mackey(text, s3)
        assert M2.dims == M.dims
        assert validate_mackey(M2).passed()
        subs = enumerate_subgroups(s3)
        full = subs[-1]
        for H in subs:
            assert M2.res(0, H, full) == M.res(0, H, full)
            assert M2.ind(0, H, full) == M.ind(0, H, full)


def test_parse_mackey_incomplete(s3):
    M = constant_mackey(s3)
    text = format_mackey(M)
    # drop a res block: parser must name the missing piece
    lines = [l for l in text.splitlines() if not l.startswith("res {0} {0,1}")]
    # removing the header leaves its rows, which now attach to the previous
    # block; instead cut the block properly
    out = []
    skip = 0
    for l in text.splitlines():
        if l.startswith("res {0} {0,1}"):
            skip = 1  # skip header and the single matrix row
            continue
        if skip:
            skip -= 1
            continue
        out.append(l)
    with pytest.raises(MackeyError, match="missing res"):
        parse_mackey("\n".join(out), s3)
