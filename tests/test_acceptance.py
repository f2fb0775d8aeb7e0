"""Acceptance criteria, one test per criterion, each printing a verdict line.

All tolerances are exact (integer dimension equalities and exact matrix
identities); the stated runtime budgets are asserted with time.monotonic.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from equichern.bredon import CoefficientSystem, alpha_map, verify_collapse
from equichern.chartab import ChartabError, parse_character_table
from equichern.data import (
    bundled_chartab_text,
    bundled_group,
    bundled_group_names,
    bundled_space_names,
)
from equichern.eicat import (
    build_sub_category,
    check_splitting_identities,
    nu_map,
)
from equichern.gcw import (
    GcwError,
    builtin_examples,
    euler_check,
    orbit_complex,
    parse_gcw,
    point_complex,
)
from equichern.groups import subgroup_conjugacy_classes
from equichern.mackey import (
    MackeyFunctor,
    T_H_of_mackey,
    builtin_mackey,
    mackey_to_sub_module,
    nu_of_mackey,
    validate_mackey,
)
from equichern.qlinalg import RationalMatrix, invariants

import oracles
from generators import random_action, random_module

BUILTINS = ("constant", "burnside", "repring")


def _verdict(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_orbit_computation():
    """H^0(G/H; M) = M(H) exactly, H^p = 0 for p > 0, for every bundled G,
    every subgroup class, every built-in; < 10 s for orders <= 24."""
    from equichern.bredon import bredon_cohomology

    start = time.monotonic()
    checked = 0
    for name in bundled_group_names():
        G = bundled_group(name)
        ct = subgroup_conjugacy_classes(G)
        for coeff in BUILTINS:
            M = builtin_mackey(coeff, G)
            Mcat = mackey_to_sub_module(M)
            for cls in ct.classes:
                X = orbit_complex(G, cls.rep)
                cohom = bredon_cohomology(X, Mcat)
                assert cohom.dims[0] == M.dim_of(cls.rep), (name, coeff, cls.rep)
                assert all(d == 0 for d in cohom.dims[1:])
                checked += 1
    elapsed = time.monotonic() - start
    _verdict(1, elapsed < 10.0, f"({checked} orbit checks in {elapsed:.1f}s)")


def test_criterion_2_nu_bijectivity():
    """nu(M) bijective at every object for 7 groups x 3 built-ins; < 60 s."""
    start = time.monotonic()
    checked = 0
    for name in ("z2", "z4", "z6", "s3", "d4", "q8", "a4"):
        G = bundled_group(name)
        for coeff in BUILTINS:
            nu = nu_of_mackey(builtin_mackey(coeff, G))
            assert nu.all_bijective(), (name, coeff, nu.verdicts)
            checked += len(nu.verdicts)
    elapsed = time.monotonic() - start
    _verdict(2, elapsed < 60.0, f"({checked} object verdicts in {elapsed:.1f}s)")


def _oracle_invariant_dim(part):
    """Independent invariants count: brute rank of the averaging matrix."""
    W = part.action.group
    dim = part.action.dim
    if dim == 0:
        return 0
    avg = [[Fraction(0)] * dim for _ in range(dim)]
    for w in range(W.order):
        m = part.action.mats[w]
        for i in range(dim):
            for j in range(dim):
                avg[i][j] += Fraction(m.data[i][j], W.order)
    return oracles.brute_rank(avg)


def test_criterion_3_top_object_identity():
    """dim M(G) = sum over (H) of dim (T_H M)^{W_G H}, pinned instances."""
    cases = [
        ("s3", "repring", 3, [1, 1, 1, 0]),
        ("s3", "burnside", 4, [1, 1, 1, 1]),
        ("z4", "repring", 4, [1, 1, 2]),
    ]
    for name, coeff, total, expected in cases:
        G = bundled_group(name)
        M = builtin_mackey(coeff, G)
        per_class = []
        for cls in M.classes.classes:
            part = T_H_of_mackey(M, cls.rep)
            # oracle: brute-force kernel of the stacked restriction matrices
            from equichern.groups import enumerate_subgroups

            stack = []
            rset = set(cls.rep.elems)
            j = M.classes.class_of(cls.rep)
            for L in enumerate_subgroups(G):
                if set(L.elems) < rset:
                    stack.extend(M.incl_res(L, j).data)
            t_dim_oracle = M.dims[j] - oracles.brute_rank(stack) if stack else M.dims[j]
            assert part.action.dim == t_dim_oracle
            inv_dim = len(invariants(part.action))
            assert inv_dim == _oracle_invariant_dim(part)
            per_class.append(inv_dim)
        assert per_class == expected, (name, coeff, per_class)
        assert M.dims[-1] == total == sum(per_class)
    _verdict(3, True, "(3 pinned identities, oracle-checked)")


def test_criterion_4_double_coset_formula():
    """Exact matrix DCF for all subgroup pairs of all bundled groups and all
    built-ins; < 30 s."""
    start = time.monotonic()
    pairs = 0
    for name in bundled_group_names():
        G = bundled_group(name)
        for coeff in BUILTINS:
            report = validate_mackey(builtin_mackey(coeff, G))
            assert report.passed(), (name, coeff, report.lines())
            pairs += report.double_coset.checked
    elapsed = time.monotonic() - start
    _verdict(4, elapsed < 30.0, f"({pairs} subgroup pairs in {elapsed:.1f}s)")


def _oracle_chern_side(X, M, n):
    """Right side recomputed from raw fixed-point complexes, independent of
    the Sub(G,F) machinery; valid when every Weyl action on nonzero homology
    is trivial (checked), so hom dims are plain products."""
    from equichern.groups import enumerate_subgroups

    G = X.group
    ct = subgroup_conjugacy_classes(G)
    total = 0
    for j, cls in enumerate(ct.classes):
        h_dims = oracles.quotient_cw_homology_dims(X, cls.rep.elems)
        stack = []
        rset = set(cls.rep.elems)
        for L in enumerate_subgroups(G):
            if set(L.elems) < rset:
                stack.extend(M.incl_res(L, j).data)
        t_dim = M.dims[j] - oracles.brute_rank(stack) if stack else M.dims[j]
        part = T_H_of_mackey(M, cls.rep)
        if any(h_dims[: X.dim + 1]) and t_dim:
            assert cls.weyl.order == 1 or part.action.character() == tuple(
                [part.action.dim] * cls.weyl.order
            ), "oracle assumes trivial Weyl action here"
        for p in range(0, X.dim + 1):
            if n - p == 0:
                total += h_dims[p] * t_dim
    return total


def test_criterion_5_collapse():
    """dim BH^n = dim chern_target^n for the bundled corpus; the
    reflection-circle instance is pinned; < 2 min."""
    from equichern.bredon import chern_target

    start = time.monotonic()
    # pinned worked instance
    X = builtin_examples("reflection_circle")
    coeffs = CoefficientSystem.single(builtin_mackey("repring", X.group))
    rep = verify_collapse(X, coeffs, range(0, 2))
    assert rep.rows[0].left == rep.rows[0].right == 3
    assert rep.rows[1].left == rep.rows[1].right == 0
    # external oracle for the right side on the named instance
    Xs = builtin_examples("s3_triangle")
    Mb = builtin_mackey("burnside", Xs.group)
    coeffs_b = CoefficientSystem.single(Mb)
    for n in range(0, 2):
        _entries, total = chern_target(Xs, coeffs_b, n)
        assert total == _oracle_chern_side(Xs, Mb, n), n
    checked = 0
    for sname in bundled_space_names():
        X = builtin_examples(sname)
        for coeff in BUILTINS:
            coeffs = CoefficientSystem.single(builtin_mackey(coeff, X.group))
            report = verify_collapse(X, coeffs, range(0, X.dim + 1))
            assert report.passed(), (sname, coeff)
            checked += len(report.rows)
    for gname in bundled_group_names():
        G = bundled_group(gname)
        X = point_complex(G)
        for coeff in BUILTINS:
            coeffs = CoefficientSystem.single(builtin_mackey(coeff, G))
            report = verify_collapse(X, coeffs, range(0, 1))
            assert report.passed(), (gname, coeff)
            checked += len(report.rows)
    elapsed = time.monotonic() - start
    _verdict(5, elapsed < 120.0, f"({checked} degrees compared in {elapsed:.1f}s)")


def test_criterion_6_alpha_bijectivity():
    """alpha bijective for Mackey-induced coefficients on every bundled
    complex, stable under re-randomized representatives."""
    rng = random.Random(20240808)
    checked = 0
    for sname in bundled_space_names():
        X = builtin_examples(sname)
        for coeff in BUILTINS:
            M = builtin_mackey(coeff, X.group)
            for p in range(0, X.dim + 1):
                res = alpha_map(X, M, p, rng=rng)
                assert res.bijective, (sname, coeff, p)
                assert res.stable, (sname, coeff, p)
                checked += 1
    _verdict(6, True, f"({checked} alpha maps, all bijective and stable)")


def test_criterion_7_splitting_identities():
    """S_c i(c)_* = id, T_c i(c)_! = id, vanishing for c != d, on >= 100
    randomized aut(c)-modules across Sub(S3,F) and Sub(D4,F)."""
    rng = random.Random(271828)
    modules_used = 0
    for gname, per_object in (("s3", 13), ("d4", 7)):
        cat = build_sub_category(bundled_group(gname))
        nobj = len(cat.objects)
        for c in range(nobj):
            W = cat.aut(c).group
            for _ in range(per_object):
                V = random_action(W, rng, max_blocks=2)
                modules_used += 1
                for d in range(nobj):
                    report = check_splitting_identities(cat, c, d, V)
                    assert report.ok, (gname, c, d, report.detail)
    _verdict(7, modules_used >= 100, f"({modules_used} randomized aut-modules)")


def test_criterion_8_nu_injectivity():
    """Per-object injectivity of nu on >= 100 randomized Sub(G,F)-modules."""
    rng = random.Random(314159)
    count = 0
    for gname, reps in (("s3", 60), ("d4", 45)):
        cat = build_sub_category(bundled_group(gname))
        for _ in range(reps):
            M = random_module(cat, rng)
            nu = nu_map(M)
            assert nu.all_injective(), (gname, M.dims)
            count += 1
    _verdict(8, count >= 100, f"({count} randomized modules, nu injective)")


def test_criterion_9_structural_validators():
    """All validators pass on the corpus; each has a failing negative control
    with a named witness."""
    from equichern.bredon import bredon_cochain
    from equichern.mackey import MackeyError

    # positive side
    for sname in bundled_space_names():
        X = builtin_examples(sname)
        euler_check(X)
        for coeff in BUILTINS:
            Mcat = mackey_to_sub_module(builtin_mackey(coeff, X.group))
            bredon_cochain(X, Mcat).validate()  # includes delta^2 = 0
    for cname in ("s3", "d4", "q8", "a4", "s4"):
        parse_character_table(bundled_chartab_text(cname), bundled_group(cname))

    # negative controls, each naming its witness
    z2 = bundled_group("z2")
    bad_gcw = (
        "gcw bad\ngroup z2\ndim 2\n"
        "cells 0: a iso={0,1}; b iso={0,1}\n"
        "cells 1: e iso={0,1}\n"
        "cells 2: f iso={0,1}\n"
        "boundary e = 1*(a, 0) - 1*(b, 0)\n"
        "boundary f = 1*(e, 0)\n"
    )
    with pytest.raises(GcwError, match="cell f"):
        parse_gcw(bad_gcw, z2)

    s3 = bundled_group("s3")
    bad_table = bundled_chartab_text("s3").replace(
        "chi std: 2, 0, -1", "chi std: 2, 1, -1"
    )
    with pytest.raises(ChartabError, match="orthogonality|degree"):
        parse_character_table(bad_table, s3)

    good = builtin_mackey("constant", s3)

    def bad_ind(L, j):
        m = good.incl_ind(L, j)
        if len(L.elems) == 1 and len(good.classes.rep(j).elems) == 2:
            return m.add(RationalMatrix.from_rows([[1]]))
        return m

    bad_mackey = MackeyFunctor(
        s3, "corrupted", good.dims, good.incl_res, bad_ind,
        lambda j, n: RationalMatrix.identity(1),
    )
    report = validate_mackey(bad_mackey)
    assert not report.double_coset.ok
    assert "H={" in report.double_coset.witness

    # Euler negative control: an inconsistent chain complex cannot even be
    # constructed (d^2 = 0 is enforced), so corrupt at the evaluated level
    from equichern.gcw import EvaluatedChainComplex

    bad_eval = EvaluatedChainComplex(
        dims=(1, 1, 1),
        boundaries=(
            RationalMatrix.zero(0, 0),
            RationalMatrix.from_rows([[1]]),
            RationalMatrix.from_rows([[1]]),
        ),
        labels=((0,), (0,), (0,)),
        actions=None,
    )
    with pytest.raises(GcwError, match="degree 2"):
        bad_eval.validate()

    _verdict(9, True, "(validators green; negative controls fail with witnesses)")
