from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from equichern.cyclotomic import (
    Cyclotomic,
    CyclotomicError,
    cyclotomic_polynomial,
    format_cyclotomic,
    parse_cyclotomic,
    phi,
)
from equichern.groups import FiniteGroup
from equichern.qlinalg import (
    GroupAction,
    InconsistentSystemError,
    LinAlgError,
    RationalMatrix,
    averaging_projector,
    block_matrix,
    equivariant_hom_dim,
    hstack,
    induced_action,
    induced_map,
    intertwining_system,
    invariants,
    joint_kernel,
    kernel_mod_image,
    vstack,
)

import oracles
from generators import random_action


def M(rows):
    return RationalMatrix.from_rows(rows)


def test_rank_and_kernel_basics():
    ident = RationalMatrix.identity(3)
    assert ident.rank() == 3
    assert ident.kernel_basis() == RationalMatrix.zero(3, 0)
    m = M([[1, 1], [2, 2]])
    assert m.rank() == 1
    assert m.kernel_basis() == M([[-1], [1]])


def test_rank_nullity_random():
    import random

    rng = random.Random(7)
    for _ in range(50):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        m = RationalMatrix(r, c, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        assert m.rank() + m.kernel_basis().cols == c
        assert m.rank() == oracles.brute_rank(m.data)
        for v in m.kernel_basis().columns():
            assert all(x == 0 for x in m.apply(v))
        assert len(m.image_basis()) == m.rank()
        assert kernel_mod_image(RationalMatrix.zero(0, r), m)[0].cols == r - m.rank()


def _random_matrix(rng, rows, cols, density):
    def entry():
        if rng.random() >= density:
            return 0
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))

    return RationalMatrix(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def _assert_fractions(data):
    assert all(type(x) is Fraction for row in data for x in row)


def test_sparse_kernels_match_dense_oracles():
    rng = random.Random(11)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(40)]
    for density in (0, 0.05, 0.3, 1):
        for rows, cols in shapes:
            a = _random_matrix(rng, rows, cols, density)
            # rank <= 2 products exercise elimination against dependent rows
            low = _random_matrix(rng, rows, 2, density).mul(_random_matrix(rng, 2, cols, density))
            for m in (a, low):
                R, pivots = m.rref()
                assert (R.data, pivots) == oracles.dense_rref(m)
                _assert_fractions(R.data)
            for inner in (0, 1, rng.randint(2, 6)):
                left = _random_matrix(rng, rows, inner, density)
                right = _random_matrix(rng, inner, cols, density)
                prod = left.mul(right)
                assert (prod.rows, prod.cols, prod.data) == oracles.dense_mul(left, right)
                _assert_fractions(prod.data)
            b = _random_matrix(rng, rows, cols, density)
            total = a.add(b)
            assert total.data == tuple(
                tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(a.data, b.data)
            )
            _assert_fractions(total.data)
            vec = [rng.randint(-2, 2) for _ in range(cols)]
            image = a.apply(vec)
            assert image == tuple(sum(x * y for x, y in zip(row, vec)) for row in a.data)
            _assert_fractions([image])


def _assert_canonical(m):
    """Integer rows over a positive denominator in lowest terms, agreeing
    with the Fraction view."""
    assert len(m.num) == m.rows
    assert all(len(row) == m.cols and all(type(x) is int for x in row) for row in m.num)
    assert type(m.den) is int and m.den > 0
    assert gcd(m.den, *(x for row in m.num for x in row)) == 1
    _assert_fractions(m.data)
    assert m.data == tuple(tuple(Fraction(x, m.den) for x in row) for row in m.num)


def _mixed_matrix(rng, rows, cols):
    """Entries over one of several denominators, so operands mix them."""
    den = rng.choice((1, 2, 3, 4, 6, 9))
    return RationalMatrix(
        rows, cols, [[Fraction(rng.randint(-5, 5), den) for _ in range(cols)] for _ in range(rows)]
    )


def test_storage_is_canonical():
    rng = random.Random(41)
    for _ in range(60):
        rows, cols, inner = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 4)
        a, b = _mixed_matrix(rng, rows, cols), _mixed_matrix(rng, rows, cols)
        left, right = _mixed_matrix(rng, rows, inner), _mixed_matrix(rng, inner, cols)
        c = Fraction(rng.choice((-6, -1, 1, 3)), rng.choice((1, 2, 6)))
        R, _pivots = a.rref()
        built = [
            a, a.add(b), a.sub(b), a.sub(a), a.scale(c), a.scale(0), a.transpose(),
            left.mul(right), R, hstack([a, b]), vstack([a, b]),
            block_matrix({(0, 1): a, (1, 0): b}, [rows, rows], [cols, cols]),
        ]
        if rows:
            B = left.mul(right)
            X = left.solve(B)
            assert left.mul(X) == B
            built.append(X)
        for m in built:
            _assert_canonical(m)
    # the public constructor takes ints, Fractions and strings alike
    m = RationalMatrix(2, 2, [[Fraction(2, 4), "1/3"], [0, -1]])
    _assert_canonical(m)
    assert (m.num, m.den) == (((3, 2), (0, -6)), 6)
    assert RationalMatrix.zero(2, 3).den == 1


def test_equal_matrices_have_equal_storage():
    rng = random.Random(43)
    for _ in range(40):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a = _mixed_matrix(rng, rows, cols)
        same = [
            a.scale(Fraction(1, 2)).scale(2),
            a.scale(3).scale(Fraction(1, 3)),
            a.add(a).scale(Fraction(1, 2)),
            a.add(RationalMatrix.zero(rows, cols)),
            a.transpose().transpose(),
            RationalMatrix(rows, cols, [[str(x) for x in row] for row in a.data]),
            RationalMatrix.identity(rows).mul(a),
            a.mul(RationalMatrix.identity(cols)),
        ]
        if cols >= 2:
            k = rng.randint(1, cols - 1)
            cut = RationalMatrix.from_columns(a.columns()[:k], dim=rows)
            rest = RationalMatrix.from_columns(a.columns()[k:], dim=rows)
            same.append(hstack([cut, rest]))
        for m in same:
            assert m == a
            assert hash(m) == hash(a)
            assert (m.num, m.den) == (a.num, a.den)
        assert a.sub(a) == RationalMatrix.zero(rows, cols)
        assert a.sub(a).is_zero()
    half = M([[Fraction(1, 2)]])
    assert half != M([[1]]) and half.scale(2) == M([[1]])
    assert half.scale(2).is_identity() and not half.is_identity()


def test_stacking_and_blocks_match_dense_oracles():
    rng = random.Random(47)
    for _ in range(40):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        a, b = _mixed_matrix(rng, rows, cols), _mixed_matrix(rng, rows, cols)
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        for got, expected in (
            (a.add(b), oracles.dense_add(a, b)),
            (a.scale(c), oracles.dense_scale(a, c)),
        ):
            assert (got.rows, got.cols, got.data) == expected
        widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        parts = [_mixed_matrix(rng, rows, w) for w in widths]
        h = hstack(parts)
        assert (h.rows, h.cols, h.data) == oracles.dense_hstack(parts)
        heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        parts = [_mixed_matrix(rng, h_, cols) for h_ in heights]
        v = vstack(parts)
        assert (v.rows, v.cols, v.data) == oracles.dense_vstack(parts)
        row_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        col_dims = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        blocks = {
            (i, j): _mixed_matrix(rng, ri, cj)
            for i, ri in enumerate(row_dims)
            for j, cj in enumerate(col_dims)
            if rng.random() < 0.6
        }
        blk = block_matrix(blocks, row_dims, col_dims)
        assert (blk.rows, blk.cols, blk.data) == oracles.dense_block_matrix(
            blocks, row_dims, col_dims
        )
        for m in (h, v, blk):
            _assert_fractions(m.data)


def test_rref_with_non_unit_and_negative_pivots():
    cases = [
        M([[-2, 3, 1], [4, -6, 5]]),
        M([[0, -3, 6], [-5, 10, 0], [7, 1, -1]]),
        M([[Fraction(-2, 3), Fraction(4, 9)], [Fraction(6, 5), Fraction(-4, 5)]]),
        M([[6, 10, 15], [-4, 9, 1], [2, 19, 16]]),
    ]
    rng = random.Random(53)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[rng.choice((-7, -4, -3, -2, 0, 2, 3, 5, 9)) for _ in range(cols)] for _ in range(rows)]
        cases.append(M(entries))
        # rank at most 2, with large non-unit pivots
        low = _mixed_matrix(rng, rows, 2).mul(_mixed_matrix(rng, 2, cols)).scale(-12)
        cases.append(low)
    for m in cases:
        R, pivots = m.rref()
        assert (R.data, pivots) == oracles.dense_rref(m)
        _assert_canonical(R)
        K = m.kernel_basis()
        _assert_canonical(K)
        for v in K.columns():
            assert not any(m.apply(v))


def test_is_identity():
    assert RationalMatrix.identity(3).is_identity()
    assert RationalMatrix.identity(0).is_identity()
    assert not M([[1, 0], [0, 2]]).is_identity()
    assert not M([[1, 1], [0, 1]]).is_identity()
    assert not M([[1, 0, 0], [0, 1, 0]]).is_identity()


def _random_chain_pair(rng, dim):
    """(d_out, d_in) with d_out.d_in = 0 on Q^dim.  The columns of d_in and
    the rows of d_out may repeat, be zero or lie in the span of earlier ones,
    and some pairs are exact (d_out cuts out exactly the image of d_in)."""
    cols = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(("random", "in_span", "repeat", "zero"))
        if kind == "in_span" and cols:
            coeffs = [rng.randint(-2, 2) for _ in cols]
            cols.append(tuple(sum(c * v[i] for c, v in zip(coeffs, cols)) for i in range(dim)))
        elif kind == "repeat" and cols:
            cols.append(rng.choice(cols))
        elif kind == "zero":
            cols.append((Fraction(0),) * dim)
        else:
            cols.append(_random_matrix(rng, dim, 1, rng.choice((0.3, 1))).column(0))
    d_in = RationalMatrix.from_columns(cols, dim=dim)
    # rows y with y.d_in = 0
    left = d_in.transpose().kernel_basis().columns()
    rows = list(left) if rng.random() < 0.2 else []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("random", "repeat", "zero"))
        if kind == "repeat" and rows:
            rows.append(rng.choice(rows))
        elif kind == "zero" or not left:
            rows.append((Fraction(0),) * dim)
        else:
            coeffs = [rng.randint(-2, 2) for _ in left]
            rows.append(tuple(sum(c * v[i] for c, v in zip(coeffs, left)) for i in range(dim)))
    return RationalMatrix(len(rows), dim, rows), d_in


def test_kernel_mod_image_matches_greedy_loop():
    rng = random.Random(23)
    exact = 0
    for dim in (0, 0, 1, 2, 3, 4, 5, 6):
        for _ in range(40):
            d_out, d_in = _random_chain_pair(rng, dim)
            assert d_out.mul(d_in).is_zero()
            reps, image = kernel_mod_image(d_out, d_in)
            assert image == RationalMatrix.from_columns(d_in.image_basis(), dim=dim)
            assert image.cols == oracles.brute_rank(d_in.data)
            expected = oracles.greedy_complement(image, d_out.kernel_basis().columns(), dim)
            assert reps == RationalMatrix.from_columns(expected, dim=dim)
            rank_out = oracles.brute_rank(d_out.data)
            assert reps.cols == dim - rank_out - image.cols
            exact += dim > 0 and reps.cols == 0 and image.cols > 0
    assert exact > 5
    # a degree with neither map: every vector is a class
    reps, image = kernel_mod_image(RationalMatrix.zero(0, 3), RationalMatrix.zero(3, 0))
    assert reps == RationalMatrix.identity(3) and image == RationalMatrix.zero(3, 0)
    reps, image = kernel_mod_image(RationalMatrix.zero(0, 0), RationalMatrix.zero(0, 0))
    assert (reps.rows, reps.cols, image.rows, image.cols) == (0, 0, 0, 0)
    # kernel vectors in the span of the image are skipped, in order
    diag, e1, e2 = M([[1], [1]]), M([[1], [0]]), M([[0], [1]])
    assert kernel_mod_image(RationalMatrix.zero(0, 2), diag) == (e1, diag)
    assert kernel_mod_image(RationalMatrix.zero(0, 2), e1) == (e2, e1)
    assert kernel_mod_image(M([[1, -1]]), diag) == (RationalMatrix.zero(2, 0), diag)
    # repeated and zero columns of d_in, and zero rows of d_out, change nothing
    assert kernel_mod_image(M([[0, 0], [0, 0]]), M([[1, 1, 0, 2], [1, 1, 0, 2]])) == (e1, diag)


def test_joint_kernel(z2):
    action = _z2_swap(z2)
    basis, sub = joint_kernel([], action)
    assert basis == RationalMatrix.identity(2) and sub.mats == action.mats
    # the swap acts by -1 on the common kernel (-1, 1) of (1 1) and (2 2)
    basis, sub = joint_kernel([M([[1, 1]]), M([[2, 2]])], action)
    assert basis == M([[-1], [1]])
    assert sub.mats == (M([[1]]), M([[-1]]))


def test_induced_map_on_quotient_and_subspace():
    swap = M([[0, 1], [1, 0]])
    e1 = M([[1], [0]])
    diag = M([[1], [1]])
    # Q^2 / diagonal is spanned by e1, and swap.e1 = e2 = -e1 + (e1 + e2)
    assert induced_map(swap, e1, e1, diag) == M([[-1]])
    assert induced_map(RationalMatrix.identity(2), e1, e1, diag) == M([[1]])
    # the diagonal itself is fixed
    assert induced_map(swap, diag, diag, RationalMatrix.zero(2, 0)) == M([[1]])
    # no source columns, and the zero space
    assert induced_map(swap, RationalMatrix.zero(2, 0), e1, diag) == RationalMatrix.zero(1, 0)
    empty = RationalMatrix.zero(0, 0)
    assert induced_map(empty, empty, empty, empty) == empty


def test_induced_action(z2):
    action = _z2_swap(z2)
    # the invariant line spanned by (1, -1), with an empty image
    sub = induced_action(action, M([[1], [-1]]), RationalMatrix.zero(2, 0))
    assert sub.dim == 1
    assert sub.mats == (M([[1]]), M([[-1]]))
    # Q^2 modulo the diagonal, represented by e1: the swap acts by -1
    quot = induced_action(action, M([[1], [0]]), M([[1], [1]]))
    assert quot.dim == 1
    assert quot.mats == (M([[1]]), M([[-1]]))
    quot.validate()


def test_solve():
    m = M([[1, 2], [3, 4]])
    x = m.solve(M([[5], [11]]))
    assert m.mul(x) == M([[5], [11]])
    with pytest.raises(InconsistentSystemError):
        M([[1, 1], [1, 1]]).solve(M([[0], [1]]))


def test_solve_matches_per_column_oracle():
    rng = random.Random(31)
    inconsistent = 0
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
    shapes += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(40)]
    for rows, cols in shapes:
        for density in (0.3, 1):
            full = _random_matrix(rng, rows, cols, density)
            # rank <= 2: systems with free unknowns and a proper column space
            low = _random_matrix(rng, rows, 2, density).mul(_random_matrix(rng, 2, cols, density))
            for A in (full, low):
                for k in (0, 1, rng.randint(2, 5)):
                    B = A.mul(_random_matrix(rng, cols, k, density))
                    expected = oracles.column_solve(A, B)
                    X = A.solve(B)
                    assert (X.rows, X.cols) == (cols, k)
                    assert X.columns() == expected
                    assert A.mul(X) == B
                    _assert_fractions(X.data)
                    # one right-hand side outside the column space, anywhere in B
                    bad = _random_matrix(rng, rows, 1, 1).column(0)
                    if oracles.column_solve(A, RationalMatrix.from_columns([bad], dim=rows)) is None:
                        at = rng.randint(0, k)
                        cols_b = B.columns()
                        cols_b.insert(at, bad)
                        B_bad = RationalMatrix.from_columns(cols_b, dim=rows)
                        assert oracles.column_solve(A, B_bad) is None
                        with pytest.raises(InconsistentSystemError):
                            A.solve(B_bad)
                        inconsistent += 1
    assert inconsistent > 50


def test_cokernel():
    # the cokernel of m: n -> r is ker(r -> 0) modulo im m
    def cokernel_dim(m):
        return kernel_mod_image(RationalMatrix.zero(0, m.rows), m)[0].cols

    assert cokernel_dim(RationalMatrix.zero(3, 2)) == 3
    assert cokernel_dim(RationalMatrix.identity(2)) == 0
    assert cokernel_dim(M([[1], [1]])) == 1


def _z2_swap(z2):
    swap = M([[0, 1], [1, 0]])
    return GroupAction(z2, 2, (RationalMatrix.identity(2), swap)).validate()


def test_invariants(z2):
    triv = GroupAction.trivial(z2, 2)
    assert len(invariants(triv)) == 2
    act = _z2_swap(z2)
    inv = invariants(act)
    assert len(inv) == 1
    assert inv[0] == (Fraction(1), Fraction(1))
    P = averaging_projector(act, range(z2.order))
    assert P.mul(P) == P
    assert averaging_projector(act, [0]) == RationalMatrix.identity(2)


def test_equivariant_hom_dim(z2):
    triv1 = GroupAction.trivial(z2, 1)
    assert equivariant_hom_dim(triv1, triv1) == 1
    swap = _z2_swap(z2)
    assert equivariant_hom_dim(swap, triv1) == 1
    sign = GroupAction(z2, 1, (RationalMatrix.identity(1), M([[-1]]))).validate()
    assert equivariant_hom_dim(sign, triv1) == 0
    # regular representation: hom(reg, V) has dim = dim V
    assert equivariant_hom_dim(swap, swap) == 2


def test_action_validation(z2):
    bad = GroupAction(z2, 1, (RationalMatrix.identity(1), M([[2]])))
    with pytest.raises(Exception):
        bad.validate()


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_product_of_cyclotomics_is_xn_minus_one():
    # prod over d | n of Phi_d == x^n - 1, exactly, for all n <= 24
    from equichern.cyclotomic import _poly_mul, divisors

    for n in range(1, 25):
        prod = [1]
        for d in divisors(n):
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [0] * (n + 1)
        expected[0], expected[n] = -1, 1
        assert prod == expected, n


def test_root_relations():
    w = Cyclotomic.root(3)
    assert (w + w * w) == Cyclotomic.rational(-1)
    z8 = Cyclotomic.root(8)
    assert z8 * Cyclotomic.root(8, 3) == Cyclotomic.rational(-1)
    # Phi_N(zeta_N) = 0 for N <= 24
    for n in range(1, 25):
        poly = cyclotomic_polynomial(n)
        acc = Cyclotomic.zero(n)
        for k, c in enumerate(poly):
            if c:
                acc = acc + Cyclotomic.root(n, k) * Cyclotomic.rational(c)
        assert acc.is_zero(), n


def test_mixed_conductors():
    w3 = Cyclotomic.root(3)
    i = Cyclotomic.root(4)
    x = w3 + i
    assert x.conductor == 12
    assert (x - i - w3).is_zero()
    assert (i * i) == Cyclotomic.rational(-1)


def test_is_rational():
    w = Cyclotomic.root(5)
    s = w + Cyclotomic.root(5, 2) + Cyclotomic.root(5, 3) + Cyclotomic.root(5, 4)
    assert s.is_rational()
    assert s.as_rational() == Fraction(-1)
    assert not w.is_rational()
    with pytest.raises(CyclotomicError):
        w.as_rational()


def test_parse_and_format_cyclotomic():
    samples = [
        "1/2 + 1/2*z(3) - z(3)^2",
        "2",
        "-3/4",
        "z(8)^3",
        "1 - z(4)",
        "0",
    ]
    for s in samples:
        x = parse_cyclotomic(s)
        again = parse_cyclotomic(format_cyclotomic(x))
        assert x == again, s
    assert parse_cyclotomic("z(3) + z(3)^2") == Cyclotomic.rational(-1)
    with pytest.raises(CyclotomicError):
        parse_cyclotomic("z3 + bogus")


def test_phi():
    assert [phi(n) for n in (1, 2, 3, 4, 6, 8, 12)] == [1, 1, 2, 2, 2, 4, 4]


def test_intertwining_system():
    # t_0 (1x2) . A = B . t_1 (2x2), and t_1 commutes with the Jordan block C
    # (a constraint with x == y accumulates)
    A = RationalMatrix.identity(2)
    B = M([[1, 1]])
    C = M([[1, 1], [0, 1]])
    S = intertwining_system([(0, 1, A, B), (1, 1, C, C)], [2, 2], [1, 2])
    assert (S.rows, S.cols) == (1 * 2 + 2 * 2, 1 * 2 + 2 * 2)
    basis = S.kernel_basis().columns()
    for v in basis:
        t0, t1 = M([v[0:2]]), M([v[2:4], v[4:6]])
        assert t0.mul(A) == B.mul(t1)
        assert t1.mul(C) == C.mul(t1)
    # t_1 = a.1 + b.(C - 1) and t_0 = B.t_1 = (a, a + b)
    expected = [(1, 1, 1, 0, 0, 1), (0, 1, 0, 1, 0, 0)]
    assert len(basis) == 2 == oracles.brute_rank(list(basis) + expected)
    assert intertwining_system([], [2, 3], [1, 1]).kernel_basis() == RationalMatrix.identity(5)
    with pytest.raises(LinAlgError, match="wrong shape"):
        intertwining_system([(0, 0, A, M([[1]]))], [2], [2])


def test_equivariant_hom_dim_matches_fraction_oracle(groups):
    trivial = FiniteGroup([[0]], name="1")
    assert trivial.generators() == ()
    rng = random.Random(23)
    for W in (trivial, groups["z2"], groups["s3"], groups["d4"]):
        zero = GroupAction(W, 0, tuple(RationalMatrix.zero(0, 0) for _ in range(W.order)))
        actions = [zero] + [random_action(W, rng) for _ in range(4)]
        for A in actions:
            for B in actions:
                gens = W.generators()
                system = [(0, 0, A.mats[w], B.mats[w]) for w in gens]
                expected = len(oracles.fraction_intertwiners(system, [A.dim], [B.dim]))
                assert equivariant_hom_dim(A, B) == expected, (W.name, A.dim, B.dim)
                # and the character inner product, for rational characters
                chi_a, chi_b = A.character(), B.character()
                pairing = sum(chi_a[W.inv(g)] * chi_b[g] for g in range(W.order))
                assert expected == pairing / W.order
