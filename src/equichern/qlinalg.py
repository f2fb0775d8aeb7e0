"""Exact linear algebra over Q and group-action invariants.

A `RationalMatrix` stores rows of integer numerators over one positive common
denominator, in lowest terms: no prime divides the denominator and every
numerator.  Equal matrices therefore have equal storage, and the kernels work
on Python ints.  `.data` is the public view of the entries as
`fractions.Fraction`, built on first use and cached.  Floating point is
forbidden repository-wide.  Pivots are chosen first-nonzero in row-major
order, so all reported bases are echelon-canonical and deterministic.

The public constructor coerces every entry to a rational and checks the
shape; the kernels build their results with the trusted `RationalMatrix._of`.
`mul`, `rref` and `apply` skip structural zeros.  `rref` eliminates without
fractions on primitive integer rows (after Bareiss, Math. Comp. 22, 1968) and
divides each pivot row by its pivot once at the end.  The reduced row echelon
form of a matrix is unique, so results, pivots and bases are those of
Gauss-Jordan elimination over `Fraction`.

`solve` takes a matrix of right-hand sides and reduces `[A | B]` once, so
each exact linear system is solved once for all its columns.  On top of it,
each of the ideas behind homology with an action is written once:
`kernel_mod_image(d_out, d_in)` picks representatives of ker d_out modulo
im d_in (a degree with no outgoing or incoming map passes its 0 x n or n x 0
map), `induced_map` writes down the map a matrix induces on such
representatives, and `induced_action` does so for a whole group action with
one solve.  `joint_kernel` is the case of an invariant subspace: the common
kernel of several maps with the action induced on it.  Fixed subspaces come
from one checked averaging projector, `averaging_projector`.  Every hom space
is the kernel of one `intertwining_system`: equivariant maps between group
actions and natural transformations between modules over a category alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm


class LinAlgError(ValueError):
    pass


class InconsistentSystemError(LinAlgError):
    pass


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def _reduced(rows, cols, num, den):
    """The matrix num / den (den > 0) with the common factor cancelled."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple(tuple(x // g for x in row) for row in num)
            den //= g
    return RationalMatrix._of(rows, cols, num, den)


class RationalMatrix:
    """An immutable rows x cols matrix of exact rationals, stored as the
    tuple of integer rows `num` over the positive denominator `den`."""

    __slots__ = ("rows", "cols", "num", "den", "_data", "_rref")

    def __init__(self, rows, cols, data):
        entries = [[x if type(x) is int else _frac(x) for x in row] for row in data]
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise LinAlgError("inconsistent matrix dimensions")
        # the lcm of reduced denominators leaves the numerators in lowest terms
        den = lcm(*{x.denominator for row in entries for x in row if type(x) is not int})
        self.rows = rows
        self.cols = cols
        self.num = tuple(
            tuple(x * den if type(x) is int else x.numerator * (den // x.denominator) for x in row)
            for row in entries
        )
        self.den = den
        self._data = None
        self._rref = None

    @classmethod
    def _of(cls, rows, cols, num, den=1):
        """Trusted constructor for data a kernel built: `num` a tuple of
        `rows` int tuples of length `cols`, over den > 0, in lowest terms."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.num = num
        m.den = den
        m._data = None
        m._rref = None
        return m

    @property
    def data(self):
        """The entries as rows of `Fraction`."""
        if self._data is None:
            den = self.den
            if den == 1:
                self._data = tuple(tuple(map(Fraction, row)) for row in self.num)
            else:
                self._data = tuple(tuple(Fraction(x, den) for x in row) for row in self.num)
        return self._data

    @staticmethod
    def from_rows(data):
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return RationalMatrix(rows, cols, data)

    @staticmethod
    def zero(rows, cols):
        return RationalMatrix._of(rows, cols, ((0,) * cols,) * rows)

    @staticmethod
    def identity(n):
        return RationalMatrix._of(
            n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @staticmethod
    def from_columns(cols, dim=None):
        cols = [tuple(c) for c in cols]
        if cols:
            dim = len(cols[0])
        elif dim is None:
            raise LinAlgError("from_columns needs the ambient dimension for no columns")
        return RationalMatrix(dim, len(cols), [[c[i] for c in cols] for i in range(dim)])

    def _numerators_over(self, den):
        """The integer rows of the entries times den, a multiple of self.den."""
        if den == self.den:
            return self.num
        f = den // self.den
        return tuple(tuple(x * f for x in row) for row in self.num)

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, self.num))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def is_zero(self):
        return not any(map(any, self.num))

    def is_identity(self):
        return self.rows == self.cols and self.den == 1 and all(
            x == (1 if i == j else 0) for i, row in enumerate(self.num) for j, x in enumerate(row)
        )

    def add(self, other):
        self._check_same_shape(other)
        den = lcm(self.den, other.den)
        num = tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self._numerators_over(den), other._numerators_over(den))
        )
        return _reduced(self.rows, self.cols, num, den)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        c = _frac(c)
        p = c.numerator
        num = tuple(tuple(p * x for x in row) for row in self.num)
        return _reduced(self.rows, self.cols, num, self.den * c.denominator)

    def mul(self, other):
        if self.cols != other.rows:
            raise LinAlgError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        n = other.cols
        # nonzero (col, value) pairs of each row of the right factor
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in other.num]
        out = []
        for row in self.num:
            acc = [0] * n
            for a, srow in zip(row, sparse):
                if a:
                    for j, b in srow:
                        acc[j] += a * b
            out.append(tuple(acc))
        return _reduced(self.rows, n, tuple(out), self.den * other.den)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise LinAlgError("vector length mismatch")
        vec = [_frac(b) for b in vec]
        d = lcm(*(b.denominator for b in vec))
        ints = [b.numerator * (d // b.denominator) for b in vec]
        den = self.den * d
        return tuple(
            Fraction(sum(a * b for a, b in zip(row, ints) if a and b), den) for row in self.num
        )

    def transpose(self):
        num = tuple(zip(*self.num)) if self.rows else ((),) * self.cols
        return RationalMatrix._of(self.cols, self.rows, num, self.den)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError("shape mismatch")

    def rref(self):
        """(reduced row echelon form, pivot column indices).

        Rows stay primitive integer vectors: eliminating column c from a row
        replaces it by a.row - b.pivot_row with a, b coprime, then divides out
        its content.  Each row is a rational multiple of the row Gauss-Jordan
        elimination over Q would hold, so the pivots are the same."""
        if self._rref is not None:
            return self._rref
        rows, cols = self.rows, self.cols
        m = []
        for row in self.num:
            g = gcd(*row)
            m.append([x // g for x in row] if g > 1 else list(row))
        pivots = []
        r = 0
        for c in range(cols):
            pivot_row = None
            for i in range(r, rows):
                if m[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            prow = m[r]
            # the pivot row is zero left of c
            nz = [k for k in range(c, cols) if prow[k]]
            pv = prow[c]
            for i in range(rows):
                row = m[i]
                f = row[c]
                if i != r and f:
                    g = gcd(pv, f)
                    a, b = pv // g, f // g
                    if a < 0:
                        a, b = -a, -b
                    if a != 1:
                        row = [a * x for x in row]
                    for k in nz:
                        row[k] -= b * prow[k]
                    g = gcd(*row)
                    m[i] = [x // g for x in row] if g > 1 else row
            pivots.append(c)
            r += 1
            if r == rows:
                break
        # rows past the rank are zero; divide each pivot row by its pivot
        lead = [m[k][p] for k, p in enumerate(pivots)]
        den = lcm(*lead)
        num = tuple(tuple(x * (den // pv) for x in m[k]) for k, pv in enumerate(lead))
        num += ((0,) * cols,) * (rows - len(pivots))
        self._rref = (_reduced(rows, cols, num, den), tuple(pivots))
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Echelon-canonical basis of the null space, as the columns of a
        matrix: one per free column f, with 1 at f and minus column f of the
        rref at the pivots."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        num = [[0] * len(free) for _ in range(self.cols)]
        for k, f in enumerate(free):
            num[f][k] = R.den
            for r, p in enumerate(pivots):
                num[p][k] = -R.num[r][f]
        return _reduced(self.cols, len(free), tuple(map(tuple, num)), R.den)

    def _columns(self, idx):
        """The matrix of the columns idx, in that order."""
        num = tuple(tuple(row[j] for j in idx) for row in self.num)
        return _reduced(self.rows, len(idx), num, self.den)

    def image_basis(self):
        """Echelon-canonical basis of the column space."""
        if not self.cols:
            return ()
        Rt, pivots = self.transpose().rref()
        return tuple(Rt.data[i] for i in range(len(pivots)))

    def solve(self, B):
        """The X with self.X = B, from one rref of [self | B]; unknowns at
        non-pivot columns are 0.  Raises InconsistentSystemError if any
        column of B is not in the column space."""
        if B.rows != self.rows:
            raise LinAlgError("right-hand side has the wrong number of rows")
        R, pivots = hstack([self, B]).rref()
        if pivots and pivots[-1] >= self.cols:
            raise InconsistentSystemError("inconsistent linear system")
        num = [(0,) * B.cols] * self.cols
        for r, p in enumerate(pivots):
            num[p] = R.num[r][self.cols:]
        return _reduced(self.cols, B.cols, tuple(num), R.den)


# The lcm of denominators in lowest terms keeps the stacked numerators in
# lowest terms, so the stacking functions build with the trusted constructor.


def hstack(mats):
    mats = list(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise LinAlgError("hstack row mismatch")
    den = lcm(*(m.den for m in mats))
    blocks = [m._numerators_over(den) for m in mats]
    num = tuple(tuple(chain.from_iterable(parts)) for parts in zip(*blocks))
    return RationalMatrix._of(rows, sum(m.cols for m in mats), num, den)


def vstack(mats):
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise LinAlgError("vstack column mismatch")
    den = lcm(*(m.den for m in mats))
    num = tuple(chain.from_iterable(m._numerators_over(den) for m in mats))
    return RationalMatrix._of(sum(m.rows for m in mats), cols, num, den)


def block_matrix(blocks, row_dims, col_dims):
    """Assemble a matrix from a {(i,j): RationalMatrix} dict of blocks."""
    total_r, total_c = sum(row_dims), sum(col_dims)
    den = lcm(*(blk.den for blk in blocks.values()))
    data = [[0] * total_c for _ in range(total_r)]
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    for (i, j), blk in blocks.items():
        if blk.rows != row_dims[i] or blk.cols != col_dims[j]:
            raise LinAlgError(f"block ({i},{j}) has wrong shape")
        for r, row in enumerate(blk._numerators_over(den)):
            data[roff[i] + r][coff[j]:coff[j] + blk.cols] = row
    return RationalMatrix._of(total_r, total_c, tuple(map(tuple, data)), den)


def kernel_mod_image(d_out, d_in):
    """(reps, image) for ker d_out modulo im d_in, where d_out.d_in = 0.

    `image` holds the echelon basis of im d_in as columns.  `reps` holds the
    kernel basis vectors that are not in the span of the image and the kernel
    vectors before them: the pivot columns of one rref of [image | kernel].
    A degree with no outgoing map passes its 0 x n map, and one with no
    incoming map its n x 0 map."""
    reps = d_out.kernel_basis()
    image = RationalMatrix.from_columns(d_in.image_basis(), dim=d_out.cols)
    if image.cols:  # with no image every kernel vector is a pivot
        _, pivots = hstack([image, reps]).rref()
        reps = reps._columns([j - image.cols for j in pivots if j >= image.cols])
    return reps, image


def induced_map(m, src, reps, image):
    """The map induced by m from the columns of src to the span of reps
    modulo image: column j holds the reps-coordinates of m.src_j in
    [reps | image]."""
    X = hstack([reps, image]).solve(m.mul(src))
    return _reduced(reps.cols, src.cols, X.num[: reps.cols], X.den)


def induced_action(action, reps, image):
    """The action induced on the span of reps modulo image (both invariant),
    from one solve: the right-hand side holds every mats[g].reps side by
    side, and column block g of the solution is the matrix of g."""
    k = reps.cols
    X = hstack([reps, image]).solve(hstack([m.mul(reps) for m in action.mats]))
    mats = tuple(
        _reduced(k, k, tuple(row[g * k:(g + 1) * k] for row in X.num[:k]), X.den)
        for g in range(len(action.mats))
    )
    return GroupAction(action.group, k, mats)


def joint_kernel(maps, action):
    """(basis, induced action): the common kernel of `maps`, matrices on the
    space `action` acts on, as basis columns, with the action induced on it."""
    n = action.dim
    basis = vstack([RationalMatrix.zero(0, n), *maps]).kernel_basis()
    return basis, induced_action(action, basis, RationalMatrix.zero(n, 0))


@dataclass(frozen=True)
class GroupAction:
    """An exact left action: mats[g] . mats[h] == mats[g*h]."""

    group: object
    dim: int
    mats: tuple

    @staticmethod
    def trivial(group, dim):
        ident = RationalMatrix.identity(dim)
        return GroupAction(group, dim, tuple(ident for _ in range(group.order)))

    def validate(self):
        if len(self.mats) != self.group.order:
            raise LinAlgError("action has wrong number of matrices")
        if not self.mats[0].is_identity():
            raise LinAlgError("action does not send the identity to the identity matrix")
        for m in self.mats:
            if m.rows != self.dim or m.cols != self.dim:
                raise LinAlgError("action matrix has wrong shape")
        t = self.group.table
        for g in range(self.group.order):
            for h in range(self.group.order):
                if self.mats[g].mul(self.mats[h]) != self.mats[t[g][h]]:
                    raise LinAlgError(f"action is not a homomorphism at ({g},{h})")
        return self

    def character(self):
        """Trace per group element (basis-independent fingerprint)."""
        return tuple(Fraction(sum(m.num[i][i] for i in range(self.dim)), m.den) for m in self.mats)


def averaging_projector(action, elems):
    """P = (1/|S|) sum_{s in S} mats[s] for a subgroup S given by its
    elements; exact, checked idempotent, image = the S-fixed subspace."""
    acc = RationalMatrix.zero(action.dim, action.dim)
    for g in elems:
        acc = acc.add(action.mats[g])
    P = acc.scale(Fraction(1, len(elems)))
    if P.mul(P) != P:
        raise LinAlgError("averaging projector is not idempotent")
    return P


def invariants(action):
    """Echelon basis of the fixed subspace, via the averaging projector."""
    P = averaging_projector(action, range(action.group.order))
    for m in action.mats:
        if m.mul(P) != P:
            raise LinAlgError("projector is not invariant under the action")
    return P.image_basis()


def intertwining_system(constraints, src_dims, dst_dims):
    """The integer matrix whose kernel is the set of tuples (t_x) of
    dst_dims[x] x src_dims[x] matrices with t_x . A = B . t_y for every
    constraint (x, y, A, B).  The unknowns are the entries of t_0, t_1, ...
    in turn, each row by row; a constraint with x == y accumulates."""
    offsets = [0]
    for s, d in zip(src_dims, dst_dims):
        offsets.append(offsets[-1] + s * d)
    total = offsets[-1]
    rows = []
    for x, y, A, B in constraints:
        sx, sy = src_dims[x], src_dims[y]
        if (A.rows, A.cols, B.rows, B.cols) != (sx, sy, dst_dims[x], dst_dims[y]):
            raise LinAlgError(f"constraint ({x}, {y}) has the wrong shape")
        den = lcm(A.den, B.den)
        a, b = A._numerators_over(den), B._numerators_over(den)
        ox, oy = offsets[x], offsets[y]
        for i in range(dst_dims[x]):
            for j in range(sy):
                row = [0] * total
                for l in range(sx):
                    row[ox + i * sx + l] += a[l][j]
                for k in range(dst_dims[y]):
                    row[oy + k * sy + j] -= b[i][k]
                rows.append(tuple(row))
    return RationalMatrix._of(len(rows), total, tuple(rows))


def equivariant_hom_dim(A, B):
    """dim of W-equivariant linear maps A -> B (same group on both sides)."""
    if A.group is not B.group and A.group.table != B.group.table:
        raise LinAlgError("equivariant_hom_dim: actions over different groups")
    S = intertwining_system(
        [(0, 0, A.mats[w], B.mats[w]) for w in A.group.generators()], [A.dim], [B.dim]
    )
    return S.cols - S.rank()
