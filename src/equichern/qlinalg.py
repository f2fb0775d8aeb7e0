"""Exact linear algebra over Q and group-action invariants.

Everything is built on `fractions.Fraction`; floating point is forbidden
repository-wide.  Pivots are chosen first-nonzero in row-major order, so all
reported bases are echelon-canonical and deterministic.

The kernels (`mul`, `rref`, `apply`, `add`) skip structural zeros: they do
arithmetic only on nonzero entries.  Because the arithmetic is exact, results,
pivots and bases are the same as those of the dense loops.

`solve` takes a matrix of right-hand sides and reduces `[A | B]` once, so
each exact linear system is solved once for all its columns.  On top of it,
each of the ideas behind homology with an action is written once:
`complement_in` picks representatives of a kernel modulo an image (one rref),
`induced_map` writes down the map a matrix induces on such representatives,
and `induced_action` does so for a whole group action with one solve (an
empty image gives the action on an invariant subspace).  Fixed subspaces come
from one checked averaging projector, `averaging_projector`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class LinAlgError(ValueError):
    pass


class InconsistentSystemError(LinAlgError):
    pass


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


class RationalMatrix:
    """An immutable rows x cols matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data", "_rref")

    def __init__(self, rows, cols, data):
        self.rows = rows
        self.cols = cols
        self.data = tuple(tuple(_frac(x) for x in row) for row in data)
        self._rref = None
        if len(self.data) != rows or any(len(r) != cols for r in self.data):
            raise LinAlgError("inconsistent matrix dimensions")

    @staticmethod
    def from_rows(data):
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        return RationalMatrix(rows, cols, data)

    @staticmethod
    def zero(rows, cols):
        return RationalMatrix(rows, cols, [[0] * cols for _ in range(rows)])

    @staticmethod
    def identity(n):
        return RationalMatrix(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols, dim=None):
        cols = [tuple(c) for c in cols]
        if cols:
            dim = len(cols[0])
        elif dim is None:
            raise LinAlgError("from_columns needs the ambient dimension for no columns")
        return RationalMatrix(dim, len(cols), [[c[i] for c in cols] for i in range(dim)])

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def is_identity(self):
        return self.rows == self.cols and all(
            x == (1 if i == j else 0) for i, row in enumerate(self.data) for j, x in enumerate(row)
        )

    def add(self, other):
        self._check_same_shape(other)
        return RationalMatrix(
            self.rows,
            self.cols,
            [
                [(a + b) if a and b else (a or b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        c = _frac(c)
        return RationalMatrix(self.rows, self.cols, [[c * x for x in row] for row in self.data])

    def mul(self, other):
        if self.cols != other.rows:
            raise LinAlgError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        zero = Fraction(0)
        # nonzero (col, value) pairs of each row of the right factor
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        out = []
        for row in self.data:
            acc = {}
            for a, srow in zip(row, sparse):
                if a:
                    for j, b in srow:
                        t = a * b
                        acc[j] = acc[j] + t if j in acc else t
            out.append([acc.get(j, zero) for j in range(other.cols)])
        return RationalMatrix(self.rows, other.cols, out)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise LinAlgError("vector length mismatch")
        vec = [_frac(b) for b in vec]
        zero = Fraction(0)
        return tuple(sum((a * b for a, b in zip(row, vec) if a and b), zero) for row in self.data)

    def transpose(self):
        data = [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)]
        return RationalMatrix(self.cols, self.rows, data)

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError("shape mismatch")

    def rref(self):
        """(reduced row echelon form, pivot column indices)."""
        if self._rref is not None:
            return self._rref
        m = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            prow = m[r]
            # the pivot row is zero left of c
            nz = [k for k in range(c, self.cols) if prow[k]]
            pv = prow[c]
            if pv != 1:
                for k in nz:
                    prow[k] = prow[k] / pv
            for i in range(self.rows):
                row = m[i]
                if i != r and row[c] != 0:
                    f = row[c]
                    for k in nz:
                        row[k] = row[k] - f * prow[k]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        self._rref = (RationalMatrix(self.rows, self.cols, m), tuple(pivots))
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Echelon-canonical basis of the null space, as tuples."""
        R, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.cols
            v[f] = Fraction(1)
            for r, p in enumerate(pivots):
                v[p] = -R.data[r][f]
            basis.append(tuple(v))
        return tuple(basis)

    def image_basis(self):
        """Echelon-canonical basis of the column space."""
        Rt, pivots = self.transpose().rref()
        return tuple(Rt.data[i] for i in range(len(pivots)))

    def cokernel_basis(self):
        """Standard unit vectors completing image_basis to a basis of the target."""
        _, pivots = self.transpose().rref()
        pivot_set = set(pivots)
        out = []
        for i in range(self.rows):
            if i not in pivot_set:
                v = [Fraction(0)] * self.rows
                v[i] = Fraction(1)
                out.append(tuple(v))
        return tuple(out)

    def solve(self, B):
        """The X with self.X = B, from one rref of [self | B]; unknowns at
        non-pivot columns are 0.  Raises InconsistentSystemError if any
        column of B is not in the column space."""
        if B.rows != self.rows:
            raise LinAlgError("right-hand side has the wrong number of rows")
        R, pivots = hstack([self, B]).rref()
        if pivots and pivots[-1] >= self.cols:
            raise InconsistentSystemError("inconsistent linear system")
        data = [[Fraction(0)] * B.cols for _ in range(self.cols)]
        for r, p in enumerate(pivots):
            data[p] = R.data[r][self.cols:]
        return RationalMatrix(self.cols, B.cols, data)


def hstack(mats):
    mats = list(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise LinAlgError("hstack row mismatch")
    data = [sum((list(m.data[i]) for m in mats), []) for i in range(rows)]
    return RationalMatrix(rows, sum(m.cols for m in mats), data)


def vstack(mats):
    mats = list(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise LinAlgError("vstack column mismatch")
    data = [row for m in mats for row in m.data]
    return RationalMatrix(sum(m.rows for m in mats), cols, data)


def block_matrix(blocks, row_dims, col_dims):
    """Assemble a matrix from a {(i,j): RationalMatrix} dict of blocks."""
    total_r, total_c = sum(row_dims), sum(col_dims)
    data = [[Fraction(0)] * total_c for _ in range(total_r)]
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    for (i, j), blk in blocks.items():
        if blk.rows != row_dims[i] or blk.cols != col_dims[j]:
            raise LinAlgError(f"block ({i},{j}) has wrong shape")
        for r in range(blk.rows):
            for c in range(blk.cols):
                data[roff[i] + r][coff[j] + c] = blk.data[r][c]
    return RationalMatrix(total_r, total_c, data)


def complement_in(image, vectors, dim):
    """The vectors, in order, that are not in the span of the image columns
    and the vectors before them: the pivot columns of one rref of
    [image | vectors].  With `vectors` a kernel basis and `image` inside the
    kernel, they represent a basis of kernel modulo image."""
    vectors = tuple(vectors)
    _, pivots = hstack([image, RationalMatrix.from_columns(vectors, dim=dim)]).rref()
    return tuple(vectors[j - image.cols] for j in pivots if j >= image.cols)


def induced_map(m, src, reps, image):
    """The map induced by m from the columns of src to the span of reps
    modulo image: column j holds the reps-coordinates of m.src_j in
    [reps | image]."""
    X = hstack([reps, image]).solve(m.mul(src))
    return RationalMatrix(reps.cols, src.cols, X.data[: reps.cols])


def induced_action(action, reps, image):
    """The action induced on the span of reps modulo image (both invariant),
    from one solve: the right-hand side holds every mats[g].reps side by
    side, and column block g of the solution is the matrix of g."""
    k = reps.cols
    X = hstack([reps, image]).solve(hstack([m.mul(reps) for m in action.mats]))
    mats = tuple(
        RationalMatrix(k, k, [row[g * k:(g + 1) * k] for row in X.data[:k]])
        for g in range(len(action.mats))
    )
    return GroupAction(action.group, k, mats)


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

    def mat(self, g):
        return self.mats[g]

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
        return tuple(sum(m.data[i][i] for i in range(self.dim)) for m in self.mats)


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


def equivariant_hom_dim(A, B):
    """dim of W-equivariant linear maps A -> B (same group on both sides)."""
    if A.group is not B.group and A.group.table != B.group.table:
        raise LinAlgError("equivariant_hom_dim: actions over different groups")
    gens = A.group.generators()
    if A.dim == 0 or B.dim == 0:
        return 0
    if not gens:
        return A.dim * B.dim
    # unknown F is dimB x dimA; constraint B(w) F - F A(w) = 0 per generator
    rows = []
    for w in gens:
        Bw, Aw = B.mats[w], A.mats[w]
        for i in range(B.dim):
            for j in range(A.dim):
                row = [Fraction(0)] * (A.dim * B.dim)
                for k in range(B.dim):
                    row[k * A.dim + j] += Bw.data[i][k]
                for l in range(A.dim):
                    row[i * A.dim + l] -= Aw.data[l][j]
                rows.append(row)
    M = RationalMatrix(len(rows), A.dim * B.dim, rows)
    return len(M.kernel_basis())
