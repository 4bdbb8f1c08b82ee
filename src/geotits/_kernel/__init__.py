"""Exact integer linear algebra.

Smith normal form with optional transformation certificates, integer
linear solving, kernel lattices and sublattice comparison.  The
elimination itself is :func:`geotits._kernel.elim_py.eliminate`; the
certificates are kept in the sparse form it returns.
"""

from geotits._kernel.elim_py import eliminate

__all__ = [
    "IntMatrix",
    "SnfResult",
    "smith_normal_form",
    "kernel_basis",
    "solve_int",
    "lattice_contains",
    "lattices_equal",
]


class IntMatrix:
    """Sparse integer matrix: ``entries`` maps (row, col) to nonzero int."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items() if isinstance(entries, dict) else entries:
                if v:
                    if not (0 <= i < rows and 0 <= j < cols):
                        raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                    self.entries[(i, j)] = int(v)

    @classmethod
    def from_columns(cls, rows, columns):
        m = cls(rows, len(columns))
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                if v:
                    m.entries[(i, j)] = int(v)
        return m

    def columns(self):
        cols = [[0] * self.rows for _ in range(self.cols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def transpose(self):
        t = IntMatrix(self.cols, self.rows)
        t.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return t

    def mul_vec(self, vec):
        out = [0] * self.rows
        for (i, j), v in self.entries.items():
            c = vec[j]
            if c:
                out[i] += v * c
        return out

    def compose(self, other):
        """Matrix product self @ other."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        out = IntMatrix(self.rows, other.cols)
        acc = {}
        for (i, k), v in self.entries.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        out.entries = {k: v for k, v in acc.items() if v}
        return out

    def is_zero(self):
        return not self.entries

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


class SnfResult:
    """Invariant factors d1 | d2 | ... | dr plus optional certificates.

    ``pivot_rows[k]`` and ``pivot_cols[k]`` locate ``invariant_factors[k]``.
    When transforms are requested, ``urows`` (the m rows of U) and
    ``vcols`` (the n columns of V) are sparse dicts from index to nonzero
    int, and U @ M @ V is zero except for ``invariant_factors[k]`` at
    ``(pivot_rows[k], pivot_cols[k])``.

    The first ``units`` pivots were retired by the kernel's unit phase,
    at +-1 entries, so the input's minor at ``pivot_rows[:units]`` and
    ``pivot_cols[:units]`` has determinant +-1.  Only those rows may be
    cleared from the boundary below (see ``complexes.homology``); the
    later pivot rows may not, even where the pivot is 1.
    """

    __slots__ = ("invariant_factors", "rank", "shape", "pivot_rows", "pivot_cols", "urows",
                 "vcols", "units")

    def __init__(self, invariant_factors, shape, pivot_rows, pivot_cols, urows=None, vcols=None,
                 units=0):
        self.invariant_factors = tuple(invariant_factors)
        self.rank = len(self.invariant_factors)
        self.shape = shape
        self.pivot_rows = tuple(pivot_rows)
        self.pivot_cols = tuple(pivot_cols)
        self.urows = urows
        self.vcols = vcols
        self.units = units

    @property
    def torsion(self):
        return tuple(d for d in self.invariant_factors if d > 1)


def smith_normal_form(matrix, want_transforms=False):
    """SNF of an IntMatrix; deterministic for a fixed input.

    ``eliminate`` records its pivots in divisibility order, so they are
    the invariant factors as they stand.
    """
    m, n = matrix.rows, matrix.cols
    pivots, prow, pcol, urows, vcols, units = eliminate(matrix.row_dicts(), m, n, want_transforms)
    return SnfResult(pivots, (m, n), prow, pcol, urows, vcols, units)


def kernel_basis(matrix):
    """Basis of the lattice {x in Z^n : M x = 0}, as a list of columns:
    the columns of V at the non-pivot columns, in index order."""
    snf = smith_normal_form(matrix, want_transforms=True)
    n = matrix.cols
    pivots = set(snf.pivot_cols)
    basis = []
    for j in range(n):
        if j not in pivots:
            col = [0] * n
            for i, v in snf.vcols[j].items():
                col[i] = v
            basis.append(col)
    return basis


def solve_int(matrix, b, snf=None):
    """One integer solution x of M x = b, or None.

    With y = U b, M x = b is solvable exactly when y vanishes at the
    non-pivot rows and d_k divides y at pivot row k; then x is the sum
    of the pivot columns of V weighted by y / d_k.
    """
    if snf is None:
        snf = smith_normal_form(matrix, want_transforms=True)
    y = [sum(v * b[j] for j, v in row.items()) for row in snf.urows]
    quotients = []
    for d, i in zip(snf.invariant_factors, snf.pivot_rows):
        q, rem = divmod(y[i], d)
        if rem:
            return None
        quotients.append(q)
        y[i] = 0
    if any(y):
        return None
    x = [0] * snf.shape[1]
    for q, j in zip(quotients, snf.pivot_cols):
        if q:
            for i, v in snf.vcols[j].items():
                x[i] += v * q
    return x


def lattice_contains(matrix, vectors, snf=None):
    """True iff every vector lies in the lattice spanned by M's columns."""
    if snf is None:
        snf = smith_normal_form(matrix, want_transforms=True)
    return all(solve_int(matrix, v, snf=snf) is not None for v in vectors)


def lattices_equal(cols_a, cols_b, length):
    """Equality of the sublattices of Z^length spanned by two column sets."""
    a = IntMatrix.from_columns(length, cols_a)
    b = IntMatrix.from_columns(length, cols_b)
    return lattice_contains(a, cols_b) and lattice_contains(b, cols_a)
