"""Exact integer linear algebra: Smith normal form, kernel lattices and
sublattice comparison.  The elimination is
:func:`geotits._kernel.elim_py.eliminate`; its one certificate, the
column transform V, is kept sparse and read only for kernel bases (here
and in ``complexes.HomologyClasses``).

Lattice membership and equality do not depend on a basis, so rank-only
reductions answer them.  If L is contained in L' and both have rank r,
then L = L' exactly when the products of their invariant factors agree:
each product is the gcd of the r x r minors, the index of the lattice in
its saturation, and the two saturations are equal (Cohen, *A Course in
Computational Algebraic Number Theory*, GTM 138, 1993, section 2.4).
"""

from math import prod

from geotits._kernel.elim_py import eliminate

__all__ = [
    "IntMatrix",
    "SnfResult",
    "smith_normal_form",
    "kernel_basis",
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

    def product_is_zero(self, other):
        """Is the product self @ other zero?  Its columns are formed one at
        a time, and the first one with a nonzero entry answers False."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        self_cols = {}
        for (i, k), v in self.entries.items():
            self_cols.setdefault(k, []).append((i, v))
        other_cols = {}
        for (k, j), w in other.entries.items():
            other_cols.setdefault(j, []).append((k, w))
        for col in other_cols.values():
            acc = {}
            for k, w in col:
                for i, v in self_cols.get(k, ()):
                    acc[i] = acc.get(i, 0) + v * w
            if any(acc.values()):
                return False
        return True

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
    """Invariant factors d1 | d2 | ... | dr plus an optional certificate.

    ``pivot_rows[k]`` and ``pivot_cols[k]`` locate ``invariant_factors[k]``.
    When transforms are requested, ``vcols`` (the n columns of a
    unimodular V) are sparse dicts from index to nonzero int, and M @ V
    vanishes at every non-pivot column.

    The first ``units`` pivots were retired by the kernel's unit phase,
    at +-1 entries, so the input's minor at ``pivot_rows[:units]`` and
    ``pivot_cols[:units]`` has determinant +-1.  Only those rows may be
    cleared from the boundary below (see ``complexes.homology``); the
    later pivot rows may not, even where the pivot is 1.
    """

    __slots__ = ("invariant_factors", "rank", "pivot_rows", "pivot_cols", "vcols", "units")

    def __init__(self, invariant_factors, pivot_rows, pivot_cols, vcols=None, units=0):
        self.invariant_factors = tuple(invariant_factors)
        self.rank = len(self.invariant_factors)
        self.pivot_rows = tuple(pivot_rows)
        self.pivot_cols = tuple(pivot_cols)
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
    return SnfResult(*eliminate(matrix.row_dicts(), matrix.rows, matrix.cols, want_transforms))


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


def _rank_and_index(matrix):
    """Rank and product of invariant factors of the column lattice."""
    factors = smith_normal_form(matrix).invariant_factors
    return len(factors), prod(factors)


def lattice_contains(matrix, vectors):
    """True iff every vector lies in the lattice spanned by M's columns:
    M and [M | vectors] have the same rank and index."""
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return True
    wide = IntMatrix(matrix.rows, matrix.cols + len(vectors))
    wide.entries = dict(matrix.entries)
    for j, vec in enumerate(vectors, matrix.cols):
        for i, v in enumerate(vec):
            if v:
                wide.entries[(i, j)] = v
    return _rank_and_index(matrix) == _rank_and_index(wide)


def lattices_equal(cols_a, cols_b, length):
    """Equality of the sublattices of Z^length spanned by two column sets:
    A, B and [A | B] have the same rank and index."""
    joint = _rank_and_index(IntMatrix.from_columns(length, cols_a + cols_b))
    return (_rank_and_index(IntMatrix.from_columns(length, cols_a)) == joint
            and _rank_and_index(IntMatrix.from_columns(length, cols_b)) == joint)
