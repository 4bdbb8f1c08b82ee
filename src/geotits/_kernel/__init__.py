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
from types import MappingProxyType

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
    """Sparse integer matrix stored by columns: ``col_dicts[j]`` maps the
    row index of each nonzero entry of column j to its value, a nonzero
    int.  ``entries`` is a read-only (row, col) -> value view derived
    from them.  Every constructor stores its columns through one check,
    which refuses an index outside the shape or a non-integral value
    with ``ValueError`` and never stores a zero.  Column dicts may be
    shared between matrices; no method changes one once it is stored.
    """

    __slots__ = ("rows", "cols", "col_dicts")

    def __init__(self, rows, cols, entries=None):
        """``entries`` maps (row, col) to a value; zeros are dropped."""
        by_col = [{} for _ in range(cols)]
        if entries:
            for (i, j), v in entries.items():
                if v:
                    if not 0 <= j < cols:
                        raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
                    by_col[j][i] = v
        self._fill(rows, by_col)

    @classmethod
    def from_col_dicts(cls, rows, col_dicts):
        """The matrix whose column j is ``col_dicts[j]`` (row -> value).
        A dict that holds only nonzero ints at rows in range is kept as
        it is, not copied."""
        m = cls.__new__(cls)
        m._fill(rows, col_dicts)
        return m

    @classmethod
    def from_columns(cls, rows, columns):
        """The matrix with the given dense columns (lists of ``rows`` ints)."""
        return cls.from_col_dicts(rows, [{i: v for i, v in enumerate(col) if v} for col in columns])

    def _fill(self, rows, col_dicts):
        self.rows = rows
        self.cols = len(col_dicts)
        self.col_dicts = [_column(col, rows, j, self.cols) for j, col in enumerate(col_dicts)]

    @property
    def entries(self):
        """Read-only (row, col) -> value view, built from the columns."""
        return MappingProxyType({(i, j): v for j, col in enumerate(self.col_dicts)
                                 for i, v in col.items()})

    def transpose(self):
        return IntMatrix.from_col_dicts(self.cols, self.row_dicts())

    def mul_vec(self, vec):
        out = [0] * self.rows
        for j, col in enumerate(self.col_dicts):
            c = vec[j]
            if c:
                for i, v in col.items():
                    out[i] += v * c
        return out

    def product_is_zero(self, other):
        """Is the product self @ other zero?  Its columns are formed one at
        a time from the two factors' columns, and the first one with a
        nonzero entry answers False."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        left = self.col_dicts
        for col in other.col_dicts:
            acc = {}
            for k, w in col.items():
                for i, v in left[k].items():
                    acc[i] = acc.get(i, 0) + v * w
            if any(acc.values()):
                return False
        return True

    def row_dicts(self):
        """The rows as fresh dicts (col -> value): one transpose."""
        rows = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.col_dicts):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.col_dicts == other.col_dicts
        )

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols}, nnz={sum(map(len, self.col_dicts))})"


def _column(col, rows, j, cols):
    """``col`` as stored: itself when it holds only nonzero ints at rows
    in range, else a copy without its zeros and with int values.  A row
    out of range or a non-integral value raises ``ValueError``."""
    for i, v in col.items():
        if type(v) is not int or not v or not 0 <= i < rows:
            break
    else:
        return col
    out = {}
    for i, v in col.items():
        if v:
            if not 0 <= i < rows:
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            w = int(v)
            if w != v:
                raise ValueError(f"entry ({i},{j}) = {v!r} is not an integer")
            out[i] = w
    return out


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
    wide = IntMatrix.from_col_dicts(
        matrix.rows, matrix.col_dicts + [{i: v for i, v in enumerate(vec) if v} for vec in vectors])
    return _rank_and_index(matrix) == _rank_and_index(wide)


def lattices_equal(cols_a, cols_b, length):
    """Equality of the sublattices of Z^length spanned by two column sets:
    A, B and [A | B] have the same rank and index."""
    joint = _rank_and_index(IntMatrix.from_columns(length, cols_a + cols_b))
    return (_rank_and_index(IntMatrix.from_columns(length, cols_a)) == joint
            and _rank_and_index(IntMatrix.from_columns(length, cols_b)) == joint)
