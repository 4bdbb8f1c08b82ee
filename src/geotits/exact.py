"""Exact rational linear algebra.

Everything here is exact; no floats.  Integer input stays integer: a
subspace is spanned by primitive integer rows (``rref``), and
determinant signs are fraction-free.  Rational input is still accepted
everywhere; a *row* of length ``k`` is a linear form over ``k`` variables.
"""

from fractions import Fraction
from math import gcd, lcm


F1 = Fraction(1)


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def dot(a, b):
    """Sum of products in native arithmetic: int for int vectors, else
    ``Fraction``; divide a result with ``Fraction(p, q)``, never ``/``."""
    return sum(x * y for x, y in zip(a, b))


def _primitive(row):
    """An integer row divided by its content (a zero row is left alone)."""
    g = gcd(*row)
    return row if g <= 1 else tuple(v // g for v in row)


def _int_row(row):
    """The rational row times the lcm of its denominators, divided by its
    content: coprime integers (all zero for a zero row)."""
    if all(type(x) is int for x in row):
        return _primitive(row)
    ratios = [x.as_integer_ratio() for x in row]
    den = lcm(*[d for _, d in ratios])
    return _primitive([n * (den // d) for n, d in ratios] if den != 1 else [n for n, _ in ratios])


def primitive_int_row(row):
    """Scale a rational row by a positive rational to coprime integers."""
    return tuple(_int_row(row))


def rref(rows):
    """Reduced row echelon form up to positive row scaling; zero rows
    removed; returns (rows, pivots).

    Elimination is fraction-free: each returned row is a primitive
    integer row whose pivot entry is positive and whose entries at the
    other pivots are zero.  It is the Gauss-Jordan row over the rationals
    times that positive pivot entry, so the form is unique for the row
    space.
    """
    mat = [_int_row(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        pv = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = _primitive([pv * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = tuple(
        tuple(row) if row[c] > 0 else tuple(-x for x in row)
        for row, c in zip(mat, pivots)
    )
    return out, tuple(pivots)


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Integer basis of {x : rows . x = 0} as tuple of tuples: one vector
    per free column, equal to L there and 0 at the other free columns,
    where L is the lcm of the pivot entries."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty system")
        ncols = len(rows[0])
    red, pivots = rref(rows)
    big = lcm(*(r[pc] for r, pc in zip(red, pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = big
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc] * (big // r[pc])
        basis.append(tuple(v))
    return tuple(basis)


def det_sign(rows):
    """Sign of the determinant of a square rational matrix.

    Each row is scaled by a positive factor to coprime integers
    (``_int_row``), which keeps the sign.  Fraction-free Bareiss
    elimination (Bareiss, *Math. Comp.* 22, 1968) then divides each
    update exactly by the previous pivot, so every entry stays an
    integer minor and the last pivot is the determinant up to the sign
    of the row swaps.
    """
    mat = [_int_row(r) for r in rows]
    n = len(mat)
    sign = 1
    prev = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        prow = mat[c]
        pv = prow[c]
        for i in range(c + 1, n):
            f = mat[i][c]
            mat[i] = [(pv * x - f * y) // prev for x, y in zip(mat[i], prow)]
        prev = pv
    return sign if prev > 0 else -sign
