"""Sparse integer elimination core.

Reduces an integer matrix to Smith diagonal form by unimodular row and
column operations.  Strategy: exhaust +-1 pivots first (chain-complex
boundary matrices are almost entirely unimodular-pivotable), then fall
back to classic smallest-entry pivoting with in-loop divisibility
enforcement, so the recorded pivots already satisfy d1 | d2 | ... .

The +-1 pivots come from a lazy min-heap instead of a rescan of the
active matrix per pivot, with one key for each kind of call:

* with transforms, the Markowitz fill cost (Markowitz 1957) of every
  +-1 entry, ``(cost, i, j)``, re-pushed for the rows and columns a
  pivot changed; the heap yields exactly the least current key, so
  pivots, positions and U/V are pinned (reports print apartment
  matrices in that basis);
* rank-only, the row length ``(len, i)`` of each row holding a +-1
  entry, re-pushed for the rows a pivot touched, pivoting at that row's
  +-1 entry with the shortest column.  Only the invariant factors are
  pinned: any unit-pivot order gives the same ones (exhausting unit
  pivots first follows Dumas, Heckenbach, Saunders & Welker, 2003).

``units`` counts the leading pivots that phase A retired.  Phase A
pivots only at +-1 entries and its operations use only the current
pivot row and column, so the input's minor at those pivot rows and
columns has determinant +-1 (Gaussian elimination on the minor, with
unit pivots).  For a boundary ``d_(k+1)`` this makes its image together
with the unit vectors outside those rows span all of ``C_k``, so
``complexes.homology`` may drop the columns of ``d_k`` at those rows
("clearing").  Rows retired by phase B must not be cleared, even at a
pivot 1: phase B reaches its pivots through remainders and row folds,
so the input's minor there need not be +-1 (``[[2], [3]]`` retires 1 at
row 1, where the minor is 3).

Callers go through :func:`geotits._kernel.smith_normal_form`, which
keeps the sparse certificates returned here.
"""

from heapq import heapify, heappop, heappush


def eliminate(rows, m, n, want_transforms):
    """Diagonalize a sparse integer matrix.

    ``rows`` is a list of ``m`` dicts mapping column index to a nonzero
    int; it is consumed.  Returns ``(pivots, pivot_rows, pivot_cols,
    urows, vcols, units)`` where ``pivots`` is a list of positive ints
    in divisibility order, ``pivot_rows``/``pivot_cols`` give the
    retired positions, if ``want_transforms``, ``urows``/``vcols`` are
    sparse rows of U and sparse columns of V (dicts) with U M V carrying
    pivot k at position (pivot_rows[k], pivot_cols[k]) and zeros
    elsewhere, and the first ``units`` pivots are phase A's.

    The output depends only on the input, never on the order in which
    rows and dicts iterate.  With ``want_transforms`` every output is
    pinned: the +-1 pivot of least key (cost, i, j) goes first.  Without
    it only ``pivots`` is: the positions are distinct rows and columns
    but follow the cheaper row-length heap.
    """
    cols = [set() for _ in range(n)]
    for i in range(m):
        for j in rows[i]:
            cols[j].add(i)

    if want_transforms:
        urows = [{i: 1} for i in range(m)]
        vcols = [{j: 1} for j in range(n)]
    else:
        urows = None
        vcols = None

    active_rows = set(i for i in range(m) if rows[i])
    pivots = []
    pivot_rows = []
    pivot_cols = []

    def row_axpy(i, ip, q):
        # row_i -= q * row_ip
        if q == 0:
            return
        target = rows[i]
        for j, v in rows[ip].items():
            w = target.get(j, 0) - q * v
            if w:
                target[j] = w
                cols[j].add(i)
            elif j in target:
                del target[j]
                cols[j].discard(i)
        if urows is not None:
            tu = urows[i]
            for j, v in urows[ip].items():
                w = tu.get(j, 0) - q * v
                if w:
                    tu[j] = w
                elif j in tu:
                    del tu[j]

    def col_axpy(j, jp, q):
        # col_j -= q * col_jp
        if q == 0:
            return
        for i in list(cols[jp]):
            v = rows[i][jp]
            w = rows[i].get(j, 0) - q * v
            if w:
                rows[i][j] = w
                cols[j].add(i)
            elif j in rows[i]:
                del rows[i][j]
                cols[j].discard(i)
        if vcols is not None:
            tv = vcols[j]
            for i2, v in vcols[jp].items():
                w = tv.get(i2, 0) - q * v
                if w:
                    tv[i2] = w
                elif i2 in tv:
                    del tv[i2]

    def negate_row(i):
        for j in rows[i]:
            rows[i][j] = -rows[i][j]
        if urows is not None:
            for j in urows[i]:
                urows[i][j] = -urows[i][j]

    def retire(i0, j0):
        d = rows[i0][j0]
        if d < 0:
            negate_row(i0)
            d = -d
        pivots.append(d)
        pivot_rows.append(i0)
        pivot_cols.append(j0)
        del rows[i0][j0]
        cols[j0].discard(i0)
        active_rows.discard(i0)

    def unit_pivot(i0, j0):
        # clear column j0 by row operations and row i0 by column
        # operations; returns the rows the row operations touched and
        # the columns row i0 held besides j0
        p = rows[i0][j0]
        touched = [i for i in cols[j0] if i != i0]
        for i in touched:
            row_axpy(i, i0, rows[i][j0] * p)  # p in {1,-1}: q = v/p = v*p
        support = [j for j in rows[i0] if j != j0]
        for j in support:
            col_axpy(j, j0, rows[i0][j] * p)
        retire(i0, j0)
        return touched, support

    # Phase A: +-1 pivots, taken from a lazy min-heap.  A popped key that
    # no longer describes the matrix is discarded.  A pivot changes only
    # the rows its row updates touch and the columns of the pivot row, so
    # pushing their keys again keeps every current key in the heap.
    if want_transforms:
        # Least Markowitz key (cost, i, j) over all +-1 entries, with
        # cost = (row length - 1) * (column length - 1).
        def push_units(i, js):
            ri = rows[i]
            for j in js:
                v = ri[j]
                if v == 1 or v == -1:
                    heappush(heap, ((len(ri) - 1) * (len(cols[j]) - 1), i, j))

        heap = []
        for i in active_rows:
            push_units(i, rows[i])
        while heap:
            cost, i0, j0 = heappop(heap)
            v = rows[i0].get(j0)
            if (v != 1 and v != -1) or cost != (len(rows[i0]) - 1) * (len(cols[j0]) - 1):
                continue
            touched, support = unit_pivot(i0, j0)
            for i in touched:
                push_units(i, rows[i])
            touched = set(touched)
            for j in support:
                for i in cols[j] - touched:
                    push_units(i, (j,))
    else:
        # Shortest row that holds a +-1 entry, keyed (row length, i), at
        # its +-1 entry with the shortest column.  Only row operations
        # change a live row, so a row without a unit entry waits until
        # one touches it.  The Markowitz heap would re-push every entry
        # of each column a pivot shortens, which makes it over ten times
        # slower on the dense fill of resolution boundaries.
        def has_unit(ri):
            return any(v == 1 or v == -1 for v in ri.values())

        heap = [(len(rows[i]), i) for i in active_rows if has_unit(rows[i])]
        heapify(heap)
        while heap:
            rlen, i0 = heappop(heap)
            ri = rows[i0]
            if len(ri) != rlen:
                continue
            best = min(((len(cols[j]), j) for j, v in ri.items() if v == 1 or v == -1),
                       default=None)
            if best is None:
                continue
            touched, _ = unit_pivot(i0, best[1])
            for i in touched:
                if has_unit(rows[i]):
                    heappush(heap, (len(rows[i]), i))

    units = len(pivots)

    # Phase B: general pivots with divisibility enforcement.
    while True:
        best = min(
            ((abs(v), i, j) for i in active_rows for j, v in rows[i].items()),
            default=None,
        )
        if best is None:
            break
        _, i0, j0 = best
        while True:
            p = rows[i0][j0]
            for i in list(cols[j0]):
                if i != i0:
                    row_axpy(i, i0, rows[i][j0] // p)
            for j in list(rows[i0]):
                if j != j0:
                    col_axpy(j, j0, rows[i0][j] // p)
            # Floor-division remainders may survive; the smallest of them
            # becomes the better pivot and the loop shrinks |p| strictly.
            if any(i != i0 for i in cols[j0]) or any(j != j0 for j in rows[i0]):
                p_abs = abs(rows[i0][j0])
                cand = min(
                    ((abs(v), i, j) for i in active_rows for j, v in rows[i].items()
                     if abs(v) < p_abs),
                    default=None,
                )
                if cand is not None:
                    _, i0, j0 = cand
                continue
            p = rows[i0][j0]
            offender = min(
                (i for i in active_rows
                 if i != i0 and any(v % p for v in rows[i].values())),
                default=None,
            )
            if offender is None:
                break
            row_axpy(i0, offender, -1)  # fold offending row into pivot row
        retire(i0, j0)

    return pivots, pivot_rows, pivot_cols, urows, vcols, units
