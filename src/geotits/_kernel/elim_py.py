"""Sparse integer elimination core.

Reduces an integer matrix to Smith diagonal form by unimodular row and
column operations.  Strategy: exhaust +-1 pivots first (chain-complex
boundary matrices are almost entirely unimodular-pivotable), then fall
back to classic smallest-entry pivoting with in-loop divisibility
enforcement, so the recorded pivots already satisfy d1 | d2 | ... .

A call runs in one of two modes, which differ only in how phase A
picks its +-1 pivots:

* ``RANK``: only the invariant factors are pinned.  Phase A sweeps the
  active rows in index order: a row with a +-1 entry pivots at the one
  in its shortest column (ties to the least column index), and a row
  without one is set aside until a row operation changes it, so no row
  is scanned twice unchanged and there is no heap.  Any unit-pivot order
  gives the same invariant factors (exhausting unit pivots first
  follows Dumas, Heckenbach, Saunders & Welker, 2003).
* ``PINNED``: pivots, positions and ``units`` are pinned.  The +-1
  pivot of least Markowitz fill cost key ``(cost, i, j)`` (Markowitz
  1957) goes first, from a heap with one key per column: the key of
  its best row, the shortest row with a +-1 entry there (ties to the
  least index), which holds the column's least entry key.  After a
  pivot, the pivot row's other columns, whose
  lengths changed, are keyed again; a row the row operations touched
  is compared with the best row of each column it holds, and a column
  is scanned again only when its best row left it, lost its +-1 there
  or got longer.  A popped key that is no longer its column's is
  skipped.  The least column key is the least entry key.  Reports
  print apartment matrices in the basis this order picks
  (``complexes.HomologyClasses``), so it must not change.

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

Phase A does not clear the pivot row by column operations: once row
operations have made column j0 equal to p e_i0, those operations would
change row i0 alone, so its entries are dropped and the matrix left is
the same.

No transform, row (U) or column (V), is kept.  Callers go through
:func:`geotits._kernel.smith_normal_form`.
"""

from heapq import heapify, heappop, heappush

RANK = "rank"
PINNED = "pinned"
MODES = (RANK, PINNED)


def eliminate(rows, m, n, mode):
    """Diagonalize a sparse integer matrix.

    ``rows`` is a list of ``m`` dicts mapping column index to a nonzero
    int; it is consumed.  ``mode`` is one of ``MODES``.  Returns
    ``(pivots, pivot_rows, pivot_cols, units)`` where ``pivots`` is a
    list of positive ints in divisibility order,
    ``pivot_rows``/``pivot_cols`` give the retired positions, and the
    first ``units`` pivots are phase A's.

    The output depends only on the input, never on the order in which
    rows and dicts iterate.  In ``PINNED`` mode every output is pinned:
    the +-1 pivot of least key (cost, i, j) goes first.  Otherwise only
    ``pivots`` is: the positions are distinct rows and columns but
    follow the cheaper index-order sweep.
    """
    cols = [set() for _ in range(n)]
    for i in range(m):
        for j in rows[i]:
            cols[j].add(i)

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

    def retire(i0, j0):
        # row i0 and column j0 hold only the pivot by now
        pivots.append(abs(rows[i0].pop(j0)))
        pivot_rows.append(i0)
        pivot_cols.append(j0)
        cols[j0].discard(i0)
        active_rows.discard(i0)

    def unit_pivot(i0, j0):
        # clear column j0 by row operations, then drop row i0's other
        # entries; returns the rows the row operations touched and the
        # columns row i0 held besides j0
        ri = rows[i0]
        p = ri[j0]
        touched = [i for i in cols[j0] if i != i0]
        for i in touched:
            row_axpy(i, i0, rows[i][j0] * p)  # p in {1,-1}: q = v/p = v*p
        # Column j0 is p e_i0 now, so clearing row i0 by column operations
        # would change row i0 alone.
        support = [j for j in ri if j != j0]
        for j in support:
            cols[j].discard(i0)
        rows[i0] = {j0: p}
        retire(i0, j0)
        return touched, support

    # Phase A: +-1 pivots.  A pivot changes only the rows its row
    # operations touch and the lengths of the pivot row's columns.
    if mode == PINNED:
        # Least Markowitz key (cost, i, j) over all +-1 entries, with
        # cost = (row length - 1) * (column length - 1), from a lazy
        # min-heap with one key per column.  ``best[j]`` is the least
        # (row length, i) over the rows with a +-1 entry in column j; in
        # a column of length c >= 2 that row holds the column's least
        # entry key, since the cost grows with the row length, and a
        # column of length 1 has one row.  So column j's key is
        # ((r - 1) * (c - 1), i, j) for best[j] = (r, i), the least
        # column key is the least entry key, and the pivots are the same
        # as with a key per entry.  ``keys`` holds each column's current
        # key; a popped key that is not its column's is stale.
        best = [_least_unit_row(rows, cols[j], j) for j in range(n)]

        def column_key(j):
            b = best[j]
            if b is None:
                return None
            return ((b[0] - 1) * (len(cols[j]) - 1), b[1], j)

        keys = [column_key(j) for j in range(n)]
        heap = [key for key in keys if key is not None]
        heapify(heap)
        while heap:
            key = heappop(heap)
            j0 = key[2]
            if keys[j0] != key:
                continue
            i0 = key[1]
            keys[j0] = best[j0] = None
            touched, support = unit_pivot(i0, j0)
            # Row operations changed the touched rows, and only in the
            # support columns, whose lengths changed too: re-key those.
            # A column is scanned again only when its best row left it
            # (the pivot row, or a touched row whose entry cancelled),
            # lost its +-1 there, or got longer; any other row that
            # changed is compared with the best.
            dirty = set(support)
            rescan = set()
            for j in support:
                b = best[j]
                if b is not None and j not in rows[b[1]]:
                    rescan.add(j)
            # A touched row's length changed in all of its columns: a
            # best row stays best when it got shorter.
            for i in touched:
                ri = rows[i]
                r = len(ri)
                for j, v in ri.items():
                    if j in rescan:
                        continue
                    b = best[j]
                    if b is not None and b[1] == i:
                        if (v != 1 and v != -1) or r > b[0]:
                            rescan.add(j)
                            dirty.add(j)
                        elif r < b[0]:
                            best[j] = (r, i)
                            dirty.add(j)
                    elif (v == 1 or v == -1) and (
                            b is None or r < b[0] or (r == b[0] and i < b[1])):
                        best[j] = (r, i)
                        dirty.add(j)
            for j in rescan:
                best[j] = _least_unit_row(rows, cols[j], j)
            for j in dirty:
                new = column_key(j)
                if new != keys[j]:
                    keys[j] = new
                    if new is not None:
                        heappush(heap, new)
    else:
        # Sweeps over the active rows in index order.  A row with a +-1
        # entry pivots at the one in its shortest column, ties broken by
        # the least column index; a row without one is set aside.  Only
        # row operations change a live row, so a set-aside row is swept
        # again only once one has changed it, and phase A ends when none
        # has.
        aside = set()
        sweep = sorted(active_rows)
        while sweep:
            changed = set()
            for i0 in sweep:
                best = _unit_entry(rows[i0], cols)
                if best is None:
                    aside.add(i0)
                    continue
                touched, _ = unit_pivot(i0, best)
                for i in touched:
                    if i in aside:
                        aside.discard(i)
                        changed.add(i)
            sweep = sorted(changed)

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

    return pivots, pivot_rows, pivot_cols, units


def _least_unit_row(rows, col, j):
    """The least (row length, row index) over the rows in ``col`` whose
    entry in column ``j`` is +-1; None when there is none."""
    best = None
    for i in col:
        v = rows[i][j]
        if v == 1 or v == -1:
            key = (len(rows[i]), i)
            if best is None or key < best:
                best = key
    return best


def _unit_entry(row, cols):
    """The column of ``row``'s +-1 entry in the shortest column, ties
    broken by the least column index; None when it holds no +-1."""
    best = None
    for j, v in row.items():
        if v == 1 or v == -1:
            key = (len(cols[j]), j)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]
