"""Sparse integer elimination core.

Reduces an integer matrix to Smith diagonal form by unimodular row and
column operations.  Strategy: exhaust +-1 pivots first with a Markowitz
fill-in heuristic (chain-complex boundary matrices are almost entirely
unimodular-pivotable), then fall back to classic smallest-entry pivoting
with in-loop divisibility enforcement, so the recorded pivots already
satisfy d1 | d2 | ... .

Callers go through :func:`geotits._kernel.smith_normal_form`, which
keeps the sparse certificates returned here.
"""


def eliminate(rows, m, n, want_transforms):
    """Diagonalize a sparse integer matrix.

    ``rows`` is a list of ``m`` dicts mapping column index to a nonzero
    int; it is consumed.  Returns ``(pivots, pivot_rows, pivot_cols,
    urows, vcols)`` where ``pivots`` is a list of positive ints in
    divisibility order, ``pivot_rows``/``pivot_cols`` give the retired
    positions, and, if ``want_transforms``, ``urows``/``vcols`` are
    sparse rows of U and sparse columns of V (dicts) with U M V carrying
    pivot k at position (pivot_rows[k], pivot_cols[k]) and zeros
    elsewhere.
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

    # Phase A: +-1 pivots, cheapest fill first.  Each scan below takes
    # the least key ending in the position (i, j), or the least row i,
    # so its choice does not depend on the order rows and dicts iterate.
    while True:
        best = None
        for i in active_rows:
            ri = rows[i]
            rlen = len(ri)
            for j, v in ri.items():
                if v == 1 or v == -1:
                    cost = (rlen - 1) * (len(cols[j]) - 1)
                    key = (cost, i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, i0, j0 = best
        p = rows[i0][j0]
        for i in list(cols[j0]):
            if i != i0:
                row_axpy(i, i0, rows[i][j0] * p)  # p in {1,-1}: q = v/p = v*p
        for j in list(rows[i0]):
            if j != j0:
                col_axpy(j, j0, rows[i0][j] * p)
        retire(i0, j0)

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

    return pivots, pivot_rows, pivot_cols, urows, vcols
