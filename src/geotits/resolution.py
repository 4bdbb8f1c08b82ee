"""Semi-simplicial resolution probe for the polytope group.

Levels are ordered tuples of pairwise interior-disjoint polytopes, a
polytope being identified with the nonempty set of basis regions it
covers (the indicator normal form makes this faithful); a part is the
``int`` bitmask of those regions, so disjoint parts merge by ``|``.
Face maps drop an end entry or merge two adjacent ones.  Each face is
computed once, as its row in the level below; the face identities and
the ordered boundary both read that table.  The two low-degree
identities (reduced H_0 = 0 and H_1 = the polytope group) are asserted;
everything above is reported as data and never asserted to vanish.
"""

# perfbench/tests/test_perfbench.py::test_tracer_wraps_by_name_imports_and_restores_them pins this name
from geotits._kernel import smith_normal_form  # noqa: F401
from geotits._kernel import IntMatrix
from geotits.complexes import ChainComplex, face_complex, homology

MAX_BASIS = 6


def levels(basis_size, p_max):
    """Tuples of pairwise disjoint nonempty region bitmasks, per level.

    Each level is strictly increasing: the level below is, and each of
    its tuples is extended by the submasks of its unused regions in
    increasing order.
    """
    # ``cli`` decides the guard first, so failing here is a bug
    if basis_size > MAX_BASIS:
        raise AssertionError(f"basis size {basis_size} exceeds the guard {MAX_BASIS}")
    p_max = min(p_max, basis_size + 1)
    full = (1 << basis_size) - 1
    out = {0: ((),)}
    frontier = [((), full)]  # (tuple, mask of its unused regions)
    for p in range(1, p_max + 1):
        new = []
        for tup, free in frontier:
            sub = free & -free
            while sub:
                new.append((tup + (sub,), free & ~sub))
                sub = (sub - free) & free
        if not new:
            break
        out[p] = tuple(tup for tup, _ in new)
        frontier = new
    return out


def face(tup, i):
    p = len(tup)
    if i == 0:
        return tup[1:]
    if i == p:
        return tup[:-1]
    return tup[: i - 1] + (tup[i - 1] | tup[i],) + tup[i + 1 :]


def _face_rows(level_dict):
    """Level p >= 1 -> for each simplex, the rows of d_0 .. d_p in level
    p-1; None when a face lies outside the level below."""
    table = {}
    for p in sorted(level_dict):
        if p == 0:
            continue
        lower = {t: r for r, t in enumerate(level_dict.get(p - 1, ()))}
        rows = []
        for t in level_dict[p]:
            row = [lower.get(face(t, i)) for i in range(p + 1)]
            if None in row:
                return None
            rows.append(row)
        table[p] = rows
    return table


def check_face_identities(level_dict, table=None):
    """d_i d_j = d_{j-1} d_i for i < j, exhaustively on every simplex.

    The identities are compared as rows of the face-row table, which
    ``build_resolution`` passes in, having built it for the boundary.
    A face missing from the level below fails the check.
    """
    if table is None:
        table = _face_rows(level_dict)
    if table is None:
        return False
    for p, rows in table.items():
        if p < 2:
            continue
        below = table[p - 1]
        for row in rows:
            of = [below[r] for r in row]
            for j in range(1, p + 1):
                for i in range(j):
                    if of[j][i] != of[i][j - 1]:
                        return False
    return True


def _ordered_complex(level_dict, table):
    """The boundary sends a simplex to its faces d_i with sign (-1)**i."""
    boundaries = {}
    for p, rows in table.items():
        columns = []
        for row in rows:
            col = {}
            sign = 1
            for r in row:
                col[r] = col.get(r, 0) + sign
                sign = -sign
            columns.append(col)
        boundaries[p] = IntMatrix.from_col_dicts(len(level_dict[p - 1]), columns)
    return ChainComplex(level_dict, boundaries)


def build_resolution(basis_size, p_max=None, ordered=True):
    """Chain complex of the resolution up to level p_max.

    Returns (complex, level_dict, truncated) where ``truncated`` is true
    when p_max cut the complex below its top nonempty level.
    """
    if p_max is None:
        p_max = basis_size + 1
    level_dict = levels(basis_size, p_max)
    truncated = p_max < basis_size + 1 and bool(level_dict.get(p_max))
    table = _face_rows(level_dict)
    if table is None or not check_face_identities(level_dict, table):  # pragma: no cover
        raise AssertionError("semi-simplicial identities fail")
    if not ordered:
        return _build_unordered(level_dict), level_dict, truncated
    return _ordered_complex(level_dict, table), level_dict, truncated


def _build_unordered(level_dict):
    """Exploratory order-free complex (no claim attached).

    The literal tuples cannot be made unordered as a semi-simplicial
    set (the inner face maps merge *adjacent* entries), so the flag
    builds the evident order-free alternative: simplicial chains on the
    complex of pairwise-disjoint families with drop-one-entry faces.
    """
    return face_complex({p: sorted({tuple(sorted(t)) for t in tuples})
                         for p, tuples in level_dict.items()})


def resolution_homology(basis_size, p_max=None, ordered=True):
    """Homology of the resolution plus the two asserted identities.

    Degrees at or above p_max - 1 of a truncated build are flagged
    UNRELIABLE and excluded from the report values.
    """
    complex_, level_dict, truncated = build_resolution(basis_size, p_max, ordered)
    summary = homology(complex_)
    by_degree = summary.by_degree
    top = max(complex_.support())
    reliable_top = (p_max if p_max is not None else basis_size + 1) - 1
    if not truncated:
        reliable_top = top + 1
    h0 = by_degree.get(0, (0, ()))
    h1 = by_degree.get(1, (0, ()))
    report = {
        "claim": "resolution observations",
        "levels": {str(p): len(v) for p, v in level_dict.items()},
        "reduced_h0_zero": h0 == (1, ()),  # one component, no torsion
        "h1_rank": h1[0],
        "h1_torsion": list(h1[1]),
        "h1_matches_pt": h1 == (basis_size, ()),
        "higher": {
            str(d): {"betti": b, "torsion": list(t)}
            for d, (b, t) in by_degree.items()
            if d >= 2 and (b or t) and (not truncated or d < reliable_top)
        },
        "unreliable_from": None if not truncated else reliable_top,
        "truncated": truncated,
    }
    if not ordered:
        # the exploratory complex carries no claim; report values only
        report["verdict"] = "EXPLORATORY"
    else:
        report["verdict"] = (
            "PASS" if report["reduced_h0_zero"] and report["h1_matches_pt"] else "FAIL"
        )
    return report, summary
