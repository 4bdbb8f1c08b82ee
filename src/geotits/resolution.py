"""Semi-simplicial resolution probe for the polytope group.

Levels are ordered tuples of pairwise interior-disjoint polytopes, a
polytope being identified with the nonempty set of basis regions it
covers (the indicator normal form makes this faithful); a part is the
``int`` bitmask of those regions, so disjoint parts merge by ``|``.
Face maps drop an end entry or merge two adjacent ones.  Each face is
read off once, by index arithmetic, as its row in the level below, and
``ChainComplex`` takes that table: it forms the ordered boundary from it
and certifies d∘d = 0 by the face identities on it.  The two low-degree
identities (reduced H_0 = 0 and H_1 = the polytope group) are asserted;
everything above is reported as data and never asserted to vanish.
"""

from itertools import accumulate
from operator import add, eq

# perfbench/tests/test_perfbench.py::test_tracer_wraps_by_name_imports_and_restores_them pins this name
from geotits._kernel import smith_normal_form  # noqa: F401
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
    subs_of = [_submasks(free) for free in range(full + 1)]
    out = {0: ((),)}
    frontier = [((), full)]  # (tuple, mask of its unused regions)
    for p in range(1, p_max + 1):
        new = []
        for tup, free in frontier:
            for sub in subs_of[free]:
                new.append((tup + (sub,), free ^ sub))
        if not new:
            break
        out[p] = tuple(tup for tup, _ in new)
        frontier = new
    return out


def _submasks(free):
    """The nonzero submasks of ``free``, in increasing order."""
    out = []
    sub = free & -free
    while sub:
        out.append(sub)
        sub = (sub - free) & free
    return out


def _face_rows(level_dict):
    """Level p >= 1 -> for each simplex, the rows of d_0 .. d_p in level
    p-1; None unless each level is the full set of extensions of the
    level below, in the order ``levels`` lists them.

    Level p lists, for each tuple t of level p-1 in order, its children
    t + (s,) for the nonzero submasks s of t's free mask F in increasing
    order.  So the 2^|F| - 1 children of t start at a prefix sum, its
    offset, and t + (s,) sits rank_F(s) = pext(s, F) - 1 places after
    it.  For a child c = t + (s,): d_p c = t; d_(p-1) c = t[:-1] +
    (t[-1] | s,) is the child of t's parent by t[-1] | s; and d_i c =
    d_i t + (s,) is the child of d_i t by s for i < p - 1.  Each row is
    thus an offset plus a rank, read off the rows of level p - 1.  Free
    masks, offsets, last parts and face columns are kept only for the
    two levels below the one being built.
    """
    top = len(level_dict) - 1
    if sorted(level_dict) != list(range(top + 1)) or tuple(level_dict[0]) != ((),):
        return None
    full = len(level_dict.get(1, ()))  # the 2^n - 1 tuples (s,) on n regions
    if full & (full + 1):
        return None
    subs_of = [_submasks(free) for free in range(full + 1)]
    rank_in = []  # F -> s -> rank_F(s), for each nonzero submask s of F
    for subs in subs_of:
        rank = [0] * (full + 1)
        for r, s in enumerate(subs):
            rank[s] = r
        rank_in.append(rank)

    table = {}
    # level p-2: each tuple's first child in level p-1, and its free mask's
    # ranks; level p-1: each tuple's free mask and last part, and the
    # columns d_0 .. d_(p-1) of its face rows
    off_below = rank_below = None
    free_here, last_here, faces_here = [full], [0], []
    for p in range(1, top + 1):
        level, below = level_dict[p], level_dict[p - 1]
        # one int object per row of level p-1, shared by every face naming it
        rows_below = list(range(len(below)))
        parents = [k for k, free in zip(rows_below, free_here) for _ in subs_of[free]]
        last = [s for free in free_here for s in subs_of[free]]
        # level p must be the children t + (s,), in this order
        if len(level) != len(last) or not all(
                map(eq, level, map(add, map(below.__getitem__, parents), zip(last)))):
            return None
        if p == 1:
            faces = [[0] * len(last), parents]
        else:
            # d_i c for i < p - 1 is the child of d_i t by s, and d_(p-1) c
            # the child of d_(p-1) t, t's parent, by t[-1] | s
            lower = [[col[k] for k in parents] for col in faces_here]
            merged = [last_here[k] | s for k, s in zip(parents, last)]
            faces = [[rows_below[off_below[r] + rank_below[r][s]] for r, s in zip(of, subs)]
                     for of, subs in zip(lower, [last] * (p - 1) + [merged])]
            faces.append(parents)
        table[p] = list(map(list, zip(*faces)))
        off_below = list(accumulate((len(subs_of[free]) for free in free_here), initial=0))
        rank_below = [rank_in[free] for free in free_here]
        free_here = [free_here[k] ^ s for k, s in zip(parents, last)]
        last_here, faces_here = last, faces
    return table


def build_resolution(basis_size, p_max=None, ordered=True):
    """Chain complex of the resolution up to level p_max.

    Returns (complex, level_dict, truncated) where ``truncated`` is true
    when p_max cut the complex below its top nonempty level.
    """
    if p_max is None:
        p_max = basis_size + 1
    level_dict = levels(basis_size, p_max)
    truncated = p_max < basis_size + 1 and bool(level_dict.get(p_max))
    if not ordered:
        return _build_unordered(level_dict), level_dict, truncated
    table = _face_rows(level_dict)
    if table is None:  # pragma: no cover
        raise AssertionError("a level is not the full set of extensions of the one below")
    return ChainComplex(level_dict, faces=table), level_dict, truncated


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
