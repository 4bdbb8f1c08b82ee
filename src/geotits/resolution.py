"""Semi-simplicial resolution probe for the polytope group.

Levels are ordered tuples of pairwise interior-disjoint polytopes, a
polytope being identified with the nonempty set of basis regions it
covers (the indicator normal form makes this faithful).  Face maps drop
an end entry or merge two adjacent ones.  The two low-degree identities
(reduced H_0 = 0 and H_1 = the polytope group) are asserted; everything
above is reported as data and never asserted to vanish.
"""

# perfbench/tests/test_perfbench.py::test_tracer_wraps_by_name_imports_and_restores_them pins this name
from geotits._kernel import smith_normal_form  # noqa: F401
from geotits.complexes import face_complex, homology

MAX_BASIS = 6


def _subsets(pool):
    out = []
    n = len(pool)
    for mask in range(1, 1 << n):
        out.append(frozenset(pool[i] for i in range(n) if mask >> i & 1))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def levels(basis_size, p_max):
    """Tuples of pairwise disjoint nonempty region subsets, per level."""
    # ``cli`` decides the guard first, so failing here is a bug
    if basis_size > MAX_BASIS:
        raise AssertionError(f"basis size {basis_size} exceeds the guard {MAX_BASIS}")
    if p_max > basis_size + 1:
        p_max = basis_size + 1
    all_regions = tuple(range(basis_size))
    out = {0: [()]}
    frontier = [()]
    for p in range(1, p_max + 1):
        new = []
        for tup in frontier:
            used = set()
            for part in tup:
                used |= part
            pool = [r for r in all_regions if r not in used]
            for sub in _subsets(pool):
                new.append(tup + (sub,))
        out[p] = sorted(new, key=lambda t: tuple(sorted(map(sorted, t))) and t)
        frontier = new
        if not new:
            break
    return {p: tuple(v) for p, v in out.items() if v or p == 0}


def face(tup, i):
    p = len(tup)
    if i == 0:
        return tup[1:]
    if i == p:
        return tup[:-1]
    return tup[: i - 1] + (tup[i - 1] | tup[i],) + tup[i + 1 :]


def check_face_identities(level_dict):
    """d_i d_j = d_{j-1} d_i for i < j, exhaustively on every simplex.

    Level by level, each simplex's faces are computed once and kept for
    the level above, which reads the faces of its faces from that map;
    only the level below is held.  A face missing from the level below
    fails the check.
    """
    below = {}
    for p in sorted(level_dict):
        faces = {t: [face(t, i) for i in range(p + 1)] for t in level_dict[p]} if p else {}
        if p >= 2:
            for ft in faces.values():
                of = [below.get(f) for f in ft]
                if None in of:
                    return False
                for j in range(1, p + 1):
                    for i in range(j):
                        if of[j][i] != of[i][j - 1]:
                            return False
        below = faces
    return True


def build_resolution(basis_size, p_max=None, ordered=True):
    """Chain complex of the resolution up to level p_max.

    Returns (complex, level_dict, truncated) where ``truncated`` is true
    when p_max cut the complex below its top nonempty level.
    """
    if p_max is None:
        p_max = basis_size + 1
    level_dict = levels(basis_size, p_max)
    truncated = p_max < basis_size + 1 and bool(level_dict.get(p_max))
    if not check_face_identities(level_dict):  # pragma: no cover
        raise AssertionError("semi-simplicial identities fail")
    if not ordered:
        return _build_unordered(level_dict), level_dict, truncated
    return face_complex(level_dict, _faces), level_dict, truncated


def _faces(t):
    """The semi-simplicial face maps d_0 .. d_p, with sign (-1)**i."""
    for i in range(len(t) + 1):
        yield face(t, i), (-1) ** i


def _build_unordered(level_dict):
    """Exploratory order-free complex (no claim attached).

    The literal tuples cannot be made unordered as a semi-simplicial
    set (the inner face maps merge *adjacent* entries), so the flag
    builds the evident order-free alternative: simplicial chains on the
    complex of pairwise-disjoint families with drop-one-entry faces.
    """
    degrees = {}
    for p, tuples in level_dict.items():
        if p == 0:
            degrees[0] = [()]
            continue
        seen = set()
        for t in tuples:
            seen.add(tuple(sorted(t, key=lambda s: (len(s), sorted(s)))))
        degrees[p] = sorted(seen, key=lambda fam: tuple((len(s), sorted(s)) for s in fam))
    return face_complex(degrees)


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
