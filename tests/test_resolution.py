from math import comb

import pytest

from conftest import reference_face, reference_face_rows, reference_levels
from geotits import arrangement as arr
from geotits import complexes as cx
from geotits import resolution as reso


def _regions(part):
    """The regions of a bitmask part, over all of its bits."""
    return frozenset(r for r in range(part.bit_length()) if part >> r & 1)


def _level_size(n, p):
    """Ordered p-tuples of disjoint nonempty subsets of n regions: the
    surjections of an n-set onto p + 1 labels whose last label may stay
    empty (it takes the unused regions), by inclusion-exclusion."""
    return sum((-1) ** k * comb(p, k) * (p + 1 - k) ** n for k in range(p + 1))


def test_levels_small():
    lv = reso.levels(2, 3)
    assert {p: len(v) for p, v in lv.items()} == {0: 1, 1: 3, 2: 2}
    lv1 = reso.levels(1, 2)
    assert {p: len(v) for p, v in lv1.items()} == {0: 1, 1: 1}


def test_level_one_count_inclusion_exclusion():
    lv = reso.levels(3, 4)
    assert len(lv[1]) == 2**3 - 1 == 7


@pytest.mark.parametrize("size, p_max", [(n, n + 1) for n in range(7)] + [(6, 3), (5, 1)])
def test_levels_match_frozenset_reference(size, p_max):
    got = reso.levels(size, p_max)
    want = reference_levels(size, p_max)
    assert sorted(got) == sorted(want)
    for p, tuples in got.items():
        read_back = [tuple(_regions(part) for part in t) for t in tuples]
        assert len(read_back) == len(want[p]) and set(read_back) == set(want[p]), p


def test_level_sizes_from_formula():
    for n in range(7):
        lv = reso.levels(n, n + 1)
        for p in range(n + 2):
            assert len(lv.get(p, ())) == _level_size(n, p), (n, p)
        for tuples in lv.values():
            assert all(a < b for a, b in zip(tuples, tuples[1:]))
    assert [len(v) for p, v in sorted(reso.levels(6, 7).items()) if p] == [
        63, 602, 2100, 3360, 2520, 720]


def test_face_merges_adjacent_masks():
    t = (0b001, 0b110, 0b1000)
    want = [(0b110, 0b1000), (0b111, 0b1000), (0b001, 0b1110), (0b001, 0b110)]
    assert [reference_face(t, i) for i in range(4)] == want
    lv = reso.levels(4, 5)
    row = reso._face_rows(lv)[3][lv[3].index(t)]
    assert [lv[2][r] for r in row] == want


@pytest.mark.parametrize("size, p_max", [(n, n + 1) for n in range(7)] + [(5, 2), (5, 3)])
def test_face_table_matches_hashed_reference(size, p_max):
    """The face table by offsets and submask ranks equals the one built by
    hashing each face, on every basis size and on truncated builds."""
    lv = reso.levels(size, p_max)
    assert reso._face_rows(lv) == reference_face_rows(lv)


def test_face_table_refuses_levels_other_than_the_full_extensions():
    """The index table reads positions off the order ``levels`` lists, so
    a level with a tuple dropped, added or moved is refused, and so is a
    gap in the levels."""
    lv = reso.levels(4, 5)
    moved = lv[2][:3] + (lv[2][4], lv[2][3]) + lv[2][5:]
    extra = lv[3] + (lv[3][-1],)
    for p, level in [(2, lv[2][:-1]), (2, moved), (3, extra), (1, lv[1][1:])]:
        assert reso._face_rows({**lv, p: level}) is None, p
    assert reso._face_rows({q: lv[q] for q in (0, 1, 3)}) is None


def test_face_identities_exhaustive():
    for size in range(7):
        lv = reso.levels(size, size + 1)
        cx.check_face_identities(lv, reso._face_rows(lv))


def test_face_identities_catch_one_broken_face():
    """d_0 of a p-simplex (t_1, ..., t_p) set to its d_p: then
    d_0 d_p = (t_2, ..., t_(p-1)) and d_(p-1) d_0 = (t_1, ..., t_(p-2))
    differ, and the constructor names degree p.  On 3 to 6 regions, in
    degree 3 and the top degree, at the first, a middle and the last
    simplex."""
    for size in range(3, 7):
        lv = reso.levels(size, size + 1)
        for p in sorted({3, size}):
            for k in (0, len(lv[p]) // 2, len(lv[p]) - 1):
                table = reso._face_rows(lv)
                assert lv[p - 1][table[p][k][p]] == lv[p][k][:-1]
                table[p][k][0] = table[p][k][p]
                with pytest.raises(AssertionError, match=f"fails at degree {p}$"):
                    cx.ChainComplex(lv, faces=table)


def test_face_identities_fail_on_a_face_outside_the_level_below():
    lv = dict(reso.levels(3, 4))
    dropped = lv[1][0]
    lv[1] = lv[1][1:]
    assert any(reference_face(t, i) == dropped for t in lv[2] for i in range(3))
    assert reference_face_rows(lv) is None
    assert reso._face_rows(lv) is None


def test_h0_h1_observations(triangle, four_lines):
    for basis_size in (1, 2, 3, 4, 5):
        rep, _ = reso.resolution_homology(basis_size)
        assert rep["verdict"] == "PASS"
        assert rep["reduced_h0_zero"] and rep["h1_rank"] == basis_size
        assert not rep["h1_torsion"]


def test_pinned_higher_values():
    rep2, _ = reso.resolution_homology(2)
    assert rep2["higher"] == {"2": {"betti": 1, "torsion": []}}
    rep3, _ = reso.resolution_homology(3)
    assert rep3["higher"] == {
        "2": {"betti": 3, "torsion": []},
        "3": {"betti": 1, "torsion": []},
    }


@pytest.mark.parametrize("n", range(1, 6))
def test_ordered_homology_is_binomial(n):
    """H_p = Z^C(n, p) with no torsion, in every degree; n = 6 is pinned
    in ``test_scale``."""
    _, summary = reso.resolution_homology(n)
    assert summary.by_degree == {p: (comb(n, p), ()) for p in range(n + 1)}


@pytest.mark.parametrize("n, betti", [
    (4, {1: 1, 2: 3}),
    (5, {1: 1, 2: 10}),
    (6, {1: 1, 2: 25, 3: 15}),
])
def test_pinned_unordered_homology(n, betti):
    rep, summary = reso.resolution_homology(n, ordered=False)
    assert summary.as_dict() == {str(d): {"betti": b, "torsion": []} for d, b in betti.items()}
    assert rep["verdict"] == "EXPLORATORY"


def test_truncated_report_pinned():
    rep, _ = reso.resolution_homology(5, p_max=3)
    assert rep == {
        "claim": "resolution observations",
        "levels": {"0": 1, "1": 31, "2": 180, "3": 390},
        "reduced_h0_zero": True,
        "h1_rank": 5,
        "h1_torsion": [],
        "h1_matches_pt": True,
        "higher": {},
        "unreliable_from": 2,
        "truncated": True,
        "verdict": "PASS",
    }


def test_monotone_consistency(triangle, four_lines):
    """Adding a hyperplane (growing the region basis) preserves the
    H1-equals-Pt identity."""
    pos_small = arr.build_arrangement(triangle)
    pos_big = arr.build_arrangement(four_lines)
    for poset in (pos_small, pos_big):
        basis = arr.region_basis(poset)
        rep, _ = reso.resolution_homology(len(basis))
        assert rep["h1_rank"] == len(basis) and rep["verdict"] == "PASS"


def test_truncation_flags():
    rep, _ = reso.resolution_homology(4, p_max=2)
    assert rep["truncated"] and rep["unreliable_from"] == 1
    rep_full, _ = reso.resolution_homology(4, p_max=5)
    assert not rep_full["truncated"]


def test_guard():
    with pytest.raises(AssertionError):
        reso.levels(7, 8)


def test_unordered_exploration():
    rep, _ = reso.resolution_homology(3, ordered=False)
    assert rep["verdict"] == "EXPLORATORY"
