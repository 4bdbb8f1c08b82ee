import pytest

from geotits import arrangement as arr
from geotits import resolution as reso


def test_levels_small():
    lv = reso.levels(2, 3)
    assert {p: len(v) for p, v in lv.items()} == {0: 1, 1: 3, 2: 2}
    lv1 = reso.levels(1, 2)
    assert {p: len(v) for p, v in lv1.items()} == {0: 1, 1: 1}


def test_level_one_count_inclusion_exclusion():
    lv = reso.levels(3, 4)
    assert len(lv[1]) == 2**3 - 1 == 7


def test_face_identities_exhaustive():
    for size in (1, 2, 3, 4):
        assert reso.check_face_identities(reso.levels(size, size + 1))


def test_face_identities_catch_one_broken_face(monkeypatch):
    """d_0 of one 3-simplex (a, b, c) returns (a, b), a simplex of the
    level below, so d_0 d_3 = (b,) and d_2 d_0 = (a,) differ."""
    lv = reso.levels(3, 4)
    broken = lv[3][0]
    face = reso.face

    def bad_face(tup, i):
        return tup[:-1] if tup == broken and i == 0 else face(tup, i)

    monkeypatch.setattr(reso, "face", bad_face)
    assert not reso.check_face_identities(lv)


def test_face_identities_fail_on_a_face_outside_the_level_below():
    lv = dict(reso.levels(3, 4))
    lv[1] = lv[1][1:]
    assert not reso.check_face_identities(lv)


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
    with pytest.raises(ValueError):
        reso.levels(7, 8)


def test_unordered_exploration():
    rep, _ = reso.resolution_homology(3, ordered=False)
    assert rep["verdict"] == "EXPLORATORY"
