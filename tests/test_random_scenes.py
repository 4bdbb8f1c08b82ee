"""Randomized end-to-end batteries (fixed seeds, deterministic).

Random admissible scenes are generated and the full verification
pipeline must certify the expected structure on every one of them.
"""

import random
from fractions import Fraction as Fr

from geotits import arrangement as arr
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import exact, geometry as geo
from geotits import groups as grp
from conftest import (
    E2, E3, S2, cell_apartments, points_apartments, pt_apartments, region_is_bounded,
)


def random_e2_lines(rng, count):
    """Random integer lines, admissibility enforced by retry."""
    while True:
        covs = set()
        while len(covs) < count:
            a0 = rng.randint(-4, 4)
            a1 = rng.randint(-3, 3)
            a2 = rng.randint(-3, 3)
            if a1 == 0 and a2 == 0:
                continue
            covs.add(geo.canonical_covector((a0, a1, a2)))
        try:
            coll = coll_mod.closure_by_hyperplanes(E2, sorted(covs))
        except ValueError:
            continue
        if coll_mod.admissible(coll) == coll_mod.ADMISSIBLE:
            return coll


def test_random_euclidean_solomon_tits():
    rng = random.Random(42)
    for trial in range(8):
        coll = random_e2_lines(rng, rng.randint(3, 5))
        poset = arr.build_arrangement(coll)
        basis = arr.region_basis(poset)
        st = grp.STModel(coll.members, coll.top())
        h = cx.homology(st.complex)
        assert cx.wedge_verdict(h, 2), (trial, h.by_degree)
        assert h.betti(2) == len(basis), (trial, h.by_degree, len(basis))
        res = cell_apartments(poset, basis, st)
        assert res.iso, trial


def test_random_spherical_solomon_tits():
    rng = random.Random(7)
    done = 0
    while done < 5:
        covs = set()
        while len(covs) < 3:
            v = tuple(rng.randint(-2, 2) for _ in range(3))
            if any(v):
                covs.add(geo.canonical_covector(v))
        if exact.rank(sorted(covs)) != 3:
            continue
        coll = coll_mod.closure_by_hyperplanes(S2, sorted(covs))
        done += 1
        poset = arr.build_arrangement(coll)
        basis = arr.region_basis(poset)
        tri = cx.sphere_triangulation(coll, poset)
        bic = cx.pt_bicomplex(coll, tri)
        hb = cx.homology(bic)
        hc = cx.homology(cx.pt_collapse_complex(coll, tri))
        assert hb == hc
        assert hb.nonzero_degrees() in ([2], []) and hb.betti(2) == len(basis)
        res = pt_apartments(coll, basis, tri, bic)
        assert res.iso


def test_random_points_theorem():
    rng = random.Random(9)
    for trial in range(6):
        coords = set()
        while len(coords) < rng.randint(3, 5):
            coords.add((Fr(rng.randint(-3, 3)), Fr(rng.randint(-3, 3))))
        pts = [geo.point_subspace(E2, c) for c in sorted(coords)]
        coll, generating = coll_mod.closure_by_points(E2, pts)
        if not generating:
            continue
        res = points_apartments(coll)
        assert res.iso, trial
        h = cx.homology(cx.relative_st_complex(list(coll.members), coll.top()))
        assert cx.wedge_verdict(h, 2)
        assert h.betti(2) == grp.ls_group(coll)[0].free_rank


def test_random_exact_sequences():
    rng = random.Random(17)
    done = 0
    while done < 5:
        coll = random_e2_lines(rng, rng.randint(3, 4))
        a0 = rng.randint(-3, 3)
        a1 = rng.randint(-3, 3)
        a2 = rng.randint(-3, 3)
        if a1 == 0 and a2 == 0:
            continue
        u = geo.canonical_covector((a0, a1, a2))
        if u in coll.hyperplane_covectors:
            continue
        done += 1
        rep = grp.exact_sequence_check(coll, u)
        assert rep["verdict"] == "PASS", (u, rep)


def test_e3_simplex_scene():
    """Four generic planes in E^3: one bounded simplex region."""
    covs = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, -1, -1)]
    coll = coll_mod.closure_by_hyperplanes(E3, covs)
    assert coll_mod.admissible(coll) == coll_mod.ADMISSIBLE
    assert len(coll.members) == 1 + 4 + 6 + 4
    poset = arr.build_arrangement(coll)
    basis = arr.region_basis(poset)
    assert len(basis) == 1
    st = grp.STModel(coll.members, coll.top())
    h = cx.homology(st.complex)
    assert cx.wedge_verdict(h, 3) and h.betti(3) == 1
    res = cell_apartments(poset, basis, st)
    assert res.iso


def test_e3_five_planes():
    """Five planes: simplex plus one cutting plane."""
    covs = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, -1, -1, -1), (3, -4, -4, 0)]
    coll = coll_mod.closure_by_hyperplanes(E3, covs)
    poset = arr.build_arrangement(coll)
    basis = arr.region_basis(poset)
    st = grp.STModel(coll.members, coll.top())
    h = cx.homology(st.complex)
    assert cx.wedge_verdict(h, 3)
    assert h.betti(3) == len(basis)
    res = cell_apartments(poset, basis, st)
    assert res.iso
    rep = grp.exact_sequence_check(
        coll_mod.closure_by_hyperplanes(E3, covs[:4]), covs[4]
    )
    assert rep["verdict"] == "PASS", rep


def test_s3_coordinate_arrangement():
    """n=3 spherical coordinate scene: 2^(n+1) = 16, all checks."""
    s3 = geo.Geometry("S", 3)
    coord = coll_mod.closure_by_hyperplanes(
        s3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    poset = arr.build_arrangement(coord)
    assert poset.census() == {0: 8, 1: 24, 2: 32, 3: 16}
    basis = arr.region_basis(poset)
    tri = cx.sphere_triangulation(coord, poset)
    bic = cx.pt_bicomplex(coord, tri)
    hb = cx.homology(bic)
    assert hb.nonzero_degrees() == [3] and hb.betti(3) == 16
    assert hb == cx.homology(cx.pt_collapse_complex(coord, tri))
    res = pt_apartments(coord, basis, tri, bic)
    assert res.iso and res.betti == 16


def test_hyperbolic_witness_blending():
    """A region whose chart witness escapes the ball exercises the
    min-norm blend; all witnesses must end up strictly inside."""
    h2 = geo.Geometry("H", 2)
    covs = [(-1, 2, 0), (-3, 0, 4), (1, 1, 1)]  # x=1/2, y=3/4, x+y=-1 chord
    coll = coll_mod.closure_by_hyperplanes(h2, covs)
    poset = arr.build_arrangement(coll)
    for sign, cell in poset.cells.items():
        assert sum(x * x for x in cell.witness) < 1, (sign, cell.witness)
    # the corner region {x > 1/2, y > 3/4} meets the ball barely
    covec_order = poset.covectors
    corner = None
    for sign, cell in poset.cells.items():
        if cell.dim != 2:
            continue
        vals = dict(zip(covec_order, sign))
        if vals[geo.canonical_covector((-1, 2, 0))] > 0 and vals[
            geo.canonical_covector((-3, 0, 4))
        ] > 0:
            corner = cell
    assert corner is not None
    assert not poset.bounded(corner.sign_vector)
    assert not region_is_bounded(poset, corner)


def test_projective_plane_torsion():
    """Six-vertex triangulation of the projective plane: H_1 = Z/2 —
    the wedge verdict must reject torsion."""
    from geotits._kernel import IntMatrix

    tris = [
        (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
        (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
    ]
    edges = sorted({(a, b) for t in tris for a, b in
                    ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))})
    verts = [(v,) for v in range(6)]
    degrees = {0: verts, 1: [tuple(e) for e in edges], 2: [tuple(t) for t in tris]}
    e_index = {e: i for i, e in enumerate(degrees[1])}
    b1 = {}
    for j, (a, b) in enumerate(degrees[1]):
        b1[(a, j)] = b1.get((a, j), 0) - 1
        b1[(b, j)] = b1.get((b, j), 0) + 1
    b2 = {}
    for j, (a, b, c) in enumerate(degrees[2]):
        for k, face in enumerate(((b, c), (a, c), (a, b))):
            b2[(e_index[face], j)] = b2.get((e_index[face], j), 0) + (-1) ** k
    complex_ = cx.ChainComplex(
        degrees,
        {0: IntMatrix(0, 6), 1: IntMatrix(6, len(edges), b1), 2: IntMatrix(len(edges), 10, b2)},
    )
    h = cx.homology(complex_)
    assert h.betti(0) == 1 and h.betti(1) == 0 and h.betti(2) == 0
    assert h.torsion(1) == (2,)
    assert not cx.wedge_verdict(
        cx.HomologySummary({1: (0, (2,)), 2: (1, ())}), 2
    )
