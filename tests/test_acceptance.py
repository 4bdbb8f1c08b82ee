"""Acceptance criteria, one test per criterion.

Every check is exact (tolerance zero); each criterion prints a PASS line
with its runtime and enforces the stated wall-clock budget.
"""

import random

from geotits import arrangement as arr
from geotits import cli
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import exact, geometry as geo
from geotits import groups as grp
from geotits import resolution as reso
from geotits._kernel import IntMatrix, smith_normal_form
from conftest import (
    Budget,
    E1,
    E2,
    E3,
    H2,
    S0,
    S2,
    FOUR_LINES_COVS,
    H2_TRIANGLE_COVS,
    TRIANGLE_COVS,
    TWO_CUBE_COVS,
    cell_apartments,
    face_span,
    points_apartments,
    pt_apartments,
    region_polytope,
    subdivide,
)


E2_SCENES = {
    "3 lines": TRIANGLE_COVS,
    "4 lines": FOUR_LINES_COVS,
    "5 lines with concurrence": [(0, 1, 0), (0, 0, 1), (0, 1, -1), (1, -1, -1), (2, -1, -3)],
    "6 lines": FOUR_LINES_COVS + [(1, -3, 1), (3, -1, -1)],
}


def test_criterion_1_euclidean_solomon_tits():
    for label, covs in E2_SCENES.items():
        with Budget(1, f"Euclidean Solomon-Tits, {label}", 10):
            coll = coll_mod.closure_by_hyperplanes(E2, covs)
            assert coll_mod.admissible(coll) == coll_mod.ADMISSIBLE
            poset = arr.build_arrangement(coll)
            basis = arr.region_basis(poset)
            st = grp.STModel(coll.members, coll.top())
            h = cx.homology(st.complex)
            assert cx.wedge_verdict(h, 2)
            assert h.betti(2) == len(basis)
            assert cell_apartments(poset, basis, st).iso  # unimodular apartment matrix


def test_criterion_2_concurrent_vanishing():
    with Budget(2, "L-circ vanishing, n=2 and n=3", 5):
        for g, covs in (
            (E2, [(0, 1, 0), (0, 0, 1)]),
            (E3, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        ):
            coll = coll_mod.closure_by_hyperplanes(g, covs)
            ht = cx.homology(cx.order_complex(coll.members))
            assert not ht.nonzero_degrees()  # contractible T
            poset = arr.build_arrangement(coll)
            assert len(arr.region_basis(poset)) == 0  # Pt = 0


def test_criterion_3_spherical_coordinate():
    for n, covs, budget in ((1, [(1, 0), (0, 1)], 60), (2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 60)):
        with Budget(3, f"spherical coordinate arrangement, n={n}", budget):
            g = geo.Geometry("S", n)
            coll = coll_mod.closure_by_hyperplanes(g, covs)
            poset = arr.build_arrangement(coll)
            basis = arr.region_basis(poset)
            tri = cx.sphere_triangulation(coll, poset)
            bic = cx.pt_bicomplex(coll, tri)
            hb = cx.homology(bic)
            hc = cx.homology(cx.pt_collapse_complex(coll, tri))
            assert hb == hc  # cross-check agrees exactly
            assert hb.nonzero_degrees() == [n]
            assert hb.betti(n) == 2 ** (n + 1) and not hb.torsion(n)
            assert pt_apartments(coll, basis, tri, bic).iso


def test_criterion_4_s0_base_case():
    with Budget(4, "S^0 base case", 1):
        coll = coll_mod.closure_by_hyperplanes(S0, [(1,)])
        poset = arr.build_arrangement(coll)
        basis = arr.region_basis(poset)
        assert grp.pt_group(basis).free_rank == 2
        tri = cx.sphere_triangulation(coll, poset)
        h = cx.homology(cx.pt_bicomplex(coll, tri))
        assert h.nonzero_degrees() == [0] and h.betti(0) == 2


def test_criterion_5_hyperbolic_counterexample():
    with Budget(5, "hyperbolic two-cube counterexample", 120):
        h3 = geo.Geometry("H", 3)
        coll = coll_mod.closure_by_hyperplanes(h3, TWO_CUBE_COVS)
        h = cx.homology(cx.relative_st_complex(list(coll.members), coll.top()))
        assert h.betti(2) == 1 and not h.torsion(2)
        assert h.betti(3) == 1 and not h.torsion(3)
        assert h.nonzero_degrees() == [2, 3]  # T is S^1 wedge S^2
        assert cx.wedge_verdict(h, 3) is False


def test_criterion_6_a_local_theorem():
    cases = [
        ("H2 triangle window", H2, H2_TRIANGLE_COVS, H2_TRIANGLE_COVS),
        (
            "E2 quadrilateral window",
            E2,
            [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (1, -1, -1), (3, -4, -4)],
            [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1)],
        ),
    ]
    for label, g, covs, window_covs in cases:
        with Budget(6, f"A-local theorem, {label}", 30):
            coll = coll_mod.closure_by_hyperplanes(g, covs)
            window = arr.polytope_from_halfspaces(g, [geo.HalfSpace(c) for c in window_covs])
            assert isinstance(window, geo.ConvexPolytope)
            members = coll_mod.restrict(coll, window)
            poset = arr.build_arrangement(coll, within=window)
            basis = arr.region_basis(poset)
            st = grp.STModel(members, coll.top())
            h = cx.homology(st.complex)
            assert h.nonzero_degrees() in ([2], [])
            assert h.betti(2) == len(basis) and not h.torsion(2)
            assert cell_apartments(poset, basis, st).iso


def test_criterion_7_exact_sequences():
    h2_coll = coll_mod.closure_by_hyperplanes(H2, H2_TRIANGLE_COVS)
    h2_window = arr.polytope_from_halfspaces(
        H2, [geo.HalfSpace(c) for c in H2_TRIANGLE_COVS]
    )
    cases = [
        ("triangle + transversal", E2, TRIANGLE_COVS, (2, -5, -1), None),
        ("triangle + disjoint line", E2, TRIANGLE_COVS, (5, -1, -1), None),
        ("four lines + transversal", E2, FOUR_LINES_COVS, (1, -3, 1), None),
        ("coordinate S2 + generic plane", S2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 2, 3), None),
        ("H2 triangle + chord (windowed)", H2, H2_TRIANGLE_COVS, (3, 0, -8), h2_window),
    ]
    for label, g, covs, u, window in cases:
        with Budget(7, f"exact sequence, {label}", 10):
            coll = coll_mod.closure_by_hyperplanes(g, covs)
            rep = grp.exact_sequence_check(coll, u, window=window)
            assert rep["verdict"] == "PASS", rep
            assert rep["injective"] and rep["facet_surjective"]
            assert rep["composite_zero"] and rep["kernel_equals_image"]
            assert rep["rank_additive"]


def test_criterion_8_points_theorem_and_duality():
    with Budget(8, "points-generated Solomon-Tits (Thm A instances)", 30):
        point_sets = [
            (E1, ((0,), (1,), (3,))),
            (E2, ((0, 0), (1, 0), (0, 1))),
            (E2, ((0, 0), (1, 0), (0, 1), (2, 3))),
        ]
        for g, coords in point_sets:
            pts = [geo.point_subspace(g, p) for p in coords]
            coll, generating = coll_mod.closure_by_points(g, pts)
            assert generating
            assert points_apartments(coll).iso
        # spherical points instance: the three coordinate axes
        axes = [
            geo.GeoSubspace(S2, geo.subspace_from_vectors(3, [v]))
            for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        ]
        scoll, sgen = coll_mod.closure_by_points(S2, axes)
        assert sgen
        assert points_apartments(scoll).iso
    for label, covs in (
        ("coordinate S2", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ("generic S2", [(1, 0, 0), (0, 1, 0), (1, 2, 3)]),
    ):
        with Budget(8, f"duality (Thm C), {label}", 30):
            coll = coll_mod.closure_by_hyperplanes(S2, covs)
            rep = grp.duality_check(coll)
            assert rep["verdict"] == "PASS", rep
            assert rep["bijection"] and rep["order_reversing"]
            assert rep["apartment_iso"]
            assert rep["ls_dual_rank"] == rep["st_rank"]


def test_criterion_9_pt_to_ls():
    cases = [
        ("E2 triangle", E2, TRIANGLE_COVS),
        ("E2 square with diagonals", E2,
         [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1), (1, -1, -1)]),
        ("H2 triangle", H2, H2_TRIANGLE_COVS),
    ]
    for label, g, covs in cases:
        with Budget(9, f"Pt to Ls isomorphism, {label}", 60):
            coll = coll_mod.closure_by_hyperplanes(g, covs)
            assert coll_mod.generated_by_both(coll)
            rep = grp.verify_pt_ls(coll)
            assert rep["verdict"] == "PASS" and rep["isomorphism"], rep
    with Budget(9, "Pt to Ls spherical kernel = joins", 60):
        coll = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        rep = grp.verify_pt_ls(coll)
        assert rep["verdict"] == "PASS", rep
        assert rep["surjective"] and rep["kernel_rank"] == 7
        assert rep["kernel_equals_join_lattice"]


def test_criterion_10_suspension_reduction():
    scenes = [
        ("one plane", [(1, 0, 0)], 2),
        ("two planes, shared axis", [(1, 0, 0), (0, 1, 0)], 4),
        ("three planes, shared axis", [(1, 0, 0), (0, 1, 0), (1, -1, 0)], 6),
    ]
    for label, covs, regions in scenes:
        with Budget(10, f"suspension reduction, {label}", 30):
            coll = coll_mod.closure_by_hyperplanes(S2, covs)
            rep = grp.suspension_check(coll)
            assert rep["verdict"] == "PASS", rep
            assert rep["region_bijection"]
            assert rep["pt_rank"] == regions
            assert rep["reduced_homology_rank"] == regions
            assert rep["predicted_degree"] == 2


RESOLUTION_PINS = {
    1: {},
    2: {"2": {"betti": 1, "torsion": []}},
    3: {"2": {"betti": 3, "torsion": []}, "3": {"betti": 1, "torsion": []}},
    5: {
        "2": {"betti": 10, "torsion": []},
        "3": {"betti": 10, "torsion": []},
        "4": {"betti": 5, "torsion": []},
        "5": {"betti": 1, "torsion": []},
    },
}


def test_criterion_11_resolution_observations():
    probe_scenes = [
        ("E2 triangle", E2, TRIANGLE_COVS),
        ("E2 four lines", E2, FOUR_LINES_COVS),
        ("E1 three points", E1, [(0, 1), (-1, 1), (-3, 1)]),
        ("E1 six points", E1, [(-k, 1) for k in range(6)]),
    ]
    with Budget(11, "resolution observations and pinned higher homology", 120):
        for label, g, covs in probe_scenes:
            coll = coll_mod.closure_by_hyperplanes(g, covs)
            basis = arr.region_basis(arr.build_arrangement(coll))
            rep, _ = reso.resolution_homology(len(basis))
            assert rep["verdict"] == "PASS", (label, rep)
            assert rep["reduced_h0_zero"]
            assert rep["h1_rank"] == len(basis) and not rep["h1_torsion"]
            assert rep["higher"] == RESOLUTION_PINS[len(basis)], (label, rep["higher"])


def test_criterion_12_property_suites(triangle, four_lines, coord_s2):
    rng = random.Random(0)
    with Budget(12, "randomized property suites (seed 0)", 120):
        # SNF invariance under unimodular moves
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            def snf_of(mat):
                return smith_normal_form(
                    IntMatrix(rows, cols, {(i, j): mat[i][j] for i in range(rows) for j in range(cols)})
                ).invariant_factors
            base = snf_of(m)
            i = rng.randrange(rows)
            j = rng.randrange(rows)
            if i != j:
                q = rng.randint(-3, 3)
                for c in range(cols):
                    m[i][c] += q * m[j][c]
            assert snf_of(m) == base
        # orthocomplement involution
        for _ in range(20):
            amb = rng.randint(1, 4)
            vecs = [tuple(rng.randint(-4, 4) for _ in range(amb)) for _ in range(rng.randint(0, amb))]
            v = geo.subspace_from_vectors(amb, vecs)
            assert v.orthogonal_complement().orthogonal_complement() == v
        # apartment cycles are cycles (both region flavors)
        poset = arr.build_arrangement(triangle)
        st = grp.STModel(triangle.members, triangle.top())
        for sign in arr.region_basis(poset):
            apt = grp.apartment_cycle_cell(poset, sign, st)
            assert any(apt) and not any(st.complex.boundary(2).mul_vec(list(apt)))
        tri_s = cx.sphere_triangulation(coord_s2)
        bic = cx.pt_bicomplex(coord_s2, tri_s)
        poset_s = arr.build_arrangement(coord_s2)
        for sign in arr.region_basis(poset_s):
            apt = grp.apartment_cycle_pt_spherical(sign, coord_s2, tri_s, bic)
            assert any(apt) and not any(bic.boundary(2).mul_vec(list(apt)))
        # indicator subdivision additivity (seeded cuts)
        basis = arr.region_basis(poset)
        p = region_polytope(poset, basis[0])
        total = arr.polytope_to_vector(p.facet_halfspaces(), basis, poset)
        pieces = subdivide(p, list(triangle.hyperplane_covectors))
        acc = [0] * len(basis)
        for piece in pieces:
            vec = arr.polytope_to_vector(piece.facet_halfspaces(), basis, poset)
            acc = [a + b for a, b in zip(acc, vec)]
        assert tuple(acc) == total
        # face-span identities on a corpus polytope
        for f in p.faces:
            if f.dim == p.geometry.n:
                continue
            from geotits.exact import dot

            containing = [
                hyp
                for hyp in sorted({h.hyperplane for h in p.facet_halfspaces()})
                if all(dot(hyp, (1,) + tuple(p.vertices[i])) == 0 for i in f.vertex_ids)
            ]
            meet = geo.LinearSubspace(3, exact.nullspace(containing, 3))
            assert meet == face_span(p, f)


def test_full_corpus_passes():
    with Budget(0, "bundled corpus", 300):
        report = cli.run_corpus(seed=0)
        bad = [r for r in report["scenarios"] if r["status"] != "PASS"]
        assert not bad, bad
        assert report["overall"] == "PASS"
