"""One pinned reduction of each verify's top boundary, shared by the
apartment classes and ``homology``.

``HomologyClasses`` keeps no kernel basis: it reads the non-pivot
columns of the complex's pinned reduction and checks d c = 0.  Its
oracle, ``conftest.ReferenceHomologyClasses``, forms the kernel basis
from the V of the pinned order and solves every chain in it.  After the
classes, ``homology`` takes the top degree from that same reduction; it
must equal the rank-only homology of a fresh copy of the complex, and
the paths that build no classes must never run the Markowitz heap (one
key per column, ``_kernel.elim_py``).
"""

import json
import pathlib
import random

import pytest

from geotits import HypothesesError
from geotits import _kernel
from geotits import arrangement as arr
from geotits import cli
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import geometry as geo
from geotits import groups as grp
from geotits import resolution as reso
from geotits._kernel import PINNED, IntMatrix, smith_normal_form
from conftest import (
    Budget,
    ReferenceHomologyClasses,
    lattices_equal,
    reference_kernel_lattice,
    reference_rank_and_index,
)

TEST_SCENES = pathlib.Path(__file__).resolve().parent / "scenes"
CORPUS = sorted(cli.corpus_dir().glob("*.json"))


def _load(path):
    return cli.Scene(json.loads(path.read_text()))


class _Recorder:
    """Replaces ``complexes.HomologyClasses`` with a subclass that checks
    betti and every ``coords`` call (answer or ``ValueError``) against
    the oracle, and records the reductions that ``complexes`` runs."""

    def __init__(self, monkeypatch):
        self.complexes = []  # (complex, degree) of every classes object
        self.reductions = []  # (matrix, mode) of every reduction
        self.coords_calls = 0
        recorder = self

        class Checked(cx.HomologyClasses):
            def __init__(self, complex_, degree):
                super().__init__(complex_, degree)
                self.oracle = ReferenceHomologyClasses(complex_, degree)
                assert self.betti == self.oracle.betti
                recorder.complexes.append((complex_, degree))

            def coords(self, cycle):
                recorder.coords_calls += 1
                try:
                    want = self.oracle.coords(cycle)
                except ValueError:
                    with pytest.raises(ValueError):
                        super().coords(cycle)
                    raise
                got = super().coords(cycle)
                assert got == want
                return got

        def counted(matrix, mode=_kernel.RANK):
            self.reductions.append((matrix, mode))
            return smith_normal_form(matrix, mode)

        monkeypatch.setattr(cx, "HomologyClasses", Checked)
        monkeypatch.setattr(cx, "smith_normal_form", counted)

    def check_reuse(self):
        """Every top boundary that classes read was reduced once, pinned,
        and ``homology`` of its complex equals the rank-only homology of
        a fresh copy."""
        for complex_, degree in self.complexes:
            top = complex_.boundary(degree)
            assert self._modes(top) == [PINNED]
            fresh = cx.ChainComplex(complex_.degrees, complex_.boundaries)
            assert cx.homology(complex_).by_degree == cx.homology(fresh).by_degree
            assert self._modes(top) == [PINNED, _kernel.RANK]

    def _modes(self, matrix):
        return [mode for m, mode in self.reductions if m is matrix]


def _verifies(scene):
    return [spec["sub"] if "sub" in spec else None
            for spec in scene.options.get("expected", ()) if spec["command"] == "verify"]


def test_classes_match_oracle_on_corpus_verifies(monkeypatch):
    """Every verify command of every corpus scene: spherical bicomplexes,
    the ST models of the E/H/points paths, the dual ST models of duality
    and the cap models of exact-seq's dashed map."""
    recorder = _Recorder(monkeypatch)
    kinds = set()
    for path in CORPUS:
        scene = _load(path)
        for sub in _verifies(scene):
            before = len(recorder.complexes)
            try:
                cli.run_command("verify", sub, scene)
            except HypothesesError:
                continue
            if len(recorder.complexes) > before:
                kinds.add((scene.geometry.kind, sub))
    recorder.check_reuse()
    assert {("E", "solomon-tits"), ("H", "solomon-tits"), ("S", "solomon-tits"),
            ("E", "local"), ("S", "duality"), ("E", "exact-seq")} <= kinds
    assert len(recorder.complexes) >= 20 and recorder.coords_calls >= 100


@pytest.mark.parametrize("name, seconds", [("s3_four_generic", 20), ("s4_coordinate", 30)])
def test_classes_match_oracle_on_pinned_spheres(monkeypatch, name, seconds):
    recorder = _Recorder(monkeypatch)
    with Budget("classes", f"{name}: pinned classes against the V-based oracle", seconds):
        scene = _load(TEST_SCENES / f"{name}.json")
        (block,), overall = cli.run_command("verify", "solomon-tits", scene)
        assert overall == "PASS" and block["h_rank"] == block["regions"]
        assert len(recorder.complexes) == 1
        assert recorder.coords_calls == block["regions"]
        recorder.check_reuse()


def test_classes_refuse_non_cycles_and_wrong_lengths():
    """On the PT bicomplex of the coordinate S^2: a chain with a position
    outside the degree, and a cycle changed at a pivot or at a non-pivot
    column."""
    scene = _load(cli.corpus_dir() / "s2_coordinate.json")
    coll, _ = scene.collection()
    poset, basis = scene.arrangement(None)
    tri = cx.sphere_triangulation(coll, poset)
    bic = cx.pt_bicomplex(coll, tri)
    classes = cx.HomologyClasses(bic, 2)
    oracle = ReferenceHomologyClasses(bic, 2)
    pivots = set(bic.pinned_reduction(2).pivot_cols)
    cycle = grp.apartment_cycle_pt_spherical(basis[0], coll, tri, bic)
    assert classes.coords(cycle) == oracle.coords(cycle)
    for bad in ({**cycle, bic.dim(2): 1}, {-1: 1}):
        for reader in (classes, oracle):
            with pytest.raises(ValueError):
                reader.coords(bad)
    for j in (min(pivots), min(set(range(bic.dim(2))) - pivots)):
        chain = {**cycle, j: cycle.get(j, 0) + 1}
        for reader in (classes, oracle):
            with pytest.raises(ValueError):
                reader.coords(chain)


def test_unknown_elimination_mode_is_refused():
    m = IntMatrix(1, 1, {(0, 0): 1})
    for mode in (True, False, "markowitz", None):
        with pytest.raises(ValueError):
            smith_normal_form(m, mode)


def _count_pinned(monkeypatch):
    calls = {"pinned": 0, "all": 0}
    original = _kernel.eliminate

    def counted(rows, m, n, mode):
        calls["all"] += 1
        calls["pinned"] += mode == PINNED
        return original(rows, m, n, mode)

    monkeypatch.setattr(_kernel, "eliminate", counted)
    return calls


def test_paths_without_classes_never_take_the_markowitz_heap(monkeypatch):
    """The resolution probe, the collapse model and ``homology <which>``
    reduce rank-only: about 2.2 times cheaper than the pinned order on
    the S^4 top boundaries."""
    calls = _count_pinned(monkeypatch)
    reso.resolution_homology(6)
    scene = _load(cli.corpus_dir() / "s3_coordinate.json")
    coll, _ = scene.collection()
    tri = cx.sphere_triangulation(coll, scene.arrangement(None)[0])
    cx.homology(cx.pt_collapse_complex(coll, tri))
    for name, which in [("s3_coordinate", "pt"), ("s2_coordinate", "st"), ("e2_four_lines", "pt"),
                        ("e2_four_lines", "t"), ("h2_triangle", "local")]:
        (block,), _ = cli.run_command("homology", which, _load(cli.corpus_dir() / f"{name}.json"))
        assert block["verdict"] == "PASS"
    assert calls["all"] > 20 and calls["pinned"] == 0


def test_spherical_verify_takes_the_markowitz_heap_once(monkeypatch):
    calls = _count_pinned(monkeypatch)
    cli.run_command("verify", "solomon-tits", _load(cli.corpus_dir() / "s3_coordinate.json"))
    assert calls["pinned"] == 1


# ---------------------------------------------------------------------------
# verify pt-ls decides the spherical kernel K = J as an isomorphism
# Pt/J -> Ls and counts the rank of K from ranks; the reference kernel
# lattice of [M | -R^T] is the oracle, on J and on seeded sublattices of J.


def _sublattice(rng, joins):
    """A sublattice of J: a random number of its generators, perhaps one
    of them doubled, and integer combinations of all of them."""
    picked = [list(v) for v in rng.sample(joins, rng.randint(0, len(joins)))]
    if picked and rng.random() < 0.3:
        k = rng.randrange(len(picked))
        picked[k] = [2 * x for x in picked[k]]
    for _ in range(rng.randint(0, 3)):
        coeffs = [rng.randint(-2, 2) for _ in joins]
        picked.append([sum(c * v[i] for c, v in zip(coeffs, joins))
                       for i in range(len(joins[0]))])
    return picked


def test_pt_ls_kernel_verdict_matches_reference_lattice(monkeypatch):
    """The spherical corpus pt-ls scenes, the pinned generic S^3 and the
    four lines of S^1 (whose Ls relations are dependent): J is the
    reference kernel, and with J or one of 30 seeded sublattices of J
    per scene in its place, ``verify_pt_ls`` agrees with the reference
    on the kernel's equality, which takes both values, and rank."""
    colls = [_load(p).collection()[0] for p in CORPUS if "pt-ls" in _verifies(_load(p))]
    colls = [c for c in colls if c.geometry.kind == geo.SPHERICAL]
    colls.append(_load(TEST_SCENES / "s3_four_generic.json").collection()[0])
    colls.append(coll_mod.closure_by_hyperplanes(
        geo.Geometry("S", 1), [(1, 0), (0, 1), (1, 1), (1, -1)]))
    assert len(colls) == 3
    join_sublattice = grp.join_sublattice
    seen = set()
    for index, coll in enumerate(colls):
        poset = arr.build_arrangement(coll)
        basis = arr.region_basis(poset)
        joins = join_sublattice(coll, poset, basis)
        kernel = reference_kernel_lattice(grp.pt_to_ls_hom(coll, poset, basis)[0])
        rank = reference_rank_and_index(kernel, len(basis))[0]
        assert lattices_equal(kernel, joins, len(basis))
        rng = random.Random(f"pt-ls sublattice/{index}")
        for sub in [joins] + [_sublattice(rng, joins) for _ in range(30)]:
            monkeypatch.setattr(grp, "join_sublattice", lambda *args: sub)
            rep = grp.verify_pt_ls(coll, poset, basis)
            want = lattices_equal(kernel, sub, len(basis))
            assert rep["kernel_equals_join_lattice"] == want
            assert rep["surjective"] and rep["kernel_rank"] == rank
            assert rep["verdict"] == ("PASS" if want else "FAIL")
            seen.add((index, want))
    assert seen == {(index, want) for index in range(3) for want in (True, False)}
