"""Command-line harness: scene files, deterministic reports, corpus.

Scene schema (all rationals are strings "p/q" or "p"; floats rejected)::

    {"geometry": "E|H|S", "n": int,
     "hyperplanes": [["a0", "a1", ...], ...],
     "points": [["x1", ...], ...],
     "polytope_A": {"halfspaces": [["a0", ...], ...]},
     "options": {"mode": "hyperplanes"|"points", "u_hyperplane": [...],
                 "p_max": int >= 1, "unordered": bool, "expected": [...]}}

Exit codes: 0 PASS, 1 FAIL, 2 INVALID_SCENE, 3 HYPOTHESES_NOT_MET (a
documented precondition fails: see ``HypothesesError``), 4 INTERNAL_ERROR
(any other exception; the diagnostics name its type).
"""

import argparse
import hashlib
import json
import random
import sys
from fractions import Fraction

from geotits import HypothesesError, __version__
from geotits import arrangement as arr
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import exact, geometry as geo
from geotits import groups as grp
from geotits import resolution as reso

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID_SCENE = 2
EXIT_HYPOTHESES = 3
EXIT_INTERNAL = 4


class SceneError(Exception):
    pass


def _parse_rational(x, where):
    if isinstance(x, bool) or isinstance(x, float):
        raise SceneError(f"{where}: rationals must be strings, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise SceneError(f"{where}: cannot parse rational {x!r}")
    raise SceneError(f"{where}: cannot parse rational {x!r}")


def _rows(value, where):
    """A JSON array of arrays (rows of rationals), else SceneError."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise SceneError(f"{where} must be a list of lists")
    return value


def _object(value, where):
    """A JSON object, or {} when absent or null; else SceneError."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SceneError(f"{where} must be an object")
    return value


class Scene:
    def __init__(self, data):
        if not isinstance(data, dict):
            raise SceneError("scene must be a JSON object")
        kind = data.get("geometry")
        if kind not in ("E", "H", "S"):
            raise SceneError(f"geometry must be E, H or S, got {kind!r}")
        n = data.get("n")
        if not isinstance(n, int) or isinstance(n, bool):
            raise SceneError("n must be an integer")
        try:
            self.geometry = geo.Geometry(kind, n)
        except ValueError as exc:
            raise SceneError(str(exc))
        if n > arr.MAX_DIM:
            raise SceneError(f"n = {n} exceeds the desk-scale guard {arr.MAX_DIM}")

        self.hyperplanes = []
        seen = {}
        for i, row in enumerate(_rows(data.get("hyperplanes", []), "hyperplanes")):
            if len(row) != n + 1:
                raise SceneError(f"hyperplane #{i}: needs {n + 1} entries")
            func = tuple(_parse_rational(x, f"hyperplane #{i}") for x in row)
            if all(x == 0 for x in func):
                raise SceneError(f"hyperplane #{i}: zero functional")
            cov = geo.canonical_covector(func)
            if cov in seen:
                raise SceneError(
                    f"hyperplane #{i} duplicates #{seen[cov]} (canonical form {list(cov)})"
                )
            seen[cov] = i
            self.hyperplanes.append(cov)
        if len(self.hyperplanes) > arr.MAX_HYPERPLANES:
            raise SceneError(
                f"{len(self.hyperplanes)} hyperplanes exceed the guard {arr.MAX_HYPERPLANES}"
            )
        for i, cov in enumerate(self.hyperplanes):
            if geo.hyperplane_subspace(self.geometry, cov) is None:
                if not (kind == "S" and n == 0):
                    raise SceneError(f"hyperplane #{i} does not meet the geometry")

        self.points = []
        want = n if kind in ("E", "H") else n + 1
        for i, row in enumerate(_rows(data.get("points", []), "points")):
            if len(row) != want:
                raise SceneError(f"point #{i}: needs {want} chart coordinates")
            pt = tuple(_parse_rational(x, f"point #{i}") for x in row)
            if kind == "H" and sum(x * x for x in pt) >= 1:
                raise SceneError(f"point #{i}: hyperbolic points must lie strictly inside the unit ball")
            if kind == "S" and all(x == 0 for x in pt):
                raise SceneError(f"point #{i}: zero vector")
            self.points.append(pt)

        self.polytope_a = None
        if data.get("polytope_A") is not None:
            block = _object(data["polytope_A"], "polytope_A")
            hs = []
            for i, row in enumerate(_rows(block.get("halfspaces", []), "polytope_A.halfspaces")):
                if len(row) != n + 1:
                    raise SceneError(f"polytope_A halfspace #{i}: needs {n + 1} entries")
                func = tuple(_parse_rational(x, f"polytope_A halfspace #{i}") for x in row)
                if all(x == 0 for x in func):
                    raise SceneError(f"polytope_A halfspace #{i}: zero functional")
                hs.append(geo.HalfSpace(func))
            if not hs:
                raise SceneError("polytope_A.halfspaces: a window needs at least one half-space")
            walls = len({h.hyperplane for h in hs})
            if walls > arr.MAX_HYPERPLANES:
                raise SceneError(
                    f"polytope_A: {walls} distinct walls exceed the guard {arr.MAX_HYPERPLANES}"
                )
            built = arr.polytope_from_halfspaces(self.geometry, hs)
            if isinstance(built, geo.Invalid):
                raise SceneError(f"polytope_A is not a valid convex polytope: {built.reason}")
            self.polytope_a = built

        self.options = _object(data.get("options"), "options")
        self.mode = self.options.get("mode", "hyperplanes")
        if self.mode not in ("hyperplanes", "points"):
            raise SceneError(f"options.mode must be 'hyperplanes' or 'points', got {self.mode!r}")
        if self.mode == "points" and not self.points:
            raise SceneError("points mode needs a nonempty points list")
        if self.mode == "hyperplanes" and not self.hyperplanes:
            if not (kind == "S"):
                raise SceneError("hyperplanes mode needs a nonempty hyperplane list")

        self.u_hyperplane = None
        if self.options.get("u_hyperplane") is not None:
            row = self.options["u_hyperplane"]
            if not isinstance(row, list) or len(row) != n + 1:
                raise SceneError("options.u_hyperplane must be a list of n+1 entries")
            func = tuple(_parse_rational(x, "u_hyperplane") for x in row)
            if all(x == 0 for x in func):
                raise SceneError("options.u_hyperplane: zero functional")
            self.u_hyperplane = geo.canonical_covector(func)

        self.p_max = self.options.get("p_max")
        if self.p_max is not None and (
            not isinstance(self.p_max, int) or isinstance(self.p_max, bool) or self.p_max < 1
        ):
            raise SceneError(f"options.p_max must be an integer >= 1, got {self.p_max!r}")
        unordered = self.options.get("unordered")
        if unordered is not None and not isinstance(unordered, bool):
            raise SceneError(f"options.unordered must be true or false, got {unordered!r}")
        self.unordered = bool(unordered)

        self._collection = None
        self._arrangements = {}
        self._window_members = None
        self.raw = self._normalize(data)
        self.digest = hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()
        ).hexdigest()[:16]

    def _normalize(self, data):
        out = {
            "geometry": data["geometry"],
            "n": data["n"],
            "hyperplanes": [[str(x) for x in row] for row in data.get("hyperplanes", ())],
            "points": [[str(x) for x in row] for row in data.get("points", ())],
        }
        if data.get("polytope_A") is not None:
            out["polytope_A"] = {
                "halfspaces": [
                    [str(x) for x in row]
                    for row in data["polytope_A"].get("halfspaces", ())
                ]
            }
        if data.get("options"):
            out["options"] = data["options"]
        return out

    def collection(self):
        """(collection, generating), built on first use and shared by every
        command run on this scene; callers must not mutate it."""
        if self._collection is None:
            if self.mode == "points":
                pts = [geo.point_subspace(self.geometry, p) for p in self.points]
                self._collection = coll_mod.closure_by_points(self.geometry, pts)
            else:
                self._collection = (
                    coll_mod.closure_by_hyperplanes(self.geometry, self.hyperplanes),
                    None,
                )
        return self._collection

    def arrangement(self, within):
        """(face poset, region basis) of the collection, restricted to the
        window ``within`` (None or ``polytope_a``); built on first use and
        shared like ``collection()``."""
        if within not in self._arrangements:
            poset = arr.build_arrangement(self.collection()[0], within=within)
            self._arrangements[within] = (poset, arr.region_basis(poset))
        return self._arrangements[within]

    def window_members(self):
        """L|A (``collection.restrict`` to ``polytope_a``), built on first
        use and shared like ``collection()``."""
        if self._window_members is None:
            self._window_members = coll_mod.restrict(self.collection()[0], self.polytope_a)
        return self._window_members


def load_scene(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SceneError(f"cannot read scene: {exc}")
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene is not valid JSON: {exc}")
    return Scene(data)


# ---------------------------------------------------------------------------
# Check runners (each returns a JSON-ready block with a "verdict")


def check_validate(scene):
    return [{
        "name": "validate",
        "geometry": f"{scene.geometry.kind}^{scene.geometry.n}",
        "hyperplanes": len(scene.hyperplanes),
        "points": len(scene.points),
        "has_window": scene.polytope_a is not None,
        "mode": scene.mode,
        "verdict": "PASS",
    }]


def check_closure(scene):
    coll, generating = scene.collection()
    block = {
        "name": "closure",
        "members_by_dim": {str(d): len(coll.grade(d)) for d in range(scene.geometry.n + 1)},
        "member_count": len(coll.members),
        "admissible": coll_mod.admissible(coll),
        "generated_by_points": coll_mod.generated_by_points(coll),
        "generated_by_hyperplanes": coll_mod.generated_by_hyperplanes(coll),
        "verdict": "PASS",
    }
    if generating is not None and not generating:
        block["points_generating"] = "NOT_GENERATING"
    return [block]


def _sample_chart_point(rng, g):
    if g.kind == geo.SPHERICAL:
        while True:
            v = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 13)) for _ in range(g.n + 1))
            if any(v):
                return v
    if g.kind == geo.HYPERBOLIC:
        return tuple(Fraction(rng.randint(-40, 40), 81) for _ in range(g.n))
    return tuple(Fraction(rng.randint(-200, 200), rng.randint(1, 13)) for _ in range(g.n))


def check_arrangement(scene, seed=0):
    """Sample points and check that each lies in exactly one region.  A
    draw outside the window moves halfway to its interior witness until
    it lies inside, so a window anywhere in the chart gets samples."""
    poset, basis = scene.arrangement(scene.polytope_a)
    rng = random.Random(seed)
    samples = 0
    failures = 0
    g = scene.geometry
    window = scene.polytope_a
    region_signs = {c.sign_vector for c in poset.regions()}
    while samples < 20:
        vec = geo.chart_vector(g, _sample_chart_point(rng, g))
        if window is not None:
            # on the sphere a draw opposite the witness can halve to the
            # zero vector, which lies on every hyperplane and is skipped
            while not all(exact.dot(h.functional, vec) >= 0 for h in window.halfspaces):
                vec = tuple((x + y) / 2 for x, y in zip(vec, window.interior_witness))
        signs = tuple(
            1 if exact.dot(cov, vec) > 0 else (-1 if exact.dot(cov, vec) < 0 else 0)
            for cov in poset.covectors
        )
        if 0 in signs:
            continue
        samples += 1
        hits = sum(1 for s in region_signs if s == signs)
        if hits != 1:
            failures += 1
    return [{
        "name": "arrangement",
        "cells_by_dim": {str(d): c for d, c in poset.census().items()},
        "region_basis_size": len(basis),
        "region_basis": [arr.sign_key(s) for s in basis],
        "partition_samples": samples,
        "partition_failures": failures,
        "verdict": "PASS" if failures == 0 else "FAIL",
    }]


def homology_model(scene, which):
    """(complex, crosscheck) of ``homology <which>``: the chain complex
    whose reduced homology is reported and, for spherical pt, the
    collapse model that cross-checks it (None otherwise)."""
    coll, _ = scene.collection()
    if which == "t":
        return cx.order_complex(coll.members), None
    if which == "local":
        if scene.polytope_a is None:
            raise HypothesesError("local homology needs polytope_A")
        return cx.STModel(scene.window_members(), coll.top()).complex, None
    if which == "pt" and scene.geometry.kind == geo.SPHERICAL:
        if coll_mod.admissible(coll) != coll_mod.ADMISSIBLE:
            raise HypothesesError("spherical PT homology needs an admissible collection; see verify suspension")
        poset, _ = scene.arrangement(None)
        tri = cx.sphere_triangulation(coll, poset)
        return cx.pt_bicomplex(coll, tri), cx.pt_collapse_complex(coll, tri)
    if which in ("st", "pt"):
        return cx.STModel(coll.members, coll.top()).complex, None
    raise SceneError(f"unknown homology model {which!r}")


def check_homology(scene, which, dump_path=None):
    """Homology blocks of ``homology <which>``; with ``dump_path``, the
    reported complex is also written there as JSON once it is computed."""
    n = scene.geometry.n
    complex_, crosscheck = homology_model(scene, which)
    h = cx.homology(complex_)
    hc = cx.homology(crosscheck) if crosscheck is not None else None
    if dump_path:
        _dump_complex(complex_, dump_path)
    if crosscheck is not None:
        return [{
            "name": "homology-pt",
            "bicomplex": h.as_dict(),
            "collapse_crosscheck": hc.as_dict(),
            "crosscheck_agrees": h == hc,
            "wedge_verdict": cx.wedge_verdict(h, n),
            "verdict": "PASS" if h == hc else "FAIL",
        }]
    block = {"name": f"homology-{which}", "reduced_homology": h.as_dict(), "verdict": "PASS"}
    if which != "t":
        block["wedge_verdict"] = cx.wedge_verdict(h, n)
    if which == "pt":
        block["note"] = "E/H polytopal and suspended models agree"
    if which == "local":
        # the top plus one degree-1 flag per proper member in the window
        block["members_in_window"] = complex_.dim(1) + 1
    return [block]


def check_groups(scene, which):
    coll, _ = scene.collection()
    if which == "pt":
        _, basis = scene.arrangement(scene.polytope_a)
        return [{
            "name": "groups-pt",
            "free_rank": len(basis),
            "basis": [arr.sign_key(s) for s in basis],
            "verdict": "PASS",
        }]
    if which == "ls":
        if not coll_mod.generated_by_points(coll):
            raise HypothesesError("Ls group needs a points-generated collection")
        pres, _ = grp.ls_group(coll)
        return [{
            "name": "groups-ls",
            "generators": len(pres.generators),
            "free_rank": pres.free_rank,
            "torsion": list(pres.torsion),
            "verdict": "PASS",
        }]
    raise SceneError(f"unknown group {which!r}")


def verify_solomon_tits(scene):
    if scene.polytope_a is not None:
        return verify_local(scene)
    coll, generating = scene.collection()
    g = scene.geometry
    n = g.n
    if scene.mode == "points":
        if not generating:
            raise HypothesesError("points do not generate the whole geometry")
        ls_data = grp.ls_group(coll)
        st = cx.STModel(coll.members, coll.top())
        res = grp.ls_apartment_matrix(ls_data, st)
        h = cx.homology(st.complex)  # after the classes: one reduction of d_n
        ok = res.iso and cx.wedge_verdict(h, n)
        return [{
            "name": "solomon-tits-points",
            "hypotheses": {"generated_by": "points", "points_generate": True},
            "apartment_matrix": _matrix_rows(res.matrix),
            "claim": "points-generated: Ls is the degree-n homology via apartments",
            "st_homology": h.as_dict(),
            "wedge_verdict": cx.wedge_verdict(h, n),
            "ls_rank": ls_data[0].free_rank,
            "ls_generators": len(ls_data[0].generators),
            "h_rank": res.betti,
            "apartment_iso": res.iso,
            "verdict": "PASS" if ok else "FAIL",
        }]
    if g.kind == geo.EUCLIDEAN:
        if coll_mod.admissible(coll) != coll_mod.ADMISSIBLE:
            raise HypothesesError("Euclidean collection not admissible")
        poset, basis = scene.arrangement(None)
        h, res = _cell_apartments(coll, coll.members, poset, basis)
        ok = res.iso and cx.wedge_verdict(h, n) and h.betti(n) == len(basis)
        return [{
            "name": "solomon-tits-euclidean",
            "hypotheses": {"admissible": True, "generated_by": "hyperplanes"},
            "apartment_matrix": _matrix_rows(res.matrix),
            "st_homology": h.as_dict(),
            "wedge_verdict": cx.wedge_verdict(h, n),
            "bounded_regions": len(basis),
            "h_rank": h.betti(n),
            "apartment_iso": res.iso,
            "apartment_unimodular": res.iso,
            "verdict": "PASS" if ok else "FAIL",
        }]
    if g.kind == geo.SPHERICAL:
        if coll_mod.admissible(coll) != coll_mod.ADMISSIBLE:
            raise HypothesesError("spherical collection not admissible; run verify suspension")
        poset, basis = scene.arrangement(None)
        tri = cx.sphere_triangulation(coll, poset)
        bic = cx.pt_bicomplex(coll, tri)
        cycles = [grp.apartment_cycle_pt_spherical(s, coll, tri, bic) for s in basis]
        # the classes reduce d_n once, and homology(bic) reuses that reduction
        res = grp.apartment_matrix(bic, n, cycles)
        hb = cx.homology(bic)
        hc = cx.homology(cx.pt_collapse_complex(coll, tri))
        ok = res.iso and hb == hc and cx.wedge_verdict(hb, n) and hb.betti(n) == len(basis)
        return [{
            "name": "solomon-tits-spherical",
            "hypotheses": {"admissible": True, "generated_by": "hyperplanes"},
            "apartment_matrix": _matrix_rows(res.matrix),
            "pt_homology": hb.as_dict(),
            "collapse_agrees": hb == hc,
            "wedge_verdict": cx.wedge_verdict(hb, n),
            "regions": len(basis),
            "h_rank": hb.betti(n),
            "apartment_iso": res.iso,
            "verdict": "PASS" if ok else "FAIL",
        }]
    # hyperbolic
    if coll_mod.generated_by_both(coll):
        poset, basis = scene.arrangement(None)
        h, res = _cell_apartments(coll, coll.members, poset, basis)
        ok = res.iso and cx.wedge_verdict(h, n) and h.betti(n) == len(basis)
        return [{
            "name": "solomon-tits-hyperbolic-both-generated",
            "note": "finite hyperbolic admissibility is not decidable; "
                    "generation by points and hyperplanes is used instead",
            "st_homology": h.as_dict(),
            "wedge_verdict": cx.wedge_verdict(h, n),
            "bounded_regions": len(basis),
            "apartment_iso": res.iso,
            "verdict": "PASS" if ok else "FAIL",
        }]
    raise HypothesesError(
        "hyperbolic admissibility NOT_DECIDABLE_FINITE: supply polytope_A for the "
        "window theorem or a collection generated by both points and hyperplanes"
    )


def _cell_apartments(coll, members, poset, basis):
    """(homology, apartment matrix) of the relative ST model on these
    members, with one cell apartment per basis region."""
    st = cx.STModel(members, coll.top())
    cycles = grp.cell_apartments(poset, basis, st)
    res = grp.apartment_matrix(st.complex, coll.geometry.n, cycles)
    return cx.homology(st.complex), res  # after the classes: one reduction of d_n


def verify_local(scene):
    if scene.polytope_a is None:
        raise HypothesesError("local verification needs polytope_A")
    if scene.geometry.kind == geo.SPHERICAL:
        raise HypothesesError("local verification is for E^n and H^n windows")
    coll, _ = scene.collection()
    n = scene.geometry.n
    poset, basis = scene.arrangement(scene.polytope_a)
    members = scene.window_members()
    h, res = _cell_apartments(coll, members, poset, basis)
    ok = res.iso and cx.wedge_verdict(h, n) and h.betti(n) == len(basis)
    return [{
        "name": "solomon-tits-local",
        "hypotheses": {"window": "convex L-polytope", "window_facets_in_l": True},
        "apartment_matrix": _matrix_rows(res.matrix),
        "members_in_window": len(members),
        "st_homology": h.as_dict(),
        "wedge_verdict": cx.wedge_verdict(h, n),
        "regions_in_window": len(basis),
        "h_rank": h.betti(n),
        "apartment_iso": res.iso,
        "verdict": "PASS" if ok else "FAIL",
    }]


def verify_exact_seq(scene):
    coll, _ = scene.collection()
    if scene.u_hyperplane is None:
        raise SceneError("verify exact-seq needs options.u_hyperplane")
    grp.exact_sequence_hypotheses(coll, scene.u_hyperplane, scene.polytope_a)
    poset, basis = scene.arrangement(scene.polytope_a)
    # only the E^n and H^n checks build ST models, from L|A
    members = coll.members
    if scene.polytope_a is not None and scene.geometry.kind != geo.SPHERICAL:
        members = scene.window_members()
    rep = grp.exact_sequence_check(coll, scene.u_hyperplane, scene.polytope_a,
                                   poset, basis, members)
    rep["name"] = "exact-sequence"
    return [rep]


def verify_duality(scene):
    coll, _ = scene.collection()
    rep = grp.duality_check(coll)
    rep["name"] = "duality"
    return [rep]


def verify_suspension(scene):
    coll, _ = scene.collection()
    grp.suspension_hypotheses(coll)
    rep = grp.suspension_check(coll, scene.arrangement(None)[1])
    rep["name"] = "suspension"
    return [rep]


def verify_pt_ls_cmd(scene):
    coll, _ = scene.collection()
    if not coll_mod.generated_by_both(coll):
        raise HypothesesError("collection is not generated by both points and hyperplanes")
    rep = grp.verify_pt_ls(coll, *scene.arrangement(None))
    rep["name"] = "pt-to-ls"
    return [rep]


def check_resolution(scene):
    _, basis = scene.arrangement(scene.polytope_a)
    if len(basis) > reso.MAX_BASIS:
        raise HypothesesError(
            f"region basis {len(basis)} exceeds the resolution guard {reso.MAX_BASIS}"
        )
    rep, _ = reso.resolution_homology(
        len(basis), p_max=scene.p_max, ordered=not scene.unordered
    )
    rep["name"] = "resolution"
    rep["basis_size"] = len(basis)
    rep["open-question"] = {
        "higher_homology": rep["higher"],
        "asserted": False,
        "note": "values reported as data; no vanishing claim is made",
    }
    return [rep]


VERIFY = {
    "solomon-tits": verify_solomon_tits,
    "pt-ls": verify_pt_ls_cmd,
    "exact-seq": verify_exact_seq,
    "duality": verify_duality,
    "suspension": verify_suspension,
    "local": verify_local,
}


def run_command(command, sub, scene, seed=0, dump_complex=None):
    """(check blocks, overall verdict); ``dump_complex`` is the file that
    ``homology`` writes its chain complex to; ``seed`` drives the sampled
    checks of ``arrangement``."""
    if command == "verify":
        checks = VERIFY[sub](scene)
    elif command == "homology":
        checks = check_homology(scene, sub, dump_complex)
    elif command == "groups":
        checks = check_groups(scene, sub)
    elif command == "arrangement":
        checks = check_arrangement(scene, seed)
    elif command == "validate":
        checks = check_validate(scene)
    elif command == "closure":
        checks = check_closure(scene)
    elif command == "resolution":
        checks = check_resolution(scene)
    else:
        raise SceneError(f"unknown command {command!r}")
    overall = "PASS"
    for block in checks:
        if block.get("verdict") not in ("PASS", "EXPLORATORY"):
            overall = "FAIL"
    return checks, overall


def _matrix_rows(m):
    return [[row.get(j, 0) for j in range(m.cols)] for row in m.row_dicts()]


def make_report(scene, command, sub, checks, overall, seed):
    cmd = command if sub is None else f"{command} {sub}"
    return {
        "tool": f"geotits {__version__}",
        "command": cmd,
        "seed": seed,
        "scene_digest": scene.digest,
        "checks": checks,
        "overall": overall,
    }


def emit(report, json_path=None, stream=None):
    text = json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text)
    (stream if stream is not None else sys.stdout).write(text)


def _dump_complex(complex_, out_path):
    with open(out_path, "w") as fh:
        json.dump(complex_.as_json(), fh, sort_keys=True, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Bundled corpus


def corpus_dir():
    from importlib import resources

    return resources.files("geotits") / "scenes"


def _subset_match(expected, actual, path=""):
    """Is ``expected`` a deep subset of ``actual``? Returns mismatches."""
    problems = []
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected object, got {type(actual).__name__}"]
        for k, v in expected.items():
            if k not in actual:
                problems.append(f"{path}.{k}: missing")
            else:
                problems.extend(_subset_match(v, actual[k], f"{path}.{k}"))
        return problems
    if expected != actual:
        problems.append(f"{path}: expected {expected!r}, got {actual!r}")
    return problems


def _scenario_mismatches(spec, scene, seed):
    """Run one expected command of a corpus scene against its pins."""
    command = spec["command"]
    want_exit = spec.get("exit", EXIT_PASS)
    try:
        checks, verdict = run_command(command, spec.get("sub"), scene, seed=seed)
        got_exit = EXIT_PASS if verdict == "PASS" else EXIT_FAIL
    except HypothesesError as exc:
        checks = [{"name": command, "verdict": "HYPOTHESES_NOT_MET", "reason": str(exc)}]
        got_exit = EXIT_HYPOTHESES
    mismatches = []
    if got_exit != want_exit:
        mismatches.append(f"exit: expected {want_exit}, got {got_exit}")
    for req in spec.get("require", ()):
        matched = [b for b in checks if b.get("name") == req.get("name")]
        if not matched:
            mismatches.append(f"no check named {req.get('name')!r}")
            continue
        mismatches.extend(_subset_match(req, matched[0], req.get("name", "")))
    return mismatches


def run_corpus(seed=0):
    """Every pinned command of every bundled scene.  An internal error in
    one scenario is recorded as its status ``INTERNAL_ERROR`` and the
    remaining scenarios still run."""
    base = corpus_dir()
    results = []
    overall = "PASS"
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".json"):
            continue
        data = json.loads(entry.read_text())
        scene = Scene(data)
        for spec in scene.options.get("expected", ()):
            command, sub = spec["command"], spec.get("sub")
            try:
                mismatches = _scenario_mismatches(spec, scene, seed)
                status = "PASS" if not mismatches else "FAIL"
            except Exception as exc:  # a bug in this scenario, not in the others
                status, mismatches = "INTERNAL_ERROR", [f"{type(exc).__name__}: {exc}"]
            if status != "PASS":
                overall = "FAIL"
            results.append({
                "scene": entry.name,
                "command": command if sub is None else f"{command} {sub}",
                "status": status,
                "mismatches": mismatches,
            })
    report = {
        "tool": f"geotits {__version__}",
        "command": "corpus",
        "seed": seed,
        "scenarios": results,
        "overall": overall,
    }
    return report


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="geotits",
        description="Exact Solomon-Tits style verification for geodesic subspace collections",
    )
    parser.add_argument("--json", metavar="OUT", help="also write the JSON report to OUT")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled property checks")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "closure", "arrangement"):
        p = sub.add_parser(name)
        p.add_argument("scene")
    p = sub.add_parser("homology")
    p.add_argument("model", choices=["t", "st", "pt", "local"])
    p.add_argument("scene")
    p.add_argument("--dump-complex", metavar="OUT",
                   help="write the chain complex (labels + boundary triplets) as JSON")
    p = sub.add_parser("groups")
    p.add_argument("group", choices=["pt", "ls"])
    p.add_argument("scene")
    p = sub.add_parser("verify")
    p.add_argument("check", choices=sorted(VERIFY))
    p.add_argument("scene")
    p = sub.add_parser("resolution")
    p.add_argument("scene")
    sub.add_parser("corpus")

    args = parser.parse_args(argv)
    if args.json:
        # refused before any work (exit 2), as argparse refuses other bad
        # arguments: the handlers below write every report to it
        try:
            open(args.json, "a").close()
        except OSError as exc:
            parser.error(f"argument --json: can't write {args.json!r}: {exc.strerror}")

    try:
        if args.command == "corpus":
            report = run_corpus(seed=args.seed)
            emit(report, args.json)
            if any(r["status"] == "INTERNAL_ERROR" for r in report["scenarios"]):
                return EXIT_INTERNAL
            return EXIT_PASS if report["overall"] == "PASS" else EXIT_FAIL
        scene = load_scene(args.scene)
        subcmd = getattr(args, "model", None) or getattr(args, "group", None) or getattr(args, "check", None)
        checks, overall = run_command(args.command, subcmd, scene, seed=args.seed,
                                      dump_complex=getattr(args, "dump_complex", None))
        report = make_report(scene, args.command, subcmd, checks, overall, args.seed)
        emit(report, args.json)
        return EXIT_PASS if overall == "PASS" else EXIT_FAIL
    except SceneError as exc:
        emit({"error": "INVALID_SCENE", "detail": str(exc)}, args.json, stream=sys.stderr)
        return EXIT_INVALID_SCENE
    except HypothesesError as exc:
        emit({"error": "HYPOTHESES_NOT_MET", "detail": str(exc)}, args.json, stream=sys.stderr)
        return EXIT_HYPOTHESES
    except Exception as exc:  # a bug, never an unmet hypothesis
        emit({"error": "INTERNAL_ERROR", "detail": f"{type(exc).__name__}: {exc}"},
             args.json, stream=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
