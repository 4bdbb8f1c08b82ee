import collections
import contextlib
import functools
import pathlib
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

import pytest

from geotits import arrangement as arr
from geotits import exact
from geotits import geometry as geo
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import groups as grp
from geotits._kernel import IntMatrix
from geotits.exact import F1, dot, frac, primitive_int_row
from geotits.geometry import SPHERICAL, subspace_from_vectors


F0 = Fraction(0)

LINEAR_PROGRAM_NAMES = ("feasible", "is_bounded", "recession_cone_nonzero", "_vertex_candidates")
GEOTITS_SRC = str(pathlib.Path(arr.__file__).resolve().parent)


@contextlib.contextmanager
def src_calls():
    """Count, by function name, the Python-level calls into
    ``src/geotits`` made inside the block."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(GEOTITS_SRC):
            counts[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)

E1 = geo.Geometry("E", 1)
E2 = geo.Geometry("E", 2)
E3 = geo.Geometry("E", 3)
H2 = geo.Geometry("H", 2)
H3 = geo.Geometry("H", 3)
S0 = geo.Geometry("S", 0)
S1 = geo.Geometry("S", 1)
S2 = geo.Geometry("S", 2)

TRIANGLE_COVS = [(0, 1, 0), (0, 0, 1), (1, -1, -1)]
FOUR_LINES_COVS = TRIANGLE_COVS + [(2, -5, -1)]
COORD_S2_COVS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
H2_TRIANGLE_COVS = [(1, -3, -2), (1, 3, -2), (1, 0, 4)]
TWO_CUBE_COVS = [
    (1, 2, 0, 0),
    (-1, 8, 0, 0),
    (-3, 4, 0, 0),
    (5, 0, 8, 0),
    (0, 0, 1, 0),
    (5, 0, 0, 16),
    (-5, 0, 0, 16),
]


def reference_det_sign(rows):
    """Sign of a determinant by Gaussian elimination over ``Fraction``,
    kept as the oracle for ``exact.det_sign``."""
    mat = [list(map(Fraction, r)) for r in rows]
    n = len(mat)
    sign = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        if mat[c][c] < 0:
            sign = -sign
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[c][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return sign


def reference_signature(gram):
    """Sylvester signature (n_pos, n_neg, n_zero) by symmetric Gaussian
    elimination over ``Fraction``, kept as the oracle for the H^n test of
    ``geometry.geo_nonempty``."""
    g = [list(map(Fraction, row)) for row in gram]
    n = len(g)
    pos = neg = zero = 0
    live = list(range(n))
    while live:
        pividx = None
        for i in live:
            if g[i][i] != 0:
                pividx = i
                break
        if pividx is None:
            offd = None
            for ii, i in enumerate(live):
                for j in live[ii + 1 :]:
                    if g[i][j] != 0:
                        offd = (i, j)
                        break
                if offd:
                    break
            if offd is None:
                zero += len(live)
                break
            i, j = offd
            # basis change e_i += e_j turns the zero diagonal nonzero
            for k in range(n):
                g[i][k] = g[i][k] + g[j][k]
            for k in range(n):
                g[k][i] = g[k][i] + g[k][j]
            continue
        i = pividx
        d = g[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        live.remove(i)
        for j in live:
            if g[j][i] != 0:
                f = g[j][i] / d
                for k in range(n):
                    g[j][k] = g[j][k] - f * g[i][k]
                for k in range(n):
                    g[k][j] = g[k][j] - f * g[k][i]
    return pos, neg, zero


def reference_coordinates(sub, v):
    """Coordinates of v in a subspace's basis by solving
    (basis columns) x = v, or None when v lies outside."""
    if not sub.basis:
        return None if any(v) else ()
    sol = solve_affine(list(zip(*sub.basis)), [Fraction(x) for x in v])
    if sol is None:
        return None
    x0, hom = sol
    assert not hom  # the basis rows are independent
    return x0


def flat_orientation_chart(carrier, chart_points):
    """Orientation of d+1 chart points spanning an affine flat (E/H).

    The carrier's first RREF pivot is x0, so this is the orientation of
    the points' chart vectors (1, p) in the carrier basis.  With
    ``flat_orientation_vectors``, the rule that products of step signs
    replaced, kept as its oracle."""
    return flat_orientation_vectors(carrier, [(F1,) + tuple(p) for p in chart_points])


def flat_orientation_vectors(carrier, vectors):
    """Orientation of dim-many vectors relative to the carrier basis, 0
    when one of them lies outside the carrier.

    A vector of the carrier has coordinate v[c] / row[c] on the basis row
    with pivot column c, and every pivot entry is positive, so the sign
    of the coordinate determinant is that of the minor at the pivots."""
    if len(vectors) != carrier.dim:
        raise ValueError("vector count does not match carrier dimension")
    if not all(carrier.contains_vector(v) for v in vectors):
        return 0
    return exact.det_sign([[v[c] for c in carrier.pivots] for v in vectors])


def reference_apartment_cycle_cell(poset, region_sign, st_model, top_carrier=None):
    """E/H apartment cycle of a closed cell from all-pairs closure tests
    over the whole poset, each flag signed by ``flat_orientation_chart``
    in ``top_carrier`` (the whole space unless given), as a sparse chain:
    the builder that ``groups.cell_apartments`` replaced, kept as its
    oracle."""
    g = poset.geometry
    assert g.kind != SPHERICAL
    region = poset.cells[region_sign]
    d = region.dim
    if top_carrier is None:
        top_carrier = geo.full_space(g.ambient_dim)
    pos = {m.carrier: i for i, m in enumerate(st_model.proper)}
    idx = st_model.complex.index(d)
    vec = {}
    below = [
        c
        for s, c in sorted(poset.cells.items())
        if leq(s, region_sign) and s != region_sign
    ]
    flags = [()]
    for k in range(d):
        flags = [
            fl + (c,)
            for fl in flags
            for c in below
            if c.dim == k and (not fl or leq(fl[-1].sign_vector, c.sign_vector))
        ]
    assert flags, "region has no complete boundary flags"
    for fl in flags:
        pts = [chart_point(g, c.witness) for c in (*fl, region)]
        sign = flat_orientation_chart(top_carrier, pts)
        assert sign != 0, "degenerate witness flag"
        key = idx[tuple(pos[c.flat] for c in fl)]
        vec[key] = vec.get(key, 0) + sign
    return nonzero(vec)


def nonzero(chain):
    """A sparse chain {position: coefficient} without its zero entries."""
    return {k: v for k, v in chain.items() if v}


def linear_combination(terms):
    """The sparse chain sum of c * chain over (c, chain) pairs."""
    out = {}
    for c, chain in terms:
        for k, v in chain.items():
            out[k] = out.get(k, 0) + c * v
    return nonzero(out)


def dense_vector(chain, length):
    """A sparse chain as a list of ``length`` coefficients."""
    return [chain.get(j, 0) for j in range(length)]


def sparse_vector(vec):
    """A list of coefficients as a sparse chain."""
    return {j: v for j, v in enumerate(vec) if v}


def reference_is_injective(hom):
    """Injectivity of a group homomorphism for any map: the preimage of
    the codomain relations equals the domain relations as lattices."""
    rel = hom.domain.relations
    dom_cols = [[row.get(j, 0) for j in range(rel.cols)] for row in rel.row_dicts()]
    return lattices_equal(reference_kernel_lattice(hom), dom_cols, len(hom.domain.generators))


def dense_columns(matrix):
    """The columns of an ``IntMatrix`` as dense lists."""
    return [[col.get(i, 0) for i in range(matrix.rows)] for col in matrix.col_dicts]


def matrix_product(a, b):
    """The sparse product a @ b, entry by entry."""
    assert a.cols == b.rows
    b_rows = {}
    for (k, j), w in b.entries.items():
        b_rows.setdefault(k, []).append((j, w))
    acc = {}
    for (i, k), v in a.entries.items():
        for j, w in b_rows.get(k, ()):
            acc[(i, j)] = acc.get((i, j), 0) + v * w
    return IntMatrix(a.rows, b.cols, acc)


# ---------------------------------------------------------------------------
# Reference windows: Fourier-Motzkin feasibility, the recession-cone loop
# and the Klein vertex test, and the window validation and restriction
# built on them, which ``arrangement.polytope_from_halfspaces`` and
# ``collection.restrict`` replaced by the arrangement of the window's walls


def chart_dim(geometry):
    """Number of chart variables of the feasibility systems: n in E/H,
    n + 1 in S."""
    return geometry.n + 1 if geometry.kind == SPHERICAL else geometry.n


def chart_point(geometry, row):
    """The chart point of an ambient witness row (``Cell.witness``,
    ``ConvexPolytope.interior_witness``): row[1:] / row[0] in E^n and
    H^n, where row[0] > 0, and the row itself on S^n."""
    if geometry.kind == SPHERICAL:
        return tuple(row)
    assert row[0] > 0, row
    return tuple(Fraction(x, row[0]) for x in row[1:])


def witness_row(geometry, point):
    """The primitive integer ambient row of a chart point: the form of
    ``Cell.witness`` and ``ConvexPolytope.interior_witness``."""
    return primitive_int_row(geo.chart_vector(geometry, point))


def reference_flat_signs(poset, carrier):
    """Signs of a flat, 0 on each hyperplane vanishing on its carrier,
    AssertionError unless those hyperplanes cut it out (a rank test): the
    linear algebra that the lattice lookup ``FacePoset.flat_signs``
    replaced, kept as its oracle."""
    zeros = [i for i, cov in enumerate(poset.covectors)
             if all(dot(cov, b) == 0 for b in carrier.basis)]
    if exact.rank([poset.covectors[i] for i in zeros]) + carrier.dim != carrier.ambient_dim:
        raise AssertionError("flat is not the intersection of the hyperplanes containing it")
    return tuple((i, 0) for i in zeros)


def poset_from_cells(geometry, covectors, cells):
    """A ``FacePoset`` of hand-made cells, the zero mask of each cell's
    flat found by dot products (bit i set when hyperplane i vanishes on
    the flat's basis)."""
    masks = {c.flat: sum(1 << i for i, cov in enumerate(covectors)
                         if all(dot(cov, b) == 0 for b in c.flat.basis))
             for c in cells.values()}
    return arr.FacePoset(geometry, covectors, cells, masks)


def chart_row(geometry, functional):
    """Constraint row (vars..., const) of the functional in the chart: its
    entries as given, so an integer covector gives an integer row.  E/H
    move the x0 entry to the constant; S^n appends a constant 0."""
    f = tuple(functional)
    if geometry.kind == SPHERICAL:
        return f + (0,)
    return f[1:] + (f[0],)


def _fm_normalize(coeffs, const):
    row = primitive_int_row(list(coeffs) + [const])
    return row[:-1], row[-1]


def reference_feasible(strict_rows=(), nonstrict_rows=(), eq_rows=(), nvars=None):
    """Exact rational witness of the constraint system, or None.

    Rows are affine with trailing constant: ``a.x + c > 0`` (strict),
    ``>= 0`` (nonstrict), ``= 0`` (equality).  Deterministic for fixed
    input ordering.  Elimination keeps every row a primitive integer row
    (a positive multiple of the rational row it stands for), so only the
    back-substitution builds ``Fraction`` values.
    """
    groups = (strict_rows, nonstrict_rows, eq_rows)
    if nvars is None:
        for g in groups:
            for r in g:
                nvars = len(r) - 1
                break
            if nvars is not None:
                break
        if nvars is None:
            raise ValueError("cannot infer variable count")

    ineqs = []  # (coeff tuple, const, strict?)
    for r in strict_rows:
        ineqs.append(_fm_normalize(r[:nvars], r[nvars]) + (True,))
    for r in nonstrict_rows:
        ineqs.append(_fm_normalize(r[:nvars], r[nvars]) + (False,))
    eqs = [_fm_normalize(r[:nvars], r[nvars]) for r in eq_rows]

    steps = []  # reversed for back-substitution
    live_vars = list(range(nvars))

    def substitute_eq(var, pivot_row):
        pc, pk = pivot_row
        pv = pc[var]
        # var = -(rest + pk)/pv; |pv| * row - sign(pv) * row[var] * pivot_row
        # clears var and is a positive multiple of the rational substitution
        apv = abs(pv)

        def subst(c, k):
            f = c[var] if pv > 0 else -c[var]
            new = primitive_int_row(
                tuple(apv * ci - f * pi for ci, pi in zip(c, pc)) + (apv * k - f * pk,)
            )
            return new[:-1], new[-1]

        nonlocal ineqs, eqs
        new_ineqs = []
        for c, k, s in ineqs:
            if c[var]:
                nc, nk = subst(c, k)
                new_ineqs.append((nc, nk, s))
            else:
                new_ineqs.append((c, k, s))
        new_eqs = []
        for c, k in eqs:
            if (c, k) == pivot_row:
                continue
            if c[var]:
                nc, nk = subst(c, k)
                if any(nc[v] for v in live_vars):
                    new_eqs.append((nc, nk))
                elif nk != 0:
                    new_eqs.append((nc, nk))  # contradiction kept for check
            else:
                new_eqs.append((c, k))
        ineqs = new_ineqs
        eqs = new_eqs
        steps.append(("eq", var, pivot_row))

    def fm_eliminate(var):
        nonlocal ineqs
        pos, neg, rest = [], [], []
        for row in ineqs:
            cv = row[0][var]
            if cv > 0:
                pos.append(row)
            elif cv < 0:
                neg.append(row)
            else:
                rest.append(row)
        combined = []
        seen = set()
        for pc, pk, ps in pos:
            for ncf, nk, ns in neg:
                a, b = pc[var], -ncf[var]
                row = primitive_int_row(
                    tuple(b * x + a * y for x, y in zip(pc, ncf)) + (b * pk + a * nk,)
                )
                new = (row[:-1], row[-1], ps or ns)
                if new in seen:
                    continue
                seen.add(new)
                combined.append(new)
        ineqs = rest + combined
        steps.append(("fm", var, pos + neg))

    while live_vars:
        # prefer equality pivots, else eliminate the cheapest variable
        pivot = None
        for row in eqs:
            for var in live_vars:
                if row[0][var]:
                    pivot = (var, row)
                    break
            if pivot:
                break
        if pivot:
            var, row = pivot
            substitute_eq(var, row)
            live_vars.remove(var)
            continue
        best_var, best_cost = None, None
        for var in live_vars:
            p = sum(1 for c, _, _ in ineqs if c[var] > 0)
            q = sum(1 for c, _, _ in ineqs if c[var] < 0)
            cost = p * q if (p or q) else 0
            if best_cost is None or cost < best_cost:
                best_var, best_cost = var, cost
        fm_eliminate(best_var)
        live_vars.remove(best_var)

    for c, k in eqs:
        if k != 0:
            return None
    for c, k, s in ineqs:
        if s and not k > 0:
            return None
        if not s and not k >= 0:
            return None

    # Back-substitution.
    witness = [F0] * nvars
    for kind, var, data in reversed(steps):
        if kind == "eq":
            pc, pk = data
            pv = pc[var]
            rest = sum(
                (pc[j] * witness[j] for j in range(nvars) if j != var and pc[j]), F0
            ) + pk
            witness[var] = -rest / pv
        else:
            lo = hi = None
            lo_s = hi_s = False
            for c, k, s in data:
                cv = c[var]
                rest = sum(
                    (c[j] * witness[j] for j in range(nvars) if j != var and c[j]), F0
                ) + k
                bound = -rest / cv
                if cv > 0:  # var >(=) bound
                    if lo is None or bound > lo:
                        lo, lo_s = bound, s
                    elif bound == lo:
                        lo_s = lo_s or s
                else:  # var <(=) bound
                    if hi is None or bound < hi:
                        hi, hi_s = bound, s
                    elif bound == hi:
                        hi_s = hi_s or s
            if lo is None and hi is None:
                witness[var] = F0
            elif lo is None:
                witness[var] = hi - 1 if hi_s else hi
            elif hi is None:
                witness[var] = lo + 1 if lo_s else lo
            else:
                # FM consistency forces lo < hi whenever either side is
                # strict, so the midpoint (or the common value) is valid.
                witness[var] = (lo + hi) / 2 if lo != hi else lo

    value = tuple(witness)
    reference_check_witness(value, strict_rows, nonstrict_rows, eq_rows)
    return value


def reference_int_point(x):
    """(D*x, D) for a rational point x, with D the lcm of its denominators.
    For an affine row r = (a, c), r . (D*x, D) = D * (a . x + c) has the
    sign of the row's value at x, since D > 0, and it is an integer for
    an integer row."""
    ratios = [v.as_integer_ratio() for v in x]
    den = lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios] + [den]


def reference_check_witness(x, strict_rows, nonstrict_rows, eq_rows):
    """Test every row at the witness x, in integers through
    ``reference_int_point``."""
    point = reference_int_point(x)
    for r in strict_rows:
        if not dot(r, point) > 0:
            raise AssertionError("witness violates strict constraint")
    for r in nonstrict_rows:
        if not dot(r, point) >= 0:
            raise AssertionError("witness violates constraint")
    for r in eq_rows:
        if dot(r, point) != 0:
            raise AssertionError("witness violates equality")


def reference_solve_unique(a_rows, b):
    """Solve A x = b when A is square nonsingular; None otherwise."""
    n = len(a_rows)
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    red, pivots = exact.rref(aug)
    if list(pivots) != list(range(n)):
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(red))


def reference_recession_cone_nonzero(halfspaces, geometry):
    """Recession cone of the chart polyhedron is nonzero?  For E/H that
    is unboundedness; spherical chart rows are linear already, so for S
    it says the cone of the half-spaces is not {0}."""
    nv = chart_dim(geometry)
    linear = [chart_row(geometry, h.functional)[:nv] + (0,) for h in halfspaces]
    for i in range(nv):
        for s in (1, -1):
            eq = [0] * (nv + 1)
            eq[i] = s
            eq[nv] = -1
            if reference_feasible((), linear, [tuple(eq)], nv) is not None:
                return True
    return False


def reference_vertex_candidates(halfspaces, geometry):
    """Exact chart vertices of the (assumed bounded) chart polyhedron."""
    nv = geometry.n
    rows = [chart_row(geometry, h.functional) for h in halfspaces]
    hyps = {}
    for i, h in enumerate(halfspaces):
        hyps.setdefault(h.hyperplane, []).append(i)
    distinct = sorted(hyps)
    verts = []
    seen = set()
    for combo in combinations(range(len(distinct)), nv):
        sel = [rows[hyps[distinct[i]][0]] for i in combo]
        sol = reference_solve_unique([r[:nv] for r in sel], [-r[nv] for r in sel])
        if sol is None:
            continue
        if sol in seen:
            continue
        if all(dot(r[:nv], sol) + r[nv] >= 0 for r in rows):
            seen.add(sol)
            verts.append(sol)
    return sorted(verts)


def reference_polytope_from_halfspaces(geometry, halfspaces):
    """Build a convex polytope by Fourier-Motzkin; Invalid(reason) when
    the definition fails.
    ValueError for no half-spaces: they would leave no interior witness
    on the sphere and an unbounded chart in E/H."""
    halfspaces = tuple(dict.fromkeys(halfspaces))  # drop exact duplicates
    if not halfspaces:
        raise ValueError("a polytope needs at least one half-space")
    g = geometry
    nv = chart_dim(g)
    rows = [chart_row(g, h.functional) for h in halfspaces]
    witness = reference_feasible(rows, (), (), nv)
    if witness is None:
        if reference_feasible((), rows, (), nv) is None:
            return geo.Invalid(geo.Invalid.EMPTY)
        if g.kind == SPHERICAL and not reference_recession_cone_nonzero(halfspaces, g):
            return geo.Invalid(geo.Invalid.EMPTY)
        return geo.Invalid(geo.Invalid.LOWER_DIMENSIONAL)
    if not reference_is_bounded(halfspaces, g):
        return geo.Invalid(geo.Invalid.UNBOUNDED)
    return geo.ConvexPolytope(g, halfspaces, witness_row(g, witness))


def reference_is_bounded(halfspaces, geometry):
    """Boundedness per geometry (spec: vertex-norm test in the Klein chart)."""
    if geometry.kind == SPHERICAL:
        return True
    if reference_recession_cone_nonzero(halfspaces, geometry):
        return False
    if geometry.kind == geo.HYPERBOLIC:
        for v in reference_vertex_candidates(halfspaces, geometry):
            if sum((frac(x) * frac(x) for x in v), F0) >= 1:
                return False
    return True


@functools.cache
def small_hyperplanes(g):
    """The distinct hyperplanes with entries in [-2, 2] that meet g."""
    covs = {geo.canonical_covector(c) for c in product(range(-2, 3), repeat=g.ambient_dim) if any(c)}
    return frozenset(c for c in covs if geo.hyperplane_subspace(g, c) is not None)


def distinct_hyperplanes(rng, g, count):
    """``count`` distinct hyperplanes meeting g; the small entries make
    parallel and concurrent hyperplanes common.  ValueError when fewer
    than ``count`` hyperplanes with entries in [-2, 2] meet g."""
    if count > len(small_hyperplanes(g)):
        raise ValueError(f"only {len(small_hyperplanes(g))} hyperplanes with entries "
                         f"in [-2, 2] meet {g}, not {count}")
    covs = []
    while len(covs) < count:
        cov = tuple(rng.randint(-2, 2) for _ in range(g.ambient_dim))
        if not any(cov):
            continue
        cov = geo.canonical_covector(cov)
        if cov not in covs and geo.hyperplane_subspace(g, cov) is not None:
            covs.append(cov)
    return covs


def reference_closure_by_hyperplanes(geometry, covectors):
    """All nonempty intersections of the hyperplanes, plus the top space,
    by the one-hyperplane-at-a-time walk (``collection._closure`` with
    ``geometry.meet_hyperplane``), kept as the oracle for
    ``collection.closure_by_hyperplanes``, which reads them off ``flats``."""
    covs = [geo.canonical_covector(c) for c in covectors]
    seeds = [h for h in (geo.hyperplane_subspace(geometry, c) for c in covs) if h is not None]
    members = coll_mod._closure(seeds, covs, geo.meet_hyperplane)
    members.append(geo.top_subspace(geometry))
    return coll_mod.Collection(geometry, members, covs)


def cup(coll, u):
    """L cup U: the closure of L's hyperplanes and U."""
    return coll_mod.closure_by_hyperplanes(coll.geometry, [*coll.hyperplane_covectors, u])


def poset_and_basis(coll, within=None):
    """(arrangement, region basis) of the collection within the window,
    the pair ``cli.Scene.arrangement`` builds."""
    poset = arr.build_arrangement(coll, within=within)
    return poset, arr.region_basis(poset)


def exact_sequence(coll, u, window=None):
    """``groups.exact_sequence_check`` on the artifacts that ``verify
    exact-seq`` passes: L's arrangement within the window, its region
    basis, and L|A on a windowed E^n or H^n collection (L otherwise)."""
    members = coll.members
    if window is not None and coll.geometry.kind != SPHERICAL:
        members = coll_mod.restrict(coll, window)
    return grp.exact_sequence_check(coll, u, window, *poset_and_basis(coll, window), members)


def reference_restrict(collection, polytope):
    """Sub-poset L|A of members meeting the convex polytope A."""
    g = collection.geometry
    rows = [chart_row(g, h.functional) for h in polytope.halfspaces]
    nv = chart_dim(g)
    kept = []
    for m in collection.members:
        if m.is_top():
            kept.append(m)
            continue
        # carrier constraint: chart vector lies in the carrier
        normal_rows = [chart_row(g, f) for f in m.carrier.orthogonal_complement().basis]
        if g.kind == SPHERICAL:
            hit = any(
                reference_feasible([d], rows, normal_rows, nv) is not None
                for d in _nonzero_directions(nv)
            )
        else:
            hit = reference_feasible((), rows, normal_rows, nv) is not None
        if hit:
            kept.append(m)
    return tuple(kept)


def _nonzero_directions(nv):
    for i in range(nv):
        for s in (1, -1):
            row = [0] * (nv + 1)
            row[i] = s
            yield tuple(row)


# ---------------------------------------------------------------------------
# Reference arrangement: the incremental build by Fourier-Motzkin
# feasibility that ``arrangement.build_arrangement`` replaced


def solve_affine(rows, rhs):
    """General solution of rows . x = rhs: (particular, nullspace) or None."""
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = exact.rref(aug)
    if any(p == ncols for p in pivots):
        return None
    x = [F0] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = Fraction(r[ncols], r[pc])
    return tuple(x), exact.nullspace([r[:ncols] for r in red], ncols)


def min_norm_point(nonstrict_rows, eq_rows, nvars):
    """(min ||x||^2, argmin) over the closed polyhedron, None if empty."""
    if reference_feasible((), nonstrict_rows, eq_rows, nvars) is None:
        return None
    ineq = [tuple(map(frac, r)) for r in nonstrict_rows]
    eqs = [tuple(map(frac, r)) for r in eq_rows]
    best = None
    for size in range(0, nvars + 1):
        for combo in combinations(range(len(ineq)), size):
            rows = eqs + [ineq[i] for i in combo]
            if rows:
                sol = solve_affine([r[:nvars] for r in rows], [-r[nvars] for r in rows])
                if sol is None:
                    continue
                x0, hom = sol
                if hom:
                    gram = [[dot(u, v) for v in hom] for u in hom]
                    rhs = [-dot(u, x0) for u in hom]
                    t = reference_solve_unique(gram, rhs)
                    x = list(x0)
                    for ti, h in zip(t, hom):
                        for j in range(nvars):
                            x[j] += ti * h[j]
                    x = tuple(x)
                else:
                    x = x0
            else:
                x = tuple([F0] * nvars)
            if not all(dot(r[:nvars], x) + r[nvars] >= 0 for r in ineq):
                continue
            if not all(dot(r[:nvars], x) + r[nvars] == 0 for r in eqs):
                continue
            val = dot(x, x)
            if best is None or val < best[0]:
                best = (val, x)
    return best


def _ball_interior_witness(strict, nonstrict, eqs, nv):
    """Witness of the system strictly inside the unit ball, or None."""
    w = reference_feasible(strict, nonstrict, eqs, nv)
    if w is None:
        return None
    if sum((x * x for x in w), F0) < 1:
        return w
    got = min_norm_point(list(strict) + list(nonstrict), eqs, nv)
    if got is None or got[0] >= 1:
        return None
    p = got[1]
    t = F1
    while True:
        cand = tuple(pi + t * (wi - pi) for pi, wi in zip(p, w))
        if sum((x * x for x in cand), F0) < 1:
            return cand
        t = t / 2


def _reference_flat(g, covectors, sign_vector):
    zero_rows = [cov for s, cov in zip(sign_vector, covectors) if s == 0]
    return geo.LinearSubspace(g.ambient_dim, exact.nullspace(zero_rows, g.ambient_dim))


def _reference_witness(g, covectors, sign_vector, within_rows):
    """Interior witness of the candidate cell, or None if empty.  On S^n a
    subsphere (no strict sign) takes a basis vector, or with a window a
    point of it in the window that is nonzero at some coordinate."""
    nv = chart_dim(g)
    strict, eqs = [], []
    for s, cov in zip(sign_vector, covectors):
        row = chart_row(g, cov)
        if s:
            strict.append(row if s > 0 else tuple(-x for x in row))
        else:
            eqs.append(row)
    if g.kind == SPHERICAL and not strict:
        flat = _reference_flat(g, covectors, sign_vector)
        if flat.dim == 0:
            return None
        if not within_rows:
            return flat.basis[0]
        units = (tuple(s * (k == i) for k in range(nv + 1)) for i in range(nv) for s in (1, -1))
        return next(filter(None, (reference_feasible([d], within_rows, eqs, nv) for d in units)), None)
    if g.kind != geo.HYPERBOLIC or within_rows:
        # a bounded window A lies strictly inside the Klein ball already
        return reference_feasible(strict, within_rows, eqs, nv)
    return _ball_interior_witness(strict, within_rows, eqs, nv)


def reference_build_arrangement(coll, within=None):
    """The arrangement by hyperplane insertion: each cell a hyperplane
    cuts is split into the three candidates on its sides and on it, each
    kept when Fourier-Motzkin finds a witness (in the window, inside the
    Klein ball on global H^n)."""
    g = coll.geometry
    covectors = tuple(sorted(coll.hyperplane_covectors))
    within_rows = [chart_row(g, h.functional) for h in within.halfspaces] if within is not None else []
    nv = chart_dim(g)
    if within is not None:
        base = chart_point(g, within.interior_witness)
    else:
        base = tuple([F1 if g.kind == SPHERICAL else F0] + [F0] * (nv - 1))
    partial = {(): base}
    for m, cov in enumerate(covectors):
        row = chart_row(g, cov)
        updated = {}
        for signs, witness in sorted(partial.items()):
            val = dot(row, reference_int_point(witness))
            s0 = (val > 0) - (val < 0)
            updated[signs + (s0,)] = witness
            flat = _reference_flat(g, covectors[:m], signs)
            # the hyperplane splits the cell unless it is constant on the
            # cell's span: its linear directions in E/H, all of it in S
            if all(dot(cov, b) == 0 for b in flat.basis if g.kind == SPHERICAL or b[0] == 0):
                continue
            for s in (-1, 0, 1):
                if s != s0:
                    w = _reference_witness(g, covectors[: m + 1], signs + (s,), within_rows)
                    if w is not None:
                        updated[signs + (s,)] = w
        partial = updated
    cells = {}
    for signs, witness in sorted(partial.items()):
        flat = _reference_flat(g, covectors, signs)
        cells[signs] = arr.Cell(signs, flat, flat.dim - 1, witness_row(g, witness))
    return poset_from_cells(g, covectors, cells)


# ---------------------------------------------------------------------------
# Reference polytopes: vertices and face lattices, which geotits reads off
# the face poset instead


class Face:
    """Face of a convex polytope: dimension, vertices, active constraints."""

    __slots__ = ("dim", "vertex_ids", "active")

    def __init__(self, dim, vertex_ids, active):
        self.dim = dim
        self.vertex_ids = frozenset(vertex_ids)
        self.active = frozenset(active)

    def __repr__(self):
        return f"Face(dim={self.dim}, verts={sorted(self.vertex_ids)})"


class ReferencePolytope(geo.ConvexPolytope):
    """A convex polytope with its vertices and face lattice.

    Euclidean/hyperbolic vertices are exact chart points; spherical
    "vertices" are primitive extreme-ray vectors of the defining cone.
    Spherical polytopes whose cone is not pointed are weakly convex and
    carry no vertex/face data.
    """

    __slots__ = ("vertices", "faces")

    def facet_halfspaces(self):
        """The half-spaces active on a facet, in input order; they cut out
        the polytope.  All of them without a face lattice, and in S^0,
        where the only facet is the empty face."""
        if self.faces is None or self.geometry.n == 0:
            return self.halfspaces
        active = set()
        for f in self.faces_of_dim(self.geometry.n - 1):
            active |= f.active
        return tuple(h for i, h in enumerate(self.halfspaces) if i in active)

    def faces_of_dim(self, d):
        if self.faces is None:
            raise ValueError("weakly convex polytope has no face lattice")
        return [f for f in self.faces if f.dim == d]


def _extreme_rays(halfspaces, geometry):
    """Primitive extreme rays of a pointed full-dim cone in R^(n+1)."""
    amb = geometry.ambient_dim
    funcs = [h.functional for h in halfspaces]
    rays = []
    seen = set()
    for combo in combinations(range(len(funcs)), amb - 1):
        ker = exact.nullspace([funcs[i] for i in combo], amb)
        if len(ker) != 1:
            continue
        ray = ker[0]
        for cand in (ray, tuple(-x for x in ray)):
            if all(dot(f, cand) >= 0 for f in funcs):
                prim = primitive_int_row(cand)
                if prim not in seen:
                    seen.add(prim)
                    rays.append(prim)
                break
    # keep only extreme rays: active set has rank amb-1
    out = []
    for ray in sorted(rays):
        active = [f for f in funcs if dot(f, ray) == 0]
        if exact.rank(active) == amb - 1:
            out.append(ray)
    return out


def _build_faces(geometry, halfspaces, vertices):
    """Faces from vertex incidence; a face's dimension is that of the
    span of its vertices."""
    amb = geometry.ambient_dim
    spherical = geometry.kind == SPHERICAL

    def vert_vector(v):
        return v if spherical else (F1,) + tuple(map(frac, v))

    tight = []  # per vertex: set of halfspace indices active there
    for v in vertices:
        vx = vert_vector(v)
        tight.append(frozenset(i for i, h in enumerate(halfspaces) if dot(h.functional, vx) == 0))

    n = geometry.n
    facet_idx = range(len(halfspaces))
    found = {}
    for size in range(0, n + 1):
        for combo in combinations(facet_idx, size):
            vs = frozenset(
                vid for vid in range(len(vertices)) if all(i in tight[vid] for i in combo)
            )
            if not vs or vs in found:
                continue
            span = subspace_from_vectors(amb, [vert_vector(vertices[vid]) for vid in vs])
            active = frozenset.intersection(*[tight[vid] for vid in vs])
            found[vs] = Face(span.dim - 1, vs, active)
    faces = sorted(found.values(), key=lambda f: (f.dim, tuple(sorted(f.vertex_ids))))
    faces.append(Face(n, frozenset(range(len(vertices))), frozenset()))
    return faces


def reference_polytope(g, halfspaces):
    """The polytope ``reference_polytope_from_halfspaces`` builds (asserted
    valid), with the vertices and faces its constructor used to add:
    vertex candidates in E/H, extreme rays of a pointed cone in S."""
    p = reference_polytope_from_halfspaces(g, halfspaces)
    assert not isinstance(p, geo.Invalid), p.reason
    hs = p.halfspaces
    if g.kind != geo.SPHERICAL:
        vertices = reference_vertex_candidates(hs, g)
    elif exact.rank([h.functional for h in hs]) == g.ambient_dim:
        vertices = _extreme_rays(hs, g)
    else:
        vertices = None
    out = ReferencePolytope(g, hs, p.interior_witness)
    out.vertices = tuple(vertices) if vertices is not None else None
    out.faces = _build_faces(g, hs, vertices) if vertices is not None else None
    return out


def leq(a, b):
    """Closure order of sign vectors: cell a lies in the closure of cell b."""
    return all(x == 0 or x == y for x, y in zip(a, b))


def region_halfspaces(poset, sign_vector):
    """The half-spaces of a cell's strict signs.  A window adds none: its
    facet hyperplanes are in the arrangement, so the signs keep a cell in it."""
    return tuple(geo.HalfSpace([s * x for x in cov])
                 for s, cov in zip(sign_vector, poset.covectors) if s)


def region_is_bounded(poset, cell):
    """Boundedness of a cell's closure by linear programs
    (``reference_is_bounded``), kept as the oracle for ``FacePoset.bounded``."""
    halfspaces = list(region_halfspaces(poset, cell.sign_vector))
    for s, cov in zip(cell.sign_vector, poset.covectors):
        if s == 0:  # flat equations as opposite half-space pairs
            halfspaces += [geo.HalfSpace(cov), geo.HalfSpace([-x for x in cov])]
    return reference_is_bounded(halfspaces, poset.geometry)


def region_polytope(poset, sign_vector):
    """The closed region as a reference polytope."""
    return reference_polytope(poset.geometry, region_halfspaces(poset, sign_vector))


def cells_in_polytope(poset, polytope, dims=None):
    inside = poset.cells_in(reference_polytope_signs(poset, polytope.facet_halfspaces()))
    return sorted(s for s in inside if dims is None or poset.cells[s].dim in dims)


NOT_L_POLYTOPE = "NOT_L_POLYTOPE"


def reference_polytope_signs(poset, facets):
    """Signs of a closed L-polytope for ``FacePoset.cells_in``: the side
    of each facet half-space.  Every half-space passed must be a facet,
    since a redundant one on a hyperplane outside the arrangement would
    be refused too.  ValueError names a facet hyperplane outside the
    arrangement."""
    signs = []
    for h in facets:
        hyp = h.hyperplane
        if hyp not in poset.covectors:
            raise ValueError(
                f"not an L-polytope: facet hyperplane {list(hyp)} is not in the arrangement"
            )
        side = 1 if h.functional == hyp else -1
        signs.append((poset.covectors.index(hyp), side))
    return tuple(signs)


def reference_polytope_to_vector(facets, basis, poset):
    """Indicator vector over the region basis of the convex L-polytope cut
    out by these half-spaces, each of them a facet of it.

    NOT_L_POLYTOPE when a facet hyperplane lies outside the collection or
    the polytope covers regions outside the basis."""
    try:
        signs = reference_polytope_signs(poset, facets)
    except ValueError:  # a facet hyperplane outside the collection
        return NOT_L_POLYTOPE
    vec = [0] * len(basis)
    index = {s: i for i, s in enumerate(basis)}
    for s in poset.cells_in(signs):
        if poset.cells[s].dim == poset.geometry.n:
            if s not in index:
                return NOT_L_POLYTOPE
            vec[index[s]] += 1
    return tuple(vec)


def reference_join_cones(coll):
    """The facet half-spaces of the two simplicial cones of every join
    {x, -x} * P: for each point x, n more points b_k with x and the b_k
    linearly independent, and each choice of signs s_k, the cones
    spanned by ±x and the s_k b_k.  Each cone's half-spaces come from the
    nullspaces of its rays with one dropped."""
    n = coll.geometry.n
    amb = coll.geometry.ambient_dim
    reps = [p.carrier.basis[0] for p in coll.points()]
    for xi, x in enumerate(reps):
        others = [k for k in range(len(reps)) if k != xi]
        for combo in combinations(others, n):
            if exact.rank([x] + [reps[k] for k in combo]) != n + 1:
                continue
            for signs in product((1, -1), repeat=n):
                base = [tuple(s * frac(v) for v in reps[k]) for s, k in zip(signs, combo)]
                cones = []
                for x_sign in (1, -1):
                    rays = [tuple(x_sign * frac(v) for v in x)] + base
                    halfspaces = []
                    for drop, ray in enumerate(rays):
                        (f,) = exact.nullspace(rays[:drop] + rays[drop + 1:], amb)
                        halfspaces.append(geo.HalfSpace(f if dot(f, ray) > 0 else
                                                        tuple(-v for v in f)))
                    cones.append(halfspaces)
                yield cones


def reference_join_sublattice(coll, poset, basis):
    """Generators of J from the cone path that ``groups.join_sublattice``
    replaced: the sum of the indicator vectors of each join's two cones,
    sorted, with joins that leave the arrangement skipped."""
    vectors = set()
    for cones in reference_join_cones(coll):
        vecs = [reference_polytope_to_vector(hs, basis, poset) for hs in cones]
        if NOT_L_POLYTOPE not in vecs:
            vectors.add(tuple(a + b for a, b in zip(*vecs)))
    return [list(v) for v in sorted(vectors) if any(v)]


# ---------------------------------------------------------------------------
# Oracles: independent constructions that cross-check code in geotits


def subdivide(polytope, cutter_covectors):
    """Closures of the top-dimensional parts of the polytope cut by the
    cutters, found by feasibility of each sign pattern."""
    g = polytope.geometry
    cutters = tuple(sorted(set(geo.canonical_covector(c) for c in cutter_covectors)))
    nv = chart_dim(g)
    base_rows = [chart_row(g, h.functional) for h in polytope.halfspaces]
    parts = [()]
    for cov in cutters:
        row = chart_row(g, cov)
        new_parts = []
        for signs in parts:
            rows = list(base_rows)
            for s2, c2 in zip(signs, cutters):
                r2 = chart_row(g, c2)
                rows.append(r2 if s2 > 0 else tuple(-x for x in r2))
            for s in (1, -1):
                extra = row if s > 0 else tuple(-x for x in row)
                if reference_feasible(rows + [extra], (), (), nv) is not None:
                    new_parts.append(signs + (s,))
        parts = new_parts
    out = []
    for signs in sorted(parts):
        hs = list(polytope.halfspaces)
        for s, cov in zip(signs, cutters):
            hs.append(geo.HalfSpace(cov if s > 0 else [-x for x in cov]))
        out.append(reference_polytope(g, hs))
    return out


ZERO = "ZERO"


def facet_map(q, u_covector, poset_u=None, basis_u=None):
    """Signed facet of q along the hyperplane u, by feasibility.

    ZERO when q has no facet along u; otherwise ``(side, facet)`` with
    side +1 when q lies in {u >= 0}, -1 when in {u <= 0}.  ``facet`` is
    the indicator tuple of q over ``basis_u`` (cells on u) when a basis
    is supplied, else None."""
    g = q.geometry
    u = geo.canonical_covector(u_covector)
    urow = chart_row(g, u)
    nv = chart_dim(g)
    allrows = [chart_row(g, h.functional) for h in q.halfspaces]
    plus = reference_feasible(allrows + [urow], (), (), nv) is not None
    minus = reference_feasible(allrows + [tuple(-x for x in urow)], (), (), nv) is not None
    if plus and minus:
        return ZERO  # u cuts the interior: no facet along u
    side = 1 if plus else -1
    qrows = [chart_row(g, h.functional) for h in q.halfspaces if h.hyperplane != u]
    if reference_feasible(qrows, (), [urow], nv) is None:
        return ZERO  # contact has dimension < n-1
    if basis_u is None:
        return (side, None)
    q_signs = reference_polytope_signs(poset_u, q.facet_halfspaces())
    return (side, tuple(int(arr.FacePoset._agrees(s, q_signs)) for s in basis_u))


def face_span(polytope, face):
    """Linear span of a face's vertex vectors (chart points p as (1, p)
    in E/H, extreme rays as they are in S)."""
    g = polytope.geometry
    verts = [polytope.vertices[i] for i in sorted(face.vertex_ids)]
    if g.kind != geo.SPHERICAL:
        verts = [(1,) + tuple(v) for v in verts]
    return geo.subspace_from_vectors(g.ambient_dim, verts)


def reference_in_polytope(poset, cell, polytope):
    """The cell's witness against every half-space of the polytope."""
    v = geo.chart_vector(poset.geometry, chart_point(poset.geometry, cell.witness))
    return all(exact.dot(h.functional, v) >= 0 for h in polytope.halfspaces)


def top_cell(tri, label):
    """The cell at the top of a triangulation simplex."""
    return tri.poset.cells[tri.cell_order[label[-1]]]


def reference_face_simplices(tri, polytope, face):
    """d-simplices whose top d-cell has its flat in the face span and its
    witness in the polytope."""
    d = face.dim
    span = face_span(polytope, face)
    return [
        lab for lab in tri.simplices.get(d, ())
        if top_cell(tri, lab).dim == d
        and reference_in_polytope(tri.poset, top_cell(tri, lab), polytope)
        and span.contains(top_cell(tri, lab).flat)
    ]


def reference_face_chains(tri, polytope):
    """(chains, eta) of a spherical polytope's faces keyed by vertex ids:
    each face's simplices from the witness rule, each oriented by its
    witnesses' coordinates in the face span with a ``Fraction``
    determinant, and each face's boundary mapped through the
    triangulation's boundary matrix."""
    cells, order = tri.poset.cells, tri.cell_order
    n = polytope.geometry.n
    chains = {}
    for d in range(n + 1):
        for face in polytope.faces_of_dim(d):
            span = face_span(polytope, face)
            chains[face.vertex_ids] = {
                lab: reference_det_sign(
                    [reference_coordinates(span, cells[order[c]].witness) for c in lab]
                )
                for lab in reference_face_simplices(tri, polytope, face)
            }
    eta = {}
    cpx = tri.complex
    for d in range(1, n + 1):
        idx = cpx.index(d)
        low = cpx.degrees[d - 1]
        for face in polytope.faces_of_dim(d):
            vec = {idx[lab]: s for lab, s in chains[face.vertex_ids].items()}
            image = {low[i]: v for i, v in cpx.boundary(d).apply(vec).items()}
            for facet in polytope.faces_of_dim(d - 1):
                if facet.vertex_ids < face.vertex_ids:
                    got = {image.get(lab, 0) * s for lab, s in chains[facet.vertex_ids].items()}
                    assert len(got) == 1  # the facet chain is a signed copy
                    eta[(face.vertex_ids, facet.vertex_ids)] = got.pop()
    return chains, eta


def boundary_squares_to_zero(complex_):
    """Does every product d_(d-1) d_d of the complex vanish?  Formed by
    ``IntMatrix.product_is_zero``, the check that complexes given by their
    boundaries make, kept as the oracle for the face identities that
    certify the complexes built from a face table."""
    return all(complex_.boundary(d - 1).product_is_zero(complex_.boundary(d))
               for d in complex_.support())


def reference_chains(n, less):
    """All strictly increasing index chains of a finite strict order,
    the empty chain first: ``less(a, b)`` decides a < b, tested for every
    ordered pair.  The enumerator that ``complexes._flag_complex``
    replaced for T, ST and the local model, kept as its oracle."""
    above = [[j for j in range(n) if j != i and less(i, j)] for i in range(n)]
    chains = [()]
    frontier = [(i,) for i in range(n)]
    chains.extend(frontier)
    while frontier:
        frontier = [chain + (j,) for chain in frontier for j in above[chain[-1]]]
        chains.extend(frontier)
    return chains


def reference_sphere_simplices(poset):
    """The sphere triangulation's simplices from all-pairs closure tests,
    the construction that ``complexes._cells_above`` replaced."""
    order = tuple(sorted(poset.cells))
    below = lambda i, j: leq(order[i], order[j])
    graded = {}
    for chain in reference_chains(len(order), below)[1:]:
        graded.setdefault(len(chain) - 1, []).append(chain)
    return {d: tuple(sorted(labels)) for d, labels in sorted(graded.items())}


def reference_sphere_complex(poset):
    """The sphere triangulation's chain complex from ``face_complex`` on
    those simplices: every drop-one face label looked up in a dict of the
    degree below.  The build that ``complexes._flag_complex`` replaced."""
    return cx.face_complex(reference_sphere_simplices(poset))


def reference_flag_orientation(poset, flag):
    """Orientation of a flag of cells, given by sign vectors with the top
    cell last: the minor of the witnesses at the top cell's flat's pivots
    (``flat_orientation_vectors``), one determinant per flag.  The rule
    that products of step signs replaced (``step_product``), kept as its
    oracle."""
    g = poset.geometry
    return flat_orientation_vectors(
        poset.cells[flag[-1]].flat,
        [geo.chart_vector(g, chart_point(g, poset.cells[s].witness)) for s in flag])


def step_product(poset, flag):
    """The product of ``FacePoset.step_sign`` over a complete flag's
    steps, the first from the empty face: the orientation that every cone
    of step signs gives the flag (``groups.cell_apartments``,
    ``SphereTriangulation.cell_chain``)."""
    sign = poset.step_sign(None, flag[0])
    for lower, cell in zip(flag, flag[1:]):
        sign *= poset.step_sign(lower, cell)
    return sign


def reference_cell_chain(tri, sign):
    """A cell's chain from the simplices ending at it, found by a scan of
    the triangulation's degree, each signed by
    ``reference_flag_orientation``: the build that
    ``SphereTriangulation.cell_chain`` replaced."""
    order = tri.cell_order
    return {
        lab: reference_flag_orientation(tri.poset, [order[c] for c in lab])
        for lab in tri.simplices[tri.poset.cells[sign].dim] if order[lab[-1]] == sign
    }


class ReferenceSphericalFaceChains:
    """(chains, facets, eta) of a closed set of cells (a region's faces,
    or every cell), built for those cells alone: each cell's chain by
    ``reference_cell_chain``, its facets found by closure tests among the
    given cells, and its incidence signs read off the boundary of its
    chain.  The per-region build that ``SphereTriangulation.cell_chain``
    replaced."""

    def __init__(self, tri, faces):
        poset = tri.poset
        faces = sorted(faces)
        self.chains = {}
        for s in faces:
            self.chains[s] = reference_cell_chain(tri, s)
            assert self.chains[s] and 0 not in self.chains[s].values()
        self.facets = {}
        self.eta = {}
        for s in faces:
            d = poset.cells[s].dim
            if not d:
                continue
            self.facets[s] = [t for t in faces
                              if poset.cells[t].dim == d - 1 and leq(t, s)]
            boundary = {}
            for lab, e in self.chains[s].items():
                for low, sign in cx._drop_one(lab):
                    boundary[low] = boundary.get(low, 0) + sign * e
            for t in self.facets[s]:
                (eta,) = {boundary.get(lab, 0) * e for lab, e in self.chains[t].items()}
                assert eta in (1, -1)
                self.eta[(s, t)] = eta
                for lab, e in self.chains[t].items():
                    boundary[lab] -= eta * e
            assert not any(boundary.values())


def apartment_cycle_pt_polytope(polytope, coll, tri, bicomplex):
    """Spherical polytopal-Tits apartment of a strongly convex polytope,
    from flags of its faces (``reference_face_chains``), each face's
    flag member found from its vertex span; asserted to be a cycle."""
    n = coll.geometry.n
    chains, eta = reference_face_chains(tri, polytope)
    proper = sorted((m for m in coll.members if not m.is_top()), key=lambda m: m.sort_key())
    pos = {m.carrier: i for i, m in enumerate(proper)}
    idx = bicomplex.index(n)
    vec = {}

    def emit(flag, base, outer_sign):
        label = tuple(pos[face_span(polytope, f)] for f in flag)
        for lab, s in chains[base.vertex_ids].items():
            key = idx[(label, lab)]
            vec[key] = vec.get(key, 0) + outer_sign * s

    top = polytope.faces_of_dim(n)[0]
    emit((), top, 1)
    flags = [(top,)]
    for k in range(1, n + 1):
        flags = [(f,) + fl for fl in flags for f in polytope.faces_of_dim(fl[0].dim - 1)
                 if f.vertex_ids < fl[0].vertex_ids]
        s_k = -1 if (k * (k + 1) // 2) % 2 else 1
        for fl in flags:
            eta_prod = 1
            for i in range(k):
                eta_prod *= eta[(fl[i + 1].vertex_ids, fl[i].vertex_ids)]
            emit(fl[:-1], fl[0], s_k * eta_prod)
    assert not bicomplex.boundary(n).apply(vec), "polytope apartment is not a cycle"
    return nonzero(vec)


def apartment_cycle_polytope(polytope, coll, st_model):
    """E/H apartment cycle of a convex polytope from complete flags of its
    faces, signed by the orientation of the face barycenters; asserted to
    be a cycle."""
    n = coll.geometry.n
    pos = {m.carrier: i for i, m in enumerate(st_model.proper)}
    idx = st_model.complex.index(n)
    vec = {}
    top_carrier = geo.full_space(coll.geometry.ambient_dim)

    def barycenter(face):
        total = [F0] * n
        for vid in face.vertex_ids:
            for i, x in enumerate(polytope.vertices[vid]):
                total[i] += frac(x)
        return tuple(x / len(face.vertex_ids) for x in total)

    flags = [()]
    for d in range(n):
        flags = [fl + (f,) for fl in flags for f in polytope.faces_of_dim(d)
                 if not fl or fl[-1].vertex_ids < f.vertex_ids]
    bary_p = barycenter(polytope.faces_of_dim(n)[0])
    for flag in flags:
        pts = [barycenter(f) for f in flag] + [bary_p]
        sign = flat_orientation_chart(top_carrier, pts)
        assert sign != 0
        key = idx[tuple(pos[face_span(polytope, f)] for f in flag)]
        vec[key] = vec.get(key, 0) + sign
    assert not st_model.complex.boundary(n).apply(vec), "polytope apartment is not a cycle"
    return nonzero(vec)


def _vec_sub(a, b):
    return tuple(frac(x) - frac(y) for x, y in zip(a, b))


def placing_triangulation(points):
    """Incremental placing triangulation of affine points (any ambient dim).

    Vertices are placed in lexicographic order; a new vertex cones over
    the whole triangulation when it leaves the affine span, else over
    the visible boundary facets.  Returns index tuples into the sorted
    point list, each of top dimension.
    """
    pts = sorted(tuple(map(frac, p)) for p in points)
    if len(set(pts)) != len(pts):
        raise ValueError("repeated vertices")
    simplices = [(0,)]
    span_pts = [0]
    for i in range(1, len(pts)):
        diffs = [_vec_sub(pts[j], pts[span_pts[0]]) for j in span_pts[1:]]
        new_diff = _vec_sub(pts[i], pts[span_pts[0]])
        in_span = exact.rank(diffs + [new_diff]) == exact.rank(diffs) if diffs else all(
            x == 0 for x in new_diff
        )
        if not in_span:
            simplices = [s + (i,) for s in simplices]
            span_pts.append(i)
            continue
        counts = {}
        owner = {}
        for s in simplices:
            for drop in range(len(s)):
                f = s[:drop] + s[drop + 1 :]
                counts[f] = counts.get(f, 0) + 1
                owner[f] = s
        visible = []
        for f, cnt in counts.items():
            if cnt != 1:
                continue
            s = owner[f]
            w = next(v for v in s if v not in f)
            func = _facet_functional([pts[v] for v in f], pts[w])
            val = dot(func[:-1], pts[i]) + func[-1]
            if val < 0:
                visible.append(f)
        simplices = simplices + [f + (i,) for f in sorted(visible)]
    top = max(len(s) for s in simplices)
    return pts, sorted(s for s in simplices if len(s) == top)


def _facet_functional(facet_pts, inside_pt):
    """Affine functional vanishing on the facet, = 1 at the inside point."""
    rows = [tuple(p) + (F1,) for p in facet_pts] + [tuple(inside_pt) + (F1,)]
    rhs = [F0] * len(facet_pts) + [F1]
    sol = solve_affine(rows, rhs)
    assert sol is not None, "degenerate facet functional"
    return sol[0]


def _spherical_projection_coords(rays):
    """Affine coordinates of cone rays on a cutting hyperplane {c.x = 1}."""
    nv = len(rays[0])
    rows = [tuple(map(frac, r)) + (Fraction(-1),) for r in rays]
    c = reference_feasible((), rows, (), nv)
    if c is None:
        raise ValueError("rays do not span a pointed cone")
    out = []
    for r in rays:
        t = dot(c, r)
        assert t > 0, "cutting functional not positive on a ray"
        out.append(tuple(frac(x) / t for x in r))
    return out


def reference_pt_to_ls_element(vertices, coll, ls_data):
    """Image of a convex L-polytope, given by its vertices, under the
    canonical map to Ls: chart points in E/H, extreme rays in S.

    The polytope is placing-triangulated (in S, on a cutting hyperplane
    of its cone); each simplex contributes its increasing vertex tuple
    signed by the orientation of its vertices.  The rule that
    ``groups.pt_to_ls_element`` replaced for regions, kept as its oracle
    and for polytopes that are not simplices."""
    g = coll.geometry
    pres, pts = ls_data
    pair_index = {p.carrier: i for i, p in enumerate(pts)}
    gen_index = {gen: i for i, gen in enumerate(pres.generators)}
    out = {}
    if g.kind == SPHERICAL:
        rays = [tuple(map(frac, v)) for v in vertices]
        coords = _spherical_projection_coords(rays)
        coord_of = dict(zip(coords, rays))
        placed, simplices = placing_triangulation(coords)
        for s in simplices:
            actual = [coord_of[placed[i]] for i in s]
            members = [
                geo.GeoSubspace(g, subspace_from_vectors(g.ambient_dim, [v])) for v in actual
            ]
            order = sorted(range(len(members)), key=lambda k: pair_index[members[k].carrier])
            tup = tuple(pair_index[members[k].carrier] for k in order)
            assert len(set(tup)) == len(tup), "repeated pair in simplex"
            at = gen_index[tup]
            out[at] = out.get(at, 0) + reference_det_sign([actual[k] for k in order])
    else:
        verts = [tuple(map(frac, v)) for v in vertices]
        placed, simplices = placing_triangulation(verts)
        for s in simplices:
            members = [geo.point_subspace(g, placed[i]) for i in s]
            order = sorted(range(len(members)), key=lambda k: pair_index[members[k].carrier])
            tup = tuple(pair_index[members[k].carrier] for k in order)
            first = placed[s[order[0]]]
            at = gen_index[tup]
            out[at] = out.get(at, 0) + reference_det_sign(
                [_vec_sub(placed[s[k]], first) for k in order[1:]])
    return nonzero(out)


def collapse_chain_map(bicomplex, collapse):
    """Chain map from the bicomplex to the collapse model, checked to
    commute with the boundaries.

    Sends (empty flag, sigma) to sigma when sigma survives in the
    collapse model, and every generator with a nonempty flag to zero."""
    maps = {}
    for d in bicomplex.support():
        tgt_index = collapse.index(d)
        entries = {}
        for j, (flag, sigma) in enumerate(bicomplex.degrees[d]):
            row = None if flag else tgt_index.get(sigma)
            if row is not None:
                entries[(row, j)] = 1
        maps[d] = IntMatrix(collapse.dim(d), bicomplex.dim(d), entries)
    for d in bicomplex.support():
        if d - 1 in maps:
            left = matrix_product(collapse.boundary(d), maps[d])
            right = matrix_product(maps[d - 1], bicomplex.boundary(d))
            assert left == right, "collapse is not a chain map"
    return maps


# ---------------------------------------------------------------------------
# Apartment matrices of the three cycle builders


def cell_apartment_matrix(poset, basis, st_model):
    cycles = grp.cell_apartments(poset, basis, st_model)
    return grp.apartment_matrix(st_model.complex, poset.geometry.n, cycles)


def pt_apartments(coll, basis, tri, bic):
    cycles = [grp.apartment_cycle_pt_spherical(s, coll, tri, bic) for s in basis]
    return grp.apartment_matrix(bic, coll.geometry.n, cycles)


def points_apartments(coll):
    return grp.ls_apartment_matrix(grp.ls_group(coll), cx.STModel(coll.members, coll.top()))


def _reference_subsets(pool):
    n = len(pool)
    return [frozenset(pool[i] for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]


def reference_levels(basis_size, p_max):
    """Tuples of pairwise disjoint nonempty region sets, per level, as
    ``frozenset`` parts, in no particular order: the enumeration that
    ``resolution.levels`` replaced, kept as its oracle."""
    p_max = min(p_max, basis_size + 1)
    out = {0: [()]}
    frontier = [()]
    for p in range(1, p_max + 1):
        new = []
        for tup in frontier:
            used = set()
            for part in tup:
                used |= part
            pool = [r for r in range(basis_size) if r not in used]
            for sub in _reference_subsets(pool):
                new.append(tup + (sub,))
        out[p] = new
        frontier = new
        if not new:
            break
    return {p: v for p, v in out.items() if v or p == 0}



def reference_face(tup, i):
    """Face i of a resolution simplex: drop the first or last part, or
    merge parts i - 1 and i."""
    p = len(tup)
    if i == 0:
        return tup[1:]
    if i == p:
        return tup[:-1]
    return tup[: i - 1] + (tup[i - 1] | tup[i],) + tup[i + 1 :]


def reference_face_rows(level_dict):
    """Level p >= 1 -> for each simplex, the rows of its faces d_0 .. d_p
    in level p-1, each face built as a tuple and looked up by hashing;
    None when a face lies outside the level below.  The table that
    ``resolution._face_rows`` replaced by index arithmetic, kept as its
    oracle."""
    table = {}
    for p in sorted(level_dict):
        if p == 0:
            continue
        lower = {t: r for r, t in enumerate(level_dict.get(p - 1, ()))}
        rows = []
        for t in level_dict[p]:
            row = [lower.get(reference_face(t, i)) for i in range(p + 1)]
            if None in row:
                return None
            rows.append(row)
        table[p] = rows
    return table

# ---------------------------------------------------------------------------
# Top-degree classes from an explicit kernel basis


class ReferenceHomologyClasses:
    """Top-degree classes read through a kernel basis K: the columns of V
    at the non-pivot columns N of ``reference_entry_heap_eliminate`` (the
    pinned order, with V), with the refusal of a reduction that leaves
    the unit phase.  ``coords`` returns a sparse chain's entries at N
    once K a equals the chain exactly, and raises ``ValueError``
    otherwise.  The V-based reader that ``complexes.HomologyClasses``
    replaced."""

    def __init__(self, complex_, degree):
        assert not complex_.dim(degree + 1), "not the top degree"
        b = complex_.boundary(degree)
        pivots, _, pivot_cols, vcols, units = reference_entry_heap_eliminate(
            b.row_dicts(), b.rows, b.cols)
        if units < len(pivots):
            raise AssertionError("top boundary has a pivot outside the unit phase")
        pivot_cols = set(pivot_cols)
        self.length = b.cols
        self.nonpivot = [j for j in range(b.cols) if j not in pivot_cols]
        self.kernel = [vcols[j] for j in self.nonpivot]
        self.betti = len(self.nonpivot)

    def coords(self, cycle):
        if not all(0 <= j < self.length for j in cycle):
            raise ValueError("position outside the degree")
        a = tuple(cycle.get(j, 0) for j in self.nonpivot)
        total = {}
        for q, col in zip(a, self.kernel):
            for i, v in col.items():
                total[i] = total.get(i, 0) + q * v
        if nonzero(total) != nonzero(cycle):
            raise ValueError("not a cycle")
        return a


# ---------------------------------------------------------------------------
# The certificate elimination with one heap key per +-1 entry


def reference_entry_heap_eliminate(rows, m, n):
    """``eliminate(rows, m, n, PINNED)`` with one Markowitz key ``(cost,
    i, j)`` per +-1 entry and a set of the keys live in the heap: the
    loop that the heap with one key per column replaced, kept as its
    oracle.  The least entry key is the least column key, so both return
    the same pivots, positions and ``units``.  This loop also keeps the
    column transform V, which ``ReferenceHomologyClasses`` reads.
    ``rows`` is consumed.
    """
    from heapq import heappop, heappush

    cols = [set() for _ in range(n)]
    for i in range(m):
        for j in rows[i]:
            cols[j].add(i)
    vcols = [{j: 1} for j in range(n)]
    active_rows = set(i for i in range(m) if rows[i])
    pivots, pivot_rows, pivot_cols = [], [], []

    def row_axpy(i, ip, q):
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

    def col_axpy(j, jp, q):
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
        tv = vcols[j]
        for i2, v in vcols[jp].items():
            w = tv.get(i2, 0) - q * v
            if w:
                tv[i2] = w
            elif i2 in tv:
                del tv[i2]

    def retire(i0, j0):
        pivots.append(abs(rows[i0].pop(j0)))
        pivot_rows.append(i0)
        pivot_cols.append(j0)
        cols[j0].discard(i0)
        active_rows.discard(i0)

    def push_units(i, js):
        ri = rows[i]
        for j in js:
            v = ri[j]
            if v == 1 or v == -1:
                key = ((len(ri) - 1) * (len(cols[j]) - 1), i, j)
                if key not in live:
                    live.add(key)
                    heappush(heap, key)

    heap = []
    live = set()
    for i in active_rows:
        push_units(i, rows[i])
    while heap:
        key = heappop(heap)
        live.remove(key)
        cost, i0, j0 = key
        v = rows[i0].get(j0)
        if (v != 1 and v != -1) or cost != (len(rows[i0]) - 1) * (len(cols[j0]) - 1):
            continue
        p = rows[i0][j0]
        touched = [i for i in cols[j0] if i != i0]
        for i in touched:
            row_axpy(i, i0, rows[i][j0] * p)
        support = [j for j in rows[i0] if j != j0]
        for j in support:
            col_axpy(j, j0, rows[i0][j] * p)
        retire(i0, j0)
        for i in touched:
            push_units(i, rows[i])
        touched = set(touched)
        for j in support:
            for i in cols[j] - touched:
                push_units(i, (j,))
    units = len(pivots)

    # Phase B, as in the kernel.
    while True:
        best = min(((abs(v), i, j) for i in active_rows for j, v in rows[i].items()),
                   default=None)
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
            if any(i != i0 for i in cols[j0]) or any(j != j0 for j in rows[i0]):
                p_abs = abs(rows[i0][j0])
                cand = min(((abs(v), i, j) for i in active_rows for j, v in rows[i].items()
                            if abs(v) < p_abs), default=None)
                if cand is not None:
                    _, i0, j0 = cand
                continue
            p = rows[i0][j0]
            offender = min((i for i in active_rows
                            if i != i0 and any(v % p for v in rows[i].values())), default=None)
            if offender is None:
                break
            row_axpy(i0, offender, -1)
        retire(i0, j0)

    return pivots, pivot_rows, pivot_cols, vcols, units


# ---------------------------------------------------------------------------
# The dense reference elimination: U and V, kernel bases and lattice
# equality.  ``geotits._kernel`` keeps no transform; these oracles do.


def reference_eliminate(rows, m, n, want_transforms):
    """``eliminate`` as a sorted rescan of the whole active matrix for
    every pivot, kept as the oracle for the kernel's pivot orders, with
    U and V when ``want_transforms``: ``PINNED`` returns the same pivots
    and positions, and every mode the same invariant factors.
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

    # Phase A: +-1 pivots, cheapest fill first.
    while True:
        best = None
        for i in sorted(active_rows):
            ri = rows[i]
            rlen = len(ri)
            for j in sorted(ri):
                v = ri[j]
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
        best = None
        for i in sorted(active_rows):
            ri = rows[i]
            for j in sorted(ri):
                key = (abs(ri[j]), i, j)
                if best is None or key < best:
                    best = key
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
                cand = None
                for i in sorted(active_rows):
                    for j in sorted(rows[i]):
                        if abs(rows[i][j]) < p_abs:
                            cand = (i, j)
                            p_abs = abs(rows[i][j])
                if cand is not None:
                    i0, j0 = cand
                continue
            p = rows[i0][j0]
            offender = None
            for i in sorted(active_rows):
                if i == i0:
                    continue
                for j in sorted(rows[i]):
                    if rows[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_axpy(i0, offender, -1)  # fold offending row into pivot row
        retire(i0, j0)

    return pivots, pivot_rows, pivot_cols, urows, vcols


def dense_snf(m):
    """(invariant factors, U, V) of the reference elimination as dense
    matrices, rows of U and columns of V permuted so that pivot k sits at
    (k, k)."""
    pivots, prow, pcol, urows, vcols = reference_eliminate(m.row_dicts(), m.rows, m.cols, True)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    row_perm = [prow[k] for k in order] + sorted(set(range(m.rows)) - set(prow))
    col_perm = [pcol[k] for k in order] + sorted(set(range(m.cols)) - set(pcol))
    u = [[urows[i].get(j, 0) for j in range(m.rows)] for i in row_perm]
    v = [[vcols[col_perm[j]].get(i, 0) for j in range(m.cols)] for i in range(m.cols)]
    return [pivots[k] for k in order], u, v


def reference_kernel_basis(m):
    """A basis of {x in Z^n : M x = 0}: the columns of V past the rank."""
    factors, _, v = dense_snf(m)
    n = m.cols
    return [[v[i][j] for i in range(n)] for j in range(len(factors), n)]


def reference_rank_and_index(cols, length):
    """Rank and product of invariant factors of the lattice spanned by
    ``cols`` in Z^length, from the reference elimination."""
    m = IntMatrix.from_columns(length, cols)
    factors = reference_eliminate(m.row_dicts(), m.rows, m.cols, False)[0]
    return len(factors), prod(factors)


def lattices_equal(cols_a, cols_b, length):
    """Equality of the sublattices of Z^length spanned by two column sets:
    A, B and [A | B] have the same rank and product of invariant factors
    (see ``geotits._kernel``), from the reference elimination."""
    joint = reference_rank_and_index(cols_a + cols_b, length)
    return (reference_rank_and_index(cols_a, length) == joint
            and reference_rank_and_index(cols_b, length) == joint)


def reference_kernel_lattice(hom):
    """Generators (columns) of {x : M x lies in the codomain relations R}:
    the reference kernel basis of [M | -R^T] cut to the domain
    coordinates, so columns repeat or vanish when the relations are
    dependent."""
    gd = len(hom.domain.generators)
    block = IntMatrix.from_col_dicts(
        len(hom.codomain.generators),
        hom.matrix.col_dicts + [{j: -v for j, v in row.items()}
                                for row in hom.codomain.relations.row_dicts()])
    return [col[:gd] for col in reference_kernel_basis(block)]


@pytest.fixture(scope="session")
def triangle():
    return coll_mod.closure_by_hyperplanes(E2, TRIANGLE_COVS)


@pytest.fixture(scope="session")
def four_lines():
    return coll_mod.closure_by_hyperplanes(E2, FOUR_LINES_COVS)


@pytest.fixture(scope="session")
def coord_s2():
    return coll_mod.closure_by_hyperplanes(S2, COORD_S2_COVS)


@pytest.fixture(scope="session")
def coord_s1():
    return coll_mod.closure_by_hyperplanes(S1, [(1, 0), (0, 1)])


@pytest.fixture(scope="session")
def h2_triangle():
    return coll_mod.closure_by_hyperplanes(H2, H2_TRIANGLE_COVS)


@pytest.fixture(scope="session")
def concurrent_e2():
    return coll_mod.closure_by_hyperplanes(E2, [(0, 1, 0), (0, 0, 1)])


class Budget:
    def __init__(self, number, title, seconds):
        self.number = number
        self.title = title
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.title}]: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
            )
        return False
