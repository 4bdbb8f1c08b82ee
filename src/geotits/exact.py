"""Exact rational linear algebra and feasibility.

Everything here is exact; no floats.  Integer input stays integer: a
subspace is spanned by primitive integer rows (``rref``), determinant
signs and signatures are fraction-free, Fourier-Motzkin eliminates on
primitive integer rows, and a witness is checked in integers after
scaling by its common denominator.  ``Fraction`` carries only the values
that are rational numbers: solutions (``solve_unique``, ``solve_affine``)
and back-substituted feasibility witnesses.  Rational input is still
accepted everywhere.  Conventions:

* A *row* of length ``k`` is a linear form over ``k`` variables.
* Affine constraint rows carry their constant as the LAST entry:
  ``(a_1, ..., a_n, c)`` encodes ``a . x + c (>|>=|=) 0``.  Homogeneous
  systems simply pass ``c = 0`` rows (or use all entries as variables).
"""

from fractions import Fraction
from math import gcd, lcm


F0 = Fraction(0)
F1 = Fraction(1)


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


def dot(a, b):
    """Sum of products in native arithmetic: int for int vectors, else
    ``Fraction``; divide a result with ``Fraction(p, q)``, never ``/``."""
    return sum(x * y for x, y in zip(a, b))


def mat_vec(rows, v):
    return tuple(dot(r, v) for r in rows)


def _primitive(row):
    """An integer row divided by its content (a zero row is left alone)."""
    g = gcd(*row)
    return row if g <= 1 else tuple(v // g for v in row)


def _int_row(row):
    """The rational row times the lcm of its denominators, divided by its
    content: coprime integers (all zero for a zero row)."""
    if all(type(x) is int for x in row):
        return _primitive(row)
    ratios = [x.as_integer_ratio() for x in row]
    den = lcm(*[d for _, d in ratios])
    return _primitive([n * (den // d) for n, d in ratios] if den != 1 else [n for n, _ in ratios])


def primitive_int_row(row):
    """Scale a rational row by a positive rational to coprime integers."""
    return tuple(_int_row(row))


def rref(rows):
    """Reduced row echelon form up to positive row scaling; zero rows
    removed; returns (rows, pivots).

    Elimination is fraction-free: each returned row is a primitive
    integer row whose pivot entry is positive and whose entries at the
    other pivots are zero.  It is the Gauss-Jordan row over the rationals
    times that positive pivot entry, so the form is unique for the row
    space.
    """
    mat = [_int_row(r) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        pv = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = _primitive([pv * x - f * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    out = tuple(
        tuple(row) if row[c] > 0 else tuple(-x for x in row)
        for row, c in zip(mat, pivots)
    )
    return out, tuple(pivots)


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Integer basis of {x : rows . x = 0} as tuple of tuples: one vector
    per free column, equal to L there and 0 at the other free columns,
    where L is the lcm of the pivot entries."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for empty system")
        ncols = len(rows[0])
    red, pivots = rref(rows)
    big = lcm(*(r[pc] for r, pc in zip(red, pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [0] * ncols
        v[fc] = big
        for r, pc in zip(red, pivots):
            v[pc] = -r[fc] * (big // r[pc])
        basis.append(tuple(v))
    return tuple(basis)


def solve_unique(a_rows, b):
    """Solve A x = b when A is square nonsingular; None otherwise."""
    n = len(a_rows)
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    red, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(red))


def solve_affine(rows, rhs):
    """General solution of rows . x = rhs: (particular, nullspace) or None."""
    if not rows:
        raise ValueError("empty system")
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if any(p == ncols for p in pivots):
        return None
    x = [F0] * ncols
    for r, pc in zip(red, pivots):
        x[pc] = Fraction(r[ncols], r[pc])
    return tuple(x), nullspace([r[:ncols] for r in red], ncols)


def det_sign(rows):
    """Sign of the determinant of a square rational matrix.

    Each row is scaled by a positive factor to coprime integers
    (``_int_row``), which keeps the sign.  Fraction-free Bareiss
    elimination (Bareiss, *Math. Comp.* 22, 1968) then divides each
    update exactly by the previous pivot, so every entry stays an
    integer minor and the last pivot is the determinant up to the sign
    of the row swaps.
    """
    mat = [_int_row(r) for r in rows]
    n = len(mat)
    sign = 1
    prev = 1
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
        prow = mat[c]
        pv = prow[c]
        for i in range(c + 1, n):
            f = mat[i][c]
            mat[i] = [(pv * x - f * y) // prev for x, y in zip(mat[i], prow)]
        prev = pv
    return sign if prev > 0 else -sign


def signature(gram):
    """Sylvester signature (n_pos, n_neg, n_zero) of a symmetric matrix.

    Fraction-free congruence: for a pivot d = g[i][i] != 0, row and then
    column j of every other live index become d*(j) - f*(i) with
    f = g[j][i], which clears g[j][i] and g[i][j].  Each step is a
    congruence by a matrix of determinant d, so it keeps the signature,
    and integer entries stay integers.  A live block with zero diagonal
    first gets e_i += e_j at a nonzero off-diagonal entry.
    """
    g = [list(row) for row in gram]
    pos = neg = zero = 0
    live = list(range(len(g)))
    while live:
        i = next((i for i in live if g[i][i] != 0), None)
        if i is None:
            offd = next(
                ((i, j) for ii, i in enumerate(live) for j in live[ii + 1 :] if g[i][j] != 0),
                None,
            )
            if offd is None:
                zero += len(live)
                break
            i, j = offd
            # basis change e_i += e_j turns the zero diagonal nonzero
            for k in live:
                g[i][k] += g[j][k]
            for k in live:
                g[k][i] += g[k][j]
            continue
        d = g[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        live.remove(i)
        span = live + [i]
        for j in live:
            f = g[j][i]
            if f != 0:
                for k in span:
                    g[j][k] = d * g[j][k] - f * g[i][k]
                for k in span:
                    g[k][j] = d * g[k][j] - f * g[k][i]
    return pos, neg, zero


def signature_on_subspace(form_rows, basis_rows):
    """Signature of a symmetric form restricted to span(basis rows); an
    integer form and integer rows give an integer Gram matrix."""
    if basis_rows and len(form_rows) != len(basis_rows[0]):
        raise ValueError("form/subspace dimension mismatch")
    fb = [mat_vec(form_rows, v) for v in basis_rows]
    gram = [[dot(u, v) for v in basis_rows] for u in fb]
    return signature(gram)


# ---------------------------------------------------------------------------
# Fourier-Motzkin feasibility with exact witnesses.

def _normalize(coeffs, const):
    row = primitive_int_row(list(coeffs) + [const])
    return row[:-1], row[-1]


def feasible(strict_rows=(), nonstrict_rows=(), eq_rows=(), nvars=None):
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
        ineqs.append(_normalize(r[:nvars], r[nvars]) + (True,))
    for r in nonstrict_rows:
        ineqs.append(_normalize(r[:nvars], r[nvars]) + (False,))
    eqs = [_normalize(r[:nvars], r[nvars]) for r in eq_rows]

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
            new = _primitive(
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
                row = _primitive(
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
    _check_witness(value, strict_rows, nonstrict_rows, eq_rows)
    return value


def int_point(x):
    """(D*x, D) for a rational point x, with D the lcm of its denominators.
    For an affine row r = (a, c), r . (D*x, D) = D * (a . x + c) has the
    sign of the row's value at x, since D > 0, and it is an integer for
    an integer row."""
    ratios = [v.as_integer_ratio() for v in x]
    den = lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios] + [den]


def _check_witness(x, strict_rows, nonstrict_rows, eq_rows):
    """Test every row at the witness x, in integers through ``int_point``."""
    point = int_point(x)
    for r in strict_rows:
        if not dot(r, point) > 0:
            raise AssertionError("witness violates strict constraint")
    for r in nonstrict_rows:
        if not dot(r, point) >= 0:
            raise AssertionError("witness violates constraint")
    for r in eq_rows:
        if dot(r, point) != 0:
            raise AssertionError("witness violates equality")
