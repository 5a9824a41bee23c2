"""Sparse integer tables behind the basis-tuple checkers.

A ``Tensor3`` lowers to the table {(i, j): {k: int}} of its nonzero
columns over one common denominator D, so that c[k][i][j] is
table[i, j][k] / D.  A ``Matrix`` lowers to sparse integer columns
{row: int} over one common denominator.  Each object is lowered once,
on first use, into a slot of the immutable object itself, so later
checks on the same object reuse the table.

Every identity scanned here is homogeneous in each of its inputs, so
clearing denominators is exact: a term of degree d in an input lowered
over D is an integer over D**d.  Where the two sides of an identity
have different degrees in some input, each side is multiplied by the
powers of D the other side has and it lacks, and then compared.

Each scan walks the tuple order its checker documents and returns the
first failing tuple, 0-based, or None.  The checkers recompute both
sides at that one tuple with their public per-tuple code, so the
reported witnesses do not depend on this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import DimensionMismatchError
from .linalg import matrix_inverse

_EMPTY: dict = {}


class _Table:
    """A lowered Tensor3: nonzero columns by pair and by first index."""

    __slots__ = ("n", "den", "cols", "rows")

    def __init__(self, n, den, rows):
        self.n = n
        self.den = den
        self.rows = rows  # rows[i] = {j: {k: int}}
        self.cols = {(i, j): v for i, row in enumerate(rows) for j, v in row.items()}


def table(t) -> _Table:
    """The lowered form of a Tensor3, built on first use."""
    try:
        return t._lowered
    except AttributeError:
        pass
    n = t.dim
    found = [
        (i, j, k, x)
        for k, plane in enumerate(t.entries)
        for i, row in enumerate(plane)
        for j, x in enumerate(row)
        if x
    ]
    den = lcm(*{x.denominator for *_, x in found}) if found else 1
    rows = [{} for _ in range(n)]
    for i, j, k, x in found:
        col = rows[i].get(j)
        if col is None:
            rows[i][j] = col = {}
        col[k] = x.numerator * (den // x.denominator)
    low = _Table(n, den, rows)
    object.__setattr__(t, "_lowered", low)
    return low


def columns(m) -> tuple:
    """(columns, den) of a lowered Matrix, built on first use.

    ``columns[j]`` is {row: int}, holding only nonzero entries, and the
    matrix entry is that integer over ``den``.
    """
    try:
        return m._lowered
    except AttributeError:
        pass
    found = [
        (r, j, x)
        for r, row in enumerate(m.rows)
        for j, x in enumerate(row)
        if x
    ]
    den = lcm(*{x.denominator for *_, x in found}) if found else 1
    cols = [{} for _ in range(m.ncols)]
    for r, j, x in found:
        cols[j][r] = x.numerator * (den // x.denominator)
    low = (cols, den)
    object.__setattr__(m, "_lowered", low)
    return low


# ---------------------------------------------------------------------------
# sparse integer vectors {index: int}, zero entries never stored
# ---------------------------------------------------------------------------

def _axpy(acc: dict, s: int, x: dict):
    for k, v in x.items():
        acc[k] = acc.get(k, 0) + s * v


def _clean(acc: dict) -> dict:
    return {k: v for k, v in acc.items() if v}


def _apply(cols, x: dict) -> dict:
    """The matrix with these columns applied to x."""
    acc: dict = {}
    for j, s in x.items():
        _axpy(acc, s, cols[j])
    return _clean(acc)


def _combine(vectors: dict, x: dict) -> dict:
    """sum over m of x[m] * vectors[m]."""
    acc: dict = {}
    for m, s in x.items():
        v = vectors.get(m)
        if v is not None:
            _axpy(acc, s, v)
    return _clean(acc)


def _same(x: dict, sx: int, y: dict, sy: int) -> bool:
    """x * sx == y * sy for nonzero scales."""
    return x.keys() == y.keys() and all(v * sx == y[k] * sy for k, v in x.items())


def _left_maps(tab: _Table, vectors) -> list:
    """For each vector u: {m: t(u, e_m)}, over tab.den times the vectors' den."""
    out = []
    for u in vectors:
        acc: dict = {}
        for l, s in u.items():
            for m, v in tab.rows[l].items():
                col = acc.get(m)
                if col is None:
                    acc[m] = col = {}
                _axpy(col, s, v)
        out.append({m: c for m, col in acc.items() if (c := _clean(col))})
    return out


def _right_maps(tab: _Table, vectors) -> list:
    """For each vector u: {m: t(e_m, u)}, over tab.den times the vectors' den."""
    out = []
    for u in vectors:
        acc: dict = {}
        for m, row in enumerate(tab.rows):
            col: dict = {}
            for l, s in u.items():
                v = row.get(l)
                if v is not None:
                    _axpy(col, s, v)
            col = _clean(col)
            if col:
                acc[m] = col
        out.append(acc)
    return out


def _difference(x: dict, y: dict) -> dict:
    acc = dict(x)
    _axpy(acc, -1, y)
    return _clean(acc)


# ---------------------------------------------------------------------------
# scans: the first failing tuple, 0-based, or None
# ---------------------------------------------------------------------------

def first_asymmetric(c):
    """First (i, j), i <= j, with c(e_i, e_j) != -c(e_j, e_i)."""
    cols = table(c).cols
    bad = []
    for (i, j), v in cols.items():
        w = cols.get((j, i))
        if w is None or v.keys() != w.keys() or any(x != -w[k] for k, x in v.items()):
            bad.append((min(i, j), max(i, j)))
    return min(bad) if bad else None


def first_non_morphism(t, phi):
    """First (i, j) with phi(t(e_i, e_j)) != t(phi e_i, phi e_j).

    The left side has degree 1 in phi, the right side degree 2.
    """
    tab = table(t)
    pcols, dphi = columns(phi)
    lefts = _left_maps(tab, pcols)
    for i in range(tab.n):
        row, left = tab.rows[i], lefts[i]
        for j in range(tab.n):
            lhs = _apply(pcols, row.get(j, _EMPTY))
            rhs = _combine(left, pcols[j])
            if not _same(lhs, dphi, rhs, 1):
                return (i, j)
    return None


def first_not_left_symmetric(p, phi):
    """First (i, j, k), i < j, where the twisted associator
    (x.y).phi(z) - phi(x).(y.z) differs from its (j, i, k) swap.

    Every term has degree 2 in the product and 1 in phi.
    """
    tab = table(p)
    pcols, _ = columns(phi)
    lphi = _left_maps(tab, pcols)  # lphi[i][m] = phi(e_i).e_m
    rphi = _right_maps(tab, pcols)  # rphi[k][m] = e_m.phi(e_k)
    cols, n = tab.cols, tab.n
    for i in range(n):
        for j in range(i + 1, n):
            comm = _difference(cols.get((i, j), _EMPTY), cols.get((j, i), _EMPTY))
            for k in range(n):
                acc: dict = {}
                for m, s in comm.items():
                    _axpy(acc, s, rphi[k].get(m, _EMPTY))
                for m, s in cols.get((j, k), _EMPTY).items():
                    _axpy(acc, -s, lphi[i].get(m, _EMPTY))
                for m, s in cols.get((i, k), _EMPTY).items():
                    _axpy(acc, s, lphi[j].get(m, _EMPTY))
                if any(acc.values()):
                    return (i, j, k)
    return None


def first_hom_jacobi_defect(c, phi):
    """First (i, j, k), i < j < k, with a nonzero cyclic sum
    [phi e_i, [e_j, e_k]] + [phi e_j, [e_k, e_i]] + [phi e_k, [e_i, e_j]].

    Every term has degree 2 in the bracket and 1 in phi.
    """
    tab = table(c)
    pcols, _ = columns(phi)
    lphi = _left_maps(tab, pcols)
    cols = tab.cols
    for i, j, k in combinations(range(tab.n), 3):
        acc: dict = {}
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            left = lphi[p]
            for m, s in cols.get((q, r), _EMPTY).items():
                _axpy(acc, s, left.get(m, _EMPTY))
        if any(acc.values()):
            return (i, j, k)
    return None


def first_symplectic_failure(omega, c, phi):
    """First failing identity of a symplectic two-cocycle, or None.

    Returns ("invariance", (i, j)) for the first i < j with
    omega(phi e_i, phi e_j) != omega(e_i, e_j), whose left side has two
    more factors phi than its right side; else ("cocycle", (i, j, k)) for
    the first i < j < k with a nonzero sum
    omega([e_i,e_j], phi e_k) + omega([e_k,e_i], phi e_j) + omega([e_j,e_k], phi e_i),
    every term of degree 1 in omega, the bracket and phi.
    """
    wcols, _ = columns(omega)
    pcols, dphi = columns(phi)
    wphi = [_apply(wcols, col) for col in pcols]  # wphi[k][m] = omega(e_m, phi e_k)
    scale = dphi * dphi
    n = len(pcols)
    for i in range(n):
        pi = pcols[i]
        for j in range(i + 1, n):
            col = wphi[j]
            if sum(s * col.get(r, 0) for r, s in pi.items()) != wcols[j].get(i, 0) * scale:
                return ("invariance", (i, j))
    cols = table(c).cols
    for i, j, k in combinations(range(n), 3):
        total = 0
        for p, q, r in ((i, j, k), (k, i, j), (j, k, i)):
            col = wphi[r]
            for m, s in cols.get((p, q), _EMPTY).items():
                total += s * col.get(m, 0)
        if total:
            return ("cocycle", (i, j, k))
    return None


def form_product_planes(form, c, phi, terms, den=1) -> list:
    """Planes of the product P with B(P(e_i, e_j), phi e_k) = r_ij[k] / den.

    B is the bilinear form with matrix ``form``.  Each right side r_ij[k]
    sums entries of the table T(a, b; d) = B([e_a, e_b], phi e_d): a
    term of ``terms`` spells which of i, j, k stand in for a, b and d,
    so that "ikj" adds T(i, k; j).  T is built from the nonzero bracket
    columns only, and every pair is solved with one inverse of
    (B phi)^T.  T has degree 1 in B, phi and the bracket; the solution
    adds the denominators of the inverse and of ``den``.
    """
    wt = (form @ phi).transpose()
    rows, dw = columns(wt)  # rows[m][d] = B(e_m, phi e_d)
    icols, dinv = columns(matrix_inverse(wt))
    tab = table(c)
    orders = [tuple(term.index(x) for x in "ijk") for term in terms]
    rhs: dict = {}
    for (a, b), col in tab.cols.items():
        for d, v in _apply(rows, col).items():
            abd = (a, b, d)
            for oi, oj, ok in orders:
                acc = rhs.setdefault((abd[oi], abd[oj]), {})
                acc[abd[ok]] = acc.get(abd[ok], 0) + v
    n = tab.n
    den *= dinv * dw * tab.den
    planes = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (i, j), acc in rhs.items():
        for k, v in _apply(icols, acc).items():
            planes[k][i][j] = Fraction(v, den)
    return planes


def _family(mats):
    """Lowered columns of several matrices over one common denominator."""
    lowered = [columns(m) for m in mats]
    den = lcm(*(d for _, d in lowered)) if lowered else 1
    return [
        [{r: v * (den // d) for r, v in col.items()} for col in cols]
        for cols, d in lowered
    ], den


def _transpose(cols, nrows) -> list:
    out = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for r, v in col.items():
            out[r][j] = v
    return out


def _mat_mul(x, y) -> list:
    return [_apply(x, col) for col in y]


def _mat_same(x, sx, y, sy) -> bool:
    return all(_same(a, sx, b, sy) for a, b in zip(x, y))


def _family_combo(family, u: dict, size: int) -> list:
    """sum over l of u[l] * family[l], as columns."""
    out = []
    for j in range(size):
        acc: dict = {}
        for l, s in u.items():
            _axpy(acc, s, family[l][j])
        out.append(_clean(acc))
    return out


def first_representation_failure(rep, dual: bool = False):
    """First failing identity of a representation, or of its admissibility.

    Returns ("twist", (i,)), ("bracket", (i, j)) or None.  The identities are

        rho(phi e_i) . A = A . rho(e_i)
        rho([e_i, e_j]) . A = rho(phi e_i) . rho(e_j) - rho(phi e_j) . rho(e_i).

    With ``dual`` they are checked for the family A^T, -rho^T instead,
    which is the admissibility pair A . rho(phi e_i) = rho(e_i) . A and
    A . rho([e_i, e_j]) = rho(e_i) . rho(phi e_j) - rho(e_j) . rho(phi e_i),
    transposed entry by entry, so the first failing index is the same.
    On the twist identity the left side has one more factor phi; on the
    bracket identity the left side has degree 1 in rho, the bracket and
    A, the right side degree 2 in rho and 1 in phi.
    """
    n, size = rep.base_dim, rep.carrier_dim
    if (
        len(rep.rho) != n
        or rep.twist.shape != (n, n)
        or rep.a_map.shape != (size, size)
        or any(m.shape != (size, size) for m in rep.rho)
    ):
        raise DimensionMismatchError("representation matrices do not fit its base")
    a, da = columns(rep.a_map)
    rho, drho = _family(rep.rho)
    if dual:
        a = _transpose(a, size)
        rho = [
            [{r: -v for r, v in col.items()} for col in _transpose(m, size)] for m in rho
        ]
    pcols, dphi = columns(rep.twist)
    tab = table(rep.bracket)
    rho_phi = [_family_combo(rho, col, size) for col in pcols]
    for i in range(n):
        if not _mat_same(_mat_mul(rho_phi[i], a), 1, _mat_mul(a, rho[i]), dphi):
            return ("twist", (i,))
    products = [[_mat_mul(rho_phi[i], rho[j]) for j in range(n)] for i in range(n)]
    lhs_scale, rhs_scale = drho * dphi, tab.den * da
    for i in range(n):
        for j in range(n):
            lhs = _mat_mul(_family_combo(rho, tab.cols.get((i, j), _EMPTY), size), a)
            rhs = [_difference(x, y) for x, y in zip(products[i][j], products[j][i])]
            if not _mat_same(lhs, lhs_scale, rhs, rhs_scale):
                return ("bracket", (i, j))
    return None


def nijenhuis(c, g, pairs):
    """Nonzero Nijenhuis torsion values, in the order of ``pairs``.

    Yields (a, b, value) for each 0-based pair whose torsion
    N(e_a, e_b) = [G e_a, G e_b] - G[G e_a, e_b] - G[e_a, G e_b] - [e_a, e_b]
    is nonzero, with value a tuple of Fractions.  The first three terms
    have degree 2 in G, the last degree 0; all have degree 1 in c.
    """
    tab = table(c)
    gcols, dg = columns(g)
    lg = _left_maps(tab, gcols)  # lg[a][m] = [G e_a, e_m]
    scale = dg * dg
    den = tab.den * scale
    n = tab.n
    zero = Fraction(0)
    for a, b in pairs:
        gb = gcols[b]
        acc = dict(_combine(lg[a], gb))
        _axpy(acc, -1, _apply(gcols, lg[a].get(b, _EMPTY)))
        _axpy(acc, -1, _apply(gcols, _combine(tab.rows[a], gb)))
        _axpy(acc, -scale, tab.cols.get((a, b), _EMPTY))
        acc = _clean(acc)
        if acc:
            yield a, b, tuple(
                Fraction(acc[k], den) if k in acc else zero for k in range(n)
            )


def left_products(p, phi):
    """([{k: {m: int}} for each i], den): the e_m coefficient of phi(e_i).e_k."""
    tab = table(p)
    pcols, dphi = columns(phi)
    return _left_maps(tab, pcols), tab.den * dphi
