"""Exact linear algebra over the integers, the rationals, and GF(2).

Matrices are numpy arrays: ``dtype=object`` carrying Python ints or
Fractions for arbitrary-precision arithmetic, ``dtype=uint8`` for GF(2).
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import TooLargeError

# Desk-scale guardrail: refuse silly-sized inputs instead of hanging.
MAX_ENTRIES = 10_000


def _check_size(rows: int, cols: int) -> None:
    if rows * cols > MAX_ENTRIES:
        raise TooLargeError(
            f"matrix with {rows * cols} entries exceeds the cap of {MAX_ENTRIES}"
        )


def int_matrix(rows) -> np.ndarray:
    """Build an exact integer matrix (dtype=object) from nested sequences."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("ragged rows")
    _check_size(nr, nc)
    m = np.empty((nr, nc), dtype=object)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
                raise ValueError(f"non-integer entry {x!r}")
            m[i, j] = int(x)
    return m


def fraction_matrix(rows) -> np.ndarray:
    rows = [[Fraction(x) for x in r] for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("ragged rows")
    _check_size(nr, nc)
    m = np.empty((nr, nc), dtype=object)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            m[i, j] = x
    return m


def fraction_vector(values) -> np.ndarray:
    v = np.empty(len(values), dtype=object)
    for i, x in enumerate(values):
        v[i] = Fraction(x)
    return v


def int_vector(values) -> np.ndarray:
    v = np.empty(len(values), dtype=object)
    for i, x in enumerate(values):
        v[i] = int(x)
    return v


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """Decomposition ``U @ M @ V == S`` of an integer matrix M.

    U and V are unimodular (determinant +-1) and S is diagonal with
    nonnegative entries forming a divisibility chain s_1 | s_2 | ...
    The nonzero diagonal entries are the elementary divisors of M.
    """

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(self.S.shape)
        return tuple(int(self.S[i, i]) for i in range(k))

    @property
    def elementary_divisors(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)


def smith_normal_form(m: np.ndarray) -> SmithForm:
    """Smith normal form with transforms, smallest-|pivot| selection."""
    nr, nc = m.shape
    s = np.empty((nr, nc), dtype=object)
    for i in range(nr):
        for j in range(nc):
            s[i, j] = int(m[i, j])
    u = identity_matrix(nr)
    v = identity_matrix(nc)

    def pivot_search(t: int):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                e = s[i, j]
                if e != 0 and (best is None or abs(e) < abs(s[best[0], best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        pos = pivot_search(t)
        if pos is None:
            break
        while True:
            i, j = pos
            if i != t:
                s[[t, i], :] = s[[i, t], :]
                u[[t, i], :] = u[[i, t], :]
            if j != t:
                s[:, [t, j]] = s[:, [j, t]]
                v[:, [t, j]] = v[:, [j, t]]
            if s[t, t] < 0:
                s[t, :] = -s[t, :]
                u[t, :] = -u[t, :]
            p = s[t, t]
            for r in range(t + 1, nr):
                q = s[r, t] // p
                if q:
                    s[r, :] -= q * s[t, :]
                    u[r, :] -= q * u[t, :]
            for c in range(t + 1, nc):
                q = s[t, c] // p
                if q:
                    s[:, c] -= q * s[:, t]
                    v[:, c] -= q * v[:, t]
            if any(s[r, t] != 0 for r in range(t + 1, nr)) or any(
                s[t, c] != 0 for c in range(t + 1, nc)
            ):
                # Leftover remainders are smaller than p; re-pivot on them.
                pos = pivot_search(t)
                continue
            off = None
            for i2 in range(t + 1, nr):
                for j2 in range(t + 1, nc):
                    if s[i2, j2] % p != 0:
                        off = i2
                        break
                if off is not None:
                    break
            if off is None:
                break
            # Pull a non-divisible row up so the next pivot divides everything.
            s[t, :] += s[off, :]
            u[t, :] += u[off, :]
            pos = pivot_search(t)
        t += 1
    return SmithForm(U=u, S=s, V=v)


# ---------------------------------------------------------------------------
# Determinants and rank
# ---------------------------------------------------------------------------


def det_int(m: np.ndarray) -> int:
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    nr, nc = m.shape
    if nr != nc:
        raise ValueError("determinant of a non-square matrix")
    n = nr
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in m.tolist()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def det_fraction(m: np.ndarray) -> Fraction:
    """Exact determinant of a matrix with Fraction/int entries."""
    nr, nc = m.shape
    if nr != nc:
        raise ValueError("determinant of a non-square matrix")
    n = nr
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in m.tolist()]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _rref(a: list[list[Fraction]]) -> list[int]:
    """In-place reduced row echelon form; returns the pivot columns."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return pivots


def _to_fraction_rows(m: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in m.tolist()]


def rank(m: np.ndarray) -> int:
    """Rank over the rationals."""
    a = _to_fraction_rows(m)
    return len(_rref(a))


def solve_rational(m: np.ndarray, b) -> np.ndarray | None:
    """Some rational solution of ``m @ x == b``, or None if inconsistent.

    Free variables are set to 0 under the fixed leftmost-pivot order, so
    the returned solution is deterministic.
    """
    nr, nc = m.shape
    b = list(b)
    if len(b) != nr:
        raise ValueError("right-hand side length mismatch")
    a = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(m.tolist())]
    if nr == 0:
        return fraction_vector([0] * nc)
    pivots = _rref(a)
    if pivots and pivots[-1] == nc:
        return None
    x = [Fraction(0)] * nc
    for r, c in enumerate(pivots):
        x[c] = a[r][nc]
    return fraction_vector(x)


def _normalize_primitive(vec: list[Fraction]) -> np.ndarray:
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    den = 1
    for x in vec:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), None)
    if lead is not None and lead < 0:
        ints = [-x for x in ints]
    return int_vector(ints)


def rational_kernel_basis(m: np.ndarray) -> list[np.ndarray]:
    """Basis of the right kernel over Q, as primitive integer vectors.

    Deterministic: one vector per free column of the RREF, normalized so
    the first nonzero coordinate is positive and the gcd of entries is 1.
    """
    nr, nc = m.shape
    a = _to_fraction_rows(m)
    pivots = _rref(a) if nr else []
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * nc
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -a[r][fc]
        basis.append(_normalize_primitive(vec))
    return basis


# ---------------------------------------------------------------------------
# GF(2)
# ---------------------------------------------------------------------------


def f2_matrix(rows) -> np.ndarray:
    """Build a GF(2) matrix (dtype=uint8) from nested sequences."""
    rows = [list(r) for r in rows]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if any(len(r) != nc for r in rows):
        raise ValueError("ragged rows")
    m = np.zeros((nr, nc), dtype=np.uint8)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            m[i, j] = int(x) & 1
    return m


def solve_f2(m: np.ndarray, b) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """Solve ``m @ x == b`` over GF(2).

    Returns (particular solution, kernel basis) or None if inconsistent.
    The particular solution sets free variables to 0.
    """
    nr, nc = m.shape
    b = np.asarray(b, dtype=np.uint8) & 1
    if b.shape != (nr,):
        raise ValueError("right-hand side length mismatch")
    a = np.zeros((nr, nc + 1), dtype=np.uint8)
    a[:, :nc] = m & 1
    a[:, nc] = b
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if a[i, c]), None)
        if pr is None:
            continue
        a[[r, pr]] = a[[pr, r]]
        for i in range(nr):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
        r += 1
    for i in range(r, nr):
        if a[i, nc]:
            return None
    x = np.zeros(nc, dtype=np.uint8)
    for row, c in enumerate(pivots):
        x[c] = a[row, nc]
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        vec = np.zeros(nc, dtype=np.uint8)
        vec[fc] = 1
        for row, pc in enumerate(pivots):
            vec[pc] = a[row, fc]
        basis.append(vec)
    return x, basis
