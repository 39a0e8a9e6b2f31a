"""Exact arithmetic the benchmark uses to generate inputs and check outputs.

Nothing here imports rankone: every answer the benchmark accepts is
recomputed by this module (or by sympy for the cubic root count) along a
route that shares no code with the package under test.
"""

from __future__ import annotations

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd


def grid(dims):
    """All 1-based index tuples of a d_1 x ... x d_n grid, in lexicographic order."""
    return list(itertools.product(*(range(1, d + 1) for d in dims)))


def incidence_column(dims, idx) -> list[int]:
    """0/1 column of an index: one 1 per axis, at row (axis j, level i_j)."""
    col = [0] * sum(dims)
    off = 0
    for d, i in zip(dims, idx):
        col[off + i - 1] = 1
        off += d
    return col


class Span:
    """Rational column span, kept as rows in reduced echelon form."""

    def __init__(self, vectors=()):
        self.rows: list[tuple[int, list[Fraction]]] = []
        for v in vectors:
            self.add(v)

    def _reduce(self, v) -> list[Fraction]:
        v = [Fraction(x) for x in v]
        for piv, row in self.rows:
            c = v[piv]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def add(self, v) -> bool:
        """Add v; True when it was independent of the span so far."""
        r = self._reduce(v)
        piv = next((i for i, x in enumerate(r) if x), None)
        if piv is None:
            return False
        p = r[piv]
        r = [x / p for x in r]
        self.rows = [
            (q, [a - row[piv] * b for a, b in zip(row, r)] if row[piv] else row)
            for q, row in self.rows
        ]
        self.rows.append((piv, r))
        return True

    def contains(self, v) -> bool:
        return not any(self._reduce(v))

    @property
    def dim(self) -> int:
        return len(self.rows)


def closure(dims, observed) -> frozenset:
    """Cells whose incidence column lies in the rational span of the observed ones."""
    span = Span(incidence_column(dims, e) for e in observed)
    return frozenset(c for c in grid(dims) if span.contains(incidence_column(dims, c)))


def elementary_divisors(matrix) -> list[int]:
    """Nonzero Smith diagonal of an integer matrix (no transforms kept)."""
    a = [list(map(int, row)) for row in matrix]
    out = []
    while a and a[0]:
        cells = [(abs(x), i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x]
        if not cells:
            break
        _, pi, pj = min(cells)
        while True:
            a[0], a[pi] = a[pi], a[0]
            for row in a:
                row[0], row[pj] = row[pj], row[0]
            if a[0][0] < 0:
                a[0] = [-x for x in a[0]]
            p = a[0][0]
            for i in range(1, len(a)):
                q = a[i][0] // p
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            for j in range(1, len(a[0])):
                q = a[0][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[0]
            rest = [(abs(a[i][0]), i, 0) for i in range(1, len(a)) if a[i][0]]
            rest += [(abs(a[0][j]), 0, j) for j in range(1, len(a[0])) if a[0][j]]
            if rest:
                # Remainders are smaller than p: pivot on the smallest.
                _, pi, pj = min(rest)
                continue
            bad = next(
                (i for i in range(1, len(a)) if any(x % p for x in a[i][1:])), None
            )
            if bad is None:
                break
            a[0] = [x + y for x, y in zip(a[0], a[bad])]
            pi, pj = 0, 0
        out.append(p)
        a = [row[1:] for row in a[1:]]
    return out


def saturation_index(dims, observed) -> int:
    """Product of the elementary divisors of the observed incidence columns."""
    if not observed:
        return 1
    cols = [incidence_column(dims, e) for e in observed]
    rows = [list(r) for r in zip(*cols)]
    out = 1
    for d in elementary_divisors(rows):
        out *= d
    return out


def gf2_solvable(rows, rhs) -> bool:
    """Whether the GF(2) system with bitmask rows has a solution for rhs bits."""
    basis: dict[int, tuple[int, int]] = {}
    for r, b in zip(rows, rhs):
        while r:
            top = r.bit_length() - 1
            if top not in basis:
                basis[top] = (r, b)
                break
            r2, b2 = basis[top]
            r ^= r2
            b ^= b2
        else:
            if b:
                return False
    return True


def incidence_mask(dims, idx) -> int:
    mask = 0
    for pos, x in enumerate(incidence_column(dims, idx)):
        if x:
            mask |= 1 << pos
    return mask


def real_sign_solvable(dims, entries: dict) -> bool:
    """Whether the entry signs equal products of parameter signs."""
    items = [(e, v) for e, v in entries.items() if v != 0]
    return gf2_solvable(
        [incidence_mask(dims, e) for e, _ in items], [1 if v < 0 else 0 for _, v in items]
    )


def greedy_strip(dims, entries: dict):
    """Remove all-zero observed slices, first by axis then by level.

    Returns (reduced dims, nonzero entries relabelled on the reduced grid).
    """
    levels = [list(range(1, d + 1)) for d in dims]
    live = dict(entries)
    while any(v == 0 for v in live.values()):
        found = None
        for j in range(len(dims)):
            for k in levels[j]:
                members = [e for e in live if e[j] == k]
                if members and all(live[e] == 0 for e in members):
                    found = (j, k, members)
                    break
            if found:
                break
        if found is None:
            raise ValueError("zero entry outside every all-zero slice")
        j, k, members = found
        levels[j].remove(k)
        for e in members:
            del live[e]
    relabel = [{old: new for new, old in enumerate(lv, start=1)} for lv in levels]
    core = {tuple(relabel[j][i] for j, i in enumerate(e)): v for e, v in live.items()}
    return tuple(len(lv) for lv in levels), core


def bipartite_closure(dims, observed) -> frozenset:
    """Matrix closure: cells whose row and column share a connected component."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in observed:
        parent[find(("r", i))] = find(("c", j))
    return frozenset(
        (i, j)
        for i in range(1, dims[0] + 1)
        for j in range(1, dims[1] + 1)
        if find(("r", i)) == find(("c", j))
    )


def integer_kernel_relation_holds(dims, support, vector) -> bool:
    """Whether the incidence columns of support times vector give zero."""
    total = [0] * sum(dims)
    for e, u in zip(support, vector):
        for pos, x in enumerate(incidence_column(dims, e)):
            total[pos] += x * u
    return not any(total)


def binomial_holds(values: dict, support, vector) -> bool:
    lhs = rhs = Fraction(1)
    for e, u in zip(support, vector):
        if u > 0:
            lhs *= values[e] ** u
        else:
            rhs *= values[e] ** (-u)
    return lhs == rhs


def monomial_power(exponents: dict, base: dict, m: int) -> Fraction:
    """(prod |base[e]|**q_e) ** m for an m clearing every exponent."""
    out = Fraction(1)
    for e, q in exponents.items():
        k = Fraction(q) * m
        if k.denominator != 1:
            raise ValueError("exponent not cleared")
        out *= abs(Fraction(base[e])) ** int(k)
    return out


def clearing_multiple(*exponent_dicts) -> int:
    m = 1
    for exps in exponent_dicts:
        for q in exps.values():
            den = Fraction(q).denominator
            m = m * den // gcd(m, den)
    return m


def root_sum_minus_one(x, n: int, digits: int = 60) -> Decimal:
    """sum x_i ** (1/n) - 1 to about ``digits`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        total = Decimal(0)
        for v in x:
            v = Fraction(v)
            if v:
                d = Decimal(v.numerator) / Decimal(v.denominator)
                total += (d.ln() / n).exp()
        return total - 1


def jacobian_determinant(dims, observed, point: dict) -> Fraction:
    """det of d(coordinates)/d(theta) for simplex-parametrised coordinates.

    Axis j has free parameters theta_(j,1..d_j-1); level d_j carries
    1 - sum of them.  Coordinate e is the product of its per-axis forms.
    """
    forms = {}
    for j, d in enumerate(dims, start=1):
        for k in range(1, d):
            forms[(j, k)] = point[(j, k)]
        forms[(j, d)] = 1 - sum(point[(j, k)] for k in range(1, d))
    params = [(j, k) for j, d in enumerate(dims, start=1) for k in range(1, d)]
    rows = []
    for e in observed:
        row = []
        for j, k in params:
            level = e[j - 1]
            slope = 1 if level == k else (-1 if level == dims[j - 1] else 0)
            val = Fraction(slope)
            if slope:
                for m, i in enumerate(e, start=1):
                    if m != j:
                        val *= forms[(m, i)]
            row.append(val)
        rows.append(row)
    return fraction_det(rows)


def fraction_det(rows) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det
