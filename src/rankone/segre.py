"""Combinatorics of the rank-one parametrization: the 0/1 incidence matrix
of grid indices versus per-axis parameters, its restrictions, lattice
saturation indices, matroid closure, and circuits.

Everything that depends on an observed index set alone is owned by one
``ObservedLattice`` per set, shared through ``observed_lattice``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod

import numpy as np

from .errors import TooLargeError
from .linalg import SmithForm, _rref, rank, rational_kernel_basis, smith_normal_form
from .tensor import IndexDomain

# Listing every circuit is exponential in the number of observed entries.
CIRCUIT_COLUMN_CAP = 24
# The lazy circuit search gives up after this many subsets: more than any
# set of at most half as many columns has.
CIRCUIT_SEARCH_CAP = 1 << (CIRCUIT_COLUMN_CAP // 2)
# Lattices kept across calls: patterns recur with new values, and the bound
# keeps the memory of the kept transforms small.
LATTICE_CACHE_SIZE = 8


def parameter_index(domain: IndexDomain):
    """Row labels (axis j, level k) in order: axis-major, level-minor."""
    return [
        (j + 1, k) for j, d in enumerate(domain.dims) for k in range(1, d + 1)
    ]


def _row_offsets(domain: IndexDomain) -> list[int]:
    offs = [0]
    for d in domain.dims:
        offs.append(offs[-1] + d)
    return offs


def column_for_index(domain: IndexDomain, idx) -> np.ndarray:
    """The 0/1 column of an index tuple: one 1 per axis at row (j, i_j)."""
    return restricted_matrix(domain, [idx])[:, 0]


@dataclass(frozen=True)
class SegreMatrix:
    """The incidence matrix A with sum(d_j) rows and one column per grid index."""

    domain: IndexDomain
    matrix: np.ndarray
    columns: tuple[tuple[int, ...], ...]


def segre_matrix(domain: IndexDomain) -> SegreMatrix:
    cols = tuple(domain.tuples())
    return SegreMatrix(domain=domain, matrix=restricted_matrix(domain, cols), columns=cols)


def restricted_matrix(domain: IndexDomain, indices) -> np.ndarray:
    """A_E: the columns of the incidence matrix at the given indices (sorted)."""
    indices = sorted(indices)
    offs = _row_offsets(domain)
    m = np.zeros((offs[-1], len(indices)), dtype=object)
    m[:, :] = 0
    for c, idx in enumerate(indices):
        if idx not in domain:
            raise ValueError(f"index {idx} outside domain {domain.dims}")
        for j, i in enumerate(idx):
            m[offs[j] + i - 1, c] = 1
    return m


def saturation_index(a_e: np.ndarray) -> int:
    """Product of the nonzero Smith diagonal entries (1 for an empty matrix).

    Measures the index of the lattice spanned by the columns inside its
    saturation; 1 means saturated, odd governs real completability.
    """
    if a_e.shape[1] == 0:
        return 1
    return prod(smith_normal_form(a_e).elementary_divisors)


@dataclass(frozen=True)
class Circuit:
    """A minimal dependent set of observed indices with its kernel vector.

    The vector is primitive (gcd 1), first nonzero entry positive, and
    satisfies A_support @ vector == 0; it encodes the binomial equation
    prod T_e^{vector_e^+} == prod T_e^{vector_e^-} on the entries.
    """

    support: tuple[tuple[int, ...], ...]
    vector: tuple[int, ...]


def _candidate_subsets(m: np.ndarray):
    """The column subsets that may be circuits of m, in order of size, then
    of ``itertools.combinations``: a circuit has at most rank+1 columns."""
    for size in range(2, rank(m) + 2):
        yield from itertools.combinations(range(m.shape[1]), size)


def _circuit_vector(m: np.ndarray, combo) -> tuple[int, ...] | None:
    """The primitive kernel vector of the columns combo of m when they form
    a circuit (a one-dimensional kernel with full support), else None."""
    basis = rational_kernel_basis(m[:, list(combo)])
    if len(basis) == 1 and all(x != 0 for x in basis[0]):
        return tuple(int(x) for x in basis[0])
    return None


def circuits_of_matrix(m: np.ndarray) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All circuits of the column matroid of an integer matrix.

    Returns (column positions, primitive kernel vector) pairs.
    """
    if m.shape[1] > CIRCUIT_COLUMN_CAP:
        raise TooLargeError(
            f"{m.shape[1]} columns exceed the circuit enumeration cap of {CIRCUIT_COLUMN_CAP}"
        )
    found = ((combo, _circuit_vector(m, combo)) for combo in _candidate_subsets(m))
    return [(combo, vector) for combo, vector in found if vector is not None]


class ObservedLattice:
    """The lattice of the incidence columns A_E of one observed index set E.

    Owns every answer that depends on E alone, each computed on first use:
    one Smith normal form ``U @ A_E.T @ V == S`` (saturation index, kernel
    relations, magnitude exponents), one rational elimination of A_E
    (closure, entry exponents) and the circuits found so far.
    """

    def __init__(self, domain: IndexDomain, observed):
        self.domain = domain
        self.observed = tuple(sorted(observed))
        self.matrix = restricted_matrix(domain, self.observed)
        self._offsets = _row_offsets(domain)
        # (circuits found, subsets searched for them): replaced whole, so an
        # interrupted or concurrent search leaves a consistent prefix
        self._search_state: tuple[tuple[Circuit, ...], int] = ((), 0)

    @cached_property
    def smith(self) -> SmithForm:
        """SNF of A_E.T: the rows of U past the rank are a basis of the
        integer kernel of A_E."""
        return smith_normal_form(self.matrix.T)

    @cached_property
    def index(self) -> int:
        """Saturation index: the product of the elementary divisors."""
        return prod(self.smith.elementary_divisors)

    def relations_hold(self, values: dict) -> bool:
        """Whether nonzero values on E satisfy every kernel-lattice binomial.

        Equivalent to satisfying every circuit binomial, but polynomial
        time: it suffices that every relation of a lattice basis of the
        kernel evaluates to one.
        """
        snf = self.smith
        for row in snf.U[len(snf.elementary_divisors) :]:
            prod = 1
            for e, u in zip(self.observed, row):
                if u:
                    prod *= values[e] ** int(u)
            if prod != 1:
                return False
        return True

    @cached_property
    def _elimination(self) -> tuple[list[int], list[list[Fraction]], list[list[int]]]:
        """Reduced row echelon form of [A_E | I]: the pivot columns of A_E,
        and the transform M split at the rank.  On a column b in the span,
        the leading rows of M @ b are the values at the pivot columns of the
        solution with free coordinates zero; the trailing rows, scaled to
        integers, annihilate A_E and so test membership in the span."""
        nobs = len(self.observed)
        rows = self.matrix.tolist()
        a = [
            [Fraction(x) for x in row] + [Fraction(int(i == r)) for i in range(len(rows))]
            for r, row in enumerate(rows)
        ]
        pivots = [c for c in _rref(a) if c < nobs]
        m = [row[nobs:] for row in a]
        kernel = []
        for row in m[len(pivots) :]:
            den = lcm(*(x.denominator for x in row))
            kernel.append([int(x * den) for x in row])
        return pivots, m[: len(pivots)], kernel

    def _image(self, idx, rows) -> list:
        """The given rows of M applied to the column of idx: one entry per
        axis, so a sum of n entries of each row."""
        params = [off + i - 1 for off, i in zip(self._offsets, idx)]
        return [sum(row[p] for p in params) for row in rows]

    def exponents(self, idx) -> dict | None:
        """The rational solution of ``A_E @ x == column(idx)`` with free
        coordinates zero, as {observed index: value} on the pivot columns;
        None outside the closure."""
        pivots, lead, kernel = self._elimination
        if any(self._image(idx, kernel)):
            return None
        return {self.observed[c]: v for c, v in zip(pivots, self._image(idx, lead))}

    @cached_property
    def closure(self) -> frozenset:
        """The grid indices whose column lies in the rational span of A_E."""
        kernel = self._elimination[2]
        return frozenset(
            idx for idx in self.domain.tuples() if not any(self._image(idx, kernel))
        )

    def iter_circuits(self):
        """The circuits of E in the order of ``circuits_of_matrix``.  The
        search runs only as far as the caller reads, resumes where earlier
        calls stopped, and raises TooLargeError past ``CIRCUIT_SEARCH_CAP``
        subsets."""
        found, searched = self._search_state
        yield from found
        subsets = itertools.islice(_candidate_subsets(self.matrix), searched, None)
        for tried, combo in enumerate(subsets, searched + 1):
            if tried > CIRCUIT_SEARCH_CAP:
                raise TooLargeError(
                    f"no circuit found among the first {CIRCUIT_SEARCH_CAP} column subsets"
                )
            vector = _circuit_vector(self.matrix, combo)
            if vector is not None:
                circuit = Circuit(tuple(self.observed[c] for c in combo), vector)
                found += (circuit,)
                self._search_state = (found, tried)
                yield circuit


@lru_cache(maxsize=LATTICE_CACHE_SIZE)
def observed_lattice(domain: IndexDomain, observed: tuple) -> ObservedLattice:
    """The lattice of a tuple of observed indices, shared by recent callers."""
    return ObservedLattice(domain, observed)


def saturation_index_of(domain: IndexDomain, indices) -> int:
    return observed_lattice(domain, tuple(sorted(indices))).index


def matroid_closure(domain: IndexDomain, indices) -> frozenset:
    """cl(E): the grid indices whose column lies in the rational span of A_E.

    This is the closure in the column matroid of the incidence matrix; for
    a generic tensor these are exactly the finitely determined entries.
    Special (non-generic) tensors may determine more; that refinement is
    out of scope.
    """
    return observed_lattice(domain, tuple(sorted(indices))).closure


def circuits(domain: IndexDomain, indices) -> tuple[Circuit, ...]:
    """All circuits among the given observed indices, with index labels."""
    indices = sorted(indices)
    listed = circuits_of_matrix(restricted_matrix(domain, indices))
    return tuple(Circuit(tuple(indices[c] for c in combo), v) for combo, v in listed)
