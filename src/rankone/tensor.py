"""Index domains, partial tensors, and the zero combinatorics of rank one.

Indices are 1-based tuples throughout: entry (i_1, ..., i_n) of a tensor
on a d_1 x ... x d_n grid has 1 <= i_j <= d_j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotZeroConsistentError


@dataclass(frozen=True)
class IndexDomain:
    """A product grid [d_1] x ... x [d_n].

    Ordinary tensors have every d_j >= 2; reduced domains produced by
    zero-slice stripping may have axes with one or zero levels.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims:
            raise ValueError("need at least one axis")
        if any(d < 0 for d in dims):
            raise ValueError("negative axis length")
        object.__setattr__(self, "dims", dims)

    @property
    def n_axes(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        s = 1
        for d in self.dims:
            s *= d
        return s

    def tuples(self):
        """All index tuples in lexicographic order."""
        return itertools.product(*(range(1, d + 1) for d in self.dims))

    def __contains__(self, idx) -> bool:
        return (
            isinstance(idx, tuple)
            and len(idx) == len(self.dims)
            and all(1 <= i <= d for i, d in zip(idx, self.dims))
        )


@dataclass(frozen=True)
class Slice:
    """The observed entries with a fixed coordinate: axis ``axis``, level ``level``."""

    axis: int
    level: int
    indices: tuple[tuple[int, ...], ...]

    def contains(self, idx) -> bool:
        return idx[self.axis - 1] == self.level


@dataclass(frozen=True)
class PartialTensor:
    """Rational values on a subset E of the index grid.

    Immutable after construction; ``entries`` maps index tuples to Fractions.
    """

    domain: IndexDomain
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for idx, val in self.entries.items():
            idx = tuple(int(i) for i in idx)
            if idx not in self.domain:
                raise ValueError(f"index {idx} outside domain {self.domain.dims}")
            clean[idx] = Fraction(val)
        object.__setattr__(self, "entries", clean)

    @classmethod
    def from_entries(cls, dims, entries: dict) -> PartialTensor:
        return cls(IndexDomain(tuple(dims)), dict(entries))

    @classmethod
    def from_nested(cls, nested) -> PartialTensor:
        """Fully observed tensor from a nested list (matrix [[a,b],[c,d]], etc.)."""
        dims = []
        probe = nested
        while isinstance(probe, (list, tuple)):
            dims.append(len(probe))
            probe = probe[0]
        entries = {}

        def walk(node, prefix):
            if len(prefix) == len(dims):
                entries[tuple(prefix)] = Fraction(node)
                return
            for i, sub in enumerate(node, start=1):
                walk(sub, prefix + [i])

        walk(nested, [])
        return cls(IndexDomain(tuple(dims)), entries)

    @property
    def index_set(self) -> frozenset:
        return frozenset(self.entries)

    def sorted_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.entries))

    def restrict(self, indices) -> PartialTensor:
        return PartialTensor(self.domain, {i: self.entries[i] for i in indices})

    def slice_indices(self, axis: int, level: int) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(i for i in self.entries if i[axis - 1] == level))

    def __len__(self):
        return len(self.entries)


def rank_one_tensor(factors) -> PartialTensor:
    """The fully observed outer product of the given vectors."""
    factors = [[Fraction(x) for x in f] for f in factors]
    domain = IndexDomain(tuple(len(f) for f in factors))
    entries = {}
    for idx in domain.tuples():
        v = Fraction(1)
        for j, i in enumerate(idx):
            v *= factors[j][i - 1]
        entries[idx] = v
    return PartialTensor(domain, entries)


def exchange_minors_vanish(values: dict, equal) -> bool:
    """Whether every 2x2 minor of every flattening of a full tensor vanishes.

    Single-axis exchanges generate all of them: for indices u, v and an
    axis j where they differ, swapping coordinate j gives u', v', and
    ``equal(T[u], T[v], T[u'], T[v'])`` must test ``T[u]*T[v] == T[u']*T[v']``.
    """
    idxs = list(values)
    for a, u in enumerate(idxs):
        for v in idxs[a + 1 :]:
            for j in range(len(u)):
                if u[j] == v[j]:
                    continue
                u2 = u[:j] + (v[j],) + u[j + 1 :]
                v2 = v[:j] + (u[j],) + v[j + 1 :]
                if not equal(values[u], values[v], values[u2], values[v2]):
                    return False
    return True


def is_rank_one(t: PartialTensor) -> bool:
    """Exact test that a fully observed tensor has rank at most one."""
    if len(t) != t.domain.size:
        raise ValueError("rank test needs a fully observed tensor")
    return exchange_minors_vanish(t.entries, lambda a, b, c, d: a * b == c * d)


def is_zero_consistent(t: PartialTensor) -> bool:
    """True iff every zero entry lies in an all-zero maximal slice."""
    for idx, val in t.entries.items():
        if val != 0:
            continue
        covered = False
        for j in range(t.domain.n_axes):
            if all(v == 0 for i, v in t.entries.items() if i[j] == idx[j]):
                covered = True
                break
        if not covered:
            return False
    return True


@dataclass(frozen=True)
class StripResult:
    """Outcome of removing all-zero maximal slices from a partial tensor.

    ``tensor`` lives on a reduced, relabeled domain; ``kept_levels[j]``
    lists the original levels of axis j+1 that survive, in order, so
    reduced level k corresponds to original level ``kept_levels[j][k-1]``.
    Axes reduced to a single level are flagged in ``collapsed_axes``.
    """

    tensor: PartialTensor
    removed: tuple[Slice, ...]
    kept_levels: tuple[tuple[int, ...], ...]
    original_domain: IndexDomain

    @property
    def collapsed_axes(self) -> tuple[int, ...]:
        return tuple(
            j + 1 for j, levels in enumerate(self.kept_levels) if len(levels) <= 1
        )

    def to_original_index(self, idx) -> tuple[int, ...]:
        return tuple(self.kept_levels[j][i - 1] for j, i in enumerate(idx))

    def to_reduced_index(self, idx):
        """Reduced index tuple, or None if idx touches a removed slice."""
        out = []
        for j, i in enumerate(idx):
            try:
                out.append(self.kept_levels[j].index(i) + 1)
            except ValueError:
                return None
        return tuple(out)

    def reinsert(self, reduced_values: dict) -> dict:
        """Extend values on the reduced grid to the original grid by zeros."""
        out = {}
        for idx in self.original_domain.tuples():
            r = self.to_reduced_index(idx)
            out[idx] = Fraction(0) if r is None else reduced_values[r]
        return out


def strip_zero_slices(t: PartialTensor) -> StripResult:
    """Remove all-zero maximal slices greedily (axis order, then level order).

    Requires zero consistency; afterwards the reduced tensor has no zero
    entries, and reinserting zero slices on the removed levels turns any
    completion of the reduced tensor into a completion of the original.
    """
    levels = [list(range(1, d + 1)) for d in t.domain.dims]
    entries = dict(t.entries)
    removed: list[Slice] = []
    while any(v == 0 for v in entries.values()):
        found = None
        for j in range(t.domain.n_axes):
            for k in levels[j]:
                members = tuple(sorted(i for i in entries if i[j] == k))
                if members and all(entries[i] == 0 for i in members):
                    found = (j, k, members)
                    break
            if found:
                break
        if found is None:
            raise NotZeroConsistentError(
                "a zero entry is not covered by an all-zero maximal slice"
            )
        j, k, members = found
        removed.append(Slice(axis=j + 1, level=k, indices=members))
        levels[j].remove(k)
        for i in members:
            del entries[i]
    kept = tuple(tuple(l) for l in levels)
    reduced_domain = IndexDomain(tuple(len(l) for l in levels))
    relabel = [{orig: new + 1 for new, orig in enumerate(l)} for l in levels]
    reduced_entries = {
        tuple(relabel[j][i] for j, i in enumerate(idx)): v for idx, v in entries.items()
    }
    return StripResult(
        tensor=PartialTensor(reduced_domain, reduced_entries),
        removed=tuple(removed),
        kept_levels=kept,
        original_domain=t.domain,
    )
