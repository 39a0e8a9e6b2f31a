"""Exact enumeration of real rank-one completions.

Completed entries are kept symbolic as signed monomials
``sign * prod |T_e|^q_e`` with rational exponents q_e over the observed
entries; numeric rendering happens only at the output boundary.  All
consistency checks (circuit equations, flattening minors, restriction
identities) are done exactly by exponent arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

import numpy as np

from .completability import _complex_core, _real_core, sign_system_matrix
from .errors import (
    CosetTooLargeError,
    NotCompletableError,
    NotInClosureError,
    NotRealCompletableError,
)
from .linalg import solve_f2
from .segre import ObservedLattice, column_for_index, parameter_index
from .tensor import PartialTensor, exchange_minors_vanish

COSET_DIMENSION_CAP = 20


def int_nthroot(x: int, n: int) -> tuple[int, bool]:
    """(floor(x**(1/n)), exact?) for x >= 0, n >= 1.  Pure integer Newton."""
    if n <= 0:
        raise ValueError("n must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x in (0, 1) or n == 1:
        return x, True
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r, r**n == x


def fraction_nthroot(q: Fraction, n: int) -> Fraction | None:
    """Exact n-th root of a nonnegative rational, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    rn, okn = int_nthroot(q.numerator, n)
    rd, okd = int_nthroot(q.denominator, n)
    if okn and okd:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class SignedMonomial:
    """An exact value ``sign * prod |base[e]|**exponents[e]``.

    The referenced base entries must be nonzero, so the value is a nonzero
    real.  Exponents are rational; their denominators divide the relevant
    elementary divisor of the observed index set.
    """

    sign: int
    exponents: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        clean = {}
        for idx, q in self.exponents.items():
            q = Fraction(q)
            if q != 0:
                clean[tuple(idx)] = q
        object.__setattr__(self, "exponents", clean)

    @classmethod
    def observed(cls, idx, value) -> SignedMonomial:
        """The monomial representing an observed entry itself."""
        value = Fraction(value)
        if value == 0:
            raise ValueError("observed entry must be nonzero")
        return cls(sign=1 if value > 0 else -1, exponents={tuple(idx): Fraction(1)})

    def __mul__(self, other: SignedMonomial) -> SignedMonomial:
        exps = dict(self.exponents)
        for idx, q in other.exponents.items():
            exps[idx] = exps.get(idx, Fraction(0)) + q
        return SignedMonomial(self.sign * other.sign, exps)

    def _common_denominator(self) -> int:
        m = 1
        for q in self.exponents.values():
            m = lcm(m, q.denominator)
        return m

    def magnitude_power(self, base: dict, m: int) -> Fraction:
        """prod |base[e]|**(m * q_e), exact (requires m * q_e integral)."""
        out = Fraction(1)
        for idx, q in self.exponents.items():
            k = q * m
            if k.denominator != 1:
                raise ValueError("m does not clear the exponents")
            out *= abs(Fraction(base[idx])) ** int(k)
        return out

    def as_fraction(self, base: dict) -> Fraction | None:
        """Exact rational value, or None when the value is irrational."""
        m = self._common_denominator()
        mag = fraction_nthroot(self.magnitude_power(base, m), m)
        if mag is None:
            return None
        return self.sign * mag

    def value_equals(self, other: SignedMonomial, base: dict) -> bool:
        """Exact equality of values with respect to the same base entries."""
        if self.sign != other.sign:
            return False
        diff = dict(self.exponents)
        for idx, q in other.exponents.items():
            diff[idx] = diff.get(idx, Fraction(0)) - q
        probe = SignedMonomial(1, diff)
        m = probe._common_denominator()
        return probe.magnitude_power(base, m) == 1

    def equals_fraction(self, value, base: dict) -> bool:
        value = Fraction(value)
        if value == 0:
            return False
        if self.sign != (1 if value > 0 else -1):
            return False
        m = self._common_denominator()
        return self.magnitude_power(base, m) == abs(value) ** m

    def decimal(self, base: dict, digits: int = 12) -> str:
        """Decimal rendering (display only), correct to the last digit +-1."""
        m = self._common_denominator()
        c = self.magnitude_power(base, m)
        scaled = c.numerator * 10 ** (digits * m) // c.denominator
        r, _ = int_nthroot(scaled, m)
        s = str(r).rjust(digits + 1, "0")
        out = s[:-digits] + "." + s[-digits:] if digits else s
        return out if self.sign > 0 else "-" + out

    def to_text(self) -> str:
        if not self.exponents:
            return "1" if self.sign > 0 else "-1"
        parts = []
        for idx, q in sorted(self.exponents.items()):
            label = "T[" + ",".join(str(i) for i in idx) + "]"
            parts.append(f"|{label}|" + ("" if q == 1 else f"^({q})"))
        body = " * ".join(parts)
        return body if self.sign > 0 else f"- {body}"


def _zero(x) -> bool:
    return isinstance(x, Fraction) and x == 0


def _pair_product_equal(a, b, c, d, base: dict) -> bool:
    """Exact test ``a*b == c*d`` where each factor is a SignedMonomial or 0."""
    left_zero = _zero(a) or _zero(b)
    right_zero = _zero(c) or _zero(d)
    if left_zero or right_zero:
        return left_zero and right_zero
    return (a * b).value_equals(c * d, base)


@dataclass(frozen=True)
class Completion:
    """One real rank-one completion of a partial tensor.

    ``values`` assigns a SignedMonomial to every finitely determined but
    unobserved entry; ``free_entries`` vary continuously; ``witness`` is a
    full tensor (free multiplicative coordinates fixed to 1, stripped zero
    slices refilled with exact zeros).  ``base`` holds the observed
    entries the monomials refer to.
    """

    values: dict
    free_entries: frozenset
    witness: dict
    base: dict

    def witness_as_fractions(self) -> dict | None:
        """The witness as exact rationals, or None if some entry is irrational."""
        out = {}
        for idx, v in self.witness.items():
            if _zero(v):
                out[idx] = Fraction(0)
                continue
            f = v.as_fraction(self.base)
            if f is None:
                return None
            out[idx] = f
        return out

    def restriction_matches(self) -> bool:
        """Whether the witness reproduces every observed entry exactly."""
        return all(
            not _zero(self.witness[idx]) and self.witness[idx].equals_fraction(v, self.base)
            if v != 0
            else _zero(self.witness[idx])
            for idx, v in self.base.items()
        )


def witness_is_rank_one(completion: Completion, dims) -> bool:
    """Exact all-flattenings 2x2-minor test on a completion witness.

    Rational witnesses take a plain Fraction route; irrational ones are
    compared symbolically, still exactly.
    """
    fr = completion.witness_as_fractions()
    if fr is not None:
        return exchange_minors_vanish(fr, lambda a, b, c, d: a * b == c * d)
    return exchange_minors_vanish(
        completion.witness,
        lambda a, b, c, d: _pair_product_equal(a, b, c, d, completion.base),
    )


def _require_stripped(t: PartialTensor) -> None:
    if any(v == 0 for v in t.entries.values()):
        raise NotCompletableError(
            "tensor has zero entries; strip zero slices first"
        )


def _achievable_sign_parities(core: PartialTensor, target_idx) -> set[int]:
    """Parities (0 positive, 1 negative) the target entry can take jointly
    with the observed signs, over all real rank-one extensions."""
    params = parameter_index(core.domain)
    observed = core.sorted_indices()
    m2 = sign_system_matrix(core)
    bits = [1 if core.entries[i] < 0 else 0 for i in observed]
    sol = solve_f2(m2, bits)
    if sol is None:
        return set()
    sigma0, kernel = sol
    col = np.asarray(
        [int(x) & 1 for x in column_for_index(core.domain, target_idx)],
        dtype=np.uint8,
    )
    assert len(col) == len(params)
    base_parity = int(col @ sigma0) & 1
    if any(int(col @ k) & 1 for k in kernel):
        return {0, 1}
    return {base_parity}


def complete_entry(t: PartialTensor, idx) -> list[SignedMonomial]:
    """All real values the entry ``idx`` takes in rank-one completions of t.

    t must be complex-completable with no zero entries.  The entry must be
    finitely determined (in the closure of the observed set); the list is
    empty when no real completion assigns it a value, has one element when
    the clearing exponent is odd, and up to two otherwise.
    """
    _require_stripped(t)
    idx = tuple(idx)
    if idx not in t.domain:
        raise ValueError(f"index {idx} outside domain {t.domain.dims}")
    core = _complex_core(t)
    if core is None:
        raise NotCompletableError("tensor is not complex-completable")
    if idx in t.entries:
        return [SignedMonomial.observed(idx, t.entries[idx])]
    exps = core[1].exponents(idx)
    if exps is None:
        raise NotInClosureError(f"entry {idx} is not finitely determined")
    m = 1
    for q in exps.values():
        m = lcm(m, q.denominator)
    signed = Fraction(1)
    for e, q in exps.items():
        signed *= t.entries[e] ** int(q * m)
    achievable = _achievable_sign_parities(t, idx)
    if m % 2 == 1:
        cands = [SignedMonomial(1 if signed > 0 else -1, exps)]
    elif signed < 0:
        cands = []
    else:
        cands = [SignedMonomial(1, exps), SignedMonomial(-1, exps)]
    return [c for c in cands if (0 if c.sign > 0 else 1) in achievable]


def _magnitude_exponents(lattice: ObservedLattice):
    """Per-parameter exponent dicts q with prod |T_e|**q solving the
    magnitude system exactly; free multiplicative coordinates are 1."""
    params = parameter_index(lattice.domain)
    observed = lattice.observed
    snf = lattice.smith
    diag = snf.diagonal
    nrank = sum(1 for d in diag if d != 0)
    out = {}
    for k, p in enumerate(params):
        exps: dict = {}
        for i in range(nrank):
            v = Fraction(int(snf.V[k, i]), diag[i])
            if v == 0:
                continue
            for e_pos, e in enumerate(observed):
                u = int(snf.U[i, e_pos])
                if u:
                    exps[e] = exps.get(e, Fraction(0)) + v * u
        out[p] = {e: q for e, q in exps.items() if q != 0}
    return out


def enumerate_real_completions(t: PartialTensor) -> list[Completion]:
    """All distinct real rank-one completions of t.

    Distinct means distinct value assignments on the finitely determined
    entries; sign choices are enumerated as a coset of the GF(2) kernel
    and deduplicated by the induced sign vector.  Each completion carries
    a witness full tensor over the original grid (zero slices refilled
    with zeros, free multiplicative coordinates fixed to 1).
    """
    found = _complex_core(t)
    if found is None or not _real_core(found[0].tensor, found[1]):
        raise NotRealCompletableError("tensor is not real-completable")
    sr, lattice = found
    core = sr.tensor
    params = parameter_index(core.domain)
    observed = core.sorted_indices()
    m2 = sign_system_matrix(core)
    bits = [1 if core.entries[i] < 0 else 0 for i in observed]
    sol = solve_f2(m2, bits)
    assert sol is not None
    sigma0, kernel = sol
    if len(kernel) > COSET_DIMENSION_CAP:
        raise CosetTooLargeError(
            f"sign coset dimension {len(kernel)} exceeds cap {COSET_DIMENSION_CAP}"
        )

    closure = lattice.closure
    unknowns = sorted(closure - set(observed))
    lam = {i: lattice.exponents(i) for i in unknowns}
    mag = _magnitude_exponents(lattice)
    base = {sr.to_original_index(e): core.entries[e] for e in observed}
    offs = {}
    pos = 0
    for p in params:
        offs[p] = pos
        pos += 1

    def parity_of(idx, sigma) -> int:
        return sum(int(sigma[offs[(j + 1, i)]]) for j, i in enumerate(idx)) & 1

    reduced_grid = list(core.domain.tuples())
    free = frozenset(
        sr.to_original_index(i) for i in reduced_grid if i not in closure
    )

    chosen: dict = {}
    for picks in itertools.product([0, 1], repeat=len(kernel)):
        sigma = sigma0.copy()
        for bit, k in zip(picks, kernel):
            if bit:
                sigma ^= k
        key = tuple(parity_of(i, sigma) for i in unknowns)
        if key not in chosen:
            chosen[key] = sigma

    completions = []
    for key in sorted(chosen):
        sigma = chosen[key]
        values = {}
        for i, par in zip(unknowns, key):
            values[sr.to_original_index(i)] = SignedMonomial(
                -1 if par else 1,
                {sr.to_original_index(e): q for e, q in lam[i].items()},
            )
        witness: dict = {}
        for r in reduced_grid:
            exps: dict = {}
            for j, i in enumerate(r):
                for e, q in mag[(j + 1, i)].items():
                    oe = sr.to_original_index(e)
                    exps[oe] = exps.get(oe, Fraction(0)) + q
            sign = -1 if parity_of(r, sigma) else 1
            witness[sr.to_original_index(r)] = SignedMonomial(sign, exps)
        for idx in sr.original_domain.tuples():
            if idx not in witness:
                witness[idx] = Fraction(0)
        completions.append(
            Completion(values=values, free_entries=free, witness=witness, base=base)
        )
    return completions


def count_complex_completions(t: PartialTensor) -> int:
    """Number of complex parameter preimages: the product of the elementary
    divisors of the observed incidence columns (after zero stripping)."""
    core = _complex_core(t)
    if core is None:
        raise NotCompletableError("tensor is not complex-completable")
    return core[1].index
