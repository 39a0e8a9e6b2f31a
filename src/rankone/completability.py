"""Decision layer: complex, real, finite, and unique completability.

A partial tensor with nonzero entries extends to a complex rank-one
tensor iff it satisfies the binomial equation of every circuit among its
observed indices; with zeros, the tensor must additionally be
zero-consistent and the test runs on the zero-stripped core.  Real
completability on top of that depends only on the signs of the entries
and reduces to solvability of a linear system over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalConsistencyError,
    NotComplexCompletableError,
    NotRealCompletableError,
)
from .linalg import solve_f2
from .segre import (
    Circuit,
    ObservedLattice,
    matroid_closure,
    observed_lattice,
)
from .tensor import (
    PartialTensor,
    StripResult,
    is_zero_consistent,
    strip_zero_slices,
)


def circuit_satisfied(values: dict, circuit: Circuit) -> bool:
    """Exact check of the binomial equation of one circuit."""
    lhs = rhs = 1
    for idx, u in zip(circuit.support, circuit.vector):
        if u > 0:
            lhs *= values[idx] ** u
        elif u < 0:
            rhs *= values[idx] ** (-u)
    return lhs == rhs


def violated_circuit(t: PartialTensor) -> Circuit | None:
    """First violated circuit among the observed indices, in order of size.

    The search stops at the first violated one; see ``iter_circuits``.
    """
    circuits = observed_lattice(t.domain, t.sorted_indices()).iter_circuits()
    return next((c for c in circuits if not circuit_satisfied(t.entries, c)), None)


def _core(t: PartialTensor) -> tuple[StripResult, ObservedLattice]:
    """The zero-stripped core of a zero-consistent t and its lattice."""
    sr = strip_zero_slices(t)
    return sr, observed_lattice(sr.tensor.domain, sr.tensor.sorted_indices())


def _complex_core(t: PartialTensor) -> tuple[StripResult, ObservedLattice] | None:
    """``_core(t)`` when t is complex-completable, else None."""
    if not is_zero_consistent(t):
        return None
    sr, lattice = _core(t)
    return (sr, lattice) if lattice.relations_hold(sr.tensor.entries) else None


def _witness(sr: StripResult, lattice: ObservedLattice) -> Circuit | None:
    """None when the core satisfies its kernel relations, else its first
    violated circuit labelled on the original grid."""
    if lattice.relations_hold(sr.tensor.entries):
        return None
    bad = violated_circuit(sr.tensor)
    if bad is None:
        raise InternalConsistencyError(
            "kernel lattice relation fails but every circuit is satisfied"
        )
    return Circuit(
        support=tuple(sr.to_original_index(i) for i in bad.support),
        vector=bad.vector,
    )


def is_complex_completable(t: PartialTensor) -> tuple[bool, Circuit | None]:
    """Whether t extends to a complex rank-one tensor.

    Must be zero-consistent, and the zero-stripped core must satisfy the
    binomial equation of every circuit among its observed indices.
    Returns (True, None) or (False, witness); the witness is a violated
    circuit (labels refer to the original index grid) when the failure is
    algebraic rather than a zero-consistency defect.  The decision is not
    capped; the witness search stops at the first violated circuit and
    gives up (TooLargeError) past ``segre.CIRCUIT_SEARCH_CAP`` subsets.
    """
    if not is_zero_consistent(t):
        return False, None
    witness = _witness(*_core(t))
    return witness is None, witness


def _sign_bits(t: PartialTensor) -> list[int]:
    return [1 if t.entries[i] < 0 else 0 for i in t.sorted_indices()]


def sign_system_matrix(t: PartialTensor):
    """GF(2) matrix of the sign constraints: rows = entries, cols = parameters.

    Shape is kept explicit so an empty observation set still reports every
    parameter as a free sign.
    """
    import numpy as np

    a_e = observed_lattice(t.domain, t.sorted_indices()).matrix
    nparams, nobs = a_e.shape
    m2 = np.zeros((nobs, nparams), dtype=np.uint8)
    for r in range(nobs):
        for c in range(nparams):
            m2[r, c] = int(a_e[c, r]) & 1
    return m2


def _real_core(core: PartialTensor, lattice: ObservedLattice) -> bool:
    """Real completability of a complex-completable zero-free core."""
    if not core.entries:
        return True
    result = solve_f2(sign_system_matrix(core), _sign_bits(core)) is not None
    if lattice.index % 2 == 1 and not result:
        raise InternalConsistencyError(
            "odd saturation index must imply real completability"
        )
    return result


def _unique(lattice: ObservedLattice, field: str) -> bool:
    """All core entries finitely determined, and the index 1 (complex) or
    odd (real)."""
    if len(lattice.closure) != lattice.domain.size:
        return False
    return lattice.index == 1 if field == "complex" else lattice.index % 2 == 1


def is_real_completable(t: PartialTensor) -> bool:
    """Whether a complex-completable t extends to a real rank-one tensor.

    Depends only on the signs of the entries: the parameter sign bits must
    solve the entry-sign system over GF(2).  Raises if t is not
    complex-completable.
    """
    core = _complex_core(t)
    if core is None:
        raise NotComplexCompletableError("tensor is not complex-completable")
    return _real_core(core[0].tensor, core[1])


def is_uniquely_completable(t: PartialTensor, field: str) -> bool:
    """Unique completability over ``field`` ("complex" or "real").

    Requires completability over the field.  Decided on the zero-stripped
    core: all core entries must be finitely determined and the column
    lattice saturated (complex) or of odd saturation index (real).
    Stripped zero slices are recompleted by zeros.
    """
    if field not in ("complex", "real"):
        raise ValueError("field must be 'complex' or 'real'")
    core = _complex_core(t)
    if core is None:
        raise NotComplexCompletableError("tensor is not complex-completable")
    sr, lattice = core
    if field == "real" and not _real_core(sr.tensor, lattice):
        raise NotRealCompletableError("tensor is not real-completable")
    return _unique(lattice, field)


@dataclass(frozen=True)
class CompletabilityReport:
    """Full decision record for one partial tensor.

    ``finitely_completable_entries`` is the matroid closure of the observed
    index set, i.e. the generically finitely determined entries; special
    tensors may determine more.  ``saturation_index`` refers to the
    zero-stripped core.  Fields are None when their precondition fails.
    """

    zero_consistent: bool
    complex_completable: bool
    real_completable: bool | None = None
    finitely_completable_entries: frozenset | None = None
    uniquely_completable_complex: bool | None = None
    uniquely_completable_real: bool | None = None
    saturation_index: int | None = None
    failing_circuit: Circuit | None = None


def analyze(t: PartialTensor) -> CompletabilityReport:
    """Run every decision and collect the results."""
    if not is_zero_consistent(t):
        return CompletabilityReport(zero_consistent=False, complex_completable=False)
    closure = matroid_closure(t.domain, t.sorted_indices())
    sr, lattice = _core(t)
    witness = _witness(sr, lattice)
    if witness is not None:
        return CompletabilityReport(
            zero_consistent=True,
            complex_completable=False,
            finitely_completable_entries=closure,
            uniquely_completable_complex=False,
            uniquely_completable_real=False,
            saturation_index=lattice.index,
            failing_circuit=witness,
        )
    real = _real_core(sr.tensor, lattice)
    return CompletabilityReport(
        zero_consistent=True,
        complex_completable=True,
        real_completable=real,
        finitely_completable_entries=closure,
        uniquely_completable_complex=_unique(lattice, "complex"),
        uniquely_completable_real=real and _unique(lattice, "real"),
        saturation_index=lattice.index,
    )
