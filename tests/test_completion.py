import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.completion import (
    SignedMonomial,
    complete_entry,
    count_complex_completions,
    enumerate_real_completions,
    fraction_nthroot,
    int_nthroot,
    witness_is_rank_one,
)
from rankone.errors import (
    NotCompletableError,
    NotInClosureError,
    NotRealCompletableError,
)
from rankone.segre import matroid_closure
from rankone.tensor import IndexDomain, PartialTensor, rank_one_tensor

from .oracles import incidence_rows, rand_fraction, rref

FIELD_DEP_POSITIONS = [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)]


def test_int_nthroot():
    assert int_nthroot(0, 3) == (0, True)
    assert int_nthroot(26, 3) == (2, False)
    assert int_nthroot(27, 3) == (3, True)
    assert int_nthroot(10**30, 2) == (10**15, True)
    big = 7**40
    assert int_nthroot(big, 5) == (7**8, True)
    assert int_nthroot(big - 1, 5) == (7**8 - 1, False)


def test_fraction_nthroot():
    assert fraction_nthroot(Fraction(27, 8), 3) == Fraction(3, 2)
    assert fraction_nthroot(Fraction(2), 2) is None


def test_signed_monomial_values():
    base = {(1, 1): Fraction(2), (1, 2): Fraction(-3)}
    m = SignedMonomial(-1, {(1, 1): Fraction(1), (1, 2): Fraction(2)})
    assert m.as_fraction(base) == -18
    assert m.equals_fraction(-18, base)
    assert not m.equals_fraction(18, base)
    half = SignedMonomial(1, {(1, 1): Fraction(1, 2)})
    assert half.as_fraction(base) is None
    assert half.decimal(base, 6) == "1.414213"
    assert (half * half).as_fraction(base) == 2


def test_complete_entry_determinant():
    t = PartialTensor.from_entries((2, 2), {(1, 1): 2, (1, 2): 3, (2, 1): 4})
    vals = complete_entry(t, (2, 2))
    assert len(vals) == 1
    assert vals[0].as_fraction(t.entries) == 6
    assert vals[0].exponents == {
        (1, 1): Fraction(-1),
        (1, 2): Fraction(1),
        (2, 1): Fraction(1),
    }


def test_complete_entry_own_index():
    t = PartialTensor.from_entries((2, 2), {(1, 1): -2, (1, 2): 3, (2, 1): 4})
    vals = complete_entry(t, (1, 1))
    assert len(vals) == 1
    assert vals[0].sign == -1
    assert vals[0].exponents == {(1, 1): Fraction(1)}


def test_complete_entry_two_branches():
    t = PartialTensor.from_entries((2, 2, 2), dict(zip(FIELD_DEP_POSITIONS, [1, 1, 1, 1])))
    vals = complete_entry(t, (1, 1, 1))
    assert sorted(v.as_fraction(t.entries) for v in vals) == [-1, 1]


def test_complete_entry_sign_filter():
    # complex- but not real-completable: candidate corner values must be
    # rejected as jointly inconsistent
    t = PartialTensor.from_entries((2, 2, 2), dict(zip(FIELD_DEP_POSITIONS, [1, 1, 1, -1])))
    assert complete_entry(t, (1, 1, 1)) == []


def test_complete_entry_errors():
    anti = PartialTensor.from_entries((2, 2, 2), {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1})
    with pytest.raises(NotInClosureError):
        complete_entry(anti, (1, 1, 1))
    with pytest.raises(NotCompletableError):
        complete_entry(PartialTensor.from_nested([[1, 2], [3, 5]]), (2, 2))
    with pytest.raises(NotCompletableError):
        complete_entry(PartialTensor.from_nested([[0, 0], [3, 5]]), (2, 2))


def test_enumerate_unique_matrix():
    t = PartialTensor.from_entries((2, 2), {(1, 1): 2, (1, 2): 3, (2, 1): 4})
    comps = enumerate_real_completions(t)
    assert len(comps) == 1
    c = comps[0]
    assert c.values[(2, 2)].as_fraction(c.base) == 6
    assert c.free_entries == frozenset()
    assert c.restriction_matches()
    assert witness_is_rank_one(c, (2, 2))
    assert c.witness_as_fractions() == {
        (1, 1): 2,
        (1, 2): 3,
        (2, 1): 4,
        (2, 2): 6,
    }


def test_enumerate_two_completions():
    t = PartialTensor.from_entries((2, 2, 2), dict(zip(FIELD_DEP_POSITIONS, [1, 1, 1, 1])))
    comps = enumerate_real_completions(t)
    assert len(comps) == 2
    vals = sorted(c.values[(1, 1, 1)].as_fraction(c.base) for c in comps)
    assert vals == [-1, 1]
    for c in comps:
        assert c.restriction_matches()
        assert witness_is_rank_one(c, (2, 2, 2))


def test_enumerate_full_tensor():
    full = rank_one_tensor([[1, 2], [3, 4]])
    comps = enumerate_real_completions(full)
    assert len(comps) == 1
    assert comps[0].values == {}
    assert comps[0].free_entries == frozenset()


def test_enumerate_irrational_witness():
    t = PartialTensor.from_entries((2, 2, 2), dict(zip(FIELD_DEP_POSITIONS, [1, 1, 1, 2])))
    comps = enumerate_real_completions(t)
    assert len(comps) == 2
    for c in comps:
        assert c.witness_as_fractions() is None
        assert c.restriction_matches()
        assert witness_is_rank_one(c, (2, 2, 2))
    decs = sorted(c.witness[(1, 1, 1)].decimal(c.base, 6) for c in comps)
    assert decs == ["-0.707106", "0.707106"]


def test_enumerate_requires_real():
    t = PartialTensor.from_entries((2, 2, 2), dict(zip(FIELD_DEP_POSITIONS, [1, 1, 1, -1])))
    with pytest.raises(NotRealCompletableError):
        enumerate_real_completions(t)


def test_enumerate_with_zero_slice():
    t = PartialTensor.from_entries((2, 2), {(1, 1): 0, (1, 2): 0, (2, 1): 3, (2, 2): 6})
    comps = enumerate_real_completions(t)
    assert len(comps) == 1
    c = comps[0]
    assert c.witness[(1, 1)] == 0 and c.witness[(1, 2)] == 0
    assert c.witness[(2, 1)].equals_fraction(3, c.base)
    assert witness_is_rank_one(c, (2, 2))


def test_count_complex_completions():
    t = PartialTensor.from_entries((2, 2, 2), dict(zip(FIELD_DEP_POSITIONS, [1, 1, 1, 2])))
    assert count_complex_completions(t) == 2
    m = PartialTensor.from_entries((2, 2), {(1, 1): 2, (1, 2): 3, (2, 1): 4})
    assert count_complex_completions(m) == 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_recovery_of_random_rank_one(seed):
    # restrict a random rank-one tensor, enumerate, and demand the original
    # appear among the completions with an exactly matching closure patch
    rng = random.Random(seed)
    dims = tuple(rng.choice([2, 3]) for _ in range(rng.randint(2, 3)))
    if len(dims) == 3 and dims.count(3) == 3:
        dims = (3, 3, 2)
    factors = [[rand_fraction(rng, nonzero=True) for _ in range(d)] for d in dims]
    full = rank_one_tensor(factors)
    grid = list(full.domain.tuples())
    observed = rng.sample(grid, rng.randint(1, len(grid)))
    t = full.restrict(observed)
    comps = enumerate_real_completions(t)
    closure = matroid_closure(t.domain, observed)
    matching = [
        c
        for c in comps
        if all(
            c.values[i].equals_fraction(full.entries[i], c.base)
            for i in closure - set(observed)
        )
    ]
    assert matching, "original tensor not among the enumerated completions"
    for c in comps:
        assert c.restriction_matches()
        assert witness_is_rank_one(c, dims)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_value_exponent_denominators_divide_index(seed):
    rng = random.Random(seed)
    dims = rng.choice([(2, 2), (2, 2, 2), (2, 3), (3, 3)])
    factors = [[rand_fraction(rng, nonzero=True) for _ in range(d)] for d in dims]
    full = rank_one_tensor(factors)
    grid = list(full.domain.tuples())
    observed = rng.sample(grid, rng.randint(1, len(grid)))
    t = full.restrict(observed)
    from math import lcm

    from rankone.segre import saturation_index_of

    index = saturation_index_of(t.domain, tuple(sorted(observed)))
    for c in enumerate_real_completions(t):
        for mono in c.values.values():
            m = 1
            for q in mono.exponents.values():
                m = lcm(m, q.denominator)
            assert index % m == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_closure_circuits_satisfied_by_values(seed):
    # the assigned values, together with the observed entries, satisfy the
    # binomial equation of every circuit among the determined entries
    rng = random.Random(seed)
    dims = rng.choice([(2, 2), (2, 2, 2), (2, 3)])
    factors = [[rand_fraction(rng, nonzero=True) for _ in range(d)] for d in dims]
    full = rank_one_tensor(factors)
    grid = list(full.domain.tuples())
    observed = rng.sample(grid, rng.randint(1, len(grid)))
    t = full.restrict(observed)
    closure = matroid_closure(t.domain, observed)
    from rankone.segre import circuits

    for c in enumerate_real_completions(t):
        assigned = {
            i: (
                SignedMonomial.observed(i, t.entries[i])
                if i in t.entries
                else c.values[i]
            )
            for i in closure
        }
        for circ in circuits(t.domain, sorted(closure)):
            lhs = SignedMonomial(1, {})
            rhs = SignedMonomial(1, {})
            for idx, u in zip(circ.support, circ.vector):
                for _ in range(abs(u)):
                    if u > 0:
                        lhs = lhs * assigned[idx]
                    else:
                        rhs = rhs * assigned[idx]
            assert lhs.value_equals(rhs, c.base)


def test_coset_cap():
    # 11 binary axes leave 22 free sign parameters with nothing observed
    from rankone.errors import CosetTooLargeError

    t = PartialTensor.from_entries((2,) * 11, {})
    with pytest.raises(CosetTooLargeError):
        enumerate_real_completions(t)


def _bruteforce_sign_completions(dims, entries):
    """Independent enumeration of real completions of a +-1-valued tensor:
    scan every +-1 parameter vector, keep sign matches, and collect the
    distinct induced value vectors on the closure."""
    import itertools as it
    import math

    idxs = sorted(entries)
    offs = [0]
    for d in dims:
        offs.append(offs[-1] + d)
    closure = sorted(matroid_closure(IndexDomain(dims), idxs))

    def value(bits, i):
        return math.prod(bits[offs[j] + i[j] - 1] for j in range(len(dims)))

    seen = set()
    for bits in it.product([1, -1], repeat=offs[-1]):
        if all(value(bits, i) == entries[i] for i in idxs):
            seen.add(tuple(value(bits, i) for i in closure))
    return closure, seen


def test_enumeration_count_matches_bruteforce_pm_one():
    rng = random.Random(314)
    checked = multi = 0
    while checked < 60:
        if checked % 6 == 5:
            # parity-class pattern on the cube branches into two completions
            dims = (2, 2, 2)
            positions = [i for i in IndexDomain(dims).tuples() if sum(i) % 2 == 1]
            signs = [rng.choice([1, -1]) for _ in positions]
            if sum(s < 0 for s in signs) % 2:
                signs[0] = -signs[0]
            entries = dict(zip(positions, map(Fraction, signs)))
        else:
            dims = rng.choice([(2, 2), (2, 2, 2)])
            grid = list(IndexDomain(dims).tuples())
            k = rng.randint(1, min(6, len(grid)))
            entries = {i: Fraction(rng.choice([1, -1])) for i in rng.sample(grid, k)}
        t = PartialTensor.from_entries(dims, entries)
        closure, expected = _bruteforce_sign_completions(dims, entries)
        if not expected:
            continue  # not real-completable; covered elsewhere
        comps = enumerate_real_completions(t)
        got = set()
        for c in comps:
            vec = []
            for i in closure:
                if i in entries:
                    vec.append(1 if entries[i] > 0 else -1)
                else:
                    vec.append(c.values[i].sign)
            got.add(tuple(vec))
        assert got == expected, (dims, entries)
        assert len(comps) == len(expected)
        if len(expected) > 1:
            multi += 1
        checked += 1
    assert multi >= 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_unique_index_one_recovers_exactly(seed):
    rng = random.Random(seed)
    dims = tuple(rng.choice([2, 3]) for _ in range(2))
    factors = [[rand_fraction(rng, nonzero=True) for _ in range(d)] for d in dims]
    full = rank_one_tensor(factors)
    grid = list(full.domain.tuples())
    observed = rng.sample(grid, rng.randint(1, len(grid)))
    t = full.restrict(observed)
    closure = matroid_closure(t.domain, observed)
    if closure != frozenset(grid):
        return
    from rankone.segre import saturation_index_of

    if saturation_index_of(t.domain, tuple(sorted(observed))) != 1:
        return
    comps = enumerate_real_completions(t)
    assert len(comps) == 1
    assert comps[0].witness_as_fractions() == dict(full.entries)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_closure_and_exponents_match_naive_rref(seed):
    # an entry is determined iff its column keeps the rank of [A_E | b], and
    # its exponents are the pivot values of the naive elimination
    rng = random.Random(seed)
    dims = tuple(rng.choice([2, 3]) for _ in range(rng.randint(2, 3)))
    factors = [[rand_fraction(rng, lo=1, nonzero=True) for _ in range(d)] for d in dims]
    full = rank_one_tensor(factors)
    grid = list(full.domain.tuples())
    t = full.restrict(rng.sample(grid, rng.randint(1, len(grid))))
    observed = t.sorted_indices()
    rows = incidence_rows(dims, observed)
    closure = matroid_closure(t.domain, observed)
    for idx in grid:
        b = incidence_rows(dims, [idx])
        a, pivots = rref([row + col for row, col in zip(rows, b)])
        assert (idx in closure) == (len(observed) not in pivots)
        if idx in closure and idx not in t.entries:
            expected = {observed[c]: a[r][-1] for r, c in enumerate(pivots)}
            monos = complete_entry(t, idx)
            assert monos
            for mono in monos:
                assert mono.exponents == {e: q for e, q in expected.items() if q}
