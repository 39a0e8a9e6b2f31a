import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.completability import (
    analyze,
    is_complex_completable,
    is_real_completable,
    is_uniquely_completable,
)
from rankone.errors import (
    NotComplexCompletableError,
    NotRealCompletableError,
    TooLargeError,
)
from rankone.segre import observed_lattice, saturation_index_of
from rankone.tensor import IndexDomain, PartialTensor, rank_one_tensor

from .oracles import brute_force_real_completable, rand_fraction

FIELD_DEP_POSITIONS = [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)]


def field_dep_tensor(values):
    return PartialTensor.from_entries((2, 2, 2), dict(zip(FIELD_DEP_POSITIONS, values)))


def test_complex_examples():
    assert is_complex_completable(PartialTensor.from_nested([[1, 2], [3, 6]]))[0]
    ok, witness = is_complex_completable(PartialTensor.from_nested([[1, 2], [3, 5]]))
    assert not ok
    assert witness.support == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert witness.vector == (1, -1, -1, 1)
    assert is_complex_completable(field_dep_tensor([1, 1, 1, -1]))[0]


def test_complex_with_zero_slices():
    # zero slices drop out; the remaining core must satisfy its circuits
    t = PartialTensor.from_nested([[0, 0], [3, 6]])
    assert is_complex_completable(t)[0]
    bad = PartialTensor.from_nested([[0, 1], [3, 6]])
    ok, witness = is_complex_completable(bad)
    assert not ok and witness is None  # zero-consistency failure


def test_witness_labels_survive_stripping():
    t = PartialTensor.from_entries(
        (2, 2, 2),
        {
            (1, 1, 1): 0,
            (1, 1, 2): 0,
            (1, 2, 1): 0,
            (1, 2, 2): 0,
            (2, 1, 1): 1,
            (2, 1, 2): 2,
            (2, 2, 1): 3,
            (2, 2, 2): 5,
        },
    )
    ok, witness = is_complex_completable(t)
    assert not ok
    assert witness.support == ((2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2))


def test_real_examples():
    assert not is_real_completable(field_dep_tensor([1, 1, 1, -1]))
    assert is_real_completable(field_dep_tensor([1, 1, -1, -1]))
    assert is_real_completable(field_dep_tensor([1, 1, 1, 1]))
    assert is_real_completable(PartialTensor.from_nested([[1, 2], [3, 6]]))


def test_real_requires_complex():
    with pytest.raises(NotComplexCompletableError):
        is_real_completable(PartialTensor.from_nested([[1, 2], [3, 5]]))


def test_even_negatives_rule():
    for signs in itertools.product([1, -1], repeat=4):
        t = field_dep_tensor(signs)
        assert is_real_completable(t) == (sum(s < 0 for s in signs) % 2 == 0)


def test_unique_examples():
    t = PartialTensor.from_entries((2, 2), {(1, 1): 2, (1, 2): 3, (2, 1): 4})
    assert is_uniquely_completable(t, "complex")
    assert is_uniquely_completable(t, "real")

    t2 = field_dep_tensor([1, 1, -1, -1])
    assert not is_uniquely_completable(t2, "real")  # even index: two completions

    anti = PartialTensor.from_entries(
        (2, 2, 2), {(1, 1, 2): 1, (1, 2, 1): 1, (2, 1, 1): 1}
    )
    assert not is_uniquely_completable(anti, "complex")
    assert not is_uniquely_completable(anti, "real")


def test_unique_preconditions():
    with pytest.raises(NotRealCompletableError):
        is_uniquely_completable(field_dep_tensor([1, 1, 1, -1]), "real")
    with pytest.raises(ValueError):
        is_uniquely_completable(field_dep_tensor([1, 1, 1, 1]), "rational")


def test_analyze_field_dependence():
    rep = analyze(field_dep_tensor([1, 1, 1, -1]))
    assert rep.zero_consistent
    assert rep.complex_completable
    assert rep.real_completable is False
    assert rep.saturation_index == 2
    assert rep.finitely_completable_entries == frozenset(IndexDomain((2, 2, 2)).tuples())
    assert rep.uniquely_completable_complex is False
    assert rep.uniquely_completable_real is False
    assert rep.failing_circuit is None


def test_analyze_empty_and_inconsistent():
    rep = analyze(PartialTensor.from_entries((2, 2), {}))
    assert rep.complex_completable
    assert rep.finitely_completable_entries == frozenset()

    rep = analyze(PartialTensor.from_nested([[0, 1], [1, 1]]))
    assert not rep.zero_consistent
    assert not rep.complex_completable
    assert rep.real_completable is None
    assert rep.finitely_completable_entries is None


def test_analyze_invariants():
    rng = random.Random(3)
    for _ in range(30):
        dims = tuple(rng.choice([2, 3]) for _ in range(rng.randint(2, 3)))
        grid = list(IndexDomain(dims).tuples())
        entries = {
            idx: rand_fraction(rng, nonzero=rng.random() < 0.9)
            for idx in rng.sample(grid, rng.randint(0, len(grid)))
        }
        rep = analyze(PartialTensor.from_entries(dims, entries))
        if rep.real_completable:
            assert rep.complex_completable
        if rep.uniquely_completable_complex or rep.uniquely_completable_real:
            assert rep.finitely_completable_entries == frozenset(grid)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_rank_one_restrictions_always_completable(seed):
    rng = random.Random(seed)
    dims = tuple(rng.choice([2, 3]) for _ in range(rng.randint(2, 3)))
    factors = [[rand_fraction(rng, nonzero=True) for _ in range(d)] for d in dims]
    full = rank_one_tensor(factors)
    grid = list(full.domain.tuples())
    t = full.restrict(rng.sample(grid, rng.randint(0, len(grid))))
    assert is_complex_completable(t)[0]
    assert is_real_completable(t)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_real_depends_only_on_signs(seed):
    rng = random.Random(seed)
    pos = random.Random(seed).sample(list(IndexDomain((2, 2, 2)).tuples()), 5)
    values = [rand_fraction(rng, nonzero=True) for _ in pos]
    t = PartialTensor.from_entries((2, 2, 2), dict(zip(pos, values)))
    ok, _ = is_complex_completable(t)
    if not ok:
        return
    base = is_real_completable(t)
    scaled = {
        i: v * rand_fraction(rng, lo=1, hi=9, nonzero=True) ** 2
        for i, v in zip(pos, values)
    }
    t2 = PartialTensor.from_entries((2, 2, 2), scaled)
    ok2, _ = is_complex_completable(t2)
    if ok2:
        assert is_real_completable(t2) == base


def test_odd_index_implies_real_exhaustive_small():
    # over all patterns with few observations on small grids: when the
    # saturation index is odd, every sign pattern passing the circuit test
    # is real-completable
    for dims in [(2, 2), (2, 2, 2)]:
        grid = list(IndexDomain(dims).tuples())
        for k in range(1, 5):
            for positions in itertools.combinations(grid, k):
                idx = saturation_index_of(IndexDomain(dims), positions)
                if idx % 2 == 0:
                    continue
                for signs in itertools.product([1, -1], repeat=k):
                    t = PartialTensor.from_entries(dims, dict(zip(positions, signs)))
                    ok, _ = is_complex_completable(t)
                    if ok:
                        assert is_real_completable(t)


def test_lattice_route_matches_pure_circuit_route():
    # the fast membership decision (kernel lattice basis) and the defining
    # circuit-by-circuit check must agree on every small instance
    from rankone.completability import circuit_satisfied, violated_circuit

    rng = random.Random(23)
    for _ in range(150):
        dims = tuple(rng.choice([2, 3]) for _ in range(rng.randint(2, 3)))
        grid = list(IndexDomain(dims).tuples())
        k = rng.randint(1, min(7, len(grid)))
        entries = {
            i: rand_fraction(rng, lo=-4, hi=4, max_den=3, nonzero=True)
            for i in rng.sample(grid, k)
        }
        t = PartialTensor.from_entries(dims, entries)
        by_circuits = violated_circuit(t) is None
        ok, witness = is_complex_completable(t)
        assert ok == by_circuits
        if witness is not None:
            assert not circuit_satisfied(t.entries, witness)


def test_real_agrees_with_bruteforce_spot():
    rng = random.Random(17)
    dims = (2, 2, 2)
    grid = list(IndexDomain(dims).tuples())
    for _ in range(120):
        k = rng.randint(1, 5)
        positions = rng.sample(grid, k)
        entries = {i: Fraction(rng.choice([1, -1])) for i in positions}
        t = PartialTensor.from_entries(dims, entries)
        ok, _ = is_complex_completable(t)
        impl = ok and is_real_completable(t)
        assert impl == brute_force_real_completable(dims, entries)


def test_real_agrees_with_bruteforce_rational_magnitudes():
    # unlike the +-1 sweeps this exercises the positive-magnitude half of
    # the oracle: entries are general rationals, so the kernel relations on
    # absolute values actually constrain
    rng = random.Random(555)
    for _ in range(150):
        dims = rng.choice([(2, 2), (2, 2, 2), (2, 3)])
        grid = list(IndexDomain(dims).tuples())
        k = rng.randint(1, min(6, len(grid)))
        if rng.random() < 0.5:
            factors = [
                [rand_fraction(rng, nonzero=True) for _ in range(d)] for d in dims
            ]
            full = rank_one_tensor(factors)
            entries = {i: full.entries[i] for i in rng.sample(grid, k)}
            if rng.random() < 0.5 and entries:
                flip = rng.choice(list(entries))
                entries[flip] = -entries[flip]
        else:
            entries = {
                i: rand_fraction(rng, lo=-5, hi=5, max_den=4, nonzero=True)
                for i in rng.sample(grid, k)
            }
        t = PartialTensor.from_entries(dims, entries)
        ok, _ = is_complex_completable(t)
        impl = ok and is_real_completable(t)
        assert impl == brute_force_real_completable(dims, entries)


def test_odd_index_rule_sampled_4_axes():
    # the exhaustive |E| <= 8 sweep on 2x2x2x2 is astronomically large;
    # sample index sets but stay exhaustive over sign patterns per set
    rng = random.Random(4242)
    dims = (2, 2, 2, 2)
    dom = IndexDomain(dims)
    grid = list(dom.tuples())
    odd_seen = 0
    for _ in range(25):
        k = rng.randint(1, 8)
        positions = tuple(sorted(rng.sample(grid, k)))
        index = saturation_index_of(dom, positions)
        for signs in itertools.product([1, -1], repeat=k):
            entries = dict(zip(positions, map(Fraction, signs)))
            t = PartialTensor.from_entries(dims, entries)
            ok, _ = is_complex_completable(t)
            impl = ok and is_real_completable(t)
            assert impl == brute_force_real_completable(dims, entries)
            if ok and index % 2 == 1:
                assert impl
        if index % 2 == 1:
            odd_seen += 1
    assert odd_seen


def doubled_corner_tensor():
    """The first 25 cells of a 3x3x3 rank-one tensor, (1,1,1) doubled: more
    observed entries than the full circuit listing accepts."""
    factors = [[1, 2, 3], [1, 5, 7], [2, 3, 11]]
    full = rank_one_tensor(factors)
    entries = {i: full.entries[i] for i in list(full.domain.tuples())[:25]}
    entries[(1, 1, 1)] *= 2
    return PartialTensor.from_entries((3, 3, 3), entries)


def path_tensor():
    """A 60x60 rank-one matrix observed on the path (i,i), (i,i+1), i <= 50."""
    entries = {}
    for i in range(1, 51):
        entries[(i, i)] = i * i
        entries[(i, i + 1)] = i * (i + 1)
    return PartialTensor.from_entries((60, 60), entries)


def long_cycle_tensor():
    """A 13x13 rank-one matrix observed on the even cycle (i,i), (i,i+1),
    (13,1), with one entry scaled: the whole cycle is its only circuit."""
    cells = [(i, i) for i in range(1, 14)]
    cells += [(i, i + 1) for i in range(1, 13)] + [(13, 1)]
    entries = {(i, j): i * j for i, j in cells}
    entries[(1, 1)] *= 2
    return PartialTensor.from_entries((13, 13), entries)


def test_witness_beyond_circuit_listing_cap():
    ok, witness = is_complex_completable(doubled_corner_tensor())
    assert not ok
    assert witness.support == ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2))
    assert witness.vector == (1, -1, -1, 1)


def test_witness_search_gives_up_on_a_long_circuit():
    t = long_cycle_tensor()
    assert saturation_index_of(t.domain, t.sorted_indices()) == 1
    with pytest.raises(TooLargeError):
        is_complex_completable(t)
    with pytest.raises(TooLargeError):
        analyze(t)


def test_long_path_decided_without_size_cap():
    rep = analyze(path_tensor())
    assert rep.complex_completable and rep.real_completable
    assert rep.finitely_completable_entries == frozenset(
        (i, j) for i in range(1, 51) for j in range(1, 52)
    )
    assert rep.saturation_index == 1
    assert not rep.uniquely_completable_complex


def test_analyze_runs_one_snf_and_one_strip(monkeypatch):
    import rankone.completability
    import rankone.segre

    calls = []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    count(rankone.segre, "smith_normal_form")
    count(rankone.completability, "strip_zero_slices")
    observed_lattice.cache_clear()
    t = rank_one_tensor([[1, 2, 3], [2, 5], [3, 7]]).restrict(
        [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 1, 2), (3, 2, 2)]
    )
    rep = analyze(t)
    assert rep.complex_completable and rep.real_completable
    assert sorted(calls) == ["smith_normal_form", "strip_zero_slices"]
