import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.errors import TooLargeError
from rankone.linalg import int_matrix, rank
from rankone.segre import (
    LATTICE_CACHE_SIZE,
    circuits,
    circuits_of_matrix,
    matroid_closure,
    observed_lattice,
    restricted_matrix,
    saturation_index,
    saturation_index_of,
    segre_matrix,
)
from rankone.tensor import IndexDomain

from .oracles import incidence_rows, minor_gcd_products, naive_circuits, naive_rank


def test_segre_matrix_2x2():
    sm = segre_matrix(IndexDomain((2, 2)))
    assert sm.matrix.shape == (4, 4)
    assert sm.columns == ((1, 1), (1, 2), (2, 1), (2, 2))
    # column of (1,2) hits rows (axis1, level1) and (axis2, level2)
    col = list(sm.matrix[:, 1])
    assert col == [1, 0, 0, 1]


def test_segre_matrix_column_sums():
    sm = segre_matrix(IndexDomain((2, 2, 2)))
    assert sm.matrix.shape == (6, 8)
    assert all(int(sm.matrix[:, c].sum()) == 3 for c in range(8))


def test_segre_rank_dimension_count():
    for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 3, 2)]:
        sm = segre_matrix(IndexDomain(dims))
        expected = 1 + sum(d - 1 for d in dims)
        assert rank(sm.matrix) == expected
        assert naive_rank([[int(x) for x in row] for row in sm.matrix.tolist()]) == expected


def test_saturation_index_examples():
    dom = IndexDomain((2, 2, 2))
    a_e = restricted_matrix(dom, [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2)])
    assert saturation_index(a_e) == 2

    dom2 = IndexDomain((2, 2))
    full = restricted_matrix(dom2, list(dom2.tuples()))
    assert saturation_index(full) == 1
    # minor-gcd oracle: the product of elementary divisors equals the gcd of
    # the rank-sized minors
    rows = [[int(x) for x in row] for row in full.tolist()]
    gcds = minor_gcd_products(rows)
    r = naive_rank(rows)
    assert gcds[r - 1] == 1

    assert saturation_index(restricted_matrix(dom2, [])) == 1


def test_closure_goldens():
    dom = IndexDomain((2, 2, 2))
    e = [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert matroid_closure(dom, e) == frozenset(e)

    dom2 = IndexDomain((2, 2))
    assert matroid_closure(dom2, [(1, 1), (1, 2), (2, 1)]) == frozenset(dom2.tuples())
    assert matroid_closure(dom2, [(1, 1), (2, 2)]) == frozenset([(1, 1), (2, 2)])
    full = list(dom2.tuples())
    assert matroid_closure(dom2, full) == frozenset(full)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_closure_operator_axioms(seed):
    rng = random.Random(seed)
    dims = tuple(rng.choice([2, 3]) for _ in range(rng.randint(1, 3)))
    dom = IndexDomain(dims)
    grid = list(dom.tuples())
    e = frozenset(rng.sample(grid, rng.randint(0, len(grid))))
    extra = frozenset(rng.sample(grid, rng.randint(0, len(grid))))
    f = e | extra
    cl_e = matroid_closure(dom, e)
    cl_f = matroid_closure(dom, f)
    assert e <= cl_e
    assert cl_e <= cl_f
    assert matroid_closure(dom, cl_e) == cl_e


def test_circuits_2x2_full():
    dom = IndexDomain((2, 2))
    cs = circuits(dom, list(dom.tuples()))
    assert len(cs) == 1
    assert cs[0].support == ((1, 1), (1, 2), (2, 1), (2, 2))
    assert cs[0].vector == (1, -1, -1, 1)


def test_circuits_independent_columns():
    dom = IndexDomain((2, 2))
    assert circuits(dom, [(1, 1), (1, 2)]) == ()


def test_circuits_match_bruteforce_2x2x2():
    dims = (2, 2, 2)
    dom = IndexDomain(dims)
    grid = list(dom.tuples())
    got = {(c.support, c.vector) for c in circuits(dom, grid)}
    expected = set()
    for support, vec in naive_circuits(dims, grid):
        lead = next(x for x in vec if x != 0)
        if lead < 0:
            vec = tuple(-x for x in vec)
        expected.add((support, vec))
    assert got == expected
    for support, vec in got:
        m = restricted_matrix(dom, list(support))
        prod = m @ int_matrix([[x] for x in vec])
        assert all(int(x) == 0 for x in prod.ravel())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_circuit_invariants_random(seed):
    rng = random.Random(seed)
    dims = tuple(rng.choice([2, 3]) for _ in range(rng.randint(2, 3)))
    dom = IndexDomain(dims)
    grid = list(dom.tuples())
    e = sorted(rng.sample(grid, rng.randint(2, min(8, len(grid)))))
    for c in circuits(dom, e):
        m = restricted_matrix(dom, list(c.support))
        prod = m @ int_matrix([[x] for x in c.vector])
        assert all(int(x) == 0 for x in prod.ravel())
        assert all(x != 0 for x in c.vector)
        lead = next(x for x in c.vector if x != 0)
        assert lead > 0
        rows = incidence_rows(dims, list(c.support))
        for drop in range(len(c.support)):
            sub = [
                [row[j] for j in range(len(c.support)) if j != drop] for row in rows
            ]
            assert naive_rank(sub) == len(c.support) - 1


def test_circuit_cap():
    with pytest.raises(TooLargeError):
        circuits_of_matrix(int_matrix([[1] * 25]))


def test_saturation_index_cached_wrapper():
    dom = IndexDomain((2, 2, 2))
    e = ((1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 2))
    assert saturation_index_of(dom, e) == 2
    assert saturation_index_of(dom, tuple(reversed(e))) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_matrix_closure_is_bipartite_components(seed):
    # n = 2: a cell is determined iff its row and column lie in one connected
    # component of the bipartite observation graph, and the lattice is
    # saturated (Kiraly-Theran-Tomioka)
    rng = random.Random(seed)
    dims = (rng.randint(1, 6), rng.randint(1, 6))
    grid = list(IndexDomain(dims).tuples())
    e = rng.sample(grid, rng.randint(0, len(grid)))
    graph = nx.Graph()
    graph.add_nodes_from([("r", i) for i in range(1, dims[0] + 1)])
    graph.add_nodes_from([("c", j) for j in range(1, dims[1] + 1)])
    graph.add_edges_from((("r", i), ("c", j)) for i, j in e)
    component = {}
    for k, nodes in enumerate(nx.connected_components(graph)):
        component.update(dict.fromkeys(nodes, k))
    expected = frozenset(
        (i, j) for i, j in grid if component[("r", i)] == component[("c", j)]
    )
    assert matroid_closure(IndexDomain(dims), e) == expected
    assert saturation_index_of(IndexDomain(dims), e) == 1


def test_lazy_circuits_follow_the_full_listing():
    dom = IndexDomain((2, 3, 2))
    e = sorted(random.Random(5).sample(list(dom.tuples()), 9))
    listed = [
        (tuple(e[c] for c in combo), vec)
        for combo, vec in circuits_of_matrix(restricted_matrix(dom, e))
    ]
    observed_lattice.cache_clear()
    lattice = observed_lattice(dom, tuple(e))
    first = next(lattice.iter_circuits())
    assert (first.support, first.vector) == listed[0]
    # a search stopped by an exception leaves its finds usable
    search = lattice.iter_circuits()
    next(search)
    with pytest.raises(KeyboardInterrupt):
        search.throw(KeyboardInterrupt)
    # a fresh read resumes after the earlier finds and repeats nothing
    assert [(c.support, c.vector) for c in lattice.iter_circuits()] == listed
    assert [(c.support, c.vector) for c in circuits(dom, e)] == listed
    assert [(c.support, c.vector) for c in circuits(dom, e)] == listed


def test_lattice_cache_is_bounded():
    assert observed_lattice.cache_info().maxsize == LATTICE_CACHE_SIZE <= 64
    dom = IndexDomain((2, 2))
    for k in range(LATTICE_CACHE_SIZE + 3):
        saturation_index_of(IndexDomain((2, 2 + k)), [(1, 1)])
    assert observed_lattice.cache_info().currsize <= LATTICE_CACHE_SIZE
    assert observed_lattice(dom, ((1, 1),)) is observed_lattice(dom, ((1, 1),))
