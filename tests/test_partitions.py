"""Partition enumeration, the non-crossing family, kernels, and the order."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexch.partitions import (
    Partition,
    _nc_size_profiles,
    canonical_pattern,
    delete_block,
    enumerate_all,
    enumerate_noncrossing,
    first_interval_block,
    interval_blocks,
    is_noncrossing,
    kernel,
    leq,
)

NC10_EXAMPLE = Partition(10, [[1, 10], [2, 5, 9], [3, 4], [6], [7, 8]])


# -- independent oracles -------------------------------------------------------

def bell(n):
    """Bell numbers via the binomial recurrence."""
    table = [1]
    for m in range(n):
        table.append(sum(math.comb(m, k) * table[k] for k in range(m + 1)))
    return table[n]


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def crossing_by_quadruples(p):
    """Literal four-index crossing scan, independent of the library check."""
    owner = {}
    for bi, b in enumerate(p.blocks):
        for x in b:
            owner[x] = bi
    for s1, t1, s2, t2 in itertools.combinations(range(1, p.n + 1), 4):
        if owner[s1] == owner[s2] != owner[t1] == owner[t2]:
            return True
    return False


def noncrossing_by_peeling(p):
    """Recursive characterization: peel interval blocks until nothing is left."""
    if p.num_blocks == 1:
        return True
    for block in p.blocks:
        if block[-1] - block[0] == len(block) - 1:
            return noncrossing_by_peeling(delete_block(p, block))
    return False


# -- construction and canonical form -------------------------------------------

def test_canonical_form():
    scrambled = Partition(4, [[4, 2], [3, 1]])
    assert scrambled.blocks == ((1, 3), (2, 4))
    assert scrambled == Partition(4, [(1, 3), (2, 4)])
    assert hash(scrambled) == hash(Partition(4, [[2, 4], [1, 3]]))


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition(3, [[1, 2]])
    with pytest.raises(ValueError):
        Partition(3, [[1, 2], [2, 3]])
    with pytest.raises(ValueError):
        Partition(3, [[1, 2, 3], []])
    with pytest.raises(ValueError):
        Partition(0, [])


# -- enumeration ----------------------------------------------------------------

def test_enumerate_all_singleton():
    assert enumerate_all(1) == [Partition(1, [[1]])]


@pytest.mark.parametrize("n,count", [(3, 5), (4, 15)])
def test_enumerate_all_explicit_counts(n, count):
    result = enumerate_all(n)
    assert len(result) == count
    assert len(set(result)) == count


def test_enumerate_all_matches_bell():
    for n in range(1, 9):
        assert len(enumerate_all(n)) == bell(n)


def test_enumerate_all_bounds():
    with pytest.raises(ValueError):
        enumerate_all(0)
    with pytest.raises(ValueError):
        enumerate_all(13)


def test_enumerate_noncrossing_small():
    result = enumerate_noncrossing(2)
    assert len(result) == 2
    assert set(result) == {Partition(2, [[1, 2]]), Partition(2, [[1], [2]])}


def test_enumerate_noncrossing_counts_and_filter_agreement():
    for n in range(1, 9):
        nc = enumerate_noncrossing(n)
        assert len(nc) == catalan(n)
        filtered = {p for p in enumerate_all(n) if is_noncrossing(p)}
        assert set(nc) == filtered


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(1, 10))
def test_noncrossing_count_is_catalan(n):
    assert len(enumerate_noncrossing(n)) == catalan(n)


def _size_profiles_by_filter(pattern):
    """Block-size profiles of the non-crossing partitions whose blocks are constant on pattern."""
    counts = {}
    for p in enumerate_all(len(pattern)):
        if is_noncrossing(p) and all(len({pattern[x - 1] for x in b}) == 1 for b in p.blocks):
            sizes = tuple(sorted(len(b) for b in p.blocks))
            counts[sizes] = counts.get(sizes, 0) + 1
    return tuple(sorted(counts.items()))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=7))
def test_size_profiles_match_filtered_enumeration(values):
    pattern = canonical_pattern(values)
    assert _nc_size_profiles(pattern) == _size_profiles_by_filter(pattern)


def test_enumerate_noncrossing_bounds():
    with pytest.raises(ValueError):
        enumerate_noncrossing(0)
    with pytest.raises(ValueError):
        enumerate_noncrossing(15)


# -- crossing predicate ----------------------------------------------------------

def test_is_noncrossing_examples():
    assert not is_noncrossing(Partition(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(NC10_EXAMPLE)
    assert is_noncrossing(Partition(4, [[1, 2, 3, 4]]))


def test_is_noncrossing_agrees_with_quadruple_scan_and_peeling():
    for n in range(1, 9):
        for p in enumerate_all(n):
            expected = not crossing_by_quadruples(p)
            assert is_noncrossing(p) == expected
            assert noncrossing_by_peeling(p) == expected


# -- refinement order -------------------------------------------------------------

def test_leq_examples():
    singletons = Partition(4, [[1], [2], [3], [4]])
    assert leq(singletons, Partition(4, [[1, 3], [2, 4]]))
    assert not leq(Partition(3, [[1, 2, 3]]), Partition(3, [[1, 2], [3]]))
    assert leq(Partition(4, [[1, 3], [2], [4]]), Partition(4, [[1, 3], [2, 4]]))


def test_leq_size_mismatch():
    with pytest.raises(ValueError):
        leq(Partition(2, [[1, 2]]), Partition(3, [[1, 2, 3]]))


def test_leq_is_partial_order():
    import random

    rng = random.Random(7)
    for n in range(2, 8):
        pool = enumerate_all(n)
        sample = rng.sample(pool, min(12, len(pool)))
        for p in sample:
            assert leq(p, p)
        for p, q in itertools.combinations(sample, 2):
            if leq(p, q) and leq(q, p):
                assert p == q
        for p, q, r in itertools.product(sample[:6], repeat=3):
            if leq(p, q) and leq(q, r):
                assert leq(p, r)


# -- kernels ----------------------------------------------------------------------

def test_kernel_examples():
    assert kernel((1, 2, 1, 2)) == Partition(4, [[1, 3], [2, 4]])
    assert kernel((7, 7, 7)) == Partition(3, [[1, 2, 3]])
    assert kernel((1, 2, 3, 2, 1)) == Partition(5, [[1, 5], [2, 4], [3]])


def test_kernel_empty_rejected():
    with pytest.raises(ValueError):
        kernel(())


def test_kernel_relabelling_invariance():
    import random

    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 8)
        tup = tuple(rng.randint(1, 4) for _ in range(n))
        values = list(set(tup))
        images = rng.sample(range(10, 30), len(values))
        relabel = dict(zip(values, images))
        assert kernel(tup) == kernel(tuple(relabel[v] for v in tup))
        assert canonical_pattern(tup) == canonical_pattern(tuple(relabel[v] for v in tup))


# -- interval blocks ---------------------------------------------------------------

def test_first_interval_block_examples():
    assert first_interval_block(NC10_EXAMPLE) == (3, 4)
    assert first_interval_block(Partition(3, [[1, 2, 3]])) == (1, 2, 3)
    assert first_interval_block(Partition(4, [[1, 4], [2, 3]])) == (2, 3)


def test_first_interval_block_rejects_crossing():
    with pytest.raises(ValueError):
        first_interval_block(Partition(4, [[1, 3], [2, 4]]))


def test_interval_peeling_preserves_noncrossing():
    for n in range(2, 9):
        for p in enumerate_noncrossing(n):
            if p.num_blocks < 2:
                continue
            block = first_interval_block(p)
            assert block in interval_blocks(p)
            smaller = delete_block(p, block)
            assert smaller.n == p.n - len(block)
            assert is_noncrossing(smaller)


def test_every_lru_cache_in_the_package_is_bounded():
    import importlib
    import inspect
    import pkgutil

    import qexch

    caches = {}
    for info in pkgutil.iter_modules(qexch.__path__):
        module = importlib.import_module(f"qexch.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                params = getattr(member, "cache_parameters", None)
                if params is not None and getattr(member, "__module__", None) == module.__name__:
                    caches[f"{module.__name__}.{name}{'.' + attr if attr else ''}"] = params()
    assert "qexch.partitions._nc_size_profiles" in caches
    assert "qexch.cumulants._noncrossing" in caches
    unbounded = [name for name, params in caches.items() if params["maxsize"] is None]
    assert not unbounded
