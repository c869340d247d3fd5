"""Partition enumeration, the non-crossing family, kernels, and the order."""

import gc
import itertools
import math
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexch.algebra import MAX_BYTES
from qexch.partitions import (
    Partition,
    _all_partitions_charge,
    _nc_profile_groups,
    _noncrossing_charge,
    _noncrossing_local,
    _pattern_count,
    _pattern_rows,
    _pattern_table,
    _pattern_table_charge,
    _peeling_steps,
    _profile_counts,
    _profile_counts_charge,
    canonical_pattern,
    delete_block,
    enumerate_all,
    enumerate_noncrossing,
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


def test_enumerate_all_order_is_element_growth():
    # each new element joins the blocks in order of their minimum, then opens its own
    assert [[list(b) for b in p.blocks] for p in enumerate_all(3)] == [
        [[1, 2, 3]],
        [[1, 2], [3]],
        [[1, 3], [2]],
        [[1], [2, 3]],
        [[1], [2], [3]],
    ]


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


def test_enumerate_noncrossing_order_is_pinned():
    # kappa_word subtracts the partition terms in this order, so report bits depend on it
    assert [[list(b) for b in p.blocks] for p in enumerate_noncrossing(4)] == [
        [[1], [2], [3], [4]],
        [[1], [2], [3, 4]],
        [[1], [2, 3], [4]],
        [[1], [2, 4], [3]],
        [[1], [2, 3, 4]],
        [[1, 2], [3], [4]],
        [[1, 2], [3, 4]],
        [[1, 3], [2], [4]],
        [[1, 4], [2], [3]],
        [[1, 4], [2, 3]],
        [[1, 2, 3], [4]],
        [[1, 2, 4], [3]],
        [[1, 3, 4], [2]],
        [[1, 2, 3, 4]],
    ]


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


def _profile_rows(patterns):
    """_profile_counts as one ((sizes, count), ...) tuple per pattern, zero counts left out."""
    rows = _pattern_rows(patterns)
    counts, sizes = _profile_counts(rows.shape, rows.tobytes())
    profiles = [tuple(int(s) for s in row if s) for row in sizes]
    return [tuple((prof, int(c)) for prof, c in zip(profiles, row) if c) for row in counts]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=7))
def test_size_profiles_match_filtered_enumeration(values):
    pattern = canonical_pattern(values)
    assert _profile_rows((pattern,)) == [_size_profiles_by_filter(pattern)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(0, 3), max_size=7), min_size=1, max_size=6))
def test_mixed_length_profile_counts_match_filtered_enumeration(lists):
    # product_expectation asks for patterns of several lengths at once, the empty one included
    patterns = [canonical_pattern(values) for values in lists]
    expected = [_size_profiles_by_filter(p) if p else (((), 1),) for p in patterns]
    assert _profile_rows(patterns) == expected


def test_enumerate_noncrossing_keeps_no_list_it_returns():
    # only the int8 tables stay cached: each kept partition would hold at least
    # one allocated block, and NC(10) alone has 16796 of them
    gc.collect()
    base = sys.getallocatedblocks()
    for n in (10, 11, 12):
        assert len(enumerate_noncrossing(n)) == catalan(n)
    gc.collect()
    held = sys.getallocatedblocks() - base
    assert held < catalan(10), held


def test_enumerate_noncrossing_bounds():
    with pytest.raises(ValueError):
        enumerate_noncrossing(0)
    with pytest.raises(ValueError):
        enumerate_noncrossing(15)


# -- byte charges ------------------------------------------------------------------

def _traced_peak(build):
    """Peak bytes tracemalloc sees while build() runs, above what was traced before."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        build()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def test_pattern_count_is_the_stirling_sum():
    for n in range(1, 9):
        assert _pattern_count(n, n) == _pattern_count(n + 3, n) == bell(n)
        for k in range(1, 5):
            assert _pattern_count(k, n) == len(_pattern_table(k, n)[1])
    assert _pattern_count(2, 20) == 2**19


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_pattern_table_charge_bounds_its_traced_peak(k):
    n = 1
    while k**n <= 50_000 and n <= 16:
        _pattern_table.cache_clear()
        peak = _traced_peak(lambda: _pattern_table(k, n))
        assert peak <= _pattern_table_charge(k, n)[0], (k, n, peak)
        n += 1
    # the count matrix of the table's patterns, with the non-crossing table built cold
    for n in range(1, {2: 11, 3: 10}.get(k, 9)) if k <= 4 else ():
        rows = _pattern_table(k, n)[1]
        _profile_counts.cache_clear()
        _noncrossing_local.cache_clear()
        _nc_profile_groups.cache_clear()
        peak = _traced_peak(lambda: _profile_counts(rows.shape, rows.tobytes()))
        assert peak <= _profile_counts_charge(k, n)[0], (k, n, peak)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_charges_bound_their_traced_peaks(n):
    # built cold: the charge covers the returned partitions and the cached table too
    _noncrossing_local.cache_clear()
    assert _traced_peak(lambda: enumerate_noncrossing(n)) <= _noncrossing_charge(n)[0]
    assert _traced_peak(lambda: enumerate_all(n)) <= _all_partitions_charge(n)[0]


@pytest.mark.parametrize("enumerate_, n", [
    (enumerate_noncrossing, 14), (enumerate_all, 12),
    (enumerate_noncrossing, 10**9), (enumerate_all, 10**9),
])
def test_oversize_enumeration_is_rejected_before_enumerating(enumerate_, n):
    # about 2.5 GiB and 4 GiB measured at 14 and 12; every size is refused before
    # the first partition, and a huge n without big-integer arithmetic
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"partitions of {n} points is too large"):
        enumerate_(n)
    assert time.monotonic() - start < 0.1
    assert _noncrossing_charge(12)[0] <= MAX_BYTES < _noncrossing_charge(13)[0]
    assert _all_partitions_charge(10)[0] <= MAX_BYTES < _all_partitions_charge(11)[0]


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.sampled_from(enumerate_all(n)), st.sampled_from(enumerate_all(n)))))
def test_leq_is_block_containment(pair):
    p, q = pair
    assert leq(p, q) == all(any(set(b) <= set(c) for c in q.blocks) for b in p.blocks)


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2, 3), min_size=1, max_size=8))
def test_kernel_blocks_are_the_positions_grouped_by_value(values):
    groups = {tuple(x for x, w in enumerate(values, 1) if w == v) for v in values}
    assert set(kernel(values).blocks) == groups


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
    assert interval_blocks(NC10_EXAMPLE)[0] == (3, 4)
    assert interval_blocks(Partition(3, [[1, 2, 3]]))[0] == (1, 2, 3)
    assert interval_blocks(Partition(4, [[1, 4], [2, 3]]))[0] == (2, 3)


def test_interval_peeling_preserves_noncrossing():
    for n in range(2, 9):
        for p in enumerate_noncrossing(n):
            if p.num_blocks < 2:
                continue
            block = interval_blocks(p)[0]
            assert block in interval_blocks(p)
            smaller = delete_block(p, block)
            assert smaller.n == p.n - len(block)
            assert is_noncrossing(smaller)


@pytest.mark.parametrize("peel", ["min", "max"])
def test_peeling_steps_remove_an_extreme_interval_block_down_to_one(peel):
    for n in range(1, 8):
        for pi in enumerate_noncrossing(n):
            rest = pi
            for start, length in _peeling_steps(pi, peel):
                intervals = [b for b in rest.blocks if b == tuple(range(b[0], b[-1] + 1))]
                block = tuple(range(start, start + length))
                assert block in intervals
                assert start == (min if peel == "min" else max)(b[0] for b in intervals)
                rest = delete_block(rest, block)
            assert rest.num_blocks == 1
    with pytest.raises(ValueError, match="non-crossing partitions only"):
        _peeling_steps(Partition(4, [[1, 3], [2, 4]]), peel)


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
    assert "qexch.partitions._nc_profile_groups" in caches
    assert "qexch.partitions._noncrossing_local" in caches
    unbounded = [name for name, params in caches.items() if params["maxsize"] is None]
    assert not unbounded
