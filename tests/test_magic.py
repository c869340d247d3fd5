"""Magic unitary constructors, relations, word products, and collapse sums."""

import itertools
import tracemalloc

import numpy as np
import pytest

from qexch import magic
from qexch.cumulants import CumulantMomentFunctional, CumulantSpec
from qexch.exchangeability import check_quantum_invariance
from qexch.magic import (
    MagicUnitary,
    block_chain,
    block_pair,
    collapse_expected,
    collapse_lemma_residual,
    collapse_sum_all,
    ensure_projection,
    from_permutation,
    kernel_indicator,
    noncommuting_projection_pair,
    random_projection,
    unsafe_bruteforce_sum,
    verify_relations,
    word_product,
)
from qexch.partitions import Partition, enumerate_all, enumerate_noncrossing, kernel, leq


def collapse_oracle(u, i, pi):
    """Independent brute force: filter every j-tuple by ker j >= pi."""
    total = np.zeros((u.d, u.d), dtype=complex)
    for j in itertools.product(range(1, u.k + 1), repeat=pi.n):
        if leq(pi, kernel(j)):
            total += word_product(u, i, j)
    return total


# -- constructors ----------------------------------------------------------------

def test_from_permutation_identity_pattern():
    u = from_permutation([1, 2, 3], d=1)
    assert u.k == 3 and u.d == 1
    for i in range(1, 4):
        for j in range(1, 4):
            expected = 1.0 if i == j else 0.0
            assert u.entry(i, j)[0, 0] == expected


def test_from_permutation_swap():
    u = from_permutation([2, 1], d=2)
    assert np.allclose(u.entry(1, 2), np.eye(2))
    assert np.allclose(u.entry(1, 1), 0)


def test_from_permutation_residual_is_exactly_zero():
    for sigma in itertools.permutations(range(1, 5)):
        rep = verify_relations(from_permutation(sigma, d=2))
        assert rep.max_residual == 0.0


def test_from_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        from_permutation([1, 1, 3])


def test_block_pair_trivial_projections():
    u = block_pair(np.eye(1), np.eye(1))
    ref = from_permutation([1, 2, 3, 4], d=1)
    assert np.allclose(u.entries, ref.entries)


def test_block_pair_generic_noncommuting():
    p, q = noncommuting_projection_pair(2, seed=5)
    u = block_pair(p, q)
    assert verify_relations(u, tol=1e-12).passed
    # entries from different blocks genuinely fail to commute
    a, b = u.entry(1, 1), u.entry(3, 3)
    assert np.linalg.norm(a @ b - b @ a) > 0.01


def test_block_pair_commuting_rank_one():
    q = random_projection(2, 1, seed=0)
    u = block_pair(q, q)
    assert verify_relations(u, tol=1e-12).passed


def test_block_chain_matches_block_pair():
    p, q = noncommuting_projection_pair(2, seed=9)
    assert np.allclose(block_chain([p, q]).entries, block_pair(p, q).entries)


def test_block_chain_with_identity_projection():
    p, q = noncommuting_projection_pair(2, seed=1)
    u = block_chain([p, q, np.eye(2)])
    assert u.k == 6
    assert verify_relations(u, tol=1e-12).passed


def test_block_chain_zero_projections_give_transpositions():
    zero = np.zeros((2, 2))
    u = block_chain([zero, zero, zero])
    ref = from_permutation([2, 1, 4, 3, 6, 5], d=2)
    assert np.allclose(u.entries, ref.entries)


def test_non_projection_input_rejected():
    with pytest.raises(ValueError):
        block_pair(np.array([[0.5, 0.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(ValueError):
        ensure_projection(np.array([[1.0, 0.2], [0.0, 0.0]]))


def test_projection_with_nan_residual_rejected():
    # Hermitian, so q - h is 0; h @ h overflows and its off-diagonal is inf - inf
    q = np.array([[1e200, 1e200], [1e200, -1e200]])
    with pytest.raises(ValueError, match="nan"):
        ensure_projection(q)


# -- random projections --------------------------------------------------------------

def test_random_projection_edge_ranks():
    assert np.allclose(random_projection(3, 0, seed=1), 0)
    assert np.allclose(random_projection(3, 3, seed=1), np.eye(3))
    with pytest.raises(ValueError):
        random_projection(3, 4, seed=1)


def test_random_projection_is_projection_and_deterministic():
    for seed in range(5):
        p = random_projection(4, 2, seed=seed)
        assert np.linalg.norm(p - p.conj().T) <= 1e-12
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert abs(np.trace(p).real - 2.0) <= 1e-10
        assert np.allclose(p, random_projection(4, 2, seed=seed))


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


@pytest.mark.parametrize("d", [256, 512])
def test_random_projection_charge_bounds_its_traced_peak(monkeypatch, d):
    # the QR's working set: one d x d array was charged, and a draw peaked at 6 of them
    charges = []
    monkeypatch.setattr(magic, "check_bytes", lambda nbytes, what: charges.append(nbytes))
    random_projection(4, 1, seed=0)  # the modules a first draw imports are not sized by d
    for rank in (1, d // 2):
        charges.clear()
        peak = _traced_peak(lambda: random_projection(d, rank, seed=(3, rank)))
        assert peak <= max(charges), (peak, charges)


def test_noncommuting_pair_has_large_commutator():
    for seed in range(10):
        p, q = noncommuting_projection_pair(2, seed=seed)
        assert np.linalg.norm(p @ q - q @ p) >= 0.01


def test_noncommuting_pair_needs_two_dimensions():
    with pytest.raises(ValueError, match="d=1"):
        noncommuting_projection_pair(1, seed=0)


# -- relations report ------------------------------------------------------------------

def test_perturbed_entry_detected_at_its_own_scale():
    p, q = noncommuting_projection_pair(2, seed=11)
    u = block_pair(p, q)
    bad = u.entries.copy()
    bad[0, 0] += 1e-3
    rep = verify_relations(MagicUnitary(bad), tol=1e-9)
    assert not rep.passed
    assert 1e-4 < rep.max_residual < 1e-2


def test_relations_hold_one_lines_products_at_a_time():
    # the products of every pair in every row at once peaked at 157 times the unitary
    u = from_permutation(list(range(2, 33)) + [1], d=1)
    assert _traced_peak(lambda: verify_relations(u)) <= 8 * u.entries.nbytes


def test_relations_report_includes_derived_orthogonality():
    rep = verify_relations(from_permutation([2, 1], d=1))
    assert "orthogonal_matrix_rows" in rep.residuals
    assert "orthogonal_matrix_columns" in rep.residuals


# -- word products -----------------------------------------------------------------------

def test_word_product_single_entry():
    p, q = noncommuting_projection_pair(2, seed=2)
    u = block_pair(p, q)
    assert np.allclose(word_product(u, (1,), (2,)), u.entry(1, 2))


def test_word_product_column_orthogonality_forces_zero():
    p, q = noncommuting_projection_pair(2, seed=2)
    u = block_pair(p, q)
    # same column, different rows: u_{1j} u_{2j} = 0
    assert np.linalg.norm(word_product(u, (1, 2), (1, 1))) <= 1e-14


def test_word_product_matches_left_to_right_oracle():
    rng = np.random.default_rng(0)
    p, q = noncommuting_projection_pair(2, seed=8)
    u = block_pair(p, q)
    for _ in range(20):
        i = tuple(int(x) for x in rng.integers(1, 5, size=4))
        j = tuple(int(x) for x in rng.integers(1, 5, size=4))
        acc = np.eye(2, dtype=complex)
        for a, b in zip(i, j):
            acc = acc @ u.entry(a, b)
        assert np.allclose(word_product(u, i, j), acc)


def test_word_product_index_errors():
    u = from_permutation([1, 2])
    with pytest.raises(ValueError):
        word_product(u, (1, 2), (1,))
    with pytest.raises(ValueError):
        word_product(u, (3,), (1,))


# -- collapse sums -------------------------------------------------------------------------

def test_collapse_rejects_crossing_partition():
    u = block_pair(*noncommuting_projection_pair(2, seed=3))
    with pytest.raises(ValueError, match="crossing partition rejected"):
        collapse_sum_all(u, Partition(4, [[1, 3], [2, 4]]))


def test_collapse_block_pairs_identity_and_zero():
    u = block_pair(*noncommuting_projection_pair(2, seed=3))
    pi = Partition(4, [[1, 2], [3, 4]])
    assert np.linalg.norm(
        unsafe_bruteforce_sum(u, (1, 1, 2, 2), pi) - np.eye(2)
    ) <= 1e-10
    assert np.linalg.norm(unsafe_bruteforce_sum(u, (1, 2, 1, 2), pi)) <= 1e-10


def test_collapse_one_block_constant_tuple():
    u = block_pair(*noncommuting_projection_pair(2, seed=4))
    pi = Partition(3, [[1, 2, 3]])
    assert np.linalg.norm(
        unsafe_bruteforce_sum(u, (2, 2, 2), pi) - np.eye(2)
    ) <= 1e-12


def test_collapse_singletons_always_identity():
    u = block_pair(*noncommuting_projection_pair(2, seed=4))
    pi = Partition(3, [[1], [2], [3]])
    for i in itertools.product(range(1, 5), repeat=3):
        assert np.linalg.norm(
            unsafe_bruteforce_sum(u, i, pi) - np.eye(2)
        ) <= 1e-12


def test_collapse_matches_independent_filter_oracle():
    u = block_pair(*noncommuting_projection_pair(2, seed=6))
    rng = np.random.default_rng(1)
    for n in (2, 3, 4):
        for pi in enumerate_noncrossing(n):
            i = tuple(int(x) for x in rng.integers(1, 5, size=n))
            got = unsafe_bruteforce_sum(u, i, pi)
            assert np.allclose(got, collapse_oracle(u, i, pi), atol=1e-12)


def test_collapse_sum_all_rejects_an_oversize_coaction_before_any_work():
    # 4^7 tuples of 300x300 values: 22 GiB, far above MAX_BYTES
    u = from_permutation([1, 2, 3, 4], d=300)
    with pytest.raises(ValueError, match="coaction tensor with 4\\^7 300x300 values"):
        collapse_sum_all(u, Partition(7, [[p] for p in range(1, 8)]))


def test_collapse_sum_all_agrees_with_scalar_entry_point():
    u = block_pair(*noncommuting_projection_pair(2, seed=7))
    pi = Partition(3, [[1, 2], [3]])
    batch = collapse_sum_all(u, pi)
    for i in itertools.product(range(1, 5), repeat=3):
        idx = tuple(x - 1 for x in i)
        assert np.allclose(batch[idx], unsafe_bruteforce_sum(u, i, pi), atol=1e-12)
    # every NC(n <= 4) on three unitaries and on random non-projection entries,
    # where nothing collapses and only the literal sum can agree; per partition
    # four random tuples and four constant on its blocks
    rng = np.random.default_rng(7)
    unitaries = [
        u,
        from_permutation([3, 1, 4, 2], d=2),
        block_chain([random_projection(3, 1, (8, t)) for t in range(3)]),
        MagicUnitary(rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))),
    ]
    for u in unitaries:
        for n in range(1, 5):
            for pi in enumerate_noncrossing(n):
                batch = collapse_sum_all(u, pi)
                assert batch.shape == (u.k,) * n + (u.d, u.d)
                tuples = [tuple(int(x) for x in rng.integers(1, u.k + 1, size=n))
                          for _ in range(4)]
                for _ in range(4):
                    i = [0] * n
                    for block in pi.blocks:
                        v = int(rng.integers(1, u.k + 1))
                        for pos in block:
                            i[pos - 1] = v
                    tuples.append(tuple(i))
                for i in tuples:
                    got = batch[tuple(x - 1 for x in i)]
                    assert np.max(np.abs(got - unsafe_bruteforce_sum(u, i, pi))) <= 1e-12


def test_collapse_sum_all_result_outlives_later_contractions():
    # the kernel returns a view of its workspace; collapse_sum_all hands out a copy
    u = block_pair(*noncommuting_projection_pair(2, seed=7))
    first = collapse_sum_all(u, Partition(3, [[1, 2], [3]]))
    kept = first.copy()
    assert not any(np.shares_memory(first, b) for b in magic._buffers.pair)
    collapse_sum_all(u, Partition(3, [[1], [2], [3]]))
    check_quantum_invariance(CumulantMomentFunctional(CumulantSpec({2: 1.0})), u, n_max=3)
    assert np.array_equal(first, kept)


def test_tile_is_the_largest_divisor_under_the_product_cap():
    cap = magic._GEMM_MACS
    # the kernel's axis lengths r * k**e * d, and lengths with a large prime factor
    for length in [*range(1, 600), 6**5 * 2, 4**5 * 4, 7**5, 257 * 6**4, 65537 * 2]:
        divisors = [t for t in range(1, length + 1) if length % t == 0]
        for unit in (1, 7, 128, 144, 432, cap - 1, cap):
            fits = [t for t in divisors if t * unit < cap]
            # a single row that reaches the cap leaves the product untiled
            assert magic._tile(length, unit) == (max(fits) if fits else length), (length, unit)


def test_kernel_indicator_matches_leq():
    pi = Partition(4, [[1, 2], [3, 4]])
    ind = kernel_indicator(pi, 3)
    for i in itertools.product(range(1, 4), repeat=4):
        assert ind[tuple(x - 1 for x in i)] == collapse_expected(i, pi)


def test_kernel_indicator_is_constancy_on_every_block():
    for n, k in itertools.product(range(1, 5), range(1, 4)):
        for pi in enumerate_noncrossing(n):
            ind = kernel_indicator(pi, k)
            for i in itertools.product(range(1, k + 1), repeat=n):
                constant = all(len({i[x - 1] for x in b}) == 1 for b in pi.blocks)
                assert ind[tuple(x - 1 for x in i)] == leq(pi, kernel(i)) == constant


def _join_size(p, q):
    """How many blocks the join of p and q has: a union-find over their blocks."""
    parent = list(range(p.n + 1))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for b in p.blocks + q.blocks:
        for x in b[1:]:
            parent[root(x)] = root(b[0])
    return len({root(x) for x in range(1, p.n + 1)})


def test_kernel_indicators_meet_in_the_join():
    # the tuples constant on the blocks of pi and of sigma are those constant on pi v sigma
    cases = 0
    for n, k in itertools.product(range(1, 5), range(1, 4)):
        for pi, sigma in itertools.product(enumerate_noncrossing(n), enumerate_all(n)):
            both = kernel_indicator(pi, k) & kernel_indicator(sigma, k)
            assert both.sum() == k ** _join_size(pi, sigma), (pi, sigma, k)
            cases += 1
    assert cases == 720


def test_commuting_entries_satisfy_crossing_collapse_too():
    # with commuting entries the collapse identity holds for any partition
    cross = Partition(4, [[1, 3], [2, 4]])
    commuting = [
        from_permutation([2, 3, 1, 4], d=2),
        block_pair(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])),
    ]
    for u in commuting:
        for i in itertools.product(range(1, 5), repeat=4):
            target = np.eye(2) if collapse_expected(i, cross) else np.zeros((2, 2))
            got = unsafe_bruteforce_sum(u, i, cross)
            assert np.linalg.norm(got - target) <= 1e-12, i


def test_noncommuting_entries_break_crossing_collapse():
    p, q = noncommuting_projection_pair(2, seed=3)
    u = block_pair(p, q)
    cross = Partition(4, [[1, 3], [2, 4]])
    got = unsafe_bruteforce_sum(u, (1, 3, 1, 3), cross)
    assert np.linalg.norm(got - np.eye(2)) > 0.01
    # the deviation is exactly the two-projection power sum
    pc, qc = np.eye(2) - p, np.eye(2) - q
    direct = sum(
        np.linalg.matrix_power(a @ b, 2)
        for a, b in [(p, q), (p, qc), (pc, q), (pc, qc)]
    )
    assert np.allclose(got, direct, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_collapse_lemma_residual_is_the_norm_of_the_difference(d):
    # dense non-magic entries: no collapse sum is its target, so every tuple counts
    rng = np.random.default_rng(d)
    u = MagicUnitary(rng.standard_normal((3, 3, d, d)) + 1j * rng.standard_normal((3, 3, d, d)))
    devs = []
    for n in range(1, 4):
        for pi in enumerate_noncrossing(n):
            target = kernel_indicator(pi, 3)[..., None, None] * np.eye(d)
            diff = (collapse_sum_all(u, pi) - target).reshape(-1, d * d)
            devs.append(np.linalg.norm(diff, axis=1).max())
    assert collapse_lemma_residual(u, 3) == max(devs)  # in-place subtraction, bitwise


def test_collapse_lemma_residual_detects_a_broken_row():
    u = block_pair(*noncommuting_projection_pair(2, seed=4))
    assert collapse_lemma_residual(u, 4) <= 1e-12
    bad = u.entries.copy()
    bad[0, 0] += 1e-3 * np.eye(2)  # row 1 no longer sums to the identity
    residual = collapse_lemma_residual(MagicUnitary(bad), 2)
    assert 1e-4 < residual < 1e-2
