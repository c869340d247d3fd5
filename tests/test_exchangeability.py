"""Invariance checkers, freeness detection, the crossing probe, and the column model."""

import itertools
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qexch import cumulants, exchangeability, magic, partitions
from qexch.algebra import (
    BPolynomial,
    ConcreteMomentFunctional,
    MomentFunctional,
    _worst,
    pinching_context,
    scalar_context,
    verify_context,
)
from qexch.cumulants import (
    CumulantMomentFunctional,
    CumulantSpec,
    check_mixed_cumulants,
    random_spec,
)
from qexch.exchangeability import (
    InvarianceReport,
    TupleRecord,
    check_classical_exchangeability,
    check_E_invariance,
    check_factorization,
    check_freeness,
    check_quantum_invariance,
    crossing_sum_probe,
    finite_counterexample,
    permutation_coordinate_unitary,
)
from qexch.magic import (
    MagicUnitary,
    _coaction_all,
    block_chain,
    block_pair,
    from_permutation,
    noncommuting_projection_pair,
    random_projection,
    verify_relations,
    word_product,
)


def semicircular_spec(b_dim=1):
    """Unit variance, all other cumulants zero."""
    return CumulantSpec({2: np.ones(b_dim)}, b_dim=b_dim)


def bernoulli_functional(count=4):
    """count commuting independent +-1 variables, uniform product state."""
    dim = 2**count
    elements = []
    for t in range(count):
        diag = np.array(
            [1.0 - 2.0 * ((b >> (count - 1 - t)) & 1) for b in range(dim)]
        )
        elements.append(np.diag(diag).astype(complex))
    ctx = scalar_context(np.eye(dim) / dim)
    return ConcreteMomentFunctional(ctx, elements)


def spectral_projection_pair(d, seed):
    """Two exactly commuting projections built from one eigenbasis."""
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    basis, _ = np.linalg.qr(gauss)
    p = np.outer(basis[:, 0], basis[:, 0].conj())
    q = np.outer(basis[:, 1], basis[:, 1].conj())
    return (p + p.conj().T) / 2, (q + q.conj().T) / 2


# -- quantum invariance ----------------------------------------------------------

def test_free_semicircular_is_quantum_invariant():
    mf = CumulantMomentFunctional(semicircular_spec())
    u = block_pair(*noncommuting_projection_pair(2, seed=3))
    report = check_quantum_invariance(mf, u, n_max=6)
    assert report.passed
    assert report.max_residual <= 1e-8


def test_random_free_spec_invariant_on_larger_unitary():
    rng = np.random.default_rng(0)
    mf = CumulantMomentFunctional(random_spec(rng, 5))
    p, q = noncommuting_projection_pair(2, seed=5)
    u = block_chain([p, q, random_projection(2, 1, seed=6)])
    report = check_quantum_invariance(mf, u, n_max=5)
    assert report.passed


def test_permutation_unitary_reduces_to_classical_invariance():
    mf = bernoulli_functional()
    u = from_permutation([2, 1, 4, 3], d=2)
    report = check_quantum_invariance(mf, u, n_max=4)
    assert report.passed
    assert report.max_residual <= 1e-12


def test_classical_bernoulli_fails_quantum_invariance():
    mf = bernoulli_functional()
    u = block_pair(*noncommuting_projection_pair(2, seed=11))
    report = check_quantum_invariance(mf, u, n_max=4)
    assert not report.passed
    worst = report.worst
    assert worst.n == 4
    assert worst.residual > 0.01


def test_unitary_larger_than_family_rejected():
    mf = bernoulli_functional(count=2)
    u = block_pair(*noncommuting_projection_pair(2, seed=1))
    with pytest.raises(ValueError):
        check_quantum_invariance(mf, u, n_max=2)


def test_long_words_scanned_exhaustively():
    mf = CumulantMomentFunctional(semicircular_spec())
    u = block_pair(*noncommuting_projection_pair(2, seed=2))
    report = check_quantum_invariance(mf, u, n_max=9)
    assert report.passed
    assert len(report.per_length) == 9


def test_witness_ignores_last_bit_noise_on_ties():
    rng = np.random.default_rng(0)
    residuals = np.full(64, 0.68712)
    residuals[:10] = 0.5
    for _ in range(50):
        step = rng.integers(-1, 2, size=residuals.size)
        toward = np.copysign(np.inf, step)
        noisy = np.where(step == 0, residuals, np.nextafter(residuals, toward))
        peak, at = _worst(noisy)
        assert at == 10 and peak == noisy.max()


def test_witness_is_first_non_finite_residual():
    assert _worst(np.array([1.0, np.inf, np.nan, 2.0]))[1] == 1
    assert _worst(np.array([1.0, 2.0, np.nan, np.inf]))[1] == 2
    assert _worst(np.zeros(5)) == (0.0, 0)


def test_worst_peak_of_non_finite_and_empty_residuals():
    peak, at = _worst([1.0, np.nan, np.inf])
    assert np.isnan(peak) and at == 1
    assert _worst([1.0, -np.inf, np.nan]) == (np.inf, 1)  # -inf is the worst, and fails
    assert _worst([3.0, -np.inf]) == (np.inf, 1)
    assert _worst([]) == (0.0, None)
    assert _worst([-2.0, -1.0 - 1e-13, -1.0]) == (-1.0, 1)  # within 1e-12 of |peak|


def _noisy(norm, rng, seen):
    """norm moved by -1, 0 or +1 ulp at random; each value returned is appended to seen."""
    def noisy(a):
        value, step = norm(a), rng.integers(-1, 2)
        seen.append(value if step == 0 else float(np.nextafter(value, step * np.inf)))
        return seen[-1]
    return noisy


def _standardized(v):
    v = v - v.mean()
    return v / np.sqrt(np.mean(v * v))


def _commuting_pair(rng):
    """Two classically independent standardized diagonal variables on C^4 (x) C^4."""
    a, b = _standardized(rng.standard_normal(4)), _standardized(rng.standard_normal(4))
    ctx = scalar_context(np.eye(16) / 16)
    return ConcreteMomentFunctional(ctx, [np.kron(np.diag(a), np.eye(4)),
                                          np.kron(np.eye(4), np.diag(b))])


@pytest.mark.parametrize("s", [3, 7, 8, 9, 11])
def test_mixed_witness_of_tied_cumulants_is_the_first_tuple(s):
    # kappa(x1, x2, x1, x2) = kappa(x2, x1, x2, x1) exactly, but their rounding differs
    # by a few ulp (at s = 8: 3.9999999999999982 against 3.9999999999999996)
    report = check_mixed_cumulants(_commuting_pair(np.random.default_rng((s, 0, 1))), [1, 2], 4)
    assert report.witnesses["mixed_cumulant"] == (1, 2, 1, 2)


def test_ulp_noise_on_tied_mixed_cumulants_never_moves_the_witness(monkeypatch):
    mf = _commuting_pair(np.random.default_rng((8, 0, 1)))
    rng = np.random.default_rng(0)
    monkeypatch.setattr(cumulants, "frobenius", _noisy(cumulants.frobenius, rng, []))
    for _ in range(20):
        assert check_mixed_cumulants(mf, [1, 2], 4).witnesses["mixed_cumulant"] == (1, 2, 1, 2)


def test_ulp_noise_on_tied_centred_residuals_never_moves_the_witness(monkeypatch):
    # every centred product reads 1 up to one ulp, so all tuples tie and the first is named
    rng, seen = np.random.default_rng(1), []
    monkeypatch.setattr(exchangeability, "frobenius", _noisy(lambda a: 1.0, rng, seen))
    mf = CumulantMomentFunctional(semicircular_spec())
    for seed in range(20):
        seen.clear()
        report = check_freeness(mf, (1, 2), n_max=3, seed=seed)
        assert report.centered_worst == (1, 2)
        assert report.centered_max == max(seen)  # the peak stays the largest, bit for bit


class _NaNAtLength(CumulantMomentFunctional):
    """A free family whose moment tensor carries one NaN at word length `bad`."""

    def __init__(self, spec, bad):
        super().__init__(spec)
        self.bad = bad

    def scalar_moment_tensor(self, k, n):
        phi = super().scalar_moment_tensor(k, n)
        if n == self.bad:
            phi = phi.copy()
            phi.reshape(-1)[-1] = np.nan
        return phi


@pytest.mark.parametrize("bad", [1, 3])
def test_nan_residual_at_any_length_fails(bad):
    mf = _NaNAtLength(semicircular_spec(), bad)
    u = block_pair(*noncommuting_projection_pair(2, seed=3))
    report = check_quantum_invariance(mf, u, n_max=3)
    assert not report.passed
    assert report.worst.n == bad
    assert np.isnan(report.max_residual)


@pytest.mark.parametrize(
    "residuals", [[np.nan, 1e-16], [1e-16, np.nan], [1e-16, np.inf, 1e-16]]
)
def test_invariance_report_non_finite_is_worst(residuals):
    report = InvarianceReport(
        tolerance=1e-8,
        per_length=[TupleRecord(n, (1,) * n, r) for n, r in enumerate(residuals, 1)],
    )
    assert not np.isfinite(report.worst.residual)
    assert not report.passed


class _NaNMixedAtLength4(CumulantSpec):
    """Semicircular cumulants whose kernel sums for mixed words of length 4 are NaN.

    Both freeness criteria read moments through kernel_sum: the mixed
    cumulants per word, the centred products once per product.
    """

    def __init__(self):
        super().__init__({2: 1.0})

    def kernel_sum(self, patterns):
        patterns = list(patterns)
        rows = super().kernel_sum(patterns)
        rows[[len(p) == 4 and len(set(p)) > 1 for p in patterns]] = np.nan
        return rows


def test_nan_mixed_moment_fails_freeness():
    report = check_freeness(CumulantMomentFunctional(_NaNMixedAtLength4()), (1, 2), n_max=4)
    assert np.isnan(report.centered_max) and np.isnan(report.mixed_max)
    assert not report.centered_pass and not report.mixed_pass
    assert not report.passed


def test_nan_mixed_moment_fails_mixed_cumulants():
    report = check_mixed_cumulants(CumulantMomentFunctional(_NaNMixedAtLength4()), (1, 2), 4)
    assert np.isnan(report.max_residual)
    # the first mixed tuple of length 4
    assert report.witnesses == {"mixed_cumulant": (1, 1, 1, 2)}
    assert not report.passed


def test_nan_moment_fails_classical_exchangeability():
    mf = _NaNAtLength(semicircular_spec(), 2)
    report = check_classical_exchangeability(mf, 3, 3)
    assert not report.passed
    assert report.worst.n == 2


# -- the coaction kernel against the literal j-sum ----------------------------------------

def _literal_coaction(u, w, n):
    """sum_j word_product(u, i, j) (x) w[j] for every tuple i, one word at a time."""
    tuples = list(itertools.product(range(1, u.k + 1), repeat=n))
    out = np.zeros((len(tuples), u.d, u.d, w.shape[1]), dtype=complex)
    for a, i in enumerate(tuples):
        for b, j in enumerate(tuples):
            out[a] += np.multiply.outer(word_product(u, i, j), w[b])
    return out


def _random_w(rng, count, r):
    return rng.standard_normal((count, r)) + 1j * rng.standard_normal((count, r))


def _scalar_path_unitary(kind, blocks, d, rng, seed):
    """A block_chain of `blocks` random projections, or a permutation of 2 * blocks points."""
    if kind == "block_chain":
        return block_chain([random_projection(d, int(rng.integers(0, d + 1)), (seed, t))
                            for t in range(blocks)])
    return from_permutation(rng.permutation(2 * blocks) + 1, d=d)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.sampled_from(["block_chain", "permutation"]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_coaction_kernel_matches_literal_sum(kind, blocks, n, d, seed):
    # the scalar path: r = 1; the literal sum costs k^2n words, so k^n stays <= 64
    # (k = 6, n = 3 is checked against the positionwise einsum below)
    assume((2 * blocks) ** n <= 64)
    rng = np.random.default_rng(seed)
    u = _scalar_path_unitary(kind, blocks, d, rng, seed)
    w = _random_w(rng, u.k**n, 1)
    got = _coaction_all(u.entries, w, n)
    assert got.shape == (u.k**n, d, d, 1)
    assert np.max(np.abs(got - _literal_coaction(u, w, n))) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    st.sampled_from(["block_chain", "permutation"]),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_coaction_kernel_matches_literal_sum_on_rectangular_seed(kind, blocks, n, m, seed):
    # the E-invariance path: w[j] is an m x m value flattened to r = m * m
    rng = np.random.default_rng(seed)
    d = 2
    if kind == "block_chain":
        u = block_chain([random_projection(d, 1, (seed, t)) for t in range(blocks)])
    else:
        u = from_permutation(rng.permutation(2 * blocks) + 1, d=d)
    w = _random_w(rng, u.k**n, m * m)
    got = _coaction_all(u.entries, w, n)
    assert got.shape == (u.k**n, d, d, m * m)
    assert np.max(np.abs(got - _literal_coaction(u, w, n))) <= 1e-12


def _dense_unitary(rng, k, d):
    """k x k dense random d x d blocks: no magic relations and no zero block."""
    return MagicUnitary(rng.standard_normal((k, k, d, d)) + 1j * rng.standard_normal((k, k, d, d)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([1, 4]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_coaction_kernel_matches_literal_sum_on_dense_entries(k, d, r, n, seed):
    # every (i, j, a, c) entry is nonzero, so a transposed index cannot cancel out
    rng = np.random.default_rng(seed)
    u = _dense_unitary(rng, k, d)
    w = _random_w(rng, k**n, r)
    got = _coaction_all(u.entries, w, n)
    want = _literal_coaction(u, w, n)
    assert got.shape == want.shape == (k**n, d, d, r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("k", [4, 6])
@pytest.mark.parametrize("r", [1, 4])
def test_coaction_kernel_products_stay_below_the_blas_thread_cap(monkeypatch, k, r):
    # OpenBLAS hands a product of 2**16 multiply-adds or more to its thread pool
    macs = []
    matmul = np.matmul

    def recording(a, b, **kwargs):
        macs.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    rng = np.random.default_rng(k * r)
    u = _dense_unitary(rng, k, 2)
    for n in range(1, 7):
        macs.clear()
        _coaction_all(u.entries, _random_w(rng, k**n, r), n)
        assert len(macs) == n
        assert max(macs) < magic._GEMM_MACS, (n, macs)


def _positionwise_coaction(entries, w, n):
    """Reference: the coaction as n einsum contractions, one word position at a time."""
    k, d = entries.shape[0], entries.shape[2]
    t = np.einsum("...R,XC->...XCR", w.reshape((k,) * n + (-1,)), np.eye(d))
    axes = "abcdef"[:n]
    for s in reversed(range(n)):
        # the partial word u[i_s j_s] u[i_{s+1} j_{s+1}] ... has row index y
        before = axes[:s] + "J" + axes[s + 1:]
        t = np.einsum(f"{axes[s]}JyX,{before}XCR->{axes}yCR", entries, t)
    return t.reshape(k**n, d, d, -1)


@pytest.mark.parametrize("k, n", [(4, 6), (6, 5)])
@pytest.mark.parametrize("r", [1, 4])
def test_coaction_kernel_matches_positionwise_einsum_where_tiles_split(k, n, r):
    d = 2
    # every product of these shapes is split into several tiles
    assert magic._tile(r * k ** (n - 1), k * k * d * d) < r * k ** (n - 1)
    assert magic._tile(k ** (n - 1) * d, k * k * d * d) < k ** (n - 1) * d
    rng = np.random.default_rng((k, n, r))
    u = _dense_unitary(rng, k, d)
    w = _random_w(rng, k**n, r)
    got = _coaction_all(u.entries, w, n)
    want = _positionwise_coaction(u.entries, w, n)
    assert got.shape == want.shape == (k**n, d, d, r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["block_chain", "permutation"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_coaction_kernel_matches_positionwise_einsum_where_the_literal_sum_stops(kind, d):
    # the scalar-path shape that the literal-sum test leaves out: k = 6, n = 3
    k, n = 6, 3
    rng = np.random.default_rng((k, n, d))
    u = _scalar_path_unitary(kind, k // 2, d, rng, d)
    w = _random_w(rng, k**n, 1)
    got = _coaction_all(u.entries, w, n)
    want = _positionwise_coaction(u.entries, w, n)
    assert got.shape == want.shape == (k**n, d, d, 1)
    assert np.max(np.abs(got - want)) <= 1e-12


class _RandomTensors(CumulantMomentFunctional):
    """Dense random moment tensors, so residuals differ from tuple to tuple."""

    def __init__(self, b_dim, seed):
        super().__init__(semicircular_spec(b_dim))
        self.seed = seed

    def scalar_moment_tensor(self, k, n):
        return _random_w(np.random.default_rng((self.seed, n)), k**n, 1).reshape((k,) * n)

    def expectation_tensor(self, k, n, decorations):
        b = self.b_dim
        w = _random_w(np.random.default_rng((self.seed, n)), k**n, b * b)
        return w.reshape((k,) * n + (b, b))


def _first_occurrence(i):
    labels = {}
    return tuple(labels.setdefault(v, len(labels)) for v in i)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    st.sampled_from(["quantum", "e", "classical"]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_scan_residuals_and_witnesses_match_literal_norms(check, k, d, n_max, seed):
    rng = np.random.default_rng(seed)
    u = _dense_unitary(rng, k, d)
    mf = _RandomTensors(2 if check == "e" else 1, seed)
    if check == "quantum":
        report = check_quantum_invariance(mf, u, n_max)
    elif check == "e":
        report = check_E_invariance(mf, u, [np.eye(2)] * (n_max - 1), n_max=n_max)
    else:
        report = check_classical_exchangeability(mf, k, n_max)
    assert [rec.n for rec in report.per_length] == list(range(1, n_max + 1))
    for rec in report.per_length:
        n, shape = rec.n, (k,) * rec.n
        if check == "classical":
            w = mf.scalar_moment_tensor(k, n)
            diff = np.array([w[i] - w[_first_occurrence(i)] for i in np.ndindex(shape)])
        else:
            seed_tensor = (mf.expectation_tensor(k, n, [np.eye(2)] * (n - 1)) if check == "e"
                           else mf.scalar_moment_tensor(k, n))
            w = seed_tensor.reshape(k**n, -1)
            diff = _literal_coaction(u, w, n) - np.einsum("ac,ib->iacb", np.eye(d), w)
        norms = np.linalg.norm(diff.reshape(k**n, -1), axis=1)
        assert abs(rec.residual - norms.max()) <= 1e-12 * norms.max()
        witness = np.unravel_index(_worst(norms)[1], shape)
        assert rec.indices == tuple(int(x) + 1 for x in witness)


# -- the coaction workspace --------------------------------------------------------

def _workspace_scan_unitaries():
    chain = block_chain([random_projection(2, 1, (21, t)) for t in range(3)])
    pair = block_pair(*noncommuting_projection_pair(2, seed=22))
    return {"block_chain": chain, "block_pair": pair}


@pytest.mark.parametrize("kind", ["random", "cumulant"])
def test_concurrent_scans_match_serial_scans(kind):
    # each thread contracts in its own workspace and reads the tensors its own scan
    # keeps, while the other drops them: a k=6 and a k=4 scan of one oracle at once
    mf = _RandomTensors(1, seed=23) if kind == "random" else _kept_tensor_oracle(kind)[0]
    unitaries = _workspace_scan_unitaries()
    serial = {name: check_quantum_invariance(mf, u, n_max=5).per_length
              for name, u in unitaries.items()}
    start, chain_done = threading.Barrier(2, timeout=60), threading.Event()
    got = {name: [] for name in unitaries}

    def scan(name, u):
        # the faster k=4 scans repeat until the k=6 ones are done, so the two overlap throughout
        try:
            start.wait()
            while len(got[name]) < 10 or (name == "block_pair" and not chain_done.is_set()):
                got[name].append(check_quantum_invariance(mf, u, n_max=5).per_length)
        finally:
            if name == "block_chain":
                chain_done.set()

    threads = [threading.Thread(target=scan, args=item) for item in unitaries.items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over between word positions too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for name, runs in got.items():
        assert len(runs) >= 10
        assert all(per_length == serial[name] for per_length in runs), name


def test_coaction_workspace_is_reused_and_bounded():
    # a fresh thread starts with no workspace, so its growth is this test's alone
    mf = CumulantMomentFunctional(semicircular_spec())
    unitaries = _workspace_scan_unitaries()
    oversize = from_permutation([1, 2, 3, 4], d=300)

    def scans():
        check_quantum_invariance(mf, unitaries["block_chain"], n_max=6)
        first = magic._buffers.pair
        assert [b.size for b in first] == [6**6 * 2 * 2] * 2
        check_quantum_invariance(mf, unitaries["block_chain"], n_max=6)
        assert all(a is b for a, b in zip(magic._buffers.pair, first))
        check_quantum_invariance(mf, unitaries["block_pair"], n_max=5)
        assert all(a is b for a, b in zip(magic._buffers.pair, first))
        with pytest.raises(ValueError, match="coaction tensor with 4\\^7 300x300"):
            check_quantum_invariance(mf, oversize, n_max=7)
        assert all(a is b for a, b in zip(magic._buffers.pair, first))
        assert [b.size for b in magic._buffers.pair] == [6**6 * 2 * 2] * 2

    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(scans).result()


# -- kept moment tensors -------------------------------------------------------------

def _sweep_unitaries():
    # three 4x4 and two 6x6 non-commuting magic unitaries: k = 4, 4, 4, 6, 6
    pairs = [noncommuting_projection_pair(2, seed=(31, t)) for t in range(5)]
    return [block_pair(*pairs[t]) for t in range(3)] + [
        block_chain([*pairs[t], pairs[t - 1][0]]) for t in (3, 4)
    ]


def _kept_tensor_oracle(kind):
    """A fresh oracle of `kind`, and the name of the method that builds its tensors."""
    rng = np.random.default_rng(32)
    if kind == "cumulant":
        return CumulantMomentFunctional(random_spec(rng, 4)), "kernel_sum"
    ctx = pinching_context([[0], [1]])
    elements = [(x + x.conj().T) / 2 for x in rng.standard_normal((6, 2, 2)) + 0j]
    return ConcreteMomentFunctional(ctx, elements), "_product_stack"


def _count_builds(monkeypatch, mf, method):
    owner = mf.spec if method == "kernel_sum" else mf
    builds = []
    original = getattr(owner, method)

    def counting(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, method, counting)
    return builds


@pytest.mark.parametrize("kind", ["cumulant", "concrete"])
def test_scans_against_several_unitaries_build_each_tensor_once(monkeypatch, kind):
    mf, method = _kept_tensor_oracle(kind)
    builds = _count_builds(monkeypatch, mf, method)
    unitaries = _sweep_unitaries()
    shared = [check_quantum_invariance(mf, u, n_max=6) for u in unitaries]
    assert [u.k for u in unitaries] == [4, 4, 4, 6, 6]
    assert len(builds) == 12  # one per (k, n): k in {4, 6}, n in 1..6
    # the first k=6 scan dropped the k=4 tensors before it charged its working set
    assert sorted(exchangeability._kept[mf]) == [(6, n) for n in range(1, 7)]
    for u, report in zip(unitaries, shared):
        fresh, _ = _kept_tensor_oracle(kind)
        assert check_quantum_invariance(fresh, u, n_max=6) == report


@pytest.mark.parametrize("kind", ["cumulant", "concrete"])
def test_kept_tensors_are_read_only_and_returned_again(monkeypatch, kind):
    mf, method = _kept_tensor_oracle(kind)
    builds = _count_builds(monkeypatch, mf, method)
    u = _sweep_unitaries()[0]
    first = check_quantum_invariance(mf, u, n_max=3)
    assert len(builds) == 3
    assert check_quantum_invariance(mf, u, n_max=3) == first
    assert len(builds) == 3  # the second scan at k=4 built nothing
    for (k, n), tensor in exchangeability._kept[mf].items():
        assert not tensor.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            tensor[(0,) * n] = 1.0
        np.testing.assert_allclose(tensor, MomentFunctional.scalar_moment_tensor(mf, k, n), atol=1e-13)


def test_a_write_to_what_a_kept_tensor_was_built_from_raises():
    # x1 and x2 are classically exchangeable; with x2 = diag(2, 0, 0, 0) they are not,
    # and a scan that read the kept tensors would still say PASS
    elements = [np.diag([1.0, -1, 1, -1]) + 0j, np.diag([1.0, 1, -1, -1]) + 0j]
    mf = ConcreteMomentFunctional(scalar_context(np.eye(4) / 4 + 0j), elements)
    assert check_classical_exchangeability(mf, 2, 3).max_residual == 0.0
    assert isinstance(mf.elements, tuple) and elements[1] is mf.elements[1]  # frozen, not copied
    with pytest.raises(ValueError, match="read-only"):
        mf.elements[1][:] = np.diag([2, 0, 0, 0])
    with pytest.raises(ValueError, match="read-only"):
        mf.context.density[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        pinching_context([[0, 1], [2, 3]]).mask[0, 3] = 1.0
    fresh = ConcreteMomentFunctional(scalar_context(np.eye(4) / 4), [x.copy() for x in mf.elements])
    assert check_classical_exchangeability(mf, 2, 3) == check_classical_exchangeability(fresh, 2, 3)
    written = [elements[0], np.diag([2, 0, 0, 0])]  # what the write would have made
    fresh = ConcreteMomentFunctional(scalar_context(np.eye(4) / 4), written)
    assert check_classical_exchangeability(fresh, 2, 3).max_residual == 2.0


def test_what_a_kept_tensor_was_built_from_cannot_be_rebound():
    # mf.elements = (x1, diag(2, 0, 0, 0)) left a second scan at 0.0 where a fresh oracle reads 2.0
    mf, _ = _kept_tensor_oracle("concrete")
    cmf, _ = _kept_tensor_oracle("cumulant")
    for oracle in (mf, cmf):
        check_classical_exchangeability(oracle, 2, 3)
    for owner, name in [(mf, "elements"), (mf, "context"), (mf.context, "density"),
                        (mf.context, "mask"), (cmf, "spec"), (cmf.spec, "kappa"),
                        (cmf.spec, "weights")]:
        with pytest.raises(AttributeError):
            setattr(owner, name, getattr(owner, name))


# x1 = diag(1, -1, 1, -1) and x2 = diag(1, 1, -1, -1) in the trace state fail freeness at n_max 4
EMPTY_MF = ConcreteMomentFunctional(scalar_context(np.eye(4) / 4),
                                    [np.diag([1.0, -1, 1, -1]), np.diag([1.0, 1, -1, -1])])
EMPTY_U = block_pair(*noncommuting_projection_pair(2, seed=11))


@pytest.mark.parametrize("call, message", [
    (lambda: check_freeness(EMPTY_MF, (1, 2), 1), "n_max must be >= 2, got 1"),
    (lambda: check_freeness(EMPTY_MF, (1, 2), -2), "n_max must be >= 2, got -2"),
    (lambda: check_mixed_cumulants(EMPTY_MF, (1, 2), 0), "n_max must be >= 2, got 0"),
    (lambda: check_quantum_invariance(EMPTY_MF, EMPTY_U, 0), "n_max must be >= 1, got 0"),
    (lambda: check_classical_exchangeability(EMPTY_MF, 2, -3), "n_max must be >= 1, got -3"),
    (lambda: check_E_invariance(EMPTY_MF, EMPTY_U, [], 0), "n_max must be >= 1, got 0"),
    (lambda: magic.collapse_lemma_residual(EMPTY_U, 0), "n_max must be >= 1, got 0"),
    (lambda: magic.collapse_lemma_residual(EMPTY_U, -3), "n_max must be >= 1, got -3"),
    (lambda: check_classical_exchangeability(CumulantMomentFunctional(semicircular_spec()), 0, 3),
     "k must be >= 1, got 0"),
    (lambda: verify_context(EMPTY_MF.context, samples=0), "samples must be >= 1, got 0"),
], ids=["freeness_1", "freeness_negative", "mixed_0", "quantum_0", "classical_negative",
        "e_invariance_0", "collapse_0", "collapse_negative", "classical_k_0", "samples_0"])
def test_an_empty_range_is_refused_naming_its_parameter(call, message):
    # each passed with a residual of 0, or raised a stray error, before any work was refused
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_the_tensor_length_cap_admits_its_own_length():
    # 1^62 is one entry on numpy's longest admitted tensor, and 63 is refused before any work
    mf = ConcreteMomentFunctional(scalar_context(np.eye(1)), [np.eye(1)])
    assert mf.scalar_moment_tensor(1, 62).shape == (1,) * 62
    report = check_classical_exchangeability(mf, 1, 62)
    assert report.passed and len(report.per_length) == 62
    for call in (mf.scalar_moment_tensor, partial(check_classical_exchangeability, mf)):
        with pytest.raises(ValueError, match="^tensor length 63 exceeds the cap 62 "):
            call(1, 63)


def test_a_freeness_residual_equal_to_the_tolerance_passes():
    # every residual of one semicircular variable is exactly 0.0, so tol 0 passes both criteria
    report = check_freeness(CumulantMomentFunctional(semicircular_spec()), (1, 1), 2, tol=0.0)
    assert (report.centered_max, report.mixed_max) == (0.0, 0.0)
    assert report.centered_pass and report.mixed_pass and report.passed


def test_a_cumulant_spec_holds_read_only_copies():
    kappa2, weights = np.array([1.0, 4.0]), np.array([0.5, 0.5])
    spec = CumulantSpec({2: kappa2}, b_dim=2, weights=weights)
    mf = CumulantMomentFunctional(spec)
    first = check_classical_exchangeability(mf, 2, 4)
    kappa2[:], weights[:] = 0.0, 0.0  # the caller's arrays stay the caller's
    for array in (spec.kappa[2], spec.weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 9.0
    with pytest.raises(TypeError):
        spec.kappa[4] = np.ones(2)
    assert check_classical_exchangeability(mf, 2, 4) == first
    fresh = CumulantMomentFunctional(CumulantSpec({2: [1.0, 4.0]}, b_dim=2))
    assert check_classical_exchangeability(fresh, 2, 4) == first


def test_each_scan_keeps_only_the_tensors_it_read():
    mf, _ = _kept_tensor_oracle("concrete")
    for k, n_max in [(2, 5), (3, 4), (4, 3), (4, 2)]:
        check_classical_exchangeability(mf, k, n_max)
        assert sorted(exchangeability._kept[mf]) == [(k, n) for n in range(1, n_max + 1)]
    # an E-invariance scan reads no scalar tensor, and drops every kept one
    check_E_invariance(mf, from_permutation([2, 1, 3]), [np.eye(2)], n_max=2)
    assert exchangeability._kept[mf] == {}


@pytest.mark.parametrize("check", ["freeness", "factorization"])
def test_a_non_scan_check_drops_the_kept_tensors(check):
    # it reads none of them, so it does not run beside the last scan's tensors
    mf, _ = _kept_tensor_oracle("concrete")
    check_classical_exchangeability(mf, 3, 3)
    assert sorted(exchangeability._kept[mf]) == [(3, n) for n in range(1, 4)]
    if check == "freeness":
        check_freeness(mf, (1, 2), n_max=2)
    else:
        x = BPolynomial([(np.eye(2), np.eye(2))])
        check_factorization(mf, (1, 2), [x, x], l=1)
    assert mf not in exchangeability._kept


# -- classical exchangeability ------------------------------------------------------

def test_iid_diagonal_model_classically_exchangeable():
    mf = bernoulli_functional()
    report = check_classical_exchangeability(mf, 4, 4)
    assert report.passed
    assert report.max_residual == 0.0


def test_cumulant_backed_family_classically_exchangeable():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(1), 4))
    report = check_classical_exchangeability(mf, 4, 4)
    assert report.passed


def test_non_identically_distributed_family_fails_at_length_one():
    ctx = scalar_context(np.diag([0.6, 0.4]))
    mf = ConcreteMomentFunctional(ctx, [np.eye(2), 2.0 * np.eye(2)])
    report = check_classical_exchangeability(mf, 2, 3)
    assert not report.passed
    first = report.per_length[0]
    assert first.residual > 0.1
    assert first.indices == (2,)  # phi(x_2) against its pattern's phi(x_1)
    assert all(type(x) is int for rec in report.per_length for x in rec.indices)


def _permutation_loop_residuals(mf, k, n_max):
    """The literal oracle: max over every sigma in S_k of |phi(x_i) - phi(x_sigma(i))|."""
    out = []
    for n in range(1, n_max + 1):
        phi = mf.scalar_moment_tensor(k, n)
        worst = 0.0
        for perm in itertools.permutations(range(k)):
            permuted = phi[np.ix_(*([np.asarray(perm)] * n))]
            worst = max(worst, float(np.abs(phi - permuted).max()))
        out.append(worst)
    return out


def _random_hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


@st.composite
def concrete_families(draw):
    """(mf, k) with 2 <= k <= 4: k commuting i.i.d. two-point variables, one of
    them possibly rescaled, or k random Hermitian 3 x 3 matrices under a random state."""
    k = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["iid", "rescaled", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        density = a @ a.conj().T
        elements = [_random_hermitian(rng, 3) for _ in range(k)]
        return ConcreteMomentFunctional(scalar_context(density / np.trace(density)), elements), k
    values, p = rng.standard_normal(2), rng.uniform(0.1, 0.9)
    bits = np.array(list(itertools.product((0, 1), repeat=k)))  # one row per atom
    weights = np.prod(np.where(bits == 0, p, 1 - p), axis=1)
    elements = [np.diag(values[bits[:, t]]).astype(complex) for t in range(k)]
    if kind == "rescaled":
        elements[-1] = elements[-1] * rng.uniform(1.5, 2.0)
    return ConcreteMomentFunctional(scalar_context(np.diag(weights)), elements), k


@settings(max_examples=40, deadline=None, derandomize=True)
@given(concrete_families(), st.integers(1, 4))
def test_pattern_scan_agrees_with_permutation_loop(family, n_max):
    # new <= old: the pattern of i lies in the orbit of i.  old <= 2 new: i and
    # sigma(i) share one pattern, so the triangle inequality runs through it.
    # Both up to rounding, since the driver's norm and np.abs round differently.
    mf, k = family
    report = check_classical_exchangeability(mf, k, n_max)
    old = _permutation_loop_residuals(mf, k, n_max)
    new = [rec.residual for rec in report.per_length]
    assert len(new) == n_max
    for a, b in zip(new, old):
        assert a <= b * (1 + 1e-12) and b <= 2 * a * (1 + 1e-12)
    assert report.passed == (max(old) <= 1e-8)


class _PerturbedAt(CumulantMomentFunctional):
    """A free family with the moment of one tuple (1-based) moved by 1e-3."""

    def __init__(self, spec, tup):
        super().__init__(spec)
        self.tup = tup

    def scalar_moment_tensor(self, k, n):
        phi = super().scalar_moment_tensor(k, n)
        if n == len(self.tup):
            phi = phi.copy()
            phi[tuple(x - 1 for x in self.tup)] += 1e-3
        return phi


def test_classical_scan_covers_every_tuple_at_k7():
    # 7! = 5040 permutations; every tuple is compared with its pattern
    spec = random_spec(np.random.default_rng(5), 4)
    report = check_classical_exchangeability(CumulantMomentFunctional(spec), 7, 4)
    assert report.passed
    assert [rec.n for rec in report.per_length] == [1, 2, 3, 4]
    report = check_classical_exchangeability(_PerturbedAt(spec, (7, 2, 7, 5)), 7, 4)
    assert not report.passed
    worst = report.worst
    assert (worst.n, worst.indices) == (4, (7, 2, 7, 5))
    assert abs(worst.residual - 1e-3) <= 1e-12


@pytest.mark.parametrize("kind, k, n", [("concrete", 2, 16), ("concrete", 3, 10), ("cumulant", 4, 8)])
def test_classical_scan_charge_bounds_its_traced_peak(monkeypatch, kind, k, n):
    # one charge covers the scan, its kernel-pattern tables built cold included
    charged = []
    monkeypatch.setattr(exchangeability, "check_bytes", lambda nbytes, what: charged.append(nbytes))
    if kind == "cumulant":
        mf = CumulantMomentFunctional(random_spec(np.random.default_rng(40), 4))
    else:
        elements = [np.diag([1.0, -1.0]) * (v + 1) for v in range(k)]
        mf = ConcreteMomentFunctional(scalar_context(np.eye(2) / 2), elements)
    partitions._pattern_table.cache_clear()
    partitions._profile_counts.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        check_classical_exchangeability(mf, k, n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= charged[-1], (peak, charged[-1])


def test_classical_k_above_variable_count_rejected():
    with pytest.raises(ValueError, match="variable index 5 outside 1..4"):
        check_classical_exchangeability(bernoulli_functional(count=4), 5, 2)


# -- E-level invariance ----------------------------------------------------------------

def test_scalar_b_e_invariance_coincides_with_quantum():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(2), 4))
    u = block_pair(*noncommuting_projection_pair(2, seed=4))
    rep_e = check_E_invariance(mf, u, [np.eye(1)] * 3, n_max=4)
    rep_q = check_quantum_invariance(mf, u, n_max=4)
    assert rep_e.passed and rep_q.passed
    for a, b in zip(rep_e.per_length, rep_q.per_length):
        assert abs(a.residual - b.residual) <= 1e-12


def test_diagonal_b_e_invariance_with_decorations():
    rng = np.random.default_rng(3)
    mf = CumulantMomentFunctional(random_spec(rng, 4, b_dim=2))
    p, q = noncommuting_projection_pair(2, seed=7)
    u = block_chain([p, q, random_projection(2, 1, seed=8)])
    decorations = [mf.random_coeff(rng) for _ in range(3)]
    report = check_E_invariance(mf, u, decorations=decorations, n_max=4)
    assert report.passed
    assert report.max_residual <= 1e-8


def test_permutation_unitary_e_invariance_for_identically_distributed():
    rng = np.random.default_rng(4)
    mf = CumulantMomentFunctional(random_spec(rng, 4, b_dim=2))
    u = from_permutation([3, 1, 2, 4], d=1)
    decorations = [mf.random_coeff(rng) for _ in range(3)]
    report = check_E_invariance(mf, u, decorations=decorations, n_max=4)
    assert report.passed


def test_noncommutative_b_rejected():
    rng = np.random.default_rng(5)
    ctx = pinching_context([[0, 1]])  # B is all of M_2: noncommutative
    xs = [rng.standard_normal((2, 2)) for _ in range(2)]
    mf = ConcreteMomentFunctional(ctx, xs)
    u = from_permutation([2, 1], d=1)
    with pytest.raises(ValueError, match="requires a commutative subalgebra B"):
        check_E_invariance(mf, u, [np.eye(2)], n_max=2)


def test_concrete_scalar_b_e_invariance_for_iid_family():
    mf = bernoulli_functional()
    u = from_permutation([4, 3, 2, 1], d=2)
    rng = np.random.default_rng(6)
    decorations = [mf.random_coeff(rng) for _ in range(2)]
    report = check_E_invariance(mf, u, decorations=decorations, n_max=3)
    assert report.passed
    assert report.max_residual <= 1e-12


def biased_bernoulli_functional(count=4, plus_weight=0.25):
    """count commuting independent +-1 variables with a biased product state."""
    dim = 2**count
    elements = []
    weights = np.ones(dim)
    for t in range(count):
        signs = np.array(
            [1.0 - 2.0 * ((b >> (count - 1 - t)) & 1) for b in range(dim)]
        )
        elements.append(np.diag(signs).astype(complex))
        weights *= np.where(signs > 0, plus_weight, 1.0 - plus_weight)
    ctx = scalar_context(np.diag(weights).astype(complex))
    return ConcreteMomentFunctional(ctx, elements)


def test_non_free_independent_families_caught_by_some_seeded_unitary():
    # independent commuting families have trivial tails, so failing scalar
    # freeness must show up against some non-commuting unitary
    for mf in (bernoulli_functional(count=4), biased_bernoulli_functional(count=4)):
        assert not check_freeness(mf, (1, 2), n_max=4).passed
        found = False
        for seed in range(10):
            u = block_pair(*noncommuting_projection_pair(2, seed=seed))
            if not check_quantum_invariance(mf, u, n_max=4).passed:
                found = True
                break
        assert found


def test_identical_copies_expose_the_amalgamation_base():
    # four copies of one matrix: constant moments make the coaction telescope
    # through the row sums, so quantum invariance holds even though the family
    # is far from free over the scalars.  Its conditional independence lives
    # over the algebra the copies generate, which scalar centering ignores.
    mf = ConcreteMomentFunctional(
        scalar_context(np.diag([0.7, 0.2, 0.1])),
        [np.diag([1.0, 2.0, 3.0]).astype(complex)] * 4,
    )
    assert not check_freeness(mf, (1, 2), n_max=3).passed
    for seed in range(3):
        u = block_pair(*noncommuting_projection_pair(2, seed=seed))
        assert check_quantum_invariance(mf, u, n_max=4).passed


# -- factorization ------------------------------------------------------------------------

def test_factorization_single_position_is_exact():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(6), 4))
    p = BPolynomial([(mf.identity_coeff(), mf.identity_coeff())])
    assert check_factorization(mf, (1,), [p], l=1) <= 1e-12


def test_factorization_for_free_families():
    rng = np.random.default_rng(7)
    mf = CumulantMomentFunctional(random_spec(rng, 4))
    for variables, l in [((1, 2), 2), ((1, 2, 1), 2), ((1, 2, 3), 1), ((1, 2, 3, 1), 3)]:
        for _ in range(5):
            polys = [
                BPolynomial(
                    [
                        (mf.random_coeff(rng), mf.random_coeff(rng)),
                        (mf.random_coeff(rng), mf.random_coeff(rng), mf.random_coeff(rng)),
                    ]
                )
                for _ in variables
            ]
            assert check_factorization(mf, variables, polys, l) <= 1e-9


def test_factorization_fails_for_dependent_family():
    # x1 = x3 share their matrix with x2 under a skewed state
    ctx = scalar_context(np.diag([0.7, 0.3]))
    x = np.diag([2.0, 1.0]).astype(complex)
    mf = ConcreteMomentFunctional(ctx, [x, x.copy()])
    polys = [BPolynomial([(np.eye(2), np.eye(2))]) for _ in range(3)]
    residual = check_factorization(mf, (1, 2, 1), polys, l=2)
    assert residual > 1e-3


def test_factorization_precondition_is_an_error():
    mf = CumulantMomentFunctional(semicircular_spec())
    polys = [BPolynomial([(mf.identity_coeff(), mf.identity_coeff())]) for _ in range(3)]
    with pytest.raises(ValueError):
        check_factorization(mf, (1, 2, 1), polys, l=1)
    with pytest.raises(ValueError):
        check_factorization(mf, (1, 2, 1), polys, l=5)
    with pytest.raises(ValueError, match="need one variable index per polynomial"):
        check_factorization(mf, (1, 2), polys, l=1)


# -- freeness ---------------------------------------------------------------------------------

def test_free_family_passes_both_criteria():
    mf = CumulantMomentFunctional(random_spec(np.random.default_rng(8), 4))
    report = check_freeness(mf, (1, 2), n_max=4)
    assert report.passed
    assert report.consistent


def test_bernoulli_pair_fails_both_criteria_together():
    mf = bernoulli_functional(count=2)
    report = check_freeness(mf, (1, 2), n_max=4)
    assert not report.centered_pass
    assert not report.mixed_pass
    assert report.consistent


def test_mixed_criterion_scans_every_variable_however_short_n_max():
    # x3 is a copy of x1, and x1, x2 are independent +-1 variables; with n_max 2 the
    # pair (1, 3) is the only dependent one, and both criteria must see it
    x1, x2 = np.diag([1.0, 1.0, -1.0, -1.0]), np.diag([1.0, -1.0, 1.0, -1.0])
    mf = ConcreteMomentFunctional(scalar_context(np.eye(4) / 4), [x1, x2, x1])
    report = check_freeness(mf, (1, 2, 3), n_max=2)
    assert not report.mixed_pass and report.consistent
    assert report.mixed_worst == (1, 3)


def test_single_variable_is_vacuously_free():
    mf = CumulantMomentFunctional(semicircular_spec())
    report = check_freeness(mf, (1,), n_max=4)
    assert report.passed
    assert (report.centered_max, report.mixed_max) == (0.0, 0.0)


@pytest.mark.parametrize("variables", [(5,), (5, 5)])
def test_single_variable_freeness_names_a_variable_that_exists(variables):
    mf = bernoulli_functional(count=4)
    with pytest.raises(ValueError, match="variable index 5 outside 1..4"):
        check_freeness(mf, variables, n_max=4)


# -- crossing sum probe ------------------------------------------------------------------------

def test_crossing_sum_commuting_projections_give_identity():
    p = np.diag([1.0, 0.0])
    q = np.diag([0.0, 1.0])
    for s in (2, 3, 4):
        for variant in ("plain", "capped"):
            _, dist = crossing_sum_probe(p, q, s, variant)
            assert dist <= 1e-14


def test_crossing_sum_quarter_angle_matches_symbolic_oracle():
    # independent exact 2x2 computation with sympy rationals
    sympy = pytest.importorskip("sympy")
    half = sympy.Rational(1, 2)
    P = sympy.Matrix([[1, 0], [0, 0]])
    Q = sympy.Matrix([[half, half], [half, half]])  # theta = pi/4
    eye = sympy.eye(2)
    total = sympy.zeros(2, 2)
    for a, b in [(P, Q), (P, eye - Q), (eye - P, Q), (eye - P, eye - Q)]:
        total += (a * b) ** 2
    diff = total - eye
    exact = sympy.sqrt(sum(abs(diff[i, j]) ** 2 for i in range(2) for j in range(2)))

    theta = np.pi / 4
    q = np.array(
        [
            [np.cos(theta) ** 2, np.cos(theta) * np.sin(theta)],
            [np.cos(theta) * np.sin(theta), np.sin(theta) ** 2],
        ]
    )
    _, dist = crossing_sum_probe(np.diag([1.0, 0.0]), q, 2)
    assert abs(dist - float(exact)) <= 1e-12
    assert dist > 0.1


def test_crossing_sum_degenerate_projection_is_silent():
    p = random_projection(2, 1, seed=9)
    for variant in ("plain", "capped"):
        _, dist = crossing_sum_probe(p, np.eye(2), 2, variant)
        assert dist <= 1e-14
        _, dist0 = crossing_sum_probe(p, np.zeros((2, 2)), 3, variant)
        assert dist0 <= 1e-14


def test_crossing_sum_iff_on_seeded_samples():
    for idx in range(30):
        d = 2 if idx < 15 else 3
        if idx % 2 == 0:
            p, q = noncommuting_projection_pair(d, seed=(20, idx))
            comm = np.linalg.norm(p @ q - q @ p)
            assert comm >= 0.01
            for s in (2, 3):
                for variant in ("plain", "capped"):
                    _, dist = crossing_sum_probe(p, q, s, variant)
                    assert dist > 1e-4, (idx, s, variant)
        else:
            p, q = spectral_projection_pair(d, seed=(21, idx))
            assert np.linalg.norm(p @ q - q @ p) <= 1e-10
            for s in (2, 3):
                for variant in ("plain", "capped"):
                    _, dist = crossing_sum_probe(p, q, s, variant)
                    assert dist <= 1e-10, (idx, s, variant)


def test_crossing_sum_input_validation():
    p = random_projection(2, 1, seed=0)
    with pytest.raises(ValueError):
        crossing_sum_probe(p, p, 1)
    with pytest.raises(ValueError):
        crossing_sum_probe(p, p, 2, variant="other")
    with pytest.raises(ValueError):
        crossing_sum_probe(np.array([[0.5, 0], [0, 0]]), p, 2)


# -- the small-n column model --------------------------------------------------------------------

def test_counterexample_n2():
    report = finite_counterexample(2)
    assert report.psi_u11 == Fraction(1, 2)
    assert report.psi_u11_u21 == Fraction(0)
    assert report.exchangeable
    assert report.relations_exact
    assert report.contradiction
    assert report.passed


def test_counterexample_n3():
    report = finite_counterexample(3)
    assert report.psi_u11 == Fraction(1, 3)
    assert report.psi_u11_u21 == Fraction(0)
    assert report.free_prediction == Fraction(1, 9)
    assert report.passed


def test_counterexample_rejects_other_sizes():
    for n in (1, 4, 5):
        with pytest.raises(ValueError):
            finite_counterexample(n)


def test_column_model_reads_exchangeability_from_the_model(monkeypatch):
    # the n=3 model on the atoms id and (1 2) is still magic, but u_11 and u_31 differ:
    # psi(u11) = 1/2 and psi(u31) = 0, although rows 1 and 3 have one kernel pattern
    u = permutation_coordinate_unitary(3)
    kept = [0, 2]  # atoms in itertools.permutations order: (1, 2, 3), (1, 3, 2), (2, 1, 3), ...
    restricted = MagicUnitary(u.entries[:, :, kept][:, :, :, kept])
    assert verify_relations(restricted, tol=0.0).passed
    monkeypatch.setattr(exchangeability, "permutation_coordinate_unitary", lambda n: restricted)
    report = finite_counterexample(3)
    assert report.psi_u11 == Fraction(1, 2)
    assert report.relations_exact
    assert not report.exchangeable
    assert not report.passed


def test_column_model_reads_relations_from_the_model(monkeypatch):
    u = permutation_coordinate_unitary(3)
    entries = u.entries.copy()
    entries[0, 0, 0, 0] = 0.5
    monkeypatch.setattr(
        exchangeability, "permutation_coordinate_unitary", lambda n: MagicUnitary(entries)
    )
    report = finite_counterexample(3)
    assert not report.relations_exact
    assert not report.passed


def test_coordinate_unitary_is_exactly_magic():
    for n in (2, 3):
        u = permutation_coordinate_unitary(n)
        assert u.k == n
        rep = verify_relations(u)
        assert rep.max_residual == 0.0


def test_column_moments_match_urn_arithmetic():
    # psi of a column word is 1/n on constant rows and 0 otherwise
    u = permutation_coordinate_unitary(3)
    dim = u.d
    psi = lambda m: complex(np.trace(m)) / dim
    for rows in itertools.product(range(1, 4), repeat=2):
        prod = u.entry(rows[0], 1) @ u.entry(rows[1], 1)
        expected = (1.0 / 3.0) if rows[0] == rows[1] else 0.0
        assert abs(psi(prod) - expected) <= 1e-14
