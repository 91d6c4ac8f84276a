"""Property tests over the primitives, driven by hypothesis."""

from itertools import permutations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precisionlab import (
    PrecisionLabError,
    RngStream,
    alpha_analytic,
    alpha_monte_carlo,
    conditional_covariance_schur,
    dump_symmetric_matrix,
    load_symmetric_matrix,
    log_density,
    section_covariance,
)
from precisionlab.cli import main
from precisionlab.parallel import comoments, merge_all, moments


@st.composite
def spd_matrices(draw):
    """Random SPD matrix of dimension 3..8 with condition number 1..1e10."""
    d = draw(st.integers(3, 8))
    cond = 10.0 ** draw(st.floats(0.0, 10.0))
    seed = draw(st.integers(0, 2**32 - 1))
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    a = (q * np.geomspace(1.0, cond, d)) @ q.T
    return 0.5 * (a + a.T)


@given(spd_matrices(), st.data())
def test_alpha_analytic_equals_schur(a, data):
    d = a.shape[0]
    i = data.draw(st.integers(0, d - 1))
    j = data.draw(st.integers(0, d - 1).filter(lambda k: k != i))
    alpha = alpha_analytic(a, i, j).values
    schur = conditional_covariance_schur(a, i, j)
    rel = np.max(np.abs(alpha - schur)) / np.max(np.abs(schur))
    assert rel <= 1e-14 * np.linalg.cond(a)


@st.composite
def degenerate_matrices(draw):
    """Singular or indefinite symmetric matrix of dimension 3..6.

    k in {1, 2} eigenvalues are zero, or one shared negative value, in a
    uniformly random frame; the positive ones span up to three decades.
    """
    d = draw(st.integers(3, 6))
    k = draw(st.integers(1, 2))
    low = draw(st.one_of(st.just(0.0), st.floats(-1e3, -1e-3)))
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                        .standard_normal((d, d)))
    cond = 10.0 ** draw(st.floats(0.0, 3.0))
    a = (q * np.concatenate([np.full(k, low), np.geomspace(1.0, cond, d - k)])) @ q.T
    return 0.5 * (a + a.T)


@given(degenerate_matrices())
def test_degenerate_matrix_raises_typed_error_for_every_pair(tmp_path_factory, a):
    # Rounding leaves many singular matrices with positive Cholesky pivots;
    # none may reach a linear solve or the sampler, and no LinAlgError leaks.
    path = tmp_path_factory.mktemp("degenerate") / "m.txt"
    path.write_text(dump_symmetric_matrix(a))
    for i, j in permutations(range(a.shape[0]), 2):
        with pytest.raises(PrecisionLabError):
            alpha_analytic(a, i, j)
        with pytest.raises(PrecisionLabError):
            alpha_monte_carlo(a, i, j, 0.5, 1000, RngStream(0))
        argv = ["alpha", "--matrix-file", str(path), "--i", str(i + 1), "--j", str(j + 1),
                "--trials", "1000"]
        assert main(argv) == 2


@st.composite
def invalid_matrices(draw):
    """(matrix, defect) in dimension 2..5, the defect one of four kinds.

    From an SPD matrix in a uniformly random frame: "indefinite" makes one
    eigenvalue negative, "singular" one zero, "non-finite" puts a NaN or an
    infinity in a symmetric pair of entries, and "asymmetric" perturbs one
    off-diagonal entry by far more than any symmetry tolerance.
    """
    d = draw(st.integers(2, 5))
    defect = draw(st.sampled_from(["indefinite", "singular", "non-finite", "asymmetric"]))
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                        .standard_normal((d, d)))
    w = np.geomspace(1.0, 10.0 ** draw(st.floats(0.0, 3.0)), d)
    if defect == "indefinite":
        w[0] = draw(st.floats(-1e3, -1e-3))
    elif defect == "singular":
        w[0] = 0.0
    a = (q * w) @ q.T
    a = 0.5 * (a + a.T)
    i, j = draw(st.permutations(range(d)))[:2]
    if defect == "non-finite":
        a[i, j] = a[j, i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif defect == "asymmetric":
        a[i, j] += draw(st.floats(1e-6, 1e3)) * np.max(np.abs(a))
    return a, defect


@given(invalid_matrices())
def test_invalid_matrix_raises_typed_error(tmp_path_factory, case):
    # A singular matrix still has a section (of lower rank) but no Wishart
    # density; every other defect is refused by both, and by the command.
    a, defect = case
    d = a.shape[0]
    with pytest.raises(PrecisionLabError):
        log_density((d, d + 2), a)
    path = tmp_path_factory.mktemp("invalid") / "m.txt"
    path.write_text(dump_symmetric_matrix(a))
    if defect == "singular":
        assert section_covariance(a).rank < 2
        return
    with pytest.raises(PrecisionLabError):
        section_covariance(a)
    assert main(["section", "--matrix-file", str(path)]) == 2


@st.composite
def symmetric_matrices(draw):
    """Exactly symmetric matrix of any finite floats, dimension 1..5."""
    d = draw(st.integers(1, 5))
    upper = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2))
    m = np.zeros((d, d))
    m[np.triu_indices(d)] = upper
    return np.triu(m) + np.triu(m, 1).T


@given(symmetric_matrices())
@example(np.diag([1.5e308, 1.0]))
@example(np.array([[-1.7976931348623157e308, 5e-324], [5e-324, -0.0]]))
def test_dump_load_round_trip_is_bitwise(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("roundtrip") / "m.txt"
    path.write_text(dump_symmetric_matrix(m))
    assert load_symmetric_matrix(path).tobytes() == m.tobytes()


@st.composite
def section_cases(draw):
    """(A, section rank of A, positive per-coordinate scales) in dimension 3..6.

    A has k in {0, 1, 2} null directions in a uniformly random frame, so the
    plane of the first two coordinates meets range(A) in max(2 - k, 0)
    dimensions almost surely.  Its positive eigenvalues span up to three
    decades and each scale lies within two decades of 1, so D A D reaches
    condition numbers near 1e11.
    """
    d = draw(st.integers(3, 6))
    k = draw(st.integers(0, 2))
    q, _ = np.linalg.qr(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                        .standard_normal((d, d)))
    cond = 10.0 ** draw(st.floats(0.0, 3.0))
    a = (q * np.concatenate([np.zeros(k), np.geomspace(1.0, cond, d - k)])) @ q.T
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    return 0.5 * (a + a.T), max(2 - k, 0), scales


@settings(max_examples=300)  # enough draws to reach condition numbers beyond 1e8
@given(section_cases(), st.floats(-100.0, 100.0))
def test_section_rank_invariant_under_positive_scaling(case, log_c):
    # D A D with D positive diagonal maps the plane onto itself, so the
    # section rank cannot move, though the condition number can grow far
    # past any fixed fraction of the largest eigenvalue.
    a, rank, scales = case
    scaled = 10.0**log_c * (scales[:, None] * a * scales[None, :])
    assert section_covariance(a).rank == rank
    assert section_covariance(scaled).rank == rank


@given(section_cases(), st.integers(0, 2**32 - 1))
def test_section_invariant_under_plane_preserving_rotations(case, seed):
    # R = O(2) (+) O(d-2) maps the plane onto itself and carries the section
    # with it: same rank, covariance conjugated by the O(2) block.
    a, rank, _ = case
    d = a.shape[0]
    g = np.random.default_rng(seed)
    r = np.zeros((d, d))
    r[:2, :2] = np.linalg.qr(g.standard_normal((2, 2)))[0]
    r[2:, 2:] = np.linalg.qr(g.standard_normal((d - 2, d - 2)))[0]
    rotated = r @ a @ r.T
    before = section_covariance(a)
    after = section_covariance(0.5 * (rotated + rotated.T))
    assert before.rank == after.rank == rank
    expected = r[:2, :2] @ before.matrix @ r[:2, :2].T
    assert np.max(np.abs(after.matrix - expected)) <= 1e-9 * np.max(np.abs(before.matrix))


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 40), min_size=1, max_size=12),
       st.floats(-10.0, 10.0), st.floats(1e-3, 1e3))
@example(0, [1] * 12, 0.0, 1.0)
@example(1, [1, 1], 5.0, 1e-3)
def test_merged_accumulators_match_two_pass_reference(seed, sizes, shift, scale):
    # Uneven splits, parts of size 1 included, merged in order, against numpy's two passes.
    x = scale * (shift + np.random.default_rng(seed).standard_normal((2, sum(sizes) + 1)))
    sizes = sizes + [1]
    acc = merge_all([moments(p.copy(), order=4)
                     for p in np.split(x, np.cumsum(sizes)[:-1], axis=1)])
    count = x.shape[1]
    mean = x.mean(axis=1)
    fourth = ((x - mean[:, None]) ** 4).mean(axis=1)
    assert np.all(acc[0] == count)
    assert np.all(np.abs(acc[1] - mean) <= 1e-12 * np.max(np.abs(x), axis=1))
    assert np.all(np.abs(acc[2] / (count - 1) - x.var(axis=1, ddof=1))
                  <= 1e-12 * x.var(axis=1, ddof=1))
    assert np.all(np.abs(acc[4] / count - fourth) <= 1e-12 * fourth)


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 40), min_size=1, max_size=12),
       st.integers(1, 4), st.sampled_from([2, 4]))
@example(0, [1] * 12, 3, 2)
def test_merged_comoments_match_numpy_covariance(seed, sizes, cols, order):
    # Correlated columns, uneven splits merged in order; the diagonal is the M2 row.
    z = np.random.default_rng(seed).standard_normal((cols, sum(sizes) + 1))
    x = np.cumsum(z, axis=0)
    sizes = sizes + [1]
    acc = merge_all([moments(p.copy(), order) for p in np.split(x, np.cumsum(sizes)[:-1], axis=1)])
    block = comoments(acc)
    assert acc.shape == (cols + order, cols)
    assert np.array_equal(np.diagonal(block), acc[2])
    assert np.allclose(block / (x.shape[1] - 1), np.cov(x).reshape(cols, cols),
                       rtol=1e-10, atol=1e-12)


@given(st.floats(-1e300, 1e300), st.lists(st.integers(1, 40), min_size=1, max_size=12))
@example(0.1, [3, 1, 7])
def test_constant_input_has_exactly_zero_central_moments(value, sizes):
    acc = merge_all([moments(np.full((2, size), value), order=4) for size in sizes])
    assert np.all(acc[1] == value)
    assert np.all(acc[2:] == 0.0)
