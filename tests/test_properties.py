"""Property tests over the primitives, driven by hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precisionlab import (
    alpha_analytic,
    conditional_covariance_schur,
    dump_symmetric_matrix,
    load_symmetric_matrix,
    section_covariance,
)


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
