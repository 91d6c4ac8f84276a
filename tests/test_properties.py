"""Property tests over the primitives, driven by hypothesis."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from precisionlab import (
    alpha_analytic,
    conditional_covariance_schur,
    dump_symmetric_matrix,
    load_symmetric_matrix,
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
