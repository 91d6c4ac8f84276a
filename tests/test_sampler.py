import math
import types

import numpy as np
import pytest

import helpers
from precisionlab import (
    DegenerateDrawError,
    Ensemble,
    InvalidParamsError,
    NotPsdError,
    RngStream,
    deficient_batches,
    det_moments,
    gram_many,
    haar_rotation_many,
    projector_complement,
    standard_batches,
    uniform_sphere_many,
)


def explicit_batch(cov, n, rng):
    """``n`` Gaussian vectors with covariance ``cov``, shape (n, d)."""
    return Ensemble.explicit(cov).sample_many(n, 1, rng)[0]


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(5, 9).gen.standard_normal(16)
        b = RngStream(5, 9).gen.standard_normal(16)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(5, 0).gen.standard_normal(16)
        b = RngStream(5, 1).gen.standard_normal(16)
        assert not np.array_equal(a, b)

    def test_child_streams_reproducible_and_distinct(self):
        root = RngStream(7)
        ids = {root.child(i).stream_id for i in range(64)}
        assert len(ids) == 64
        assert root.child(3).stream_id == RngStream(7).child(3).stream_id
        a = root.child(3).gen.standard_normal(8)
        b = RngStream(7).child(3).gen.standard_normal(8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream_id", [(0, 0), (5, 7), (7, (1 << 64) - 1)])
    def test_generator_is_sfc64_keyed_by_seed_sequence(self, seed, stream_id):
        bits = RngStream(seed, stream_id).gen.bit_generator
        assert isinstance(bits, np.random.SFC64)
        assert bits.seed_seq.entropy == seed
        assert bits.seed_seq.spawn_key == (stream_id,)

    @pytest.mark.parametrize("child,expected", [
        (None, [0.5484188289858579, 0.4048309538417795,
                0.8894887153539768, 0.4531516713047592]),
        (0, [0.010387073242705824, 0.8212642178920799,
             0.26130620211647226, 0.9479186666801395]),
    ], ids=["root", "child-0"])
    def test_known_answers(self, child, expected):
        # Pinned values: a change of generator or of keying changes every
        # seeded output, and must be announced along with these literals.
        stream = RngStream(0) if child is None else RngStream(0).child(child)
        assert [stream.gen.random() for _ in range(4)] == expected

    def test_sibling_streams_look_independent(self):
        root = RngStream(17)
        a = root.child(0).gen.standard_normal(200_000)
        b = root.child(1).gen.standard_normal(200_000)
        corr = float(np.corrcoef(a, b)[0, 1])
        assert abs(corr) < 5.0 / math.sqrt(len(a))

    def test_op_determinism(self):
        assert np.array_equal(standard_batches(4, 1, 1, RngStream(1)),
                              standard_batches(4, 1, 1, RngStream(1)))
        assert np.array_equal(uniform_sphere_many(4, 3, RngStream(2)),
                              uniform_sphere_many(4, 3, RngStream(2)))
        assert np.array_equal(haar_rotation_many(4, 1, RngStream(3))[0],
                              haar_rotation_many(4, 1, RngStream(3))[0])
        x = explicit_batch(np.eye(3), 5, RngStream(4))
        y = explicit_batch(np.eye(3), 5, RngStream(4))
        assert np.array_equal(x, y)


class TestGaussianVector:
    def test_moments_one_million(self):
        draws = standard_batches(3, 1000, 1000, RngStream(100)).reshape(-1, 3)
        means = draws.mean(axis=0)
        variances = draws.var(axis=0, ddof=1)
        assert np.max(np.abs(means)) < 4e-3            # 4 standard errors
        assert np.max(np.abs(variances - 1.0)) < 6e-3  # ~4 standard errors of var


class TestUniformSphere:
    def test_unit_norm(self):
        pts = uniform_sphere_many(6, 1000, RngStream(8))
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12

    def test_coordinate_second_moment(self):
        d, count = 5, 1_000_000
        pts = uniform_sphere_many(d, count, RngStream(12))
        m, se = helpers.mean_se(pts[:, 0] ** 2)
        assert abs(m - 1.0 / d) < 5 * se

    def test_mean_vector_small(self):
        d, count = 4, 1_000_000
        pts = uniform_sphere_many(d, count, RngStream(13))
        assert np.linalg.norm(pts.mean(axis=0)) < 4.0 / math.sqrt(count) * math.sqrt(d)

    def test_rejects_dimension_one(self):
        with pytest.raises(InvalidParamsError):
            uniform_sphere_many(1, 1, RngStream(0))

    def test_degenerate_draw_surfaces_after_retries(self):
        calls = {"count": 0}

        def zeros(shape):
            calls["count"] += 1
            return np.zeros(shape)

        stub = types.SimpleNamespace(gen=types.SimpleNamespace(standard_normal=zeros))
        with pytest.raises(DegenerateDrawError):
            uniform_sphere_many(3, 1, stub)
        assert calls["count"] == 100  # every draw is checked; none is wasted

    def test_degenerate_row_is_redrawn(self):
        shapes = []

        def first_row_zero(shape):
            shapes.append(shape)
            v = np.ones(shape)
            if len(shapes) == 1:
                v[0] = 0.0
            return v

        stub = types.SimpleNamespace(gen=types.SimpleNamespace(standard_normal=first_row_zero))
        pts = uniform_sphere_many(2, 3, stub)
        assert shapes == [(3, 2), (1, 2)]
        assert np.array_equal(pts, np.full((3, 2), 1.0 / math.sqrt(2.0)))


class TestHaarRotation:
    def test_orthogonal_and_special(self):
        ts = haar_rotation_many(5, 200, RngStream(21))
        eye = np.eye(5)
        prods = ts.transpose(0, 2, 1) @ ts
        assert np.max(np.abs(prods - eye)) < 1e-10
        assert np.max(np.abs(np.linalg.det(ts) - 1.0)) < 1e-10

    def test_rotated_axis_matches_sphere_moments(self):
        d, count = 4, 100_000
        ts = haar_rotation_many(d, count, RngStream(22))
        v = np.zeros(d)
        v[0] = 1.0
        tv = ts @ v
        m, se = helpers.mean_se(tv[:, 0] ** 2)
        assert abs(m - 1.0 / d) < 5 * se

    def test_projection_onto_start_is_centered(self):
        d, count = 4, 100_000
        ts = haar_rotation_many(d, count, RngStream(23))
        v = np.zeros(d)
        v[0] = 1.0
        proj = (ts @ v)[:, 0]
        m, se = helpers.mean_se(proj)
        assert abs(m) < 5 * se


class TestSampleBatch:
    def test_identity_covariance_converges(self):
        batch = explicit_batch(np.eye(3), 1_000_000, RngStream(31))
        emp = batch.T @ batch / len(batch)
        scale = 1.0 / math.sqrt(len(batch))
        # diag entries have sd sqrt(2)/sqrt(T), off-diag 1/sqrt(T)
        assert np.max(np.abs(np.diag(emp) - 1.0)) < 5 * math.sqrt(2) * scale
        off = emp - np.diag(np.diag(emp))
        assert np.max(np.abs(off)) < 5 * scale

    def test_projector_covariance_kills_coordinate(self):
        p = projector_complement(np.array([1.0, 0.0, 0.0]))
        batch = explicit_batch(p, 1000, RngStream(32))
        assert np.all(batch[:, 0] == 0.0)

    def test_scaled_variance(self):
        batch = explicit_batch(np.diag([4.0, 1.0]), 100_000, RngStream(33))
        v, se = helpers.var_se(batch[:, 0])
        assert abs(v - 4.0) < 5 * se

    def test_propagates_not_psd(self):
        with pytest.raises(NotPsdError):
            explicit_batch(np.diag([1.0, -1.0]), 10, RngStream(0))


def _gram_moment_triple(grams):
    dets = np.linalg.det(grams)
    traces = np.trace(grams, axis1=-2, axis2=-1)
    return dets, traces


class TestDistributionalInvariants:
    def test_rotation_invariance_of_gram_moments(self):
        # One fixed rotation; the rotated standard batches must reproduce the
        # full-rank Gram moment triple.
        n, d, count = 3, 6, 100_000
        t = haar_rotation_many(d, 1, RngStream(41))[0]
        x = standard_batches(d, n, count, RngStream(42))
        dets, traces = _gram_moment_triple(gram_many(x @ t.T))
        moments = det_moments((n, d))
        m, se = helpers.mean_se(traces)
        assert abs(m - n * d) < 5 * se
        m, se = helpers.mean_se(dets)
        assert abs(m - moments.mean) < 5 * se
        v, se = helpers.var_se(dets)
        assert abs(v - moments.variance) < 5 * se

    def test_projected_batches_match_reduced_wishart_moments(self):
        # Projecting out one fresh random direction drops the Gram law by
        # exactly one degree of freedom.
        n, d, count = 3, 10, 100_000
        y = deficient_batches(d, 1, n, count, RngStream(43))
        dets, traces = _gram_moment_triple(gram_many(y))
        moments = det_moments((n, d - 1))
        m, se = helpers.mean_se(traces)
        assert abs(m - n * (d - 1)) < 5 * se
        m, se = helpers.mean_se(dets)
        assert abs(m - moments.mean) < 5 * se
        v, se = helpers.var_se(dets)
        assert abs(v - moments.variance) < 5 * se

    def test_deficient_batches_live_in_complement(self):
        y = deficient_batches(5, 2, 4, 100, RngStream(44))
        # Gram rank cannot exceed min(n, d - k) = 3, so every det vanishes
        # (up to accumulated rounding in the O(1)-scale entries).
        dets = np.linalg.det(gram_many(y))
        assert np.max(np.abs(dets)) < 1e-10
        assert all(np.linalg.matrix_rank(v) == 3 for v in y[:10])

    def test_deficiency_validation(self):
        with pytest.raises(InvalidParamsError):
            deficient_batches(4, 4, 2, 10, RngStream(0))
        with pytest.raises(InvalidParamsError):
            deficient_batches(4, 0, 2, 10, RngStream(0))
