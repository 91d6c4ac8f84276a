"""Rank-detection games: ensembles, detectors, and success ceilings.

The operational question: given n samples of a centered Gaussian vector
with unknown covariance, guess the rank (0, 1 or 2) of the planar-section
covariance.  The full-rank ensemble (identity covariance) has rank 2; the
ensemble that projects out a fresh uniformly random direction has rank 1
almost surely; projecting out a random 2-dim subspace gives rank 0 almost
surely.  Projecting out k directions makes the batch Gram law a Wishart
with d-k degrees of freedom, so any detector's equal-prior success is
capped by (1 + TV)/2 with TV the total-variation distance between the Gram
laws; the likelihood-ratio detector attains that cap.

A detector maps a (count, n, d) stack of sample batches to a guess in
{0, 1, 2} per batch; one batch is a stack of one.  Every shipped detector
except the constant one reads a single statistic of each batch Gram matrix,
its log-determinant or its trace, through ascending cuts (the pseudo-random
baseline hashes the trace), so batches with equal Gram matrices always
receive equal guesses.  Harnesses split trials over fixed batch grids,
making reports independent of worker count.  They score a detector that
carries its ``statistic`` and ``rule`` on direct draws of that statistic
alone, since the full-rank, random- and fixed-deficiency ensembles have Gram
law W(n, p), p = d, d-k or d-1, and count a cut detector's draws at or past
each cut: of the trace, or of the root determinant (no log) scaled to 1 at
the first cut.  Rule-less detectors (constant, custom, symmetrized), the
explicit ensemble and n > p sample batches, FOLD_ROWS // (n d) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conditional import section_covariance
from .errors import InvalidParamsError, ThetaInEPerpError, UnknownDetectorError
from .matcore import projector_complement, sym_sqrt
from .parallel import FOLD_ROWS, run_batched
from .sampler import (
    RngStream,
    deficient_batches,
    haar_rotation_many,
    random_subspace_basis,
    standard_batches,
)
from .tvbounds import MIN_MC_TRIALS, tv_closed_form_bound
from .wishart import gram_many, log_normalizer, logdet_trace_many, sqrt_det_sampler, trace_samples

# Norm of the in-plane component below which a direction counts as
# orthogonal to the reference plane.
PLANE_COMPONENT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Detector:
    """A guessing rule: a stack of batches to guesses.

    ``evaluate`` maps a (count, n, d) stack of sample batches to a (count,)
    array of rank guesses in {0, 1, 2}; one batch is a stack of one.  It
    must be safe to call concurrently on distinct stacks.  A Gram-statistic
    detector also carries its ``statistic`` ("logdet" or "trace") and ``rule(values)``.
    A cut detector also carries ascending ``cuts`` and the ``labels`` of the len(cuts) + 1
    intervals they make; its rule guesses a value's interval label, a value on a cut going up.
    """

    identifier: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    statistic: str | None = None
    rule: Callable[[np.ndarray], np.ndarray] | None = None
    cuts: tuple[float, ...] = ()
    labels: tuple[int, ...] = ()


def evaluate_batches(detector: Detector, vectors: np.ndarray) -> np.ndarray:
    """Guesses of ``detector`` on a (count, n, d) stack of batches."""
    return np.asarray(detector.evaluate(vectors), dtype=np.int64)


# ---------------------------------------------------------------------------
# Ensembles


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A distribution over covariance matrices with a known section rank."""

    dim: int
    kind: str  # "full-rank" | "deficient-random" | "deficient-fixed" | "explicit"
    k: int = 0
    theta: np.ndarray | None = None
    cov: np.ndarray | None = None
    sqrt_cov: np.ndarray | None = None

    @classmethod
    def full_rank(cls, dim: int) -> "Ensemble":
        if dim < 2:
            raise InvalidParamsError("need dimension at least 2")
        return cls(dim=int(dim), kind="full-rank")

    @classmethod
    def deficient_random(cls, dim: int, k: int = 1) -> "Ensemble":
        if not 1 <= k < dim:
            raise InvalidParamsError(f"need 1 <= k < dim, got k={k}, dim={dim}")
        return cls(dim=int(dim), kind="deficient-random", k=int(k))

    @classmethod
    def deficient_fixed(cls, theta) -> "Ensemble":
        t = np.asarray(theta, dtype=float).reshape(-1)
        projector_complement(t)  # validates unit norm
        return cls(dim=t.size, kind="deficient-fixed", k=1, theta=t)

    @classmethod
    def explicit(cls, cov) -> "Ensemble":
        s = sym_sqrt(cov)
        c = np.asarray(cov, dtype=float)
        return cls(dim=c.shape[0], kind="explicit", cov=c, sqrt_cov=s)

    def draw_cov(self, rng: RngStream) -> np.ndarray:
        """One covariance matrix from the ensemble."""
        if self.kind == "full-rank":
            return np.eye(self.dim)
        if self.kind == "deficient-random":
            b = random_subspace_basis(self.dim, self.k, 1, rng)[0]
            return np.eye(self.dim) - b.T @ b
        if self.kind == "deficient-fixed":
            return projector_complement(self.theta)
        return self.cov.copy()

    def correct_label(self) -> int:
        """The section rank a detector should output for this ensemble.

        For the random-deficiency ensemble the rank is max(2 - k, 0) almost
        surely (a random k-dim subspace meets the fixed plane generically),
        which coincides with labelling by the Gram degrees-of-freedom class.
        """
        if self.kind == "full-rank":
            return 2
        if self.kind == "deficient-random":
            return max(2 - self.k, 0)
        if self.kind == "deficient-fixed":
            return section_covariance(projector_complement(self.theta)).rank
        return section_covariance(self.cov).rank

    def gram_dof(self) -> int | None:
        """Degrees of freedom p of the batch Gram law W(n, p); None if not Wishart."""
        return None if self.kind == "explicit" else self.dim - self.k

    def sample_many(self, n: int, count: int, rng: RngStream) -> np.ndarray:
        """(count, n, dim) batches; random ensembles redraw per batch."""
        if self.kind == "full-rank":
            return standard_batches(self.dim, n, count, rng)
        if self.kind == "deficient-random":
            return deficient_batches(self.dim, self.k, n, count, rng)
        x = standard_batches(self.dim, n, count, rng)
        if self.kind == "deficient-fixed":
            t = self.theta
            return x - (x @ t)[:, :, None] * t[None, None, :]
        return x @ self.sqrt_cov


# ---------------------------------------------------------------------------
# Detectors


def _gram_detector(identifier: str, statistic: str, rule=None, cuts=(), labels=()) -> Detector:
    """Detector applying ``rule`` to the Gram ``statistic`` ("logdet" or "trace") of each batch;
    by default the rule of the ascending ``cuts`` and interval ``labels``."""
    column, table = ("logdet", "trace").index(statistic), np.array(labels, dtype=np.int64)
    rule = rule or (lambda values: table[np.searchsorted(cuts, values, side="right")])

    def evaluate(vectors: np.ndarray) -> np.ndarray:
        return rule(logdet_trace_many(gram_many(vectors))[column])

    return Detector(identifier, evaluate, statistic, rule, cuts, labels)


def lr_detector(n: int, d: int, k: int = 1) -> Detector:
    """Likelihood-ratio rule between the full-rank and k-deficient Gram laws.

    The log-density difference reduces to a threshold on the Gram
    log-determinant: guess full rank iff logdet >= (2/k) * (logZ(n, d) -
    logZ(n, d-k)).  Ties break toward the full-rank guess.  This is the
    equal-prior Bayes rule, so its success attains the (1 + TV)/2 ceiling.
    """
    n, d, k = int(n), int(d), int(k)
    if not 1 <= k < d:
        raise InvalidParamsError(f"need 1 <= k < d, got k={k}, d={d}")
    if not 1 <= n <= d - k:
        raise InvalidParamsError(f"need 1 <= n <= d-k for both densities, got n={n}")
    threshold = (2.0 / k) * (log_normalizer((n, d)) - log_normalizer((n, d - k)))
    return _gram_detector("lr", "logdet", cuts=(threshold,), labels=(max(2 - k, 0), 2))


def trace_threshold_detector(n: int, d: int, k: int = 1) -> Detector:
    """Naive baseline: threshold the Gram trace halfway between its two means."""
    n, d, k = int(n), int(d), int(k)
    if not 1 <= k < d:
        raise InvalidParamsError(f"need 1 <= k < d, got k={k}, d={d}")
    return _gram_detector("trace", "trace", cuts=(n * (d - 0.5 * k),), labels=(max(2 - k, 0), 2))


def det_threshold_detector(n: int, d: int, k: int = 1) -> Detector:
    """Naive baseline: threshold logdet halfway between the two log-mean dets."""
    n, d, k = int(n), int(d), int(k)
    if not 1 <= k < d:
        raise InvalidParamsError(f"need 1 <= k < d, got k={k}, d={d}")
    if not 1 <= n <= d - k:
        raise InvalidParamsError(f"need 1 <= n <= d-k, got n={n}")

    def log_mean_det(p: int) -> float:
        return math.lgamma(p + 1) - math.lgamma(p - n + 1)

    threshold = 0.5 * (log_mean_det(d) + log_mean_det(d - k))
    return _gram_detector("det", "logdet", cuts=(threshold,), labels=(max(2 - k, 0), 2))


def constant_detector(guess: int = 2) -> Detector:
    g = int(guess)
    return Detector("constant", lambda vectors: np.full(vectors.shape[0], g, dtype=np.int64))


def _trace_hash_guesses(traces: np.ndarray) -> np.ndarray:
    # Pseudo-uniform over {0, 1, 2} but a pure function of the Gram trace,
    # so replays and rotated copies of a batch agree.  The multiplier folds
    # any unit-scale trace distribution over thousands of periods, leaving
    # per-bucket bias far below Monte Carlo resolution.
    u = np.asarray(traces, dtype=float) * 9973.0
    frac = u - np.floor(u)
    return np.minimum((frac * 3.0).astype(np.int64), 2)


def random_guess_detector() -> Detector:
    """Uniform-looking guesser implemented as a hash of the Gram trace."""
    return _gram_detector("random", "trace", _trace_hash_guesses)


def bayes_three_way_detector(n: int, d: int) -> Detector:
    """Equal-prior Bayes rule over Gram degrees of freedom {d, d-1, d-2}.

    The trace term is common to the three log densities and their slopes
    (p - n - 1)/2 in logdet step by 1/2, so p beats p - 1 iff logdet >=
    2 (logZ(n, p) - logZ(n, p - 1)); the guess counts the two crossings
    that logdet reaches.  Ties go to the higher degrees of freedom.
    """
    n, d = int(n), int(d)
    if d < 3:
        raise InvalidParamsError("need dimension at least 3")
    if not 1 <= n <= d - 2:
        raise InvalidParamsError(f"need 1 <= n <= d-2 for all three densities, got n={n}")
    lo, hi = (2.0 * (log_normalizer((n, p)) - log_normalizer((n, p - 1))) for p in (d - 1, d))
    return _gram_detector("bayes3", "logdet", cuts=(lo, hi), labels=(0, 1, 2))


DETECTOR_FACTORIES: dict[str, Callable[[int, int, int], Detector]] = {
    "lr": lr_detector,
    "trace": trace_threshold_detector,
    "det": det_threshold_detector,
    "constant": lambda n, d, k=1: constant_detector(),
    "random": lambda n, d, k=1: random_guess_detector(),
    "bayes3": lambda n, d, k=1: bayes_three_way_detector(n, d),
}


def registry_names() -> list[str]:
    return sorted(DETECTOR_FACTORIES)


def make_detector(name: str, n: int, d: int, k: int = 1) -> Detector:
    try:
        factory = DETECTOR_FACTORIES[name]
    except KeyError:
        raise UnknownDetectorError(
            f"unknown detector {name!r}; available: {', '.join(registry_names())}"
        ) from None
    return factory(n, d, k)


# ---------------------------------------------------------------------------
# Rotation symmetrization


def _vote(mean_guess: np.ndarray) -> np.ndarray:
    """Collapse mean guesses to labels; the 3/2 and 1/2 boundaries map up."""
    return np.where(mean_guess >= 1.5, 2, np.where(mean_guess >= 0.5, 1, 0)).astype(np.int64)


def symmetrize_detector(f: Detector, rotations: int, rng: RngStream) -> Detector:
    """Average ``f`` over a fixed panel of random rotations, then vote.

    The panel is drawn once per ambient dimension from a stream fixed at
    construction, so the result is a deterministic detector whose output
    distribution becomes rotation invariant as the panel grows.
    """
    m = int(rotations)
    if m < 1:
        raise InvalidParamsError("need at least one rotation")
    base = rng.child(0)
    key = (base.seed, base.stream_id)
    panels: dict[int, np.ndarray] = {}

    def panel(d: int) -> np.ndarray:
        ts = panels.get(d)
        if ts is None:
            ts = haar_rotation_many(d, m, RngStream(*key))
            panels[d] = ts
        return ts

    def evaluate(vectors: np.ndarray) -> np.ndarray:
        acc = np.zeros(vectors.shape[0])
        for t in panel(vectors.shape[2]):
            acc += evaluate_batches(f, vectors @ t.T)
        return _vote(acc / m)

    return Detector(f"{f.identifier}+sym{m}", evaluate)


# ---------------------------------------------------------------------------
# Game harnesses


@dataclass(frozen=True)
class EnsembleResult:
    ensemble: str
    label: int
    success: float
    standard_error: float


@dataclass(frozen=True)
class GameReport:
    """Per-ensemble and joint success rates of one detector, with the ceiling."""

    mode: str
    n: int
    d: int
    k: int
    detector: str
    trials: int  # per ensemble
    seed: int
    stream_id: int
    results: tuple[EnsembleResult, ...]
    joint_success: float
    joint_standard_error: float
    ceiling: float


def two_way_ceiling(n: int, d: int, k: int = 1) -> float:
    """(1 + TV bound)/2 cap on equal-prior two-way success; 1 when vacuous.

    For k > 1 the bound telescopes through the intermediate degrees of
    freedom by the triangle inequality.
    """
    try:
        total = sum(tv_closed_form_bound(n, d - j) for j in range(int(k)))
    except InvalidParamsError:
        return 1.0
    return 0.5 * (1.0 + min(1.0, total))


def three_way_ceiling(n: int, d: int) -> float:
    """Equal-prior three-way cap (1 + TV(2,1) + TV(1,0))/3; 1 when vacuous.

    For any decision regions, each non-reference success probability exceeds
    the reference one by at most the pairwise total variation; summing the
    three gives the cap.
    """
    try:
        total = tv_closed_form_bound(n, d) + tv_closed_form_bound(n, d - 1)
    except InvalidParamsError:
        return 1.0
    return (1.0 + min(2.0, total)) / 3.0


def _success(
    ensemble: Ensemble, detector: Detector, n: int, trials: int, rng: RngStream, workers: int
) -> EnsembleResult:
    label, p, rule, step = ensemble.correct_label(), ensemble.gram_dof(), detector.rule, FOLD_ROWS
    logdet, cuts = detector.statistic == "logdet", detector.cuts
    # Draw the statistic alone: the trace, or the root determinant counted at a rule's cuts.
    direct = rule is not None and p is not None and n <= p and (bool(cuts) or not logdet)
    rows = (n + 1) // 2 if logdet else 1
    wins = [i for i, guess in enumerate(detector.labels) if guess == label]  # intervals
    draw = lambda size, stream, out: trace_samples((n, p), size, stream, out=out)
    if not direct:  # sample batches, FOLD_ROWS // (n d) at a time, and score their guesses
        cuts, rule, step = (), lambda guesses: guesses, max(1, FOLD_ROWS // (n * ensemble.dim))
        draw = lambda size, stream, out: evaluate_batches(
            detector, ensemble.sample_many(n, size, stream))
    elif logdet:  # count a * b = exp((logdet - c_0) / 2) past exp((c - c_0) / 2)
        factors = sqrt_det_sampler((n, p), -0.5 * cuts[0])
        cuts = [math.exp(0.5 * (c - cuts[0])) for c in cuts]
        draw = lambda size, stream, out: np.multiply(*factors(size, stream, out), out=out[0])
        if rows == 1:  # b is a broadcast of ones
            draw = lambda size, stream, out: factors(size, stream, out)[0]

    def batch(count: int, stream: RngStream, work: np.ndarray) -> int:
        hits = 0
        for start in range(0, count, step):
            size = min(step, count - start)
            values = draw(size, stream, work[: rows * size].reshape(rows, size))
            past = [size] + [np.count_nonzero(values >= c) for c in cuts] + [0]  # at or past
            hits += int(sum(past[i] - past[i + 1] for i in wins) if cuts else  # or a rule
                        np.count_nonzero(rule(values) == label))
        return hits

    hits = sum(run_batched(batch, trials, rng, workers, scratch=lambda: np.empty(rows * step)))
    p = hits / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return EnsembleResult(ensemble.kind, int(label), p, se)


def _play(
    mode: str,
    n: int,
    d: int,
    k: int,
    ensembles: list[Ensemble],
    detector: Detector,
    trials: int,
    rng: RngStream,
    workers: int,
    ceiling: float,
) -> GameReport:
    """Play ``detector`` against ``ensembles[i]`` on child stream ``i``; equal priors."""
    if trials < MIN_MC_TRIALS:
        raise InvalidParamsError(f"need at least {MIN_MC_TRIALS} trials, got {trials}")
    results = [
        _success(e, detector, n, trials, rng.child(idx), workers)
        for idx, e in enumerate(ensembles)
    ]
    return GameReport(
        mode=mode,
        n=int(n),
        d=int(d),
        k=int(k),
        detector=detector.identifier,
        trials=int(trials),
        seed=rng.seed,
        stream_id=rng.stream_id,
        results=tuple(results),
        joint_success=float(np.mean([r.success for r in results])),
        joint_standard_error=math.sqrt(sum(r.standard_error**2 for r in results)) / len(results),
        ceiling=ceiling,
    )


def run_two_way_game(
    n: int,
    d: int,
    detector: Detector,
    trials: int,
    rng: RngStream,
    k: int = 1,
    workers: int = 1,
) -> GameReport:
    """Full-rank versus random-k-deficiency, equal priors, ``trials`` each."""
    n, d, k = int(n), int(d), int(k)
    ensembles = [Ensemble.full_rank(d), Ensemble.deficient_random(d, k)]
    return _play("two-way", n, d, k, ensembles, detector, trials, rng, workers,
                 two_way_ceiling(n, d, k))


def run_fixed_theta_game(
    n: int,
    d: int,
    theta,
    detector: Detector,
    trials: int,
    rng: RngStream,
    workers: int = 1,
) -> GameReport:
    """Full-rank versus one fixed deficient direction (not orthogonal to the plane)."""
    t = np.asarray(theta, dtype=float).reshape(-1)
    if t.size != int(d):
        raise InvalidParamsError(f"theta has dimension {t.size}, expected {d}")
    if float(np.hypot(t[0], t[1])) <= PLANE_COMPONENT_TOL:
        raise ThetaInEPerpError(
            "theta is orthogonal to the span of the first two coordinates; "
            "the section rank does not drop and the game is degenerate"
        )
    ensembles = [Ensemble.full_rank(int(d)), Ensemble.deficient_fixed(t)]
    return _play("fixed-theta", n, d, 1, ensembles, detector, trials, rng, workers,
                 two_way_ceiling(n, d, 1))


def run_three_way_game(
    n: int,
    d: int,
    trials: int,
    rng: RngStream,
    detector: Detector | None = None,
    workers: int = 1,
) -> GameReport:
    """Equal-prior game over ranks {2, 1, 0} via deficiencies {0, 1, 2}."""
    n, d = int(n), int(d)
    if d < 3:
        raise InvalidParamsError("need dimension at least 3")
    if detector is None:
        detector = bayes_three_way_detector(n, d)
    ensembles = [Ensemble.full_rank(d)] + [Ensemble.deficient_random(d, k) for k in (1, 2)]
    return _play("three-way", n, d, 2, ensembles, detector, trials, rng, workers,
                 three_way_ceiling(n, d))
