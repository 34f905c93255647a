import math

import numpy as np
import pytest

from remoterdf.channel import joint_with_reproduction
from remoterdf.core import (
    RANK_TOL,
    ConditionalStats,
    GaussianSourceSpec,
    conditional_stats,
    psd_tolerance,
    symmetric_sqrt,
    symmetrize,
    validate_spec,
)
from remoterdf.errors import (
    InfeasibleSigmaError,
    NotPSDError,
    RemoteRdfError,
)

# Canonical scalar instance used throughout: Q_{X|Y}=0.5, Q_{S|Y}=1, Q_{X,S|Y}=0.5.
SCALAR_Q = np.array([[1.0, 1.0, 1.0], [1.0, 1.5, 1.0], [1.0, 1.0, 2.0]])


def pseudo_inverse(m: np.ndarray) -> np.ndarray:
    """Reference Moore-Penrose pseudoinverse via SVD.

    Singular values below RANK_TOL * sigma_max are treated as exact zeros.
    The package takes no pseudoinverse; tests use this one for conditional
    covariances computed independently of the channel construction.
    """
    m = np.asarray(m, dtype=float)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros_like(m.T)
    inv_s = np.where(s > RANK_TOL * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T


def conditional_covariance(
    joint: np.ndarray, keep: np.ndarray | list[int], given: np.ndarray | list[int]
) -> np.ndarray:
    """Reference conditional covariance of the `keep` coordinates given the `given` ones.

    Generic Schur complement with a pseudoinverse, valid for singular
    conditioning blocks of a PSD joint covariance.
    """
    keep = np.asarray(keep, dtype=int)
    given = np.asarray(given, dtype=int)
    a = joint[np.ix_(keep, keep)]
    b = joint[np.ix_(keep, given)]
    c = joint[np.ix_(given, given)]
    return symmetrize(a - b @ pseudo_inverse(c) @ b.T)


def q_x_given_sy(spec: GaussianSourceSpec) -> np.ndarray:
    """Q_{X|S,Y}: the Schur complement of the (S, Y) block, through a pseudoinverse."""
    return conditional_covariance(spec.q, np.r_[: spec.n_x], np.r_[spec.n_x : spec.n_total])


class NotNestedError(RemoteRdfError):
    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            "covariances are not nested (prior - posterior has eigenvalue "
            f"{min_eigenvalue:.3e} < 0)"
        )


def gaussian_cmi(q_prior: np.ndarray, q_posterior: np.ndarray) -> float:
    """Reference Gaussian conditional mutual information from nested covariances.

    Returns 0.5 * log(det(q_prior) / det(q_posterior)) in nats, with both
    matrices restricted to the range space of q_prior when it is singular
    (pseudo-determinant convention).  Returns ``inf`` when the posterior is
    singular on that range.  Eigenvalues are floored at 1e-9 * max(largest
    eigenvalue of q_prior, 1).  The package computes its rates by Cholesky
    log-determinants inside `rate_of_channel`; tests use this eigenvalue
    route as an independent reference.

    Raises
    ------
    NotNestedError
        q_prior - q_posterior has a negative eigenvalue beyond tolerance.
    NotPSDError
        q_posterior has a negative eigenvalue beyond tolerance.
    """
    q_prior = symmetrize(np.asarray(q_prior, dtype=float))
    q_posterior = symmetrize(np.asarray(q_posterior, dtype=float))
    if q_prior.shape != q_posterior.shape:
        raise ValueError("prior and posterior covariances must have the same shape")

    prior_eigs, prior_vecs = np.linalg.eigh(q_prior)
    tol = 1e-9 * max(float(prior_eigs[-1]), 1.0) if prior_eigs.size else 0.0
    if prior_eigs.size and float(prior_eigs[0]) < -tol:
        raise NotPSDError(float(prior_eigs[0]), tol, what="prior covariance")

    post_min = float(np.min(np.linalg.eigvalsh(q_posterior))) if q_posterior.size else 0.0
    if post_min < -tol:
        raise NotPSDError(post_min, tol, what="posterior covariance")
    gap_min = float(np.min(np.linalg.eigvalsh(q_prior - q_posterior)))
    if gap_min < -tol:
        raise NotNestedError(gap_min)

    keep = prior_eigs > tol
    if not np.any(keep):
        return 0.0
    basis = prior_vecs[:, keep]
    log_det_prior = float(np.sum(np.log(prior_eigs[keep])))
    post_proj_eigs = np.linalg.eigvalsh(symmetrize(basis.T @ q_posterior @ basis))
    if float(np.min(post_proj_eigs)) <= tol:
        return float("inf")
    log_det_post = float(np.sum(np.log(post_proj_eigs)))
    return max(0.0, 0.5 * (log_det_prior - log_det_post))


def three_test_sigma_rule(stats: ConditionalStats, sigma: np.ndarray) -> None:
    """Reference feasibility test of a finite, symmetric distortion covariance.

    Three eigenvalue tests, each at `psd_tolerance` of Q_{X|Y}: Sigma >= 0,
    Sigma <= Q_{X|Y} and the noise covariance Q_W >= 0.  `build_channel` runs
    the last alone, which implies the other two; tests compare its verdicts
    with these.  Q_{X,S|Y} must be invertible.

    Raises
    ------
    InfeasibleSigmaError
        Sigma has a negative eigenvalue or exceeds Q_{X|Y}, or Q_W has an
        eigenvalue below minus the tolerance.
    """
    sigma = symmetrize(sigma)
    q_xy = stats.q_x_given_y
    tol = psd_tolerance(float(np.max(np.linalg.eigvalsh(q_xy))))
    if float(np.min(np.linalg.eigvalsh(sigma))) < -tol:
        raise InfeasibleSigmaError("distortion covariance has a negative eigenvalue")
    if float(np.min(np.linalg.eigvalsh(q_xy - sigma))) < -tol:
        raise InfeasibleSigmaError("distortion covariance exceeds Q_{X|Y}")

    m = symmetrize(q_xy - sigma)  # = Q_{X_hat|Y}
    h = np.linalg.solve(stats.q_xs_given_y, m.T).T
    q_w = symmetrize(m - h @ stats.q_s_given_y @ h.T)
    w_eigs = np.linalg.eigvalsh(q_w)
    if float(w_eigs[0]) < -tol:
        raise InfeasibleSigmaError(f"noise covariance has eigenvalue {float(w_eigs[0]):.3e} < 0")


def distortion_covariance(spec: GaussianSourceSpec, channel) -> np.ndarray:
    """Analytic E{(X - X_hat)(X - X_hat)^T}; equals sigma_delta for a valid channel."""
    joint = joint_with_reproduction(spec, channel)
    sx = slice(0, spec.n_x)
    sxh = slice(spec.n_total, spec.n_total + spec.n_x)
    c = joint[sx, sxh]
    return symmetrize(spec.q_x - c - c.T + joint[sxh, sxh])


def simulate_whole_array(spec: GaussianSourceSpec, channel, n_samples: int, seed: int):
    """Reference Monte Carlo of the full realization, every sample at once.

    Draws (X, S, Y) through the symmetric root of the joint covariance and
    then W through Q_W's, both from `default_rng(seed)`, and forms the error
    X - (H S + G Y + W); returns (empirical distortion, standard error).
    `simulate_channel` draws only n_x normals per sample, through the R
    factor of the realization map, and must agree with this in law.
    """
    rng = np.random.default_rng(seed)
    xsy = rng.standard_normal((n_samples, spec.n_total)) @ symmetric_sqrt(spec.q)
    x = xsy[:, : spec.n_x]
    s = xsy[:, spec.n_x : spec.n_x + spec.n_s]
    y = xsy[:, spec.n_x + spec.n_s :]
    w = rng.standard_normal((n_samples, spec.n_x)) @ symmetric_sqrt(channel.q_w)
    sq_err = np.sum((x - (s @ channel.h.T + y @ channel.g.T + w)) ** 2, axis=1)
    return float(np.mean(sq_err)), float(np.std(sq_err, ddof=1) / math.sqrt(n_samples))


@pytest.fixture
def scalar_spec() -> GaussianSourceSpec:
    return validate_spec(SCALAR_Q, (1, 1, 1))


def wyner_spec(q: float, q_y: float = 2.0, c: float = 1.0) -> GaussianSourceSpec:
    """Spec with X = S almost surely and Q_{X|Y} = q (Wyner degenerate case)."""
    q0 = q + c * c / q_y
    m = np.array([[q0, q0, c], [q0, q0, c], [c, c, q_y]])
    return validate_spec(m, (1, 1, 1))


def classical_spec(q_x: float) -> GaussianSourceSpec:
    """Spec with X = S and Y independent of both (classical degenerate case)."""
    m = np.array([[q_x, q_x, 0.0], [q_x, q_x, 0.0], [0.0, 0.0, 1.0]])
    return validate_spec(m, (1, 1, 1))


def singular_cross_spec(cross) -> GaussianSourceSpec:
    """Spec with Q_{S|Y} = 2 I, Q_{X|Y} = I and Q_{X,S|Y} = diag(cross), and Y
    independent of (X, S); a last entry at or below INV_TOL makes Q_{X,S|Y}
    singular to the package."""
    n = len(cross)
    q = np.eye(2 * n + 1)
    q[n : 2 * n, n : 2 * n] *= 2.0
    q[:n, n : 2 * n] = q[n : 2 * n, :n] = np.diag(cross)
    return validate_spec(q, (n, n, 1))


def random_feasible_spec(
    rng: np.random.Generator,
    n: int,
    n_y: int,
    min_margin: float = 1e-3,
    max_tries: int = 500,
) -> GaussianSourceSpec:
    """Draw a random spec satisfying the water-filling hypotheses with margin.

    The joint covariance is a normalized Wishart draw (max diagonal scaled to
    one); draws are rejected until Q_{S|Y} > 0, Q_{X|Y} > 0, Q_{X,S|Y}
    invertible and Q_{X|Y} - Q_{X|S,Y} > 0 all hold with at least
    `min_margin` spectral slack, which keeps conditioning moderate.
    """
    dim = 2 * n + n_y
    for _ in range(max_tries):
        a = rng.standard_normal((dim, dim + 2))
        q = a @ a.T / (dim + 2)
        q = q / np.max(np.diag(q))
        try:
            spec = validate_spec(q, (n, n, n_y))
        except RemoteRdfError:
            continue
        stats = conditional_stats(spec)
        margins = (
            float(np.min(np.linalg.eigvalsh(stats.q_s_given_y))),
            float(np.min(np.linalg.eigvalsh(stats.q_x_given_y))),
            float(np.min(np.linalg.svd(stats.q_xs_given_y, compute_uv=False))),
            float(np.min(np.linalg.eigvalsh(stats.q_x_given_y - q_x_given_sy(spec)))),
        )
        if min(margins) > min_margin:
            return spec
    raise RuntimeError(f"no feasible random spec after {max_tries} tries (n={n}, n_y={n_y})")


def ulps_from(x: float, count: int, toward: float) -> list[float]:
    """The `count` floats next to x in the direction of `toward`."""
    out = []
    for _ in range(count):
        x = float(np.nextafter(x, toward))
        out.append(x)
    return out


def generated_spec(rng: np.random.Generator, n: int, n_y: int) -> GaussianSourceSpec:
    """Spec of X ~ N(0, P), S = A X + N_s, Y = B X + N_y with independent noises.

    It meets the water-filling hypotheses by construction, with spectra drawn
    from fixed ranges, so it stays well conditioned at sizes where rejection
    sampling (`random_feasible_spec`) no longer finds a feasible draw.
    """

    def rotation(k: int) -> np.ndarray:
        q, r = np.linalg.qr(rng.standard_normal((k, k)))
        return q * np.sign(np.diag(r))

    u = rotation(n)
    p = (u * rng.uniform(0.3, 1.5, n)) @ u.T
    a = (rotation(n) * rng.uniform(0.5, 1.5, n)) @ rotation(n).T
    b = rng.standard_normal((n_y, n)) / np.sqrt(n)
    mix = np.vstack([np.eye(n), a, b])
    noise = np.concatenate([np.zeros(n), rng.uniform(0.1, 1.0, n), rng.uniform(0.2, 1.0, n_y)])
    q = mix @ p @ mix.T + np.diag(noise)
    return validate_spec(0.5 * (q + q.T), (n, n, n_y))


def rectangular_spec(rng: np.random.Generator, n_x: int, n_s: int, n_y: int) -> GaussianSourceSpec:
    """Spec of X ~ N(0, P), S = A X + N_s with A of shape (n_s, n_x), and
    Y = B X + N_y, with independent noises and spectra from fixed ranges.

    B = Q_{X,S|Y} Q_{S|Y}^{-1} Q_{X,S|Y}^T has rank min(n_x, n_s), so for
    n_s < n_x some components of X are never observed.
    """
    u, _ = np.linalg.qr(rng.standard_normal((n_x, n_x)))
    p = (u * rng.uniform(0.3, 1.5, n_x)) @ u.T
    left, _ = np.linalg.qr(rng.standard_normal((n_s, n_s)))
    right, _ = np.linalg.qr(rng.standard_normal((n_x, n_x)))
    k = min(n_x, n_s)
    a = (left[:, :k] * rng.uniform(0.5, 1.5, k)) @ right[:, :k].T
    mix = np.vstack([np.eye(n_x), a, rng.standard_normal((n_y, n_x)) / np.sqrt(n_x)])
    noise = np.concatenate([np.zeros(n_x), rng.uniform(0.1, 1.0, n_s), rng.uniform(0.2, 1.0, n_y)])
    q = mix @ p @ mix.T + np.diag(noise)
    return validate_spec(0.5 * (q + q.T), (n_x, n_s, n_y))


def reverse_waterfill_rate(c: np.ndarray, target: float) -> float:
    """Reverse water-filling rate 0.5 sum(log(c_i / theta)) over the c_i above
    the level theta at which sum(max(0, c_i - theta)) = target, 0 < target
    < sum(c); written out per active count, independently of the package."""
    c = np.sort(np.asarray(c, dtype=float))[::-1]
    for k in range(1, c.size + 1):
        theta = (float(np.sum(c[:k])) - target) / k
        if k == c.size or theta >= c[k]:
            return 0.5 * float(np.sum(np.log(c[:k] / theta)))
    raise AssertionError("unreachable")


@pytest.fixture
def make_spec():
    return random_feasible_spec
