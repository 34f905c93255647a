"""Reference values for the benchmark, computed without importing remoterdf.

Everything here is derived from the raw joint covariance of (X, S, Y) with
plain numpy: Schur complements given Y, the singular values d_i of
Q_{S|Y}^{1/2} Q_{X,S|Y}^{-1}, and the exact reverse water-filling solution
over a_i = 1/d_i^2 (Cover & Thomas, Elements of Information Theory, 2nd ed.,
section 10.3.3).  With the a_i sorted descending and a target allocation
T = trace(Q_{X|Y}) - delta, the number of active components is the count of
breakpoint totals f_k = sum_{j<=k} (a_j - a_k) lying below T, the level is
theta = (sum_{j<=k} a_j - T) / k, and the rate is 0.5 * sum log(a_i / theta)
over the active components.  Nothing here iterates or bisects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Reference:
    """Conditional statistics and water-filling constants of one instance."""

    n_x: int
    n_s: int
    n_y: int
    q: np.ndarray
    q_x_given_y: np.ndarray
    q_s_given_y: np.ndarray
    q_xs_given_y: np.ndarray
    a_desc: np.ndarray       # 1/d_i^2, descending
    u_desc: np.ndarray       # right singular vectors, columns paired with a_desc
    breakpoints: np.ndarray  # f_k, non-decreasing

    @property
    def delta_plus(self) -> float:
        return float(np.trace(self.q_x_given_y))

    @property
    def delta_minus(self) -> float:
        return self.delta_plus - float(np.sum(self.a_desc))

    def rate(self, delta: float) -> float:
        """R(delta) in nats; inf at or below delta_minus, 0 at or above delta_plus."""
        target = self.delta_plus - float(delta)
        if target <= 0.0:
            return 0.0
        if float(delta) <= self.delta_minus:
            return math.inf
        k, theta = self._level(target)
        return 0.5 * float(np.sum(np.log(self.a_desc[:k] / theta)))

    def _level(self, target: float) -> tuple[int, float]:
        k = int(np.searchsorted(self.breakpoints, target, side="left"))
        return k, (float(np.sum(self.a_desc[:k])) - target) / k

    def sigma(self, delta: float) -> np.ndarray:
        """Optimal distortion covariance Q_{X|Y} - U diag(max(0, a - theta)) U^T."""
        target = self.delta_plus - float(delta)
        if target <= 0.0:
            return self.q_x_given_y.copy()
        if float(delta) <= self.delta_minus:
            raise ValueError(f"delta {delta!r} is at or below delta_minus {self.delta_minus!r}")
        _, theta = self._level(target)
        lam = np.maximum(self.a_desc - theta, 0.0)
        return self.q_x_given_y - (self.u_desc * lam) @ self.u_desc.T

    def error_covariance(self, h: np.ndarray, g: np.ndarray, q_w: np.ndarray) -> np.ndarray:
        """Covariance of X - X_hat for X_hat = H S + G Y + W, W independent with covariance Q_W."""
        n_x = self.n_x
        gain = np.hstack([h, g])             # acts on (S, Y)
        c_x_xhat = self.q[:n_x, n_x:] @ gain.T
        q_xhat = gain @ self.q[n_x:, n_x:] @ gain.T + q_w
        err = self.q[:n_x, :n_x] - c_x_xhat - c_x_xhat.T + q_xhat
        return 0.5 * (err + err.T)


def _given_y(q: np.ndarray, a: slice, b: slice, y: slice) -> np.ndarray:
    """Schur complement Q_{A,B} - Q_{A,Y} Q_Y^{-1} Q_{Y,B}."""
    return q[a, b] - q[a, y] @ np.linalg.solve(q[y, y], q[y, b])


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def reference(q, dims: tuple[int, int, int]) -> Reference:
    """Reference for the joint covariance `q` of (X, S, Y) with block sizes `dims`."""
    q = np.array(q, dtype=float)
    n_x, n_s, n_y = dims
    sx, ss, sy = slice(0, n_x), slice(n_x, n_x + n_s), slice(n_x + n_s, n_x + n_s + n_y)
    q_x = _given_y(q, sx, sx, sy)
    q_s = _given_y(q, ss, ss, sy)
    q_xs = _given_y(q, sx, ss, sy)
    _, d, vt = np.linalg.svd(_psd_sqrt(q_s) @ np.linalg.inv(q_xs))
    # svd returns d descending, so a = 1/d^2 comes out ascending: reverse both.
    a_desc = (1.0 / d**2)[::-1]
    u_desc = vt[::-1].T
    k = np.arange(1, a_desc.size + 1)
    breakpoints = np.cumsum(a_desc) - k * a_desc
    return Reference(n_x, n_s, n_y, q, q_x, q_s, q_xs, a_desc, u_desc, breakpoints)


def wyner_rate(q_xy: float, delta: float) -> float:
    """Scalar side-information limit X = S: max(0, 0.5 ln(q/delta))."""
    return max(0.0, 0.5 * math.log(q_xy / delta))


def classical_rate(q_x: float, delta: float) -> float:
    """Classical scalar Gaussian rate-distortion function."""
    return max(0.0, 0.5 * math.log(q_x / delta))


def remark3_row(q: float, delta: float) -> tuple[float, float]:
    """Prior-work noise variance delta/(q - delta) and the correct gain h = (q - delta)/q."""
    prior = math.inf if delta == q else delta / (q - delta)
    return prior, (q - delta) / q


def mc_standard_error(sigma: np.ndarray, n_samples: int) -> float:
    """Standard error of the mean of ||e||^2 for e ~ N(0, sigma): sqrt(2 tr(sigma^2) / N)."""
    sigma = np.asarray(sigma, dtype=float)
    return math.sqrt(2.0 * float(np.sum(sigma * sigma.T)) / n_samples)
