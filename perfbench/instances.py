"""Problem instances built from a generative model, and their spec files.

X ~ N(0, P), S = A X + N_s and Y = B X + N_y with independent Gaussian noises
of covariances R_s > 0 and R_y > 0.  Every instance meets the water-filling
hypotheses by construction: Q_Y = B P B^T + R_y is invertible,
Q_{X|Y} = (P^{-1} + B^T R_y^{-1} B)^{-1} > 0, Q_{S|Y} = A Q_{X|Y} A^T + R_s > 0,
Q_{X,S|Y} = Q_{X|Y} A^T is invertible because A is, and Q_{X|S,Y} < Q_{X|Y}
because S carries information about X beyond Y.  The spectra of P and A are
drawn from fixed ranges, so conditioning stays moderate at every size.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The README's scalar example: Q_{X|Y} = 0.5, Q_{S|Y} = 1, Q_{X,S|Y} = 0.5,
# finite-rate range (0.25, 0.5] and R(0.375) = ln(2)/2.
README_SCALAR = [[1.0, 1.0, 1.0], [1.0, 1.5, 1.0], [1.0, 1.0, 2.0]]


def _rotation(rng: np.random.Generator, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def generate(rng: np.random.Generator, n: int, n_y: int) -> np.ndarray:
    """Joint covariance of (X, S, Y) with n_x = n_s = n, scaled to unit max diagonal."""
    u = _rotation(rng, n)
    p = (u * rng.uniform(0.3, 1.5, n)) @ u.T
    a = (_rotation(rng, n) * rng.uniform(0.5, 1.5, n)) @ _rotation(rng, n).T
    b = rng.standard_normal((n_y, n)) / np.sqrt(n)
    r_s = np.diag(rng.uniform(0.1, 1.0, n))
    r_y = np.diag(rng.uniform(0.2, 1.0, n_y))
    q_xs = p @ a.T
    q_xy = p @ b.T
    q = np.block(
        [
            [p, q_xs, q_xy],
            [q_xs.T, a @ q_xs + r_s, a @ q_xy],
            [q_xy.T, (a @ q_xy).T, b @ q_xy + r_y],
        ]
    )
    q = 0.5 * (q + q.T)
    return q / np.max(np.diag(q))


def side_dim(n: int) -> int:
    """Side-information dimension paired with source dimension n."""
    return max(1, n // 4)


def write_spec(path: Path, q: np.ndarray, dims: tuple[int, int, int], label: str) -> dict:
    """Write a source-spec JSON file; returns its manifest entry."""
    doc = {
        "dims": {"n_x": dims[0], "n_s": dims[1], "n_y": dims[2]},
        "covariance": np.asarray(q, dtype=float).tolist(),
        "label": label,
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return {"path": str(path), "dims": list(dims), "label": label}


def read_spec(entry: dict) -> tuple[np.ndarray, tuple[int, int, int]]:
    """Covariance and dims of a written spec file, read without remoterdf."""
    doc = json.loads(Path(entry["path"]).read_text(encoding="utf-8"))
    return np.array(doc["covariance"], dtype=float), tuple(entry["dims"])
