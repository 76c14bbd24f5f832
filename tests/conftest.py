"""Shared helpers for the test suite.

Two design builders are used throughout:

* ``sim_xy`` draws the standard simulation data: uniform covariates on
  (0, 1], additive truth sin(2*pi*x1) + cos(pi*x2)/2, uniform noise on
  [-0.5, 0.5).

* ``ridged_design`` builds an AdditiveDesign whose penalty is Q_m plus a
  small multiple of the identity.  The plain design is exactly singular in
  the shared-constant direction (both bases sum to one, the difference
  penalty kills constants), so the stacked system has an exact null vector
  and the backfit limit is only identified up to a constant split.  Adding
  delta*I to the penalty removes the null direction while keeping every
  banded code path intact; on such a design the joint solve succeeds and
  the backfit limit is unique, which gives clean equivalence oracles.
"""

from pathlib import Path

import numpy as np

import addspline
from addspline import AdditiveDesign, penalty_matrix
from addspline.basis import design_matrix, make_knots
from addspline.penalty import PenaltyMatrix

OZONE_CSV = Path(addspline.__file__).parent / "data" / "ozone.csv"


def sim_xy(n, seed=0):
    rng = np.random.default_rng(seed)
    x1 = 1.0 - rng.random(n)
    x2 = 1.0 - rng.random(n)
    y = np.sin(2.0 * np.pi * x1) + 0.5 * np.cos(np.pi * x2)
    y = y + rng.uniform(-0.5, 0.5, n)
    return y, x1, x2


def ridged_penalty(order, size, delta):
    base = penalty_matrix(order, size)
    return PenaltyMatrix(order=order, values=base.values + delta * np.eye(size))


def ridged_design(n=150, K=8, lam=2.0, delta=5.0, seed=3, degree=3, order=2):
    y, x1, x2 = sim_xy(n, seed)
    cfg = make_knots(degree, K)
    return AdditiveDesign(
        y=y,
        X1=design_matrix(cfg, x1),
        X2=design_matrix(cfg, x2),
        lambda1=lam,
        lambda2=lam,
        penalty=ridged_penalty(order, cfg.num_basis, delta),
    )


def stacked_dense(design):
    """Dense 2q x 2q penalized normal-equations matrix and its right side."""
    X1 = design.X1.values
    X2 = design.X2.values
    P = design.penalty.values
    A = np.block(
        [
            [X1.T @ X1 + design.lambda1 * P, X1.T @ X2],
            [X2.T @ X1, X2.T @ X2 + design.lambda2 * P],
        ]
    )
    rhs = np.concatenate([X1.T @ design.y, X2.T @ design.y])
    return A, rhs
