"""The first-layer l1 penalty and its proximal map, the soft threshold.

The penalized objective itself, loss plus lambda times the penalty, is
formed where it is used: in the solver's levels.
"""

from __future__ import annotations

import numpy as np

from .network import Theta


def penalty_l1(theta: Theta) -> float:
    """Sum of absolute values of the first-layer weights and all hidden biases."""
    return float(np.abs(theta.theta1).sum())


def soft_threshold(w: np.ndarray, t: float) -> np.ndarray:
    """sign(w) * max(|w| - t, 0); produces exact zeros."""
    return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)
