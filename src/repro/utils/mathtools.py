"""Numerically robust scalar math helpers used throughout the compact models.

The compact leakage models contain exponentials of large arguments (for
example the on-state of a transistor evaluated with the subthreshold
formula).  The helpers here keep those evaluations finite and smooth so the
DC solver never sees an overflow or a kink.
"""

from __future__ import annotations

import math

import numpy as np

#: Largest exponent handed to ``math.exp``; exp(700) is near the float64 max.
_MAX_EXP_ARG = 60.0


def safe_exp(x: float, max_arg: float = _MAX_EXP_ARG) -> float:
    """Return ``exp(x)`` with the argument clipped to ``[-max_arg, max_arg]``.

    Clipping at +/-60 keeps the result comfortably inside float64 range while
    preserving ~26 decades of dynamic range, far more than any physical
    leakage ratio in the models.
    """
    if x > max_arg:
        x = max_arg
    elif x < -max_arg:
        x = -max_arg
    return math.exp(x)


def log1p_exp(x: float) -> float:
    """Return ``log(1 + exp(x))`` without overflow (softplus).

    Used by the EKV-style smooth channel-current interpolation between the
    subthreshold and strong-inversion regimes.
    """
    if x > _MAX_EXP_ARG:
        return x
    if x < -_MAX_EXP_ARG:
        return math.exp(x)
    return math.log1p(math.exp(x))


def safe_exp_np(x: np.ndarray, max_arg: float = _MAX_EXP_ARG) -> np.ndarray:
    """Vectorized :func:`safe_exp`: elementwise ``exp`` with clipped argument."""
    # minimum/maximum instead of np.clip: same result, much less call
    # overhead on the small arrays the solver hot loop works with.
    return np.exp(np.minimum(np.maximum(x, -max_arg), max_arg))


def log1p_exp_np(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`log1p_exp` (softplus) with the same branch structure.

    Matches the scalar helper branch for branch so the batched device models
    agree with the scalar oracle to rounding error: above ``+_MAX_EXP_ARG``
    the identity ``log(1+exp(x)) -> x`` is used, below ``-_MAX_EXP_ARG`` the
    softplus collapses to ``exp(x)`` itself.
    """
    x = np.asarray(x, dtype=float)
    exp_x = np.exp(np.minimum(x, _MAX_EXP_ARG))
    return np.where(
        x > _MAX_EXP_ARG,
        x,
        np.where(x < -_MAX_EXP_ARG, exp_x, np.log1p(exp_x)),
    )


def log1p_exp_grad_np(x: np.ndarray) -> np.ndarray:
    """Derivative of :func:`log1p_exp_np`, branch for branch.

    Above ``+_MAX_EXP_ARG`` the softplus is the identity (slope 1), below
    ``-_MAX_EXP_ARG`` it collapses to ``exp(x)`` (slope ``exp(x)``), and in
    between the derivative is the logistic sigmoid.  Matching the value
    twin's branches keeps the analytic device Jacobians consistent with the
    currents the solver actually evaluates.
    """
    x = np.asarray(x, dtype=float)
    exp_x = np.exp(np.minimum(x, _MAX_EXP_ARG))
    return np.where(
        x > _MAX_EXP_ARG,
        1.0,
        np.where(x < -_MAX_EXP_ARG, exp_x, exp_x / (1.0 + exp_x)),
    )


def smooth_step_np(x: np.ndarray, width: float = 1.0) -> np.ndarray:
    """Vectorized :func:`smooth_step` (logistic 0-to-1 transition)."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return 1.0 / (1.0 + safe_exp_np(-np.asarray(x, dtype=float) / width))


def smooth_step_grad_np(x: np.ndarray, width: float = 1.0) -> np.ndarray:
    """Derivative of :func:`smooth_step_np` with respect to ``x``.

    ``step * (1 - step) / width`` — exact wherever the value twin's clipped
    exponential is not saturated; in the saturated tails the true derivative
    of the clipped implementation is exactly zero while this expression is
    ``~exp(-_MAX_EXP_ARG)/width``, an absolute error below 1e-24 for every
    width the device models use.
    """
    step = smooth_step_np(x, width=width)
    return step * (1.0 - step) / width


def smooth_step(x: float, width: float = 1.0) -> float:
    """Return a smooth 0-to-1 transition of ``x`` over the given width.

    A logistic step centred at zero, used to blend bias-dependent model terms
    without introducing derivative discontinuities.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return 1.0 / (1.0 + safe_exp(-x / width))


def relative_difference(value: float, reference: float) -> float:
    """Return ``(value - reference) / reference``.

    This is the paper's loading-effect metric shape (Eqs. 3-5).  A zero
    reference raises ``ZeroDivisionError`` so silent nonsense never
    propagates into figures.
    """
    if reference == 0.0:
        raise ZeroDivisionError("relative difference against a zero reference")
    return (value - reference) / reference


def percent_difference(value: float, reference: float) -> float:
    """Return the relative difference expressed in percent."""
    return 100.0 * relative_difference(value, reference)
