"""Log-space numeric helpers shared across the package."""

from __future__ import annotations

import numpy as np


def logsumexp(a, axis=None):
    """log(sum(exp(a))) with max-subtraction; -inf entries are handled and
    an all-(-inf) reduction yields -inf rather than NaN."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        s = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(s.reshape(()))
    return np.squeeze(s, axis=axis)

