"""Soft truth values for logic rules.

Boolean logic is relaxed to continuous truth values in [0, 1] using the
Lukasiewicz-style operator set

    strong_conj(a, b) = max(a + b - 1, 0)
    disj(a, b)        = min(a + b, 1)
    avg_conj(values)  = mean(values)
    neg(a)            = 1 - a
    implies(a, b)     = min(1 - a + b, 1)

``strong_conj`` acts as a selection operator (``a & b == b`` when ``a == 1``
and ``0`` when ``a == 0``), while ``avg_conj`` averages its conjuncts.
``implies`` is the residual implication consistent with ``disj(neg(a), b)``.

Each operator takes scalars, giving a :class:`TruthValue`, or numpy
arrays, which broadcast and give a float array; either way an operand
outside [0, 1], NaN included, is an error.  The shipped rules in
``rulelib`` are these formulas: the but rule over the two labels, and the
BIOES transition rules over 0/1 tag indicators.
"""

from __future__ import annotations

import numpy as np


class TruthValue(float):
    """A truth value in [0, 1].  Out-of-range construction is an error."""

    def __new__(cls, value):
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"truth value {value!r} outside [0, 1]")
        return super().__new__(cls, value)


def _truth(value):
    """A scalar operand as a TruthValue; an array operand as a float array
    under the same range check (a NaN fails both comparisons)."""
    if np.ndim(value) == 0:
        return TruthValue(value)
    value = np.asarray(value, dtype=float)
    if value.size and not (value.min() >= 0.0 and value.max() <= 1.0):
        bad = value[~((value >= 0.0) & (value <= 1.0))][0]
        raise ValueError(f"truth value {float(bad)!r} outside [0, 1]")
    return value


def _result(value):
    """A TruthValue from scalar operands; an array (in [0, 1] if they are)."""
    return TruthValue(value) if np.ndim(value) == 0 else value


def strong_conj(a, b):
    """Strong conjunction: max(a + b - 1, 0)."""
    return _result(np.maximum(_truth(a) + _truth(b) - 1.0, 0.0))


def disj(a, b):
    """Disjunction: min(a + b, 1)."""
    return _result(np.minimum(_truth(a) + _truth(b), 1.0))


def avg_conj(values):
    """Averaging conjunction: arithmetic mean of a nonempty sequence."""
    values = [_truth(v) for v in values]
    if not values:
        raise ValueError("avg_conj of an empty sequence")
    return _result(sum(values) / len(values))


def neg(a):
    """Negation: 1 - a."""
    return _result(1.0 - _truth(a))


def implies(a, b):
    """Implication: min(1 - a + b, 1), i.e. disj(neg(a), b)."""
    return _result(np.minimum(1.0 - _truth(a) + _truth(b), 1.0))
