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
The shipped rules in ``rulelib`` are hand-built truth tables over these
values.
"""

from __future__ import annotations


class TruthValue(float):
    """A truth value in [0, 1].  Out-of-range construction is an error."""

    def __new__(cls, value):
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"truth value {value!r} outside [0, 1]")
        return super().__new__(cls, value)


def strong_conj(a, b) -> TruthValue:
    """Strong conjunction: max(a + b - 1, 0)."""
    a, b = TruthValue(a), TruthValue(b)
    return TruthValue(max(a + b - 1.0, 0.0))


def disj(a, b) -> TruthValue:
    """Disjunction: min(a + b, 1)."""
    a, b = TruthValue(a), TruthValue(b)
    return TruthValue(min(a + b, 1.0))


def avg_conj(values) -> TruthValue:
    """Averaging conjunction: arithmetic mean of a nonempty sequence."""
    values = [TruthValue(v) for v in values]
    if not values:
        raise ValueError("avg_conj of an empty sequence")
    return TruthValue(sum(values) / len(values))


def neg(a) -> TruthValue:
    """Negation: 1 - a."""
    return TruthValue(1.0 - TruthValue(a))


def implies(a, b) -> TruthValue:
    """Implication: min(1 - a + b, 1), i.e. disj(neg(a), b)."""
    a, b = TruthValue(a), TruthValue(b)
    return TruthValue(min(1.0 - a + b, 1.0))
