"""Operator semantics of the soft truth values."""

import itertools

import numpy as np
import pytest

from ruledistill.softlogic import (
    TruthValue,
    avg_conj,
    disj,
    implies,
    neg,
    strong_conj,
)

GRID = [i / 10 for i in range(11)]


class TestOperators:
    def test_boolean_restriction_exact(self):
        # On {0, 1} the operators must reduce to classical logic exactly.
        for a, b in itertools.product((0.0, 1.0), repeat=2):
            assert strong_conj(a, b) == float(a and b)
            assert disj(a, b) == float(a or b)
            assert implies(a, b) == float((not a) or b)
        for a in (0.0, 1.0):
            assert neg(a) == 1.0 - a
            assert avg_conj([a]) == a

    def test_closed_form_on_grid(self):
        # Independent restatement of the definitions.
        for a, b in itertools.product(GRID, repeat=2):
            assert strong_conj(a, b) == pytest.approx(max(0.0, a + b - 1.0))
            assert disj(a, b) == pytest.approx(min(1.0, a + b))
            assert implies(a, b) == pytest.approx(min(1.0, 1.0 - a + b))
        for a in GRID:
            assert neg(a) == pytest.approx(1.0 - a)

    def test_avg_conj_is_mean(self):
        vals = [0.2, 0.5, 0.9, 1.0]
        assert avg_conj(vals) == pytest.approx(float(np.mean(vals)))
        assert avg_conj([0.3]) == pytest.approx(0.3)

    def test_range_closure(self):
        for a, b in itertools.product(GRID, repeat=2):
            for v in (
                strong_conj(a, b),
                disj(a, b),
                implies(a, b),
                neg(a),
                avg_conj([a, b]),
            ):
                assert 0.0 <= v <= 1.0

    def test_commutativity(self):
        for a, b in itertools.product(GRID, repeat=2):
            assert strong_conj(a, b) == strong_conj(b, a)
            assert disj(a, b) == disj(b, a)

    def test_de_morgan(self):
        # neg(strong_conj(a, b)) == disj(neg a, neg b) holds in this algebra.
        for a, b in itertools.product(GRID, repeat=2):
            assert neg(strong_conj(a, b)) == pytest.approx(disj(neg(a), neg(b)))

    def test_residuation(self):
        # implies(a, b) = 1 exactly when a <= b.
        for a, b in itertools.product(GRID, repeat=2):
            assert (implies(a, b) == 1.0) == (a <= b)

    def test_truth_value_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TruthValue(1.5)
        with pytest.raises(ValueError):
            TruthValue(-0.1)
        with pytest.raises(ValueError):
            strong_conj(0.5, 2.0)
