"""Closed-form teacher projection and its numeric self-verification."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledistill.projection import (
    InfeasibleConstraintError,
    OptimalityReport,
    ProjectionProblem,
    TeacherPosterior,
    project,
    random_projection_sweep,
    verify_optimality,
)


def make(logp, groundings, c=6.0):
    return ProjectionProblem(
        base_log_probs=np.array(logp, dtype=float),
        groundings=tuple((lam, np.array(r, dtype=float)) for lam, r in groundings),
        c=c,
    )


def uniform_log(k):
    return np.full(k, -math.log(k))


class TestProject:
    def test_no_rules_identity(self):
        logp = np.log([0.2, 0.3, 0.5])
        q = project(make(logp, []))
        np.testing.assert_allclose(q.probs(), [0.2, 0.3, 0.5], atol=1e-12)

    def test_single_soft_rule_hand_computed(self):
        # Uniform base, one rule with truth (1, 0), c*lam = 6.
        # Weights: (1, e^-6); q = (1, e^-6) / (1 + e^-6).
        q = project(make(uniform_log(2), [(1.0, [1.0, 0.0])], c=6.0))
        z = 1.0 + math.exp(-6.0)
        np.testing.assert_allclose(
            q.probs(), [1.0 / z, math.exp(-6.0) / z], atol=1e-12
        )

    def test_penalties_accumulate_across_rules(self):
        q1 = project(make(uniform_log(2), [(2.0, [1.0, 0.0])], c=3.0))
        q2 = project(
            make(uniform_log(2), [(1.0, [1.0, 0.0]), (1.0, [1.0, 0.0])], c=3.0)
        )
        np.testing.assert_allclose(q1.log_probs, q2.log_probs, atol=1e-12)

    def test_truth_one_is_no_op(self):
        logp = np.log([0.7, 0.3])
        q = project(make(logp, [(5.0, [1.0, 1.0])]))
        np.testing.assert_allclose(q.probs(), [0.7, 0.3], atol=1e-12)

    def test_hard_rule_masks_exactly(self):
        q = project(make(np.log([0.6, 0.3, 0.1]), [(math.inf, [1.0, 0.0, 1.0])]))
        probs = q.probs()
        assert probs[1] == 0.0
        np.testing.assert_allclose(probs[[0, 2]], [6 / 7, 1 / 7], atol=1e-12)

    def test_hard_rule_requires_exact_one(self):
        q = project(
            make(uniform_log(2), [(math.inf, [1.0, 1.0 - 1e-9])])
        )
        assert q.probs()[1] == 0.0

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleConstraintError):
            project(make(uniform_log(2), [(math.inf, [0.0, 0.5])]))

    def test_c_zero_ignores_soft_rules(self):
        logp = np.log([0.25, 0.75])
        q = project(make(logp, [(1.0, [0.0, 1.0])], c=0.0))
        np.testing.assert_allclose(q.probs(), [0.25, 0.75], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make([0.0, 0.0], [])  # not normalized
        with pytest.raises(ValueError):
            make(uniform_log(2), [(1.0, [0.5, 1.4])])  # truth out of range
        with pytest.raises(ValueError):
            make(uniform_log(2), [(0.0, [1.0, 1.0])])  # nonpositive confidence
        with pytest.raises(ValueError):
            make(uniform_log(2), [(1.0, [1.0, 1.0, 1.0])])  # shape mismatch
        with pytest.raises(ValueError):
            make(uniform_log(2), [], c=-1.0)


class TestStack:
    """A problem over a stack (N, K) projects each row as it would alone."""

    @staticmethod
    def random_stack(seed, n, k):
        rng = np.random.default_rng(seed)
        logp = np.log(rng.dirichlet(np.ones(k), size=n))
        groundings, keep = [], rng.integers(0, k, size=n)
        for lam in rng.choice((0.5, 1.0, 2.0, math.inf), size=rng.integers(0, 4)):
            r = rng.uniform(0.0, 1.0, size=(n, k))
            r[rng.random((n, k)) < 0.3] = 1.0
            if np.isinf(lam):
                # Keep every row feasible: one candidate per row passes all.
                r[np.arange(n), keep] = 1.0
            groundings.append((lam, r))
        return logp, groundings, float(rng.choice((0.0, 1.0, 6.0)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 9), st.integers(1, 6))
    def test_stack_equals_row_by_row(self, seed, n, k):
        logp, groundings, c = self.random_stack(seed, n, k)
        stacked = project(make(logp, groundings, c))
        assert stacked.log_probs.shape == (n, k) and stacked.log_z.shape == (n,)
        for i in range(n):
            alone = project(make(logp[i], [(lam, r[i]) for lam, r in groundings], c))
            assert np.array_equal(stacked.log_probs[i], alone.log_probs)
            assert stacked.log_z[i] == alone.log_z

    def test_infeasible_names_first_row(self):
        logp = np.log(np.full((4, 2), 0.5))
        hard = np.array([[1.0, 0.0], [0.0, 0.5], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InfeasibleConstraintError, match="of row 1$"):
            project(make(logp, [(math.inf, hard)]))
        mask = make(logp, [(math.inf, hard)]).feasible_mask()
        assert mask.any(axis=-1).tolist() == [True, False, True, False]

    def test_validated_per_row(self):
        logp = np.log(np.full((3, 2), 0.5))
        bad = logp.copy()
        bad[2] = [0.0, 0.0]
        with pytest.raises(ValueError, match="every row"):
            make(bad, [])
        truths = np.ones((3, 2))
        truths[1, 0] = 1.5
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            make(logp, [(1.0, truths)])
        with pytest.raises(ValueError, match="shape"):
            make(logp, [(1.0, [1.0, 1.0])])  # one row's truths for a stack
        with pytest.raises(ValueError, match="positive"):
            make(logp, [(0.0, np.ones((3, 2)))])
        with pytest.raises(ValueError):
            make(np.zeros((0, 2)), [])
        with pytest.raises(ValueError):
            make(np.zeros((1, 1, 1)), [])


class TestVerifyOptimality:
    def test_rejects_stack(self):
        problem = make(np.log(np.full((2, 2), 0.5)), [(1.0, [[1.0, 0.0], [0.5, 1.0]])])
        with pytest.raises(ValueError, match="solves one row"):
            verify_optimality(problem)

    def test_agrees_on_soft_instance(self):
        problem = make(
            np.log([0.5, 0.2, 0.3]),
            [(1.0, [1.0, 0.2, 0.0]), (0.5, [0.0, 1.0, 0.7])],
        )
        report = verify_optimality(problem)
        assert report.converged
        assert report.agrees(1e-6)
        assert report.kl < 1e-8
        assert abs(report.objective_gap) < 1e-8

    def test_zero_kl_agrees_at_zero_tolerance(self):
        # Tolerance 0 asks for an exact match, which a KL of 0 is.
        report = OptimalityReport(kl=0.0, objective_numeric=1.0, objective_closed=1.0,
                                  objective_gap=0.0, grad_spread=0.0, iterations=3,
                                  converged=True)
        assert report.agrees(0.0)
        assert not replace(report, kl=6.4e-16).agrees(0.0)

    @pytest.mark.parametrize("setting, value, match", [
        ("trials", -1, "trials must be nonnegative, got -1"),
        ("k_max", 1, "k_max must be at least 2, got 1"),
    ])
    def test_sweep_rejects_bad_argument(self, setting, value, match):
        with pytest.raises(ValueError, match=match):
            random_projection_sweep(seed=0, **{setting: value})

    def test_report_fields_consistent(self):
        problem = make(uniform_log(3), [(2.0, [1.0, 0.5, 0.0])])
        report = verify_optimality(problem)
        assert report.objective_gap == pytest.approx(
            report.objective_numeric - report.objective_closed
        )
        # The numeric route can never beat the exact optimum by more than
        # solver noise.
        assert report.objective_gap > -1e-8

    def test_sweep_deterministic(self):
        a = random_projection_sweep(seed=5, trials=10)
        b = random_projection_sweep(seed=5, trials=10)
        assert [r.kl for _, r in a] == [r.kl for _, r in b]
        c = random_projection_sweep(seed=6, trials=10)
        assert [r.kl for _, r in a] != [r.kl for _, r in c]

    def test_sweep_with_problems(self):
        pairs = random_projection_sweep(seed=1, trials=4)
        assert len(pairs) == 4
        for problem, report in pairs:
            assert isinstance(problem, ProjectionProblem)
            assert report.agrees(1e-6)

    def test_posterior_normalization(self):
        pairs = random_projection_sweep(seed=2, trials=20)
        for problem, _ in pairs:
            q = project(problem)
            assert q.probs().sum() == pytest.approx(1.0, abs=1e-9)
