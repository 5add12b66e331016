"""Rule-constrained posterior projection over an explicit candidate space.

The teacher distribution is the closed-form solution of

    minimize_q  KL(q || p) + C * sum_l lam_l * max(0, 1 - E_q[r_l])

which exponentiates each base weight by the rule penalties:

    q(y)  propto  p(y) * exp(-C * sum_l lam_l * (1 - r_l(y)))

Because every truth value r_l(y) lies in [0, 1], the hinge in the objective
is never active at the optimum and the closed form above is exact.  An
infinite confidence turns the corresponding penalty into a hard mask:
candidates with r_l(y) < 1 receive zero probability exactly.  A problem is
one row of K candidates or a stack of N rows, each projected on its own:
a row of a stack comes out bit-identical to projecting it alone.

`verify_optimality` re-solves the primal numerically by exponentiated
gradient descent from a uniform start.  It deliberately does not use the
closed form: it minimizes the hinge objective as written, so agreement
between the two routes is evidence, not construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import logsumexp

__all__ = [
    "InfeasibleConstraintError",
    "ProjectionProblem",
    "TeacherPosterior",
    "OptimalityReport",
    "project",
    "verify_optimality",
    "random_projection_sweep",
]


class InfeasibleConstraintError(ValueError):
    """Every candidate is excluded by some hard constraint."""


@dataclass(frozen=True, eq=False)
class ProjectionProblem:
    """Base log-probabilities over K candidates, one row ``(K,)`` or a stack
    ``(N, K)``, a list of (confidence, truths) pairs whose truths have the
    base's shape, and the strength C.

    A confidence of ``inf`` marks a hard constraint.  Every base row must be
    normalized; truths must lie in [0, 1].
    """

    base_log_probs: np.ndarray
    groundings: tuple[tuple[float, np.ndarray], ...]
    c: float

    def __post_init__(self):
        logp = np.asarray(self.base_log_probs, dtype=float)
        if logp.ndim not in (1, 2) or logp.size == 0:
            raise ValueError("base_log_probs must be a non-empty row (K,) or stack (N, K)")
        if (np.abs(logsumexp(logp, axis=-1)) > 1e-6).any():
            raise ValueError("base_log_probs must normalize to 1 in every row")
        object.__setattr__(self, "base_log_probs", logp)

        cleaned = []
        for lam, truths in self.groundings:
            lam = float(lam)
            if not lam > 0.0:
                raise ValueError(f"confidence must be positive, got {lam}")
            r = np.asarray(truths, dtype=float)
            if r.shape != logp.shape:
                raise ValueError("truths shape does not match base_log_probs")
            if (r < 0.0).any() or (r > 1.0).any():
                raise ValueError("truth values must lie in [0, 1]")
            cleaned.append((lam, r))
        object.__setattr__(self, "groundings", tuple(cleaned))

        c = float(self.c)
        if not (np.isfinite(c) and c >= 0.0):
            raise ValueError(f"c must be a finite nonnegative real, got {self.c}")
        object.__setattr__(self, "c", c)

    def feasible_mask(self) -> np.ndarray:
        """Boolean mask, shaped as the base, of candidates not excluded by
        any hard constraint."""
        mask = np.ones(self.base_log_probs.shape, dtype=bool)
        for lam, r in self.groundings:
            if np.isinf(lam):
                mask &= r >= 1.0
        return mask


@dataclass(frozen=True, eq=False)
class TeacherPosterior:
    """Projected distribution: normalized log-probabilities plus the log
    normalizer of the unnormalized weights (a float for one row, an (N,)
    array for a stack).  Hard-masked candidates carry log-probability
    -inf, so probs() is exactly zero there."""

    log_probs: np.ndarray
    log_z: float | np.ndarray

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)


def project(problem: ProjectionProblem) -> TeacherPosterior:
    """Closed-form projection of each base row onto the rules."""
    logq = problem.base_log_probs.copy()
    for lam, r in problem.groundings:
        if np.isinf(lam):
            logq = np.where(r >= 1.0, logq, -np.inf)
        else:
            logq = logq - problem.c * lam * (1.0 - r)
    log_z = logsumexp(logq, axis=-1)
    infeasible = np.flatnonzero(log_z == -np.inf)
    if infeasible.size:
        row = f" of row {infeasible[0]}" if logq.ndim == 2 else ""
        raise InfeasibleConstraintError(f"hard constraints exclude every candidate{row}")
    return TeacherPosterior(log_probs=logq - log_z[..., None],
                            log_z=log_z if logq.ndim == 2 else float(log_z))


@dataclass(frozen=True)
class OptimalityReport:
    """Comparison between the closed-form posterior and an independent
    numeric minimizer of the same objective."""

    kl: float                 # KL(numeric || closed), restricted to support
    objective_numeric: float
    objective_closed: float
    objective_gap: float      # numeric - closed; ~0 or positive when closed is optimal
    grad_spread: float        # max-min of the final gradient over the support
    iterations: int
    converged: bool

    def agrees(self, tolerance: float = 1e-6) -> bool:
        return self.converged and self.kl <= tolerance


def _primal_objective(q, logp, lams, truth_rows, c):
    # KL(q || p) + C * sum_l lam_l * max(0, 1 - E_q[r_l]); 0 log 0 = 0.
    pos = q > 0.0
    kl = float(np.sum(q[pos] * (np.log(q[pos]) - logp[pos])))
    if lams.size == 0:
        return kl
    slack = lams * (1.0 - truth_rows @ q)
    return kl + c * float(np.sum(np.maximum(0.0, slack)))


def verify_optimality(
    problem: ProjectionProblem, posterior: TeacherPosterior | None = None
) -> OptimalityReport:
    """Minimize the hinge objective by exponentiated gradient descent and
    compare the result against the closed-form posterior.

    Hard constraints are honored by restricting the search to the feasible
    sub-simplex (the limiting form of an infinite penalty).  The start is
    uniform and the step conservative, so the search shares nothing with the
    closed form.  A non-converged report is inconclusive, not a failure.
    It solves one row: a stack is rejected.
    """
    if problem.base_log_probs.ndim != 1:
        raise ValueError("verify_optimality solves one row (K,); "
                         "pass each row of a stack as its own problem")
    if posterior is None:
        posterior = project(problem)

    mask = problem.feasible_mask()
    if not mask.any():
        raise InfeasibleConstraintError(
            "hard constraints exclude every candidate"
        )
    logp = problem.base_log_probs[mask]
    finite = [(lam, r[mask]) for lam, r in problem.groundings if np.isfinite(lam)]
    lams = np.array([lam for lam, _ in finite], dtype=float)
    truth_rows = (
        np.stack([r for _, r in finite])
        if finite
        else np.zeros((0, int(mask.sum())))
    )
    c = problem.c
    tol = 1e-10  # on the spread of the gradient over the support

    n = int(mask.sum())
    q = np.full(n, 1.0 / n)
    spread = np.inf
    iterations = 0
    for iterations in range(1, 50_001):
        grad = np.log(q) - logp + 1.0
        if lams.size:
            slack = lams * (1.0 - truth_rows @ q)
            active = slack > 0.0
            if active.any():
                grad -= c * (lams[active, None] * truth_rows[active]).sum(axis=0)
        spread = float(grad.max() - grad.min())
        if spread < tol:
            break
        # Multiplicative update keeps q on the open simplex.
        logw = np.log(q) - 0.25 * grad
        logw -= logsumexp(logw)
        q = np.exp(logw)
    converged = spread < tol

    q_closed = posterior.probs()[mask]
    kl = float(np.sum(q * (np.log(q) - np.log(q_closed))))
    obj_num = _primal_objective(q, logp, lams, truth_rows, c)
    obj_closed = _primal_objective(q_closed, logp, lams, truth_rows, c)
    return OptimalityReport(
        kl=kl,
        objective_numeric=obj_num,
        objective_closed=obj_closed,
        objective_gap=obj_num - obj_closed,
        grad_spread=spread,
        iterations=iterations,
        converged=converged,
    )


def random_projection_sweep(
    seed: int, trials: int = 100, *, k_max: int = 4, c: float = 6.0
) -> list[tuple[ProjectionProblem, OptimalityReport]]:
    """Generate random small projection problems and verify each one.

    Each problem has 2 to ``k_max`` candidates and 1 to 3 rules with
    confidence 0.5, 1 or 2.  Truth vectors are uniform in [0, 1] with
    occasional exact-1 entries so zero-penalty candidates occur.
    Deterministic for a given seed.  Returns (problem, report) pairs, so
    failures can be dumped for reproduction.  Rejects ``trials`` below 0
    and ``k_max`` below 2.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if k_max < 2:
        raise ValueError(f"k_max must be at least 2, got {k_max}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(trials):
        k = int(rng.integers(2, k_max + 1))
        logp = np.log(rng.dirichlet(np.ones(k)))
        logp -= logsumexp(logp)
        n_rules = int(rng.integers(1, 4))
        groundings = []
        for _ in range(n_rules):
            lam = float(rng.choice((0.5, 1.0, 2.0)))
            r = rng.uniform(0.0, 1.0, size=k)
            ones = rng.random(k) < 0.2
            r[ones] = 1.0
            groundings.append((lam, r))
        problem = ProjectionProblem(
            base_log_probs=logp, groundings=tuple(groundings), c=c
        )
        out.append((problem, verify_optimality(problem)))
    return out
