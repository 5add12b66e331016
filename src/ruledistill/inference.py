"""Teacher-side inference over structured outputs.

Two regimes compute the teacher's soft predictions, matched to how the
rule penalties factor over the output:

* chain: bigram penalties.  A query is a batch of chains of any lengths:
  one (P, K) array of every chain's position rows, chain after chain, and
  the chains' lengths, with one (K, K) pair table shared by every chain
  and step (zeros when not given).  The passes pad the rows to
  (N, T_max, K) and take one vectorised step per position across all
  chains; marginals and decoded paths come back as (P, K) and (P,) rows
  in the query's order.  Construction checks that every chain has a
  feasible path by a reachability pass over the -inf entries.  The
  forward-backward marginals and the log normalizers come from
  scaled passes in probability space, run on first use: each step is one
  matmul of the step-normalized alphas (or betas) with exp(pair), and
  log Z is the sum of the log scale factors.  Where that underflows (a
  step whose mass falls to zero, or far enough below an earlier step's
  that rounding in the subnormal range could show), the chain is
  recomputed by the same passes in log space.  MAP decoding is a
  log-space max-product, one argmax per step, and runs no scaled pass.
* group: cross-instance penalties over sites, each site taking one label.
  ``form_groups`` splits linked sites into components, cutting seeded
  random links until each fits a size cap; a cut whose ends keep a
  parallel link or a shared neighbour cannot split, so it is not searched.
  ``exact_group_marginals`` enumerates any number of groups of one size,
  one dense score tensor per group, in slices of up to
  ``EXACT_MAX_STATES`` joint states; a group above that bound falls back
  to single-site Gibbs sampling with exact conditionals, with marginals
  estimated by averaging those conditionals (Rao-Blackwellized counts).

Group members carry finite pair potentials only: a -inf bigram entry can
freeze single-site sampling into one basin, so hard transition constraints
must be routed through the chain regime instead.  Unary -inf entries are
safe (the conditional simply never picks them) and are allowed.

Brute-force enumeration oracles for the chain and group regimes are public
so tests can compare each fast path against an independent computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .numerics import logsumexp
from .projection import InfeasibleConstraintError

__all__ = [
    "InfeasibleChainError",
    "ChainTeacherQuery",
    "chain_marginals",
    "chain_map_decode",
    "ChainEnumeration",
    "enumerate_chain_posterior",
    "MemberPotentials",
    "GroupLink",
    "GroupTeacherQuery",
    "gibbs_soft_predict",
    "EXACT_MAX_STATES",
    "exact_group_marginals",
    "GroupEnumeration",
    "enumerate_group_posterior",
    "SiteGroup",
    "form_groups",
]


class InfeasibleChainError(ValueError):
    """No label path survives the chain's hard constraints; ``chain`` is
    the index of the first such chain in the batch its raiser names."""

    def __init__(self, message: str, chain: int):
        super().__init__(message)
        self.chain = chain


def _as_float_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if not (arr < np.inf).all():  # False at NaN and +inf alike
        raise ValueError(f"{name} must not contain NaN or +inf")
    return arr


def _as_int_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.dtype.kind not in "iu" and not (
            arr.dtype.kind == "f" and np.isfinite(arr).all() and (arr == np.round(arr)).all()):
        raise ValueError(f"{name} must be integers, not bools or fractions")
    return arr.astype(int)


# --- chain regime ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChainTeacherQuery:
    """A batch of N label chains over one label space of K labels, with
    bigram log-penalty terms.

    ``log_unary`` is one (P, K) array of position rows, chain after chain,
    and ``lengths`` the N chains' positive lengths, which add up to P.
    ``log_pair`` is one (K, K) table shared by every chain and step, its
    entries additive in log space (0 for no penalty, -inf for a forbidden
    bigram); ``log_start``/``log_end`` hold the (K,) boundary terms of every
    chain.  Each of the three is zeros when not given.  Construction
    checks by reachability that each chain has a path whose every term is
    finite.  The scaled forward pass ``forward`` and the (N,) log
    normalizers ``log_z`` are computed on first use, once, and kept for
    ``chain_marginals``; ``chain_map_decode`` needs neither.  A chain whose
    finite terms add up past the float range on every path (terms near
    -1e308) still builds: its ``log_z`` and decoded score are -inf.
    """

    log_unary: np.ndarray  # (P, K)
    lengths: np.ndarray  # (N,)
    log_pair: Optional[np.ndarray] = None  # (K, K) after init
    log_start: Optional[np.ndarray] = None  # (K,) after init
    log_end: Optional[np.ndarray] = None  # (K,) after init

    def __post_init__(self):
        lu = _as_float_array(self.log_unary, "log_unary")
        lengths = _as_int_array(self.lengths, "lengths")
        if lu.ndim != 2 or not lu.shape[1]:
            raise ValueError("log_unary must be a (P, K) array of position rows")
        if lengths.ndim != 1 or not len(lengths) or lengths.min() < 1:
            raise ValueError("lengths must be a non-empty 1-d array of positive chain lengths")
        if lengths.sum() != len(lu):
            raise ValueError(f"chain lengths add up to {lengths.sum()}, "
                             f"not to {len(lu)} log_unary rows")
        k = lu.shape[1]
        object.__setattr__(self, "log_unary", lu)
        object.__setattr__(self, "lengths", lengths)
        for name, shape in (("log_pair", (k, k)), ("log_start", (k,)), ("log_end", (k,))):
            term = getattr(self, name)
            term = np.zeros(shape) if term is None else _as_float_array(term, name)
            if term.shape != shape:
                raise ValueError(f"{name} must have shape {shape}")
            object.__setattr__(self, name, term)

        infeasible = np.flatnonzero(~_feasible(self))
        if infeasible.size:
            raise InfeasibleChainError(
                f"hard constraints exclude every label path of chain {infeasible[0]}",
                int(infeasible[0]),
            )

    @cached_property
    def _scaled(self) -> tuple[_ScaledPass, np.ndarray]:
        return _forward(self)

    @property
    def forward(self) -> _ScaledPass:
        """The scaled forward pass, run on first use."""
        return self._scaled[0]

    @property
    def log_z(self) -> np.ndarray:
        """The (N,) log normalizers, from the scaled forward pass."""
        return self._scaled[1]

    @property
    def n_positions(self) -> int:
        """Positions over all chains."""
        return len(self.log_unary)

    @property
    def n_labels(self) -> int:
        return self.log_unary.shape[1]


def _valid(query: ChainTeacherQuery) -> np.ndarray:
    """The (N, T_max) mask of each chain's positions in the padded layout."""
    return np.arange(query.lengths.max()) < query.lengths[:, None]


def _folded_unary(query: ChainTeacherQuery) -> np.ndarray:
    """The unaries zero-padded to (N, T_max, K), with the start and end
    terms added at each chain's first and last position."""
    valid = _valid(query)
    f = np.zeros(valid.shape + (query.n_labels,))
    f[valid] = query.log_unary
    f[:, 0] += query.log_start
    f[np.arange(len(f)), query.lengths - 1] += query.log_end
    return f


def _feasible(query: ChainTeacherQuery) -> np.ndarray:
    """Whether each of the N chains has a label path whose every term is
    finite: a reachability pass over the -inf entries, one product per
    position across all chains, with each label's reachability held as 0
    or 1."""
    allowed = (query.log_pair > -np.inf).astype(float)
    finite = (query.log_unary > -np.inf).astype(float)
    lengths = query.lengths
    first = np.cumsum(lengths) - lengths
    # (T_max, N, K): every chain's row at each step.  Past a chain's end
    # the rows are later chains' (or the last row), which its answer never
    # reads.
    reach = finite[np.minimum(np.arange(lengths.max())[:, None] + first, len(finite) - 1)]
    reach[0] *= query.log_start > -np.inf
    for t in range(1, len(reach)):
        np.minimum(reach[t - 1] @ allowed, reach[t], out=reach[t])
    return reach[lengths - 1, np.arange(len(lengths))] @ (query.log_end > -np.inf) > 0


# The scaled passes keep every step's forward values summing to 1 and carry
# what they divide out in log space.  A value below the smallest normal
# float keeps only an absolute precision, about e^-744 of its step's mass;
# its error can grow only as far as the chain's mass later falls.  So a
# chain whose mass falls by more than e^_MAX_DROP below an earlier step's (a
# step that underflows to zero is the extreme) is recomputed in log space.
_MAX_DROP = 600.0


@dataclass(frozen=True, eq=False)
class _ScaledPass:
    """A forward pass in probability space over a padded batch of chains.

    ``factors`` is exp(unary - the row's max), (N, T_max, K); ``trans`` is
    exp(pair - its max), (K, K).  ``alpha[:, t]`` is
    ``(alpha[:, t-1] @ trans) * factors[:, t]`` divided by its sum
    ``scale[:, t]``.  ``rescued`` marks the chains whose answers come from
    the log-space pass instead."""

    factors: np.ndarray
    trans: np.ndarray
    alpha: np.ndarray
    scale: np.ndarray
    rescued: np.ndarray


def _rows_times(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``a @ table`` for (N, K) rows ``a``, each row's product the same
    whatever N: numpy hands a one-row product to a BLAS vector kernel,
    whose rounding differs from the matrix kernel's, so one row goes
    through as two."""
    if len(a) == 1:
        return (np.concatenate([a, a]) @ table)[:1]
    return a @ table


def _shifted_exp(a: np.ndarray, axis) -> tuple[np.ndarray, np.ndarray]:
    """exp(a - m) and m, where m is the max of ``a`` over ``axis`` (kept),
    taken as 0 where every entry is -inf."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.exp(a - m), m


def _forward(query: ChainTeacherQuery) -> tuple[_ScaledPass, np.ndarray]:
    """The scaled forward pass, one product per position across all
    chains, and the (N,) log normalizers: the sum of each chain's log scale
    factors and shifts up to its length.  A rescued chain takes its log
    normalizer from the log-space pass, which alone finds a chain with no
    feasible path."""
    f = _folded_unary(query)
    n, t_max, _ = f.shape
    factors, f_shift = _shifted_exp(f, 2)
    trans, p_shift = _shifted_exp(query.log_pair, None)
    alpha = np.empty_like(factors)
    scale = np.empty((n, t_max))
    a = factors[:, 0]
    for t in range(t_max):
        if t:
            a = _rows_times(alpha[:, t - 1], trans) * factors[:, t]
        s = a.sum(axis=1)
        scale[:, t] = s
        alpha[:, t] = a / np.where(s > 0, s, 1.0)[:, None]
    valid = _valid(query)
    zero = valid & (scale == 0)
    log_scale = np.log(np.where(valid & ~zero, scale, 1.0))
    level = np.cumsum(log_scale, axis=1)
    fall = np.max(np.maximum.accumulate(level, axis=1) - level, axis=1)
    rescued = zero.any(axis=1) | (fall > _MAX_DROP)
    shifts = f_shift[..., 0]
    shifts[:, 1:] += p_shift[0, 0]
    log_z = np.sum(np.where(valid, log_scale + shifts, 0.0), axis=1)
    if rescued.any():
        rows = np.flatnonzero(rescued)
        _, log_z[rows] = _log_forward(f[rows], query.log_pair, query.lengths[rows])
    return _ScaledPass(factors, trans, alpha, scale, rescued), log_z


def _log_normalized(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``a`` shifted to log-sum 0, and their log-sums; a row with
    no finite entry stays as it is."""
    norm = logsumexp(a, axis=-1)
    return a - np.where(np.isfinite(norm), norm, 0.0)[..., None], norm


def _log_forward(f: np.ndarray, log_pair: np.ndarray, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Log-alphas of padded folded unaries ``f``, shifted to log-sum 0 at
    every step, and the (N,) log normalizers: the sum of the shifts up to
    each chain's length.  The shifts keep every step's values near 0, so
    their rounding does not grow with the chain's score."""
    n, t_max, _ = f.shape
    alpha = np.empty_like(f)
    norms = np.empty((n, t_max))
    alpha[:, 0], norms[:, 0] = _log_normalized(f[:, 0])
    for t in range(1, t_max):
        alpha[:, t], norms[:, t] = _log_normalized(f[:, t] + logsumexp(
            alpha[:, t - 1, :, None] + log_pair, axis=1
        ))
    return alpha, np.sum(np.where(np.arange(t_max) < lengths[:, None], norms, 0.0), axis=1)


def _log_marginals(f: np.ndarray, log_pair: np.ndarray, lengths) -> np.ndarray:
    """Padded (N, T_max, K) marginals by forward-backward in log space."""
    alpha, _ = _log_forward(f, log_pair, lengths)
    beta = np.zeros_like(f)
    for t in range(f.shape[1] - 2, -1, -1):
        step, _ = _log_normalized(logsumexp(
            log_pair + (f[:, t + 1] + beta[:, t + 1])[:, None, :],
            axis=2,
        ))
        # A chain that ends at t starts its backward pass there.
        beta[:, t] = np.where((t < lengths - 1)[:, None], step, 0.0)
    return np.exp(_log_normalized(alpha + beta)[0])


def chain_marginals(query: ChainTeacherQuery) -> np.ndarray:
    """Exact per-position marginals of every chain, as (P, K) rows in the
    query's order.  The backward pass is scaled by the forward pass's
    factors, so alpha * beta is the marginal: one product per position.  A
    chain the forward pass rescued, or whose betas overflow, is recomputed
    in log space."""
    fw = query.forward
    lengths = query.lengths
    beta = np.ones_like(fw.alpha)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(beta.shape[1] - 2, -1, -1):
            step = (_rows_times(fw.factors[:, t + 1] * beta[:, t + 1], fw.trans.T)
                    / fw.scale[:, t + 1, None])
            # A chain that ends at t starts its backward pass there.
            beta[:, t] = np.where((t < lengths - 1)[:, None], step, 1.0)
        marginals = fw.alpha * beta
    redo = fw.rescued | ~np.isfinite(marginals).all(axis=(1, 2))
    if redo.any():
        rows = np.flatnonzero(redo)
        marginals[rows] = _log_marginals(_folded_unary(query)[rows], query.log_pair,
                                         lengths[rows])
    return marginals[_valid(query)]


def chain_map_decode(query: ChainTeacherQuery) -> tuple[np.ndarray, np.ndarray]:
    """Max-product decode of every chain: the highest-probability label
    paths, as (P,) labels in the query's order, and their (N,) log scores
    (unnormalized).  Per-step ties break toward the lower label index.
    """
    f = _folded_unary(query)
    n, t_max, k = f.shape
    into = query.log_pair.T.copy()  # (to, from)
    delta = np.empty_like(f)
    back = np.zeros((n, t_max, k), dtype=int)
    delta[:, 0] = f[:, 0]
    for t in range(1, t_max):
        scores = delta[:, t - 1, None, :] + into
        back[:, t] = arg = np.argmax(scores, axis=2)  # first maximum = lowest index
        delta[:, t] = f[:, t] + np.take_along_axis(scores, arg[..., None], 2)[..., 0]
    last = delta[np.arange(n), query.lengths - 1]
    best = np.argmax(last, axis=1)  # lowest label among equal scores
    paths = np.empty((n, t_max), dtype=int)
    y = best
    for t in range(t_max - 1, -1, -1):
        y = np.where(query.lengths - 1 == t, best, y)
        paths[:, t] = y
        if t:
            y = back[np.arange(n), t, y]
    return paths[_valid(query)], last[np.arange(n), best]


@dataclass(frozen=True, eq=False)
class ChainEnumeration:
    """Brute-force reference answer for one chain over all K^T label paths."""

    marginals: np.ndarray
    log_z: float
    best_path: tuple[int, ...]  # lexicographically first among maximum-score paths
    best_log_score: float


def enumerate_chain_posterior(query: ChainTeacherQuery) -> list[ChainEnumeration]:
    """Exact oracle: score every path of each chain, one answer per chain."""
    f = _folded_unary(query)
    k = query.n_labels
    out = []
    for i, t_len in enumerate(query.lengths):
        # Every path, in lexicographic order, one row each.
        paths = np.indices((k,) * t_len).reshape(t_len, -1).T
        scores = f[i, np.arange(t_len), paths].sum(axis=1)
        for t in range(t_len - 1):
            scores = scores + query.log_pair[paths[:, t], paths[:, t + 1]]
        log_z = logsumexp(scores)
        weights = np.exp(scores - log_z)
        best = int(np.argmax(scores))
        out.append(ChainEnumeration(
            marginals=np.stack([np.bincount(paths[:, t], weights, minlength=k)
                                for t in range(t_len)]),
            log_z=log_z,
            best_path=tuple(int(y) for y in paths[best]),
            best_log_score=float(scores[best]),
        ))
    return out


# --- group regime ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MemberPotentials:
    """One group member's potentials.  Pair terms must be finite (see the
    module note on ergodicity); every unary row needs a finite entry."""

    log_unary: np.ndarray  # (T, K)
    log_pair: Optional[np.ndarray] = None  # (K, K), finite

    def __post_init__(self):
        lu = _as_float_array(self.log_unary, "log_unary")
        if lu.ndim != 2 or lu.size == 0:
            raise ValueError("log_unary must be a non-empty (T, K) array")
        if (np.max(lu, axis=1) == -np.inf).any():
            raise InfeasibleConstraintError(
                "some position has no feasible label"
            )
        object.__setattr__(self, "log_unary", lu)
        if self.log_pair is not None:
            lp = np.asarray(self.log_pair, dtype=float)
            k = lu.shape[1]
            if lp.shape != (k, k):
                raise ValueError(f"log_pair must have shape ({k}, {k})")
            if not np.isfinite(lp).all():
                raise ValueError(
                    "group members take finite pair potentials; route hard "
                    "chain constraints through the chain regime"
                )
            object.__setattr__(self, "log_pair", lp)

    @property
    def n_positions(self) -> int:
        return self.log_unary.shape[0]

    @property
    def n_labels(self) -> int:
        return self.log_unary.shape[1]


@dataclass(frozen=True, eq=False)
class GroupLink:
    """A cross-site log-potential: log_table[label_a, label_b] adds to the
    joint score when site (member_a, pos_a) takes label_a and site
    (member_b, pos_b) takes label_b."""

    member_a: int
    pos_a: int
    member_b: int
    pos_b: int
    log_table: np.ndarray

    def __post_init__(self):
        lt = np.asarray(self.log_table, dtype=float)
        if lt.ndim != 2 or lt.shape[0] != lt.shape[1]:
            raise ValueError("log_table must be a square (K, K) matrix")
        if not np.isfinite(lt).all():
            raise ValueError("link tables must be finite (soft penalties only)")
        object.__setattr__(self, "log_table", lt)


@dataclass(frozen=True, eq=False)
class GroupTeacherQuery:
    """A set of members coupled by links, plus Gibbs sampler settings.

    The sampler spends the first 20% of ``sweeps`` on burn-in.
    """

    members: tuple[MemberPotentials, ...]
    links: tuple[GroupLink, ...] = ()
    sweeps: int = 200
    seed: int = 0

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a group needs at least one member")
        k = members[0].n_labels
        if any(m.n_labels != k for m in members):
            raise ValueError("all group members must share one label space")
        object.__setattr__(self, "members", members)

        links = tuple(self.links)
        for ln in links:
            for m, t in ((ln.member_a, ln.pos_a), (ln.member_b, ln.pos_b)):
                if not 0 <= m < len(members):
                    raise ValueError(f"link references member {m} outside the group")
                if not 0 <= t < members[m].n_positions:
                    raise ValueError(f"link references position {t} outside member {m}")
            if ln.log_table.shape != (k, k):
                raise ValueError("link table shape does not match the label space")
        object.__setattr__(self, "links", links)

        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")

    @property
    def n_labels(self) -> int:
        return self.members[0].n_labels


def _sites(query: GroupTeacherQuery) -> list[tuple[int, int]]:
    """Every (member, position) site of a group, member by member."""
    return [
        (m, t)
        for m in range(len(query.members))
        for t in range(query.members[m].n_positions)
    ]


def _init_states(query: GroupTeacherQuery) -> list[np.ndarray]:
    """Deterministic start: each member's independent MAP labeling."""
    states = []
    for m in query.members:
        if m.log_pair is None:
            states.append(np.argmax(m.log_unary, axis=1).astype(int))
        else:
            path, _ = chain_map_decode(
                ChainTeacherQuery(m.log_unary, [m.n_positions], log_pair=m.log_pair)
            )
            states.append(path)
    return states


def _site_logits(query, states, member: int, pos: int, beta: float = 1.0) -> np.ndarray:
    mem = query.members[member]
    logits = mem.log_unary[pos].copy()
    if mem.log_pair is not None:
        if pos > 0:
            logits += beta * mem.log_pair[states[member][pos - 1], :]
        if pos < mem.n_positions - 1:
            logits += beta * mem.log_pair[:, states[member][pos + 1]]
    for ln in query.links:
        if ln.member_a == member and ln.pos_a == pos:
            logits += beta * ln.log_table[:, states[ln.member_b][ln.pos_b]]
        if ln.member_b == member and ln.pos_b == pos:
            logits += beta * ln.log_table[states[ln.member_a][ln.pos_a], :]
    return logits


def gibbs_soft_predict(query: GroupTeacherQuery) -> list[np.ndarray]:
    """Estimated per-member per-position marginals of the group posterior.

    Runs single-site Gibbs in a fixed scan order, deterministic for a given
    (seed, sweeps).  During burn-in the coupling terms (pair and link
    tables) are ramped linearly from near zero to full strength: strong
    couplings make the posterior metastable, and single-site moves from the
    independent-MAP start would otherwise freeze the chain in whichever
    mode the unaries lean toward rather than the mode the joint prefers.
    After burn-in the kernel uses the exact conditionals, and each site's
    conditional is accumulated, which estimates the same marginal as raw
    indicator counts with lower variance.
    """
    states = _init_states(query)
    burn = int(0.2 * query.sweeps)
    kept = query.sweeps - burn
    acc = [np.zeros_like(m.log_unary) for m in query.members]
    rng = np.random.default_rng(query.seed)
    sites = _sites(query)
    for sweep in range(query.sweeps):
        beta = (sweep + 1) / (burn + 1) if sweep < burn else 1.0
        for m, t in sites:
            logits = _site_logits(query, states, m, t, beta=beta)
            probs = np.exp(logits - logsumexp(logits))
            u = rng.random()
            states[m][t] = min(
                int(np.searchsorted(np.cumsum(probs), u, side="right")),
                query.n_labels - 1,
            )
            if sweep >= burn:
                acc[m][t] += probs
    return [a / kept for a in acc]


# Largest joint label space exact_group_marginals enumerates: four labels
# (three categories plus O) at eight sites, the default group size cap.
EXACT_MAX_STATES = 4**8


def exact_group_marginals(log_unary, log_pair) -> np.ndarray:
    """Exact per-site marginals of a stack of B groups of n sites each.

    ``log_unary`` is (B, n, K); ``log_pair`` is (B, n, n, K, K), and
    ``log_pair[b, i, j][y_i, y_j]`` adds to group b's joint score (i == j
    reads the table's diagonal).  The stack is solved in slices of at most
    ``EXACT_MAX_STATES`` joint states.  The score tensor, one axis per
    site, grows one site at a time, each new site's axis in front: site
    m's unary and its tables with the sites before it are first summed
    into one tensor over (y_m, y_m-1, ..., y_0), itself grown one axis at
    a time.  Every addition then runs over contiguous trailing blocks, and
    each site costs about two passes over the tensor it creates.  Each
    group's tensor is normalized once; the marginals are read off while
    summing out the sites from the front.  A group's marginals are the
    same alone and in any stack.  Returns (B, n, K), so (0, n, K) for an
    empty stack.  Raises ValueError above ``EXACT_MAX_STATES`` joint states
    per group.
    """
    u = np.asarray(log_unary, dtype=float)
    pair = np.asarray(log_pair, dtype=float)
    b, n, k = u.shape
    if pair.shape != (b, n, n, k, k):
        raise ValueError(f"log_pair must have shape {(b, n, n, k, k)}, got {pair.shape}")
    if k**n > EXACT_MAX_STATES:
        raise ValueError(
            f"{k}**{n} joint states exceed EXACT_MAX_STATES = {EXACT_MAX_STATES}"
        )
    # A self-link scores its site's own label, so it joins the unary.
    u = u + np.einsum("biikk->bik", pair)
    # Both directions of the pair (m, i), as one table over (y_m, y_i).
    both = pair + pair.transpose(0, 2, 1, 4, 3)
    out = np.empty((b, n, k))
    step = EXACT_MAX_STATES // k**n
    for s in range(0, b, step):
        ub, pb = u[s:s + step], both[s:s + step]
        score = ub[:, 0]
        for m in range(1, n):
            terms = ub[:, m]
            for i in range(m):
                terms = terms[:, :, None] + pb[:, m, i].reshape((len(ub), k, k) + (1,) * i)
            score = score[:, None] + terms
        mass = score.reshape(len(ub), -1)
        mass -= mass.max(axis=1, keepdims=True)
        np.exp(mass, out=mass)
        mass /= mass.sum(axis=1, keepdims=True)
        for m in range(n - 1, -1, -1):
            block = mass.reshape(len(ub), k, -1)
            out[s:s + step, m] = block.sum(axis=2)
            mass = block.sum(axis=1)
    return out


@dataclass(frozen=True, eq=False)
class GroupEnumeration:
    """Brute-force reference answer over the joint group label space."""

    marginals: list[np.ndarray]
    log_z: float


def enumerate_group_posterior(query: GroupTeacherQuery) -> GroupEnumeration:
    """Exact oracle: enumerate every joint labeling of all sites."""
    k = query.n_labels
    sites = _sites(query)
    site_index = {s: i for i, s in enumerate(sites)}
    log_marg = [np.full_like(m.log_unary, -np.inf) for m in query.members]
    all_scores = []
    for joint in itertools.product(range(k), repeat=len(sites)):
        s = 0.0
        for (m, t), y in zip(sites, joint):
            s += float(query.members[m].log_unary[t, y])
        for m, mem in enumerate(query.members):
            if mem.log_pair is not None:
                for t in range(mem.n_positions - 1):
                    a = joint[site_index[(m, t)]]
                    b = joint[site_index[(m, t + 1)]]
                    s += float(mem.log_pair[a, b])
        for ln in query.links:
            a = joint[site_index[(ln.member_a, ln.pos_a)]]
            b = joint[site_index[(ln.member_b, ln.pos_b)]]
            s += float(ln.log_table[a, b])
        all_scores.append(s)
        for (m, t), y in zip(sites, joint):
            log_marg[m][t, y] = np.logaddexp(log_marg[m][t, y], s)
    log_z = logsumexp(np.array(all_scores))
    return GroupEnumeration(
        marginals=[np.exp(lm - log_z) for lm in log_marg], log_z=log_z
    )


# --- group formation ---------------------------------------------------------


class SiteGroup(NamedTuple):
    """One component of ``form_groups``: its sites in increasing order, its
    kept links as pairs of positions in ``sites``, and a seed for
    sampling it."""

    sites: tuple[int, ...]
    links: tuple[tuple[int, int], ...]
    seed: int


def _components(n: int, links) -> list[list[int]]:
    """Connected components of sites 0..n-1 under ``links``, each in
    increasing order, in order of their smallest site."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return sorted(comps.values(), key=min)


def _side(adjacent: dict[int, dict[int, int]], a: int, b: int) -> Optional[set[int]]:
    """The sites reachable from a, or None as soon as b is among them."""
    seen, frontier = {a}, [a]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adjacent[x]:
                if y == b:
                    return None
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def form_groups(
    n_sites: int,
    links: Sequence[tuple[int, int]],
    g_max: int = 8,
    seed: int = 0,
) -> list[SiteGroup]:
    """Partition sites 0..n_sites-1 into groups by the connectivity of
    ``links``, (a, b) pairs of site indices.

    Components larger than ``g_max`` are shrunk by deleting uniformly
    random links (seeded) of the first one, in order of smallest site,
    until every component fits.  The groups come in that order, each with
    its sites in increasing order, its kept links as pairs of positions in
    ``sites``, and a seed drawn from the same generator after the cuts.
    """
    if g_max < 1:
        raise ValueError("g_max must be >= 1")
    n = n_sites
    for a, b in links:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError("links must reference sites below n_sites")

    rng = np.random.default_rng(seed)
    alive = [True] * len(links)
    comps = _components(n, links)
    while True:
        oversized = [c for c in comps if len(c) > g_max]
        if not oversized:
            break
        target = oversized[0]
        inside = set(target)
        internal = [i for i, (a, _) in enumerate(links) if alive[i] and a in inside]
        # Link counts between the target's sites: a cut splits the target
        # exactly when it leaves no path between the cut link's ends.
        adjacent: dict[int, dict[int, int]] = {site: {} for site in target}
        for a, b in (links[i] for i in internal):
            if a != b:
                adjacent[a][b] = adjacent[b][a] = adjacent[a].get(b, 0) + 1
        side = None
        while side is None:
            i = internal.pop(int(rng.integers(len(internal))))
            alive[i] = False
            a, b = links[i]
            if a == b:
                continue
            for x, y in ((a, b), (b, a)):
                adjacent[x][y] -= 1
                if not adjacent[x][y]:
                    del adjacent[x][y]
            # The ends stay joined through a parallel link or a shared neighbour.
            if b in adjacent[a] or not adjacent[a].keys().isdisjoint(adjacent[b]):
                continue
            side = _side(adjacent, a, b)
        pieces = [sorted(side), [site for site in target if site not in side]]
        comps = sorted([c for c in comps if c is not target] + pieces, key=min)
    kept = [ln for ln, keep in zip(links, alive) if keep]

    groups = []
    for comp in comps:
        local = {site: i for i, site in enumerate(comp)}
        groups.append(SiteGroup(
            sites=tuple(comp),
            links=tuple((local[a], local[b]) for a, b in kept if a in local),
            seed=int(rng.integers(2**31 - 1)),
        ))
    return groups
