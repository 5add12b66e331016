"""Teacher-side inference over structured outputs.

Two regimes compute the teacher's soft predictions, matched to how the
rule penalties factor over the output:

* chain: bigram penalties; exact marginals by forward-backward and MAP
  decode by max-product, both in log space.  A query is a batch of chains
  of any lengths, padded to (N, T_max, K): each pass takes one vectorised
  step per position across all chains.
* group: cross-instance penalties.  A group whose joint label space has at
  most ``EXACT_MAX_STATES`` states is enumerated exactly in one dense
  score tensor; a larger one falls back to single-site Gibbs sampling with
  exact conditionals, with marginals estimated by averaging those
  conditionals (Rao-Blackwellized counts).

Group members carry finite pair potentials only: a -inf bigram entry can
freeze single-site sampling into one basin, so hard transition constraints
must be routed through the chain regime instead.  Unary -inf entries are
safe (the conditional simply never picks them) and are allowed.

Brute-force enumeration oracles for the chain and group regimes are public
so tests can compare each fast path against an independent computation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .numerics import logsumexp
from .projection import InfeasibleConstraintError

__all__ = [
    "InfeasibleChainError",
    "ChainTeacherQuery",
    "chain_log_z",
    "chain_marginals",
    "chain_map_decode",
    "ChainEnumeration",
    "enumerate_chain_posterior",
    "MemberPotentials",
    "GroupLink",
    "GroupTeacherQuery",
    "gibbs_conditional",
    "gibbs_soft_predict",
    "EXACT_MAX_STATES",
    "exact_group_marginals",
    "GroupEnumeration",
    "enumerate_group_posterior",
    "form_groups",
]


class InfeasibleChainError(ValueError):
    """No label path survives the chain's hard constraints."""


def _as_float_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if np.isnan(arr).any() or (arr == np.inf).any():
        raise ValueError(f"{name} must not contain NaN or +inf")
    return arr


# --- chain regime ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ChainTeacherQuery:
    """A batch of N label chains over one label space of K labels, with
    bigram log-penalty terms.

    ``log_unary`` holds one (T_n, K) array per chain; lengths may differ.
    The query keeps them zero-padded to (N, T_max, K), with each chain's
    length in ``lengths``.  ``log_pair`` entries are additive in log space
    (0 for no penalty, -inf for a forbidden bigram): either one (K, K)
    matrix shared by every chain and step, or one per chain and step,
    shape (N, T_max - 1, K, K), whose entries past a chain's end are never
    read.  ``log_start``/``log_end`` hold the (K,) boundary terms of every
    chain.  Construction runs the forward pass, which verifies that each
    chain has a feasible path; its log-alphas and the (N,) log normalizers
    are kept for ``chain_marginals`` and ``chain_log_z``.
    """

    log_unary: np.ndarray  # N arrays of (T_n, K); padded (N, T_max, K) after init
    log_pair: Optional[np.ndarray] = None
    log_start: Optional[np.ndarray] = None
    log_end: Optional[np.ndarray] = None
    lengths: np.ndarray = field(init=False, repr=False)
    alpha: np.ndarray = field(init=False, repr=False)
    log_z: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = [np.asarray(u, dtype=float) for u in self.log_unary]
        if not rows or any(u.ndim != 2 or u.size == 0 for u in rows):
            raise ValueError("log_unary must be a non-empty sequence of non-empty "
                             "(T, K) arrays, one per chain")
        k = rows[0].shape[1]
        if any(u.shape[1] != k for u in rows):
            raise ValueError("all chains must share one label space")
        lengths = np.array([len(u) for u in rows])
        n, t_max = len(rows), int(lengths.max())
        lu = np.zeros((n, t_max, k))
        for i, u in enumerate(rows):
            lu[i, : len(u)] = u
        object.__setattr__(self, "log_unary", _as_float_array(lu, "log_unary"))
        object.__setattr__(self, "lengths", lengths)

        if self.log_pair is not None:
            lp = _as_float_array(self.log_pair, "log_pair")
            if lp.shape not in ((k, k), (n, t_max - 1, k, k)):
                raise ValueError(
                    f"log_pair must have shape ({k}, {k}) or ({n}, {t_max - 1}, {k}, {k})"
                )
            object.__setattr__(self, "log_pair", lp)
        for name in ("log_start", "log_end"):
            vec = getattr(self, name)
            if vec is not None:
                vec = _as_float_array(vec, name)
                if vec.shape != (k,):
                    raise ValueError(f"{name} must have shape ({k},)")
                object.__setattr__(self, name, vec)

        alpha, log_z = _forward(self)
        infeasible = np.flatnonzero(log_z == -np.inf)
        if infeasible.size:
            raise InfeasibleChainError(
                f"hard constraints exclude every label path of chain {infeasible[0]}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "log_z", log_z)

    @property
    def n_positions(self) -> int:
        """Positions over all chains."""
        return int(self.lengths.sum())

    @property
    def n_labels(self) -> int:
        return self.log_unary.shape[2]

    def pair_term(self, t: int) -> np.ndarray:
        """Log-penalty matrix between positions t and t+1: (K, K) when
        shared, else (N, K, K)."""
        if self.log_pair is None:
            return np.zeros((self.n_labels, self.n_labels))
        if self.log_pair.ndim == 2:
            return self.log_pair
        return self.log_pair[:, t]


def _folded_unary(query: ChainTeacherQuery) -> np.ndarray:
    f = query.log_unary.copy()
    if query.log_start is not None:
        f[:, 0] += query.log_start
    if query.log_end is not None:
        f[np.arange(len(f)), query.lengths - 1] += query.log_end
    return f


def _last(query: ChainTeacherQuery, a: np.ndarray) -> np.ndarray:
    """Each chain's row of a padded (N, T_max, K) array at its last position."""
    return a[np.arange(len(a)), query.lengths - 1]


def _unpad(query: ChainTeacherQuery, a: np.ndarray) -> list[np.ndarray]:
    """Each chain's unpadded rows of a padded (N, T_max, ...) array."""
    return [row[:t] for row, t in zip(a, query.lengths)]


def _forward(query: ChainTeacherQuery) -> tuple[np.ndarray, np.ndarray]:
    """Log-alphas of every chain, one vectorised step per position, and the
    (N,) log normalizers read at each chain's last position."""
    f = _folded_unary(query)
    alpha = np.empty_like(f)
    alpha[:, 0] = f[:, 0]
    for t in range(1, f.shape[1]):
        alpha[:, t] = f[:, t] + logsumexp(
            alpha[:, t - 1, :, None] + query.pair_term(t - 1), axis=1
        )
    return alpha, logsumexp(_last(query, alpha), axis=1)


def chain_log_z(query: ChainTeacherQuery) -> np.ndarray:
    """Log normalizer of each chain's posterior, shape (N,)."""
    return query.log_z


def chain_marginals(query: ChainTeacherQuery) -> list[np.ndarray]:
    """Exact per-position marginals of every chain, one (T_n, K) array
    each, via forward-backward in log space."""
    f = _folded_unary(query)
    beta = np.zeros_like(f)
    for t in range(f.shape[1] - 2, -1, -1):
        step = logsumexp(
            query.pair_term(t) + (f[:, t + 1] + beta[:, t + 1])[:, None, :], axis=2
        )
        # A chain that ends at t starts its backward pass there.
        beta[:, t] = np.where((t < query.lengths - 1)[:, None], step, 0.0)
    return _unpad(query, np.exp(query.alpha + beta - query.log_z[:, None, None]))


def chain_map_decode(query: ChainTeacherQuery) -> tuple[list[np.ndarray], np.ndarray]:
    """Max-product decode of every chain: the highest-probability label
    paths and their (N,) log scores (unnormalized).  Per-step ties break
    toward the lower label index.
    """
    f = _folded_unary(query)
    n, t_max, k = f.shape
    delta = np.empty_like(f)
    back = np.zeros((n, t_max, k), dtype=int)
    delta[:, 0] = f[:, 0]
    for t in range(1, t_max):
        scores = delta[:, t - 1, :, None] + query.pair_term(t - 1)
        back[:, t] = np.argmax(scores, axis=1)  # first maximum = lowest index
        delta[:, t] = f[:, t] + np.max(scores, axis=1)
    last = _last(query, delta)
    best = np.argmax(last, axis=1)  # lowest label among equal scores
    paths = np.empty((n, t_max), dtype=int)
    y = best
    for t in range(t_max - 1, -1, -1):
        y = np.where(query.lengths - 1 == t, best, y)
        paths[:, t] = y
        if t:
            y = back[np.arange(n), t, y]
    return _unpad(query, paths), np.max(last, axis=1)


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
            pair = query.pair_term(t)
            pair = pair if pair.ndim == 2 else pair[i]
            scores = scores + pair[paths[:, t], paths[:, t + 1]]
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
    log_pair: Optional[np.ndarray] = None  # (K, K) or (T-1, K, K), finite

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
            t, k = lu.shape
            if lp.shape not in ((k, k), (t - 1, k, k)):
                raise ValueError(
                    f"log_pair must have shape ({k}, {k}) or ({t - 1}, {k}, {k})"
                )
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

    def pair_term(self, t: int) -> np.ndarray:
        if self.log_pair is None:
            return np.zeros((self.n_labels, self.n_labels))
        if self.log_pair.ndim == 2:
            return self.log_pair
        return self.log_pair[t]


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
    ``member_ids`` optionally records each member's index in the original
    batch (set by form_groups).
    """

    members: tuple[MemberPotentials, ...]
    links: tuple[GroupLink, ...] = ()
    sweeps: int = 200
    seed: int = 0
    member_ids: Optional[tuple[int, ...]] = None

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
        if self.member_ids is not None:
            ids = tuple(self.member_ids)
            if len(ids) != len(members):
                raise ValueError("member_ids length must match members")
            object.__setattr__(self, "member_ids", ids)

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
            pair = m.log_pair if m.log_pair.ndim == 2 else m.log_pair[None]
            (path,), _ = chain_map_decode(
                ChainTeacherQuery(log_unary=[m.log_unary], log_pair=pair)
            )
            states.append(path)
    return states


def _site_logits(query, states, member: int, pos: int, beta: float = 1.0) -> np.ndarray:
    mem = query.members[member]
    logits = mem.log_unary[pos].copy()
    if mem.log_pair is not None:
        if pos > 0:
            logits += beta * mem.pair_term(pos - 1)[states[member][pos - 1], :]
        if pos < mem.n_positions - 1:
            logits += beta * mem.pair_term(pos)[:, states[member][pos + 1]]
    for ln in query.links:
        if ln.member_a == member and ln.pos_a == pos:
            logits += beta * ln.log_table[:, states[ln.member_b][ln.pos_b]]
        if ln.member_b == member and ln.pos_b == pos:
            logits += beta * ln.log_table[states[ln.member_a][ln.pos_a], :]
    return logits


def gibbs_conditional(
    query: GroupTeacherQuery, states: Sequence[np.ndarray], member: int, pos: int
) -> np.ndarray:
    """Exact single-site conditional q(y_site | all other labels)."""
    logits = _site_logits(query, states, member, pos)
    return np.exp(logits - logsumexp(logits))


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


def _on_axis(vec: np.ndarray, i: int, n: int) -> np.ndarray:
    """A length-K vector over site i, shaped to broadcast against the
    n-site score tensor."""
    shape = [1] * n
    shape[i] = len(vec)
    return vec.reshape(shape)


def _on_axes(table: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """A (K, K) table over sites i and j, shaped like ``_on_axis``."""
    if i == j:
        return _on_axis(np.diagonal(table), i, n)
    if i > j:
        table, i, j = table.T, j, i
    shape = [1] * n
    shape[i], shape[j] = table.shape
    return table.reshape(shape)


def exact_group_marginals(query: GroupTeacherQuery) -> list[np.ndarray]:
    """Exact per-member per-position marginals of the group posterior, in
    the shape ``gibbs_soft_predict`` returns.

    Every site gets one axis of a K**n_sites score tensor, built by
    broadcasting the unaries, the members' pair terms and the link tables;
    the tensor is normalized once and each site's marginal sums out the
    other axes.  Raises ValueError above ``EXACT_MAX_STATES`` joint states.
    """
    k = query.n_labels
    sites = _sites(query)
    n = len(sites)
    if k**n > EXACT_MAX_STATES:
        raise ValueError(
            f"{k}**{n} joint states exceed EXACT_MAX_STATES = {EXACT_MAX_STATES}"
        )
    site_index = {s: i for i, s in enumerate(sites)}
    score = np.zeros((k,) * n)
    for i, (m, t) in enumerate(sites):
        score += _on_axis(query.members[m].log_unary[t], i, n)
    for m, mem in enumerate(query.members):
        if mem.log_pair is not None:
            for t in range(mem.n_positions - 1):
                score += _on_axes(mem.pair_term(t), site_index[(m, t)],
                                  site_index[(m, t + 1)], n)
    for ln in query.links:
        score += _on_axes(ln.log_table, site_index[(ln.member_a, ln.pos_a)],
                          site_index[(ln.member_b, ln.pos_b)], n)
    probs = np.exp(score - score.max())
    probs /= probs.sum()
    out = [np.empty_like(m.log_unary) for m in query.members]
    for i, (m, t) in enumerate(sites):
        out[m][t] = probs.sum(axis=tuple(a for a in range(n) if a != i))
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
                    s += float(mem.pair_term(t)[a, b])
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


def form_groups(
    members: Sequence[MemberPotentials],
    links: Sequence[GroupLink],
    g_max: int = 8,
    seed: int = 0,
    sweeps: int = 200,
) -> list[GroupTeacherQuery]:
    """Partition a batch into groups by link connectivity.

    Components larger than ``g_max`` are shrunk by deleting uniformly
    random links (seeded) until every component fits.  Link indices refer
    to the batch; the returned queries re-index members and record their
    original batch positions in ``member_ids``.
    """
    if g_max < 1:
        raise ValueError("g_max must be >= 1")
    n = len(members)
    for ln in links:
        if not (0 <= ln.member_a < n and 0 <= ln.member_b < n):
            raise ValueError("links must reference batch members")

    rng = np.random.default_rng(seed)
    kept = list(links)

    def components(active_links):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ln in active_links:
            a, b = find(ln.member_a), find(ln.member_b)
            if a != b:
                parent[a] = b
        comps: dict[int, list[int]] = {}
        for i in range(n):
            comps.setdefault(find(i), []).append(i)
        return sorted(comps.values(), key=min)

    while True:
        comps = components(kept)
        oversized = [c for c in comps if len(c) > g_max]
        if not oversized:
            break
        target = set(oversized[0])
        internal = [
            i
            for i, ln in enumerate(kept)
            if ln.member_a in target and ln.member_b in target
        ]
        drop = internal[int(rng.integers(len(internal)))]
        kept.pop(drop)

    groups = []
    for comp in comps:
        local = {orig: i for i, orig in enumerate(comp)}
        comp_links = tuple(
            GroupLink(
                member_a=local[ln.member_a],
                pos_a=ln.pos_a,
                member_b=local[ln.member_b],
                pos_b=ln.pos_b,
                log_table=ln.log_table,
            )
            for ln in kept
            if ln.member_a in local and ln.member_b in local
        )
        groups.append(
            GroupTeacherQuery(
                members=tuple(members[i] for i in comp),
                links=comp_links,
                sweeps=sweeps,
                seed=int(rng.integers(2**31 - 1)),
                member_ids=tuple(comp),
            )
        )
    return groups
