"""Chain forward-backward, MAP decoding, and Gibbs group inference."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ruledistill import inference
from ruledistill.inference import (
    EXACT_MAX_STATES,
    ChainTeacherQuery,
    GroupLink,
    GroupTeacherQuery,
    InfeasibleChainError,
    MemberPotentials,
    chain_log_z,
    chain_map_decode,
    chain_marginals,
    enumerate_chain_posterior,
    enumerate_group_posterior,
    exact_group_marginals,
    form_groups,
    gibbs_conditional,
    gibbs_soft_predict,
)
from ruledistill.projection import InfeasibleConstraintError


def norm_rows(rng, t, k):
    logits = rng.normal(size=(t, k))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


class TestChain:
    def test_no_pair_terms_factorizes(self):
        rng = np.random.default_rng(0)
        lu = norm_rows(rng, 4, 3)
        (marg,) = chain_marginals(ChainTeacherQuery(log_unary=[lu]))
        np.testing.assert_allclose(marg, np.exp(lu), atol=1e-12)

    def test_two_position_hand_computed(self):
        # Joint weight w(a,b) = exp(u0[a] + u1[b] + P[a,b]); marginalize by
        # hand over the 2x2 table.
        u = np.log(np.array([[0.6, 0.4], [0.3, 0.7]]))
        pair = np.array([[0.0, -1.0], [-1.0, 0.0]])
        w = np.exp(u[0][:, None] + u[1][None, :] + pair)
        joint = w / w.sum()
        query = ChainTeacherQuery(log_unary=[u], log_pair=pair)
        (marg,) = chain_marginals(query)
        np.testing.assert_allclose(marg[0], joint.sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(marg[1], joint.sum(axis=0), atol=1e-12)
        assert chain_log_z(query)[0] == pytest.approx(np.log(w.sum()))

    def test_marginals_reuse_the_construction_forward_pass(self, monkeypatch):
        calls = []
        original = inference._forward
        monkeypatch.setattr(inference, "_forward",
                            lambda query: calls.append(1) or original(query))
        rng = np.random.default_rng(2)
        query = ChainTeacherQuery(log_unary=[norm_rows(rng, 5, 3), norm_rows(rng, 2, 3)],
                                  log_pair=-rng.uniform(0, 2, size=(3, 3)))
        chain_marginals(query)
        chain_log_z(query)
        assert len(calls) == 1

    def test_against_own_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            t, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            query = ChainTeacherQuery(
                log_unary=[norm_rows(rng, t, k)],
                log_pair=-rng.uniform(0, 2, size=(k, k)),
                log_start=-rng.uniform(0, 1, size=k),
                log_end=-rng.uniform(0, 1, size=k),
            )
            (ref,) = enumerate_chain_posterior(query)
            (marg,) = chain_marginals(query)
            np.testing.assert_allclose(marg, ref.marginals, atol=1e-10)
            assert chain_log_z(query)[0] == pytest.approx(ref.log_z, abs=1e-10)
            (path,), (score,) = chain_map_decode(query)
            assert tuple(path) == ref.best_path
            assert score == pytest.approx(ref.best_log_score, abs=1e-10)

    def test_hard_pair_zeroes_paths(self):
        u = np.log(np.full((3, 2), 0.5))
        pair = np.array([[0.0, -np.inf], [0.0, 0.0]])  # forbid 0 -> 1
        query = ChainTeacherQuery(log_unary=[u], log_pair=pair)
        (marg,) = chain_marginals(query)
        # The surviving paths are 000, 100, 110 and 111.
        (ref,) = enumerate_chain_posterior(query)
        np.testing.assert_allclose(marg, ref.marginals, atol=1e-12)
        np.testing.assert_allclose(marg[0], [0.25, 0.75], atol=1e-12)

    def test_infeasible_chain_raises(self):
        u = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
        pair = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
        with pytest.raises(InfeasibleChainError):
            ChainTeacherQuery(log_unary=[u], log_pair=pair)
        # One infeasible chain sinks a batch of feasible ones, and is named.
        with pytest.raises(InfeasibleChainError, match="chain 1"):
            ChainTeacherQuery(log_unary=[np.zeros((2, 2)), u, np.zeros((1, 2))],
                              log_pair=pair)

    def test_per_step_pair_terms(self):
        rng = np.random.default_rng(2)
        t, k = 4, 3
        query = ChainTeacherQuery(
            log_unary=[norm_rows(rng, t, k)],
            log_pair=-rng.uniform(0, 1, size=(1, t - 1, k, k)),
        )
        (ref,) = enumerate_chain_posterior(query)
        (marg,) = chain_marginals(query)
        np.testing.assert_allclose(marg, ref.marginals, atol=1e-10)

    def test_map_tie_breaks_low_index(self):
        u = np.zeros((2, 2))
        (path,), _ = chain_map_decode(ChainTeacherQuery(log_unary=[u]))
        assert tuple(path) == (0, 0)

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError):
            ChainTeacherQuery(log_unary=[np.array([[0.0, np.nan]])])
        with pytest.raises(ValueError):
            ChainTeacherQuery(log_unary=[np.zeros((2, 2)), np.array([[0.0, np.inf]])])
        with pytest.raises(ValueError, match="log_pair"):
            ChainTeacherQuery(log_unary=[np.zeros((2, 2))],
                              log_pair=np.array([[0.0, np.inf], [0.0, 0.0]]))

    def test_rejects_bad_batches(self):
        with pytest.raises(ValueError, match="one per chain"):
            ChainTeacherQuery(log_unary=[])
        # A bare (T, K) array is a batch of 1-d rows, not of chains.
        with pytest.raises(ValueError, match="one per chain"):
            ChainTeacherQuery(log_unary=np.zeros((3, 2)))
        with pytest.raises(ValueError, match="one label space"):
            ChainTeacherQuery(log_unary=[np.zeros((2, 2)), np.zeros((2, 3))])
        with pytest.raises(ValueError, match="log_pair"):
            ChainTeacherQuery(log_unary=[np.zeros((3, 2))], log_pair=np.zeros((2, 2, 2)))

    def test_n_positions_counts_every_chain(self):
        query = ChainTeacherQuery(log_unary=[np.zeros((3, 2)), np.zeros((1, 2))])
        assert query.n_positions == 4
        assert query.log_unary.shape == (2, 3, 2)


# --- per-chain reference ------------------------------------------------------
#
# The one-chain-at-a-time forward-backward and max-product the batched chain
# regime replaced.  Each function takes one chain's (T, K) log-unaries, a
# (K, K) or (T - 1, K, K) pair table and (K,) boundary terms.


def ref_folded(lu, start, end):
    f = lu.copy()
    f[0] += start
    f[-1] += end
    return f


def ref_pair(pair, t):
    return pair if pair.ndim == 2 else pair[t]


def ref_logsumexp(a, axis):
    """logsumexp over ``axis`` in the dtype of ``a``."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m, axis=axis)


def ref_chain(lu, pair, start, end, dtype=np.float64):
    """(marginals, log_z) of one chain, computed in ``dtype`` and returned
    as floats; raises InfeasibleChainError."""
    f = ref_folded(lu.astype(dtype), start, end)
    pair = pair.astype(dtype)
    t_len = len(f)
    alpha = np.empty_like(f)
    alpha[0] = f[0]
    for t in range(1, t_len):
        alpha[t] = f[t] + ref_logsumexp(alpha[t - 1][:, None] + ref_pair(pair, t - 1), axis=0)
    log_z = ref_logsumexp(alpha[-1], axis=0)
    if log_z == -np.inf:
        raise InfeasibleChainError("no feasible path")
    beta = np.zeros_like(f)
    for t in range(t_len - 2, -1, -1):
        beta[t] = ref_logsumexp(ref_pair(pair, t) + (f[t + 1] + beta[t + 1])[None, :], axis=1)
    return np.exp(alpha + beta - log_z).astype(float), float(log_z)


def ref_map(lu, pair, start, end):
    """(path, score) of one chain; ties break toward the lower label."""
    f = ref_folded(lu, start, end)
    t_len, k = f.shape
    delta = np.empty_like(f)
    back = np.zeros((t_len, k), dtype=int)
    delta[0] = f[0]
    for t in range(1, t_len):
        scores = delta[t - 1][:, None] + ref_pair(pair, t - 1)
        back[t] = np.argmax(scores, axis=0)
        delta[t] = f[t] + np.max(scores, axis=0)
    path = np.empty(t_len, dtype=int)
    path[-1] = int(np.argmax(delta[-1]))
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, float(delta[-1, path[-1]])


# Values on a coarse grid make equal path scores, and so MAP ties, common;
# -inf entries forbid labels and bigrams.
grid_values = st.sampled_from([-np.inf, -1.0, -0.5, 0.0, 0.5])
log_values = st.one_of(grid_values, st.floats(-3.0, 3.0))


@st.composite
def chain_batches(draw, pair_values=log_values, unary_values=None):
    """(unaries, pair, start, end): 1-6 chains of 1-7 positions over K <= 5
    labels, with a shared (K, K) pair table or one per chain and step.
    ``unary_values``, when given, also draws the boundary terms."""
    k = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))

    wide = unary_values is not None

    def values(shape, elements=unary_values if wide else log_values):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    unaries = [values((t, k), unary_values if wide else st.floats(-3.0, 3.0) | grid_values)
               for t in lengths]
    if draw(st.booleans()):
        pair = values((k, k), pair_values)
    else:
        pair = values((len(lengths), max(lengths) - 1, k, k), pair_values)
    return unaries, pair, values((k,)), values((k,))


def reference_answers(unaries, pair, start, end, dtype=np.float64):
    """Per chain (marginals, log_z, path, score), or None if some chain
    has no feasible path; marginals and log_z are computed in ``dtype``."""
    out = []
    for i, lu in enumerate(unaries):
        p = pair if pair.ndim == 2 else pair[i, : len(lu) - 1]
        try:
            marg, log_z = ref_chain(lu, p, start, end, dtype)
        except InfeasibleChainError:
            return None
        out.append((marg, log_z, *ref_map(lu, p, start, end)))
    return out


class TestBatchedChain:
    @settings(max_examples=150, deadline=None)
    @given(chain_batches())
    def test_matches_per_chain_reference_and_enumeration(self, batch):
        unaries, pair, start, end = batch
        ref = reference_answers(*batch)
        if ref is None:
            with pytest.raises(InfeasibleChainError):
                ChainTeacherQuery(unaries, pair, start, end)
            return
        query = ChainTeacherQuery(unaries, pair, start, end)
        assert query.n_positions == sum(len(u) for u in unaries)
        margs = chain_marginals(query)
        paths, scores = chain_map_decode(query)
        enums = enumerate_chain_posterior(query)
        for i, (r_marg, r_log_z, r_path, r_score) in enumerate(ref):
            np.testing.assert_allclose(margs[i], r_marg, rtol=0, atol=1e-12)
            assert abs(chain_log_z(query)[i] - r_log_z) <= 1e-12
            np.testing.assert_array_equal(paths[i], r_path)
            assert scores[i] == r_score
            np.testing.assert_allclose(margs[i], enums[i].marginals, rtol=0, atol=1e-10)
            assert abs(chain_log_z(query)[i] - enums[i].log_z) <= 1e-10
            assert abs(scores[i] - enums[i].best_log_score) <= 1e-10

    @settings(max_examples=80, deadline=None)
    @given(chain_batches(pair_values=grid_values))
    def test_map_ties_break_as_the_per_chain_reference(self, batch):
        # On the grid every path score is exact and ties are common: the
        # batched decode must pick the reference's path among equal ones,
        # and that path's score is the enumerated maximum.
        unaries, pair, start, end = batch

        def on_grid(a):
            return np.where(np.isfinite(a), np.round(2 * a) / 2, a)

        batch = ([on_grid(u) for u in unaries], pair, on_grid(start), on_grid(end))
        ref = reference_answers(*batch)
        if ref is None:
            return
        query = ChainTeacherQuery(*batch)
        paths, scores = chain_map_decode(query)
        for path, score, (_, _, r_path, _), enum in zip(
                paths, scores, ref, enumerate_chain_posterior(query)):
            np.testing.assert_array_equal(path, r_path)
            assert score == enum.best_log_score

    @settings(max_examples=80, deadline=None)
    @given(chain_batches(), st.integers(0, 6), st.integers(1, 7))
    def test_one_infeasible_chain_anywhere_raises(self, batch, where, length):
        unaries, pair, start, end = batch
        k = unaries[0].shape[1]
        # The error names the first infeasible chain: the new one, unless
        # the drawn batch already had one.
        match = f"chain {min(where, len(unaries))}" if reference_answers(*batch) else None
        # Every label of one position is forbidden.
        dead = np.zeros((length, k))
        dead[int(length // 2)] = -np.inf
        where = min(where, len(unaries))
        unaries = unaries[:where] + [dead] + unaries[where:]
        if pair.ndim == 4:
            # Give the new chain its own all-zero pair tables.
            t_max = max(len(u) for u in unaries)
            grown = np.zeros((len(unaries), t_max - 1, k, k))
            for i, j in enumerate([i for i in range(len(unaries)) if i != where]):
                grown[j, : pair.shape[1]] = pair[i]
            pair = grown
        with pytest.raises(InfeasibleChainError, match=match):
            ChainTeacherQuery(unaries, pair, start, end)


# Entries spanning the whole exponent range of a float: the scaled passes
# underflow on some chains, which are then recomputed in log space.  Scores
# in the thousands cost a float64 log-space pass about 1e-12 of rounding in
# the marginals, so the reference runs in extended precision.
wide_values = st.just(-np.inf) | st.floats(-1000.0, 0.0)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the reference needs an extended-precision long double")
class TestWideRangeChain:
    def check(self, batch):
        ref = reference_answers(*batch, dtype=np.longdouble)
        if ref is None:
            with pytest.raises(InfeasibleChainError):
                ChainTeacherQuery(*batch)
            return None
        query = ChainTeacherQuery(*batch)
        for marg, log_z, (r_marg, r_log_z, _, _) in zip(chain_marginals(query),
                                                        chain_log_z(query), ref):
            np.testing.assert_allclose(marg, r_marg, rtol=0, atol=1e-12)
            assert abs(log_z - r_log_z) <= 1e-12 * max(1.0, abs(r_log_z))
        return query

    def test_underflowing_chain_recomputed_in_log_space(self):
        # exp(-800) underflows, so the scaled pass loses the only path's
        # first step; log space keeps it.
        u = np.array([[0.0, -800.0], [-np.inf, 0.0]])
        pair = np.array([[0.0, -np.inf], [-700.0, 0.0]])
        query = self.check(([u], pair, np.zeros(2), np.zeros(2)))
        assert chain_log_z(query)[0] == -800.0
        np.testing.assert_array_equal(chain_marginals(query)[0], [[0.0, 1.0], [0.0, 1.0]])
        # Next to a chain the scaled pass holds, in either order.
        for unaries in ([u, np.zeros((3, 2))], [np.zeros((3, 2)), u]):
            query = self.check((unaries, pair, np.zeros(2), np.zeros(2)))
            assert query.forward.rescued.tolist() == [np.array_equal(x, u) for x in unaries]

    def test_subnormal_start_that_takes_over_recomputed_in_log_space(self):
        # exp(-740) is subnormal, about 1% off; no step underflows to zero,
        # but label 0 then loses e^-300 a step, until the subnormal path
        # 1111 carries the chain's mass (0000 scores -900).
        u = np.array([[0.0, -740.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        pair = np.array([[-300.0, -np.inf], [-np.inf, 0.0]])
        query = self.check(([u], pair, np.zeros(2), np.zeros(2)))
        assert query.forward.rescued.tolist() == [True]
        assert chain_log_z(query)[0] == np.logaddexp(-900.0, -740.0)

    @settings(max_examples=300, deadline=None)
    @given(chain_batches(pair_values=wide_values, unary_values=wide_values))
    def test_matches_log_space_reference(self, batch):
        self.check(batch)


class TestGroups:
    def two_member_query(self, sweeps=400, seed=0):
        lu_a = np.log(np.array([[0.7, 0.3], [0.4, 0.6]]))
        lu_b = np.log(np.array([[0.5, 0.5]]))
        link = GroupLink(0, 1, 1, 0, np.array([[0.5, -0.5], [-0.5, 0.5]]))
        return GroupTeacherQuery(
            members=(MemberPotentials(lu_a), MemberPotentials(lu_b)),
            links=(link,),
            sweeps=sweeps,
            seed=seed,
        )

    def test_conditional_is_exact(self):
        query = self.two_member_query()
        states = [np.array([0, 1]), np.array([0])]
        cond = gibbs_conditional(query, states, member=0, pos=1)
        # Site (0,1) sees its unary and the link to (1,0)=0.
        logits = np.log([0.4, 0.6]) + np.array([0.5, -0.5])
        expect = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(cond, expect, atol=1e-12)
        assert cond.sum() == pytest.approx(1.0)

    def test_gibbs_approaches_enumeration(self):
        query = self.two_member_query(sweeps=4000)
        est = gibbs_soft_predict(query)
        ref = enumerate_group_posterior(query)
        for e, r in zip(est, ref.marginals):
            assert np.abs(e - r).max() < 0.03

    def test_gibbs_deterministic(self):
        a = gibbs_soft_predict(self.two_member_query(seed=3))
        b = gibbs_soft_predict(self.two_member_query(seed=3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_estimates_are_distributions(self):
        est = gibbs_soft_predict(self.two_member_query())
        for e in est:
            np.testing.assert_allclose(e.sum(axis=1), 1.0, atol=1e-9)

    def test_member_validation(self):
        with pytest.raises(ValueError):
            # Hard pair terms are not allowed in the Gibbs regime.
            MemberPotentials(
                np.zeros((2, 2)), np.array([[0.0, -np.inf], [0.0, 0.0]])
            )
        with pytest.raises(InfeasibleConstraintError):
            MemberPotentials(np.array([[-np.inf, -np.inf]]))

    def test_link_validation(self):
        with pytest.raises(ValueError):
            GroupLink(0, 0, 1, 0, np.array([[0.0, -np.inf], [0.0, 0.0]]))
        lk = GroupLink(0, 0, 5, 0, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            GroupTeacherQuery(members=(MemberPotentials(np.zeros((1, 2))),),
                              links=(lk,))


@st.composite
def small_groups(draw, k=None, lengths=None):
    """Groups of up to three members of one or two positions over two or
    three labels, with optional shared or per-step pair terms and up to
    three links between any sites (a site may link to itself).  ``k`` and
    ``lengths`` fix the label count and the members' lengths."""
    k = draw(st.integers(2, 3)) if k is None else k
    if lengths is None:
        lengths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))

    def values(shape):
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(-3.0, 3.0)))

    members = []
    for t in lengths:
        pair = None
        if t > 1:
            pair = draw(st.sampled_from([None, (k, k), (t - 1, k, k)]))
            pair = None if pair is None else values(pair)
        members.append(MemberPotentials(values((t, k)), pair))

    def site():
        m = draw(st.integers(0, len(members) - 1))
        return m, draw(st.integers(0, members[m].n_positions - 1))

    links = [GroupLink(*site(), *site(), values((k, k)))
             for _ in range(draw(st.integers(0, 3)))]
    return GroupTeacherQuery(members=tuple(members), links=tuple(links))


def group_arrays(query):
    """A group query as exact_group_marginals' arrays: the (n, K) unaries
    of its sites, member by member, and the (n, n, K, K) tables of its
    members' pair terms and its links, duplicates and self-links added up."""
    sites = [(m, t) for m, mem in enumerate(query.members) for t in range(mem.n_positions)]
    index = {s: i for i, s in enumerate(sites)}
    k = query.n_labels
    unary = np.stack([query.members[m].log_unary[t] for m, t in sites])
    pair = np.zeros((len(sites), len(sites), k, k))
    for m, mem in enumerate(query.members):
        if mem.log_pair is not None:
            for t in range(mem.n_positions - 1):
                pair[index[m, t], index[m, t + 1]] += mem.pair_term(t)
    for ln in query.links:
        pair[index[ln.member_a, ln.pos_a], index[ln.member_b, ln.pos_b]] += ln.log_table
    return unary, pair


@st.composite
def group_stacks(draw):
    """1-4 groups of one shape: ``small_groups`` with the member lengths
    and label count fixed across the stack, each with its own values,
    pair terms and links."""
    k = draw(st.integers(2, 3))
    lengths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    return [draw(small_groups(k=k, lengths=lengths)) for _ in range(draw(st.integers(1, 4)))]


class TestExactGroup:
    @settings(max_examples=80, deadline=None)
    @given(group_stacks())
    def test_matches_enumeration(self, queries):
        unary, pair = map(np.stack, zip(*map(group_arrays, queries)))
        exact = exact_group_marginals(unary, pair)
        assert exact.shape == unary.shape
        for query, marg in zip(queries, exact):
            ref = np.concatenate(enumerate_group_posterior(query).marginals)
            np.testing.assert_allclose(marg, ref, rtol=0, atol=1e-12)

    def test_state_bound(self):
        k = 4
        n = int(round(np.log(EXACT_MAX_STATES) / np.log(k)))
        assert k**n == EXACT_MAX_STATES
        marg = exact_group_marginals(np.zeros((1, n, k)), np.zeros((1, n, n, k, k)))
        np.testing.assert_allclose(marg, 1.0 / k, atol=1e-15)
        with pytest.raises(ValueError, match="EXACT_MAX_STATES"):
            exact_group_marginals(np.zeros((1, n + 1, k)), np.zeros((1, n + 1, n + 1, k, k)))
        with pytest.raises(ValueError, match="log_pair must have shape"):
            exact_group_marginals(np.zeros((2, 2, k)), np.zeros((1, 2, 2, k, k)))


class TestFormGroups:
    def test_connected_components(self):
        groups = form_groups(5, [(0, 1), (3, 4)], g_max=8)
        assert [g.sites for g in groups] == [(0, 1), (2,), (3, 4)]

    def test_links_reindexed(self):
        groups = form_groups(3, [(1, 2)], g_max=8)
        linked = [g for g in groups if g.links]
        assert len(linked) == 1
        (g,) = linked
        assert g.sites == (1, 2)
        assert g.links == ((0, 1),)

    def test_oversized_components_shrunk(self):
        # A 4-chain with g_max=2 must lose links until pieces fit.
        groups = form_groups(4, [(0, 1), (1, 2), (2, 3)], g_max=2, seed=0)
        assert all(len(g.sites) <= 2 for g in groups)
        covered = sorted(i for g in groups for i in g.sites)
        assert covered == [0, 1, 2, 3]
        assert sum(len(g.links) for g in groups) < 3

    def test_deterministic_given_seed(self):
        links = [(i, i + 1) for i in range(7)]
        a = form_groups(8, links, g_max=3, seed=1)
        b = form_groups(8, links, g_max=3, seed=1)
        assert a == b
