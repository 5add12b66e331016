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
from ruledistill.numerics import logsumexp
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


def ref_chain(lu, pair, start, end):
    """(marginals, log_z) of one chain; raises InfeasibleChainError."""
    f = ref_folded(lu, start, end)
    t_len = len(f)
    alpha = np.empty_like(f)
    alpha[0] = f[0]
    for t in range(1, t_len):
        alpha[t] = f[t] + logsumexp(alpha[t - 1][:, None] + ref_pair(pair, t - 1), axis=0)
    log_z = logsumexp(alpha[-1])
    if log_z == -np.inf:
        raise InfeasibleChainError("no feasible path")
    beta = np.zeros_like(f)
    for t in range(t_len - 2, -1, -1):
        beta[t] = logsumexp(ref_pair(pair, t) + (f[t + 1] + beta[t + 1])[None, :], axis=1)
    return np.exp(alpha + beta - log_z), log_z


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
def chain_batches(draw, pair_values=log_values):
    """(unaries, pair, start, end): 1-6 chains of 1-7 positions over K <= 5
    labels, with a shared (K, K) pair table or one per chain and step."""
    k = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))

    def values(shape, elements=log_values):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    unaries = [values((t, k), st.floats(-3.0, 3.0) | grid_values) for t in lengths]
    if draw(st.booleans()):
        pair = values((k, k), pair_values)
    else:
        pair = values((len(lengths), max(lengths) - 1, k, k), pair_values)
    return unaries, pair, values((k,)), values((k,))


def reference_answers(unaries, pair, start, end):
    """Per chain (marginals, log_z, path, score), or None if some chain
    has no feasible path."""
    out = []
    for i, lu in enumerate(unaries):
        p = pair if pair.ndim == 2 else pair[i, : len(lu) - 1]
        try:
            marg, log_z = ref_chain(lu, p, start, end)
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
def small_groups(draw):
    """Groups of up to three members of one or two positions over two or
    three labels, with optional shared or per-step pair terms and up to
    three links between any sites (a site may link to itself)."""
    k = draw(st.integers(2, 3))

    def values(shape):
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(-3.0, 3.0)))

    members = []
    for _ in range(draw(st.integers(1, 3))):
        t = draw(st.integers(1, 2))
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


class TestExactGroup:
    @settings(max_examples=80, deadline=None)
    @given(small_groups())
    def test_matches_enumeration(self, query):
        ref = enumerate_group_posterior(query)
        exact = exact_group_marginals(query)
        assert len(exact) == len(ref.marginals)
        for e, r in zip(exact, ref.marginals):
            assert e.shape == r.shape
            np.testing.assert_allclose(e, r, rtol=0, atol=1e-12)

    def test_state_bound(self):
        k = 4
        n = int(round(np.log(EXACT_MAX_STATES) / np.log(k)))
        assert k**n == EXACT_MAX_STATES
        members = tuple(MemberPotentials(np.zeros((1, k))) for _ in range(n))
        marg = exact_group_marginals(GroupTeacherQuery(members=members))
        np.testing.assert_allclose(np.concatenate(marg), 1.0 / k, atol=1e-15)
        with pytest.raises(ValueError, match="EXACT_MAX_STATES"):
            exact_group_marginals(GroupTeacherQuery(members=members * 2))


class TestFormGroups:
    def members(self, n, k=2):
        return [MemberPotentials(np.zeros((2, k))) for _ in range(n)]

    def link(self, a, b, k=2):
        return GroupLink(a, 0, b, 0, np.zeros((k, k)))

    def test_connected_components(self):
        groups = form_groups(
            self.members(5), [self.link(0, 1), self.link(3, 4)], g_max=8
        )
        ids = sorted(tuple(g.member_ids) for g in groups)
        assert ids == [(0, 1), (2,), (3, 4)]

    def test_links_reindexed(self):
        groups = form_groups(self.members(3), [self.link(1, 2)], g_max=8)
        linked = [g for g in groups if g.links]
        assert len(linked) == 1
        (g,) = linked
        assert g.member_ids == (1, 2)
        (ln,) = g.links
        assert (ln.member_a, ln.member_b) == (0, 1)

    def test_oversized_components_shrunk(self):
        # A 4-chain with g_max=2 must lose links until pieces fit.
        links = [self.link(0, 1), self.link(1, 2), self.link(2, 3)]
        groups = form_groups(self.members(4), links, g_max=2, seed=0)
        assert all(len(g.members) <= 2 for g in groups)
        covered = sorted(i for g in groups for i in g.member_ids)
        assert covered == [0, 1, 2, 3]

    def test_deterministic_given_seed(self):
        links = [self.link(i, i + 1) for i in range(7)]
        a = form_groups(self.members(8), links, g_max=3, seed=1)
        b = form_groups(self.members(8), links, g_max=3, seed=1)
        assert [g.member_ids for g in a] == [g.member_ids for g in b]
