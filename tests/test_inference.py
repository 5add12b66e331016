"""Chain forward-backward, MAP decoding, and Gibbs group inference."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import flat, split_rows

from ruledistill import inference
from ruledistill.inference import (
    EXACT_MAX_STATES,
    ChainTeacherQuery,
    GroupLink,
    GroupTeacherQuery,
    InfeasibleChainError,
    MemberPotentials,
    chain_map_decode,
    chain_marginals,
    enumerate_chain_posterior,
    enumerate_group_posterior,
    exact_group_marginals,
    form_groups,
    gibbs_soft_predict,
)
from ruledistill import trainer
from ruledistill.corpus import gen_synthetic_ner
from ruledistill.predictors import SequenceTagger, Vocabulary
from ruledistill.projection import InfeasibleConstraintError
from ruledistill.rulelib import CategoryCollapse, TagScheme, list_counterpart_rule, transition_rules
from ruledistill.trainer import NerTeacher, TrainConfig, evaluate, train_distill


def norm_rows(rng, t, k):
    logits = rng.normal(size=(t, k))
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


class TestChain:
    def test_no_pair_terms_factorizes(self):
        rng = np.random.default_rng(0)
        lu = norm_rows(rng, 4, 3)
        marg = chain_marginals(ChainTeacherQuery(lu, [4]))
        np.testing.assert_allclose(marg, np.exp(lu), atol=1e-12)

    def test_two_position_hand_computed(self):
        # Joint weight w(a,b) = exp(u0[a] + u1[b] + P[a,b]); marginalize by
        # hand over the 2x2 table.
        u = np.log(np.array([[0.6, 0.4], [0.3, 0.7]]))
        pair = np.array([[0.0, -1.0], [-1.0, 0.0]])
        w = np.exp(u[0][:, None] + u[1][None, :] + pair)
        joint = w / w.sum()
        query = ChainTeacherQuery(u, [2], log_pair=pair)
        marg = chain_marginals(query)
        np.testing.assert_allclose(marg[0], joint.sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(marg[1], joint.sum(axis=0), atol=1e-12)
        assert query.log_z[0] == pytest.approx(np.log(w.sum()))

    def test_marginals_reuse_the_construction_forward_pass(self, monkeypatch):
        calls = []
        original = inference._forward
        monkeypatch.setattr(inference, "_forward",
                            lambda query: calls.append(1) or original(query))
        rng = np.random.default_rng(2)
        query = ChainTeacherQuery(*flat([norm_rows(rng, 5, 3), norm_rows(rng, 2, 3)]),
                                  log_pair=-rng.uniform(0, 2, size=(3, 3)))
        chain_marginals(query)
        assert len(calls) == 1

    def test_against_own_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            t, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            query = ChainTeacherQuery(
                norm_rows(rng, t, k), [t],
                log_pair=-rng.uniform(0, 2, size=(k, k)),
                log_start=-rng.uniform(0, 1, size=k),
                log_end=-rng.uniform(0, 1, size=k),
            )
            (ref,) = enumerate_chain_posterior(query)
            marg = chain_marginals(query)
            np.testing.assert_allclose(marg, ref.marginals, atol=1e-10)
            assert query.log_z[0] == pytest.approx(ref.log_z, abs=1e-10)
            path, (score,) = chain_map_decode(query)
            assert tuple(path) == ref.best_path
            assert score == pytest.approx(ref.best_log_score, abs=1e-10)

    def test_hard_pair_zeroes_paths(self):
        u = np.log(np.full((3, 2), 0.5))
        pair = np.array([[0.0, -np.inf], [0.0, 0.0]])  # forbid 0 -> 1
        query = ChainTeacherQuery(u, [3], log_pair=pair)
        marg = chain_marginals(query)
        # The surviving paths are 000, 100, 110 and 111.
        (ref,) = enumerate_chain_posterior(query)
        np.testing.assert_allclose(marg, ref.marginals, atol=1e-12)
        np.testing.assert_allclose(marg[0], [0.25, 0.75], atol=1e-12)

    def test_infeasible_chain_raises(self):
        u = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
        pair = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
        with pytest.raises(InfeasibleChainError):
            ChainTeacherQuery(u, [2], log_pair=pair)
        # One infeasible chain sinks a batch of feasible ones, and is named.
        with pytest.raises(InfeasibleChainError, match="chain 1"):
            ChainTeacherQuery(*flat([np.zeros((2, 2)), u, np.zeros((1, 2))]), log_pair=pair)

    def test_long_chain_with_a_forbidden_label_is_feasible(self):
        # 13^300 paths: a count of reachable paths would overflow.
        u = np.zeros((300, 13))
        u[-1, 0] = -np.inf
        assert ChainTeacherQuery(u, [300]).lengths.tolist() == [300]

    def test_finite_terms_that_overflow_build_with_log_z_minus_inf(self):
        # Every term is finite, so the chain is feasible, but each allowed
        # path's score adds up below the float range.
        u = np.full((2, 2), -1e308)
        pair = np.array([[-np.inf, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore"):
            query = ChainTeacherQuery(u, [2], log_pair=pair)
            assert query.log_z.tolist() == [-np.inf]
            path, score = chain_map_decode(query)
            marg = chain_marginals(query)
        # Every score ties at -inf: the last label is the lowest, and the
        # step before it the argmax of the finite -1e308 terms into label
        # 0, which the pair table allows only from label 1.
        assert path.tolist() == [1, 0] and score.tolist() == [-np.inf]
        # The marginals weigh the allowed paths 01, 10 and 11 equally.
        np.testing.assert_allclose(marg, [[1 / 3, 2 / 3], [1 / 3, 2 / 3]], atol=1e-12)

    def test_map_tie_breaks_low_index(self):
        u = np.zeros((2, 2))
        path, _ = chain_map_decode(ChainTeacherQuery(u, [2]))
        assert tuple(path) == (0, 0)

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError):
            ChainTeacherQuery(np.array([[0.0, np.nan]]), [1])
        with pytest.raises(ValueError):
            ChainTeacherQuery(*flat([np.zeros((2, 2)), np.array([[0.0, np.inf]])]))
        with pytest.raises(ValueError, match="log_pair"):
            ChainTeacherQuery(np.zeros((2, 2)), [2],
                              log_pair=np.array([[0.0, np.inf], [0.0, 0.0]]))

    def test_rejects_bad_batches(self):
        # No chain, a chain of no position, or lengths that are not 1-d.
        for lengths in ([], [3, 0], [[3]]):
            with pytest.raises(ValueError, match="positive chain lengths"):
                ChainTeacherQuery(np.zeros((3, 2)), lengths)
        # Lengths that do not add up to the rows.
        for lengths in ([2], [2, 2]):
            with pytest.raises(ValueError, match="add up to"):
                ChainTeacherQuery(np.zeros((3, 2)), lengths)
        # Rows are (P, K): not 1-d labels, nor per-chain blocks, nor no label.
        for rows in (np.zeros(3), np.zeros((1, 3, 2)), np.zeros((3, 0))):
            with pytest.raises(ValueError, match=r"\(P, K\)"):
                ChainTeacherQuery(rows, [3])
        # One table serves every chain and step: per-step tables are rejected.
        for shape in ((2, 2, 2), (1, 2, 2, 2)):
            with pytest.raises(ValueError, match=r"log_pair must have shape \(2, 2\)"):
                ChainTeacherQuery(np.zeros((3, 2)), [3], log_pair=np.zeros(shape))

    def test_rejects_lengths_that_are_not_integers(self):
        # Truncating 2.7 to 2, or reading True as 1, would accept these.
        for lengths in ([2.7], [True], [1.5, 0.5], np.array([np.nan])):
            with pytest.raises(ValueError, match="lengths must be integers"):
                ChainTeacherQuery(np.zeros((2, 2)), lengths)
        assert ChainTeacherQuery(np.zeros((2, 2)), [2.0]).lengths.tolist() == [2]

    def test_decoding_runs_no_scaled_pass(self, monkeypatch):
        calls = []
        original = inference._forward
        monkeypatch.setattr(inference, "_forward",
                            lambda query: calls.append(1) or original(query))
        rng = np.random.default_rng(4)
        pair = np.where(rng.random((3, 3)) < 0.3, -np.inf, -rng.uniform(0, 2, size=(3, 3)))
        np.fill_diagonal(pair, 0.0)
        query = ChainTeacherQuery(*flat([norm_rows(rng, 6, 3), norm_rows(rng, 1, 3)]),
                                  log_pair=pair)
        chain_map_decode(query)
        assert not calls
        # The first reader of the pass pays for it, once.
        log_z = query.log_z
        chain_marginals(query)
        assert len(calls) == 1 and query.log_z is log_z
        query = ChainTeacherQuery(*flat([norm_rows(rng, 3, 3)]), log_pair=pair)
        chain_marginals(query)
        assert np.isfinite(query.log_z).all() and len(calls) == 2

    def test_tagging_teacher_runs_the_scaled_pass_only_for_marginals(self, monkeypatch):
        # Evaluation decodes without it; each training batch's soft_predict
        # runs it once.
        calls = []
        original = inference._forward
        monkeypatch.setattr(inference, "_forward",
                            lambda query: calls.append(1) or original(query))
        records = gen_synthetic_ner(seed=13, n_docs=6)
        scheme = TagScheme(("LOC", "ORG", "PER"))
        rules = tuple(transition_rules(scheme)) + (
            list_counterpart_rule(CategoryCollapse(scheme), confidence=1.0),)
        vocab = Vocabulary.build([s.tokens for s in records])
        model = SequenceTagger(len(vocab), scheme.n_tags, emb_dim=4, hidden=5, radius=1, seed=1)
        teacher = NerTeacher(model, vocab, scheme, rules, 6.0, g_max=2, seed=3)
        evaluate(teacher, trainer.prepare(records, vocab, scheme))
        assert not calls
        batches = []
        original_soft_predict = NerTeacher.soft_predict
        monkeypatch.setattr(NerTeacher, "soft_predict", lambda *a: batches.append(1)
                            or original_soft_predict(*a))
        config = TrainConfig(task="ner", mode="distill", epochs=2, batch_size=8, emb_dim=4,
                             hidden=5, train_sweeps=20, eval_sweeps=50, seed=0)
        train_distill(config, records, rules=rules)
        assert batches and len(calls) == len(batches)

    def test_n_positions_counts_every_chain(self):
        query = ChainTeacherQuery(*flat([np.zeros((3, 2)), np.zeros((1, 2))]))
        assert query.n_positions == 4
        assert query.log_unary.shape == (4, 2)
        assert query.lengths.tolist() == [3, 1]


# --- per-chain reference ------------------------------------------------------
#
# The one-chain-at-a-time forward-backward and max-product the batched chain
# regime replaced.  Each function takes one chain's (T, K) log-unaries, a
# (K, K) pair table and (K,) boundary terms.


def ref_folded(lu, start, end):
    f = lu.copy()
    f[0] += start
    f[-1] += end
    return f


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
        alpha[t] = f[t] + ref_logsumexp(alpha[t - 1][:, None] + pair, axis=0)
    log_z = ref_logsumexp(alpha[-1], axis=0)
    if log_z == -np.inf:
        raise InfeasibleChainError("no feasible path")
    beta = np.zeros_like(f)
    for t in range(t_len - 2, -1, -1):
        beta[t] = ref_logsumexp(pair + (f[t + 1] + beta[t + 1])[None, :], axis=1)
    return np.exp(alpha + beta - log_z).astype(float), float(log_z)


def ref_map(lu, pair, start, end):
    """(path, score) of one chain; ties break toward the lower label."""
    f = ref_folded(lu, start, end)
    t_len, k = f.shape
    delta = np.empty_like(f)
    back = np.zeros((t_len, k), dtype=int)
    delta[0] = f[0]
    for t in range(1, t_len):
        scores = delta[t - 1][:, None] + pair
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
    labels, with one (K, K) pair table.
    ``unary_values``, when given, also draws the boundary terms."""
    k = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))

    wide = unary_values is not None

    def values(shape, elements=unary_values if wide else log_values):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    unaries = [values((t, k), unary_values if wide else st.floats(-3.0, 3.0) | grid_values)
               for t in lengths]
    return unaries, values((k, k), pair_values), values((k,)), values((k,))


def reference_answers(unaries, pair, start, end, dtype=np.float64):
    """Per chain (marginals, log_z, path, score), or None if some chain
    has no feasible path; marginals and log_z are computed in ``dtype``."""
    out = []
    for lu in unaries:
        try:
            marg, log_z = ref_chain(lu, pair, start, end, dtype)
        except InfeasibleChainError:
            return None
        out.append((marg, log_z, *ref_map(lu, pair, start, end)))
    return out


class TestBatchedChain:
    @settings(max_examples=150, deadline=None)
    @given(chain_batches())
    def test_matches_per_chain_reference_and_enumeration(self, batch):
        unaries, pair, start, end = batch
        ref = reference_answers(*batch)
        if ref is None:
            with pytest.raises(InfeasibleChainError):
                ChainTeacherQuery(*flat(unaries), pair, start, end)
            return
        query = ChainTeacherQuery(*flat(unaries), pair, start, end)
        assert query.n_positions == sum(len(u) for u in unaries)
        margs = split_rows(chain_marginals(query), query.lengths)
        paths, scores = chain_map_decode(query)
        paths = split_rows(paths, query.lengths)
        enums = enumerate_chain_posterior(query)
        for i, (r_marg, r_log_z, r_path, r_score) in enumerate(ref):
            np.testing.assert_allclose(margs[i], r_marg, rtol=0, atol=1e-12)
            assert abs(query.log_z[i] - r_log_z) <= 1e-12
            np.testing.assert_array_equal(paths[i], r_path)
            assert scores[i] == r_score
            np.testing.assert_allclose(margs[i], enums[i].marginals, rtol=0, atol=1e-10)
            assert abs(query.log_z[i] - enums[i].log_z) <= 1e-10
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
        unaries, *terms = batch
        query = ChainTeacherQuery(*flat(unaries), *terms)
        paths, scores = chain_map_decode(query)
        paths = split_rows(paths, query.lengths)
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
        with pytest.raises(InfeasibleChainError, match=match):
            ChainTeacherQuery(*flat(unaries), pair, start, end)


# Hard tables: every entry either forbids its labels or leaves them free.
hard_values = st.sampled_from([-np.inf, 0.0])


class TestFeasibility:
    """Construction's reachability check against the enumeration oracle,
    which calls a chain feasible when its best path scores above -inf."""

    def check(self, unaries, pair, start, end):
        # Hard boundary terms as well as a hard pair table.
        start, end = (np.where(a > -np.inf, 0.0, a) for a in (start, end))
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            # The oracle's query skips the check under test.
            mp.setattr(inference, "_feasible", lambda query: np.ones(len(query.lengths), bool))
            enums = enumerate_chain_posterior(
                ChainTeacherQuery(*flat(unaries), pair, start, end))
        infeasible = [i for i, e in enumerate(enums) if e.best_log_score == -np.inf]
        if not infeasible:
            ChainTeacherQuery(*flat(unaries), pair, start, end)
            return
        with pytest.raises(InfeasibleChainError,
                           match=f"every label path of chain {infeasible[0]}$"):
            ChainTeacherQuery(*flat(unaries), pair, start, end)

    @settings(max_examples=150, deadline=None)
    @given(chain_batches(pair_values=hard_values))
    def test_finite_unaries(self, batch):
        unaries, pair, start, end = batch
        self.check([np.where(np.isfinite(u), u, -1.0) for u in unaries], pair, start, end)

    @settings(max_examples=150, deadline=None)
    @given(chain_batches(pair_values=hard_values), st.data())
    def test_forbidden_unaries(self, batch, data):
        unaries, pair, start, end = batch
        # At least one forbidden unary entry, anywhere in the batch.
        i = data.draw(st.integers(0, len(unaries) - 1))
        t = data.draw(st.integers(0, len(unaries[i]) - 1))
        unaries[i][t, data.draw(st.integers(0, unaries[i].shape[1] - 1))] = -np.inf
        self.check(unaries, pair, start, end)


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
        unaries, *terms = batch
        if ref is None:
            with pytest.raises(InfeasibleChainError):
                ChainTeacherQuery(*flat(unaries), *terms)
            return None
        query = ChainTeacherQuery(*flat(unaries), *terms)
        margs = split_rows(chain_marginals(query), query.lengths)
        for marg, log_z, (r_marg, r_log_z, _, _) in zip(margs, query.log_z, ref):
            np.testing.assert_allclose(marg, r_marg, rtol=0, atol=1e-12)
            assert abs(log_z - r_log_z) <= 1e-12 * max(1.0, abs(r_log_z))
        return query

    def test_underflowing_chain_recomputed_in_log_space(self):
        # exp(-800) underflows, so the scaled pass loses the only path's
        # first step; log space keeps it.
        u = np.array([[0.0, -800.0], [-np.inf, 0.0]])
        pair = np.array([[0.0, -np.inf], [-700.0, 0.0]])
        query = self.check(([u], pair, np.zeros(2), np.zeros(2)))
        assert query.log_z[0] == -800.0
        np.testing.assert_array_equal(chain_marginals(query), [[0.0, 1.0], [0.0, 1.0]])
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
        assert query.log_z[0] == np.logaddexp(-900.0, -740.0)

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
        logits = inference._site_logits(query, states, member=0, pos=1)
        cond = np.exp(logits - np.log(np.exp(logits).sum()))
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
    three labels, with an optional (K, K) pair table each and up to
    three links between any sites (a site may link to itself).  ``k`` and
    ``lengths`` fix the label count and the members' lengths."""
    k = draw(st.integers(2, 3)) if k is None else k
    if lengths is None:
        lengths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))

    def values(shape):
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(-3.0, 3.0)))

    members = []
    for t in lengths:
        pair = values((k, k)) if t > 1 and draw(st.booleans()) else None
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
                pair[index[m, t], index[m, t + 1]] += mem.log_pair
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
