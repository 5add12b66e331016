"""Batched student forward, backward and loss against a per-sentence
reference, the batched tagging teacher and its set pass against itself
one document at a time and its stage 1 against a per-document object
reference, the sentiment teacher against a projection per row, and the
training loop's one student forward per step.

The reference below is the one-sentence-at-a-time implementation of both
models: it zero-pads the sentence to the widest window (classifier) or by
the radius on both sides (tagger), and loops over windows.  The batched models must match it within 1e-12 for every
sentence of every batch, whatever else shares the batch.  The loss
reference is a per-sentence mixed target, validated on construction, with
its own cross-entropies and gradient.  The sentiment teacher's one
projection per batch must equal a 1-d projection per row bit for bit.
The stage-1 reference builds one document's groups as objects and
enumerates each in its own dense tensor.
The chain regime's per-chain reference lives in test_inference.py.
"""

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    batch_of,
    batch_of_lengths,
    flat,
    indexed_links,
    ref_micro_span_prf,
    ref_spans,
    ref_valid_sequence,
    sentences_of,
    split_rows,
)

from ruledistill import predictors, trainer
from ruledistill.corpus import (
    LabeledSentence,
    TaggedSentence,
    gen_synthetic_ner,
    gen_synthetic_sentiment,
    group_documents,
)
from ruledistill.predictors import (
    SequenceTagger,
    TextClassifier,
    TokenBatch,
    Vocabulary,
    backward_and_step,
)
from ruledistill.inference import (
    EXACT_MAX_STATES,
    ChainTeacherQuery,
    GroupLink,
    GroupTeacherQuery,
    InfeasibleChainError,
    MemberPotentials,
    chain_map_decode,
    gibbs_soft_predict,
)
from ruledistill.projection import InfeasibleConstraintError, ProjectionProblem, project
from ruledistill.rulelib import (
    CategoryCollapse,
    TagScheme,
    but_rule,
    counterpart_truth_table,
    list_counterpart_rule,
    transition_rules,
)
from ruledistill.trainer import NerTeacher, SentimentTeacher, TrainConfig, evaluate, train_distill

TOL = 1e-12
VOCAB = 9


# --- per-sentence reference --------------------------------------------------


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_forward(model, ids):
    """(probs, cache) of one sentence."""
    ids = np.asarray(ids, dtype=int)
    p = model.params
    t0 = len(ids)
    if isinstance(model, TextClassifier):
        t_pad = max(t0, max(model.window_sizes))
        x = np.zeros((t_pad, model.emb_dim))
        x[:t0] = p["emb"][ids]
        segments, pooled = [], []
        for w in model.window_sizes:
            m = np.stack([x[i : i + w].ravel() for i in range(t_pad - w + 1)])
            a = np.tanh(m @ p[f"conv{w}_w"] + p[f"conv{w}_b"])
            arg = np.argmax(a, axis=0)
            segments.append((w, m, a, arg))
            pooled.append(a[arg, np.arange(model.n_filters)])
        feat = np.concatenate(pooled)
        return _softmax(feat @ p["out_w"] + p["out_b"]), (ids, t_pad, segments, feat)
    r = model.radius
    win = 2 * r + 1
    xpad = np.zeros((t0 + 2 * r, model.emb_dim))
    xpad[r : r + t0] = p["emb"][ids]
    m = np.stack([xpad[i : i + win].ravel() for i in range(t0)])
    h = np.tanh(m @ p["hidden_w"] + p["hidden_b"])
    return _softmax(h @ p["out_w"] + p["out_b"]), (ids, m, h)


def ref_backward(model, cache, dlogits):
    """Parameter gradients of one sentence."""
    p = model.params
    g = {k: np.zeros_like(v) for k, v in p.items()}
    if isinstance(model, TextClassifier):
        ids, t_pad, segments, feat = cache
        g["out_w"] += np.outer(feat, dlogits)
        g["out_b"] += dlogits
        dfeat = p["out_w"] @ dlogits
        dx = np.zeros((t_pad, model.emb_dim))
        for s, (w, m, a, arg) in enumerate(segments):
            da = np.zeros_like(a)
            da[arg, np.arange(model.n_filters)] = dfeat[s * model.n_filters : (s + 1) * model.n_filters]
            dz = da * (1.0 - a * a)
            g[f"conv{w}_w"] += m.T @ dz
            g[f"conv{w}_b"] += dz.sum(axis=0)
            dm = dz @ p[f"conv{w}_w"].T
            for i in range(m.shape[0]):
                dx[i : i + w] += dm[i].reshape(w, model.emb_dim)
        np.add.at(g["emb"], ids, dx[: len(ids)])
        return g
    ids, m, h = cache
    t, r = len(ids), model.radius
    win = 2 * r + 1
    g["out_w"] += h.T @ dlogits
    g["out_b"] += dlogits.sum(axis=0)
    dz = (dlogits @ p["out_w"].T) * (1.0 - h * h)
    g["hidden_w"] += m.T @ dz
    g["hidden_b"] += dz.sum(axis=0)
    dm = dz @ p["hidden_w"].T
    dxpad = np.zeros((t + 2 * r, model.emb_dim))
    for i in range(t):
        dxpad[i : i + win] += dm[i].reshape(win, model.emb_dim)
    np.add.at(g["emb"], ids, dxpad[r : r + t])
    return g


@dataclass(frozen=True, eq=False)
class MixedTarget:
    """One sentence's hard target plus an optional soft target with weight
    pi; shapes (K,) or (T, K), hard and soft alike.  pi > 0 requires a
    soft target."""

    hard: np.ndarray
    soft: Optional[np.ndarray] = None
    pi: float = 0.0

    def __post_init__(self):
        hard = np.asarray(self.hard, dtype=float)
        if hard.ndim not in (1, 2):
            raise ValueError("targets must be (K,) or (T, K)")
        _check_simplex(hard, "hard")
        object.__setattr__(self, "hard", hard)
        if not 0.0 <= self.pi <= 1.0:
            raise ValueError(f"pi must lie in [0, 1], got {self.pi}")
        if self.soft is None:
            if self.pi > 0.0:
                raise ValueError("pi > 0 requires a soft target")
        else:
            soft = np.asarray(self.soft, dtype=float)
            if soft.shape != hard.shape:
                raise ValueError("hard and soft target shapes must match")
            _check_simplex(soft, "soft")
            object.__setattr__(self, "soft", soft)

    def combined(self) -> np.ndarray:
        if self.soft is None:
            return self.hard
        return (1.0 - self.pi) * self.hard + self.pi * self.soft


def _check_simplex(arr, name):
    if (arr < 0).any() or np.isnan(arr).any():
        raise ValueError(f"{name} target entries must be nonnegative")
    if np.max(np.abs(arr.sum(axis=-1) - 1.0)) > 1e-6:
        raise ValueError(f"{name} target rows must sum to 1")


def _cross_entropy(target, pred):
    return float(-np.sum(target * np.log(np.maximum(pred, 1e-12))))


def mixed_loss(pred, target: MixedTarget) -> float:
    """(1 - pi) * CE(hard, pred) + pi * CE(soft, pred) of one sentence."""
    assert pred.shape == target.hard.shape
    loss = (1.0 - target.pi) * _cross_entropy(target.hard, pred)
    if target.soft is not None and target.pi > 0.0:
        loss += target.pi * _cross_entropy(target.soft, pred)
    return loss


def mixed_target_gradient(pred, target: MixedTarget) -> np.ndarray:
    return pred - target.combined()


class OneByOne:
    """A model wrapper that forwards one sentence at a time through the
    reference."""

    def __init__(self, model):
        self.model = model

    def forward(self, batch):
        return np.vstack([ref_forward(self.model, ids)[0] for ids in sentences_of(batch)])


def ref_encode(vocab, tokens):
    """One sentence's ids by a lookup per token: the reserved strings and
    tokens outside the vocabulary are unknown."""
    index = {tok: i for i, tok in enumerate(vocab.tokens) if i > 1}
    return np.array([index.get(tok, 1) for tok in tokens], dtype=int)


# --- strategies --------------------------------------------------------------

# A sentence of one or more ids, id 0 among them.
sentences = st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=25).map(np.array)

# Up to 40 sentences: the tagger's positions span several row blocks, and
# a block boundary can fall inside a sentence.
batches = st.lists(sentences, min_size=1, max_size=40)

# Distinct widths in any order: the features follow ``window_sizes``.
classifiers = st.builds(
    lambda widths, n_classes, seed: TextClassifier(
        VOCAB, n_classes, emb_dim=3, window_sizes=tuple(widths), n_filters=4, seed=seed
    ),
    st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
    st.integers(2, 3),
    st.integers(0, 2**16),
)

taggers = st.builds(
    lambda radius, seed: SequenceTagger(VOCAB, 4, emb_dim=3, hidden=5, radius=radius, seed=seed),
    st.integers(0, 3),
    st.integers(0, 2**16),
)


def per_sentence(model, batch, rows):
    """A batch's output rows cut per sentence: one row each for the
    classifier, one per position for the tagger."""
    return split_rows(rows, batch.lengths if isinstance(model, SequenceTagger)
                      else np.ones(len(batch), dtype=int))


def check_batch(model, batch, seed):
    """Batched outputs, the per-sentence reference rows concatenated in
    ``batch.ids`` order, and gradients equal the reference's."""
    probs, cache = model._forward_cache(batch_of(batch))
    refs = [ref_forward(model, ids) for ids in batch]
    expect = np.vstack([ref_out for ref_out, _ in refs])
    assert probs.shape == expect.shape
    np.testing.assert_allclose(probs, expect, rtol=0, atol=TOL)
    rng = np.random.default_rng(seed)
    dlogits, expected = [], {k: np.zeros_like(v) for k, v in model.params.items()}
    for ref_out, ref_cache in refs:
        d = rng.normal(size=ref_out.shape)
        dlogits.append(d)
        for k, g in ref_backward(model, ref_cache, d).items():
            expected[k] += g
    grads = model.backward(cache, np.vstack(dlogits))
    assert list(grads) == list(model.params)
    for k, g in grads.items():
        np.testing.assert_allclose(g, expected[k], rtol=0, atol=TOL, err_msg=k)


class TestBatchedMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(classifiers, batches, st.integers(0, 2**16))
    def test_classifier(self, model, batch, seed):
        check_batch(model, batch, seed)

    @settings(max_examples=150, deadline=None)
    @given(taggers, batches, st.integers(0, 2**16))
    def test_tagger(self, model, batch, seed):
        check_batch(model, batch, seed)

    @pytest.mark.parametrize("shape", [0, 1, 2, 3, (1,), (3, 1), (2, 4)],
                             ids=lambda s: "widths" + "-".join(map(str, s))
                             if isinstance(s, tuple) else str(s))
    def test_evaluation_chunk(self, shape):
        # 64 sentences, an evaluation chunk, of 1-25 tokens: row blocks end
        # inside sentences, and some sentences are shorter than radius 3 and
        # than the widest window.  A tagger of radius ``shape``, or a
        # classifier of widths ``shape``, with a window row per position or
        # per window start.
        seed = shape if isinstance(shape, int) else 10 * len(shape) + shape[0]
        rng = np.random.default_rng(seed)
        batch = [rng.integers(0, VOCAB, size=n) for n in rng.integers(1, 26, size=64)]
        if isinstance(shape, int):
            model = SequenceTagger(VOCAB, 4, emb_dim=3, hidden=5, radius=shape, seed=shape)
            rows = [len(ids) for ids in batch]
        else:
            model = TextClassifier(VOCAB, 3, emb_dim=3, window_sizes=shape, n_filters=4,
                                   seed=seed)
            rows = [max(len(ids), max(shape)) - min(shape) + 1 for ids in batch]
        ends = np.cumsum(rows)
        blk = predictors._ROW_BLOCK
        assert np.setdiff1d(np.arange(blk, ends[-1], blk), ends).size
        assert min(len(ids) for ids in batch) < 3
        check_batch(model, batch, seed=seed)

    @pytest.mark.parametrize("make", [
        lambda: TextClassifier(VOCAB, 2, emb_dim=3, window_sizes=(2, 4), n_filters=4, seed=1),
        lambda: SequenceTagger(VOCAB, 4, emb_dim=3, hidden=5, radius=2, seed=1),
    ])
    def test_short_sentences_interior_zero_and_padding(self, make):
        # Shorter than the widest window, id-0 tokens inside and at the
        # end, and a long neighbour.
        model = make()
        batch = [np.array([3]), np.array([2, 0, 5]), np.array([4, 6, 0, 0]),
                 np.arange(1, 9)]
        check_batch(model, batch, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(classifiers, taggers), batches, st.integers(1, 12))
    def test_padding_invariance(self, model, batch, extra):
        # A neighbour longer than every sentence adds row blocks and
        # changes no output.
        longer = batch + [np.ones(max(len(ids) for ids in batch) + extra, dtype=int)]
        for a, b in zip(model.forward(batch_of(batch)), model.forward(batch_of(longer))):
            np.testing.assert_allclose(a, b, rtol=0, atol=TOL)

    def test_interior_zero_keeps_its_embedding_row(self):
        model = TextClassifier(VOCAB, 2, emb_dim=3, window_sizes=(2,), n_filters=4, seed=2)
        _, cache = model._forward_cache(batch_of([np.array([2, 0, 3, 0, 0])]))
        assert np.abs(model.backward(cache, [np.array([1.0, -1.0])])["emb"][0]).sum() > 0
        # A sentence's trailing zero rows, which its windows read past its
        # end, are no input: they get no gradient, so only the batch's ids
        # get one, and id 0 none.
        model = TextClassifier(VOCAB, 2, emb_dim=3, window_sizes=(2, 4), n_filters=4, seed=2)
        _, cache = model._forward_cache(batch_of([np.array([2, 3]), np.array([4, 5, 6, 7])]))
        grad = model.backward(cache, np.array([[1.0, -1.0], [-0.5, 0.5]]))["emb"]
        assert np.flatnonzero(np.abs(grad).sum(axis=1)).tolist() == [2, 3, 4, 5, 6, 7]

    @settings(max_examples=100, deadline=None)
    @given(classifiers, batches, st.data())
    def test_any_subset_of_a_batch_gives_bit_equal_classifier_rows(self, model, batch, data):
        # Evaluation regroups a set's sentences into sorted chunks, and the
        # sentiment teacher forwards clause suffixes, so a sentence's row
        # must not depend on the sentences that share its batch, nor on
        # their order.  Unit-scale parameters: at the initial scale a row
        # rounds alike in most batches, padded or not.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        model.params = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
        full = model.forward(batch_of(batch))
        subset = data.draw(st.permutations(range(len(batch))))
        subset = subset[:data.draw(st.integers(1, len(subset)))]
        for i, row in zip(subset, model.forward(batch_of([batch[i] for i in subset]))):
            assert row.tobytes() == full[i].tobytes()


class Capture:
    """An optimizer that keeps the gradients it is handed."""

    def step(self, params, grads):
        self.grads = grads


def _rows(rng, shape, one_hot):
    """Random distributions of a sentence's output shape, one-hot or not."""
    k = shape[-1]
    flat = rng.dirichlet(np.ones(k), size=int(np.prod(shape[:-1])))
    if one_hot:
        flat = np.eye(k)[flat.argmax(axis=1)]
    return flat.reshape(shape)


class TestBatchLossMatchesReference:
    # labeled: hard one-hot rows blended with q at pi; unlabeled: q alone,
    # weighted by loss_scale = pi; stage2: frozen non-one-hot rows at pi = 1.
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(classifiers, taggers), batches, st.floats(0.0, 1.0),
           st.sampled_from(["labeled", "unlabeled", "stage2"]), st.integers(0, 2**16))
    def test_loss_and_gradients(self, model, batch, pi, kind, seed):
        rng = np.random.default_rng(seed)
        tokens = batch_of(batch)
        outputs, cache = model._forward_cache(tokens)
        n, scale = len(batch), (pi if kind == "unlabeled" else 1.0)
        refs, rows = [], []
        sentence_outputs = per_sentence(model, tokens, outputs)
        for p in sentence_outputs:
            hard = _rows(rng, p.shape, one_hot=kind == "labeled")
            soft = _rows(rng, p.shape, one_hot=False)
            if kind == "labeled":
                refs.append(MixedTarget(hard=hard, soft=soft, pi=pi))
                rows.append((1.0 - pi) * hard + pi * soft)
            elif kind == "unlabeled":
                refs.append(MixedTarget(hard=soft))
                rows.append(soft)
            else:
                refs.append(MixedTarget(hard=hard, soft=hard, pi=1.0))
                rows.append(hard)
        ref_loss = scale * sum(mixed_loss(p, t) for p, t in zip(sentence_outputs, refs)) / n
        ref_dlogits = np.vstack([mixed_target_gradient(p, t) / n
                                 for p, t in zip(sentence_outputs, refs)])
        ref_grads = model.backward(cache, ref_dlogits)

        _, dlogits = predictors._loss_and_dlogits(outputs, np.vstack(rows), n)
        np.testing.assert_allclose(dlogits, ref_dlogits, rtol=0, atol=TOL)
        opt = Capture()
        loss = backward_and_step(model, tokens, outputs, cache, np.vstack(rows), opt,
                                 loss_scale=scale)
        assert abs(loss - ref_loss) <= TOL * max(1.0, abs(ref_loss))
        for k, g in opt.grads.items():
            np.testing.assert_allclose(g, scale * ref_grads[k], rtol=0, atol=TOL, err_msg=k)


class TestBatchValidation:
    @pytest.mark.parametrize("model", [
        TextClassifier(VOCAB, 2, emb_dim=3, n_filters=2),
        SequenceTagger(VOCAB, 3, emb_dim=3, hidden=4, radius=1),
    ])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_all_padding_sentence_raises(self, model, where):
        # A sentence without a token is rejected when its batch is built;
        # one of id-0 tokens is input.
        batch = [np.array([2, 3]), np.array([4, 5, 6])]
        batch.insert(where, np.array([0, 0, 0]))
        tokens = batch_of(batch)
        outputs = per_sentence(model, tokens, model.forward(tokens))
        expect = np.atleast_2d(ref_forward(model, batch[where])[0])
        np.testing.assert_allclose(outputs[where], expect, rtol=0, atol=TOL)
        batch[where] = np.array([], dtype=int)
        with pytest.raises(ValueError, match="needs a token"):
            batch_of(batch)

    @pytest.mark.parametrize("model", [
        TextClassifier(VOCAB, 2, emb_dim=3, n_filters=2),
        SequenceTagger(VOCAB, 2, emb_dim=3, hidden=4, radius=1),
    ])
    def test_step_rejects_bad_targets(self, model):
        batch = batch_of([np.array([2, 3]), np.array([4, 5, 6])])
        outputs, cache = model._forward_cache(batch)
        good = np.tile([1.0, 0.0], (len(outputs), 1))
        backward_and_step(model, batch, outputs, cache, good, Capture())
        for bad, match in [(good[1:], "shape"), (good[:, :1], "shape"), (good[:0], "shape"),
                           (good * 0.5, "sum to 1"), (good - 0.5, "nonnegative")]:
            with pytest.raises(ValueError, match=match):
                backward_and_step(model, batch, outputs, cache, bad, Capture())

    def test_empty_batch_and_bare_id_array_rejected(self):
        with pytest.raises(ValueError, match="empty batch"):
            TokenBatch(np.array([], dtype=int), np.array([], dtype=int))
        # Lengths that do not add up to the ids, and a bare id array
        # without one length per sentence.
        for lengths in ([2], [2, 2], [1, 1, 1, 1]):
            with pytest.raises(ValueError, match="add up to"):
                TokenBatch(np.array([2, 3, 4]), lengths)
        with pytest.raises(ValueError, match="1-d"):
            TokenBatch(np.array([2, 3, 4]), 3)
        with pytest.raises(ValueError, match="1-d"):
            TokenBatch(np.array([[2, 3, 4]]), [3])


class Recorder:
    """Forwards through a model and records each call's batch size; every
    other attribute is the model's."""

    def __init__(self, model):
        self.model = model
        self.sizes = []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def forward(self, batch):
        self.sizes.append(len(batch))
        return self.model.forward(batch)


class TestChunkedEvaluate:
    CHUNK = 7

    def test_sentiment_labels_match_per_sentence_argmax(self, monkeypatch):
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", self.CHUNK)
        data = gen_synthetic_sentiment(seed=5, n=40)
        vocab = Vocabulary.build([s.tokens for s in data])
        model = TextClassifier(len(vocab), 2, emb_dim=4, n_filters=3, seed=3)
        labels = [int(np.argmax(ref_forward(model, ref_encode(vocab, s.tokens))[0])) for s in data]
        # Score each sentence against its per-sentence label: accuracy 1
        # exactly when every batched label agrees.
        relabeled = [LabeledSentence(s.tokens, k) for s, k in zip(data, labels)]
        rec = Recorder(model)
        assert evaluate(rec, relabeled, task="sentiment", vocab=vocab).accuracy == 1.0
        assert rec.sizes == [7, 7, 7, 7, 7, 5]

    def test_sentiment_teacher_matches_per_sentence(self, monkeypatch):
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", self.CHUNK)
        data = gen_synthetic_sentiment(seed=6, n=30)
        vocab = Vocabulary.build([s.tokens for s in data])
        model = TextClassifier(len(vocab), 2, emb_dim=4, n_filters=3, seed=4)
        teacher = SentimentTeacher(model, vocab, (but_rule(confidence=1.0),), 6.0)
        labels = [int(np.argmax(teacher.predict_proba(s.tokens))) for s in data]
        relabeled = [LabeledSentence(s.tokens, k) for s, k in zip(data, labels)]
        assert evaluate(teacher, relabeled, task="sentiment").accuracy == 1.0

    def test_tagging_labels_match_per_sentence_argmax(self, monkeypatch):
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", self.CHUNK)
        data = gen_synthetic_ner(seed=7, n_docs=6)
        scheme = TagScheme(("LOC", "ORG", "PER"))
        vocab = Vocabulary.build([s.tokens for s in data])
        model = SequenceTagger(len(vocab), scheme.n_tags, emb_dim=4, hidden=5, radius=1, seed=5)
        relabeled = [
            TaggedSentence(s.tokens,
                           tuple(scheme.tags[k] for k in
                                 ref_forward(model, ref_encode(vocab, s.tokens))[0].argmax(axis=1)),
                           s.doc_id)
            for s in data
        ]
        rec = Recorder(model)
        batched = evaluate(rec, relabeled, task="ner", vocab=vocab, scheme=scheme)
        reference = evaluate(OneByOne(model), relabeled, task="ner", vocab=vocab, scheme=scheme)
        assert batched == reference
        assert max(rec.sizes) == self.CHUNK and sum(rec.sizes) == len(data)
        # Every batched tag sequence equals its relabeled gold.
        assert batched.f1 == 1.0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 40), st.integers(0, 2**16))
    def test_length_sorted_chunks_match_one_sentence_at_a_time(self, chunk, n, seed):
        # Sentences of shuffled lengths, in shuffled order, so tagging
        # records of several documents arrive interleaved; some tokens are
        # outside the vocabulary, and some are the reserved strings, at the
        # end of a sentence too.  Each report equals one scored from one
        # forward per sentence on per-token ids, and no forward sees more
        # than a chunk.
        rng = np.random.default_rng(seed)

        def cut(data, *fields):
            """Up to n records in random order, each cut to a random length,
            with some tokens replaced by reserved or unseen strings."""
            out = []
            for i, k in zip(rng.permutation(len(data))[:n], rng.integers(1, 40, size=n)):
                rec = replace(data[i], **{f: getattr(data[i], f)[:k] for f in fields})
                odd = rng.choice(["<pad>", "<unk>", "unseen"], size=len(rec.tokens))
                tokens = np.where(rng.random(len(rec.tokens)) < 0.1, odd, rec.tokens)
                out.append(replace(rec, tokens=tuple(str(t) for t in tokens)))
            return out

        sent = cut(gen_synthetic_sentiment(seed=seed, n=n), "tokens")
        ner = cut(gen_synthetic_ner(seed=seed, n_docs=6), "tokens", "tags")
        vocab = Vocabulary.build([s.tokens for s in sent[: n // 2] + ner[: n // 2]])
        scheme = TagScheme(("LOC", "ORG", "PER"))
        classifier = TextClassifier(len(vocab), 2, emb_dim=4, n_filters=3, seed=seed)
        tagger = SequenceTagger(len(vocab), scheme.n_tags, emb_dim=4, hidden=5, radius=1,
                                seed=seed)
        teacher = SentimentTeacher(Recorder(classifier), vocab, (but_rule(confidence=1.0),), 6.0)
        one = {
            "p": [ref_forward(classifier, ref_encode(vocab, s.tokens))[0] for s in sent],
            "q": [teacher.predict_proba(s.tokens) for s in sent],
        }
        teacher.model.sizes.clear()
        expect = {key: trainer.EvalReport(task="sentiment", n=len(sent), accuracy=float(
            np.mean([np.argmax(p) == s.label for p, s in zip(probs, sent)])))
            for key, probs in one.items()}
        tags = [[scheme.tags[k]
                 for k in ref_forward(tagger, ref_encode(vocab, s.tokens))[0].argmax(axis=1)]
                for s in ner]
        prec, rec, f1 = ref_micro_span_prf([ref_spans(scheme, s.tags) for s in ner],
                                           [ref_spans(scheme, t) for t in tags])
        expect["ner"] = trainer.EvalReport(
            task="ner", n=len(ner), precision=prec, recall=rec, f1=f1,
            validity_rate=float(np.mean([ref_valid_sequence(scheme, t) for t in tags])))
        with mock.patch.object(trainer, "_EVAL_CHUNK", chunk):
            p_rec, ner_rec = Recorder(classifier), Recorder(tagger)
            assert evaluate(p_rec, sent, task="sentiment", vocab=vocab) == expect["p"]
            assert evaluate(teacher, sent, task="sentiment") == expect["q"]
            assert evaluate(ner_rec, ner, task="ner", vocab=vocab, scheme=scheme) == expect["ner"]
        for rec, records in ((p_rec, sent), (ner_rec, ner)):
            assert len(rec.sizes) == -(-len(records) // chunk) and max(rec.sizes) <= chunk
        assert max(teacher.model.sizes) <= chunk


# --- the tagging teacher -----------------------------------------------------


class TestNerTeacherBatching:
    SCHEME = TagScheme(("LOC", "ORG", "PER"))
    RULES = tuple(transition_rules(SCHEME)) + (
        list_counterpart_rule(CategoryCollapse(SCHEME), confidence=1.0),
    )
    DATA = gen_synthetic_ner(seed=5, n_docs=12)

    def teacher(self):
        vocab = Vocabulary.build([s.tokens for s in self.DATA])
        model = SequenceTagger(len(vocab), self.SCHEME.n_tags, emb_dim=4, hidden=5,
                               radius=1, seed=2)
        # g_max = 2 cuts links of the 3-4 item lists at random, so every
        # answer depends on the document's seed, seed + 7919 * d.
        return NerTeacher(model, vocab, self.SCHEME, self.RULES, 6.0, g_max=2, seed=3)

    def test_document_targets_alone_and_in_any_batch(self):
        teacher = self.teacher()
        docs = group_documents(self.DATA)
        data = trainer.prepare(self.DATA, teacher.vocab, self.SCHEME)
        batches = [teacher.vocab.encode([s.tokens for s in doc]) for doc in docs]
        sigmas = [teacher.model.forward(batch) for batch in batches]
        assert sum(bool(pairs) for _, pairs in data.rule_inputs) >= 3
        alone = [teacher.soft_predict(sigma, batch, data, [d])
                 for d, (sigma, batch) in enumerate(zip(sigmas, batches))]
        rng = np.random.default_rng(0)
        for _ in range(3):
            order = rng.permutation(len(docs))[: rng.integers(2, len(docs) + 1)]
            batch = teacher.vocab.encode([s.tokens for d in order for s in docs[d]])
            batched = teacher.soft_predict(np.concatenate([sigmas[d] for d in order]), batch,
                                           data, order)
            for d, doc_q in zip(order, split_rows(batched, [len(alone[d]) for d in order])):
                assert doc_q.shape == alone[d].shape
                for a, b in zip(alone[d], doc_q):
                    np.testing.assert_allclose(b, a, rtol=0, atol=TOL)

    def test_q_report_independent_of_evaluation_chunking(self, monkeypatch):
        teacher = self.teacher()
        reports, tags = [], []
        for chunk in (1, 5, 64, 10_000):
            monkeypatch.setattr(trainer, "_EVAL_CHUNK", chunk)
            reports.append(evaluate(teacher, self.DATA, task="ner"))
            tags.append(teacher.predict_tags(group_documents(self.DATA)))
        assert all(r == reports[0] for r in reports)
        assert all(t == tags[0] for t in tags)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 10))
    def test_set_pass_decodes_each_document_as_alone(self, chunk):
        # One evaluation runs stage 1 once, over every document; no student
        # forward and no chain query holds more than a chunk of sentences;
        # and the tags are those of each document decoded on its own.
        teacher = self.teacher()
        data = trainer.prepare(self.DATA, teacher.vocab, self.SCHEME)
        alone = []
        for d in range(len(data.docs)):
            batch = data.batch.take(data.docs.positions([d]))
            log_unary = teacher._log_unary(teacher.model.forward(batch), batch,
                                           *teacher._doc_inputs(data, [d]))
            alone.append(chain_map_decode(
                ChainTeacherQuery(log_unary, batch.lengths, *teacher.chain_terms))[0])
        alone = np.concatenate(alone)
        stage1, chains = [], []
        original_stage1, decode = NerTeacher._stage1, trainer.chain_map_decode
        teacher.model = Recorder(teacher.model)
        with mock.patch.object(trainer, "_EVAL_CHUNK", chunk), \
                mock.patch.object(NerTeacher, "_stage1",
                                  lambda *a: stage1.append(1) or original_stage1(*a)), \
                mock.patch.object(trainer, "chain_map_decode",
                                  lambda query: chains.append(len(query.lengths)) or decode(query)):
            report = evaluate(teacher, data)
            assert len(stage1) == 1
            assert max(teacher.model.sizes) <= chunk and max(chains) <= chunk
            assert sum(teacher.model.sizes) == sum(chains) == len(data.batch)
            assert report == trainer._tagging_report(data, alone)
            assert teacher._paths(data).tolist() == alone.tolist()
            tags = teacher.predict_tags(group_documents(self.DATA))
        assert [t for doc in tags for s in doc for t in s] == [self.SCHEME.tags[k] for k in alone]

    def test_pipeline_targets_are_each_documents_soft_predict_alone(self, monkeypatch):
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", 5)
        drivers, driver = [], trainer._Driver
        monkeypatch.setattr(trainer, "_Driver",
                            lambda *a: drivers.append(driver(*a)) or drivers[-1])
        config = TrainConfig(task="ner", mode="pipeline", epochs=2, batch_size=8, emb_dim=4,
                             hidden=5, eval_sweeps=50, g_max=2, seed=3)
        teacher = train_distill(config, self.DATA, rules=self.RULES).teacher
        fixed = drivers[-1]  # stage 2's, one unit per sentence
        data = fixed.data
        assert len(fixed.units) == len(data.batch)
        for d in range(len(data.docs)):
            sentences = data.docs.positions([d])
            batch = data.batch.take(sentences)
            doc_q = teacher.soft_predict(teacher.model.forward(batch), batch, data, [d])
            assert fixed.targets[data.batch.positions(sentences)].tobytes() == doc_q.tobytes()

    def test_infeasible_sentence_named_by_document_and_sentence(self, monkeypatch):
        # p is one-hot on B-LOC for a one-token sentence, which no valid
        # tag path ends with.  The set pass names it by document and
        # sentence, not by its place in a sorted chunk.
        scheme = self.SCHEME

        class OneTokenBLoc:
            n_tags = scheme.n_tags

            def forward(self, batch):
                p = np.full((len(batch.ids), scheme.n_tags), 1.0 / scheme.n_tags)
                p[batch.starts[batch.lengths == 1]] = np.eye(scheme.n_tags)[
                    scheme.tags.index("B-LOC")]
                return p

        sentences = [("a", "b"), ("c", "d", "e"), ("f", "g", "h"), ("i",), ("j", "k")]
        records = [TaggedSentence(tokens, ("O",) * len(tokens), doc_id=int(i >= 2))
                   for i, tokens in enumerate(sentences)]
        vocab = Vocabulary.build(sentences)
        teacher = NerTeacher(OneTokenBLoc(), vocab, scheme, self.RULES, 6.0)
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", 2)
        with np.errstate(divide="ignore"), pytest.raises(
                InfeasibleChainError, match="every label path of sentence 1 of document 1$") as err:
            evaluate(teacher, records, task="ner")
        # Set sentence 3 is chain 0 of the first sorted chunk.
        assert err.value.chain == 3 and err.value.__cause__.chain == 0

    def test_one_student_forward_per_distill_batch(self, monkeypatch):
        # Epoch 0 trains at pi = 0, epoch 1 at pi > 0; in both, each batch
        # has the step's forward (F) and no other, and the teacher's chain
        # query (Q) reads that forward's outputs before the step (S).  The
        # step's second argument counts the sentences it steps on.
        events, forwarded, stepped = [], [], []
        forward, step = SequenceTagger._forward_cache, trainer.backward_and_step
        marginals = trainer.chain_marginals
        monkeypatch.setattr(SequenceTagger, "_forward_cache",
                            lambda self, batch: events.append("F") or forwarded.append(len(batch))
                            or forward(self, batch))
        monkeypatch.setattr(trainer, "backward_and_step",
                            lambda *a, **kw: events.append("S") or stepped.append(len(a[1]))
                            or step(*a, **kw))
        monkeypatch.setattr(trainer, "chain_marginals",
                            lambda query: events.append("Q") or marginals(query))
        config = TrainConfig(task="ner", mode="distill", epochs=2, batch_size=8, emb_dim=4,
                             hidden=5, train_sweeps=20, eval_sweeps=50, seed=0)
        train_distill(config, self.DATA, rules=self.RULES)
        log = "".join(events)
        n = log.count("S") // 2
        assert n > 1 and log == "FS" * n + "FQS" * n
        assert stepped == forwarded and sum(stepped) == 2 * len(self.DATA)


# --- per-row sentiment teacher reference -------------------------------------
#
# The sentiment teacher one A-but-B row at a time, as it was before the
# batch projection: each rule's truths of one row and a 1-d projection per
# row.


class _ClauseTable:
    """A classifier whose output on a clause starting with id i is row i of
    a table."""

    def __init__(self, sigmas):
        self.sigmas = sigmas
        self.n_classes = sigmas.shape[1]

    def forward(self, batch):
        return self.sigmas[batch.ids[batch.starts]]


_ORACLE_RULES = {
    "avg": lambda lam: but_rule(confidence=lam),
    "strong": lambda lam: but_rule(confidence=lam, variant="strong"),
    # Hard: both labels' truths lie below 1 unless the clause is certain,
    # so its rows allow no label.
    "hard": lambda lam: but_rule(confidence=math.inf),
}


def ref_sentiment_soft_predict(teacher, p, clause_b_ids):
    """The sentiment teacher one A-but-B row at a time: each rule's truths
    of the row and a 1-d projection per row, counting the infeasible rows
    on ``teacher``."""
    q = list(p)
    has_b = [i for i, clause in enumerate(clause_b_ids) if clause is not None]
    if not has_b:
        return q
    sigmas = teacher.model.forward(batch_of([np.asarray(clause_b_ids[i]) for i in has_b]))
    for i, sigma in zip(has_b, sigmas):
        truths = tuple((rule.confidence, rule.truths(sigma[None])[0]) for rule in teacher.rules)
        try:
            q[i] = project(ProjectionProblem(np.log(p[i]), truths, teacher.c)).probs()
        except InfeasibleConstraintError:
            teacher.infeasible += 1
    return q


class TestSentimentTeacherBatching:
    DATA = gen_synthetic_sentiment(seed=9, n=40)

    def test_one_clause_forward_per_distill_batch(self, monkeypatch):
        # Each batch has the step's forward over its sentences; at pi > 0
        # the teacher adds one forward over the batch's B clauses alone,
        # and one projection over the same rows.
        events = []
        forward, step = TextClassifier._forward_cache, trainer.backward_and_step
        project = trainer.project
        monkeypatch.setattr(TextClassifier, "_forward_cache",
                            lambda self, ids: events.append(("F", len(ids))) or forward(self, ids))
        monkeypatch.setattr(trainer, "backward_and_step",
                            lambda m, batch, *a, **kw: events.append(("S", len(batch)))
                            or step(m, batch, *a, **kw))
        monkeypatch.setattr(trainer, "project", lambda problem: events.append(
            ("P", len(problem.base_log_probs))) or project(problem))
        config = TrainConfig(task="sentiment", mode="distill", epochs=2, batch_size=8,
                             emb_dim=4, n_filters=3, seed=0)
        train_distill(config, self.DATA, rules=(but_rule(confidence=1.0),))
        steps = [i for i, (kind, _) in enumerate(events) if kind == "S"]
        assert len(steps) == 10
        clause_forwards, start = [], 0
        for i in steps:
            # The step's forward covers exactly the sentences it steps on.
            (first, n_first), *extra, (_, n_step) = events[start : i + 1]
            assert first == "F" and n_first == n_step
            if extra:
                assert i > steps[4]
                (clauses, n_clauses), (projection, n_rows) = extra
                assert (clauses, projection) == ("F", "P") and n_rows == n_clauses
                clause_forwards.append(n_clauses)
            start = i + 1
        n_but = sum(trainer.detect_but(s.tokens) is not None for s in self.DATA)
        assert n_but > 0 and sum(clause_forwards) == n_but

    def test_pipeline_targets_are_each_sentences_soft_predict_alone(self, monkeypatch):
        # Stage 2's targets come from length-sorted chunks of 5 sentences;
        # each row is bit-equal to the sentence's own forward and teacher.
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", 5)
        drivers, driver = [], trainer._Driver
        monkeypatch.setattr(trainer, "_Driver",
                            lambda *a: drivers.append(driver(*a)) or drivers[-1])
        config = TrainConfig(task="sentiment", mode="pipeline", epochs=2, batch_size=8,
                             emb_dim=4, n_filters=3, seed=3)
        teacher = train_distill(config, self.DATA, rules=(but_rule(confidence=1.0),)).teacher
        fixed = drivers[-1]
        data = fixed.data
        assert np.count_nonzero(data.rule_inputs) > 0
        for s in range(len(data.batch)):
            batch = data.batch.take([s])
            q = teacher.soft_predict(teacher.model.forward(batch), batch, data, [s])
            assert fixed.targets[s].tobytes() == q[0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16), st.integers(1, 12),
           st.lists(st.sampled_from(sorted(_ORACLE_RULES)), min_size=1, max_size=2),
           st.sampled_from((0.0, 1.0, 6.0)))
    def test_matches_per_row_projection(self, seed, n, names, c):
        # Random p and clause distributions, rows without a B clause, and
        # one or two but rules, soft or hard (a hard one leaves its rows no
        # label): every row is bit-equal to its own 1-d projection, and the
        # same rows are counted infeasible.
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(2), size=n)
        clauses = [[i] if rng.random() < 0.7 else None for i in range(n)]
        model = _ClauseTable(rng.dirichlet(np.ones(2), size=n))
        rules = [_ORACLE_RULES[name](float(rng.choice((0.5, 1.0, 3.0)))) for name in names]
        teacher, oracle = (SentimentTeacher(model, None, rules, c) for _ in range(2))
        # Sentence i is [n + i, i], with clause B [i] when it has one: a set
        # whose only rule input is each sentence's clause start.
        batch = TokenBatch(np.stack([n + np.arange(n), np.arange(n)], axis=1).ravel(), [2] * n)
        data = SimpleNamespace(rule_inputs=np.array([0 if cl is None else 1 for cl in clauses]))
        q = teacher.soft_predict(p, batch, data, np.arange(n))
        expect = ref_sentiment_soft_predict(oracle, p, clauses)
        assert len(q) == n and all(np.array_equal(a, b) for a, b in zip(q, expect))
        assert teacher.infeasible == oracle.infeasible


# --- per-document stage-1 reference -------------------------------------------
#
# Stage 1 of the tagging teacher one document at a time, as objects: a
# MemberPotentials per linked site, a GroupLink per link, one
# GroupTeacherQuery per group, and one dense score tensor per group.  Each
# link carries the summed tables of the list rules, as the batch path's do.


def ref_form_groups(members, links, g_max, seed, sweeps=200):
    """(query, member ids) per component of a document's members, cutting
    uniformly random links (seeded) until every component fits g_max."""
    n = len(members)
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
        comps = {}
        for i in range(n):
            comps.setdefault(find(i), []).append(i)
        return sorted(comps.values(), key=min)

    while True:
        comps = components(kept)
        oversized = [c for c in comps if len(c) > g_max]
        if not oversized:
            break
        target = set(oversized[0])
        internal = [i for i, ln in enumerate(kept)
                    if ln.member_a in target and ln.member_b in target]
        kept.pop(internal[int(rng.integers(len(internal)))])

    groups = []
    for comp in comps:
        local = {orig: i for i, orig in enumerate(comp)}
        comp_links = tuple(
            GroupLink(local[ln.member_a], ln.pos_a, local[ln.member_b], ln.pos_b, ln.log_table)
            for ln in kept if ln.member_a in local and ln.member_b in local
        )
        groups.append((GroupTeacherQuery(members=tuple(members[i] for i in comp),
                                         links=comp_links, sweeps=sweeps,
                                         seed=int(rng.integers(2**31 - 1))), comp))
    return groups


def ref_exact_group_marginals(query):
    """One (K,) marginal per single-position member, from a K**n score
    tensor with one axis per member."""
    n, k = len(query.members), query.n_labels
    score = np.zeros((k,) * n)
    for i, mem in enumerate(query.members):
        score += mem.log_unary[0].reshape([k if a == i else 1 for a in range(n)])
    for ln in query.links:
        i, j, table = ln.member_a, ln.member_b, ln.log_table
        if i == j:
            score += np.diagonal(table).reshape([k if a == i else 1 for a in range(n)])
            continue
        if i > j:
            i, j, table = j, i, table.T
        score += table.reshape([k if a in (i, j) else 1 for a in range(n)])
    probs = np.exp(score - score.max())
    probs /= probs.sum()
    return [probs.sum(axis=tuple(a for a in range(n) if a != i)) for i in range(n)]


def ref_site_marginals(teacher, sigmas, site_links, seed):
    """One document's stage 1: the teacher tag marginal of each linked
    site, and each group's kept links as site pairs."""
    sites = sorted({s for pair in site_links for s in pair})
    index = {s: i for i, s in enumerate(sites)}
    sigma = np.stack([sigmas[s][t] for s, t in sites])
    mass = teacher.collapse.collapse(sigma)
    members = [MemberPotentials(log_unary=row[None, :]) for row in np.log(mass)]
    gi = teacher.collapse.group_index
    reps = np.unique(gi, return_index=True)[1]
    truth = counterpart_truth_table(teacher.collapse)[np.ix_(reps, reps)]
    table = sum(-teacher.c * rule.confidence * (1.0 - truth) for rule in teacher.lists)
    glinks = [GroupLink(index[a], 0, index[b], 0, table) for a, b in site_links]
    q = np.empty_like(mass)
    kept = []
    for query, ids in ref_form_groups(members, glinks, teacher.g_max, seed):
        if query.n_labels ** len(query.members) <= EXACT_MAX_STATES:
            margs = ref_exact_group_marginals(query)
        else:
            margs = [m[0] for m in gibbs_soft_predict(query)]
        for marg, mid in zip(margs, ids):
            q[mid] = marg
        kept.append([(sites[ids[ln.member_a]], sites[ids[ln.member_b]]) for ln in query.links])
    return dict(zip(sites, q[:, gi] * sigma / mass[:, gi])), kept


@st.composite
def linked_documents(draw):
    """(sentence lengths, links) of a document with one or two lists of
    2-12 items: each item is a sentence of one or two blocks, and the k-th
    blocks of every two items are linked, as list detection links them;
    an unlinked sentence may come first."""
    lengths, links = [], []
    if draw(st.booleans()):
        lengths.append(draw(st.integers(1, 4)))
    for _ in range(draw(st.integers(1, 2))):
        items = []
        for _ in range(draw(st.integers(2, 12))):
            blocks = draw(st.integers(1, 2))
            items.append([(len(lengths), 2 * b) for b in range(blocks)])
            lengths.append(2 * blocks - 1 + draw(st.integers(0, 1)))
        for k in range(2):
            have = [it[k] for it in items if len(it) > k]
            links += [(have[a], have[b]) for a in range(len(have))
                      for b in range(a + 1, len(have))]
    return lengths, links


@st.composite
def dense_graphs(draw):
    """(n, links) of a clique of 9-14 sites in shuffled order, each link in
    either direction, with up to eight links doubled and up to four
    self-links."""
    n = draw(st.integers(9, 14))
    links = [(a, b) for a in range(n) for b in range(a + 1, n)]
    links += draw(st.lists(st.sampled_from(links), max_size=8))
    links += [(a, a) for a in draw(st.lists(st.integers(0, n - 1), max_size=4))]
    links = [(b, a) if draw(st.booleans()) else (a, b) for a, b in links]
    return n, draw(st.permutations(links))


class TestFormGroupsMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                             max_size=40))),
           st.integers(1, 8), st.integers(0, 2**31 - 1))
    def test_random_graphs(self, graph, g_max, seed):
        # Any graph, with repeated links and self-links: the same groups,
        # kept links and seeds as the object reference.
        self.check(*graph, g_max, seed)

    @settings(max_examples=60, deadline=None)
    @given(dense_graphs(), st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_dense_graphs(self, graph, g_max, seed):
        # Cliques, where most cuts leave the cut link's ends joined.
        self.check(*graph, g_max, seed)

    def check(self, n, links, g_max, seed):
        members = [MemberPotentials(np.zeros((1, 2))) for _ in range(n)]
        ref = ref_form_groups(members, [GroupLink(a, 0, b, 0, np.zeros((2, 2))) for a, b in links],
                              g_max, seed)
        assert trainer.form_groups(n, links, g_max, seed) == [
            (tuple(ids), tuple((ln.member_a, ln.member_b) for ln in query.links), query.seed)
            for query, ids in ref
        ]


class TestNerStage1MatchesReference:
    SCHEME = TagScheme(("LOC", "ORG", "PER"))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(linked_documents(), min_size=1, max_size=3), st.integers(2, 8),
           st.sampled_from([(1.0,), (1.5,), (0.5, 1.0)]), st.sampled_from([0.6, 6.0]),
           st.integers(0, 2**16))
    def test_batch_stage1(self, docs, g_max, lams, c, seed):
        collapse = CategoryCollapse(self.SCHEME)
        teacher = NerTeacher(None, None, self.SCHEME,
                             [list_counterpart_rule(collapse, confidence=lam) for lam in lams],
                             c, g_max=g_max)
        rng = np.random.default_rng(seed)
        docs_sigmas = [[rng.dirichlet(np.full(self.SCHEME.n_tags, 0.5), size=n) for n in lengths]
                       for lengths, _ in docs]
        docs_links = [links for _, links in docs]
        seeds = [int(s) for s in rng.integers(2**31 - 1, size=len(docs))]
        formed, form_groups = [], trainer.form_groups

        def recording(*args, **kw):
            formed.append(form_groups(*args, **kw))
            return formed[-1]

        p, lengths = flat([sigma for doc in docs_sigmas for sigma in doc])
        with mock.patch.object(trainer, "form_groups", recording):
            _, _, q = teacher._stage1(p, batch_of_lengths(lengths),
                                      [len(doc) for doc in docs_sigmas],
                                      [indexed_links(ln) for ln in docs_links], seeds)
        assert len(formed) == len(docs)
        start = 0
        for sigmas, links, seed, groups in zip(docs_sigmas, docs_links, seeds, formed):
            ref, ref_kept = ref_site_marginals(teacher, sigmas, links, seed)
            sites = sorted(ref)
            for site, row in zip(sites, q[start:]):
                np.testing.assert_allclose(row, ref[site], rtol=0, atol=TOL)
            start += len(sites)
            # The same cuts: with one rule, the cuts the object path made.
            assert [[(sites[g.sites[a]], sites[g.sites[b]]) for a, b in g.links]
                    for g in groups] == ref_kept
        assert start == len(q)
