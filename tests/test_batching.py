"""Batched student forward and backward against a per-sentence reference,
and the batched tagging teacher against itself one document at a time.

The reference below is the one-sentence-at-a-time implementation of both
models: it strips trailing padding, zero-pads the sentence to the widest
window (classifier) or by the radius on both sides (tagger), and loops
over windows.  The batched models must match it within 1e-12 for every
sentence of every batch, whatever else shares the batch.  The chain
regime's per-chain reference lives in test_inference.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledistill import predictors, trainer
from ruledistill.corpus import (
    LabeledSentence,
    TaggedSentence,
    gen_synthetic_ner,
    gen_synthetic_sentiment,
    group_documents,
)
from ruledistill.predictors import SequenceTagger, TextClassifier, Vocabulary
from ruledistill.rulelib import (
    CategoryCollapse,
    TagScheme,
    but_rule,
    list_counterpart_rule,
    transition_rules,
)
from ruledistill.trainer import NerTeacher, SentimentTeacher, TrainConfig, evaluate, train_distill

TOL = 1e-12
VOCAB = 9


# --- per-sentence reference --------------------------------------------------


def _strip(ids):
    ids = np.asarray(ids, dtype=int)
    end = len(ids)
    while end > 0 and ids[end - 1] == 0:
        end -= 1
    return ids[:end]


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_forward(model, ids):
    """(probs, cache) of one sentence."""
    ids = _strip(ids)
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


class OneByOne:
    """A model wrapper that forwards one sentence at a time through the
    reference."""

    def __init__(self, model):
        self.model = model

    def forward(self, ids_list):
        return [ref_forward(self.model, ids)[0] for ids in ids_list]


# --- strategies --------------------------------------------------------------

# A sentence: content whose last id is not padding, possibly with interior
# id-0 tokens, followed by trailing padding.
sentences = st.tuples(
    st.lists(st.integers(0, VOCAB - 1), min_size=0, max_size=6),
    st.integers(1, VOCAB - 1),
    st.integers(0, 3),
).map(lambda t: np.array(t[0] + [t[1]] + [0] * t[2]))

batches = st.lists(sentences, min_size=1, max_size=5)

classifiers = st.builds(
    lambda widths, n_classes, seed: TextClassifier(
        VOCAB, n_classes, emb_dim=3, window_sizes=tuple(sorted(widths)), n_filters=4, seed=seed
    ),
    st.sets(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(2, 3),
    st.integers(0, 2**16),
)

taggers = st.builds(
    lambda radius, seed: SequenceTagger(VOCAB, 4, emb_dim=3, hidden=5, radius=radius, seed=seed),
    st.integers(0, 2),
    st.integers(0, 2**16),
)


def check_batch(model, batch, seed):
    """Batched outputs and gradients equal the per-sentence reference."""
    probs, cache = model._forward_cache(batch)
    assert len(probs) == len(batch)
    rng = np.random.default_rng(seed)
    dlogits, expected = [], {k: np.zeros_like(v) for k, v in model.params.items()}
    for ids, out in zip(batch, probs):
        ref_out, ref_cache = ref_forward(model, ids)
        assert out.shape == ref_out.shape
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=TOL)
        d = rng.normal(size=ref_out.shape)
        dlogits.append(d)
        for k, g in ref_backward(model, ref_cache, d).items():
            expected[k] += g
    grads = model.backward(cache, dlogits)
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

    @pytest.mark.parametrize("make", [
        lambda: TextClassifier(VOCAB, 2, emb_dim=3, window_sizes=(2, 4), n_filters=4, seed=1),
        lambda: SequenceTagger(VOCAB, 4, emb_dim=3, hidden=5, radius=2, seed=1),
    ])
    def test_short_sentences_interior_zero_and_padding(self, make):
        # Shorter than the widest window, an interior id 0, trailing
        # padding, and a long neighbour that widens the padded batch.
        model = make()
        batch = [np.array([3]), np.array([2, 0, 5]), np.array([4, 6, 0, 0]),
                 np.arange(1, 9)]
        check_batch(model, batch, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(classifiers, taggers), batches, st.integers(0, 3))
    def test_padding_invariance(self, model, batch, extra):
        # Extra trailing padding on every sentence changes no output.
        padded = [np.concatenate([ids, np.zeros(extra, dtype=int)]) for ids in batch]
        for a, b in zip(model.forward(batch), model.forward(padded)):
            np.testing.assert_allclose(a, b, rtol=0, atol=TOL)

    def test_interior_zero_keeps_its_embedding_row(self):
        model = TextClassifier(VOCAB, 2, emb_dim=3, window_sizes=(2,), n_filters=4, seed=2)
        d = [np.array([1.0, -1.0])]
        _, cache = model._forward_cache([np.array([2, 0, 3, 0, 0])])
        assert np.abs(model.backward(cache, d)["emb"][0]).sum() > 0
        # Trailing padding is no input and gets no gradient.
        _, cache = model._forward_cache([np.array([2, 3, 0, 0])])
        assert not model.backward(cache, d)["emb"][0].any()


class TestBatchValidation:
    @pytest.mark.parametrize("model", [
        TextClassifier(VOCAB, 2, emb_dim=3, n_filters=2),
        SequenceTagger(VOCAB, 3, emb_dim=3, hidden=4, radius=1),
    ])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_all_padding_sentence_raises(self, model, where):
        batch = [np.array([2, 3]), np.array([4, 5, 6])]
        batch.insert(where, np.array([0, 0, 0]))
        with pytest.raises(ValueError, match="no non-padding"):
            model.forward(batch)
        batch[where] = np.array([], dtype=int)
        with pytest.raises(ValueError, match="no non-padding"):
            model.forward(batch)

    def test_empty_batch_and_bare_id_array_rejected(self):
        model = TextClassifier(VOCAB, 2, emb_dim=3, n_filters=2)
        with pytest.raises(ValueError, match="empty batch"):
            model.forward([])
        # A bare id array is a list of scalars, not of sentences.
        with pytest.raises(ValueError, match="1-d"):
            model.forward(np.array([2, 3, 4]))


class Recorder:
    """Forwards through a model and records each call's batch size."""

    def __init__(self, model):
        self.model = model
        self.sizes = []

    def forward(self, ids_list):
        self.sizes.append(len(ids_list))
        return self.model.forward(ids_list)


class TestChunkedEvaluate:
    CHUNK = 7

    def test_sentiment_labels_match_per_sentence_argmax(self, monkeypatch):
        monkeypatch.setattr(trainer, "_EVAL_CHUNK", self.CHUNK)
        data = gen_synthetic_sentiment(seed=5, n=40)
        vocab = Vocabulary.build([s.tokens for s in data])
        model = TextClassifier(len(vocab), 2, emb_dim=4, n_filters=3, seed=3)
        labels = [int(np.argmax(ref_forward(model, vocab.encode(s.tokens))[0])) for s in data]
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
                                 ref_forward(model, vocab.encode(s.tokens))[0].argmax(axis=1)),
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
        # answer depends on the document's seed.
        return NerTeacher(model, vocab, self.SCHEME, self.RULES, 6.0, g_max=2, seed=3)

    def test_document_targets_alone_and_in_any_batch(self):
        teacher = self.teacher()
        docs = group_documents(self.DATA)
        ids = [[teacher.vocab.encode(s.tokens) for s in doc] for doc in docs]
        links = [trainer._doc_links([s.tokens for s in doc]) for doc in docs]
        seeds = [11 * d + 1 for d in range(len(docs))]
        assert sum(map(bool, links)) >= 3
        alone = [teacher.soft_predict([i], [ln], [s])[0] for i, ln, s in zip(ids, links, seeds)]
        rng = np.random.default_rng(0)
        for _ in range(3):
            order = rng.permutation(len(docs))[: rng.integers(2, len(docs) + 1)]
            batched = teacher.soft_predict([ids[d] for d in order], [links[d] for d in order],
                                           [seeds[d] for d in order])
            for d, doc_q in zip(order, batched):
                assert len(doc_q) == len(alone[d])
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

    def test_one_teacher_forward_per_distill_batch(self, monkeypatch):
        # Epoch 0 trains at pi = 0 (steps only); epoch 1 at pi > 0 must
        # forward each batch once for the teacher, then step on it.
        events = []
        forward, step = predictors._Model.forward, trainer.backward_and_step
        monkeypatch.setattr(predictors._Model, "forward",
                            lambda self, ids: events.append("F") or forward(self, ids))
        monkeypatch.setattr(trainer, "backward_and_step",
                            lambda *a, **kw: events.append("S") or step(*a, **kw))
        config = TrainConfig(task="ner", mode="distill", epochs=2, batch_size=8, emb_dim=4,
                             hidden=5, train_sweeps=20, eval_sweeps=50, seed=0)
        train_distill(config, self.DATA, rules=self.RULES)
        log = "".join(events)
        plain = log.index("F")
        assert plain > 0 and log[:plain] == "S" * plain
        assert log[plain:] == "FS" * ((len(log) - plain) // 2)
