"""Vocabulary, the two numpy predictors, the batch loss against mixed
target rows, and checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CHECKPOINT_CORRUPTIONS,
    RefAdadelta,
    batch_of,
    corrupt_checkpoint,
    ref_embedding_grad,
)

from ruledistill import predictors
from ruledistill.predictors import (
    Adadelta,
    NonFiniteGradientError,
    SequenceTagger,
    TextClassifier,
    TokenBatch,
    Vocabulary,
    backward_and_step,
    finite_difference_check,
    load_checkpoint,
    save_checkpoint,
)


class TestVocabulary:
    def test_build_and_encode(self):
        vocab = Vocabulary.build([["a", "b", "a"], ["c", "a"]])
        assert len(vocab) == 5  # pad, unk, a, b, c
        batch = vocab.encode([["a", "zzz", "c"], ["c"]])
        np.testing.assert_array_equal(batch.ids, [2, 1, 4, 4])
        np.testing.assert_array_equal(batch.lengths, [3, 1])

    def test_reserved_tokens_are_unknown(self):
        # A corpus may hold the reserved strings as tokens: they get no
        # entry of their own, and encode as unknown, never as padding.
        vocab = Vocabulary.build([["Paris", "is", "<pad>"], ["<unk>", "Paris"]])
        assert vocab.tokens == ("<pad>", "<unk>", "Paris", "is")
        batch = vocab.encode([["Paris", "is", "<pad>"], ["<unk>"]])
        np.testing.assert_array_equal(batch.ids, [2, 3, 1, 1])
        np.testing.assert_array_equal(batch.lengths, [3, 1])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c", "<pad>", "<unk>", "", " "])),
                    min_size=1),
           st.lists(st.lists(st.sampled_from(["a", "b", "<pad>", "<unk>", "z", "", "B"]),
                             min_size=1), min_size=1))
    def test_encode_is_a_lookup_per_token(self, corpus, sentences):
        # The one-pass batch encoder against a per-token dict lookup with
        # the unknown id as the fallback.
        vocab = Vocabulary.build(corpus)
        index = {tok: i for i, tok in enumerate(vocab.tokens) if i > 1}
        batch = vocab.encode(sentences)
        assert batch.ids.tolist() == [index.get(t, 1) for s in sentences for t in s]
        assert batch.lengths.tolist() == [len(s) for s in sentences]

    def test_frequency_then_lexical_order(self):
        vocab = Vocabulary.build([["b", "b", "a", "c", "c"]])
        assert vocab.tokens[2:] == ("b", "c", "a")

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "b"))


class TestMixedTarget:
    """The mixed target of a row is the blend (1 - pi) * hard + pi * soft;
    the step fits the batch's output rows to a (rows, K) array of them."""

    HARD = np.array([[1.0, 0.0], [0.0, 1.0]])
    SOFT = np.array([[0.3, 0.7], [0.5, 0.5]])

    def test_combined_blend(self):
        # The blend of hard and soft rows is a distribution row by row,
        # which the step accepts.
        blend = 0.5 * self.HARD + 0.5 * self.SOFT
        np.testing.assert_allclose(blend, [[0.65, 0.35], [0.25, 0.75]])
        assert predictors.check_targets(blend, (2, 2)) is not None

    def test_loss_is_blend_of_cross_entropies(self):
        # The batch loss against the blend is the batch mean of the
        # pi-weighted hard and soft cross-entropies.
        model = TextClassifier(vocab_size=9, n_classes=2, emb_dim=3, n_filters=2, seed=1)
        ids = batch_of([np.array([2, 3]), np.array([4, 5, 6])])
        p = model.forward(ids)
        ce_h = -np.sum(self.HARD * np.log(p), axis=1)
        ce_s = -np.sum(self.SOFT * np.log(p), axis=1)
        outputs, cache = model._forward_cache(ids)
        loss = backward_and_step(model, ids, outputs, cache,
                                 0.75 * self.HARD + 0.25 * self.SOFT, Adadelta())
        assert loss == pytest.approx(np.mean(0.75 * ce_h + 0.25 * ce_s))

    def test_gradient_is_pred_minus_blend(self):
        pred = np.array([[0.6, 0.4], [0.1, 0.9]])
        blend = 0.6 * self.HARD + 0.4 * self.SOFT
        _, dlogits = predictors._loss_and_dlogits(pred, blend, n=2)
        np.testing.assert_allclose(dlogits, (pred - blend) / 2)

    def test_validation(self):
        model = TextClassifier(vocab_size=9, n_classes=2, emb_dim=3, n_filters=2, seed=1)
        batch = batch_of([np.array([2, 3])])
        outputs, cache = model._forward_cache(batch)
        for bad, match in [
            (np.array([[0.9, 0.0]]), "sum to 1"),  # not a distribution
            (np.array([[1.5, -0.5]]), "nonnegative"),
            (np.array([[np.nan, 1.0]]), "nonnegative"),
            (np.array([1.0, 0.0]), "shape"),  # one row, but not (rows, K)
            (np.array([[1.0, 0.0], [0.0, 1.0]]), "shape"),  # a row too many
        ]:
            with pytest.raises(ValueError, match=match):
                backward_and_step(model, batch, outputs, cache, bad, Adadelta())
        with pytest.raises(ValueError, match="loss_scale"):
            backward_and_step(model, batch, outputs, cache, np.array([[1.0, 0.0]]), Adadelta(),
                              loss_scale=-1.0)


class TestModels:
    def test_classifier_forward_shape_and_normalization(self):
        model = TextClassifier(vocab_size=11, n_classes=2, emb_dim=4,
                               n_filters=3, seed=0)
        (probs,) = model.forward(batch_of([np.array([2, 5, 7, 3])]))
        assert probs.shape == (2,)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()

    def test_classifier_short_sentence_padding(self):
        # Sentences shorter than the largest window still classify.
        model = TextClassifier(vocab_size=11, n_classes=2,
                               window_sizes=(2, 3), seed=0)
        (probs,) = model.forward(batch_of([np.array([4])]))
        assert probs.shape == (2,)
        assert probs.sum() == pytest.approx(1.0)

    def test_tagger_forward_shape(self):
        model = SequenceTagger(vocab_size=11, n_tags=5, emb_dim=4, hidden=6,
                               radius=1, seed=0)
        probs = model.forward(batch_of([np.array([2, 3, 4])]))
        assert probs.shape == (3, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_seed_determinism(self):
        a = TextClassifier(vocab_size=7, n_classes=2, seed=4)
        b = TextClassifier(vocab_size=7, n_classes=2, seed=4)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])
        c = TextClassifier(vocab_size=7, n_classes=2, seed=5)
        assert any((a.params[k] != c.params[k]).any() for k in a.params)

    def test_training_step_reduces_loss(self):
        model = TextClassifier(vocab_size=9, n_classes=2, emb_dim=4,
                               n_filters=3, seed=0)
        ids = batch_of([np.array([2, 3]), np.array([4, 5])])
        targets = np.eye(2)
        opt = Adadelta()
        first = backward_and_step(model, ids, *model._forward_cache(ids), targets, opt)
        for _ in range(60):
            last = backward_and_step(model, ids, *model._forward_cache(ids), targets, opt)
        assert last < first

    def test_gradient_check_small_models(self):
        # Spot check; the exhaustive sweep runs in the acceptance suite.
        cls = TextClassifier(vocab_size=8, n_classes=2, emb_dim=3,
                             window_sizes=(2,), n_filters=2, seed=1)
        report = finite_difference_check(cls, batch_of([np.array([2, 3, 4])]),
                                         np.array([[1.0, 0.0]]))
        assert max(report.values()) < 1e-4

    def test_gradient_check_unsorted_widths_short_sentence(self):
        # The fused conv keeps the features in window_sizes order; the
        # first sentence is shorter than the widest window.  Unit-scale
        # parameters keep the pooled windows apart: the initial ones leave
        # a width-1 maximum within 2e-6 of a zero padding window, where the
        # max is not differentiable at this step size.
        cls = TextClassifier(vocab_size=8, n_classes=2, emb_dim=3,
                             window_sizes=(3, 1), n_filters=2, seed=1)
        rng = np.random.default_rng(0)
        cls.params = {k: rng.normal(size=v.shape) for k, v in cls.params.items()}
        report = finite_difference_check(cls, batch_of([np.array([2, 5]), np.array([4, 0, 3, 6])]),
                                         np.array([[1.0, 0.0], [0.3, 0.7]]))
        assert max(report.values()) < 1e-4

    def test_repeated_widths_rejected(self):
        with pytest.raises(ValueError, match=r"distinct widths; \[2, 3\] repeat"):
            TextClassifier(vocab_size=8, n_classes=2, window_sizes=(2, 3, 4, 2, 3))

    @pytest.mark.parametrize("build, name", [
        (lambda: SequenceTagger(0, 3), "vocab_size"),
        (lambda: SequenceTagger(1, 3), "vocab_size"),
        (lambda: TextClassifier(1, 2), "vocab_size"),
        (lambda: SequenceTagger(10, 3, emb_dim=0), "emb_dim"),
        (lambda: SequenceTagger(10, 3, emb_dim=-1), "emb_dim"),
        (lambda: TextClassifier(10, 2, emb_dim=0), "emb_dim"),
        (lambda: SequenceTagger(10, 3, hidden=0), "hidden"),
        (lambda: TextClassifier(10, 2, n_filters=0), "n_filters"),
    ])
    def test_empty_sizes_rejected_by_name(self, build, name):
        # Each would build a model of uniform outputs, or fail in numpy on
        # a negative dimension.
        with pytest.raises(ValueError, match=f"^{name} must be at least"):
            build()

    def test_forward_reads_the_current_params(self):
        # A replaced block (as load_checkpoint and the best-dev restore
        # do) and an in-place edit (as finite_difference_check does) both
        # show in the next forward.
        model = TextClassifier(vocab_size=9, n_classes=3, emb_dim=3,
                               window_sizes=(3, 1), n_filters=2, seed=1)
        batch = batch_of([np.array([2, 5]), np.array([4, 0, 3, 6, 7])])
        before = model.forward(batch)
        rng = np.random.default_rng(0)
        model.params["conv3_w"] = rng.normal(size=model.params["conv3_w"].shape)
        model.params["conv1_b"][1] += 0.5
        fresh = TextClassifier(vocab_size=9, n_classes=3, emb_dim=3,
                               window_sizes=(3, 1), n_filters=2, seed=2)
        fresh.params = {k: v.copy() for k, v in model.params.items()}
        after = model.forward(batch)
        assert not np.array_equal(after, before)
        np.testing.assert_array_equal(after, fresh.forward(batch))

    def test_nonfinite_gradient_names_its_block(self, monkeypatch):
        model = TextClassifier(vocab_size=8, n_classes=2, emb_dim=3, n_filters=2)
        batch = batch_of([np.array([2, 3, 4])])
        backward = model.backward

        def poisoned(cache, dlogits):
            grads = backward(cache, dlogits)
            grads["conv3_b"][1] = np.inf
            return grads

        monkeypatch.setattr(model, "backward", poisoned)
        before = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(NonFiniteGradientError, match="conv3_b") as info:
            backward_and_step(model, batch, *model._forward_cache(batch),
                              np.array([[1.0, 0.0]]), Adadelta())
        assert info.value.block == "conv3_b"
        for k, v in model.params.items():
            np.testing.assert_array_equal(v, before[k])

    def test_nan_embedding_row_ends_in_nonfinite_gradient(self):
        # A NaN embedding row makes its sentence's pooled maxima NaN, and a
        # NaN equals no window: the backward still finds a window for each,
        # and the step fails by name with the parameters as they were.
        model = TextClassifier(vocab_size=8, n_classes=2, emb_dim=3, window_sizes=(3, 1),
                               n_filters=2)
        model.params["emb"][4] = np.nan
        batch = batch_of([np.array([2, 3]), np.array([5, 4, 6, 7]), np.array([6])])
        before = {k: v.copy() for k, v in model.params.items()}
        with pytest.raises(NonFiniteGradientError, match="'emb'"):
            backward_and_step(model, batch, *model._forward_cache(batch),
                              np.eye(2)[[0, 1, 0]], Adadelta())
        for k, v in model.params.items():
            np.testing.assert_array_equal(v, before[k])

    def test_backward_and_step_rejects_empty(self):
        # An empty batch cannot be built, so no step takes one; nor does a
        # step take no target rows for a batch's outputs.
        model = TextClassifier(vocab_size=8, n_classes=2)
        with pytest.raises(ValueError, match="empty batch"):
            TokenBatch(np.array([], dtype=int), np.array([], dtype=int))
        batch = batch_of([np.array([2, 3])])
        outputs, cache = model._forward_cache(batch)
        with pytest.raises(ValueError, match="shape"):
            backward_and_step(model, batch, outputs, cache, np.zeros((0, 2)), Adadelta())


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestFlatStepMatchesBlocks:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3), min_size=1, max_size=6),
           st.integers(1, 5), st.integers(0, 2**16))
    def test_adadelta_bit_equal_to_per_block(self, shapes, steps, seed):
        rng = np.random.default_rng(seed)
        start = {f"b{i}": rng.normal(size=shape) for i, shape in enumerate(shapes)}
        flat, ref = {k: v.copy() for k, v in start.items()}, {k: v.copy() for k, v in start.items()}
        opt, ref_opt = Adadelta(), RefAdadelta()
        for _ in range(steps):
            grads = {k: rng.normal(size=v.shape) * rng.choice([1e-3, 1.0, 1e3]) for k, v in start.items()}
            opt.step(flat, grads)
            ref_opt.step(ref, grads)
            for k in start:
                assert _bits(flat[k]) == _bits(ref[k]), k

    def test_adadelta_rejects_other_blocks(self):
        params = {"a": np.zeros(3), "b": np.zeros((2, 2))}
        opt = Adadelta()
        opt.step(params, {"a": np.ones(3), "b": np.ones((2, 2))})
        for grads in ({"a": np.ones(3)},
                      {"b": np.ones((2, 2)), "a": np.ones(3)},
                      {"a": np.ones(3), "c": np.ones((2, 2))},
                      {"a": np.ones(3), "b": np.ones((4,))}):
            with pytest.raises(ValueError, match="first step"):
                opt.step(params, grads)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 50), st.integers(1, 5), st.integers(1, 80), st.integers(0, 2**16))
    def test_embedding_grad_bit_equal_to_add_at(self, vocab_size, emb_dim, n_rows, seed):
        rng = np.random.default_rng(seed)
        # Ids drawn from a few of the vocabulary's rows, so most repeat.
        ids = rng.choice(rng.integers(0, vocab_size, size=3), size=n_rows)
        rows = rng.normal(size=(n_rows, emb_dim)) * rng.choice([1e-8, 1.0, 1e8], size=(n_rows, 1))
        got = predictors._embedding_grad(ids, rows, vocab_size)
        assert got.shape == (vocab_size, emb_dim)
        assert _bits(got) == _bits(ref_embedding_grad(ids, rows, vocab_size))


class TestCheckpoint:
    def roundtrip(self, tmp_path, model, extra=None):
        vocab = Vocabulary.build([["alpha", "beta", "gamma"]])
        path = tmp_path / "model.npz"
        save_checkpoint(path, model, vocab, extra=extra)
        return load_checkpoint(path), vocab

    def test_classifier_roundtrip(self, tmp_path):
        model = TextClassifier(vocab_size=5, n_classes=2, emb_dim=3,
                               n_filters=2, seed=7)
        (loaded, vocab2, extra), vocab = self.roundtrip(tmp_path, model)
        assert vocab2.tokens == vocab.tokens
        assert extra == {}
        ids = batch_of([np.array([2, 3, 4])])
        np.testing.assert_allclose(loaded.forward(ids), model.forward(ids),
                                   atol=1e-15)

    def test_unsorted_widths_roundtrip(self, tmp_path):
        model = TextClassifier(vocab_size=5, n_classes=3, emb_dim=3,
                               window_sizes=(3, 1, 2), n_filters=2, seed=7)
        (loaded, _, _), _ = self.roundtrip(tmp_path, model)
        assert loaded.window_sizes == (3, 1, 2)
        assert list(loaded.params) == list(model.params)
        ids = batch_of([np.array([2, 3]), np.array([4, 0, 3, 2])])
        np.testing.assert_array_equal(loaded.forward(ids), model.forward(ids))

    def test_tagger_roundtrip_with_extra(self, tmp_path):
        model = SequenceTagger(vocab_size=5, n_tags=9, radius=1, seed=3)
        meta = {"task": "ner", "categories": ["LOC", "ORG"]}
        (loaded, _, extra), _ = self.roundtrip(tmp_path, model, extra=meta)
        assert extra == meta
        assert loaded.kind == "sequence_tagger"
        assert loaded.n_tags == 9

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_broken_checkpoint_rejected_by_name(self, tmp_path, case):
        # Each break fails on load with a ValueError that names it, not
        # with a KeyError, a TypeError or, for a block of the wrong shape,
        # an IndexError at the first forward.
        model = TextClassifier(vocab_size=5, n_classes=2, emb_dim=3, n_filters=2, seed=7)
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, Vocabulary.build([["alpha", "beta", "gamma"]]))
        corrupt_checkpoint(path, case)
        with pytest.raises(ValueError, match=CHECKPOINT_CORRUPTIONS[case][1]):
            load_checkpoint(path)

    def test_corrupt_kind_rejected(self, tmp_path):
        model = TextClassifier(vocab_size=5, n_classes=2)
        vocab = Vocabulary.build([["x"]])
        path = tmp_path / "m.npz"
        save_checkpoint(path, model, vocab)
        import json

        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays.pop("meta")))
        meta["kind"] = "mystery_model"
        arrays["meta"] = np.array(json.dumps(meta))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ValueError):
            load_checkpoint(path)
