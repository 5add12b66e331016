"""Vocabulary, the two numpy predictors, mixed loss, and checkpoints."""

import numpy as np
import pytest

from ruledistill.predictors import (
    Adadelta,
    MixedTarget,
    NonFiniteGradientError,
    SequenceTagger,
    TextClassifier,
    Vocabulary,
    backward_and_step,
    finite_difference_check,
    load_checkpoint,
    mixed_loss,
    mixed_target_gradient,
    num_params,
    save_checkpoint,
)


class TestVocabulary:
    def test_build_and_encode(self):
        vocab = Vocabulary.build([["a", "b", "a"], ["c", "a"]])
        assert len(vocab) == 5  # pad, unk, a, b, c
        np.testing.assert_array_equal(
            vocab.encode(["a", "zzz", "c"]), [2, 1, vocab.encode(["c"])[0]]
        )

    def test_frequency_then_lexical_order(self):
        vocab = Vocabulary.build([["b", "b", "a", "c", "c"]])
        assert vocab.tokens[2:] == ("b", "c", "a")

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            Vocabulary(("a", "b"))


class TestMixedTarget:
    def test_combined_blend(self):
        t = MixedTarget(
            hard=np.array([1.0, 0.0]), soft=np.array([0.3, 0.7]), pi=0.5
        )
        np.testing.assert_allclose(t.combined(), [0.65, 0.35])

    def test_loss_is_blend_of_cross_entropies(self):
        pred = np.array([0.8, 0.2])
        hard = np.array([1.0, 0.0])
        soft = np.array([0.3, 0.7])
        t = MixedTarget(hard=hard, soft=soft, pi=0.25)
        ce_h = -np.sum(hard * np.log(pred))
        ce_s = -np.sum(soft * np.log(pred))
        assert mixed_loss(pred, t) == pytest.approx(0.75 * ce_h + 0.25 * ce_s)

    def test_gradient_is_pred_minus_blend(self):
        pred = np.array([0.6, 0.4])
        t = MixedTarget(
            hard=np.array([0.0, 1.0]), soft=np.array([0.5, 0.5]), pi=0.4
        )
        np.testing.assert_allclose(
            mixed_target_gradient(pred, t), pred - t.combined()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            MixedTarget(hard=np.array([1.0, 0.0]), pi=0.5)  # pi>0 without soft
        with pytest.raises(ValueError):
            MixedTarget(hard=np.array([0.9, 0.0]))  # not a distribution
        with pytest.raises(ValueError):
            MixedTarget(
                hard=np.array([1.0, 0.0]), soft=np.array([0.5, 0.5]), pi=1.5
            )


class TestModels:
    def test_classifier_forward_shape_and_normalization(self):
        model = TextClassifier(vocab_size=11, n_classes=2, emb_dim=4,
                               n_filters=3, seed=0)
        (probs,) = model.forward([np.array([2, 5, 7, 3])])
        assert probs.shape == (2,)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs > 0).all()

    def test_classifier_short_sentence_padding(self):
        # Sentences shorter than the largest window still classify.
        model = TextClassifier(vocab_size=11, n_classes=2,
                               window_sizes=(2, 3), seed=0)
        (probs,) = model.forward([np.array([4])])
        assert probs.shape == (2,)
        assert probs.sum() == pytest.approx(1.0)

    def test_tagger_forward_shape(self):
        model = SequenceTagger(vocab_size=11, n_tags=5, emb_dim=4, hidden=6,
                               radius=1, seed=0)
        (probs,) = model.forward([np.array([2, 3, 4])])
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
        batch = [
            (np.array([2, 3]), MixedTarget(hard=np.array([1.0, 0.0]))),
            (np.array([4, 5]), MixedTarget(hard=np.array([0.0, 1.0]))),
        ]
        opt = Adadelta()
        first = backward_and_step(model, batch, opt)
        for _ in range(60):
            last = backward_and_step(model, batch, opt)
        assert last < first

    def test_gradient_check_small_models(self):
        # Spot check; the exhaustive sweep runs in the acceptance suite.
        cls = TextClassifier(vocab_size=8, n_classes=2, emb_dim=3,
                             window_sizes=(2,), n_filters=2, seed=1)
        batch = [(np.array([2, 3, 4]), MixedTarget(hard=np.array([1.0, 0.0])))]
        report = finite_difference_check(cls, batch)
        assert max(report.values()) < 1e-4

    def test_backward_and_step_rejects_empty(self):
        model = TextClassifier(vocab_size=8, n_classes=2)
        with pytest.raises(ValueError):
            backward_and_step(model, [], Adadelta())

    def test_num_params(self):
        model = SequenceTagger(vocab_size=5, n_tags=3, emb_dim=2, hidden=4,
                               radius=1)
        expect = 5 * 2 + (3 * 2) * 4 + 4 + 4 * 3 + 3
        assert num_params(model) == expect


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
        ids = [np.array([2, 3, 4])]
        np.testing.assert_allclose(loaded.forward(ids), model.forward(ids),
                                   atol=1e-15)

    def test_tagger_roundtrip_with_extra(self, tmp_path):
        model = SequenceTagger(vocab_size=5, n_tags=9, radius=1, seed=3)
        meta = {"task": "ner", "categories": ["LOC", "ORG"]}
        (loaded, _, extra), _ = self.roundtrip(tmp_path, model, extra=meta)
        assert extra == meta
        assert loaded.kind == "sequence_tagger"
        assert loaded.n_tags == 9

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
