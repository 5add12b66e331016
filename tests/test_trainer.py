"""Training loop, evaluation metrics, and the distillation entry points.

Heavy direction-of-effect runs live in the acceptance suite; these tests
exercise mechanics on tiny corpora.
"""

import math

import numpy as np
import pytest

from ruledistill.corpus import (
    TaggedSentence,
    gen_synthetic_ner,
    gen_synthetic_sentiment,
)
from ruledistill.rulelib import (
    CategoryCollapse,
    TagScheme,
    but_rule,
    detect_but,
    list_counterpart_rule,
    transition_rules,
)
from ruledistill.trainer import (
    CLASSIFICATION_SCHEDULE,
    TAGGING_SCHEDULE,
    EvalReport,
    ImitationSchedule,
    SentimentTeacher,
    TrainConfig,
    aggregate_reports,
    evaluate,
    pipeline_distill,
    project_after,
    train_distill,
    train_semi,
)


class TestSchedule:
    def test_defaults_per_task(self):
        assert TrainConfig(task="sentiment").resolved_schedule() == (
            CLASSIFICATION_SCHEDULE
        )
        assert TrainConfig(task="ner").resolved_schedule() == TAGGING_SCHEDULE
        override = ImitationSchedule(0.3, 0.9)
        assert TrainConfig(schedule=override).resolved_schedule() == override

    def test_validation(self):
        with pytest.raises(ValueError):
            ImitationSchedule(1.2, 0.9)
        with pytest.raises(ValueError):
            ImitationSchedule(0.5, 0.0)
        with pytest.raises(ValueError):
            TrainConfig(task="parsing")
        with pytest.raises(ValueError):
            TrainConfig(mode="finetune")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("c", math.nan),
            ("c", math.inf),
            ("c", -1.0),
            ("g_max", 0),
            ("train_sweeps", 0),
            ("eval_sweeps", 0),
            ("patience", 0),
            ("emb_dim", 0),
            ("n_filters", 0),
            ("hidden", 0),
            ("radius", -1),
            ("conv_windows", ()),
            ("conv_windows", (2, 0)),
        ],
    )
    def test_config_rejects_bad_value(self, field, value):
        # A NaN c would otherwise fail `c > 0` and silently train base mode.
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestEvaluate:
    class ConstantClassifier:
        """Predicts class 1 with probability p for every input."""

        kind = "text_classifier"

        def __init__(self, p):
            self.p = p

        def forward(self, ids):
            return np.array([1.0 - self.p, self.p])

    def test_classification_accuracy(self):
        from ruledistill.predictors import Vocabulary

        data = gen_synthetic_sentiment(seed=0, n=40)
        vocab = Vocabulary.build([s.tokens for s in data])
        frac_pos = sum(s.label for s in data) / len(data)
        report = evaluate(
            self.ConstantClassifier(0.9), data, task="sentiment", vocab=vocab
        )
        assert report.task == "sentiment" and report.n == 40
        assert report.accuracy == pytest.approx(frac_pos)
        assert report.metric() == report.accuracy

    def test_tagging_span_f1_hand_computed(self):
        from ruledistill.predictors import Vocabulary

        scheme = TagScheme(("LOC",))
        gold = [TaggedSentence(("a", "b", "c"), ("S-LOC", "O", "S-LOC"))]
        vocab = Vocabulary.build([("a", "b", "c")])

        class FixedTagger:
            kind = "sequence_tagger"
            n_tags = scheme.n_tags

            def forward(self, ids):
                # Predict S-LOC, S-LOC, O: one true span, one false
                # positive, one miss.
                out = np.full((3, scheme.n_tags), 1e-6)
                out[0, scheme.index("S-LOC")] = 1.0
                out[1, scheme.index("S-LOC")] = 1.0
                out[2, scheme.index("O")] = 1.0
                return out / out.sum(axis=1, keepdims=True)

        report = evaluate(FixedTagger(), gold, task="ner", vocab=vocab,
                          scheme=scheme)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(0.5)
        assert report.validity_rate == 1.0

    def test_aggregate_reports(self):
        reports = [
            EvalReport(task="sentiment", n=10, accuracy=0.8),
            EvalReport(task="sentiment", n=10, accuracy=0.6),
        ]
        agg = aggregate_reports(reports)
        assert agg["accuracy"][0] == pytest.approx(0.7)
        assert agg["accuracy"][1] == pytest.approx(0.1)  # population std
        assert "f1" not in agg


def tiny_config(**kw):
    defaults = dict(
        task="sentiment",
        mode="distill",
        epochs=2,
        batch_size=8,
        emb_dim=4,
        n_filters=3,
        seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainDistill:
    DATA = gen_synthetic_sentiment(seed=11, n=60)
    RULES = (but_rule(confidence=1.0, variant="avg"),)

    def test_result_structure(self):
        res = train_distill(tiny_config(), self.DATA, rules=self.RULES)
        assert res.scheme is None
        assert len(res.history) == 2
        for i, row in enumerate(res.history):
            assert row["epoch"] == i
            assert 0.0 <= row["pi"] <= 1.0
            assert np.isfinite(row["train_loss"])
        # pi follows the resolved schedule: the first epoch trains at
        # pi(0) = 0.
        assert res.history[0]["pi"] == 0.0

    def test_deterministic(self):
        a = train_distill(tiny_config(), self.DATA, rules=self.RULES)
        b = train_distill(tiny_config(), self.DATA, rules=self.RULES)
        for k in a.student.params:
            np.testing.assert_array_equal(a.student.params[k], b.student.params[k])
        c = train_distill(tiny_config(seed=1), self.DATA, rules=self.RULES)
        assert any(
            (a.student.params[k] != c.student.params[k]).any()
            for k in a.student.params
        )

    def test_base_mode_has_no_teacher(self):
        res = train_distill(tiny_config(mode="base"), self.DATA, rules=())
        assert res.teacher is None

    def test_dev_history_and_early_stop(self):
        dev = gen_synthetic_sentiment(seed=12, n=30)
        res = train_distill(
            tiny_config(epochs=3), self.DATA, rules=self.RULES, dev=dev
        )
        assert all("dev_metric" in row for row in res.history)

    def test_project_after_no_rules_matches_student(self):
        res = train_distill(tiny_config(mode="base"), self.DATA, rules=())
        teacher = project_after(
            res.student, res.vocab, (), 6.0, "sentiment", scheme=None
        )
        r_student = evaluate(
            res.student, self.DATA, task="sentiment", vocab=res.vocab
        )
        r_teacher = evaluate(teacher, self.DATA, task="sentiment")
        assert r_student.accuracy == r_teacher.accuracy

    def test_infeasible_projections_counted(self):
        # A hard but-rule excludes both labels whenever clause B's
        # probability lies strictly inside (0, 1), so every A-but-B sentence
        # of the one epoch with pi > 0 is left at p and counted.
        res = train_distill(
            tiny_config(), self.DATA, rules=(but_rule(confidence=math.inf),)
        )
        n_but = sum(detect_but(s.tokens) is not None for s in self.DATA)
        assert n_but > 0
        assert res.diagnostics == {"infeasible_instances": n_but}

    def test_semi_consumes_unlabeled(self):
        labeled = self.DATA[:20]
        unlabeled = self.DATA[20:]
        res = train_semi(
            tiny_config(mode="semi"), labeled, unlabeled, rules=self.RULES
        )
        assert res.teacher is not None
        assert len(res.history) == 2

    def test_pipeline_returns_stage2_student(self):
        res = pipeline_distill(
            tiny_config(mode="pipeline", epochs=2), self.DATA, rules=self.RULES
        )
        assert res.teacher is not None
        r = evaluate(res.student, self.DATA, task="sentiment", vocab=res.vocab)
        assert 0.0 <= r.accuracy <= 1.0


class TestSentimentTeacher:
    class ClauseModel:
        """p = [0.5, 0.5] on a full sentence, [0.9, 0.1] on clause B."""

        def forward(self, ids):
            return np.array([0.9, 0.1]) if len(ids) == 1 else np.array([0.5, 0.5])

    def test_positive_class_comes_from_the_but_rule(self):
        from ruledistill.predictors import Vocabulary

        tokens = ("dull", "but", "great")
        vocab = Vocabulary.build([tokens])
        for positive in (0, 1):
            # Clause B leans to class 0 and the sentence must follow it,
            # whichever class the rule calls positive.
            rule = but_rule(confidence=1.0, positive_class=positive)
            teacher = SentimentTeacher(self.ClauseModel(), vocab, (rule,), 6.0)
            assert teacher.predict_proba(tokens)[0] > 0.9


class TestTrainNer:
    DATA = gen_synthetic_ner(seed=11, n_docs=8)
    SCHEME = TagScheme(("LOC", "ORG", "PER"))
    RULES = tuple(transition_rules(SCHEME)) + (
        list_counterpart_rule(CategoryCollapse(SCHEME), confidence=1.0),
    )

    def config(self, **kw):
        defaults = dict(
            task="ner",
            mode="distill",
            epochs=2,
            batch_size=8,
            emb_dim=4,
            hidden=6,
            train_sweeps=20,
            eval_sweeps=50,
            seed=0,
        )
        defaults.update(kw)
        return TrainConfig(**defaults)

    def test_scheme_inferred_and_teacher_valid(self):
        res = train_distill(self.config(), self.DATA, rules=self.RULES)
        assert res.scheme == self.SCHEME
        report = evaluate(res.teacher, self.DATA, task="ner")
        # Hard transition rules make every teacher decode BIOES-valid.
        assert report.validity_rate == 1.0

    def test_student_evaluation_reports_validity(self):
        res = train_distill(self.config(mode="base"), self.DATA, rules=())
        report = evaluate(
            res.student, self.DATA, task="ner", vocab=res.vocab, scheme=res.scheme
        )
        assert 0.0 <= report.validity_rate <= 1.0
        assert report.metric() == report.f1
