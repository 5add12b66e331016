"""Training loop, evaluation metrics, and the distillation entry points.

Heavy direction-of-effect runs live in the acceptance suite; these tests
exercise mechanics on tiny corpora.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    batch_of_lengths,
    flat,
    indexed_links,
    ref_micro_span_prf,
    ref_spans,
    ref_valid_sequence,
)

from ruledistill.corpus import (
    LabeledSentence,
    TaggedSentence,
    gen_synthetic_ner,
    gen_synthetic_sentiment,
    group_documents,
)
from ruledistill import trainer
from ruledistill.predictors import SequenceTagger, TextClassifier, Vocabulary
from ruledistill.inference import (
    GroupLink,
    GroupTeacherQuery,
    MemberPotentials,
    enumerate_group_posterior,
)
from ruledistill.rulelib import (
    CategoryCollapse,
    TagScheme,
    TransitionRule,
    counterpart_truth_table,
    but_rule,
    detect_but,
    list_counterpart_rule,
    transition_masks,
    transition_rules,
)
from ruledistill.trainer import (
    CLASSIFICATION_SCHEDULE,
    TAGGING_SCHEDULE,
    EvalReport,
    ImitationSchedule,
    NerTeacher,
    SentimentTeacher,
    TrainConfig,
    aggregate_reports,
    evaluate,
    project_after,
    train_distill,
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
            ("conv_windows", (2, 3, 2)),
            ("seed", -1),
        ],
    )
    def test_config_rejects_bad_value(self, field, value):
        # A NaN c would otherwise fail `c > 0` and silently train base mode.
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("setting, value", [
        ("c", math.nan), ("c", -1.0), ("eval_sweeps", 0), ("g_max", 0), ("seed", -1),
    ])
    def test_project_after_rejects_bad_value(self, setting, value):
        settings = {"c": 6.0, "eval_sweeps": 10, "g_max": 8, setting: value}
        with pytest.raises(ValueError, match=f"{setting} must be"):
            project_after(None, None, (), task="sentiment", **settings)


@st.composite
def tagged_corpora(draw):
    """A scheme, gold sentences whose tags also use a category outside it,
    and predicted tag-index paths, valid or not.  One tag stream is built
    from whole entities, corrupted, and cut into sentences, so entities
    also cross sentence ends; the prediction is the gold with some tags
    redrawn, so that both hold complete spans and some of them agree."""
    scheme = TagScheme(("LOC", "ORG"))
    entity = st.sampled_from(("LOC", "ORG", "MISC")).flatmap(
        lambda c: st.integers(0, 3).map(
            lambda n: [f"S-{c}"] if n == 0 else [f"B-{c}"] + [f"I-{c}"] * (n - 1) + [f"E-{c}"]))
    any_tag = st.sampled_from(scheme.tags + tuple(f"{p}-MISC" for p in "BIES"))
    tags = [t for seg in draw(st.lists(st.one_of(st.just(["O"]), entity), min_size=1,
                                       max_size=12)) for t in seg]
    path = [scheme.tags.index(t) if t in scheme.tags else 0 for t in tags]
    for i in draw(st.lists(st.integers(0, len(tags) - 1), max_size=3)):
        tags[i] = draw(any_tag)
    for i in draw(st.lists(st.integers(0, len(tags) - 1), max_size=3)):
        path[i] = draw(st.integers(0, scheme.n_tags - 1))
    cuts = draw(st.sets(st.integers(1, len(tags)), max_size=4)) | {len(tags)}
    bounds = [0] + sorted(cuts)
    sents = [TaggedSentence(tuple(f"w{i}" for i in range(a, b)), tuple(tags[a:b]), 0, k)
             for k, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    return scheme, sents, [np.array(path[a:b]) for a, b in zip(bounds, bounds[1:])]


class TestEvaluate:
    class ConstantClassifier:
        """Predicts class 1 with probability p for every input."""

        kind = "text_classifier"

        def __init__(self, p):
            self.p = p

        def forward(self, batch):
            return np.tile([1.0 - self.p, self.p], (len(batch), 1))

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

            def forward(self, batch):
                # Predict S-LOC, S-LOC, O: one true span, one false
                # positive, one miss.
                out = np.full((3, scheme.n_tags), 1e-6)
                out[0, scheme.tags.index("S-LOC")] = 1.0
                out[1, scheme.tags.index("S-LOC")] = 1.0
                out[2, scheme.tags.index("O")] = 1.0
                return np.tile(out / out.sum(axis=1, keepdims=True), (len(batch), 1))

        report = evaluate(FixedTagger(), gold, task="ner", vocab=vocab,
                          scheme=scheme)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(0.5)
        assert report.validity_rate == 1.0

    @settings(max_examples=200, deadline=None)
    @given(tagged_corpora())
    def test_tag_index_scoring_matches_string_oracle(self, corpus):
        scheme, sents, pred = corpus
        pred_tags = [[scheme.tags[k] for k in path] for path in pred]
        prec, rec, f1 = ref_micro_span_prf([ref_spans(scheme, s.tags) for s in sents],
                                           [ref_spans(scheme, tags) for tags in pred_tags])
        validity = float(np.mean([ref_valid_sequence(scheme, tags) for tags in pred_tags]))
        vocab = Vocabulary.build([s.tokens for s in sents])
        data = trainer.prepare(sents, vocab, scheme)
        assert trainer._tagging_report(data, np.concatenate(pred)) == EvalReport(
            task="ner", n=len(sents), precision=prec, recall=rec, f1=f1, validity_rate=validity)

    @pytest.mark.parametrize("n_tags,categories", [(13, ("LOC", "ORG")), (9, ("LOC", "ORG", "PER"))])
    def test_rejects_student_width_other_than_scheme(self, n_tags, categories):
        from ruledistill.predictors import SequenceTagger, Vocabulary

        data = gen_synthetic_ner(seed=1, n_docs=3)
        vocab = Vocabulary.build([s.tokens for s in data])
        model = SequenceTagger(len(vocab), n_tags, emb_dim=4, hidden=5, seed=0)
        scheme = TagScheme(categories)
        with pytest.raises(ValueError, match=f"outputs {n_tags} tags.*has {scheme.n_tags}"):
            evaluate(model, data, task="ner", vocab=vocab, scheme=scheme)

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

    @pytest.mark.parametrize("mode, rules, unlabeled, match", [
        ("base", RULES, (), "mode 'base' trains without rules"),
        ("distill", RULES, DATA[:5], "not 'distill'"),
        ("project-after", RULES, DATA[:5], "not 'project-after'"),
        ("pipeline", RULES, DATA[:5], "not 'pipeline'"),
        ("base", (), DATA[:5], "not 'base'"),
        ("semi", RULES, (), "mode 'semi' needs unlabeled records"),
    ])
    def test_rejects_a_setting_its_mode_cannot_use(self, monkeypatch, mode, rules,
                                                   unlabeled, match):
        # Each setting the mode would ignore, or run another mode for, fails
        # by the mode's name before any step.
        steps = []
        monkeypatch.setattr(trainer, "backward_and_step", lambda *a, **kw: steps.append(1) or 0.0)
        with pytest.raises(ValueError, match=match):
            train_distill(tiny_config(mode=mode), self.DATA, rules=rules, unlabeled=unlabeled)
        assert not steps

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
        res = train_distill(
            tiny_config(mode="semi"), labeled, rules=self.RULES, unlabeled=unlabeled
        )
        assert res.teacher is not None
        assert len(res.history) == 2

    def test_pipeline_returns_stage2_student(self):
        res = train_distill(
            tiny_config(mode="pipeline", epochs=2), self.DATA, rules=self.RULES
        )
        assert res.teacher is not None
        r = evaluate(res.student, self.DATA, task="sentiment", vocab=res.vocab)
        assert 0.0 <= r.accuracy <= 1.0


class TestSentimentTeacher:
    class ClauseModel:
        """p = [0.5, 0.5] on a full sentence, [0.9, 0.1] on clause B."""

        n_classes = 2

        def forward(self, batch):
            return np.where((batch.lengths == 1)[:, None], [0.9, 0.1], [0.5, 0.5])

    def test_sentence_follows_clause_b(self):
        from ruledistill.predictors import Vocabulary

        tokens = ("dull", "but", "great")
        vocab = Vocabulary.build([tokens])
        # Clause B leans to class 0, and the sentence must follow it.
        teacher = SentimentTeacher(self.ClauseModel(), vocab, (but_rule(confidence=1.0),), 6.0)
        assert teacher.predict_proba(tokens)[0] > 0.9

    def test_rejects_rule_whose_table_misses_a_class(self, monkeypatch):
        # The but rule is two-class: on a three-class corpus, training
        # fails before its first step, not at the first teacher use.
        model = self.ClauseModel()
        model.n_classes = 3
        with pytest.raises(ValueError, match="'but-avg'.*shape \\(2,\\).*3 classes"):
            SentimentTeacher(model, None, (but_rule(confidence=1.0),), 6.0)
        steps = []
        monkeypatch.setattr(trainer, "backward_and_step", lambda *a, **kw: steps.append(1) or 0.0)
        data = [LabeledSentence(s.tokens, i % 3)
                for i, s in enumerate(gen_synthetic_sentiment(seed=11, n=20))]
        with pytest.raises(ValueError, match="3 classes"):
            train_distill(tiny_config(), data, rules=(but_rule(confidence=1.0),))
        assert not steps

    def test_rejects_zero_confidence_rule_by_name(self, monkeypatch):
        # A rule of confidence 0 could never be projected; it fails when the
        # teacher is built, before the first training step.
        with pytest.raises(ValueError, match="'but-avg': confidence must be positive, got 0.0"):
            SentimentTeacher(self.ClauseModel(), None, (but_rule(confidence=0.0),), 6.0)
        steps = []
        monkeypatch.setattr(trainer, "backward_and_step", lambda *a, **kw: steps.append(1) or 0.0)
        data = gen_synthetic_sentiment(seed=11, n=20)
        with pytest.raises(ValueError, match="'but-avg'"):
            train_distill(tiny_config(), data, rules=(but_rule(confidence=0.0),))
        assert not steps

    def test_rejects_rules_it_would_drop(self, monkeypatch):
        # Transition and list rules have no meaning for a sentence label;
        # each is named, and training fails before its first step.
        scheme = TagScheme(("LOC",))
        rules = (but_rule(confidence=1.0),) + tuple(transition_rules(scheme)) + (
            list_counterpart_rule(CategoryCollapse(scheme), confidence=1.0),)
        with pytest.raises(ValueError, match="'bioes-entity-opens'.*'list-counterpart'"):
            SentimentTeacher(None, None, rules, 6.0)
        steps = []
        monkeypatch.setattr(trainer, "backward_and_step", lambda *a, **kw: steps.append(1) or 0.0)
        data = gen_synthetic_sentiment(seed=11, n=20)
        for mode in ("distill", "pipeline"):
            with pytest.raises(ValueError, match="'list-counterpart'"):
                train_distill(tiny_config(mode=mode), data, rules=rules)
        assert not steps


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
        # Without an entity tag there is no scheme to infer.
        untagged = [replace(s, tags=("O",) * len(s.tags)) for s in self.DATA]
        with pytest.raises(ValueError, match="tagging data contains no entity tags"):
            train_distill(self.config(), untagged, rules=self.RULES)

    def test_student_evaluation_reports_validity(self):
        res = train_distill(self.config(mode="base"), self.DATA, rules=())
        report = evaluate(
            res.student, self.DATA, task="ner", vocab=res.vocab, scheme=res.scheme
        )
        assert 0.0 <= report.validity_rate <= 1.0
        assert report.metric() == report.f1

    def test_training_seeds_follow_the_document_index(self, monkeypatch):
        # At g_max = 2 the 3-4 item lists are cut, so stage 1 reads its
        # seeds: document d has seed + 7919 * d, in every epoch and batch,
        # and two runs of one seed train the same student.
        seen = []
        original = trainer.form_groups
        monkeypatch.setattr(trainer, "form_groups", lambda n, links, g_max, seed:
                            seen.append(seed) or original(n, links, g_max, seed))
        config = self.config(g_max=2, seed=5, epochs=3)
        a, b = (train_distill(config, self.DATA, rules=self.RULES) for _ in range(2))
        for k in a.student.params:
            np.testing.assert_array_equal(a.student.params[k], b.student.params[k])
        linked = [d for d, doc in enumerate(group_documents(self.DATA))
                  if trainer._doc_links([s.tokens for s in doc])[1]]
        # Epochs 1 and 2 of each run build the teacher of every document.
        assert len(linked) > 1
        assert sorted(seen) == sorted([5 + 7919 * d for d in linked] * 4)

    def test_list_rules_add_their_confidences(self):
        # Two list rules at lambda 0.4 and 0.6 give the teacher of one at 1.
        base = train_distill(self.config(mode="base"), self.DATA)

        def teacher(*lams):
            rules = tuple(transition_rules(self.SCHEME)) + tuple(
                list_counterpart_rule(CategoryCollapse(self.SCHEME), confidence=lam)
                for lam in lams
            )
            return project_after(base.student, base.vocab, rules, 6.0, "ner",
                                 scheme=base.scheme)

        one, two = teacher(1.0), teacher(0.4, 0.6)
        data = trainer.prepare(self.DATA, base.vocab, base.scheme)
        assert sum(len(links) for _, links in data.rule_inputs) > 0
        for d in range(len(data.docs)):
            ids = data.batch.take(data.docs.positions([d]))
            sigmas = base.student.forward(ids)
            a_doc, b_doc = (t.soft_predict(sigmas, ids, data, [d]) for t in (one, two))
            for a, b in zip(a_doc, b_doc):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    def test_lists_detected_on_teacher_use_and_no_training_decodes(self, monkeypatch):
        calls = {"detect_lists": 0, "chain_map_decode": 0}
        for name in calls:
            original = getattr(trainer, name)

            def counted(*args, _name=name, _original=original, **kw):
                calls[_name] += 1
                return _original(*args, **kw)

            monkeypatch.setattr(trainer, name, counted)
        train_distill(self.config(mode="base"), self.DATA, rules=())
        assert calls == {"detect_lists": 0, "chain_map_decode": 0}
        # Two epochs with pi > 0 build the teacher for every document, but
        # each document's lists are detected once, and no path is decoded.
        train_distill(self.config(epochs=3), self.DATA, rules=self.RULES)
        n_docs = len({s.doc_id for s in self.DATA})
        assert calls == {"detect_lists": n_docs, "chain_map_decode": 0}


@pytest.mark.parametrize("task", ("sentiment", "ner"))
def test_project_after_mode_is_base_then_project_after(task):
    # The project-after mode's student is a base run's, bit for bit, and its
    # teacher scores as project_after's on that student does.
    if task == "sentiment":
        config, data, rules = tiny_config(), TestTrainDistill.DATA, TestTrainDistill.RULES
    else:
        config = tiny_config(task="ner", hidden=6, train_sweeps=20, eval_sweeps=50)
        data, rules = TestTrainNer.DATA, TestTrainNer.RULES
    res = train_distill(replace(config, mode="project-after"), data, rules=rules)
    base = train_distill(replace(config, mode="base"), data)
    assert res.student.params.keys() == base.student.params.keys()
    for k in base.student.params:
        np.testing.assert_array_equal(res.student.params[k], base.student.params[k])
    assert res.history == base.history
    teacher = project_after(base.student, base.vocab, rules, config.c, task,
                            scheme=base.scheme, eval_sweeps=config.eval_sweeps,
                            g_max=config.g_max, seed=config.seed)
    assert evaluate(res.teacher, data, task=task) == evaluate(teacher, data, task=task)


class TestPreparedSet:
    """A prepared set is encoded once, and its rule inputs are detected on
    a teacher's first read and never by a student."""

    SENT = gen_synthetic_sentiment(seed=13, n=40)
    NER = gen_synthetic_ner(seed=13, n_docs=6)
    SCHEME = TagScheme(("LOC", "ORG", "PER"))
    KINDS = ("sentiment student", "sentiment teacher", "ner student", "ner teacher")

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"encode": 0, "detect_but": 0, "detect_lists": 0}
        for owner, name in ((Vocabulary, "encode"), (trainer, "detect_but"),
                            (trainer, "detect_lists")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kw):
                calls[_name] += 1
                return _original(*args, **kw)

            monkeypatch.setattr(owner, name, counted)
        return calls

    def case(self, kind):
        """A predictor of ``kind``, its records, and the vocabulary and
        scheme a student is evaluated with."""
        if kind.startswith("sentiment"):
            vocab = Vocabulary.build([s.tokens for s in self.SENT])
            model = TextClassifier(len(vocab), 2, emb_dim=4, n_filters=3, seed=1)
            teacher = SentimentTeacher(model, vocab, (but_rule(confidence=1.0),), 6.0)
            records, scheme = self.SENT, None
        else:
            vocab = Vocabulary.build([s.tokens for s in self.NER])
            model = SequenceTagger(len(vocab), self.SCHEME.n_tags, emb_dim=4, hidden=5,
                                   radius=1, seed=1)
            rules = tuple(transition_rules(self.SCHEME)) + (
                list_counterpart_rule(CategoryCollapse(self.SCHEME), confidence=1.0),)
            teacher = NerTeacher(model, vocab, self.SCHEME, rules, 6.0, g_max=2, seed=3)
            records, scheme = self.NER, self.SCHEME
        return (teacher if kind.endswith("teacher") else model), records, vocab, scheme

    @pytest.mark.parametrize("kind", KINDS)
    def test_prepared_evaluation_repeats_no_work(self, kind, calls):
        predictor, records, vocab, scheme = self.case(kind)
        raw = evaluate(predictor, records, vocab=vocab, scheme=scheme)
        data = trainer.prepare(records, vocab, scheme)
        # Neither evaluation encodes; the first teacher evaluation detects
        # each rule input once, and the second detects nothing again.
        expect = {"encode": 0, "detect_but": 0, "detect_lists": 0}
        if kind == "sentiment teacher":
            expect["detect_but"] = len(records)
        elif kind == "ner teacher":
            expect["detect_lists"] = len(group_documents(records))
        reports = []
        for _ in range(2):
            calls.update(dict.fromkeys(calls, 0))
            reports.append(evaluate(predictor, data))
            assert calls == expect
            expect = dict.fromkeys(calls, 0)
        assert reports == [raw, raw]

    def test_rule_inputs_stay_lazy(self, calls):
        # Students, in evaluation and in base training with a dev set, read
        # no rule input, so none is detected.
        for kind in ("sentiment student", "ner student"):
            predictor, records, vocab, scheme = self.case(kind)
            evaluate(predictor, records, vocab=vocab, scheme=scheme)
        train_distill(tiny_config(mode="base", epochs=1), self.SENT, dev=self.SENT)
        train_distill(tiny_config(task="ner", mode="base", epochs=1, hidden=5), self.NER,
                      dev=self.NER)
        assert calls["detect_but"] == calls["detect_lists"] == 0

    def test_rejects_a_set_of_another_vocabulary_or_scheme(self):
        teacher, records, vocab, scheme = self.case("ner teacher")
        other = Vocabulary.build([s.tokens for s in records])
        with pytest.raises(ValueError, match="prepared set"):
            evaluate(teacher, trainer.prepare(records, other, scheme))
        with pytest.raises(ValueError, match="prepared set"):
            evaluate(teacher, trainer.prepare(records, vocab, TagScheme(("LOC", "ORG", "X"))))


class TestNerGroupTeacher:
    SCHEME = TagScheme(("LOC", "ORG", "PER"))
    COLLAPSE = CategoryCollapse(SCHEME)
    LINKS = {
        "pair": [((0, 0), (1, 2))],
        "path": [((0, 0), (1, 2)), ((1, 2), (2, 1))],
        "triangle": [((0, 0), (1, 2)), ((1, 2), (2, 1)), ((2, 1), (0, 0))],
    }

    def sigmas(self, seed):
        rng = np.random.default_rng(seed)
        return [rng.dirichlet(np.full(self.SCHEME.n_tags, 0.5), size=3) for _ in range(3)]

    def teacher(self, c=6.0, sweeps=2000, lams=(1.5,)):
        rules = [list_counterpart_rule(self.COLLAPSE, confidence=lam) for lam in lams]
        return NerTeacher(None, None, self.SCHEME, rules, c, sweeps=sweeps)

    def site_marginals(self, teacher, sigmas, links, seed=0):
        """Stage 1's tag marginals of one document's linked sites, by site."""
        p, lengths = flat(sigmas)
        rows, ends, q = teacher._stage1(p, batch_of_lengths(lengths), [len(sigmas)],
                                        [indexed_links(links)], [seed])
        sites = sorted({s for pair in links for s in pair})
        starts = np.cumsum([0] + [len(s) for s in sigmas])
        assert rows.tolist() == [starts[s] + t for s, t in sites]
        assert [(sites[a], sites[b]) for a, b in ends] == list(links)
        return dict(zip(sites, q))

    # split: lambda = 1.5 as two rules of 0.5 and 1.0 instead of one.
    @pytest.mark.parametrize("split", (False, True))
    @pytest.mark.parametrize("links", sorted(LINKS))
    def test_site_marginals_match_tag_level_enumeration(self, links, split):
        links = self.LINKS[links]
        sigmas = self.sigmas(seed=len(links))
        c, lam = 6.0, 1.5
        got = self.site_marginals(self.teacher(c, lams=(0.5, 1.0) if split else (lam,)),
                                  sigmas, links)
        sites = sorted({s for pair in links for s in pair})
        index = {s: i for i, s in enumerate(sites)}
        table = counterpart_truth_table(self.COLLAPSE)
        ref = enumerate_group_posterior(GroupTeacherQuery(
            members=tuple(MemberPotentials(np.log(sigmas[s][t : t + 1])) for s, t in sites),
            links=tuple(GroupLink(index[a], 0, index[b], 0, -c * lam * (1.0 - table))
                        for a, b in links),
        ))
        assert sorted(got) == sites
        for site, marg in zip(sites, ref.marginals):
            np.testing.assert_allclose(got[site], marg[0], rtol=0, atol=1e-12)

    def test_gibbs_fallback_above_the_state_bound(self, monkeypatch):
        links = self.LINKS["triangle"]
        sigmas = self.sigmas(seed=5)
        # Criterion 4's couplings are at most 1 in size; at c * lambda = 9
        # single-site moves stay in one mode and miss the exact answer.
        exact = self.site_marginals(self.teacher(c=0.6, sweeps=4000), sigmas, links)
        sampled = []
        original = trainer.gibbs_soft_predict

        def counted(query):
            sampled.append(len(query.members))
            return original(query)

        monkeypatch.setattr(trainer, "gibbs_soft_predict", counted)
        monkeypatch.setattr(trainer, "EXACT_MAX_STATES", 4**2)
        gibbs = self.site_marginals(self.teacher(c=0.6, sweeps=4000), sigmas, links)
        assert sampled == [3]
        for site, q in exact.items():
            assert 0.5 * np.abs(gibbs[site] - q).sum() <= 0.02

    def test_rejects_model_with_other_tag_count(self):
        from ruledistill.predictors import SequenceTagger

        model = SequenceTagger(5, 9, emb_dim=4, hidden=5, seed=0)
        rules = [list_counterpart_rule(self.COLLAPSE, confidence=1.0)]
        with pytest.raises(ValueError, match="outputs 9 tags.*has 13"):
            NerTeacher(model, None, self.SCHEME, rules, 6.0)
        with pytest.raises(ValueError, match="outputs 9 tags.*has 13"):
            project_after(model, None, rules, 6.0, "ner", scheme=self.SCHEME)

    def test_rejects_rules_of_another_scheme(self, monkeypatch):
        # Rules built for another tag scheme are named with both category
        # lists, when the teacher is built and before training's first step.
        scheme = TagScheme(("LOC",))
        cases = [
            ([list_counterpart_rule(CategoryCollapse(scheme), confidence=1.0)],
             r"'list-counterpart'.*\('LOC',\).*\('LOC', 'ORG', 'PER'\)"),
            (transition_rules(scheme),
             r"'bioes-entity-opens'.*\(5, 5\).*\('LOC', 'ORG', 'PER'\) has 13 tags"),
        ]
        steps = []
        monkeypatch.setattr(trainer, "backward_and_step", lambda *a, **kw: steps.append(1) or 0.0)
        config = TrainConfig(task="ner", epochs=1, emb_dim=4, hidden=4)
        data = gen_synthetic_ner(seed=11, n_docs=4)
        for rules, match in cases:
            with pytest.raises(ValueError, match=match):
                NerTeacher(None, None, self.SCHEME, rules, 6.0)
            with pytest.raises(ValueError, match=match):
                train_distill(config, data, rules=rules)
        assert not steps

    def test_rejects_per_instance_rule(self, monkeypatch):
        # The tagging teacher reads only transition and list rules: a
        # but-rule is named, and training fails before its first step.
        rules = (list_counterpart_rule(self.COLLAPSE, confidence=1.0), but_rule(confidence=1.0))
        with pytest.raises(ValueError, match="'but-avg'"):
            NerTeacher(None, None, self.SCHEME, rules, 6.0)
        steps = []
        monkeypatch.setattr(trainer, "backward_and_step", lambda *a, **kw: steps.append(1) or 0.0)
        config = TrainConfig(task="ner", epochs=1, emb_dim=4, hidden=4)
        with pytest.raises(ValueError, match="'but-avg'"):
            train_distill(config, gen_synthetic_ner(seed=11, n_docs=4), rules=rules)
        assert not steps


class TestNerChainTerms:
    SCHEME = TagScheme(("LOC", "ORG", "PER"))

    def terms(self, rules, c=6.0):
        return NerTeacher(None, None, self.SCHEME, rules, c).chain_terms

    def test_transition_rules_give_the_masks_bit_for_bit(self):
        masks = transition_masks(self.SCHEME)
        for got, valid in zip(self.terms(transition_rules(self.SCHEME)),
                              (masks.valid_pair, masks.valid_start, masks.valid_end)):
            expected = np.where(valid, 0.0, -math.inf)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_each_rule_read_from_its_own_groundings(self):
        # A rule whose tables are all ones puts no term on the chain.
        k = self.SCHEME.n_tags
        nothing = TransitionRule("anything", 0.5, np.ones((k, k)), np.ones(k), np.ones(k))
        for term in self.terms([nothing]):
            assert not term.any()
        # Soft copies of the two transition rules at their own confidences:
        # each table's penalty -c * lambda * (1 - truth), summed.
        opens, closes = transition_rules(self.SCHEME)
        soft = [replace(opens, confidence=0.5), replace(closes, confidence=0.25)]
        pair, start, end = self.terms(soft)
        np.testing.assert_array_equal(
            pair, -6.0 * 0.5 * (1.0 - opens.pair) - 6.0 * 0.25 * (1.0 - closes.pair))
        masks = transition_masks(self.SCHEME)
        np.testing.assert_array_equal(start, np.where(masks.valid_start, 0.0, -3.0))
        np.testing.assert_array_equal(end, np.where(masks.valid_end, 0.0, -1.5))
