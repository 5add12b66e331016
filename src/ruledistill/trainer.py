"""The iterative distillation loop and its evaluation harness.

Each epoch t (the imitation index advances per epoch) every minibatch is
processed as: forward the student p on the batch, build the teacher q by
projecting p onto the rule set, extract q's per-instance soft predictions,
and take one mixed-loss gradient step where the SAME instances feed the
hard-label and the imitation term.

Teacher construction is routed by rule scope: per-instance rules become
single-position projections, bigram rules become chain potentials, and
cross-instance rules become Gibbs groups over the linked sites whose
marginals then enter the per-sentence chains as extra unary penalties.
That last composition keeps hard transition constraints out of the
sampler (see the inference module note on ergodicity) while still letting
list information flow into every decoded sequence.

Modes: plain supervised (base), distillation, semi-supervised
distillation (imitation term additionally on unlabeled batches),
evaluation-time-only projection, and a two-stage pipeline that trains a
fresh student against a frozen projected teacher.  A distillation run
with C = 0 or an empty rule set takes the base code path outright, so its
parameter trajectory is bit-identical to a base run with the same seed.

Every mode runs through one epoch loop over a per-task driver, which
supplies an epoch's batches and each batch's mixed targets.  Each task has
one teacher class, which builds the training targets and is deployed for
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import LabeledSentence, TaggedSentence, detect_lists, group_documents
from .inference import (
    ChainTeacherQuery,
    GroupLink,
    MemberPotentials,
    chain_map_decode,
    chain_marginals,
    form_groups,
    gibbs_soft_predict,
)
from .predictors import (
    Adadelta,
    MixedTarget,
    SequenceTagger,
    TextClassifier,
    Vocabulary,
    backward_and_step,
)
from .projection import (
    InfeasibleConstraintError,
    ProjectionProblem,
    project,
)
from .rulelib import (
    CategoryCollapse,
    Rule,
    TagScheme,
    detect_but,
    list_rule_truth,
    transition_masks,
)

__all__ = [
    "ImitationSchedule",
    "CLASSIFICATION_SCHEDULE",
    "TAGGING_SCHEDULE",
    "TrainConfig",
    "EvalReport",
    "aggregate_reports",
    "TrainResult",
    "SentimentTeacher",
    "NerTeacher",
    "train_distill",
    "train_semi",
    "project_after",
    "pipeline_distill",
    "evaluate",
]


# --- imitation schedule ------------------------------------------------------


@dataclass(frozen=True)
class ImitationSchedule:
    """pi(t) = min(pi0, 1 - alpha^t): 0 at t=0, non-decreasing, capped."""

    pi0: float
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError("pi0 must lie in [0, 1]")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    def rate(self, t: int) -> float:
        if t < 0:
            raise ValueError("iteration index must be >= 0")
        return min(self.pi0, 1.0 - self.alpha**t)


CLASSIFICATION_SCHEDULE = ImitationSchedule(pi0=1.0, alpha=0.95)
TAGGING_SCHEDULE = ImitationSchedule(pi0=0.9, alpha=0.9)


# --- configuration -----------------------------------------------------------

_MODES = ("base", "distill", "semi", "project-after", "pipeline")


@dataclass(frozen=True)
class TrainConfig:
    task: str = "sentiment"  # "sentiment" | "ner"
    mode: str = "distill"
    c: float = 6.0
    schedule: Optional[ImitationSchedule] = None  # task default when None
    epochs: int = 20
    batch_size: int = 32
    seed: int = 0
    g_max: int = 8
    train_sweeps: int = 200
    eval_sweeps: int = 2000
    patience: int = 5
    emb_dim: int = 32
    n_filters: int = 16
    conv_windows: tuple[int, ...] = (2, 3)
    hidden: int = 32
    radius: int = 2

    def __post_init__(self):
        if self.task not in ("sentiment", "ner"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.c) and self.c >= 0):
            raise ValueError(f"c must be finite and nonnegative, got {self.c}")
        for name in ("epochs", "batch_size", "g_max", "train_sweeps", "eval_sweeps",
                     "patience", "emb_dim", "n_filters", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")
        if not self.conv_windows or min(self.conv_windows) < 1:
            raise ValueError(f"conv_windows must be nonempty widths >= 1, got {self.conv_windows}")

    def resolved_schedule(self) -> ImitationSchedule:
        if self.schedule is not None:
            return self.schedule
        return CLASSIFICATION_SCHEDULE if self.task == "sentiment" else TAGGING_SCHEDULE


# --- evaluation report -------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    """Metrics for one model on one dataset.  Classification reports
    accuracy; tagging reports exact-span micro P/R/F1 plus the fraction of
    BIOES-valid decoded sequences."""

    task: str
    n: int
    accuracy: Optional[float] = None
    precision: Optional[float] = None
    recall: Optional[float] = None
    f1: Optional[float] = None
    validity_rate: Optional[float] = None

    def metric(self) -> float:
        return self.accuracy if self.task == "sentiment" else self.f1

    def as_dict(self) -> dict[str, float]:
        out = {"n": self.n}
        for key in ("accuracy", "precision", "recall", "f1", "validity_rate"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


def aggregate_reports(reports: Sequence[EvalReport]) -> dict[str, tuple[float, float]]:
    """Per-metric (mean, population stddev) across seeds."""
    if not reports:
        return {}
    out = {}
    for key in ("accuracy", "precision", "recall", "f1", "validity_rate"):
        vals = [getattr(r, key) for r in reports if getattr(r, key) is not None]
        if vals:
            arr = np.array(vals, dtype=float)
            out[key] = (float(arr.mean()), float(arr.std()))
    return out


def _micro_span_prf(gold_spans, pred_spans) -> tuple[float, float, float]:
    tp = fp = fn = 0
    for g, p in zip(gold_spans, pred_spans):
        gset, pset = set(g), set(p)
        tp += len(gset & pset)
        fp += len(pset - gset)
        fn += len(gset - pset)
    prec = tp / (tp + fp) if tp + fp else 1.0
    rec = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


# --- rule routing ------------------------------------------------------------


def _split_rules(rules: Sequence[Rule]):
    per_instance = [r for r in rules if r.scope == "per-instance"]
    bigram = [r for r in rules if r.scope == "bigram"]
    cross = [r for r in rules if r.scope == "cross-instance"]
    for r in cross:
        if r.hard:
            raise ValueError(
                f"rule {r.name!r}: cross-instance rules must have finite "
                "confidence (the sampler needs soft couplings)"
            )
    return per_instance, bigram, cross


# --- sentiment teacher -------------------------------------------------------


class SentimentTeacher:
    """The classification teacher: projects the student's output through
    the per-instance rules.  Instances without an A-but-B structure are
    left at the student distribution.  Training reads ``soft_predict`` on
    encoded ids; evaluation reads ``predict_proba`` on tokens."""

    def __init__(self, model, vocab: Vocabulary, rules: Sequence[Rule], c: float):
        self.model = model
        self.vocab = vocab
        self.rules, _, _ = _split_rules(rules)
        self.c = float(c)
        # Projections left at p because the hard rules exclude every label.
        self.infeasible = 0

    def soft_predict(self, ids, clause_b_ids) -> np.ndarray:
        """Teacher distribution for one encoded sentence; ``clause_b_ids``
        is None when the sentence has no A-but-B structure."""
        sigma = self.model.forward(ids)
        if clause_b_ids is None or not self.rules:
            return sigma
        payload = [self.model.forward(clause_b_ids)]
        groundings = tuple(
            (rule.confidence, g.table)
            for rule in self.rules
            for g in rule.groundings(payload)
        )
        try:
            return project(ProjectionProblem(np.log(sigma), groundings, self.c)).probs()
        except InfeasibleConstraintError:
            self.infeasible += 1
            return sigma

    def predict_proba(self, tokens) -> np.ndarray:
        st = detect_but(tokens)
        clause = None if st is None else self.vocab.encode(st.clause_b)
        return self.soft_predict(self.vocab.encode(tokens), clause)

    def predict_label(self, tokens) -> int:
        return int(np.argmax(self.predict_proba(tokens)))


# --- NER teacher -------------------------------------------------------------


def _transition_log_terms(scheme: TagScheme, confidence: float, c: float):
    """Chain potentials for the BIOES transition rules: 0 where valid,
    -c*confidence (or -inf when hard) where invalid."""
    masks = transition_masks(scheme)
    bad = -math.inf if math.isinf(confidence) else -c * confidence
    pair = np.where(masks.valid_pair, 0.0, bad)
    start = np.where(masks.valid_start, 0.0, bad)
    end = np.where(masks.valid_end, 0.0, bad)
    return pair, start, end


def _doc_links(doc_tokens: Sequence[Sequence[str]]):
    """Counterpart site pairs ((sent, pos), (sent, pos)) from detected
    lists, linking the first tokens of positionally aligned blocks."""
    links = []
    for group in detect_lists(doc_tokens):
        items = group.items
        for (ia, k), (ib, _) in group.counterpart_pairs():
            a = (items[ia].sent_index, items[ia].blocks[k][0])
            b = (items[ib].sent_index, items[ib].blocks[k][0])
            if a != b:
                links.append((a, b))
    return links


class NerTeacher:
    """The tagging teacher: the chain+group teacher built from the
    student's probabilities.

    Stage 1: Gibbs over the cross-linked sites (unaries from the student)
    yields site marginals.  Stage 2: per-sentence chains with transition
    potentials plus, at linked sites, unary penalties measuring the list
    rule against the counterparts' stage-1 marginals.  At evaluation the
    counterpart links come from the evaluated document itself.
    """

    def __init__(self, model, vocab: Vocabulary, scheme: TagScheme,
                 rules: Sequence[Rule], c: float, sweeps: int = 2000,
                 g_max: int = 8, seed: int = 0):
        self.model = model
        self.vocab = vocab
        self.scheme = scheme
        self.seed = seed
        _, self.bigram, self.cross = _split_rules(rules)
        self.collapse = CategoryCollapse(scheme)
        self.c = float(c)
        self.sweeps = sweeps
        self.g_max = g_max
        if self.bigram:
            conf = self.bigram[0].confidence
            self.chain_terms = _transition_log_terms(scheme, conf, self.c)
        else:
            self.chain_terms = None

    def _site_marginals(self, log_sigmas, site_links, seed: int):
        """Gibbs marginals for every linked site; {} when no cross rule."""
        if not self.cross or not site_links or self.c == 0.0:
            return {}
        sites = sorted({s for pair in site_links for s in pair})
        index = {s: i for i, s in enumerate(sites)}
        members = [
            MemberPotentials(log_unary=log_sigmas[s][t : t + 1]) for s, t in sites
        ]
        glinks = []
        for rule in self.cross:
            for g in rule.groundings(site_links):
                a, b = g.sites
                glinks.append(
                    GroupLink(
                        member_a=index[a],
                        pos_a=0,
                        member_b=index[b],
                        pos_b=0,
                        log_table=-self.c * rule.confidence * (1.0 - g.table),
                    )
                )
        out = {}
        for query in form_groups(
            members, glinks, g_max=self.g_max, seed=seed, sweeps=self.sweeps
        ):
            for marg, mid in zip(gibbs_soft_predict(query), query.member_ids):
                out[sites[mid]] = marg[0]
        return out

    def _list_penalties(self, site_links, marginals):
        """Per-site unary penalty vectors from counterpart marginals."""
        pens: dict[tuple[int, int], np.ndarray] = {}
        if not marginals:
            return pens
        k = self.scheme.n_tags
        lam = self.cross[0].confidence
        for a, b in site_links:
            for site, other in ((a, b), (b, a)):
                mu = marginals.get(other)
                if mu is None:
                    continue
                truths = np.array(
                    [
                        float(list_rule_truth(self.collapse, tag, mu))
                        for tag in self.scheme.tags
                    ]
                )
                pens.setdefault(site, np.zeros(k))
                pens[site] += self.c * lam * (1.0 - truths)
        return pens

    def infer(self, doc_ids, site_links, seed: int):
        """Per-sentence (marginals, decoded path) for one encoded document."""
        log_sigmas = [np.log(self.model.forward(ids)) for ids in doc_ids]
        marginals = self._site_marginals(log_sigmas, site_links, seed)
        pens = self._list_penalties(site_links, marginals)
        results = []
        for s_idx, log_sigma in enumerate(log_sigmas):
            log_unary = log_sigma.copy()
            for (site_s, site_t), pen in pens.items():
                if site_s == s_idx:
                    log_unary[site_t] -= pen
            if self.chain_terms is not None:
                pair, start, end = self.chain_terms
                query = ChainTeacherQuery(
                    log_unary=log_unary, log_pair=pair, log_start=start, log_end=end
                )
            else:
                query = ChainTeacherQuery(log_unary=log_unary)
            results.append((chain_marginals(query), chain_map_decode(query)[0]))
        return results

    def decode_doc(self, doc_tokens: Sequence[Sequence[str]], doc_seed: int = 0):
        doc_ids = [self.vocab.encode(toks) for toks in doc_tokens]
        results = self.infer(doc_ids, _doc_links(doc_tokens), doc_seed)
        return [[self.scheme.tags[k] for k in path] for _, path in results]

    def predict_tags(self, docs: Sequence[Sequence[TaggedSentence]]):
        out = []
        for d_idx, doc in enumerate(docs):
            tokens = [s.tokens for s in doc]
            # Per-document seed keeps repeat evaluations identical.
            out.append(self.decode_doc(tokens, doc_seed=self.seed + 7919 * d_idx))
        return out


# --- generic evaluation ------------------------------------------------------


def _predict_sentiment_labels(predictor, vocab, dataset):
    labels = []
    for s in dataset:
        if isinstance(predictor, SentimentTeacher):
            labels.append(predictor.predict_label(s.tokens))
        else:
            labels.append(int(np.argmax(predictor.forward(vocab.encode(s.tokens)))))
    return labels


def evaluate(predictor, dataset, task: Optional[str] = None,
             vocab: Optional[Vocabulary] = None,
             scheme: Optional[TagScheme] = None) -> EvalReport:
    """Score a student model or teacher evaluator on a dataset.

    Students need ``vocab`` (and ``scheme`` for tagging); teachers carry
    their own.  The task is inferred from the record type when omitted.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("empty evaluation dataset")
    if task is None:
        task = "sentiment" if isinstance(dataset[0], LabeledSentence) else "ner"

    if task == "sentiment":
        if isinstance(predictor, SentimentTeacher):
            vocab = predictor.vocab
        if vocab is None:
            raise ValueError("student evaluation needs a vocabulary")
        labels = _predict_sentiment_labels(predictor, vocab, dataset)
        acc = float(np.mean([p == s.label for p, s in zip(labels, dataset)]))
        return EvalReport(task="sentiment", n=len(dataset), accuracy=acc)

    docs = group_documents(dataset)
    if isinstance(predictor, NerTeacher):
        scheme = predictor.scheme
        pred_docs = predictor.predict_tags(docs)
    else:
        if vocab is None or scheme is None:
            raise ValueError("student tagging evaluation needs vocab and scheme")
        pred_docs = []
        for doc in docs:
            pred_docs.append(
                [
                    [scheme.tags[k] for k in
                     np.argmax(predictor.forward(vocab.encode(s.tokens)), axis=1)]
                    for s in doc
                ]
            )
    gold_spans, pred_spans, valid = [], [], []
    for doc, preds in zip(docs, pred_docs):
        for sent, ptags in zip(doc, preds):
            gold_spans.append(scheme.spans(sent.tags))
            pred_spans.append(scheme.spans(ptags))
            valid.append(scheme.valid_sequence(ptags))
    prec, rec, f1 = _micro_span_prf(gold_spans, pred_spans)
    return EvalReport(
        task="ner",
        n=len(dataset),
        precision=prec,
        recall=rec,
        f1=f1,
        validity_rate=float(np.mean(valid)),
    )


# --- training ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrainResult:
    student: object
    teacher: Optional[object]
    vocab: Vocabulary
    scheme: Optional[TagScheme]
    history: tuple[dict, ...]
    diagnostics: dict


def _one_hot(k: int, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[k] = 1.0
    return v


@dataclass(frozen=True, eq=False)
class _Unit:
    """What one shuffle moves: a sentence for classification, a whole
    document for tagging (so every teacher group is built in full).
    ``ids`` and ``hard`` hold one entry per sentence; ``rule_input`` is
    what the teacher reads besides the ids (clause-B ids, list links)."""

    ids: list
    hard: list
    rule_input: object = None


class _Driver:
    """Task plumbing for the training loop: the batches of an epoch and the
    (ids, MixedTarget) list of one batch.  Subclasses supply the units and
    ``soft_targets(teacher, unit)``, one teacher target per sentence."""

    scheme: Optional[TagScheme] = None

    def __init__(self, config: TrainConfig, units, u_units=()):
        self.config = config
        self.units = units
        self.u_units = list(u_units)
        # Seeds the tagging teacher's Gibbs runs, one draw per document.
        self.teacher_rng = np.random.default_rng((config.seed, 2))

    def _split(self, order, units):
        """Shuffled unit indices in batches of about batch_size sentences."""
        batches, cur, count = [], [], 0
        for u in order:
            n = len(units[int(u)].ids)
            if cur and count + n > self.config.batch_size:
                batches.append(cur)
                cur, count = [], 0
            cur.append(int(u))
            count += n
        if cur:
            batches.append(cur)
        return batches

    def batches(self, rng, pi: float):
        """One epoch's batches; unlabeled ones join only while pi > 0."""
        plan = [("L", b) for b in self._split(rng.permutation(len(self.units)), self.units)]
        if pi > 0.0 and self.u_units:
            plan += [
                ("U", b)
                for b in self._split(rng.permutation(len(self.u_units)), self.u_units)
            ]
            rng.shuffle(plan)
        return plan

    def targets(self, teacher, batch, pi: float):
        """The batch's (ids, MixedTarget) list and its loss scale.
        Unlabeled batches carry only the imitation term, weighted by pi."""
        kind, idxs = batch
        items = []
        for u in idxs:
            unit = (self.units if kind == "L" else self.u_units)[u]
            soft = self.soft_targets(teacher, unit) if pi > 0.0 else None
            for k, ids in enumerate(unit.ids):
                if kind == "U":
                    target = MixedTarget(hard=soft[k])
                elif soft is None:
                    target = MixedTarget(hard=unit.hard[k])
                else:
                    target = MixedTarget(hard=unit.hard[k], soft=soft[k], pi=pi)
                items.append((ids, target))
        return items, (pi if kind == "U" else 1.0)


class _SentimentDriver(_Driver):
    def __init__(self, config: TrainConfig, train, unlabeled=()):
        train, unlabeled = list(train), list(unlabeled)
        self.n_classes = max(2, max(s.label for s in train) + 1)
        self.vocab = Vocabulary.build([s.tokens for s in train + unlabeled])
        super().__init__(
            config,
            [self._unit(s, _one_hot(s.label, self.n_classes)) for s in train],
            [self._unit(s, None) for s in unlabeled],
        )

    def _unit(self, sentence, hard):
        st = detect_but(sentence.tokens)
        clause = None if st is None else self.vocab.encode(st.clause_b)
        return _Unit([self.vocab.encode(sentence.tokens)], [hard], clause)

    def init_model(self, seed: int):
        cfg = self.config
        return TextClassifier(
            len(self.vocab),
            self.n_classes,
            emb_dim=cfg.emb_dim,
            window_sizes=cfg.conv_windows,
            n_filters=cfg.n_filters,
            seed=seed,
        )

    def soft_targets(self, teacher, unit):
        return [teacher.soft_predict(unit.ids[0], unit.rule_input)]


class _NerDriver(_Driver):
    def __init__(self, config: TrainConfig, train, unlabeled=()):
        docs = group_documents(list(train))
        u_docs = group_documents(list(unlabeled))
        cats = sorted(
            {t.split("-", 1)[1] for doc in docs + u_docs for s in doc for t in s.tags if t != "O"}
        )
        self.scheme = TagScheme(tuple(cats))
        self.vocab = Vocabulary.build([s.tokens for doc in docs + u_docs for s in doc])
        super().__init__(config, [self._unit(d) for d in docs], [self._unit(d) for d in u_docs])

    def _unit(self, doc):
        k = self.scheme.n_tags
        return _Unit(
            [self.vocab.encode(s.tokens) for s in doc],
            [np.stack([_one_hot(self.scheme.index(t), k) for t in s.tags]) for s in doc],
            _doc_links([s.tokens for s in doc]),
        )

    def init_model(self, seed: int):
        cfg = self.config
        return SequenceTagger(
            len(self.vocab),
            self.scheme.n_tags,
            emb_dim=cfg.emb_dim,
            hidden=cfg.hidden,
            radius=cfg.radius,
            seed=seed,
        )

    def soft_targets(self, teacher, unit):
        seed = int(self.teacher_rng.integers(2**31 - 1))
        return [marg for marg, _ in teacher.infer(unit.ids, unit.rule_input, seed)]


class _FixedDriver(_Driver):
    """Pipeline stage 2: one unit per labeled sentence, whose target is the
    frozen teacher's prediction, imitated at pi = 1."""

    def soft_targets(self, teacher, unit):
        return unit.hard


def _fit(model, driver: _Driver, teacher, pi_at, rng, dev=None, patience: int = 1):
    """The training loop.  Each epoch takes one mixed-loss step per batch;
    with a dev set it keeps the best-dev parameters and stops after
    ``patience`` epochs without improvement."""
    opt = Adadelta()
    best, best_params, stale = -np.inf, None, 0
    history = []
    for epoch in range(driver.config.epochs):
        pi = pi_at(epoch)
        losses = []
        for batch in driver.batches(rng, pi):
            items, scale = driver.targets(teacher, batch, pi)
            losses.append(backward_and_step(model, items, opt, loss_scale=scale))
        history.append({"epoch": epoch, "pi": pi, "train_loss": float(np.mean(losses))})
        if dev is None:
            continue
        metric = evaluate(model, dev, task=driver.config.task, vocab=driver.vocab,
                          scheme=driver.scheme).metric()
        history[-1]["dev_metric"] = metric
        if metric > best + 1e-12:
            best, stale = metric, 0
            best_params = {k: v.copy() for k, v in model.params.items()}
        else:
            stale += 1
            if stale >= patience:
                break
    if best_params is not None:
        model.params.update(best_params)
    return history


def _make_driver(config, train, unlabeled=()):
    if config.task == "sentiment":
        return _SentimentDriver(config, train, unlabeled)
    return _NerDriver(config, train, unlabeled)


def _teacher(config: TrainConfig, driver: _Driver, model, rules, sweeps: int):
    return project_after(model, driver.vocab, rules, config.c, config.task,
                         scheme=driver.scheme, eval_sweeps=sweeps,
                         g_max=config.g_max, seed=config.seed)


def _diagnostics(teacher) -> dict:
    """The teacher's live counter: sentiment projections left at p because
    hard rules excluded every label."""
    if isinstance(teacher, SentimentTeacher):
        return {"infeasible_instances": teacher.infeasible}
    return {}


def _train(config: TrainConfig, driver: _Driver, rules, dev) -> TrainResult:
    rules = list(rules)
    model = driver.init_model(config.seed)
    if rules and config.c > 0.0:
        teacher = _teacher(config, driver, model, rules, config.train_sweeps)
        pi_at = config.resolved_schedule().rate
    else:
        # The plain supervised path: no teacher, pi = 0 throughout.
        teacher, pi_at = None, lambda epoch: 0.0
    history = _fit(model, driver, teacher, pi_at, np.random.default_rng((config.seed, 1)),
                   dev, config.patience)
    return TrainResult(
        student=model,
        teacher=_teacher(config, driver, model, rules, config.eval_sweeps) if rules else None,
        vocab=driver.vocab,
        scheme=driver.scheme,
        history=tuple(history),
        diagnostics=_diagnostics(teacher),
    )


def train_distill(config: TrainConfig, train, rules: Sequence[Rule] = (),
                  dev=None) -> TrainResult:
    """Supervised distillation (Algorithm-style loop).  With C = 0 or no
    rules this takes the plain supervised path, bit-identical to base mode."""
    return _train(config, _make_driver(config, train), rules, dev)


def train_semi(config: TrainConfig, train, unlabeled, rules: Sequence[Rule],
               dev=None) -> TrainResult:
    """Distillation with the imitation term additionally on unlabeled data.
    Unlabeled batches never contribute a hard-label term."""
    return _train(config, _make_driver(config, train, unlabeled), rules, dev)


def project_after(model, vocab: Vocabulary, rules: Sequence[Rule], c: float,
                  task: str, scheme: Optional[TagScheme] = None,
                  eval_sweeps: int = 2000, g_max: int = 8, seed: int = 0):
    """Evaluation-time-only projection of a trained model; no weight change."""
    if task == "sentiment":
        return SentimentTeacher(model, vocab, rules, c)
    if scheme is None:
        raise ValueError("tagging projection needs a tag scheme")
    return NerTeacher(model, vocab, scheme, rules, c,
                      sweeps=eval_sweeps, g_max=g_max, seed=seed)


def pipeline_distill(config: TrainConfig, train, rules: Sequence[Rule],
                     dev=None) -> TrainResult:
    """Two-stage pipeline: train a base model, freeze and project it, then
    train a FRESH student purely on the projected soft targets (pi = 1)."""
    driver = _make_driver(config, train)
    stage1 = _train(config, driver, (), dev)
    teacher = _teacher(config, driver, stage1.student, list(rules), config.eval_sweeps)
    # Teacher targets from the frozen model are static: compute them once.
    driver.teacher_rng = np.random.default_rng((config.seed, 3))
    fixed = _FixedDriver(config, [
        _Unit([ids], [soft])
        for unit in driver.units
        for ids, soft in zip(unit.ids, driver.soft_targets(teacher, unit))
    ])
    student = driver.init_model(config.seed + 1)
    history = _fit(student, fixed, None, lambda epoch: 1.0,
                   np.random.default_rng((config.seed, 4)))
    return replace(stage1, student=student, teacher=teacher, history=tuple(history),
                   diagnostics={"stage1_epochs": len(stage1.history), **_diagnostics(teacher)})
