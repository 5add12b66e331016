"""The iterative distillation loop and its evaluation harness.

Each epoch t (the imitation index advances per epoch) every minibatch is
processed as: forward the student p on the batch, build the teacher q by
projecting p onto the rule set, extract q's per-instance soft predictions,
and take one mixed-loss gradient step where the SAME instances feed the
hard-label and the imitation term.

Teacher construction is routed by rule scope: per-instance rules become
single-position projections, bigram rules become chain potentials, and
cross-instance rules become groups over the linked sites whose marginals
then enter the per-sentence chains as extra unary penalties.  The groups
are solved at category level: enumerated exactly when their joint space
has at most ``EXACT_MAX_STATES`` states, Gibbs-sampled above that.  That
composition keeps hard transition constraints out of the group regime
(see the inference module note on ergodicity) while still letting list
information flow into every decoded sequence.  The tagging teacher works
on a whole minibatch of documents in training, and on chunks of about
``_EVAL_CHUNK`` sentences' worth of documents in evaluation: one student
forward, groups and seeds per document, one array expression for the
list penalties, and one chain query over every sentence.

Modes: plain supervised (base), distillation, semi-supervised
distillation (imitation term additionally on unlabeled batches),
evaluation-time-only projection, and a two-stage pipeline that trains a
fresh student against a frozen projected teacher.  A distillation run
with C = 0 or an empty rule set takes the base code path outright, so its
parameter trajectory is bit-identical to a base run with the same seed.
Students are trained and evaluated on whole batches: one padded forward
and backward pass per minibatch, and one forward per evaluation chunk.

Every mode runs through one epoch loop over a per-task driver, which
supplies an epoch's batches and each batch's mixed targets.  Each task has
one teacher class, which builds the training targets and is deployed for
evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .corpus import LabeledSentence, TaggedSentence, detect_lists, group_documents
from .inference import (
    EXACT_MAX_STATES,
    ChainTeacherQuery,
    GroupLink,
    MemberPotentials,
    chain_map_decode,
    chain_marginals,
    exact_group_marginals,
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
    counterpart_truth_table,
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


def _check_settings(c: float, **counts: int) -> None:
    """Reject a rule strength c that is not finite and nonnegative, and any
    count below 1."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c must be finite and nonnegative, got {c}")
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


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
        _check_settings(self.c, **{
            name: getattr(self, name)
            for name in ("epochs", "batch_size", "g_max", "train_sweeps", "eval_sweeps",
                         "patience", "emb_dim", "n_filters", "hidden")
        })
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


def _encode_sentence(vocab: Vocabulary, tokens):
    """A sentence's ids and its clause-B ids (None without A-but-B)."""
    st = detect_but(tokens)
    return vocab.encode(tokens), None if st is None else vocab.encode(st.clause_b)


class SentimentTeacher:
    """The classification teacher: projects the student's output through
    the per-instance rules.  Instances without an A-but-B structure are
    left at the student distribution.  ``soft_predict`` works on a batch of
    encoded sentences, for training and evaluation alike; ``predict_proba``
    reads one sentence's tokens."""

    def __init__(self, model, vocab: Vocabulary, rules: Sequence[Rule], c: float):
        self.model = model
        self.vocab = vocab
        self.rules, _, _ = _split_rules(rules)
        self.c = float(c)
        # Projections left at p because the hard rules exclude every label.
        self.infeasible = 0

    def soft_predict(self, ids_list, clause_b_ids) -> list[np.ndarray]:
        """Teacher distributions for a batch of encoded sentences, from one
        student forward over the sentences and one over their B clauses;
        ``clause_b_ids[i]`` is None when sentence i has no A-but-B
        structure."""
        out = self.model.forward(ids_list)
        has_b = [i for i, clause in enumerate(clause_b_ids) if clause is not None]
        if not has_b or not self.rules:
            return out
        clause_sigmas = self.model.forward([clause_b_ids[i] for i in has_b])
        for i, clause_sigma in zip(has_b, clause_sigmas):
            groundings = tuple(
                (rule.confidence, g.table)
                for rule in self.rules
                for g in rule.groundings([clause_sigma])
            )
            try:
                out[i] = project(ProjectionProblem(np.log(out[i]), groundings, self.c)).probs()
            except InfeasibleConstraintError:
                self.infeasible += 1
        return out

    def predict_proba(self, tokens) -> np.ndarray:
        ids, clause = _encode_sentence(self.vocab, tokens)
        return self.soft_predict([ids], [clause])[0]


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


def _category_log_table(rule: Rule, collapse: CategoryCollapse, c: float):
    """A cross rule's log link table over category groups: its truth table
    restricted to one representative tag per group.  Only a table that is
    constant within categories lets the group teacher sum out the BIOES
    variants exactly, and stage 2 scores every cross rule with the
    list-rule truth, so any table but ``counterpart_truth_table``'s is
    rejected."""
    gi = collapse.group_index
    reps = np.unique(gi, return_index=True)[1]
    (probe,) = rule.groundings([((0, 0), (1, 0))])
    table = probe.table[np.ix_(reps, reps)]
    if not np.array_equal(table[np.ix_(gi, gi)], probe.table):
        raise ValueError(
            f"rule {rule.name!r}: a cross-instance truth table must be "
            "constant within tag categories"
        )
    if not np.array_equal(probe.table, counterpart_truth_table(collapse)):
        raise ValueError(
            f"rule {rule.name!r}: the tagging teacher measures cross-instance "
            "rules with the list-counterpart truth, so their truth table must "
            "be counterpart_truth_table's"
        )
    return -c * rule.confidence * (1.0 - table)


def _regroup(items: list, sizes: Sequence[int]) -> list[list]:
    """``items`` cut into consecutive runs of the given sizes."""
    it = iter(items)
    return [list(itertools.islice(it, n)) for n in sizes]


class NerTeacher:
    """The tagging teacher: the chain+group teacher built from the
    student's probabilities, for a batch of documents at a time.

    Stage 1: one student forward over every sentence of the batch.  Within
    each document, the cross-linked sites form groups over tag categories
    (each site's unary is the student's mass per category), whose
    marginals are enumerated exactly, or Gibbs-sampled for a group above
    ``EXACT_MAX_STATES`` joint states, and spread back over each
    category's tags in the student's proportions.  Groups never span
    documents, and each document has its own seed for link cutting and
    sampling.  Stage 2: every linked site gets a unary penalty measuring
    the list rule against its counterparts' stage-1 marginals, one array
    expression for the batch; then one chain query holds every sentence of
    the batch, with the transition potentials, and is solved with one
    vectorised step per position.  At evaluation the counterpart links
    come from the evaluated document itself.
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
        self.cross_tables = [_category_log_table(r, self.collapse, self.c) for r in self.cross]
        # Every cross rule is the list rule, so stage 2 adds their
        # confidences into one penalty.
        self.lam = sum(rule.confidence for rule in self.cross)
        self.sweeps = sweeps
        self.g_max = g_max
        self.chain_terms = ()
        if self.bigram:
            self.chain_terms = _transition_log_terms(scheme, self.bigram[0].confidence, self.c)

    def _site_marginals(self, sigmas, site_links, seed: int):
        """Teacher tag marginals for every linked site of one document; {}
        when no cross rule.  Groups are solved over categories, then each
        category's mass is shared among its tags as the student shares it."""
        if not self.cross or not site_links or self.c == 0.0:
            return {}
        sites = sorted({s for pair in site_links for s in pair})
        index = {s: i for i, s in enumerate(sites)}
        sigma = np.stack([sigmas[s][t] for s, t in sites])
        mass = self.collapse.collapse(sigma)
        members = [MemberPotentials(log_unary=row[None, :]) for row in np.log(mass)]
        glinks = [
            GroupLink(member_a=index[a], pos_a=0, member_b=index[b], pos_b=0,
                      log_table=table)
            for rule, table in zip(self.cross, self.cross_tables)
            for a, b in (g.sites for g in rule.groundings(site_links))
        ]
        q = np.empty_like(mass)
        for query in form_groups(
            members, glinks, g_max=self.g_max, seed=seed, sweeps=self.sweeps
        ):
            if query.n_labels ** len(query.members) <= EXACT_MAX_STATES:
                margs = exact_group_marginals(query)
            else:
                margs = gibbs_soft_predict(query)
            for marg, mid in zip(margs, query.member_ids):
                q[mid] = marg[0]
        gi = self.collapse.group_index
        return dict(zip(sites, q[:, gi] * sigma / mass[:, gi]))

    def _chains(self, docs_ids, docs_links, seeds) -> ChainTeacherQuery:
        """One chain query over every sentence of a batch of encoded
        documents, in document order."""
        sigmas = self.model.forward([ids for doc in docs_ids for ids in doc])
        log_unary = np.log(np.concatenate(sigmas))
        # Row of each sentence's first position, and index of each
        # document's first sentence.
        starts = np.cumsum([0] + [len(s) for s in sigmas])
        firsts = np.cumsum([0] + [len(doc) for doc in docs_ids])
        # Stage 2 penalises each end of every link with the list truth
        # against the other end's stage-1 marginal.
        rows, counterparts = [], []
        for first, last, links, seed in zip(firsts, firsts[1:], docs_links, seeds):
            marginals = self._site_marginals(sigmas[first:last], links, seed)
            if not marginals:
                continue
            for a, b in links:
                for (s, t), other in ((a, b), (b, a)):
                    rows.append(starts[first + s] + t)
                    counterparts.append(marginals[other])
        if rows:
            truth = list_rule_truth(self.collapse, np.stack(counterparts))
            penalty = np.zeros_like(log_unary)
            # Unbuffered, in link order: a site's penalties add up in turn.
            np.add.at(penalty, rows, self.c * self.lam * (1.0 - truth[:, self.collapse.group_index]))
            log_unary -= penalty
        return ChainTeacherQuery(np.split(log_unary, starts[1:-1]), *self.chain_terms)

    def soft_predict(self, docs_ids, docs_links, seeds):
        """Per-sentence teacher marginals for each document of a batch:
        ``docs_ids`` holds each document's encoded sentences, ``docs_links``
        its counterpart links and ``seeds`` its stage-1 seed."""
        margs = chain_marginals(self._chains(docs_ids, docs_links, seeds))
        return _regroup(margs, [len(doc) for doc in docs_ids])

    def predict_tags(self, docs: Sequence[Sequence[TaggedSentence]]):
        """Decoded tags of every sentence of every document.  Documents are
        decoded in chunks of about ``_EVAL_CHUNK`` sentences; document d
        gets the seed ``seed + 7919 * d`` whatever its chunk, so repeat
        evaluations are identical."""

        def decode(chunk):
            tokens = [[s.tokens for s in doc] for _, doc in chunk]
            paths, _ = chain_map_decode(self._chains(
                [[self.vocab.encode(toks) for toks in doc] for doc in tokens],
                [_doc_links(doc) for doc in tokens],
                [self.seed + 7919 * d for d, _ in chunk],
            ))
            tags = [[self.scheme.tags[k] for k in path] for path in paths]
            return _regroup(tags, [len(doc) for doc in tokens])

        return list(_chunked(decode, list(enumerate(docs)), [len(doc) for doc in docs]))


# --- generic evaluation ------------------------------------------------------


# Sentences per student forward outside training; a fixed chunk keeps the
# padded batch arrays, and so peak memory, independent of the dataset size.
_EVAL_CHUNK = 64


def _pack(sizes: Sequence[int], limit: int) -> list[list[int]]:
    """Consecutive positions of ``sizes`` grouped so that each group's sizes
    add up to at most ``limit``; an item above ``limit`` is a group alone."""
    groups, cur, count = [], [], 0
    for i, n in enumerate(sizes):
        if cur and count + n > limit:
            groups.append(cur)
            cur, count = [], 0
        cur.append(i)
        count += n
    if cur:
        groups.append(cur)
    return groups


def _chunked(fn, items, sizes: Optional[Sequence[int]] = None):
    """Yield ``fn``'s per-item outputs, calling it on consecutive chunks of
    ``items`` of about ``_EVAL_CHUNK`` sentences, where ``sizes`` gives each
    item's sentence count (1 when omitted).  A consumer that keeps only
    what it derives from each output holds one chunk's outputs at a time."""
    for group in _pack([1] * len(items) if sizes is None else sizes, _EVAL_CHUNK):
        yield from fn([items[i] for i in group])


def _student_forward(model, vocab: Vocabulary):
    """A student's distributions for a chunk of sentence records."""
    return lambda chunk: model.forward([vocab.encode(s.tokens) for s in chunk])


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
            def predict(chunk):
                ids, clauses = zip(*(_encode_sentence(predictor.vocab, s.tokens) for s in chunk))
                return predictor.soft_predict(ids, clauses)
        elif vocab is None:
            raise ValueError("student evaluation needs a vocabulary")
        else:
            predict = _student_forward(predictor, vocab)
        acc = float(np.mean([np.argmax(p) == s.label
                             for p, s in zip(_chunked(predict, dataset), dataset)]))
        return EvalReport(task="sentiment", n=len(dataset), accuracy=acc)

    docs = group_documents(dataset)
    sents = [s for doc in docs for s in doc]
    if isinstance(predictor, NerTeacher):
        scheme = predictor.scheme
        pred_tags = [tags for doc_tags in predictor.predict_tags(docs) for tags in doc_tags]
    else:
        if vocab is None or scheme is None:
            raise ValueError("student tagging evaluation needs vocab and scheme")
        pred_tags = [[scheme.tags[k] for k in p.argmax(axis=1)]
                     for p in _chunked(_student_forward(predictor, vocab), sents)]
    prec, rec, f1 = _micro_span_prf([scheme.spans(s.tags) for s in sents],
                                    [scheme.spans(tags) for tags in pred_tags])
    return EvalReport(
        task="ner",
        n=len(dataset),
        precision=prec,
        recall=rec,
        f1=f1,
        validity_rate=float(np.mean([scheme.valid_sequence(tags) for tags in pred_tags])),
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
    what the teacher reads besides the ids (clause-B ids, or the
    document's tokens, from which list links are detected)."""

    ids: list
    hard: list
    rule_input: object = None


class _Driver:
    """Task plumbing for the training loop: the batches of an epoch and the
    (ids, MixedTarget) list of one batch.  Subclasses supply the units and
    ``soft_targets(teacher, units)``, for each unit one teacher target per
    sentence."""

    scheme: Optional[TagScheme] = None

    def __init__(self, config: TrainConfig, units, u_units=()):
        self.config = config
        self.units = units
        self.u_units = list(u_units)
        # Seeds the tagging teacher's group formation and Gibbs runs, one
        # draw per document.
        self.teacher_rng = np.random.default_rng((config.seed, 2))

    def _split(self, order, units):
        """Shuffled unit indices in batches of about batch_size sentences."""
        sizes = [len(units[int(u)].ids) for u in order]
        return [[int(order[i]) for i in group] for group in _pack(sizes, self.config.batch_size)]

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
        units = [(self.units if kind == "L" else self.u_units)[u] for u in idxs]
        softs = self.soft_targets(teacher, units) if pi > 0.0 else [None] * len(units)
        items = []
        for unit, soft in zip(units, softs):
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
        ids, clause = _encode_sentence(self.vocab, sentence.tokens)
        return _Unit([ids], [hard], clause)

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

    def soft_targets(self, teacher, units):
        q = teacher.soft_predict([u.ids[0] for u in units], [u.rule_input for u in units])
        return [[row] for row in q]


class _NerDriver(_Driver):
    def __init__(self, config: TrainConfig, train, unlabeled=()):
        docs = group_documents(list(train))
        u_docs = group_documents(list(unlabeled))
        cats = sorted(
            {t.split("-", 1)[1] for doc in docs + u_docs for s in doc for t in s.tags if t != "O"}
        )
        self.scheme = TagScheme(tuple(cats))
        self.vocab = Vocabulary.build([s.tokens for doc in docs + u_docs for s in doc])
        # Each document's list links, detected on its first teacher use;
        # base mode never builds a teacher and so detects none.
        self.links: dict[_Unit, list] = {}
        super().__init__(config, [self._unit(d) for d in docs], [self._unit(d) for d in u_docs])

    def _unit(self, doc):
        k = self.scheme.n_tags
        return _Unit(
            [self.vocab.encode(s.tokens) for s in doc],
            [np.stack([_one_hot(self.scheme.index(t), k) for t in s.tags]) for s in doc],
            [s.tokens for s in doc],
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

    def soft_targets(self, teacher, units):
        for unit in units:
            if unit not in self.links:
                self.links[unit] = _doc_links(unit.rule_input)
        seeds = [int(self.teacher_rng.integers(2**31 - 1)) for _ in units]
        return teacher.soft_predict([u.ids for u in units], [self.links[u] for u in units], seeds)


class _FixedDriver(_Driver):
    """Pipeline stage 2: one unit per labeled sentence, whose target is the
    frozen teacher's prediction, imitated at pi = 1."""

    def soft_targets(self, teacher, units):
        return [unit.hard for unit in units]


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


# The entry point of each mode that train_distill does not run.
_OTHER_ENTRY_POINTS = {
    "semi": "train_semi",
    "pipeline": "pipeline_distill",
    "project-after": "train_distill in mode 'base', then project_after",
}


def train_distill(config: TrainConfig, train, rules: Sequence[Rule] = (),
                  dev=None) -> TrainResult:
    """Supervised distillation (Algorithm-style loop).  Mode "base", C = 0
    or no rules take the plain supervised path, bit-identical to a base
    run; base mode ignores the rules and returns no teacher."""
    if config.mode in _OTHER_ENTRY_POINTS:
        raise ValueError(f"mode {config.mode!r} is not trained by train_distill; "
                         f"use {_OTHER_ENTRY_POINTS[config.mode]}")
    return _train(config, _make_driver(config, train),
                  () if config.mode == "base" else rules, dev)


def train_semi(config: TrainConfig, train, unlabeled, rules: Sequence[Rule],
               dev=None) -> TrainResult:
    """Distillation with the imitation term additionally on unlabeled data.
    Unlabeled batches never contribute a hard-label term."""
    return _train(config, _make_driver(config, train, unlabeled), rules, dev)


def project_after(model, vocab: Vocabulary, rules: Sequence[Rule], c: float,
                  task: str, scheme: Optional[TagScheme] = None,
                  eval_sweeps: int = 2000, g_max: int = 8, seed: int = 0):
    """Evaluation-time-only projection of a trained model; no weight change.
    Rejects a c that is not finite and nonnegative, and counts below 1."""
    _check_settings(c, eval_sweeps=eval_sweeps, g_max=g_max)
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
    softs = _chunked(lambda units: driver.soft_targets(teacher, units), driver.units,
                     [len(unit.ids) for unit in driver.units])
    fixed = _FixedDriver(config, [
        _Unit([ids], [soft])
        for unit, unit_softs in zip(driver.units, softs)
        for ids, soft in zip(unit.ids, unit_softs)
    ])
    student = driver.init_model(config.seed + 1)
    history = _fit(student, fixed, None, lambda epoch: 1.0,
                   np.random.default_rng((config.seed, 4)))
    return replace(stage1, student=student, teacher=teacher, history=tuple(history),
                   diagnostics={"stage1_epochs": len(stage1.history), **_diagnostics(teacher)})
