"""The iterative distillation loop and its evaluation harness.

Each epoch t (the imitation index advances per epoch) every minibatch is
processed as: forward the student p on the batch, build the teacher q by
projecting that p onto the rule set, and take one gradient step, through
the same forward, on the cross-entropy against the blend
(1 - pi) * hard + pi * q, so the SAME instances feed the hard-label and
the imitation term.  The tagging teacher is a function of p alone; the
sentiment teacher also forwards the student on the batch's B clauses.

Teacher construction is routed by rule kind: but rules become one
closed-form projection over a batch's stacked A-but-B rows, transition
rules become chain potentials summed from their tables, and list rules
become groups over the linked sites whose marginals then enter the
per-sentence chains as extra unary penalties.  The groups are solved at
category level: enumerated exactly, stacked by size, when their joint
space has at most ``EXACT_MAX_STATES`` states, Gibbs-sampled above that.
That composition keeps hard transition constraints out of the group
regime (see the inference module note on ergodicity) while still letting
list information flow into every decoded sequence.  In training the
tagging teacher works on a whole minibatch of documents: one array of the
linked sites, groups and seeds per document, stacked exact solves, one
array expression for the list penalties, and one chain query over every
sentence.  In evaluation it makes one pass over the prepared set: the
student's p and the penalized log-unaries are built once for every
document, and then each length-sorted chunk of ``_EVAL_CHUNK`` sentences
is one chain query, since a chain's answer depends only on its own rows.
Document d of a prepared set gets the stage-1 seed ``seed + 7919 * d``,
in training and evaluation alike.

``train_distill`` runs every mode of ``TrainConfig.mode``: base (plain
supervised), distill, semi (the imitation term also on unlabeled
batches), project-after (a base student whose teacher is deployed only
for evaluation) and pipeline (project-after, then a fresh student trained
on the frozen teacher's q alone).  A distillation run with C = 0 or an
empty rule set takes the base code path outright, so its parameter
trajectory is bit-identical to a base run with the same seed.

Every dataset becomes arrays once, as a ``PreparedSet``: one
``TokenBatch`` of its sentences, each document's sentence count, the gold
rows, and the rule inputs (clause starts, or each document's list links),
computed on a teacher's first read.  Training, dev and test evaluation
read it by index, so no repeat evaluation re-encodes a sentence or
re-detects a grounding, and a student detects none.  One forward and
backward pass runs per minibatch, one forward per evaluation chunk.  A
batch's student outputs, teacher targets and hard targets are each one
(rows, K) array in the batch's order, a row per sentence for
classification and per position for tagging.  Evaluation sorts sentences
by token count before chunking, so that the tagging teacher's chain
queries run few steps past a sentence's end, and scores tags as index
arrays.

Every mode runs through one epoch loop over one driver, which shuffles
units of the prepared training set (a sentence for classification, a
document for tagging) and asks the task's teacher for q on a batch's
student outputs.  Each task has one teacher class, which builds the
training targets and is deployed for evaluation as a student forward
followed by the same call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .corpus import LabeledSentence, TaggedSentence, detect_lists, group_documents, infer_scheme
from .inference import (
    EXACT_MAX_STATES,
    ChainTeacherQuery,
    GroupLink,
    GroupTeacherQuery,
    InfeasibleChainError,
    MemberPotentials,
    chain_map_decode,
    chain_marginals,
    exact_group_marginals,
    form_groups,
    gibbs_soft_predict,
)
from .predictors import (
    Adadelta,
    SequenceTagger,
    TextClassifier,
    TokenBatch,
    Vocabulary,
    _check_widths,
    backward_and_step,
    check_targets,
)
from .projection import ProjectionProblem, project
from .rulelib import (
    ButRule,
    CategoryCollapse,
    ListRule,
    Rule,
    TagScheme,
    TransitionRule,
    _span_ends,
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
    "PreparedSet",
    "prepare",
    "train_distill",
    "project_after",
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


def _check_settings(c: float, seed: int, **counts: int) -> None:
    """Reject a rule strength c that is not finite and nonnegative, a
    negative seed, and any count below 1."""
    if not (math.isfinite(c) and c >= 0):
        raise ValueError(f"c must be finite and nonnegative, got {c}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
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
        _check_settings(self.c, self.seed, **{
            name: getattr(self, name)
            for name in ("epochs", "batch_size", "g_max", "train_sweeps", "eval_sweeps",
                         "patience", "emb_dim", "n_filters", "hidden")
        })
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")
        _check_widths(self.conv_windows, "conv_windows")

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


def _tagging_report(data: PreparedSet, pred: np.ndarray) -> EvalReport:
    """Exact-span micro P/R/F1 and the BIOES-valid fraction of ``pred``, the
    predicted tag indices of a prepared tagging set's positions.  A span is
    its start, end and first tag, read off the set's gold rows."""
    gold = data.gold
    first = np.zeros(len(pred), dtype=bool)
    first[data.batch.starts] = True
    gold_ends, pred_ends = _span_ends(gold, first), _span_ends(pred, first)
    tp = int(np.count_nonzero((gold_ends > 0) & (gold_ends == pred_ends) & (gold == pred)))
    n_pred, n_gold = int(np.count_nonzero(pred_ends)), int(np.count_nonzero(gold_ends))
    prec = tp / n_pred if n_pred else 1.0
    rec = tp / n_gold if n_gold else 1.0
    bad = transition_masks(data.scheme).violations(pred, first)
    valid = np.ones(len(data.batch), dtype=bool)
    valid[np.cumsum(first)[bad] - 1] = False
    return EvalReport(task="ner", n=len(data.batch), precision=prec, recall=rec,
                      f1=2 * prec * rec / (prec + rec) if prec + rec else 0.0,
                      validity_rate=float(np.mean(valid)))


# --- rule routing ------------------------------------------------------------


# The rule kinds each task's teacher reads.
_KINDS = {"sentiment": (ButRule,), "ner": (TransitionRule, ListRule)}


def _split_rules(rules: Sequence[Rule], task: str):
    """The task teacher's rules, one list per kind it reads.  A rule of
    any other kind is rejected by name rather than dropped."""
    kinds = _KINDS[task]
    unread = [r.name for r in rules if not isinstance(r, kinds)]
    if unread:
        raise ValueError(f"the {task} teacher reads only "
                         f"{' and '.join(kind.__name__ for kind in kinds)}s, "
                         f"so it cannot use {', '.join(map(repr, unread))}")
    return [[r for r in rules if isinstance(r, kind)] for kind in kinds]


# --- sentiment teacher -------------------------------------------------------


def _clause_starts(sentences) -> np.ndarray:
    """Where each sentence's clause B starts, one past its "but", or 0
    without an A-but-B structure."""
    return np.array([0 if (st := detect_but(tokens)) is None else st.split + 1
                     for tokens in sentences], dtype=int)


class SentimentTeacher:
    """The classification teacher: projects the student's output p through
    the but rules, with one projection over a batch's A-but-B rows.
    Instances without an A-but-B structure, and those the hard rules leave
    no label, are left at p.  ``soft_predict`` maps a batch's (B, K) p rows
    to q rows, in training and evaluation alike; deployment forwards the
    student first, as ``predict_proba`` does for one sentence's tokens."""

    def __init__(self, model, vocab: Vocabulary, rules: Sequence[Rule], c: float):
        self.model = model
        self.vocab = vocab
        (self.rules,) = _split_rules(rules, "sentiment")
        self.c = float(c)
        for rule in self.rules:
            if not rule.confidence > 0.0:
                raise ValueError(f"rule {rule.name!r}: confidence must be positive, "
                                 f"got {rule.confidence}")
            if model.n_classes != 2:
                raise ValueError(f"rule {rule.name!r}: its truth table has shape (2,), "
                                 f"but the classifier has {model.n_classes} classes")
        # Projections left at p because the hard rules exclude every label.
        self.infeasible = 0

    def soft_predict(self, p, batch, data, sentences) -> np.ndarray:
        """Teacher rows for ``batch``, the sentences ``sentences`` of the
        prepared set ``data``, given the student's (B, K) rows ``p`` on
        them, with one student forward over their B clauses, read from the
        batch as the suffixes from the set's clause starts."""
        clause_starts = data.rule_inputs[sentences]
        has_b = np.flatnonzero(clause_starts)
        if not len(has_b) or not self.rules:
            return p
        clause_sigmas = self.model.forward(batch.take(has_b, clause_starts[has_b]))
        base = np.log(p[has_b])
        problem = ProjectionProblem(
            base, tuple((r.confidence, r.truths(clause_sigmas)) for r in self.rules), self.c)
        feasible = problem.feasible_mask().any(axis=-1)
        self.infeasible += int(np.count_nonzero(~feasible))
        if not feasible.any():
            return p
        if not feasible.all():
            problem = ProjectionProblem(base[feasible], tuple(
                (lam, truths[feasible]) for lam, truths in problem.groundings), self.c)
        q = p.copy()
        q[has_b[feasible]] = project(problem).probs()
        return q

    def soft_predict_set(self, data: PreparedSet) -> np.ndarray:
        """Teacher rows of every sentence of a prepared set, (B, K) rows
        by the chunks of ``_forward_chunks``."""
        q = np.empty((len(data.batch), self.model.n_classes))
        for idx, chunk, p in _forward_chunks(self.model, data):
            q[idx] = self.soft_predict(p, chunk, data, idx)
        return q

    def predict_proba(self, tokens) -> np.ndarray:
        # The label of the one-sentence set is never read.
        data = prepare([LabeledSentence(tokens, 0)], self.vocab)
        return self.soft_predict(self.model.forward(data.batch), data.batch, data, [0])[0]


# --- NER teacher -------------------------------------------------------------


def _chain_terms(rules: Sequence[TransitionRule], n_tags: int, c: float):
    """Chain potentials (pair, start, end) of the transition rules: each
    table's -c * confidence * (1 - truth), or -inf where a hard rule's
    truth is below 1, summed over rules; zeros without a transition rule."""
    terms = [np.zeros((n_tags, n_tags)), np.zeros(n_tags), np.zeros(n_tags)]
    for rule in rules:
        for i, table in enumerate((rule.pair, rule.start, rule.end)):
            terms[i] = terms[i] + (np.where(table < 1.0, -math.inf, 0.0) if rule.hard
                                   else -c * rule.confidence * (1.0 - table))
    return tuple(terms)


def _doc_links(doc_tokens: Sequence[Sequence[str]]):
    """A document's counterpart links from its detected lists, each
    linking the first tokens of positionally aligned blocks: its linked
    (sent, pos) sites in increasing order, as an (S, 2) array, and its
    links as (a, b) pairs of indices into them."""
    links = []
    for group in detect_lists(doc_tokens):
        items = group.items
        for (ia, k), (ib, _) in group.counterpart_pairs():
            a = (items[ia].sent_index, items[ia].blocks[k][0])
            b = (items[ib].sent_index, items[ib].blocks[k][0])
            if a != b:
                links.append((a, b))
    sites = sorted({s for pair in links for s in pair})
    index = {s: i for i, s in enumerate(sites)}
    return (np.array(sites, dtype=int).reshape(-1, 2),
            [(index[a], index[b]) for a, b in links])


class NerTeacher:
    """The tagging teacher: the chain+group teacher built from the
    student's probabilities, for a batch of documents at a time.

    Stage 1 reads the student's (P, K) position rows on the batch
    (training hands over the step's forward; deployment forwards the
    student first) and gathers the rows of every cross-linked site of the
    batch into one array.  Within each document the linked sites form
    groups over tag categories, each site's unary being the student's mass
    per category, and every link carrying one table for the summed
    confidence of the list rules.  Groups never span documents; document d
    of the prepared set has the seed ``seed + 7919 * d`` for link cutting
    and sampling.  The groups of one size are enumerated exactly in one
    call when each has at most ``EXACT_MAX_STATES`` joint states; a larger
    group is Gibbs-sampled.  Each category's marginal mass is spread back
    over its tags in the student's proportions.  Stage 2: every linked
    site gets a unary penalty measuring the list rule against its
    counterparts' stage-1 marginals, one array expression for the batch;
    then one chain query holds every position row of the batch, with the
    transition rules' potentials, and is solved with one product per
    position.  The counterpart links come from the prepared set's own
    documents.

    Deployed on a prepared set (``evaluate``, ``predict_tags``, pipeline
    stage 2's frozen targets), the teacher runs the set pass instead: it
    forwards the student over the set in length-sorted chunks, runs stage
    1 and the list penalties once over every document, and then decodes or
    marginalizes each sorted chunk of sentences as one chain query.  A
    sentence that no tag path can satisfy is named by document and
    sentence.
    """

    def __init__(self, model, vocab: Vocabulary, scheme: TagScheme,
                 rules: Sequence[Rule], c: float, sweeps: int = 2000,
                 g_max: int = 8, seed: int = 0):
        self.model = model
        self.vocab = vocab
        self.scheme = scheme
        self.seed = seed
        self.transitions, self.lists = _split_rules(rules, "ner")
        # A teacher without a model is fed the student's outputs directly.
        if model is not None and model.n_tags != scheme.n_tags:
            raise ValueError(f"the model outputs {model.n_tags} tags, but the scheme "
                             f"has {scheme.n_tags}")
        self.collapse = CategoryCollapse(scheme)
        self.c = float(c)
        for rule in self.lists:
            if rule.collapse != self.collapse:
                raise ValueError(f"rule {rule.name!r} is built for the categories "
                                 f"{rule.collapse.scheme.categories}, but the teacher's "
                                 f"scheme has {scheme.categories}")
        for rule in self.transitions:
            shapes = tuple(np.shape(t) for t in (rule.pair, rule.start, rule.end))
            if shapes != ((scheme.n_tags,) * 2, (scheme.n_tags,), (scheme.n_tags,)):
                raise ValueError(f"rule {rule.name!r}: its tables have shapes {shapes}, "
                                 f"but the teacher's scheme {scheme.categories} has "
                                 f"{scheme.n_tags} tags")
        # The list rules' confidences add up, in stage 1's link table as in
        # stage 2's penalty.
        self.lam = sum(rule.confidence for rule in self.lists)
        reps = np.unique(self.collapse.group_index, return_index=True)[1]
        truth = counterpart_truth_table(self.collapse)[np.ix_(reps, reps)]
        self.link_table = -self.c * self.lam * (1.0 - truth)
        self.sweeps = sweeps
        self.g_max = g_max
        self.chain_terms = _chain_terms(self.transitions, scheme.n_tags, self.c)

    def _stage1(self, p, batch, doc_sizes, docs_links, seeds):
        """Stage 1 for a batch, given ``_log_unary``'s arguments: the row of
        every linked site in ``p`` (documents in order, each one's sites
        sorted), every link as an (L, 2) array of indices into those sites,
        and the sites' (S, K) teacher tag marginals.  None without a list
        rule, link or c > 0."""
        if not self.lists or self.c == 0.0:
            return None
        firsts = np.cumsum([0, *doc_sizes])
        rows, ends, docs = [], [], []
        offset = 0
        for first, (sites, links), seed in zip(firsts, docs_links, seeds):
            if links:
                rows.append(batch.starts[first + sites[:, 0]] + sites[:, 1])
                ends.append(np.add(links, offset))
                docs.append((offset, len(sites), links, seed))
                offset += len(sites)
        if not docs:
            return None
        rows = np.concatenate(rows)
        sigma = p[rows]
        mass = self.collapse.collapse(sigma)
        log_mass = np.log(mass)
        q = np.empty_like(mass)
        by_size: dict[int, list] = {}
        for offset, n_sites, links, seed in docs:
            for group in form_groups(n_sites, links, self.g_max, seed):
                ids = [offset + i for i in group.sites]
                by_size.setdefault(len(ids), []).append((ids, group))
        k = mass.shape[1]
        for n, groups in by_size.items():
            if k**n > EXACT_MAX_STATES:
                for ids, group in groups:
                    q[ids] = self._sample(log_mass[ids], group)
                continue
            ids = np.array([site_ids for site_ids, _ in groups])
            kept = [(g, i, j) for g, (_, group) in enumerate(groups) for i, j in group.links]
            counts = np.zeros((len(groups), n, n))
            np.add.at(counts, tuple(np.array(kept, dtype=int).reshape(-1, 3).T), 1.0)
            q[ids] = exact_group_marginals(log_mass[ids],
                                           counts[..., None, None] * self.link_table)
        gi = self.collapse.group_index
        return rows, np.concatenate(ends), q[:, gi] * sigma / mass[:, gi]

    def _sample(self, log_mass, group) -> np.ndarray:
        """Gibbs-estimated category marginals of one group above the exact
        bound: one single-position member per site."""
        query = GroupTeacherQuery(
            members=tuple(MemberPotentials(row[None, :]) for row in log_mass),
            links=tuple(GroupLink(i, 0, j, 0, self.link_table) for i, j in group.links),
            sweeps=self.sweeps,
            seed=group.seed,
        )
        return np.concatenate(gibbs_soft_predict(query))

    def _log_unary(self, p, batch, doc_sizes, docs_links, seeds) -> np.ndarray:
        """The chains' (P, K) log-unaries over every sentence of a batch of
        documents, log p less the list penalties, given ``soft_predict``'s
        ``p`` and ``batch`` and the documents' ``_doc_inputs``."""
        log_unary = np.log(p)
        stage1 = self._stage1(p, batch, doc_sizes, docs_links, seeds)
        if stage1 is not None:
            # Stage 2 penalises each end of every link with the list truth
            # against the other end's stage-1 marginal.
            rows, ends, q = stage1
            truth = list_rule_truth(self.collapse, q[ends[:, ::-1].ravel()])
            penalty = np.zeros_like(log_unary)
            # Unbuffered, in link order: a site's penalties add up in turn.
            np.add.at(penalty, rows[ends.ravel()],
                      self.c * self.lam * (1.0 - truth[:, self.collapse.group_index]))
            log_unary -= penalty
        return log_unary

    def _doc_inputs(self, data: PreparedSet, docs):
        """``_log_unary``'s arguments for documents ``docs`` of a prepared
        set: sentence counts, ``_doc_links``' links, and seed
        ``seed + 7919 * d``."""
        return (data.docs.lengths[docs], [data.rule_inputs[d] for d in docs],
                [self.seed + 7919 * d for d in docs])

    def soft_predict(self, p, batch, data, docs) -> np.ndarray:
        """Teacher marginals of ``batch``, the documents ``docs`` of the
        prepared set ``data`` in order, given the student's (P, K) position
        rows ``p`` on it.  Returns (P, K) rows."""
        log_unary = self._log_unary(p, batch, *self._doc_inputs(data, docs))
        return chain_marginals(ChainTeacherQuery(log_unary, batch.lengths, *self.chain_terms))

    def _over_set(self, data: PreparedSet, solve, out: np.ndarray) -> np.ndarray:
        """The set pass: ``out`` with ``solve``'s rows of every position of
        a prepared set written in.  The student's p and the log-unaries are
        built once for the whole set, one ``_stage1`` over every document;
        then each of ``_sorted_chunks`` is one chain query for ``solve``."""
        batch = data.batch
        p = np.empty((len(data.gold), self.scheme.n_tags))
        for idx, _, chunk_p in _forward_chunks(self.model, data):
            p[batch.positions(idx)] = chunk_p
        log_unary = self._log_unary(p, batch, *self._doc_inputs(data, np.arange(len(data.docs))))
        for idx in _sorted_chunks(batch.lengths):
            rows = batch.positions(idx)
            try:
                query = ChainTeacherQuery(log_unary[rows], batch.lengths[idx], *self.chain_terms)
            except InfeasibleChainError as err:
                s = int(idx[err.chain])
                d = int(np.searchsorted(data.docs.starts, s, side="right")) - 1
                raise InfeasibleChainError(
                    f"hard constraints exclude every label path of sentence "
                    f"{s - data.docs.starts[d]} of document {d}", s) from err
            out[rows] = solve(query)
        return out

    def soft_predict_set(self, data: PreparedSet) -> np.ndarray:
        """Teacher marginals of every position of a prepared set, (P, K)
        rows by the set pass."""
        return self._over_set(data, chain_marginals,
                              np.empty((len(data.gold), self.scheme.n_tags)))

    def _paths(self, data: PreparedSet) -> np.ndarray:
        """Decoded tag indices of every position of a prepared set, by the
        set pass."""
        return self._over_set(data, lambda query: chain_map_decode(query)[0],
                              np.empty(len(data.gold), dtype=int))

    def predict_tags(self, docs: Sequence[Sequence[TaggedSentence]]):
        """Decoded tags of every sentence of every document, by document."""
        tags = iter([self.scheme.tags[k]
                     for k in self._paths(PreparedSet(docs, self.vocab, self.scheme))])
        return [[list(itertools.islice(tags, len(s.tokens))) for s in doc] for doc in docs]


# --- prepared datasets -------------------------------------------------------


class PreparedSet:
    """A dataset as the arrays training and evaluation read, built once
    from its documents (lists of tagging records, or classification
    records, each a document of its own), a vocabulary and, for tagging, a
    scheme: ``batch`` holds every sentence, documents in order; ``docs``
    the documents as runs of sentence indices; ``gold`` a class index per
    sentence or a tag index per position, by ``TagScheme.encode``.
    ``rule_inputs``, each sentence's clause-B start or each document's
    links, is computed on a teacher's first read, and by no student."""

    def __init__(self, documents, vocab: Vocabulary, scheme: Optional[TagScheme] = None):
        self.vocab, self.scheme = vocab, scheme
        self.task = "sentiment" if scheme is None else "ner"
        sentences = list(documents) if scheme is None else [s for doc in documents for s in doc]
        self.tokens = [s.tokens for s in sentences]
        self.batch = vocab.encode(self.tokens)
        sizes = np.ones(len(sentences), dtype=int) if scheme is None else list(map(len, documents))
        self.docs = TokenBatch(np.arange(len(sentences)), sizes)
        if scheme is None:
            self.gold = np.array([s.label for s in sentences], dtype=int)
            return
        self.gold = scheme.encode([t for s in sentences for t in s.tags])

    def rows(self, sentences) -> np.ndarray:
        """The gold rows of ``sentences``: themselves, or their positions."""
        return sentences if self.scheme is None else self.batch.positions(sentences)

    @cached_property
    def rule_inputs(self):
        if self.scheme is None:
            return _clause_starts(self.tokens)
        docs = zip(self.docs.starts, self.docs.lengths)
        return [_doc_links(self.tokens[first:first + n]) for first, n in docs]


def prepare(records, vocab: Vocabulary, scheme: Optional[TagScheme] = None) -> PreparedSet:
    """Records as a ``PreparedSet``, tagging ones (given a scheme) by document."""
    return PreparedSet(records if scheme is None else group_documents(records), vocab, scheme)


# --- generic evaluation ------------------------------------------------------


# Sentences per student forward and chain query outside training, sorted
# by token count: only a chain query pads, to its chunk's longest chain.
# The tagging teacher's set pass also holds the set's (P, K) p and
# log-unaries, 8 * K bytes per position each (104 bytes at K = 13), so
# its peak memory grows with the set.
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


def _sorted_chunks(lengths: np.ndarray) -> list[np.ndarray]:
    """Sentence indices stably sorted by token count ``lengths``, in
    consecutive chunks of ``_EVAL_CHUNK``: every evaluation pass's plan."""
    order = np.argsort(lengths, kind="stable")
    return [order[start:start + _EVAL_CHUNK] for start in range(0, len(order), _EVAL_CHUNK)]


def _forward_chunks(model, data: PreparedSet):
    """Yield each chunk of ``_sorted_chunks`` of a prepared set: its
    sentence indices, its batch, and ``model``'s output rows on it."""
    for idx in _sorted_chunks(data.batch.lengths):
        chunk = data.batch.take(idx)
        p = model.forward(chunk)
        if data.scheme is not None and p.shape[1] != data.scheme.n_tags:
            raise ValueError(f"the student outputs {p.shape[1]} tags, but the scheme "
                             f"has {data.scheme.n_tags}")
        yield idx, chunk, p


def evaluate(predictor, dataset, task: Optional[str] = None,
             vocab: Optional[Vocabulary] = None,
             scheme: Optional[TagScheme] = None) -> EvalReport:
    """Score a student model or teacher evaluator on records, prepared here
    with ``vocab`` (and ``scheme`` for tagging) for a student, or on a
    ``PreparedSet``, which must match the teacher's or the arguments'.
    Teachers carry their own; the task is inferred from the record type
    when omitted.  Every predictor forwards chunks of ``_EVAL_CHUNK``
    sentences stably sorted by token count; the tagging teacher then
    decodes the same chunks, after one list-penalty pass over the whole
    set.  A sentence's rows do not depend on its chunk.
    """
    if isinstance(predictor, (SentimentTeacher, NerTeacher)):
        vocab, scheme = predictor.vocab, getattr(predictor, "scheme", None)
    if isinstance(dataset, PreparedSet):
        data = dataset
        if (task not in (None, data.task) or vocab not in (None, data.vocab)
                or scheme not in (None, data.scheme)):
            raise ValueError("the prepared set was made for another task, vocabulary or scheme")
    else:
        records = list(dataset)
        if not records:
            raise ValueError("empty evaluation dataset")
        if task is None:
            task = "sentiment" if isinstance(records[0], LabeledSentence) else "ner"
        if vocab is None or (task == "ner" and scheme is None):
            raise ValueError("student evaluation needs a vocabulary, and tagging a scheme")
        data = prepare(records, vocab, scheme if task == "ner" else None)
    if isinstance(predictor, NerTeacher):
        return _tagging_report(data, predictor._paths(data))
    if isinstance(predictor, SentimentTeacher):
        labels = predictor.soft_predict_set(data).argmax(axis=1)
    else:
        labels = np.empty(len(data.gold), dtype=int)
        for idx, _, p in _forward_chunks(predictor, data):
            labels[data.rows(idx)] = p.argmax(axis=1)
    if data.scheme is None:
        return EvalReport(task="sentiment", n=len(labels),
                          accuracy=float(np.mean(labels == data.gold)))
    return _tagging_report(data, labels)


# --- training ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrainResult:
    student: object
    teacher: Optional[object]
    vocab: Vocabulary
    scheme: Optional[TagScheme]
    history: tuple[dict, ...]
    diagnostics: dict


class _Driver:
    """The training loop's units over a prepared set: runs of sentence
    indices in ``units``, the first ``n_labeled`` labeled; the set's
    documents (whole, so every teacher group is built in full), or single
    sentences in pipeline stage 2.  ``targets``, the labeled rows' hard
    targets, is checked once, here."""

    def __init__(self, config: TrainConfig, data: PreparedSet, targets, units: TokenBatch,
                 n_labeled: int):
        self.config, self.data, self.targets = config, data, targets
        self.units, self.n_labeled = units, n_labeled
        if n_labeled:
            check_targets(targets)

    def _split(self, units):
        """Shuffled units in batches of about batch_size sentences."""
        return [units[group] for group in _pack(self.units.lengths[units], self.config.batch_size)]

    def batches(self, rng, pi: float):
        """One epoch's (labeled, units) batches; unlabeled ones join only
        while pi > 0."""
        plan = [(True, b) for b in self._split(rng.permutation(self.n_labeled))]
        n_unlabeled = len(self.units) - self.n_labeled
        if pi > 0.0 and n_unlabeled:
            plan += [(False, b)
                     for b in self._split(self.n_labeled + rng.permutation(n_unlabeled))]
            rng.shuffle(plan)
        return plan

    def init_model(self, seed: int):
        cfg, n_out = self.config, self.targets.shape[1]
        if cfg.task == "sentiment":
            return TextClassifier(len(self.data.vocab), n_out, emb_dim=cfg.emb_dim,
                                  window_sizes=cfg.conv_windows, n_filters=cfg.n_filters,
                                  seed=seed)
        return SequenceTagger(len(self.data.vocab), n_out, emb_dim=cfg.emb_dim,
                              hidden=cfg.hidden, radius=cfg.radius, seed=seed)


def _fit(model, driver: _Driver, teacher, pi_at, rng, dev=None, patience: int = 1):
    """The training loop.  Each batch takes one student forward p, hands p
    to the teacher for q while pi > 0, and takes one step on the blend
    (1 - pi) * hard + pi * q through the same forward; unlabeled batches
    imitate q alone, weighted by pi.  Without a teacher the targets are
    the units' hard rows.  With a dev set, prepared once, it keeps the
    best-dev parameters and stops after ``patience`` epochs without
    improvement."""
    data = driver.data
    if dev is not None:
        dev = prepare(dev, data.vocab, data.scheme)
    opt = Adadelta()
    best, best_params, stale = -np.inf, None, 0
    history = []
    for epoch in range(driver.config.epochs):
        pi = pi_at(epoch)
        losses = []
        for labeled, units in driver.batches(rng, pi):
            sentences = driver.units.positions(units)
            batch = data.batch.take(sentences)
            outputs, cache = model._forward_cache(batch)
            targets = driver.targets[data.rows(sentences)] if labeled else None
            if teacher is not None and pi > 0.0:
                q = teacher.soft_predict(outputs, batch, data, units)
                targets = q if targets is None else (1.0 - pi) * targets + pi * q
            losses.append(backward_and_step(model, batch, outputs, cache, targets, opt,
                                            loss_scale=1.0 if labeled else pi))
        history.append({"epoch": epoch, "pi": pi, "train_loss": float(np.mean(losses))})
        if dev is None:
            continue
        metric = evaluate(model, dev).metric()
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


def _make_driver(config: TrainConfig, train, unlabeled=()) -> _Driver:
    """The driver over the labeled, then the unlabeled documents."""
    train, unlabeled = list(train), list(unlabeled)
    if config.task == "sentiment":
        docs, u_docs, scheme = train, unlabeled, None
    else:
        docs, u_docs = group_documents(train), group_documents(unlabeled)
        scheme = infer_scheme(train)
    data = PreparedSet(docs + u_docs, Vocabulary.build(s.tokens for s in train + unlabeled),
                       scheme)
    gold = data.gold[:len(train) if scheme is None else sum(map(len, train))]
    n_out = max(2, int(gold.max()) + 1) if scheme is None else scheme.n_tags
    return _Driver(config, data, np.eye(n_out)[gold], data.docs, len(docs))


def _teacher(config: TrainConfig, driver: _Driver, model, rules, sweeps: int):
    return project_after(model, driver.data.vocab, rules, config.c, config.task,
                         scheme=driver.data.scheme, eval_sweeps=sweeps,
                         g_max=config.g_max, seed=config.seed)


def _diagnostics(teacher) -> dict:
    """The teacher's live counter: sentiment projections left at p because
    hard rules excluded every label."""
    if isinstance(teacher, SentimentTeacher):
        return {"infeasible_instances": teacher.infeasible}
    return {}


def _train(config: TrainConfig, driver: _Driver, rules, dev,
           distill: bool = True) -> TrainResult:
    """Train a student, distilling the rules into it unless ``distill`` is
    False (project-after and pipeline stage 1, which deploy a teacher even
    without rules).  Every teacher is built before training, over the
    student it reads, so a rule the task's teacher cannot use fails first."""
    model = driver.init_model(config.seed)
    deployed = (_teacher(config, driver, model, rules, config.eval_sweeps)
                if rules or not distill else None)
    if distill and rules and config.c > 0.0:
        teacher = _teacher(config, driver, model, rules, config.train_sweeps)
        pi_at = config.resolved_schedule().rate
    else:
        # The plain supervised path: no teacher, pi = 0 throughout.
        teacher, pi_at = None, lambda epoch: 0.0
    history = _fit(model, driver, teacher, pi_at, np.random.default_rng((config.seed, 1)),
                   dev, config.patience)
    return TrainResult(
        student=model,
        teacher=deployed,
        vocab=driver.data.vocab,
        scheme=driver.data.scheme,
        history=tuple(history),
        diagnostics=_diagnostics(teacher),
    )


def train_distill(config: TrainConfig, train, rules: Sequence[Rule] = (), dev=None,
                  unlabeled=()) -> TrainResult:
    """Train a student on the labeled records ``train`` in ``config.mode``:
    base, distill, semi (imitating q on ``unlabeled`` batches too),
    project-after or pipeline, as the module docstring describes.  C = 0 or
    no rules take the plain path, bit-identical to a base run.  The tagging
    teacher gives document d of the training set, labeled ones first, the
    seed ``seed + 7919 * d``.  Rules in base mode, and unlabeled records
    outside semi or none in semi, fail by mode before any step."""
    mode, rules, unlabeled = config.mode, tuple(rules), list(unlabeled)
    if mode == "base" and rules:
        raise ValueError(f"mode 'base' trains without rules, but got "
                         f"{', '.join(repr(rule.name) for rule in rules)}")
    if (mode == "semi") != bool(unlabeled):
        raise ValueError("mode 'semi' needs unlabeled records" if mode == "semi" else
                         f"unlabeled records apply only to mode 'semi', not {mode!r}")
    if mode == "pipeline":
        return _pipeline(config, train, rules, dev)
    return _train(config, _make_driver(config, train, unlabeled), rules, dev,
                  distill=mode != "project-after")


def project_after(model, vocab: Vocabulary, rules: Sequence[Rule], c: float,
                  task: str, scheme: Optional[TagScheme] = None,
                  eval_sweeps: int = 2000, g_max: int = 8, seed: int = 0):
    """Evaluation-time-only projection of a trained model; no weight change.
    Rejects a c that is not finite and nonnegative, a negative seed, and
    counts below 1."""
    _check_settings(c, seed, eval_sweeps=eval_sweeps, g_max=g_max)
    if task == "sentiment":
        return SentimentTeacher(model, vocab, rules, c)
    if scheme is None:
        raise ValueError("tagging projection needs a tag scheme")
    return NerTeacher(model, vocab, scheme, rules, c,
                      sweeps=eval_sweeps, g_max=g_max, seed=seed)


def _pipeline(config: TrainConfig, train, rules, dev) -> TrainResult:
    """Two-stage pipeline: train a base model, freeze and project it, then
    train a FRESH student purely on the projected soft targets (pi = 1)."""
    driver = _make_driver(config, train)
    stage1 = _train(config, driver, rules, dev, distill=False)
    teacher, data = stage1.teacher, driver.data

    # Teacher targets from the frozen model are static: compute them once,
    # as stage 2's hard rows, with one unit per sentence of the set.
    n = len(data.batch)
    fixed = _Driver(config, data, teacher.soft_predict_set(data),
                    TokenBatch(np.arange(n), np.ones(n, dtype=int)), n)
    student = driver.init_model(config.seed + 1)
    history = _fit(student, fixed, None, lambda epoch: 1.0,
                   np.random.default_rng((config.seed, 4)))
    return replace(stage1, student=student, teacher=teacher, history=tuple(history),
                   diagnostics={"stage1_epochs": len(stage1.history), **_diagnostics(teacher)})
