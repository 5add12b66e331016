"""The iterative distillation loop and its evaluation harness.

Each epoch t (the imitation index advances per epoch) every minibatch is
processed as: forward the student p on the batch, build the teacher q by
projecting that p onto the rule set, and take one gradient step, through
the same forward, on the cross-entropy against the blend
(1 - pi) * hard + pi * q, so the SAME instances feed the hard-label and
the imitation term.  The teachers are functions of p: they never forward
the student on the batch themselves.

Teacher construction is routed by rule scope: per-instance rules become
single-position projections, bigram rules become chain potentials read
from their groundings, and cross-instance rules become groups over the
linked sites whose marginals then enter the per-sentence chains as extra
unary penalties.  The groups are solved at category level: enumerated
exactly, stacked by size, when their joint space has at most
``EXACT_MAX_STATES`` states, Gibbs-sampled above that.  That composition
keeps hard transition constraints out of the group regime (see the
inference module note on ergodicity) while still letting list information
flow into every decoded sequence.  The tagging teacher works on a whole
minibatch of documents in training, and on chunks of about
``_EVAL_CHUNK`` sentences' worth of documents in evaluation: one array of
the linked sites, groups and seeds per document, stacked exact solves,
one array expression for the list penalties, and one chain query over
every sentence.

Modes: plain supervised (base), distillation, semi-supervised
distillation (imitation term additionally on unlabeled batches),
evaluation-time-only projection, and a two-stage pipeline that trains a
fresh student against a frozen projected teacher.  A distillation run
with C = 0 or an empty rule set takes the base code path outright, so its
parameter trajectory is bit-identical to a base run with the same seed.
Students are trained and evaluated on whole batches: one padded forward
and backward pass per minibatch, and one forward per evaluation chunk.
Evaluation sorts records by token count before chunking, so a forward
pads only to its chunk's longest sentence, and scores tags as index arrays.

Every mode runs through one epoch loop over a per-task driver, which
supplies an epoch's batches, each unit's hard target rows as one array,
and the teacher's q for a batch's student outputs.  Each task has one
teacher class, which builds the training targets and is deployed for
evaluation as a student forward followed by the same call.
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
    GroupTeacherQuery,
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
    Vocabulary,
    backward_and_step,
    check_targets,
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


def _span_ends(codes: np.ndarray, first: np.ndarray) -> np.ndarray:
    """For each position of concatenated tag-index sequences, one past the
    end of the complete span it starts, an S-Y or a B-Y I-Y* E-Y run within
    its sentence, or 0; ``first`` marks each sentence's first position."""
    cat, prefix = np.divmod(codes - 1, 4)  # prefix 0..3 is B, I, E, S
    prefix[codes == 0] = -1
    # Position t extends a run: an I or E after a B or I of its category.
    before = np.roll(prefix, 1)
    extends = (~first & (np.roll(cat, 1) == cat) & (prefix >= 1) & (prefix <= 2)
               & (before >= 0) & (before <= 1))
    run_start = np.maximum.accumulate(np.where(extends, 0, np.arange(len(codes))))
    ends = np.flatnonzero(extends & (prefix == 2))
    ends = ends[prefix[run_start[ends]] == 0]
    out = np.where(prefix == 3, np.arange(1, len(codes) + 1), 0)
    out[run_start[ends]] = ends + 1
    return out


def _tagging_report(scheme: TagScheme, sents, pred: np.ndarray) -> EvalReport:
    """Exact-span micro P/R/F1 and the BIOES-valid fraction of ``pred``, the
    predicted tag indices of ``sents`` concatenated.  A span is its start,
    end and first tag; gold tags of a category outside the scheme get indices
    past its own, so their spans are missed, and a tag with no prefix is O."""
    tags = [t for s in sents for t in s.tags]
    foreign = {t.partition("-")[2] for t in set(tags)} - {"", *scheme.categories}
    index = {tag: k for k, tag in enumerate(TagScheme(scheme.categories + tuple(foreign)).tags)}
    gold = np.array([index.get(t, 0) for t in tags], dtype=int)
    first = np.zeros(len(pred), dtype=bool)
    first[np.cumsum([0] + [len(s.tags) for s in sents])[:-1]] = True
    gold_ends, pred_ends = _span_ends(gold, first), _span_ends(pred, first)
    tp = int(np.count_nonzero((gold_ends > 0) & (gold_ends == pred_ends) & (gold == pred)))
    n_pred, n_gold = int(np.count_nonzero(pred_ends)), int(np.count_nonzero(gold_ends))
    prec = tp / n_pred if n_pred else 1.0
    rec = tp / n_gold if n_gold else 1.0
    masks = transition_masks(scheme)
    bad = (np.where(first, ~masks.valid_start[pred], ~masks.valid_pair[np.roll(pred, 1), pred])
           | (np.roll(first, -1) & ~masks.valid_end[pred]))
    valid = np.ones(len(sents), dtype=bool)
    valid[np.cumsum(first)[bad] - 1] = False
    return EvalReport(task="ner", n=len(sents), precision=prec, recall=rec,
                      f1=2 * prec * rec / (prec + rec) if prec + rec else 0.0,
                      validity_rate=float(np.mean(valid)))


# --- rule routing ------------------------------------------------------------


# The rule scopes each task's teacher reads.
_SCOPES = {"sentiment": ("per-instance",), "ner": ("bigram", "cross-instance")}


def _split_rules(rules: Sequence[Rule], task: str):
    """The task teacher's rules, one list per scope it reads.  A rule of
    any other scope is rejected by name rather than dropped."""
    scopes = _SCOPES[task]
    unread = [r.name for r in rules if r.scope not in scopes]
    if unread:
        raise ValueError(f"the {task} teacher reads only {' and '.join(scopes)} rules, "
                         f"so it cannot use {', '.join(map(repr, unread))}")
    for r in rules:
        if r.scope == "cross-instance" and r.hard:
            raise ValueError(
                f"rule {r.name!r}: cross-instance rules must have finite "
                "confidence (the sampler needs soft couplings)"
            )
    return [[r for r in rules if r.scope == scope] for scope in scopes]


# --- sentiment teacher -------------------------------------------------------


def _encode_sentence(vocab: Vocabulary, tokens):
    """A sentence's ids and its clause-B ids (None without A-but-B)."""
    st = detect_but(tokens)
    return vocab.encode(tokens), None if st is None else vocab.encode(st.clause_b)


class SentimentTeacher:
    """The classification teacher: projects the student's output p through
    the per-instance rules.  Instances without an A-but-B structure are
    left at p.  ``soft_predict`` maps a batch's p to q, in training and
    evaluation alike; deployment forwards the student first, as
    ``predict_proba`` does for one sentence's tokens."""

    def __init__(self, model, vocab: Vocabulary, rules: Sequence[Rule], c: float):
        self.model = model
        self.vocab = vocab
        (self.rules,) = _split_rules(rules, "sentiment")
        self.c = float(c)
        k = model.n_classes
        for rule in self.rules:
            (probe,) = rule.groundings([np.full(k, 1.0 / k)])
            if np.shape(probe.table) != (k,):
                raise ValueError(f"rule {rule.name!r}: its truth table has shape "
                                 f"{np.shape(probe.table)}, but the classifier has {k} classes")
        # Projections left at p because the hard rules exclude every label.
        self.infeasible = 0

    def soft_predict(self, p, clause_b_ids) -> list[np.ndarray]:
        """Teacher distributions for a batch, given the student's outputs
        ``p`` on its sentences, with one student forward over their B
        clauses; ``clause_b_ids[i]`` is None when sentence i has no A-but-B
        structure."""
        q = list(p)
        has_b = [i for i, clause in enumerate(clause_b_ids) if clause is not None]
        if not has_b or not self.rules:
            return q
        clause_sigmas = self.model.forward([clause_b_ids[i] for i in has_b])
        for i, clause_sigma in zip(has_b, clause_sigmas):
            groundings = tuple(
                (rule.confidence, g.table)
                for rule in self.rules
                for g in rule.groundings([clause_sigma])
            )
            try:
                q[i] = project(ProjectionProblem(np.log(p[i]), groundings, self.c)).probs()
            except InfeasibleConstraintError:
                self.infeasible += 1
        return q

    def predict_proba(self, tokens) -> np.ndarray:
        ids, clause = _encode_sentence(self.vocab, tokens)
        return self.soft_predict(self.model.forward([ids]), [clause])[0]


# --- NER teacher -------------------------------------------------------------


def _chain_terms(rules: Sequence[Rule], n_tags: int, c: float):
    """Chain potentials (pair, start, end) of the bigram rules, read from
    each rule's groundings on one 3-position member: -c * confidence *
    (1 - truth), summed over rules and groundings, or -inf where a hard
    rule's truth is below 1; zeros without a bigram rule.  A rule the
    chain cannot hold is rejected by name: one that grounds other sites
    than the first, the last or two consecutive ones, or whose pair table
    depends on the position."""
    pair, start, end = np.zeros((n_tags, n_tags)), np.zeros(n_tags), np.zeros(n_tags)
    for rule in rules:
        steps = np.zeros((2, n_tags, n_tags))
        for g in rule.groundings([range(3)]):
            table = np.asarray(g.table, dtype=float)
            term = (np.where(table < 1.0, -math.inf, 0.0) if rule.hard
                    else -c * rule.confidence * (1.0 - table))
            sites = tuple(map(tuple, g.sites))
            if sites == ((0, 0),):
                start = start + term
            elif sites == ((0, 2),):
                end = end + term
            elif (len(sites) == 2 and sites[0][0] == sites[1][0] == 0
                  and abs(sites[1][1] - sites[0][1]) == 1):
                (_, a), (_, b) = sites
                steps[min(a, b)] += term if a < b else term.T
            else:
                raise ValueError(
                    f"rule {rule.name!r}: a chain holds groundings of the first site, the "
                    f"last site or two consecutive sites, not of {sites}"
                )
        if not np.array_equal(steps[0], steps[1]):
            raise ValueError(
                f"rule {rule.name!r}: its pair table depends on the position, which a "
                "chain cannot hold"
            )
        pair = pair + steps[0]
    return pair, start, end


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


def _check_cross_rule(rule: Rule, collapse: CategoryCollapse) -> None:
    """Reject a cross rule whose truth table is not
    ``counterpart_truth_table``'s.  The group teacher sums out the BIOES
    variants exactly only for a table that is constant within categories,
    and stage 2 scores every cross rule with the list-rule truth."""
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


def _regroup(items: list, sizes: Sequence[int]) -> list[list]:
    """``items`` cut into consecutive runs of the given sizes."""
    it = iter(items)
    return [list(itertools.islice(it, n)) for n in sizes]


class NerTeacher:
    """The tagging teacher: the chain+group teacher built from the
    student's probabilities, for a batch of documents at a time.

    Stage 1 reads the student's outputs on every sentence of the batch
    (training hands over the step's forward; deployment forwards the
    student first) and gathers every cross-linked site of the batch into
    one array.  Within each document the linked sites form groups over tag
    categories, each site's unary being the student's mass per category,
    and every link carrying one table for the summed confidence of the
    cross rules.  Groups never span documents, and each document has its
    own seed for link cutting and sampling.  Groups of one size are
    enumerated exactly in stacks of up to ``EXACT_MAX_STATES`` joint
    states; a group above that bound is Gibbs-sampled.  Each category's
    marginal mass is spread back over its tags in the student's
    proportions.  Stage 2: every linked site gets a unary penalty measuring
    the list rule against its counterparts' stage-1 marginals, one array
    expression for the batch; then one chain query holds every sentence of
    the batch, with the bigram rules' potentials, and is solved with one
    product per position.  At evaluation the counterpart links come from
    the evaluated document itself.
    """

    def __init__(self, model, vocab: Vocabulary, scheme: TagScheme,
                 rules: Sequence[Rule], c: float, sweeps: int = 2000,
                 g_max: int = 8, seed: int = 0):
        self.model = model
        self.vocab = vocab
        self.scheme = scheme
        self.seed = seed
        self.bigram, self.cross = _split_rules(rules, "ner")
        # A teacher without a model is fed the student's outputs directly.
        if model is not None and model.n_tags != scheme.n_tags:
            raise ValueError(f"the model outputs {model.n_tags} tags, but the scheme "
                             f"has {scheme.n_tags}")
        self.collapse = CategoryCollapse(scheme)
        self.c = float(c)
        for rule in self.cross:
            _check_cross_rule(rule, self.collapse)
        # Every cross rule is the list rule, so their confidences add up,
        # in stage 1's link table as in stage 2's penalty.
        self.lam = sum(rule.confidence for rule in self.cross)
        reps = np.unique(self.collapse.group_index, return_index=True)[1]
        truth = counterpart_truth_table(self.collapse)[np.ix_(reps, reps)]
        self.link_table = -self.c * self.lam * (1.0 - truth)
        self.sweeps = sweeps
        self.g_max = g_max
        self.chain_terms = _chain_terms(self.bigram, scheme.n_tags, self.c)

    def _stage1(self, docs_sigmas, docs_links, seeds):
        """Stage 1 for a batch, laid out like ``soft_predict``'s arguments:
        the row of every linked site in the batch's concatenated positions
        (documents in order, each one's sites sorted), every link as an
        (L, 2) array of indices into those sites, and the sites' (S, K)
        teacher tag marginals.  None without a cross rule, link or c > 0."""
        if not self.cross or self.c == 0.0:
            return None
        sigmas = [sigma for doc in docs_sigmas for sigma in doc]
        starts = np.cumsum([0] + [len(s) for s in sigmas])
        firsts = np.cumsum([0] + [len(doc) for doc in docs_sigmas])
        rows, ends, docs = [], [], []
        offset = 0
        for first, (sites, links), seed in zip(firsts, docs_links, seeds):
            if links:
                rows.append(starts[first + sites[:, 0]] + sites[:, 1])
                ends.append(np.add(links, offset))
                docs.append((offset, len(sites), links, seed))
                offset += len(sites)
        if not docs:
            return None
        rows = np.concatenate(rows)
        sigma = np.concatenate(sigmas)[rows]
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
            for chunk in _pack([k**n] * len(groups), EXACT_MAX_STATES):
                ids = np.array([groups[g][0] for g in chunk])
                counts = np.zeros((len(chunk), n, n))
                for b, g in enumerate(chunk):
                    for i, j in groups[g][1].links:
                        counts[b, i, j] += 1.0
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

    def _chains(self, docs_sigmas, docs_links, seeds) -> ChainTeacherQuery:
        """One chain query over every sentence of a batch of documents, in
        document order, given the student's outputs per document."""
        sigmas = [sigma for doc in docs_sigmas for sigma in doc]
        log_unary = np.log(np.concatenate(sigmas))
        stage1 = self._stage1(docs_sigmas, docs_links, seeds)
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
        starts = np.cumsum([len(s) for s in sigmas])[:-1]
        return ChainTeacherQuery(np.split(log_unary, starts), *self.chain_terms)

    def soft_predict(self, docs_sigmas, docs_links, seeds) -> list[np.ndarray]:
        """Teacher marginals of every sentence of a batch, in document
        order: ``docs_sigmas`` holds the student's outputs on each
        document's sentences, ``docs_links`` its linked sites and links as
        ``_doc_links`` gives them, and ``seeds`` its stage-1 seed."""
        return chain_marginals(self._chains(docs_sigmas, docs_links, seeds))

    def _paths(self, docs: Sequence[Sequence[TaggedSentence]]) -> list[np.ndarray]:
        """Decoded tag-index paths of every sentence of every document, in
        chunks of about ``_EVAL_CHUNK`` sentences; document d gets the seed
        ``seed + 7919 * d`` whatever its chunk, so repeats are identical."""

        def decode(chunk):
            tokens = [[s.tokens for s in doc] for _, doc in chunk]
            sigmas = self.model.forward([self.vocab.encode(t) for doc in tokens for t in doc])
            return chain_map_decode(self._chains(
                _regroup(sigmas, [len(doc) for doc in tokens]),
                [_doc_links(doc) for doc in tokens],
                [self.seed + 7919 * d for d, _ in chunk],
            ))[0]

        return list(_chunked(decode, list(enumerate(docs)), [len(doc) for doc in docs]))

    def predict_tags(self, docs: Sequence[Sequence[TaggedSentence]]):
        """Decoded tags of every sentence of every document, by document."""
        tags = [[self.scheme.tags[k] for k in path] for path in self._paths(docs)]
        return _regroup(tags, [len(doc) for doc in docs])


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


def _chunked(fn, items, sizes: Sequence[int]):
    """Yield ``fn``'s outputs, calling it on consecutive chunks of
    ``items`` of about ``_EVAL_CHUNK`` sentences, where ``sizes`` gives each
    item's sentence count.  A consumer that keeps only what it derives from
    each output holds one chunk's outputs at a time."""
    for group in _pack(sizes, _EVAL_CHUNK):
        yield from fn([items[i] for i in group])


def _sorted_labels(predict, records) -> list:
    """``predict``'s label of each record, in dataset order.  Records are
    stably sorted by token count and cut into chunks of ``_EVAL_CHUNK``, so
    each forward pads only to its own chunk's longest sentence and one
    chunk's distributions are held at a time."""
    order = sorted(range(len(records)), key=lambda i: len(records[i].tokens))
    out = [None] * len(records)
    for start in range(0, len(order), _EVAL_CHUNK):
        idx = order[start:start + _EVAL_CHUNK]
        for i, label in zip(idx, predict([records[i] for i in idx])):
            out[i] = label
    return out


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

    if task == "sentiment" and isinstance(predictor, SentimentTeacher):
        def forward(chunk):
            ids, clauses = zip(*(_encode_sentence(predictor.vocab, s.tokens) for s in chunk))
            return predictor.soft_predict(predictor.model.forward(ids), clauses)
    elif not (task == "ner" and isinstance(predictor, NerTeacher)):
        if vocab is None or (task == "ner" and scheme is None):
            raise ValueError("student evaluation needs a vocabulary, and tagging a scheme")

        def forward(chunk):
            return predictor.forward([vocab.encode(s.tokens) for s in chunk])

    if task == "sentiment":
        labels = _sorted_labels(lambda chunk: np.argmax(forward(chunk), axis=1), dataset)
        acc = float(np.mean(np.array(labels) == [s.label for s in dataset]))
        return EvalReport(task="sentiment", n=len(dataset), accuracy=acc)

    docs = group_documents(dataset)
    sents = [s for doc in docs for s in doc]
    if isinstance(predictor, NerTeacher):
        return _tagging_report(predictor.scheme, sents, np.concatenate(predictor._paths(docs)))

    def predict(chunk):
        p = np.concatenate(forward(chunk))
        if p.shape[1] != scheme.n_tags:
            raise ValueError(f"the student outputs {p.shape[1]} tags, but the scheme "
                             f"has {scheme.n_tags}")
        return np.split(p.argmax(axis=1), np.cumsum([len(s) for s in chunk])[:-1])

    return _tagging_report(scheme, sents, np.concatenate(_sorted_labels(predict, sents)))


# --- training ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrainResult:
    student: object
    teacher: Optional[object]
    vocab: Vocabulary
    scheme: Optional[TagScheme]
    history: tuple[dict, ...]
    diagnostics: dict


@dataclass(frozen=True, eq=False)
class _Unit:
    """What one shuffle moves: a sentence for classification, a whole
    document for tagging (so every teacher group is built in full).
    ``ids`` holds one entry per sentence; ``hard`` is the (rows, K) array of
    hard target rows (a row per sentence, or per position, in sentence
    order), None for an unlabeled unit; ``rule_input`` is what the teacher
    reads besides the student's outputs (clause-B ids, or the document's
    tokens, from which list links are detected)."""

    ids: list
    hard: Optional[np.ndarray]
    rule_input: object = None


class _Driver:
    """Task plumbing for the training loop: the units and the batches of an
    epoch.  The units' hard target rows are checked once, here.  Task
    subclasses add ``soft_targets(teacher, outputs, units)``: the teacher's
    q for each sentence of a batch, given the student's outputs on them."""

    scheme: Optional[TagScheme] = None

    def __init__(self, config: TrainConfig, units, u_units=()):
        self.config = config
        self.units = units
        self.u_units = list(u_units)
        if units:
            check_targets(np.concatenate([unit.hard for unit in units]))
        # Seeds the tagging teacher's group formation and Gibbs runs, one
        # draw per document.
        self.teacher_rng = np.random.default_rng((config.seed, 2))

    def _split(self, order, units):
        """Shuffled units in batches of about batch_size sentences."""
        sizes = [len(units[int(u)].ids) for u in order]
        return [[units[int(order[i])] for i in group]
                for group in _pack(sizes, self.config.batch_size)]

    def batches(self, rng, pi: float):
        """One epoch's (labeled, units) batches; unlabeled ones join only
        while pi > 0."""
        plan = [(True, b) for b in self._split(rng.permutation(len(self.units)), self.units)]
        if pi > 0.0 and self.u_units:
            plan += [
                (False, b)
                for b in self._split(rng.permutation(len(self.u_units)), self.u_units)
            ]
            rng.shuffle(plan)
        return plan


class _SentimentDriver(_Driver):
    def __init__(self, config: TrainConfig, train, unlabeled=()):
        train, unlabeled = list(train), list(unlabeled)
        self.n_classes = max(2, max(s.label for s in train) + 1)
        self.vocab = Vocabulary.build([s.tokens for s in train + unlabeled])
        one_hot = np.eye(self.n_classes)
        super().__init__(
            config,
            [self._unit(s, one_hot[[s.label]]) for s in train],
            [self._unit(s, None) for s in unlabeled],
        )

    def _unit(self, sentence, hard):
        ids, clause = _encode_sentence(self.vocab, sentence.tokens)
        return _Unit([ids], hard, clause)

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

    def soft_targets(self, teacher, outputs, units):
        return teacher.soft_predict(outputs, [u.rule_input for u in units])


class _NerDriver(_Driver):
    def __init__(self, config: TrainConfig, train, unlabeled=()):
        docs = group_documents(list(train))
        u_docs = group_documents(list(unlabeled))
        cats = sorted(
            {t.split("-", 1)[1] for doc in docs + u_docs for s in doc for t in s.tags if t != "O"}
        )
        self.scheme = TagScheme(tuple(cats))
        self.vocab = Vocabulary.build([s.tokens for doc in docs + u_docs for s in doc])
        # Each document's linked sites and links, detected on its first
        # teacher use; base mode never builds a teacher and so detects none.
        self.links: dict[_Unit, list] = {}
        super().__init__(config, [self._unit(d) for d in docs], [self._unit(d) for d in u_docs])

    def _unit(self, doc):
        one_hot = np.eye(self.scheme.n_tags)
        return _Unit(
            [self.vocab.encode(s.tokens) for s in doc],
            one_hot[[self.scheme.index(t) for s in doc for t in s.tags]],
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

    def soft_targets(self, teacher, outputs, units):
        for unit in units:
            if unit not in self.links:
                self.links[unit] = _doc_links(unit.rule_input)
        seeds = [int(self.teacher_rng.integers(2**31 - 1)) for _ in units]
        return teacher.soft_predict(_regroup(outputs, [len(u.ids) for u in units]),
                                    [self.links[u] for u in units], seeds)


def _fit(model, driver: _Driver, teacher, pi_at, rng, dev=None, patience: int = 1):
    """The training loop.  Each batch takes one student forward p, hands p
    to the teacher for q while pi > 0, and takes one step on the blend
    (1 - pi) * hard + pi * q through the same forward; unlabeled batches
    imitate q alone, weighted by pi.  Without a teacher the targets are
    the units' hard rows.  With a dev set it keeps the best-dev parameters
    and stops after ``patience`` epochs without improvement."""
    opt = Adadelta()
    best, best_params, stale = -np.inf, None, 0
    history = []
    for epoch in range(driver.config.epochs):
        pi = pi_at(epoch)
        losses = []
        for labeled, units in driver.batches(rng, pi):
            outputs, cache = model._forward_cache([ids for u in units for ids in u.ids])
            targets = np.concatenate([u.hard for u in units]) if labeled else None
            if teacher is not None and pi > 0.0:
                q = np.vstack(driver.soft_targets(teacher, outputs, units))
                targets = q if targets is None else (1.0 - pi) * targets + pi * q
            losses.append(backward_and_step(model, outputs, cache, targets, opt,
                                            loss_scale=1.0 if labeled else pi))
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


def _train(config: TrainConfig, driver: _Driver, rules, dev,
           distill: bool = True) -> TrainResult:
    """Train a student, distilling the rules into it unless ``distill`` is
    False (pipeline stage 1, which deploys a teacher even without rules).
    Every teacher is built before training, over the student it reads, so
    a rule the task's teacher cannot use fails first."""
    rules = list(rules)
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
    stage1 = _train(config, driver, rules, dev, distill=False)
    teacher = stage1.teacher
    # Teacher targets from the frozen model are static: compute them once,
    # as stage 2's hard target rows, one unit per sentence.
    driver.teacher_rng = np.random.default_rng((config.seed, 3))

    def frozen_q(units):
        p = teacher.model.forward([ids for unit in units for ids in unit.ids])
        return driver.soft_targets(teacher, p, units)

    sentences = [ids for unit in driver.units for ids in unit.ids]
    softs = _chunked(frozen_q, driver.units, [len(unit.ids) for unit in driver.units])
    fixed = _Driver(config, [_Unit([ids], np.atleast_2d(q)) for ids, q in zip(sentences, softs)])
    student = driver.init_model(config.seed + 1)
    history = _fit(student, fixed, None, lambda epoch: 1.0,
                   np.random.default_rng((config.seed, 4)))
    return replace(stage1, student=student, teacher=teacher, history=tuple(history),
                   diagnostics={"stage1_epochs": len(stage1.history), **_diagnostics(teacher)})
