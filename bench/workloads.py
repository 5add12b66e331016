"""The benchmark's seeded workloads: inputs, the cycle of library calls,
and the output checks.

Each workload is a closed loop with one caller.  A cycle trains a base
model and a distilled model, deploys a teacher, and evaluates the base
student, the distilled student (p) and the teacher (q).  Every call is one
operation; it fails if it raises or its output fails a check, and every
cycle after the first must reproduce the first cycle's outputs bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from ruledistill import corpus
from ruledistill.corpus import (
    NerTaskSpec,
    SentimentTaskSpec,
    TaggedSentence,
    detect_lists,
    group_documents,
)
from ruledistill.rulelib import (
    CategoryCollapse,
    TagScheme,
    but_rule,
    list_counterpart_rule,
    transition_rules,
)
from ruledistill.trainer import (
    ImitationSchedule,
    NerTeacher,
    TrainConfig,
    evaluate,
    project_after,
    train_distill,
)


@dataclass(frozen=True)
class Size:
    """Corpus sizes and run lengths.  ``full`` is what the metrics use;
    ``smoke`` is the smallest size that still runs every code path."""

    sent_train: int = 2000
    sent_test: int = 500
    sent_epochs: int = 3
    ner_train_docs: int = 120
    ner_test_docs: int = 60
    long_docs: int = 14
    ner_base_epochs: int = 10
    ner_distill_epochs: int = 3
    long_distill_epochs: int = 2
    train_sweeps: int = 100
    eval_sweeps: int = 1000
    eval_reps: int = 3
    # Students are evaluated on copies of the test set up to this many
    # sentences, so that one call takes about 0.1 s rather than the few ms
    # of the 14 long-list documents, in which timer and cache jitter swamp it.
    p_eval_sentences: int = 1500


SIZES = {
    "full": Size(),
    "smoke": Size(sent_train=120, sent_test=40, sent_epochs=2, ner_train_docs=16,
                  ner_test_docs=8, long_docs=2, ner_base_epochs=2, ner_distill_epochs=2,
                  train_sweeps=10, eval_sweeps=20, eval_reps=1, p_eval_sentences=0),
}


@dataclass
class Inputs:
    """Everything one cycle needs; built by a workload's setup."""

    task: str
    train: list
    test: list
    rules: tuple
    base_cfg: TrainConfig
    distill_cfg: TrainConfig
    q_reps: int
    p_reps: int
    # What the students are evaluated on: copies of the test set.
    student_test: list
    # Builds the deployed teacher from the base result; None deploys the
    # distill result's own teacher.
    deploy: Optional[Callable] = None
    # Items per list in each test document made by long_list_docs.
    list_sizes: tuple = ()

    @property
    def n_train(self) -> int:
        return len(self.train)

    @property
    def n_test(self) -> int:
        return len(self.test)

    def input_problems(self) -> list[str]:
        return check_long_lists(self.test, self.list_sizes) if self.list_sizes else []

    def teacher_instances(self) -> int:
        """Instances the teacher is built for in one cycle: distill-training
        sentences in epochs with pi > 0, plus every teacher evaluation."""
        sched = self.distill_cfg.resolved_schedule()
        teacher_epochs = sum(sched.rate(e) > 0 for e in range(self.distill_cfg.epochs))
        return self.n_train * teacher_epochs + self.n_test * self.q_reps


# --- corpora -----------------------------------------------------------------

NER_CATEGORIES = ("LOC", "ORG", "PER")

# Document kinds of gen_synthetic_ner, keyed (list kind, list items, plain
# sentences), with the generator's own probabilities: its spec's
# list_fraction, then even draws of kind, size (3-4) and plain sentences (2-3).
_LIST = NerTaskSpec().list_fraction
_NER_MIX = [(("none", 0, p), (1 - _LIST) / 2) for p in (2, 3)] + [
    ((kind, k, p), _LIST / 8) for kind in ("numbered", "dash") for k in (3, 4) for p in (2, 3)
]
# Each chunk draws four times the documents wanted, so every kind, at a
# share of 1/16 or more, fills well within this many chunks.
_MAX_CHUNKS = 20


def _quotas(n_docs: int) -> dict:
    """Largest-remainder rounding of the mix to ``n_docs`` documents."""
    exact = [(kind, n_docs * share) for kind, share in _NER_MIX]
    quotas = {kind: math.floor(x) for kind, x in exact}
    short = n_docs - sum(quotas.values())
    for kind, x in sorted(exact, key=lambda kx: kx[1] - math.floor(kx[1]), reverse=True)[:short]:
        quotas[kind] += 1
    return quotas


def _doc_kind(doc) -> tuple:
    dash = sum(s.tokens[0] == "-" for s in doc)
    if dash:
        return ("dash", dash, len(doc) - dash)
    for s in doc:
        if s.tokens[0] == "1.":
            return ("numbered", len(s.tokens) // 2, len(doc) - 1)
    return ("none", 0, len(doc))


def ner_corpus(seed: int, n_docs: int, noise: float) -> list[TaggedSentence]:
    """Documents from gen_synthetic_ner with the document mix pinned.

    The generator draws list presence, list kind, list size and sentence
    count per document.  Left free, the number of list sites moves the
    teacher's Gibbs work per sentence by about 10% between seeds, more
    than the bounds the timings are held to.  So documents are drawn in
    generator order until each kind has its expected share: the seed still
    picks every token and label, and the work is the same for every seed.
    """
    quotas = _quotas(n_docs)
    spec = NerTaskSpec(entity_label_noise=noise)
    out: list[TaggedSentence] = []
    doc_id = 0
    for chunk in range(_MAX_CHUNKS):
        pool = corpus.gen_synthetic_ner(seed=seed + 10_000 * chunk, n_docs=4 * n_docs, spec=spec)
        for doc in group_documents(pool):
            kind = _doc_kind(doc)
            if quotas.get(kind, 0) > 0:
                quotas[kind] -= 1
                out += [TaggedSentence(s.tokens, s.tags, doc_id, s.sent_index) for s in doc]
                doc_id += 1
        if doc_id == n_docs:
            return out
    unfilled = {kind: left for kind, left in quotas.items() if left}
    raise RuntimeError(f"gen_synthetic_ner made too few documents of kinds {unfilled}; "
                       "its document mix no longer matches _NER_MIX")


def long_list_docs(seed: int, n_docs: int) -> tuple[list[TaggedSentence], list[int]]:
    """Documents of two plain sentences around one numbered list, and the
    number of items in each list.

    Items are drawn like gen_synthetic_ner's lists: one shared category
    (ORG or LOC), one anchor item from the category's own names, and the
    others ambiguous forms with the spec's probability.  Lists of more than
    g_max = 8 items make form_groups cut counterpart links.
    """
    spec = NerTaskSpec()
    rng = np.random.default_rng((seed, 31))
    sizes = [6 + 7 * i // n_docs for i in range(n_docs)]  # 6 to 12, evenly spread
    rng.shuffle(sizes)
    plain = group_documents(corpus.gen_synthetic_ner(
        seed=300 + seed, n_docs=n_docs, spec=replace(spec, list_fraction=0.0)))
    out = []
    for d, (n_items, doc) in enumerate(zip(sizes, plain)):
        cat = "ORG" if rng.random() < 0.5 else "LOC"
        own = spec.org_names if cat == "ORG" else spec.loc_names
        anchor = int(rng.integers(n_items))
        toks, tags = [], []
        for i in range(n_items):
            pool = spec.ambiguous if i != anchor and rng.random() < spec.ambiguous_in_list else own
            toks += [f"{i + 1}.", pool[int(rng.integers(len(pool)))]]
            tags += ["O", f"S-{cat}"]
        sents = [(doc[0].tokens, doc[0].tags), (toks, tags), (doc[1].tokens, doc[1].tags)]
        out += [TaggedSentence(tuple(t), tuple(g), d, i) for i, (t, g) in enumerate(sents)]
    return out, sizes


def check_long_lists(docs, sizes) -> list[str]:
    """detect_lists must find exactly one numbered list per document, with
    the number of items long_list_docs put in."""
    problems = []
    for d, (doc, want) in enumerate(zip(group_documents(docs), sizes)):
        found = [(g.kind, len(g.items)) for g in detect_lists([s.tokens for s in doc])]
        if found != [("numbered", want)]:
            problems.append(f"document {d}: expected one numbered list of {want}, found {found}")
    return problems


def _copies(test: list, n_sentences: int) -> list:
    """The test set repeated up to ``n_sentences``; tagged copies get
    document ids of their own."""
    k = max(1, math.ceil(n_sentences / len(test)))
    if not isinstance(test[0], TaggedSentence):
        return test * k
    n_docs = 1 + max(s.doc_id for s in test)
    return [replace(s, doc_id=c * n_docs + s.doc_id) for c in range(k) for s in test]


# --- workloads -----------------------------------------------------------------


def _ner_rules():
    scheme = TagScheme(NER_CATEGORIES)
    rules = tuple(transition_rules(scheme)) + (
        list_counterpart_rule(CategoryCollapse(scheme), confidence=1.0),
    )
    return scheme, rules


def _ner_configs(seed: int, size: Size, distill_epochs: int):
    common = dict(task="ner", seed=seed, patience=99, train_sweeps=size.train_sweeps, eval_sweeps=size.eval_sweeps)
    base = TrainConfig(mode="base", epochs=size.ner_base_epochs, **common)
    distill = TrainConfig(mode="distill", epochs=distill_epochs,
                          schedule=ImitationSchedule(pi0=0.4, alpha=0.9), **common)
    return base, distill


def setup_sent_distill(seed: int, size: Size) -> Inputs:
    """Criterion 6's data: label noise on plain training sentences, a clean
    test set, the but-rule (avg, lambda = 1) and C = 6."""
    train = corpus.gen_synthetic_sentiment(
        seed=100 + seed, n=size.sent_train, spec=SentimentTaskSpec(plain_label_noise=0.15))
    test = corpus.gen_synthetic_sentiment(seed=200 + seed, n=size.sent_test)
    common = dict(task="sentiment", seed=seed, epochs=size.sent_epochs, patience=99)
    return Inputs(
        task="sentiment", train=train, test=test,
        rules=(but_rule(confidence=1.0, variant="avg"),),
        base_cfg=TrainConfig(mode="base", **common),
        distill_cfg=TrainConfig(mode="distill", **common),
        p_reps=size.eval_reps, q_reps=size.eval_reps,
        student_test=_copies(test, size.p_eval_sentences),
    )


def setup_ner_distill(seed: int, size: Size) -> Inputs:
    """Criterion 7's data: 30% entity label noise in training, clean tests,
    the transition rules and the list-counterpart rule."""
    train = ner_corpus(100 + seed, size.ner_train_docs, noise=0.3)
    test = ner_corpus(200 + seed, size.ner_test_docs, noise=0.0)
    _, rules = _ner_rules()
    base, distill = _ner_configs(seed, size, size.ner_distill_epochs)
    return Inputs(task="ner", train=train, test=test, rules=rules,
                  base_cfg=base, distill_cfg=distill, p_reps=size.eval_reps, q_reps=1,
                  student_test=_copies(test, size.p_eval_sentences))


def setup_ner_longlists(seed: int, size: Size) -> Inputs:
    """The ner-distill training corpus; the base tagger is deployed through
    project_after on documents that each hold one long numbered list."""
    train = ner_corpus(100 + seed, size.ner_train_docs, noise=0.3)
    test, sizes = long_list_docs(seed, size.long_docs)
    scheme, rules = _ner_rules()
    base, distill = _ner_configs(seed, size, size.long_distill_epochs)

    def deploy(rb):
        return project_after(rb.student, rb.vocab, rules, base.c, "ner", scheme=scheme,
                             eval_sweeps=size.eval_sweeps, g_max=base.g_max, seed=seed)

    return Inputs(task="ner", train=train, test=test, rules=rules,
                  base_cfg=base, distill_cfg=distill, p_reps=size.eval_reps, q_reps=1,
                  student_test=_copies(test, size.p_eval_sentences),
                  deploy=deploy, list_sizes=tuple(sizes))


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "sent-distill": setup_sent_distill,
    "ner-distill": setup_ner_distill,
    "ner-longlists": setup_ner_longlists,
}


# --- one cycle -----------------------------------------------------------------


class OpFailed(Exception):
    """An operation raised; the rest of the cycle cannot run."""


def _params_digest(model) -> str:
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name]).tobytes())
    return h.hexdigest()


def _check_train(epochs: int, distill: bool):
    def check(result):
        problems = []
        if len(result.history) != epochs:
            problems.append(f"{len(result.history)} epochs run, expected {epochs}")
        bad = [h["train_loss"] for h in result.history if not math.isfinite(h["train_loss"])]
        if bad:
            problems.append(f"non-finite training loss {bad}")
        if distill and result.teacher is None:
            problems.append("distill run returned no teacher")
        return problems, (tuple(h["train_loss"] for h in result.history),
                          _params_digest(result.student))

    return check


def _check_report(n: int, teacher_on_tags: bool):
    def check(report):
        problems = []
        if report.n != n:
            problems.append(f"scored {report.n} records, expected {n}")
        score = report.metric()
        if not 0.0 <= score <= 1.0:
            problems.append(f"score {score} outside [0, 1]")
        # Hard transition rules are enforced exactly by the chain decode.
        if teacher_on_tags and report.validity_rate != 1.0:
            problems.append(f"teacher validity rate {report.validity_rate} != 1.0")
        return problems, tuple(sorted(report.as_dict().items()))

    return check


def _check_teacher(teacher):
    return ([] if isinstance(teacher, NerTeacher) else [f"project_after gave {teacher!r}"]), None


# --- timing ------------------------------------------------------------------

# The speed of the 2-vCPU cloud VM the bounds were set on flips between a
# fast and a slow state, about 1.7x apart, that hold from seconds to
# minutes, so runs made minutes apart differ by up to 35% in wall time.  A
# fixed pure-Python loop, timed just before and just after each call,
# slows down by the same factor (within about 5% over 15 s windows).  Each
# call's time is therefore also reported at reference speed: scaled by
# CAL_REF_S over the mean of the two loop times.  The loop runs no library
# code, so a change to the library moves the scaled times as it moves the
# wall times.
CAL_LOOPS = 250_000
CAL_REF_S = 0.025  # about the loop's median time on that VM, Python 3.11


def calibration_time() -> float:
    t0 = perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - t0


class SpeedClock:
    """Times calls in wall seconds and in seconds at reference speed.  The
    loop timed after one call also serves as the one before the next."""

    def __init__(self):
        self._last: Optional[float] = None

    def reset(self) -> None:
        """Forget the last loop time, after untimed work."""
        self._last = None

    def time(self, fn):
        """``fn()``, its wall time and its time at reference speed."""
        before = calibration_time() if self._last is None else self._last
        self._last = None  # stale if fn raises
        t0 = perf_counter()
        out = fn()
        wall = perf_counter() - t0
        self._last = calibration_time()
        return out, wall, wall * 2 * CAL_REF_S / (before + self._last)


class Recorder:
    """Times each operation, runs its check, and compares its output with
    the same operation in the first cycle."""

    def __init__(self, clock: SpeedClock):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.clock = clock
        self.times: dict[str, list[float]] = {}  # wall seconds
        self.scaled: dict[str, list[float]] = {}  # seconds at reference speed
        self.reference: dict[tuple, object] = {}
        self.tracer = None  # set for traced cycles
        self._seq = 0

    def start_cycle(self, tracer=None):
        self.tracer = tracer
        self._seq = 0

    def op(self, key: str, fn, check):
        self.attempted += 1
        self._seq += 1
        try:
            if self.tracer is None:
                out, wall, scaled = self.clock.time(fn)
                self.times.setdefault(key, []).append(wall)
                self.scaled.setdefault(key, []).append(scaled)
            else:  # traced cycles are timed by their spans
                with self.tracer.span(key):
                    out = fn()
        except Exception as exc:  # an operation that raises is a failed operation
            self.failed += 1
            self.problems.append(f"{key}: raised {exc!r}")
            raise OpFailed(key) from exc
        problems, fingerprint = check(out)
        ref = self.reference.setdefault((self._seq, key), fingerprint)
        if fingerprint != ref:
            problems.append("output differs from the first cycle")
        if problems:
            self.failed += 1
            self.problems += [f"{key}: {p}" for p in problems]
        return out


def run_cycle(inp: Inputs, rec: Recorder) -> dict[str, float]:
    """One closed-loop cycle; returns the three scores."""
    ner = inp.task == "ner"
    rb = rec.op("train.base", lambda: train_distill(inp.base_cfg, inp.train),
                _check_train(inp.base_cfg.epochs, distill=False))
    rd = rec.op("train.distill", lambda: train_distill(inp.distill_cfg, inp.train, rules=inp.rules),
                _check_train(inp.distill_cfg.epochs, distill=True))
    if inp.deploy is None:
        teacher = rd.teacher
    else:
        teacher = rec.op("project", lambda: inp.deploy(rb), _check_teacher)

    def student_eval(res):
        return lambda: evaluate(res.student, inp.student_test, task=inp.task, vocab=res.vocab,
                                scheme=res.scheme)

    student_check = _check_report(len(inp.student_test), teacher_on_tags=False)
    base = rec.op("eval.base", student_eval(rb), student_check)
    for _ in range(inp.p_reps):
        p = rec.op("eval.p", student_eval(rd), student_check)
    for _ in range(inp.q_reps):
        q = rec.op("eval.q", lambda: evaluate(teacher, inp.test, task=inp.task),
                   _check_report(inp.n_test, teacher_on_tags=ner))
    return {"base_score": base.metric(), "p_score": p.metric(), "q_score": q.metric()}

