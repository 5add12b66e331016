"""End-to-end acceptance checks, one test per criterion.

Every test prints a single line

    CRITERION <n> <name>: PASS|FAIL (<measurements>)

before asserting, so a full run leaves one diagnostic line per criterion.
Numeric oracles (mirror descent for the projection, brute-force joint
enumeration for chains and groups, central differences for gradients) are
implemented in this file, independently of the library code they check.
Tolerances and runtime budgets are pinned in the assertions.

The direction-of-effect runs (criteria 6-8) train real models and take a
few minutes total; everything else is seconds.
"""

import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import batch_of, ref_valid_sequence

from ruledistill.corpus import (
    NerTaskSpec,
    SentimentTaskSpec,
    detect_lists,
    gen_synthetic_ner,
    gen_synthetic_sentiment,
)
from ruledistill.inference import (
    ChainTeacherQuery,
    GroupLink,
    GroupTeacherQuery,
    MemberPotentials,
    chain_map_decode,
    chain_marginals,
    gibbs_soft_predict,
)
from ruledistill.predictors import (
    SequenceTagger,
    TextClassifier,
    finite_difference_check,
)
from ruledistill.projection import ProjectionProblem, project
from ruledistill.rulelib import (
    CategoryCollapse,
    TagScheme,
    but_rule,
    list_counterpart_rule,
    transition_masks,
    transition_rules,
)
from ruledistill.softlogic import avg_conj, disj, implies, neg, strong_conj
from ruledistill.trainer import (
    CLASSIFICATION_SCHEDULE,
    TAGGING_SCHEDULE,
    ImitationSchedule,
    TrainConfig,
    evaluate,
    train_distill,
)


def report(num, name, ok, detail):
    line = f"CRITERION {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    try:
        import conftest
        conftest.CRITERION_LINES.append(line)
    except ImportError:
        pass


# --- criterion 1: soft-logic operator suite ----------------------------------


def test_criterion_01_soft_logic_operators():
    t0 = time.monotonic()
    boolean_ok = True
    for a, b in itertools.product((0.0, 1.0), repeat=2):
        boolean_ok &= strong_conj(a, b) == float(a and b)
        boolean_ok &= disj(a, b) == float(a or b)
        boolean_ok &= implies(a, b) == float((not a) or b)
        boolean_ok &= avg_conj([a, b]) == (a + b) / 2
    for a in (0.0, 1.0):
        boolean_ok &= neg(a) == 1.0 - a

    grid = np.linspace(0.0, 1.0, 21)
    closure_ok = True
    for a, b in itertools.product(grid, repeat=2):
        for v in (strong_conj(a, b), disj(a, b), implies(a, b), neg(a),
                  avg_conj([a, b, 0.5])):
            closure_ok &= 0.0 <= v <= 1.0

    elapsed = time.monotonic() - t0
    ok = boolean_ok and closure_ok and elapsed < 1.0
    report(1, "soft-logic-operators", ok,
           f"boolean exact={boolean_ok}, [0,1] closure on 21x21 grid="
           f"{closure_ok}, {elapsed:.2f}s < 1s")
    assert boolean_ok, "Boolean restriction must hold exactly"
    assert closure_ok, "operators must stay inside [0, 1]"
    assert elapsed < 1.0


# --- criterion 2: projection vs numeric primal oracle ------------------------


def _numeric_primal(logp, groundings, c, iters=4000, eta=0.3):
    """Mirror descent on KL(q||p) + c*sum lam*(1 - q.r) over the simplex.

    Written against the objective, not the closed form, so agreement is
    evidence rather than construction.
    """
    q = np.full_like(logp, 1.0 / logp.size)
    lin = np.zeros_like(logp)
    for lam, r in groundings:
        lin -= c * lam * r
    for _ in range(iters):
        grad = np.log(np.maximum(q, 1e-300)) - logp + 1.0 + lin
        q = q * np.exp(-eta * (grad - grad.min()))
        q /= q.sum()
    return q


def test_criterion_02_projection_correctness():
    t0 = time.monotonic()
    rng = np.random.default_rng(20_002)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))                    # K <= 4
        logp = np.log(rng.dirichlet(np.ones(k)))
        logp -= np.log(np.exp(logp).sum())
        n_rules = int(rng.integers(1, 4))              # L <= 3
        gs = tuple(
            (float(rng.choice([0.5, 1.0, 2.0])), rng.uniform(0.0, 1.0, size=k))
            for _ in range(n_rules)
        )
        closed = project(
            ProjectionProblem(base_log_probs=logp, groundings=gs, c=6.0)
        ).probs()
        numeric = _numeric_primal(logp, gs, c=6.0)
        kl = float(
            np.sum(closed * (np.log(closed) - np.log(np.maximum(numeric, 1e-300))))
        )
        worst = max(worst, abs(kl))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    report(2, "projection-correctness", ok,
           f"100 instances K<=4 L<=3 lam in {{0.5,1,2}} C=6, worst "
           f"KL(closed||numeric)={worst:.2e} < 1e-6, {elapsed:.1f}s < 30s")
    assert worst < 1e-6
    assert elapsed < 30.0


# --- criterion 3: chain inference vs enumeration -----------------------------


def _enumerate_chain(log_unary, log_pair, log_start, log_end):
    """Independent brute force over all K^T paths."""
    t_len, k = log_unary.shape
    best_path, best_score = None, -math.inf
    log_z = -math.inf
    marg = np.full((t_len, k), -math.inf)
    for path in itertools.product(range(k), repeat=t_len):
        s = log_start[path[0]] + log_end[path[-1]]
        for t, y in enumerate(path):
            s += log_unary[t, y]
        for t in range(t_len - 1):
            s += log_pair[path[t], path[t + 1]]
        if s > best_score:
            best_path, best_score = path, s
        log_z = np.logaddexp(log_z, s)
        for t, y in enumerate(path):
            marg[t, y] = np.logaddexp(marg[t, y], s)
    return np.exp(marg - log_z), best_path, best_score


def test_criterion_03_chain_inference():
    t0 = time.monotonic()
    rng = np.random.default_rng(30_003)
    worst = 0.0
    map_matches = 0
    for _ in range(200):
        t_len = int(rng.integers(2, 7))                # T <= 6
        k = int(rng.integers(2, 5))                    # K <= 4
        logits = rng.normal(size=(t_len, k))
        lu = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        lp = -rng.uniform(0.0, 2.0, size=(k, k))
        ls = -rng.uniform(0.0, 1.0, size=k)
        le = -rng.uniform(0.0, 1.0, size=k)
        query = ChainTeacherQuery(lu, [t_len], log_pair=lp,
                                  log_start=ls, log_end=le)
        ref_marg, ref_path, ref_score = _enumerate_chain(lu, lp, ls, le)
        marg = chain_marginals(query)
        worst = max(worst, float(np.abs(marg - ref_marg).max()))
        path, (score,) = chain_map_decode(query)
        if tuple(path) == ref_path and abs(score - ref_score) < 1e-9:
            map_matches += 1

    # Hard transition rules: every decode must be BIOES-valid.
    scheme = TagScheme(("LOC", "ORG"))
    masks = transition_masks(scheme)
    with np.errstate(divide="ignore"):
        hard_pair = np.where(masks.valid_pair, 0.0, -np.inf)
        hard_start = np.where(masks.valid_start, 0.0, -np.inf)
        hard_end = np.where(masks.valid_end, 0.0, -np.inf)
    n_valid = 0
    for _ in range(100):
        t_len = int(rng.integers(2, 9))
        logits = rng.normal(size=(t_len, scheme.n_tags))
        lu = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        query = ChainTeacherQuery(lu, [t_len], log_pair=hard_pair,
                                  log_start=hard_start, log_end=hard_end)
        path, _ = chain_map_decode(query)
        if ref_valid_sequence(scheme, [scheme.tags[y] for y in path]):
            n_valid += 1

    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and map_matches == 200 and n_valid == 100 and elapsed < 60
    report(3, "chain-inference", ok,
           f"200 instances T<=6 K<=4: worst marginal err={worst:.2e} < 1e-9, "
           f"MAP matches={map_matches}/200; hard-rule decodes valid="
           f"{n_valid}/100, {elapsed:.1f}s < 60s")
    assert worst < 1e-9
    assert map_matches == 200
    assert n_valid == 100
    assert elapsed < 60.0


# --- criterion 4: Gibbs fidelity on enumerable groups ------------------------


def _enumerate_group(members, links):
    """Independent brute force over the joint label space of a group."""
    sites = [(m, t) for m, mem in enumerate(members)
             for t in range(mem.log_unary.shape[0])]
    k = members[0].log_unary.shape[1]
    idx = {s: i for i, s in enumerate(sites)}
    log_marg = [np.full_like(m.log_unary, -math.inf) for m in members]
    log_z = -math.inf
    for joint in itertools.product(range(k), repeat=len(sites)):
        s = 0.0
        for (m, t), y in zip(sites, joint):
            s += members[m].log_unary[t, y]
        for m, mem in enumerate(members):
            if mem.log_pair is not None:
                for t in range(mem.log_unary.shape[0] - 1):
                    s += mem.log_pair[joint[idx[(m, t)]], joint[idx[(m, t + 1)]]]
        for ln in links:
            s += ln.log_table[joint[idx[(ln.member_a, ln.pos_a)]],
                              joint[idx[(ln.member_b, ln.pos_b)]]]
        log_z = np.logaddexp(log_z, s)
        for (m, t), y in zip(sites, joint):
            log_marg[m][t, y] = np.logaddexp(log_marg[m][t, y], s)
    return [np.exp(lm - log_z) for lm in log_marg]


def test_criterion_04_gibbs_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(40_004)
    worst_tv = 0.0
    for case in range(3):
        k = int(rng.integers(4, 6))                    # K <= 5
        t_a, t_b = int(rng.integers(2, 4)), int(rng.integers(1, 4))  # T <= 3
        members = (
            MemberPotentials(rng.normal(size=(t_a, k)),
                             -rng.uniform(0.0, 1.0, size=(k, k))),
            MemberPotentials(rng.normal(size=(t_b, k))),
        )
        links = (
            GroupLink(0, t_a - 1, 1, 0,
                      rng.uniform(-1.0, 1.0, size=(k, k))),
        )
        query = GroupTeacherQuery(members=members, links=links,
                                  sweeps=10_000, seed=400 + case)
        est = gibbs_soft_predict(query)
        ref = _enumerate_group(members, links)
        for e, r in zip(est, ref):
            tv = 0.5 * float(np.abs(e - r).sum(axis=1).max())
            worst_tv = max(worst_tv, tv)
    elapsed = time.monotonic() - t0
    ok = worst_tv <= 0.02 and elapsed < 120.0
    report(4, "gibbs-fidelity", ok,
           f"3 two-member groups, <=3 positions, <=5 tags, 10000 sweeps: "
           f"worst site TV={worst_tv:.4f} <= 0.02, {elapsed:.1f}s < 120s")
    assert worst_tv <= 0.02
    assert elapsed < 120.0


# --- criterion 5: gradient integrity -----------------------------------------


def test_criterion_05_gradient_integrity():
    t0 = time.monotonic()
    rng = np.random.default_rng(50_005)

    def soft(k):
        return rng.dirichlet(np.ones(k))

    def onehot(k):
        v = np.zeros(k)
        v[int(rng.integers(k))] = 1.0
        return v

    worst = {}
    cls = TextClassifier(vocab_size=12, n_classes=2, emb_dim=4,
                         window_sizes=(2, 3), n_filters=3, seed=0)
    tag = SequenceTagger(vocab_size=12, n_tags=5, emb_dim=3, hidden=4,
                         radius=1, seed=0)
    for pi in (0.0, 0.5, 1.0):
        # Each sentence's (or position's) target row is the blend
        # (1 - pi) * one-hot + pi * soft.
        cls_ids, cls_rows = [], []
        for _ in range(3):
            cls_ids.append(rng.integers(2, 12, size=int(rng.integers(2, 6))))
            cls_rows.append((1.0 - pi) * onehot(2) + pi * soft(2))
        for block, err in finite_difference_check(cls, batch_of(cls_ids), np.stack(cls_rows)).items():
            key = f"classifier/{block}@pi={pi}"
            worst[key] = err
        tag_ids, tag_rows = [], []
        for _ in range(3):
            t_len = int(rng.integers(2, 5))
            hard = np.stack([onehot(5) for _ in range(t_len)])
            sft = np.stack([soft(5) for _ in range(t_len)])
            tag_ids.append(rng.integers(2, 12, size=t_len))
            tag_rows.append((1.0 - pi) * hard + pi * sft)
        for block, err in finite_difference_check(tag, batch_of(tag_ids),
                                                  np.concatenate(tag_rows)).items():
            worst[f"tagger/{block}@pi={pi}"] = err

    max_err = max(worst.values())
    elapsed = time.monotonic() - t0
    ok = max_err < 1e-4 and elapsed < 60.0
    report(5, "gradient-integrity", ok,
           f"{len(worst)} blocks x pi in {{0,0.5,1}}: worst relative "
           f"err={max_err:.2e} < 1e-4, {elapsed:.1f}s < 60s")
    assert max_err < 1e-4, max(worst, key=worst.get)
    assert elapsed < 60.0


# --- criteria 6-8: direction-of-effect training runs -------------------------

SEEDS = range(5)


@pytest.fixture(scope="module")
def sentiment_effect():
    """Five-seed base/distill comparison on the contrastive sentiment task.

    Training labels carry 15% flip noise on plain sentences; tests are
    clean.  No dev set: models run to the final epoch, where hard-label
    pressure keeps fighting the unfittable noise while the distilled
    student's growing imitation weight shields it.
    """
    t0 = time.monotonic()
    rules = (but_rule(confidence=1.0, variant="avg"),)
    rows = []
    for seed in SEEDS:
        train = gen_synthetic_sentiment(
            seed=100 + seed, n=2000,
            spec=SentimentTaskSpec(plain_label_noise=0.15),
        )
        test = gen_synthetic_sentiment(seed=200 + seed, n=500)
        base_cfg = TrainConfig(task="sentiment", mode="base", seed=seed,
                               epochs=40, patience=99)
        rb = train_distill(base_cfg, train, rules=(), dev=None)
        base = evaluate(rb.student, test, task="sentiment",
                        vocab=rb.vocab).accuracy
        dist_cfg = TrainConfig(task="sentiment", mode="distill", seed=seed,
                               epochs=40, patience=99)
        rd = train_distill(dist_cfg, train, rules=rules, dev=None)
        p = evaluate(rd.student, test, task="sentiment",
                     vocab=rd.vocab).accuracy
        q = evaluate(rd.teacher, test, task="sentiment").accuracy
        rows.append((base, p, q))
    arr = np.array(rows)
    return SimpleNamespace(
        base=arr[:, 0].mean(), p=arr[:, 1].mean(), q=arr[:, 2].mean(),
        rows=rows, elapsed=time.monotonic() - t0,
    )


@pytest.fixture(scope="module")
def ner_effect():
    """Five-seed base/distill comparison on the list-NER task with
    transition and counterpart rules.  30% of non-list entities carry
    category label noise in training; tests are clean."""
    t0 = time.monotonic()
    scheme = TagScheme(("LOC", "ORG", "PER"))
    rules = tuple(transition_rules(scheme)) + (
        list_counterpart_rule(CategoryCollapse(scheme), confidence=1.0),
    )
    train = gen_synthetic_ner(seed=100, n_docs=120,
                              spec=NerTaskSpec(entity_label_noise=0.3))
    test = gen_synthetic_ner(seed=200, n_docs=60)
    rows = []
    for seed in SEEDS:
        base_cfg = TrainConfig(task="ner", mode="base", seed=seed, epochs=40,
                               patience=99, train_sweeps=100, eval_sweeps=1000)
        rb = train_distill(base_cfg, train, rules=(), dev=None)
        base = evaluate(rb.student, test, task="ner", vocab=rb.vocab,
                        scheme=rb.scheme).f1
        dist_cfg = TrainConfig(task="ner", mode="distill", seed=seed,
                               epochs=40, patience=99, train_sweeps=100,
                               eval_sweeps=1000,
                               schedule=ImitationSchedule(pi0=0.4, alpha=0.9))
        rd = train_distill(dist_cfg, train, rules=rules, dev=None)
        p = evaluate(rd.student, test, task="ner", vocab=rd.vocab,
                     scheme=rd.scheme).f1
        q = evaluate(rd.teacher, test, task="ner").f1
        rows.append((base, p, q))
    arr = np.array(rows)
    return SimpleNamespace(
        base=arr[:, 0].mean(), p=arr[:, 1].mean(), q=arr[:, 2].mean(),
        rows=rows, elapsed=time.monotonic() - t0,
    )


@pytest.mark.slow
def test_criterion_06_distillation_effect(sentiment_effect):
    e = sentiment_effect
    ordered = e.base < e.p < e.q
    gap = e.q - e.base
    ok = ordered and gap >= 0.02 and e.elapsed < 300
    per_seed = " ".join(
        f"[{b:.3f}<{p:.3f}<{q:.3f}]" for b, p, q in e.rows
    )
    report(6, "distillation-effect", ok,
           f"sentiment 2000/500 x5 seeds: base={e.base:.4f} < p={e.p:.4f} "
           f"< q={e.q:.4f}, q-base={100 * gap:+.2f}pts >= 2pts, per-seed "
           f"{per_seed}, {e.elapsed:.0f}s < 300s")
    assert ordered, f"expected base < p < q, got {e.base}, {e.p}, {e.q}"
    assert gap >= 0.02, f"q-base gap {gap:.4f} below 2 points"
    assert e.elapsed < 300


@pytest.mark.slow
def test_criterion_07_sequence_rule_effect(ner_effect, sentiment_effect):
    e = ner_effect
    ordered = e.base < e.p < e.q
    ner_gap = e.q - e.p
    sent_gap = sentiment_effect.q - sentiment_effect.p
    ok = ordered and ner_gap > sent_gap and e.elapsed < 600
    per_seed = " ".join(
        f"[{b:.3f}<{p:.3f}<{q:.3f}]" for b, p, q in e.rows
    )
    report(7, "sequence-rule-effect", ok,
           f"list-NER x5 seeds: F1 base={e.base:.4f} < p={e.p:.4f} < "
           f"q={e.q:.4f}; q-p gap {100 * ner_gap:+.2f}pts > sentiment "
           f"{100 * sent_gap:+.2f}pts, per-seed {per_seed}, "
           f"{e.elapsed:.0f}s < 600s")
    assert ordered, f"expected base < p < q, got {e.base}, {e.p}, {e.q}"
    assert ner_gap > sent_gap, (
        f"NER q-p gap {ner_gap:.4f} not above sentiment gap {sent_gap:.4f}"
    )
    assert e.elapsed < 600


@pytest.mark.slow
def test_criterion_08_semi_supervised():
    t0 = time.monotonic()
    rules = (but_rule(confidence=1.0, variant="avg"),)
    schedule = ImitationSchedule(pi0=0.3, alpha=0.9)
    sup_scores, semi_scores = [], []
    for seed in SEEDS:
        full = gen_synthetic_sentiment(seed=100 + seed, n=2000)
        labeled, unlabeled = full[:100], full[100:]   # 5% labels
        test = gen_synthetic_sentiment(seed=200 + seed, n=500)
        sup_cfg = TrainConfig(task="sentiment", mode="distill", seed=seed,
                              epochs=50, patience=99, schedule=schedule)
        rs = train_distill(sup_cfg, labeled, rules=rules, dev=None)
        sup_scores.append(
            evaluate(rs.student, test, task="sentiment", vocab=rs.vocab).accuracy
        )
        semi_cfg = TrainConfig(task="sentiment", mode="semi", seed=seed,
                               epochs=50, patience=99, schedule=schedule)
        rm = train_distill(semi_cfg, labeled, rules=rules, unlabeled=unlabeled)
        semi_scores.append(
            evaluate(rm.student, test, task="sentiment", vocab=rm.vocab).accuracy
        )
    sup, semi = float(np.mean(sup_scores)), float(np.mean(semi_scores))
    elapsed = time.monotonic() - t0
    ok = semi >= sup and elapsed < 300
    report(8, "semi-supervised", ok,
           f"5% labels x5 seeds: semi={semi:.4f} >= supervised-only="
           f"{sup:.4f} ({100 * (semi - sup):+.2f}pts), {elapsed:.0f}s < 300s")
    assert semi >= sup, f"semi {semi:.4f} below supervised-only {sup:.4f}"
    assert elapsed < 300


# --- criterion 9: schedule and scaling invariants ----------------------------


def test_criterion_09_schedule_and_scaling():
    t0 = time.monotonic()
    sched_ok = True
    for sched in (CLASSIFICATION_SCHEDULE, TAGGING_SCHEDULE):
        rates = [sched.rate(t) for t in range(101)]
        sched_ok &= rates[0] == 0.0
        sched_ok &= all(a <= b for a, b in zip(rates, rates[1:]))
        sched_ok &= all(r <= sched.pi0 for r in rates)
        sched_ok &= rates[100] == pytest.approx(
            min(sched.pi0, 1 - sched.alpha**100)
        )

    rng = np.random.default_rng(90_009)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        logp = np.log(rng.dirichlet(np.ones(k)))
        logp -= np.log(np.exp(logp).sum())
        gs = tuple(
            (float(rng.uniform(0.5, 2.0)), rng.uniform(0.0, 1.0, size=k))
            for _ in range(int(rng.integers(1, 4)))
        )
        for factor in (2.0, 10.0):
            a = project(ProjectionProblem(logp, gs, c=6.0)).probs()
            scaled = tuple((lam * factor, r) for lam, r in gs)
            b = project(
                ProjectionProblem(logp, scaled, c=6.0 / factor)
            ).probs()
            worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.monotonic() - t0
    ok = sched_ok and worst < 1e-12 and elapsed < 1.0
    report(9, "schedule-and-scaling", ok,
           f"pi(0)=0, monotone, capped for both schedules={sched_ok}; "
           f"(C,lam)->(C/k,k*lam) worst posterior diff={worst:.2e} < 1e-12, "
           f"{elapsed:.2f}s < 1s")
    assert sched_ok
    assert worst < 1e-12
    assert elapsed < 1.0


# --- criterion 10: list detector on a handcrafted corpus ---------------------


def _detector_corpus():
    """30 documents with exact expected groups.

    Expected entries are (kind, [(sent_index, start, end), ...]) per group;
    negatives expect no groups at all.
    """
    docs = []

    def doc(sentences, expected):
        docs.append(([tuple(s.split()) for s in sentences], expected))

    # 1: numbered, intra-sentence
    doc(["we saw 1. Ashford 2. Dover 3. Millbrook ."],
        [("numbered", [(0, 3, 4), (0, 5, 6), (0, 7, 9)])])
    # 2: dash, intra-sentence
    doc(["teams : - Acme - Zenith - Quorum Group"],
        [("dash", [(0, 3, 4), (0, 5, 6), (0, 7, 9)])])
    # 3: numbered, inter-sentence
    doc(["1. Ashford Castle", "2. Dover Pier", "3. Millbrook"],
        [("numbered", [(0, 1, 3), (1, 1, 3), (2, 1, 2)])])
    # 4: dash, inter-sentence
    doc(["- Acme", "- Zenith", "- Quorum", "- Helios"],
        [("dash", [(0, 1, 2), (1, 1, 2), (2, 1, 2), (3, 1, 2)])])
    # 5: only two numbered items
    doc(["1. Juventus 2. Barcelona"], [])
    # 6: only two dashes
    doc(["- Acme - Zenith and friends"], [])
    # 7: lowercase item kills the third member
    doc(["1. Ashford 2. dover 3. Millbrook"], [])
    # 8: a block longer than 3 words kills an item
    doc(["- The Quick Brown Fox Jumps - Acme - Zenith"], [])
    # 9: four items, one long block: survivors still form a group
    doc(["- The Quick Brown Fox Jumps - Acme - Zenith - Quorum"],
        [("dash", [(0, 7, 8), (0, 9, 10), (0, 11, 12)])])
    # 10: numbering must start at 1
    doc(["2. Ashford 3. Dover 4. Millbrook"], [])
    # 11: numbering must be consecutive
    doc(["1. Ashford 3. Dover 4. Millbrook"], [])
    # 12: bare integers are not markers
    doc(["1 Ashford 2 Dover 3 Millbrook"], [])
    # 13: punctuation-delimited multi-block items
    doc(["1. Ashford , Kent 2. Dover , Kent 3. Millbrook , Hants"],
        [("numbered", [(0, 1, 4), (0, 5, 8), (0, 9, 12)])])
    # 14: digit-initial words pass the capitalization predicate
    doc(["- 3rd Avenue - 5th Street - 9th Lane"],
        [("dash", [(0, 1, 3), (0, 4, 6), (0, 7, 9)])])
    # 15: four-word unpunctuated block is rejected even when capitalized
    doc(["1. Grand Hotel Dover Spa 2. Acme 3. Zenith 4. Quorum"],
        [("numbered", [(0, 6, 7), (0, 8, 9), (0, 10, 11)])])
    # 16: inter-sentence run broken by prose
    doc(["1. Ashford", "the report arrived", "2. Dover", "3. Millbrook"], [])
    # 17: two independent lists in one document
    doc(["places 1. Ashford 2. Dover 3. Millbrook .", "- Acme", "- Zenith",
         "- Quorum"],
        [("numbered", [(0, 2, 3), (0, 4, 5), (0, 6, 8)]),
         ("dash", [(1, 1, 2), (2, 1, 2), (3, 1, 2)])])
    # 18: plain prose, no markers at all
    doc(["the group visited Dover today .", "it rained ."], [])
    # 19: lowercase second block kills the item
    doc(["1. Ashford , in kent 2. Dover 3. Millbrook 4. Verona"],
        [("numbered", [(0, 6, 7), (0, 8, 9), (0, 10, 11)])])
    # 20: empty item between markers drops only that item
    doc(["1. Ashford 2. 3. Dover 4. Millbrook"],
        [("numbered", [(0, 1, 2), (0, 4, 5), (0, 6, 7)])])
    # 21: dash list with trailing punctuation block boundaries
    doc(["- Acme , - Zenith , - Quorum ,"],
        [("dash", [(0, 1, 3), (0, 4, 6), (0, 7, 9)])])
    # 22: numbered restart begins a fresh run
    doc(["1. Ashford 2. Dover 1. Acme 2. Zenith 3. Quorum"],
        [("numbered", [(0, 5, 6), (0, 7, 8), (0, 9, 10)])])
    # 23: inter-sentence numbered with multi-block items
    doc(["1. Acme , Dover", "2. Zenith , Kent", "3. Quorum , Hants"],
        [("numbered", [(0, 1, 4), (1, 1, 4), (2, 1, 4)])])
    # 24: markers inside prose do not seed an inter-sentence run
    doc(["see item 1. below", "also item 2. there", "and 3. beyond"], [])
    # 25: mixed-case acronym items are fine (uppercase initial)
    doc(["- IBM - NASA - UNESCO"],
        [("dash", [(0, 1, 2), (0, 3, 4), (0, 5, 6)])])
    # 26: dash items with interior lowercase word rejected
    doc(["- Acme and Sons - Zenith - Quorum - Helios"],
        [("dash", [(0, 5, 6), (0, 7, 8), (0, 9, 10)])])
    # 27: five-item numbered list survives whole
    doc(["1. Acme 2. Zenith 3. Quorum 4. Helios 5. Vertex"],
        [("numbered", [(0, 1, 2), (0, 3, 4), (0, 5, 6), (0, 7, 8),
                       (0, 9, 10)])])
    # 28: inter-sentence dash run broken by a non-dash sentence
    doc(["- Acme", "- Zenith", "meanwhile trading paused", "- Quorum"], [])
    # 29: parentheses delimit blocks
    doc(["1. Acme ( Dover ) 2. Zenith ( Kent ) 3. Quorum ( Hants )"],
        [("numbered", [(0, 1, 5), (0, 6, 10), (0, 11, 15)])])
    # 30: sentence of only markers yields nothing
    doc(["1. 2. 3."], [])

    assert len(docs) == 30
    return docs


def test_criterion_10_list_detector():
    t0 = time.monotonic()
    corpus = _detector_corpus()
    mismatches = []
    false_accepts = 0
    for i, (sentences, expected) in enumerate(corpus):
        groups = detect_lists(sentences, doc_id=i)
        got = [
            (g.kind, [(it.sent_index, it.start, it.end) for it in g.items])
            for g in groups
        ]
        if sorted(got) != sorted(expected):
            mismatches.append((i + 1, expected, got))
            if not expected and got:
                false_accepts += len(got)
    elapsed = time.monotonic() - t0
    ok = not mismatches and elapsed < 1.0
    report(10, "list-detector", ok,
           f"30 handcrafted documents, exact group match on all, "
           f"false accepts={false_accepts}, {elapsed:.2f}s < 1s")
    assert not mismatches, mismatches[:3]
    assert elapsed < 1.0
