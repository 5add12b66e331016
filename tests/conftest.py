"""Shared pytest hooks and test helpers.

The acceptance tests register one summary line per criterion; echoing
them here keeps the lines visible in a normal run, where stdout of
passing tests is captured.  The tag-string span extraction, validity walk
and micro P/R/F1 below are the reference that the evaluation's
tag-index scoring is held to, and ``tag_runs`` draws the tag sequences
held to the validity walk; the per-block Adadelta and the ``np.add.at``
embedding scatter are the references for the students' flat step and
scatter.  ``corrupt_checkpoint`` breaks a saved checkpoint in each way the
loader must reject by name.
"""

import json

import numpy as np
from hypothesis import strategies as st

from ruledistill.predictors import TokenBatch
from ruledistill.rulelib import TagScheme

CRITERION_LINES = []


def batch_of(sentences):
    """A ``TokenBatch`` of 1-d token-id sentences."""
    return TokenBatch(np.concatenate(sentences), [len(s) for s in sentences])


def batch_of_lengths(lengths):
    """A ``TokenBatch`` of sentences of the given lengths, for code that
    reads only where its sentences lie."""
    return TokenBatch(np.ones(int(np.sum(lengths)), dtype=int), lengths)


def sentences_of(batch):
    """A ``TokenBatch``'s sentences as 1-d token-id arrays."""
    return np.split(batch.ids, batch.starts[1:])


def split_rows(rows, lengths):
    """Row arrays cut into consecutive runs of ``lengths`` rows: a batch's
    rows per sentence, or a chain query's per chain, for the per-sentence
    and per-chain references."""
    return np.split(rows, np.cumsum(lengths)[:-1])


def flat(arrays):
    """Per-sentence (or per-chain) row arrays as one array of their rows
    and their lengths."""
    return np.concatenate(arrays), [len(a) for a in arrays]


def indexed_links(links):
    """A document's links ((sent, pos), (sent, pos)) in the form the NER
    teacher reads them: the linked sites in increasing order, as an (S, 2)
    array, and each link as a pair of indices into them."""
    sites = sorted({s for pair in links for s in pair})
    index = {s: i for i, s in enumerate(sites)}
    return (np.array(sites, dtype=int).reshape(-1, 2),
            [(index[a], index[b]) for a, b in links])


class RefAdadelta:
    """Adadelta one parameter block at a time, each with its own state."""

    def __init__(self):
        self._state = {}

    def step(self, params, grads):
        rho, eps = 0.95, 1e-6
        for name, g in grads.items():
            if name not in self._state:
                self._state[name] = (np.zeros_like(g), np.zeros_like(g))
            eg2, edx2 = self._state[name]
            eg2 *= rho
            eg2 += (1.0 - rho) * g * g
            dx = -np.sqrt(edx2 + eps) / np.sqrt(eg2 + eps) * g
            edx2 *= rho
            edx2 += (1.0 - rho) * dx * dx
            params[name] += dx


def _drop_n_classes(meta, arrays):
    del meta["config"]["n_classes"]


# Each way a saved classifier checkpoint is broken, as an edit of its
# metadata dict and its arrays, and what the loader must name.
CHECKPOINT_CORRUPTIONS = {
    "no meta": (lambda meta, arrays: meta.clear(), "no metadata"),
    "no n_classes": (_drop_n_classes, "n_classes"),
    "no out_b": (lambda meta, arrays: arrays.pop("param_out_b"), "no block 'param_out_b'"),
    "3-row emb": (lambda meta, arrays: arrays.update(param_emb=arrays["param_emb"][:3]),
                  r"'param_emb' has shape \(3, "),
    "0 filters": (lambda meta, arrays: meta["config"].update(n_filters=0),
                  "config builds no text_classifier: n_filters must be at least 1"),
    "token past emb": (lambda meta, arrays: meta["vocab"].append("unembedded"),
                       r"vocabulary has \d+ tokens, but its config's text_classifier embeds"),
}


def corrupt_checkpoint(path, case):
    """Rewrite the checkpoint at ``path`` broken as ``case`` says."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    CHECKPOINT_CORRUPTIONS[case][0](meta, arrays)
    if meta:
        arrays["meta"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def ref_embedding_grad(ids, rows, vocab_size):
    """The (V, E) sum of ``rows`` by their ``ids``, one row at a time."""
    g = np.zeros((vocab_size, rows.shape[1]))
    np.add.at(g, ids, rows)
    return g


def ref_valid_sequence(scheme, tags) -> bool:
    """Segment-level BIOES validity, independent of the bigram masks: walks
    the sequence with an explicit open-entity state, an entity being either
    a singleton S-Y or a complete B-Y I-Y* E-Y run."""
    open_cat = None
    for tag in tags:
        p, c = scheme.prefix(tag), scheme.category(tag)
        if open_cat is None:
            if p in ("I", "E"):
                return False
            if p == "B":
                open_cat = c
        else:
            if p == "I" and c == open_cat:
                continue
            if p == "E" and c == open_cat:
                open_cat = None
                continue
            return False
    return open_cat is None


@st.composite
def tag_runs(draw):
    """A scheme of 1-4 categories, a sequence of its tags and the sorted
    start of each sentence in it: valid entity segments with up to three
    tags redrawn at random, cut into sentences at any points."""
    scheme = TagScheme(("LOC", "ORG", "PER", "MISC")[:draw(st.integers(1, 4))])
    tags = []
    for _ in range(draw(st.integers(1, 10))):
        c, n = draw(st.sampled_from(scheme.categories)), draw(st.integers(0, 4))
        tags += (["O"] if n == 0 else [f"S-{c}"] if n == 1
                 else [f"B-{c}"] + [f"I-{c}"] * (n - 2) + [f"E-{c}"])
    for _ in range(draw(st.integers(0, 3))):
        tags[draw(st.integers(0, len(tags) - 1))] = draw(st.sampled_from(scheme.tags))
    starts = {0} | draw(st.sets(st.integers(1, len(tags) - 1))) if len(tags) > 1 else {0}
    return scheme, tags, sorted(starts)


def ref_spans(scheme, tags) -> list:
    """Complete entity spans as (start, end, category), ``end`` exclusive.
    Only well-formed segments (S-Y, or B-Y I-Y* E-Y) are emitted, so the
    extraction is defined on invalid sequences too."""
    out = []
    i, n = 0, len(tags)
    while i < n:
        p, c = scheme.prefix(tags[i]), scheme.category(tags[i])
        if p == "S":
            out.append((i, i + 1, c))
            i += 1
        elif p == "B":
            j = i + 1
            while j < n and tags[j] == f"I-{c}":
                j += 1
            if j < n and tags[j] == f"E-{c}":
                out.append((i, j + 1, c))
                i = j + 1
            else:
                i += 1
        else:
            i += 1
    return out


def ref_micro_span_prf(gold_spans, pred_spans):
    """Micro P/R/F1 over per-sentence span sets."""
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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
