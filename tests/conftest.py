"""Shared pytest hooks and test helpers.

The acceptance tests register one summary line per criterion; echoing
them here keeps the lines visible in a normal run, where stdout of
passing tests is captured.  The tag-string span extraction, validity walk
and micro P/R/F1 below are the reference that the evaluation's
tag-index scoring is held to.
"""

import numpy as np

CRITERION_LINES = []


def indexed_links(links):
    """A document's links ((sent, pos), (sent, pos)) in the form the NER
    teacher reads them: the linked sites in increasing order, as an (S, 2)
    array, and each link as a pair of indices into them."""
    sites = sorted({s for pair in links for s in pair})
    index = {s: i for i, s in enumerate(sites)}
    return (np.array(sites, dtype=int).reshape(-1, 2),
            [(index[a], index[b]) for a, b in links])


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
