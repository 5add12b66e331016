"""Spans and counters around the public functions of each library layer.

The wrappers are installed at the names the callers look the functions up
by (``ruledistill.trainer.gibbs_soft_predict``, the models' ``forward``
method, ...), so the library itself is not edited.  Every span records its
name, start, end and parent; the parent of a layer span is the train,
project or evaluate call the benchmark made.  Counters are attributed to
that call, so per-call work (forwards per epoch, Gibbs site updates of the
teacher evaluation) can be read back exactly.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _count_step(c, args, out):
    c["predictors.step_calls"] += 1
    c["predictors.step_sents"] += len(args[1])


def _count_forward(c, args, out):
    c["predictors.forward_calls"] += 1


def _count_project(c, args, out):
    c["projection.project_calls"] += 1


def _count_gibbs(c, args, out):
    query = args[0]
    sites = sum(m.n_positions for m in query.members)
    c["inference.gibbs_groups"] += 1
    c["inference.gibbs_sites"] += sites
    c["inference.gibbs_site_updates"] += query.sweeps * sites
    c["inference.gibbs_link_scans"] += query.sweeps * sites * len(query.links)
    c["inference.group_size_max"] = max(c["inference.group_size_max"], sites)


def _count_form_groups(c, args, out):
    c["inference.links_in"] += len(args[1])
    c["inference.links_kept"] += sum(len(q.links) for q in out)


def _count_chain(c, args, out):
    c["inference.chain_calls"] += 1
    c["inference.chain_positions"] += args[0].n_positions


def _count_list_rule(c, args, out):
    c["rulelib.list_rule_truth_calls"] += 1


def _count_detect_lists(c, args, out):
    c["corpus.detect_lists_calls"] += 1


# (owner, attribute, span name, counter).  The trainer imports its layer
# functions by name, so those are patched in the trainer's namespace; the
# models' public forward is a method inherited from the shared base class.
TARGETS = (
    ("ruledistill.trainer", "backward_and_step", "predictors.step", _count_step),
    ("ruledistill.predictors:_Model", "forward", "predictors.forward", _count_forward),
    ("ruledistill.trainer", "project", "projection.project", _count_project),
    ("ruledistill.trainer", "gibbs_soft_predict", "inference.gibbs", _count_gibbs),
    ("ruledistill.trainer", "form_groups", "inference.form_groups", _count_form_groups),
    ("ruledistill.trainer", "chain_marginals", "inference.chain_marginals", _count_chain),
    ("ruledistill.trainer", "chain_map_decode", "inference.chain_map", _count_chain),
    ("ruledistill.trainer", "list_rule_truth", "rulelib.list_rule_truth", _count_list_rule),
    ("ruledistill.trainer", "detect_lists", "corpus.detect_lists", _count_detect_lists),
    ("ruledistill.corpus", "gen_synthetic_sentiment", "corpus.generate", None),
    ("ruledistill.corpus", "gen_synthetic_ner", "corpus.generate", None),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span store.  ``spans[i] = [name, start, end, parent]``
    with ``parent = -1`` for a root span; counters go to ``counts[root]``,
    the name of the enclosing root span (``"setup"`` outside any)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _root(self) -> str:
        return self.spans[self.stack[0]][0] if self.stack else "setup"

    def wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts[self._root()], args, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner_name, attr, span_name, count in TARGETS:
                owner = _resolve(owner_name)
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(span_name, original, count))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take_counts(self) -> dict[str, dict[str, int]]:
        out, self.counts = self.counts, defaultdict(lambda: defaultdict(int))
        return dict(out)

    def span_time(self, name: str, since: int = 0) -> float:
        return sum(e - s for n, s, e, _ in self.spans[since:] if n == name)


def breakdown(spans, first: int, last: int):
    """Over ``spans[first:last]``: the inclusive time of every non-root span
    summed by name, and for each root span the time of its direct children
    by name (its self time is its duration minus their sum)."""
    per_name: dict[str, float] = defaultdict(float)
    children: dict[int, dict[str, float]] = {}
    for i in range(first, last):
        name, start, end, parent = spans[i]
        if parent == -1:
            children[i] = defaultdict(float)
            continue
        per_name[name] += end - start
        if parent in children:
            children[parent][name] += end - start
    return dict(per_name), children
