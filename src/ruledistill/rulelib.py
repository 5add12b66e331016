"""Concrete rule templates: the "but" rule, BIOES transition rules, and the
list-counterpart rule.

Each template is packaged as a :class:`Rule` carrying a confidence level and
a grounder that maps a batch to :class:`Grounding` objects.  A grounding's
truth value depends only on the labels of the sites it reads, so it is
stored as a dense lookup table; this makes brute-force enumeration, chain
compilation, and Gibbs conditionals all exact and cheap.

Confidence ``math.inf`` marks a hard rule: any outcome with grounding truth
below 1 receives zero teacher probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .softlogic import TruthValue

BIOES_PREFIXES = ("B", "I", "E", "S")


@dataclass(frozen=True)
class TagScheme:
    """A BIOES tag set: the O tag plus B/I/E/S variants of each category."""

    categories: tuple[str, ...]

    def __post_init__(self):
        if not self.categories or len(set(self.categories)) != len(self.categories):
            raise ValueError("categories must be nonempty and distinct")

    @cached_property
    def tags(self) -> tuple[str, ...]:
        return ("O",) + tuple(
            f"{p}-{c}" for c in self.categories for p in BIOES_PREFIXES
        )

    @property
    def n_tags(self) -> int:
        return 1 + 4 * len(self.categories)

    def index(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            raise ValueError(f"unknown tag {tag!r} for categories {self.categories}")

    def prefix(self, tag: str) -> str:
        return "O" if tag == "O" else tag.split("-", 1)[0]

    def category(self, tag: str) -> Optional[str]:
        return None if tag == "O" else tag.split("-", 1)[1]

    def is_tag(self, tag: str) -> bool:
        return tag in self.tags

    def valid_sequence(self, tags: Sequence[str]) -> bool:
        """Segment-level validity check (independent of the bigram masks).

        Walks the sequence with an explicit open-entity state: an entity is
        either a singleton S-Y or a complete B-Y I-Y* E-Y run.
        """
        open_cat: Optional[str] = None
        for tag in tags:
            p, c = self.prefix(tag), self.category(tag)
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

    def invalid_positions(self, tags: Sequence[str]) -> list[int]:
        """Positions at which the tag sequence breaks BIOES validity."""
        masks = transition_masks(self)
        idx = [self.index(t) for t in tags]
        bad = []
        for t, k in enumerate(idx):
            if t == 0:
                if not masks.valid_start[k]:
                    bad.append(t)
            elif not masks.valid_pair[idx[t - 1], k]:
                bad.append(t)
        if idx and not masks.valid_end[idx[-1]] and (len(idx) - 1) not in bad:
            bad.append(len(idx) - 1)
        return bad

    def spans(self, tags: Sequence[str]) -> list[tuple[int, int, str]]:
        """Extract complete entity spans as (start, end, category).

        ``end`` is exclusive.  Only well-formed segments (S-Y, or B-Y I-Y*
        E-Y) are emitted, so the extraction is defined even on invalid
        predicted sequences.
        """
        out = []
        i, n = 0, len(tags)
        while i < n:
            p, c = self.prefix(tags[i]), self.category(tags[i])
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


# --- generic rule machinery -------------------------------------------------


@dataclass(frozen=True)
class Grounding:
    """One instantiated constraint: truth depends only on the site labels.

    ``sites`` are (member, position) pairs into a batch-joint assignment;
    ``table`` has one axis per site, indexed by label.
    """

    sites: tuple[tuple[int, int], ...]
    table: np.ndarray = field(compare=False)

    def truth(self, assignment) -> float:
        labels = tuple(assignment[m][t] for m, t in self.sites)
        return float(self.table[labels])


@dataclass(frozen=True)
class Rule:
    """A named constraint with confidence and a batch grounder.

    ``scope`` is one of ``per-instance``, ``bigram``, ``cross-instance``;
    it tells the inference layer which regime can absorb the groundings.
    """

    name: str
    confidence: float
    scope: str
    grounder: Callable[[Sequence], list[Grounding]] = field(compare=False)

    def __post_init__(self):
        if not self.confidence >= 0:
            raise ValueError("rule confidence must be nonnegative")

    @property
    def hard(self) -> bool:
        return math.isinf(self.confidence)

    def groundings(self, batch) -> list[Grounding]:
        return self.grounder(batch)


# --- the "but" rule ---------------------------------------------------------


@dataclass(frozen=True)
class ButStructure:
    """An A-but-B sentence: tokens with the split index of the "but" token."""

    tokens: tuple[str, ...]
    split: int

    def __post_init__(self):
        if not (1 <= self.split <= len(self.tokens) - 2):
            raise ValueError("'but' split must leave both clauses nonempty")
        if self.tokens[self.split].casefold() != "but":
            raise ValueError(f"token at split is {self.tokens[self.split]!r}, not 'but'")

    @property
    def clause_a(self) -> tuple[str, ...]:
        return self.tokens[: self.split]

    @property
    def clause_b(self) -> tuple[str, ...]:
        return self.tokens[self.split + 1 :]


def detect_but(tokens: Sequence[str]) -> Optional[ButStructure]:
    """First standalone case-folded "but" with at least one token on each side."""
    for i in range(1, len(tokens) - 1):
        if tokens[i].casefold() == "but":
            return ButStructure(tuple(tokens), i)
    return None


def but_rule_truth(sigma_b_pos: float, positive: bool, variant: str = "avg") -> TruthValue:
    """Truth of the A-but-B rule given the predictor's positive-class
    probability on clause B alone.

    The default ``avg`` variant averages the two directions of the
    equivalence, giving (1 + sigma)/2 for the positive label and
    (2 - sigma)/2 otherwise.  The ``strong`` variant uses the selection
    conjunction instead: sigma for positive, 1 - sigma otherwise.
    """
    if not 0.0 <= sigma_b_pos <= 1.0:
        raise ValueError(f"probability {sigma_b_pos!r} outside [0, 1]")
    if variant == "avg":
        value = (1.0 + sigma_b_pos) / 2.0 if positive else (2.0 - sigma_b_pos) / 2.0
    elif variant == "strong":
        value = sigma_b_pos if positive else 1.0 - sigma_b_pos
    else:
        raise ValueError(f"unknown but-rule variant {variant!r}")
    return TruthValue(value)


def but_rule(confidence: float = 1.0, variant: str = "avg") -> Rule:
    """The A-but-B rule for two-way sentiment classification.

    The grounder expects one entry per batch instance: the predictor's
    class distribution on clause B, or None for instances without an
    A-but-B structure (those contribute no grounding).  The rule reads the
    probability of class 1 from it.  Which class it calls positive does
    not matter: the two probabilities sum to 1, so calling class 0
    positive gives the same table.
    """

    def grounder(sigma_b: Sequence[Optional[np.ndarray]]) -> list[Grounding]:
        out = []
        for m, dist in enumerate(sigma_b):
            if dist is None:
                continue
            s = float(dist[1])
            table = np.array(
                [but_rule_truth(s, positive=(k == 1), variant=variant) for k in (0, 1)]
            )
            out.append(Grounding(((m, 0),), table))
        return out

    return Rule(f"but-{variant}", confidence, "per-instance", grounder)


# --- BIOES transition rules -------------------------------------------------


@dataclass(frozen=True)
class TransitionMasks:
    """Boolean validity of tags at the start, across bigrams, and at the end."""

    valid_start: np.ndarray  # (K,)
    valid_pair: np.ndarray  # (K, K) indexed [prev, cur]
    valid_end: np.ndarray  # (K,)


def _pair_valid(scheme: TagScheme, prev: str, cur: str) -> bool:
    pp, pc = scheme.prefix(prev), scheme.category(prev)
    cp, cc = scheme.prefix(cur), scheme.category(cur)
    if cp in ("I", "E") and not (pp in ("B", "I") and pc == cc):
        return False
    if pp in ("B", "I") and not (cp in ("I", "E") and cc == pc):
        return False
    return True


@lru_cache(maxsize=None)
def transition_masks(scheme: TagScheme) -> TransitionMasks:
    tags = scheme.tags
    start = np.array([scheme.prefix(t) not in ("I", "E") for t in tags])
    end = np.array([scheme.prefix(t) not in ("B", "I") for t in tags])
    pair = np.array([[_pair_valid(scheme, a, b) for b in tags] for a in tags])
    return TransitionMasks(start, pair, end)


def transition_rules(scheme: TagScheme) -> list[Rule]:
    """Hard rules forbidding every invalid BIOES bigram.

    Two templates cover the scheme: "opens" requires every I/E tag to
    extend an open entity of the same category (which also bars I/E at the
    sequence start), and "closes" requires every B/I tag to be continued
    (which also bars B/I at the sequence end).  The grounder expects a
    batch of sized members (anything supporting ``len``), one grounding
    per position.
    """
    tags = scheme.tags
    K = len(tags)
    inside = np.array([scheme.prefix(t) in ("I", "E") for t in tags])
    opens = np.array([scheme.prefix(t) in ("B", "I") for t in tags])
    pair = transition_masks(scheme).valid_pair

    # opens_table[a, b]: violated only when b is I/E without a matching opener.
    opens_table = np.where(inside[None, :], pair, True).astype(float)
    closes_table = np.where(opens[:, None], pair, True).astype(float)
    start_table = (~inside).astype(float)
    end_table = (~opens).astype(float)

    def make_grounder(pair_table, edge_table, at_start):
        def grounder(batch) -> list[Grounding]:
            out = []
            for m, member in enumerate(batch):
                n = len(member)
                if n == 0:
                    continue
                edge_pos = 0 if at_start else n - 1
                out.append(Grounding(((m, edge_pos),), edge_table))
                for t in range(1, n):
                    out.append(Grounding(((m, t - 1), (m, t)), pair_table))
            return out

        return grounder

    return [
        Rule(
            "bioes-entity-opens",
            math.inf,
            "bigram",
            make_grounder(opens_table, start_table, at_start=True),
        ),
        Rule(
            "bioes-entity-closes",
            math.inf,
            "bigram",
            make_grounder(closes_table, end_table, at_start=False),
        ),
    ]


# --- category collapse and the list rule ------------------------------------


@dataclass(frozen=True)
class CategoryCollapse:
    """Sums probability mass over the BIOES variants of each category.

    Collapsing a length-K tag distribution yields one entry per category
    plus a final entry for O, so the output always conserves total mass.
    """

    scheme: TagScheme

    @property
    def n_groups(self) -> int:
        return len(self.scheme.categories) + 1

    @cached_property
    def group_index(self) -> np.ndarray:
        """Each tag's group: its category's index, or n_groups - 1 for O.
        Read-only, since every caller shares the cached array."""
        cats = self.scheme.categories
        idx = np.empty(self.scheme.n_tags, dtype=int)
        for k, tag in enumerate(self.scheme.tags):
            c = self.scheme.category(tag)
            idx[k] = len(cats) if c is None else cats.index(c)
        idx.flags.writeable = False
        return idx

    def collapse(self, dist: np.ndarray) -> np.ndarray:
        """Category masses of one tag distribution, or of each row of a
        (..., K) stack of them."""
        dist = np.asarray(dist, dtype=float)
        if dist.shape[-1:] != (self.scheme.n_tags,):
            raise ValueError(
                f"expected length-{self.scheme.n_tags} distributions, got shape {dist.shape}"
            )
        return dist @ np.eye(self.n_groups)[self.group_index]


def list_rule_truth(collapse: CategoryCollapse, sigma_a: np.ndarray) -> np.ndarray:
    """Truth of the list-counterpart rule for each category X could take,
    against the prediction on its counterpart A: shape (..., n_groups) for
    a (..., K) stack of counterpart distributions.

    The truth is 1 minus the Euclidean distance between the collapsed
    one-hot label of X and the collapsed distribution mu on A, floored at 0
    (the distance can reach sqrt(2)).  For X in category c that distance
    is sqrt(1 - 2 mu_c + ||mu||^2), so every category is scored at once.
    """
    mu = collapse.collapse(sigma_a)
    sq_dist = 1.0 - 2.0 * mu + np.sum(mu * mu, axis=-1, keepdims=True)
    return np.maximum(0.0, 1.0 - np.sqrt(np.maximum(sq_dist, 0.0)))


def counterpart_truth_table(collapse: CategoryCollapse) -> np.ndarray:
    """Pairwise truth table over tag pairs for joint (teacher-side) use,
    where the counterpart's prediction is a candidate one-hot:
    ``table[i, j]`` is the truth for X tagged i against A tagged j."""
    onehots = np.eye(collapse.scheme.n_tags)
    return list_rule_truth(collapse, onehots)[:, collapse.group_index].T


def list_counterpart_rule(collapse: CategoryCollapse, confidence: float = 1.0) -> Rule:
    """The list-counterpart rule over detected list alignments.

    The grounder expects a batch of links, each a pair of (member,
    position) sites; every link yields one symmetric grounding.
    """
    table = counterpart_truth_table(collapse)

    def grounder(links) -> list[Grounding]:
        return [Grounding((tuple(a), tuple(b)), table) for a, b in links]

    return Rule("list-counterpart", confidence, "cross-instance", grounder)
