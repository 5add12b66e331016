"""Concrete rules: the "but" rule, the BIOES transition rules and the
list-counterpart rule, with the tag-scheme helpers they read.

A :class:`Rule` is a name and a confidence lambda.  Each of its three kinds
carries exactly what its teacher reads:

- :class:`ButRule` gives the truth of both labels of A-but-B sentences,
  an (N, 2) array, from the predictor's class distributions on clause B,
  by the soft-logic formula (1(y=1) => s) & (s => 1(y=1));
- :class:`TransitionRule` holds fixed truth tables for a tag sequence's
  first tag (K,), each bigram (K, K) and last tag (K,), built as
  soft-logic implications over 0/1 tag indicators; BIOES validity is
  where every table is 1;
- :class:`ListRule` holds the category collapse under which
  ``list_rule_truth`` scores a linked site against its counterpart.

Confidence ``math.inf`` marks a hard rule: any outcome with truth below 1
receives zero teacher probability.  A list rule must be soft.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np

from .softlogic import avg_conj, implies, neg, strong_conj

__all__ = [
    "TagScheme",
    "Rule",
    "ButRule",
    "TransitionRule",
    "ListRule",
    "ButStructure",
    "detect_but",
    "but_rule_truth",
    "but_rule",
    "TransitionMasks",
    "transition_masks",
    "transition_rules",
    "CategoryCollapse",
    "list_rule_truth",
    "counterpart_truth_table",
    "list_counterpart_rule",
]

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

    def encode(self, tags: Sequence[str]) -> np.ndarray:
        """The tag index of each of ``tags``.  A tag with no prefix is O, and
        a category outside the scheme continues the layout past ``n_tags``:
        its gold spans count, and no prediction over the scheme matches them."""
        foreign = {t.partition("-")[2] for t in set(tags)} - {"", *self.categories}
        index = {tag: k for k, tag in enumerate(TagScheme(self.categories + tuple(foreign)).tags)}
        return np.array([index.get(t, 0) for t in tags], dtype=int)

    def prefix(self, tag: str) -> str:
        return "O" if tag == "O" else tag.split("-", 1)[0]

    def category(self, tag: str) -> Optional[str]:
        return None if tag == "O" else tag.split("-", 1)[1]


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


# --- rules -------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """A named rule with its confidence lambda; ``math.inf`` makes it hard."""

    name: str
    confidence: float

    def __post_init__(self):
        if not self.confidence >= 0:
            raise ValueError("rule confidence must be nonnegative")

    @property
    def hard(self) -> bool:
        return math.isinf(self.confidence)


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


def detect_but(tokens: Sequence[str]) -> Optional[ButStructure]:
    """First standalone case-folded "but" with at least one token on each side."""
    for i in range(1, len(tokens) - 1):
        if tokens[i].casefold() == "but":
            return ButStructure(tuple(tokens), i)
    return None


_BUT_VARIANTS = ("avg", "strong")


def but_rule_truth(sigma_pos, variant: str = "avg") -> np.ndarray:
    """Truth of the A-but-B rule for labels 0 and 1, shape (..., 2), given
    the predictor's probability s of class 1 on clause B alone.

    The rule is the soft-logic formula (1(y=1) => s) and (s => 1(y=1))
    over y = 0, 1.  The ``avg`` variant joins the two directions with
    ``avg_conj``, giving (1 + (1 - s))/2 for label 0 and (s + 1)/2 for
    label 1; the ``strong`` variant joins them with the selection
    conjunction ``strong_conj``, giving 1 - s and s.
    """
    if variant not in _BUT_VARIANTS:
        raise ValueError(f"unknown but-rule variant {variant!r}")
    s = np.asarray(sigma_pos, dtype=float)[..., None]
    y = np.array([0.0, 1.0])
    both = (implies(y, s), implies(s, y))
    return avg_conj(both) if variant == "avg" else strong_conj(*both)


@dataclass(frozen=True)
class ButRule(Rule):
    """The A-but-B rule for two-way sentiment classification, read from
    the predictor's class distribution on clause B.  Which class it calls
    positive does not matter: the two probabilities sum to 1, so swapping
    the classes swaps the table."""

    variant: str

    def __post_init__(self):
        super().__post_init__()
        if self.variant not in _BUT_VARIANTS:
            raise ValueError(f"unknown but-rule variant {self.variant!r}")

    def truths(self, sigma_b) -> np.ndarray:
        """The (N, 2) truths of both labels, given the (N, 2) clause-B
        class distributions of N A-but-B sentences."""
        return but_rule_truth(np.asarray(sigma_b, dtype=float)[..., 1], self.variant)


def but_rule(confidence: float = 1.0, variant: str = "avg") -> ButRule:
    """The A-but-B rule of the given variant, ``avg`` or ``strong``."""
    return ButRule(f"but-{variant}", confidence, variant)


# --- BIOES transition rules -------------------------------------------------


@dataclass(frozen=True)
class TransitionMasks:
    """Boolean validity of tags at the start, across bigrams, and at the end."""

    valid_start: np.ndarray  # (K,)
    valid_pair: np.ndarray  # (K, K) indexed [prev, cur]
    valid_end: np.ndarray  # (K,)

    def violations(self, codes: np.ndarray, first: np.ndarray) -> np.ndarray:
        """One flag per position of concatenated tag-index sequences, set
        where BIOES validity breaks: the sentence's first tag or the bigram
        ending there is invalid, or it is the sentence's last tag and leaves
        an entity open.  ``first`` marks each sentence's first position."""
        return (np.where(first, ~self.valid_start[codes],
                         ~self.valid_pair[np.roll(codes, 1), codes])
                | (np.roll(first, -1) & ~self.valid_end[codes]))


@lru_cache(maxsize=None)
def transition_masks(scheme: TagScheme) -> TransitionMasks:
    """Where every transition rule's table is 1."""
    rules = transition_rules(scheme)

    def valid(table: str) -> np.ndarray:
        return np.all([getattr(r, table) == 1.0 for r in rules], axis=0)

    return TransitionMasks(valid("start"), valid("pair"), valid("end"))


@dataclass(frozen=True)
class TransitionRule(Rule):
    """A rule on tag sequences, as truth tables of the first tag ``start``
    (K,), each bigram ``pair`` (K, K) indexed [prev, cur], and the last
    tag ``end`` (K,).  A table that the rule does not constrain is all
    ones."""

    pair: np.ndarray = field(compare=False)
    start: np.ndarray = field(compare=False)
    end: np.ndarray = field(compare=False)


def transition_rules(scheme: TagScheme) -> list[TransitionRule]:
    """Hard rules forbidding every invalid BIOES bigram, as soft-logic
    formulas over 0/1 tag indicators: ``ie`` marks I/E tags, ``bi`` marks
    B/I tags, and ``same[a, b]`` says tags a and b share a category.

    "opens" requires every I/E tag to extend an open entity of the same
    category, pair[a, b] = ie[b] => (bi[a] & same[a, b]), and bars I/E at
    the sequence start, start = not ie.  "closes" requires every B/I tag
    to be continued, pair[a, b] = bi[a] => (ie[b] & same[a, b]), and bars
    B/I at the sequence end, end = not bi.
    """
    prefixes = [scheme.prefix(t) for t in scheme.tags]
    ie = np.isin(prefixes, ("I", "E")).astype(float)
    bi = np.isin(prefixes, ("B", "I")).astype(float)
    group = CategoryCollapse(scheme).group_index
    same = (group[:, None] == group[None, :]).astype(float)
    ones = np.ones(scheme.n_tags)
    opens = implies(ie[None, :], strong_conj(bi[:, None], same))
    closes = implies(bi[:, None], strong_conj(ie[None, :], same))
    return [
        TransitionRule("bioes-entity-opens", math.inf, opens, neg(ie), ones),
        TransitionRule("bioes-entity-closes", math.inf, closes, ones, neg(bi)),
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


@dataclass(frozen=True)
class ListRule(Rule):
    """The list-counterpart rule over detected list alignments: each end
    of a link is scored against the other end by ``list_rule_truth`` under
    ``collapse``.  Its confidence must be finite: the group sampler needs
    soft couplings."""

    collapse: CategoryCollapse

    def __post_init__(self):
        super().__post_init__()
        if self.hard:
            raise ValueError(f"rule {self.name!r}: a list rule must have finite confidence "
                             "(the group sampler needs soft couplings)")


def list_counterpart_rule(collapse: CategoryCollapse, confidence: float = 1.0) -> ListRule:
    """The list-counterpart rule of a category collapse."""
    return ListRule("list-counterpart", confidence, collapse)
