"""Corpus handling: file formats, the list/counterpart detector, and
synthetic task generators.

Formats are deliberately minimal and bit-exact under a load/write round
trip: classification files are `<label>\\t<space-separated tokens>` lines;
tagging files are two-column `token tag` lines with blank-line sentence
breaks and `-DOCSTART-` document breaks.

The list detector is precision-oriented.  It finds numbered lists (items
introduced by "1." "2." "3." ... consecutively from 1) and dash lists
(items introduced by "-"), both within one sentence and across adjacent
sentences.  An item is kept only if every punctuation-delimited block has
at most 3 words and every alphabetic-initial word is capitalized; a group
needs at least 3 surviving items.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rulelib import TagScheme, transition_masks

__all__ = [
    "CorpusFormatError",
    "LabeledSentence",
    "TaggedSentence",
    "ListItem",
    "ListGroup",
    "load_classification",
    "write_classification",
    "load_conll",
    "infer_scheme",
    "write_conll",
    "group_documents",
    "detect_lists",
    "SentimentTaskSpec",
    "gen_synthetic_sentiment",
    "NerTaskSpec",
    "gen_synthetic_ner",
]


class CorpusFormatError(ValueError):
    """A file violated its format; carries path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


# --- records -----------------------------------------------------------------


@dataclass(frozen=True)
class LabeledSentence:
    """A classification instance: tokens and a class index."""

    tokens: tuple[str, ...]
    label: int

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("tokens must be nonempty")
        if self.label < 0:
            raise ValueError("label must be a nonnegative index")
        object.__setattr__(self, "tokens", tuple(self.tokens))


@dataclass(frozen=True)
class TaggedSentence:
    """A tagging instance within a document."""

    tokens: tuple[str, ...]
    tags: tuple[str, ...]
    doc_id: int = 0
    sent_index: int = 0

    def __post_init__(self):
        if not self.tokens or len(self.tokens) != len(self.tags):
            raise ValueError("tokens and tags must be nonempty and aligned")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "tags", tuple(self.tags))

    def __len__(self) -> int:
        return len(self.tokens)


# --- classification format ---------------------------------------------------


def load_classification(path) -> list[LabeledSentence]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise CorpusFormatError(path, ln, "expected <label><TAB><tokens>")
            label_s, text = line.split("\t", 1)
            try:
                label = int(label_s)
            except ValueError:
                raise CorpusFormatError(path, ln, f"label {label_s!r} is not an integer")
            if label < 0:
                raise CorpusFormatError(path, ln, "label must be nonnegative")
            tokens = tuple(text.split())
            if not tokens:
                raise CorpusFormatError(path, ln, "empty token list")
            out.append(LabeledSentence(tokens, label))
    return out


def write_classification(path, sentences: Iterable[LabeledSentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sentences:
            fh.write(f"{s.label}\t{' '.join(s.tokens)}\n")


# --- tagging format ----------------------------------------------------------

_DOCSTART = "-DOCSTART-"
_TAG_RE = re.compile(r"^(O|[BIES]-[^\s]+)$")


def load_conll(path) -> list[TaggedSentence]:
    """Parse two-column sentences grouped into documents.

    Every sentence must be a valid BIOES sequence under the categories the
    file's tags name; the first invalid one in file order is reported at
    the line of its first bad position.
    """
    out: list[TaggedSentence] = []
    lines: list[int] = []  # each token's line, in file order
    doc_id, sent_index = 0, 0
    tokens: list[str] = []
    tags: list[str] = []
    seen_any = False

    def flush():
        nonlocal tokens, tags, sent_index
        if tokens:
            out.append(TaggedSentence(tuple(tokens), tuple(tags), doc_id, sent_index))
            sent_index += 1
            tokens, tags = [], []

    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                flush()
                continue
            cols = line.split()
            if cols[0] == _DOCSTART:
                flush()
                if seen_any:
                    doc_id += 1
                    sent_index = 0
                continue
            if len(cols) != 2:
                raise CorpusFormatError(path, ln, f"expected 2 columns, got {len(cols)}")
            tok, tag = cols
            if not _TAG_RE.match(tag):
                raise CorpusFormatError(path, ln, f"malformed tag {tag!r}")
            seen_any = True
            tokens.append(tok)
            tags.append(tag)
            lines.append(ln)
    flush()

    all_tags = [t for s in out for t in s.tags]
    if any(t != "O" for t in all_tags):  # an all-O sequence is always valid
        scheme = infer_scheme(out)
        lengths = np.array([len(s) for s in out])
        starts = np.cumsum(lengths) - lengths
        first = np.zeros(len(all_tags), dtype=bool)
        first[starts] = True
        bad = np.flatnonzero(transition_masks(scheme).violations(scheme.encode(all_tags), first))
        if len(bad):
            i = np.searchsorted(starts, bad[0], side="right") - 1
            at = bad[bad < starts[i] + lengths[i]] - starts[i]
            raise CorpusFormatError(
                path,
                lines[bad[0]],
                f"invalid BIOES sequence at positions {at.tolist()} of sentence "
                f"{out[i].sent_index} in document {out[i].doc_id}",
            )
    return out


def infer_scheme(sentences: Sequence[TaggedSentence]) -> TagScheme:
    """The tag scheme of tagged sentences: their entity categories, sorted.
    A run's labeled records alone define it; unlabeled tags are never targets."""
    cats = sorted({t.split("-", 1)[1] for s in sentences for t in s.tags if t != "O"})
    if not cats:
        raise ValueError("tagging data contains no entity tags")
    return TagScheme(tuple(cats))


def write_conll(path, sentences: Iterable[TaggedSentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        last_doc = None
        for s in sentences:
            if s.doc_id != last_doc:
                fh.write(f"{_DOCSTART}\n\n")
                last_doc = s.doc_id
            for tok, tag in zip(s.tokens, s.tags):
                fh.write(f"{tok} {tag}\n")
            fh.write("\n")


def group_documents(sentences: Sequence[TaggedSentence]) -> list[list[TaggedSentence]]:
    """Group a flat sentence list into documents, preserving order."""
    docs: dict[int, list[TaggedSentence]] = {}
    for s in sentences:
        docs.setdefault(s.doc_id, []).append(s)
    return [sorted(v, key=lambda s: s.sent_index) for _, v in sorted(docs.items())]


# --- list detection ----------------------------------------------------------

_BLOCK_PUNCT = {",", ";", ":", ".", "(", ")"}
_NUM_MARKER_RE = re.compile(r"^(\d+)\.$")


@dataclass(frozen=True)
class ListItem:
    """One list item: its token span (marker excluded) and the punctuation-
    delimited blocks inside it, each a (start, end) token span."""

    sent_index: int
    start: int
    end: int
    blocks: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ListGroup:
    """A detected list with at least 3 surviving items."""

    doc_id: int
    kind: str  # "numbered" | "dash"
    items: tuple[ListItem, ...]

    def __post_init__(self):
        if len(self.items) < 3:
            raise ValueError("a list needs at least 3 items")
        if self.kind not in ("numbered", "dash"):
            raise ValueError(f"unknown list kind {self.kind!r}")
        object.__setattr__(self, "items", tuple(self.items))

    def counterpart_pairs(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Positional block alignment: ((item_a, block_k), (item_b, block_k))
        for every unordered item pair sharing a k-th block.  Symmetric by
        convention (a < b) and irreflexive."""
        out = []
        counts = [len(it.blocks) for it in self.items]
        for k in range(max(counts)):
            have = [i for i, c in enumerate(counts) if c > k]
            for a in range(len(have)):
                for b in range(a + 1, len(have)):
                    out.append(((have[a], k), (have[b], k)))
        return out


def _validate_item(tokens: Sequence[str], sent_index: int, start: int, end: int):
    """Apply the block-length and capitalization predicates; None if the
    item fails, else the ListItem."""
    blocks = []
    s = start
    for i in range(start, end + 1):
        if i == end or tokens[i] in _BLOCK_PUNCT:
            if i > s:
                if i - s > 3:
                    return None
                for w in tokens[s:i]:
                    if w[:1].isalpha() and not w[:1].isupper():
                        return None
                blocks.append((s, i))
            s = i + 1
    if not blocks:
        return None
    return ListItem(sent_index, start, end, tuple(blocks))


def _numbered_runs(values: list[int]) -> list[tuple[int, int]]:
    """Maximal (start, length) runs of consecutive integers beginning at 1."""
    runs = []
    i = 0
    while i < len(values):
        if values[i] == 1:
            j = i + 1
            while j < len(values) and values[j] == values[j - 1] + 1:
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    return runs


def _group(doc_id, kind: str, candidates) -> list[ListGroup]:
    """The list of ``kind`` made of the candidate items, each given as
    ``_validate_item``'s arguments, that pass validation: one group, or
    none when fewer than 3 survive."""
    items = [item for args in candidates if (item := _validate_item(*args)) is not None]
    return [ListGroup(doc_id, kind, tuple(items))] if len(items) >= 3 else []


def _intra_sentence_groups(doc_id, sent_index, tokens) -> list[ListGroup]:
    groups = []
    markers = [
        (i, int(m.group(1)))
        for i, tok in enumerate(tokens)
        if (m := _NUM_MARKER_RE.match(tok))
    ]
    # Each item runs from after its marker to the next marker or the end.
    positions = [p for p, _ in markers] + [len(tokens)]
    for start, length in _numbered_runs([v for _, v in markers]):
        if length >= 3:
            groups += _group(doc_id, "numbered", [
                (tokens, sent_index, positions[j] + 1, positions[j + 1])
                for j in range(start, start + length)
            ])

    dashes = [i for i, tok in enumerate(tokens) if tok == "-"] + [len(tokens)]
    if len(dashes) > 3:
        groups += _group(doc_id, "dash", [
            (tokens, sent_index, lo + 1, hi) for lo, hi in zip(dashes, dashes[1:])
        ])
    return groups


def _inter_sentence_groups(doc_id, sentences) -> list[ListGroup]:
    def leading_number(tokens) -> int:
        m = _NUM_MARKER_RE.match(tokens[0]) if tokens else None
        return int(m.group(1)) if m else -1

    def whole(first: int, count: int) -> list:
        # Each item is its sentence after the marker.
        return [(sentences[s], s, 1, len(sentences[s])) for s in range(first, first + count)]

    groups = []
    for start, length in _numbered_runs([leading_number(s) for s in sentences]):
        if length >= 3:
            groups += _group(doc_id, "numbered", whole(start, length))
    start = 0
    for dash, run in itertools.groupby(bool(s) and s[0] == "-" for s in sentences):
        length = len(list(run))
        if dash and length >= 3:
            groups += _group(doc_id, "dash", whole(start, length))
        start += length
    return groups


def detect_lists(document, doc_id: int = 0) -> list[ListGroup]:
    """Find list groups in a document given as a sequence of sentences.

    Sentences may be token sequences or TaggedSentence records.  Detection
    is intra-sentence (several markers inside one sentence) and
    inter-sentence (each sentence opening with the next marker).
    """
    sentences = [
        tuple(s.tokens) if isinstance(s, TaggedSentence) else tuple(s)
        for s in document
    ]
    groups = []
    for idx, tokens in enumerate(sentences):
        # A list needs 3 dashes or 3 markers, each marker holding one ".".
        if tokens.count("-") >= 3 or "".join(tokens).count(".") >= 3:
            groups.extend(_intra_sentence_groups(doc_id, idx, tokens))
    groups.extend(_inter_sentence_groups(doc_id, sentences))
    groups.sort(key=lambda g: (g.items[0].sent_index, g.items[0].start))
    return groups


# --- synthetic sentiment task ------------------------------------------------


def _check_probabilities(spec, *names: str) -> None:
    for name in names:
        if not 0.0 <= getattr(spec, name) <= 1.0:  # NaN fails too
            raise ValueError(f"{name} must lie in [0, 1], got {getattr(spec, name)!r}")


@dataclass(frozen=True)
class SentimentTaskSpec:
    """Knobs for the A-but-B sentiment generator.

    Plain sentences carry strong, frequent polarity words.  A-but-B
    sentences put strong words of the OPPOSITE polarity in clause A and
    milder words of the gold polarity in clause B, so a bag-of-evidence
    classifier is pulled the wrong way while clause B alone remains
    informative.  Mild words also appear (less often) in plain sentences
    so their polarity is learnable.
    """

    but_fraction: float = 0.15
    strong_pos: tuple[str, ...] = (
        "excellent", "wonderful", "superb", "delightful", "brilliant", "amazing",
    )
    strong_neg: tuple[str, ...] = (
        "terrible", "awful", "dreadful", "horrid", "boring", "lifeless",
    )
    mild_pos: tuple[str, ...] = ("decent", "solid", "pleasant", "tidy", "warm", "fresh")
    mild_neg: tuple[str, ...] = ("stale", "clumsy", "thin", "muddled", "flat", "shaky")
    filler: tuple[str, ...] = (
        "the", "plot", "acting", "film", "score", "pacing",
        "dialogue", "camera", "ending", "cast",
    )
    mild_in_plain: float = 0.5  # chance a plain sentence also shows a mild word
    conflict_in_plain: float = 0.35  # chance a plain sentence is a conflict pair
    plain_label_noise: float = 0.0  # chance a PLAIN sentence's label is flipped

    def __post_init__(self):
        _check_probabilities(self, "but_fraction", "mild_in_plain", "conflict_in_plain",
                             "plain_label_noise")
        pools = (self.strong_pos, self.strong_neg, self.mild_pos, self.mild_neg, self.filler)
        if any("but" in p for p in pools):
            raise ValueError("word pools must not contain 'but'")


def gen_synthetic_sentiment(
    seed: int, n: int, spec: SentimentTaskSpec = SentimentTaskSpec()
) -> list[LabeledSentence]:
    """Deterministic synthetic corpus; label 1 = positive, 0 = negative.
    For A-but-B sentences the gold label is the polarity of clause B."""
    rng = np.random.default_rng(seed)

    def pick(pool, k=1):
        return [pool[int(i)] for i in rng.integers(0, len(pool), size=k)]

    out = []
    for _ in range(n):
        y = int(rng.integers(2))
        if rng.random() < spec.but_fraction:
            # Contrastive structure: the clause after "but" carries the gold
            # polarity and is outnumbered 3 strong words to 2 by the opposite
            # polarity before it.  The fixed interleaving below makes the set
            # of k-gram patterns (k <= 3, over {filler, pos, neg, but}) the
            # same for both label values: each clause alternates strong and
            # filler words and is padded with fillers at both edges, so every
            # local window is either polarity-free or occurs with both
            # polarities regardless of the label.  Word presence and local
            # word order are therefore uninformative; only the position of a
            # clause relative to "but" resolves the label.
            against = spec.strong_neg if y == 1 else spec.strong_pos
            forr = spec.strong_pos if y == 1 else spec.strong_neg

            def f() -> str:
                return pick(spec.filler)[0]

            av = pick(against, 3)
            fv = pick(forr, 2)
            a = [f(), f(), av[0], f(), av[1], f(), av[2], f(), f()]
            b = [f(), f(), fv[0], f(), fv[1], f(), f()]
            tokens = a + ["but"] + b
        else:
            strong = spec.strong_pos if y == 1 else spec.strong_neg
            mild = spec.mild_pos if y == 1 else spec.mild_neg
            mild_opp = spec.mild_neg if y == 1 else spec.mild_pos
            if rng.random() < spec.conflict_in_plain:
                # Conflict pair: one strong word of the gold polarity against
                # one mild word of the other.  The strong word wins, so the
                # label stays determined, but classifying these correctly
                # needs a reliable strong-over-mild weight margin.
                tokens = pick(spec.filler, int(rng.integers(2, 5)))
                tokens += pick(strong, 1) + pick(mild_opp, 1)
            else:
                tokens = pick(spec.filler, int(rng.integers(2, 5))) + pick(strong, 2)
                if rng.random() < spec.mild_in_plain:
                    tokens += pick(mild, 1)
            rng.shuffle(tokens)
            if rng.random() < spec.plain_label_noise:
                y = 1 - y
        out.append(LabeledSentence(tuple(tokens), y))
    return out


# --- synthetic NER task ------------------------------------------------------


@dataclass(frozen=True)
class NerTaskSpec:
    """Knobs for the list-NER generator.

    Ambiguous surface forms occur as LOC in travel contexts and as ORG in
    club contexts; inside lists the local window shows only markers and
    sibling items, so a per-position tagger cannot resolve them while the
    counterpart rule can (lists are single-category by construction).
    """

    categories: tuple[str, ...] = ("PER", "LOC", "ORG")
    list_fraction: float = 0.5  # fraction of documents containing one list
    ambiguous_in_list: float = 0.5  # chance each list item is an ambiguous form
    per_names: tuple[str, ...] = ("Priya", "Omar", "Ines", "Viktor", "Mei", "Tomas")
    loc_names: tuple[str, ...] = (
        "Springfield", "Rivertown", "Lakeside", "Ashford", "Millbrook", "Dover",
    )
    org_names: tuple[str, ...] = (
        "Nordbank", "Acme", "Zenith", "Helios", "Quorum", "Vertex",
    )
    ambiguous: tuple[str, ...] = (
        "Barcelona", "Milan", "Chelsea", "Toledo", "Verona", "Granada",
    )
    # Pieces for multi-token entities; these exercise the B/I/E tags so the
    # transition rules have real work (single-token entities alone would
    # make any per-position decode trivially valid).
    per_surnames: tuple[str, ...] = ("Santos", "Ito", "Novak", "Keller")
    loc_prefixes: tuple[str, ...] = ("North", "East", "Port")
    org_suffixes: tuple[str, ...] = ("Group", "Council")
    # Chance a NON-list entity's tag category is mislabeled.  The surface
    # form keeps its true context, so the noise is unfittable; list items
    # are never touched (they share their list's category by construction).
    entity_label_noise: float = 0.0

    def __post_init__(self):
        if self.categories != ("PER", "LOC", "ORG"):
            raise ValueError("generator templates assume categories (PER, LOC, ORG)")
        _check_probabilities(self, "list_fraction", "ambiguous_in_list", "entity_label_noise")


def _plain_ner_sentence(rng, spec: NerTaskSpec, noise_rng):
    """One non-list sentence: tokens, tags.  Entity length is mixed so the
    corpus contains S, B-E, and B-I-E segments.

    Label noise draws from its own stream so the surface corpus is
    bit-identical across noise settings."""

    def draw(pool):
        return pool[int(rng.integers(len(pool)))]

    kind = int(rng.integers(4))
    shape = rng.random()
    if kind == 0:  # travel context: LOC or ambiguous-as-LOC
        if shape < 0.5:
            pool = spec.loc_names if rng.random() < 0.5 else spec.ambiguous
            ent, tags = [draw(pool)], ["S-LOC"]
        elif shape < 0.8:
            ent = [draw(spec.loc_prefixes), draw(spec.loc_names)]
            tags = ["B-LOC", "E-LOC"]
        else:
            ent = [draw(spec.loc_prefixes), draw(spec.loc_names), "Valley"]
            tags = ["B-LOC", "I-LOC", "E-LOC"]
        toks = ["the", "group", "visited"] + ent + ["today", "."]
        tags = ["O", "O", "O"] + tags + ["O", "O"]
    elif kind == 1:  # club context: ORG or ambiguous-as-ORG
        if shape < 0.5:
            pool = spec.org_names if rng.random() < 0.5 else spec.ambiguous
            ent, tags = [draw(pool)], ["S-ORG"]
        elif shape < 0.8:
            ent = [draw(spec.org_names), draw(spec.org_suffixes)]
            tags = ["B-ORG", "E-ORG"]
        else:
            ent = [draw(spec.org_names), "Holding", draw(spec.org_suffixes)]
            tags = ["B-ORG", "I-ORG", "E-ORG"]
        toks = ent + ["signed", "two", "new", "players", "."]
        tags = tags + ["O", "O", "O", "O", "O"]
    elif kind == 2:  # person context
        if shape < 0.5:
            ent, tags = [draw(spec.per_names)], ["S-PER"]
        else:
            ent = [draw(spec.per_names), draw(spec.per_surnames)]
            tags = ["B-PER", "E-PER"]
        toks = ent + ["spoke", "at", "the", "meeting", "."]
        tags = tags + ["O", "O", "O", "O", "O"]
    else:  # no entities
        toks = ["the", "full", "report", "arrived", "late", "."]
        tags = ["O"] * 6
        return toks, tags
    if noise_rng.random() < spec.entity_label_noise:
        cur = next(t.split("-", 1)[1] for t in tags if t != "O")
        others = [c for c in spec.categories if c != cur]
        wrong = others[int(noise_rng.integers(len(others)))]
        tags = [t if t == "O" else t.split("-", 1)[0] + "-" + wrong for t in tags]
    return toks, tags


def _list_items(rng, spec: NerTaskSpec, count: int):
    """Item surface forms and the shared category of one list.

    One random position is always an unambiguous anchor from the
    category's own pool; without it an all-ambiguous list would carry no
    category evidence at all and its gold tags would be unlearnable."""
    cat = "ORG" if rng.random() < 0.5 else "LOC"
    base = spec.org_names if cat == "ORG" else spec.loc_names
    anchor = int(rng.integers(count))
    items = []
    for i in range(count):
        if i != anchor and rng.random() < spec.ambiguous_in_list:
            pool = spec.ambiguous
        else:
            pool = base
        items.append(pool[int(rng.integers(len(pool)))])
    return items, cat


def gen_synthetic_ner(
    seed: int, n_docs: int, spec: NerTaskSpec = NerTaskSpec()
) -> list[TaggedSentence]:
    """Deterministic document corpus; tags are always BIOES-valid and list
    items share their list's gold category."""
    rng = np.random.default_rng(seed)
    noise_rng = np.random.default_rng((seed, 7919))
    out = []
    for d in range(n_docs):
        sentences: list[tuple[list[str], list[str]]] = []
        n_plain = int(rng.integers(2, 4))
        for _ in range(n_plain):
            sentences.append(_plain_ner_sentence(rng, spec, noise_rng))
        if rng.random() < spec.list_fraction:
            count = int(rng.integers(3, 5))
            items, cat = _list_items(rng, spec, count)
            tag = f"S-{cat}"
            if rng.random() < 0.5:  # numbered, intra-sentence
                toks, tags = [], []
                for i, it in enumerate(items, start=1):
                    toks += [f"{i}.", it]
                    tags += ["O", tag]
                pos = int(rng.integers(len(sentences) + 1))
                sentences.insert(pos, (toks, tags))
            else:  # dash, inter-sentence: consecutive one-item sentences
                pos = int(rng.integers(len(sentences) + 1))
                for off, it in enumerate(items):
                    sentences.insert(pos + off, (["-", it], ["O", tag]))
        for s_idx, (toks, tags) in enumerate(sentences):
            out.append(TaggedSentence(tuple(toks), tuple(tags), d, s_idx))
    return out
