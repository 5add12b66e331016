"""File formats, the list detector, and the synthetic generators."""

import numpy as np
import pytest
from conftest import ref_valid_sequence

from ruledistill.corpus import (
    CorpusFormatError,
    LabeledSentence,
    ListGroup,
    ListItem,
    NerTaskSpec,
    SentimentTaskSpec,
    TaggedSentence,
    detect_lists,
    gen_synthetic_ner,
    gen_synthetic_sentiment,
    group_documents,
    load_classification,
    load_conll,
    write_classification,
    write_conll,
)
from ruledistill.rulelib import TagScheme, detect_but


class TestClassificationFormat:
    def test_round_trip(self, tmp_path):
        data = [
            LabeledSentence(("fine", "film"), 1),
            LabeledSentence(("dull",), 0),
        ]
        path = tmp_path / "d.tsv"
        write_classification(path, data)
        assert load_classification(path) == data
        # Bit-exact: writing the loaded data reproduces the file.
        path2 = tmp_path / "d2.tsv"
        write_classification(path2, load_classification(path))
        assert path.read_bytes() == path2.read_bytes()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("1\ta b\n\n0\tc\n")
        assert len(load_classification(path)) == 2

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("1 a b\n", "TAB"),
            ("x\ta b\n", "not an integer"),
            ("-1\ta\n", "nonnegative"),
            ("1\t\n", "empty token"),
        ],
    )
    def test_format_errors(self, tmp_path, content, fragment):
        path = tmp_path / "bad.tsv"
        path.write_text(content)
        with pytest.raises(CorpusFormatError) as info:
            load_classification(path)
        assert fragment in str(info.value)
        assert info.value.line == 1


class TestConllFormat:
    def test_round_trip(self, tmp_path):
        data = [
            TaggedSentence(("Omar", "visited"), ("S-PER", "O"), 0, 0),
            TaggedSentence(("Dover",), ("S-LOC",), 0, 1),
            TaggedSentence(("Acme", "Labs"), ("B-ORG", "E-ORG"), 1, 0),
        ]
        path = tmp_path / "d.conll"
        write_conll(path, data)
        assert load_conll(path) == data
        path2 = tmp_path / "d2.conll"
        write_conll(path2, load_conll(path))
        assert path.read_bytes() == path2.read_bytes()

    def test_invalid_bioes_rejected(self, tmp_path):
        path = tmp_path / "bad.conll"
        path.write_text("-DOCSTART-\n\nOmar B-PER\nwent O\n\n")
        with pytest.raises(CorpusFormatError) as info:
            load_conll(path)
        assert "BIOES" in str(info.value)

    def test_unknown_tag_against_categories(self, tmp_path):
        path = tmp_path / "d.conll"
        path.write_text("-DOCSTART-\n\nOmar S-PER\n\n")
        assert len(load_conll(path, categories=("PER",))) == 1
        with pytest.raises(CorpusFormatError):
            load_conll(path, categories=("LOC",))

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "d.conll"
        path.write_text("-DOCSTART-\n\nOmar S-PER extra\n\n")
        with pytest.raises(CorpusFormatError):
            load_conll(path)

    def test_group_documents(self):
        data = [
            TaggedSentence(("a",), ("O",), 1, 1),
            TaggedSentence(("b",), ("O",), 0, 0),
            TaggedSentence(("c",), ("O",), 1, 0),
        ]
        docs = group_documents(data)
        assert [[s.tokens[0] for s in d] for d in docs] == [["b"], ["c", "a"]]


class TestDetectLists:
    def groups(self, sentences):
        return detect_lists([tuple(s.split()) for s in sentences])

    def test_intra_sentence_numbered(self):
        gs = self.groups(["we saw 1. Ashford 2. Dover 3. Millbrook ."])
        assert len(gs) == 1
        g = gs[0]
        assert g.kind == "numbered"
        # The last item's span runs to the sentence end; the trailing
        # period starts no block.
        assert [(i.start, i.end) for i in g.items] == [(3, 4), (5, 6), (7, 9)]
        assert [i.blocks for i in g.items] == [
            ((3, 4),), ((5, 6),), ((7, 8),),
        ]

    def test_trailing_prose_invalidates_last_item(self):
        # Lowercase prose merges into the final item's block and fails the
        # capitalization predicate, leaving only 2 survivors.
        assert self.groups(["we saw 1. Ashford 2. Dover 3. Millbrook today"]) == []

    def test_intra_sentence_dash(self):
        gs = self.groups(["teams : - Acme Labs - Zenith - Quorum Group"])
        assert len(gs) == 1
        assert gs[0].kind == "dash"
        assert len(gs[0].items) == 3

    def test_inter_sentence_numbered(self):
        gs = self.groups(["1. Ashford Castle", "2. Dover Pier", "3. Millbrook"])
        assert len(gs) == 1
        assert [i.sent_index for i in gs[0].items] == [0, 1, 2]
        # Marker token excluded from the item span.
        assert all(i.start == 1 for i in gs[0].items)

    def test_two_items_rejected(self):
        assert self.groups(["1. Ashford 2. Dover and nothing else"]) == []

    def test_lowercase_item_dropped(self):
        # The lowercase item fails validation; only 2 survive, no group.
        assert self.groups(["1. Ashford 2. dover 3. Millbrook"]) == []
        # With 4 items and 1 bad, the 3 survivors still form a group.
        gs = self.groups(["1. Ashford 2. dover 3. Millbrook 4. Rivertown"])
        assert len(gs) == 1 and len(gs[0].items) == 3

    def test_long_block_dropped(self):
        gs = self.groups(
            ["- The Quick Brown Fox Jumps - Acme - Zenith - Quorum"]
        )
        assert len(gs) == 1 and len(gs[0].items) == 3

    def test_punctuation_splits_blocks(self):
        gs = self.groups(["1. Ashford , Kent 2. Dover , Kent 3. Millbrook , Hants"])
        assert len(gs) == 1
        assert all(len(i.blocks) == 2 for i in gs[0].items)

    def test_numbering_must_start_at_one(self):
        assert self.groups(["2. Ashford 3. Dover 4. Millbrook"]) == []

    def test_numbering_must_be_consecutive(self):
        assert self.groups(["1. Ashford 3. Dover 4. Millbrook"]) == []

    def test_counterpart_pairs_positional(self):
        g = ListGroup(
            doc_id=0,
            kind="dash",
            items=(
                ListItem(0, 1, 4, ((1, 2), (3, 4))),
                ListItem(0, 5, 7, ((5, 6),)),
                ListItem(0, 8, 12, ((8, 9), (10, 11))),
            ),
        )
        pairs = g.counterpart_pairs()
        assert ((0, 0), (1, 0)) in pairs
        assert ((0, 0), (2, 0)) in pairs
        assert ((1, 0), (2, 0)) in pairs
        # Second block exists only on items 0 and 2.
        assert ((0, 1), (2, 1)) in pairs
        assert len(pairs) == 4

    def test_accepts_tagged_sentences(self):
        sents = [
            TaggedSentence(tuple("1. Ashford".split()), ("O", "S-LOC"), 0, 0),
            TaggedSentence(tuple("2. Dover".split()), ("O", "S-LOC"), 0, 1),
            TaggedSentence(tuple("3. Verona".split()), ("O", "S-LOC"), 0, 2),
        ]
        gs = detect_lists(sents, doc_id=4)
        assert len(gs) == 1 and gs[0].doc_id == 4

    def test_group_needs_three_items(self):
        with pytest.raises(ValueError):
            ListGroup(0, "dash", (ListItem(0, 1, 2, ((1, 2),)),) * 2)


class TestSentimentGenerator:
    def test_deterministic(self):
        a = gen_synthetic_sentiment(seed=3, n=50)
        b = gen_synthetic_sentiment(seed=3, n=50)
        assert a == b
        assert a != gen_synthetic_sentiment(seed=4, n=50)

    def test_but_fraction_and_gold(self):
        spec = SentimentTaskSpec()
        data = gen_synthetic_sentiment(seed=0, n=400, spec=spec)
        but = [s for s in data if detect_but(s.tokens)]
        frac = len(but) / len(data)
        assert 0.10 < frac < 0.20  # around the 0.15 default
        # In every but-sentence the gold label follows clause B: clause B
        # words come from the label's own lexicon.
        pos = set(spec.strong_pos) | set(spec.mild_pos)
        neg = set(spec.strong_neg) | set(spec.mild_neg)
        for s in but:
            split = detect_but(s.tokens).split
            b_words = set(s.tokens[split + 1 :])
            own = pos if s.label == 1 else neg
            other = neg if s.label == 1 else pos
            assert b_words & own
            assert not (b_words & other)

    def test_label_noise_flips_only_plain(self):
        clean = gen_synthetic_sentiment(seed=9, n=300)
        noisy = gen_synthetic_sentiment(
            seed=9, n=300, spec=SentimentTaskSpec(plain_label_noise=0.2)
        )
        flips = 0
        for c, n in zip(clean, noisy):
            assert c.tokens == n.tokens  # noise never rewrites text
            if c.label != n.label:
                flips += 1
                assert detect_but(c.tokens) is None
        assert 30 <= flips <= 90  # ~20% of ~255 plain sentences

    def test_binary_labels(self):
        assert {s.label for s in gen_synthetic_sentiment(seed=1, n=100)} == {0, 1}


class TestNerGenerator:
    def test_deterministic(self):
        a = gen_synthetic_ner(seed=3, n_docs=10)
        b = gen_synthetic_ner(seed=3, n_docs=10)
        assert a == b

    def test_all_sequences_bioes_valid(self):
        spec = NerTaskSpec()
        scheme = TagScheme(spec.categories)
        for s in gen_synthetic_ner(seed=2, n_docs=30, spec=spec):
            assert ref_valid_sequence(scheme, s.tags), s

    def test_list_items_share_category(self):
        data = gen_synthetic_ner(seed=5, n_docs=40)
        docs = group_documents(data)
        found = 0
        for doc in docs:
            for g in detect_lists(doc):
                found += 1
                cats = set()
                for item in g.items:
                    sent = doc[item.sent_index]
                    for t in sent.tags[item.start : item.end]:
                        if t != "O":
                            cats.add(t.split("-", 1)[1])
                assert len(cats) == 1, g
        assert found > 5

    def test_entity_label_noise_valid_and_spares_lists(self):
        spec = NerTaskSpec(entity_label_noise=0.5)
        scheme = TagScheme(spec.categories)
        clean = gen_synthetic_ner(seed=7, n_docs=40)
        noisy = gen_synthetic_ner(seed=7, n_docs=40, spec=spec)
        assert all(ref_valid_sequence(scheme, s.tags) for s in noisy)
        changed = 0
        list_sents = set()
        for doc in group_documents(clean):
            for g in detect_lists(doc):
                for item in g.items:
                    list_sents.add(
                        (doc[item.sent_index].doc_id, item.sent_index)
                    )
        for c, n in zip(clean, noisy):
            assert c.tokens == n.tokens
            if c.tags != n.tags:
                changed += 1
                assert (c.doc_id, c.sent_index) not in list_sents
        assert changed > 10
