"""Rule templates: the "but" rule, BIOES transitions, list counterparts."""

import itertools
import math

import numpy as np
import pytest

from ruledistill.rulelib import (
    ButStructure,
    CategoryCollapse,
    Grounding,
    Rule,
    TagScheme,
    but_rule,
    but_rule_truth,
    counterpart_truth_table,
    detect_but,
    list_counterpart_rule,
    list_rule_truth,
    penalty,
    transition_masks,
    transition_pair_truth,
    transition_rules,
)

SCHEME = TagScheme(("LOC", "ORG"))


class TestTagScheme:
    def test_tag_inventory(self):
        assert SCHEME.tags == (
            "O",
            "B-LOC", "I-LOC", "E-LOC", "S-LOC",
            "B-ORG", "I-ORG", "E-ORG", "S-ORG",
        )
        assert SCHEME.n_tags == 9

    def test_index_round_trip(self):
        for i, tag in enumerate(SCHEME.tags):
            assert SCHEME.index(tag) == i
        with pytest.raises(ValueError):
            SCHEME.index("B-PER")

    @pytest.mark.parametrize(
        "tags,valid",
        [
            (["O", "O"], True),
            (["S-LOC"], True),
            (["B-LOC", "E-LOC"], True),
            (["B-LOC", "I-LOC", "E-LOC", "O", "S-ORG"], True),
            (["B-LOC"], False),            # never closed
            (["I-LOC", "E-LOC"], False),   # never opened
            (["B-LOC", "E-ORG"], False),   # category switch mid-entity
            (["B-LOC", "O"], False),
            (["E-LOC"], False),
            (["B-LOC", "B-LOC", "E-LOC"], False),
        ],
    )
    def test_valid_sequence(self, tags, valid):
        assert SCHEME.valid_sequence(tags) is valid

    def test_invalid_positions_pinpoints(self):
        # Both endpoints of a dangling I are broken bigrams.
        assert SCHEME.invalid_positions(["O", "I-LOC", "O"]) == [1, 2]
        assert SCHEME.invalid_positions(["B-LOC", "E-LOC", "O"]) == []
        assert SCHEME.invalid_positions(["O", "O", "B-LOC"]) == [2]
        assert SCHEME.invalid_positions(["B-LOC", "O", "O"]) == [1]

    def test_spans(self):
        tags = ["B-LOC", "I-LOC", "E-LOC", "O", "S-ORG", "B-ORG"]
        assert SCHEME.spans(tags) == [(0, 3, "LOC"), (4, 5, "ORG")]

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError):
            TagScheme(("LOC", "LOC"))


class TestButRule:
    def test_truth_values_avg(self):
        # (1 + sigma)/2 for the positive label, (2 - sigma)/2 for the other.
        assert but_rule_truth(0.8, positive=True) == pytest.approx(0.9)
        assert but_rule_truth(0.8, positive=False) == pytest.approx(0.6)
        assert but_rule_truth(0.0, positive=True) == pytest.approx(0.5)
        assert but_rule_truth(1.0, positive=True) == pytest.approx(1.0)
        assert but_rule_truth(1.0, positive=False) == pytest.approx(0.5)

    def test_truth_values_strong(self):
        assert but_rule_truth(0.8, True, variant="strong") == pytest.approx(0.8)
        assert but_rule_truth(0.8, False, variant="strong") == pytest.approx(0.2)

    def test_truth_validation(self):
        with pytest.raises(ValueError):
            but_rule_truth(1.2, True)
        with pytest.raises(ValueError):
            but_rule_truth(0.5, True, variant="nope")

    def test_grounder_skips_non_but_instances(self):
        rule = but_rule(confidence=1.0)
        gs = rule.groundings([np.array([0.2, 0.8]), None, np.array([0.7, 0.3])])
        assert [g.sites for g in gs] == [((0, 0),), ((2, 0),)]
        np.testing.assert_allclose(gs[0].table, [0.6, 0.9])
        np.testing.assert_allclose(gs[1].table, [0.85, 0.65])

    def test_positive_class_zero(self):
        # The rule reads clause B's probability of its own positive class.
        rule = but_rule(positive_class=0)
        (g,) = rule.groundings([np.array([0.8, 0.2])])
        np.testing.assert_allclose(g.table, [0.9, 0.6])

    def test_binary_only(self):
        with pytest.raises(ValueError):
            but_rule(n_classes=3)
        with pytest.raises(ValueError):
            but_rule(positive_class=2)

    def test_rule_metadata(self):
        rule = but_rule(confidence=2.0, variant="strong")
        assert rule.name == "but-strong"
        assert rule.confidence == 2.0
        assert rule.scope == "per-instance"
        assert not rule.hard


class TestDetectBut:
    def test_first_standalone_but(self):
        s = detect_but(["good", "but", "bad", "but", "fine"])
        assert s is not None and s.split == 1
        assert s.clause_a == ("good",)
        assert s.clause_b == ("bad", "but", "fine")

    def test_case_folded(self):
        assert detect_but(["Nice", "BUT", "dull"]).split == 1

    def test_requires_nonempty_clauses(self):
        assert detect_but(["but", "bad"]) is None
        assert detect_but(["good", "but"]) is None
        assert detect_but(["good", "bad"]) is None

    def test_no_substring_match(self):
        assert detect_but(["all", "butter", "here"]) is None

    def test_structure_validation(self):
        with pytest.raises(ValueError):
            ButStructure(("but", "b"), 0)
        with pytest.raises(ValueError):
            ButStructure(("a", "and", "b"), 1)


class TestTransitions:
    def test_pair_truth_matches_validity(self):
        for a, b in itertools.product(SCHEME.tags, repeat=2):
            expect = SCHEME.valid_sequence(["B-LOC", "E-LOC"])  # warm call
            truth = transition_pair_truth(SCHEME, a, b)
            # A bigram is valid iff some valid sequence contains it; check
            # directly against the segment walker on a minimal context.
            assert truth in (0.0, 1.0)
        assert transition_pair_truth(SCHEME, "B-LOC", "I-LOC") == 1.0
        assert transition_pair_truth(SCHEME, "B-LOC", "O") == 0.0
        assert transition_pair_truth(SCHEME, "O", "I-LOC") == 0.0
        assert transition_pair_truth(SCHEME, "B-LOC", "E-ORG") == 0.0
        assert transition_pair_truth(SCHEME, "S-LOC", "B-ORG") == 1.0

    def test_masks_agree_with_sequence_walker(self):
        # Cross-validate the bigram masks against valid_sequence on every
        # length-2 sequence; both routes must agree everywhere.
        masks = transition_masks(SCHEME)
        for i, a in enumerate(SCHEME.tags):
            for j, b in enumerate(SCHEME.tags):
                seq_ok = SCHEME.valid_sequence([a, b])
                mask_ok = bool(
                    masks.valid_start[i]
                    and masks.valid_pair[i, j]
                    and masks.valid_end[j]
                )
                assert seq_ok == mask_ok, (a, b)

    def test_rules_are_hard(self):
        rules = transition_rules(SCHEME)
        assert [r.name for r in rules] == [
            "bioes-entity-opens",
            "bioes-entity-closes",
        ]
        assert all(r.hard and r.scope == "bigram" for r in rules)

    def test_grounding_truth_on_sequences(self):
        rules = transition_rules(SCHEME)
        batch = [[0, 1, 2], [0, 1]]  # members only need len()
        idx = {t: i for i, t in enumerate(SCHEME.tags)}

        def joint_truth(tag_rows):
            assignment = [[idx[t] for t in row] for row in tag_rows]
            return min(
                float(g.truth(assignment))
                for r in rules
                for g in r.groundings(batch)
            )

        assert joint_truth([["B-LOC", "I-LOC", "E-LOC"], ["O", "S-ORG"]]) == 1.0
        assert joint_truth([["B-LOC", "I-LOC", "O"], ["O", "S-ORG"]]) == 0.0
        assert joint_truth([["O", "O", "O"], ["B-ORG", "O"]]) == 0.0
        assert joint_truth([["I-LOC", "O", "O"], ["O", "O"]]) == 0.0

    def test_every_invalid_sequence_violates_some_grounding(self):
        rules = transition_rules(SCHEME)
        batch = [[0, 1, 2]]
        gs = [g for r in rules for g in r.groundings(batch)]
        for tags in itertools.product(SCHEME.tags, repeat=3):
            assignment = [[SCHEME.index(t) for t in tags]]
            ok = all(g.truth(assignment) >= 1.0 for g in gs)
            assert ok == SCHEME.valid_sequence(tags), tags


class TestListRule:
    COLLAPSE = CategoryCollapse(SCHEME)

    def test_collapse_conserves_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dist = rng.dirichlet(np.ones(SCHEME.n_tags))
            out = self.COLLAPSE.collapse(dist)
            assert out.shape == (3,)  # LOC, ORG, O
            assert out.sum() == pytest.approx(1.0)

    def test_collapse_routing(self):
        dist = np.zeros(SCHEME.n_tags)
        dist[SCHEME.index("B-LOC")] = 0.25
        dist[SCHEME.index("S-LOC")] = 0.25
        dist[SCHEME.index("E-ORG")] = 0.3
        dist[SCHEME.index("O")] = 0.2
        np.testing.assert_allclose(self.COLLAPSE.collapse(dist), [0.5, 0.3, 0.2])

    def test_truth_same_vs_different_category(self):
        onehot = np.zeros(SCHEME.n_tags)
        onehot[SCHEME.index("S-LOC")] = 1.0
        # Same category at category granularity: zero distance, full truth.
        assert list_rule_truth(self.COLLAPSE, "B-LOC", onehot) == 1.0
        # Different category: distance sqrt(2), floored to 0.
        assert list_rule_truth(self.COLLAPSE, "S-ORG", onehot) == 0.0
        assert list_rule_truth(self.COLLAPSE, "O", onehot) == 0.0

    def test_truth_soft_counterpart(self):
        sigma = np.zeros(SCHEME.n_tags)
        sigma[SCHEME.index("S-LOC")] = 0.5
        sigma[SCHEME.index("S-ORG")] = 0.5
        # Collapsed sigma = (0.5, 0.5, 0); label LOC collapses to (1, 0, 0).
        expect = 1.0 - math.sqrt(0.25 + 0.25)
        assert list_rule_truth(self.COLLAPSE, "S-LOC", sigma) == pytest.approx(expect)
        expect_n = 1.0 - math.sqrt(0.5) / math.sqrt(2.0)
        assert list_rule_truth(
            self.COLLAPSE, "S-LOC", sigma, normalize_sqrt2=True
        ) == pytest.approx(expect_n)

    def test_pair_table_binary_for_onehot(self):
        table = counterpart_truth_table(self.COLLAPSE)
        for i, a in enumerate(SCHEME.tags):
            for j, b in enumerate(SCHEME.tags):
                expect = 1.0 if SCHEME.category(a) == SCHEME.category(b) else 0.0
                assert table[i, j] == pytest.approx(expect), (a, b)

    def test_rule_groundings(self):
        rule = list_counterpart_rule(self.COLLAPSE, confidence=1.0)
        links = [(((0, 1), (2, 0))), (((1, 0), (3, 2)))]
        gs = rule.groundings(links)
        assert [g.sites for g in gs] == [((0, 1), (2, 0)), ((1, 0), (3, 2))]
        assignment = {
            0: {1: SCHEME.index("S-LOC")},
            2: {0: SCHEME.index("B-LOC")},
        }
        assert gs[0].truth(assignment) == 1.0
        assignment[2][0] = SCHEME.index("B-ORG")
        assert gs[0].truth(assignment) == 0.0


class TestPenalty:
    def test_soft(self):
        assert penalty(6.0, 1.0, 0.75) == pytest.approx(1.5)
        assert penalty(6.0, 0.5, 1.0) == 0.0

    def test_hard(self):
        assert penalty(6.0, math.inf, 1.0) == 0.0
        assert penalty(6.0, math.inf, 0.999) == math.inf

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule("bad", -1.0, "per-instance", lambda b: [])
