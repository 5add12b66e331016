"""Rule templates: the "but" rule, BIOES transitions, list counterparts."""

import itertools
import math

import numpy as np
import pytest
from conftest import ref_spans, ref_valid_sequence

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
    transition_masks,
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
        assert ref_valid_sequence(SCHEME, tags) is valid

    def test_invalid_positions_pinpoints(self):
        # Both endpoints of a dangling I are broken bigrams.
        assert SCHEME.invalid_positions(["O", "I-LOC", "O"]) == [1, 2]
        assert SCHEME.invalid_positions(["B-LOC", "E-LOC", "O"]) == []
        assert SCHEME.invalid_positions(["O", "O", "B-LOC"]) == [2]
        assert SCHEME.invalid_positions(["B-LOC", "O", "O"]) == [1]

    def test_spans(self):
        tags = ["B-LOC", "I-LOC", "E-LOC", "O", "S-ORG", "B-ORG"]
        assert ref_spans(SCHEME, tags) == [(0, 3, "LOC"), (4, 5, "ORG")]

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

    def test_symmetric_in_the_two_classes(self):
        # The classes' probabilities sum to 1, so swapping the classes
        # swaps the table: no class is special.
        for variant in ("avg", "strong"):
            rule = but_rule(variant=variant)
            for s1 in np.random.default_rng(0).uniform(size=200):
                sigma = np.array([1.0 - s1, s1])
                (g,), (swapped,) = (rule.groundings([d]) for d in (sigma, sigma[::-1]))
                np.testing.assert_allclose(g.table, swapped.table[::-1], rtol=0, atol=1e-15)

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
    def test_masks_agree_with_sequence_walker(self):
        # Cross-validate the bigram masks against the sequence walker on every
        # length-2 sequence; both routes must agree everywhere.
        masks = transition_masks(SCHEME)
        for i, a in enumerate(SCHEME.tags):
            for j, b in enumerate(SCHEME.tags):
                seq_ok = ref_valid_sequence(SCHEME, [a, b])
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
            assert ok == ref_valid_sequence(SCHEME, tags), tags


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
        loc, org, o = list_rule_truth(self.COLLAPSE, onehot)
        # Same category at category granularity: zero distance, full truth.
        assert loc == 1.0
        # Different category: distance sqrt(2), floored to 0.
        assert org == 0.0
        assert o == 0.0

    def test_truth_soft_counterpart(self):
        sigma = np.zeros(SCHEME.n_tags)
        sigma[SCHEME.index("S-LOC")] = 0.5
        sigma[SCHEME.index("S-ORG")] = 0.5
        # Collapsed sigma = (0.5, 0.5, 0); label LOC collapses to (1, 0, 0).
        expect = 1.0 - math.sqrt(0.25 + 0.25)
        assert list_rule_truth(self.COLLAPSE, sigma)[0] == pytest.approx(expect)

    def test_truth_is_one_minus_the_collapsed_distance_for_a_stack(self):
        # The closed form against the distance it stands for, on a (2, 5, K)
        # stack of counterpart distributions.  Near a one-hot mu the closed
        # form's squared distance cancels to a few ulps, which the square
        # root magnifies, hence 1e-12 rather than 1e-15.
        rng = np.random.default_rng(3)
        sigma = rng.dirichlet(np.full(SCHEME.n_tags, 0.3), size=(2, 5))
        got = list_rule_truth(self.COLLAPSE, sigma)
        assert got.shape == (2, 5, self.COLLAPSE.n_groups)
        mu = self.COLLAPSE.collapse(sigma)
        for c in range(self.COLLAPSE.n_groups):
            dist = np.linalg.norm(np.eye(self.COLLAPSE.n_groups)[c] - mu, axis=-1)
            np.testing.assert_allclose(got[..., c], np.maximum(0.0, 1.0 - dist),
                                       rtol=0, atol=1e-12)

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
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule("bad", -1.0, "per-instance", lambda b: [])
