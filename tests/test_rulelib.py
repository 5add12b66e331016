"""Rule templates: the "but" rule, BIOES transitions, list counterparts."""

import itertools
import math

import numpy as np
import pytest
from conftest import ref_spans, ref_valid_sequence, tag_runs
from hypothesis import given, settings
from hypothesis import strategies as st

from ruledistill.rulelib import (
    ButRule,
    ButStructure,
    CategoryCollapse,
    ListRule,
    Rule,
    TagScheme,
    TransitionRule,
    but_rule,
    but_rule_truth,
    counterpart_truth_table,
    detect_but,
    list_counterpart_rule,
    list_rule_truth,
    transition_masks,
    transition_rules,
)
from ruledistill.softlogic import avg_conj, implies, strong_conj

SCHEME = TagScheme(("LOC", "ORG"))


class TestTagScheme:
    def test_tag_inventory(self):
        assert SCHEME.tags == (
            "O",
            "B-LOC", "I-LOC", "E-LOC", "S-LOC",
            "B-ORG", "I-ORG", "E-ORG", "S-ORG",
        )
        assert SCHEME.n_tags == 9

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

    def test_violations_pinpoints(self):
        # The four sentences as one concatenated sequence.  Both endpoints
        # of a dangling I are broken bigrams.
        sentences = [["O", "I-LOC", "O"], ["B-LOC", "E-LOC", "O"],
                     ["O", "O", "B-LOC"], ["B-LOC", "O", "O"]]
        first = np.tile([True, False, False], 4)
        codes = SCHEME.encode([t for tags in sentences for t in tags])
        bad = transition_masks(SCHEME).violations(codes, first).reshape(4, 3)
        assert [np.flatnonzero(row).tolist() for row in bad] == [[1, 2], [], [2], [1]]

    def test_spans(self):
        tags = ["B-LOC", "I-LOC", "E-LOC", "O", "S-ORG", "B-ORG"]
        assert ref_spans(SCHEME, tags) == [(0, 3, "LOC"), (4, 5, "ORG")]

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError):
            TagScheme(("LOC", "LOC"))


def ref_but_truths(s: float, variant: str) -> list:
    """The but rule's truths of labels 0 and 1 for one clause-B
    probability s of class 1, from the scalar soft-logic operators."""
    conj = (lambda a, b: avg_conj([a, b])) if variant == "avg" else strong_conj
    return [conj(implies(y, s), implies(s, y)) for y in (0.0, 1.0)]


def closed_form_but_truths(s: float, variant: str) -> list:
    """The same truths in closed form: (2 - s)/2 and (1 + s)/2 for "avg",
    1 - s and s for "strong"."""
    if variant == "avg":
        return [(2.0 - s) / 2.0, (1.0 + s) / 2.0]
    return [1.0 - s, s]


class TestButRule:
    def test_truth_values_avg(self):
        # (1 + sigma)/2 for label 1, (2 - sigma)/2 for label 0.
        np.testing.assert_allclose(but_rule_truth(0.8), [0.6, 0.9])
        np.testing.assert_allclose(but_rule_truth(0.0), [1.0, 0.5])
        np.testing.assert_allclose(but_rule_truth(1.0), [0.5, 1.0])

    def test_truth_values_strong(self):
        np.testing.assert_allclose(but_rule_truth(0.8, variant="strong"), [0.2, 0.8])

    def test_truth_validation(self):
        with pytest.raises(ValueError, match="1.2 outside"):
            but_rule_truth(np.array([0.5, 1.2]))
        with pytest.raises(ValueError, match="outside"):
            but_rule_truth(math.nan)
        with pytest.raises(ValueError, match="variant 'nope'"):
            but_rule_truth(0.5, variant="nope")
        # The variant is checked when the rule is built.
        with pytest.raises(ValueError, match="variant 'nope'"):
            but_rule(variant="nope")

    def test_truth_of_a_stack_keeps_its_shape(self):
        s = np.random.default_rng(1).uniform(size=(3, 4))
        for variant in ("avg", "strong"):
            got = but_rule_truth(s, variant)
            assert got.shape == (3, 4, 2)
            np.testing.assert_allclose(got[..., 0] + got[..., 1],
                                       1.5 if variant == "avg" else 1.0, rtol=0, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
           st.sampled_from(("avg", "strong")))
    def test_truths_bit_equal_to_the_scalar_formula_by_row(self, s1, variant):
        sigma = np.stack([1.0 - np.array(s1), s1], axis=1)
        got = but_rule(variant=variant).truths(sigma)
        assert got.shape == (len(s1), 2)
        for row, s in zip(got, sigma[:, 1]):
            assert row.tolist() == ref_but_truths(float(s), variant)
            # The closed form differs from the formula in the last bit at most.
            np.testing.assert_allclose(row, closed_form_but_truths(float(s), variant),
                                       rtol=0, atol=1e-15)

    def test_symmetric_in_the_two_classes(self):
        # The classes' probabilities sum to 1, so swapping the classes
        # swaps the table: no class is special.
        s1 = np.random.default_rng(0).uniform(size=200)
        sigma = np.stack([1.0 - s1, s1], axis=1)
        for variant in ("avg", "strong"):
            rule = but_rule(variant=variant)
            np.testing.assert_allclose(rule.truths(sigma), rule.truths(sigma[:, ::-1])[:, ::-1],
                                       rtol=0, atol=1e-15)

    def test_rule_metadata(self):
        rule = but_rule(confidence=2.0, variant="strong")
        assert rule == ButRule("but-strong", 2.0, "strong")
        assert not rule.hard


class TestDetectBut:
    def test_first_standalone_but(self):
        s = detect_but(["good", "but", "bad", "but", "fine"])
        assert s is not None and s.split == 1
        assert s.tokens[: s.split] == ("good",)

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


def scheme_of(n_categories):
    return TagScheme(("LOC", "ORG", "PER", "MISC")[:n_categories])


def ref_pair_valid(scheme, prev, cur) -> bool:
    """BIOES bigram validity as a walk over the tag strings: an I/E tag
    must follow a B/I tag of its category, and a B/I tag must be followed
    by an I/E tag of its category."""
    pp, pc = scheme.prefix(prev), scheme.category(prev)
    cp, cc = scheme.prefix(cur), scheme.category(cur)
    if cp in ("I", "E") and not (pp in ("B", "I") and pc == cc):
        return False
    if pp in ("B", "I") and not (cp in ("I", "E") and cc == pc):
        return False
    return True


class TestTransitions:
    @pytest.mark.parametrize("n_categories", [1, 2, 3, 4])
    def test_masks_agree_with_sequence_walker(self, n_categories):
        # Cross-validate the bigram masks against the sequence walker on every
        # length-2 sequence; both routes must agree everywhere.
        scheme = scheme_of(n_categories)
        masks = transition_masks(scheme)
        for i, a in enumerate(scheme.tags):
            for j, b in enumerate(scheme.tags):
                seq_ok = ref_valid_sequence(scheme, [a, b])
                mask_ok = bool(
                    masks.valid_start[i]
                    and masks.valid_pair[i, j]
                    and masks.valid_end[j]
                )
                assert seq_ok == mask_ok, (a, b)

    @pytest.mark.parametrize("n_categories", [1, 2, 3, 4])
    def test_tables_equal_the_string_walk(self, n_categories):
        # Each table, read off the soft-logic formulas, against the tag
        # string walk: "opens" fails only on an I/E tag, "closes" only
        # after a B/I tag, and the start and end rows bar the same tags.
        scheme = scheme_of(n_categories)
        opens, closes = transition_rules(scheme)
        masks = transition_masks(scheme)
        pair = np.array([[ref_pair_valid(scheme, a, b) for b in scheme.tags]
                         for a in scheme.tags])
        start = np.array([scheme.prefix(t) not in ("I", "E") for t in scheme.tags])
        end = np.array([scheme.prefix(t) not in ("B", "I") for t in scheme.tags])
        assert np.array_equal(opens.pair, np.where(start[None, :], True, pair))
        assert np.array_equal(closes.pair, np.where(end[:, None], True, pair))
        assert np.array_equal(opens.start, start) and np.array_equal(closes.end, end)
        assert np.array_equal(masks.valid_pair, pair)
        assert masks.valid_pair.dtype == bool

    @settings(max_examples=300, deadline=None)
    @given(tag_runs())
    def test_violations_flag_exactly_the_invalid_sentences(self, run):
        scheme, tags, starts = run
        first = np.zeros(len(tags), dtype=bool)
        first[starts] = True
        bad = transition_masks(scheme).violations(scheme.encode(tags), first)
        for a, b in zip(starts, starts[1:] + [len(tags)]):
            assert bad[a:b].any() == (not ref_valid_sequence(scheme, tags[a:b])), tags[a:b]

    def test_rules_are_hard(self):
        rules = transition_rules(SCHEME)
        assert [r.name for r in rules] == [
            "bioes-entity-opens",
            "bioes-entity-closes",
        ]
        assert all(r.hard and isinstance(r, TransitionRule) for r in rules)

    def test_unconstrained_edges_are_all_ones(self):
        # "opens" does not constrain the last tag, nor "closes" the first:
        # all-ones tables, which add exactly nothing to a chain.
        opens, closes = transition_rules(SCHEME)
        masks = transition_masks(SCHEME)
        assert np.array_equal(opens.end, np.ones(SCHEME.n_tags))
        assert np.array_equal(closes.start, np.ones(SCHEME.n_tags))
        assert np.array_equal(opens.start, masks.valid_start)
        assert np.array_equal(closes.end, masks.valid_end)
        assert np.array_equal(opens.pair * closes.pair, masks.valid_pair)

    @staticmethod
    def truths(rules, tags, scheme=SCHEME):
        """The truth of each grounding of the rules on one tag sequence:
        its first tag, each bigram and its last tag, per rule."""
        idx = [scheme.tags.index(t) for t in tags]
        return [truth for r in rules
                for truth in [r.start[idx[0]], *r.pair[idx[:-1], idx[1:]], r.end[idx[-1]]]]

    def test_grounding_truth_on_sequences(self):
        rules = transition_rules(SCHEME)

        def joint_truth(*rows):
            return float(np.prod([t for row in rows for t in self.truths(rules, row)]))

        assert joint_truth(["B-LOC", "I-LOC", "E-LOC"], ["O", "S-ORG"]) == 1.0
        assert joint_truth(["B-LOC", "I-LOC", "O"], ["O", "S-ORG"]) == 0.0
        assert joint_truth(["O", "O", "O"], ["B-ORG", "O"]) == 0.0
        assert joint_truth(["I-LOC", "O", "O"], ["O", "O"]) == 0.0

    @pytest.mark.parametrize("n_categories", [1, 2, 3, 4])
    def test_every_invalid_sequence_violates_some_grounding(self, n_categories):
        # Every tag sequence of length 1 to 3: the product of the start,
        # pair and end truths is 1 exactly on the valid ones, and 0 else.
        scheme = scheme_of(n_categories)
        rules = transition_rules(scheme)
        for n in (1, 2, 3):
            for tags in itertools.product(scheme.tags, repeat=n):
                truth = np.prod(self.truths(rules, tags, scheme))
                assert truth == float(ref_valid_sequence(scheme, tags)), tags


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
        dist[SCHEME.tags.index("B-LOC")] = 0.25
        dist[SCHEME.tags.index("S-LOC")] = 0.25
        dist[SCHEME.tags.index("E-ORG")] = 0.3
        dist[SCHEME.tags.index("O")] = 0.2
        np.testing.assert_allclose(self.COLLAPSE.collapse(dist), [0.5, 0.3, 0.2])

    def test_truth_same_vs_different_category(self):
        onehot = np.zeros(SCHEME.n_tags)
        onehot[SCHEME.tags.index("S-LOC")] = 1.0
        loc, org, o = list_rule_truth(self.COLLAPSE, onehot)
        # Same category at category granularity: zero distance, full truth.
        assert loc == 1.0
        # Different category: distance sqrt(2), floored to 0.
        assert org == 0.0
        assert o == 0.0

    def test_truth_soft_counterpart(self):
        sigma = np.zeros(SCHEME.n_tags)
        sigma[SCHEME.tags.index("S-LOC")] = 0.5
        sigma[SCHEME.tags.index("S-ORG")] = 0.5
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

    def test_rule_carries_its_collapse_and_must_be_soft(self):
        rule = list_counterpart_rule(self.COLLAPSE, confidence=0.5)
        assert rule == ListRule("list-counterpart", 0.5, self.COLLAPSE)
        with pytest.raises(ValueError, match="'list-counterpart'.*finite confidence"):
            list_counterpart_rule(self.COLLAPSE, confidence=math.inf)


class TestPenalty:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Rule("bad", -1.0)
