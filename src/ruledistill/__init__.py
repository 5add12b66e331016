"""Distilling first-order logic rules into small probabilistic predictors.

A rule-aware teacher is constructed by projecting a student's predictive
distribution onto the subspace that honors weighted logic rules; the
student then imitates the teacher on unlabeled or labeled data, so the
rule knowledge survives even when the rules are switched off at test time.

Layers, bottom up:

- ``softlogic``: Lukasiewicz truth values and operators.
- ``rulelib``: concrete rules (contrastive "but", BIOES transitions, list
  counterparts) plus tag-scheme helpers.
- ``projection``: the closed-form teacher projection with an optimality
  verifier.
- ``inference``: exact and Gibbs posterior computation for chain- and
  group-coupled teachers.
- ``predictors``: numpy conv classifier and window tagger with manual
  gradients and checkpointing.
- ``trainer``: one training loop over a per-task driver (base / distill /
  semi / pipeline), one teacher per task for both training targets and
  evaluation, and post-hoc projection.
- ``corpus``: file formats, synthetic task generators, list detection.
- ``cli``: the ``ruledistill`` command.
"""

from .softlogic import (
    TruthValue,
    neg,
    strong_conj,
    disj,
    avg_conj,
    implies,
)
from .rulelib import (
    Rule,
    Grounding,
    TagScheme,
    CategoryCollapse,
    but_rule,
    but_rule_truth,
    detect_but,
    transition_rules,
    list_counterpart_rule,
)
from .projection import (
    ProjectionProblem,
    TeacherPosterior,
    OptimalityReport,
    project,
    verify_optimality,
    random_projection_sweep,
)
from .inference import (
    ChainTeacherQuery,
    chain_marginals,
    chain_map_decode,
    enumerate_chain_posterior,
    GroupTeacherQuery,
    gibbs_soft_predict,
    form_groups,
    enumerate_group_posterior,
)
from .predictors import (
    Vocabulary,
    TextClassifier,
    SequenceTagger,
    save_checkpoint,
    load_checkpoint,
)
from .trainer import (
    TrainConfig,
    ImitationSchedule,
    EvalReport,
    TrainResult,
    train_distill,
    train_semi,
    pipeline_distill,
    project_after,
    evaluate,
    aggregate_reports,
)
from .corpus import (
    CorpusFormatError,
    LabeledSentence,
    TaggedSentence,
    load_classification,
    write_classification,
    load_conll,
    write_conll,
    group_documents,
    detect_lists,
    ListGroup,
    ListItem,
    SentimentTaskSpec,
    NerTaskSpec,
    gen_synthetic_sentiment,
    gen_synthetic_ner,
)

__version__ = "0.1.0"

__all__ = [
    "TruthValue",
    "neg",
    "strong_conj",
    "disj",
    "avg_conj",
    "implies",
    "Rule",
    "Grounding",
    "TagScheme",
    "CategoryCollapse",
    "but_rule",
    "but_rule_truth",
    "detect_but",
    "transition_rules",
    "list_counterpart_rule",
    "ProjectionProblem",
    "TeacherPosterior",
    "OptimalityReport",
    "project",
    "verify_optimality",
    "random_projection_sweep",
    "ChainTeacherQuery",
    "chain_marginals",
    "chain_map_decode",
    "enumerate_chain_posterior",
    "GroupTeacherQuery",
    "gibbs_soft_predict",
    "form_groups",
    "enumerate_group_posterior",
    "Vocabulary",
    "TextClassifier",
    "SequenceTagger",
    "save_checkpoint",
    "load_checkpoint",
    "TrainConfig",
    "ImitationSchedule",
    "EvalReport",
    "TrainResult",
    "train_distill",
    "train_semi",
    "pipeline_distill",
    "project_after",
    "evaluate",
    "aggregate_reports",
    "CorpusFormatError",
    "LabeledSentence",
    "TaggedSentence",
    "load_classification",
    "write_classification",
    "load_conll",
    "write_conll",
    "group_documents",
    "detect_lists",
    "ListGroup",
    "ListItem",
    "SentimentTaskSpec",
    "NerTaskSpec",
    "gen_synthetic_sentiment",
    "gen_synthetic_ner",
]
