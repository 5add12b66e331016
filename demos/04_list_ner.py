"""Transition and list-counterpart rules on the tagging task.

Runs the list detector over a generated document, then trains a tagger
with and without distillation.  The teacher chains hard BIOES transition
rules (invalid tag bigrams get zero mass) with soft counterpart links
that pull items of one list toward a shared entity category.
"""

import numpy as np

from ruledistill import (
    CategoryCollapse,
    NerTaskSpec,
    TagScheme,
    TrainConfig,
    detect_lists,
    evaluate,
    gen_synthetic_ner,
    group_documents,
    list_counterpart_rule,
    train_distill,
    transition_rules,
)
from ruledistill.trainer import ImitationSchedule


def main():
    train = gen_synthetic_ner(seed=100, n_docs=120,
                              spec=NerTaskSpec(entity_label_noise=0.3))
    test = gen_synthetic_ner(seed=200, n_docs=60)
    docs = group_documents(test)
    print(f"train={len(train)} sentences / 120 docs (30% entity label "
          f"noise), test={len(test)} sentences / {len(docs)} docs clean\n")

    for doc in docs:
        groups = detect_lists(doc, doc_id=doc[0].doc_id)
        if groups:
            g = groups[0]
            print(f"Detected {g.kind} list in doc {doc[0].doc_id}:")
            for it in g.items:
                toks = doc[it.sent_index].tokens[it.start:it.end]
                print(f"  sentence {it.sent_index} span {it.start}-{it.end}: "
                      f"{' '.join(toks)}")
            break
    print()

    scheme = TagScheme(("LOC", "ORG", "PER"))
    rules = tuple(transition_rules(scheme)) + (
        list_counterpart_rule(CategoryCollapse(scheme), confidence=1.0),
    )

    base_cfg = TrainConfig(task="ner", mode="base", seed=0, epochs=40,
                           patience=99, train_sweeps=100, eval_sweeps=1000)
    rb = train_distill(base_cfg, train, rules=(), dev=None)
    base = evaluate(rb.student, test, task="ner", vocab=rb.vocab,
                    scheme=rb.scheme)

    cfg = TrainConfig(task="ner", mode="distill", seed=0, epochs=40,
                      patience=99, train_sweeps=100, eval_sweeps=1000,
                      schedule=ImitationSchedule(pi0=0.4, alpha=0.9))
    rd = train_distill(cfg, train, rules=rules, dev=None)
    p_rep = evaluate(rd.student, test, task="ner", vocab=rd.vocab,
                     scheme=rd.scheme)
    q_rep = evaluate(rd.teacher, test, task="ner")

    print(f"base F1      {base.f1:.4f}  valid-sequence rate "
          f"{base.validity_rate:.3f}")
    print(f"student p F1 {p_rep.f1:.4f}  valid-sequence rate "
          f"{p_rep.validity_rate:.3f}")
    print(f"teacher q F1 {q_rep.f1:.4f}  valid-sequence rate "
          f"{q_rep.validity_rate:.3f}")

    # Show one sentence where the teacher's decode beats the raw argmax.
    for doc, decoded in zip(docs, rd.teacher.predict_tags(docs)):
        batch = rd.vocab.encode([s.tokens for s in doc])
        p_index = rd.student.forward(batch).argmax(axis=1)
        for sent, q_tags, start in zip(doc, decoded, batch.starts):
            p_tags = [rd.scheme.tags[k] for k in p_index[start:start + len(sent.tokens)]]
            if p_tags != list(sent.tags) and q_tags == list(sent.tags):
                print("\n" + " ".join(sent.tokens))
                print(f"  gold    {' '.join(sent.tags)}")
                print(f"  student {' '.join(p_tags)}")
                print(f"  teacher {' '.join(q_tags)}  (rules repair the decode)")
                return


if __name__ == "__main__":
    main()
