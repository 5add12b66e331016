"""Distilling the but-rule into a sentiment classifier.

Trains a small convolutional classifier twice on the same noisy corpus:
once on labels alone, once inside the imitation loop where each batch is
also pulled toward the rule-projected teacher.  Prints the imitation
schedule as it ramps, the three final accuracies, and one contrastive
sentence where the teacher overturns the student.
"""

import numpy as np

from ruledistill import (
    SentimentTaskSpec,
    TrainConfig,
    but_rule,
    detect_but,
    evaluate,
    gen_synthetic_sentiment,
    train_distill,
)
from ruledistill.trainer import prepare


def main():
    train = gen_synthetic_sentiment(
        seed=7, n=800, spec=SentimentTaskSpec(plain_label_noise=0.15)
    )
    test = gen_synthetic_sentiment(seed=8, n=400)
    rules = (but_rule(confidence=1.0, variant="avg"),)
    print(f"train={len(train)} sentences (15% label noise on plain ones), "
          f"test={len(test)} clean\n")

    base_cfg = TrainConfig(task="sentiment", mode="base", seed=0,
                           epochs=20, patience=99)
    rb = train_distill(base_cfg, train, rules=(), dev=None)
    base = evaluate(rb.student, test, task="sentiment", vocab=rb.vocab)

    cfg = TrainConfig(task="sentiment", mode="distill", seed=0,
                      epochs=20, patience=99)
    rd = train_distill(cfg, train, rules=rules, dev=None)

    print("epoch   pi      loss")
    for row in list(rd.history[::4]) + [rd.history[-1]]:
        print(f"  {row['epoch']:3d}  {row['pi']:.3f}  {row['train_loss']:.4f}")

    p_rep = evaluate(rd.student, test, task="sentiment", vocab=rd.vocab)
    q_rep = evaluate(rd.teacher, test, task="sentiment")
    print(f"\nbase accuracy     {base.accuracy:.4f}   (labels only)")
    print(f"student p         {p_rep.accuracy:.4f}   (distilled)")
    print(f"teacher q         {q_rep.accuracy:.4f}   (p projected on rules)")

    # Show one A-but-B sentence where the projection changes the call.
    for ex in test:
        if detect_but(ex.tokens) is None:
            continue
        (p,) = rd.student.forward(rd.vocab.encode([ex.tokens]))
        (q,) = rd.teacher.soft_predict_set(prepare([ex], rd.vocab))
        if p.argmax() != q.argmax() and q.argmax() == ex.label:
            print("\n" + " ".join(ex.tokens))
            print(f"  gold={ex.label}  p={np.round(p, 3)} -> "
                  f"q={np.round(q, 3)}  (teacher corrects the student)")
            break


if __name__ == "__main__":
    main()
