"""Golden digests of `ruledistill train` artifacts.

Every mode of both tasks runs in-process on small generated corpora, and
the SHA-256 of `summary.txt` and of each per-seed training log must match
the digests below.  A refactor of the training path must leave them
unchanged.  They depend on numpy's arithmetic, so a change that moves the
numerics on purpose updates them and says so.
"""

import hashlib

import pytest

from ruledistill.cli import main
from ruledistill.corpus import (
    gen_synthetic_ner,
    gen_synthetic_sentiment,
    write_classification,
    write_conll,
)

MODES = ("base", "distill", "semi", "pipeline", "project-after")

RULES = {
    "sentiment": "but(lambda=1,variant=avg)",
    "ner": "transitions(), list-counterpart(lambda=1)",
}

GOLDEN = {
    ("sentiment", "base"): {
        "summary.txt": "dbf1968850a95ea94f7bbc08e7c38adb47dadfb74c2ae423b3303277754fca45",
        "train_log_seed0.txt": "21c24143f3dc05b88934d59bf9bc95e7f019a79ed3b2c83e2d50f391dc3ad41d",
        "train_log_seed1.txt": "07ef64b4eecc798c792e1187db0ac6091cb7f8889956e29cd180daa644ecb7f1",
    },
    ("sentiment", "distill"): {
        "summary.txt": "9abac110fca5d9f65dc1c446c07a6c8627ee122e00e7e398617c664e21f734d5",
        "train_log_seed0.txt": "1097d7bd99ad755bdc3d7d798039ec7097e2c3e01a4449db490c9991a42c8c65",
        "train_log_seed1.txt": "ba46eedbf077660d6967338270106b5fb6ad70504ac25e1392631f1fd62432e6",
    },
    ("sentiment", "semi"): {
        "summary.txt": "d209a607cdb68297e5d44b8445ecd4245e70cb71dc7b59f44674fca4f2a11d85",
        "train_log_seed0.txt": "c132aa95bf9120f275a9b08f9d2b6492101c3b0e2b9841626d5be5a61985189f",
        "train_log_seed1.txt": "ac7095ce51f8f3270a4bca32ae4dd1b1ec3957c9f1e8d58f69d4608aaffec599",
    },
    ("sentiment", "pipeline"): {
        "summary.txt": "a6b4ab4595b2c9030f04c11c3ed6a5e6216ed4d3bc6dbbad5ff32c9397b00ac6",
        "train_log_seed0.txt": "9e47376f862626ce580f94e76e98aa30137e6a8198e41b9ede427f9ed1632c26",
        "train_log_seed1.txt": "83716e2c90121d9b67bdcd919764f328efcad0935a7248202ee46750cbda8f04",
    },
    ("sentiment", "project-after"): {
        "summary.txt": "5c374b35f596abd9eb9b520ba34133c74995d2b80016b83411ef57c154898039",
        "train_log_seed0.txt": "21c24143f3dc05b88934d59bf9bc95e7f019a79ed3b2c83e2d50f391dc3ad41d",
        "train_log_seed1.txt": "07ef64b4eecc798c792e1187db0ac6091cb7f8889956e29cd180daa644ecb7f1",
    },
    ("ner", "base"): {
        "summary.txt": "f54ea230f43e0dbf51d30faef96fc9302aa4cc2875a66cea9cbe0b2ca4aef2b5",
        "train_log_seed0.txt": "138b1367f0d2fff597f164c4c3c1d2658c97723406fd9afb41db64d0e4802765",
        "train_log_seed1.txt": "aae6eec06297140a3f965c18d1094871fc28115cf5116f80a98094591b7b71e3",
    },
    ("ner", "distill"): {
        "summary.txt": "3e04539ba49ecb4c0eada2eea919d4c08b959106b83b9f5777fbc5bde1040cd7",
        "train_log_seed0.txt": "7f2fa91f79d1d15ba1c262b567f765f0cc795dd4308c7539c2d46f8f58ed20be",
        "train_log_seed1.txt": "978b31e997e94d3ef65dfe5f99d977fcc868612548922103567cf99bf3166724",
    },
    ("ner", "semi"): {
        "summary.txt": "ddceee9eab360804f541f8b6fcf7e88e06382a20cf6ec44c3a250c2c2fb7181f",
        "train_log_seed0.txt": "c3f249eecc487ca51be72a7f6c10f07f7b4a0138c8ed22299f379f01140eeb0b",
        "train_log_seed1.txt": "2b1667706b9e2ba0065bbb1cf75a1bc6bc98f2cbc9f58927d0b44677af93845c",
    },
    ("ner", "pipeline"): {
        "summary.txt": "40af2ae0d6e868a6e9970aebad0209311344d12150e646d26ab8189a48d35946",
        "train_log_seed0.txt": "a5fde498bfdcf27a783298f11d5e4b914ad068e7913f036a104445566423a614",
        "train_log_seed1.txt": "c986126f3fa489114d59413507123c2687c52cee87a60a15dd26862c70222d81",
    },
    ("ner", "project-after"): {
        "summary.txt": "be021141f76239195c75b20e28ffb1e9044082b3cd72932e7a59aaf7fc62ef65",
        "train_log_seed0.txt": "138b1367f0d2fff597f164c4c3c1d2658c97723406fd9afb41db64d0e4802765",
        "train_log_seed1.txt": "aae6eec06297140a3f965c18d1094871fc28115cf5116f80a98094591b7b71e3",
    },
}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_classification(d / "sent_train.tsv", gen_synthetic_sentiment(seed=31, n=200))
    write_classification(d / "sent_test.tsv", gen_synthetic_sentiment(seed=32, n=100))
    write_classification(d / "sent_unlab.tsv", gen_synthetic_sentiment(seed=33, n=200))
    write_conll(d / "ner_train.conll", gen_synthetic_ner(seed=31, n_docs=20))
    write_conll(d / "ner_test.conll", gen_synthetic_ner(seed=32, n_docs=10))
    write_conll(d / "ner_unlab.conll", gen_synthetic_ner(seed=33, n_docs=10))
    return d


def _digests(out):
    names = ["summary.txt"] + sorted(p.name for p in out.glob("train_log_seed*.txt"))
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("task", ("sentiment", "ner"))
def test_train_artifacts_match_golden_digests(task, mode, corpora, tmp_path):
    ext = "tsv" if task == "sentiment" else "conll"
    prefix = "sent" if task == "sentiment" else "ner"
    argv = [
        "train", "--task", task, "--mode", mode,
        "--train", str(corpora / f"{prefix}_train.{ext}"),
        "--test", str(corpora / f"{prefix}_test.{ext}"),
        "--epochs", "3", "--seeds", "0,1", "--out", str(tmp_path),
    ]
    if mode != "base":
        # Base mode trains without rules and rejects them.
        argv += ["--rules", RULES[task]]
    if mode == "semi":
        # Every other mode rejects an unlabeled set.
        argv += ["--unlabeled", str(corpora / f"{prefix}_unlab.{ext}")]
    if task == "sentiment":
        # Early stopping restores the best-dev weights.  NER dev F1 stays
        # at 0 over three epochs, which would restore the epoch-0 weights
        # and leave the scores blind to training, so only sentiment has one.
        argv += ["--dev", str(corpora / "sent_test.tsv")]
    else:
        argv += ["--train-sweeps", "20", "--eval-sweeps", "50"]
    assert main(argv) == 0
    assert _digests(tmp_path) == GOLDEN[task, mode]
