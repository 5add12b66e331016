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
        "summary.txt": "bcef0d8bc62dfca0a89af5ae0d25086b82132b67d7be20be255d3a95af8ee0ba",
        "train_log_seed0.txt": "ceabfc0c50822f63974c9a62ee224656021de2aa080530c5684512465af5fd83",
        "train_log_seed1.txt": "08492798cfdf40f4c15ad4828b5b3c228d15782ac16cf60e9b9868848bcb3f30",
    },
    ("ner", "semi"): {
        "summary.txt": "44e23e99f0b8af0534fda8922415aec6168efce654aeccd1d50c43c4a6aef763",
        "train_log_seed0.txt": "b6463f5dfa0236952f67eddb29af5bb7d008a0ced6f218eda38378541796996b",
        "train_log_seed1.txt": "a53e117cc9fcc58cad5158e80c659ebc5724a2e04a3a2b9bd444d5a0dce75b5d",
    },
    ("ner", "pipeline"): {
        "summary.txt": "9073a545d2aba65757879104080c12643a09d8be3667b8b518326f727e2fd053",
        "train_log_seed0.txt": "59c1434b1aa68ecac2d1fd32cf7ca36059c107789cde424c048351b974361978",
        "train_log_seed1.txt": "8c8739730b059e809cce3613948e3a742c35e7ac1bf23c7abbf77a564dc33b99",
    },
    ("ner", "project-after"): {
        "summary.txt": "1884588e790e7b519c70efbe69e2a57b65e96dfa8df7c121f9dbb2ff2334b244",
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
        "--unlabeled", str(corpora / f"{prefix}_unlab.{ext}"),
        "--rules", RULES[task],
        "--epochs", "3", "--seeds", "0,1", "--out", str(tmp_path),
    ]
    if task == "sentiment":
        # Early stopping restores the best-dev weights.  NER dev F1 stays
        # at 0 over three epochs, which would restore the epoch-0 weights
        # and leave the scores blind to training, so only sentiment has one.
        argv += ["--dev", str(corpora / "sent_test.tsv")]
    else:
        argv += ["--train-sweeps", "20", "--eval-sweeps", "50"]
    assert main(argv) == 0
    assert _digests(tmp_path) == GOLDEN[task, mode]
