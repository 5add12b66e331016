"""Command-line behavior: config precedence, artifacts, exit codes."""

import os
import re

import pytest

from conftest import CHECKPOINT_CORRUPTIONS, corrupt_checkpoint

from ruledistill.cli import (
    CliError,
    main,
    parse_config_file,
    parse_rule_specs,
    resolve_config,
)
from ruledistill.corpus import load_classification
from ruledistill.rulelib import TagScheme
from ruledistill.trainer import TrainConfig, train_distill


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    assert run(["gen-sentiment", "--seed", "7", "--n", "80",
                "--out", str(d / "train.tsv")]) == 0
    assert run(["gen-sentiment", "--seed", "8", "--n", "40",
                "--out", str(d / "test.tsv")]) == 0
    assert run(["gen-ner", "--seed", "7", "--n-docs", "8",
                "--out", str(d / "ner_train.conll")]) == 0
    assert run(["gen-ner", "--seed", "8", "--n-docs", "6",
                "--out", str(d / "ner_test.conll")]) == 0
    return d


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment\nepochs = 5\nrules = but(lambda=1)  # trailing\n\n"
        )
        assert parse_config_file(path) == {
            "epochs": "5",
            "rules": "but(lambda=1)",
        }

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError):
            parse_config_file(tmp_path / "absent.cfg")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs 5\n")
        with pytest.raises(CliError) as info:
            parse_config_file(path)
        assert "key = value" in str(info.value)

    def test_precedence_matrix(self, tmp_path):
        """Every cell of the defaults/file/flags precedence matrix."""
        import argparse

        schema = {
            "epochs": (int, 20),
            "c": (float, 6.0),
            "seeds": ("int_list", (0,)),
            "task": (str, "sentiment"),
        }
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("epochs = 7\nc = 2.5\nseeds = 1,2\n")

        def ns(**kw):
            base = {k.replace("-", "_"): None for k in schema}
            base["config"] = None
            base.update(kw)
            return argparse.Namespace(**base)

        # defaults only
        got, given = resolve_config(schema, ns())
        assert (got["epochs"], got["c"], got["seeds"]) == (20, 6.0, (0,))
        assert given == set()
        # file overrides defaults
        got, given = resolve_config(schema, ns(config=str(cfg_path)))
        assert (got["epochs"], got["c"], got["seeds"]) == (7, 2.5, (1, 2))
        assert got["task"] == "sentiment"  # untouched default survives
        assert given == {"epochs", "c", "seeds"}
        # flag overrides file
        got, given = resolve_config(schema, ns(config=str(cfg_path), epochs=9, task="ner"))
        assert got["epochs"] == 9 and got["c"] == 2.5
        assert given == {"epochs", "c", "seeds", "task"}
        # flag overrides default without a file
        got, given = resolve_config(schema, ns(c=1.5))
        assert got["c"] == 1.5 and got["epochs"] == 20
        assert given == {"c"}

    def test_unknown_key_rejected(self, tmp_path):
        import argparse

        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("bogus = 1\n")
        with pytest.raises(CliError):
            resolve_config(
                {"epochs": (int, 20)},
                argparse.Namespace(config=str(cfg_path), epochs=None),
            )

    def test_bad_value_type(self, tmp_path):
        import argparse

        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text("epochs = soon\n")
        with pytest.raises(CliError):
            resolve_config(
                {"epochs": (int, 20)},
                argparse.Namespace(config=str(cfg_path), epochs=None),
            )


class TestRuleSpecs:
    def test_but(self):
        (rule,) = parse_rule_specs("but(lambda=2, variant=strong)")
        assert rule.name == "but-strong" and rule.confidence == 2.0

    def test_lambda_inf(self):
        (rule,) = parse_rule_specs("but(lambda=inf)")
        assert rule.hard

    def test_tagging_rules(self):
        scheme = TagScheme(("LOC", "ORG"))
        rules = parse_rule_specs(
            "transitions(), list-counterpart(lambda=1)", scheme
        )
        assert [r.name for r in rules] == [
            "bioes-entity-opens",
            "bioes-entity-closes",
            "list-counterpart",
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "unknown()",
            "but(lambda=0)",
            "but(lambda=nan)",
            "but(variant=bogus)",
            "but(extra=1)",
            "but(lambda=1",
            "transitions()",  # no scheme supplied
            "but(lambda=1, lambda=5)",
        ],
    )
    def test_errors(self, text):
        with pytest.raises(CliError):
            parse_rule_specs(text)

    def test_but_needs_a_classification_task(self):
        # The tagging teacher reads no per-instance rule.
        with pytest.raises(CliError, match="classification"):
            parse_rule_specs("transitions(), but(lambda=1)", TagScheme(("LOC",)))

    @pytest.mark.parametrize("text, match", [
        ("but(variant=bogus)", "variant 'bogus'"),
        ("list-counterpart(lambda=inf)", "'list-counterpart'.*finite"),
    ])
    def test_rule_constructor_errors_are_cli_errors(self, text, match):
        # The rules check their own arguments; the parser reports them.
        scheme = None if text.startswith("but") else TagScheme(("LOC",))
        with pytest.raises(CliError, match=match):
            parse_rule_specs(text, scheme)

    def test_nan_lambda_of_a_tagging_rule(self):
        with pytest.raises(CliError, match="lambda must be positive"):
            parse_rule_specs("list-counterpart(lambda=nan)", TagScheme(("LOC",)))


class TestTrainCommand:
    def test_distill_artifacts_and_keys(self, data_dir, tmp_path):
        out = tmp_path / "run"
        code = run([
            "train", "--task", "sentiment", "--mode", "distill",
            "--train", str(data_dir / "train.tsv"),
            "--test", str(data_dir / "test.tsv"),
            "--rules", "but(lambda=1,variant=avg)",
            "--out", str(out), "--seeds", "0,1", "--epochs", "2",
        ])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        keys = dict(
            line.split("=", 1) for line in summary.strip().splitlines()
        )
        assert "p_accuracy" in keys and "q_accuracy" in keys
        assert "p_accuracy_std" in keys
        assert "p_accuracy_seed0" in keys and "q_accuracy_seed1" in keys
        assert (out / "model_seed0.npz").exists()
        assert (out / "model_seed1.npz").exists()
        assert (out / "train_log_seed0.txt").exists()
        # Timestamps live in the run log, never in the summary.
        assert (out / "run_log.txt").exists()
        assert "[" not in summary

    def test_run_log_records_diagnostics(self, data_dir, tmp_path):
        # A hard but-rule leaves almost every A-but-B sentence without a
        # label; each seed's count goes to the run log, as the library has it.
        out = tmp_path / "run"
        assert run([
            "train", "--task", "sentiment", "--mode", "distill",
            "--train", str(data_dir / "train.tsv"), "--rules", "but(lambda=inf)",
            "--out", str(out), "--seeds", "0,1", "--epochs", "2",
        ]) == 0
        logged = [line.split("] ", 1)[1] for line in
                  (out / "run_log.txt").read_text().splitlines() if "diagnostics" in line]
        data = load_classification(data_dir / "train.tsv")
        counts = [train_distill(TrainConfig(task="sentiment", epochs=2, seed=seed), data,
                                rules=parse_rule_specs("but(lambda=inf)")
                                ).diagnostics["infeasible_instances"] for seed in (0, 1)]
        assert counts[0] > 0
        assert logged == [f"seed {seed} diagnostics: infeasible_instances={n}"
                          for seed, n in zip((0, 1), counts)]

    def test_rules_in_base_mode_exit_2_before_reading_or_writing(
            self, data_dir, tmp_path, monkeypatch, capsys):
        from ruledistill import cli

        read = []
        monkeypatch.setattr(cli, "_load_task_data", lambda *a: read.append(a))
        out = tmp_path / "run"
        assert run([
            "train", "--task", "sentiment", "--mode", "base",
            "--train", str(data_dir / "train.tsv"), "--rules", "but(lambda=1)",
            "--out", str(out),
        ]) == 2
        assert "mode 'base'" in capsys.readouterr().err
        assert not read and not out.exists()

    def test_base_mode_has_no_teacher_keys(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert run([
            "train", "--task", "sentiment", "--mode", "base",
            "--train", str(data_dir / "train.tsv"),
            "--test", str(data_dir / "test.tsv"),
            "--out", str(out), "--seeds", "0", "--epochs", "2",
        ]) == 0
        summary = (out / "summary.txt").read_text()
        assert "p_accuracy=" in summary
        assert "q_" not in summary

    def test_summary_byte_identical_across_reruns(self, data_dir, tmp_path):
        out = tmp_path / "run"
        argv = [
            "train", "--task", "sentiment", "--mode", "base",
            "--train", str(data_dir / "train.tsv"),
            "--test", str(data_dir / "test.tsv"),
            "--out", str(out), "--seeds", "0", "--epochs", "2",
        ]
        assert run(argv) == 0
        first = (out / "summary.txt").read_bytes()
        first_log = (out / "train_log_seed0.txt").read_bytes()
        assert run(argv) == 0
        assert (out / "summary.txt").read_bytes() == first
        assert (out / "train_log_seed0.txt").read_bytes() == first_log

    def test_missing_train_path_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.tsv")
        code = run([
            "train", "--task", "sentiment", "--mode", "base",
            "--train", missing, "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["train", "dev", "test", "unlabeled"])
    def test_empty_data_file_exit_2_before_writing(self, data_dir, tmp_path, capsys, key):
        paths = {"train": data_dir / "train.tsv", "dev": data_dir / "test.tsv",
                 "test": data_dir / "test.tsv", "unlabeled": data_dir / "test.tsv"}
        paths[key] = tmp_path / "empty.tsv"
        paths[key].write_text("")
        out = tmp_path / "run"
        argv = ["train", "--task", "sentiment", "--mode", "semi", "--rules", "but(lambda=1)",
                "--epochs", "1", "--out", str(out)]
        for k, path in paths.items():
            argv += [f"--{k}", str(path)]
        assert run(argv) == 2
        assert f"{key} file {paths[key]} has no sentences" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_c_exit_2(self, data_dir, tmp_path):
        assert run([
            "train", "--task", "sentiment", "--mode", "distill",
            "--train", str(data_dir / "train.tsv"),
            "--rules", "but(lambda=1)", "--c", "nan",
            "--out", str(tmp_path / "run"),
        ]) == 2

    def test_distill_without_rules_exit_2(self, data_dir, tmp_path):
        assert run([
            "train", "--task", "sentiment", "--mode", "distill",
            "--train", str(data_dir / "train.tsv"),
            "--out", str(tmp_path / "run"),
        ]) == 2

    @pytest.mark.parametrize("flag, value", [("--pi0", "2"), ("--alpha", "0")])
    def test_bad_schedule_exit_2_before_writing(self, data_dir, tmp_path, flag, value):
        out = tmp_path / "run"
        assert run([
            "train", "--task", "sentiment", "--mode", "distill",
            "--train", str(data_dir / "train.tsv"),
            "--rules", "but(lambda=1)", flag, value, "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_negative_seed_exit_2_before_writing(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert run([
            "train", "--task", "sentiment", "--mode", "base",
            "--train", str(data_dir / "train.tsv"), "--seeds=-1", "--out", str(out),
        ]) == 2
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_unlabeled_outside_semi_exit_2_before_reading_or_writing(
            self, data_dir, tmp_path, monkeypatch, capsys):
        from ruledistill import cli

        read = []
        monkeypatch.setattr(cli, "_load_task_data", lambda *a: read.append(a))
        out = tmp_path / "run"
        assert run([
            "train", "--task", "sentiment", "--mode", "distill",
            "--train", str(data_dir / "train.tsv"), "--unlabeled", str(data_dir / "train.tsv"),
            "--rules", "but(lambda=1)", "--out", str(out),
        ]) == 2
        assert "--unlabeled applies only to mode 'semi'" in capsys.readouterr().err
        assert not read and not out.exists()

    def test_but_rule_on_tagging_exit_2_before_writing(self, data_dir, tmp_path):
        out = tmp_path / "run"
        assert run([
            "train", "--task", "ner", "--mode", "distill",
            "--train", str(data_dir / "ner_train.conll"),
            "--rules", "but(lambda=1)", "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_hard_list_rule_exit_2_before_writing(self, data_dir, tmp_path, capsys):
        # The list rule rejects an infinite lambda itself, by name.
        out = tmp_path / "run"
        assert run([
            "train", "--task", "ner", "--mode", "distill",
            "--train", str(data_dir / "ner_train.conll"),
            "--rules", "transitions(), list-counterpart(lambda=inf)", "--out", str(out),
        ]) == 2
        assert "'list-counterpart'" in capsys.readouterr().err
        assert not out.exists()

    def test_two_class_rule_on_three_classes_exit_2(self, data_dir, tmp_path, capsys):
        train = tmp_path / "three.tsv"
        texts = [ln.split("\t", 1)[1] for ln in (data_dir / "train.tsv").read_text().splitlines()]
        train.write_text("".join(f"{i % 3}\t{text}\n" for i, text in enumerate(texts)))
        out = tmp_path / "run"
        assert run([
            "train", "--task", "sentiment", "--mode", "distill", "--train", str(train),
            "--rules", "but(lambda=1)", "--epochs", "2", "--out", str(out),
        ]) == 2
        assert "'but-avg'" in capsys.readouterr().err
        assert not list(out.glob("model_seed*"))

    def test_duplicate_seeds_exit_2_before_reading_or_writing(self, data_dir, tmp_path,
                                                               monkeypatch, capsys):
        from ruledistill import cli

        read = []
        monkeypatch.setattr(cli, "_load_task_data", lambda *a: read.append(a))
        out = tmp_path / "run"
        assert run([
            "train", "--task", "sentiment", "--mode", "base",
            "--train", str(data_dir / "train.tsv"),
            "--seeds", "0,1,0", "--out", str(out),
        ]) == 2
        assert "repeats a seed" in capsys.readouterr().err
        assert not read and not out.exists()

    def test_repeated_conv_windows_exit_2_before_reading_or_writing(
            self, data_dir, tmp_path, monkeypatch, capsys):
        from ruledistill import cli

        read = []
        monkeypatch.setattr(cli, "_load_task_data", lambda *a: read.append(a))
        out = tmp_path / "run"
        assert run([
            "train", "--task", "sentiment", "--mode", "base",
            "--train", str(data_dir / "train.tsv"), "--conv-windows", "2,2",
            "--out", str(out),
        ]) == 2
        assert "conv_windows must be distinct widths; [2] repeat" in capsys.readouterr().err
        assert not read and not out.exists()

    def test_semi_scheme_comes_from_the_labeled_set(self, tmp_path):
        # Unlabeled tags are never targets: a category only they use
        # leaves the scheme, and so the list rule's categories, unchanged.
        train, unlab = tmp_path / "train.conll", tmp_path / "unlab.conll"
        assert run(["gen-ner", "--seed", "7", "--n-docs", "6", "--out", str(train)]) == 0
        assert run(["gen-ner", "--seed", "8", "--n-docs", "4", "--out", str(unlab)]) == 0
        sentences = unlab.read_text().split("\n\n")
        first = next(i for i, s in enumerate(sentences) if "-LOC" in s)
        sentences[first] = sentences[first].replace("-LOC", "-MISC")
        unlab.write_text("\n\n".join(sentences))
        out = tmp_path / "run"
        assert run([
            "train", "--task", "ner", "--mode", "semi", "--train", str(train),
            "--unlabeled", str(unlab), "--rules", "transitions(), list-counterpart(lambda=1)",
            "--epochs", "1", "--train-sweeps", "5", "--eval-sweeps", "5", "--seeds", "0",
            "--out", str(out),
        ]) == 0
        assert (out / "model_seed0.npz").exists()

    def test_config_file_drives_training(self, data_dir, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "train.cfg"
        cfg.write_text(
            "task = sentiment\nmode = base\n"
            f"train = {data_dir / 'train.tsv'}\n"
            f"out = {out}\nepochs = 2\nseeds = 3\n"
        )
        assert run(["train", "--config", str(cfg)]) == 0
        assert (out / "model_seed3.npz").exists()


@pytest.fixture(scope="module")
def sent_ckpt(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("sentrun")
    assert run([
        "train", "--task", "sentiment", "--mode", "distill",
        "--train", str(data_dir / "train.tsv"),
        "--rules", "but(lambda=1)",
        "--out", str(out), "--seeds", "0", "--epochs", "2",
    ]) == 0
    return out / "model_seed0.npz"


@pytest.fixture(scope="module")
def ner_ckpt(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("nerrun")
    assert run([
        "train", "--task", "ner", "--mode", "base",
        "--train", str(data_dir / "ner_train.conll"),
        "--out", str(out), "--seeds", "0", "--epochs", "2",
        "--train-sweeps", "20", "--eval-sweeps", "50",
    ]) == 0
    return out / "model_seed0.npz"


class TestEvalCommand:
    def test_student_eval_repeatable(self, data_dir, sent_ckpt, capsys):
        argv = ["eval", "--checkpoint", str(sent_ckpt),
                "--test", str(data_dir / "test.tsv")]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert "p_accuracy=" in first

    def test_teacher_without_rules_matches_student(self, data_dir, sent_ckpt,
                                                   capsys):
        argv = ["eval", "--checkpoint", str(sent_ckpt),
                "--test", str(data_dir / "test.tsv")]
        assert run(argv) == 0
        p_line = [
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("p_accuracy=")
        ][0]
        assert run(argv + ["--use-teacher"]) == 0
        q_line = [
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("q_accuracy=")
        ][0]
        assert p_line.split("=")[1] == q_line.split("=")[1]

    def test_ner_teacher_with_transitions_fully_valid(self, data_dir, ner_ckpt,
                                                      capsys):
        assert run([
            "eval", "--checkpoint", str(ner_ckpt),
            "--test", str(data_dir / "ner_test.conll"),
            "--use-teacher", "--rules", "transitions()",
            "--eval-sweeps", "50",
        ]) == 0
        out = capsys.readouterr().out
        assert "q_validity_rate=1.000000" in out

    @pytest.mark.parametrize("flag, value", [
        ("--c", "nan"), ("--eval-sweeps", "0"), ("--g-max", "0"),
    ])
    def test_bad_teacher_setting_exit_2(self, data_dir, sent_ckpt, flag, value):
        assert run([
            "eval", "--checkpoint", str(sent_ckpt),
            "--test", str(data_dir / "test.tsv"),
            "--use-teacher", "--rules", "but()", flag, value,
        ]) == 2

    def test_rules_without_teacher_exit_2_before_printing(self, data_dir, sent_ckpt, capsys):
        # The student is scored without rules, so rules it would ignore
        # are an error, not a no-op.
        assert run([
            "eval", "--checkpoint", str(sent_ckpt),
            "--test", str(data_dir / "test.tsv"), "--rules", "but()",
        ]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--use-teacher" in out.err

    @pytest.mark.parametrize("flag, value", [
        ("--c", "nan"), ("--eval-sweeps", "0"), ("--g-max", "0"), ("--seed", "1"), ("c", "6"),
    ])
    def test_teacher_setting_without_teacher_exit_2_before_printing(
            self, data_dir, sent_ckpt, tmp_path, capsys, flag, value):
        # Teacher settings are an error without the teacher, whether a flag
        # or the config file sets them (a bare key below), even to the
        # default value, as c = 6 is.
        if flag.startswith("--"):
            setting = [flag, value]
        else:
            (tmp_path / "eval.cfg").write_text(f"{flag} = {value}\n")
            setting = ["--config", str(tmp_path / "eval.cfg")]
        assert run([
            "eval", "--checkpoint", str(sent_ckpt),
            "--test", str(data_dir / "test.tsv"), *setting,
        ]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"--{flag.lstrip('-')}" in out.err
        assert "--use-teacher" in out.err

    def test_hard_list_rule_exit_2_before_writing(self, data_dir, ner_ckpt, tmp_path, capsys):
        out_file = tmp_path / "eval.txt"
        assert run([
            "eval", "--checkpoint", str(ner_ckpt),
            "--test", str(data_dir / "ner_test.conll"), "--use-teacher",
            "--rules", "list-counterpart(lambda=inf)", "--out", str(out_file),
        ]) == 2
        assert "'list-counterpart'" in capsys.readouterr().err
        assert not out_file.exists()

    def test_missing_checkpoint_exit_2(self, data_dir, tmp_path):
        assert run([
            "eval", "--checkpoint", str(tmp_path / "no.npz"),
            "--test", str(data_dir / "test.tsv"),
        ]) == 2

    @pytest.mark.parametrize("case", sorted(CHECKPOINT_CORRUPTIONS))
    def test_broken_checkpoint_exit_2(self, data_dir, sent_ckpt, tmp_path, capsys, case):
        broken = tmp_path / "broken.npz"
        broken.write_bytes(sent_ckpt.read_bytes())
        corrupt_checkpoint(broken, case)
        assert run([
            "eval", "--checkpoint", str(broken), "--test", str(data_dir / "test.tsv"),
        ]) == 2
        assert re.search(CHECKPOINT_CORRUPTIONS[case][1], capsys.readouterr().err)

    def test_summary_written(self, data_dir, sent_ckpt, tmp_path):
        out_file = tmp_path / "eval.txt"
        assert run([
            "eval", "--checkpoint", str(sent_ckpt),
            "--test", str(data_dir / "test.tsv"), "--out", str(out_file),
        ]) == 0
        assert "p_accuracy=" in out_file.read_text()


class TestOtherCommands:
    def test_detect_lists_deterministic(self, data_dir, capsys):
        argv = ["detect-lists", "--data", str(data_dir / "ner_train.conll")]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first
        assert "total_groups=" in first

    def test_detect_lists_writes_file(self, data_dir, tmp_path):
        out_file = tmp_path / "lists.txt"
        assert run([
            "detect-lists", "--data", str(data_dir / "ner_train.conll"),
            "--out", str(out_file),
        ]) == 0
        assert "total_groups=" in out_file.read_text()

    def test_generators_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        run(["gen-sentiment", "--seed", "3", "--n", "30", "--out", str(a)])
        run(["gen-sentiment", "--seed", "3", "--n", "30", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gen_requires_out(self):
        assert run(["gen-sentiment", "--seed", "1"]) == 2

    def test_verify_projection_pass(self, capsys):
        assert run(["verify-projection", "--trials", "25", "--seed", "4"]) == 0
        assert "failures=0" in capsys.readouterr().out

    def test_verify_projection_zero_tolerance_fails(self, capsys):
        assert run([
            "verify-projection", "--trials", "5", "--seed", "4",
            "--tolerance", "0",
        ]) == 1
        out = capsys.readouterr().out
        assert "worst case:" in out
        assert "base_log_probs=" in out  # reproducible dump

    def test_verify_projection_zero_trials_vacuous(self):
        assert run(["verify-projection", "--trials", "0"]) == 0

    def test_negative_trials_exit_2(self):
        assert run(["verify-projection", "--trials", "-1"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--k-max", "1"), ("--c", "nan"), ("--c", "-1"), ("--c", "inf"),
        ("--tolerance", "-1"), ("--tolerance", "nan"), ("--tolerance", "inf"),
    ])
    def test_bad_verify_setting_exit_2_before_any_trial(self, monkeypatch, capsys, flag, value):
        from ruledistill import cli

        swept = []
        monkeypatch.setattr(cli, "random_projection_sweep", lambda *a, **k: swept.append(a))
        assert run(["verify-projection", "--trials", "3", flag, value]) == 2
        assert f"{flag} must be" in capsys.readouterr().err
        assert not swept

    @pytest.mark.parametrize("argv, named", [
        (["gen-sentiment", "--but-fraction", "1.5"], "but_fraction"),
        (["gen-sentiment", "--mild-in-plain", "-0.5"], "mild_in_plain"),
        (["gen-sentiment", "--conflict-in-plain", "nan"], "conflict_in_plain"),
        (["gen-sentiment", "--plain-label-noise", "2"], "plain_label_noise"),
        (["gen-ner", "--list-fraction", "-1"], "list_fraction"),
        (["gen-ner", "--ambiguous-in-list", "2"], "ambiguous_in_list"),
        (["gen-ner", "--entity-label-noise", "nan"], "entity_label_noise"),
        (["gen-sentiment", "--n", "-3"], "--n"),
        (["gen-sentiment", "--n", "0"], "--n"),
        (["gen-ner", "--n-docs", "0"], "--n-docs"),
    ])
    def test_bad_generator_setting_exit_2_before_writing(self, tmp_path, capsys, argv, named):
        out = tmp_path / "corpus.txt"
        assert run(argv + ["--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()
