"""Command-line behavior: config precedence, artifacts, exit codes."""

import os
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHECKPOINT_CORRUPTIONS, corrupt_checkpoint

from ruledistill import cli
from ruledistill.cli import (
    CliError,
    build_parser,
    main,
    parse_config_file,
    parse_rule_specs,
    resolve_config,
)
from ruledistill.corpus import NerTaskSpec, SentimentTaskSpec, load_classification
from ruledistill.rulelib import (
    CategoryCollapse,
    TagScheme,
    but_rule,
    list_counterpart_rule,
    transition_rules,
)
from ruledistill.trainer import TrainConfig, train_distill

README = Path(__file__).resolve().parent.parent / "README.md"


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

    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train = a#b.tsv\n  # indented\nout = runs\t# tab\nrules=x#y # z\n")
        assert parse_config_file(path) == {"train": "a#b.tsv", "out": "runs", "rules": "x#y"}

    def test_path_with_hash_drives_training(self, data_dir, tmp_path):
        train = tmp_path / "a#b.tsv"
        train.write_bytes((data_dir / "train.tsv").read_bytes())
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"task = sentiment\nmode = base\ntrain = {train}\n"
                       f"out = {tmp_path / 'run'}\nepochs = 1\n")
        assert run(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "model_seed0.npz").exists()

    def test_non_utf8_file_exit_2_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(b"task = sentiment\xff\n")
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"config file {cfg} is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

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


# Tokens of the rule-spec grammar, for drawing near-valid strings.
_SPEC_TOKENS = ["but", "transitions", "list-counterpart", "bogus", "lambda", "variant", "=",
                "1", "0", "inf", "nan", "-1", "2.5", "avg", "strong", "(", ")", ",", " ",
                "()", "(lambda=1)", "(variant=strong)", "confidence", "scheme", "\n"]


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

    @pytest.mark.parametrize("text, count", [
        (",", 0), ("", 0), (" , ,", 0), ("transitions,,", 2), (",transitions(),", 2),
    ])
    def test_empty_items_are_skipped(self, text, count):
        assert len(parse_rule_specs(text, TagScheme(("LOC",)))) == count

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.text(alphabet="but(),= lambdvrisf1.0-\t", max_size=40),
        st.lists(st.sampled_from(_SPEC_TOKENS), max_size=12).map("".join),
    ), st.booleans())
    def test_any_string_parses_or_is_a_cli_error(self, text, tagging):
        try:
            rules = parse_rule_specs(text, TagScheme(("LOC",)) if tagging else None)
        except CliError:
            return
        assert all(r.confidence > 0 for r in rules)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_valid_spec_lists_parse_to_their_rules(self, data):
        """A valid rule list gives the rules its items name, in canonical
        text and with any spacing, argument order, empty parentheses left
        out and empty comma items."""
        tagging = data.draw(st.booleans())
        scheme = TagScheme(("LOC", "ORG")) if tagging else None
        lam = st.floats(1e-3, 1e3).map(repr)
        if tagging:
            item = st.tuples(st.just("transitions"), st.just({})) | st.tuples(
                st.just("list-counterpart"), st.fixed_dictionaries({}, optional={"lambda": lam}))
        else:
            item = st.tuples(st.just("but"), st.fixed_dictionaries({}, optional={
                "lambda": lam | st.just("inf"), "variant": st.sampled_from(["avg", "strong"])}))
        items = data.draw(st.lists(item, max_size=4))

        expected = []
        for name, args in items:
            confidence = float(args.get("lambda", "1"))
            if name == "but":
                expected.append(but_rule(confidence, args.get("variant", "avg")))
            elif name == "transitions":
                expected.extend(transition_rules(scheme))
            else:
                expected.append(list_counterpart_rule(CategoryCollapse(scheme), confidence))

        canonical = ", ".join(f"{name}({','.join(f'{k}={v}' for k, v in sorted(args.items()))})"
                              for name, args in items)

        space = st.sampled_from(["", " ", "  ", "\t"])

        def pad(text):
            return data.draw(space) + text + data.draw(space)

        pieces = []
        for name, args in items:
            pieces += [""] * data.draw(st.integers(0, 2))
            body = ",".join(pad(k) + "=" + pad(v)
                            for k, v in data.draw(st.permutations(sorted(args.items()))))
            parens = args or data.draw(st.booleans())
            pieces.append(name + (pad("") + f"({body})" if parens else ""))
        pieces += [""] * data.draw(st.integers(0, 2))
        spaced = ",".join(pad(piece) for piece in pieces)

        def key(rules):
            return [(type(r), r.name, r.confidence, getattr(r, "variant", None))
                    for r in rules]

        assert key(parse_rule_specs(canonical, scheme)) == key(expected)
        assert key(parse_rule_specs(spaced, scheme)) == key(expected)


# The train keys that no TrainConfig field names.
_CLI_ONLY_TRAIN_KEYS = {"train", "dev", "test", "unlabeled", "rules", "out", "seeds",
                        "pi0", "alpha"}


def _dashed(field) -> str:
    return field.name.replace("_", "-")


class TestKeysFollowSettings:
    """The command keys are derived from the settings they fill, so a field
    added to or deleted from ``TrainConfig`` or a generator spec changes
    the keys with it."""

    def test_train_keys_are_the_config_fields(self):
        config_fields = [f for f in fields(TrainConfig) if f.name not in ("seed", "schedule")]
        assert set(cli.TRAIN_SCHEMA) == _CLI_ONLY_TRAIN_KEYS | {_dashed(f) for f in config_fields}
        for f in config_fields:
            kind = "int_list" if isinstance(f.default, tuple) else type(f.default)
            assert cli.TRAIN_SCHEMA[_dashed(f)] == (kind, f.default)

    @pytest.mark.parametrize("schema, spec_cls, literal", [
        ("GEN_SENTIMENT_SCHEMA", SentimentTaskSpec, {"seed", "n", "out"}),
        ("GEN_NER_SCHEMA", NerTaskSpec, {"seed", "n-docs", "out"}),
    ])
    def test_generator_keys_are_the_spec_probabilities(self, schema, spec_cls, literal):
        keys = getattr(cli, schema)
        probabilities = {_dashed(f) for f in fields(spec_cls) if isinstance(f.default, float)}
        assert set(keys) == literal | probabilities
        assert all(keys[key] == (float, None) for key in probabilities)

    def test_a_flag_and_the_config_file_give_the_same_config(self, tmp_path):
        def other(value):  # a valid value other than the default
            if isinstance(value, str):
                return {"sentiment": "ner", "distill": "base"}[value]
            if isinstance(value, tuple):
                return ",".join(str(v + 1) for v in value)
            return repr(value + 1)

        texts = {_dashed(f): other(f.default) for f in fields(TrainConfig)
                 if f.name not in ("seed", "schedule")}
        texts.update(pi0="0.5", alpha="0.75")
        for key, text in texts.items():
            cfg_path = tmp_path / f"{key}.cfg"
            cfg_path.write_text(f"{key} = {text}\n")
            configs = []
            for argv in ([f"--{key}", text], ["--config", str(cfg_path)]):
                values, given = resolve_config(cli.TRAIN_SCHEMA,
                                               build_parser().parse_args(["train", *argv]))
                assert given == {key}
                configs.append(cli._train_config(values, seed=3))
            assert configs[0] == configs[1] != TrainConfig(seed=3), key


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

    def test_malformed_data_file_named_once_exit_2_before_writing(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\tgood words\nno tab here\n")
        out = tmp_path / "run"
        assert run(["train", "--task", "sentiment", "--mode", "base",
                    "--train", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}:2: expected <label><TAB><tokens>\n"
        assert not out.exists()

    def test_non_utf8_data_file_exit_2_before_writing(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"\xff\xfe\n")
        out = tmp_path / "run"
        assert run(["train", "--task", "sentiment", "--mode", "base",
                    "--train", str(bad), "--out", str(out)]) == 2
        assert f"train file {bad} is not UTF-8 text" in capsys.readouterr().err
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

    @pytest.mark.parametrize("case", ["truncated", "not an archive"])
    def test_unreadable_checkpoint_named_exit_2_before_writing(self, data_dir, sent_ckpt,
                                                              tmp_path, capsys, case):
        broken = tmp_path / "broken.npz"
        data = sent_ckpt.read_bytes()
        broken.write_bytes(data[: len(data) // 2] if case == "truncated" else b"not a zip\n")
        out_file = tmp_path / "eval.txt"
        assert run(["eval", "--checkpoint", str(broken), "--test", str(data_dir / "test.tsv"),
                    "--out", str(out_file)]) == 2
        assert f"checkpoint {broken} is not a readable npz archive" in capsys.readouterr().err
        assert not out_file.exists()

    def test_non_utf8_test_file_exit_2_before_writing(self, sent_ckpt, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"\xff\xfe\n")
        out_file = tmp_path / "eval.txt"
        assert run(["eval", "--checkpoint", str(sent_ckpt), "--test", str(bad),
                    "--out", str(out_file)]) == 2
        assert f"test file {bad} is not UTF-8 text" in capsys.readouterr().err
        assert not out_file.exists()

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

    def test_detect_lists_invalid_file_named_once_exit_2_before_writing(self, tmp_path,
                                                                         capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("Paris S-LOC\nis O\nnice I-LOC\n")
        out_file = tmp_path / "lists.txt"
        assert run(["detect-lists", "--data", str(bad), "--out", str(out_file)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {bad}:3: invalid BIOES sequence")
        assert out.err.count(str(bad)) == 1
        assert not out_file.exists()

    def test_detect_lists_non_utf8_file_exit_2_before_writing(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_bytes(b"Paris\xff S-LOC\n")
        out_file = tmp_path / "lists.txt"
        assert run(["detect-lists", "--data", str(bad), "--out", str(out_file)]) == 2
        assert f"data file {bad} is not UTF-8 text" in capsys.readouterr().err
        assert not out_file.exists()

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


def _readme_commands() -> list[list[str]]:
    """Each ``ruledistill ...`` command line of the README, with its
    continuation lines joined, split as a shell would."""
    text = re.sub(r"\\\n\s*", " ", README.read_text(encoding="utf-8"))
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines()
            if line.startswith("ruledistill ")]


class TestReadme:
    """What the README shows of the command line exists: its commands
    parse, its config example holds train keys only, and its rule specs
    parse under their tasks."""

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_command_parses(self, argv):
        build_parser().parse_args(argv)

    def test_every_named_flag_exists(self):
        # Flags named in the prose too, outside the pip command line.
        text = "\n".join(line for line in README.read_text(encoding="utf-8").splitlines()
                         if not line.startswith("pip "))
        schemas = (cli.TRAIN_SCHEMA, cli.EVAL_SCHEMA, cli.GEN_SENTIMENT_SCHEMA,
                   cli.GEN_NER_SCHEMA, cli.DETECT_SCHEMA, cli.VERIFY_SCHEMA)
        assert set(re.findall(r"(?<![\w-])--([a-z][\w-]*)", text)) <= {"config"}.union(*schemas)

    def test_config_example_holds_train_keys(self, tmp_path):
        block = re.search(r"```ini\n(# distill\.conf\n.*?)```", README.read_text(encoding="utf-8"),
                          re.S).group(1)
        (tmp_path / "distill.conf").write_text(block)
        values = parse_config_file(tmp_path / "distill.conf")
        assert values and set(values) <= set(cli.TRAIN_SCHEMA)
        cfg, given = resolve_config(cli.TRAIN_SCHEMA, build_parser().parse_args(
            ["train", "--config", str(tmp_path / "distill.conf")]))
        assert given == set(values)
        cli._train_config(cfg, seed=0)
        parse_rule_specs(cfg["rules"])

    def test_rule_table_specs_parse(self):
        rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", README.read_text(encoding="utf-8"), re.M)
        specs = [(spec, "tagging only" in meaning) for spec, meaning in rows
                 if "(" in spec and "only" in meaning]
        assert len(specs) == 3
        for spec, tagging in specs:
            assert parse_rule_specs(spec, TagScheme(("LOC",)) if tagging else None)
