"""Command-line surface binding the package together: corpus generation,
training in every mode, evaluation, list detection, and projection
self-verification.

Configuration is a flat ``key = value`` file (one assignment per line, ``#``
starts a comment).  Precedence is flags over file values over defaults.
Every command is deterministic given its configuration and seeds; summary
files are byte-identical across reruns, with wall-clock timestamps confined
to a separate run log.

Exit codes: 0 success, 1 verification or assertion failure, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .corpus import (
    NerTaskSpec,
    SentimentTaskSpec,
    CorpusFormatError,
    detect_lists,
    gen_synthetic_ner,
    gen_synthetic_sentiment,
    group_documents,
    load_classification,
    load_conll,
    write_classification,
    write_conll,
)
from .predictors import load_checkpoint, save_checkpoint
from .projection import random_projection_sweep
from .rulelib import (
    CategoryCollapse,
    Rule,
    TagScheme,
    but_rule,
    list_counterpart_rule,
    transition_rules,
)
from .trainer import (
    ImitationSchedule,
    TrainConfig,
    aggregate_reports,
    evaluate,
    pipeline_distill,
    project_after,
    train_distill,
    train_semi,
)


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 2."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


# --- flat config files -------------------------------------------------------


def parse_config_file(path) -> dict[str, str]:
    """`key = value` per line; `#` starts a comment anywhere."""
    if not os.path.exists(path):
        raise CliError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected `key = value`")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise CliError(f"{path}:{lineno}: empty key")
            out[key] = value.strip()
    return out


def _cast_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _cast_int_list(text: str) -> tuple[int, ...]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ValueError("empty list")
    return tuple(int(p) for p in items)


_CASTERS = {
    str: lambda s: s,
    int: int,
    float: float,
    bool: _cast_bool,
    "int_list": _cast_int_list,
}


def resolve_config(schema: dict, args: argparse.Namespace) -> dict:
    """Merge defaults, config-file values, and flags, in rising precedence.

    `schema` maps key -> (type tag, default).  Flags are declared with
    default None so an unset flag falls through to the file value.
    """
    merged = {key: default for key, (_, default) in schema.items()}
    config_path = getattr(args, "config", None)
    if config_path:
        for key, text in parse_config_file(config_path).items():
            if key not in schema:
                raise CliError(f"unknown config key {key!r} in {config_path}")
            kind = schema[key][0]
            try:
                merged[key] = _CASTERS[kind](text)
            except ValueError as exc:
                raise CliError(f"config key {key!r}: {exc}") from exc
    for key in schema:
        flag_val = getattr(args, key.replace("-", "_"), None)
        if flag_val is not None:
            merged[key] = flag_val
    return merged


def _require_path(path, what: str) -> str:
    if not path:
        raise CliError(f"missing required {what} path")
    if not os.path.exists(path):
        raise CliError(f"{what} path does not exist: {path}")
    return path


# --- rule specifications -----------------------------------------------------


def _split_specs(text: str) -> list[str]:
    """Split `a(...), b(...)` on top-level commas."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise CliError(f"unbalanced parentheses in rule spec {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise CliError(f"unbalanced parentheses in rule spec {text!r}")
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _parse_one_spec(spec: str) -> tuple[str, dict[str, str]]:
    if "(" in spec:
        if not spec.endswith(")"):
            raise CliError(f"malformed rule spec {spec!r}")
        name, arg_text = spec[:-1].split("(", 1)
        args: dict[str, str] = {}
        for part in arg_text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise CliError(f"rule argument must be key=value: {part!r}")
            k, v = part.split("=", 1)
            args[k.strip()] = v.strip()
    else:
        name, args = spec, {}
    return name.strip(), args


def _rule_lambda(args: dict[str, str], name: str) -> float:
    text = args.pop("lambda", "1")
    try:
        lam = float(text)
    except ValueError as exc:
        raise CliError(f"{name}: bad lambda {text!r}") from exc
    if not lam > 0:
        raise CliError(f"{name}: lambda must be positive (inf for a hard rule)")
    return lam


def parse_rule_specs(text: str, scheme: TagScheme | None = None) -> tuple[Rule, ...]:
    """Parse a rule list such as ``but(lambda=1), transitions()``.

    Known rules: ``but(lambda=, variant=avg|strong)`` for classification;
    ``transitions()`` and ``list-counterpart(lambda=)`` for tagging (both
    need the tag scheme of the task at hand).
    """
    rules: list[Rule] = []
    for spec in _split_specs(text):
        name, args = _parse_one_spec(spec)
        if name == "but":
            if scheme is not None:
                raise CliError("but() requires a classification task")
            lam = _rule_lambda(args, name)
            variant = args.pop("variant", "avg")
            if variant not in ("avg", "strong"):
                raise CliError(f"but: unknown variant {variant!r}")
            if args:
                raise CliError(f"but: unknown arguments {sorted(args)}")
            rules.append(but_rule(confidence=lam, variant=variant))
        elif name == "transitions":
            if args:
                raise CliError(f"transitions: unknown arguments {sorted(args)}")
            if scheme is None:
                raise CliError("transitions() requires a tagging task")
            rules.extend(transition_rules(scheme))
        elif name == "list-counterpart":
            lam = _rule_lambda(args, name)
            if args:
                raise CliError(f"list-counterpart: unknown arguments {sorted(args)}")
            if scheme is None:
                raise CliError("list-counterpart() requires a tagging task")
            rules.append(
                list_counterpart_rule(CategoryCollapse(scheme), confidence=lam)
            )
        else:
            raise CliError(f"unknown rule {name!r}")
    return tuple(rules)


# --- artifacts ---------------------------------------------------------------


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def write_summary(path, pairs: list[tuple[str, object]]) -> None:
    """Line-oriented `key=value` summary; content carries no timestamps so
    reruns produce byte-identical files."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in pairs:
            fh.write(f"{key}={_fmt_value(value)}\n")


def append_run_log(out_dir, message: str) -> None:
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with open(os.path.join(out_dir, "run_log.txt"), "a", encoding="utf-8") as fh:
        fh.write(f"[{stamp}] {message}\n")


def _print_pairs(pairs: list[tuple[str, object]]) -> None:
    for key, value in pairs:
        print(f"{key}={_fmt_value(value)}")


# --- train -------------------------------------------------------------------

_DEFAULTS = TrainConfig()

TRAIN_SCHEMA = {
    "task": (str, _DEFAULTS.task),
    "mode": (str, _DEFAULTS.mode),
    "train": (str, None),
    "dev": (str, None),
    "test": (str, None),
    "unlabeled": (str, None),
    "rules": (str, ""),
    "out": (str, "runs"),
    "seeds": ("int_list", (_DEFAULTS.seed,)),
    "c": (float, _DEFAULTS.c),
    "pi0": (float, None),
    "alpha": (float, None),
    "epochs": (int, _DEFAULTS.epochs),
    "batch-size": (int, _DEFAULTS.batch_size),
    "g-max": (int, _DEFAULTS.g_max),
    "train-sweeps": (int, _DEFAULTS.train_sweeps),
    "eval-sweeps": (int, _DEFAULTS.eval_sweeps),
    "patience": (int, _DEFAULTS.patience),
    "emb-dim": (int, _DEFAULTS.emb_dim),
    "n-filters": (int, _DEFAULTS.n_filters),
    "conv-windows": ("int_list", _DEFAULTS.conv_windows),
    "hidden": (int, _DEFAULTS.hidden),
    "radius": (int, _DEFAULTS.radius),
}


def _ner_scheme(dataset) -> TagScheme:
    cats = sorted({t.split("-", 1)[1] for s in dataset for t in s.tags if t != "O"})
    if not cats:
        raise CliError("tagging data contains no entity tags")
    return TagScheme(tuple(cats))


def _load_task_data(task: str, path):
    try:
        if task == "sentiment":
            return load_classification(path)
        return load_conll(path)
    except CorpusFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _train_config(cfg: dict, seed: int) -> TrainConfig:
    try:
        schedule = None
        if cfg["pi0"] is not None or cfg["alpha"] is not None:
            task_default = TrainConfig(task=cfg["task"]).resolved_schedule()
            schedule = ImitationSchedule(
                pi0=cfg["pi0"] if cfg["pi0"] is not None else task_default.pi0,
                alpha=cfg["alpha"] if cfg["alpha"] is not None else task_default.alpha,
            )
        return TrainConfig(
            task=cfg["task"],
            mode=cfg["mode"],
            c=cfg["c"],
            schedule=schedule,
            epochs=cfg["epochs"],
            batch_size=cfg["batch-size"],
            seed=seed,
            g_max=cfg["g-max"],
            train_sweeps=cfg["train-sweeps"],
            eval_sweeps=cfg["eval-sweeps"],
            patience=cfg["patience"],
            emb_dim=cfg["emb-dim"],
            n_filters=cfg["n-filters"],
            conv_windows=tuple(cfg["conv-windows"]),
            hidden=cfg["hidden"],
            radius=cfg["radius"],
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(TRAIN_SCHEMA, args)
    # Every seed's configuration is checked before any data is read or
    # anything is written.
    if len(set(cfg["seeds"])) != len(cfg["seeds"]):
        raise CliError(f"--seeds repeats a seed: {_fmt_value(cfg['seeds'])}")
    tcfgs = [_train_config(cfg, seed) for seed in cfg["seeds"]]

    train_path = _require_path(cfg["train"], "train")
    train_data = _load_task_data(cfg["task"], train_path)
    dev_data = (
        _load_task_data(cfg["task"], _require_path(cfg["dev"], "dev"))
        if cfg["dev"] else None
    )
    test_data = (
        _load_task_data(cfg["task"], _require_path(cfg["test"], "test"))
        if cfg["test"] else None
    )
    unlabeled = None
    if cfg["mode"] == "semi":
        unlabeled = _load_task_data(
            cfg["task"], _require_path(cfg["unlabeled"], "unlabeled")
        )

    scheme = _ner_scheme(train_data) if cfg["task"] == "ner" else None
    rules = (
        parse_rule_specs(cfg["rules"], scheme)
        if cfg["rules"] else ()
    )
    if cfg["mode"] != "base" and not rules:
        raise CliError(f"mode {cfg['mode']!r} needs at least one rule (--rules)")

    os.makedirs(cfg["out"], exist_ok=True)
    append_run_log(cfg["out"], f"train start: {' '.join(sys.argv[1:])}")
    t_start = time.time()

    p_reports, q_reports = [], []
    for seed, tcfg in zip(cfg["seeds"], tcfgs):
        try:
            if cfg["mode"] == "base":
                result = train_distill(tcfg, train_data, rules=(), dev=dev_data)
                teacher = None
            elif cfg["mode"] == "distill":
                result = train_distill(tcfg, train_data, rules=rules, dev=dev_data)
                teacher = result.teacher
            elif cfg["mode"] == "semi":
                result = train_semi(tcfg, train_data, unlabeled, rules=rules,
                                    dev=dev_data)
                teacher = result.teacher
            elif cfg["mode"] == "pipeline":
                result = pipeline_distill(tcfg, train_data, rules=rules, dev=dev_data)
                teacher = result.teacher
            else:  # project-after: train plain, project only at evaluation
                result = train_distill(replace(tcfg, mode="base"), train_data,
                                       rules=(), dev=dev_data)
                teacher = project_after(
                    result.student, result.vocab, rules, tcfg.c, cfg["task"],
                    scheme=result.scheme, eval_sweeps=tcfg.eval_sweeps,
                    g_max=tcfg.g_max, seed=seed,
                )
        except ValueError as exc:
            raise CliError(str(exc)) from exc

        extra = {"task": cfg["task"]}
        if result.scheme is not None:
            extra["categories"] = list(result.scheme.categories)
        ckpt = os.path.join(cfg["out"], f"model_seed{seed}.npz")
        save_checkpoint(ckpt, result.student, result.vocab, extra=extra)

        log_path = os.path.join(cfg["out"], f"train_log_seed{seed}.txt")
        with open(log_path, "w", encoding="utf-8") as fh:
            for row in result.history:
                line = " ".join(f"{k}={_fmt_value(v)}" for k, v in row.items())
                fh.write(line + "\n")

        if test_data is not None:
            p_reports.append(
                evaluate(result.student, test_data, task=cfg["task"],
                         vocab=result.vocab, scheme=result.scheme)
            )
            if teacher is not None:
                q_reports.append(evaluate(teacher, test_data, task=cfg["task"]))

    pairs: list[tuple[str, object]] = [
        ("command", "train"),
        ("task", cfg["task"]),
        ("mode", cfg["mode"]),
        ("seeds", cfg["seeds"]),
        ("n_train", len(train_data)),
    ]
    if test_data is not None:
        pairs.append(("n_test", len(test_data)))
        for prefix, reports in (("p", p_reports), ("q", q_reports)):
            if not reports:
                continue
            for key, (mean, std) in sorted(aggregate_reports(reports).items()):
                pairs.append((f"{prefix}_{key}", mean))
                pairs.append((f"{prefix}_{key}_std", std))
            for seed, report in zip(cfg["seeds"], reports):
                for key, value in sorted(report.as_dict().items()):
                    if key == "n":
                        continue
                    pairs.append((f"{prefix}_{key}_seed{seed}", value))

    summary_path = os.path.join(cfg["out"], "summary.txt")
    write_summary(summary_path, pairs)
    _print_pairs(pairs)
    append_run_log(cfg["out"], f"train done in {time.time() - t_start:.1f}s")
    return 0


# --- eval --------------------------------------------------------------------

EVAL_SCHEMA = {
    "checkpoint": (str, None),
    "test": (str, None),
    "rules": (str, ""),
    "use-teacher": (bool, False),
    "out": (str, None),
    "c": (float, _DEFAULTS.c),
    "eval-sweeps": (int, _DEFAULTS.eval_sweeps),
    "g-max": (int, _DEFAULTS.g_max),
    "seed": (int, _DEFAULTS.seed),
}


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = resolve_config(EVAL_SCHEMA, args)
    ckpt_path = _require_path(cfg["checkpoint"], "checkpoint")
    test_path = _require_path(cfg["test"], "test")
    try:
        model, vocab, extra = load_checkpoint(ckpt_path)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    task = extra.get("task") or (
        "sentiment" if model.kind == "text_classifier" else "ner"
    )
    data = _load_task_data(task, test_path)
    if task == "ner":
        if model.kind != "sequence_tagger":
            raise CliError("checkpoint is not a tagging model")
        cats = extra.get("categories")
        scheme = TagScheme(tuple(cats)) if cats else _ner_scheme(data)
        if len(scheme.tags) != model.n_tags:
            raise CliError(
                f"checkpoint has {model.n_tags} tags but the task scheme "
                f"has {len(scheme.tags)}"
            )
    else:
        if model.kind != "text_classifier":
            raise CliError("checkpoint is not a classification model")
        scheme = None

    rules = parse_rule_specs(cfg["rules"], scheme) if cfg["rules"] else ()
    pairs: list[tuple[str, object]] = [
        ("command", "eval"),
        ("task", task),
        ("n_test", len(data)),
        ("use_teacher", cfg["use-teacher"]),
    ]
    if cfg["use-teacher"]:
        try:
            teacher = project_after(
                model, vocab, rules, cfg["c"], task, scheme=scheme,
                eval_sweeps=cfg["eval-sweeps"], g_max=cfg["g-max"], seed=cfg["seed"],
            )
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        report = evaluate(teacher, data, task=task)
        prefix = "q"
    else:
        report = evaluate(model, data, task=task, vocab=vocab, scheme=scheme)
        prefix = "p"
    for key, value in sorted(report.as_dict().items()):
        if key == "n":
            continue
        pairs.append((f"{prefix}_{key}", value))

    _print_pairs(pairs)
    if cfg["out"]:
        write_summary(cfg["out"], pairs)
    return 0


# --- generators --------------------------------------------------------------

GEN_SENTIMENT_SCHEMA = {
    "seed": (int, 0),
    "n": (int, 1000),
    "out": (str, None),
    "but-fraction": (float, None),
    "mild-in-plain": (float, None),
    "conflict-in-plain": (float, None),
    "plain-label-noise": (float, None),
}


def cmd_gen_sentiment(args: argparse.Namespace) -> int:
    cfg = resolve_config(GEN_SENTIMENT_SCHEMA, args)
    if not cfg["out"]:
        raise CliError("missing required out path")
    spec_kwargs = {
        field: cfg[key]
        for key, field in (
            ("but-fraction", "but_fraction"),
            ("mild-in-plain", "mild_in_plain"),
            ("conflict-in-plain", "conflict_in_plain"),
            ("plain-label-noise", "plain_label_noise"),
        )
        if cfg[key] is not None
    }
    data = gen_synthetic_sentiment(
        seed=cfg["seed"], n=cfg["n"], spec=SentimentTaskSpec(**spec_kwargs)
    )
    write_classification(cfg["out"], data)
    print(f"wrote {len(data)} sentences to {cfg['out']}")
    return 0


GEN_NER_SCHEMA = {
    "seed": (int, 0),
    "n-docs": (int, 100),
    "out": (str, None),
    "list-fraction": (float, None),
    "ambiguous-in-list": (float, None),
    "entity-label-noise": (float, None),
}


def cmd_gen_ner(args: argparse.Namespace) -> int:
    cfg = resolve_config(GEN_NER_SCHEMA, args)
    if not cfg["out"]:
        raise CliError("missing required out path")
    spec_kwargs = {
        field: cfg[key]
        for key, field in (
            ("list-fraction", "list_fraction"),
            ("ambiguous-in-list", "ambiguous_in_list"),
            ("entity-label-noise", "entity_label_noise"),
        )
        if cfg[key] is not None
    }
    data = gen_synthetic_ner(
        seed=cfg["seed"], n_docs=cfg["n-docs"], spec=NerTaskSpec(**spec_kwargs)
    )
    write_conll(cfg["out"], data)
    docs = len({s.doc_id for s in data})
    print(f"wrote {len(data)} sentences ({docs} documents) to {cfg['out']}")
    return 0


# --- list detection ----------------------------------------------------------

DETECT_SCHEMA = {
    "data": (str, None),
    "out": (str, None),
}


def cmd_detect_lists(args: argparse.Namespace) -> int:
    cfg = resolve_config(DETECT_SCHEMA, args)
    path = _require_path(cfg["data"], "data")
    sentences = _load_task_data("ner", path)
    lines = []
    total = 0
    for doc in group_documents(sentences):
        doc_id = doc[0].doc_id
        for group in detect_lists(doc, doc_id=doc_id):
            total += 1
            spans = " ".join(
                f"{item.sent_index}:{item.start}-{item.end}" for item in group.items
            )
            texts = " | ".join(
                " ".join(doc[item.sent_index].tokens[item.start:item.end])
                for item in group.items
            )
            lines.append(f"doc={doc_id} kind={group.kind} items={spans} :: {texts}")
    lines.append(f"total_groups={total}")
    body = "\n".join(lines) + "\n"
    sys.stdout.write(body)
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(body)
    return 0


# --- projection verification -------------------------------------------------

VERIFY_SCHEMA = {
    "trials": (int, 100),
    "seed": (int, 0),
    "tolerance": (float, 1e-6),
    "c": (float, 6.0),
    "k-max": (int, 4),
}


def cmd_verify_projection(args: argparse.Namespace) -> int:
    cfg = resolve_config(VERIFY_SCHEMA, args)
    if cfg["trials"] < 0:
        raise CliError("trials must be nonnegative")
    results = random_projection_sweep(
        cfg["seed"], cfg["trials"], k_max=cfg["k-max"], c=cfg["c"]
    )
    failures = [(p, r) for p, r in results if not r.agrees(cfg["tolerance"])]
    worst_kl = max((r.kl for _, r in results), default=0.0)
    print(f"trials={cfg['trials']} failures={len(failures)} "
          f"worst_kl={worst_kl:.3e} tolerance={cfg['tolerance']:.3e}")
    if not failures:
        return 0
    problem, report = max(failures, key=lambda pr: pr[1].kl)
    # Dump the worst instance so the failure can be reproduced directly.
    print("worst case:")
    print(f"  c={problem.c}")
    print(f"  base_log_probs={[float(v) for v in problem.base_log_probs]}")
    for lam, truth in problem.groundings:
        print(f"  grounding: lambda={lam} truth={[float(v) for v in truth]}")
    print(f"  kl={report.kl:.6e} objective_gap={report.objective_gap:.6e} "
          f"converged={report.converged}")
    return 1


# --- entry point -------------------------------------------------------------


def _add_schema_flags(parser: argparse.ArgumentParser, schema: dict) -> None:
    for key, (kind, _) in schema.items():
        flag = f"--{key}"
        if kind is bool:
            parser.add_argument(flag, dest=key.replace("-", "_"),
                                action="store_const", const=True, default=None)
        elif kind == "int_list":
            parser.add_argument(flag, dest=key.replace("-", "_"),
                                type=_cast_int_list, default=None)
        else:
            parser.add_argument(flag, dest=key.replace("-", "_"),
                                type=kind, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruledistill",
        description="Distill first-order logic rules into small predictors.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, schema, func in (
        ("train", TRAIN_SCHEMA, cmd_train),
        ("eval", EVAL_SCHEMA, cmd_eval),
        ("gen-sentiment", GEN_SENTIMENT_SCHEMA, cmd_gen_sentiment),
        ("gen-ner", GEN_NER_SCHEMA, cmd_gen_ner),
        ("detect-lists", DETECT_SCHEMA, cmd_detect_lists),
        ("verify-projection", VERIFY_SCHEMA, cmd_verify_projection),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        _add_schema_flags(p, schema)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
