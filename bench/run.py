"""Benchmark of rule-distillation training and teacher deployment.

Run from the root of a checkout (numpy and the standard library only):

    python3 bench/run.py --workload sent-distill --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0     # every workload in turn

Workloads (see bench/workloads.py): ``sent-distill``, ``ner-distill`` and
``ner-longlists``.  Each sets up its seeded inputs, then repeats one
cycle of train, project and evaluate calls while another cycle fits in
``--seconds``, checking every output.  Set-up is repeated after each cycle;
``setup_s`` is the mean of all set-ups, and every rate is total work over
total time of its calls.  Times are taken at reference machine speed (see
``SpeedClock`` in bench/workloads.py); the wall-clock figures are printed
beside them and kept in the result set.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced cycles; traced cycles wrap the public functions of
each library layer in spans and print the per-layer metrics, the spans
go to ``bench/results/*-spans.json``.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also writes its result set, with the numpy and Python versions,
the CPU count, the git SHA and the seed, to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import Tracer, breakdown

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
WORKLOAD_NAMES = ("sent-distill", "ner-distill", "ner-longlists")


def _import_library():
    """Import ruledistill from this checkout's sources and nowhere else."""
    package = SRC / "ruledistill"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no library sources at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ruledistill

    if Path(ruledistill.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported ruledistill from {ruledistill.__file__}, not {package}")


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, workload: str) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(ROOT),
    }


# --- metrics -------------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s",
    "base_train_sent_per_s": "sent/s",
    "distill_train_sent_per_s": "sent/s",
    "p_eval_sent_per_s": "sent/s",
    "q_eval_sent_per_s": "sent/s",
    "peak_rss_mb": "MB",
}

# Layer span name -> per-layer time metric.
LAYER_TIMES = {
    "predictors.step": "predictors.step_s",
    "predictors.forward": "predictors.forward_s",
    "projection.project": "projection.project_s",
    "inference.gibbs": "inference.gibbs_s",
    "inference.form_groups": "inference.form_groups_s",
    "inference.chain_marginals": "inference.chain_marginals_s",
    "inference.chain_map": "inference.chain_map_s",
    "rulelib.list_rule_truth": "rulelib.list_rule_truth_s",
    "corpus.detect_lists": "corpus.detect_lists_s",
}

LAYER_COUNTS = (
    "predictors.step_calls",
    "predictors.step_sents",
    "predictors.forward_calls",
    "projection.project_calls",
    "inference.gibbs_groups",
    "inference.gibbs_site_updates",
    "inference.gibbs_link_scans",
    "inference.group_size_max",
    "inference.chain_calls",
    "inference.chain_positions",
    "rulelib.list_rule_truth_calls",
    "corpus.detect_lists_calls",
)

EPOCH_COUNTS = (
    "predictors.base_epoch_forward_calls",
    "predictors.base_epoch_step_sents",
    "predictors.distill_epoch_forward_calls",
    "predictors.distill_epoch_step_sents",
)

RATIOS = (
    "projection.fired_ratio",
    "inference.group_size_mean",
    "inference.links_kept_ratio",
    "trace.overhead_ratio",
)


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in LAYER_TIMES.values()}
    units.update({"corpus.generate_s": "s", "trainer.self_s": "s"})
    units.update({name: "count" for name in LAYER_COUNTS + EPOCH_COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    return units


def _total(counts: dict) -> dict:
    total: dict = {}
    for op_counts in counts.values():
        for key, value in op_counts.items():
            total[key] = max(total.get(key, 0), value) if key.endswith("_max") else total.get(key, 0) + value
    return total


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def epoch_counts(inp, counts: dict) -> dict[str, float]:
    """Student forward calls and step sentences per epoch.  A distill run's
    epochs with pi = 0 repeat the base epoch; the rest are teacher epochs."""
    base, dist = counts.get("train.base", {}), counts.get("train.distill", {})
    sched = inp.distill_cfg.resolved_schedule()
    teacher_epochs = sum(sched.rate(e) > 0 for e in range(inp.distill_cfg.epochs))
    plain_epochs = inp.distill_cfg.epochs - teacher_epochs
    out = {}
    for key, short in (("predictors.forward_calls", "forward_calls"),
                       ("predictors.step_sents", "step_sents")):
        per_base = base.get(key, 0) / inp.base_cfg.epochs
        out[f"predictors.base_epoch_{short}"] = per_base
        out[f"predictors.distill_epoch_{short}"] = _ratio(
            dist.get(key, 0) - plain_epochs * per_base, teacher_epochs)
    return out


def cycle_layers(inp, spans, cycle) -> dict[str, float]:
    """Per-layer metrics of one traced cycle."""
    per_name, children = breakdown(spans, cycle["first"], cycle["last"])
    total = _total(cycle["counts"])
    out = {metric: per_name.get(name, 0.0) for name, metric in LAYER_TIMES.items()}
    out["trainer.self_s"] = sum(
        spans[root][2] - spans[root][1] - sum(kids.values()) for root, kids in children.items())
    out.update({key: total.get(key, 0) for key in LAYER_COUNTS})
    out.update(epoch_counts(inp, cycle["counts"]))
    out["projection.fired_ratio"] = _ratio(total.get("projection.project_calls", 0),
                                           inp.teacher_instances())
    out["inference.group_size_mean"] = _ratio(total.get("inference.gibbs_sites", 0),
                                              total.get("inference.gibbs_groups", 0))
    out["inference.links_kept_ratio"] = _ratio(total.get("inference.links_kept", 0),
                                               total.get("inference.links_in", 0))
    return out


def op_breakdown(spans, cycles) -> dict[str, dict[str, float]]:
    """Per operation, over all traced cycles: its duration, the time of its
    direct children by layer, and its self time."""
    out: dict[str, dict[str, float]] = {}
    for cycle in cycles:
        _, children = breakdown(spans, cycle["first"], cycle["last"])
        for root, kids in children.items():
            name, start, end, _ = spans[root]
            row = out.setdefault(name, {"duration_s": 0.0, "trainer.self_s": 0.0})
            row["duration_s"] += end - start
            row["trainer.self_s"] += end - start - sum(kids.values())
            for kid, t in kids.items():
                row[kid] = row.get(kid, 0.0) + t
    return out


# --- one workload ----------------------------------------------------------------


def run_workload(name: str, args) -> tuple[dict, list]:
    """Set up and run one workload; returns its result set and its spans."""
    from workloads import SIZES, WORKLOADS, OpFailed, Recorder, SpeedClock, run_cycle

    setup, size = WORKLOADS[name], SIZES[args.size]
    tracer = Tracer() if args.trace else None

    def traced():
        return tracer.installed() if tracer else nullcontext()

    clock = SpeedClock()
    setup_wall, setup_scaled, generate_times = [], [], []

    def timed_setup():
        mark = len(tracer.spans) if tracer else 0
        with traced():
            inputs, wall, scaled = clock.time(lambda: setup(args.seed, size))
        setup_wall.append(wall)
        setup_scaled.append(scaled)
        if tracer:
            generate_times.append(tracer.span_time("corpus.generate", since=mark))
            tracer.take_counts()
        return inputs

    inp = timed_setup()
    problems = [f"inputs: {p}" for p in inp.input_problems()]

    rec = Recorder(clock)
    cycles, scores = [], None
    start = perf_counter()
    while True:
        is_traced = bool(tracer) and len(cycles) % 2 == 1  # untraced, traced, ...
        first = len(tracer.spans) if tracer else 0
        rec.start_cycle(tracer if is_traced else None)
        t0 = perf_counter()
        try:
            with traced() if is_traced else nullcontext():
                cycle_scores = run_cycle(inp, rec)
        except OpFailed:
            break
        if is_traced:  # a traced cycle is not timed by the clock
            clock.reset()
        cycles.append({
            "traced": is_traced,
            "wall_s": perf_counter() - t0,
            "first": first,
            "last": len(tracer.spans) if tracer else 0,
            "counts": tracer.take_counts() if is_traced else None,
        })
        scores = scores or cycle_scores
        # Set-up is repeated between cycles, so that its samples see the
        # same machine as the cycles do; the same seed must give the same inputs.
        again = timed_setup()
        if (again.train, again.test) != (inp.train, inp.test):
            problems.append("inputs: the same seed gave different inputs")
        # Stop when the next cycle would end past --seconds.
        next_end = perf_counter() - start + max(c["wall_s"] for c in cycles[-2:])
        if next_end > args.seconds and len(cycles) >= (2 if tracer else 1):
            break
    problems += rec.problems

    # Totals over the run, not medians of calls: the machine's speed flips
    # between two states (see SpeedClock), a run's median lands in whichever
    # held for more than half of it, and its total follows the share of each.
    def end_to_end(setup_times, times):
        out = {"setup_s": statistics.mean(setup_times)}
        if scores is not None:
            def rate(key, work):
                return work * len(times[key]) / sum(times[key])

            out.update({
                "base_train_sent_per_s": rate("train.base", inp.n_train * inp.base_cfg.epochs),
                "distill_train_sent_per_s": rate("train.distill",
                                                 inp.n_train * inp.distill_cfg.epochs),
                "p_eval_sent_per_s": rate("eval.p", len(inp.student_test)),
                "q_eval_sent_per_s": rate("eval.q", inp.n_test),
            })
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    result = {
        "env": environment(args, name),
        "correct": not problems and scores is not None,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": problems,
        # Times at reference speed, and the same metrics in wall-clock time.
        "end_to_end": end_to_end(setup_scaled, rec.scaled),
        "end_to_end_wall": end_to_end(setup_wall, rec.times),
        # Test accuracy (sentiment) or exact-span micro-F1 (NER).  Fixed for a
        # seed and checked to repeat bit for bit, but printed rather than held
        # to a bound: between seeds they move by 10-30% on NER, where a cycle
        # affords only a few training epochs.
        "scores": scores or {},
        "cycles": [{"traced": c["traced"], "wall_s": c["wall_s"]} for c in cycles],
        "sizes": {"train_sentences": inp.n_train, "test_sentences": inp.n_test,
                  "test_docs": len({getattr(s, "doc_id", i) for i, s in enumerate(inp.test)}),
                  "base_epochs": inp.base_cfg.epochs, "distill_epochs": inp.distill_cfg.epochs,
                  "eval_sweeps": inp.distill_cfg.eval_sweeps,
                  "batch_size": inp.distill_cfg.batch_size},
    }
    traced_cycles = [c for c in cycles if c["traced"]]
    if traced_cycles:
        result.update(_traced_results(inp, tracer, cycles, traced_cycles, generate_times, problems))
        result["correct"] = result["correct"] and not problems
    return result, (tracer.spans if tracer else [])


def _traced_results(inp, tracer, cycles, traced_cycles, generate_times, problems) -> dict:
    per_cycle = [cycle_layers(inp, tracer.spans, c) for c in traced_cycles]
    units = per_layer_units()
    layers = {}
    for key in per_cycle[0]:
        values = [m[key] for m in per_cycle]
        if units[key] != "count":
            layers[key] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            problems.append(f"trace: count {key} differs between cycles: {values}")
        layers[key] = values[0]
    layers["corpus.generate_s"] = statistics.median(generate_times)
    layers["trace.overhead_ratio"] = (
        statistics.median(c["wall_s"] for c in traced_cycles)
        / statistics.median(c["wall_s"] for c in cycles if not c["traced"]))
    return {
        "per_layer": layers,
        "operations": op_breakdown(tracer.spans, traced_cycles),
        "op_counts": {op: dict(c) for op, c in traced_cycles[0]["counts"].items()},
    }


# --- output --------------------------------------------------------------------


def roadmap_rows(name: str, result: dict) -> list[tuple[str, float]]:
    """ROADMAP's baseline rows that this workload's wall-clock end-to-end
    metrics give: mean epoch time = training sentences / training
    throughput, and teacher evaluation time = test sentences / teacher
    throughput."""
    e2e, sizes = result["end_to_end_wall"], result["sizes"]
    if "q_eval_sent_per_s" not in e2e or name == "ner-longlists":
        return []
    task = "Sentiment" if name == "sent-distill" else "NER"
    n = sizes["train_sentences"]
    rows = [
        (f"{task} base epoch", n / e2e["base_train_sent_per_s"]),
        (f"{task} distill, {sizes['distill_epochs']}-epoch mean (epoch 0 has pi = 0)",
         n / e2e["distill_train_sent_per_s"]),
    ]
    if task == "NER":
        rows.append((f"NER teacher evaluation, {sizes['test_docs']} test docs "
                     f"({sizes['test_sentences']} sentences), {sizes['eval_sweeps']} sweeps",
                     sizes["test_sentences"] / e2e["q_eval_sent_per_s"]))
    return rows


def print_result(name: str, result: dict) -> None:
    env = result["env"]
    print(f"== {name}  seed {env['seed']}  size {env['size']}  trace {env['trace']}  "
          f"({len(result['cycles'])} cycles)")
    print("env " + json.dumps({k: env[k] for k in ("python", "numpy", "cpu_count", "git_sha", "seed")}))
    print(f"  {'end to end':<28} {'at ref. speed':>14} {'wall clock':>14}")
    for key, value in result["end_to_end"].items():
        print(f"  {key:<28} {value:>14.6g} {result['end_to_end_wall'][key]:>14.6g} {E2E_UNITS[key]}")
    for key, value in result["scores"].items():
        print(f"  {key:<28} {value:>14.6g} fraction")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    for p in result["problems"]:
        print(f"  FAILED CHECK {p}")
    if "per_layer" in result:
        units = per_layer_units()
        print("  per layer (median traced cycle):")
        for key, value in sorted(result["per_layer"].items()):
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"    {key:<40} {shown:>14} {units[key]}")
        print("  per operation (all traced cycles): duration, self, dominant child")
        for op, row in result["operations"].items():
            kids = {k: v for k, v in row.items() if k not in ("duration_s", "trainer.self_s")}
            top = max(kids, key=kids.get) if kids else "-"
            share = kids.get(top, 0.0) / row["duration_s"]
            print(f"    {op:<14} {row['duration_s']:9.3f} s  self {row['trainer.self_s']:8.3f} s  "
                  f"{top} {100 * share:.0f}%")
        base, dist = (result["per_layer"][f"predictors.{m}_epoch_{k}"]
                      for m, k in (("base", "step_sents"), ("distill", "step_sents")))
        fwd_b, fwd_d = (result["per_layer"][f"predictors.{m}_epoch_forward_calls"]
                        for m in ("base", "distill"))
        print(f"  student forwards in 5 epochs: base {5 * (base + fwd_b):.0f}, "
              f"distill {base + fwd_b + 4 * (dist + fwd_d):.0f} (epoch 0 has pi = 0)")
    rows = roadmap_rows(name, result)
    if rows:
        print("  ROADMAP baseline rows:")
        for label, value in rows:
            print(f"    | {label} | {value:.3f} s |")


def write_result(name: str, args, result: dict, spans: list) -> None:
    """The result set, and in traced runs the spans as [id, name, start,
    end, parent] with times in seconds from the first span."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-{args.size}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    if spans:
        t0 = spans[0][1]
        rows = [[i, n, s - t0, e - t0, p] for i, (n, s, e, p) in enumerate(spans)]
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["id", "name", "start_s", "end_s", "parent"], "spans": rows}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.workload == "all":
        return run_all(args)
    _import_library()
    result, spans = run_workload(args.workload, args)
    print_result(args.workload, result)
    write_result(args.workload, args, result, spans)
    units = per_layer_units() if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in result.get("per_layer" if args.trace else "end_to_end",
                                                 {}).items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a child process of its own so that its
    peak_rss_mb is its own; metric names are prefixed with the workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} exited with code {proc.returncode}")
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        child = json.loads(last)
        summary["correct"] = summary["correct"] and child["correct"]
        summary["attempted"] += child["attempted"]
        summary["failed"] += child["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in child["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
