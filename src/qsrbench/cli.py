"""Command-line interface.

Exit codes: 0 on success, 1 for usage errors, 2 for runtime failures.
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .calculus import ViewFrame
from .dataio import (
    dataset_sha256,
    read_answers,
    read_dataset,
    write_dataset,
    write_eval_records,
    write_json,
)
from .evalharness import (
    STUB_FACTORIES,
    EvalError,
    ModelEndpoint,
    endpoint_responder,
    parse_answer,
    run_eval,
)
from .grade import aggregate, grade, metrics_to_csv, metrics_to_json
from .netgen import GenConfig, GenerationError, QType, Setting, generate_dataset
from .solver import tightness_table
from .stats import D_VALUES, report_to_csv, run_sweeps


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsrbench", description="Spatial-reasoning benchmark toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="generate a dataset as JSONL")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--n", type=int, required=True, help="objects per instance")
    gen.add_argument("--d", type=int, default=144, help="grid cell count (side squared)")
    gen.add_argument("--m", type=int, required=True, help="described pairs per instance")
    gen.add_argument("--setting", choices=[s.value for s in Setting], required=True)
    gen.add_argument("--view", choices=[v.value for v in ViewFrame], default="top-down")
    gen.add_argument("--qtype", choices=[q.value for q in QType], required=True)
    gen.add_argument("--w", type=float, default=12.0, help="room width")
    gen.add_argument("--eps-frac", type=float, default=0.02)
    gen.add_argument("--out", required=True)

    stats = sub.add_parser(
        "stats", help="summarize a dataset file or run the standard sweeps"
    )
    stats.add_argument("--dataset", help="existing dataset to summarize")
    stats.add_argument("--sweep", action="store_true", help="run the standard sweeps")
    stats.add_argument("--seed", type=int, default=0, help="sweep master seed")
    stats.add_argument("--rooms", type=int, default=100, help="instances per sweep cell")
    stats.add_argument(
        "--setting",
        action="append",
        choices=[s.value for s in Setting],
        help="restrict the sweep to these settings (repeatable; default all)",
    )
    stats.add_argument(
        "--d", action="append", type=int,
        help=f"grid sizes to sweep (default {' and '.join(map(str, D_VALUES))})",
    )
    stats.add_argument("--out", help="CSV output path for sweep results")

    gr = sub.add_parser("grade", help="grade an answers file against a dataset")
    gr.add_argument("--dataset", required=True)
    gr.add_argument("--answers", required=True)
    gr.add_argument("--out", help="metrics output path (.json or .csv)")
    gr.add_argument("--exclude-flagged", action="store_true")

    ev = sub.add_parser("eval", help="query a model or stub over a dataset")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out", required=True, help="evaluation records JSONL output path")
    ev.add_argument("--metrics", help="metrics output path (.json or .csv)")
    ev.add_argument("--manifest", help="run manifest output path (JSON)")
    ev.add_argument("--stub", choices=sorted(STUB_FACTORIES))
    ev.add_argument("--base-url")
    ev.add_argument("--model")
    ev.add_argument("--api-key-env", default="QSRBENCH_API_KEY")
    ev.add_argument("--api-version", default="2023-09-15-preview")
    ev.add_argument("--temperature", type=float, default=0.0)
    ev.add_argument("--preamble", choices=["plain", "task_described"], default="plain")
    ev.add_argument("--concurrency", type=int, default=4)
    ev.add_argument("--stub-seed", type=int, default=0)

    ti = sub.add_parser("tightness", help="print constraint tightness for a grid size")
    ti.add_argument("--d", type=int, required=True)

    return parser


def _cmd_generate(args) -> int:
    config = GenConfig(
        n=args.n,
        d=args.d,
        m=args.m,
        setting=Setting(args.setting),
        view=ViewFrame(args.view),
        qtype=QType(args.qtype),
        w=args.w,
        eps_frac=args.eps_frac,
    )
    build = generate_dataset(args.seed, args.count, config)
    write_dataset(args.out, build.instances)
    print(f"wrote {len(build.instances)} instances to {args.out}")
    print(f"sha256: {dataset_sha256(args.out)}")
    if build.yes_fraction is not None:
        print(f"yes fraction: {build.yes_fraction:.3f}")
    print(f"unsatisfiable stories: {build.unsat_base_count}")
    return 0


def _cmd_stats(args) -> int:
    if args.sweep:
        settings = (
            tuple(Setting(s) for s in args.setting) if args.setting else tuple(Setting)
        )
        d_values = tuple(args.d) if args.d else D_VALUES
        report = run_sweeps(
            args.seed, rooms_per_cell=args.rooms, settings=settings, d_values=d_values
        )
        csv_text = report_to_csv(report)
        if args.out:
            Path(args.out).write_text(csv_text, encoding="utf-8")
            print(f"wrote {len(report.rows)} sweep cells to {args.out}")
        else:
            print(csv_text, end="")
        return 0
    if not args.dataset:
        print("stats: provide --dataset or --sweep", file=sys.stderr)
        return 1
    instances = read_dataset(args.dataset)
    cells = Counter(
        (i.config.setting.value, i.config.view.value, i.config.qtype.value,
         i.config.n, i.config.m, i.config.d)
        for i in instances
    )
    print(f"{len(instances)} instances; sha256 {dataset_sha256(args.dataset)}")
    for key, count in sorted(cells.items()):
        setting, view, qtype, n, m, d = key
        print(f"  {setting:14s} {view:12s} {qtype} n={n} m={m} d={d}: {count}")
    labels = Counter(i.query.label for i in instances if i.query.label)
    if labels:
        print(f"  labels: {dict(sorted(labels.items()))}")
    return 0


def _cmd_grade(args) -> int:
    instances = read_dataset(args.dataset)
    answers = read_answers(args.answers)
    known = {inst.id for inst in instances}
    for ans_id in answers:
        if ans_id not in known:
            print(
                f"grade: answer id {ans_id} does not appear in the dataset",
                file=sys.stderr,
            )
            return 2
    for inst in instances:
        if inst.id not in answers:
            print(f"grade: no answer for instance id {inst.id}", file=sys.stderr)
            return 2
    results = []
    for inst in instances:
        parsed = parse_answer(answers[inst.id], inst.query.qtype, inst.config.view)
        results.append(grade(inst, parsed))
    metrics = aggregate(instances, results, exclude_flagged=args.exclude_flagged)
    total = sum(m.total for m in metrics)
    correct = sum(m.correct for m in metrics)
    if total:
        print(f"graded {total} answers; overall accuracy {correct / total:.3f}")
    else:
        print("graded 0 answers")
    for m in metrics:
        print(f"  {m.group}: {m.correct}/{m.total}")
    if args.out:
        _write_metrics(args.out, metrics)
    return 0


def _write_metrics(path: str, metrics) -> None:
    """Write metrics as CSV to a ``.csv`` path, else as JSON."""
    if path.endswith(".csv"):
        Path(path).write_text(metrics_to_csv(metrics), encoding="utf-8")
    else:
        write_json(path, metrics_to_json(metrics))
    print(f"metrics written to {path}")


def _cmd_eval(args) -> int:
    if args.stub:
        responder = STUB_FACTORIES[args.stub](seed=args.stub_seed)
        mode = f"stub:{args.stub}"
        endpoint = None
    else:
        if not args.base_url or not args.model:
            print("eval: provide --stub or both --base-url and --model", file=sys.stderr)
            return 1
        endpoint = ModelEndpoint(
            args.base_url,
            args.model,
            api_key_env=args.api_key_env,
            api_version=args.api_version,
            temperature=args.temperature,
        )
        endpoint.api_key()  # fail before any work if the key env var is unset
        responder = endpoint_responder(endpoint)
        mode = "endpoint"
    instances = read_dataset(args.dataset)
    manifest_extra: dict[str, object] = {"dataset_sha256": dataset_sha256(args.dataset)}
    if endpoint is not None:
        manifest_extra.update(endpoint.public_manifest())
    run = run_eval(
        instances,
        responder,
        mode,
        args.concurrency,
        manifest_extra,
        preamble_mode=args.preamble,
    )
    write_eval_records(args.out, run.records)
    errors = [r for r in run.records if r.error]
    print(f"wrote {len(run.records)} records to {args.out} ({len(errors)} errors)")
    print(f"accuracy: {run.accuracy:.3f}")
    if args.metrics:
        _write_metrics(args.metrics, run.metrics)
    if args.manifest:
        write_json(args.manifest, run.manifest)
        print(f"manifest written to {args.manifest}")
    return 0


def _cmd_tightness(args) -> int:
    table = tightness_table(args.d)  # a bad grid size fails before any output
    print(f"{'constraint':>10s} {'analytic':>10s} {'empirical':>10s} {'abs error':>10s}")
    for report in table:
        print(
            f"{report.kind:>10s} {float(report.analytic):10.4f} "
            f"{float(report.empirical):10.4f} {report.abs_error:10.4f}"
        )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "grade": _cmd_grade,
    "eval": _cmd_eval,
    "tightness": _cmd_tightness,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"qsrbench: error: {exc}", file=sys.stderr)
        return 1
    except (GenerationError, EvalError, OSError) as exc:
        print(f"qsrbench: failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
