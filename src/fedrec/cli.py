"""Command-line entry points: pretrain, train, evaluate, simulate.

Flags use the same dotted names as the config file (`--train.eta 0.02`) and
take precedence over it; `--seed` is shorthand for `train.seed`. `pretrain`
and `train` share the server's warm start, and `train` and `evaluate` share
its per-user evaluation models, ranked one user at a time. Exit codes: 0 ok,
2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .config import REGISTRY, ExperimentConfig, build_config, read_config_file
from .data import SplitDataset, leave_one_out_split, load_interactions
from .errors import ConfigError, DataError, NumericError
from .evaluation import PHASES, evaluate_cutoffs
from .gnn import load_checkpoint, save_checkpoint
from .privacy import privacy_budget
from .server import (
    eval_model,
    eval_weights,
    personalized_models,
    privacy_settings,
    run_training,
    warm_up,
)

COMMANDS = ("pretrain", "train", "evaluate", "simulate")
# the paper's three reduced variants are each one setting of an existing key
_ABLATION_SUGAR = {
    "no_pretrain": ("pretrain.epochs", "0"),
    "no_personalization": ("personalization.alpha", "0,0,1"),
    "no_clustering": ("cluster.k", "1"),
}

USAGE = """\
usage: fedrec COMMAND [options]

commands:
  pretrain   contrastive warm-up only; writes pretrained.txt + pretrain_summary.json
  train      federated training; writes checkpoint.txt, rounds.jsonl, clusters.csv, results.json
  evaluate   rank a checkpoint; writes results.json
  simulate   pretrain, then train warm-started from it

options:
  --config PATH        flat `key = value` config file
  --out DIR            output directory (default: current directory)
  --checkpoint PATH    checkpoint to evaluate (evaluate)
  --warm-start PATH    warm-start checkpoint (train)
  --seed N             shorthand for train.seed
  --no_pretrain        shorthand for --pretrain.epochs 0
  --no_personalization shorthand for --personalization.alpha 0,0,1
  --no_clustering      shorthand for --cluster.k 1
  --SECTION.KEY VALUE  override any config key, e.g. --train.eta 0.02
"""


def _parse_args(argv: list[str]):
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return None
    command = argv[0]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    options = {"out": ".", "config": None, "checkpoint": None, "warm_start": None}
    overrides: dict[str, str] = {}
    i = 1
    while i < len(argv):
        token = argv[i]
        if not token.startswith("--"):
            raise ConfigError(f"unexpected argument {token!r}")
        body = token[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        elif body in _ABLATION_SUGAR:
            key, value = _ABLATION_SUGAR[body]
            i += 1
        else:
            if i + 1 >= len(argv):
                raise ConfigError(f"flag --{body} needs a value")
            key, value = body, argv[i + 1]
            i += 2
        if key in ("config", "out", "checkpoint"):
            options[key] = value
        elif key == "warm-start":
            options["warm_start"] = value
        elif key == "seed":
            overrides["train.seed"] = value
        elif key in REGISTRY:
            overrides[key] = value
        else:
            raise ConfigError(f"unknown flag --{key}")
    return command, options, overrides


def _load_split(cfg: ExperimentConfig) -> SplitDataset:
    if not cfg.data.path:
        raise ConfigError("data.path is required")
    try:
        ds = load_interactions(cfg.data.path)
    except FileNotFoundError as exc:
        raise DataError(f"data file not found: {cfg.data.path}") from exc
    return leave_one_out_split(ds)


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _results_records(cfg, split, models, final_round) -> list[dict]:
    by_phase = evaluate_cutoffs(split, models, cfg.eval.cutoffs)
    return [
        {
            "phase": phase,
            "k": k,
            "recall": by_phase[phase][k].recall,
            "ndcg": by_phase[phase][k].ndcg,
            "n_users": split.n_users,
            "seed": cfg.train.seed,
            "round": final_round,
        }
        for phase in PHASES
        for k in cfg.eval.cutoffs
    ]


def cmd_pretrain(cfg: ExperimentConfig, out: Path) -> int:
    split = _load_split(cfg)
    result = warm_up(cfg, split)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.table, out / "pretrained.txt", pretrained=True)
    _write_json(
        out / "pretrain_summary.json",
        {
            "epochs": cfg.pretrain.epochs,
            "losses": list(result.losses),
            "seed": cfg.train.seed,
        },
    )
    print(f"pretrain: wrote {out / 'pretrained.txt'}")
    return 0


def cmd_train(cfg: ExperimentConfig, out: Path, warm_start: str | None) -> int:
    split = _load_split(cfg)
    warm_table = None
    if warm_start:
        warm_table, _flags = load_checkpoint(warm_start)
    if cfg.privacy.enabled and cfg.privacy.laplace_lambda > 0:
        eps = privacy_budget(privacy_settings(cfg).ldp)
        print(f"privacy: per-upload budget bound {eps:.4f}")
    result = run_training(cfg, split, warm_table=warm_table, verbose=True)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.checkpoint_table(), out / "checkpoint.txt")
    with open(out / "rounds.jsonl", "w", encoding="utf-8") as fh:
        for report in result.reports:
            fh.write(json.dumps(report.record(), sort_keys=True) + "\n")
    with open(out / "clusters.csv", "w", encoding="utf-8") as fh:
        fh.write("user_id,cluster_id\n")
        for user in range(split.n_users):
            fh.write(f"{user},{int(result.assignment.assignment[user])}\n")
    models = personalized_models(
        split,
        result.states,
        result.cluster_items,
        result.assignment,
        result.global_items,
        result.local_base,
        eval_weights(cfg),
        cfg,
    )
    _write_json(
        out / "results.json", _results_records(cfg, split, models, result.final_round)
    )
    print(f"train: wrote {out / 'checkpoint.txt'} ({result.final_round} effective rounds)")
    return 0


def cmd_evaluate(cfg: ExperimentConfig, out: Path, checkpoint: str | None) -> int:
    if not checkpoint:
        raise ConfigError("evaluate needs --checkpoint PATH")
    split = _load_split(cfg)
    table, _flags = load_checkpoint(checkpoint)
    if table.n_users != split.n_users or table.n_items != split.n_items:
        raise DataError("checkpoint does not match the dataset shape")
    # bare-model protocol: the checkpoint's own rows, no personalization mix
    models = (
        (user, eval_model(cfg, split, user, table.users[user], table.items))
        for user in sorted(split.train)
    )
    records = _results_records(cfg, split, models, 0)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "results.json", records)
    for rec in records:
        print(
            f"{rec['phase']:>10} @ {rec['k']:<3d} recall {rec['recall']:.4f}  "
            f"ndcg {rec['ndcg']:.4f}"
        )
    return 0


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    if cfg.pretrain.epochs == 0:
        return cmd_train(cfg, out, warm_start=None)
    status = cmd_pretrain(cfg, out)
    if status:
        return status
    return cmd_train(cfg, out, warm_start=str(out / "pretrained.txt"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        parsed = _parse_args(args)
        if parsed is None:
            return 0
        command, options, overrides = parsed
        file_overrides = (
            read_config_file(options["config"]) if options["config"] else {}
        )
        cfg = build_config(file_overrides, overrides)
        out = Path(options["out"])
        if command == "pretrain":
            return cmd_pretrain(cfg, out)
        if command == "train":
            return cmd_train(cfg, out, options["warm_start"])
        if command == "evaluate":
            return cmd_evaluate(cfg, out, options["checkpoint"])
        return cmd_simulate(cfg, out)
    except (ConfigError, DataError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
