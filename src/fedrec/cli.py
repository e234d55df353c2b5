"""Command-line entry points: pretrain, train, evaluate, simulate.

Flags use the same dotted names as the config file (`--train.eta 0.02`) and
take precedence over it; `--seed` is shorthand for `train.seed`. `main`
picks the table each command uses: the server's warm-up table (written by
`pretrain` and `simulate`), or a loaded `--warm-start` or `--checkpoint`
file. `train` and `evaluate` share the server's evaluation models, scored and
ranked in blocks of users. Exit codes: 0 ok, 2 config error, 3 data error,
4 numeric failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .config import REGISTRY, ExperimentConfig, build_config, read_config_file
from .data import SplitDataset, leave_one_out_split, load_interactions
from .errors import ConfigError, DataError, NumericError
from .evaluation import EVAL_BLOCK, PHASES, evaluate_cutoffs, rank_metrics
from .gnn import EmbeddingTable, load_checkpoint, save_checkpoint
from .privacy import privacy_budget
from .server import eval_models, run_training, warm_up

COMMANDS = ("pretrain", "train", "evaluate", "simulate")
# the paper's three reduced variants are each one setting of an existing key
_ABLATION_SUGAR = {
    "no_pretrain": ("pretrain.epochs", "0"),
    "no_personalization": ("personalization.alpha", "0,0,1"),
    "no_clustering": ("cluster.k", "1"),
}
# flags that only one command reads
_COMMAND_FLAGS = {"checkpoint": "evaluate", "warm-start": "train"}

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
    options = {"out": ".", "config": None, "checkpoint": None, "warm-start": None}
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
        if key in ("config", "out", "checkpoint", "warm-start"):
            options[key] = value
        elif key == "seed":
            overrides["train.seed"] = value
        elif key in REGISTRY:
            overrides[key] = value
        else:
            raise ConfigError(f"unknown flag --{key}")
    for flag, only in _COMMAND_FLAGS.items():
        if options[flag] is not None and command != only:
            raise ConfigError(f"--{flag} is only for {only}, not {command}")
    return command, options, overrides


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _results_records(cfg, split, by_phase, final_round) -> list[dict]:
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


def _load_table(path: str, split: SplitDataset) -> EmbeddingTable:
    """A checkpoint's table; its N users and M items must be the split's."""
    table, _flags = load_checkpoint(path)
    shape, data = (table.n_users, table.n_items), (split.n_users, split.n_items)
    if shape != data:
        raise DataError(f"{path}: (users, items) shape {shape} does not match the data's {data}")
    return table


def cmd_pretrain(cfg: ExperimentConfig, split: SplitDataset, out: Path) -> EmbeddingTable:
    """Warm up, write ``pretrained.txt`` and its summary, return the table."""
    result = warm_up(cfg, split)
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
    return result.table


def cmd_train(
    cfg: ExperimentConfig, split: SplitDataset, out: Path, table: EmbeddingTable
) -> None:
    if cfg.privacy.enabled and cfg.privacy.laplace_lambda > 0:
        eps = privacy_budget(cfg.privacy)
        print(f"privacy: per-upload budget bound {eps:.4f}")
    result = run_training(cfg, split, table, verbose=True)
    save_checkpoint(result.checkpoint_table(), out / "checkpoint.txt")
    with open(out / "rounds.jsonl", "w", encoding="utf-8") as fh:
        for report in result.reports:
            fh.write(json.dumps(report.record(), sort_keys=True) + "\n")
    with open(out / "clusters.csv", "w", encoding="utf-8") as fh:
        fh.write("user_id,cluster_id\n")
        for user in range(split.n_users):
            fh.write(f"{user},{int(result.assignment.assignment[user])}\n")
    by_phase = rank_metrics(result.ranks, cfg.eval.cutoffs)
    _write_json(out / "results.json", _results_records(cfg, split, by_phase, result.final_round))
    print(f"train: wrote {out / 'checkpoint.txt'} ({result.final_round} effective rounds)")


def cmd_evaluate(
    cfg: ExperimentConfig, split: SplitDataset, out: Path, table: EmbeddingTable
) -> None:
    # bare-model protocol: the checkpoint's own rows, no personalization mix
    n = split.n_users
    blocks = (list(range(i, min(i + EVAL_BLOCK, n))) for i in range(0, n, EVAL_BLOCK))
    models = (pair for block in blocks for pair in eval_models(cfg, split, block, table).items())
    by_phase = evaluate_cutoffs(split, models, cfg.eval.cutoffs)
    records = _results_records(cfg, split, by_phase, 0)
    _write_json(out / "results.json", records)
    for rec in records:
        print(
            f"{rec['phase']:>10} @ {rec['k']:<3d} recall {rec['recall']:.4f}  "
            f"ndcg {rec['ndcg']:.4f}"
        )


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
        if command == "evaluate" and not options["checkpoint"]:
            raise ConfigError("evaluate needs --checkpoint PATH")
        if not cfg.data.path:
            raise ConfigError("data.path is required")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use {out} as the output directory: {exc}") from exc
        split = leave_one_out_split(load_interactions(cfg.data.path))
        p = cfg.privacy.pseudo_items_p
        free = split.n_items - int((split.indptr[1:] - split.indptr[:-1]).max())
        if 0 < p and free <= p:
            raise ConfigError(f"privacy.pseudo_items_p must be below {free} to leave negatives")
        if command == "evaluate":
            cmd_evaluate(cfg, split, out, _load_table(options["checkpoint"], split))
            return 0
        if command in ("pretrain", "simulate"):  # simulate trains it in memory
            table = cmd_pretrain(cfg, split, out)
        elif options["warm-start"]:
            table = _load_table(options["warm-start"], split)
            if table.dim != cfg.model.dim:
                raise ConfigError(
                    f"model.dim is {cfg.model.dim} but the warm-start table has dim {table.dim}"
                )
        else:
            table = warm_up(cfg, split).table
        if command != "pretrain":
            cmd_train(cfg, split, out, table)
        return 0
    except (ConfigError, DataError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
