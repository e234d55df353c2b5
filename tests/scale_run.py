"""Wall time and max RSS of pre-training and training at a paper-scale shape.

Opt-in and not part of tier-1, like ``tests/reference_run.py``. From the root
of a checkout:

    PYTHONPATH=src python tests/scale_run.py

writes a synthetic input with ``fedrec.synthetic`` (by default the shape of
MovieLens-1M: 6,040 users, 3,706 items, 165 interactions per user, 996,600
in all), then runs, each in its own child process and one after the other:

- ``pretrain --pretrain.epochs 1 --model.dim 64``;
- ``train --warm-start`` on that table for 5 rounds, ``cluster.k`` 10 and
  256 clients a round;

and prints every step's wall time and max RSS. The children import the
checkout's ``src`` and run BLAS on one thread.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FLAGS = (
    "--model.dim", "64", "--pretrain.epochs", "1", "--train.max_rounds", "5",
    "--cluster.k", "10", "--train.clients_per_round", "256", "--seed", "0",
)


def child(args: list[str]) -> tuple[float, float]:
    """Run ``python -m ARGS`` and return its wall seconds and max RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", *args], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - started
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(args)}: exit {os.waitstatus_to_exitcode(status)}")
    return seconds, usage.ru_maxrss / 1024  # kilobytes on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--users", type=int, default=6040)
    parser.add_argument("--items", type=int, default=3706)
    parser.add_argument("--per-user", type=int, default=165)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "interactions.tsv", Path(tmp) / "run"
        common = ["--data.path", str(data), "--out", str(out), *FLAGS]
        steps = {
            "synthetic": [
                "fedrec.synthetic", str(data), "--users", str(args.users),
                "--items", str(args.items), "--per-user", str(args.per_user),
            ],
            "pretrain": ["fedrec.cli", "pretrain", *common],
            "train": ["fedrec.cli", "train", *common, "--warm-start", str(out / "pretrained.txt")],
        }
        print(f"{args.users} users, {args.items} items, {args.per_user} per user")
        for name, step in steps.items():
            seconds, rss = child(step)
            print(f"{name:<10} {seconds:7.2f} s  {rss:7.0f} MB max RSS", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
