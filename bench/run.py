"""The fedrec benchmark.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload medium --seed 0 --seconds 60 --trace 0

Each run writes the workload's input with ``fedrec.synthetic`` from
``--seed`` and then, for about ``--seconds`` seconds, runs iterations of the
simulator's command pipeline, each in a fresh child process
(``bench/child.py``): set-up (start, ``import fedrec``, load + split), then
``fedrec pretrain`` -> ``fedrec train --warm-start`` ->
``fedrec evaluate --checkpoint`` through ``fedrec.cli.main``. The load is a
closed loop: one process at a time, commands one after another,
``train.threads`` left at its default of 1, and BLAS pinned to one thread.
A few set-up-only children run first so that ``setup_s`` is a median over
several set-ups.

The speed of a shared host drifts by 10-30% over minutes, more than a gate's
bound allows between runs. So a fixed calibration task
(``bench/calibrate.py``, independent of ``src/``) runs in its own process
before the first child, after the set-up-only children and after every
iteration, and every timing of the run is scaled by ``REFERENCE_CAL_S`` /
(mean of the run's calibrations): times are reported in seconds of a host on
which the calibration takes ``REFERENCE_CAL_S``. The raw figures are kept in the information record.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics (medians over the iterations). With ``--trace 1`` the
run alternates untraced and traced iterations and reports per-layer metrics
from the traced ones (``bench/tracer.py``), plus the tracing overhead. The
line before it is an information record: environment, per-iteration figures,
artifact hashes and whether they match ``bench/golden.json``.

An iteration fails when a command exits non-zero, an artifact is missing, a
metric is non-finite, or the sha256 of its four deterministic artifacts
differs from the other iterations of the run (traced ones included).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import mean, median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
ARTIFACTS = ("checkpoint.txt", "rounds.jsonl", "clusters.csv", "results.json")
SETUP_ONLY_CHILDREN = 3
# a run, hung children included, ends well inside the 180 s it is allowed
RUN_DEADLINE_S = 170.0
BLAS_THREADS = "1"
# median seconds of one calibration pass on the 2-vCPU VM the benchmark was
# defined on; a constant, so that scaled times of two commits compare
REFERENCE_CAL_S = 0.12
# figures that scale with host speed; client_updates_per_s scales inversely
TIME_FIGURES = ("setup_s", "pretrain_s", "train_s", "evaluate_s", "wall_s", "cpu_s")
TIME_UNITS = ("s", "ms")


@dataclass(frozen=True)
class Workload:
    users: int
    items: int
    per_user: int
    flags: tuple[str, ...]


# Every workload uses the two-community generator and runs pretrain eta 0.3
# and train eta 10; none sets train.threads, so later changes to threading
# do not change what is measured.
_COMMON = ("--train.eta", "10", "--pretrain.eta", "0.3")
WORKLOADS = {
    # the README quickstart: every user selected every round, privacy off;
    # about 6,000 star-graph client updates dominate training. Runnable, but
    # not among the gated workloads in BENCHMARK.json: on a shared 2-vCPU
    # host its timings spread up to 0.26 (IQR / median over ten seeds), past
    # the largest bound a gate may use, while medium and private stayed
    # within 0.07 to 0.12
    "quick": Workload(
        200, 100, 18,
        _COMMON + ("--model.dim", "16", "--train.max_rounds", "30", "--cluster.k", "2"),
    ),
    # dense InfoNCE, per-user eval tables and k-means dominate; client
    # updates are a small share
    "medium": Workload(
        2000, 1000, 30,
        _COMMON
        + ("--model.dim", "64", "--train.max_rounds", "5", "--cluster.k", "10",
           "--train.clients_per_round", "256"),
    ),
    # the non-star, noised client path: LDP, decoys, masking, neighbour
    # expansion, partial participation
    "private": Workload(
        400, 200, 20,
        _COMMON
        + ("--model.dim", "32", "--train.max_rounds", "20", "--cluster.k", "4",
           "--train.clients_per_round", "100", "--privacy.enabled", "true",
           "--privacy.pseudo_items_p", "5", "--privacy.mask_ratio", "0.2",
           "--graph.neighbor_expansion", "true"),
    ),
    # a few-second run of every code path, for the benchmark's own self-test;
    # not in BENCHMARK.json either
    "tiny": Workload(
        40, 20, 8,
        _COMMON
        + ("--model.dim", "8", "--train.max_rounds", "5", "--cluster.k", "2",
           "--train.clients_per_round", "20", "--privacy.enabled", "true",
           "--privacy.pseudo_items_p", "2", "--privacy.mask_ratio", "0.2",
           "--graph.neighbor_expansion", "true"),
    ),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "train_s": "s",
    "client_updates_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Printed in the information record but not gated, because their spread over
# ten seeds can exceed the largest bound a gate may use (0.25). Result
# quality is fixed by the seed's data: IQR / median 0.17 to 0.41 on the three
# workloads. pretrain_s and evaluate_s last 0.05 to 0.5 s on quick and
# private, short enough that the shared machine's drift between runs moved
# them by up to 0.26. Both commands stay inside the gated wall_s, and a change
# to the results is caught by the byte-identity check.
UNGATED_UNITS = {
    "pretrain_s": "s",
    "evaluate_s": "s",
    "test_ndcg20": "ratio",
    "test_recall20": "ratio",
}
TRACE_UNITS = {"trace.overhead_s": "s", "trace.overhead_share": "ratio", "trace.spans": "count"}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_child(spec: dict, log: Path, deadline: float) -> tuple[int, dict | None]:
    """Start bench/child.py, wait for it (killing it at the monotonic
    ``deadline``) and return its exit status and report."""
    out = Path(spec["out"])
    spec = dict(spec, t0=time.monotonic())
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            env=_child_env(),
            stdout=fh,
            stderr=subprocess.STDOUT,
        )
        try:
            status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            status = -1
        finally:
            # on a timeout, or if this process is interrupted, no child
            # outlives the run
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    report_path = out / "child.json"
    if status != 0 or not report_path.exists():
        return status, None
    return status, json.loads(report_path.read_text())


def _calibrate(log: Path, deadline: float) -> float | None:
    """Seconds of one calibration pass right now (bench/calibrate.py in a
    fresh process), or None when it failed."""
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py")],
            env=_child_env(),
            stdout=subprocess.PIPE,
            stderr=fh,
            text=True,
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out = ""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    try:
        cal = json.loads(out.splitlines()[-1])["cal_s"]
    except (IndexError, KeyError, ValueError):
        return None
    return cal if math.isfinite(cal) and cal > 0 else None


def _scaled(figures: dict, factor: float) -> dict:
    """``figures`` in seconds of the reference host (``factor`` =
    REFERENCE_CAL_S / the run's mean calibration seconds)."""
    out = dict(figures)
    for name in TIME_FIGURES:
        if name in out:
            out[name] = figures[name] * factor
    if "client_updates_per_s" in out:
        out["client_updates_per_s"] = figures["client_updates_per_s"] / factor
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _valid_results(path: Path) -> bool:
    records = json.loads(path.read_text())
    keys = {(r["phase"], r["k"]) for r in records}
    return keys >= {("validation", 20), ("test", 20)} and all(
        0.0 <= r["ndcg"] <= r["recall"] <= 1.0 for r in records
    )


def _collect(report: dict, out: Path, users: int) -> dict | None:
    """Figures of one finished iteration, or None when it failed."""
    commands = report["commands"]
    if [c for c in ("pretrain", "train", "evaluate") if commands.get(c, {}).get("status") != 0]:
        return None
    train_dir = out / "train"
    if not all((train_dir / a).is_file() for a in ARTIFACTS):
        return None
    if not all(_valid_results(d / "results.json") for d in (train_dir, out / "evaluate")):
        return None
    with open(train_dir / "checkpoint.txt", encoding="utf-8") as fh:
        header = fh.readline().split()
    with open(train_dir / "clusters.csv", encoding="utf-8") as fh:
        cluster_rows = sum(1 for _ in fh) - 1
    if header[1:2] != [str(users)] or cluster_rows != users:
        return None
    results = json.loads((train_dir / "results.json").read_text())
    test20 = [r for r in results if r["phase"] == "test" and r["k"] == 20]
    with open(train_dir / "rounds.jsonl", encoding="utf-8") as fh:
        updates = sum(len(json.loads(line)["selected"]) for line in fh)
    figures = {
        "setup_s": report["setup_s"],
        "pretrain_s": commands["pretrain"]["s"],
        "train_s": commands["train"]["s"],
        "evaluate_s": commands["evaluate"]["s"],
        "wall_s": sum(commands[c]["s"] for c in ("pretrain", "train", "evaluate")),
        "cpu_s": sum(commands[c]["cpu_s"] for c in ("pretrain", "train", "evaluate")),
        "client_updates_per_s": updates / commands["train"]["s"],
        "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        "test_ndcg20": test20[0]["ndcg"],
        "test_recall20": test20[0]["recall"],
    }
    if not all(math.isfinite(v) for v in figures.values()):
        return None
    return {
        "figures": figures,
        "hashes": {a: _sha256(train_dir / a) for a in ARTIFACTS},
    }


def _src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src" / "fedrec").rglob("*.py"))
    )


def _environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "src_lines": _src_lines(),
    }


def _make_input(workload: Workload, seed: int, path: Path) -> None:
    cmd = [
        sys.executable, "-m", "fedrec.synthetic", str(path),
        "--users", str(workload.users), "--items", str(workload.items),
        "--per-user", str(workload.per_user), "--seed", str(seed),
    ]
    subprocess.run(cmd, env=_child_env(), check=True, stdout=subprocess.DEVNULL)


def _golden(name: str, seed: int) -> dict | None:
    path = BENCH / "golden.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text()).get(name)


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, information record)."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    data = work / "interactions.tsv"
    _make_input(workload, seed, data)

    base = {
        "root": str(ROOT),
        "data": str(data),
        "flags": [*workload.flags, "--seed", str(seed)],
        "trace": False,
        "setup_only": False,
    }
    # every child started counts as attempted, set-up-only ones included;
    # calibrations are not attempts, but one that fails fails the run
    attempted = failed = 0
    failures: list[str] = []
    calibrations: list[float | None] = []

    def calibrate(label: str) -> None:
        log = work / f"calibrate-{label}.log"
        cal = _calibrate(log, deadline)
        calibrations.append(cal)
        if cal is None:
            failures.append(f"calibration {label} failed; see {log}")
        else:
            log.unlink()

    calibrate("start")
    raw_setups: list[float] = []
    for i in range(SETUP_ONLY_CHILDREN):
        out, log = work / f"setup{i}", work / f"setup{i}.log"
        status, report = _run_child(dict(base, out=str(out), setup_only=True), log, deadline)
        attempted += 1
        if status == 0 and report is not None and math.isfinite(report["setup_s"]):
            raw_setups.append(report["setup_s"])
            log.unlink()
        else:
            failed += 1
            failures.append(f"set-up {i}: exit {status}; see {log}")
        shutil.rmtree(out, ignore_errors=True)
    calibrate("setup")

    # with tracing, iterations come in (untraced, traced) pairs; a new
    # iteration or pair starts only if one of median length still fits
    step = 2 if trace else 1
    n = 0
    iterations: list[dict] = []
    traced: list[dict] = []
    blocks: list[float] = []
    while n == 0 or n % step or (time.monotonic() - started + median(blocks) <= seconds):
        traced_now = trace and n % 2 == 1
        if n % step == 0:
            block_started = time.monotonic()
        out, log = work / f"iter{n}", work / f"iter{n}.log"
        status, report = _run_child(dict(base, out=str(out), trace=traced_now), log, deadline)
        n += 1
        attempted += 1
        calibrate(str(n))
        if n % step == 0:
            blocks.append(time.monotonic() - block_started)
        got = _collect(report, out, workload.users) if report is not None else None
        if got is None:
            failed += 1
            failures.append(f"iteration {n - 1}: exit {status}; see {log}")
        else:
            if traced_now:
                from tracer import layer_metrics, load_spans

                trace_data = load_spans(out / "spans.json")
                got["layers"] = layer_metrics(trace_data)
                got["spans"] = len(trace_data["spans"])
                got["absent"] = trace_data["absent"]
                got["hook_failed"] = trace_data["hook_failed"]
                traced.append(got)
            else:
                iterations.append(got)
                raw_setups.append(got["figures"]["setup_s"])
            log.unlink()
        shutil.rmtree(out, ignore_errors=True)

    # one host-speed factor for the whole run, from every calibration in it
    done = [c for c in calibrations if c is not None]
    scale = REFERENCE_CAL_S / mean(done) if done else None
    if scale is None:
        iterations, traced = [], []
    setups = [value * scale for value in raw_setups] if scale else []
    for got in iterations + traced:
        got["raw"] = got["figures"]
        got["figures"] = _scaled(got["raw"], scale)
    if traced:
        from tracer import LAYER_METRICS

        for got in traced:
            got["layers"] = {
                metric: value * scale if LAYER_METRICS[metric][0] in TIME_UNITS else value
                for metric, value in got["layers"].items()
            }

    # the first successful iteration fixes the reference hashes; any other
    # iteration of the same run (traced ones too) that differs has failed
    reference = (iterations + traced)[0]["hashes"] if iterations + traced else None
    for group in (iterations, traced):
        for got in list(group):
            if got["hashes"] != reference:
                group.remove(got)
                failed += 1
                failures.append("artifact hashes differ from the run's first iteration")

    golden = _golden(name, seed)
    info = {
        "workload": name,
        "environment": _environment(seed),
        "iterations": len(iterations),
        "traced_iterations": len(traced),
        "setups": len(setups),
        "per_iteration": [g["figures"] for g in iterations],
        "per_iteration_raw": [g["raw"] for g in iterations],
        "setup_samples_s": setups,
        "setup_samples_raw_s": raw_setups,
        "reference_cal_s": REFERENCE_CAL_S,
        "calibration_s": calibrations,
        "host_scale": scale,
        "ungated": {
            metric: {"value": median(g["figures"][metric] for g in iterations), "unit": unit}
            for metric, unit in UNGATED_UNITS.items()
        } if iterations else None,
        "hashes": reference,
        "golden_match": None if golden is None or reference is None else golden == reference,
        "failures": failures,
    }
    metrics: dict[str, dict] = {}
    if not trace and iterations:
        for metric, unit in END_TO_END_UNITS.items():
            values = setups if metric == "setup_s" else [g["figures"][metric] for g in iterations]
            metrics[metric] = {"value": median(values), "unit": unit}
    if trace and traced and iterations:
        from tracer import LAYER_METRICS

        info["absent_spans"] = sorted(set().union(*(g["absent"] for g in traced)))
        info["hook_failed"] = sorted(set().union(*(g["hook_failed"] for g in traced)))
        for metric, (unit, _, _) in LAYER_METRICS.items():
            values = [g["layers"][metric] for g in traced if metric in g["layers"]]
            if len(values) == len(traced):
                metrics[metric] = {"value": median(values), "unit": unit}
        untraced_wall = median(g["figures"]["wall_s"] for g in iterations)
        traced_wall = median(g["figures"]["wall_s"] for g in traced)
        overhead = {
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
            "trace.spans": median(g["spans"] for g in traced),
        }
        for metric, value in overhead.items():
            metrics[metric] = {"value": value, "unit": TRACE_UNITS[metric]}

    correct = failed == 0 and None not in calibrations and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (work / "report.json").write_text(json.dumps({"result": result, "info": info}, indent=2))
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fedrec" / "__init__.py").is_file():
        print(f"error: no fedrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
