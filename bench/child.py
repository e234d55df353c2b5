"""One benchmark iteration, run in a fresh process by ``bench/run.py``.

Usage::

    python3 bench/child.py SPEC_JSON

The spec names the checkout root, the input file, the output directory, the
parent's monotonic clock reading taken just before this process was started
(``t0``), the command-line flags shared by every command, and two switches:
``setup_only`` (stop after the set-up step) and ``trace`` (wrap the public
``fedrec`` functions and write the spans out at the end).

Set-up is: start of this process, ``import fedrec``, then
``load_interactions`` + ``leave_one_out_split`` of the input. After it the
three commands run one after another through ``fedrec.cli.main``:
``pretrain``, ``train --warm-start``, ``evaluate --checkpoint``. The timings,
exit codes and ``ru_maxrss`` go to ``<out>/child.json``. A command that exits
non-zero stops the iteration; the parent counts it as failed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _import_fedrec(root: Path):
    sys.path.insert(0, str(root / "src"))
    import fedrec

    # a copy of fedrec installed elsewhere must not stand in for the one
    # under test
    if not Path(fedrec.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"fedrec imported from {fedrec.__file__}, not {root / 'src'}")


def _commands(spec: dict, out: Path) -> list[tuple[str, list[str]]]:
    common = ["--data.path", spec["data"], *spec["flags"]]
    pre, train, evaluate = out / "pretrain", out / "train", out / "evaluate"
    return [
        ("pretrain", ["pretrain", "--out", str(pre), *common]),
        (
            "train",
            ["train", "--out", str(train), "--warm-start", str(pre / "pretrained.txt"), *common],
        ),
        (
            "evaluate",
            ["evaluate", "--out", str(evaluate), "--checkpoint", str(train / "checkpoint.txt"), *common],
        ),
    ]


def _timed(command) -> dict:
    started, cpu_started = time.perf_counter(), time.process_time()
    status = command()
    return {
        "s": time.perf_counter() - started,
        "cpu_s": time.process_time() - cpu_started,
        "status": status,
    }


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    root = Path(spec["root"])
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)

    _import_fedrec(root)
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    from fedrec import cli, data

    if tracer is not None:
        tracer.phase = "setup"
    data.leave_one_out_split(data.load_interactions(spec["data"]))
    report: dict = {"setup_s": time.monotonic() - spec["t0"], "commands": {}}

    if not spec["setup_only"]:
        for name, args in _commands(spec, out):
            if tracer is None:
                report["commands"][name] = _timed(lambda: cli.main(args))
            else:
                tracer.phase = name
                with tracer.span(f"cli.{name}"):
                    report["commands"][name] = _timed(lambda: cli.main(args))
            if report["commands"][name]["status"] != 0:
                break

    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(out / "spans.json")
    (out / "child.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
