"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``fedrec`` modules from outside the
package: nothing under ``src/`` is edited. Each wrapped call records a span
``(name, start, end, parent)`` in memory; the spans are written out once, at
the end of the run. Counts come from the arguments and return values of the
wrapped calls, so they repeat exactly from run to run.

A wrapped function is replaced in every loaded ``fedrec`` module that holds
it, because modules import each other's functions by name
(``from .client import client_update``). A target that no longer exists is
recorded in ``absent`` and every metric built on it is left out of the
report instead of failing the run. So is every count whose hook no longer
fits the function's arguments or result.

The tracer assumes one thread, which is how the benchmark runs ``fedrec``
(``train.threads`` stays at its default of 1).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: set[str] = set()
        self.hook_failed: set[str] = set()
        self.phase = ""  # the CLI command being run; hooks may read it
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name: str, fn, hook=None):
        """``fn`` with a span around each call; ``hook(tracer, args, kwargs,
        result)`` runs after the call, in a span of its own so that its cost
        counts as tracing overhead and not as the caller's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None and name not in self.hook_failed:
                with self.span("trace.hook"):
                    try:
                        hook(self, args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        self.hook_failed.add(name)
            return result

        return traced

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "absent": sorted(self.absent),
            "hook_failed": sorted(self.hook_failed),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def load_spans(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    names = payload["names"]
    payload["spans"] = [(names[n], a, b, p) for n, a, b, p in payload["spans"]]
    return payload


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


# --- what is wrapped -------------------------------------------------------


def _hook_client_graph(t, args, kwargs, cg):
    if t.phase == "train":
        t.counts["privacy.pseudo_rows"] += len(cg.pseudo_items)


def _hook_checkpoint_save(t, args, kwargs, _):
    t.counts["gnn.checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _hook_sim_cells(t, args, kwargs, _):
    view = _arg(args, kwargs, 0, "view1")
    t.counts["pretrain.sim_cells"] += len(view.users) ** 2 + len(view.items) ** 2


def _hook_epochs(t, args, kwargs, _):
    t.counts["pretrain.epochs"] += _arg(args, kwargs, 2, "epochs")


def _hook_ldp(t, args, kwargs, update):
    if _arg(args, kwargs, 1, "cfg").enabled:
        t.counts["privacy.ldp_rows"] += len(update.user_grads) + len(update.item_grads)


def _hook_client_update(t, args, kwargs, update):
    t.counts["client.upload_rows"] += len(update.item_grads)


def _hook_sample(t, args, kwargs, triples):
    cg = _arg(args, kwargs, 0, "cg")
    blocked = cg.true_items | cg.pseudo_items | cg.masked_items
    t.counts["client.triples"] += len(triples)
    t.counts["client.neg_pool_cells"] += cg.n_items - len(blocked)


def _hook_cluster(t, args, kwargs, assignment):
    t.counts["server.kmeans_iters"] += len(assignment.inertia_path)


def _hook_aggregate(t, args, kwargs, _):
    for upd in _arg(args, kwargs, 0, "updates"):
        t.counts["server.aggregate_rows_in"] += len(upd.user_grads) + len(upd.item_grads)


def _hook_eval_models(t, args, kwargs, models):
    states = _arg(args, kwargs, 1, "states")
    for user, model in models.items():
        t.counts["server.eval_bytes"] += model.item_rows.nbytes
        t.counts["server.eval_rows"] += len(model.item_rows)
        t.counts["server.eval_overlay_rows"] += len(states[user].local_rows)


def _hook_run_training(t, args, kwargs, result):
    t.samples["server.round_s"].extend(r.wall_time for r in result.reports)
    t.counts["server.best_round"] += result.final_round
    t.counts["server.rounds_run"] += len(result.reports)


def _hook_user_ranks(t, args, kwargs, ranks):
    t.counts["evaluation.users_ranked"] += len(ranks)


def _hook_target_rank(t, args, kwargs, rank):
    if rank is not None:
        t.counts["evaluation.items_scored"] += len(_arg(args, kwargs, 0, "model").item_rows)


# (module, attribute path, span name, hook)
TARGETS = [
    ("fedrec.data", "load_interactions", "data.load", None),
    ("fedrec.data", "leave_one_out_split", "data.split", None),
    ("fedrec.data", "build_client_graph", "data.client_graph", _hook_client_graph),
    ("fedrec.gnn", "propagate", "gnn.propagate", None),
    ("fedrec.gnn", "bpr_loss", "gnn.bpr_loss", None),
    ("fedrec.gnn", "bpr_gradients", "gnn.bpr_gradients", None),
    ("fedrec.gnn", "PropagationOperator.__post_init__", "gnn.operator_build", None),
    ("fedrec.gnn", "save_checkpoint", "gnn.checkpoint_save", _hook_checkpoint_save),
    ("fedrec.gnn", "load_checkpoint", "gnn.checkpoint_load", None),
    ("fedrec.pretrain", "assemble_pretraining_graph", "pretrain.graph", None),
    ("fedrec.pretrain", "pretrain", "pretrain.loop", _hook_epochs),
    ("fedrec.pretrain", "make_views", "pretrain.make_views", None),
    ("fedrec.pretrain", "compose_view", "pretrain.compose_view", None),
    ("fedrec.pretrain", "view_operator", "pretrain.view_operator", None),
    ("fedrec.pretrain", "ViewPipeline.backprop", "pretrain.backprop", None),
    ("fedrec.pretrain", "infonce_terms", "pretrain.infonce_terms", _hook_sim_cells),
    ("fedrec.pretrain", "infonce_loss", "pretrain.infonce_loss", None),
    ("fedrec.pretrain", "infonce_gradients", "pretrain.infonce_gradients", _hook_sim_cells),
    ("fedrec.privacy", "ldp_randomize", "privacy.ldp_randomize", _hook_ldp),
    ("fedrec.privacy", "randomize_vector", "privacy.randomize_vector", None),
    ("fedrec.privacy", "pseudo_item_gradients", "privacy.pseudo_grad", None),
    ("fedrec.client", "client_update", "client.update", _hook_client_update),
    ("fedrec.client", "sample_bpr_triples", "client.sample", _hook_sample),
    ("fedrec.client", "personalize", "client.personalize", None),
    ("fedrec.client", "local_item_table", "client.local_item_table", None),
    ("fedrec.client", "infer_user_embedding", "client.infer", None),
    ("fedrec.server", "cluster_users", "server.cluster", _hook_cluster),
    ("fedrec.server", "select_clients", "server.select", None),
    ("fedrec.server", "aggregate", "server.aggregate", _hook_aggregate),
    ("fedrec.server", "apply_update", "server.apply", None),
    ("fedrec.server", "build_eval_models", "server.eval_models", _hook_eval_models),
    ("fedrec.server", "_neighbor_setup", "server.neighbor_setup", None),
    ("fedrec.server", "run_training", "server.run_training", _hook_run_training),
    ("fedrec.evaluation", "evaluate_cutoffs", "evaluation.evaluate_cutoffs", None),
    ("fedrec.evaluation", "user_ranks", "evaluation.user_ranks", _hook_user_ranks),
    ("fedrec.evaluation", "target_rank", "evaluation.target_rank", _hook_target_rank),
    ("fedrec.rng", "substream", "rng.substream", None),
]


def install(tracer: Tracer, targets=TARGETS) -> None:
    """Wrap every target that exists; record the span names of the rest."""
    for module_name, path, span_name, hook in targets:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.add(span_name)
            continue
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            tracer.absent.add(span_name)
            continue
        traced = tracer.wrap(span_name, original, hook)
        if owner_path:
            setattr(owner, attr, traced)
            continue
        for name, module in list(sys.modules.items()):
            if name != "fedrec" and not name.startswith("fedrec."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


# --- per-layer metrics ------------------------------------------------------

# name -> (unit, kind, argument). Kinds: "self" sums the self time of the
# listed spans; "calls" counts spans; "count" reads a counter; "ratio"
# divides two counters; "p50_ms"/"p99_ms" take a percentile of span
# durations; "sample_p50" takes the median of recorded samples.
LAYER_METRICS = {
    "data.load_s": ("s", "self", ["data.load"]),
    "data.split_s": ("s", "self", ["data.split"]),
    "data.client_graph_s": ("s", "self", ["data.client_graph"]),
    "data.client_graph.calls": ("count", "calls", "data.client_graph"),
    "gnn.bpr_gradients_s": ("s", "self", ["gnn.bpr_gradients"]),
    "gnn.bpr_loss_s": ("s", "self", ["gnn.bpr_loss"]),
    "gnn.propagate_s": ("s", "self", ["gnn.propagate"]),
    "gnn.propagate.calls": ("count", "calls", "gnn.propagate"),
    "gnn.operator_build_s": ("s", "self", ["gnn.operator_build"]),
    "gnn.checkpoint_save_s": ("s", "self", ["gnn.checkpoint_save"]),
    "gnn.checkpoint_load_s": ("s", "self", ["gnn.checkpoint_load"]),
    "gnn.checkpoint_bytes": ("B", "count", "gnn.checkpoint_bytes"),
    "pretrain.graph_s": ("s", "self", ["pretrain.graph"]),
    "pretrain.view_s": (
        "s",
        "self",
        ["pretrain.make_views", "pretrain.compose_view", "pretrain.view_operator", "pretrain.backprop"],
    ),
    "pretrain.infonce_s": (
        "s",
        "self",
        ["pretrain.infonce_terms", "pretrain.infonce_loss", "pretrain.infonce_gradients"],
    ),
    "pretrain.step_s": ("s", "self", ["pretrain.loop"]),
    "pretrain.sim_cells": ("count", "count", "pretrain.sim_cells"),
    "pretrain.epochs": ("count", "count", "pretrain.epochs"),
    "privacy.ldp_s": ("s", "self", ["privacy.ldp_randomize", "privacy.randomize_vector"]),
    "privacy.ldp_rows": ("count", "count", "privacy.ldp_rows"),
    "privacy.pseudo_grad_s": ("s", "self", ["privacy.pseudo_grad"]),
    "privacy.pseudo_rows": ("count", "count", "privacy.pseudo_rows"),
    "client.update_s": ("s", "self", ["client.update"]),
    "client.update.calls": ("count", "calls", "client.update"),
    "client.update_ms_p50": ("ms", "p50_ms", "client.update"),
    "client.update_ms_p99": ("ms", "p99_ms", "client.update"),
    "client.upload_rows": ("count", "count", "client.upload_rows"),
    "client.sample_s": ("s", "self", ["client.sample"]),
    "client.neg_pool_use_ratio": ("ratio", "ratio", ("client.triples", "client.neg_pool_cells")),
    "client.personalize_s": ("s", "self", ["client.personalize", "client.local_item_table"]),
    "client.infer_s": ("s", "self", ["client.infer"]),
    "server.cluster_s": ("s", "self", ["server.cluster"]),
    "server.kmeans_iters": ("count", "count", "server.kmeans_iters"),
    "server.select_s": ("s", "self", ["server.select"]),
    "server.aggregate_s": ("s", "self", ["server.aggregate"]),
    "server.aggregate_rows_in": ("count", "count", "server.aggregate_rows_in"),
    "server.apply_s": ("s", "self", ["server.apply"]),
    "server.eval_models_s": ("s", "self", ["server.eval_models"]),
    "server.eval_bytes": ("B", "count", "server.eval_bytes"),
    "server.eval_overlay_share": ("ratio", "ratio", ("server.eval_overlay_rows", "server.eval_rows")),
    "server.neighbor_setup_s": ("s", "self", ["server.neighbor_setup"]),
    "server.loop_s": ("s", "self", ["server.run_training"]),
    "server.round_s_p50": ("s", "sample_p50", "server.round_s"),
    "server.effective_round_ratio": ("ratio", "ratio", ("server.best_round", "server.rounds_run")),
    "evaluation.rank_s": (
        "s",
        "self",
        ["evaluation.evaluate_cutoffs", "evaluation.user_ranks", "evaluation.target_rank"],
    ),
    "evaluation.users_ranked": ("count", "count", "evaluation.users_ranked"),
    "evaluation.items_scored": ("count", "count", "evaluation.items_scored"),
    "rng.substream_s": ("s", "self", ["rng.substream"]),
    "rng.substream.calls": ("count", "calls", "rng.substream"),
}

# the span each counter is recorded in, so that a counter whose span is
# absent is reported absent rather than as zero
_COUNTER_SPAN = {
    "gnn.checkpoint_bytes": "gnn.checkpoint_save",
    "pretrain.sim_cells": "pretrain.infonce_gradients",
    "pretrain.epochs": "pretrain.loop",
    "privacy.ldp_rows": "privacy.ldp_randomize",
    "privacy.pseudo_rows": "data.client_graph",
    "client.upload_rows": "client.update",
    "client.triples": "client.sample",
    "client.neg_pool_cells": "client.sample",
    "server.kmeans_iters": "server.cluster",
    "server.aggregate_rows_in": "server.aggregate",
    "server.eval_bytes": "server.eval_models",
    "server.eval_rows": "server.eval_models",
    "server.eval_overlay_rows": "server.eval_models",
    "server.round_s": "server.run_training",
    "server.best_round": "server.run_training",
    "server.rounds_run": "server.run_training",
    "evaluation.users_ranked": "evaluation.user_ranks",
    "evaluation.items_scored": "evaluation.target_rank",
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; metrics on absent spans are
    left out."""
    spans = trace["spans"]
    absent = set(trace["absent"])
    uncounted = absent | set(trace.get("hook_failed", ()))
    own = self_times(spans)
    self_by_name: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for (name, start, end, _), s in zip(spans, own):
        self_by_name[name] += s
        durations[name].append(end - start)
    counts, samples = trace["counts"], trace["samples"]

    out: dict[str, float] = {}
    for metric, (_, kind, arg) in LAYER_METRICS.items():
        if kind == "self":
            if all(n in absent for n in arg):
                continue
            out[metric] = sum(self_by_name.get(n, 0.0) for n in arg)
        elif kind == "calls":
            if arg not in absent:
                out[metric] = len(durations.get(arg, ()))
        elif kind in ("p50_ms", "p99_ms"):
            if arg not in absent and durations.get(arg):
                q = 0.5 if kind == "p50_ms" else 0.99
                out[metric] = 1000.0 * _percentile(durations[arg], q)
        elif kind == "count":
            if _COUNTER_SPAN[arg] not in uncounted:
                out[metric] = counts.get(arg, 0)
        elif kind == "ratio":
            num, den = arg
            if {_COUNTER_SPAN[num], _COUNTER_SPAN[den]}.isdisjoint(uncounted) and counts.get(den):
                out[metric] = counts.get(num, 0) / counts[den]
        elif kind == "sample_p50":
            if _COUNTER_SPAN[arg] not in uncounted and samples.get(arg):
                out[metric] = median(samples[arg])
    return out
