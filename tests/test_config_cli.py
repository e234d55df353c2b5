import json
import warnings

import numpy as np
import pytest

from fedrec.cli import _parse_args, main
from fedrec.config import (
    build_config,
    default_config,
    dump_flat,
    read_config_file,
    set_key,
)
from fedrec.data import write_interactions, load_interactions, leave_one_out_split
from fedrec.errors import ConfigError
from fedrec.gnn import EmbeddingTable, init_table, load_checkpoint, save_checkpoint
from fedrec.rng import substream
from fedrec.synthetic import main as synthetic_main
from fedrec.synthetic import two_community_dataset


class TestConfig:
    def test_round_trip_through_the_flat_file(self, tmp_path):
        cfg = default_config()
        set_key(cfg, "train.eta", "0.025")
        set_key(cfg, "personalization.alpha", "0.5,0.25,0.25")
        set_key(cfg, "eval.cutoffs", "5,10,20")
        set_key(cfg, "graph.neighbor_expansion", "true")
        path = tmp_path / "run.cfg"
        path.write_text(dump_flat(cfg))
        assert build_config(read_config_file(path)) == cfg

    def test_flags_beat_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.eta = 0.5\n# comment\n\ntrain.seed = 4\n")
        cfg = build_config(read_config_file(path), {"train.eta": "0.125"})
        assert cfg.train.eta == 0.125
        assert cfg.train.seed == 4

    def test_unknown_key_is_named(self):
        for key in (
            "train.etaa",
            "train.threads",
            "ablation.no_pretrain",
            "pretrain.ops",
            "cluster.noised_upload",
            "pretrain.use_true_graph",
        ):
            with pytest.raises(ConfigError, match=key):
                build_config({key: "1"})

    def test_bad_value_is_named(self):
        with pytest.raises(ConfigError, match="train.eta"):
            build_config({"train.eta": "fast"})

    @pytest.mark.parametrize(
        "key,value",
        [
            ("model.dim", "0"),
            ("train.eta", "0"),
            ("train.clients_per_round", "0"),
            ("pretrain.tau", "-1"),
            ("pretrain.node_keep_prob", "0"),
            ("pretrain.edge_add_count", "-5"),
            ("privacy.mask_ratio", "1.0"),
            ("personalization.alpha", "0.5,0.5"),
            ("personalization.alpha", "0,0,0"),
            ("personalization.alpha", "inf,0,0"),
            ("train.eta", "inf"),
            ("pretrain.tau", "inf"),
            ("eval.cutoffs", "0"),
            ("eval.cutoffs", "10,10"),
            ("privacy.clip_delta", "0"),
            ("privacy.laplace_lambda", "-0.1"),
            ("privacy.pseudo_items_p", "-1"),
            ("pretrain.noise_magnitude", "-1"),
            ("personalization.alpha", "-0.1,0.5,0.5"),
            ("train.batch_size", "-1"),
        ],
    )
    def test_validation_names_the_offending_key(self, key, value):
        with pytest.raises(ConfigError, match=key.split(".")[1].split("_")[0]):
            build_config({key: value})

    @pytest.mark.parametrize(
        "flag,key,value",
        [
            ("no_pretrain", "pretrain.epochs", "0"),
            ("no_personalization", "personalization.alpha", "0,0,1"),
            ("no_clustering", "cluster.k", "1"),
        ],
    )
    def test_ablation_shorthand_sets_its_key(self, flag, key, value):
        _command, _options, overrides = _parse_args(["train", f"--{flag}"])
        assert overrides == {key: value}

    def test_malformed_file_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("train.eta 0.5\n")
        with pytest.raises(ConfigError, match=":1"):
            read_config_file(path)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "two.tsv"
    write_interactions(two_community_dataset(30, 20, seed=7, per_user=6), path)
    return path


def run_cli(*args):
    return main(list(args))


class TestCliPretrain:
    def test_zero_epochs_equals_the_seeded_init(self, data_file, tmp_path):
        out = tmp_path / "p0"
        code = run_cli(
            "pretrain", "--data.path", str(data_file), "--model.dim", "8",
            "--pretrain.epochs", "0", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        table, flags = load_checkpoint(out / "pretrained.txt")
        assert flags == {"pretrained": "true"}
        init = init_table(30, 20, 8, substream(5, "init"))
        np.testing.assert_array_equal(table.users, init.users)
        np.testing.assert_array_equal(table.items, init.items)

    def test_summary_loss_trend_over_five_epochs(self, data_file, tmp_path):
        out = tmp_path / "p5"
        code = run_cli(
            "pretrain", "--data.path", str(data_file), "--model.dim", "16",
            "--model.layers", "2", "--pretrain.epochs", "5",
            "--pretrain.node_keep_prob", "1.0", "--pretrain.eta", "0.02",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        losses = json.loads((out / "pretrain_summary.json").read_text())["losses"]
        assert len(losses) == 6
        decreasing = sum(b < a for a, b in zip(losses, losses[1:]))
        assert decreasing >= 4

    def test_missing_data_path_names_the_key(self, capsys):
        assert run_cli("pretrain") == 2
        assert "data.path" in capsys.readouterr().err

    def test_more_added_edges_than_non_edges_exit_with_code_two(
        self, data_file, tmp_path, capsys
    ):
        out = tmp_path / "pe"
        code = run_cli(
            "pretrain", "--data.path", str(data_file), "--model.dim", "8",
            "--pretrain.epochs", "1", "--pretrain.edge_add_count", "600", "--out", str(out),
        )
        assert code == 2
        assert "pretrain.edge_add_count" in capsys.readouterr().err
        # checked before any epoch: nothing is written
        assert list(out.iterdir()) == []

    def test_numeric_blowup_exits_with_code_four(self, data_file, tmp_path, capsys):
        # the named error is the only report: no overflow warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(
                "pretrain", "--data.path", str(data_file), "--model.dim", "8",
                "--train.eta", "1e308", "--pretrain.node_keep_prob", "1",
                "--out", str(tmp_path / "pn"),
            )
        assert code == 4
        assert "non-finite" in capsys.readouterr().err


class TestCliTrain:
    def train_args(self, data_file, out, *extra):
        return (
            "train", "--data.path", str(data_file), "--model.dim", "8",
            "--model.layers", "1", "--train.max_rounds", "4",
            "--train.eval_every", "2", "--train.eta", "0.5",
            "--train.clients_per_round", "30", "--cluster.k", "2",
            "--pretrain.epochs", "0", "--out", str(out), *extra,
        )

    def test_artifacts_and_reports(self, data_file, tmp_path):
        out = tmp_path / "t"
        assert run_cli(*self.train_args(data_file, out)) == 0
        assert (out / "checkpoint.txt").exists()
        rounds = [
            json.loads(line)
            for line in (out / "rounds.jsonl").read_text().splitlines()
        ]
        assert [r["round"] for r in rounds] == [1, 2, 3, 4]
        assert all(r["n_clusters"] == 2 for r in rounds)
        assert rounds[1]["val_ndcg"] is not None
        assert rounds[0]["val_ndcg"] is None
        clusters = (out / "clusters.csv").read_text().splitlines()
        assert clusters[0] == "user_id,cluster_id"
        assert len(clusters) == 31
        results = json.loads((out / "results.json").read_text())
        assert {r["phase"] for r in results} == {"validation", "test"}
        assert {r["k"] for r in results} == {10, 20}

    def test_no_clustering_flag_reports_one_cluster(self, data_file, tmp_path):
        out = tmp_path / "t1"
        assert run_cli(*self.train_args(data_file, out, "--no_clustering")) == 0
        rounds = [
            json.loads(line)
            for line in (out / "rounds.jsonl").read_text().splitlines()
        ]
        assert all(r["n_clusters"] == 1 for r in rounds)

    def test_same_seed_same_bytes(self, data_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*self.train_args(data_file, out_a, "--seed", "9")) == 0
        assert run_cli(*self.train_args(data_file, out_b, "--seed", "9")) == 0
        assert (out_a / "rounds.jsonl").read_bytes() == (out_b / "rounds.jsonl").read_bytes()
        assert (out_a / "checkpoint.txt").read_bytes() == (out_b / "checkpoint.txt").read_bytes()

    def test_numeric_blowup_exits_with_code_four(self, data_file, tmp_path, capsys):
        out = tmp_path / "tn"
        # the named error is the only report: no overflow warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(
                "train", "--data.path", str(data_file), "--model.dim", "8",
                "--model.layers", "1", "--train.max_rounds", "4",
                "--train.eta", "1e308", "--pretrain.epochs", "0",
                "--train.clients_per_round", "30", "--out", str(out),
            )
        assert code == 4
        assert "non-finite" in capsys.readouterr().err

    def test_overflowing_cluster_uploads_exit_with_code_four(self, data_file, tmp_path, capsys):
        # LDP noise near 1e200 overflows k-means' squared distances
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(
                "train", "--data.path", str(data_file), "--model.dim", "8",
                "--pretrain.epochs", "0", "--train.max_rounds", "2",
                "--privacy.enabled", "true", "--privacy.laplace_lambda", "1e200",
                "--out", str(tmp_path / "tl"),
            )
        assert code == 4
        err = capsys.readouterr().err
        assert "clustering" in err and "round 1" in err

    def test_non_utf8_config_file_exits_with_code_two(self, data_file, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfetrain.eta = 0.5\n")
        code = run_cli(
            "train", "--config", str(path), "--data.path", str(data_file),
            "--out", str(tmp_path / "o"),
        )
        assert code == 2
        assert str(path) in capsys.readouterr().err

    def test_missing_data_file_exits_with_code_three(self, tmp_path):
        code = run_cli(
            "train", "--data.path", str(tmp_path / "nope.tsv"), "--out", str(tmp_path)
        )
        assert code == 3

    @pytest.mark.parametrize(
        "command,flag,kind",
        [
            ("train", "--data.path", "missing"),
            ("train", "--data.path", "directory"),
            ("train", "--data.path", "latin-1"),
            ("evaluate", "--checkpoint", "missing"),
            ("train", "--warm-start", "missing"),
        ],
    )
    def test_unreadable_input_is_a_data_error_naming_it(
        self, data_file, tmp_path, capsys, command, flag, kind
    ):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "latin-1":
            path.write_bytes("1\t2\t3 caf\u00e9\n".encode("latin-1"))
        args = [command, "--data.path", str(data_file), "--out", str(tmp_path / "o")]
        args += [flag, str(path)]
        assert run_cli(*args) == 3
        assert str(path) in capsys.readouterr().err

    def test_warm_start_shape_mismatch_exits_with_code_three(
        self, data_file, tmp_path, rng, capsys
    ):
        path = tmp_path / "small.txt"
        small = EmbeddingTable(rng.normal(size=(2, 8)), rng.normal(size=(3, 8)))
        save_checkpoint(small, path)
        out = tmp_path / "ws"
        assert run_cli(*self.train_args(data_file, out, "--warm-start", str(path))) == 3
        err = capsys.readouterr().err
        assert "shape" in err and str(path) in err
        assert not (out / "checkpoint.txt").exists()

    def test_warm_start_dim_mismatch_exits_with_code_two(
        self, data_file, tmp_path, rng, capsys
    ):
        path = tmp_path / "wide.txt"
        wide = EmbeddingTable(rng.normal(size=(30, 4)), rng.normal(size=(20, 4)))
        save_checkpoint(wide, path)
        out = tmp_path / "wd"
        assert run_cli(*self.train_args(data_file, out, "--warm-start", str(path))) == 2
        assert "model.dim" in capsys.readouterr().err
        assert not (out / "checkpoint.txt").exists()

class TestCliEvaluate:
    def test_perfect_checkpoint_scores_recall_one(self, data_file, tmp_path):
        split = leave_one_out_split(load_interactions(data_file))
        dim = split.n_items
        users = np.zeros((split.n_users, dim))
        for u in range(split.n_users):
            users[u, split.test[u]] = 1.0
            users[u, split.validation[u]] = 1.0
        ckpt = EmbeddingTable(users, np.eye(dim))
        path = tmp_path / "perfect.txt"
        save_checkpoint(ckpt, path)
        out = tmp_path / "e"
        code = run_cli(
            "evaluate", "--data.path", str(data_file), "--checkpoint", str(path),
            "--model.dim", str(dim), "--model.layers", "0", "--out", str(out),
        )
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert {r["k"] for r in results} == {10, 20}
        for record in results:
            assert record["recall"] == 1.0
            assert record["n_users"] == split.n_users

    def test_requires_a_checkpoint(self, data_file, capsys):
        assert run_cli("evaluate", "--data.path", str(data_file)) == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_shape_mismatch_is_a_data_error(self, data_file, tmp_path, rng, capsys):
        path = tmp_path / "tiny.txt"
        save_checkpoint(EmbeddingTable(rng.normal(size=(2, 4)), rng.normal(size=(3, 4))), path)
        code = run_cli(
            "evaluate", "--data.path", str(data_file), "--checkpoint", str(path),
            "--out", str(tmp_path),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "shape" in err and str(path) in err

    def test_non_finite_checkpoint_is_a_data_error(self, data_file, tmp_path, rng, capsys):
        users, items = rng.normal(size=(30, 8)), rng.normal(size=(20, 8))
        users[4, 2] = np.nan
        items[7, 0] = np.inf
        path = tmp_path / "nan.txt"
        save_checkpoint(EmbeddingTable(users, items), path)
        code = run_cli(
            "evaluate", "--data.path", str(data_file), "--checkpoint", str(path),
            "--model.dim", "8", "--out", str(tmp_path / "e"),
        )
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "e" / "results.json").exists()


class TestCliSimulate:
    def test_produces_every_artifact(self, data_file, tmp_path):
        out = tmp_path / "s"
        code = run_cli(
            "simulate", "--data.path", str(data_file), "--model.dim", "8",
            "--model.layers", "1", "--train.max_rounds", "2",
            "--train.eval_every", "2", "--train.eta", "0.5",
            "--train.clients_per_round", "30", "--pretrain.epochs", "2",
            "--out", str(out),
        )
        assert code == 0
        for name in (
            "pretrained.txt",
            "pretrain_summary.json",
            "checkpoint.txt",
            "rounds.jsonl",
            "clusters.csv",
            "results.json",
        ):
            assert (out / name).exists(), name

    @pytest.mark.parametrize(
        "warm_up", [("--pretrain.epochs", "2"), ("--no_pretrain",)], ids=["epochs2", "no_pretrain"]
    )
    def test_train_without_warm_start_matches_simulate(self, data_file, tmp_path, warm_up):
        common = (
            "--data.path", str(data_file), "--model.dim", "8", "--model.layers", "1",
            "--train.max_rounds", "4", "--train.eval_every", "2", "--train.eta", "0.5",
            "--train.clients_per_round", "30", "--cluster.k", "2", *warm_up, "--seed", "11",
        )
        sim, train = tmp_path / "sim", tmp_path / "train"
        pre, warm = tmp_path / "pre", tmp_path / "warm"
        assert run_cli("simulate", *common, "--out", str(sim)) == 0
        assert run_cli("train", *common, "--out", str(train)) == 0
        # simulate hands its warm-up table over in memory; the two-command
        # path reads it back from pretrained.txt
        assert run_cli("pretrain", *common, "--out", str(pre)) == 0
        warm_start = ("--warm-start", str(pre / "pretrained.txt"))
        assert run_cli("train", *common, *warm_start, "--out", str(warm)) == 0
        for name in ("pretrained.txt", "pretrain_summary.json"):
            assert (sim / name).read_bytes() == (pre / name).read_bytes(), name
        for name in ("checkpoint.txt", "rounds.jsonl", "clusters.csv", "results.json"):
            assert (sim / name).read_bytes() == (train / name).read_bytes(), name
            assert (sim / name).read_bytes() == (warm / name).read_bytes(), name

    def test_unknown_command_is_a_config_error(self, capsys):
        assert run_cli("trainn") == 2
        assert "unknown command" in capsys.readouterr().err

    def test_unknown_flag_is_a_config_error(self, data_file, capsys):
        for flag, *value in (
            ("bogus", "1"),
            ("threads", "1"),
            ("train.threads", "1"),
            ("no_clustering=true",),
        ):
            args = ("train", "--data.path", str(data_file), f"--{flag}", *value)
            assert run_cli(*args) == 2
            assert flag.split("=")[0] in capsys.readouterr().err

    def test_key_equals_value_form(self, data_file, tmp_path):
        out = tmp_path / "kv"
        code = run_cli(
            "pretrain", f"--data.path={data_file}", "--model.dim=8",
            "--pretrain.epochs=0", f"--out={out}",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("simulate", "--warm-start"),
            ("pretrain", "--warm-start"),
            ("evaluate", "--warm-start"),
            ("pretrain", "--checkpoint"),
            ("train", "--checkpoint"),
            ("simulate", "--checkpoint"),
        ],
    )
    def test_a_flag_of_another_command_is_a_config_error(
        self, data_file, tmp_path, capsys, command, flag
    ):
        args = [
            command, flag, str(tmp_path / "nonexistent"), "--data.path", str(data_file),
            "--model.dim", "8", "--pretrain.epochs", "0", "--train.max_rounds", "1",
            "--out", str(tmp_path / "o"),
        ]
        if command == "evaluate":
            args += ["--checkpoint", str(tmp_path / "nonexistent")]
        assert run_cli(*args) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["pretrain", "train", "evaluate", "simulate"])
    def test_pseudo_items_that_leave_no_negative_are_a_config_error(
        self, data_file, tmp_path, capsys, command
    ):
        split = leave_one_out_split(load_interactions(data_file))
        free = split.n_items - max(len(split.train_items(u)) for u in range(split.n_users))
        args = (
            command, "--data.path", str(data_file), "--model.dim", "8",
            "--pretrain.epochs", "1", "--pretrain.edge_add_count", "0",
            "--train.max_rounds", "1",
        )
        if command == "evaluate":
            checkpoint = tmp_path / "init.txt"
            save_checkpoint(init_table(30, 20, 8, substream(0, "init")), checkpoint)
            args += ("--checkpoint", str(checkpoint))
        out = tmp_path / "o"
        assert run_cli(*args, "--privacy.pseudo_items_p", str(free), "--out", str(out)) == 2
        assert "privacy.pseudo_items_p" in capsys.readouterr().err
        # checked right after the load: nothing is pre-trained or written
        assert list(out.iterdir()) == []
        ok = tmp_path / "ok"
        assert run_cli(*args, "--privacy.pseudo_items_p", str(free - 1), "--out", str(ok)) == 0

    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_an_unusable_out_is_a_config_error_naming_it(
        self, data_file, tmp_path, capsys, target
    ):
        (tmp_path / "afile").write_text("")
        out = tmp_path / target
        code = run_cli(
            "simulate", "--data.path", str(data_file), "--model.dim", "8",
            "--pretrain.epochs", "1", "--train.max_rounds", "1", "--out", str(out),
        )
        assert code == 2
        assert str(out) in capsys.readouterr().err

    def test_help_exits_cleanly(self, capsys):
        assert run_cli("--help") == 0
        assert "commands" in capsys.readouterr().out


class TestSyntheticCli:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--users", "10", "--items", "10", "--per-user", "8"], "pool size"),
            (["--per-user", "2"], "per_user"),
            (["--cross-rate", "2"], "cross_rate"),
            (["--cross-rate", "-0.5"], "cross_rate"),
            (["--users", "0"], "n_users"),
        ],
    )
    def test_bad_arguments_are_usage_errors(self, tmp_path, capsys, args, message):
        out = tmp_path / "s.tsv"
        with pytest.raises(SystemExit) as exc:
            synthetic_main([str(out), *args])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
