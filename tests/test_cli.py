import argparse
import logging
import os
import pathlib
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from fungi import cli
from fungi import evalkit
from fungi import features as feat
from fungi import store
from fungi import synth
from fungi.config import RunConfig
from fungi.store import StoreError

from .oracles import cka_reference, collapsed_banks
from .test_unused_code import DESK_CONFIG

TINY_CFG = """\
[encoder]
image_size = 32
dim = 16
heads = 2
mlp_ratio = 2.0
seed = 7

[gradients]
objectives = kl,simclr

[kl]
proj_dim = 32

[simclr]
proj_dim = 24
positive_views = 9
view_patch = 16
negative_images = 6

[pca]
out_dim = 16
"""


OPTIONS_GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_options.txt"


def command_options():
    """`<command> <option>` lines, one per option of each command of
    `cli.build_parser()`, in declaration order; `--help` left out."""
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    return "".join(
        f"{name} {action.option_strings[-1]}\n"
        for name, command in commands.items()
        for action in command._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    )


def test_options_match_golden_file():
    # a flag that restates a config key, or one that comes back, shows up here
    assert command_options() == OPTIONS_GOLDEN.read_text(), "command-line options drifted from golden file"


@pytest.mark.parametrize("preset, want", [({}, ["1", "1", "1"]), ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"])])
def test_import_sets_one_blas_thread_unless_the_caller_chose(preset, want):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = os.pathsep.join([str(pathlib.Path(cli.__file__).parent.parent), env.get("PYTHONPATH", "")])
    code = f"import os, fungi; print(*(os.environ.get(v, '-') for v in {names!r}))"
    run = subprocess.run([sys.executable, "-c", code], env={**env, **preset}, capture_output=True, text=True,
                         timeout=60, check=True)
    assert run.stdout.split() == want


def banks_with_echo(banks, out_dir, old, new):
    """Copies of the train and test banks under `out_dir` whose config echo
    has `old` replaced by `new`; the paths of the copies."""
    paths = []
    for split in ("train", "test"):
        sections = store.read_sections(banks / f"bank_{split}.fngi", ())
        echo = store.decode_text(sections["config_echo"])
        assert old in echo
        sections["config_echo"] = store.encode_text(echo.replace(old, new))
        paths.append(out_dir / f"bank_{split}.fngi")
        store.write_sections(paths[-1], sections)
    return paths


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.cfg"
    cfg_path.write_text(TINY_CFG)
    data = root / "data"
    banks = root / "banks"
    assert cli.main(["synth", "--kind", "blobs", "--n", "24", "--classes", "2",
                     "--image-size", "32", "--seed", "3", "--out", str(data)]) == 0
    assert cli.main(["extract", "--config", str(cfg_path), "--data", str(data),
                     "--out", str(banks)]) == 0
    return root, cfg_path, data, banks


class TestPipelineCommands:
    def test_extract_outputs(self, workspace):
        _, _, _, banks = workspace
        train = feat.FeatureBank.load(banks / "bank_train.fngi")
        assert len(train) == 18
        assert train.fused.shape[1] == 3 * 16

    def test_fuse_pca(self, workspace):
        root, _, _, banks = workspace
        out = root / "pca"
        assert cli.main(["fuse-pca", "--train", str(banks / "bank_train.fngi"),
                         "--test", str(banks / "bank_test.fngi"), "--out", str(out)]) == 0
        train = feat.FeatureBank.load(out / "bank_train_pca.fngi")
        test = feat.FeatureBank.load(out / "bank_test_pca.fngi")
        assert train.fused.shape == (18, 16)  # [pca] out_dim from the config echo
        assert test.fused.shape == (6, 16)
        assert train.dim == test.dim == 16
        assert store.read_sections(out / "pca.fngi", ())["pca_components"].shape == (16, 48)

    def test_eval_writes_report(self, workspace, capsys, monkeypatch):
        root, _, _, banks = workspace
        out = root / "eval.csv"
        reads, rows = [], feat.FeatureBank.rows

        def counted_rows(bank, kind, role):
            reads.append((kind, role))
            return rows(bank, kind, role)

        monkeypatch.setattr(feat.FeatureBank, "rows", counted_rows)
        assert cli.main(["eval", "--train", str(banks / "bank_train.fngi"),
                         "--test", str(banks / "bank_test.fngi"),
                         "--shots", "3", "--out", str(out)]) == 0
        # each kind's train and test rows are read once, the few-shot pass included
        assert reads == [(kind, role) for kind in ("embedding", "kl", "simclr", "fused") for role in ("index", "query")]
        text = out.read_text()
        assert text.splitlines()[0].startswith("# config_hash=")
        assert "knn_top1_embedding" in text and "knn_top1_fused" in text
        assert "3shot" in text
        table = capsys.readouterr().out
        assert "delta_vs_emb" in table

    def test_cluster_probe_retrieve_cka(self, workspace):
        root, _, _, banks = workspace
        args = ["--train", str(banks / "bank_train.fngi"), "--test", str(banks / "bank_test.fngi")]
        for cmd in ("cluster", "probe", "retrieve", "cka"):
            out = root / f"{cmd}.csv"
            assert cli.main([cmd, *args, "--out", str(out)]) == 0
            assert out.exists()
        # the CKA matrix's rows are the pairwise formula at every pair of kinds
        train = feat.FeatureBank.load(banks / "bank_train.fngi")
        kinds = ["embedding", "kl", "simclr", "fused"]
        mats = [train.rows(kind, "train") for kind in kinds]
        want = ["features," + ",".join(kinds)]
        want += [a + "," + ",".join(f"{cka_reference(x, y):.6f}" for y in mats) for a, x in zip(kinds, mats)]
        assert [line for line in (root / "cka.csv").read_text().splitlines() if not line.startswith("#")] == want

    def test_probe_logs_each_training(self, workspace, caplog):
        root, _, _, banks = workspace
        out = root / "probe_logged.csv"
        with caplog.at_level(logging.INFO, logger="fungi"):
            assert cli.main(["probe", "--train", str(banks / "bank_train.fngi"),
                             "--test", str(banks / "bank_test.fngi"), "--out", str(out)]) == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("probe ")]
        grid = 5  # [eval] probe_lambda_grid default
        for kind in ("embedding", "fused"):
            mine = [line for line in lines if line.startswith(f"probe {kind} ")]
            assert [line.split()[2] for line in mine] == ["select:"] * grid + ["refit:"]
            assert all("epochs" in line and "trial steps" in line and "accepted" in line for line in mine)
            assert all(line.split("stop ")[1] in ("grad_tol", "max_epochs", "line_search") for line in mine)
        rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert rows == ["metric,class,value"] + [row for row in rows[1:] if row.startswith("probe_top1_")]
        assert len(rows) == 3

    def test_concurrent_probe_is_the_sequential_probe(self, tmp_path, workspace, monkeypatch, caplog, capsys):
        # the two kinds train at once; each must be what a call of its own gives
        _, _, _, banks = workspace
        train = feat.FeatureBank.load(banks / "bank_train.fngi")
        test = feat.FeatureBank.load(banks / "bank_test.fngi")
        cfg = train.config
        reports, table_rows, lines, want = [], [], [], {}
        for kind in ("embedding", "fused"):
            result = want[kind] = evalkit.logistic_probe(
                train.rows(kind, "train"), train.labels, lambda_grid=cfg.probe_lambda_grid(),
                max_epochs=cfg.eval.probe_max_epochs, seed=feat.derive_seed(cfg.encoder.seed, "probe"))
            lines += [f"probe {kind} {'refit' if i == len(result.lambda_grid) else 'select'}: lambda {fit.lam:g}, "
                      f"{fit.epochs} epochs, {fit.trials} trial steps, {fit.accepted} accepted, stop {fit.stop}"
                      for i, fit in enumerate(result.fits)]
            acc = evalkit.accuracy(result.model.predict(test.rows(kind, "test")), test.labels)
            reports.append(evalkit.EvalReport(f"probe_top1_{kind}", acc))
            table_rows.append([kind, f"{acc:.4f}", repr(result.best_lambda)])
        evalkit.write_csv(tmp_path / "want.csv", reports, cli._echo_lines(cfg))

        trained = {}
        sequential = evalkit.logistic_probe

        def spy(train_x, *args, **kwargs):
            result = sequential(train_x, *args, **kwargs)
            trained["fused" if train_x.dtype == np.float32 else "embedding"] = result
            return result

        monkeypatch.setattr(evalkit, "logistic_probe", spy)
        capsys.readouterr()
        with caplog.at_level(logging.INFO, logger="fungi"):
            assert cli.main(["probe", "--train", str(banks / "bank_train.fngi"),
                             "--test", str(banks / "bank_test.fngi"), "--out", str(tmp_path / "got.csv")]) == 0
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert capsys.readouterr().out == evalkit.render_table(
            table_rows, header=["features", "probe_top1", "lambda"]) + "\n"
        assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("probe ")] == lines
        assert len(lines) == 12 and sorted(trained) == ["embedding", "fused"]
        for kind, result in trained.items():
            assert result.model.weights.tobytes() == want[kind].model.weights.tobytes()
            assert result.model.bias.tobytes() == want[kind].model.bias.tobytes()

    def test_segment_both_feature_modes(self, workspace):
        root, cfg_path, _, _ = workspace
        segdata = root / "segdata"
        assert cli.main(["synth", "--kind", "segmentation", "--n", "6", "--classes", "3",
                         "--image-size", "32", "--seed", "5", "--out", str(segdata)]) == 0
        for flag, name in ((None, "seg.csv"), ("--fungi", "segf.csv")):
            argv = ["segment", "--config", str(cfg_path), "--data", str(segdata), "--out", str(root / name)]
            if flag:
                argv.append(flag)
            assert cli.main(argv) == 0
            assert "miou" in (root / name).read_text()

    def test_segment_with_ivf_index(self, workspace, caplog):
        # 8 leaves need 8 * 39 = 312 bank rows for the leaf search; the 64-px
        # train split of 45 images holds more
        root, _, _, _ = workspace
        cfg_path = root / "ivf.cfg"
        cfg_path.write_text(TINY_CFG + "\n[segmentation]\nivf_num_leaves = 8\nivf_leaves_to_search = 2\n")
        segdata = root / "segdata_big"
        assert cli.main(["synth", "--kind", "segmentation", "--n", "45", "--classes", "3",
                         "--image-size", "64", "--seed", "6", "--out", str(segdata)]) == 0
        out = root / "seg_ivf.csv"
        with caplog.at_level(logging.INFO, logger="fungi"):
            assert cli.main(["segment", "--config", str(cfg_path), "--data", str(segdata),
                             "--out", str(out)]) == 0
        assert "miou" in out.read_text()
        assert "IVF search over" in caplog.text and "8 leaves" in caplog.text and "2 searched per query" in caplog.text

    def test_segment_below_the_ivf_floor_searches_exactly(self, workspace, caplog):
        root, cfg_path, _, _ = workspace
        segdata = root / "segdata_small"
        assert cli.main(["synth", "--kind", "segmentation", "--n", "6", "--classes", "3",
                         "--image-size", "32", "--seed", "5", "--out", str(segdata)]) == 0
        with caplog.at_level(logging.INFO, logger="fungi"):
            assert cli.main(["segment", "--config", str(cfg_path), "--data", str(segdata),
                             "--out", str(root / "seg_small.csv")]) == 0
        assert "bank rows: below 39 rows per leaf at 512 leaves" in caplog.text

    def test_segment_with_every_leaf_searched_runs_exactly(self, workspace, caplog, capsys, monkeypatch):
        # the 64-px set of test_segment_with_ivf_index, above the floor at 8
        # leaves: the config alone asks for the exact scan, and no k-means runs
        root, _, _, _ = workspace
        cfg_path = root / "all_leaves.cfg"
        cfg_path.write_text(TINY_CFG + "\n[segmentation]\nivf_num_leaves = 8\nivf_leaves_to_search = 8\n")
        segdata = root / "segdata_all_leaves"
        assert cli.main(["synth", "--kind", "segmentation", "--n", "45", "--classes", "3",
                         "--image-size", "64", "--seed", "6", "--out", str(segdata)]) == 0
        calls, kmeans = [], evalkit.kmeans
        monkeypatch.setattr(evalkit, "kmeans", lambda *a, **kw: calls.append(1) or kmeans(*a, **kw))
        with caplog.at_level(logging.INFO, logger="fungi"):
            assert cli.main(["segment", "--config", str(cfg_path), "--data", str(segdata),
                             "--out", str(root / "seg_all_leaves.csv")]) == 0
        rows = int(capsys.readouterr().out.split()[-1])  # the table's bank_rows
        assert rows >= 8 * 39 and not calls
        assert f"exact search over {rows} bank rows: all 8 leaves searched" in caplog.text

    def test_segment_default_config_on_small_images(self, tmp_path):
        # the default SimCLR view patch (112 px) exceeds 32-px data; segmentation
        # builds no SimCLR views, so it must not reject the config for that
        segdata = tmp_path / "seg32"
        assert cli.main(["synth", "--kind", "segmentation", "--n", "6", "--classes", "3",
                         "--image-size", "32", "--seed", "5", "--out", str(segdata)]) == 0
        out = tmp_path / "seg.csv"
        assert cli.main(["segment", "--data", str(segdata), "--out", str(out)]) == 0
        assert "miou" in out.read_text()


class TestDeterminism:
    def test_rerun_is_byte_identical(self, workspace):
        root, cfg_path, data, banks = workspace
        again = root / "banks_again"
        assert cli.main(["extract", "--config", str(cfg_path), "--data", str(data),
                         "--out", str(again)]) == 0
        for name in ("bank_train.fngi", "bank_test.fngi"):
            assert (banks / name).read_bytes() == (again / name).read_bytes()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, workspace):
        _, _, data, _ = workspace
        bad = tmp_path / "bad.cfg"
        bad.write_text("[gradients]\nobjectives = banana\n")
        assert cli.main(["extract", "--config", str(bad), "--data", str(data),
                         "--out", str(tmp_path / "x")]) == 2

    def test_repeated_config_section_is_2(self, tmp_path, workspace, caplog):
        _, _, data, _ = workspace
        bad = tmp_path / "twice.cfg"
        bad.write_text(TINY_CFG + "\n[kl]\ntemperature = 10\n")
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["extract", "--config", str(bad), "--data", str(data),
                             "--out", str(tmp_path / "x")]) == 2
        assert "section [kl] repeats" in caplog.text
        assert not (tmp_path / "x").exists()

    def test_repeated_config_key_is_2(self, tmp_path, workspace, caplog):
        _, _, data, _ = workspace
        bad = tmp_path / "twice.cfg"
        bad.write_text(TINY_CFG + "\n[eval]\nknn_k = 5\nknn_k = 7\n")
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["extract", "--config", str(bad), "--data", str(data),
                             "--out", str(tmp_path / "x")]) == 2
        assert "key 'knn_k' repeats in [eval]" in caplog.text
        assert not (tmp_path / "x").exists()

    def test_config_that_is_not_utf8_is_2(self, tmp_path, workspace, caplog):
        _, _, data, _ = workspace
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes("[eval]\n# r\xe9glage\nknn_k = 7\n".encode("latin-1"))
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["extract", "--config", str(bad), "--data", str(data),
                             "--out", str(tmp_path / "x")]) == 2
        assert "is not UTF-8 text" in caplog.text

    @pytest.mark.parametrize("where", ["extract --config", "eval --train", "eval --test", "eval --out"])
    def test_directory_given_for_a_file_is_3(self, tmp_path, workspace, where, caplog):
        _, _, data, banks = workspace
        if where == "extract --config":
            argv = ["extract", "--config", str(tmp_path), "--data", str(data), "--out", str(tmp_path / "x")]
        else:
            paths = {"--train": str(banks / "bank_train.fngi"), "--test": str(banks / "bank_test.fngi"),
                     "--out": str(tmp_path / "e.csv"), where.split()[1]: str(tmp_path)}
            argv = ["eval", *(part for flag, path in paths.items() for part in (flag, path))]
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(argv) == 3
        assert "data error" in caplog.text and "Is a directory" in caplog.text

    def test_pca_out_dim_0_is_2(self, tmp_path, workspace, caplog):
        # refused by RunConfig.validate as the bank loads
        _, _, _, banks = workspace
        train, test = banks_with_echo(banks, tmp_path, "out_dim = 16", "out_dim = 0")
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["fuse-pca", "--train", str(train), "--test", str(test),
                             "--out", str(tmp_path / "pca")]) == 2
        assert "pca out_dim must be at least 1" in caplog.text
        assert not (tmp_path / "pca").exists()

    def test_pca_out_dim_above_train_rows_is_clamped(self, tmp_path, workspace, caplog):
        # 18 train rows of 48 fused columns: 18 centred rows span 17
        # dimensions, so an 18th component would have zero variance. The
        # default out_dim of 64 meets a default-size dataset the same way
        _, _, _, banks = workspace
        train, test = banks_with_echo(banks, tmp_path, "out_dim = 16", "out_dim = 19")
        out = tmp_path / "pca"
        with caplog.at_level(logging.WARNING, logger="fungi"):
            assert cli.main(["fuse-pca", "--train", str(train), "--test", str(test), "--out", str(out)]) == 0
        assert ("clamping PCA out_dim=19 to 17 (bank width 48; 18 centred train rows span at most 17 dimensions)"
                in caplog.text)
        for name in ("bank_train_pca.fngi", "bank_test_pca.fngi"):
            assert feat.FeatureBank.load(out / name).fused.shape[1] == 17
        variance = store.read_sections(out / "pca.fngi", ())["pca_explained_variance"]
        assert variance.shape == (17,) and variance.min() > 1e-6

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_pca_fused_row_that_is_not_finite_is_3(self, tmp_path, workspace, split, caplog, capsys):
        _, _, _, banks = workspace
        paths = {s: banks / f"bank_{s}.fngi" for s in ("train", "test")}
        bank = feat.FeatureBank.load(paths[split])
        bank.fused[4, 7] = np.nan
        paths[split] = tmp_path / f"bank_{split}.fngi"
        bank.save(paths[split])
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["fuse-pca", "--train", str(paths["train"]), "--test", str(paths["test"]),
                             "--out", str(tmp_path / "pca")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: fused features: {split} row 4 is not finite"]
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "pca").exists()

    def test_pca_on_one_train_row_is_3(self, tmp_path, workspace, caplog):
        _, _, _, banks = workspace
        bank = feat.FeatureBank.load(banks / "bank_train.fngi")
        one = replace(bank, labels=bank.labels[:1], fused=bank.fused[:1], embedding=bank.embedding[:1],
                      gradients={name: x[:1] for name, x in bank.gradients.items()})
        train = tmp_path / "bank_train.fngi"
        one.save(train)
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["fuse-pca", "--train", str(train), "--test", str(banks / "bank_test.fngi"),
                             "--out", str(tmp_path / "pca")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: {train}: PCA needs at least 2 train rows, got 1"]
        assert not (tmp_path / "pca").exists()

    def test_shots_above_smallest_class_is_2(self, tmp_path, workspace, caplog):
        # 18 train rows over 2 classes: 9 per class
        _, _, _, banks = workspace
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["eval", "--train", str(banks / "bank_train.fngi"),
                             "--test", str(banks / "bank_test.fngi"),
                             "--shots", "10", "--out", str(tmp_path / "e.csv")]) == 2
        assert "--shots 10 outside 1..9" in caplog.text

    def test_zero_bank_cap_is_2(self, tmp_path, workspace, caplog):
        _, cfg_path, _, _ = workspace
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["segment", "--config", str(cfg_path), "--data", str(tmp_path),
                             "--out", str(tmp_path / "s.csv"), "--bank-cap", "0"]) == 2
        assert "--bank-cap 0" in caplog.text

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "blobs", "--n", "2", "--classes", "4"], "at least one sample per class"),
        (["--kind", "stripes", "--classes", "0"], "at least one class"),
        (["--kind", "segmentation", "--classes", "1"], "background + at least one class"),
        (["--kind", "segmentation", "--n", "0"], "n >= 1"),
        (["--kind", "blobs", "--image-size", "3"], "image_size >= 4"),
        (["--kind", "blobs", "--n", "4", "--classes", "4"], "n=4 leaves no test sample"),
    ])
    def test_bad_synth_arguments_are_2(self, tmp_path, argv, message, caplog):
        out = tmp_path / "synth"
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["synth", *argv, "--out", str(out)]) == 2
        assert message in caplog.text
        assert not out.exists()

    def test_zero_temperature_is_2(self, tmp_path, workspace):
        _, _, data, _ = workspace
        bad = tmp_path / "hot.cfg"
        bad.write_text(TINY_CFG.replace("[kl]\n", "[kl]\ntemperature = 0\n"))
        assert cli.main(["extract", "--config", str(bad), "--data", str(data),
                         "--out", str(tmp_path / "x")]) == 2

    def test_missing_data_is_3(self, tmp_path, workspace):
        _, cfg_path, _, _ = workspace
        assert cli.main(["extract", "--config", str(cfg_path),
                         "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "x")]) == 3

    def test_image_size_mismatch_is_3(self, tmp_path, workspace, caplog):
        _, cfg_path, _, _ = workspace
        data = tmp_path / "data64"
        assert cli.main(["synth", "--kind", "blobs", "--n", "8", "--classes", "2",
                         "--image-size", "64", "--seed", "3", "--out", str(data)]) == 0
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["extract", "--config", str(cfg_path), "--data", str(data),
                             "--out", str(tmp_path / "x")]) == 3
        assert "(3, 64, 64)" in caplog.text and "image_size is 32" in caplog.text

    def test_split_without_images_is_3(self, tmp_path, workspace, caplog):
        _, cfg_path, data, _ = workspace
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "train.fngi").write_bytes((data / "train.fngi").read_bytes())
        synth.save_dataset(empty / "test.fngi", np.zeros((0, 3, 32, 32)), labels=np.zeros(0), masks=None)
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["extract", "--config", str(cfg_path), "--data", str(empty),
                             "--out", str(tmp_path / "x")]) == 3
        assert "test.fngi holds no images" in caplog.text

    @pytest.mark.parametrize("command, section", [
        ("extract", "images"), ("extract", "labels"), ("segment", "images"), ("segment", "masks"),
    ])
    def test_flipped_dataset_section_name_is_3(self, tmp_path, workspace, command, section, caplog, capsys):
        # bit 0 of the name's first byte: every CRC still holds, and the
        # section reads back under another name
        _, cfg_path, data, _ = workspace
        if command == "segment":
            data = tmp_path / "segdata"
            assert cli.main(["synth", "--kind", "segmentation", "--n", "6", "--classes", "3",
                             "--image-size", "32", "--seed", "5", "--out", str(data)]) == 0
        flipped = tmp_path / "flipped"
        flipped.mkdir()
        (flipped / "test.fngi").write_bytes((data / "test.fngi").read_bytes())
        raw = bytearray((data / "train.fngi").read_bytes())
        raw[raw.index(len(section).to_bytes(2, "little") + section.encode()) + 2] ^= 0x01
        (flipped / "train.fngi").write_bytes(bytes(raw))
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main([command, "--config", str(cfg_path), "--data", str(flipped), "--out", str(out)]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: {flipped / 'train.fngi'}: missing required section(s) '{section}'"]
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_mismatched_banks_are_3(self, tmp_path, workspace, caplog):
        # one config hash, different processing: a fuse-pca train bank
        # beside a raw test bank
        _, _, _, banks = workspace
        assert cli.main(["fuse-pca", "--train", str(banks / "bank_train.fngi"),
                         "--test", str(banks / "bank_test.fngi"), "--out", str(tmp_path / "pca")]) == 0
        train, test = tmp_path / "pca" / "bank_train_pca.fngi", banks / "bank_test.fngi"
        for cmd in ("eval", "probe", "retrieve"):
            with caplog.at_level(logging.ERROR, logger="fungi"):
                assert cli.main([cmd, "--train", str(train), "--test", str(test),
                                 "--out", str(tmp_path / "r.csv")]) == 3, cmd
            assert "do not match" in caplog.text
            caplog.clear()

    def test_one_class_probe_is_3(self, tmp_path, workspace, caplog):
        _, _, _, banks = workspace
        paths = []
        for split in ("train", "test"):
            bank = feat.FeatureBank.load(banks / f"bank_{split}.fngi")
            bank.labels[:] = 0
            paths.append(tmp_path / f"bank_{split}.fngi")
            bank.save(paths[-1])
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["probe", "--train", str(paths[0]), "--test", str(paths[1]),
                             "--out", str(tmp_path / "p.csv")]) == 3
        assert "at least two classes" in caplog.text

    def test_one_row_per_class_probe_is_3(self, tmp_path, workspace, caplog, recwarn):
        # each class holds out its one row to choose lambda, which would leave
        # no row to train on
        _, _, _, banks = workspace
        bank = feat.FeatureBank.load(banks / "bank_train.fngi")
        first = np.unique(bank.labels, return_index=True)[1]
        cut = replace(bank, labels=bank.labels[first], fused=bank.fused[first], embedding=bank.embedding[first],
                      gradients={name: rows[first] for name, rows in bank.gradients.items()})
        path = tmp_path / "bank_train.fngi"
        cut.save(path)
        with caplog.at_level(logging.INFO, logger="fungi"):
            assert cli.main(["probe", "--train", str(path), "--test", str(banks / "bank_test.fngi"),
                             "--out", str(tmp_path / "p.csv")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: {path}: the probe holds out a row of each class to choose lambda, "
                          "so it needs a class with at least two train rows; every class has one"]
        assert not any(r.getMessage().startswith("probe ") for r in caplog.records)
        assert not recwarn.list
        assert not (tmp_path / "p.csv").exists()

    def test_constant_feature_family_cka_is_3(self, tmp_path, workspace, caplog):
        # collapsed output paths make the embedding the same for every input,
        # and at the default source (the last attn_proj) the gradients too
        _, cfg_path, data, _ = workspace
        splits = [synth.load_dataset(data / f"{split}.fngi", "labels") for split in ("train", "test")]
        banks = collapsed_banks(RunConfig.load(cfg_path), splits[0]["images"], splits[0]["labels"],
                                splits[1]["images"], splits[1]["labels"])
        paths = [tmp_path / f"bank_{split}.fngi" for split in ("train", "test")]
        for bank, path in zip(banks, paths):
            bank.save(path)
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["cka", "--train", str(paths[0]), "--test", str(paths[1]),
                             "--out", str(tmp_path / "c.csv")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].endswith("the same on every train row: embedding, kl, simclr, fused")

    @pytest.mark.parametrize("command", ["eval", "fuse-pca"])
    def test_hash_mismatch_is_2(self, tmp_path, workspace, command, caplog):
        root, cfg_path, data, banks = workspace
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(TINY_CFG.replace("seed = 7", "seed = 8"))
        other = tmp_path / "other_banks"
        assert cli.main(["extract", "--config", str(other_cfg), "--data", str(data),
                         "--out", str(other)]) == 0
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main([command, "--train", str(banks / "bank_train.fngi"),
                             "--test", str(other / "bank_test.fngi"),
                             "--out", str(tmp_path / "out")]) == 2
        assert "train/test banks carry different config hashes" in caplog.text
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fuse-pca", "eval", "cluster", "probe", "retrieve", "cka"])
    def test_bank_echoing_removed_shots_key_is_2(self, tmp_path, workspace, command, caplog):
        # every command that reads a bank parses its config echo
        _, _, _, banks = workspace
        train, test = banks_with_echo(banks, tmp_path, "knn_k = 20", "knn_k = 20\nshots = 5")
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main([command, "--train", str(train), "--test", str(test),
                             "--out", str(tmp_path / "out")]) == 2
        assert f"{train}: config echo: unknown key 'shots' in [eval]" in caplog.text
        assert not (tmp_path / "out").exists()

    def test_bank_with_the_earlier_sections_gives_the_same_reports(self, tmp_path, workspace):
        # banks once also held ids, split, objectives and config_hash, in this
        # order; the benchmark harness still writes them so
        _, _, _, banks = workspace
        earlier = tmp_path / "earlier"
        earlier.mkdir()
        for split in ("train", "test"):
            s = store.read_sections(banks / f"bank_{split}.fngi", ())
            config = RunConfig.from_text(store.decode_text(s["config_echo"]))
            store.write_sections(earlier / f"bank_{split}.fngi", {
                "ids": np.arange(len(s["labels"]), dtype=np.int32),
                "labels": s["labels"],
                "fused": s["fused"],
                "split": store.encode_text(split),
                "objectives": store.encode_text(",".join(config.gradients.objectives)),
                "config_echo": s["config_echo"],
                "config_hash": store.encode_text(config.config_hash()),
                "embedding": s["embedding"],
                **{name: s[name] for name in s if name.startswith("grad::")},
            })
        for command in ("eval", "cluster", "probe", "retrieve", "cka", "fuse-pca"):
            outputs = []
            for source in (banks, earlier):
                out = tmp_path / f"{command}_{source.name}"
                assert cli.main([command, "--train", str(source / "bank_train.fngi"),
                                 "--test", str(source / "bank_test.fngi"), "--out", str(out)]) == 0
                names = ("bank_train_pca.fngi", "bank_test_pca.fngi", "pca.fngi")
                outputs.append([(out / n).read_bytes() for n in names] if out.is_dir() else out.read_bytes())
            assert outputs[0] == outputs[1], command

    def test_truncated_bank_is_3(self, tmp_path, workspace):
        _, _, _, banks = workspace
        bad = tmp_path / "truncated.fngi"
        bad.write_bytes((banks / "bank_train.fngi").read_bytes()[:-3])
        assert cli.main(["eval", "--train", str(bad),
                         "--test", str(banks / "bank_test.fngi"),
                         "--out", str(tmp_path / "e.csv")]) == 3

    def test_corrupt_bank_is_3(self, tmp_path, workspace):
        _, _, _, banks = workspace
        bad = tmp_path / "corrupt.fngi"
        raw = bytearray((banks / "bank_train.fngi").read_bytes())
        raw[-6] ^= 0xFF
        bad.write_bytes(bytes(raw))
        assert cli.main(["eval", "--train", str(bad),
                         "--test", str(banks / "bank_test.fngi"),
                         "--out", str(tmp_path / "e.csv")]) == 3

    def test_every_flip_of_bit_0_or_7_in_a_bank_is_a_store_error(self, tmp_path):
        # a flip in a payload breaks its CRC; one in a header breaks the
        # version, a dtype tag, a shape, a required section's name or the
        # match of the grad:: sections with the objectives
        data, banks, cfg = tmp_path / "data", tmp_path / "banks", tmp_path / "run.cfg"
        cfg.write_text(DESK_CONFIG)
        assert cli.main(["synth", "--kind", "blobs", "--n", "12", "--classes", "2", "--image-size", "32",
                         "--seed", "1", "--out", str(data)]) == 0
        assert cli.main(["extract", "--config", str(cfg), "--data", str(data), "--out", str(banks)]) == 0
        raw = (banks / "bank_test.fngi").read_bytes()
        bad = tmp_path / "bad.fngi"
        loaded = []
        for at in range(len(raw)):
            for bit in (0, 7):
                flipped = bytearray(raw)
                flipped[at] ^= 1 << bit
                bad.write_bytes(bytes(flipped))
                try:
                    feat.FeatureBank.load(bad)
                    loaded.append((at, bit))
                except StoreError:
                    pass
        assert not loaded, f"{len(loaded)} of {2 * len(raw)} corrupted copies loaded, the first at {loaded[0]}"

    def test_renamed_required_section_is_3(self, tmp_path, workspace):
        _, _, _, banks = workspace
        bad = tmp_path / "renamed.fngi"
        raw = bytearray((banks / "bank_train.fngi").read_bytes())
        at = raw.index(b"\x06\x00labels") + 2  # u16 name length, then the name
        raw[at] ^= 0x01  # "labels" -> "mabels": every CRC still holds
        bad.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="'labels'"):
            feat.FeatureBank.load(bad)
        assert cli.main(["eval", "--train", str(bad),
                         "--test", str(banks / "bank_test.fngi"),
                         "--out", str(tmp_path / "e.csv")]) == 3

    def test_retrieve_without_relevant_gallery_rows_is_3(self, tmp_path, workspace, caplog):
        _, _, _, banks = workspace
        bank = feat.FeatureBank.load(banks / "bank_test.fngi")
        bank.labels[:] = 5  # the train bank holds classes 0 and 1 only
        bank.save(tmp_path / "bank_test.fngi")
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["retrieve", "--train", str(banks / "bank_train.fngi"),
                             "--test", str(tmp_path / "bank_test.fngi"),
                             "--out", str(tmp_path / "r.csv")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].endswith("no query had relevant gallery items")

    @pytest.mark.parametrize("kind, row", [("fused", 0.0), ("embedding", np.nan)])
    def test_retrieve_row_that_cannot_be_ranked_is_3(self, tmp_path, workspace, kind, row, caplog, capsys):
        _, _, _, banks = workspace
        bank = feat.FeatureBank.load(banks / "bank_test.fngi")
        getattr(bank, kind)[2] = row
        bank.save(tmp_path / "bank_test.fngi")
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["retrieve", "--train", str(banks / "bank_train.fngi"),
                             "--test", str(tmp_path / "bank_test.fngi"),
                             "--out", str(tmp_path / "r.csv")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].endswith("query row 2 has a zero or non-finite norm and cannot be ranked")
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command, split, role", [
        ("eval", "train", "index"), ("cluster", "test", "test"), ("probe", "train", "train"), ("probe", "test", "test"),
        ("cka", "train", "train"),
    ])
    @pytest.mark.parametrize("case", ["zero embedding row", "NaN gradient row", "no embedding section"])
    def test_rows_that_cannot_be_used_are_3(self, tmp_path, workspace, command, split, role, case, caplog, capsys):
        _, _, _, banks = workspace
        paths = {s: banks / f"bank_{s}.fngi" for s in ("train", "test")}
        bank = feat.FeatureBank.load(paths[split])
        out = tmp_path / f"bank_{split}.fngi"
        if case == "zero embedding row":
            bank.embedding[3] = 0.0
            bank.save(out)
            expected = f"embedding features: {role} row 3 has a zero or non-finite norm and cannot be ranked"
        elif case == "NaN gradient row":
            # as extraction would write it: the kl section and the kl segment of the fused row
            bank.gradients["kl"][3] = np.nan
            bank.fused[3, :16] = np.nan
            bank.save(out)
            expected = (f"kl features: {role} row 3 has a zero or non-finite norm and cannot be ranked"
                        if command in ("eval", "cka") else f"fused features: {role} row 3 is not finite")
        else:  # every bank that extract writes has one, so this file is malformed
            sections = store.read_sections(paths[split], ())
            del sections["embedding"]
            store.write_sections(out, sections)
            expected = f"{out}: missing required section(s) 'embedding'"
        paths[split] = out
        with caplog.at_level(logging.INFO, logger="fungi"):
            assert cli.main([command, "--train", str(paths["train"]), "--test", str(paths["test"]),
                             "--out", str(tmp_path / "r.csv")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0] == f"data error: {expected}"
        # every row is read and checked before the probe trains
        assert not any(r.getMessage().startswith("probe ") for r in caplog.records)
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("command", ["fuse-pca", "eval", "cluster", "probe", "retrieve", "cka"])
    @pytest.mark.parametrize("section", ["fused", "embedding", "grad::kl"])
    def test_bank_section_that_is_not_2d_is_3(self, tmp_path, workspace, command, section, caplog, capsys):
        # one column per row: the row count still agrees with the labels
        _, _, _, banks = workspace
        sections = store.read_sections(banks / "bank_train.fngi", ())
        sections[section] = np.ascontiguousarray(sections[section][:, 0])
        bad = tmp_path / "bank_train.fngi"
        store.write_sections(bad, sections)
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main([command, "--train", str(bad), "--test", str(banks / "bank_test.fngi"),
                             "--out", str(tmp_path / "out")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert errors == [f"data error: {bad}: bank section {section!r} is 1-D, not a 2-D (rows, columns) matrix"]
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def _segdata(self, tmp_path, name):
        data = tmp_path / name
        assert cli.main(["synth", "--kind", "segmentation", "--n", "8", "--classes", "3",
                         "--image-size", "32", "--seed", "5", "--out", str(data)]) == 0
        return data, {s: synth.load_dataset(data / f"{s}.fngi", "masks") for s in ("train", "test")}

    def test_segment_test_mask_without_labels_scores_no_pixels(self, tmp_path, workspace):
        # the report equals the one without that image
        _, cfg_path, _, _ = workspace
        data, splits = self._segdata(tmp_path, "seg")
        test = splits["test"]
        assert len(test["images"]) > 1
        masks = np.array(test["masks"])
        masks[-1] = 255
        synth.save_dataset(data / "test.fngi", test["images"], labels=None, masks=masks)
        fewer = tmp_path / "fewer"
        fewer.mkdir()
        (fewer / "train.fngi").write_bytes((data / "train.fngi").read_bytes())
        synth.save_dataset(fewer / "test.fngi", test["images"][:-1], labels=None, masks=masks[:-1])
        for d in (data, fewer):
            assert cli.main(["segment", "--config", str(cfg_path), "--data", str(d),
                             "--out", str(tmp_path / f"{d.name}.csv")]) == 0
        assert (tmp_path / "seg.csv").read_bytes() == (tmp_path / "fewer.csv").read_bytes()

    def test_segment_train_masks_without_labels_are_3(self, tmp_path, workspace, caplog, capsys):
        _, cfg_path, _, _ = workspace
        data, splits = self._segdata(tmp_path, "seg")
        train = splits["train"]
        synth.save_dataset(data / "train.fngi", train["images"], labels=None, masks=np.full_like(train["masks"], 255))
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["segment", "--config", str(cfg_path), "--data", str(data),
                             "--out", str(tmp_path / "s.csv")]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].endswith("the segmentation bank is empty")
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command, split, case", [
        ("segment", "test", "48-px images"),
        ("segment", "train", "non-square images"),
        ("segment", "train", "masks of another size"),
        ("segment", "test", "masks of another size"),
        ("segment", "train", "fewer masks"),
        ("extract", "train", "fewer labels"),
    ])
    def test_malformed_split_is_3(self, tmp_path, workspace, command, split, case, caplog, capsys):
        _, cfg_path, blobs, _ = workspace
        target = "masks" if command == "segment" else "labels"
        if command == "segment":
            data, splits = self._segdata(tmp_path, "data")
        else:
            data = tmp_path / "data"
            data.mkdir()
            for s in ("train", "test"):
                (data / f"{s}.fngi").write_bytes((blobs / f"{s}.fngi").read_bytes())
            splits = {s: synth.load_dataset(data / f"{s}.fngi", target) for s in ("train", "test")}
        images, rows = splits[split]["images"], splits[split][target]
        if case == "48-px images":
            images, rows = synth.make_segmentation(len(images), 3, 48, seed=5)
        elif case == "non-square images":
            images, rows = images[..., :24], rows[..., :24]
        elif case == "masks of another size":
            rows = rows[:, :16, :16]
        else:
            rows = rows[: len(images) - 2]
        path = data / f"{split}.fngi"
        synth.save_dataset(path, images, **{"labels": None, "masks": None, target: rows})
        out = tmp_path / "out"
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main([command, "--config", str(cfg_path), "--data", str(data), "--out", str(out)]) == 3
        errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        expected = "test images are 48 px, train images 32 px" if case == "48-px images" else f"{path}: "
        assert len(errors) == 1 and expected in errors[0], errors
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_2(self, tmp_path, workspace, jobs, caplog):
        _, cfg_path, data, _ = workspace
        with caplog.at_level(logging.ERROR, logger="fungi"):
            assert cli.main(["extract", "--config", str(cfg_path), "--data", str(data),
                             "--out", str(tmp_path / "x"), "--jobs", jobs]) == 2
        assert f"--jobs {jobs} must be at least 1" in caplog.text
        assert not (tmp_path / "x").exists()


# a desk-scale config with all three objectives and an IVF index over the
# segmentation bank, so that a run that passes validation takes milliseconds
SWEEP_BASE = {
    "encoder": {"image_size": "16", "patch_size": "8", "dim": "8", "heads": "2", "mlp_ratio": "2.0"},
    "kl": {"proj_dim": "8"},
    "dino": {"proj_dim": "8", "local_crops": "1"},
    "simclr": {"proj_dim": "8", "positive_views": "4", "view_patch": "8", "negative_images": "1"},
    "segmentation": {"augmentation_epochs": "2", "ivf_num_leaves": "4", "ivf_leaves_to_search": "2"},
}
SWEEP_VALUES = ("0", "-1", "nan", "inf", "banana", "0.5", "0.9,0.1", "-1,2")
# keys that change nothing; every value that parses stays accepted until they are deleted
NO_EFFECT_VALUES = {
    "ivf_dims_per_block": ("0", "-1"),
    "ivf_anisotropic_threshold": ("0", "-1", "nan", "inf", "0.5"),
}
CONFIG_KEYS = [(s.name, f.name) for s in fields(RunConfig()) for f in fields(getattr(RunConfig(), s.name))]


def sweep_config(section, key, value):
    sections = {name: dict(entries) for name, entries in SWEEP_BASE.items()}
    sections.setdefault(section, {})[key] = value
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                   for name, entries in sections.items())


@pytest.fixture(scope="module")
def sweep_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    for kind, n in (("blobs", "4"), ("segmentation", "3")):
        assert cli.main(["synth", "--kind", kind, "--n", n, "--classes", "2", "--image-size", "16",
                         "--out", str(root / kind)]) == 0
    return root


class TestConfigSweep:
    @pytest.mark.parametrize("section, key", CONFIG_KEYS, ids=[f"{s}.{k}" for s, k in CONFIG_KEYS])
    def test_every_value_exits_0_or_2(self, sweep_data, tmp_path, section, key):
        """Each key with each malformed or out-of-range value, run through
        the commands that read it, ends in exit 0 or a configuration error
        (exit 2) before any output is written, never in an exception."""
        commands = [["segment"], ["segment", "--fungi"]] if section == "segmentation" else [["extract"]]
        # (value, the only exit code allowed, or None for 0 or 2)
        cases = [(value, 0 if value in NO_EFFECT_VALUES.get(key, ()) else None) for value in SWEEP_VALUES]
        if (section, key) == ("encoder", "seed"):
            commands.append(["segment", "--fungi"])
        if key == "objectives":
            cases += [("kl,kl", 2), ("", 2)]
        for i, (value, required) in enumerate(cases):
            cfg = tmp_path / f"{i}.cfg"
            cfg.write_text(sweep_config(section, key, value))
            for command in commands:
                data, out = ("segmentation", f"{i}{command[-1]}.csv") if command[0] == "segment" else ("blobs", f"{i}banks")
                code = cli.main([*command, "--config", str(cfg), "--data", str(sweep_data / data),
                                 "--out", str(tmp_path / out)])
                assert code in ((0, 2) if required is None else (required,)), (value, command, code)
                assert (tmp_path / out).exists() == (code == 0), (value, command)
