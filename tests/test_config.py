import pathlib
from dataclasses import replace

import numpy as np
import pytest

from fungi import autodiff as ad
from fungi import backbone as bb
from fungi.config import ConfigError, RunConfig

GOLDEN = pathlib.Path(__file__).parent / "golden" / "default_config.txt"


class TestDefaults:
    def test_matches_golden_file(self):
        assert RunConfig().validate().to_text() == GOLDEN.read_text()

    def test_reference_hyperparameters(self):
        cfg = RunConfig().validate()
        assert cfg.simclr.positive_views == 49
        assert cfg.simclr.negative_images == 256
        assert cfg.simclr.temperature == 0.07
        assert cfg.simclr.proj_dim == 96
        assert cfg.simclr.normalize_input is False
        assert cfg.kl.temperature == 15.0
        assert cfg.kl.proj_dim == 768
        assert cfg.kl.normalize_input is True
        assert cfg.dino.proj_dim == 2048
        assert cfg.dino.global_crops == 2
        assert cfg.dino.local_crops == 10
        assert cfg.dino.global_scale == (0.25, 1.0)
        assert cfg.dino.local_scale == (0.05, 0.25)
        assert cfg.dino.teacher_temperature == 0.07
        assert cfg.dino.student_temperature == 0.1
        assert cfg.eval.knn_k == 20
        assert not hasattr(cfg.eval, "shots")  # few-shot runs are chosen by --shots only
        seg = cfg.segmentation
        assert (seg.k, seg.temperature, seg.augmentation_epochs) == (30, 0.02, 1)
        assert seg.ivf_num_leaves == 512
        assert (seg.ivf_leaves_to_search, seg.ivf_rerank) == (32, 120)
        assert seg.ivf_anisotropic_threshold == 0.2
        assert (seg.retrieved_negatives_per_patch, seg.loss_negatives_per_patch) == (2, 1)

    def test_probe_lambda_grid(self):
        grid = RunConfig().probe_lambda_grid()
        np.testing.assert_allclose(grid, np.linspace(5e-6, 5e-4, 5))


class TestSerialization:
    def test_round_trip(self):
        cfg = RunConfig()
        cfg.encoder.image_size = 64
        cfg.encoder.patch_size = 16
        cfg.simclr.view_patch = 32
        cfg.gradients.objectives = ("kl", "simclr")
        cfg.dino.global_scale = (0.3, 0.9)
        back = RunConfig.from_text(cfg.to_text())
        assert back.to_text() == cfg.to_text()
        assert back.gradients.objectives == ("kl", "simclr")
        assert back.dino.global_scale == (0.3, 0.9)

    def test_hash_changes_with_values(self):
        a = RunConfig()
        b = RunConfig()
        b.eval.knn_k = 21
        assert a.config_hash() != b.config_hash()

    def test_save_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        cfg = RunConfig()
        cfg.encoder.seed = 42
        path.write_text(cfg.to_text())
        assert RunConfig.load(path).encoder.seed == 42

    def test_comments_and_blank_lines_ignored(self):
        text = "# a comment\n\n[eval]\nknn_k = 7\n"
        assert RunConfig.from_text(text).eval.knn_k == 7


class TestValidation:
    def test_unknown_section(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("[nope]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("[eval]\nbanana = 1\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("[eval]\nknn_k = soup\n")

    def test_bad_objective(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("[gradients]\nobjectives = kl,warp\n")

    def test_non_square_positive_views(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("[simclr]\npositive_views = 50\n")

    def test_view_patch_too_large(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("[encoder]\nimage_size = 64\n[simclr]\nview_patch = 112\n")

    def test_repeated_section(self):
        # a repeat would silently drop every key of the section before it
        with pytest.raises(ConfigError, match=r"line 3: section \[eval\] repeats"):
            RunConfig.from_text("[eval]\nknn_k = 7\n[eval]\nprobe_max_epochs = 5\n")

    def test_repeated_key(self):
        # a repeat would silently override the earlier value
        with pytest.raises(ConfigError, match=r"line 3: key 'knn_k' repeats in \[eval\]"):
            RunConfig.from_text("[eval]\nknn_k = 5\nknn_k = 7\n")

    def test_line_without_section(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("knn_k = 7\n")

    @pytest.mark.parametrize("text", [
        "[simclr]\npositive_views = 1\n",
        "[simclr]\npositive_views = -4\n",
        "[simclr]\nnegative_images = 0\n",
        "[dino]\nglobal_crops = 1\n",
        "[eval]\nknn_k = 0\n",
        "[eval]\nprobe_lambda_count = 0\n",
        "[segmentation]\nk = 0\n",
        "[segmentation]\nfew_shot_k = 0\n",  # a removed key: refused as unknown
        "[segmentation]\nloss_negatives_per_patch = 0\n",
        "[segmentation]\nloss_negatives_per_patch = 3\n",
        "[segmentation]\nivf_rerank = 29\n",
        "[segmentation]\nfew_shot_ivf_rerank = 89\n",  # a removed key: refused as unknown
        "[kl]\ntemperature = 0\n",
        "[dino]\nteacher_temperature = 0\n",
        "[dino]\nstudent_temperature = -0.1\n",
        "[simclr]\ntemperature = 0\n",
        "[segmentation]\ntemperature = 0\n",
        "[segmentation]\nfew_shot_temperature = -1\n",  # a removed key: refused as unknown
        "[segmentation]\nsimclr_temperature = nan\n",
        "[eval]\nprobe_lambda_min = -1\n",
        "[eval]\nprobe_lambda_min = 0\n",
        "[eval]\nprobe_lambda_min = 0.001\n",
        "[eval]\nprobe_lambda_max = nan\n",
        "[eval]\nprobe_max_epochs = 0\n",
        "[eval]\nprobe_lambda_max = inf\n",
        "[encoder]\nseed = -1\n",
        "[encoder]\npatch_size = 0\n",
        "[encoder]\nheads = 0\n",
        "[encoder]\nmlp_ratio = nan\n",
        "[encoder]\nmlp_ratio = 1e308\n",  # dim * mlp_ratio overflows to inf
        "[dino]\nlocal_crops = -1\n",
        "[dino]\nglobal_scale = 0.5\n",
        "[dino]\nglobal_scale = 0.9,0.1\n",
        "[dino]\nlocal_scale = -1,2\n",
        "[dino]\nlocal_scale = 0,0.25\n",
        "[simclr]\nview_patch = 0\n",
        "[kl]\ntemperature = inf\n",
        "[segmentation]\ntemperature = inf\n",
        "[segmentation]\naugmentation_epochs = 0\n",
        "[pca]\nout_dim = 0\n",
        "[segmentation]\nfew_shot_augmentation_epochs = -1\n",  # a removed key: refused as unknown
        "[segmentation]\nivf_num_leaves = 0\n",
        "[segmentation]\nivf_leaves_to_search = 0\n",
        "[segmentation]\nfew_shot_ivf_leaves_to_search = -1\n",  # a removed key: refused as unknown
    ])
    def test_out_of_range_values(self, text):
        with pytest.raises(ConfigError):
            RunConfig.from_text(text)

    @pytest.mark.parametrize("key", ["kl.proj_dim", "dino.proj_dim", "simclr.proj_dim",
                                     "segmentation.simclr_proj_dim"])
    def test_proj_dim_below_one(self, key):
        section, name = key.split(".")
        for value in ("0", "-1"):
            with pytest.raises(ConfigError, match="proj_dim must be at least 1"):
                RunConfig.from_text(f"[{section}]\n{name} = {value}\n")

    def test_gradient_source_out_of_range(self):
        # depth 2: blocks 0, 1, or -1, -2 counted from the last
        for block in ("-2", "1"):
            assert RunConfig.from_text(f"[gradients]\nblock_index = {block}\n").gradients.block_index == int(block)
        for block in ("2", "-3"):
            with pytest.raises(ConfigError, match="out of range for encoder depth 2"):
                RunConfig.from_text(f"[gradients]\nblock_index = {block}\n")
        with pytest.raises(ConfigError, match="unknown layer kind 'banana'"):
            RunConfig.from_text("[gradients]\nlayer_kind = banana\n")

    def test_unknown_projection_kind(self):
        with pytest.raises(ConfigError, match="projection kind must be one of binary, gaussian, sparse"):
            RunConfig.from_text("[projection]\nkind = dense\n")

    def test_repeated_objective(self):
        with pytest.raises(ConfigError, match="distinct"):
            RunConfig.from_text("[gradients]\nobjectives = kl,kl\n")

    def test_ranges_of_unused_objectives_are_free(self):
        text = "[gradients]\nobjectives = kl\n[simclr]\npositive_views = 1\n[dino]\nglobal_crops = 1\n"
        assert RunConfig.from_text(text).simclr.positive_views == 1


class TestDerived:
    def test_gradient_source_last_block(self):
        # the default source, block -1, is the last block's attn_proj
        cfg = RunConfig()
        cfg.encoder.image_size, cfg.encoder.dim, cfg.encoder.heads = 32, 8, 2
        assert (cfg.gradients.block_index, cfg.gradients.layer_kind) == (-1, "attn_proj")
        params = bb.init_encoder(cfg.encoder, dtype=np.float64)
        image = np.random.default_rng(0).random((3, 32, 32))
        last = replace(cfg.gradients, block_index=cfg.encoder.depth - 1)
        grads = [bb.loss_gradient(params, source, [bb.tap_state(params, source, image)], lambda z: ad.cross_entropy(z, 1.0, np.ones(z.shape)))
                 for source in (cfg.gradients, last)]
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_encoder_config(self):
        enc = RunConfig().encoder
        assert (enc.grid, enc.num_patches, enc.mlp_dim) == (14, 196, 256)
        assert enc.layer_shapes == {"qkv": (192, 64), "proj": (64, 64), "fc1": (256, 64), "fc2": (64, 256)}
