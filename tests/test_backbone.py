from dataclasses import replace

import numpy as np
import pytest

from fungi import autodiff as ad
from fungi import backbone as bb
from fungi.config import ConfigError, GradientSection, RunConfig

from .oracles import (
    collapse_output_paths,
    head_rows,
    image_embedding,
    largest_entry_error,
    max_relative_error,
    per_view_embed,
    per_view_loss_gradient,
    reference_embedding,
    reference_encoder,
    reference_tokens,
    replace_source_layer,
    richardson_gradient,
    source_layer,
    view_states,
)

TINY = reference_encoder(image_size=32, dim=8, heads=2)


def rand_image(rng, size):
    return rng.random((3, size, size)).astype(np.float64)


def pooled(tokens, pooling):
    """The embedding that `pooling` reads from encode()'s token rows."""
    return tokens[0] if pooling == "cls" else tokens[1:].mean(axis=0)


def snapshot(params):
    return [t.data.copy() for _, t in params.named_tensors()]


def unchanged(params, copies):
    return all(np.array_equal(t.data, c) for (_, t), c in zip(params.named_tensors(), copies, strict=True))


class TestInit:
    def test_seed_determinism(self):
        a = bb.init_encoder(replace(TINY, seed=5), dtype=np.float32)
        b = bb.init_encoder(replace(TINY, seed=5), dtype=np.float32)
        for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
            assert np.array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        a = bb.init_encoder(replace(TINY, seed=5), dtype=np.float32)
        b = bb.init_encoder(replace(TINY, seed=6), dtype=np.float32)
        assert not unchanged(b, snapshot(a))

    def test_parameters_are_read_only(self):
        params = bb.init_encoder(replace(TINY, seed=5), dtype=np.float32)
        head = bb.attach_head(8, 4, seed=1, normalize_input=True, dtype=np.float32)
        tensors = [t for _, t in params.named_tensors()] + [head.weight, head.bias]
        for t in tensors:
            with pytest.raises(ValueError):
                t.data[...] = 0.0
            with pytest.raises(ValueError):
                t.data += 1.0

    def test_parameter_count_matches_hand_count(self):
        cfg = reference_encoder(image_size=224, patch_size=16, depth=2, dim=32, heads=4, mlp_ratio=4.0, seed=0)
        params = bb.init_encoder(cfg, dtype=np.float32)
        actual = sum(t.size for _, t in params.named_tensors())
        # hand count: shapes enumerated independently of init_encoder()
        d, mlp, tokens, patch_in = 32, 128, 197, 768
        expected = (
            d * patch_in + d            # patch embedding
            + d                          # cls token
            + tokens * d                 # positional table
            + 2 * ((3 * d * d + 3 * d) + (d * d + d) + (mlp * d + mlp) + (d * mlp + d) + 4 * d)
            + 2 * d                      # final norm
        )
        assert actual == expected

    def test_invalid_configs(self):
        for changes in (
            dict(image_size=225, patch_size=16),
            dict(dim=30, heads=4),
            dict(patch_size=0),
            dict(patch_size=-16),
            dict(image_size=0),
            dict(dim=0),
            dict(heads=0),
            dict(dim=-4, heads=-2),
            dict(mlp_ratio=float("nan")),
            dict(mlp_ratio=float("inf")),
            dict(mlp_ratio=0.0),
            dict(dim=8, heads=2, mlp_ratio=0.05),  # mlp_dim rounds to 0
        ):
            with pytest.raises(ConfigError):
                RunConfig(encoder=reference_encoder(**changes)).validate()
            with pytest.raises(ConfigError):
                reference_encoder(**changes).check_geometry()


class TestEncode:
    def test_patch_token_counts(self):
        cfg = reference_encoder(image_size=512, patch_size=16, depth=1, dim=8, heads=2, seed=1)
        params = bb.init_encoder(cfg, dtype=np.float32)
        tokens = bb.encode(params, np.zeros((3, 512, 512), dtype=np.float32))
        assert tokens.shape == (1025, 8)  # CLS first, then 32 x 32 patches

    def test_224_gives_196_tokens(self):
        params = bb.init_encoder(reference_encoder(image_size=224, patch_size=16, depth=1, dim=8, heads=2, seed=1), dtype=np.float32)
        tokens = bb.encode(params, np.zeros((3, 224, 224), dtype=np.float32))
        assert tokens[1:].shape == (196, 8)  # the patch tokens, after the CLS row
        assert image_embedding(params, np.zeros((3, 224, 224), dtype=np.float32)).shape == (8,)

    def test_pure_function(self):
        rng = np.random.default_rng(2)
        params = bb.init_encoder(replace(TINY, seed=2), dtype=np.float64)
        img = rand_image(rng, 32)
        before = snapshot(params)
        a = bb.encode(params, img)
        b = bb.encode(params, img)
        assert np.array_equal(a, b)
        assert unchanged(params, before)

    def test_wrong_size_rejected(self):
        params = bb.init_encoder(replace(TINY, seed=2), dtype=np.float32)
        with pytest.raises(ValueError):
            bb.encode(params, np.zeros((3, 48, 48)))
        with pytest.raises(ValueError):
            image_embedding(params, np.zeros((3, 48, 48)))

    def test_mean_pooling(self):
        cfg = reference_encoder(image_size=32, depth=1, dim=8, heads=2, pooling="mean", seed=3)
        params = bb.init_encoder(cfg, dtype=np.float64)
        img = rand_image(np.random.default_rng(0), 32)
        np.testing.assert_allclose(image_embedding(params, img), bb.encode(params, img)[1:].mean(axis=0), rtol=1e-12)

    @pytest.mark.parametrize("pooling", ["cls", "mean"])
    def test_embed_matches_encode(self, pooling):
        cfg = reference_encoder(image_size=64, dim=8, heads=2, pooling=pooling, seed=4)
        params = bb.init_encoder(cfg, dtype=np.float64)
        for seed in range(3):
            img = rand_image(np.random.default_rng(seed), 64)
            np.testing.assert_allclose(image_embedding(params, img), pooled(bb.encode(params, img), pooling),
                                       rtol=0, atol=1e-12)

    def test_patchify_layout(self):
        img = np.arange(3 * 4 * 4, dtype=np.float64).reshape(3, 4, 4)
        rows = bb.patchify(img, 2)
        assert rows.shape == (4, 12)
        # first patch = channels-first 2x2 corner
        np.testing.assert_array_equal(rows[0], np.concatenate([img[c, :2, :2].ravel() for c in range(3)]))


class TestHead:
    def test_zero_weight_head_maps_to_zero(self):
        head = bb.Head(
            weight=ad.Tensor(np.zeros((6, 8))),
            bias=ad.Tensor(np.zeros(6)),
            normalize_input=True,
        )
        z = head.apply(ad.as_tensor(np.full(8, 0.25)))
        np.testing.assert_array_equal(z.data, np.zeros(6))

    def test_seed_determinism(self):
        a, b, c = (bb.attach_head(8, 16, seed, normalize_input=True, dtype=np.float32) for seed in (4, 4, 5))
        assert np.array_equal(a.weight.data, b.weight.data)
        assert not np.array_equal(a.weight.data, c.weight.data)

    @pytest.mark.parametrize("normalize_input", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(64,), (2, 64), (12, 64), (196, 64)])
    def test_untracked_apply_is_the_numpy_expression(self, shape, dtype, normalize_input):
        # every untaped caller (negative bank, DINO teacher, segmentation
        # support) reads `apply(x).data`: it must equal the plain expression
        # bit for bit, and record nothing on a live tape
        head = bb.attach_head(64, 48, seed=7, normalize_input=normalize_input, dtype=dtype)
        for seed in range(20):
            x = np.random.default_rng(seed).normal(size=shape).astype(dtype)
            with ad.GradTape() as tape:
                got = head.apply(x).data
            assert len(tape) == 0
            assert got.dtype == dtype and got.shape == shape[:-1] + (48,)
            assert np.array_equal(got, head_rows(head, x))


def kl_objective(head, tau):
    def loss_fn(z):
        logits = head.apply(z)
        uniform = np.full(logits.shape, 1.0 / logits.size)  # -sum(uniform * log p) is -mean(log p)
        return ad.add(ad.cross_entropy(logits, tau, uniform), ad.as_tensor(-np.log(head.weight.shape[0])))

    return loss_fn


class TestLossGradient:
    def test_uniform_logits_are_stationary(self):
        params = bb.init_encoder(replace(TINY, seed=8), dtype=np.float64)
        head = bb.Head(
            weight=ad.Tensor(np.zeros((12, 8))),
            bias=ad.Tensor(np.zeros(12)),
            normalize_input=True,
        )
        img = rand_image(np.random.default_rng(3), 32)
        source = GradientSection(block_index=TINY.depth - 1, layer_kind="attn_proj")
        dw, db = bb.loss_gradient(params, source, view_states(params, source, [img]),
                                  kl_objective(head, RunConfig().kl.temperature))
        assert np.linalg.norm(dw) < 1e-8
        assert np.linalg.norm(db) < 1e-8

    @staticmethod
    def assert_matches_finite_differences(kind, pooling, block, views):
        head = bb.attach_head(8, 6, seed=10, normalize_input=True, dtype=np.float64)
        loss_fn = kl_objective(head, tau=2.0)
        params = bb.init_encoder(replace(TINY, pooling=pooling, seed=9), dtype=np.float64)
        source = GradientSection(block_index=block, layer_kind=kind)
        dw, db = bb.loss_gradient(params, source, view_states(params, source, views), loss_fn)
        w0, b0 = source_layer(params, source)
        assert dw.shape == w0.shape and db.shape == b0.shape

        def f(flat):
            p2 = replace_source_layer(params, source, flat[: w0.size].reshape(w0.shape), flat[w0.size :])
            return loss_fn(ad.as_tensor(np.stack([pooled(bb.encode(p2, v), pooling) for v in views]))).data.item()

        flat0 = np.concatenate([w0.data.ravel(), b0.data.ravel()])
        # eps balances truncation against roundoff for O(1) loss values; the
        # Richardson step leaves O(eps^4) truncation, where plain central
        # differences reach 1.5e-5 on two views
        want = richardson_gradient(f, flat0, eps=1e-4)
        error = max_relative_error(np.concatenate([dw.ravel(), db.ravel()]), want)
        assert error < 1e-5, f"{kind}, block {block}, {pooling} pooling: rel error {error:.2e}"

    @pytest.mark.parametrize("kind", list(bb.LAYER_PREFIXES))
    def test_matches_finite_differences(self, kind):
        views = [rand_image(np.random.default_rng(4), 32)]
        for pooling in ("cls", "mean"):
            for block in range(TINY.depth):
                self.assert_matches_finite_differences(kind, pooling, block, views)

    def test_two_views_match_finite_differences(self):
        rng = np.random.default_rng(4)
        views = [rand_image(rng, 32), rand_image(rng, 32)]
        self.assert_matches_finite_differences("mlp_fc1", "mean", 0, views)

    def test_params_not_mutated(self):
        params = bb.init_encoder(replace(TINY, seed=11), dtype=np.float64)
        head = bb.attach_head(8, 4, seed=12, normalize_input=True, dtype=np.float64)
        before = snapshot(params)
        source = GradientSection(block_index=0, layer_kind="mlp_fc1")
        bb.loss_gradient(
            params,
            source,
            view_states(params, source, [rand_image(np.random.default_rng(5), 32)]),
            kl_objective(head, RunConfig().kl.temperature),
        )
        assert unchanged(params, before)


class TestReferenceForward:
    """`encode`, and `embed` of every `tap_state`, against the plain numpy
    forward of `oracles.reference_tokens`, written from the architecture.
    At f64 the two routes differ by rounding alone: within 1e-12 of the
    largest entry, where the largest difference seen is about 1e-15."""

    TOL = 1e-12

    @pytest.mark.parametrize("pooling", ["cls", "mean"])
    def test_encode_equals_reference(self, pooling):
        params = bb.init_encoder(replace(TINY, pooling=pooling, seed=21), dtype=np.float64)
        for seed in range(3):
            img = rand_image(np.random.default_rng(seed), 32)
            assert largest_entry_error(bb.encode(params, img), reference_tokens(params, img)) <= self.TOL

    @pytest.mark.parametrize("pooling", ["cls", "mean"])
    @pytest.mark.parametrize("block", [0, -1])
    @pytest.mark.parametrize("kind", list(bb.LAYER_PREFIXES))
    def test_embed_of_every_source_equals_reference(self, kind, block, pooling):
        params, source, views = TestSplitForward.build(kind, block, pooling, np.float64)
        got = bb.embed(params, source, view_states(params, source, views))
        want = np.stack([reference_embedding(params, v) for v in views])
        assert got.shape == want.shape and largest_entry_error(got, want) <= self.TOL


class TestCollapsedEmbedding:
    def test_embedding_constant_but_qkv_gradient_varies(self):
        rng = np.random.default_rng(13)
        params = collapse_output_paths(bb.init_encoder(replace(TINY, seed=14), dtype=np.float64))
        img_a, img_b = rand_image(rng, 32), rand_image(rng, 32)
        emb_a = image_embedding(params, img_a)
        emb_b = image_embedding(params, img_b)
        np.testing.assert_allclose(emb_a, emb_b, atol=1e-12)
        assert np.linalg.norm(emb_a) > 1e-6

        head = bb.attach_head(8, 6, seed=15, normalize_input=True, dtype=np.float64)
        source = GradientSection(block_index=1, layer_kind="qkv")
        dw_a, _ = bb.loss_gradient(params, source, view_states(params, source, [img_a]), kl_objective(head, tau=2.0))
        dw_b, _ = bb.loss_gradient(params, source, view_states(params, source, [img_b]), kl_objective(head, tau=2.0))
        assert np.linalg.norm(dw_a) > 1e-10
        assert np.linalg.norm(dw_a - dw_b) > 1e-10 * np.linalg.norm(dw_a)


class TestSplitForward:
    """The pooled forward split at the [gradients] source layer: `tap_state`
    runs the layers before it, `embed` and `loss_gradient` resume a view set
    there."""

    @staticmethod
    def build(kind, block, pooling, dtype):
        params = bb.init_encoder(replace(TINY, pooling=pooling, seed=16), dtype=dtype)
        source = GradientSection(block_index=block, layer_kind=kind)
        rng = np.random.default_rng(17)
        return params, source, [rand_image(rng, 32).astype(dtype) for _ in range(3)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pooling", ["cls", "mean"])
    @pytest.mark.parametrize("block", [0, -1])
    @pytest.mark.parametrize("kind", list(bb.LAYER_PREFIXES))
    def test_resume_equals_whole_forward(self, kind, block, pooling, dtype):
        params, source, views = self.build(kind, block, pooling, dtype)
        # split before the first layer, the resume runs every block
        first = GradientSection(block_index=0, layer_kind="qkv")
        for view in views:
            whole = bb.embed(params, first, [bb.tap_state(params, first, view)])[0]
            state = bb.tap_state(params, source, view)
            np.testing.assert_array_equal(bb.embed(params, source, [state])[0], whole)
            residual, hidden = state
            assert whole.dtype == residual.dtype == dtype
            # the state holds only what the rest reads: the last block under
            # CLS pooling keeps the CLS row of the residual past its ln1, and
            # of the attention and GELU rows; before its qkv it keeps every
            # token row of the residual, whose layer norm the qkv reads
            last = block % TINY.depth == TINY.depth - 1 and pooling == "cls"
            tokens = TINY.num_patches + 1
            assert residual.shape == (1 if last and kind != "qkv" else tokens, TINY.dim)
            if kind in ("qkv", "mlp_fc1"):
                assert hidden is None
            else:
                assert hidden.dtype == dtype and hidden.shape[0] == (1 if last else tokens)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pooling", ["cls", "mean"])
    @pytest.mark.parametrize("block", [0, -1])
    @pytest.mark.parametrize("kind", list(bb.LAYER_PREFIXES))
    def test_view_set_equals_per_view_oracle(self, kind, block, pooling, dtype):
        """A view set resumes as rows of one tensor. Resumed one view at a
        time instead, its embeddings and gradient move by rounding alone:
        within 1e-12 of the largest entry at f64, and within 1e-5 at f32,
        where the largest move seen is 4e-7."""
        params, source, views = self.build(kind, block, pooling, dtype)
        head = bb.attach_head(8, 6, seed=18, normalize_input=True, dtype=dtype)
        states = view_states(params, source, views)
        pairs = [(bb.embed(params, source, states), per_view_embed(params, source, states))]
        pairs += zip(bb.loss_gradient(params, source, states, kl_objective(head, tau=2.0)),
                     per_view_loss_gradient(params, source, states, kl_objective(head, tau=2.0)), strict=True)
        for got, want in pairs:
            assert got.dtype == want.dtype == dtype and got.shape == want.shape
            assert largest_entry_error(got, want) <= (1e-12 if dtype == np.float64 else 1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("pooling", ["cls", "mean"])
    @pytest.mark.parametrize("block", [0, -1])
    @pytest.mark.parametrize("kind", list(bb.LAYER_PREFIXES))
    def test_gradient_from_kept_states_equals_fresh(self, kind, block, pooling, dtype):
        params, source, views = self.build(kind, block, pooling, dtype)
        head = bb.attach_head(8, 6, seed=18, normalize_input=True, dtype=dtype)
        kept = view_states(params, source, views)
        # other forwards run between building the states and resuming them
        for view in views:
            bb.encode(params, view)
        got = bb.loss_gradient(params, source, kept, kl_objective(head, tau=2.0))
        want = bb.loss_gradient(params, source, view_states(params, source, views), kl_objective(head, tau=2.0))
        for g, w in zip(got, want, strict=True):
            assert g.dtype == dtype
            np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("pooling", ["cls", "mean"])
@pytest.mark.parametrize("block", [0, -1])
@pytest.mark.parametrize("kind", list(bb.LAYER_PREFIXES))
def test_state_holds_no_rows_the_resume_recomputes(kind, block, pooling):
    """qkv and fc1 read the layer norm of the residual, which the resume
    takes, so their states keep the residual alone; the trimmed last block's
    qkv keeps its token rows and nothing else."""
    params, source, views = TestSplitForward.build(kind, block, pooling, np.float64)
    residual, hidden = bb.tap_state(params, source, views[0])
    assert isinstance(residual, np.ndarray)
    assert (hidden is None) == (kind in ("qkv", "mlp_fc1"))
    if kind == "qkv":
        assert residual.shape == (TINY.num_patches + 1, TINY.dim)


@pytest.mark.parametrize("pooling", ["cls", "mean"])
@pytest.mark.parametrize("block", [0, -1])
@pytest.mark.parametrize("kind", list(bb.LAYER_PREFIXES))
def test_state_arrays_own_their_memory(kind, block, pooling):
    """A kept state must not be a view: a narrowed CLS row would pin its
    whole token buffer for as long as the state is kept."""
    params, source, views = TestSplitForward.build(kind, block, pooling, np.float32)
    assert all(a.base is None for a in bb.tap_state(params, source, views[0]) if a is not None)
