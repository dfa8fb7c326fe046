import numpy as np
import pytest

from fungi import autodiff as ad
from fungi import backbone as bb
from fungi import objectives as obj

from .oracles import finite_diff_gradient, head_rows, max_relative_error, reference_encoder


def enumerate_kl_from_uniform(z, tau):
    """Direct enumeration oracle: sum_i u_i * log(u_i / q_i)."""
    z = np.asarray(z, dtype=np.float64) / tau
    q = np.exp(z - z.max())
    q /= q.sum()
    u = 1.0 / len(z)
    return float(np.sum(u * np.log(u / q)))


class TestKlLoss:
    def test_constant_logits_give_zero(self):
        loss = obj.kl_loss(ad.as_tensor(np.full(16, 3.7)), tau=15.0)
        assert abs(loss.data.item()) < 1e-12

    def test_matches_enumeration_oracle(self):
        z = np.array([1.0, 0.0])
        got = obj.kl_loss(ad.as_tensor(z), tau=1.0).data.item()
        assert abs(got - enumerate_kl_from_uniform(z, 1.0)) < 1e-12

        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.normal(size=rng.integers(2, 40))
            got = obj.kl_loss(ad.as_tensor(z), tau=15.0).data.item()
            assert abs(got - enumerate_kl_from_uniform(z, 15.0)) < 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=12)
        a = obj.kl_loss(ad.as_tensor(z), tau=15.0).data.item()
        b = obj.kl_loss(ad.as_tensor(z + 123.4), tau=15.0).data.item()
        assert abs(a - b) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = rng.normal(scale=5.0, size=10)
            assert obj.kl_loss(ad.as_tensor(z), tau=15.0).data.item() >= 0.0

    def test_gradient_matches_oracle(self):
        rng = np.random.default_rng(3)
        z0 = rng.normal(size=9)

        def build(z):
            return obj.kl_loss(z, tau=15.0)

        leaf = ad.parameter(z0)
        with ad.GradTape() as tape:
            loss = build(leaf)
        got = tape.backward(loss)[leaf]

        def f(p):
            with ad.GradTape():
                return build(ad.parameter(p)).data.item()

        want = finite_diff_gradient(f, z0, eps=1e-4)
        assert max_relative_error(got, want) < 1e-6


def dino_pair_loop(student_z, teacher_z, tau_s, tau_t):
    """The loss as one tape term per (teacher, student) crop pair, each
    weighted by one over the number of pairs, summed."""
    pairs = len(teacher_z) * (len(student_z) - 1)
    loss = None
    for t_idx, zt in enumerate(teacher_z):
        scaled = np.asarray(zt) / tau_t
        probs = np.exp(scaled - scaled.max())
        pt = probs / probs.sum()
        for s_idx, zs in enumerate(student_z):
            if s_idx != t_idx:
                term = ad.cross_entropy(zs, tau_s, pt / pairs)
                loss = term if loss is None else ad.add(loss, term)
    return loss


class TestDinoLoss:
    def _latents(self, seed, n, dim=8):
        rng = np.random.default_rng(seed)
        return [ad.as_tensor(rng.normal(size=dim)) for _ in range(n)]

    def test_equal_logits_equal_temps_gives_entropy(self):
        zs = self._latents(0, 1)[0]
        loss = obj.dino_loss(ad.as_tensor(np.stack([zs.data] * 3)), np.stack([zs.data, zs.data]), tau_s=0.1, tau_t=0.1).data.item()
        p = np.exp(zs.data / 0.1 - np.max(zs.data / 0.1))
        p /= p.sum()
        entropy = -np.sum(p * np.log(p))
        assert abs(loss - entropy) < 1e-10

    def test_sharp_teacher_limit(self):
        rng = np.random.default_rng(4)
        zt = rng.normal(size=6)
        zs = rng.normal(size=6)
        loss = obj.dino_loss(ad.as_tensor(np.stack([zs, zs, zs])), np.stack([zt, zt]), tau_s=0.1, tau_t=1e-3).data.item()
        scaled = zs / 0.1
        log_q = scaled - np.log(np.exp(scaled - scaled.max()).sum()) - scaled.max()
        want = -log_q[np.argmax(zt)]
        assert abs(loss - want) < 1e-6

    def test_requires_two_teacher_views(self):
        z = self._latents(5, 1)
        with pytest.raises(ValueError):
            obj.dino_loss(ad.as_tensor(np.stack([t.data for t in z])), np.stack([z[0].data]), tau_s=0.1, tau_t=0.07)

    def test_identical_view_pair_excluded(self):
        # 2 teacher + 2 student views -> 2 pairs, each teacher against the
        # other view only
        rng = np.random.default_rng(6)
        s = [ad.as_tensor(rng.normal(size=5)) for _ in range(2)]
        loss = obj.dino_loss(ad.as_tensor(np.stack([t.data for t in s])), np.stack([t.data for t in s]), tau_s=0.1, tau_t=0.07).data.item()

        def ce(zt, zs):
            p = np.exp(zt / 0.07 - np.max(zt / 0.07))
            p /= p.sum()
            sc = zs / 0.1
            lq = sc - sc.max() - np.log(np.exp(sc - sc.max()).sum())
            return -np.sum(p * lq)

        want = 0.5 * (ce(s[0].data, s[1].data) + ce(s[1].data, s[0].data))
        assert abs(loss - want) < 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_pair_loop(self, seed):
        rng = np.random.default_rng(40 + seed)
        n_global, n_local, dim = 2 + seed % 2, 10, 16
        teacher = [rng.normal(scale=3.0, size=dim) for _ in range(n_global)]
        raw = rng.normal(scale=3.0, size=(n_global + n_local, dim))

        def run(loss_fn):
            leaf = ad.parameter(raw)
            with ad.GradTape() as tape:
                loss = loss_fn(leaf)
            return loss.data.item(), tape.backward(loss)[leaf]

        def pair_loop(leaf):
            rows = [ad.mean(ad.narrow(leaf, 0, i, 1), axis=0) for i in range(len(raw))]
            return dino_pair_loop(rows, teacher, tau_s=0.1, tau_t=0.07)

        got, got_grad = run(lambda leaf: obj.dino_loss(leaf, np.stack(teacher), tau_s=0.1, tau_t=0.07))
        want, want_grad = run(pair_loop)
        assert abs(got - want) < 1e-12
        np.testing.assert_allclose(got_grad, want_grad, rtol=0, atol=1e-12)

    def test_no_gradient_through_teacher(self):
        rng = np.random.default_rng(7)
        teacher_w = ad.parameter(rng.normal(size=(6, 4)))
        student_w = ad.parameter(rng.normal(size=(6, 4)))
        x = ad.as_tensor(rng.normal(size=4))
        zt = ad.linear(x, teacher_w).data  # outside the tape: a constant
        with ad.GradTape() as tape:
            zs = ad.linear(ad.as_tensor(np.stack([x.data] * 3)), student_w)  # three equal student rows
            loss = obj.dino_loss(zs, np.stack([zt, zt * 0.5]), tau_s=0.1, tau_t=0.07)
        grads = tape.backward(loss)
        assert grads.get(teacher_w) is None
        assert grads.get(student_w) is not None


def unit_rows(rng, n, dim):
    x = rng.normal(size=(n, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestSimclrLoss:
    def test_uniform_similarity_value(self):
        # every latent identical: softmax denominator is uniform over
        # 49 * 257 - 1 entries
        dim = 16
        v = np.zeros(dim)
        v[0] = 1.0
        z = ad.as_tensor(np.tile(v, (49, 1)))
        bank = obj.SupportIndex(np.tile(v, (49 * 256, 1)))
        loss = obj.simclr_loss(z, bank, tau=0.07).data.item()
        assert abs(loss - np.log(49 * 257 - 1)) < 1e-6

    def test_two_positives_one_negative_by_hand(self):
        tau = 0.5
        z1 = np.array([1.0, 0.0])
        z2 = np.array([0.0, 1.0])
        neg = np.array([[np.sqrt(0.5), np.sqrt(0.5)]])
        loss = obj.simclr_loss(
            ad.as_tensor(np.stack([z1, z2])), obj.SupportIndex(neg), tau=tau
        ).data.item()

        def term(a, b, others):
            num = np.exp(a @ b / tau)
            den = num + sum(np.exp(a @ o / tau) for o in others)
            return -np.log(num / den)

        want = 0.5 * (term(z1, z2, [neg[0]]) + term(z2, z1, [neg[0]]))
        assert abs(loss - want) < 1e-12

    def test_each_pair_term_nonnegative(self):
        rng = np.random.default_rng(8)
        z = unit_rows(rng, 6, 8)
        bank = obj.SupportIndex(unit_rows(rng, 20, 8))
        loss = obj.simclr_loss(ad.as_tensor(z), bank, tau=0.07).data.item()
        assert loss >= 0.0

    def test_increasing_pair_similarity_decreases_loss(self):
        rng = np.random.default_rng(9)
        bank = obj.SupportIndex(unit_rows(rng, 10, 4))

        def loss_with_angle(angle):
            z1 = np.array([1.0, 0.0, 0.0, 0.0])
            z2 = np.array([np.cos(angle), np.sin(angle), 0.0, 0.0])
            return obj.simclr_loss(ad.as_tensor(np.stack([z1, z2])), bank, tau=0.07).data.item()

        losses = [loss_with_angle(a) for a in (1.5, 1.0, 0.5, 0.1)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_unnormalized_positives_give_the_loss_of_their_normalization(self):
        rng = np.random.default_rng(10)
        raw = rng.normal(size=(4, 8)) * np.array([[0.5], [1.01], [3.0], [20.0]])
        bank = obj.SupportIndex(unit_rows(rng, 5, 8))
        got = obj.simclr_loss(ad.as_tensor(raw), bank, tau=0.07).data.item()
        want = obj.simclr_loss(ad.as_tensor(raw / np.linalg.norm(raw, axis=1, keepdims=True)), bank, tau=0.07).data.item()
        assert abs(got - want) < 1e-12

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_positive_raises_numeric_error(self, value):
        # a tensor is finite when made; a later write to its data is caught
        # where the loss normalizes it
        rng = np.random.default_rng(10)
        z, bank = ad.as_tensor(unit_rows(rng, 4, 8)), obj.SupportIndex(unit_rows(rng, 5, 8))
        z.data[2, 3] = value
        with pytest.raises(ad.NumericError, match="l2_normalize"):
            obj.simclr_loss(z, bank, tau=0.07)

    def test_needs_two_positives(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            obj.simclr_loss(ad.as_tensor(unit_rows(rng, 1, 8)), obj.SupportIndex(unit_rows(rng, 3, 8)), tau=0.07)

    def test_gradient_matches_oracle(self):
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(5, 6))
        bank = obj.SupportIndex(unit_rows(rng, 12, 6))

        def build(leaf):
            return obj.simclr_loss(leaf, bank, tau=0.2)

        leaf = ad.parameter(raw)
        with ad.GradTape() as tape:
            loss = build(leaf)
        got = tape.backward(loss)[leaf]

        def f(flat):
            with ad.GradTape():
                return build(ad.parameter(flat.reshape(raw.shape))).data.item()

        want = finite_diff_gradient(f, raw.ravel(), eps=1e-5).reshape(raw.shape)
        assert max_relative_error(got, want) < 1e-6


def parent_info_nce(z_norm, bank_rows, tau):
    """The earlier InfoNCE, which masked the full (P, P + M) logits and
    averaged the pair terms after the softmax: the oracle for the loss that
    masks the positive block and weighs the pairs in its target."""
    p = z_norm.shape[0]
    if p < 2:
        raise ValueError("contrastive loss needs at least 2 positive views")
    blocks = [ad.linear(z_norm, z_norm), ad.linear(z_norm, np.asarray(bank_rows, dtype=z_norm.dtype))]
    logits = ad.concat(blocks, axis=1)

    total_cols = logits.shape[1]
    self_mask = np.zeros((p, total_cols), dtype=logits.dtype)
    self_mask[np.arange(p), np.arange(p)] = obj._NEG_INF
    pair_mask = np.zeros((p, total_cols), dtype=logits.dtype)
    pair_mask[:p, :p] = 1.0 - np.eye(p)
    n_pairs = p * (p - 1)
    return ad.cross_entropy(ad.add(logits, ad.as_tensor(self_mask)), tau, pair_mask / n_pairs)


def choice_loop_draw(rng, rows, population, size):
    """The earlier negative draw: one rng.choice per token, sorted."""
    picks = np.empty((rows, size), dtype=np.int64)
    for i in range(rows):
        picks[i] = np.sort(rng.choice(population, size=size, replace=False))
    return picks


def parent_simclr_patch_loss(patch_tokens, head, support, tau, seed, retrieved_per_patch, kept_per_patch,
                             draw=choice_loop_draw):
    """The earlier dense loss: a numpy head forward picks the negatives, a
    second, taped head forward feeds parent_info_nce."""
    tokens_data = np.asarray(patch_tokens)
    latents = head_rows(head, tokens_data)
    latents = latents / np.linalg.norm(latents, axis=1, keepdims=True)
    neighbor_ids = support.search(latents, retrieved_per_patch)
    picks = draw(np.random.default_rng(seed), len(neighbor_ids), retrieved_per_patch, kept_per_patch)
    negatives = support.rows[np.take_along_axis(neighbor_ids, picks, axis=1).reshape(-1)]
    leaf = ad.parameter(tokens_data)
    with ad.GradTape() as tape:
        loss = parent_info_nce(ad.l2_normalize(head.apply(leaf)), negatives, tau)
    return tape.backward(loss)[leaf][1:], loss.data.item()


def patch_loss_and_value(*args, **kwargs):
    """obj.simclr_patch_loss's gradients, and the value of the loss that
    they differentiate, read from its InfoNCE call."""
    values = []
    info_nce = obj._info_nce

    def recording(*info_nce_args):
        values.append(info_nce(*info_nce_args))
        return values[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(obj, "_info_nce", recording)
        grads = obj.simclr_patch_loss(*args, **kwargs)
    (loss,) = values
    return grads, loss.data.item()


def assert_loss_close(got, want, dtype):
    # the loss sums the (P, P) block, the oracle the (P, P + M) rows, so the
    # value may differ in the last bits of the dtype
    assert abs(got - want) <= 16 * np.finfo(dtype).eps * abs(want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestInfoNceAgainstParent:
    def test_simclr_loss(self, dtype):
        rng = np.random.default_rng(50)
        raw = rng.normal(size=(9, 24)).astype(dtype)
        bank = obj.SupportIndex(unit_rows(rng, 40, 24).astype(dtype))

        def run(loss_fn):
            leaf = ad.parameter(raw)
            with ad.GradTape() as tape:
                loss = loss_fn(leaf)
            return loss.data.item(), tape.backward(loss)[leaf]

        got, got_grad = run(lambda z: obj.simclr_loss(z, bank, tau=0.07))
        want, want_grad = run(lambda z: parent_info_nce(ad.l2_normalize(z), bank.rows, 0.07))
        assert got_grad.dtype == dtype
        assert np.array_equal(got_grad, want_grad)
        assert_loss_close(got, want, dtype)

    def test_simclr_patch_loss(self, dtype):
        dim = 16
        params = bb.init_encoder(reference_encoder(image_size=64, depth=1, dim=dim, heads=2, seed=51), dtype=dtype)
        head = bb.attach_head(dim, 12, seed=52, normalize_input=False, dtype=dtype)
        rng = np.random.default_rng(53)
        support = obj.SupportIndex(head.apply(rng.normal(size=(40, dim)).astype(dtype)).data)
        for seed in (0, 7):
            tokens = bb.encode(params, rng.random((3, 64, 64)))
            got, got_loss = patch_loss_and_value(tokens, head, support, tau=0.07, seed=seed,
                                                  retrieved_per_patch=2, kept_per_patch=1)
            want, want_loss = parent_simclr_patch_loss(tokens, head, support, tau=0.07, seed=seed,
                                                       retrieved_per_patch=2, kept_per_patch=1)
            assert got.dtype == dtype
            assert np.array_equal(got, want)
            assert_loss_close(got_loss, want_loss, dtype)


class TestNegativeDraw:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_one_kept_is_the_choice_loop_stream(self, seed):
        for population in range(1, 9):
            got = obj._draw_without_replacement(np.random.default_rng(seed), 257, population, 1)
            want = choice_loop_draw(np.random.default_rng(seed), 257, population, 1)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("population, size", [(2, 2), (3, 2), (5, 3), (8, 4), (8, 7), (8, 8)])
    def test_rows_are_sorted_distinct_ids_in_range(self, population, size):
        for seed in (0, 3, 11):
            picks = obj._draw_without_replacement(np.random.default_rng(seed), 500, population, size)
            assert picks.shape == (500, size)
            assert picks.min() >= 0 and picks.max() <= population - 1
            assert (np.diff(picks, axis=1) > 0).all()

    def test_every_subset_is_equally_likely(self):
        # 6 subsets of 2 of 4 ids over 6,000 rows: each count is 1,000 with a
        # standard deviation of about 29
        picks = obj._draw_without_replacement(np.random.default_rng(5), 6000, 4, 2)
        _, counts = np.unique(picks[:, 0] * 4 + picks[:, 1], return_counts=True)
        assert len(counts) == 6
        assert (np.abs(counts - 1000) < 150).all()

    def test_dense_loss_keeps_the_drawn_neighbors(self):
        # at 3 kept of 4 the draw is no longer the choice loop's stream; the
        # loss must still score exactly the neighbors it draws
        head = bb.attach_head(8, 12, seed=21, normalize_input=False, dtype=np.float64)
        rng = np.random.default_rng(54)
        support = obj.SupportIndex(rng.normal(size=(40, 12)))
        tokens = rng.normal(size=(17, 8))
        got, got_loss = patch_loss_and_value(tokens, head, support, tau=0.07, seed=3,
                                              retrieved_per_patch=4, kept_per_patch=3)
        want, want_loss = parent_simclr_patch_loss(tokens, head, support, tau=0.07, seed=3, retrieved_per_patch=4,
                                                   kept_per_patch=3, draw=obj._draw_without_replacement)
        assert np.array_equal(got, want)
        assert_loss_close(got_loss, want_loss, np.float64)


class TestDenseLossTape:
    def test_at_most_three_full_width_outputs(self, monkeypatch):
        # only the concatenated (P, P + M) logits are full width: the
        # cross-entropy reduces them to the loss in one node
        dim, tokens = 8, 17
        head = bb.attach_head(dim, 12, seed=54, normalize_input=False, dtype=np.float64)
        rng = np.random.default_rng(55)
        support = obj.SupportIndex(rng.normal(size=(40, 12)))
        shapes = []
        record = ad.GradTape._record

        def recording(tape, inputs, output, backward_fn):
            shapes.append(output.shape)
            return record(tape, inputs, output, backward_fn)

        monkeypatch.setattr(ad.GradTape, "_record", recording)
        obj.simclr_patch_loss(rng.normal(size=(tokens, dim)), head, support, tau=0.07, seed=1,
                              retrieved_per_patch=2, kept_per_patch=1)
        assert 0 < shapes.count((tokens, tokens + tokens)) <= 3


class TestSupportIndex:
    def test_rows_normalized_and_persisted(self):
        rng = np.random.default_rng(30)
        index = obj.SupportIndex(rng.normal(size=(20, 8)) * 3.0)
        np.testing.assert_allclose(np.linalg.norm(index.rows, axis=1), 1.0, atol=1e-12)

    def test_rows_are_read_only(self):
        # the unit-norm rows are checked once, as the index is made
        rng = np.random.default_rng(10)
        rows = unit_rows(rng, 5, 8)
        index = obj.SupportIndex(rows)
        with pytest.raises(ValueError, match="read-only"):
            index.rows[2, 3] = np.nan
        rows[2, 3] = np.nan  # the caller's array is not the index's
        assert np.isfinite(index.rows).all()

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="2-D"):
            obj.SupportIndex(np.ones(8))

    def test_exact_self_retrieval(self):
        rng = np.random.default_rng(13)
        rows = unit_rows(rng, 30, 8)
        idx = obj.SupportIndex(rows)
        ids = idx.search(rows[:5], k=1)
        np.testing.assert_array_equal(ids[:, 0], np.arange(5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            obj.SupportIndex(np.zeros((0, 8)))

    def test_zero_row_rejected(self):
        # such a row used to come back as NaN
        rows = np.ones((3, 4))
        rows[2] = 0.0
        with pytest.raises(ValueError, match="support row 2 has a zero or non-finite norm"):
            obj.SupportIndex(rows)

    def test_k_too_large(self):
        rng = np.random.default_rng(14)
        idx = obj.SupportIndex(unit_rows(rng, 3, 4))
        with pytest.raises(ValueError):
            idx.search(unit_rows(rng, 1, 4), k=5)


class TestSimclrPatchLoss:
    def _setup(self, image_size=64, dim=8):
        cfg = reference_encoder(image_size=image_size, depth=1, dim=dim, heads=2, seed=20)
        params = bb.init_encoder(cfg, dtype=np.float64)
        head = bb.attach_head(dim, 12, seed=21, normalize_input=False, dtype=np.float64)
        return cfg, params, head

    def test_cls_dropped_from_output(self):
        cfg, params, head = self._setup()
        rng = np.random.default_rng(22)
        img = rng.random((3, 64, 64))
        tokens = bb.encode(params, img)
        support = obj.SupportIndex(head.apply(np.random.default_rng(23).normal(size=(50, cfg.dim))).data)
        grads, loss = patch_loss_and_value(tokens, head, support, tau=0.07, seed=1,
                                            retrieved_per_patch=2, kept_per_patch=1)
        assert grads.shape == (cfg.num_patches, cfg.dim)
        assert np.isfinite(loss)

    def test_retrieval_and_keep_counts(self):
        _, params, head = self._setup()
        rng = np.random.default_rng(24)
        tokens = rng.normal(size=(17, 8))
        support = obj.SupportIndex(rng.normal(size=(40, 12)))
        grads = obj.simclr_patch_loss(tokens, head, support, tau=0.07, seed=2,
                                         retrieved_per_patch=2, kept_per_patch=1)
        assert grads.shape == (16, 8)

    def test_1024_gradient_rows_at_full_resolution(self):
        # 512x512 input with 16px patches: 1025 tokens in, 1024 gradient
        # rows out after the CLS row is dropped
        cfg = reference_encoder(image_size=512, patch_size=16, depth=1, dim=8, heads=2, seed=40)
        params = bb.init_encoder(cfg, dtype=np.float32)
        head = bb.attach_head(8, 12, seed=41, normalize_input=False, dtype=np.float32)
        tokens = bb.encode(params, np.random.default_rng(42).random((3, 512, 512), dtype=np.float64))
        assert tokens.shape == (1025, 8)
        support = obj.SupportIndex(np.random.default_rng(43).normal(size=(64, 12)))
        grads = obj.simclr_patch_loss(tokens, head, support, tau=0.07, seed=4,
                                         retrieved_per_patch=2, kept_per_patch=1)
        assert grads.shape == (1024, 8)

    def test_small_support_rejected(self):
        _, params, head = self._setup()
        rng = np.random.default_rng(25)
        tokens = rng.normal(size=(17, 8))
        support = obj.SupportIndex(rng.normal(size=(1, 12)))
        with pytest.raises(ValueError):
            obj.simclr_patch_loss(tokens, head, support, tau=0.07, seed=0, retrieved_per_patch=2, kept_per_patch=1)

    def test_gradient_matches_oracle(self):
        _, params, head = self._setup()
        rng = np.random.default_rng(26)
        tokens = rng.normal(size=(9, 8))
        support = obj.SupportIndex(rng.normal(size=(30, 12)))

        got = obj.simclr_patch_loss(tokens, head, support, tau=0.2, seed=3, retrieved_per_patch=2, kept_per_patch=1)

        # freeze the retrieved negatives, then finite-difference the same loss
        latents = head_rows(head, tokens)
        latents /= np.linalg.norm(latents, axis=1, keepdims=True)
        ids = support.search(latents, 2)
        rng2 = np.random.default_rng(3)
        kept = np.array([ids[i, np.sort(rng2.choice(2, size=1, replace=False))][0] for i in range(9)])
        negatives = support.rows[kept]

        def f(flat):
            t = flat.reshape(9, 8)
            z = head_rows(head, t)
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            sims = np.concatenate([z @ z.T, z @ negatives.T], axis=1) / 0.2
            np.fill_diagonal(sims[:, :9], -np.inf)
            lse = np.log(np.exp(sims - sims.max(axis=1, keepdims=True)).sum(axis=1)) + sims.max(axis=1, keepdims=True).ravel()
            total = 0.0
            for i in range(9):
                for j in range(9):
                    if i != j:
                        total += -(sims[i, j] - lse[i])
            return total / (9 * 8)

        want = finite_diff_gradient(f, tokens.ravel().astype(np.float64), eps=1e-5).reshape(9, 8)
        assert max_relative_error(got[0:], np.asarray(want)[1:]) < 1e-5
