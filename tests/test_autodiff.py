import gc
import weakref

import numpy as np
import pytest

from fungi import autodiff as ad

from .oracles import (attention_reference, cross_entropy_reference, finite_diff_gradient, richardson_gradient,
                      weighted_total)


def numeric_grad(build_loss, x0, eps=1e-6):
    """Finite-difference gradient of build_loss w.r.t. a leaf array."""

    def f(p):
        with ad.GradTape():
            leaf = ad.parameter(p)
            return build_loss(leaf).data.item()

    return finite_diff_gradient(f, np.asarray(x0, dtype=np.float64), eps)


def tape_grad(build_loss, x0):
    leaf = ad.parameter(np.asarray(x0, dtype=np.float64))
    with ad.GradTape() as tape:
        loss = build_loss(leaf)
    return tape.backward(loss)[leaf]


def check_op(build_loss, x0, eps=1e-6, tol=1e-6):
    got = tape_grad(build_loss, x0)
    want = numeric_grad(build_loss, x0, eps)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def value_and_grads(build, arrays, g):
    """Output of `build` over leaves holding `arrays`, and each leaf's
    gradient when the output's cotangent is exactly g."""
    leaves = [ad.parameter(a) for a in arrays]
    with ad.GradTape() as tape:
        out = build(*leaves)
        loss = weighted_total(out, g)
    grads = tape.backward(loss)
    return out.data, [grads[leaf] for leaf in leaves]


def freeze(obj):
    """Mark the arrays in obj (an array, tensor, or tuple or list of them)
    read-only."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, ad.Tensor):
        obj.data.flags.writeable = False
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            freeze(item)


def guard(tape):
    """Mark every array a backward pass may not write read-only: each node's
    inputs, output and the arrays its backward closure saved, and each
    cotangent as its node receives it."""
    for node in tape._nodes:
        freeze(node.inputs)
        freeze(node.output)
        for cell in node.backward_fn.__closure__ or ():
            freeze(cell.cell_contents)

        def guarded(g, fn=node.backward_fn):
            freeze(g)
            return fn(g)

        node.backward_fn = guarded


class TestPrimitiveValues:
    def test_l2_normalize_345(self):
        out = ad.l2_normalize(ad.as_tensor([3.0, 4.0]))
        np.testing.assert_allclose(out.data, [0.6, 0.8])

    def test_layer_norm_constant_vector(self):
        x = ad.as_tensor(np.full(8, 2.5))
        out = ad.layer_norm(x, ad.as_tensor(np.ones(8)), ad.as_tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data, np.zeros(8), atol=1e-3)

    def test_linear_matches_numpy(self):
        rng = np.random.default_rng(0)
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), rng.normal(size=4)
        out = ad.linear(ad.as_tensor(x), ad.as_tensor(w), ad.as_tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-12)

    def test_linear_vector_equals_one_row(self):
        rng = np.random.default_rng(13)
        x0, w0, b0 = rng.normal(size=3), rng.normal(size=(4, 3)), rng.normal(size=4)
        c = rng.normal(size=4)

        def run(x_shape):
            x, w = ad.parameter(x0.reshape(x_shape)), ad.parameter(w0)
            with ad.GradTape() as tape:
                y = ad.linear(x, w, ad.as_tensor(b0))
                loss = weighted_total(y, c.reshape(y.shape))
            grads = tape.backward(loss)
            return y.data.reshape(4), grads[x].reshape(3), grads[w]

        for vec, row in zip(run((3,)), run((1, 3))):
            np.testing.assert_allclose(vec, row, rtol=0, atol=1e-12)

    def test_attention_uniform_when_scores_equal(self):
        # constant query/key rows give uniform attention => output rows equal mean of values
        tokens, dim, heads = 4, 8, 2
        q = np.ones((tokens, dim))
        k = np.ones((tokens, dim))
        v = np.random.default_rng(1).normal(size=(tokens, dim))
        out = ad.scaled_dot_product_attention(
            ad.as_tensor(q), ad.as_tensor(k), ad.as_tensor(v), heads
        )
        np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (tokens, 1)), rtol=1e-10)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(3)
        x, target = rng.normal(size=(6, 6)), rng.random((6, 6))
        a = ad.cross_entropy(ad.gelu(ad.as_tensor(x)), 1.0, target).data
        b = ad.cross_entropy(ad.gelu(ad.as_tensor(x)), 1.0, target).data
        assert np.array_equal(a, b)

    def test_nonfinite_output_raises(self):
        with pytest.raises(ad.NumericError):
            ad.l2_normalize(ad.as_tensor([0.0, 0.0]))
        with pytest.raises(ad.NumericError), np.errstate(over="ignore"):  # overflow of finite inputs
            ad.add(ad.as_tensor([1e308, -1e308]), ad.as_tensor([1e308, -1e308]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_nonfinite_value_raises(self, bad):
        with pytest.raises(ad.NumericError, match="tensor creation"):
            ad.as_tensor([1.0, bad])
        # a tensor's data mutated after creation reaches the primitives'
        # output guard: in an array output, and in the 0-d output of a reduction
        for shape in ((197, 64), (1, 64)):
            x = ad.as_tensor(np.ones(shape))
            x.data[0, -1] = bad
            with pytest.raises(ad.NumericError, match="add"):
                ad.add(x, x)
            with pytest.raises(ad.NumericError, match="cross_entropy"), np.errstate(invalid="ignore"):
                ad.cross_entropy(x, 1.0, np.ones(shape))
            with pytest.raises(ad.NumericError, match="mean"):
                ad.mean(x, axis=0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ad.add(ad.as_tensor(np.ones(3)), ad.as_tensor(np.ones(4)))
        # no scalar broadcasting
        with pytest.raises(ValueError):
            ad.add(ad.as_tensor(2.0), ad.as_tensor(np.ones(3)))
        with pytest.raises(ValueError):
            ad.add(ad.as_tensor(np.ones((2, 2))), ad.as_tensor([2.0]))
        with pytest.raises(ValueError, match="target shape"):
            ad.cross_entropy(ad.as_tensor(np.ones((2, 3))), 1.0, np.ones(3))
        with pytest.raises(ValueError):
            ad.linear(ad.as_tensor(np.ones((2, 3))), ad.as_tensor(np.ones((2, 4))))


class TestBackward:
    def test_quadratic(self):
        x = ad.parameter([[1.0, 2.0]])
        with ad.GradTape() as tape:
            loss = ad.linear(x, x)  # x x^T, a (1, 1) scalar
        np.testing.assert_allclose(tape.backward(loss)[x], [[2.0, 4.0]])

    def test_fanout_accumulates(self):
        x = ad.parameter([1.0, 3.0])
        with ad.GradTape() as tape:
            y = ad.add(ad.add(x, x), x)  # 3x
            loss = weighted_total(y, [1.0, 2.0])
        np.testing.assert_allclose(tape.backward(loss)[x], [3.0, 6.0])

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(11)
        w0 = rng.normal(size=(3, 4))
        x = rng.normal(size=(1, 4))

        def run(mix):
            w = ad.parameter(w0)
            with ad.GradTape() as tape:
                y = ad.linear(ad.as_tensor(x), w)  # one row
                la = weighted_total(ad.linear(y, y), np.ones((1, 1)))  # y . y
                lb = weighted_total(ad.gelu(y), np.full((1, 3), 1 / 3))
                if mix == "a":
                    loss = la
                elif mix == "b":
                    loss = lb
                else:
                    loss = ad.add(la, lb)
            return tape.backward(loss)[w]

        np.testing.assert_allclose(run("sum"), run("a") + run("b"), atol=1e-10)

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter(np.ones(3))
        with ad.GradTape() as tape:
            y = ad.add(x, x)
        with pytest.raises(ValueError):
            tape.backward(y)

    def test_detached_loss_rejected(self):
        x = ad.parameter(np.ones(3))
        with ad.GradTape():
            loss = weighted_total(x, np.ones(3))
        with ad.GradTape() as other:
            weighted_total(ad.add(x, x), np.ones(3))
            with pytest.raises(ValueError):
                other.backward(loss)

    def test_tape_is_single_use(self):
        x = ad.parameter(np.ones(2))
        with ad.GradTape() as tape:
            loss = weighted_total(ad.add(x, x), np.ones(2))
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)

    def test_consumed_graph_is_freed_without_cyclic_collection(self):
        x = ad.parameter(np.ones(3))
        gc.disable()
        try:
            with ad.GradTape() as tape:
                y = ad.add(x, x)
                loss = weighted_total(y, np.ones(3))
            tape.backward(loss)
            intermediate = weakref.ref(y.data)
            del tape, y, loss
            assert intermediate() is None
        finally:
            gc.enable()

    def test_nested_tape_raises(self):
        x = ad.parameter(np.ones(2))
        with ad.GradTape() as tape:
            with pytest.raises(RuntimeError):
                with ad.GradTape():
                    pass
            loss = weighted_total(ad.add(x, x), np.ones(2))  # the outer tape is still the active one
        np.testing.assert_allclose(tape.backward(loss)[x], [2.0, 2.0])
        with ad.GradTape() as again:  # and a finished tape leaves room for the next
            weighted_total(x, np.ones(2))
        assert len(again) == 1

    def test_untracked_inputs_skip_tape(self):
        with ad.GradTape() as tape:
            ad.add(ad.as_tensor([1.0]), ad.as_tensor([2.0]))
        assert len(tape) == 0

    def test_gain_shift_and_bias_are_constants(self):
        # only x, and linear's weight, are node inputs: a gain, shift or
        # bias that requires a gradient still gets none
        x, w, gamma, beta, bias = (ad.parameter(np.full(shape, 0.5) + np.arange(3))
                                   for shape in ((2, 3), (3, 3), 3, 3, 3))
        with ad.GradTape() as tape:
            y = ad.linear(ad.layer_norm(x, gamma, beta), w, bias)
            loss = weighted_total(y, np.ones((2, 3)))
        assert set(map(id, tape.backward(loss))) == {id(x), id(w)}


class TestGradientsAgainstOracle:
    """Every differentiable primitive against central finite differences."""

    def test_linear_all_terms(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 3))

        def build(w):
            y = ad.linear(ad.as_tensor(x), w)
            return weighted_total(ad.linear(y, y), np.full((5, 5), 1 / 25))  # mean of y y^T

        check_op(build, rng.normal(size=(4, 3)))

    def test_linear_leading_axes(self):
        rng = np.random.default_rng(14)
        w, b = rng.normal(size=(4, 3)), rng.normal(size=4)
        c = rng.normal(size=(2, 5, 4))
        check_op(lambda x: weighted_total(ad.linear(x, ad.as_tensor(w), ad.as_tensor(b)), c),
                 rng.normal(size=(2, 5, 3)))

    def test_layer_norm(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 5))
        check_op(
            lambda x: weighted_total(ad.layer_norm(x, ad.as_tensor(np.full(5, 1.3)), ad.as_tensor(np.zeros(5))), g),
            rng.normal(size=(4, 5)),
            eps=1e-5,
            tol=1e-5,
        )

    @pytest.mark.parametrize("shape", [(7,), (3, 7)])
    def test_cross_entropy_with_tau(self, shape):
        # target rows that do not sum to 1, and a zero weight
        rng = np.random.default_rng(4)
        target = rng.random(shape)
        target[..., 2] = 0.0
        check_op(lambda z: ad.cross_entropy(z, 3.0, target), rng.normal(size=shape))

    def test_l2_normalize(self):
        rng = np.random.default_rng(5)
        c = rng.normal(size=(3, 4))
        check_op(lambda x: weighted_total(ad.l2_normalize(x), c), rng.normal(size=(3, 4)) + 0.5)

    def test_attention(self):
        rng = np.random.default_rng(6)
        tokens, dim = 5, 8
        k = rng.normal(size=(tokens, dim))
        v = rng.normal(size=(tokens, dim))
        for queries in (tokens, 1):  # one query row: the trimmed last block
            c = rng.normal(size=(queries, dim))

            def build(q, c=c):
                out = ad.scaled_dot_product_attention(q, ad.as_tensor(k), ad.as_tensor(v), 2)
                return weighted_total(out, c)

            check_op(build, rng.normal(size=(queries, dim)), eps=1e-5, tol=1e-5)

    def test_attention_kv_path(self):
        rng = np.random.default_rng(7)
        tokens, dim = 4, 6
        for queries in (tokens, 1):
            q = rng.normal(size=(queries, dim))
            c = rng.normal(size=(queries, dim))

            def build(kv, q=q, c=c):
                k = ad.narrow(kv, 0, 0, tokens)
                v = ad.narrow(kv, 0, tokens, tokens)
                out = ad.scaled_dot_product_attention(ad.as_tensor(q), k, v, 3)
                return weighted_total(out, c)

            check_op(build, rng.normal(size=(2 * tokens, dim)), eps=1e-5, tol=1e-5)

    def test_concat_narrow_mean(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=(4, 3))

        def build(x):
            a = ad.narrow(x, 0, 0, 2)
            b = ad.narrow(x, 0, 1, 2)
            joined = ad.concat([a, b], axis=1)  # (2, 6)
            rows = ad.concat([ad.narrow(joined, 1, 3, 3), ad.narrow(joined, 1, 0, 3)], axis=0)  # (4, 3)
            first = ad.mean(ad.narrow(rows, 0, 0, 1), axis=0)  # a one-row mean is that row
            square = ad.linear(first, ad.narrow(rows, 0, 0, 1))  # first . first, shape (1,)
            return ad.add(weighted_total(rows, c), weighted_total(square, np.ones(1)))

        check_op(build, rng.normal(size=(3, 3)))

    def test_narrow_and_mean_over_rows_of_each_view(self):
        rng = np.random.default_rng(9)

        def build(x):
            # (views, rows, dim): the mean of each view's rows 1 and 2, as
            # mean pooling reads a view set's patch rows
            means = ad.mean(ad.narrow(x, -2, 1, 2), axis=-2)  # (2, 5)
            return weighted_total(ad.linear(means, means), np.eye(2) / 2)  # mean squared norm

        check_op(build, rng.normal(size=(2, 3, 5)))


class TestFiniteDiffOracle:
    def test_square(self):
        g = finite_diff_gradient(lambda p: float(p[0] ** 2), np.array([3.0]), eps=1e-4)
        assert abs(g[0] - 6.0) < 1e-7

    def test_quadratic_form(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(5, 5))
        p = rng.normal(size=5)
        g = finite_diff_gradient(lambda q: float(q @ a @ q), p, eps=1e-5)
        np.testing.assert_allclose(g, (a + a.T) @ p, atol=1e-6)

    def test_constant(self):
        g = finite_diff_gradient(lambda p: 1.25, np.zeros(4), eps=1e-4)
        np.testing.assert_allclose(g, np.zeros(4))

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda p: 0.0, np.zeros(2), eps=0.0)

    def test_richardson_cancels_the_second_order_term(self):
        # central differences of p^3 are exact but for eps^2; one Richardson
        # step removes that term
        p = np.array([0.5, -2.0])
        want = 3.0 * p**2
        central = finite_diff_gradient(lambda q: float(np.sum(q**3)), p, eps=1e-2)
        np.testing.assert_allclose(central - want, [1e-4, 1e-4], rtol=1e-6)
        np.testing.assert_allclose(richardson_gradient(lambda q: float(np.sum(q**3)), p, eps=1e-2), want,
                                   rtol=0, atol=1e-10)


class TestInPlaceMatchesReference:
    """The primitives that compute in place equal, byte for byte, the same
    arithmetic with a fresh array per step."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("queries", [13, 1])  # all tokens, and the trimmed last block's CLS row
    def test_attention(self, queries, dtype):
        # head width 5: 1/sqrt(5), unlike 1/sqrt(16), rounds, so the test
        # sees where the scaling sits in the chain
        rng = np.random.default_rng(40 + queries)
        q, k, v = (3.0 * rng.standard_normal((n, 15)).astype(dtype) for n in (queries, 13, 13))
        g = rng.standard_normal((queries, 15)).astype(dtype)
        value, grads = value_and_grads(lambda *t: ad.scaled_dot_product_attention(*t, 3), (q, k, v), g)
        want_value, want_grads = attention_reference(q, k, v, 3, g)
        assert_same_bytes(value, want_value)
        for got, want in zip(grads, want_grads, strict=True):
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("queries", [13, 1])
    def test_attention_over_a_leading_axis_is_per_slice(self, queries, dtype):
        """A leading axis of q, k and v gives independent attentions, byte
        for byte the 2-D call on each slice, as a view set's resume runs."""
        rng = np.random.default_rng(44 + queries)
        q, k, v = (rng.standard_normal((3, n, 15)).astype(dtype) for n in (queries, 13, 13))
        g = rng.standard_normal((3, queries, 15)).astype(dtype)
        value, grads = value_and_grads(lambda *t: ad.scaled_dot_product_attention(*t, 3), (q, k, v), g)
        for j in range(3):
            want_value, want_grads = value_and_grads(lambda *t: ad.scaled_dot_product_attention(*t, 3),
                                                     (q[j], k[j], v[j]), g[j])
            assert_same_bytes(value[j], want_value)
            for got, want in zip(grads, want_grads, strict=True):
                assert_same_bytes(got[j], want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy(self, dtype):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((9, 14)).astype(dtype)
        x[np.arange(9), np.arange(9)] = -1e30  # the self mask of the contrastive loss
        target = rng.random((9, 14)).astype(dtype)
        target[np.arange(9), np.arange(9)] = 0.0
        g = rng.standard_normal(1).astype(dtype)  # the tape holds a scalar as one element
        value, (grad,) = value_and_grads(lambda t: ad.cross_entropy(t, 0.07, target), (x,), g)
        want_value, want_grad = cross_entropy_reference(x, 0.07, target, g)
        assert_same_bytes(value, want_value)
        assert_same_bytes(grad, want_grad)


class TestInPlaceRule:
    """A backward closure writes only into arrays it allocated: never into
    its cotangent, which `add` hands to both inputs, nor into a saved forward
    array or a parameter."""

    @pytest.mark.parametrize("queries", [6, 1])
    def test_fanned_out_cotangent_and_saved_arrays_stay_unwritten(self, queries):
        rng = np.random.default_rng(43)
        x0 = rng.standard_normal((6, 8))
        c = rng.standard_normal((queries, 8))

        def run(guarded):
            x = ad.parameter(x0)
            with ad.GradTape() as tape:
                q = ad.narrow(x, 0, 0, queries)
                # add hands one cotangent array to attention and gelu, and
                # one scalar to weighted_total and cross_entropy
                y = ad.add(ad.scaled_dot_product_attention(q, x, x, 2), ad.gelu(q))
                loss = ad.add(weighted_total(y, c), ad.cross_entropy(q, 0.5, np.abs(c)))
            if guarded:
                guard(tape)
            return tape.backward(loss)[x]

        np.testing.assert_array_equal(run(True), run(False))

    def test_guard_catches_a_write_into_the_cotangent(self):
        x = ad.parameter(np.ones(3))
        with ad.GradTape() as tape:
            loss = weighted_total(ad.gelu(x), np.ones(3))

        def scale_in_place(g):
            g *= 2.0
            return (g,)

        tape._nodes[0].backward_fn = scale_in_place
        guard(tape)
        with pytest.raises(ValueError, match="read-only"):
            tape.backward(loss)
