"""Numeric-core tests: op semantics, the tape, and the gradient checker."""

import math
import operator

import numpy as np
import pytest

from gatemix.tensor import (
    DegenerateVectorError,
    Graph,
    ShapeError,
    Tensor,
    backward,
    concat,
    cosine_sim,
    finite_diff_check,
    make_rng,
    matmul,
    no_grad,
    scaled_uniform,
    sigmoid,
)


def _matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple-loop product, independent of the library path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(eye, x).data, x.data)

    def test_zero(self):
        eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
        z = Tensor(np.zeros((2, 3)))
        np.testing.assert_array_equal(matmul(eye, z).data, np.zeros((2, 3)))

    def test_matches_triple_loop_oracle(self):
        rng = make_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, _matmul_oracle(a, b), atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_associativity(self):
        rng = make_rng(7)
        for _ in range(20):
            a = Tensor(rng.standard_normal((3, 4)))
            b = Tensor(rng.standard_normal((4, 5)))
            c = Tensor(rng.standard_normal((5, 2)))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-9)


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(Tensor(0.0)).item() == 0.5

    def test_saturation_stays_inside_one(self):
        s = sigmoid(Tensor(40.0)).item()
        assert s < 1.0
        assert s > 1.0 - 1e-15

    def test_symmetry_identity(self):
        rng = make_rng(42)
        x = rng.uniform(-30, 30, size=1000)
        s = sigmoid(Tensor(x)).data + sigmoid(Tensor(-x)).data
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_bit_identical_to_masked_two_branch_form(self):
        def masked(v):
            # the formula sigmoid used before its single-exp form, kept as reference
            out = np.empty_like(v)
            pos = v >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
            ex = np.exp(v[~pos])
            out[~pos] = ex / (1.0 + ex)
            return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

        extremes = [800.0, -800.0, 37.5, -37.5, 0.0, -0.0, 1e-300, -1e-300]
        x = np.concatenate([make_rng(7).standard_normal(200_000), extremes])
        assert sigmoid(Tensor(x)).data.tobytes() == masked(x).tobytes()
        for v in extremes:
            assert sigmoid(Tensor(v)).data.tobytes() == masked(np.array([v])).tobytes()

    def test_strictly_inside_unit_interval(self):
        rng = make_rng(42)
        x = np.concatenate([rng.uniform(-1e6, 1e6, size=1000), [-745.0, 745.0, 0.0]])
        s = sigmoid(Tensor(x)).data
        assert np.all(s > 0.0)
        assert np.all(s < 1.0)


class TestCosineSim:
    def test_identical(self):
        u = make_rng(3).standard_normal(6)
        assert cosine_sim(Tensor(u), Tensor(u)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antipodal(self):
        u = make_rng(4).standard_normal(5)
        assert cosine_sim(u, -u) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateVectorError):
            cosine_sim([0.0, 0.0], [1.0, 0.0])

    def test_clamped_to_unit_interval(self):
        rng = make_rng(5)
        for _ in range(200):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            assert -1.0 <= cosine_sim(u, v) <= 1.0

    def test_nan_is_not_clamped(self):
        # min/max clamping would turn NaN into a bound and hide it
        assert np.isnan(cosine_sim([np.nan, 1.0], [1.0, 1.0]))

    def test_norms_that_overflow(self):
        # the squared norms of [1e200, 1e200] overflow to inf, which gave NaN
        assert cosine_sim([1e200, 1e200], [1e200, 1e200]) == pytest.approx(1.0, rel=1e-15)
        assert cosine_sim([1e200, 1e200], [-1e200, 0.0]) == pytest.approx(-math.sqrt(0.5), rel=1e-15)

    def test_norm_that_underflows(self):
        # the norm of [1e-200, 0.0] underflows to 0, which raised DegenerateVectorError
        assert cosine_sim([1e-200, 0.0], [1e-200, 1e-200]) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert cosine_sim([1e-200, 0.0], [1e200, 0.0]) == 1.0

    def test_inputs_in_range_keep_their_plain_bits(self):
        rng = make_rng(6)
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            for n in (1, 8, 37, 200):
                u, v = rng.standard_normal(2 * n) * scale, rng.standard_normal(2 * n)
                for u, v in ((u[:n], v[:n]), (u[::2], v[1::2])):  # contiguous and strided
                    plain = float(u @ v) / (float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
                    assert cosine_sim(u, v) == plain


class TestMeanPool:
    """Mean pooling of a sequence's rows is ``Tensor.mean(0)``."""

    def test_constant_rows(self):
        c = np.array([2.5, -1.0, 7.0])
        x = Tensor(np.tile(c, (4, 1)))
        np.testing.assert_allclose(x.mean(0).data, c, atol=1e-15)

    def test_hand_case(self):
        np.testing.assert_array_equal(Tensor([[1.0, 3.0], [3.0, 1.0]]).mean(0).data, [2.0, 2.0])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_mean_is_numpys_mean_bit_for_bit(self, axis):
        # Tensor.mean divides the sum by the count, which is what numpy's
        # float64 mean does; the tape's values rely on the two agreeing
        x = make_rng(5).standard_normal((7, 13)) * 1e3
        assert Tensor(x).mean(axis).data.tobytes() == np.asarray(x.mean(axis=axis)).tobytes()

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((0, 3))).mean(0)


class TestBackward:
    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            loss = (x * x).sum()
        backward(g, loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_unused_leaf_gets_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        with Graph() as g:
            loss = (x * x).sum()
        backward(g, loss)
        np.testing.assert_array_equal(y.grad, [0.0, 0.0])

    def test_record_off_the_loss_path_is_skipped(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        with Graph() as g:
            y * 3.0  # recorded, but its output gets no gradient from the loss
            loss = (x * x).sum()
        backward(g, loss)
        assert [r.op for r in g.records] == ["mul", "mul", "sum"]
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        np.testing.assert_array_equal(y.grad, [0.0, 0.0])

    def test_non_scalar_loss_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            out = x * x
        with pytest.raises(ShapeError):
            backward(g, out)

    def test_fanout_accumulates(self):
        x = Tensor(3.0, requires_grad=True)
        with Graph() as g:
            loss = x * x + x * 2.0  # d/dx = 2x + 2 = 8
        backward(g, loss)
        assert x.grad == pytest.approx(8.0)

    def test_linearity(self):
        rng = make_rng(42)
        for _ in range(10):
            a, b = rng.uniform(-2, 2, size=2)
            data = rng.standard_normal(5)

            def grad_of(fn):
                x = Tensor(data, requires_grad=True)
                with Graph() as g:
                    loss = fn(x)
                backward(g, loss)
                return x.grad.copy()

            f = lambda x: (x * x).sum()
            h = lambda x: (sigmoid(x) * x).sum()
            combined = grad_of(lambda x: a * f(x) + b * h(x))
            linear = a * grad_of(f) + b * grad_of(h)
            np.testing.assert_allclose(combined, linear, atol=1e-9)

    def test_repeated_backward_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        with Graph() as g:
            loss = x * x
        backward(g, loss)
        backward(g, loss)
        assert x.grad == pytest.approx(8.0)


# (op, leaf shape, constant shape, fn(*operands)): one case per operand
# position, with broadcasting on either side of the elementwise ops.
_CONSTANT_CASES = {
    "matmul-left": ("matmul", (2, 3), (3, 4), 0, lambda a, b: matmul(a, b)),
    "matmul-right": ("matmul", (3, 4), (2, 3), 1, lambda a, b: matmul(a, b)),
    "add-left": ("add", (2, 3), (3,), 0, lambda a, b: a + b),
    "add-right": ("add", (3,), (2, 3), 1, lambda a, b: a + b),
    "sub-left": ("sub", (2, 3), (2, 1), 0, lambda a, b: a - b),
    "sub-right": ("sub", (2, 3), (2, 3), 1, lambda a, b: a - b),
    "mul-left": ("mul", (2, 3), (2, 3), 0, lambda a, b: a * b),
    "mul-right": ("mul", (1, 3), (2, 3), 1, lambda a, b: a * b),
    "div-left": ("div", (2, 3), (3,), 0, lambda a, b: a / b),
    "div-right": ("div", (2, 3), (2, 3), 1, lambda a, b: a / b),
    "concat-axis0": ("concat", (2, 3), (1, 3), 0, lambda a, b: concat([a, b], axis=0)),
    "concat-axis1": ("concat", (2, 3), (2, 2), 1, lambda a, b: concat([a, b], axis=1)),
}


class TestConstantOperands:
    """A grad rule computes nothing for an operand that does not require
    grad, and the leaf's gradient does not change by a bit."""

    @staticmethod
    def _run(case, const_grad: bool):
        name, leaf_shape, const_shape, leaf_pos, fn = _CONSTANT_CASES[case]
        rng = make_rng(len(case))
        leaf = Tensor(rng.uniform(0.5, 2.0, size=leaf_shape), requires_grad=True)
        const = Tensor(rng.uniform(0.5, 2.0, size=const_shape), requires_grad=const_grad)
        operands = (leaf, const) if leaf_pos == 0 else (const, leaf)
        with Graph() as g:
            out = fn(*operands)
            loss = (out * Tensor(rng.uniform(0.5, 1.5, size=out.shape))).sum()
        backward(g, loss)
        (rec,) = [r for r in g.records if r.out is out]
        assert rec.op == name
        return leaf, const, rec.grad_rule(*rec.ctx, np.ones(out.shape))

    @pytest.mark.parametrize("case", list(_CONSTANT_CASES))
    def test_no_gradient_for_a_constant(self, case):
        leaf_pos = _CONSTANT_CASES[case][3]
        leaf, const, grads = self._run(case, const_grad=False)
        assert grads[1 - leaf_pos] is None
        assert grads[leaf_pos].shape == leaf.shape
        assert const.grad is None
        both_leaf, _, both_grads = self._run(case, const_grad=True)
        assert all(gr is not None for gr in both_grads)
        assert leaf.grad.tobytes() == both_leaf.grad.tobytes()

    def test_leaf_through_both_operands_of_one_add(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        w = Tensor([[0.5, -1.0], [2.0, 0.25]])
        with Graph() as g:
            loss = ((x + x) * w).sum() + ((x * 3.0 + x) * w).sum()
        backward(g, loss)
        np.testing.assert_array_equal(x.grad, 6.0 * w.data)

    def test_shared_gradient_array_is_not_mutated(self):
        # the add hands one array to both x and y; x then gathers a second
        # contribution, which must not leak into y's entry
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        w = Tensor([0.5, -1.0])
        with Graph() as g:
            t = x * 2.0
            loss = ((x + y) * w).sum() + (t * w).sum()
        backward(g, loss)
        np.testing.assert_array_equal(y.grad, w.data)
        np.testing.assert_array_equal(x.grad, 3.0 * w.data)


class TestStructuralOps:
    def test_concat_slice_roundtrip(self):
        rng = make_rng(9)
        a = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal((4, 3)))
        cat = concat([a, b], axis=0)
        assert cat.shape == (6, 3)
        np.testing.assert_array_equal(cat.data[0:2], a.data)
        np.testing.assert_array_equal(cat.data[2:6], b.data)

    def test_concat_axis1(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        assert concat([a, b], axis=1).shape == (2, 5)

    def test_concat_mismatch_raises(self):
        with pytest.raises(ShapeError):
            concat([Tensor(np.ones((2, 2))), Tensor(np.ones((3, 3)))], axis=1)

    def test_transpose_reshape_grads(self):
        # d/dx sum((x^T reshaped) * w) must match finite differences
        rng = make_rng(11)
        w = rng.standard_normal(6)

        def f(ps):
            x = ps[0]
            return (x.transpose().reshape((6,)) * Tensor(w)).sum()

        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        assert finite_diff_check(f, [x], eps=1e-6) <= 1e-6
        for shape in [(4, 2), (2.7, 3), ("2", 3), (-2, -3)]:
            with pytest.raises(ShapeError, match="reshape"):
                x.reshape(shape)


class TestFiniteDiffCheck:
    def test_quadratic_is_exact_up_to_rounding(self):
        x = Tensor(3.0, requires_grad=True)
        rel = finite_diff_check(lambda ps: ps[0] * ps[0], [x], eps=1e-5)
        assert rel <= 1e-8

    def test_constant_objective_is_zero(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        rel = finite_diff_check(lambda ps: Tensor(5.0) + 0.0 * ps[0].sum(), [x], eps=1e-5)
        assert rel == 0.0

    def test_bad_eps_raises(self):
        x = Tensor(1.0, requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_check(lambda ps: ps[0] * ps[0], [x], eps=0.0)

    def test_objective_raising_mid_probe_leaves_params_unchanged(self):
        p = Tensor([0.5, 0.25], requires_grad=True)
        calls = []

        def f(ps):
            calls.append(ps[0].data.copy())
            if len(calls) == 3:  # the minus probe of coordinate 0
                raise RuntimeError("objective failed")
            return (ps[0] * ps[0]).sum()

        with pytest.raises(RuntimeError, match="objective failed"):
            finite_diff_check(f, [p], eps=1e-5)
        assert calls[2][0] == 0.5 - 1e-5
        assert p.data.tolist() == [0.5, 0.25]

    def test_gate_mix_objective(self):
        # the d=8 gate blend under a sum objective, the canonical small check
        from gatemix.connector import gate_mix

        rng = make_rng(0)
        n, d = 5, 8
        h_v = Tensor(rng.standard_normal((n, d)))
        h_c = Tensor(rng.standard_normal((n, d)))
        W_g = Tensor(rng.standard_normal((d, 2 * d)) * 0.3, requires_grad=True)
        b_g = Tensor(rng.standard_normal(d) * 0.3, requires_grad=True)

        def f(ps):
            _, h = gate_mix(h_v, h_c, ps[0], ps[1])
            return h.sum()

        assert finite_diff_check(f, [W_g, b_g], eps=1e-5) <= 1e-5


class TestComposedObjectiveGradients:
    """Finite differences against the full differentiable stack."""

    def test_connector_plus_contrastive_composite(self):
        from conftest import reference_image_rows
        from gatemix.connector import ConnectorConfig, init_params
        from gatemix.objectives import BatchRepresentations, creg_loss, similarity_matrix
        from gatemix.training import FrozenStandins, synth_batch

        cfg = ConnectorConfig()
        standins = FrozenStandins(cfg.d_llm)
        for seed in range(3):
            params = init_params(cfg, seed)
            batch = synth_batch(seed, 4, cfg)

            def f(ts):
                rows = reference_image_rows(params, batch, standins)
                reps = BatchRepresentations(img=concat(rows, axis=0), txt=batch.txt_reps)
                return creg_loss(similarity_matrix(reps))

            assert finite_diff_check(f, params.tensors(), eps=1e-5) <= 1e-5

    def test_full_stage1_objective_ten_seeds(self):
        # eps balances central-difference truncation against float64 rounding
        # on near-zero gradient coordinates
        from gatemix.connector import ConnectorConfig, init_params
        from gatemix.training import FrozenStandins, stage1_loss, synth_batch

        cfg = ConnectorConfig()
        standins = FrozenStandins(cfg.d_llm)
        worst = 0.0
        for seed in range(10):
            params = init_params(cfg, seed)
            batch = synth_batch(seed, 4, cfg)
            rel = finite_diff_check(
                lambda ts: stage1_loss(params, batch, standins),
                params.tensors(),
                eps=3e-5,
            )
            worst = max(worst, rel)
        assert worst <= 1e-5, f"worst relative error {worst:.3e}"


def _op_cases() -> dict:
    """Every op, as (record name, operand shapes, function of the operands)."""
    cases = {}
    for name, fn in [("add", operator.add), ("sub", operator.sub),
                     ("mul", operator.mul), ("div", operator.truediv)]:
        cases[f"{name}-row"] = (name, [(3, 4), (4,)], fn)
        cases[f"{name}-number-right"] = (name, [(3, 4)], lambda a, fn=fn: fn(a, 2.5))
        cases[f"{name}-number-left"] = (name, [(3, 4)], lambda a, fn=fn: fn(2.5, a))
    for axis in (None, 0, 1):
        cases[f"sum-{axis}"] = ("sum", [(3, 4)], lambda a, axis=axis: a.sum(axis))
        cases[f"mean-{axis}"] = ("mean", [(3, 4)], lambda a, axis=axis: a.mean(axis))
    cases.update({
        "matmul": ("matmul", [(3, 4), (4, 2)], matmul),
        "transpose": ("transpose", [(3, 4)], lambda a: a.transpose()),
        "reshape": ("reshape", [(3, 4)], lambda a: a.reshape((2, 6))),
        "sigmoid": ("sigmoid", [(3, 4)], sigmoid),
        "exp": ("exp", [(3, 4)], lambda a: a.exp()),
        "log": ("log", [(3, 4)], lambda a: a.log()),
        "sqrt": ("sqrt", [(3, 4)], lambda a: a.sqrt()),
        "concat-0": ("concat", [(2, 4), (3, 4)], lambda a, b: concat([a, b], axis=0)),
        "concat-1": ("concat", [(3, 2), (3, 4)], lambda a, b: concat([a, b], axis=1)),
    })
    return cases


_OP_CASES = _op_cases()


class TestNoRecordPath:
    """Ops record only inside a graph, outside ``no_grad``, and when an input
    requires grad; otherwise they return bare outputs."""

    def test_no_grad_inside_graph_records_nothing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            with no_grad():
                y = (x * x).sum().log() + 1.0
            z = x.sum()
        assert [rec.op for rec in g.records] == ["sum"]
        assert not y.requires_grad and y.grad is None
        assert z.requires_grad

    def test_graph_nested_in_no_grad_records_again(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            with Graph() as g:
                loss = (x * x).sum()
            backward(g, loss)
        assert [rec.op for rec in g.records] == ["mul", "sum"]
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_constant_inputs_record_nothing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() as g:
            c = sigmoid(Tensor([0.5, -0.5]) * 2.0)
            y = (c * x).sum()
        assert [rec.op for rec in g.records] == ["mul", "sum"]
        assert not c.requires_grad and y.requires_grad

    @pytest.mark.parametrize("case", list(_OP_CASES))
    def test_every_op_records_or_returns_bare(self, case):
        # operands in [0.5, 2] keep log, sqrt and div in their domains, and
        # positive weights keep every gradient coordinate away from zero
        name, shapes, fn = _OP_CASES[case]
        rng = make_rng(len(case))
        params = [Tensor(rng.uniform(0.5, 2.0, size=s), requires_grad=True) for s in shapes]
        with Graph() as g:
            recorded = fn(*params)
        assert [rec.op for rec in g.records] == [name]
        assert recorded.requires_grad
        with Graph() as g:
            with no_grad():
                bare = fn(*params)
        assert g.records == []
        assert not bare.requires_grad and bare.grad is None
        assert bare.shape == recorded.shape
        assert bare.data.tobytes() == recorded.data.tobytes()
        weights = Tensor(rng.uniform(0.5, 1.5, size=recorded.shape))
        assert finite_diff_check(lambda ps: (fn(*ps) * weights).sum(), params) <= 1e-6

    @pytest.mark.parametrize("in_graph", [False, True])
    @pytest.mark.parametrize("op, match", [
        (lambda x: x / Tensor([1.0, 0.0]), "zero denominator"),
        (lambda x: x / Tensor([1.0, -0.0]), "zero denominator"),
        (lambda x: x / 0.0, "zero denominator"),
        (lambda x: (x - 1.0).log(), "strictly positive"),
        (lambda x: (x * 0.0).sqrt(), "strictly positive"),
        (lambda x: x * float("nan"), "finite"),
        (lambda x: x - float("inf"), "finite"),
    ])
    def test_guards_raise_under_no_grad(self, op, match, in_graph):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Graph() if in_graph else no_grad():
            with no_grad():
                with pytest.raises(ValueError, match=match):
                    op(x)


def _guard_cases() -> list:
    """(call on a rank-1 array, error, message, input, rejected) for every
    domain guard and input, with ids naming both. The data are built without
    validation, as op outputs are. A NaN is not rejected (a non-finite loss is reported where it
    surfaces); a zero of either sign is, even beside a NaN, and so is a
    negative entry except as a denominator; an empty array passes, except as
    the diagonal of S, since a mean over b = 0 items is undefined."""
    from gatemix.objectives import InvalidSimilarityError, SimilarityMatrix, creg_loss

    def creg(values):
        # the values on the diagonal of a square S whose other entries are 1
        S = np.ones((values.size, values.size))
        S[np.diag_indices(values.size)] = values
        return creg_loss(SimilarityMatrix(S=Tensor._raw(S)))

    guards = [
        ("log", lambda v: Tensor._raw(v).log(), ValueError, "log: requires strictly positive"),
        ("sqrt", lambda v: Tensor._raw(v).sqrt(), ValueError, "sqrt: requires strictly positive"),
        ("div", lambda v: Tensor(1.0) / Tensor._raw(v), ValueError, "div: zero denominator"),
        ("creg_loss", creg, InvalidSimilarityError, "non-positive similarity"),
    ]
    inputs = [
        ("zero", [2.0, 0.0]),
        ("negative-zero", [2.0, -0.0]),
        ("negative", [2.0, -3.0]),
        ("zero-beside-nan", [np.nan, 0.0]),
        ("nan", [2.0, np.nan]),
        ("empty", []),
    ]
    cases = []
    for guard, call, error, match in guards:
        for kind, values in inputs:
            rejected = kind not in ("nan", "empty") and not (guard == "div" and kind == "negative")
            outcome = (error, match)
            if guard == "creg_loss" and kind == "empty":
                outcome, rejected = (ShapeError, "square and non-empty"), True
            cases.append(pytest.param(call, *outcome, values, rejected, id=f"{guard}-{kind}"))
    return cases


class TestGuardOutcomes:
    @pytest.mark.parametrize("call, error, match, values, rejected", _guard_cases())
    def test_guard_outcome(self, call, error, match, values, rejected):
        with no_grad():
            if rejected:
                with pytest.raises(error, match=match):
                    call(np.array(values))
            else:
                assert isinstance(call(np.array(values)), Tensor)


def _exp_sum(ps):
    return ps[0].exp().sum()


# (call, error, message) for each check of an op's shapes or arguments
_ARGUMENT_GUARDS = {
    "item-of-a-vector": (lambda: Tensor([1.0, 2.0]).item(), ShapeError,
                         "item() needs a single element, shape is (2,)"),
    "transpose-of-a-vector": (lambda: Tensor([1.0, 2.0]).transpose(), ShapeError,
                              "transpose: needs rank 2, got (2,)"),
    "add-without-broadcast": (lambda: Tensor(np.ones((2, 3))) + Tensor(np.ones((2, 2))),
                              ShapeError, "add: incompatible shapes (2, 3) and (2, 2)"),
    "matmul-of-a-vector": (lambda: matmul(Tensor([1.0, 2.0]), Tensor(np.ones((2, 2)))),
                           ShapeError, "matmul: needs rank-2 operands, got (2,) and (2, 2)"),
    "sum-axis-2": (lambda: Tensor(np.ones((2, 2))).sum(axis=2), ValueError,
                   "sum: axis must be None, 0 or 1, got 2"),
    "mean-axis-of-a-vector": (lambda: Tensor([1.0, 2.0]).mean(axis=0), ShapeError,
                              "mean over an axis needs rank 2, got (2,)"),
    "concat-of-nothing": (lambda: concat([]), ValueError, "concat: empty input list"),
    "concat-of-mixed-ranks": (lambda: concat([Tensor([1.0]), Tensor([[1.0]])]), ShapeError,
                              "concat: operands must all be rank 1 or all rank 2"),
    "concat-axis-1-of-vectors": (lambda: concat([Tensor([1.0]), Tensor([2.0])], axis=1),
                                 ShapeError, "concat: axis 1 invalid for rank 1"),
    "cosine-sim-of-unequal-lengths": (lambda: cosine_sim([1.0, 2.0], [1.0, 2.0, 3.0]),
                                      ShapeError, "needs matching rank-1 vectors, got (2,) and (3,)"),
    "check-of-a-constant": (lambda: finite_diff_check(_exp_sum, [Tensor([1.0])]), ValueError,
                            "finite_diff_check: every param must require grad"),
    "check-of-a-vector-objective": (
        lambda: finite_diff_check(lambda ps: ps[0] * 2.0, [Tensor([1.0], requires_grad=True)]),
        ShapeError, "finite_diff_check: objective must return a scalar tensor"),
    "check-of-an-infinite-objective": (
        lambda: finite_diff_check(_exp_sum, [Tensor([710.0], requires_grad=True)]),
        ValueError, "finite_diff_check: objective returned a non-finite value"),
    # exp(709.7) is finite, exp(710.7) is not
    "check-probing-into-infinity": (
        lambda: finite_diff_check(_exp_sum, [Tensor([709.7], requires_grad=True)], eps=1.0),
        ValueError, "finite_diff_check: non-finite value during probing"),
    "scaled-uniform-fan-in-0": (lambda: scaled_uniform(make_rng(0), (2,), 0), ValueError,
                                "scaled_uniform: fan_in must be >= 1"),
}


@pytest.mark.parametrize("call, error, message", list(_ARGUMENT_GUARDS.values()),
                         ids=list(_ARGUMENT_GUARDS))
def test_argument_guard(call, error, message):
    with np.errstate(over="ignore"), pytest.raises(error) as info:
        call()
    assert str(info.value).endswith(message)


class TestTensorBasics:
    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.inf])

    def test_grad_buffer_matches_shape(self):
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        assert t.grad.shape == (3, 2)

    def test_div_by_zero_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0]) / Tensor([0.0])

    def test_log_domain(self):
        with pytest.raises(ValueError):
            Tensor([0.0]).log()

    def test_rng_is_reproducible(self):
        a = make_rng(0).standard_normal(5)
        b = make_rng(0).standard_normal(5)
        np.testing.assert_array_equal(a, b)
