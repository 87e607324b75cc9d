"""Gradient correctness (vs central finite differences) and graph semantics."""

import gc
import math
import weakref

import numpy as np
import pytest

import ligas.autodiff as ad
from ligas.autodiff import Tensor, backward, grad_of
from ligas.errors import NumericError, ShapeError

N_CONFIGS = 100
EPS = 1e-4
TOL = 1e-4


def fd_gradient(value_of, x: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central finite differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        up = value_of(x)
        flat[i] = saved - eps
        down = value_of(x)
        flat[i] = saved
        gflat[i] = (up - down) / (2.0 * eps)
    return g


def max_rel_error(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / scale).max())


def check_primitive(build, x: np.ndarray, tol: float = TOL, eps: float = EPS) -> None:
    """``build(tensor)`` returns a scalar Tensor; compares its backward
    gradient on the input against finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    backward(out)
    fd = fd_gradient(lambda arr: build(Tensor(arr)).item(), x.copy(), eps)
    assert max_rel_error(grad_of(t), fd) <= tol


def weighted_sum(out: Tensor, rng) -> Tensor:
    """Random linear functional of the output: catches errors a plain sum
    would cancel (e.g. softmax rows always summing to one)."""
    w = Tensor(rng.standard_normal(out.shape))
    return ad.sum_all(ad.mul(out, w))


def seeded(case: int):
    return np.random.default_rng(977_000 + case)


@pytest.mark.parametrize("case", range(N_CONFIGS))
def test_matmul_gradients(case):
    rng = seeded(case)
    m, k, n = (int(rng.integers(1, 6)) for _ in range(3))
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    # gradient w.r.t. the left operand
    check_primitive(lambda t, b=b: weighted_sum(ad.matmul(t, Tensor(b)), seeded(case)), a)
    # and the right
    check_primitive(lambda t, a=a: weighted_sum(ad.matmul(Tensor(a), t), seeded(case)), b)
    # a stack times a shared weight, whose gradient sums over the stack
    batch = int(rng.integers(1, 4))
    stack = rng.standard_normal((batch, m, k))
    check_primitive(lambda t: weighted_sum(ad.matmul(t, Tensor(b)), seeded(case)), stack)
    check_primitive(lambda t: weighted_sum(ad.matmul(Tensor(stack), t), seeded(case)), b)
    # a stack times a stack, row by row
    rights = rng.standard_normal((batch, k, n))
    check_primitive(lambda t: weighted_sum(ad.matmul(t, Tensor(rights)), seeded(case)), stack)
    check_primitive(lambda t: weighted_sum(ad.matmul(Tensor(stack), t), seeded(case)), rights)


@pytest.mark.parametrize("case", range(N_CONFIGS))
def test_add_sub_mul_scale_gradients(case):
    rng = seeded(case)
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    bias = rng.standard_normal(shape[1])
    factor = float(rng.standard_normal()) or 0.5
    check_primitive(lambda t: weighted_sum(ad.add(t, Tensor(b)), seeded(case)), a)
    check_primitive(lambda t: weighted_sum(ad.add(Tensor(a), t), seeded(case)), b)
    # row-bias broadcast: gradient reaches both the matrix and the bias
    check_primitive(lambda t: weighted_sum(ad.add(t, Tensor(bias)), seeded(case)), a)
    check_primitive(lambda t: weighted_sum(ad.add(Tensor(a), t), seeded(case)), bias)
    check_primitive(lambda t: weighted_sum(ad.sub(t, Tensor(b)), seeded(case)), a)
    check_primitive(lambda t: weighted_sum(ad.sub(Tensor(a), t), seeded(case)), b)
    check_primitive(lambda t: weighted_sum(ad.mul(t, Tensor(b)), seeded(case)), a)
    check_primitive(lambda t: weighted_sum(ad.scale(t, factor), seeded(case)), a)
    # a bias over the last axis of a stack
    stack = rng.standard_normal((int(rng.integers(1, 4)),) + shape)
    check_primitive(lambda t: weighted_sum(ad.add(t, Tensor(bias)), seeded(case)), stack)
    check_primitive(lambda t: weighted_sum(ad.add(Tensor(stack), t), seeded(case)), bias)


@pytest.mark.parametrize("case", range(N_CONFIGS))
def test_elementwise_nonlinearity_gradients(case):
    rng = seeded(case)
    shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
    x = rng.standard_normal(shape)
    positive = 0.5 + np.abs(rng.standard_normal(shape))
    check_primitive(lambda t: weighted_sum(ad.tanh(t), seeded(case)), x)
    check_primitive(lambda t: weighted_sum(ad.exp(t), seeded(case)), x)
    check_primitive(lambda t: weighted_sum(ad.log(t), seeded(case)), positive)
    check_primitive(lambda t: weighted_sum(ad.gelu(t), seeded(case)), x)


@pytest.mark.parametrize("case", range(N_CONFIGS))
def test_softmax_and_layer_norm_gradients(case):
    rng = seeded(case)
    shape = (int(rng.integers(1, 6)), int(rng.integers(2, 7)))
    x = rng.standard_normal(shape) * 3.0
    check_primitive(lambda t: weighted_sum(ad.softmax(t, axis=-1), seeded(case)), x)

    gain = rng.standard_normal(shape[1])
    bias = rng.standard_normal(shape[1])
    check_primitive(
        lambda t: weighted_sum(ad.layer_norm(t, Tensor(gain), Tensor(bias)), seeded(case)),
        x, tol=5e-4,  # eps inside the variance makes FD slightly biased
    )
    check_primitive(
        lambda t: weighted_sum(ad.layer_norm(Tensor(x), t, Tensor(bias)), seeded(case)),
        gain,
    )
    check_primitive(
        lambda t: weighted_sum(ad.layer_norm(Tensor(x), Tensor(gain), t), seeded(case)),
        bias,
    )


@pytest.mark.parametrize("case", range(N_CONFIGS))
def test_structural_op_gradients(case):
    rng = seeded(case)
    m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    x = rng.standard_normal((m, n))
    ids = [int(i) for i in rng.integers(0, m, size=int(rng.integers(1, 8)))]
    lo = int(rng.integers(0, n - 1))
    hi = int(rng.integers(lo + 1, n + 1))
    row = int(rng.integers(0, m))
    flat = int(rng.integers(0, m * n))

    check_primitive(lambda t: weighted_sum(ad.rows(t, ids), seeded(case)), x)
    check_primitive(lambda t: weighted_sum(ad.slice_cols(t, lo, hi), seeded(case)), x)
    check_primitive(lambda t: weighted_sum(ad.transpose(t), seeded(case)), x)
    check_primitive(lambda t: weighted_sum(ad.take_row(t, row), seeded(case)), x)
    check_primitive(lambda t: ad.pick(t, flat), x)
    check_primitive(lambda t: ad.sum_all(t), x)
    check_primitive(
        lambda t: weighted_sum(
            ad.concat_cols([ad.slice_cols(t, 0, 1), ad.slice_cols(t, 1, n)]),
            seeded(case),
        ),
        x,
    )
    # the same ops on a stack act on its last two axes
    stack = rng.standard_normal((int(rng.integers(1, 4)), m, n))
    check_primitive(lambda t: weighted_sum(ad.slice_cols(t, lo, hi), seeded(case)), stack)
    check_primitive(lambda t: weighted_sum(ad.transpose(t), seeded(case)), stack)
    check_primitive(lambda t: weighted_sum(ad.take_row(t, row), seeded(case)), stack)
    check_primitive(
        lambda t: weighted_sum(
            ad.concat_cols([ad.slice_cols(t, lo, hi), ad.slice_cols(t, 0, lo + 1)]),
            seeded(case),
        ),
        stack,
    )
    # a (G, n) id array gathers a (G, n, d) stack; ids repeat within a row and
    # across rows, so the backward scatter-add must sum every use of a row
    grid = rng.integers(0, m, size=(3, 4))
    grid[0, 3] = grid[2, 1] = grid[0, 0]
    check_primitive(lambda t: weighted_sum(ad.rows(t, grid), seeded(case)), x)
    # split_heads and merge_heads on a matrix and on a stack: one head, a
    # head per column, and a drawn divisor of the width
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    for h in (1, n, int(rng.choice(divisors))):
        for lead in ((), stack.shape[:1]):
            check_primitive(lambda t: weighted_sum(ad.split_heads(t, h), seeded(case)),
                            rng.standard_normal(lead + (m, n)))
            check_primitive(lambda t: weighted_sum(ad.merge_heads(t), seeded(case)),
                            rng.standard_normal(lead + (h, m, n // h)))


def test_gelu_matches_reference_form():
    x = np.linspace(-4.0, 4.0, 41)
    expected = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))
    got = ad.gelu(Tensor(x.reshape(1, -1))).data.reshape(-1)
    assert np.allclose(got, expected, atol=0, rtol=1e-15)

    # a seeded stack the shape of one IG chunk
    x = np.random.default_rng(11).standard_normal((16, 7, 64))
    t = np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3))
    expected = 0.5 * x * (1.0 + t)
    got = ad.gelu(Tensor(x)).data
    # rtol against the terms of 1 + t before they cancel: for x >= 0 that is
    # |expected| itself; for very negative x, t nears -1, and a last-bit
    # difference in the cube moves 1 + t by a larger relative amount
    assert np.all(np.abs(got - expected) <= 1e-15 * 0.5 * np.abs(x) * (1.0 + np.abs(t)))
    assert np.allclose(got[x >= 0], expected[x >= 0], atol=0, rtol=1e-15)


@pytest.mark.parametrize("shape,h", [
    ((3, 6), 1), ((3, 6), 2), ((3, 6), 6), ((1, 4), 2),
    ((2, 5, 8), 4), ((2, 1, 8), 8), ((2, 3, 4, 6), 3),
])
def test_split_heads_layout_and_inverse(shape, h):
    x = np.random.default_rng(len(shape) * 10 + h).standard_normal(shape)
    heads = ad.split_heads(Tensor(x), h)
    d = shape[-1] // h
    assert heads.shape == shape[:-2] + (h, shape[-2], d)
    assert heads.data.flags.c_contiguous and not np.shares_memory(heads.data, x)
    for j in range(h):  # column block j is head j
        assert np.array_equal(heads.data[..., j, :, :], x[..., j * d:(j + 1) * d])
    merged = ad.merge_heads(heads)
    assert merged.data.flags.c_contiguous and not np.shares_memory(merged.data, heads.data)
    assert merged.data.tobytes() == x.tobytes() and merged.shape == x.shape


@pytest.mark.parametrize("build,match", [
    (lambda: ad.split_heads(Tensor(np.ones((3, 6))), 4), r"4 heads invalid for shape \(3, 6\)"),
    (lambda: ad.split_heads(Tensor(np.ones((3, 6))), 0), r"0 heads invalid"),
    (lambda: ad.split_heads(Tensor(np.ones((3, 6))), -2), r"-2 heads invalid"),
    (lambda: ad.split_heads(Tensor(np.ones(6)), 2), r"invalid for shape \(6,\)"),
    (lambda: ad.merge_heads(Tensor(np.ones((3, 6)))), r"merge_heads: .*\(3, 6\)"),
])
def test_head_reshapes_reject_bad_shapes(build, match):
    with pytest.raises(ShapeError, match=match):
        build()


def test_softmax_rows_sum_to_one_and_are_stable():
    x = Tensor(np.array([[1000.0, 1000.0, -1000.0], [3.0, 1.0, 0.2]]))
    y = ad.softmax(x, axis=-1).data
    assert np.all(np.isfinite(y))
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-15)


# ---------------------------------------------------------------------------
# graph semantics
# ---------------------------------------------------------------------------


def test_disconnected_subgraphs_merge_on_join():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    left = ad.scale(a, 2.0)   # subgraph 1
    right = ad.scale(b, 3.0)  # subgraph 2
    out = ad.sum_all(ad.add(left, right))
    backward(out)
    assert np.allclose(grad_of(a), 2.0)
    assert np.allclose(grad_of(b), 3.0)


def test_two_picks_of_one_leaf_join():
    e = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    out = ad.mul(ad.pick(e, 0), ad.pick(e, 1))
    backward(out)
    assert np.allclose(grad_of(e), [3.0, 2.0])


def test_tape_is_single_use():
    a = Tensor(np.array([1.0]), requires_grad=True)
    out = ad.scale(a, 2.0)
    backward(out)
    with pytest.raises(ShapeError, match="consumed"):
        backward(out)


def test_backward_requires_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    out = ad.scale(a, 1.0)
    with pytest.raises(ShapeError, match="scalar"):
        backward(out)


def test_no_grad_path_records_nothing():
    a = Tensor(np.ones((2, 2)))
    out = ad.sum_all(ad.gelu(ad.scale(a, 2.0)))
    assert not out.requires_grad
    with pytest.raises(ShapeError, match="not connected"):
        backward(out)


def test_graph_built_on_a_consumed_graph_is_rejected():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    mid = ad.sum_all(ad.scale(a, 2.0))
    backward(mid)
    with pytest.raises(ShapeError, match="consumed"):
        backward(ad.scale(mid, 3.0))
    assert np.allclose(grad_of(a), 2.0)


def test_graph_is_freed_without_the_cycle_collector():
    # a finished evaluation must hold no reference cycle, so dropping its
    # output frees every intermediate by reference counting alone
    a = Tensor(np.array([[0.5, -1.0], [2.0, 0.25]]), requires_grad=True)
    w = Tensor(np.array([[1.0, 2.0], [-0.5, 0.75]]), requires_grad=True)
    gc.collect()
    gc.disable()
    try:
        hidden = ad.tanh(ad.matmul(a, w))
        alive = weakref.ref(hidden.data)  # the intermediate's payload
        out = ad.sum_all(ad.mul(hidden, hidden))
        del hidden
        backward(out)
        del out
        assert alive() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert grad_of(a).shape == (2, 2) and grad_of(w).shape == (2, 2)


def test_unused_leaf_reads_zero_gradient():
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([5.0, 6.0]), requires_grad=True)
    backward(ad.sum_all(ad.scale(a, 3.0)))
    assert np.allclose(grad_of(a), 3.0)
    assert np.allclose(grad_of(b), 0.0)  # b never participated


def test_gradient_accumulates_across_shared_use():
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    out = ad.sum_all(ad.add(a, a))
    backward(out)
    assert np.allclose(grad_of(a), 2.0)


def test_shape_errors_name_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    # stacks must share their leading shape
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))


def test_check_finite_names_location():
    bad = Tensor(np.array([[1.0, np.inf]]))
    with pytest.raises(NumericError, match="encoder layer 1"):
        ad.check_finite(bad, "encoder layer 1")
