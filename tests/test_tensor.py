"""Tensor core: forward values, gradients vs finite differences, tape rules."""

import struct
import zlib

import numpy as np
import pytest

from prunelab import tensor as T
from prunelab.encoder import (Model, ModelConfig, attention_block, embed_forward,
                              encoder_forward, ffn_block, init_params, mlm_head, mlm_loss)
from prunelab.exceptions import ContractError, DimensionError, InputError, NumericError
from prunelab.l0 import l0_penalty, sample_gate

from fdcheck import ALL_OPS, op_cases, run_case, weighted_scalar


def test_scalar_forward_values():
    assert T.multiply(T.Tensor(0.25), 2.0).item() == 0.5
    assert T.add(T.Tensor(0.25), T.Tensor(2.0)).item() == 2.25
    x = np.array([[2.0, -1.0], [0.5, 3.0]])
    assert np.array_equal(T.multiply(T.Tensor(x), 1.0).data, x)


def test_gradients_match_finite_differences():
    for op in ALL_OPS:
        for case in range(8):
            # crc32, not hash(): str hashes are salted per process
            rng = np.random.default_rng(1000 * zlib.crc32(op.encode()) % 100003 + case)
            assert run_case(op, rng) < 1e-4, f"{op} case {case}"


def test_backward_accumulates_shared_input():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    # x reaches the loss three times: through the multiply and twice through the add
    y = T.add(T.multiply(x, 3.0), T.add(x, x))
    T.backward(weighted_scalar(y, 1.0))
    assert np.array_equal(x.grad, [5.0, 5.0])


def test_backward_requires_scalar_and_nonempty_tape():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    y = T.multiply(x, 2.0)
    with pytest.raises(ContractError):
        T.backward(y)
    T.backward(weighted_scalar(y, 1.0))
    with pytest.raises(ContractError):
        T.backward(T.Tensor(0.0))


def test_tape_cleared_after_backward():
    x = T.Tensor([1.0], requires_grad=True)
    T.backward(weighted_scalar(T.add(x, x), 1.0))
    assert T.active_tape().nodes == []


def test_backward_leaves_gradients_on_leaves_only():
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=6, vocab_size=7,
                         max_seq_len=8)
    params = init_params(config, 0)
    gates = T.Tensor(np.ones(2 + 6 + 4), requires_grad=True)
    ids = np.arange(10).reshape(2, 5) % 7
    logits = encoder_forward(Model(config, params), ids, gates)
    loss = T.add(mlm_loss(logits, ids % 2 == 0, ids), l0_penalty(gates, np.ones(12)))
    produced = [out for out, _ in T.active_tape().nodes]
    # three gate slices, five model nodes, the penalty and the add
    assert len(produced) == 10 and produced[-1] is loss
    T.backward(loss)
    assert all(out.grad is None for out in produced)
    for leaf in [gates, *params.values()]:
        assert leaf.grad.shape == leaf.shape


def test_leaf_gradient_after_two_backward_calls():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(weighted_scalar(T.multiply(x, 3.0), 1.0))
    T.backward(weighted_scalar(T.add(x, x), [1.0, 2.0]))
    assert np.array_equal(x.grad, [3.0 + 2.0, 3.0 + 4.0])
    # the second backward's contributions are added to the held gradient one at
    # a time, last tape node first: (1 - 1e17) + 1e17, not 1 + (-1e17 + 1e17)
    x = T.Tensor([1.0], requires_grad=True)
    T.backward(weighted_scalar(T.multiply(x, 1.0), 1.0))
    T.backward(weighted_scalar(T.add(T.multiply(x, 1e17), T.multiply(x, -1e17)), 1.0))
    assert np.array_equal(x.grad, [0.0])


def test_every_node_returns_gradients_in_its_operands_shapes():
    for op in ALL_OPS:
        for case in range(4):
            builder, shapes = op_cases(np.random.default_rng([7, case]))[op]
            inputs = [T.Tensor(np.full(shape, 0.3), requires_grad=True) for shape in shapes]
            out = builder(inputs)
            nodes = T.active_tape().nodes
            T.active_tape().clear()
            (node_out, grad_fn), = nodes
            assert node_out is out
            grads = grad_fn(np.ones(out.shape))
            assert {id(t) for t, _ in grads} == {id(t) for t in inputs}, op
            for t, g in grads:
                assert np.shape(g) == t.shape, f"{op} case {case}: {np.shape(g)} != {t.shape}"


def test_no_grad_suppresses_recording():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = T.add(T.multiply(x, 2.0), x)
    assert not y.requires_grad
    assert T.active_tape().nodes == []


def test_constant_inputs_record_nothing():
    y = T.add(T.multiply(T.Tensor([1.0]), 2.0), T.Tensor([2.0]))
    assert not y.requires_grad
    assert T.active_tape().nodes == []


def test_shape_errors_name_op():
    # add takes one shape: a (3,) or (1, 3) operand does not broadcast to (2, 3)
    for shape in ((4,), (3,), (1, 3)):
        with pytest.raises(DimensionError, match="add"):
            T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones(shape)))
    config = ModelConfig(n_layers=1, n_heads=2, model_dim=4, ffn_dim=6, vocab_size=5,
                         max_seq_len=8)
    params = init_params(config, 0)
    wide = T.Tensor(np.ones((2, 3, 5)))
    with pytest.raises(DimensionError, match="attention_block"):
        attention_block(wide, params, config, 0)
    with pytest.raises(DimensionError, match="ffn_block"):
        ffn_block(wide, params, config, 0)
    with pytest.raises(DimensionError, match="mlm_head"):
        mlm_head(T.Tensor(np.ones((3, 4))), params)


def test_numeric_error_on_nonfinite():
    with pytest.raises(NumericError):
        T.add(T.Tensor([1e308]), T.Tensor([1e308]))
    with pytest.raises(NumericError):
        T.multiply(T.Tensor([1e300]), 1e300)


def test_overflowing_intermediates_raise_numeric_error():
    # (alpha + noise) / beta overflows although the sigmoid would saturate it
    # to a finite gate of 1
    with pytest.raises(NumericError):
        sample_gate(T.Tensor([1.5e308]), np.array([0.5]))
    # each weighted term is finite; their sum is not
    with pytest.raises(NumericError):
        l0_penalty(T.Tensor([50.0, 50.0]), np.array([1e308, 1e308]))
    # the token rows times the projection overflow
    config = ModelConfig(n_layers=1, n_heads=1, model_dim=2, ffn_dim=1, vocab_size=3,
                         max_seq_len=4)
    params = {"embed.tok": T.Tensor(np.full((3, 2), 1e200)),
              "embed.proj": T.Tensor(np.full((2, 2), 1e200)),
              "embed.pos": T.Tensor(np.zeros((4, 2)))}
    with pytest.raises(NumericError):
        embed_forward(np.array([[0, 2]]), params, config, None)


def test_finite_check_passes_finite_arrays_whose_sum_overflows():
    T._finite_or_raise("probe", np.array([1e308, 1e308]))
    T._finite_or_raise("probe", np.array(1e308))
    T._finite_or_raise("probe", np.zeros((0, 3)))


def test_finite_check_names_the_op():
    for bad in ([np.nan], [np.inf], [1.0, -np.inf], np.float64(np.nan),
                [[1.0, 2.0], [3.0, np.nan]]):
        with pytest.raises(NumericError, match="probe"):
            T._finite_or_raise("probe", np.asarray(bad))
    with pytest.raises(NumericError, match="multiply"):
        T.multiply(T.Tensor(1e300), 1e300)
    with pytest.raises(NumericError, match="fold_sum"):
        T.fold_sum(T.Tensor([1e308, 1e308]))


def test_basic_slice_values_are_copies():
    x = T.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    row = x[1]
    assert np.array_equal(row.data, [4.0, 5.0, 6.0, 7.0])
    assert np.array_equal(x[:, 1:3].data, [[1.0, 2.0], [5.0, 6.0], [9.0, 10.0]])
    assert x[2, 3].item() == 11.0
    assert x[np.int64(-1)].shape == (4,)
    # an optimizer step updates the leaf in place; a taken row keeps its value
    x.data -= 1.0
    assert np.array_equal(row.data, [4.0, 5.0, 6.0, 7.0])


def test_basic_slice_gradient_is_zero_outside_the_slice():
    x = T.Tensor(np.ones((3, 4)), requires_grad=True)
    y = T.add(weighted_scalar(T.multiply(x[1], 2.0), 1.0), weighted_scalar(x[:, 3], 1.0))
    T.backward(y)
    expect = np.zeros((3, 4))
    expect[1] = 2.0
    expect[:, 3] += 1.0
    assert np.array_equal(x.grad, expect)


def test_basic_slice_rejects_advanced_keys_and_bad_ranges():
    x = T.Tensor(np.ones((3, 4)))
    for key in (np.array([0, 1]), [0, 1], True, (0, None), "a", 1.0):
        with pytest.raises(ContractError, match="slice"):
            T.basic_slice(x, key)
    for key in (3, (0, 4), (0, 0, 0)):
        with pytest.raises(DimensionError, match="slice"):
            T.basic_slice(x, key)


def test_fold_sum_adds_left_to_right():
    tiny = 2.0 ** -53
    x = np.array([1.0] + [tiny] * 9)
    # a left fold rounds each 1 + 2**-53 back to 1; a pairwise sum does not
    assert T.fold_sum(T.Tensor(x)).item() == 1.0
    assert x.sum() != 1.0
    with pytest.raises(DimensionError):
        T.fold_sum(T.Tensor(np.ones((2, 2))))
    with pytest.raises(DimensionError):
        T.fold_sum(T.Tensor(np.zeros(0)))


def test_forward_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = T.Tensor(rng.normal(size=(4, 6)))
        out = T.add(T.multiply(x, float(rng.normal())), x)
        return out.data.tobytes()

    assert run() == run()


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    params = {
        "a.weight": rng.normal(size=(3, 4)),
        "b.bias": rng.normal(size=(7,)),
        "scalar": np.array(2.5),
    }
    path = tmp_path / "model.gcpt"
    T.save_checkpoint(path, params)
    loaded = T.load_checkpoint(path)
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], np.asarray(params[name]))


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.gcpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(InputError):
        T.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path = tmp_path / "model.gcpt"
    T.save_checkpoint(path, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(InputError):
        T.load_checkpoint(path)


def test_checkpoint_rejects_a_header_larger_than_the_file(tmp_path):
    # 2**31 x 2**31 float64s, or 2**32 - 1 dims: the header alone must not make
    # the loader allocate
    path = tmp_path / "model.gcpt"
    head = T.CHECKPOINT_MAGIC + struct.pack("<II", T.CHECKPOINT_VERSION, 1) + b"\x01\0\0\0w"
    for rank_and_dims, what in ((struct.pack("<III", 2, 2**31, 2**31), "payload of w"),
                                (struct.pack("<I", 2**32 - 1), "dims")):
        path.write_bytes(head + rank_and_dims)
        with pytest.raises(InputError, match=f"truncated while reading {what}"):
            T.load_checkpoint(path)
