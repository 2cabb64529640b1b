import numpy as np
import pytest

from dronefleet.network import (
    QNetwork,
    adam_step,
    batch_gradient,
    copy_network,
    forward,
    init_adam,
    init_network,
    stack_networks,
    unstack_network,
)


def masked_loss(net, xs, actions, targets):
    q = forward(net, xs)
    rows = np.arange(xs.shape[0])
    return float(np.mean((q[rows, actions] - targets) ** 2))


def finite_difference_grads(net, xs, actions, targets, h=1e-5):
    """Central differences over every parameter of the network."""
    grads_w, grads_b = [], []
    for params, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for p in params:
            g = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = p[idx]
                p[idx] = keep + h
                up = masked_loss(net, xs, actions, targets)
                p[idx] = keep - h
                down = masked_loss(net, xs, actions, targets)
                p[idx] = keep
                g[idx] = (up - down) / (2 * h)
            grads.append(g)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst


def test_init_shapes_and_bounds():
    rng = np.random.default_rng(0)
    net = init_network([25, 32, 32, 3], rng)
    assert net.layer_sizes == [25, 32, 32, 3]
    for w, b in zip(net.weights, net.biases):
        fan_in, fan_out = w.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= limit
        assert np.all(b == 0.0)
    with pytest.raises(ValueError):
        init_network([25], rng)


def test_forward_single_equals_batch_row():
    rng = np.random.default_rng(1)
    net = init_network([6, 5, 3], rng)
    xs = rng.random((4, 6))
    batch_out = forward(net, xs)
    assert batch_out.shape == (4, 3)
    for i in range(4):
        # row-at-a-time and batched matmul may differ by rounding only
        assert np.allclose(forward(net, xs[i]), batch_out[i], rtol=1e-12, atol=0.0)


def test_forward_hand_computed():
    # identity-ish single hidden unit: relu(2x - 1) * 3 + 0.5
    net = QNetwork(
        weights=[np.array([[2.0]]), np.array([[3.0]])],
        biases=[np.array([-1.0]), np.array([0.5])],
    )
    assert forward(net, np.array([1.0]))[0] == pytest.approx(3.5)
    assert forward(net, np.array([0.0]))[0] == pytest.approx(0.5)  # relu clips


def test_copy_network_is_deep():
    rng = np.random.default_rng(2)
    net = init_network([4, 3, 2], rng)
    dup = copy_network(net)
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        sizes = [int(rng.integers(3, 7)), int(rng.integers(3, 7)), 3]
        net = init_network(sizes, rng)
        xs = rng.random((5, sizes[0]))
        actions = rng.integers(0, 3, size=5)
        targets = rng.normal(size=5)
        analytic_w, analytic_b = batch_gradient(net, xs, actions, targets)
        numeric_w, numeric_b = finite_difference_grads(net, xs, actions, targets)
        assert max_relative_error(analytic_w, numeric_w) < 1e-4
        assert max_relative_error(analytic_b, numeric_b) < 1e-4


def test_gradient_masks_other_actions():
    # only the taken action's output weights can receive gradient
    rng = np.random.default_rng(4)
    net = init_network([4, 5, 3], rng)
    x = rng.random(4)
    grads_w, grads_b = batch_gradient(net, x[None, :], np.array([1]), np.array([10.0]))
    out_w, out_b = grads_w[-1], grads_b[-1]
    assert np.all(out_w[:, 0] == 0.0)
    assert np.all(out_w[:, 2] == 0.0)
    assert out_b[0] == 0.0 and out_b[2] == 0.0
    assert np.any(out_w[:, 1] != 0.0)


def test_batch_gradient_is_mean_of_singles():
    rng = np.random.default_rng(5)
    net = init_network([4, 4, 3], rng)
    xs = rng.random((3, 4))
    actions = np.array([0, 2, 1])
    targets = np.array([1.0, -2.0, 0.5])
    batch_w, batch_b = batch_gradient(net, xs, actions, targets)
    singles = [
        batch_gradient(net, xs[i : i + 1], actions[i : i + 1], targets[i : i + 1])
        for i in range(3)
    ]
    for layer in range(len(net.weights)):
        mean_w = sum(s[0][layer] for s in singles) / 3
        mean_b = sum(s[1][layer] for s in singles) / 3
        assert np.allclose(batch_w[layer], mean_w, atol=1e-12)
        assert np.allclose(batch_b[layer], mean_b, atol=1e-12)


def test_adam_first_step_hand_computed():
    # with zero moments, one step moves each parameter by
    # lr * g / (|g| + eps) regardless of the gradient scale
    net = QNetwork(weights=[np.array([[1.0, -2.0]])], biases=[np.array([0.5, 0.5])])
    adam = init_adam(net, lr=0.01)
    grads_w = [np.array([[0.3, -4.0]])]
    grads_b = [np.array([2.0, 0.0])]
    adam_step(adam, net, grads_w, grads_b)
    assert adam.t == 1
    assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.01 * 0.3 / (0.3 + 1e-8))
    assert net.weights[0][0, 1] == pytest.approx(-2.0 + 0.01 * 4.0 / (4.0 + 1e-8))
    assert net.biases[0][0] == pytest.approx(0.5 - 0.01 * 2.0 / (2.0 + 1e-8))
    assert net.biases[0][1] == pytest.approx(0.5)  # zero gradient, no move


def test_adam_converges_on_quadratic():
    # minimize (q[a] - 3)^2 for a fixed input: the chosen output approaches 3
    rng = np.random.default_rng(6)
    net = init_network([2, 4, 3], rng)
    adam = init_adam(net, lr=0.05)
    x = np.array([1.0, 0.5])
    for _ in range(400):
        gw, gb = batch_gradient(net, x[None, :], np.array([2]), np.array([3.0]))
        adam_step(adam, net, gw, gb)
    assert forward(net, x)[2] == pytest.approx(3.0, abs=1e-3)


def test_adam_rejects_mismatched_gradients():
    rng = np.random.default_rng(7)
    net = init_network([3, 3, 3], rng)
    adam = init_adam(net)
    with pytest.raises(ValueError):
        adam_step(adam, net, [np.zeros((3, 3))], [np.zeros(3)])


def test_adam_matches_per_parameter_long_hand_bit_for_bit():
    # the moments live in one flat vector; each parameter must still move
    # exactly as a per-array Adam moves it
    rng = np.random.default_rng(8)
    net = init_network([5, 4, 3], rng)
    ref = copy_network(net)
    adam = init_adam(net, lr=0.01)
    params = [*ref.weights, *ref.biases]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    b1, b2, lr, eps = 0.9, 0.999, 0.01, 1e-8
    for t in range(1, 6):
        xs = rng.random((4, 5))
        gw, gb = batch_gradient(net, xs, rng.integers(3, size=4), rng.random(4))
        adam_step(adam, net, gw, gb)
        c1, c2 = 1.0 - b1**t, 1.0 - b2**t
        for p, g, m, v in zip(params, [*gw, *gb], ms, vs):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * np.square(g)
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
        for got, want in zip([*net.weights, *net.biases], params):
            assert np.array_equal(got, want)


def random_stack(rng, sizes, d=4):
    """d random nets of one shape, with nonzero biases, and their stack."""
    nets = [init_network(sizes, rng) for _ in range(d)]
    for net in nets:
        for b in net.biases:
            b += rng.normal(size=b.shape)
    return nets, stack_networks(nets)


def test_stack_and_unstack_roundtrip():
    rng = np.random.default_rng(20)
    nets, stacked = random_stack(rng, [25, 16, 8, 3])
    assert stacked.layer_sizes == [25, 16, 8, 3]
    assert [w.shape for w in stacked.weights] == [(4, 25, 16), (4, 16, 8), (4, 8, 3)]
    assert [b.shape for b in stacked.biases] == [(4, 16), (4, 8), (4, 3)]
    for net, back in zip(nets, unstack_network(stacked)):
        assert back.layer_sizes == net.layer_sizes
        for a, b in zip([*net.weights, *net.biases], [*back.weights, *back.biases]):
            assert a.tobytes() == b.tobytes()


def test_stacked_forward_and_gradient_match_each_net_alone():
    rng = np.random.default_rng(21)
    for sizes in ([25, 32, 32, 3], [7, 5, 3], [4, 2]):
        nets, stacked = random_stack(rng, sizes)
        xs = (rng.random((4, 25, sizes[0])) < 0.5).astype(np.float64)
        actions = rng.integers(0, sizes[-1], size=(4, 25))
        targets = rng.normal(size=(4, 25))
        q = forward(stacked, xs)
        q_one = forward(stacked, xs[:, :1])
        gw, gb = batch_gradient(stacked, xs, actions, targets)
        for i, net in enumerate(nets):
            assert q[i].tobytes() == forward(net, xs[i]).tobytes()
            assert q_one[i, 0].tobytes() == forward(net, xs[i, 0]).tobytes()
            alone_w, alone_b = batch_gradient(net, xs[i], actions[i], targets[i])
            for got, want in zip([*gw, *gb], [*alone_w, *alone_b]):
                assert got[i].tobytes() == want.tobytes()


def test_stacked_adam_matches_each_net_alone():
    rng = np.random.default_rng(22)
    nets, stacked = random_stack(rng, [25, 16, 16, 3])
    adam = init_adam(stacked, lr=0.01)
    alone = [(copy_network(net), init_adam(net, lr=0.01)) for net in nets]
    for _ in range(6):
        xs = (rng.random((4, 10, 25)) < 0.5).astype(np.float64)
        actions = rng.integers(0, 3, size=(4, 10))
        targets = rng.normal(size=(4, 10))
        adam_step(adam, stacked, *batch_gradient(stacked, xs, actions, targets))
        for i, (net, net_adam) in enumerate(alone):
            adam_step(net_adam, net, *batch_gradient(net, xs[i], actions[i], targets[i]))
    for i, (net, _) in enumerate(alone):
        for got, want in zip([*stacked.weights, *stacked.biases], [*net.weights, *net.biases]):
            assert got[i].tobytes() == want.tobytes()
