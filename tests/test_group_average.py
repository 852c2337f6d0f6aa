"""group_average against the hand-written Haar sums it replaced.

Each ``_reference_*`` function below is the loop its caller used before the
sums were folded into ``group_average``; the folded callers must return the
same bits, not merely close values.  The one exception is the layer bound
on a non-permutation output rep, whose weight now scales after the
output-rep product instead of before it.
"""

import numpy as np
import pytest

from symlab.averaging import apply_Q, group_average, haar_sample, tta_average
from symlab.groups import build_group, build_representation
from symlab.kernel_gap import (
    SWITCH_REFUTE_TOL,
    SWITCH_VERIFY_TOL,
    _pair_values,
    build_averaged_kernel,
    check_switch_condition,
    gaussian_kernel,
    linear_kernel,
)
from symlab.layers import ACTIVATIONS, check_regularisation_bound
from symlab.orbits import averaged_loss, default_invariant_target


def _rep(group, kind="natural_permutation"):
    return build_representation(build_group(group), kind)


def _reference_gram_bar(kernel, A, B):
    group = kernel.action.group
    mats = kernel.action.matrices
    out = None
    for g in group.elements():
        term = group.weights[g] * kernel.gram(A, B @ mats[g].T)
        out = term if out is None else out + term
    return out


def _reference_switch(kernel, n_pairs, seed):
    rng = np.random.default_rng(seed)
    group = kernel.action.group
    mats = kernel.action.matrices
    X, Y = rng.standard_normal((2, n_pairs, kernel.dim))
    lhs = np.zeros(n_pairs)
    rhs = np.zeros(n_pairs)
    for g in group.elements():
        w = group.weights[g]
        lhs += w * _pair_values(kernel.gram, X @ mats[g].T, Y)
        rhs += w * _pair_values(kernel.gram, X, Y @ mats[g].T)
    violation = float(np.max(np.abs(lhs - rhs)))
    if violation <= SWITCH_VERIFY_TOL:
        return "verified", violation
    if violation > SWITCH_REFUTE_TOL:
        return "refuted", violation
    return "unchecked", violation


def _reference_symmetric_part(base, rep_in, rep_out, X, mode, n_samples, seed):
    group = rep_in.group
    phi = rep_in.matrices
    psi_inv = rep_out.matrices[group.inverse]
    if mode == "exact_sum":
        elements = np.arange(group.order)
        weights = group.weights
    else:
        rng = np.random.default_rng(seed)
        elements = rng.choice(group.order, size=n_samples, p=group.weights)
        weights = np.full(len(elements), 1.0 / len(elements))
    acc = None
    for g, w in zip(elements, weights):
        vals = np.asarray(base(X @ phi[g].T), dtype=np.float64)
        flat = vals.ndim == 1
        if flat:
            vals = vals[:, None]
        term = w * (vals @ psi_inv[g].T)
        acc = term if acc is None else acc + term
    if flat and rep_out.dim == 1:
        return acc[:, 0]
    return acc


def _reference_tta(pred, rep_in, n, seed, mode, X):
    group = rep_in.group
    if mode == "exact":
        elements = np.arange(group.order)
        weights = group.weights
    else:
        rng = np.random.default_rng(seed)
        elements = rng.choice(group.order, size=n, p=group.weights)
        weights = np.full(n, 1.0 / n)
    phi = rep_in.matrices
    acc = None
    for g, w in zip(elements, weights):
        term = w * np.asarray(pred(X @ phi[g].T), dtype=np.float64)
        acc = term if acc is None else acc + term
    return acc


def _reference_layer_lhs(W, psi_in, psi_out, activation, samples, seed):
    act = ACTIVATIONS[activation]
    group = psi_in.group
    X = np.random.default_rng(seed).standard_normal((samples, psi_in.dim))
    out_inv = psi_out.matrices[group.inverse]
    f = act(X @ W.T)
    qf = np.zeros_like(f)
    for g in group.elements():
        qf += group.weights[g] * act(X @ psi_in.matrices[g].T @ W.T) @ out_inv[g].T
    return float(((f - qf) ** 2).sum(axis=1).mean())


@pytest.mark.parametrize("group,kind,activation,exact", [
    ("symmetric 3", "natural_permutation", "relu", True),
    ("dihedral 5", "natural_permutation", "relu", True),
    ("cyclic 4", "rotation_block 1", "identity", True),
    # rotation output rep and weight 1/3: equal up to rounding
    ("cyclic 3", "rotation_block 1", "identity", False),
])
def test_layer_bound_matches_the_reference_loop(group, kind, activation, exact):
    rep = _rep(group, kind)
    W = np.random.default_rng(1).standard_normal((rep.dim, rep.dim))
    lhs = check_regularisation_bound(W, rep, rep, activation=activation, samples=2000, seed=2)["lhs_mean"]
    expected = _reference_layer_lhs(W, rep, rep, activation, 2000, 2)
    if exact:
        assert lhs == expected
    else:
        assert lhs == pytest.approx(expected, rel=64 * np.finfo(np.float64).eps)


@pytest.mark.parametrize("kernel", [
    lambda: linear_kernel(_rep("cyclic 8")),
    lambda: gaussian_kernel(_rep("symmetric 4"), bandwidth=2.0),
], ids=["C8-linear", "S4-gaussian"])
def test_gram_bar_is_bitwise_the_reference_loop(kernel):
    spec = kernel()
    ak = build_averaged_kernel(spec)
    rng = np.random.default_rng(5)
    A = rng.standard_normal((64, spec.dim))
    B = rng.standard_normal((256, spec.dim))
    assert np.array_equal(ak.gram_bar(A, B), _reference_gram_bar(spec, A, B))


@pytest.mark.parametrize("kernel", [
    lambda: linear_kernel(_rep("cyclic 4", "rotation_block 1")),
    lambda: gaussian_kernel(_rep("symmetric 4"), bandwidth=2.0),
    lambda: gaussian_kernel(_rep("so2_quadrature 12", "rotation_block 1"), bandwidth=0.7),
], ids=["C4-linear", "S4-gaussian", "SO2-gaussian"])
def test_switch_condition_is_bitwise_the_reference_loop(kernel):
    spec = kernel()
    assert check_switch_condition(spec, n_pairs=50, seed=4) == _reference_switch(spec, 50, 4)


@pytest.mark.parametrize("mode", ["exact_sum", "monte_carlo"])
@pytest.mark.parametrize("flat", [False, True])
def test_apply_q_is_bitwise_the_reference_loop(mode, flat):
    rep = _rep("symmetric 3")
    rep_out = build_representation(rep.group, "trivial 1") if flat else rep
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 3))
    base = (lambda X: np.tanh(X @ A[0])) if flat else (lambda X: np.tanh(X @ A.T))
    X = rng.standard_normal((40, 3))
    dec = apply_Q(base, rep, rep_out, mode=mode, n_samples=37, seed=9)
    expected = _reference_symmetric_part(base, rep, rep_out, X, mode, 37, 9)
    assert np.array_equal(dec.symmetric_part(X), expected)
    assert np.array_equal(dec.antisym_part(X), base(X) - expected)


@pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
def test_tta_average_is_bitwise_the_reference_loop(mode):
    rep = _rep("cyclic 3", "rotation_block 1")
    pred = lambda X: np.sin(X[:, 0]) + X[:, 1] ** 3
    X = np.random.default_rng(7).standard_normal((30, 2))
    out = tta_average(pred, rep, n=23, seed=3, mode=mode)
    assert np.array_equal(out(X), _reference_tta(pred, rep, 23, 3, mode, X))


def test_orbit_sums_are_bitwise_the_reference_sums():
    rep = _rep("dihedral 5")
    group, mats = rep.group, rep.matrices
    X = np.random.default_rng(8).standard_normal((20, rep.dim))
    c = np.arange(1, rep.dim + 1, dtype=np.float64) / rep.dim
    expected = sum(group.weights[g] * np.tanh(X @ (mats[g].T @ c)) for g in group.elements())
    assert np.array_equal(default_invariant_target(rep)(X), expected)

    loss = lambda y, yp: float(np.sum((y - yp) ** 2) + y[0] ** 2)
    nu = np.random.default_rng(9).dirichlet(np.ones(group.order))
    y, yp = X[0], X[1]
    for weights, lbar in ((group.weights, averaged_loss(loss, rep)), (nu, averaged_loss(loss, rep, nu))):
        ref = float(sum(weights[g] * loss(mats[g] @ y, mats[g] @ yp) for g in group.elements()))
        assert lbar(y, yp) == ref


def test_sampled_draw_is_the_default_rng_choice_stream():
    group = build_group("dihedral 4")
    elements, weights = haar_sample(group, 50, seed=12)
    expected = np.random.default_rng(12).choice(group.order, size=50, p=group.weights)
    assert np.array_equal(elements, expected)
    assert np.array_equal(weights, np.full(50, 1.0 / 50))
    everything, haar = haar_sample(group)
    assert np.array_equal(everything, np.arange(group.order))
    assert haar is group.weights


def test_group_average_order_and_default_weights():
    group = build_group("cyclic 5")
    terms = np.random.default_rng(13).standard_normal((5, 4))
    fn = lambda g: terms[g]
    expected = group.weights[0] * terms[0]
    for g in range(1, 5):
        expected = expected + group.weights[g] * terms[g]
    assert np.array_equal(group_average(fn, group), expected)
    # explicit elements without weights take those elements' Haar weights
    assert np.array_equal(
        group_average(fn, group, elements=[3, 1]),
        group.weights[3] * terms[3] + group.weights[1] * terms[1],
    )
    # a single element returns its weighted term as is
    assert np.array_equal(group_average(fn, group, [2], [1.0]), terms[2])


def test_sampled_averaging_still_rejects_fewer_than_one_element():
    rep = _rep("symmetric 3")
    with pytest.raises(ValueError, match="n >= 1"):
        apply_Q(np.tanh, rep, rep, mode="monte_carlo", n_samples=0)
    with pytest.raises(ValueError, match="n >= 1"):
        tta_average(lambda X: X[:, 0], rep, n=0, seed=0)
    with pytest.raises(ValueError, match="n >= 1"):
        haar_sample(rep.group, -3)
