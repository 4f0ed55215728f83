"""Property tests: at fixed parameters the stream does not depend on how the
data are cut into mini-batches or in which order they arrive: neither its
bound, nor its predictions, nor its accumulated gradient.

Every batch of a pass shares one prior (built once per parameter value),
so these also guard that sharing: a prior that changed between batches
would show up as a partition-dependent bound or prediction.
"""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from streamgp import (
    MiniBatch,
    ModelSpec,
    batch_bound,
    fixed_theta_pass,
    init_state,
    predict,
    update,
)
from streamgp.gradients import init_gradient_state
from streamgp.optimizer import step

from conftest import make_instance, rel_diff

N = 40
SPECS = [ModelSpec("vfe"), ModelSpec("fitc"), ModelSpec("pep", alpha=0.5), ModelSpec("dtc")]
X, Y, H = make_instance(30, n=N, m=6, d=2, lengthscale=[0.4, 0.5])
X_STAR = np.random.default_rng(31).uniform(0.0, 1.0, (9, 2))
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)
# A smaller instance for the gradient: P = D + 2 + M D = 10 parameters.
N_G = 30
X_G, Y_G, H_G = make_instance(32, n=N_G, m=3, d=2, lengthscale=[0.4, 0.5])


@functools.cache
def fd_reference(spec_index: int) -> np.ndarray:
    """Central differences of the batch bound at H_G."""
    return batch_bound(X_G, Y_G, H_G, SPECS[spec_index]).gradient


@PROPERTY
@given(
    spec=st.sampled_from(SPECS),
    order=st.permutations(range(N)),
    batch_size=st.integers(1, N),
)
def test_streamed_bound_equals_batch_bound(spec, order, batch_size):
    order = np.asarray(order)
    psi = fixed_theta_pass(X[order], Y[order], H, spec, batch_size).psi
    reference = batch_bound(X, Y, H, spec, with_gradient=False).value
    assert abs(psi - reference) <= 1e-9 * abs(reference)


@PROPERTY
@given(
    spec=st.sampled_from(SPECS),
    order=st.permutations(range(N)),
    cuts=st.sets(st.integers(1, N - 1), max_size=8),
)
def test_prediction_independent_of_partition(spec, order, cuts):
    order = np.asarray(order)
    state = init_state(H)
    for idx in np.split(order, sorted(cuts)):
        state, _ = update(state, MiniBatch(X[idx], Y[idx]), H, spec)
    got = predict(state, X_STAR, H, spec, with_noise=True)
    want = predict(fixed_theta_pass(X, Y, H, spec, N), X_STAR, H, spec, with_noise=True)
    assert rel_diff(got.mean, want.mean) < 1e-9
    assert rel_diff(got.variance, want.variance) < 1e-9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    spec_index=st.sampled_from(range(len(SPECS))),
    order=st.permutations(range(N_G)),
    cuts=st.sets(st.integers(1, N_G - 1), max_size=8),
)
def test_streamed_gradient_equals_batch_gradient(spec_index, order, cuts):
    spec = SPECS[spec_index]
    state, g = init_state(H_G), init_gradient_state(H_G)
    for idx in np.split(np.asarray(order), sorted(cuts)):
        state, g = step(state, g, MiniBatch(X_G[idx], Y_G[idx]), H_G, spec)
    reference = fd_reference(spec_index)
    assert H_G.n_params == 10
    np.testing.assert_allclose(g.d_psi, reference, rtol=1e-6, atol=1e-8)
