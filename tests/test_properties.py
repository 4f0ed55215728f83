"""Property tests: at fixed parameters the stream does not depend on how the
data are cut into mini-batches or in which order they arrive.

Every batch of a pass shares one prior (built once per parameter value),
so these also guard that sharing: a prior that changed between batches
would show up as a partition-dependent bound or prediction.
"""

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

from conftest import make_instance, rel_diff

N = 40
SPECS = [ModelSpec("vfe"), ModelSpec("fitc"), ModelSpec("pep", alpha=0.5), ModelSpec("dtc")]
X, Y, H = make_instance(30, n=N, m=6, d=2, lengthscale=[0.4, 0.5])
X_STAR = np.random.default_rng(31).uniform(0.0, 1.0, (9, 2))
PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)


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
    state = init_state(H, spec)
    for idx in np.split(order, sorted(cuts)):
        state, _ = update(state, MiniBatch(X[idx], Y[idx]), H, spec)
    got = predict(state, X_STAR, H, spec, with_noise=True)
    want = predict(fixed_theta_pass(X, Y, H, spec, N), X_STAR, H, spec, with_noise=True)
    assert rel_diff(got.mean, want.mean) < 1e-9
    assert rel_diff(got.variance, want.variance) < 1e-9
