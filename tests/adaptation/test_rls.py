"""Tests for the per-p-state recursive least squares estimator."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acpi.pstates import pentium_m_755_table
from repro.adaptation.rls import COLD_P0, MIN_BETA_W, WARM_P0, PowerModelRLS
from repro.core.models.power import LinearPowerModel, PStateCoefficients
from repro.errors import AdaptationError


def feed_linear(
    rls: PowerModelRLS,
    freq: float,
    alpha: float,
    beta: float,
    n: int,
    noise_w: float = 0.0,
    seed: int = 0,
):
    """Feed n samples drawn from P = alpha*dpc + beta (+ noise)."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        dpc = rng.uniform(0.2, 2.5)
        watts = alpha * dpc + beta + (
            rng.normal(0.0, noise_w) if noise_w else 0.0
        )
        rls.update(freq, dpc, max(watts, 0.0))


class TestConvergence:
    def test_cold_start_converges_to_known_coefficients(self):
        rls = PowerModelRLS(forgetting=1.0)
        feed_linear(rls, 2000.0, alpha=5.76, beta=9.86, n=200)
        fit = rls.coefficients(2000.0)
        assert fit.alpha == pytest.approx(5.76, abs=1e-3)
        assert fit.beta == pytest.approx(9.86, abs=1e-3)

    def test_converges_under_noise(self):
        rls = PowerModelRLS(forgetting=1.0)
        feed_linear(rls, 1600.0, alpha=4.0, beta=7.0, n=2000, noise_w=0.2)
        fit = rls.coefficients(1600.0)
        assert fit.alpha == pytest.approx(4.0, abs=0.1)
        assert fit.beta == pytest.approx(7.0, abs=0.15)

    def test_warm_start_stays_near_prior_before_evidence(self):
        prior = LinearPowerModel.paper_model()
        rls = PowerModelRLS(forgetting=0.98, initial_model=prior)
        alpha, beta = rls.update(2000.0, 1.0, prior.estimate(2000.0, 1.0))
        # One perfectly consistent sample must not move a warm prior.
        assert alpha == pytest.approx(prior.alpha(2000.0), abs=0.05)
        assert beta == pytest.approx(prior.beta(2000.0), abs=0.05)

    def test_per_pstate_fits_are_independent(self):
        rls = PowerModelRLS(forgetting=1.0)
        feed_linear(rls, 600.0, alpha=1.0, beta=2.0, n=100)
        feed_linear(rls, 2000.0, alpha=6.0, beta=10.0, n=100, seed=1)
        assert rls.coefficients(600.0).alpha == pytest.approx(1.0, abs=1e-2)
        assert rls.coefficients(2000.0).alpha == pytest.approx(6.0, abs=1e-2)


class TestForgetting:
    def test_forgetting_tracks_a_shifted_target(self):
        """After a regime change the discounted fit re-converges; an
        infinite-memory fit stays anchored to the blended history."""
        forgetful = PowerModelRLS(forgetting=0.95)
        permanent = PowerModelRLS(forgetting=1.0)
        for rls in (forgetful, permanent):
            feed_linear(rls, 1800.0, alpha=5.0, beta=9.0, n=300)
            feed_linear(rls, 1800.0, alpha=6.5, beta=11.0, n=300, seed=7)
        assert forgetful.coefficients(1800.0).alpha == pytest.approx(
            6.5, abs=0.05
        )
        assert forgetful.coefficients(1800.0).beta == pytest.approx(
            11.0, abs=0.1
        )
        # The lambda=1 fit still remembers the old regime.
        assert permanent.coefficients(1800.0).alpha < 6.2

    def test_invalid_forgetting_rejected(self):
        with pytest.raises(AdaptationError, match="forgetting"):
            PowerModelRLS(forgetting=0.0)
        with pytest.raises(AdaptationError, match="forgetting"):
            PowerModelRLS(forgetting=1.5)


class TestFittedModel:
    def test_unvisited_pstates_keep_fallback(self):
        fallback = LinearPowerModel.paper_model()
        rls = PowerModelRLS(forgetting=1.0)
        feed_linear(rls, 2000.0, alpha=7.0, beta=12.0, n=100)
        model = rls.fitted_model(fallback, min_samples=10)
        assert model.alpha(2000.0) == pytest.approx(7.0, abs=1e-2)
        for freq in fallback.frequencies_mhz:
            if freq != 2000.0:
                assert model.alpha(freq) == fallback.alpha(freq)

    def test_min_samples_gate(self):
        fallback = LinearPowerModel.paper_model()
        rls = PowerModelRLS(forgetting=1.0)
        feed_linear(rls, 2000.0, alpha=7.0, beta=12.0, n=5)
        model = rls.fitted_model(fallback, min_samples=10)
        assert model.alpha(2000.0) == fallback.alpha(2000.0)
        assert rls.refit_frequencies(min_samples=10) == ()
        assert rls.refit_frequencies(min_samples=5) == (2000.0,)

    def test_clamps_keep_model_constructible(self):
        # A degenerate stream (all power ~0) drives beta to the floor
        # instead of breaking the PStateCoefficients invariant.
        rls = PowerModelRLS(forgetting=1.0)
        for _ in range(50):
            rls.update(600.0, 0.5, 0.0)
        fit = rls.coefficients(600.0)
        assert isinstance(fit, PStateCoefficients)
        assert fit.beta == MIN_BETA_W
        assert fit.alpha >= 0.0


class TestBookkeeping:
    def test_sample_counting_and_reset(self):
        rls = PowerModelRLS()
        assert rls.coefficients(2000.0) is None
        feed_linear(rls, 2000.0, alpha=5.0, beta=9.0, n=3)
        assert rls.samples_seen(2000.0) == 3
        assert rls.total_samples == 3
        assert rls.frequencies_mhz == (2000.0,)
        rls.reset()
        assert rls.total_samples == 0
        assert rls.coefficients(2000.0) is None

    def test_snapshot_is_json_safe(self):
        import json

        rls = PowerModelRLS()
        feed_linear(rls, 1000.0, alpha=2.0, beta=4.0, n=10)
        snap = rls.snapshot()
        assert json.loads(json.dumps(snap[1000.0]))["samples"] == 10

    def test_rejects_negative_inputs(self):
        rls = PowerModelRLS()
        with pytest.raises(AdaptationError, match="DPC"):
            rls.update(2000.0, -0.1, 5.0)
        with pytest.raises(AdaptationError, match="power"):
            rls.update(2000.0, 0.5, -5.0)


# -- bit-exact against the numpy formula -------------------------------------


def numpy_update(theta, P, lam, dpc, measured_w):
    """The fit's numpy formula, kept as the oracle of the float one."""
    phi = np.array([dpc, 1.0])
    P_phi = P @ phi
    gain = P_phi / (lam + phi @ P_phi)
    theta = theta + gain * (measured_w - phi @ theta)
    P = (P - np.outer(gain, P_phi)) / lam
    return theta, P


def bits(*values):
    """The exact bit patterns (signed zeros included)."""
    return struct.pack(f"<{len(values)}d", *values)


FREQUENCIES = tuple(p.frequency_mhz for p in pentium_m_755_table())
NONNEGATIVE = st.one_of(
    st.just(0.0),
    st.floats(0.0, 4.0),
    st.floats(0.0, 1e3, allow_subnormal=False),
)


@settings(max_examples=200, deadline=None)
@given(
    forgetting=st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_min=True)),
    warm=st.booleans(),
    stream=st.lists(
        st.tuples(st.sampled_from(FREQUENCIES), NONNEGATIVE, NONNEGATIVE),
        min_size=1,
        max_size=300,
    ),
)
def test_updates_are_bit_exact_against_numpy(forgetting, warm, stream):
    """After every update theta and P equal the numpy formula's bit for
    bit, its fused ``P @ phi`` lanes included."""
    prior = LinearPowerModel.paper_model() if warm else None
    rls = PowerModelRLS(forgetting=forgetting, initial_model=prior)
    oracle = {}
    for freq, dpc, measured in stream:
        if freq not in oracle:
            if warm:
                coefficients = prior.coefficients(freq)
                theta = np.array([coefficients.alpha, coefficients.beta])
                P = np.eye(2) * WARM_P0
            else:
                theta, P = np.zeros(2), np.eye(2) * COLD_P0
            oracle[freq] = theta, P
        theta, P = oracle[freq] = numpy_update(
            *oracle[freq], forgetting, dpc, measured
        )
        alpha, beta = rls.update(freq, dpc, measured)
        state = rls._states[freq]
        assert bits(alpha, beta) == bits(*theta)
        assert bits(state.t0, state.t1) == bits(*theta)
        assert bits(state.p00, state.p01, state.p10, state.p11) == bits(
            *P.ravel()
        )
