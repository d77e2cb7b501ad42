import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mobius_optics import dipole as dp
from mobius_optics import response as rs
from mobius_optics import validation
from mobius_optics.constants import E_CHARGE, EV, HBAR, NS
from mobius_optics.ring import RingParams, all_labels
from mobius_optics.validation import _brentq, validation_report


def test_full_report_passes_and_serialises():
    report = validation_report(RingParams(12))
    assert report["all_passed"] is True
    assert report["n_per_ring"] == 12
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))
    expected = {
        "spectrum_closed_vs_dense_ev",
        "electric_table_vs_numeric",
        "magnetic_table_vs_numeric",
        "selection_rule_sparsity",
        "perfect_ring_commutator",
        "annulene_shared_transitions",
        "mobius_shared_transition",
        "bandwidth_closed_vs_roots",
        "critical_lifetime_cylinder_4w",
        "critical_lifetime_cylinder_2w",
        "phase_diagram_H_no_lh",
        "lh_band_bounded_by_mu1_zeros",
        "surface_hyperbola_residual",
        "poynting_normal_to_surface",
        "lossy_window_shift",
        "overdamped_window_empty",
    }
    assert expected <= set(names)
    # the report is plain data, consumable as JSON downstream
    json.dumps(report)


def test_dense_checks_run_at_fixed_ring_sizes(monkeypatch):
    sizes = []
    build = validation.bf.build_hamiltonian

    def recording(params):
        sizes.append(params.n_per_ring)
        return build(params)

    monkeypatch.setattr(validation.bf, "build_hamiltonian", recording)
    checks = validation_report(RingParams(40))["checks"]
    assert sizes and set(sizes) <= {*validation.SPECTRUM_NS, *validation.TABLE_NS, 12}
    # spectrum (3), dipole (8) and topology (5) checks: every dense oracle
    dense = checks[:16]
    assert [c["name"] for c in dense[::15]] == [
        "spectrum_closed_vs_dense_ev", "mobius_shared_transition"]
    monkeypatch.undo()
    assert dense == validation_report(RingParams(12))["checks"][:16]


def test_closed_form_levels_match_dense_groups_at_the_grouping_tolerance():
    # at xi = 1e-6 eV the level spacings fall below 1e-6 eV: a wider matching
    # window than group_levels' put several closed-form levels in one group
    params = RingParams(12, xi_intra=1e-6)
    values = validation.spectrum_checks(params) | validation.dipole_checks(params)
    threshold = {check.name: check.threshold for check in validation.CHECKS}
    assert values["eigenspace_projectors"] < 1e-6
    for name in ("electric_dyads_vs_dense_eigenvectors", "magnetic_dyads_vs_dense_eigenvectors"):
        assert values[name] <= threshold[name]


@pytest.mark.parametrize("group_name,drop,add", [
    ("spectrum_checks", "eigenvector_unitarity", {}),
    ("refraction_checks", "lossy_window_shift", {}),
    ("topology_checks", None, {"unknown_check": 0.0}),
    ("dipole_checks", None, {"eigenspace_projectors": 0.0}),   # a name of another group
])
def test_report_raises_when_the_groups_and_the_table_disagree(monkeypatch, group_name, drop, add):
    # a name that a group leaves out once dropped its row silently
    group = getattr(validation, group_name)
    monkeypatch.setattr(validation, group_name,
                        lambda params: {k: v for k, v in group(params).items() if k != drop} | add)
    with pytest.raises(ValueError, match="CHECKS"):
        validation_report(RingParams(12))


def test_closed_form_checks_use_the_configured_radius():
    default = {c["name"]: c["value"] for c in validation_report(RingParams(12))["checks"]}
    params = RingParams(12, radius=0.5e-9)
    checks = {c["name"]: c["value"] for c in validation_report(params)["checks"]}
    tau_c = rs.critical_lifetime(rs.MediumConfig(params))
    assert checks["critical_lifetime_cylinder_4w"] == tau_c
    assert tau_c != default["critical_lifetime_cylinder_4w"]
    # the dense checks run at their own sizes and keep each size's radius
    dense = ("spectrum_closed_vs_dense_ev", "electric_table_vs_numeric", "mobius_shared_transition")
    assert [checks[name] for name in dense] == [default[name] for name in dense]


def _sparsity_by_pairs(params, d_num, m_num):
    """The per-label-pair loop that the selection-rule masks replace."""
    n = params.n_per_ring
    labels = all_labels(n)
    d_scale = E_CHARGE * params.half_width
    m_scale = E_CHARGE * params.xi_intra * EV * params.radius * params.half_width / HBAR
    worst = 0.0
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            dl = (lb.momentum_index - la.momentum_index) % n
            if dl > n // 2:
                dl -= n
            sel_e = dp.electric_selection(n, lb, la)  # from b to a: <a|O|b>
            for c in range(3):
                if "xyz"[c] not in sel_e:
                    worst = max(worst, abs(d_num[a, b, c]) / d_scale)
            if abs(dl) > 2:
                worst = max(worst, float(np.abs(m_num[a, b]).max()) / m_scale)
            elif la.band is not lb.band:
                sel_m = dp.magnetic_selection(n, lb, la)
                for c in range(3):
                    if "xyz"[c] not in sel_m:
                        worst = max(worst, abs(m_num[a, b, c]) / m_scale)
    return worst


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 12))
def test_sparsity_masks_match_the_loop_over_label_pairs(n):
    params = RingParams(n)
    rng = np.random.default_rng(n)
    shape = (2 * n, 2 * n, 3)
    zero = np.zeros(shape, dtype=complex)
    for _ in range(20):
        # magnitudes spread over 20 decades, so one element sets the maximum
        table = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
                 * 10.0 ** rng.integers(-40, -20, shape))
        for d_num, m_num in ((table, zero), (zero, table)):   # each rule on its own
            assert (validation._sparsity_deviation(params, d_num, m_num)
                    == _sparsity_by_pairs(params, d_num, m_num))


# --- the Brent port against scipy's brentq, bit for bit ---------------------

def _scipy_root(f, a, b, xtol):
    """scipy's brentq, with None where it finds no root."""
    try:
        root, info = brentq(f, a, b, xtol=xtol, full_output=True, disp=False)
    except ValueError:   # f(a) and f(b) of one sign
        return None
    return root if info.converged else None


def _cubic(c):
    return lambda x: ((c[0] * x + c[1]) * x + c[2]) * x + c[3]


_coeff = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(c=st.lists(_coeff, min_size=4, max_size=4), a=_coeff, b=_coeff,
       xtol=st.sampled_from((1e-3, 1e-9, 2e-12)) | st.floats(1e-12, 1.0))
def test_brent_port_matches_scipy_on_cubics(c, a, b, xtol):
    f = _cubic(c)
    assume(f(a) != 0.0 and f(b) != 0.0 and (f(a) < 0.0) != (f(b) < 0.0))
    assert _brentq(f, a, b, xtol) == _scipy_root(f, a, b, xtol)


@pytest.mark.parametrize("n", (6, 12, 24))
@pytest.mark.parametrize("gamma_inv_ns", (0.6, 1.0, 4.0, 40.0))
def test_brent_port_matches_scipy_on_the_validate_brackets(n, gamma_inv_ns):
    cfg = rs.MediumConfig(RingParams(n, decay_rate=1.0 / (gamma_inv_ns * NS)))
    delta0, gamma = rs.resonance_frequency(cfg), cfg.ring.decay_rate
    brackets = [(lambda om, level=level: rs.eta(cfg, om).real - level,
                 delta0 + gamma, delta0 + 1e8 * gamma) for level in (0.3, 0.2)]
    zeros = rs.mu1_zero_detunings(cfg)
    if zeros is not None:
        mu1 = lambda om: rs.mu1(cfg, om)
        mid = delta0 + 0.5 * (zeros[0] + zeros[1])
        brackets += [(mu1, delta0 + 0.2 * zeros[0], mid), (mu1, mid, delta0 + 2.0 * zeros[1])]
    for f, a, b in brackets:
        assert _brentq(f, a, b, xtol=1e-3) == _scipy_root(f, a, b, 1e-3)


def test_brent_port_returns_an_exact_zero_endpoint():
    f = _cubic([1.0, 0.0, -1.0, 0.0])  # roots -1, 0 and 1
    for a, b in ((1.0, 3.0), (-3.0, -1.0), (0.0, 0.5), (-0.5, 0.0)):
        expected = a if f(a) == 0.0 else b
        assert _brentq(f, a, b, 1e-9) == brentq(f, a, b, xtol=1e-9) == expected


def test_brent_port_returns_none_without_a_sign_change():
    f = _cubic([1.0, 0.0, -1.0, 0.0])
    with pytest.raises(ValueError, match="different signs"):
        brentq(f, 2.0, 3.0)
    assert _brentq(f, 2.0, 3.0, 1e-9) is None
    assert _brentq(f, -3.0, -2.0, 1e-9) is None
    assert _brentq(lambda x: math.nan, 0.0, 1.0, 1e-9) is None
