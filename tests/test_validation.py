import functools
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mobius_optics import bruteforce as bf
from mobius_optics import cli
from mobius_optics import dipole as dp
from mobius_optics import response as rs
from mobius_optics import validation
from mobius_optics.constants import E_CHARGE, EV, HBAR, NM, NS
from mobius_optics.ring import RingParams, Topology, band_energies, label_axes
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
    rings = []
    build = validation.bf.build_hamiltonian

    def recording(params):
        rings.append((params.n_per_ring, params.topology))
        return build(params)

    grouped, matched = [], []
    group, match = bf.group_levels, bf.match_levels

    def grouping(energies, tol):
        grouped.append(energies.copy())
        return group(energies, tol)

    def matching(w, levels, closed, tol):
        matched.append(w.copy())
        return match(w, levels, closed, tol)

    monkeypatch.setattr(validation.bf, "build_hamiltonian", recording)
    monkeypatch.setattr(bf, "group_levels", grouping)
    monkeypatch.setattr(bf, "match_levels", matching)
    checks = validation_report(RingParams(40))["checks"]
    # each ring of the dense checks, at its fixed size, is built exactly once per report
    expected = sorted([(n, Topology.MOBIUS) for n in validation.SPECTRUM_NS]
                      + [(12, Topology.SINGLE_RING), (12, Topology.DOUBLE_RING_PERIODIC)],
                      key=str)
    assert sorted(rings, key=str) == expected
    # each ring that the checks group into levels is grouped once: the Mobius rings of
    # the dipole tables (DENSE_N among them) and the single and double rings of size DENSE_N
    assert sorted(w.size for w in grouped) == sorted(
        [2 * n for n in validation.TABLE_NS] + [validation.DENSE_N, 2 * validation.DENSE_N])
    assert len({w.tobytes() for w in grouped}) == len(grouped)
    # and matched to the closed-form columns once: the Mobius rings of the dipole tables
    assert sorted(w.size for w in matched) == [2 * n for n in validation.TABLE_NS]
    assert len({w.tobytes() for w in matched}) == len(matched)
    grouped.clear()
    matched.clear()
    # spectrum (3), dipole (8) and topology (5) checks: every dense oracle
    dense = checks[:16]
    assert [c["name"] for c in dense[::15]] == [
        "spectrum_closed_vs_dense_ev", "mobius_shared_transition"]
    # the next report, at other params, builds every ring again: nothing carries over
    rings.clear()
    second = validation_report(RingParams(12))["checks"]
    assert sorted(rings, key=str) == expected
    assert (len(grouped), len(matched)) == (len(validation.TABLE_NS) + 2, len(validation.TABLE_NS))
    assert dense == second[:16]
    monkeypatch.undo()
    assert second == validation_report(RingParams(12))["checks"]


def test_default_report_projects_each_operator_once_per_basis_and_ring(monkeypatch):
    projections = []
    sandwich = bf._sandwich

    def recording(table, vectors):
        projections.append((table.shape, vectors.shape, table.tobytes(), vectors.tobytes()))
        return sandwich(table, vectors)

    monkeypatch.setattr(bf, "_sandwich", recording)
    validation_report()
    # the electric and commutator tables in both bases at each of TABLE_NS (16), the bond
    # current in the momentum basis at DENSE_N (1), and the electric and bond-current
    # eigenbasis tables of the three topology scans (6) less the Mobius electric one, which
    # the dyad check at DENSE_N has already built
    assert len(projections) == 4 * len(validation.TABLE_NS) + 1 + 6 - 1 == 22
    assert len(set(projections)) == len(projections)


def test_closed_form_levels_match_dense_groups_at_the_grouping_tolerance():
    # at xi = 1e-6 eV the level spacings fall below 1e-6 eV: a wider matching
    # window than group_levels' put several closed-form levels in one group
    params = RingParams(12, xi_intra=1e-6)
    values = validation.spectrum_checks(params) | validation.dipole_checks(params)
    threshold = {check.name: check.threshold for check in validation.CHECKS}
    assert values["eigenspace_projectors"] < 1e-6
    for name in ("electric_dyads_vs_dense_eigenvectors", "magnetic_dyads_vs_dense_eigenvectors"):
        assert values[name] <= threshold[name]


def test_every_reason_is_named_in_the_module_docstring_and_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    notes = readme[readme.index("Notes on `validate`:"):readme.index("Exit codes:")]
    reasons = [name for name, value in vars(validation).items()
               if name.isupper() and not name.startswith("_") and isinstance(value, str)]
    assert {"NO_ROOT", "REPEATED_SWEEP", "UNDERFLOW"} <= set(reasons)
    for name in reasons:
        assert f"``{name}``" in validation.__doc__, name
        assert f"`{name}`" in notes, name


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
                        lambda *args: {k: v for k, v in group(*args).items() if k != drop} | add)
    with pytest.raises(ValueError, match="CHECKS"):
        validation_report(RingParams(12))


def test_closed_form_checks_use_the_configured_radius():
    default = {c["name"]: c["value"] for c in validation_report(RingParams(12))["checks"]}
    params = RingParams(12, radius=0.5e-9)
    checks = {c["name"]: c["value"] for c in validation_report(params)["checks"]}
    tau_c = rs.MediumConfig(params).resonance.critical_lifetime
    assert checks["critical_lifetime_cylinder_4w"] == tau_c
    assert tau_c != default["critical_lifetime_cylinder_4w"]
    # the dense checks run at their own sizes and keep each size's radius
    dense = ("spectrum_closed_vs_dense_ev", "electric_table_vs_numeric", "mobius_shared_transition")
    assert [checks[name] for name in dense] == [default[name] for name in dense]


def _sparsity_by_pairs(params, d_num, m_num):
    """The per-label-pair loop that the selection-rule masks replace."""
    n = params.n_per_ring
    band, ell = label_axes(n)
    kinds = [dp.KINDS.index(kind) for kind in (dp.DipoleKind.ELECTRIC, dp.DipoleKind.MAGNETIC)]
    d_scale = E_CHARGE * params.half_width
    m_scale = E_CHARGE * params.xi_intra * EV * params.radius * params.half_width / HBAR
    worst = 0.0
    for a in range(2 * n):
        for b in range(2 * n):
            dl = (ell[b] - ell[a]) % n
            if dl > n // 2:
                dl -= n
            # from b to a: <a|O|b>
            sel_e, sel_m = dp.COMPONENTS[dp.selection_table(n)[
                kinds, band[b], band[a], (ell[a] - ell[b]) % n]]
            for c in range(3):
                if "xyz"[c] not in sel_e:
                    worst = max(worst, abs(d_num[a, b, c]) / d_scale)
            if abs(dl) > 2:
                worst = max(worst, float(np.abs(m_num[a, b]).max()) / m_scale)
            elif band[a] != band[b]:
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
    brackets = [(lambda om, level=level: cfg.resonance.eta(om).real - level,
                 delta0 + gamma, delta0 + 1e8 * gamma) for level in (0.3, 0.2)]
    zeros = cfg.resonance.mu1_zeros
    if zeros is not None:
        mu1 = lambda om: rs.response_tensors(cfg, om).mu1
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


def test_brent_port_returns_none_on_nan_inside_or_too_few_steps():
    # a sign change at the ends, NaN at every point inside
    assert _brentq(lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan, 0.0, 1.0, 1e-9) is None
    f = _cubic([1.0, 0.0, 0.0, -0.3])   # one root, at 0.3 ** (1 / 3)
    assert _brentq(f, 0.0, 1.0, 1e-9, maxiter=1) is None
    assert _brentq(f, 0.0, 1.0, 1e-9) == _scipy_root(f, 0.0, 1.0, 1e-9)


# --- the dyad pass against the per-level loop it replaces, bit for bit -------

# rings of the dense-oracle differential tests, each run at its canonical scale as
# validate runs it: half widths (nm) whose squared magnetic elements would underflow
# (1e-60) or overflow (1e87, 1e90) as given; then tiny xi (levels closer than 1e-6 eV),
# huge V, and a spectrum within 1e-9 eV (one level, no excited one)
ORACLE_RINGS = [{"half_width": hw * NM} for hw in (1e-3, 0.077, 1e-60, 1e87, 1e90)] + [
    {"xi_intra": 1e-6}, {"v_inter": 1e6}, {"v_inter": 1e-12, "xi_intra": 1e-12}]


def _bits(x):
    """Bytes of a float or complex value, every NaN made one NaN."""
    a = np.array(x, dtype=complex if np.iscomplexobj(x) else float)
    parts = a.reshape(-1).view(float)
    parts[np.isnan(parts)] = np.nan
    return a.tobytes()


def _levels_by_loop(params, w, tol):
    """Each dense level, with the closed-form columns within ``tol`` of its mean."""
    order = np.argsort(w)
    levels = np.split(order, np.flatnonzero(~(np.diff(w[order]) <= tol)) + 1)
    closed = band_energies(params)
    return [(grp, np.flatnonzero(np.abs(closed - w[grp].mean()) <= tol)) for grp in levels]


def _dyads_by_levels(params, w, tol, num, tbl):
    """The per-level loop of the dyad check, grouping and matching the levels itself."""
    (ground, _), *excited = _levels_by_loop(params, w, tol)
    scale = float(np.abs(num).max()) ** 2
    worst = 0.0
    for grp, cols in excited:
        vec_num = num[np.ix_(ground, grp)].reshape(-1, 3)
        vec_ana = tbl[0, cols]   # label 0 is the ground state
        dy_num = (vec_num[:, :, None] * vec_num.conj()[:, None, :]).sum(axis=0)
        dy_ana = (vec_ana[:, :, None] * vec_ana.conj()[:, None, :]).sum(axis=0)
        worst = np.maximum(worst, float(np.abs(dy_num - dy_ana).max()) / scale)
    return worst


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
@pytest.mark.parametrize("n", (3, 4, 5, 6, 12, 24))
def test_dyad_pass_matches_the_loop_over_levels(n, ring):
    p, unit = validation._canonical(RingParams(n, **ring), n)
    dense = bf.DenseRing(p, unit)
    w = dense.eigensystem[0]
    tol = bf.LEVEL_TOL_EV / unit
    levels = _levels_by_loop(p, w, tol)
    assert [len(level) for level in (dense.levels, dense.matched_levels)] == [len(levels)] * 2
    for grp, (matched, cols), (ref_grp, ref_cols) in zip(dense.levels, dense.matched_levels, levels):
        assert grp is matched
        assert np.array_equal(grp, ref_grp) and np.array_equal(cols, ref_cols)
    for ana_fn, name in ((dp.electric_table, "electric"), (dp.magnetic_table, "commutator")):
        ana, num = ana_fn(p), dense.projection(name, "eigen")
        assert (_bits(validation._dyad_deviation(dense, num, ana))
                == _bits(_dyads_by_levels(p, w, tol, num, ana)))


def test_a_block_of_the_wrong_sign_fails_the_table_row_and_not_the_calibration(monkeypatch):
    # the block fit absorbs any unit phase, -1 included, and the dyads are quadratic in
    # the elements: only the element-wise table row sees a closed-form block's sign
    table = validation.dp.electric_table

    def flipped(params):
        out = table(params).copy()
        band, ell = label_axes(params.n_per_ring)
        out[(ell[:, None] == ell[None, :]) & (band[:, None] == 0) & (band[None, :] == 1)] *= -1
        return out   # the (dl = 0, down -> up) block

    monkeypatch.setattr(validation.dp, "electric_table", flipped)
    p = RingParams(validation.DENSE_N)
    num = bf.DenseRing(p).projection("electric")
    assert abs(np.abs(flipped(p) - num).max() / np.abs(num).max() - 0.52) < 0.01
    thresholds = {check.name: check.threshold for check in validation.CHECKS}
    values = validation.dipole_checks(p)
    assert values["electric_table_vs_numeric"] > 0.5 > thresholds["electric_table_vs_numeric"]
    for name in ("electric_block_calibration", "electric_dyads_vs_dense_eigenvectors"):
        assert values[name] < 1e-14 < thresholds[name]


# --- the dense rows at powers of two of the ring's energies and lengths -------

DENSE_ROWS = [check.name for check in validation.CHECKS[:16]]


def _dense_rows(params):
    """The spectrum, dipole and topology rows of one report, by name."""
    dense = functools.cache(bf.DenseRing)
    return (validation.spectrum_checks(params, dense) | validation.dipole_checks(params, dense)
            | validation.topology_checks(params, dense))


@settings(max_examples=30, deadline=None)
@given(top=st.floats(-100.0, 100.0), ratio=st.floats(-6.0, 6.0), width=st.floats(-30.0, 30.0))
def test_dense_rows_keep_their_values_at_powers_of_two_of_the_energies_and_lengths(
        top, ratio, width):
    # V and xi divided by 2^k, W times 2^j and the level tolerance divided by 2^k: every
    # product stays in the normal range on both sides (max(V, xi) within 1e+-100 eV, W
    # within 1e+-30 nm), so each relative row keeps its value to a few ulps and each
    # integer row its count; the spectrum row, in eV, is divided by 2^k
    v, xi = sorted((10.0 ** top, 10.0 ** (top - abs(ratio))), reverse=ratio > 0)
    params = RingParams(12, v_inter=v, xi_intra=xi, half_width=10.0 ** width * NM)
    k = math.frexp(max(v, xi))[1] - math.frexp(3.6)[1]
    j = math.frexp(0.077 * NM)[1] - math.frexp(params.half_width)[1]
    scaled = RingParams(12, v_inter=math.ldexp(v, -k), xi_intra=math.ldexp(xi, -k),
                        half_width=math.ldexp(params.half_width, j))
    rows = _dense_rows(params)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bf, "LEVEL_TOL_EV", math.ldexp(bf.LEVEL_TOL_EV, -k))
        at_scale = _dense_rows(scaled)
    at_scale["spectrum_closed_vs_dense_ev"] = math.ldexp(at_scale["spectrum_closed_vs_dense_ev"], k)
    for name in DENSE_ROWS:
        value, scaled_value = rows[name], at_scale[name]
        if isinstance(value, (int, np.integer)):
            assert value == scaled_value, name
        else:
            assert math.isclose(value, scaled_value, rel_tol=4 * sys.float_info.epsilon), (
                name, value, scaled_value)


# --- every dense row at configs drawn over the float range ----------------------

_magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_configs = st.fixed_dictionaries(
    {"v_inter_ev": _magnitudes, "xi_intra_ev": _magnitudes, "half_width_nm": _magnitudes},
    optional={"radius_nm": _magnitudes})
# V / xi beyond the float range: in units of xi, V is 0
_UNSCALABLE = {"v_inter_ev": 5.46e-203, "xi_intra_ev": 1.07e224, "half_width_nm": 3.31e-45,
               "radius_nm": 6.71e-289, "gamma_inv_ns": 1.63e-139}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(_configs)
@example({"xi_intra_ev": 7.33e242, "radius_nm": 1.77e-286})   # a bare NaN, as given
@example({"half_width_nm": 1e-142, "radius_nm": 1e30})   # a subnormal shared-transition unit
@example(_UNSCALABLE)
def test_every_dense_row_is_finite_or_a_reason(config):
    try:
        params = cli.parse_config(json.dumps(config)).ring
    except cli.ConfigError:
        assume(False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = validation_report(params)["checks"][:len(validation.DENSE_CHECKS)]
    notes = {row["note"] for row in rows if row["threshold"] is None}
    # a reason row reads NaN; V / xi beyond the float range is one reason on every row
    assert notes <= {validation.UNDERFLOW, validation.HOPPING_RATIO}
    assert validation.HOPPING_RATIO not in notes or all(
        row["note"] == validation.HOPPING_RATIO for row in rows)
    for row in rows:
        assert math.isfinite(row["value"]) == (row["threshold"] is not None), row


@pytest.mark.parametrize("config,passing", [
    ({"xi_intra_ev": 7.33e242, "radius_nm": 1.77e-286}, ["perfect_ring_commutator"]),
    ({"half_width_nm": 1e-142, "radius_nm": 1e30},
     ["annulene_shared_transitions", "mobius_shared_transition"]),
])
def test_dense_rows_that_left_the_float_range_as_given_pass(config, passing):
    report = validation_report(cli.parse_config(json.dumps(config)).ring)
    rows = {row["name"]: row for row in report["checks"]}
    assert all(rows[name]["passed"] for name in passing), [rows[name] for name in passing]


def test_hoppings_beyond_the_float_range_give_one_reason_on_every_dense_row():
    rows = validation_report(cli.parse_config(json.dumps(_UNSCALABLE)).ring)["checks"]
    assert [row["note"] for row in rows[:len(validation.DENSE_CHECKS)]] == [
        validation.HOPPING_RATIO] * len(validation.DENSE_CHECKS)
    assert all(row["note"] != validation.HOPPING_RATIO
               for row in rows[len(validation.DENSE_CHECKS):])
