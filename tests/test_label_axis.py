"""The spectrum and eigenstates as arrays, against the per-label closed forms.

The reference is a test-local copy of the per-label code that the arrays
replace: one band energy, transition frequency or eigenstate evaluated
per label, in ``all_labels`` order, and the ground row of the Kubo sums
put together band by band.  Every comparison is bit for bit.
"""

import io
import json
import math

import numpy as np
import pytest

from mobius_optics import bruteforce as bf
from mobius_optics import cli
from mobius_optics import dipole as dp
from mobius_optics import refraction as rf
from mobius_optics import response as rs
from mobius_optics import ring
from mobius_optics import validation
from mobius_optics.constants import EV, HBAR
from mobius_optics.dipole import DipoleKind
from mobius_optics.ring import Band, EigenLabel, RingParams
from mobius_optics.validation import validation_report

SIZES = range(3, 41)
GROUND = EigenLabel(0, Band.DOWN)


def _params(n):
    v, xi = np.random.default_rng(n).uniform(0.05, 10.0, 2)
    return RingParams(n, v_inter=float(v), xi_intra=float(xi))


def _labels(n):
    return [EigenLabel(l, Band.DOWN) for l in range(n)] + [
        EigenLabel(l, Band.UP) for l in range(n)]


def _energy(params, label):
    k = (label.momentum_index % params.n_per_ring) * params.delta
    if label.band is Band.UP:
        return params.v_inter - 2.0 * params.xi_intra * math.cos(k - params.delta / 2.0)
    return -params.v_inter - 2.0 * params.xi_intra * math.cos(k)


def _frequency(params, label):
    gap_ev = _energy(params, label) - _energy(params, GROUND)
    return gap_ev * EV / HBAR


def _amplitudes(params, label):
    n = params.n_per_ring
    l = label.momentum_index % n
    j = np.arange(n)
    norm = 1.0 / math.sqrt(2 * n)
    if label.band is Band.UP:
        kappa = (l - 0.5) * params.delta
        phase = np.exp(-1j * kappa * j) * norm
        return np.concatenate([phase, -phase])
    k = l * params.delta
    phase = np.exp(-1j * k * j) * norm
    return np.concatenate([phase, phase])


def _ground_dyads(config, kind):
    params = config.ring
    row = dp._rows(params, kind, [0])[0, :, 1]   # bra (0, down); [l, s], bands (up, down)
    vecs = np.concatenate([row[1:, 1], row[:, 0]])
    freqs = [_frequency(params, lab) for lab in _labels(params.n_per_ring)[1:]]
    return np.array(freqs), vecs[:, :, None] * vecs.conj()[:, None, :]


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("n", SIZES)
def test_amplitude_matrix_is_the_column_stack_of_per_label_states(n):
    params = _params(n)
    reference = np.column_stack([_amplitudes(params, lab) for lab in _labels(n)])
    assert np.array_equal(_bits(ring.amplitude_matrix(params)), _bits(reference))


@pytest.mark.parametrize("n", SIZES)
def test_scalar_forms_match_the_per_label_code(n):
    params = _params(n)
    for lab in _labels(n):
        state = ring.eigenstate(params, lab)
        assert state.label == lab
        assert _bits(state.energy) == _bits(_energy(params, lab))
        assert np.array_equal(_bits(state.amplitudes), _bits(_amplitudes(params, lab)))
        assert _bits(ring.band_energy(params, lab)) == _bits(_energy(params, lab))


@pytest.mark.parametrize("n", (3, 4, 5, 12, 33))
@pytest.mark.parametrize("lossy", (False, True))
def test_full_sums_match_the_per_label_sums(n, lossy, monkeypatch):
    cfg = rs.MediumConfig(_params(n), lossy=lossy)
    assert _bits(rs.resonance_frequency(cfg)) == _bits(_frequency(cfg.ring, EigenLabel(0, Band.UP)))
    om = rs.resonance_frequency(cfg) + 50 * cfg.ring.decay_rate

    def tensors():
        return rs.epsilon_from_full_sum(cfg, om), rs.mu_from_full_sum(cfg, om)

    got = tensors()
    monkeypatch.setattr(rs, "_ground_dyads", _ground_dyads)
    for value, reference in zip(got, tensors()):
        assert np.array_equal(_bits(value), _bits(reference))
    monkeypatch.undo()
    for kind in DipoleKind:
        freqs, dyads = rs._ground_dyads(cfg, kind)
        ref_freqs, ref_dyads = _ground_dyads(cfg, kind)
        assert np.array_equal(_bits(freqs), _bits(ref_freqs))
        assert np.array_equal(_bits(dyads), _bits(ref_dyads))


@pytest.mark.parametrize("n", SIZES)
def test_band_energies_are_the_per_label_energies(n):
    params = _params(n)
    reference = np.array([_energy(params, lab) for lab in _labels(n)])
    assert np.array_equal(_bits(ring.band_energies(params)), _bits(reference))


@pytest.mark.parametrize("n", SIZES)
def test_label_axes_follow_all_labels(n):
    band, ell = ring.label_axes(n)
    assert [(ring.BANDS[b], l) for b, l in zip(band, ell)] == [
        (lab.band, lab.momentum_index) for lab in _labels(n)]
    assert ring.all_labels(n) == _labels(n)


def test_no_module_reads_the_spectrum_one_label_at_a_time(tmp_path, monkeypatch):
    def per_label(*args):
        raise AssertionError("read the spectrum from the arrays of ring")

    for module in (cli, dp, rs, rf, bf, validation):
        for name in ("all_labels", "band_energy", "eigenstate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, per_label)
    assert validation_report(RingParams(12))["all_passed"]
    cfg = rs.MediumConfig(RingParams(64))
    om = rs.resonance_frequency(cfg) + 50 * cfg.ring.decay_rate
    assert rs.epsilon_from_full_sum(cfg, om).shape == rs.mu_from_full_sum(cfg, om).shape == (3, 3)
    small = {"theta_count": 4, "omega_count": 64, "surface_samples": 10}
    for command in ("spectrum", "elements", "response", "phase-diagram", "surface",
                    "bandwidth", "validate"):
        path = tmp_path / f"{command}.csv"
        config = cli.parse_config(json.dumps({**small, "output_path": str(path)}))
        assert cli.run_command(command, config, stdout=io.StringIO()) == cli.EXIT_OK
        assert path.stat().st_size > 0
