"""The spectrum and eigenstates as arrays, against the per-label closed forms.

The reference is a test-local copy of the per-label code that the arrays
replace: one band energy, transition frequency or eigenstate evaluated
per (l, band) label, down band first, and the ground row of the Kubo sums
put together band by band.  Every comparison is bit for bit.
"""

import io
import json
import math

import numpy as np
import pytest

from mobius_optics import cli
from mobius_optics import dipole as dp
from mobius_optics import response as rs
from mobius_optics import ring
from mobius_optics.constants import EV, HBAR
from mobius_optics.dipole import DipoleKind
from mobius_optics.ring import Band, RingParams
from mobius_optics.validation import validation_report

SIZES = range(3, 41)
GROUND = (0, Band.DOWN)   # labels are (l, band) pairs


def _params(n):
    v, xi = np.random.default_rng(n).uniform(0.05, 10.0, 2)
    return RingParams(n, v_inter=float(v), xi_intra=float(xi))


def _labels(n):
    return [(l, Band.DOWN) for l in range(n)] + [(l, Band.UP) for l in range(n)]


def _energy(params, label):
    l, band = label
    k = (l % params.n_per_ring) * params.delta
    if band is Band.UP:
        return params.v_inter - 2.0 * params.xi_intra * math.cos(k - params.delta / 2.0)
    return -params.v_inter - 2.0 * params.xi_intra * math.cos(k)


def _frequency(params, label):
    gap_ev = _energy(params, label) - _energy(params, GROUND)
    return gap_ev * EV / HBAR


def _amplitudes(params, label):
    n = params.n_per_ring
    l, band = label[0] % n, label[1]
    j = np.arange(n)
    norm = 1.0 / math.sqrt(2 * n)
    if band is Band.UP:
        kappa = (l - 0.5) * params.delta
        phase = np.exp(-1j * kappa * j) * norm
        return np.concatenate([phase, -phase])
    k = l * params.delta
    phase = np.exp(-1j * k * j) * norm
    return np.concatenate([phase, phase])


def _ground_dyads(config, kind):
    params = config.ring
    n = params.n_per_ring
    src, dst, vec = dp.block_entries(params, kind, [0])   # bras (0, down) and (0, up)
    ground = {(int(a) % n, Band.UP if a >= n else Band.DOWN): v
              for a, b, v in zip(src, dst, vec) if b == 0}   # label 0 is (0, down)
    zero = np.zeros(3, dtype=complex)
    vecs = np.array([ground.get(lab, zero) for lab in _labels(n)[1:]])
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
    # one label at a time, as a scalar and as a one-label array
    params = _params(n)
    for lab in _labels(n):
        l, band = lab
        b = ring.BANDS.index(band)
        reference = _bits(_energy(params, lab))
        assert np.array_equal(_bits(ring.label_energies(params, b, l)), reference)
        one = ring.label_energies(params, np.array([b]), np.array([l]))
        assert one.shape == (1,) and np.array_equal(_bits(one), reference)


@pytest.mark.parametrize("n", (3, 4, 5, 12, 33))
@pytest.mark.parametrize("lossy", (False, True))
def test_full_sums_match_the_per_label_sums(n, lossy, monkeypatch):
    cfg = rs.MediumConfig(_params(n), lossy=lossy)
    assert _bits(rs.resonance_frequency(cfg)) == _bits(_frequency(cfg.ring, (0, Band.UP)))
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
def test_label_axes_follow_the_label_order(n):
    band, ell = ring.label_axes(n)
    assert [(l, ring.BANDS[b]) for b, l in zip(band, ell)] == _labels(n)


def test_no_module_reads_the_spectrum_one_label_at_a_time(tmp_path):
    # every command runs end to end on the label arrays
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
