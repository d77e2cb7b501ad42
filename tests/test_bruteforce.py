import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mobius_optics import bruteforce as bf
from mobius_optics import dipole as dp
from mobius_optics.constants import E_CHARGE, EV, HBAR, NM
from mobius_optics.ring import BANDS, RingParams, Topology, label_axes, positions_array
from mobius_optics.validation import _canonical


def test_mobius_seam_wiring():
    p = RingParams(3)
    h = bf.build_hamiltonian(p)
    xi = p.xi_intra
    # a_2 couples to a_1 within ring A and crosses the seam into b_0
    assert h[2, 1] == pytest.approx(-xi)
    assert h[2, 3] == pytest.approx(-xi)   # b_0 sits at index N + 0 = 3
    assert h[2, 0] == 0.0                  # no direct a_2 - a_0 bond
    # b_2 crosses into a_0
    assert h[5, 0] == pytest.approx(-xi)
    assert np.abs(h - h.T).max() == 0.0


def test_periodic_double_ring_wraps_within_each_ring():
    p = RingParams(3, topology=Topology.DOUBLE_RING_PERIODIC)
    h = bf.build_hamiltonian(p)
    xi = p.xi_intra
    assert h[2, 0] == pytest.approx(-xi)
    assert h[5, 3] == pytest.approx(-xi)
    assert h[2, 3] == 0.0


def test_single_ring_spectrum_is_textbook():
    p = RingParams(8, topology=Topology.SINGLE_RING)
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
    delta = 2 * math.pi / 8
    expected = np.sort([-2 * p.xi_intra * math.cos(l * delta) for l in range(8)])
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_periodic_double_ring_spectrum():
    p = RingParams(6, topology=Topology.DOUBLE_RING_PERIODIC)
    w, _ = bf.numeric_eigensystem(bf.build_hamiltonian(p))
    delta = 2 * math.pi / 6
    expected = np.sort(
        [s * p.v_inter - 2 * p.xi_intra * math.cos(l * delta)
         for l in range(6) for s in (-1, 1)])
    np.testing.assert_allclose(w, expected, atol=1e-12)


def test_eigensystem_contract():
    w, v = bf.numeric_eigensystem(np.eye(4))
    np.testing.assert_allclose(w, np.ones(4))
    p = RingParams(12)
    h = bf.build_hamiltonian(p)
    w, v = bf.numeric_eigensystem(h)
    assert w[0] == pytest.approx(-10.8, abs=1e-10)
    assert np.all(np.diff(w) >= 0)
    assert np.abs(v.conj().T @ v - np.eye(24)).max() < 1e-12
    residual = np.abs(h @ v - v * w).max()
    assert residual < 1e-10 * np.abs(h).max()


def test_eigensystem_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        bf.numeric_eigensystem(bad)


def test_diagonal_electric_elements_are_real():
    table = bf.DenseRing(RingParams(12)).projection("electric")
    diag = np.einsum("aac->ac", table)
    assert np.abs(diag.imag).max() < 1e-12 * np.abs(table).max()


def test_magnetic_definitions_coincide():
    for n in (4, 12):
        ring = bf.DenseRing(RingParams(n))
        comm, bond = ring.operator("commutator"), ring.operator("bond_current")
        assert np.abs(comm - bond).max() / np.abs(comm).max() < 1e-10
    with pytest.raises(ValueError, match="unknown operator"):
        ring.operator("peierls")
    with pytest.raises(ValueError, match="unknown basis"):
        ring.projection("electric", "site")


def test_perfect_ring_does_not_couple_magnetically():
    for n, xi in ((6, 3.6), (10, 1.2)):
        p = RingParams(n, xi_intra=xi, topology=Topology.SINGLE_RING)
        report = bf.perfect_ring_regression(bf.DenseRing(p))
        assert report.commutator_norm < 1e-12
        assert report.max_offdiag_magnetic < 1e-12
        assert report.max_offdiag_electric > 1e-3
    with pytest.raises(ValueError):
        bf.perfect_ring_regression(bf.DenseRing(RingParams(6)))


def test_perfect_ring_magnetic_moment_is_axial():
    p = RingParams(8, topology=Topology.SINGLE_RING)
    m = bf.DenseRing(p).operator("bond_current")
    scale = np.abs(m).max()
    assert np.abs(m[0]).max() < 1e-15 * scale
    assert np.abs(m[1]).max() < 1e-15 * scale
    assert np.abs(m[2]).max() == scale


def test_annulene_has_no_shared_transition():
    p = RingParams(12, topology=Topology.DOUBLE_RING_PERIODIC)
    report = bf.shared_transition_scan(bf.DenseRing(p))
    assert report.n_shared == 0
    # both couplings individually exist, just never at the same frequency
    assert any(t.electric > 1e-3 for t in report.transitions)
    assert any(t.magnetic > 1e-3 for t in report.transitions)


def test_mobius_shares_the_lowest_interband_transition():
    p = RingParams(12)
    report = bf.shared_transition_scan(bf.DenseRing(p))
    assert report.n_shared >= 1
    delta0_ev = 2 * p.v_inter + 2 * p.xi_intra * (1 - math.cos(p.delta / 2))
    shared = [t for t in report.transitions
              if t.electric > 1e-9 and t.magnetic > 1e-9]
    assert any(abs(t.frequency_ev - delta0_ev) < 1e-9 for t in shared)


def test_calibration_identity_and_against_numeric():
    p = RingParams(12)
    ana = dp.electric_table(p)
    identity = bf.calibrate_conventions(ana, ana)
    assert type(identity) is float and identity == 0.0
    ring = bf.DenseRing(p)
    assert bf.calibrate_conventions(ana, ring.projection("electric")) < 1e-9
    assert bf.calibrate_conventions(dp.magnetic_table(p), ring.projection("commutator")) < 1e-9


def _calibration_blocks_by_pairs(analytic, numeric, n):
    """The per-label-pair loop that builds the calibration blocks from masks."""
    labels = [(BANDS[b].value, int(l)) for b, l in zip(*label_axes(n))]
    blocks = {}
    for a, (band_a, l_a) in enumerate(labels):
        for b, (band_b, l_b) in enumerate(labels):
            dl = (l_b - l_a) % n
            if dl > n // 2:
                dl -= n
            if abs(dl) > 2:
                continue
            vals = blocks.setdefault((dl, band_a, band_b), [])
            for c in range(3):
                vals.append((analytic[a, b, c], numeric[a, b, c]))
    return blocks


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7, 12))
def test_calibration_blocks_match_the_loop_over_label_pairs(n):
    rng = np.random.default_rng(n)
    shape = (2 * n, 2 * n, 3)
    ana = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    num = phase * ana + 1e-9 * rng.standard_normal(shape)
    scale = float(np.abs(ana).max())
    worst = 0.0
    for pairs in _calibration_blocks_by_pairs(ana, num, n).values():
        arr_a, arr_n = np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])
        overlap = np.vdot(arr_a, arr_n)
        worst = max(worst, np.abs(overlap / abs(overlap) * arr_a - arr_n).max() / scale)
    assert bf.calibrate_conventions(ana, num) == worst


# --- the array passes against the per-column and per-bond loops, bit for bit --

def _eigensystem_by_columns(h):
    """eigh, then the per-column phase fix that the vectorised pass replaces."""
    w, v = np.linalg.eigh(h)
    for col in range(v.shape[1]):
        vec = v[:, col]
        idx = np.argmax(np.abs(vec) > 1e-8 * np.abs(vec).max())
        piv = vec[idx]
        if np.abs(piv) > 0:
            v[:, col] = vec * (np.conj(piv) / np.abs(piv))
    return w, v


def _bond_list(params):
    """Ordered (i, j, beta) bonds, one Python tuple each."""
    n = params.n_per_ring
    xi, v = params.xi_intra, params.v_inter
    if params.topology is Topology.SINGLE_RING:
        return [(j, (j + 1) % n, xi) for j in range(n)]
    bonds = []
    for j in range(n - 1):
        bonds += [(j, j + 1, xi), (n + j, n + j + 1, xi)]
    if params.topology is Topology.MOBIUS:
        bonds += [(n - 1, n, xi), (2 * n - 1, 0, xi)]
    else:
        bonds += [(n - 1, 0, xi), (2 * n - 1, n, xi)]
    return bonds + [(j, n + j, v) for j in range(n)]


def _bond_current_by_bonds(params):
    """The bond-current moment with one cross product and six stores per bond."""
    pos = positions_array(params)
    m = np.zeros((3, len(pos), len(pos)), dtype=complex)
    for i, j, beta in _bond_list(params):
        area = 0.5 * np.cross(pos[i], pos[j])
        amp = 1j * E_CHARGE * (beta * EV) / HBAR
        for c in range(3):
            m[c, i, j] += amp * area[c]
            m[c, j, i] += np.conj(amp * area[c])
    return m


def _hermitian(rng, n, kind):
    if kind == "real":
        a = rng.standard_normal((n, n))
        return a + a.T
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "complex":
        return a + a.conj().T
    # degenerate: eigenvalues in triples, eigenvectors from a random unitary
    q, _ = np.linalg.qr(a)
    h = (q * np.repeat(rng.standard_normal(n), 3)[:n]) @ q.conj().T
    return 0.5 * (h + h.conj().T)


@pytest.mark.parametrize("kind", ("real", "complex", "degenerate"))
def test_eigensystem_phase_fix_matches_the_column_loop(kind):
    rng = np.random.default_rng(len(kind))
    for _ in range(40):
        h = _hermitian(rng, int(rng.integers(1, 30)), kind)
        w, v = bf.numeric_eigensystem(h)
        w_ref, v_ref = _eigensystem_by_columns(h)
        assert w.tobytes() == w_ref.tobytes()
        assert v.dtype == v_ref.dtype and v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("n", (3, 4, 12))
@pytest.mark.parametrize("half_width_nm", (0.077, 3.0, 1e87))
def test_bond_arrays_match_the_loop_over_bonds(n, topology, half_width_nm):
    p = RingParams(n, topology=topology, half_width=half_width_nm * NM)
    ref = _bond_current_by_bonds(p)
    assert bf.DenseRing(p).operator("bond_current").tobytes() == ref.tobytes()
    h = np.zeros(ref.shape[1:])
    for i, j, beta in _bond_list(p):
        h[i, j] = h[j, i] = -beta
    assert np.array_equal(bf.build_hamiltonian(p), h)


def test_dense_ring_builds_each_object_once_and_shares_it_read_only(monkeypatch):
    calls = []
    for name in ("build_hamiltonian", "numeric_eigensystem", "_electric_dipole_matrix",
                 "_magnetic_dipole_matrix", "_sandwich"):
        fn = getattr(bf, name)
        monkeypatch.setattr(bf, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
    ring = bf.DenseRing(RingParams(6))
    for _ in range(2):
        bf.shared_transition_scan(ring)
        bf.eigenspace_projector_residual(ring)
        for name in bf.OPERATORS:
            for basis in bf.BASES:
                ring.projection(name, basis)
    assert sorted(calls) == ["_electric_dipole_matrix", "_magnetic_dipole_matrix",
                             "_magnetic_dipole_matrix", *["_sandwich"] * 6,
                             "build_hamiltonian", "numeric_eigensystem"]
    tables = [ring.operator(name) for name in bf.OPERATORS] + [
        ring.projection(name, basis) for name in bf.OPERATORS for basis in bf.BASES]
    for array in (ring.hamiltonian, *ring.eigensystem, ring.amplitudes, *tables):
        assert not array.flags.writeable
    # each accessor hands out the one array it built
    assert all(ring.operator(name) is ring.operator(name) for name in bf.OPERATORS)
    assert ring.projection("electric") is ring.projection("electric", "momentum")
    # a fresh context for the same ring gives the same bits
    fresh = bf.DenseRing(RingParams(6))
    assert fresh.eigensystem[1].tobytes() == ring.eigensystem[1].tobytes()
    assert ([fresh.projection(name, basis).tobytes() for name in bf.OPERATORS
             for basis in bf.BASES] == [table.tobytes() for table in tables[3:]])
    assert bf.shared_transition_scan(fresh) == bf.shared_transition_scan(ring)


def test_oracle_imports_only_constants_and_ring_from_the_package():
    # the oracle stays independent of dipole and the closed forms it checks
    path = Path(bf.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("mobius_optics"):
                continue
            module = module.removeprefix("mobius_optics").lstrip(".")
            # "from . import x" names modules, "from .x import y" names x
            package.update([module] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            package.update(alias.name.removeprefix("mobius_optics.") for alias in node.names
                           if alias.name.startswith("mobius_optics"))
    assert package == {"constants", "ring"}


# --- the block slices of calibrate_conventions against the mask loop, bit for bit ---

def _calibrate_by_masks(analytic, numeric):
    """The per-block mask loop of the calibration: its largest block residual.

    Each block (dl, band pair) gets the unit phase of its overlap, and its
    residual is relative to the largest analytic element; NaN is kept.
    """
    n = analytic.shape[0] // 2
    atol_scale = float(np.abs(analytic).max())
    band, ell = label_axes(n)
    dl = (ell[None, :] - ell[:, None]) % n
    dl = np.where(dl > n // 2, dl - n, dl)
    worst = 0.0
    for d in np.unique(dl[np.abs(dl) <= 2]):
        for ba, bb in np.ndindex(2, 2):
            mask = (dl == d) & (band[:, None] == ba) & (band[None, :] == bb)
            arr_a, arr_n = analytic[mask].ravel(), numeric[mask].ravel()
            if np.abs(arr_a).max() < atol_scale * 1e-14:
                phase = 1.0 + 0.0j
            else:
                overlap = np.vdot(arr_a, arr_n)
                phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0 + 0.0j
            worst = np.maximum(worst, np.abs(phase * arr_a - arr_n).max() / atol_scale)
    return worst


def _bits(x):
    """Bytes of a float or complex value, every NaN made one NaN."""
    a = np.array(x, dtype=complex if np.iscomplexobj(x) else float)
    parts = a.reshape(-1).view(float)
    parts[np.isnan(parts)] = np.nan
    return a.tobytes()


# half widths (nm) as in the dyad differential test of test_validation.py
ORACLE_RINGS = [{"half_width": hw * NM} for hw in (1e-3, 0.077, 1e-60, 1e87, 1e90)] + [
    {"xi_intra": 1e-6}, {"v_inter": 1e6}, {"v_inter": 1e-12, "xi_intra": 1e-12}]


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=str)
@pytest.mark.parametrize("n", (3, 4, 5, 6, 12, 24))
def test_calibration_slices_match_the_block_masks(n, ring):
    # each ring as validate runs it, at its canonical scale
    p, unit = _canonical(RingParams(n, **ring), n)
    dense = bf.DenseRing(p, unit)
    for ana_fn, name in ((dp.electric_table, "electric"), (dp.magnetic_table, "commutator")):
        ana, num = ana_fn(p), dense.projection(name)
        assert _bits(bf.calibrate_conventions(ana, num)) == _bits(_calibrate_by_masks(ana, num))


def test_calibration_of_a_corrupted_or_subnormal_table_matches_the_block_masks():
    # one closed-form entry doubled, and subnormal magnetic elements that keep a few
    # bits: either way the fit misses by far more than validate's 1e-9
    p = RingParams(12)
    ana = dp.electric_table(p).copy()
    ana[0, 12] *= 2.0
    cases = [(ana, bf.DenseRing(p).projection("electric"))]
    p = RingParams(12, half_width=1e-142 * NM)
    cases.append((dp.magnetic_table(p), bf.DenseRing(p).projection("commutator")))
    for ana, num in cases:
        residual = bf.calibrate_conventions(ana, num)
        assert _bits(residual) == _bits(_calibrate_by_masks(ana, num)) and residual > 1e-6
