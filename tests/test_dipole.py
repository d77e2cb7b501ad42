import itertools

import numpy as np
import pytest

from mobius_optics import bruteforce as bf
from mobius_optics import dipole as dp
from mobius_optics.constants import E_CHARGE, EV, HBAR
from mobius_optics.ring import Band, EigenLabel, RingParams, Topology, all_labels

P12 = RingParams(12)
UP, DOWN = Band.UP, Band.DOWN
LABELS12 = all_labels(12)
EW = E_CHARGE * P12.half_width
M_SCALE = E_CHARGE * P12.xi_intra * EV * P12.radius * P12.half_width / HBAR


def test_electric_band_flip_same_momentum_component_ratios():
    vec = dp.electric_element(P12, EigenLabel(0, DOWN), EigenLabel(0, UP)).vector
    mags = np.abs(vec)
    assert mags[0] == pytest.approx(EW / 4, rel=1e-12)
    assert mags[1] == pytest.approx(EW / 4, rel=1e-12)
    assert mags[2] == pytest.approx(EW / 2, rel=1e-12)
    # cross-check against the dense position-operator construction:
    # vector = <to| d |from> = table[to_index, from_index]
    num = bf.numeric_electric_elements(P12)
    np.testing.assert_allclose(num[12, 0], vec, atol=1e-12 * EW)


def test_momentum_transfer_three_is_forbidden():
    vec = dp.electric_element(P12, EigenLabel(0, DOWN), EigenLabel(3, UP)).vector
    assert np.abs(vec).max() == 0.0


def test_intra_band_hop_carries_radius_term_without_z():
    vec = dp.electric_element(P12, EigenLabel(0, DOWN), EigenLabel(1, DOWN)).vector
    assert abs(vec[0]) == pytest.approx(E_CHARGE * P12.radius / 2, rel=1e-12)
    assert abs(vec[1]) == pytest.approx(E_CHARGE * P12.radius / 2, rel=1e-12)
    assert vec[2] == 0.0


def test_magnetic_zero_slot_in_double_momentum_block():
    # the up -> down entry of the dl = +2 block vanishes identically
    vec = dp.magnetic_element(P12, EigenLabel(0, UP), EigenLabel(2, DOWN)).vector
    assert np.abs(vec).max() < 1e-14 * M_SCALE
    # while the down -> up partner is finite
    vec2 = dp.magnetic_element(P12, EigenLabel(0, DOWN), EigenLabel(2, UP)).vector
    assert np.abs(vec2).max() > 1e-3 * M_SCALE


def test_magnetic_intra_band_diagonal_proportional_to_sin_k():
    for l in range(12):
        lab = EigenLabel(l, DOWN)
        vec = dp.magnetic_element(P12, lab, lab).vector
        k = l * P12.delta
        assert abs(vec[0]) < 1e-16 * M_SCALE
        if abs(np.sin(k)) < 1e-12:
            assert np.abs(vec).max() < 1e-12 * M_SCALE
        else:
            ratio_y = vec[1] / np.sin(k)
            ratio_z = vec[2] / np.sin(k)
            assert abs(ratio_y.imag) < 1e-12 * M_SCALE
            assert abs(ratio_z.imag) < 1e-12 * M_SCALE


@pytest.mark.parametrize("kind", ["electric", "magnetic"])
def test_hermiticity_over_all_label_pairs(kind):
    fn = dp.electric_element if kind == "electric" else dp.magnetic_element
    scale = EW if kind == "electric" else M_SCALE
    for la, lb in itertools.product(LABELS12, LABELS12):
        fwd = fn(P12, la, lb).vector
        back = fn(P12, lb, la).vector
        assert np.abs(fwd - back.conj()).max() < 1e-12 * scale


@pytest.mark.parametrize("n", [4, 6, 12, 24])
@pytest.mark.parametrize("kind", ["electric", "magnetic"])
def test_tables_match_dense_numeric_construction(n, kind):
    p = RingParams(n)
    if kind == "electric":
        ana = dp.electric_table(p)
        num = bf.numeric_electric_elements(p)
    else:
        ana = dp.magnetic_table(p)
        num = bf.numeric_magnetic_elements(p)
    assert np.abs(ana - num).max() / np.abs(num).max() < 1e-9


def test_electric_selection_matches_nonzero_components_exhaustively():
    for la, lb in itertools.product(LABELS12, LABELS12):
        vec = dp.electric_element(P12, la, lb).vector
        actual = frozenset(
            c for c, comp in zip("xyz", vec) if abs(comp) > 1e-12 * EW)
        assert dp.electric_selection(12, la, lb) == actual, (la, lb)


def test_magnetic_selection_matches_nonzero_components_interband():
    for la, lb in itertools.product(LABELS12, LABELS12):
        if la.band is lb.band:
            assert dp.magnetic_selection(12, la, lb) == frozenset()
            continue
        vec = dp.magnetic_element(P12, la, lb).vector
        actual = frozenset(
            c for c, comp in zip("xyz", vec) if abs(comp) > 1e-12 * M_SCALE)
        assert dp.magnetic_selection(12, la, lb) == actual, (la, lb)


def test_selection_rule_examples():
    assert dp.electric_selection(12, EigenLabel(0, DOWN), EigenLabel(0, UP)) == {"x", "y", "z"}
    assert dp.electric_selection(12, EigenLabel(0, DOWN), EigenLabel(3, UP)) == frozenset()
    assert dp.electric_selection(12, EigenLabel(0, DOWN), EigenLabel(2, UP)) == {"x", "y"}
    assert dp.electric_selection(12, EigenLabel(0, DOWN), EigenLabel(1, UP)) == {"x", "y", "z"}
    assert dp.magnetic_selection(12, EigenLabel(3, DOWN), EigenLabel(4, UP)) == {"x", "y", "z"}
    assert dp.magnetic_selection(12, EigenLabel(3, UP), EigenLabel(4, DOWN)) == {"x", "y"}
    assert dp.magnetic_selection(12, EigenLabel(3, UP), EigenLabel(5, DOWN)) == frozenset()


def _branch_electric_selection(n, from_label, to_label):
    """The electric rule as a per-dl branch ladder, kept as an independent oracle."""
    allowed = set()
    dl_mod = (to_label.momentum_index - from_label.momentum_index) % n
    fb, tb = from_label.band, to_label.band
    for dl in (0, 1, -1, 2, -2):
        if dl_mod != dl % n:
            continue
        if dl == 0:
            if fb is not tb:
                allowed |= {"x", "y", "z"}
        elif dl in (1, -1):
            allowed |= {"x", "y"}
            if (dl == 1 and fb is DOWN and tb is UP) or (dl == -1 and fb is UP and tb is DOWN):
                allowed |= {"z"}
        elif dl == 2 and fb is DOWN and tb is UP:
            allowed |= {"x", "y"}
        elif dl == -2 and fb is UP and tb is DOWN:
            allowed |= {"x", "y"}
    return frozenset(allowed)


def _branch_magnetic_selection(n, from_label, to_label):
    """The inter-band magnetic rule as a per-dl branch ladder."""
    if from_label.band is to_label.band:
        return frozenset()
    allowed = set()
    dl_mod = (to_label.momentum_index - from_label.momentum_index) % n
    down_up = from_label.band is DOWN
    for dl in (0, 1, -1, 2, -2):
        if dl_mod != dl % n:
            continue
        if dl == 0:
            allowed |= {"x", "y", "z"}
        elif dl == 1:
            allowed |= {"x", "y", "z"} if down_up else {"x", "y"}
        elif dl == -1:
            allowed |= {"x", "y"} if down_up else {"x", "y", "z"}
        elif dl == 2 and down_up:
            allowed |= {"x", "y"}
        elif dl == -2 and not down_up:
            allowed |= {"x", "y"}
    return frozenset(allowed)


@pytest.mark.parametrize("kind", ["electric", "magnetic"])
def test_selection_rules_match_the_branch_ladder_for_every_pair(kind):
    # every label pair at N = 3..40, aliased small rings included
    rule, oracle = ((dp.electric_selection, _branch_electric_selection) if kind == "electric"
                    else (dp.magnetic_selection, _branch_magnetic_selection))
    for n in range(3, 41):
        labels = all_labels(n)
        for la, lb in itertools.product(labels, labels):
            assert rule(n, la, lb) == oracle(n, la, lb), (n, la, lb)


def test_sparsity_outside_allowed_blocks():
    d_num = bf.numeric_electric_elements(P12)
    m_num = bf.numeric_magnetic_elements(P12)
    for a, la in enumerate(LABELS12):
        for b, lb in enumerate(LABELS12):
            dl = (lb.momentum_index - la.momentum_index) % 12
            if dl > 6:
                dl -= 12
            if abs(dl) > 2:
                assert np.abs(d_num[a, b]).max() < 1e-12 * EW
                assert np.abs(m_num[a, b]).max() < 1e-12 * M_SCALE


def test_shared_transition_enables_negative_refraction():
    # the band-flip line at the same momentum couples both ways
    d = dp.electric_element(P12, EigenLabel(0, DOWN), EigenLabel(0, UP)).vector
    m = dp.magnetic_element(P12, EigenLabel(0, DOWN), EigenLabel(0, UP)).vector
    assert np.abs(d).max() > 0.1 * EW
    assert np.abs(m).max() > 1e-3 * M_SCALE


def test_small_ring_alias_blocks_still_match_numerics():
    # N = 4: dl = +2 and -2 address the same pair and the blocks add;
    # N = 3: +/-2 alias with -/+1
    for n in (3, 4):
        p = RingParams(n)
        ana = dp.magnetic_table(p)
        num = bf.numeric_magnetic_elements(p)
        assert np.abs(ana - num).max() / np.abs(num).max() < 1e-12


def test_non_mobius_topology_rejected():
    ring = RingParams(6, topology=Topology.DOUBLE_RING_PERIODIC)
    with pytest.raises(ValueError):
        dp.electric_element(ring, EigenLabel(0, DOWN), EigenLabel(0, UP))


@pytest.mark.parametrize("n", (3, 4, 5, 12))
@pytest.mark.parametrize("kind", ["electric", "magnetic"])
def test_tables_equal_elements_bit_for_bit(n, kind):
    # table[to, from] = <to| O |from> = element(from, to).vector, aliased
    # small rings included
    p = RingParams(n)
    table_fn, element_fn = ((dp.electric_table, dp.electric_element) if kind == "electric"
                            else (dp.magnetic_table, dp.magnetic_element))
    labels = all_labels(n)
    elements = np.array([[element_fn(p, lb, la).vector for lb in labels] for la in labels])
    table = table_fn(p)
    assert table.dtype == elements.dtype == complex
    assert np.array_equal(table.view(np.uint64), elements.view(np.uint64))
