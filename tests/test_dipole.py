import hashlib
import itertools

import numpy as np
import pytest

from mobius_optics import bruteforce as bf
from mobius_optics import dipole as dp
from mobius_optics import response as rs
from mobius_optics.constants import E_CHARGE, EV, HBAR
from mobius_optics.ring import BANDS, Band, RingParams, Topology, label_axes

P12 = RingParams(12)
UP, DOWN = Band.UP, Band.DOWN
E12, M12 = dp.electric_table(P12), dp.magnetic_table(P12)   # [to, from] = <to| O |from>
EW = E_CHARGE * P12.half_width
M_SCALE = E_CHARGE * P12.xi_intra * EV * P12.radius * P12.half_width / HBAR
ELECTRIC, MAGNETIC = (dp.KINDS.index(kind) for kind in (dp.DipoleKind.ELECTRIC,
                                                         dp.DipoleKind.MAGNETIC))


def _at(l, band, n=12):
    """Label-axis index of (l, band)."""
    return BANDS.index(band) * n + l % n


def _rule(kind, n, from_band, from_l, to_band, to_l):
    """Allowed components of the transition (from_l, from_band) -> (to_l, to_band)."""
    mask = dp.selection_table(n)[kind, BANDS.index(from_band), BANDS.index(to_band),
                                 (to_l - from_l) % n]
    return frozenset(str(dp.COMPONENTS[mask]))


def _rule_masks(kind, n):
    """(2N, 2N) ``selection_table`` masks; [a, b] is the transition from label b to a."""
    band, ell = label_axes(n)
    return dp.selection_table(n)[kind, band[None, :], band[:, None], (ell[:, None] - ell) % n]


def _nonzero_masks(table, tol):
    """(2N, 2N) masks of the components of each table entry above tol."""
    return (np.abs(table) > tol) @ dp.COMPONENT_BITS


def test_electric_band_flip_same_momentum_component_ratios():
    vec = E12[_at(0, UP), _at(0, DOWN)]
    mags = np.abs(vec)
    assert mags[0] == pytest.approx(EW / 4, rel=1e-12)
    assert mags[1] == pytest.approx(EW / 4, rel=1e-12)
    assert mags[2] == pytest.approx(EW / 2, rel=1e-12)
    # cross-check against the dense position-operator construction:
    # vector = <to| d |from> = table[to_index, from_index]
    num = bf.DenseRing(P12).projection("electric")
    np.testing.assert_allclose(num[12, 0], vec, atol=1e-12 * EW)


def test_momentum_transfer_three_is_forbidden():
    vec = E12[_at(3, UP), _at(0, DOWN)]
    assert np.abs(vec).max() == 0.0


def test_intra_band_hop_carries_radius_term_without_z():
    vec = E12[_at(1, DOWN), _at(0, DOWN)]
    assert abs(vec[0]) == pytest.approx(E_CHARGE * P12.radius / 2, rel=1e-12)
    assert abs(vec[1]) == pytest.approx(E_CHARGE * P12.radius / 2, rel=1e-12)
    assert vec[2] == 0.0


def test_magnetic_zero_slot_in_double_momentum_block():
    # the up -> down entry of the dl = +2 block vanishes identically
    vec = M12[_at(2, DOWN), _at(0, UP)]
    assert np.abs(vec).max() < 1e-14 * M_SCALE
    # while the down -> up partner is finite
    vec2 = M12[_at(2, UP), _at(0, DOWN)]
    assert np.abs(vec2).max() > 1e-3 * M_SCALE


def test_magnetic_intra_band_diagonal_proportional_to_sin_k():
    for l in range(12):
        vec = M12[_at(l, DOWN), _at(l, DOWN)]
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
    table, scale = (E12, EW) if kind == "electric" else (M12, M_SCALE)
    for a, b in itertools.product(range(24), range(24)):
        assert np.abs(table[a, b] - table[b, a].conj()).max() < 1e-12 * scale


@pytest.mark.parametrize("n", [4, 6, 12, 24])
@pytest.mark.parametrize("kind", ["electric", "magnetic"])
def test_tables_match_dense_numeric_construction(n, kind):
    p = RingParams(n)
    if kind == "electric":
        ana = dp.electric_table(p)
        num = bf.DenseRing(p).projection("electric")
    else:
        ana = dp.magnetic_table(p)
        num = bf.DenseRing(p).projection("commutator")
    assert np.abs(ana - num).max() / np.abs(num).max() < 1e-9


def test_electric_selection_matches_nonzero_components_exhaustively():
    assert np.array_equal(_rule_masks(ELECTRIC, 12), _nonzero_masks(E12, 1e-12 * EW))


def test_magnetic_selection_matches_nonzero_components_interband():
    band = label_axes(12)[0]
    interband = band[:, None] != band
    masks = _rule_masks(MAGNETIC, 12)
    assert not masks[~interband].any()
    assert np.array_equal(masks[interband], _nonzero_masks(M12, 1e-12 * M_SCALE)[interband])


def test_selection_rule_examples():
    assert _rule(ELECTRIC, 12, DOWN, 0, UP, 0) == {"x", "y", "z"}
    assert _rule(ELECTRIC, 12, DOWN, 0, UP, 3) == frozenset()
    assert _rule(ELECTRIC, 12, DOWN, 0, UP, 2) == {"x", "y"}
    assert _rule(ELECTRIC, 12, DOWN, 0, UP, 1) == {"x", "y", "z"}
    assert _rule(MAGNETIC, 12, DOWN, 3, UP, 4) == {"x", "y", "z"}
    assert _rule(MAGNETIC, 12, UP, 3, DOWN, 4) == {"x", "y"}
    assert _rule(MAGNETIC, 12, UP, 3, DOWN, 5) == frozenset()


def _branch_electric_selection(n, fb, from_l, tb, to_l):
    """The electric rule as a per-dl branch ladder, kept as an independent oracle."""
    allowed = set()
    dl_mod = (to_l - from_l) % n
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


def _branch_magnetic_selection(n, fb, from_l, tb, to_l):
    """The inter-band magnetic rule as a per-dl branch ladder."""
    if fb is tb:
        return frozenset()
    allowed = set()
    dl_mod = (to_l - from_l) % n
    down_up = fb is DOWN
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
    axis, oracle = ((ELECTRIC, _branch_electric_selection) if kind == "electric"
                    else (MAGNETIC, _branch_magnetic_selection))
    for n in range(3, 41):
        labels = [(BANDS[b], int(l)) for b, l in zip(*label_axes(n))]
        for (fb, fl), (tb, tl) in itertools.product(labels, labels):
            assert _rule(axis, n, fb, fl, tb, tl) == oracle(n, fb, fl, tb, tl), (n, fb, fl, tb, tl)


def test_sparsity_outside_allowed_blocks():
    ring = bf.DenseRing(P12)
    d_num, m_num = ring.projection("electric"), ring.projection("commutator")
    ell = label_axes(12)[1]
    for a, b in itertools.product(range(24), range(24)):
        dl = (ell[b] - ell[a]) % 12
        if dl > 6:
            dl -= 12
        if abs(dl) > 2:
            assert np.abs(d_num[a, b]).max() < 1e-12 * EW
            assert np.abs(m_num[a, b]).max() < 1e-12 * M_SCALE


def test_shared_transition_enables_negative_refraction():
    # the band-flip line at the same momentum couples both ways
    d = E12[_at(0, UP), _at(0, DOWN)]
    m = M12[_at(0, UP), _at(0, DOWN)]
    assert np.abs(d).max() > 0.1 * EW
    assert np.abs(m).max() > 1e-3 * M_SCALE


def test_small_ring_alias_blocks_still_match_numerics():
    # N = 4: dl = +2 and -2 address the same pair and the blocks add;
    # N = 3: +/-2 alias with -/+1
    for n in (3, 4):
        p = RingParams(n)
        ana = dp.magnetic_table(p)
        num = bf.DenseRing(p).projection("commutator")
        assert np.abs(ana - num).max() / np.abs(num).max() < 1e-12


def test_non_mobius_topology_rejected():
    ring = RingParams(6, topology=Topology.DOUBLE_RING_PERIODIC)
    for table in (dp.electric_table, dp.magnetic_table):
        with pytest.raises(ValueError):
            table(ring)


def _element(params, kind, fb, from_l, tb, to_l):
    """One <to| O |from>, read from the entries of its own bra as the per-label code read it."""
    n = params.n_per_ring
    src, dst, vec = dp.block_entries(params, kind, [to_l % n])
    at = (src == _at(from_l, fb, n)) & (dst == _at(to_l, tb, n))
    return vec[at][0] if at.any() else np.zeros(3, dtype=complex)


@pytest.mark.parametrize("n", (3, 4, 5, 12))
@pytest.mark.parametrize("kind", ["electric", "magnetic"])
def test_tables_equal_elements_bit_for_bit(n, kind):
    # table[to, from] = <to| O |from>, each entry evaluated on its own, aliased
    # small rings included
    p = RingParams(n)
    kind = dp.DipoleKind(kind)
    table_fn = dp.electric_table if kind is dp.DipoleKind.ELECTRIC else dp.magnetic_table
    labels = [(BANDS[b], int(l)) for b, l in zip(*label_axes(n))]
    elements = np.array([[_element(p, kind, *lb, *la) for lb in labels] for la in labels])
    table = table_fn(p)
    assert table.dtype == elements.dtype == complex
    assert np.array_equal(table.view(np.uint64), elements.view(np.uint64))


@pytest.mark.parametrize("n", (3, 4, 5, 12))
@pytest.mark.parametrize("kind", ["electric", "magnetic"])
def test_block_entries_are_the_table_bit_for_bit(n, kind):
    # each label pair once; every table entry they leave out is exactly 0
    p = RingParams(n, v_inter=2.1, xi_intra=4.7, radius=0.5e-9)
    kind = dp.DipoleKind(kind)
    table = dp.electric_table(p) if kind is dp.DipoleKind.ELECTRIC else dp.magnetic_table(p)
    src, dst, vec = dp.block_entries(p, kind, np.arange(n))
    assert np.array_equal((src, dst), dp.block_entries(p, dp.KINDS[0], np.arange(n))[:2])
    n_offsets = len({dl % n for dl in (0, 1, -1, 2, -2)})
    assert len(set(zip(src.tolist(), dst.tolist()))) == len(src) == 4 * n * n_offsets
    assert np.array_equal(table[dst, src].view(np.uint64), vec.view(np.uint64))
    rest = table.copy()
    rest[dst, src] = 0.0
    assert not rest.any()


# --- the tables and the ground row of the Kubo sums, pinned bit for bit ------
# SHA-256 of the array bytes; regenerate only when a change to the dipole values
# is intended, and say why in the change log

TABLE_DIGESTS = {   # N: (electric_table, magnetic_table) at the default molecule
    3: ("8eef1e80ad80ba48e04c3d61103ec63501d710f2576d1a2dc09eca5e9c308102",
        "feb045214405d459ae21889a1982c3d19cb49ea8911b26660b947d9c101538b1"),
    4: ("5e50ba5f492a41a17cb16f5cb1968b97ec9e056183b16e02105cc1fc2b71fb5f",
        "75261611d7cd65dc6462926469dee02b82c2aebdb0555be7dbec3396e217dc0f"),
    5: ("28c96a4210b0e1816b4a432bd97f34059d45ee826dd7916b27a8d1d71fe15b12",
        "b9ae634d0e65ba408cb2e1991e12264712e07351f1e4ce5bb920adeb20618e04"),
    12: ("7b7d357791dcdfbc473d1382ba332f72519a1a950103ae520d248e88a895948e",
         "c12f080aa7e4d52cfbb0995dd811797b56ed535b9c47a9c4770b0dcc692cd410"),
    24: ("faae5baa265ed655617ed45e6c1137790a0f0bb7362a514689252fa68de72480",
         "3d75bb4f2bdc446c3e13791748b3e297c8af559ee1cd99150c78c0f654bf5b90"),
    64: ("2faca18b980d70d3244d96cead9870368610440cdfa7cef8a5ca544853ee5ee8",
         "6f504116e554aaf90d815bc816edd9b30212544205c1ce90916d85fb3e7ae525"),
}
GROUND_DYAD_DIGESTS = {   # N: (electric, magnetic) ``_ground_dyads``, frequencies then dyads
    3: ("1c68aef698327e39f6d2aaf2d5a019b8dbba6929ee4a811e38f6597c1d93250d",
        "6995f5ba7aef1556c68ab61d99ebed6c22137217a4e9cefe9b96d74fe6701c6a"),
    4: ("e6a405ebc975c25eb6094da411773afdc9e6a0884ebceb1138e0b8aa79650df5",
        "3b56e9ee123ba7e89227b74de171dd0b6db6a0c40cd5339a7633a388c6bf7ccb"),
    5: ("e9b7498e3fd5a03ebd9fdd1213350898abd02cfef34c4d9188f4985b41b2eac3",
        "ccf5cff328d0af208e464079ea80cd4155ac5251f1d4bbd1fdb61c46a1c8dcb7"),
    12: ("47e10b7e3c69811e91da4ac99a4bad866f417376634a1225c9625227abebb5fa",
         "5ffef0ee6570f1cb7ae1ae6fb858e3aaeb96c7fa3af73047f938256223c06830"),
    33: ("4e12e6680231814bb6894352e343b7fc165212c1b6de3bef58a40a927517abb9",
         "1757567049e31fbfc1239cc978536eed20952344d64cca0a6f764733274194e3"),
    128: ("4349dfa46a023281b1e7581edcefe37068e66c4bccf5208948bc3fedcdf1a5ca",
          "50835469f838188e33803674dc26fea5a025ffa9a16af53c26c0e6f2cae75d11"),
}


def _digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("n", sorted(TABLE_DIGESTS))
def test_tables_keep_their_digests(n):
    p = RingParams(n)
    assert (_digest(dp.electric_table(p)), _digest(dp.magnetic_table(p))) == TABLE_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(GROUND_DYAD_DIGESTS))
def test_ground_dyads_keep_their_digests(n):
    cfg = rs.MediumConfig(RingParams(n))
    got = tuple(_digest(*rs._ground_dyads(cfg, kind))
                for kind in (dp.DipoleKind.ELECTRIC, dp.DipoleKind.MAGNETIC))
    assert got == GROUND_DYAD_DIGESTS[n]
