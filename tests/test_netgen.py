"""Network generator: pathloss model, noise, geometry, serialization."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dpower import netgen
from d2dpower.netgen import NetworkInstance, SystemParams


# Hand-derived dual-slope constants for the default parameters:
# wavelength 0.125 m, breakpoint 4 h^2 / lambda = 72 m,
# basic loss |20 log10(lambda^2 / (8 pi h^2))| = 71.172 dB.
R_BP = 72.0
L_BP = 71.17204703562655


def test_breakpoint_constants():
    p = SystemParams()
    lam = netgen.SPEED_OF_LIGHT / p.carrier_hz
    assert lam == 0.125
    assert 4.0 * p.antenna_height_m ** 2 / lam == R_BP
    hand = abs(20.0 * np.log10(lam ** 2 / (8.0 * np.pi *
                                           p.antenna_height_m ** 2)))
    assert hand == pytest.approx(L_BP, rel=1e-14)


def test_pathloss_hand_values():
    p = SystemParams()
    # at the breakpoint both slope terms vanish
    assert netgen.pathloss_db(R_BP, p) == pytest.approx(L_BP + 6.0, abs=1e-12)
    # one octave below: -20 log10(2); two octaves worth above: +40 log10(2)
    assert netgen.pathloss_db(36.0, p) == pytest.approx(
        L_BP + 6.0 - 20.0 * np.log10(2.0), abs=1e-12)
    assert netgen.pathloss_db(144.0, p) == pytest.approx(
        L_BP + 6.0 + 40.0 * np.log10(2.0), abs=1e-12)
    assert netgen.pathloss_db(2.0, p) == pytest.approx(46.0459970202808,
                                                       abs=1e-10)


def test_pathloss_slopes_per_octave():
    p = SystemParams()
    below = netgen.pathloss_db(20.0, p) - netgen.pathloss_db(10.0, p)
    above = netgen.pathloss_db(400.0, p) - netgen.pathloss_db(200.0, p)
    assert below == pytest.approx(20.0 * np.log10(2.0), abs=1e-12)
    assert above == pytest.approx(40.0 * np.log10(2.0), abs=1e-12)


def test_pathloss_continuous_at_breakpoint():
    p = SystemParams()
    eps = 1e-9
    lo = netgen.pathloss_db(R_BP - eps, p)
    hi = netgen.pathloss_db(R_BP + eps, p)
    assert abs(hi - lo) < 1e-6


def test_pathloss_accepts_arrays():
    p = SystemParams()
    d = np.array([2.0, 36.0, 72.0, 144.0])
    pl = netgen.pathloss_db(d, p)
    assert pl.shape == (4,)
    assert pl[2] == pytest.approx(L_BP + 6.0, abs=1e-12)


def test_pathloss_rejects_bad_distances():
    p = SystemParams()
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            netgen.pathloss_db(bad, p)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.1, max_value=1e4),
       st.floats(min_value=1.0001, max_value=10.0))
def test_pathloss_monotone_in_distance(d, factor):
    p = SystemParams()
    assert netgen.pathloss_db(d * factor, p) > netgen.pathloss_db(d, p)


def test_noise_power_hand_value():
    p = SystemParams()
    # -174 dBm/Hz over 20 MHz: -100.9897 dBm = 7.9621e-11 mW
    hand = 10.0 ** ((p.noise_psd_dbm_hz
                     + 10.0 * np.log10(p.bandwidth_hz)) / 10.0)
    got = netgen.noise_power_mw(p)
    assert got == hand
    assert got == pytest.approx(7.962143411069939e-11, rel=1e-14)


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(d_min_m=10.0, d_max_m=5.0)
    with pytest.raises(ValueError):
        SystemParams(d_min_m=0.0)
    with pytest.raises(ValueError):
        SystemParams(area_side_m=-1.0)
    with pytest.raises(ValueError):
        SystemParams(bandwidth_hz=0.0)
    for field in dataclasses.fields(SystemParams):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=field.name):
                SystemParams(**{field.name: bad})


def test_gains_from_geometry_entrywise():
    # gain[i, j] couples Tx j into Rx i via the scalar pathloss
    p = SystemParams()
    tx = np.array([[0.0, 0.0], [100.0, 0.0]])
    rx = np.array([[10.0, 0.0], [110.0, 0.0]])
    g = netgen.gains_from_geometry(tx, rx, p)
    p_mw = 10.0 ** (p.tx_power_dbm / 10.0)
    assert p_mw == 100.0
    for i in range(2):
        for j in range(2):
            d = np.linalg.norm(rx[i] - tx[j])
            expect = p_mw * 10.0 ** (-netgen.pathloss_db(float(d), p) / 10.0)
            assert g[i, j] == pytest.approx(expect, rel=1e-14)
    # direct links at 10 m beat the 90/110 m cross paths
    assert g[0, 0] > g[0, 1] and g[1, 1] > g[1, 0]


@pytest.mark.parametrize("p", [
    SystemParams(),
    SystemParams(tx_power_dbm=7.5, carrier_hz=5.9e9, antenna_height_m=2.7),
])
def test_closed_form_gains_match_db_route(p):
    # at the breakpoint, a relative 1e-9 either side of it, and on a log
    # grid from d_min to past the area diagonal
    r_bp = netgen._breakpoint(p)[0]
    grid = np.geomspace(p.d_min_m, 1.5 * np.sqrt(2.0) * p.area_side_m, 400)
    d = np.concatenate(([r_bp, r_bp * (1 - 1e-9), r_bp * (1 + 1e-9)], grid))
    tx = np.zeros((d.size, 1, 2))
    rx = np.stack([d, np.zeros_like(d)], axis=-1)[:, None, :]
    g = netgen.gains_from_geometry(tx, rx, p)[:, 0, 0]
    p_mw = 10.0 ** (p.tx_power_dbm / 10.0)
    expect = p_mw * 10.0 ** (-netgen.pathloss_db(d, p) / 10.0)
    assert np.max(np.abs(g - expect) / expect) < 1e-14


def test_closed_form_gains_exact_oracle():
    # q = d^2 / r_bp^2 exactly from the float positions: gain * q (q <= 1)
    # or gain * q^2 (q > 1) must equal the float constant c up to the
    # rounding of the few float operations in between
    p = SystemParams()
    r_bp, l_bp = netgen._breakpoint(p)
    c = Fraction(10.0 ** ((p.tx_power_dbm - l_bp - 6.0) / 10.0))
    r2 = Fraction(r_bp) ** 2
    worst = 0.0
    for net in netgen.sample_instances(p, 40, 6, seed=31):
        for i, (rx, ry) in enumerate(net.rx_pos.tolist()):
            for j, (tx, ty) in enumerate(net.tx_pos.tolist()):
                dx = Fraction(rx) - Fraction(tx)
                dy = Fraction(ry) - Fraction(ty)
                q = (dx * dx + dy * dy) / r2
                g = Fraction(float(net.gain[i, j]))
                prod = g * q if q <= 1 else g * q * q
                worst = max(worst, abs(float((prod - c) / c)))
    assert worst <= 2e-15


def test_gains_reject_coincident_nodes():
    p = SystemParams()
    tx = np.array([[0.0, 0.0], [50.0, 0.0]])
    rx = np.array([[0.0, 0.0], [60.0, 0.0]])  # rx 0 on top of tx 0
    with pytest.raises(ValueError):
        netgen.gains_from_geometry(tx, rx, p)
    ok_rx = rx + np.array([5.0, 0.0])
    for bad in (np.nan, np.inf, -np.inf):
        off = np.array([[0.0, 0.0], [bad, 0.0]])
        for args in ((tx + off, ok_rx), (tx, ok_rx + off)):
            with pytest.raises(ValueError):
                netgen.gains_from_geometry(*args, p)


def test_sample_layout_deterministic():
    p = SystemParams()
    a = netgen.sample_layout(p, 10, seed=123)
    b = netgen.sample_layout(p, 10, seed=123)
    c = netgen.sample_layout(p, 10, seed=124)
    assert np.array_equal(a.gain, b.gain)
    assert np.array_equal(a.tx_pos, b.tx_pos)
    assert not np.array_equal(a.gain, c.gain)
    assert a.seed == 123


def test_sample_layout_geometry_bounds():
    p = SystemParams()
    net = netgen.sample_layout(p, 50, seed=5)
    assert np.all(net.tx_pos >= 0.0) and np.all(net.tx_pos <= p.area_side_m)
    d = np.linalg.norm(net.rx_pos - net.tx_pos, axis=1)
    assert np.all(d >= p.d_min_m) and np.all(d <= p.d_max_m)
    assert net.gain.shape == (50, 50)
    assert np.all(net.gain > 0.0) and np.all(np.isfinite(net.gain))


def test_sample_layout_direct_gain_dominates_on_average():
    # direct links are 2..65 m; cross links are mostly much longer
    p = SystemParams()
    net = netgen.sample_layout(p, 30, seed=11)
    direct = np.diag(net.gain)
    cross = net.gain[~np.eye(30, dtype=bool)]
    assert np.median(direct) > np.median(cross)


def test_sample_instances_matches_batch_stream():
    p = SystemParams()
    nets = netgen.sample_instances(p, 6, 4, seed=99)
    assert len(nets) == 4
    again = netgen.sample_instances(p, 6, 4, seed=99)
    for a, b in zip(nets, again):
        assert np.array_equal(a.gain, b.gain)
    # tuple seeds are a distinct stream
    other = netgen.sample_instances(p, 6, 4, seed=(99, 1))
    assert not np.array_equal(nets[0].gain, other[0].gain)


def test_sample_instances_are_checked_read_only_instances():
    p = SystemParams()
    assert netgen.sample_instances(p, 5, 0, seed=3) == []
    for count in (1, 4):
        nets = netgen.sample_instances(p, 5, count, seed=3)
        assert len(nets) == count
        for net in nets:
            assert not net.gain.flags.writeable
            assert not net.gain.base.flags.writeable  # the drawn stack
            fresh = {f.name: getattr(net, f.name)
                     for f in dataclasses.fields(NetworkInstance)}
            ref = NetworkInstance(**fresh)  # through the checked __init__
            assert type(net) is NetworkInstance
            assert vars(net).keys() == vars(ref).keys()
            for name, value in fresh.items():
                assert np.array_equal(getattr(ref, name), value)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("dbm", [3300.0, -3300.0])
def test_sample_instances_reject_a_bad_draw_as_an_instance_does(dbm):
    # every gain overflows to inf (+3300 dBm) or underflows to 0 (-3300)
    p = SystemParams(tx_power_dbm=dbm)
    gain = netgen.gain_batch(p, 3, 1, np.random.default_rng(0))[0]
    with pytest.raises(ValueError) as one:
        NetworkInstance(k_links=3, tx_pos=np.zeros((3, 2)),
                        rx_pos=np.ones((3, 2)), gain=gain, noise_power=1.0)
    for count in (1, 3):
        with pytest.raises(ValueError) as bulk:
            netgen.sample_instances(p, 3, count, seed=0)
        assert str(bulk.value) == str(one.value)


def test_sample_layout_is_one_draw_of_sample_instances():
    for p in (SystemParams(), SystemParams(d_max_m=30.0, area_side_m=80.0)):
        for k, seed in ((1, 0), (5, 7), (40, (3, 1))):
            net = netgen.sample_layout(p, k, seed)
            (ref,) = netgen.sample_instances(p, k, 1, seed)
            assert np.array_equal(net.tx_pos, ref.tx_pos)
            assert np.array_equal(net.rx_pos, ref.rx_pos)
            assert np.array_equal(net.gain, ref.gain)
            assert net.noise_power == ref.noise_power
            assert net.seed == seed


def test_gain_batch_consistent_with_instances():
    p = SystemParams()
    rng = np.random.default_rng(21)
    batch = netgen.gain_batch(p, 5, 3, rng)
    nets = netgen.sample_instances(p, 5, 3, seed=21)
    assert batch.shape == (3, 5, 5)
    for b in range(3):
        assert np.array_equal(batch[b], nets[b].gain)


def test_network_instance_validation():
    ok = netgen.sample_layout(SystemParams(), 3, seed=0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        bad_gain = ok.gain.copy()
        bad_gain[0, 0] = bad
        with pytest.raises(ValueError):
            NetworkInstance(k_links=3, tx_pos=ok.tx_pos, rx_pos=ok.rx_pos,
                            gain=bad_gain, noise_power=ok.noise_power)
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            NetworkInstance(k_links=3, tx_pos=ok.tx_pos, rx_pos=ok.rx_pos,
                            gain=ok.gain, noise_power=bad)
    with pytest.raises(ValueError):
        NetworkInstance(k_links=2, tx_pos=ok.tx_pos, rx_pos=ok.rx_pos,
                        gain=ok.gain, noise_power=ok.noise_power)


def test_layout_roundtrip(tmp_path):
    p = SystemParams(d_max_m=40.0)
    net = netgen.sample_layout(p, 7, seed=42)
    path = tmp_path / "layout.json"
    netgen.save_layout(path, net, p)
    loaded, p2 = netgen.load_layout(path)
    assert p2 == p
    assert loaded.k_links == 7
    assert loaded.seed == 42
    assert np.array_equal(loaded.gain, net.gain)
    assert np.array_equal(loaded.tx_pos, net.tx_pos)
    assert np.array_equal(loaded.rx_pos, net.rx_pos)
    assert loaded.noise_power == net.noise_power
    # stored flat row-major
    doc = json.loads(path.read_text())
    assert doc["gain"][1] == net.gain[0, 1]
    # numpy scalars pass the checks and are written as JSON numbers
    p3 = SystemParams(d_max_m=np.float32(40.0), area_side_m=np.int64(500))
    netgen.save_layout(path, netgen.sample_layout(p3, 3, np.int64(1)), p3)
    assert netgen.load_layout(path)[1] == p3
