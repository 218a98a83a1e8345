import math

import numpy as np
import pytest

from dyboltz import verify


def test_draws_are_pinned_at_the_seed():
    # every measured value of a verify report hangs on this stream, so a
    # change to it must show here; normals go through math.log and math.cos,
    # so they are held to a few ulps, not bit for bit
    def first(kind, *args):
        rng = verify._Draws(verify._SEED)
        return [getattr(rng, kind)(*args) for _ in range(3)]

    assert first("uniform", -1.0, 1.0) == [0.26107684612362836, 0.5179456449514297,
                                           0.3605953414161174]
    assert first("integers", -3, 4) == [1, 2, 1]
    assert first("normal") == pytest.approx([0.07951699620907762, -1.4052544219894423,
                                              0.36614219563815087], rel=1e-14)


@pytest.mark.parametrize("size", [None, 1, 7, (7,), (2, 3), (5, 10, 3), (0, 3)])
def test_draws_take_the_shapes_numpy_gives(size):
    gen = np.random.default_rng(0)
    for kind, args in (("uniform", (-2.5, 2.5)), ("normal", (0.0, 1.5))):
        ours = getattr(verify._Draws(0), kind)(*args, size=size)
        theirs = getattr(gen, kind)(*args, size=size)
        assert type(ours) is type(theirs)
        assert np.shape(ours) == np.shape(theirs)
        assert np.asarray(ours).dtype == np.asarray(theirs).dtype


def test_draws_cover_their_ranges():
    rng = verify._Draws(1)
    u = rng.uniform(-2.5, 2.5, size=4000)
    assert u.min() >= -2.5 and u.max() < 2.5
    assert abs(u.mean()) < 0.1
    ints = [rng.integers(-3, 4) for _ in range(700)]
    assert set(ints) == set(range(-3, 4))
    assert all(type(k) is int for k in ints)
    assert {rng.integers(5, 6) for _ in range(50)} == {5}
    z = rng.normal(loc=1.0, scale=2.0, size=4000)
    assert abs(z.mean() - 1.0) < 0.1 and abs(z.std() - 2.0) < 0.1


@pytest.mark.parametrize("shift", [0.0, 5e-3])
def test_scaled_gap_values_reports_what_it_gates(monkeypatch, shift):
    # a Mehler-Heine deviation over 1e-3 fails, and its measured value then
    # lies over the threshold too
    j0 = verify._bessel_j0
    monkeypatch.setattr(verify, "_bessel_j0", lambda x: j0(x) + shift)
    res = verify.check_scaled_gap_values(verify._Draws(verify._SEED))
    assert res.passed == (shift == 0.0)
    assert res.passed == (res.measured <= res.threshold)


def test_shubin_vs_logsob_reports_what_it_gates():
    res = verify.check_shubin_vs_logsob(verify._Draws(verify._SEED))
    assert res.threshold == 1e-12
    assert res.passed == (res.measured <= res.threshold)


def test_rate1_is_skipped_above_s_2(table_factory):
    # rate1 holds for s <= 2 only; above, the check passes with no measurement
    res = verify.check_rate1(verify._Draws(verify._SEED), table_factory(4.0, 8, 8))
    assert res.passed and math.isnan(res.measured)
    assert res.detail == "skipped: rate1 applies for s <= 2, got s=4.0"
