import math

import numpy as np
import pytest

import kolpot as kp
from kolpot.balls import Ellipsoid, unit_ball_volume
from kolpot.errors import NonPositiveLambda, SliceOutOfRange
from tests.conftest import HEAT1_R, PROTO_R


def test_time_extent_closed_forms(heat1, heat2, proto):
    # det C = s^n for heat, so s_max = (r^2 (4 pi)^{-n})^{1/n}
    assert kp.ball_time_extent(HEAT1_R, heat1) == pytest.approx(1.0, rel=1e-13)
    assert kp.ball_time_extent(PROTO_R, proto) == pytest.approx(1.0, rel=1e-13)
    for r in (0.5, 2.0, 11.0):
        expected = (r * r / (4.0 * math.pi) ** 2) ** 0.5
        assert kp.ball_time_extent(r, heat2) == pytest.approx(expected, rel=1e-12)


def test_time_extent_against_monomial_formula(all_specs):
    # det C(t) = det C(1) t^(Q-2) gives a closed-form root to compare with
    for spec in all_specs.values():
        c1 = np.linalg.det(kp.covariance_at(1.0, spec))
        for r in (0.7, 3.0, 20.0):
            target = r * r * (4.0 * math.pi) ** (-spec.n) / c1
            expected = target ** (1.0 / (spec.Q - 2.0))
            assert kp.ball_time_extent(r, spec) == pytest.approx(expected, rel=1e-12)


def test_heat_slice_matches_classical_description(heat1, balls):
    # slices of the heat ball: |x|^2 < 2 n s log(s_max / s)
    ball = balls["heat1"]
    for s in (0.1, 0.5, 0.9):
        ell = ball.slice_at(s)
        half = math.sqrt(ell.level / ell.shape[0, 0])
        classical = math.sqrt(2.0 * s * math.log(ball.s_max / s))
        assert half == pytest.approx(classical, rel=1e-12)


def test_slice_degenerates_at_both_ends(balls):
    ball = balls["proto"]
    assert ball.rho(ball.s_max * (1 - 1e-12)) < 1e-10
    with pytest.raises(SliceOutOfRange):
        ball.slice_at(ball.s_max * 1.01)
    with pytest.raises(SliceOutOfRange):
        ball.slice_at(0.0)


def test_contains_examples(heat1, balls):
    ball = balls["heat1"]
    assert ball.contains(heat1.point([0.0], -0.5))
    assert not ball.contains(heat1.point([0.0], 0.0))  # the center itself
    assert not ball.contains(heat1.point([0.0], 0.5))  # future
    assert not ball.contains(heat1.point([5.0], -0.5))  # far out


def test_membership_routes_agree(all_specs, balls):
    # direct level-set membership vs the ellipsoidal slice inequality
    rng = np.random.default_rng(99)
    for name, ball in balls.items():
        spec = all_specs[name]
        lo, hi = kp.ball_bounding_box(ball)
        disagreements = 0
        checked = 0
        for _ in range(20000 // len(balls)):
            x = lo[:-1] + (hi[:-1] - lo[:-1]) * rng.random(spec.n) * 1.2
            t = lo[-1] + (hi[-1] - lo[-1]) * rng.random() * 1.2
            z = spec.point(x, t)
            cls = ball.classify(z)
            if cls == "boundary":
                continue
            checked += 1
            s = ball.t0 - z.t
            if not 0.0 < s < ball.s_max:
                slice_member = False
            else:
                w = ball.to_origin_frame(z)
                try:
                    slice_member = bool(ball.slice_at(s).contains(w.x[None, :])[0])
                except SliceOutOfRange:
                    slice_member = False
            if slice_member != (cls == "inside"):
                disagreements += 1
        assert disagreements == 0 and checked > 1000


def test_translation_commutes_with_membership(proto, balls):
    ball = balls["proto"]
    z0 = proto.point([0.4, -0.7], 0.3)
    moved = kp.ball_translate(ball, z0)
    rng = np.random.default_rng(17)
    for _ in range(2000):
        x = rng.standard_normal(2)
        t = rng.uniform(-1.2, 0.1)
        z = proto.point(x, t)
        lhs = ball.contains(z)
        rhs = moved.contains(kp.group_compose(z0, z, proto))
        assert lhs == rhs


def test_dilation_law_on_radii(proto, balls):
    ball = balls["proto"]
    big = kp.ball_dilate(ball, 2.0)
    assert big.r == pytest.approx(2 ** (proto.Q - 2) * ball.r, rel=1e-14)
    with pytest.raises(NonPositiveLambda):
        kp.ball_dilate(ball, -1.0)


def test_dilation_law_on_sets(proto, balls):
    # membership in the dilated ball matches dilated membership pointwise
    ball = balls["proto"]
    big = kp.ball_dilate(ball, 2.0)
    rng = np.random.default_rng(23)
    for _ in range(2000):
        z = proto.point(rng.standard_normal(2), rng.uniform(-1.5, 0.2))
        if ball.classify(z) == "boundary" or big.classify(kp.dilate(2.0, z, proto)) == "boundary":
            continue
        assert ball.contains(z) == big.contains(kp.dilate(2.0, z, proto))


def test_bounding_box_heat1(balls):
    # the classical heat-ball half-width: max over s of sqrt(2 s log(1/s))
    # equals sqrt(2/e), attained at s = 1/e
    lo, hi = kp.ball_bounding_box(balls["heat1"])
    assert hi[0] == pytest.approx(math.sqrt(2.0 / math.e), rel=1e-9)
    assert lo[0] == pytest.approx(-math.sqrt(2.0 / math.e), rel=1e-9)
    assert lo[1] == pytest.approx(-1.0) and hi[1] == pytest.approx(0.0)



def test_bounding_box_is_searched_once_per_ball(proto, monkeypatch):
    # the exterior points and the spatial shift of one rigidity ball share
    # one search, with the bits of the search itself
    from kolpot import balls, domains, lab

    ball = kp.lball(proto, PROTO_R)
    ref = kp.ball_bounding_box(ball)
    calls = []

    def counted(b, *args, **kw):
        calls.append(b)
        return kp.ball_bounding_box(b, *args, **kw)

    monkeypatch.setattr(balls, "ball_bounding_box", counted)
    lab.exterior_test_points(domains.ExactBall(ball), ball, 6, seed=3)
    shifted = domains.make_perturbation(ball, "spatial_shift", 0.1)
    assert calls == [ball]
    assert shifted.h[0] == 0.1 * 0.5 * float(np.max(ref[1][:-1] - ref[0][:-1]))
    for got, want in zip(ball.bounding_box, ref):
        assert np.array_equal(got, want) and not got.flags.writeable

def test_boxes_shrink_with_radius(heat1):
    widths = []
    for r in (1.0, 0.1, 0.01):
        ball = kp.lball(heat1, r)
        lo, hi = kp.ball_bounding_box(ball)
        widths.append(float(np.max(hi - lo)))
    assert widths[0] > widths[1] > widths[2]
    assert widths[2] < 0.02


def test_ball_contains_translated_center(proto):
    z0 = proto.point([1.0, 2.0], 5.0)
    ball = kp.lball(proto, PROTO_R, z0)
    inside = kp.group_compose(z0, proto.point([0.0, 0.0], -0.5), proto)
    assert ball.contains(inside)
    assert not ball.contains(z0)


def test_ellipsoid_volume_and_extents():
    ell = Ellipsoid([1.0, -2.0], np.diag([0.25, 1.0]), 1.0)
    assert ell.volume() == pytest.approx(math.pi * 2.0, rel=1e-13)
    assert np.allclose(ell.axis_extents(), [2.0, 1.0])
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_export_slices_csv(tmp_path, balls):
    path = tmp_path / "slices.csv"
    kp.export_slices_csv(balls["proto"], path, count=25)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "s"
    assert len(lines) == 26
    first = [float(v) for v in lines[1].split(",")]
    assert 0.0 < first[0] < balls["proto"].s_max


def test_off_origin_ball_contains_agrees_with_slices(proto, evaluators):
    # membership Gamma(z0, z) > 1/r against the stacked global slices and the
    # origin-frame slice of z0^{-1} o z, at a center off the origin
    ev = evaluators["proto"]
    ball = kp.lball(proto, PROTO_R, proto.point([0.3, 0.5], -0.4), ev)
    lo, hi = kp.ball_bounding_box(ball)
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(2000):
        u = lo + (hi - lo) * (1.2 * rng.random(3) - 0.1)
        z = proto.point(u[:-1], u[-1])
        cls = ball.classify(z)
        if cls == "boundary":
            continue
        sl = ball.slices(ball.t0 - z.t)
        in_slice = False
        if sl.idx.size:
            d = z.x - sl.center[0]
            in_slice = bool(d @ sl.shape[0] @ d < sl.rho[0])
            w = ball.to_origin_frame(z)
            assert bool(ball.slice_at(ball.t0 - z.t).contains(w.x[None, :])[0]) == in_slice
            assert ball.from_origin_frame(w).x == pytest.approx(z.x, abs=1e-12)
        assert in_slice == (cls == "inside")
        checked += 1
    assert checked > 1900


def test_translation_of_an_off_origin_ball(proto, balls):
    ball = kp.ball_translate(balls["proto"], proto.point([0.3, 0.5], -0.4))
    w = proto.point([-0.2, 0.6], 0.25)
    moved = kp.ball_translate(ball, w)
    rng = np.random.default_rng(29)
    for _ in range(500):
        z = proto.point(0.8 * rng.standard_normal(2), rng.uniform(-1.6, -0.3))
        assert moved.contains(kp.group_compose(w, z, proto)) == ball.contains(z)
