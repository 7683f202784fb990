"""The vertex-form line sweep of the Gaussian engine.

* ``_w1_integrals`` against 30-digit ``mpmath.quad`` on short sections, thin
  ones far from zero included, on both orders of its width-graded rule.
* The whole-chord rules of a short line and a short outer range
  (``_short``, ``_chord_nodes``) and the compressed half-line rule of a long
  n = 3 outer range at the top kappa of each of its rungs (``_rung``)
  against 30-digit ``mpmath.quad``, a box the Gaussian window clips never
  short, and the graded sweep against an order-96 sweep on the first
  criterion-6 points and on random chain slices, each rung taken.
* ``_normal_frame`` orthonormal with the boundary normal as its first
  column, bit for bit, for normals along every coordinate axis too.
* The per-line Schur data of ``_lines`` against per-section values rebuilt
  from x-space offsets, as a sweep that carries no line data computes them:
  the level left, the section centre and the quadratic's coefficients.
* One ``gaussian_quadratic_stack`` call runs its section blocks without a
  per-section gather (``np.take``).
"""

import math

import mpmath
import numpy as np
import pytest

import kolpot as kp
from kolpot import quadrature
from kolpot.domains import BittenBall, ExactBall, ShiftedBall
from kolpot.lab import _kernel_gamma_profile, exterior_test_points, kernel_gamma_integral
from kolpot.quadrature import (
    QuadratureConfig,
    _KAPPA0,
    _chord_nodes,
    _line_nodes,
    _lines,
    _normal_frame,
    _w1_integrals,
    gaussian_quadratic_stack,
)
from test_stacked_engine import _engine_cases


def _sections(rng, count):
    """Short sections inside the Gaussian window: widths 1e-10 to 1.2, |mid|
    up to 8.5, coefficients of mixed sign and scale up to 1e28, expanded about
    a point w0 near the section or up to O(1) away from it."""
    width = 10.0 ** rng.uniform(-10.0, math.log10(1.2), count)
    mid = rng.uniform(-1.0, 1.0, count) * (8.5 - 0.5 * width)
    lo, hi = mid - 0.5 * width, mid + 0.5 * width
    w0 = mid + rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.uniform(-10.0, 0.0, count)

    def coef():
        return rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-3.0, 28.0, count)

    return lo, hi, w0, coef(), coef(), coef()


def _mp_moments(c, lo, hi, d):
    """int (w - w0)^j e^{-w^2} dw and int |w - w0|^j e^{-w^2} dw over
    [c + lo, c + hi], w0 = c - d, for j = 0, 1, 2, at the working precision.

    The integrals run over u in [-1, 1], w = m + h u about the exact midpoint
    m, with e^{-w^2} = e^{-m^2} e^{-2 m h u - h^2 u^2} and (w - w0) scaled by
    a = max(|m - w0|, h): a thin section far out keeps every digit of its
    offsets, and every integrand is of order one.
    """
    c, lo, hi, d = (mpmath.mpf(float(v)) for v in (c, lo, hi, d))
    m, h = c + (lo + hi) / 2, (hi - lo) / 2
    d = d + (lo + hi) / 2  # m - w0
    a = max(abs(d), h)
    split = [-1, -d / h, 1] if -h < -d < h else [-1, 1]
    signed, absolute = [], []
    for j in range(3):
        for out, norm in ((absolute, abs), (signed, lambda y: y)):
            val, err = mpmath.quad(
                lambda u: norm((d + h * u) / a) ** j * mpmath.exp(-2 * m * h * u - h * h * u * u),
                split, method="gauss-legendre", error=True)
            assert err <= mpmath.mpf(10) ** -25  # the reference converged
            out.append(mpmath.exp(-m * m) * a ** j * h * val)
    return signed, absolute


def test_w1_integrals_against_mpmath():
    rng = np.random.default_rng(2718)
    lo, hi, w0, b0, b1, c2 = _sections(rng, 160)
    # the 8-node rule right up to its bound, kappa = width (|mid| + width) <= 0.5
    mid = np.array([0.0, 0.3, 2.4, 6.0, 8.4])
    width = (-np.abs(mid) + np.sqrt(mid * mid + 2.0)) / 2.0 * (1.0 - 1e-12)
    c = np.concatenate([0.5 * (lo + hi), mid])
    half = np.concatenate([0.5 * (hi - lo), 0.5 * width])
    d = c - np.concatenate([w0, mid + 0.1])
    b0, b1, c2 = (np.concatenate([a, rng.choice([-1.0, 1.0], 5) * 1e20]) for a in (b0, b1, c2))
    # thin sections the window clips, each with one odd or even power alone
    # about the section's own rounded midpoint: the rule must sit on the
    # clipped section itself
    width = 10.0 ** rng.uniform(-10.0, -6.0, 24)
    c_clip = (8.5 - rng.uniform(0.0, 1.0, 24) * width) * rng.choice([-1.0, 1.0], 24)
    lo_clip, hi_clip = quadrature._reach(c_clip, width)
    c, half = np.concatenate([c, c_clip]), np.concatenate([half, width])
    d = np.concatenate([d, c_clip - (c_clip + 0.5 * (lo_clip + hi_clip))])
    one = np.arange(24) % 2 == 0
    b0 = np.concatenate([b0, np.zeros(24)])
    b1 = np.concatenate([b1, np.where(one, 1e10, 0.0)])
    c2 = np.concatenate([c2, np.where(one, 0.0, -1e20)])
    lo, hi = quadrature._reach(c, half)
    h, e = hi - lo, 0.5 * (lo + hi)
    kappa = h * (np.abs(c + e) + h)
    assert np.any((kappa > 0.45) & (kappa <= 0.5)) and np.any(kappa > 0.5)
    assert h.min() < 1e-9 and np.any((h < 1e-8) & (np.abs(c) > 8.0))
    assert np.any((c + e) - c != e)  # the midpoint c + e is rounded

    got = _w1_integrals(c, half, d, b0, b1, c2)
    with mpmath.workdps(30):
        for k in range(lo.size):
            signed, absolute = _mp_moments(c[k], lo[k], hi[k], d[k])
            coef = [mpmath.mpf(float(v)) for v in (b0[k], b1[k], c2[k])]
            ref = sum(cf * mom for cf, mom in zip(coef, signed))
            scale = sum(abs(cf) * mom for cf, mom in zip(coef, absolute))
            err = abs(mpmath.mpf(float(got[k])) - ref) / scale
            assert err <= 1e-14, (k, c[k], lo[k], hi[k], d[k], float(err))


def _r2_operator():
    return kp.validate_operator(3, [1, 1, 1], [[1.0]], [np.array([[1.0]]), np.array([[1.0]])])


def _engine_stacks(ball, monkeypatch):
    """The (near-slice) argument stacks the tensor rule receives from one
    exterior and one interior kernel-weighted profile over the ball."""
    stacks = []
    tensor = quadrature._gauss_tensor_stack

    def record(*args):
        stacks.append(args)
        return tensor(*args)

    monkeypatch.setattr(quadrature, "_gauss_tensor_stack", record)
    domain = ExactBall(ball)
    below = [z for z, cat in exterior_test_points(domain, ball, 8, seed=11) if cat == "below"]
    inside = ball.spec.point(ball.slices(0.5 * ball.s_max).center[0] + 0.02,
                             ball.t0 - 0.5 * ball.s_max)
    assert ball.contains(inside)
    tau = ball.t0 - ball.s_max * np.linspace(0.01, 0.99, 24)
    for z in (below[0], inside):
        _kernel_gamma_profile(domain, ball, z)(tau)
    monkeypatch.undo()
    return stacks


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_frame_is_orthonormal_with_the_normal_first(n):
    # random stacks, then normals along -/+ each coordinate axis, which a
    # completion by Gram-Schmidt over the coordinate axes has to skip
    rng = np.random.default_rng(30 + n)
    G = rng.standard_normal((40, n, n))
    Aq = np.concatenate([G @ np.swapaxes(G, 1, 2) + 0.1 * np.eye(n),
                         np.broadcast_to(np.eye(n), (2 * n, n, n))])
    cv = np.concatenate([rng.standard_normal((40, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (40, 1)),
                         2.5 * np.eye(n), -2.5 * np.eye(n)])  # normals -e_k, then +e_k
    frame = _normal_frame(Aq, cv)
    grad = -np.einsum("kij,kj->ki", Aq, cv / np.linalg.norm(cv, axis=1)[:, None])
    e1 = grad / np.linalg.norm(grad, axis=1)[:, None]
    assert np.array_equal(e1[40:], np.concatenate([-np.eye(n), np.eye(n)]))
    assert np.array_equal(frame[:, :, 0], e1)
    assert np.max(np.abs(np.swapaxes(frame, 1, 2) @ frame - np.eye(n))) <= 1e-15


def _rebuilt_sections(args, ln, v):
    """Per-section level, centre and coefficients (about w1 = w1_0) at the
    swept nodes v, rebuilt from x-space offsets of each section."""
    center, shape, level, mean, chol, M, qc = args
    k, w1_0 = ln.slice, ln.vertex[:, 0]
    L2 = 2.0 * chol
    cv = np.linalg.solve(L2, (center - mean)[:, :, None])[:, :, 0]
    Aq = np.swapaxes(L2, 1, 2) @ shape @ L2
    S = (L2 @ _normal_frame(0.5 * (Aq + np.swapaxes(Aq, 1, 2)), cv))[k]
    s1 = S[:, :, 0]
    Q, Mk = shape[k], M[k]
    alpha = np.einsum("li,lij,lj->l", s1, Q, s1)
    w = np.repeat(ln.vertex[:, None, :], v.shape[1], axis=1)
    w[np.arange(k.size), :, ln.axis] = v
    w[:, :, 0] = 0.0
    offs = (mean - center)[k, None, :] + np.einsum("lij,lvj->lvi", S, w)
    w1s = -np.einsum("lvi,lij,lj->lv", offs, Q, s1) / alpha[:, None]
    offp = offs + w1s[:, :, None] * s1[:, None, :]
    lev = level[k, None] - np.einsum("lvi,lij,lvj->lv", offp, Q, offp)
    terms = ((mean - qc)[k, None, :], np.einsum("lij,lvj->lvi", S, w),
             w1_0[:, None, None] * s1[:, None, :])
    d = terms[0] + terms[1] + terms[2]
    Md = np.einsum("lij,lvj->lvi", Mk, d)
    b0 = np.einsum("lvi,lvi->lv", d, Md)
    b1 = 2.0 * np.einsum("lvi,li->lv", Md, s1)
    # the scale of each coefficient: the magnitudes of the terms these sums add
    dabs = np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
    b0_scale = np.einsum("lvi,lij,lvj->lv", dabs, np.abs(Mk), dabs)
    b1_scale = 2.0 * np.einsum("lvi,lij,lj->lv", dabs, np.abs(Mk), np.abs(s1))
    half = np.sqrt(level[k] / alpha)
    return lev, w1s, b0, b1, b0_scale, b1_scale, half


@pytest.mark.parametrize("op", ["heat2", "proto", "chain", "r2"])
def test_line_data_matches_sections_rebuilt_from_x_space(op, balls, monkeypatch):
    if op == "r2":
        ball = kp.lball(_r2_operator(), 4.0)
    else:
        ball = balls[op]
    stacks = _engine_stacks(ball, monkeypatch)
    assert stacks
    order = quadrature._rung(ball.spec.n, math.inf)  # the nodes the line data is checked at
    lines = 0
    for args in stacks:
        level = args[2]
        ln = _lines(*args)
        if ln.slice.size == 0:
            continue
        v0, w1_0 = ln.vertex[np.arange(ln.slice.size), ln.axis], ln.vertex[:, 0]
        lines += ln.slice.size
        dv, _ = _line_nodes(v0, ln.half, order)
        v = v0[:, None] + np.concatenate([0.0 * v0[:, None], dv], axis=1)  # vertex, nodes
        lev, w1s, b0, b1, b0_scale, b1_scale, half = _rebuilt_sections(args, ln, v)
        dv = v - v0[:, None]
        # each against its scale along the line
        lev_line = ln.lev0[:, None] - ln.a_v[:, None] * dv ** 2
        assert np.max(np.abs(lev_line - lev) / level[ln.slice][:, None]) <= 1e-12
        centre = w1_0[:, None] + ln.g1[:, None] * dv
        centre_scale = np.max(np.abs(w1s), axis=1) + half
        assert np.max(np.abs(centre - w1s) / centre_scale[:, None]) <= 1e-12
        P, Pv, P1, Qvv, Qv1, _ = ln.quad[:, :, None]
        B0 = P + Pv * dv + Qvv * dv ** 2
        B1 = P1 + 2.0 * Qv1 * dv
        assert np.max(np.abs(B0 - b0) / np.max(b0_scale, axis=1, keepdims=True)) <= 1e-12
        assert np.max(np.abs(B1 - b1) / np.max(b1_scale, axis=1, keepdims=True)) <= 1e-12
    assert lines > 0


def test_stack_call_makes_no_per_block_gather(balls, monkeypatch):
    ball = balls["chain"]
    stacks = _engine_stacks(ball, monkeypatch)
    args = max(stacks, key=lambda a: a[0].shape[0])
    counts = {"take": 0, "blocks": 0}
    take, w1 = np.take, quadrature._w1_integrals

    def counted_take(*a, **kw):
        counts["take"] += 1
        return take(*a, **kw)

    def counted_w1(*a):
        counts["blocks"] += 1
        return w1(*a)

    monkeypatch.setattr(np, "take", counted_take)
    monkeypatch.setattr(quadrature, "_w1_integrals", counted_w1)
    gaussian_quadratic_stack(*args)
    assert counts["blocks"] >= 4
    assert counts["take"] == 0


def _lines_to(top, window=False, edge=8.4):
    """(mid, kappa, half) of lines of kappa up to ``top``, |mid| up to
    ``edge``, inside the Gaussian window, or with ``window`` also those it
    clips."""
    out = []
    for mid in (0.0, 0.3, -1.5, 3.0, -6.0, edge):
        for kappa in (1e-3, 0.1, 0.5, 1.0, 2.0, 0.75 * top, top * (1.0 - 1e-12)):
            length = (-abs(mid) + math.sqrt(mid * mid + 4.0 * kappa)) / 2.0
            if kappa <= top and (window or abs(mid) + length / 2.0 <= 8.5):
                out.append((mid, kappa, length / 2.0))
    return out


def _mp_line(c, half, factor, ends=(-1.0, 1.0)):
    """int e^{-v^2} factor(x) dv over v = c + half x, x in ``ends``, by
    ``mpmath.quad``, at the working precision (the integrands are positive)."""
    c, half = mpmath.mpf(c), mpmath.mpf(half)
    a, b = (mpmath.mpf(float(e)) for e in ends)
    val, err = mpmath.quad(lambda t: mpmath.exp(-2 * c * half * t - half * half * t * t)
                           * factor(t), [a, 0, b] if a < 0 < b else [a, b], error=True)
    assert err <= mpmath.mpf(10) ** -25 * val  # the reference converged
    return mpmath.exp(-c * c) * half * val


def _check_rule(lines, nodes, factors):
    """A rule, ``nodes(mid, half)`` -> (dv, w), over each line of ``lines``
    against ``_mp_line`` over the same range, for each factor of x that a
    maker in ``factors`` builds from (mid, half); a maker may return None to
    skip a line."""
    with mpmath.workdps(30):
        for mid, kappa, half in lines:
            dv, w = nodes(np.array(mid), np.array(half))  # w: times e^{-v^2}
            lo, hi = quadrature._reach(np.array(mid), np.array(half))
            for make in factors:
                factor = make(mid, half)
                if factor is None:
                    continue
                got = sum(mpmath.mpf(float(wj)) * factor(mpmath.mpf(float(dj)) / mpmath.mpf(half))
                          for wj, dj in zip(w, dv))
                ref = _mp_line(mid, half, factor, (lo / half, hi / half))
                err = abs(got - ref) / ref
                assert err <= 1e-14, (mid, kappa, float(err))


def _section_mass(c1, g1, h1):
    """x -> the Gaussian mass over w1 of the section c1 + g1 x -/+ h1 sqrt(1 - x^2)."""
    return lambda x: mpmath.sqrt(mpmath.pi) / 2 * (
        mpmath.erf(c1 + g1 * x + h1 * mpmath.sqrt(1 - x * x))
        - mpmath.erf(c1 + g1 * x - h1 * mpmath.sqrt(1 - x * x)))


def _check_chord_rule(m, top, weighted, factors):
    """The m-node chord rule over each short chord of ``_lines_to(top)``
    (``_check_rule``)."""
    lines = _lines_to(top)
    assert max(kappa for _, kappa, _ in lines) > 0.99 * top
    for mid, _, half in lines:
        assert quadrature._short(np.array([[mid]]), np.array([[half]]))[0]
    _check_rule(lines, lambda c, half: _chord_nodes(c, half, m, weighted)[:2], factors)


def _short_section_mass(mid, half, top=_KAPPA0):
    """The Gaussian mass of a line's sections, c1(x) -/+ h1 sqrt(1 - x^2) in
    w1, h1 = top / 8, or None where the line's box in (v, w1) is not short or
    its kappa exceeds ``top``."""
    c1, g1, h1 = 0.4 * mid, 0.25, top / 8.0
    box = np.array([[mid, c1]]), np.array([[half, abs(g1) * half + h1]])
    kappa = np.sum(quadrature._kappa(box[0], *quadrature._reach(*box)))
    keep = quadrature._short(*box)[0] and kappa <= top
    return _section_mass(c1, g1 * half, h1) if keep else None


def test_short_line_chord_rule_against_mpmath():
    # a short line takes the Gauss-Chebyshev rule of the second kind over its
    # whole chord: against e^{-v^2} times the section-width factor
    # sqrt(1 - x^2), lev = lev0 (1 - x^2), and times a whole section's
    # Gaussian mass over w1 in c1(v) -/+ h1 sqrt(1 - x^2), where the line's
    # box in (v, w1) takes the rule; each rung to its top kappa, 8 nodes to 1
    for bound, m in quadrature._RUNGS["chord"]:
        top = min(bound, _KAPPA0)  # no chord beyond kappa0 is short
        assert quadrature._rung("chord", np.array([top])).tolist() == [m]
        _check_chord_rule(m, top, True, (lambda mid, half: lambda x: mpmath.sqrt(1 - x * x),
                                         lambda mid, half: _short_section_mass(mid, half, top)))


def test_short_outer_chord_rule_against_mpmath():
    # a short slice's outer range takes plain Gauss-Legendre over its whole
    # chord: against e^{-o^2} times the cross-section factor 1 - x^2, and
    # times a line's sections' mass, sqrt(1 - x^2) times the section mass of
    # a chord of half-width sqrt(1 - x^2): (1 - x^2) times an entire function
    def line_mass(mid, half):
        mass = _short_section_mass(mid, half)
        return None if mass is None else lambda x: mpmath.sqrt(1 - x * x) * mass(x)

    _check_chord_rule(16, _KAPPA0, False, (lambda mid, half: lambda x: 1 - x * x, line_mass))


@pytest.mark.parametrize("rung", range(len(quadrature._RUNGS["outer"]) - 1))
def test_outer_range_rung_against_mpmath(rung):
    # a long n = 3 slice's outer range takes compressed Gauss-Legendre nodes
    # per half line, their number from its own kappa: at the top kappa of
    # each rung, on ranges inside the window and clipped by it, against
    # e^{-o^2} times the cross-section factor 1 - x^2 and times a line's
    # sections' mass, sqrt(1 - x^2) times the mass of a chord of half-width
    # sqrt(1 - x^2).  Ranges reach |mid| 8: a range clipped at mid 8.4 sits
    # at 1.1e-14 to 1.5e-14 at every order, 64 too, from rounding e^{-v^2}
    # at nodes near the window's edge
    top, m = quadrature._RUNGS["outer"][rung]
    assert quadrature._rung("outer", np.array([top, top * (1.0 + 1e-12)])).tolist() == [
        m, quadrature._RUNGS["outer"][rung + 1][1]]
    lines = _lines_to(top, window=True, edge=8.0)
    assert any(abs(mid) + half > 8.5 for mid, _, half in lines)  # some clipped
    _check_rule(lines, lambda c, half: tuple(a[0] for a in _line_nodes(c[None], half[None], m)),
                (lambda mid, half: lambda x: 1 - x * x,
                 lambda mid, half: lambda x: mpmath.sqrt(1 - x * x) * _section_mass(
                     0.4 * mid, 0.25 * half, 0.5)(x)))


def test_window_clipped_box_is_never_short():
    # kappa alone would pass these boxes, but the window cuts a coordinate
    # inside the chord, where no square-root factor vanishes
    c = np.array([[8.45, 0.0], [0.0, -8.45], [8.5, 0.0]])
    half = np.array([[0.1, 0.1], [0.1, 0.1], [1e-3, 0.1]])
    lo, hi = quadrature._reach(c, half)
    length = hi - lo
    assert np.all(np.sum(length * (np.abs(c + 0.5 * (lo + hi)) + length), axis=-1) <= _KAPPA0)
    assert not np.any(quadrature._short(c, half))
    assert np.all(quadrature._short(c * 0.99, half))  # inside the window: short


def _force_order_96(monkeypatch):
    """Every line and outer range at 96 compressed nodes per half line: no
    box is short, and every rung of every kind takes 96."""
    monkeypatch.setattr(quadrature, "_KAPPA0", -1.0)
    monkeypatch.setattr(quadrature, "_RUNGS", {kind: ((math.inf, 96),)
                                               for kind in quadrature._RUNGS})


@pytest.mark.parametrize("op", ["heat2", "proto", "chain"])
def test_graded_sweep_against_order_96_sweep(op, balls, monkeypatch):
    # the first 8 criterion-6 "below" points, on exact, bitten and shifted
    # domains: every integral takes the same cells as with 96 nodes per half
    # line on every line and outer range, and stays within 1e-13 of it
    ball = balls[op]
    cfg = QuadratureConfig(time_tol=1e-8, seed=606)
    below = [z for z, cat in exterior_test_points(ExactBall(ball), ball, 72, seed=606)
             if cat == "below"][:8]
    domains = (ExactBall(ball), BittenBall(ball), ShiftedBall(ball, np.full(ball.spec.n, 0.1)))

    def integrals():
        return [kernel_gamma_integral(d, ball, z, cfg,
                                      abs_scale=ball.r * ball.gamma_from_center(z))
                for d in domains for z in below]

    got = integrals()
    _force_order_96(monkeypatch)
    ref = integrals()
    for g, r in zip(got, ref):
        assert g.converged and g.cells == r.cells
        assert abs(g.value - r.value) <= 1e-13 * abs(r.value), (g.value, r.value)


def test_graded_chain_slices_against_order_96_sweep(chain, evaluators, monkeypatch):
    # 300 random chain slices, Gaussians of delta 1e-6 to 2 near and far:
    # within 1e-13 of each slice's quadratic scale of a sweep at 96 nodes per
    # half line everywhere, with every rule of every rung taken by some slice
    taken, stage = set(), []

    def spy(name, kind=None):
        fn = getattr(quadrature, name)

        def wrapped(*args):
            if kind is None:  # a stage: the outer ranges (``_lines``) or the lines
                stage.append(name)
                try:
                    return fn(*args)
                finally:
                    stage.pop()
            if np.size(args[0]):
                taken.add((stage[-1], kind, int(args[2]), kind == "chord" and args[3]))
            return fn(*args)

        monkeypatch.setattr(quadrature, name, wrapped)

    for name, kind in (("_lines", None), ("_line_sweep", None), ("_line_nodes", "half"),
                       ("_chord_nodes", "chord")):
        spy(name, kind)
    cases = [_engine_cases(chain, evaluators["chain"], np.random.default_rng(seed), 100)
             for seed in (7, 8, 9)]

    def sweep():
        return [gaussian_quadratic_stack(sl.center, sl.shape, sl.rho, mean, L, M, qc)
                for sl, _, mean, L, M, qc in cases]

    got = sweep()
    outer = {("_lines", "half", m, False) for _, m in quadrature._RUNGS["outer"]}
    line = {("_line_sweep", "chord", m, True) for _, m in quadrature._RUNGS["chord"]}
    assert taken == outer | line | {("_lines", "chord", 16, False),
                                    ("_line_sweep", "half", quadrature._rung(3, math.inf), False)}
    _force_order_96(monkeypatch)
    for (sl, reach, _, _, M, qc), g, r in zip(cases, got, sweep()):
        size = np.max(np.abs(M), axis=(1, 2)) * (np.max(np.abs(sl.center - qc), axis=1)
                                                 + np.max(reach, axis=1)) ** 2
        assert np.all(np.abs(g - r) <= 1e-13 * size), np.max(np.abs(g - r) / size)
