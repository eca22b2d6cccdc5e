import numpy as np
import pytest

from degeo import (DegenerateHessian, InvalidCoefficient, InvalidK,
                   NonPositiveEigenvalue, WaveProfile, from_json_dict,
                   make_custom, make_homogeneous, make_radial_quartic,
                   make_two_well_k, second_variation_spectrum)

RNG = np.random.default_rng(7)


def _smooth_double_well(wells):
    w0 = np.asarray(wells[0], dtype=float)
    w1 = np.asarray(wells[1], dtype=float)

    def W(p):
        p = np.asarray(p, dtype=float)
        d0 = np.sum((p - w0) ** 2, axis=-1)
        d1 = np.sum((p - w1) ** 2, axis=-1)
        return d0 * d1

    return W


def test_homogeneous_values_and_derivatives():
    pot = make_homogeneous(1.5, 2.0)
    p = np.array([2.0, 3.0])
    assert pot.eval_W(p) == pytest.approx(1.5**2 * 4.0 + 4.0 * 9.0)
    assert pot.grad_W(p) == pytest.approx([2 * 1.5**2 * 2.0, 2 * 4.0 * 3.0])
    assert pot.hess_W(p) == pytest.approx(np.diag([2 * 1.5**2, 8.0]))
    # batched evaluation agrees with pointwise
    pts = RNG.normal(size=(5, 2))
    assert pot.eval_W(pts) == pytest.approx([pot.eval_W(q) for q in pts])
    assert pot.grad_W(pts).shape == (5, 2)
    assert pot.hess_W(pts).shape == (5, 2, 2)


def test_homogeneous_well_recovers_rates():
    pot = make_homogeneous(0.7, 1.9)
    (well,) = pot.wells
    assert well.location == pytest.approx([0.0, 0.0])
    assert well.lambda1 == pytest.approx(0.7)
    assert well.lambda2 == pytest.approx(1.9)
    # columns of the frame are orthonormal Hessian eigendirections
    assert well.frame.T @ well.frame == pytest.approx(np.eye(2), abs=1e-12)


def test_homogeneous_rejects_nonpositive_rates():
    with pytest.raises(NonPositiveEigenvalue):
        make_homogeneous(0.0, 1.0)
    with pytest.raises(NonPositiveEigenvalue):
        make_homogeneous(1.0, -2.0)


def test_radial_quartic_values():
    pot = make_radial_quartic(1.0)
    p = np.array([0.6, 0.8])  # r = 1
    assert pot.eval_W(p) == pytest.approx(2.0)
    assert pot.grad_W(p) == pytest.approx(6.0 * p)
    # off-center copy
    pot2 = make_radial_quartic(1.0, center=(1.0, -1.0))
    assert pot2.eval_W(np.array([1.6, -0.2])) == pytest.approx(2.0)
    assert pot2.wells[0].location == pytest.approx([1.0, -1.0])


def test_radial_quartic_negative_b_guard():
    # vanishing circle at 1/sqrt(-b) must lie outside the unit disc
    make_radial_quartic(-0.25)
    make_radial_quartic(np.nextafter(-1.0, 0.0))
    with pytest.raises(InvalidCoefficient):
        make_radial_quartic(-1.0)
    with pytest.raises(InvalidCoefficient):
        make_radial_quartic(-4.0)


def test_two_well_plateau_and_wells():
    pot = make_two_well_k(4.0)
    assert pot.eval_W(np.array([-1.0, 0.0])) == pytest.approx(0.0)
    assert pot.eval_W(np.array([1.0, 0.0])) == pytest.approx(0.0)
    # outside either unit disc W is the constant plateau k^2
    assert pot.eval_W(np.array([3.0, 4.0])) == pytest.approx(16.0)
    assert pot.eval_W(np.array([0.0, 5.0])) == pytest.approx(16.0)
    # quartic bowl inside: r^2 + (k^2-1) r^4 about the nearer well
    r = 0.3
    expected = r**2 + 15.0 * r**4
    assert pot.eval_W(np.array([1.0 + r, 0.0])) == pytest.approx(expected)
    assert pot.eval_W(np.array([-1.0, r])) == pytest.approx(expected)
    # continuous across the matching circle r = 1 about the well at (1, 0)
    inside = pot.eval_W(np.array([2.0 - 1e-9, 0.0]))
    assert inside == pytest.approx(16.0, rel=1e-6)
    assert pot.eval_W(np.array([0.0, 0.0])) == pytest.approx(16.0)
    assert [w.lambda1 for w in pot.wells] == pytest.approx([1.0, 1.0])


def test_two_well_requires_k_above_one():
    for bad in (1.0, 0.5, -3.0):
        with pytest.raises(InvalidK):
            make_two_well_k(bad)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [1.5, 2.0, 4.0])
def test_two_well_is_the_radial_quartic_about_its_nearer_well(k):
    pot = make_two_well_k(k)
    rng = np.random.default_rng(int(4 * k))
    for well in ((-1.0, 0.0), (1.0, 0.0)):
        bowl = make_radial_quartic(k * k - 1.0, center=well)
        # points inside the disc on the well's own side of p1 = 0, and
        # points on its unit circle whose r^2 rounds to exactly 1, where
        # the derivatives are the one-sided values from inside
        t = rng.uniform(0.0, 2.0 * np.pi, size=4000)
        r = np.sqrt(rng.uniform(0.0, 1.0, size=t.size))
        disc = well + np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
        circle = well + np.stack([np.cos(t), np.sin(t)], axis=1)
        q = circle - well
        circle = circle[q[:, 0] ** 2 + q[:, 1] ** 2 == 1.0]
        exact = well + np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                                 [0.0, -1.0], [0.0, 0.0], [0.5, -0.5]])
        pts = np.vstack([disc, circle, exact])
        pts = pts[(pts[:, 0] <= 0.0) == (well[0] < 0.0)]
        assert len(circle) > 100
        w, g = pot.W_and_grad(pts)
        w_ref, g_ref = bowl.W_and_grad(pts)
        assert _same_bits(w, w_ref) and _same_bits(g, g_ref)
        assert _same_bits(pot.hess_W(pts), bowl.hess_W(pts))
    # p1 = 0 (either sign) belongs to the left well and p1 = +1e-17 to the
    # right, though (1e-17, 0) is 1.0 from both wells in floating point
    left = make_radial_quartic(k * k - 1.0, center=(-1.0, 0.0))
    right = make_radial_quartic(k * k - 1.0, center=(1.0, 0.0))
    for p, bowl in (([0.0, 0.0], left), ([-0.0, 0.0], left),
                    ([1e-17, 0.0], right)):
        p = np.array([p])
        assert _same_bits(pot.grad_W(p), bowl.grad_W(p))
        assert _same_bits(pot.hess_W(p), bowl.hess_W(p))
    assert pot.grad_W(np.array([1e-17, 0.0]))[0] < 0.0
    assert pot.grad_W(np.array([0.0, 0.0]))[0] > 0.0


@pytest.mark.parametrize("k", [1.5, 2.0, 4.0])
def test_two_well_plateau_is_flat_and_finite(k):
    pot = make_two_well_k(k)
    # r^2 up to 1e200 overflows nothing: the quartic reads r^2 clipped at 1
    pts = np.array([[3.0, 4.0], [0.0, 5.0], [-0.0, -1.5], [2.5, -0.5],
                    [np.nextafter(2.0, 3.0), 0.0], [-1.0, -1.0 - 1e-15],
                    [1e100, 0.0], [-3.0, -1e100], [7e99, 7e99]])
    with np.errstate(over="raise", invalid="raise"):
        assert np.all(pot.hess_W(pts) == 0.0)
        pot.W_and_grad(pts)
    # farther out r^2 itself overflows to inf, yet W reads the plateau
    far = np.array([[1e200, 0.0], [0.0, 1e200], [-1e200, 3.0],
                    [1e200, -1e200], [-1e200, -1e200]])
    for p in (pts, far):
        with np.errstate(over="ignore"):
            w, g = pot.W_and_grad(p)
        assert np.all(w == k * k) and np.all(g == 0.0)
        # the gradient is 0 * q, a zero with the sign of the offset q
        q = p - np.where(p[:, :1] <= 0.0, [-1.0, 0.0], [1.0, 0.0])
        assert np.array_equal(np.signbit(g), np.signbit(q))


def test_custom_well_data_from_hessian():
    wells = [(-1.0, 0.0), (1.0, 0.0)]
    pot = make_custom(_smooth_double_well(wells), wells=wells)
    assert len(pot.wells) == 2
    for well in pot.wells:
        # W ~ 4 |p - well|^2 near either well, so both rates are sqrt(8/2)
        assert well.lambda1 == pytest.approx(2.0, rel=1e-4)
        assert well.lambda2 == pytest.approx(2.0, rel=1e-4)


def test_custom_finite_difference_fallback():
    pot_fd = make_custom(lambda p: np.sum(np.asarray(p) ** 2, axis=-1) ** 2,
                         wells=())
    for _ in range(10):
        p = RNG.normal(size=2)
        r2 = float(p @ p)
        g_exact = 4.0 * r2 * p
        h_exact = 4.0 * r2 * np.eye(2) + 8.0 * np.outer(p, p)
        assert pot_fd.grad_W(p) == pytest.approx(g_exact, rel=1e-6, abs=1e-8)
        assert pot_fd.hess_W(p) == pytest.approx(h_exact, rel=1e-4, abs=1e-4)


def test_custom_hessian_is_the_difference_of_the_given_gradient():
    # gate 11's double well with grad_W only; its Hessian is
    # 2 (s0 + s1) I + 4 (d0 d1^T + d1 d0^T) with d_i = p - w_i, s_i = |d_i|^2.
    # A difference of the exact gradient divides rounding by the step h, a
    # second difference of W by h^2, which reads 2.4e-6 on these points
    w0, w1 = np.array([-1.0, 0.0]), np.array([1.0, 0.0])

    def grad(p):
        d0, d1 = p - w0, p - w1
        return (2.0 * d0 * np.sum(d1 * d1, axis=-1)[..., None]
                + 2.0 * d1 * np.sum(d0 * d0, axis=-1)[..., None])

    pot = make_custom(_smooth_double_well([w0, w1]), wells=[w0, w1],
                      grad_W=grad)
    pts = np.random.default_rng(11).uniform(-1.5, 1.5, size=(200, 2))
    d0, d1 = pts - w0, pts - w1
    s = np.sum(d0 * d0, axis=1) + np.sum(d1 * d1, axis=1)
    exact = (2.0 * s[:, None, None] * np.eye(2)
             + 4.0 * (d0[:, :, None] * d1[:, None, :]
                      + d1[:, :, None] * d0[:, None, :]))
    err = (np.linalg.norm(pot.hess_W(pts) - exact, axis=(1, 2))
           / np.linalg.norm(exact, axis=(1, 2)))
    assert err.max() <= 1e-8


def test_custom_hessian_is_symmetrized_where_it_is_made():
    def W(p):
        p = np.asarray(p, dtype=float)
        return p[..., 0]**2 + 0.6 * p[..., 0] * p[..., 1] + 2.0 * p[..., 1]**2

    def asym(p):
        out = np.empty((p.shape[0], 2, 2))
        out[:, 0, 0] = 2.0 + p[:, 0]**2
        out[:, 1, 1] = 4.0 + p[:, 1]**2
        out[:, 0, 1] = 1.0 + p[:, 0]
        out[:, 1, 0] = 0.2 + p[:, 1]
        return out

    def sym(p):
        h = asym(p)
        return 0.5 * (h + h.swapaxes(1, 2))

    pot = make_custom(W, wells=[(0.0, 0.0)], hess_W=asym)
    ref = make_custom(W, wells=[(0.0, 0.0)], hess_W=sym)
    pts = RNG.normal(size=(8, 2))
    assert np.array_equal(pot.hess_W(pts), sym(pts))
    # the well data and the wave's second variation see the same matrix
    (well,), (ref_well,) = pot.wells, ref.wells
    assert (well.lambda1, well.lambda2) == (ref_well.lambda1,
                                            ref_well.lambda2)
    assert np.array_equal(well.frame, ref_well.frame)
    y = np.linspace(-1.0, 1.0, 32)
    prof = WaveProfile(y, np.stack([y, 0.5 * y], axis=1), 0.0)
    vals, mode = second_variation_spectrum(prof, pot, 3)
    ref_vals, ref_mode = second_variation_spectrum(prof, ref, 3)
    assert vals == ref_vals and np.array_equal(mode, ref_mode)


def test_custom_scalar_callable_rejected():
    def W(p):
        return float(p[0] ** 2 + 4.0 * p[1] ** 2)

    # the well's finite-difference Hessian asks W for a batch of points
    with pytest.raises(ValueError, match="one value per point"):
        make_custom(W, wells=[(0.0, 0.0)])
    pot = make_custom(W, wells=())
    with pytest.raises(ValueError, match="one value per point"):
        pot.eval_W(RNG.normal(size=(6, 2)))
    quad = make_custom(lambda p: np.sum(np.asarray(p) ** 2, axis=-1),
                       grad_W=lambda p: np.zeros(2))
    with pytest.raises(ValueError, match="one value per point"):
        quad.grad_W(RNG.normal(size=(6, 2)))


def test_non_finite_parameters_rejected():
    nan, inf = np.nan, np.inf
    for rates in ((nan, 2.0), (1.0, inf)):
        with pytest.raises(NonPositiveEigenvalue):
            make_homogeneous(*rates)
    for b in (nan, inf):
        with pytest.raises(InvalidCoefficient):
            make_radial_quartic(b)
    for center in ((nan, 0.0), (0.0, inf), (0.0, 0.0, 1.0)):
        with pytest.raises(ValueError):
            make_radial_quartic(1.0, center=center)
    for k in (nan, inf):
        with pytest.raises(InvalidK):
            make_two_well_k(k)
    # NaN Hessian eigenvalues at a declared well are not positive
    with pytest.raises(DegenerateHessian):
        make_custom(lambda p: np.sum(np.asarray(p) ** 2, axis=-1),
                    wells=[(0.0, 0.0)],
                    hess_W=lambda p: np.full(np.shape(p) + (2,), nan))


def test_degenerate_well_rejected():
    def W(p):
        return np.sum(np.asarray(p) ** 4, axis=-1)

    def hess(p):
        p = np.asarray(p, dtype=float)
        out = 12.0 * p[..., :, None] ** 2 * np.eye(2)
        return out

    with pytest.raises(DegenerateHessian):
        make_custom(W, wells=[(0.0, 0.0)], hess_W=hess)


def test_density_is_F_and_grad_F_bounded_at_well():
    pot = make_homogeneous(1.0, 2.0)
    pts = RNG.normal(size=(16, 2))
    F, gF = pot.density(pts)
    assert np.array_equal(F, pot.eval_F(pts))
    expected = pot.grad_W(pts) / (2.0 * np.sqrt(pot.eval_W(pts)))[:, None]
    assert np.array_equal(gF, expected)
    _, g = pot.density(np.array([1e-12, 0.0]))
    assert np.all(np.isfinite(g))
    assert np.linalg.norm(g) <= 2.0 + 1e-6
    F0, g0 = pot.density(np.zeros(2))
    assert F0 == 0.0 and np.array_equal(g0, np.zeros(2))


def test_density_takes_one_root_bit_for_bit():
    # the reference is the two-root formula grad W / (2 sqrt(max(W, 1e-300)));
    # W = p1, so each point picks its W: negative, zero, subnormal, below
    # and around the 1e-300 floor, normal, huge and non-finite
    pot = make_custom(lambda p: np.asarray(p)[..., 0],
                      grad_W=lambda p: np.asarray(p)[..., 1:] + [1.0, -2.0])
    w = np.concatenate([
        [-1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-310, 1e-305, 1e-301,
         np.nextafter(1e-300, 0.0), 1e-300, np.nextafter(1e-300, 1.0),
         2e-300, 1e-150, 0.25, 1.0, 3e10, 1e300, np.inf, np.nan],
        10.0 ** RNG.uniform(-320.0, 300.0, size=256)])
    pts = np.stack([w, RNG.normal(size=w.size)], axis=1)
    g = pts[:, 1:] + [1.0, -2.0]
    F, gF = pot.density(pts)
    assert np.array_equal(F, np.sqrt(np.maximum(w, 0.0)), equal_nan=True)
    ref = g / (2.0 * np.sqrt(np.maximum(w, 1e-300)))[:, None]
    assert np.array_equal(gF, ref, equal_nan=True)


def _reference_W_and_grad(pot):
    """A built-in's W and grad W as two separate evaluations, each with its
    own preamble, in the arithmetic the one-pass evaluation must keep."""
    if pot.kind == "homogeneous":
        l1s, l2s = pot.params["lambda1"] ** 2, pot.params["lambda2"] ** 2
        return (lambda p: l1s * p[..., 0] ** 2 + l2s * p[..., 1] ** 2,
                lambda p: np.stack([2.0 * l1s * p[..., 0],
                                    2.0 * l2s * p[..., 1]], axis=-1))
    if pot.kind == "radial_quartic":
        b, c = pot.params["b"], np.array(pot.params["center"])

        def W(p):
            r2 = (p[..., 0] - c[0]) ** 2 + (p[..., 1] - c[1]) ** 2
            return r2 + b * r2 ** 2

        def grad(p):
            q = p - c
            r2 = q[..., 0] ** 2 + q[..., 1] ** 2
            return (2.0 + 4.0 * b * r2)[..., None] * q
        return W, grad
    k = pot.params["k"]
    b = k * k - 1.0

    def split(p):
        q = np.atleast_2d(p).copy()
        q[:, 0] -= np.where(q[:, 0] <= 0.0, -1.0, 1.0)
        return q, q[:, 0] ** 2 + q[:, 1] ** 2

    def W(p):
        q, r2 = split(p)
        out = np.where(r2 >= 1.0, k * k, r2 + b * r2 ** 2)
        return out[0] if p.ndim == 1 else out

    def grad(p):
        q, r2 = split(p)
        out = np.where(r2 <= 1.0, 2.0 + 4.0 * b * r2, 0.0)[:, None] * q
        return out[0] if p.ndim == 1 else out
    return W, grad


@pytest.mark.parametrize("pot", [
    make_homogeneous(1.3, 2.2),
    make_radial_quartic(0.8, center=(0.5, -0.25)),
    make_two_well_k(3.0)], ids=["homogeneous", "radial", "two_well"])
def test_one_pass_W_and_grad_bit_for_bit(pot):
    W_ref, grad_ref = _reference_W_and_grad(pot)
    # wells, the centre, the p1 = 0 split and the unit circles r = 1
    special = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.5, -0.25],
                        [0.0, 0.7], [-0.0, -2.0], [2.0, 0.0], [-2.0, 0.0],
                        [1.0, 1.0], [-1.0, -1.0], [1.6, 0.8]])
    for pts in (RNG.normal(scale=1.5, size=(64, 2)), special):
        w, g = pot.W_and_grad(pts)
        assert np.array_equal(w, W_ref(pts)) and np.array_equal(g,
                                                                grad_ref(pts))
        assert np.array_equal(w, pot.eval_W(pts))
        assert np.array_equal(g, pot.grad_W(pts))
        for p in pts:
            w1, g1 = pot.W_and_grad(p)
            assert np.shape(w1) == () and g1.shape == (2,)
            assert w1 == W_ref(p) and np.array_equal(g1, grad_ref(p))
            assert w1 == pot.eval_W(p) and np.array_equal(g1, pot.grad_W(p))


@pytest.mark.parametrize("pot", [
    make_homogeneous(1.3, 2.2),
    make_radial_quartic(0.8, center=(0.5, -0.25)),
    make_two_well_k(3.0),
    make_custom(_smooth_double_well([(-1.0, 0.0), (1.0, 0.0)]),
                wells=[(-1.0, 0.0), (1.0, 0.0)])],
    ids=["homogeneous", "radial", "two_well", "custom_fd"])
def test_hess_W_of_a_point_is_its_row_of_the_batch(pot):
    # the family and finite-difference Hessians see batches only; a single
    # point goes through as a batch of one
    special = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.5, -0.25],
                        [0.0, 0.7], [-0.0, -2.0], [2.0, 0.0], [1.6, 0.8]])
    pts = np.vstack([RNG.normal(scale=1.5, size=(32, 2)), special])
    batch = pot.hess_W(pts)
    assert batch.shape == (len(pts), 2, 2)
    for p, row in zip(pts, batch):
        one = pot.hess_W(p)
        assert one.shape == (2, 2) and np.array_equal(one, row)


def test_custom_hessian_is_called_on_batches_only():
    shapes = []

    def hess(p):
        shapes.append(p.shape)
        return np.broadcast_to(2.0 * np.eye(2), p.shape + (2,))

    pot = make_custom(lambda p: np.sum(np.asarray(p) ** 2, axis=-1),
                      wells=[(0.0, 0.0)], hess_W=hess)
    assert np.array_equal(pot.hess_W(np.array([0.3, 0.4])), 2.0 * np.eye(2))
    assert pot.hess_W(RNG.normal(size=(5, 2))).shape == (5, 2, 2)
    # the first call is the well's own Hessian
    assert shapes == [(1, 2), (1, 2), (5, 2)]


def _three_wells():
    wells = [(-1.0, 0.0), (1.0, 0.0), (0.0, 2.0)]

    def W(p):
        p = np.asarray(p, dtype=float)
        return np.prod([np.sum((p - w) ** 2, axis=-1) for w in wells],
                       axis=0)

    return make_custom(W, wells=wells)


@pytest.mark.parametrize("pot", [make_homogeneous(1.3, 2.2),
                                 make_two_well_k(3.0), _three_wells()],
                         ids=["one_well", "two_wells", "three_wells"])
def test_nearest_well_is_the_brute_force_min_and_argmin(pot):
    # ties: the p1 = 0 axis is equidistant from (-1, 0) and (1, 0), and
    # (0, 0.75) is 1.25 from all three wells of the custom potential
    ties = np.array([[0.0, 0.0], [0.0, 0.75], [-0.0, -3.0], [0.0, 1e-300]])
    pts = np.vstack([RNG.normal(scale=2.0, size=(64, 2)), ties,
                     [w.location for w in pot.wells]])
    dist, idx = pot.nearest_well(pts)
    norms = [np.linalg.norm(pts - w.location, axis=1) for w in pot.wells]
    for j in range(len(pts)):
        best = 0
        for i in range(1, len(norms)):
            if norms[i][j] < norms[best][j]:
                best = i
        assert idx[j] == best and dist[j] == norms[best][j]
    assert idx.shape == dist.shape == (len(pts),)
    assert np.all(idx[len(pts) - len(ties) - len(pot.wells):
                      len(pts) - len(pot.wells)] == 0)
    assert np.array_equal(dist[-len(pot.wells):], np.zeros(len(pot.wells)))


def test_one_pass_keeps_the_per_point_check():
    def W(p):
        return np.sum(np.asarray(p) ** 2, axis=-1)

    bad_W = make_custom(lambda p: 1.0, wells=())
    bad_grad = make_custom(W, grad_W=lambda p: np.zeros(2))
    pts = RNG.normal(size=(6, 2))
    for pot in (bad_W, bad_grad):
        with pytest.raises(ValueError, match="one value per point"):
            pot.W_and_grad(pts)
        with pytest.raises(ValueError, match="one value per point"):
            pot.density(pts)
    good = make_custom(W, grad_W=lambda p: 2.0 * np.asarray(p))
    w, g = good.W_and_grad(pts)
    assert np.array_equal(w, W(pts)) and np.array_equal(g, 2.0 * pts)


def test_json_roundtrip_builtin_kinds():
    # a built-in's kind and params, as a config writes them, rebuild it
    originals = [make_homogeneous(1.3, 2.2),
                 make_radial_quartic(0.8, center=(0.5, 0.0)),
                 make_two_well_k(3.0)]
    pts = RNG.normal(size=(8, 2))
    for pot in originals:
        clone = from_json_dict({"kind": pot.kind, "params": pot.params})
        assert clone.kind == pot.kind and clone.params == pot.params
        assert np.array_equal(clone.eval_W(pts), pot.eval_W(pts))
    with pytest.raises(ValueError):
        from_json_dict({"kind": "nope", "params": {}})


@pytest.mark.parametrize("kind, params", [
    ("homogeneous", {"lambda1": 1.0, "lambda2": 2.0}),
    ("radial_quartic", {"b": 1.0, "center": [0.0, 0.0]}),
    ("two_well", {"k": 4.0})])
def test_from_json_dict_rejects_a_parameter_its_family_does_not_take(
        kind, params):
    # every accepted name builds the potential; one more is named in the
    # message, not dropped
    assert from_json_dict({"kind": kind, "params": params}).kind == kind
    for extra in ("typo", "lambda3", "r_max",
                  "k" if kind != "two_well" else "b"):
        with pytest.raises(ValueError, match=f"{kind} potential takes no "
                                             f"parameter '{extra}'"):
            from_json_dict({"kind": kind, "params": {**params, extra: 3}})


def test_length_scale_is_the_well_separation_else_the_chord_else_one():
    assert make_two_well_k(2.0).length_scale(
        (0.0, 0.0), (3.0, 4.0)) == pytest.approx(2.0)
    single = make_homogeneous(1.0, 1.0)
    assert single.length_scale((0.0, 0.0), (3.0, 4.0)) == 5.0
    assert single.length_scale((1.0, 2.0), (1.0, 2.0)) == 1.0


def test_well_separation_and_far_circle():
    pot = make_two_well_k(2.0)
    assert pot.well_separation() == pytest.approx(2.0)
    assert make_homogeneous(1.0, 1.0).well_separation() is None
