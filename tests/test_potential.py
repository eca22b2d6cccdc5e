import numpy as np
import pytest

from degeo import (DegenerateHessian, InvalidCoefficient, InvalidK,
                   NonPositiveEigenvalue, from_json_dict, make_custom,
                   make_homogeneous, make_radial_quartic, make_two_well_k)

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
    # vanishing circle at 1/sqrt(-b) must lie outside the working disc
    make_radial_quartic(-0.25, r_max=1.0)
    with pytest.raises(InvalidCoefficient):
        make_radial_quartic(-1.0, r_max=1.0)
    with pytest.raises(InvalidCoefficient):
        make_radial_quartic(-0.25, r_max=2.0)


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
    for kwargs in ({"center": (nan, 0.0)}, {"center": (0.0, 0.0, 1.0)},
                   {"r_max": nan}, {"r_max": inf}, {"r_max": 0.0}):
        with pytest.raises(ValueError):
            make_radial_quartic(1.0, **kwargs)
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
    make_radial_quartic(0.8, center=(0.5, -0.25), r_max=1.1),
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
    originals = [make_homogeneous(1.3, 2.2),
                 make_radial_quartic(0.8, center=(0.5, 0.0), r_max=2.0),
                 make_two_well_k(3.0)]
    pts = RNG.normal(size=(8, 2))
    for pot in originals:
        clone = from_json_dict(pot.to_json_dict())
        assert clone.kind == pot.kind
        assert clone.eval_W(pts) == pytest.approx(pot.eval_W(pts))
    with pytest.raises(ValueError):
        from_json_dict({"kind": "nope", "params": {}})
    with pytest.raises(ValueError):
        make_custom(lambda p: 1.0, wells=()).to_json_dict()


def test_well_separation_and_far_circle():
    pot = make_two_well_k(2.0)
    assert pot.well_separation() == pytest.approx(2.0)
    assert pot.min_on_far_circle() > 0.0
    assert make_homogeneous(1.0, 1.0).well_separation() is None
