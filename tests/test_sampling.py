"""The lockstep L-BFGS driver and the Gram-Cholesky QR kernel of the descents."""

import numpy as np
import pytest

from entloc.sampling import (gram_cholesky_qr, gram_cholesky_qr_backward, lockstep_lbfgs,
                             phase_fixed_qr)

# L-BFGS-B's default stop tests (the roof's), and the LE descent's
DEFAULT_TOLS = dict(ftol=2.220446049250313e-09, gtol=1e-5)
TIGHT_TOLS = dict(ftol=1e-15, gtol=1e-10)


def rosenbrock(x):
    """The chained Rosenbrock function of every row and its gradient."""
    a, b = x[:, :-1], x[:, 1:]
    grad = np.zeros_like(x)
    grad[:, :-1] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
    grad[:, 1:] += 200.0 * (b - a * a)
    return np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=1), grad


def separable_quadratic(seed, n):
    """0.5 sum_j a_j (x_j - c_j)^2 with curvatures a_j over four decades."""
    rng = np.random.default_rng(seed)
    a, c = 10.0 ** rng.uniform(-2, 2, n), rng.standard_normal(n)

    def fun_and_grad(x):
        return 0.5 * np.sum(a * (x - c) ** 2, axis=1), a * (x - c)
    return fun_and_grad


CASES = [
    ("rosenbrock", rosenbrock, 1.5 * np.random.default_rng(0).standard_normal((6, 8))),
    ("quadratic", separable_quadratic(1, 30),
     3.0 * np.random.default_rng(2).standard_normal((5, 30))),
    ("quadratic 2", separable_quadratic(3, 7), np.random.default_rng(4).standard_normal((4, 7))),
]


@pytest.mark.parametrize("tols", [DEFAULT_TOLS, TIGHT_TOLS], ids=["default", "tight"])
@pytest.mark.parametrize("name,fun,x0", CASES, ids=[c[0] for c in CASES])
def test_rows_run_as_if_alone(name, fun, x0, tols):
    x, f, iters, evals, success, stop = lockstep_lbfgs(fun, x0, **tols)
    if name == "rosenbrock":
        assert len(set(evals)) > 1  # rows leave the lockstep at different rounds
    for i in range(len(x0)):
        ax, af, aiters, aevals, asuccess, astop = lockstep_lbfgs(fun, x0[i:i + 1], **tols)
        np.testing.assert_array_equal(x[i], ax[0])
        assert (f[i], iters[i], evals[i], success[i], stop[i]) == (
            af[0], aiters[0], aevals[0], asuccess[0], astop[0])


# the 30-dimensional quadratic runs at the tight tolerances only: its ~250
# iterations at condition 1e4 round the two paths apart, and the default
# relative-reduction stop fixes f only to ~1e-7 there
REFERENCE_CASES = [(case, tols) for case in CASES for tols in (DEFAULT_TOLS, TIGHT_TOLS)
                   if case[0] != "quadratic" or tols is TIGHT_TOLS]


@pytest.mark.parametrize("case,tols", REFERENCE_CASES,
                         ids=[f"{c[0]}-{t['gtol']:g}" for c, t in REFERENCE_CASES])
def test_final_values_match_lbfgsb(case, tols):
    _, fun, x0 = case
    minimize = pytest.importorskip("scipy.optimize").minimize
    _, f, _, _, success, _ = lockstep_lbfgs(fun, x0, **tols)
    assert success.all()
    for i, start in enumerate(x0):
        res = minimize(lambda z: tuple(a[0] for a in fun(z[None])), start, jac=True,
                       method="L-BFGS-B", options=tols)
        assert f[i] == pytest.approx(res.fun, abs=1e-10)


def test_unimprovable_row_stops_after_one_failed_search():
    # a flat value under a nonzero gradient, as a difference gradient at the
    # rounding floor gives: no trial step lowers f, so the first line search
    # fails after its 20 evaluations and the row stays where it started
    def fun_and_grad(x):
        flat = x[:, 2] > 10.0  # the first row's points, and only those
        value, grad = rosenbrock(x)
        return np.where(flat, 1.0, value), np.where(flat[:, None], 1.0, grad)

    x0 = np.array([[0.3, -0.2, 50.0], [-1.2, 1.0, 0.4]])
    x, f, iters, evals, success, stop = lockstep_lbfgs(fun_and_grad, x0, **TIGHT_TOLS)
    assert (stop[0], bool(success[0]), iters[0], evals[0]) == ("line search", False, 0, 21)
    np.testing.assert_array_equal(x[0], x0[0])
    assert f[0] == 1.0
    # the other row converges as it would alone
    alone = lockstep_lbfgs(rosenbrock, x0[1:], **TIGHT_TOLS)
    np.testing.assert_array_equal(x[1], alone[0][0])
    assert (f[1], iters[1], evals[1], stop[1]) == (alone[1][0], alone[2][0], alone[3][0],
                                                   alone[5][0])


def test_row_at_the_rounding_floor_stops_on_ftol():
    # the first step lands at (0, -5e-10), where |g| = 1e-9 is above gtol
    # but the next search predicts a decrease of 5e-19 at step 1, below the
    # rounding of f = 1: the row stops there on "ftol", with no trial of a
    # search that cannot resolve a decrease
    def fun_and_grad(x):
        return 1.0 + np.sum(x * x, axis=1) + 1e-9 * x.sum(axis=1), 2.0 * x + 1e-9

    x, f, iters, evals, success, stop = lockstep_lbfgs(
        fun_and_grad, np.array([[1.0, 0.0]]), **TIGHT_TOLS)
    assert (stop[0], bool(success[0]), iters[0], evals[0]) == ("ftol", True, 1, 2)
    assert np.max(np.abs(fun_and_grad(x)[1])) > TIGHT_TOLS["gtol"]
    np.testing.assert_allclose(x[0], [0.0, -5e-10], rtol=0, atol=1e-15)
    assert f[0] == 1.0


def test_stationary_start_stops_at_once():
    x0 = np.array([[1.0, 1.0, 1.0], [0.0, 0.5, 0.0]])
    x, f, iters, evals, success, stop = lockstep_lbfgs(rosenbrock, x0, **DEFAULT_TOLS)
    assert (stop[0], bool(success[0]), iters[0], evals[0]) == ("gtol", True, 0, 1)
    assert stop[1] != "" and iters[1] > 0


def test_iteration_cap():
    # a row stops after max_iters iterations; 0 leaves every row at its start
    x0 = np.array([[-1.2, 1.0, 0.5], [1.0, 1.0, 1.0]])
    full = lockstep_lbfgs(rosenbrock, x0[:1], **TIGHT_TOLS)
    assert full[2][0] > 5
    x, f, iters, evals, success, stop = lockstep_lbfgs(rosenbrock, x0, **TIGHT_TOLS, max_iters=5)
    assert (iters[0], stop[0], bool(success[0])) == (5, "max_iters", False)
    assert (iters[1], stop[1], bool(success[1])) == (0, "gtol", True)
    x, f, iters, evals, success, stop = lockstep_lbfgs(rosenbrock, x0, **TIGHT_TOLS, max_iters=0)
    np.testing.assert_array_equal(x, x0)
    assert list(iters) == [0, 0] and list(evals) == [1, 1]
    assert stop == ("max_iters", "gtol")


# the shapes the descents factor: the roof's (r + 2, r) pre-images and the
# LE's (d^2, d) ones
KERNEL_SHAPES = [(4, 2), (5, 3), (6, 4), (9, 3), (16, 4)]


def gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_kernel_is_the_phase_fixed_qr(shape):
    rng = np.random.default_rng(sum(shape))
    x = gaussian(rng, (8,) + shape)
    q, l_inv = gram_cholesky_qr(x)
    want_q, want_r = phase_fixed_qr(x)
    np.testing.assert_allclose(q, want_q, atol=1e-13, rtol=0)
    r = np.linalg.inv(l_inv).conj().swapaxes(-1, -2)
    np.testing.assert_allclose(r, want_r, atol=1e-13, rtol=0)


@pytest.mark.parametrize("shape", [(4, 2), (5, 3), (9, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_kernel_backward_matches_central_differences(shape, central_gradient):
    # f(Q) = Re tr(A^H Q) + sum |Q_ij|^4, which depends on Q's phases, so
    # the gradient goes through the whole factorization
    rng = np.random.default_rng(10 + sum(shape))
    x, a = gaussian(rng, shape), gaussian(rng, shape)

    def f(y):
        q = gram_cholesky_qr(y)[0]
        return float(np.sum((a.conj() * q).real) + np.sum(np.abs(q) ** 4))

    q, l_inv = gram_cholesky_qr(x)
    grad = gram_cholesky_qr_backward(q, l_inv, a + 4.0 * np.abs(q) ** 2 * q)
    np.testing.assert_allclose(grad, central_gradient(f, x), atol=1e-8, rtol=0)


@pytest.mark.parametrize("shape", [(5, 3), (4, 4), (6, 1), (16, 4)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_kernel_stack_matches_each_matrix(shape):
    rng = np.random.default_rng(20 + sum(shape))
    x, g_q = gaussian(rng, (3,) + shape), gaussian(rng, (3,) + shape)
    q, l_inv = gram_cholesky_qr(x)
    stacked = gram_cholesky_qr_backward(q, l_inv, g_q)
    for i in range(3):
        qi, li = gram_cholesky_qr(x[i])
        np.testing.assert_allclose(q[i], qi, atol=1e-14, rtol=0)
        np.testing.assert_allclose(l_inv[i], li, atol=1e-14, rtol=0)
        np.testing.assert_allclose(stacked[i], gram_cholesky_qr_backward(qi, li, g_q[i]),
                                   atol=1e-13, rtol=0)


@pytest.mark.parametrize("bad", ["zero column", "nan", "inf"])
def test_kernel_marks_only_a_failed_matrix(bad):
    # a Gram that is not numerically positive definite raises nothing: its
    # matrix gets non-finite Q, L^-1 and gradient, and the others are bit for
    # bit those of the stack without it
    rng = np.random.default_rng(30)
    x, g_q = gaussian(rng, (4, 5, 3)), gaussian(rng, (4, 5, 3))
    broken = x.copy()
    if bad == "zero column":
        broken[1, :, 2] = 0.0
    else:
        broken[1, 3, 1] = getattr(np, bad)
    with np.errstate(invalid="ignore"):  # inf times 0 in the Gram
        q, l_inv = gram_cholesky_qr(broken)
        grad = gram_cholesky_qr_backward(q, l_inv, g_q)
    for a in (q, l_inv, grad):
        assert not np.isfinite(a[1]).any()
    want_q, want_l_inv = gram_cholesky_qr(x)
    want_grad = gram_cholesky_qr_backward(want_q, want_l_inv, g_q)
    for got, want in ((q, want_q), (l_inv, want_l_inv), (grad, want_grad)):
        np.testing.assert_array_equal(got[[0, 2, 3]], want[[0, 2, 3]])
