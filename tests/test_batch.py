"""Point evaluation in batches: a point is the one-row batch, so a row's
bits do not depend on the batch it is evaluated in."""

import inspect

import mpmath
import numpy as np
import pytest

import fockops as fo
from fockops.symbolic import pointwise
from fockops.testing import random_real_preserving_map, random_spd_matrix

HERMITE = fo.hermite_function((3, 2))
# a linear term in the exponent, so that the transform images have one too
F = fo.GaussPoly(HERMITE.poly, HERMITE.P, [0.3, -0.2], 0.1)



def _at(image, z):
    """A closed image at one point, or at each row of a batch."""
    z = np.asarray(z, dtype=complex)
    return image.evaluate(z) if z.ndim == 1 else image.evaluate_many(z)


# eval target -> (coordinates it reads, batch function of ctx and them)
TARGETS = {
    "measure_density": (("z",), fo.measure_density),
    "kernel": (("z", "w"), fo.kernel),
    "eval_norm": (("z",), fo.eval_functional_norm),
    "multiplier": (("x", "z"), fo.multiplier),
    "coherent_state": (("x", "z"), fo.coherent_state),
    "classical_transform": (("z",), lambda ctx, z: _at(fo.segal_bargmann_classical_fn(F), z)),
    "weighted_transform": (("z",), lambda ctx, z: fo.segal_bargmann(ctx, F, z)),
    "gaussian_transform": (("z",),
                           lambda ctx, z: _at(fo.segal_bargmann_gaussian_fn(ctx, F), z)),
}


def _setup(name: str, far: float, rows: int = 200):
    """A block weight at n=2 and ``rows`` seeded points, every tenth one scaled by ``far``."""
    rng = np.random.default_rng(list(TARGETS).index(name) + 70)
    ctx = fo.build_context(random_real_preserving_map(rng, 2, 0.5, 2.5))
    scale = np.where(np.arange(rows) % 10 == 3, far, 0.8)[:, None]
    coords = []
    for key in TARGETS[name][0]:
        real = scale * rng.standard_normal((rows, 2))
        coords.append(real if key == "x" else real + 1j * scale * rng.standard_normal((rows, 2)))
    return ctx, coords


def _bits(values) -> np.ndarray:
    return np.atleast_1d(np.asarray(values, dtype=complex)).view(np.uint64)


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_rows_carry_the_bits_of_one_point_calls(name):
    ctx, coords = _setup(name, 0.8)
    function = TARGETS[name][1]
    batch = function(ctx, *coords)
    assert batch.shape == (200,)
    one_row = [function(ctx, *(c[i:i + 1] for c in coords))[0] for i in range(200)]
    scalar = [function(ctx, *(c[i] for c in coords)) for i in range(200)]
    np.testing.assert_array_equal(_bits(batch), _bits(one_row))
    np.testing.assert_array_equal(_bits(batch), _bits(scalar))


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_rows_of_a_long_batch_carry_the_bits_of_one_point_calls(name):
    # from 256 KiB (16,384 complex rows) numpy runs `array * temporary` in
    # place in the temporary, with the operands swapped, which rounds a
    # complex product differently; 207 rows of a 20,000-row batch
    ctx, coords = _setup(name, 0.8, rows=20_000)
    function = TARGETS[name][1]
    batch = function(ctx, *coords)
    sample = np.arange(0, 20_000, 97)
    one_point = [function(ctx, *(c[i] for c in coords)) for i in sample]
    np.testing.assert_array_equal(_bits(batch[sample]), _bits(one_point))


@pytest.mark.parametrize("name", sorted(set(TARGETS) - {"measure_density"}))
def test_rows_out_of_range_are_the_errors_of_one_point_calls(name):
    ctx, coords = _setup(name, 100.0)
    function = TARGETS[name][1]
    with pytest.raises(fo.RangeOverflowError) as caught:
        function(ctx, *coords)
    err = caught.value
    over = ~np.isnan(err.exponents)
    assert 0 < over.sum() <= 20  # only far points leave the range
    assert err.exponent == np.nanmax(err.exponents)
    for i in np.flatnonzero(over):
        with pytest.raises(fo.RangeOverflowError) as single:
            function(ctx, *(c[i] for c in coords))
        assert err.row(i).payload() == single.value.payload()
    # the rows left in range, evaluated alone, are those of one-point calls
    alone = function(ctx, *(c[~over] for c in coords))
    one_point = [function(ctx, *(c[i] for c in coords)) for i in np.flatnonzero(~over)]
    np.testing.assert_array_equal(_bits(alone), _bits(one_point))


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_a_point_gives_a_python_scalar(name):
    ctx, coords = _setup(name, 0.8)
    value = TARGETS[name][1](ctx, *(c[0] for c in coords))
    assert type(value) is (float if name in ("measure_density", "eval_norm") else complex)


def test_pointwise_makes_a_point_its_one_row_batch():
    calls = []

    @pointwise
    def batch(context, field, x, z):
        """A complex batch function."""
        calls.append((context, field, x, z))
        return context[0] * field(np.asarray(x, dtype=float)[:, 0] + z[:, 0])

    # a kernel's (s, G, E) has no array shape; it and the field pass as they are
    context, field = (2.0, np.eye(1), None), lambda v: v * (1.0 + 0.3j)
    X, Z = np.array([[0.1], [0.7]]), np.array([[0.2 + 0.4j], [0.1 - 0.3j]])
    out = batch(context, field, X, Z)
    assert all(a is b for a, b in zip(calls[-1], (context, field, X, Z)))
    assert out.shape == (2,)

    value = batch(context, field, [0.1], Z[0])  # a list is a point too
    assert calls[-1][0] is context and calls[-1][1] is field
    assert [a.shape for a in calls[-1][2:]] == [(1, 1), (1, 1)]
    assert type(value) is complex
    np.testing.assert_array_equal(_bits(value), _bits(out[0]))

    @pointwise
    def real(context, x):
        return context * np.asarray(x)[:, 0]

    assert type(real(2.0, [0.25])) is float and real(2.0, [0.25]) == 0.5
    assert batch.__name__ == "batch" and batch.__doc__ == "A complex batch function."
    assert list(inspect.signature(batch).parameters) == ["context", "field", "x", "z"]


def _mp_sum_form(u, M, v):
    return mpmath.fsum(u[j] * M[j, k] * v[k] for j in range(M.rows) for k in range(M.cols))


def _mp_kernel(R, T, z, w):
    """The kernel of the block weight (R, T) at 50 digits: H = (R+T)/2 and
    K = (R-T)/2 (both real), c_a^4 = det R det T / det H^2."""
    H, C = (R + T) / 2, (R - T) / 2
    wbar = [mpmath.conj(v) for v in w]
    log_ca = (mpmath.log(mpmath.det(R) * mpmath.det(T)) - 2 * mpmath.log(mpmath.det(H))) / 4
    return mpmath.exp(_mp_sum_form(z, C, z) / 2 + _mp_sum_form(wbar, H, z)
                      + _mp_sum_form(wbar, C, wbar) / 2 - 2 * log_ca)


def _mp_weighted_transform(R, T, z):
    """The weighted transform of H_3(x_1) H_2(x_2) exp(-|x|^2/2) at 50 digits:
    s exp(z.Rz/2) int exp(-(z-x).G(z-x)/2 - |x|^2/2) p(x) dx with G = R + T,
    the square completed around mu = Q^-1 G z, Q = G + I, and the Gaussian
    mean of p taken by the 3-point Gauss-Hermite rule, exact to degree 5."""
    G = R + T
    Q = G + mpmath.eye(2)
    s = ((2 / mpmath.pi) ** mpmath.mpf(0.5) * mpmath.det(G / 2) ** mpmath.mpf(0.75)
         * (mpmath.det(R) * mpmath.det(T)) ** mpmath.mpf(-0.25))
    zv = mpmath.matrix(z)
    mu = mpmath.lu_solve(Q, G * zv)
    lift = mpmath.inverse(mpmath.cholesky(Q).T)
    nodes = [(-mpmath.sqrt(3), mpmath.mpf(1) / 6), (0, mpmath.mpf(2) / 3),
             (mpmath.sqrt(3), mpmath.mpf(1) / 6)]
    mean = 0
    for u1, w1 in nodes:
        for u2, w2 in nodes:
            x = lift * mpmath.matrix([u1, u2]) + mu
            mean += w1 * w2 * (8 * x[0] ** 3 - 12 * x[0]) * (4 * x[1] ** 2 - 2)
    return (s * mpmath.exp(_mp_sum_form(z, R, z) / 2 + _mp_sum_form(mu, Q, mu) / 2
                           - _mp_sum_form(z, G, z) / 2)
            * 2 * mpmath.pi / mpmath.sqrt(mpmath.det(Q)) * mean)


def test_kernel_and_weighted_transform_rows_against_mpmath():
    rng = np.random.default_rng(2026)
    R, T = (random_spd_matrix(rng, 2, 0.5, 2.5) for _ in range(2))
    ctx = fo.build_context(fo.RealLinearMap.from_blocks(R, T))
    Z, W, X = (s * (rng.standard_normal((100, 2)) + 1j * rng.standard_normal((100, 2)))
               for s in (0.6, 0.6, 0.5))
    kernels = fo.kernel(ctx, Z, W)
    transforms = fo.segal_bargmann(ctx, HERMITE, X)
    worst = 0.0
    with mpmath.workdps(50):
        Rm, Tm = mpmath.matrix(R.tolist()), mpmath.matrix(T.tolist())
        for i in range(100):
            z, w, x = ([mpmath.mpc(v) for v in row.tolist()] for row in (Z[i], W[i], X[i]))
            for got, want in ((kernels[i], _mp_kernel(Rm, Tm, z, w)),
                              (transforms[i], _mp_weighted_transform(Rm, Tm, x))):
                worst = max(worst, float(abs(mpmath.mpc(got) - want) / abs(want)))
    assert worst <= 1e-13


def test_kernel_from_densities_against_mpmath():
    # the Gaussian-measure form of the kernel takes its mass and centre from
    # the completed square of its integrand; it must give the 50-digit kernel
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(3):
        R, T = (random_spd_matrix(rng, 2, 0.5, 2.5) for _ in range(2))
        ctx = fo.build_context(fo.RealLinearMap.from_blocks(R, T))
        Z, W = (0.6 * (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
                for _ in range(2))
        with mpmath.workdps(50):
            Rm, Tm = mpmath.matrix(R.tolist()), mpmath.matrix(T.tolist())
            for z, w in zip(Z, W):
                want = _mp_kernel(Rm, Tm, [mpmath.mpc(v) for v in z.tolist()],
                                  [mpmath.mpc(v) for v in w.tolist()])
                got = fo.kernel_from_densities(ctx, z, w)
                worst = max(worst, float(abs(mpmath.mpc(got) - want) / abs(want)))
    assert worst <= 1e-12
