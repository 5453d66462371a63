import json
import math
import re
import warnings
from math import gamma

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from fracops import transmute
from fracops.grid import SampledFunction1D, UniformGrid1D, l1_distance, sample, sample_array
from fracops.rl_core import rl_integral
from fracops.transmute import (
    Integrator,
    Jump,
    Segment,
    _BLOCK,
    _NEAR,
    _far_field_exponentials,
    _gauss_jacobi,
    _image_mesh,
    _piece_nodes,
    _piece_values,
    _sum_of_exponentials,
    identity_integrator,
    integrator_from_dict,
    integrator_to_dict,
    linear_integrator,
    load_integrator,
    pullback_to_image,
    pushforward_measure,
    rl_wrt_phi_direct,
    rl_wrt_phi_transmuted,
    transmutation_residual,
    unit_jump_integrator,
)

SUBSTITUTION_VALUE = 2.0 ** 0.5 * 2.0 / math.sqrt(math.pi)  # 2^a * I^a 1 at t=1, a=1/2


def exp_integrator():
    # phi(s) = e^s on [0, 1]
    return Integrator((Segment(0.0, 1.0, "exp", (0.0, 1.0, 1.0)),))


def off_grid_jump_integrator():
    # phi(s) = s on [0, 1/3] and s + 1/2 on [1/3, 1]: the boundary is never a node
    third = 1.0 / 3.0
    return Integrator(
        (
            Segment(0.0, third, "poly", (0.0, 1.0)),
            Segment(third, 1.0, "poly", (0.5, 1.0)),
        ),
        (Jump(third, 0.5),),
    )


# ------------------------------------------------------------- measure layer


def test_pushforward_identity_is_lebesgue():
    phi = identity_integrator(0.0, 1.0)
    assert pushforward_measure(phi, 0.0, 1.0) == 1.0


def test_pushforward_ignores_jumps():
    phi = unit_jump_integrator()
    assert pushforward_measure(phi, 0.0, 1.0) == 1.0


def test_pushforward_scaling():
    phi = linear_integrator(0.0, 1.0, 2.0)
    assert pushforward_measure(phi, 0.25, 0.75) == pytest.approx(1.0, abs=1e-15)


def test_pushforward_domain_check():
    phi = identity_integrator(0.0, 1.0)
    with pytest.raises(ValueError, match="domain"):
        pushforward_measure(phi, -0.5, 0.5)


def test_image_set_total_length_matches_value_minus_jumps():
    # the pushforward measure of [u, v] is the total length of its image set
    phi = unit_jump_integrator()
    assert pushforward_measure(phi, 0.0, 0.75) == phi.value(0.75) - phi.value(0.0) - 1.0
    for s in (0.0, 0.25, 0.5, 1.0):
        assert pushforward_measure(phi, s, s) == 0.0
    # an interval may end on the jump point: only the image of [0, 1/2] counts
    assert pushforward_measure(phi, 0.0, 0.5) == 0.5
    assert pushforward_measure(phi, 0.5, 1.0) == 0.5


def test_jump_value_is_right_limit():
    phi = unit_jump_integrator()
    assert phi.value(0.5) == 1.5


def test_value_on_array_matches_scalar_calls():
    phi = off_grid_jump_integrator()
    s = np.array([[0.0, 0.1, 1.0 / 3.0], [0.5, 0.9, 1.0]])
    vals = phi.value(s)
    assert vals.shape == s.shape
    assert np.array_equal(vals, [[phi.value(float(x)) for x in row] for row in s])
    assert isinstance(phi.value(0.25), float)
    assert vals[0, 2] == 1.0 / 3.0 + 0.5  # right limit at the jump
    with pytest.raises(ValueError, match="domain"):
        phi.value(np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="domain"):
        phi.value(-0.1)


# ------------------------------------------------------------- composition


def test_round_trip_through_image_at_interior_nodes():
    # pull back and re-compose: exact where image nodes land on the grid
    phi = linear_integrator(0.0, 1.0, 2.0)
    g = UniformGrid1D(0.0, 1.0, 64)
    f = sample(lambda t: math.cos(3.0 * t), g)
    pulled = pullback_to_image(phi, f)
    back = np.interp(phi.value(g.nodes), pulled.grid.nodes, pulled.values)
    assert np.abs(back - f.values).max() < 1e-13


# ------------------------------------------------------------- direct route


def test_direct_identity_matches_plain_integral():
    phi = identity_integrator(0.0, 1.0)
    g = UniformGrid1D(0.0, 1.0, 256)
    f = sample(math.cos, g)
    direct = rl_wrt_phi_direct(0.5, phi, f)
    assert l1_distance(direct, rl_integral(0.5, f)) < 1e-10
    # a second oracle for the direct route: on the identity integrator it is
    # the plain integral to rounding, across the history and exact-rule orders
    for n in (7, 64, 4096):
        f = sample(lambda t: math.cos(3.0 * t) + t * t, UniformGrid1D(0.0, 1.0, n))
        for alpha in (0.3, 1.0, 2.5):
            ref = rl_integral(alpha, f).values
            err = np.abs(rl_wrt_phi_direct(alpha, phi, f).values - ref).max()
            assert err <= 1e-14 * np.abs(ref).max(), (n, alpha, err)


def test_direct_scaling_unit_order():
    phi = linear_integrator(0.0, 1.0, 2.0)
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 512))
    out = rl_wrt_phi_direct(1.0, phi, f)
    assert abs(out.values[-1].real - 2.0) < 1e-6


def test_direct_scaling_half_order_closed_form():
    phi = linear_integrator(0.0, 1.0, 2.0)
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 2048))
    out = rl_wrt_phi_direct(0.5, phi, f)
    assert abs(out.values[-1].real - SUBSTITUTION_VALUE) < 1e-3


def test_direct_jump_unit_order_value():
    # integral over the image of [0,1] with unit kernel = pushforward measure
    phi = unit_jump_integrator()
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 1024))
    out = rl_wrt_phi_direct(1.0, phi, f)
    assert abs(out.values[-1].real - 1.0) < 1e-6


def test_direct_jump_against_quadrature_oracle():
    # scipy evaluates the two image pieces of the defining integral at t = 1
    phi = unit_jump_integrator()
    grid = UniformGrid1D(0.0, 1.0, 4096)
    f = sample(lambda t: t, grid)
    out = rl_wrt_phi_direct(0.5, phi, f)
    x_img = 2.0  # phi(1)
    piece1, _ = quad(lambda u: (x_img - u) ** (-0.5) * u, 0.0, 0.5)
    piece2, _ = quad(
        lambda u: (x_img - u) ** (-0.5) * (u - 1.0), 1.5, 2.0, points=[2.0]
    )
    oracle = (piece1 + piece2) / gamma(0.5)
    assert abs(out.values[-1].real - oracle) < 1e-6


def test_direct_off_grid_boundary_against_quadrature_oracle():
    phi = off_grid_jump_integrator()
    alpha = 0.5
    grid = UniformGrid1D(0.0, 1.0, 4096)
    out = rl_wrt_phi_direct(alpha, phi, sample(lambda t: t, grid))
    third = 1.0 / 3.0
    for m in (3000, 4096):
        x_img = grid.nodes[m] + 0.5
        piece1, _ = quad(lambda u: (x_img - u) ** (alpha - 1.0) * u, 0.0, third)
        piece2, _ = quad(
            lambda u: u - 0.5, third + 0.5, x_img, weight="alg", wvar=(0.0, alpha - 1.0)
        )
        oracle = (piece1 + piece2) / gamma(alpha)
        assert abs(out.values[m].real - oracle) < 1e-9


def test_direct_left_endpoint_zero():
    phi = unit_jump_integrator()
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 64))
    assert rl_wrt_phi_direct(0.7, phi, f).values[0] == 0.0


def _singular_piece_quadrature(alpha, x_img, unodes, gv):
    # exact product quadrature of (x_img - u)^(alpha-1) g(u) over one image
    # piece, g piecewise linear between image nodes
    r = np.maximum(x_img - unodes, 0.0)
    ra = r ** alpha
    rb = r ** (alpha + 1.0)
    m0 = (ra[:-1] - ra[1:]) / alpha
    m1 = r[:-1] * m0 - (rb[:-1] - rb[1:]) / (alpha + 1.0)
    du = np.diff(unodes)
    keep = du > 1e-15 * max(1.0, abs(x_img))
    slope_w = np.zeros_like(m1)
    slope_w[keep] = m1[keep] / du[keep]
    terms = gv[:-1] * (m0 - slope_w) + gv[1:] * slope_w
    return complex(terms.sum())


def per_node_direct(alpha, phi, g):
    # oracle: every node sums the exact rule over its whole image-mesh prefix
    mesh = _image_mesh(phi, g.grid)
    u, ends = mesh.u, mesh.ends
    [gv] = mesh.values([g.values])
    out = np.zeros(g.grid.N + 1, dtype=np.complex128)
    for m, k in enumerate(ends[1:], 1):
        out[m] = _singular_piece_quadrature(alpha, u[k - 1], u[:k], gv[:k]) / gamma(alpha)
    return out


def per_segment_direct(alpha, phi, g):
    # oracle: every node sums one quadrature per segment it has entered,
    # read on that segment's own nodes, so the gaps never enter the sum
    nodes = g.grid.nodes
    x_img = phi.value(nodes)
    pieces = []
    for seg in phi.segments:
        snodes, inner = _piece_nodes(nodes, seg.lo, seg.hi)
        gv = _piece_values(nodes, g.values, seg.lo, seg.hi, inner)
        pieces.append((seg.eval(snodes), gv, np.searchsorted(snodes, nodes, side="right")))
    out = np.zeros(g.grid.N + 1, dtype=np.complex128)
    for m in range(1, g.grid.N + 1):
        acc = 0.0 + 0.0j
        for unodes, gv, ends in pieces:
            k = ends[m]  # node t_m lies beyond the segment start iff k >= 2
            if k >= 2:
                acc += _singular_piece_quadrature(alpha, x_img[m], unodes[:k], gv[:k])
        out[m] = acc / gamma(alpha)
    return out


def cubic_exp_jump_integrator():
    # cubic s + s^3 on [0, 1/2], then an exponential one unit higher
    e0 = 0.625 + 1.0 - math.exp(0.5)
    return Integrator(
        (
            Segment(0.0, 0.5, "poly", (0.0, 1.0, 0.0, 1.0)),
            Segment(0.5, 1.0, "exp", (e0, 1.0, 1.0)),
        ),
        (Jump(0.5, 1.0),),
    )


def seamed_integrator():
    # continuous: s, then 0.09 + 0.4 s + s^2 from 0.3, then an exponential from 0.6
    return Integrator(
        (
            Segment(0.0, 0.3, "poly", (0.0, 1.0)),
            Segment(0.3, 0.6, "poly", (0.09, 0.4, 1.0)),
            Segment(0.6, 1.0, "exp", (0.69 - math.exp(0.6), 1.0, 1.0)),
        )
    )


def stretched(phi, c):
    # phi(s / c) on [c a, c T], with the same jump sizes
    def coefficients(seg):
        if seg.kind == "exp":
            c0, c1, c2 = seg.coefficients
            return (c0, c1, c2 / c)
        return tuple(k / c**n for n, k in enumerate(seg.coefficients))

    return Integrator(
        tuple(Segment(c * s.lo, c * s.hi, s.kind, coefficients(s)) for s in phi.segments),
        tuple(Jump(c * j.at, j.size) for j in phi.jumps),
    )


IMAGE_MESH_INTEGRATORS = pytest.mark.parametrize(
    "phi",
    [
        unit_jump_integrator(),
        off_grid_jump_integrator(),
        cubic_exp_jump_integrator(),
        seamed_integrator(),
    ],
    ids=["unit-jump", "off-grid-jump", "cubic-exp", "seams"],
)


@IMAGE_MESH_INTEGRATORS
def test_direct_image_mesh_matches_per_segment_sums(phi):
    for n in (1, 2, 7, 4096):
        grid = UniformGrid1D(0.0, 1.0, n)
        real = sample(lambda t: math.cos(3.0 * t) + 1.0, grid)
        cplx = sample(lambda t: (1.0 + t) * complex(math.cos(2 * t), math.sin(2 * t)), grid)
        assert np.array_equal(_image_mesh(phi, grid).x, phi.value(grid.nodes))  # right limits
        for alpha in (0.3, 1.0, 2.5):
            for g in (real, cplx):
                got = rl_wrt_phi_direct(alpha, phi, g)
                ref = per_segment_direct(alpha, phi, g)
                assert np.abs(got.values - ref).max() <= 1e-14 * np.abs(ref).max(), (n, alpha)
                assert got.values[0] == 0.0
                assert got.is_real == (g is real)
    # the last node 3 + 4.4e-16 lies past T: the transmuted route reads
    # phi(min(t, T)), which must be the direct route's image bits
    scaled = stretched(phi, 3.0)
    grid = UniformGrid1D(0.0, 3.0, 187)
    assert grid.nodes[-1] > scaled.T
    assert np.array_equal(
        _image_mesh(scaled, grid).x, scaled.value(np.minimum(grid.nodes, scaled.T))
    )


@IMAGE_MESH_INTEGRATORS
def test_direct_nonnegative_input_gives_exactly_nonnegative_output(phi):
    # exactness gate: every weight, near or far, is nonnegative, so a
    # nonnegative real g gives an exactly nonnegative real result
    probes = (
        lambda t: max(t - 0.4, 0.0),  # a ramp after a zero prefix
        lambda t: abs(math.sin(40.0 * t)),
        lambda t: 1e-300 * t,
    )
    for n in (1, 2, 7, 129, 4096):
        grid = UniformGrid1D(0.0, 1.0, n)
        for expr in probes:
            g = sample(expr, grid)
            for alpha in (0.05, 0.3, 0.5, 0.95, 1.0, 2.5):
                out = rl_wrt_phi_direct(alpha, phi, g).values
                assert np.all(out.real >= 0.0), (n, alpha)
                assert np.all(out.imag == 0.0), (n, alpha)
                assert out[0] == 0.0


@pytest.mark.parametrize("phi", [unit_jump_integrator(), cubic_exp_jump_integrator()],
                         ids=["unit-jump", "cubic-exp"])
def test_direct_block_edges_match_per_node_loop(phi):
    # node counts around the near-field width and the block length: from
    # N = _BLOCK + 1 on, the last block reads its far field from the history
    for n in (_NEAR - 1, _NEAR, _NEAR + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1):
        grid = UniformGrid1D(0.0, 1.0, n)
        for g in (
            sample(lambda t: math.cos(3.0 * t) + 1.0, grid),
            sample(lambda t: (1.0 + t) * complex(math.cos(2 * t), math.sin(2 * t)), grid),
        ):
            for alpha in (0.05, 0.5, 0.95, 1.5):
                got = rl_wrt_phi_direct(alpha, phi, g).values
                ref = per_node_direct(alpha, phi, g)
                assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), (n, alpha)


BATCH_PROBES = {
    "wave": lambda t: np.cos(3.0 * t) + 1.0,
    "ramp": lambda t: np.maximum(t - 0.4, 0.0),  # zero cells at the start
    "spiral": lambda t: (1.0 + t) * np.exp(2j * t),
    "turn": lambda t: -t * np.exp(-1j * t),
}


@pytest.mark.parametrize(
    "phi",
    [unit_jump_integrator(), off_grid_jump_integrator(), cubic_exp_jump_integrator()],
    ids=["unit-jump", "jump-at-third", "cubic-exp"],
)
def test_batched_direct_equals_one_call_per_function(phi):
    # every function of a batch gets the arithmetic of a call of its own, bit
    # for bit: real, complex and mixed batches, history and exact-rule orders
    batches = (["wave", "ramp"], ["spiral", "turn"], ["spiral", "wave", "turn", "ramp"])
    for n in (1, 7, 64, 4096):
        grid = UniformGrid1D(0.0, 1.0, n)
        gs = {name: sample_array(expr, grid) for name, expr in BATCH_PROBES.items()}
        for alpha in (0.3, 0.5, 0.999, 1.3, 2.5):
            alone = {name: rl_wrt_phi_direct(alpha, phi, g) for name, g in gs.items()}
            for names in batches:
                batched = rl_wrt_phi_direct(alpha, phi, [gs[name] for name in names])
                assert isinstance(batched, list) and len(batched) == len(names)
                for name, out in zip(names, batched):
                    assert out.grid == grid
                    assert out.values.tobytes() == alone[name].values.tobytes(), (
                        n, alpha, names, name)
            for name in ("wave", "ramp"):
                assert np.all(alone[name].values.imag == 0.0), (n, alpha, name)


def test_direct_batch_and_mesh_are_checked():
    phi = unit_jump_integrator()
    g = sample_array(np.ones_like, UniformGrid1D(0.0, 1.0, 16))
    with pytest.raises(ValueError, match="at least one"):
        rl_wrt_phi_direct(0.5, phi, [])
    with pytest.raises(ValueError, match="grid mismatch"):
        rl_wrt_phi_direct(0.5, phi, [g, sample_array(np.ones_like, UniformGrid1D(0.0, 1.0, 8))])
    # the image mesh checks its grid against the domain itself
    with pytest.raises(ValueError, match="does not match the integrator domain"):
        _image_mesh(phi, UniformGrid1D(0.0, 2.0, 8))


def test_direct_overflow_names_the_order():
    # phi(s) = 1e300 s is a valid integrator, but (x - u)^(alpha+1) overflows
    steep = integrator_from_dict(
        {"domain": [0, 1], "segments": [{"interval": [0, 1], "kind": "poly",
                                         "coefficients": [0, 1e300]}]}
    )
    # an image length of 3e308 overflows on its own
    wide = linear_integrator(-1.5, 1.5, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for phi, n in ((steep, 256), (wide, 256), (wide, 64)):  # 64: no far field
            grid = UniformGrid1D(phi.a, phi.T, n)
            g = sample_array(np.ones_like, grid)
            for alpha in (0.5, 1.3):
                message = f"the order-{alpha} integral with respect to phi overflows"
                with pytest.raises(ValueError, match=re.escape(message)):
                    rl_wrt_phi_direct(alpha, phi, g)
        grid = UniformGrid1D(0.0, 1.0, 8)
        bad = SampledFunction1D(grid, np.where(grid.nodes > 0.6, np.nan, 1.0))
        with pytest.raises(ValueError, match=re.escape("non-finite sample at node index 5")):
            rl_wrt_phi_direct(0.5, unit_jump_integrator(), bad)


def test_transmutation_residual_builds_one_mesh_and_one_exponential_sum(monkeypatch):
    counts = {"_image_mesh": 0, "_sum_of_exponentials": 0}
    for name in counts:
        original = getattr(transmute, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(transmute, name, counted)
    # one direct route whose mesh and history serve every probe (2 meshes and
    # 2 sums with a call per probe); the transmuted route builds no mesh
    res = transmutation_residual(0.5, unit_jump_integrator(), [np.ones_like, lambda t: t], 4096)
    assert counts == {"_image_mesh": 1, "_sum_of_exponentials": 1}
    assert len(res) == 2


def test_sum_of_exponentials_is_uniform_in_alpha():
    # the count depends on R / delta only, so alpha -> 1 costs no more time
    # or memory, and the kernel error stays near rounding
    delta, length = 4.0 / 4096.0, 2.0
    r = np.geomspace(delta, length, 2001)
    counts = set()
    for alpha in (1e-8, 0.5, 0.999, 1.0 - 1e-9):
        s, w = _sum_of_exponentials(alpha, delta, length)
        counts.add(len(s))
        assert np.all(w > 0.0) and np.all(np.diff(s) > 0.0)
        kernel = np.exp(-np.outer(r, s)) @ w
        assert np.abs(kernel / r ** (alpha - 1.0) - 1.0).max() < 5e-15, alpha
    assert counts == {10 * (1 + math.ceil(math.log2(40.0 * length / delta)))}
    assert counts == {180}


def test_gauss_jacobi_matches_lapack():
    # the rule behind the history's slowest exponentials, against Golub-Welsch by LAPACK
    for alpha in (1e-8, 0.25, 0.5, 0.9, 0.999, 1.0 - 1e-9):
        t, v = _gauss_jacobi(alpha)
        n = len(t)
        k = np.arange(1.0, n)
        b = -alpha
        diag = np.array([b / (b + 2.0)] + [b * b / ((2 * j + b) * (2 * j + b + 2)) for j in k])
        off = 2 * k * (k + b) / ((2 * k + b) * np.sqrt((2 * k + b + 1) * (2 * k + b - 1)))
        x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert np.abs(t - 0.5 * (x + 1.0)).max() < 1e-15, alpha
        assert np.abs(v - vec[0] ** 2).max() < 5e-14, alpha
        assert np.all(v > 0.0) and abs(v.sum() - 1.0) < 1e-15


def test_far_field_count_grows_logarithmically_for_flat_integrator():
    # phi = 1e-6 s packs the image into [0, 1e-6], so delta is tiny, but only
    # R / delta enters the count: one octave of Gauss points per doubling of N
    phi = linear_integrator(0.0, 1.0, 1e-6)
    counts = []
    for n in (256, 512, 1024, 2048, 4096):
        x = phi.value(UniformGrid1D(0.0, 1.0, n).nodes)
        s, _ = _far_field_exponentials(0.5, x)
        counts.append(len(s))
    assert np.all(np.diff(counts) <= 10)
    assert counts[-1] == 10 * (1 + math.ceil(math.log2(40.0 * 4096 / _NEAR)))
    assert _far_field_exponentials(1.5, x) is None  # bounded kernel: exact rule
    assert _far_field_exponentials(0.5, x[: _BLOCK + 1]) is None  # one block, no far field


# --------------------------------------------------------- transmuted route


def test_transmuted_identity_matches_plain_integral():
    phi = identity_integrator(0.0, 1.0)
    g = UniformGrid1D(0.0, 1.0, 256)
    f = sample(math.cos, g)
    transmuted = rl_wrt_phi_transmuted(0.5, phi, f)
    assert l1_distance(transmuted, rl_integral(0.5, f)) < 1e-10


def test_transmuted_scaling_half_order_closed_form():
    phi = linear_integrator(0.0, 1.0, 2.0)
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 2048))
    out = rl_wrt_phi_transmuted(0.5, phi, f)
    assert abs(out.values[-1].real - SUBSTITUTION_VALUE) < 2e-3


def test_transmuted_jump_unit_order_value():
    phi = unit_jump_integrator()
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 4096))
    out = rl_wrt_phi_transmuted(1.0, phi, f)
    assert abs(out.values[-1].real - 1.0) < 1e-3


def test_grid_ends_off_the_domain_are_rejected():
    # an end 5e-13 off moves the interior nodes too: node 32 of the first grid
    # lands left of the jump at 1/2
    phi = unit_jump_integrator()
    for a, T in ((-5e-13, 1.0), (0.0, 1.0 + 5e-13)):
        g = sample(lambda t: t, UniformGrid1D(a, T, 64))
        message = f"grid [{a}, {T}] does not match the integrator domain [0.0, 1.0]"
        for call in (
            lambda: rl_wrt_phi_direct(0.5, phi, g),
            lambda: rl_wrt_phi_transmuted(0.5, phi, g),
            lambda: pullback_to_image(phi, g),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()


def test_transmuted_route_takes_a_last_node_past_the_domain_end():
    # on [0, 3] in 187 cells the last node a + N h is 3 + 4.4e-16 on both
    # sides: phi must still be read there, and the pullback must not zero it
    phi = identity_integrator(0.0, 3.0)
    g = sample(lambda t: t, UniformGrid1D(0.0, 3.0, 187))
    assert g.grid.nodes[-1] > phi.T
    assert transmutation_residual(0.5, phi, [lambda t: t], 187)[0] < 1e-10


def test_pullback_zero_fills_gaps():
    phi = unit_jump_integrator()
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 64))
    pulled = pullback_to_image(phi, f)
    v = pulled.grid.nodes
    in_gap = (v > 0.5) & (v < 1.5)
    assert np.all(pulled.values[in_gap] == 0.0)
    assert np.all(pulled.values[~in_gap].real == 1.0)


def pullback_probe(t):
    return math.cos(3.0 * t) + t * t


def brentq_inverse(phi, v):
    # s with phi(s) = v on the closed image interval holding v, None in a gap
    for seg in phi.segments:
        lo, hi = seg.eval([seg.lo, seg.hi])
        if lo <= v <= hi:
            return brentq(lambda s: float(seg.eval(s)) - v, seg.lo, seg.hi, xtol=1e-15)
    return None


def test_pullback_converges_to_g_through_the_inverse():
    # linear in the image variable between image nodes: second order against
    # g o phi^-1 on the closed image intervals, exactly 0 inside the open gap
    phi = cubic_exp_jump_integrator()
    left_end = float(phi.segments[0].eval(0.5))
    right_end = float(phi.segments[1].eval(0.5))
    errors = []
    for n in (128, 256, 512, 1024):
        pulled = pullback_to_image(phi, sample(pullback_probe, UniformGrid1D(0.0, 1.0, n)))
        v = pulled.grid.nodes
        gap = (v > left_end) & (v < right_end)
        assert gap.any() and np.all(pulled.values[gap] == 0.0)
        ref = [pullback_probe(brentq_inverse(phi, min(x, phi.phi_T))) for x in v[~gap]]
        errors.append(np.abs(pulled.values[~gap] - ref).max())
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((orders > 1.9) & (orders < 2.1)), orders


def test_pullback_keeps_g_at_the_closed_gap_ends():
    # s + s^3, then 4^s - 3/8 one unit higher: the gap ends 5/8 and 13/8 and
    # phi(1) = 29/8 are exact, so the image grid meets both ends when 29 | N
    phi = Integrator(
        (
            Segment(0.0, 0.5, "poly", (0.0, 1.0, 0.0, 1.0)),
            Segment(0.5, 1.0, "exp", (-0.375, 1.0, 2.0 * math.log(2.0))),
        ),
        (Jump(0.5, 1.0),),
    )
    assert phi.phi_T == 3.625 and phi.segments[1].eval(0.5) == 1.625
    n = 29 * 16
    g = sample(pullback_probe, UniformGrid1D(0.0, 1.0, n))
    pulled = pullback_to_image(phi, g)
    v = pulled.grid.nodes
    seam = g.values[n // 2]
    assert v[5 * 16] == 0.625 and pulled.values[5 * 16] == seam
    assert v[13 * 16] == 1.625 and pulled.values[13 * 16] == seam
    assert np.all(pulled.values[5 * 16 + 1 : 13 * 16] == 0.0)
    assert np.all(pulled.values[13 * 16 :] != 0.0)


def test_transmutation_residual_identity():
    phi = identity_integrator(0.0, 1.0)
    assert transmutation_residual(0.7, phi, [np.cos], 1024)[0] < 1e-10


def test_transmutation_residual_scaling():
    phi = linear_integrator(0.0, 1.0, 2.0)
    assert transmutation_residual(0.5, phi, [np.ones_like], 4096)[0] < 2e-3


def test_transmutation_residual_jump_and_refinement():
    phi = unit_jump_integrator()
    [r_coarse] = transmutation_residual(0.5, phi, [lambda t: t], 2048)
    [r_fine] = transmutation_residual(0.5, phi, [lambda t: t], 4096)
    assert r_fine < 5e-3
    # first-order halving, up to measurement noise
    assert math.log2(r_coarse / r_fine) >= 0.9


def test_transmutation_residual_exponential_integrator():
    phi = exp_integrator()
    assert transmutation_residual(0.5, phi, [np.ones_like], 2048)[0] < 2e-3


# ------------------------------------------------------------- norm layer


def l1_norm_pushforward(phi, g):
    # discrete L1 norm of g against the pushforward measure: by change of
    # variables, the trapezoid rule for |g| on the direct route's image mesh
    mesh = _image_mesh(phi, g.grid)
    mods = mesh.values([np.abs(g.values)])[0].real
    return float(np.dot(np.diff(mesh.u), 0.5 * (mods[:-1] + mods[1:])))


def invert_segment(seg, v):
    # reference inverse of one strictly increasing segment: closed forms for
    # exp and linear pieces, 80 bisection steps on [lo, hi] otherwise
    v = np.asarray(v, dtype=np.float64)
    if seg.kind == "exp":
        c0, c1, c2 = seg.coefficients
        return np.log((v - c0) / c1) / c2
    if len(seg.coefficients) == 2:
        c0, c1 = seg.coefficients
        return (v - c0) / c1
    lo = np.full(v.shape, seg.lo)
    hi = np.full(v.shape, seg.hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = seg.eval(mid) < v
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_compose_preserves_pushforward_norm():
    # norm of g against the pushforward equals the Lebesgue norm of g read
    # through the inverse of phi over the image, by change of variables;
    # the image side is integrated per segment on its own uniform subgrid
    for phi in (
        linear_integrator(0.0, 1.0, 2.0),
        exp_integrator(),
        unit_jump_integrator(),
        cubic_exp_jump_integrator(),
    ):
        g = UniformGrid1D(0.0, 1.0, 2048)
        f = sample(lambda t: math.cos(2.0 * t) + 1.5, g)
        lhs = l1_norm_pushforward(phi, f)
        rhs = 0.0
        for seg in phi.segments:
            e_lo, e_hi = float(seg.eval(seg.lo)), float(seg.eval(seg.hi))
            v = np.linspace(e_lo, e_hi, 4097)
            s = np.clip(invert_segment(seg, v), seg.lo, seg.hi)
            vals = np.abs(np.interp(s, g.nodes, f.values.real))
            rhs += float(np.trapezoid(vals, v))
        assert abs(lhs - rhs) < 1e-6


def test_operator_norm_bound():
    # output pushforward-norm bounded by the input norm times the kernel mass
    cases = [
        (identity_integrator(0.0, 1.0), 0.5),
        (linear_integrator(0.0, 1.0, 2.0), 0.5),
        (unit_jump_integrator(), 0.7),
        (exp_integrator(), 1.3),
    ]
    g = UniformGrid1D(0.0, 1.0, 512)
    for phi, alpha in cases:
        for expr in (lambda t: 1.0, lambda t: t, math.cos):
            f = sample(expr, g)
            out = rl_wrt_phi_direct(alpha, phi, f)
            length = phi.phi_T - phi.phi_a
            kernel_mass = length ** alpha / gamma(alpha + 1.0)
            assert (
                l1_norm_pushforward(phi, out)
                <= l1_norm_pushforward(phi, f) * kernel_mass + 1e-6
            )


def test_index_law_with_respect_to_phi():
    # holds for continuous integrators, with refinement-decreasing residual
    integrators = (
        identity_integrator(0.0, 1.0),
        linear_integrator(0.0, 1.0, 2.0),
        exp_integrator(),
    )

    def resid(phi, n):
        f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, n))
        composed = rl_wrt_phi_direct(0.5, phi, rl_wrt_phi_direct(0.5, phi, f))
        direct = rl_wrt_phi_direct(1.0, phi, f)
        return l1_distance(composed, direct)

    for phi in integrators:
        r_coarse, r_fine = resid(phi, 256), resid(phi, 1024)
        assert r_fine < r_coarse
        assert r_fine < 5e-4


def test_index_law_breaks_across_jumps():
    # with a jump, values of the image-side integral on the gap are lost
    # between the two applications, so composition undershoots: at t = 1 the
    # composed unit orders give 1/2 while the direct order 2 gives 1 (both
    # exact; see the gap-extension note in the integrator conventions)
    phi = unit_jump_integrator()
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 2048))
    composed = rl_wrt_phi_direct(1.0, phi, rl_wrt_phi_direct(1.0, phi, f))
    direct = rl_wrt_phi_direct(2.0, phi, f)
    assert composed.values[-1].real == pytest.approx(0.5, abs=1e-6)
    assert direct.values[-1].real == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------------- validation


def test_integrator_requires_monotone_segments():
    with pytest.raises(ValueError, match="strictly increasing"):
        Integrator((Segment(0.0, 1.0, "poly", (0.0, -1.0)),))


def test_integrator_rejects_narrow_dip():
    # (s - s0)^3 - 1e-6 (s - s0) decreases on |s - s0| < 5.8e-4, a dip narrower than 1/128
    s0 = 0.5 + 1.0 / 256.0
    coeffs = (-s0 ** 3 + 1e-6 * s0, 3.0 * s0 ** 2 - 1e-6, -3.0 * s0, 1.0)
    seg = Segment(0.0, 1.0, "poly", coeffs)
    assert seg.eval(s0) < seg.eval(s0 - 1e-4)
    with pytest.raises(ValueError, match="strictly increasing"):
        Integrator((seg,))


def test_integrator_monotonicity_is_exact():
    # s^3 has p' = 0 only at s = 0, so it is strictly increasing
    Integrator((Segment(-1.0, 1.0, "poly", (0.0, 0.0, 0.0, 1.0)),))
    # so is (s - 0.1)^3, although its rounded p' reads -3.5e-18 at s = 0.1
    s0 = 0.1
    Integrator((Segment(0.0, 1.0, "poly", (-s0 ** 3, 3.0 * s0 ** 2, -3.0 * s0, 1.0)),))
    Integrator((Segment(0.0, 1.0, "exp", (0.0, -1.0, -1.0)),))  # -e^(-s)
    for seg in (
        Segment(0.0, 1.0, "poly", (1.0, 0.0)),
        Segment(0.0, 1.0, "exp", (0.0, 1.0, -1.0)),
    ):
        with pytest.raises(ValueError, match="strictly increasing"):
            Integrator((seg,))


def test_integrator_rejects_overlapping_images():
    with pytest.raises(ValueError, match="overlap"):
        Integrator(
            (
                Segment(0.0, 0.5, "poly", (0.0, 2.0)),
                Segment(0.5, 1.0, "poly", (0.0, 1.0)),
            )
        )


def test_integrator_rejects_undeclared_gap():
    with pytest.raises(ValueError, match="does not match a declared jump"):
        Integrator(
            (
                Segment(0.0, 0.5, "poly", (0.0, 1.0)),
                Segment(0.5, 1.0, "poly", (1.0, 1.0)),
            )
        )


def test_integrator_rejects_misplaced_jump():
    with pytest.raises(ValueError, match="not at a segment boundary"):
        Integrator(
            (Segment(0.0, 1.0, "poly", (0.0, 1.0)),),
            (Jump(0.25, 1.0),),
        )


def test_jump_size_must_be_positive():
    for size in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Jump(0.5, size)


def test_grid_domain_mismatch_rejected():
    phi = unit_jump_integrator()
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 2.0, 64))
    with pytest.raises(ValueError, match="domain"):
        rl_wrt_phi_direct(0.5, phi, f)


def test_json_round_trip(tmp_path):
    phi = unit_jump_integrator()
    path = tmp_path / "phi.json"
    with open(path, "w") as fh:
        json.dump(integrator_to_dict(phi), fh)
    back = load_integrator(str(path))
    assert integrator_to_dict(back) == integrator_to_dict(phi)
    payload = json.loads(path.read_text())
    assert payload["domain"] == [0.0, 1.0]
    assert payload["jumps"] == [{"at": 0.5, "size": 1.0}]


def test_json_rejects_malformed_and_mismatched_domain():
    with pytest.raises(ValueError, match="malformed"):
        integrator_from_dict({"segments": [{"interval": [0, 1]}]})
    good = integrator_to_dict(unit_jump_integrator())
    good["domain"] = [0.0, 2.0]
    with pytest.raises(ValueError, match="domain"):
        integrator_from_dict(good)
    for domain in (None, [0.0], [0.0, 0.5, 1.0], 1.0):
        good["domain"] = domain
        with pytest.raises(ValueError, match="malformed"):
            integrator_from_dict(good)
