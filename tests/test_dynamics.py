import contextlib
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import trilevel.dynamics as dynamics
from trilevel.defaults import STEP_SHARE
from trilevel.dynamics import (
    _length_classes,
    _step_runs,
    liouvillian,
    propagate_series,
    propagate_vectors,
    steady_state,
)
from trilevel.equivalence import verify_equivalence
from trilevel.errors import NonUniqueSteadyStateError, PropagationError
from trilevel.linalg import ketbra, mat_exp, null_space, vec
from trilevel.observables import (emission_spectrum, g2, populations,
                                  waiting_time)
from trilevel.systems import Config, LindbladModel, SystemParams, build_model

RNG = np.random.default_rng(555)


def random_hermitian(rng, scale=1.0):
    a = scale * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return 0.5 * (a + a.conj().T)


def random_density_matrix(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_driven_params(config, rng=RNG):
    phi = rng.uniform(0, math.pi) if config in (Config.FIG1B, Config.FIG2B) \
        else None
    return SystemParams(
        config=config,
        gamma21=rng.uniform(0.2, 3.0), gamma23_or_31=rng.uniform(0.2, 3.0),
        omega_a=rng.uniform(0.2, 3.0), omega_b=rng.uniform(0.2, 3.0),
        delta2=rng.uniform(-3, 3), delta3=rng.uniform(-3, 3), phi=phi,
    )


def dissipator_action(model, rho):
    out = np.zeros((3, 3), dtype=complex)
    r = model.rate_matrix
    ops = model.collapse_ops
    for a in range(len(ops)):
        for b in range(len(ops)):
            if r[a, b] != 0.0:
                k = ops[b].conj().T @ ops[a]
                out += r[a, b] * (ops[a] @ rho @ ops[b].conj().T
                                  - 0.5 * (k @ rho + rho @ k))
    return out


# ------------------------------------------------------------ liouvillian

def test_liouvillian_trivial_model_is_zero():
    m = LindbladModel(np.zeros((3, 3)), (), np.zeros((0, 0)))
    assert np.all(liouvillian(m) == 0)


def test_liouvillian_pure_hamiltonian_spectrum():
    # spectral oracle: for L = -i[H, .] the eigenvalues are i(l_j - l_k)
    h = random_hermitian(np.random.default_rng(3), scale=2.0)
    lev = np.linalg.eigvalsh(h)
    m = LindbladModel(h, (), np.zeros((0, 0)))
    eigs = np.linalg.eigvals(liouvillian(m))
    assert np.abs(eigs.real).max() < 1e-9  # purely imaginary spectrum
    expected = np.sort([lj - lk for lj in lev for lk in lev])
    np.testing.assert_allclose(np.sort(eigs.imag), expected, atol=1e-9)


def test_each_model_assembles_its_generator_once(monkeypatch):
    # count the assemblies behind the cached generator property
    built = []
    assemble = LindbladModel.generator.func

    def counted(model):
        built.append(model)
        return assemble(model)

    prop = functools.cached_property(counted)
    prop.__set_name__(LindbladModel, "generator")
    monkeypatch.setattr(LindbladModel, "generator", prop)
    m = build_model(random_driven_params(Config.FIG2A))
    assert liouvillian(m) is liouvillian(m)
    taus = np.linspace(0.0, 5.0, 11)
    rho0 = ketbra(0, 0)
    g2(m, taus)
    waiting_time(m, taus)
    populations(m, rho0, taus)
    emission_spectrum(m, m.collapse_ops[0], np.linspace(-2.0, 2.0, 5))
    verify_equivalence(m, m, np.eye(3), rho0, taus)
    assert len(built) == 1 and built[0] is m


@pytest.mark.parametrize("config", list(Config))
def test_liouvillian_matches_direct_action(config):
    # apply L to all nine matrix units and compare with the explicit
    # commutator-plus-dissipator superoperator action
    m = build_model(random_driven_params(config))
    lm = liouvillian(m)
    for i in range(3):
        for j in range(3):
            e = ketbra(i, j)
            via_l = (lm @ vec(e)).reshape((3, 3), order="F")
            h = m.hamiltonian
            direct = -1j * (h @ e - e @ h) + dissipator_action(m, e)
            assert np.linalg.norm(via_l - direct) < 1e-12


@pytest.mark.parametrize("config", list(Config))
def test_no_jump_generator_and_photon_rate(config):
    # L splits into the no-jump generator plus the feeding terms, and the
    # photon rate tr(F(rho)) equals tr(K rho)
    m = build_model(random_driven_params(config, np.random.default_rng(9)))
    feed = m.feeding
    assert np.array_equal(liouvillian(m), m.no_jump + feed)
    np.testing.assert_allclose(vec(np.eye(3)) @ feed,
                               vec(m.decay.T),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("config", list(Config))
def test_no_jump_generator_is_its_kronecker_form(config):
    # G0 = -i (I (x) H_eff - conj(H_eff) (x) I), byte for byte
    rng = np.random.default_rng(17)
    for _ in range(25):
        m = build_model(random_driven_params(config, rng))
        h, eye = m.effective_hamiltonian, np.eye(3)
        ref = -1j * (np.kron(eye, h) - np.kron(h.conj(), eye))
        assert m.no_jump.tobytes() == ref.tobytes()


@pytest.mark.parametrize("config", list(Config))
def test_channel_sums_match_explicit_loops(config):
    m = build_model(random_driven_params(config))
    r, ops = m.rate_matrix, m.collapse_ops
    pairs = [(a, b) for a in range(len(ops)) for b in range(len(ops))]
    feed = sum(r[a, b] * np.kron(ops[b].conj(), ops[a]) for a, b in pairs)
    decay = sum(r[a, b] * ops[b].conj().T @ ops[a] for a, b in pairs)
    assert np.abs(m.feeding - feed).max() <= 1e-14
    assert np.abs(m.decay - decay).max() <= 1e-14
    empty = LindbladModel(m.hamiltonian, (), np.zeros((0, 0)))
    assert np.all(empty.feeding == 0)
    assert np.all(empty.decay == 0)


@pytest.mark.parametrize("config", list(Config))
def test_liouvillian_spectrum_in_left_half_plane(config):
    for _ in range(20):
        lm = liouvillian(build_model(random_driven_params(config)))
        assert np.linalg.eigvals(lm).real.max() < 1e-10


# -------------------------------------------------------------- propagate

def test_propagate_zero_time_is_identity():
    m = build_model(random_driven_params(Config.FIG1A))
    rho0 = np.diag([0.2, 0.5, 0.3]).astype(complex)
    rho = propagate_series(liouvillian(m), rho0, [0.0])[-1]
    assert np.array_equal(rho, rho0)


def test_propagate_undriven_two_level_decay():
    p = SystemParams(Config.FIG1A, gamma21=0.6, gamma23_or_31=0.0,
                     omega_a=0.0, omega_b=0.0)
    lm = liouvillian(build_model(p))
    for t in (0.3, 1.0, 4.0):
        rho = propagate_series(lm, ketbra(1, 1), [t])[-1]
        np.testing.assert_allclose(rho[1, 1].real, math.exp(-1.2 * t),
                                   atol=1e-9)


def test_propagate_pure_rabi_oscillation():
    # no decay, resonant drive: population oscillates as sin^2(omega t)
    omega = 0.9
    p = SystemParams(Config.FIG1A, gamma21=0.0, gamma23_or_31=0.0,
                     omega_a=omega, omega_b=0.0)
    lm = liouvillian(build_model(p))
    for t in (0.2, 0.7, 2.1):
        rho = propagate_series(lm, ketbra(0, 0), [t])[-1]
        np.testing.assert_allclose(rho[1, 1].real, math.sin(omega * t) ** 2,
                                   atol=1e-9)


def test_propagate_rejects_trace_drift():
    with pytest.raises(PropagationError):
        propagate_series(-0.1 * np.eye(9), np.diag([1.0, 0, 0]), [1.0])


def test_trace_drift_is_judged_against_trace_drift():
    # a generator that loses trace at rate k drifts by about k t: 1e-8 by
    # t = 1 stays below TRACE_DRIFT (1e-6), 1e-5 by the first grid time
    # does not
    lm = liouvillian(build_model(random_driven_params(Config.FIG2A)))
    times = np.linspace(0.0, 1.0, 11)
    propagate_series(lm - 1e-8 * np.eye(9), ketbra(0, 0), times)
    with pytest.raises(PropagationError, match=r"trace drifted by "
                                               r"1\.000e-05 \(at t = 0\.1\)"):
        propagate_series(lm - 1e-4 * np.eye(9), ketbra(0, 0), times)


def test_propagate_series_consistency():
    m = build_model(random_driven_params(Config.FIG2A))
    lm = liouvillian(m)
    rho0 = ketbra(0, 0)
    times = np.linspace(0.0, 5.0, 11)
    series = propagate_series(lm, rho0, times)
    for t, rho in zip(times, series):
        rho_t = propagate_series(lm, rho0, [t])[-1]
        assert np.linalg.norm(rho - rho_t) < 1e-10


def test_propagate_series_single_point():
    m = build_model(random_driven_params(Config.FIG1B))
    rho0 = np.diag([0.5, 0.25, 0.25]).astype(complex)
    series = propagate_series(liouvillian(m), rho0, np.array([0.0]))
    assert series.shape == (1, 3, 3)
    assert np.array_equal(series[0], rho0)


def test_propagate_series_uniform_vs_nonuniform():
    m = build_model(random_driven_params(Config.FIG2B))
    lm = liouvillian(m)
    rho0 = ketbra(0, 0)
    uniform = propagate_series(lm, rho0, np.linspace(0, 4, 9))
    ragged = propagate_series(lm, rho0, np.array([0.5, 2.0, 3.0, 4.0]))
    assert np.linalg.norm(uniform[1] - ragged[0]) < 1e-10
    assert np.linalg.norm(uniform[4] - ragged[1]) < 1e-10
    assert np.linalg.norm(uniform[8] - ragged[3]) < 1e-10


def test_linspace_grid_costs_one_exponential(monkeypatch):
    import trilevel.dynamics as dynamics
    from trilevel.observables import g2, waiting_time
    calls = []

    def counting_exp(m, t=1.0):
        calls.append(t)
        return mat_exp(m, t)

    monkeypatch.setattr(dynamics, "mat_exp", counting_exp)
    m = build_model(random_driven_params(Config.FIG2A))
    taus = np.linspace(0.0, 30.0, 301)
    assert len(set(np.diff(taus))) > 1  # the steps differ in the last bits
    propagate_series(liouvillian(m), ketbra(0, 0), taus)
    g2(m, taus)
    waiting_time(m, taus)
    assert len(calls) == 3

    # three uniform runs, each of a different step: one exponential each
    calls.clear()
    runs = np.concatenate([np.linspace(0.0, 1.0, 11),
                           1.0 + np.linspace(0.0, 3.0, 13)[1:],
                           4.0 + np.linspace(0.0, 6.0, 41)[1:]])
    propagate_series(liouvillian(m), ketbra(0, 0), runs)
    assert len(calls) == 3
    # steps a, b, a, b reuse exp(L a) and exp(L b)
    calls.clear()
    propagate_series(liouvillian(m), ketbra(0, 0), [0.3, 1.0, 1.3, 2.0])
    assert len(calls) == 2
    # a stack takes one exponential of the whole stack per class
    calls.clear()
    gens, v0 = np.stack([m.generator, m.no_jump]), np.eye(2, 9)
    propagate_vectors(gens, v0, taus)
    propagate_vectors(gens, v0, [0.3, 1.0, 1.3, 2.0])
    assert len(calls) == 3


@contextlib.contextmanager
def _counted_exponentials():
    """The lengths of the exponentials ``dynamics`` takes in the block."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "mat_exp",
                   lambda m, t=1.0: calls.append(t) or mat_exp(m, t))
        yield calls


_GEN = build_model(random_driven_params(Config.FIG2A,
                                        np.random.default_rng(4))).generator
_V0 = vec(ketbra(0, 0))


@given(start=st.one_of(st.just(0.0), st.floats(1e-3, 100.0)),
       span=st.floats(1e-3, 1e3), n=st.integers(2, 500))
def test_linspace_steps_share_one_exponential(start, span, n):
    times = np.linspace(start, start + span, n)
    width = STEP_SHARE * np.spacing(times[-1])
    assert (_length_classes(np.diff(times), width) == 0).all()
    with _counted_exponentials() as calls:
        propagate_vectors(_GEN, _V0, np.linspace(0.0, span, n))
    assert len(calls) == 1


def _alternating_grid(gap_ulps):
    """0.5 and 0.5 + gap alternating ten times, the gap in ulps of the grid
    end (about 10, so 2**-49): every time is exact, and so is every step."""
    ulp = 2.0**-49
    times = np.cumsum([0.0] + [0.5, 0.5 + gap_ulps * ulp] * 10)
    assert np.spacing(times[-1]) == ulp
    assert set(np.diff(times)) == {0.5, 0.5 + gap_ulps * ulp}
    return times


@pytest.mark.parametrize("gap_ulps, exponentials", [(2, 1), (100, 2)])
def test_steps_share_an_exponential_only_a_few_ulps_apart(gap_ulps,
                                                          exponentials):
    # linspace steps differ by at most 2 ulps of the grid end and share one
    # exponential; steps 100 ulps apart are two lengths
    with _counted_exponentials() as calls:
        propagate_vectors(_GEN, _V0, _alternating_grid(gap_ulps))
    assert len(calls) == exponentials


def _ulps_from(x, k):
    """``x`` moved by k ulps (of wherever it lands) up, or down for k < 0."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return x


# shortest steps at or just below a power of two, so that min + width may
# cross into the next binade and round, and longest steps a few ulps either
# side of that sum
@given(power=st.integers(-6, 6), below=st.integers(0, 9),
       end=st.integers(1, 300), top=st.integers(-4, 4),
       inner=st.lists(st.floats(0.0, 1.0), max_size=6),
       order=st.randoms(use_true_random=False))
def test_one_class_comparison_is_the_class_search(power, below, end, top,
                                                  inner, order):
    shortest = _ulps_from(np.float64(2.0**power), -below)
    width = STEP_SHARE * np.spacing(end * 2.0**power)
    longest = _ulps_from(shortest + width, top)
    steps = [shortest, longest,
             *(shortest + f * (longest - shortest) for f in inner)]
    order.shuffle(steps)
    dts = np.array(steps)
    one_class = bool(dts.max() <= dts.min() + width)
    assert (_length_classes(dts, width) == 0).all() == one_class
    assert (len(_step_runs(dts, width)) == 1) == one_class


# steps a few ulps of the grid end (<= 26) around a handful of lengths, in
# any order, so that lengths near one another straddle class boundaries
_NEAR_STEPS = st.lists(st.tuples(st.sampled_from([0.1, 0.25, 1 / 3, 0.7]),
                                 st.integers(-6, 6)),
                       min_size=1, max_size=30)


@given(start=st.floats(0.01, 5.0), steps=_NEAR_STEPS)
def test_each_step_shares_an_exponential_of_its_own_length(start, steps):
    times = start + np.cumsum([dt + k * 2.0**-48 for dt, k in steps])
    times = np.concatenate([[start], times])
    dts = np.diff(times, prepend=0.0)
    width = STEP_SHARE * np.spacing(times[-1])
    classes = _length_classes(dts, width)
    with _counted_exponentials() as calls:
        propagate_vectors(_GEN, _V0, times)
    # one exponential per class, at the length of its first step in grid
    # order, and so within the width of every step that shares it
    first = np.sort(np.unique(classes, return_index=True)[1])
    assert calls == dts[first].tolist()
    shared = dict(zip(classes[first].tolist(), calls))
    for dt, cls in zip(dts, classes.tolist()):
        assert abs(shared[cls] - dt) <= width


# run lengths around each power of two, where the doubling changes pass
_RUN_LENGTHS = sorted({1, 2, 3} | {2**k + d for k in range(2, 8)
                                   for d in (-1, 0, 1)})
_STEP = st.floats(0.01, 0.5)
_UNIFORM_RUNS = st.lists(st.tuples(_STEP, st.sampled_from(_RUN_LENGTHS)),
                         min_size=1, max_size=4)
_RAGGED = st.lists(_STEP.map(lambda dt: (dt, 1)), min_size=1, max_size=40)
# worst relative error measured over these examples: 2.9e-13
_DOUBLING_TOL = 1e-11


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1),
       runs=st.one_of(_UNIFORM_RUNS, _RAGGED),
       from_zero=st.booleans(), no_jump=st.booleans())
def test_doubling_matches_pointwise_exponentials(seed, runs, from_zero,
                                                 no_jump):
    rng = np.random.default_rng(seed)
    model = build_model(random_driven_params(list(Config)[seed % 4], rng))
    gen = model.no_jump if no_jump else model.generator
    v0 = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    steps = [0.0] * from_zero + [dt for dt, n in runs for _ in range(n)]
    times = np.cumsum(steps)
    vs = propagate_vectors(gen, v0, times)
    for t, v in zip(times, vs.T, strict=True):
        ref = mat_exp(gen, t) @ v0
        err = np.linalg.norm(v - ref) / max(1.0, np.linalg.norm(ref))
        assert err < _DOUBLING_TOL


def test_propagate_vectors_reads_v0_as_array():
    gen = liouvillian(build_model(random_driven_params(Config.FIG1A)))
    v0 = vec(np.diag([0.2, 0.5, 0.3]))
    times = np.linspace(0.0, 2.0, 5)
    np.testing.assert_array_equal(propagate_vectors(gen, v0.tolist(), times),
                                  propagate_vectors(gen, v0, times))


def test_propagate_series_rejects_bad_grid():
    m = build_model(random_driven_params(Config.FIG1A))
    lm = liouvillian(m)
    with pytest.raises(ValueError):
        propagate_series(lm, ketbra(0, 0), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        propagate_series(lm, ketbra(0, 0), np.array([-1.0, 1.0]))


@pytest.mark.parametrize("grid", [[0.0, math.nan], [0.0, 1.0, math.inf],
                                  [-math.inf, 0.0], [math.nan]])
def test_non_finite_grid_is_rejected_everywhere(grid):
    m = build_model(random_driven_params(Config.FIG2A))
    rho0 = ketbra(0, 0)
    calls = [
        lambda: propagate_series(m.generator, rho0, grid),
        lambda: g2(m, grid),
        lambda: waiting_time(m, grid),
        lambda: populations(m, rho0, grid),
        lambda: verify_equivalence(m, m, np.eye(3), rho0, grid),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="times grid"):
            call()


def test_rho0_with_wrong_trace_is_bad_input():
    lm = liouvillian(build_model(random_driven_params(Config.FIG1A)))
    # ValueError, not the PropagationError (a RuntimeError) of a drift
    with pytest.raises(ValueError, match="rho0 has trace 2"):
        propagate_series(lm, 2.0 * ketbra(1, 1), [0.0, 1.0])


@pytest.mark.parametrize("rho0, reason", [
    (np.array([[1, 1, 0], [0, 0, 0], [0, 0, 0]]), "not Hermitian"),
    (np.diag([2.0, -1.0, 0.0]), "negative eigenvalue -1"),
    ([[1, 0, 0], [0, 0], [0, 0, 0]], "must be a 3x3 density matrix"),
    ([[1, 0, 0], [0, 0, 0], [0, 0, "x"]], "must be a 3x3 density matrix"),
])
def test_rho0_that_is_no_density_matrix_is_bad_input(rho0, reason):
    m = build_model(random_driven_params(Config.FIG2A))
    grid = [0.0, 1.0]
    calls = [
        lambda: propagate_series(m.generator, rho0, grid),
        lambda: populations(m, rho0, grid),
        lambda: verify_equivalence(m, m, np.eye(3), rho0, grid),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"rho0 .*{reason}"):
            call()


def test_vector_of_the_wrong_size_is_named():
    gen = build_model(random_driven_params(Config.FIG2A)).generator
    with pytest.raises(ValueError, match=r"v0 has shape \(3,\), but the "
                                         r"generator is 9x9"):
        propagate_vectors(gen, np.ones(3), [0.0, 1.0])
    with pytest.raises(ValueError, match="rho0 must be a 3x3 density matrix"):
        propagate_series(gen, np.eye(2) / 2, [0.0, 1.0])


# ------------------------------------------------------- stacked propagation

_STACK_GRIDS = {
    "uniform": np.linspace(0.0, 20.0, 200),
    "runs": np.concatenate([np.linspace(0.0, 1.0, 11),
                            1.0 + np.linspace(0.0, 3.0, 13)[1:]]),
    "ragged": np.array([0.0, 0.3, 1.0, 1.3, 2.0, 3.7, 3.75]),
    "one point": np.array([1.5]),
    "zero only": np.array([0.0]),
    "late start": np.linspace(2.0, 7.0, 33),
}


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from(
    sorted(_STACK_GRIDS)))
def test_stacked_propagation_equals_lone_calls(seed, grid):
    # every member of a stack comes out as a lone call would give it, bit
    # for bit: the generators and no-jump generators of four box models
    rng = np.random.default_rng(seed)
    times = _STACK_GRIDS[grid]
    models = [build_model(random_driven_params(c, rng)) for c in Config]
    gens = np.stack([m.generator for m in models]
                    + [m.no_jump for m in models])
    v0 = rng.standard_normal((8, 9)) + 1j * rng.standard_normal((8, 9))
    stacked = propagate_vectors(gens, v0, times)
    assert stacked.shape == (8, 9, times.size)
    for gen, v, member in zip(gens, v0, stacked, strict=True):
        assert _bits(member) == _bits(propagate_vectors(gen, v, times))
    rho0 = [random_density_matrix(rng) for _ in models]
    series = propagate_series(gens[:4], rho0, times)
    assert series.shape == (4, times.size, 3, 3)
    for gen, r, member in zip(gens[:4], rho0, series, strict=True):
        assert _bits(member) == _bits(propagate_series(gen, r, times))


def test_stacked_starts_must_match_the_stack():
    gens = np.stack([build_model(random_driven_params(c)).generator
                     for c in (Config.FIG1A, Config.FIG2A)])
    with pytest.raises(ValueError, match=r"v0 has shape \(3, 9\), but the "
                                         r"generator is 2x9x9"):
        propagate_vectors(gens, np.ones((3, 9)), [0.0, 1.0])
    good = ketbra(0, 0)
    with pytest.raises(ValueError, match="rho0 has negative eigenvalue"):
        propagate_series(gens, [good, np.diag([2.0, -1.0, 0.0])], [0.0, 1.0])
    # a member whose trace drifts fails the stack at its first such time
    with pytest.raises(PropagationError, match=r"at t = 1\)"):
        propagate_series(np.stack([gens[0], -0.1 * np.eye(9)]), [good, good],
                         [0.0, 1.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_non_finite_state_is_an_internal_failure():
    # rates and drive that overflow the step's exponential: every
    # propagated state past t = 0 is NaN
    m = build_model(SystemParams(Config.FIG2A, gamma21=1e200,
                                 gamma23_or_31=0.1, omega_a=1e200,
                                 omega_b=0.6))
    rho0, grid = ketbra(0, 0), np.linspace(0.0, 5.0, 11)
    calls = [
        lambda: propagate_vectors(m.generator, vec(rho0), grid),
        lambda: propagate_vectors(m.no_jump, vec(rho0), grid),
        lambda: propagate_series(m.generator, rho0, grid),
        lambda: g2(m, grid),
        lambda: waiting_time(m, grid),
        lambda: populations(m, rho0, grid),
        lambda: verify_equivalence(m, m, np.eye(3), rho0, grid),
    ]
    for call in calls:
        with pytest.raises(PropagationError,
                           match="non-finite entry") as err:
            call()
        assert err.value.time == 0.5


@pytest.mark.parametrize("stacked", [False, True])
def test_the_first_non_finite_time_is_named_past_a_finite_step(stacked):
    # a step of 1e-190 leaves the overflowing model's state finite; the
    # next one does not, so the scan that names the failure must find 0.5
    huge = build_model(SystemParams(Config.FIG2A, gamma21=1e200,
                                    gamma23_or_31=0.1, omega_a=1e200,
                                    omega_b=0.6)).generator
    gen, v0 = huge, _V0
    if stacked:  # behind a finite member
        gen, v0 = np.stack([_GEN, huge]), np.stack([_V0, _V0])
    grid = [0.0, 1e-190, 0.5, 1.0]
    with pytest.raises(PropagationError, match="non-finite entry") as err:
        propagate_vectors(gen, v0, grid)
    assert err.value.time == 0.5


def _assert_hermitian_bit_for_bit(series):
    assert np.array_equal(series, np.swapaxes(series.conj(), -1, -2))


def test_every_propagated_state_is_hermitian_bit_for_bit(monkeypatch):
    import trilevel.observables as observables
    models = [build_model(random_driven_params(c, np.random.default_rng(9)))
              for c in Config]
    rho0 = [random_density_matrix(np.random.default_rng(k)) for k in range(4)]
    ragged = _STACK_GRIDS["ragged"]
    for grid in (_STACK_GRIDS["uniform"], ragged):
        for m, r in zip(models, rho0):
            _assert_hermitian_bit_for_bit(propagate_series(m.generator, r,
                                                           grid))
        _assert_hermitian_bit_for_bit(propagate_series(
            np.stack([m.generator for m in models]), rho0, grid))
    # and the series populations reads its diagonal from
    read = []

    def spy(*args):
        read.append(propagate_series(*args))
        return read[-1]

    monkeypatch.setattr(observables, "propagate_series", spy)
    populations(models[1], rho0[1], ragged)
    assert len(read) == 1
    _assert_hermitian_bit_for_bit(read[0])


# ----------------------------------------------------------- steady state

def test_steady_state_undriven_v_system():
    p = SystemParams(Config.FIG2B, gamma21=1.0, gamma23_or_31=0.5,
                     omega_a=0.0, omega_b=0.0, phi=math.pi / 2)
    rho = steady_state(liouvillian(build_model(p)))
    assert np.linalg.norm(rho - ketbra(0, 0)) < 1e-10


def test_steady_state_lambda_dark_state():
    # two-photon resonance: the system pumps into the dark superposition
    # (omega_b |1'> - omega_a |3'>) / norm and stops fluorescing
    oa, ob = 0.8, 0.5
    p = SystemParams(Config.FIG1B, gamma21=1.0, gamma23_or_31=0.4,
                     omega_a=oa, omega_b=ob, delta2=0.7, delta3=0.7, phi=1.1)
    m = build_model(p)
    rho = steady_state(liouvillian(m))
    dark = np.array([ob, 0.0, -oa], dtype=complex)
    dark /= np.linalg.norm(dark)
    assert np.linalg.norm(rho - np.outer(dark, dark.conj())) < 1e-8
    assert rho[1, 1].real < 1e-10  # no excited population
    rate = (vec(np.eye(3)) @ m.feeding @ vec(rho)).real
    assert rate < 1e-10


def test_steady_state_multidimensional_null_space_raises():
    # no dissipation at all: every function of H is stationary
    p = SystemParams(Config.FIG1A, gamma21=0.0, gamma23_or_31=0.0,
                     omega_a=1.0, omega_b=0.5, delta2=0.3, delta3=-0.4)
    with pytest.raises(NonUniqueSteadyStateError) as err:
        steady_state(liouvillian(build_model(p)))
    assert err.value.dimension == 3


def test_steady_state_traceless_null_vector_is_named():
    # a one-dimensional null space whose vector, the coherence |1><2| +
    # |2><1|, has no trace: unique, but no state
    n = vec(ketbra(0, 1) + ketbra(1, 0)) / math.sqrt(2)
    with pytest.raises(ValueError, match=r"the only null vector has trace "
                                         r".*below TRACE_FLOOR = 1e-08") as err:
        steady_state(np.eye(9) - np.outer(n, n.conj()))
    assert not isinstance(err.value, NonUniqueSteadyStateError)


def test_steady_state_reads_a_null_basis_it_is_given():
    lm = liouvillian(build_model(random_driven_params(Config.FIG2A)))
    right, _ = null_space(lm)
    assert steady_state(lm, right).tobytes() == steady_state(lm).tobytes()
    # the uniqueness rule holds for a given basis too
    with pytest.raises(NonUniqueSteadyStateError):
        steady_state(lm, np.eye(9)[:, :2])


@pytest.mark.parametrize("config", list(Config))
def test_steady_state_residual(config):
    for _ in range(10):
        lm = liouvillian(build_model(random_driven_params(config)))
        rho = steady_state(lm)
        assert np.linalg.norm(lm @ vec(rho)) < 1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-12


# ------------------------------------------------------------- invariants

def test_long_time_conservation():
    m = build_model(random_driven_params(Config.FIG2A))
    lm = liouvillian(m)
    rho = propagate_series(lm, ketbra(0, 0), [100.0])[-1]
    assert abs(np.trace(rho).real - 1.0) < 1e-9
    assert np.linalg.eigvalsh(rho).min() > -1e-9


def test_semigroup_property_of_propagation():
    m = build_model(random_driven_params(Config.FIG1B))
    lm = liouvillian(m)
    rho0 = ketbra(0, 0)
    t1, t2 = 1.3, 2.4
    once = propagate_series(lm, rho0, [t1 + t2])[-1]
    half = propagate_series(lm, rho0, [t1])[-1]
    twice = propagate_series(lm, half, [t2])[-1]
    assert np.linalg.norm(once - twice) < 1e-9


def test_steady_state_is_long_time_limit():
    m = build_model(random_driven_params(Config.FIG2A))
    lm = liouvillian(m)
    rho_ss = steady_state(lm)
    # fifty times the slowest decay time of the generator
    eigs = np.linalg.eigvals(lm)
    horizon = 50.0 / min(-eigs.real[-eigs.real > 1e-10])
    rho_t = propagate_series(lm, ketbra(0, 0), [horizon])[-1]
    assert np.linalg.norm(rho_t - rho_ss) < 1e-6


