"""Records and the inputs they take.

The checked records (the three states, ``TripletParams``, ``WaveplateSetting``
and ``FringeTrace``) are named tuples on ``core.Record``: every way to build
one, ``_make``, ``_replace`` and unpickling too, runs its checks.  The inputs
that take one number or one state name the field when given an array (a
one-element array too, on every numpy), and ``check_range`` names a complex
value.
"""

import math
import pickle

import numpy as np
import pytest

from triphase import core
from triphase.core import BlochVector, QubitState, SymmetricState, check_number, check_range
from triphase.eraser import FringeTrace, WaveplateSetting, default_delta_grid, fringe_trace, solve_waveplates
from triphase.triplet import TripletParams, analytic_total_phase, make_states, make_triplet, sweep_phi

DELTA = default_delta_grid(20)
GRID = np.linspace(0.0, 360.0, 9)

# where one number is due, a one-element array is refused too, whatever numpy's float() takes
NOT_ONE_NUMBER = [np.ones(1), np.ones(2), [1.0], [1.0, 2.0], (1.0, 2.0)]


def checked_records():
    return [
        TripletParams(10.0, 120.0, 30.0),
        WaveplateSetting("quarter", 45.0),
        FringeTrace(DELTA, 1.0 + np.cos(DELTA), 1e3),
        QubitState.of(1, 1j),
        SymmetricState(0, 1, 0),
        BlochVector(0.0, 0.0, 1.0),
    ]


def same_fields(a, b):
    return type(a) is type(b) and len(a) == len(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b)
    )


class TestRecords:
    def test_make_and_replace_run_the_checks(self):
        params = TripletParams(10.0, 120.0, 30.0)
        with pytest.raises(ValueError, match="^theta_deg: must lie in"):
            params._replace(theta_deg=500.0)
        with pytest.raises(ValueError, match="^theta_deg: must lie in"):
            TripletParams._make((500.0, 120.0, 30.0))
        setting = WaveplateSetting("half", 20.0)
        assert setting._replace(angle_deg=370.0).angle_deg == 10.0
        assert WaveplateSetting._make(("half", 370.0)) == ("half", 10.0)
        with pytest.raises(ValueError, match="^kind must be 'quarter' or 'half', got 'full'$"):
            setting._replace(kind="full")
        trace = FringeTrace(DELTA, np.ones(20))
        negative = -np.ones(20)
        for build in (lambda: trace._replace(intensity=negative), lambda: FringeTrace._make((DELTA, negative))):
            with pytest.raises(ValueError, match="^intensity must be finite and non-negative$"):
                build()
        # the kept fields are the converted ones, float64 arrays
        made = FringeTrace._make(([0.0, 2.0, 4.0, 6.0], [1, 2, 3, 2]))
        assert made.intensity.dtype == made.delta_rad.dtype == np.float64 and made.mean_photons is None

    def test_a_record_is_the_tuple_of_its_fields(self):
        theta, chi, phi = params = TripletParams(theta_deg=10.0, chi_deg=120.0, phi_deg=30.0)
        assert params == (10.0, 120.0, 30.0) and params[2] == phi == 30.0 and (theta, chi) == params[:2]
        assert WaveplateSetting("half", -10.0) == ("half", 170.0)
        for record in checked_records():
            for join in (lambda: record + record, lambda: record * 2, lambda: 2 * record):
                with pytest.raises(TypeError):
                    join()
            assert not hasattr(record, "__dict__")

    def test_pickle_keeps_the_fields_and_the_checks(self):
        for record in checked_records():
            assert same_fields(pickle.loads(pickle.dumps(record)), record)
        # unpickling builds through the checks: a record made unchecked does not load
        for bad, field in ((TripletParams._trusted((500.0, 0.0, 0.0)), "theta_deg"),
                           (FringeTrace._trusted((DELTA, -np.ones(20), None)), "intensity")):
            data = pickle.dumps(bad)
            with pytest.raises(ValueError, match=f"^{field}"):
                pickle.loads(data)
        assert pickle.loads(pickle.dumps(WaveplateSetting._trusted(("half", 370.0)))).angle_deg == 10.0


@pytest.mark.parametrize("value", NOT_ONE_NUMBER, ids=lambda v: f"{type(v).__name__}{np.shape(v)}")
def test_inputs_of_one_number_name_the_field_of_an_array(value):
    with pytest.raises(ValueError, match=r"^angle_deg: takes one number, got "):
        WaveplateSetting("half", value)
    with pytest.raises(ValueError, match=r"^theta_deg: takes one number, got "):
        sweep_phi(value, 120.0, GRID)
    with pytest.raises(ValueError, match=r"^chi_deg: takes one number, got "):
        sweep_phi(10.0, value, GRID)
    s1, s2, s3 = make_triplet(TripletParams(10.0, 120.0, 30.0))
    with pytest.raises(ValueError, match=r"^noise_mean_photons: takes one number, got "):
        fringe_trace(s1, s2, s3, DELTA, noise_mean_photons=value, rng=1)


@pytest.mark.parametrize("states", [np.eye(2)[:1], np.eye(2)], ids=["one", "two"])
def test_a_batch_of_states_is_not_one_state(states):
    match = r"^QubitState takes one state, one number per component, got "
    with pytest.raises(ValueError, match=match):
        solve_waveplates(states, ("half",), (1, 0))
    with pytest.raises(ValueError, match=match):
        solve_waveplates((0, 1), ("half",), states)
    with pytest.raises(ValueError, match=r"^BlochVector takes one state, one number per component, got "):
        BlochVector(*np.eye(3)[: len(states)])


def test_inputs_of_one_number_take_a_zero_d_array():
    assert WaveplateSetting("half", np.array(370.0)) == ("half", 10.0)
    assert sweep_phi(np.array(10.0), np.array(120.0), GRID).jumps == sweep_phi(10.0, 120.0, GRID).jumps
    s1, s2, s3 = make_triplet(TripletParams(10.0, 120.0, 30.0))
    zero_d = fringe_trace(s1, s2, s3, DELTA, noise_mean_photons=np.array(1e3), rng=1)
    scalar = fringe_trace(s1, s2, s3, DELTA, noise_mean_photons=1e3, rng=1)
    assert zero_d.mean_photons == 1e3 and np.array_equal(zero_d.intensity, scalar.intensity)
    assert QubitState(np.array(1.0), np.array(0.0)) == (1, 0)


def test_one_python_number_is_checked_without_numpy(monkeypatch):
    monkeypatch.setattr(core, "np", None)  # any numpy call would raise AttributeError
    for value in (3, 2.5, True):
        got = check_number("x", value, (0.0, 10.0))
        assert type(got) is float and got == value
    with pytest.raises(ValueError, match=r"^x: must lie in \(0, 10\], got 0.0$"):
        check_number("x", 0.0, (0.0, 10.0), "(]")


def test_complex_values_are_rejected_by_name():
    for value in (10j, 10 + 0j, np.complex128(10.0), np.array(10 + 0j), np.array([10 + 5j]), [10.0, 1j]):
        with pytest.raises(ValueError, match=r"^x: must be real, got "):
            check_range("x", value, (0.0, 180.0))
    assert check_range("x", np.array([10.0]), (0.0, 180.0)).dtype == np.float64
    for args, name in (((10j, 0.0, 0.0), "theta_deg"), ((10.0, np.array([1j]), 0.0), "chi_deg"),
                       ((10.0, 0.0, 2j), "phi_deg"), ((np.array([10 + 5j]), 0.0, 0.0), "theta_deg")):
        for build in (TripletParams, analytic_total_phase):
            with pytest.raises(ValueError, match=f"^{name}: must be real, got "):
                build(*args)
    with pytest.raises(ValueError, match="^angle_deg: must be real, got "):
        WaveplateSetting("half", 10j)


def test_list_and_tuple_fields_act_as_arrays():
    want_states = make_states(TripletParams(np.array([10.0, 20.0]), 120.0, np.array([30.0])))
    want_triplet = make_triplet(TripletParams(np.array([10.0, 20.0]), 120.0, np.array([30.0])))
    for theta, phi in (([10.0, 20.0], [30.0]), ((10.0, 20.0), (30.0,))):
        params = TripletParams(theta, 120.0, phi)
        assert isinstance(params.theta_deg, np.ndarray) and isinstance(params.phi_deg, np.ndarray)
        assert all(np.array_equal(g, w) for g, w in zip(make_states(params), want_states))
        assert all(np.array_equal(g, w) for g, w in zip(make_triplet(params), want_triplet))
    with pytest.raises(ValueError, match="^theta_deg: must lie in"):
        TripletParams([10.0, 500.0], 0.0, 0.0)
    s1, s2, s3 = make_triplet(TripletParams(10.0, 120.0, 30.0))
    want = fringe_trace(s1, s2, s3, DELTA, arm_ratio=np.array([0.5, 2.0])).intensity
    for ratio in ([0.5, 2.0], (0.5, 2.0)):
        assert np.array_equal(fringe_trace(s1, s2, s3, DELTA, arm_ratio=ratio).intensity, want)
    with pytest.raises(ValueError, match="shapes \\(2,\\), \\(\\), \\(3,\\) do not broadcast"):
        TripletParams([10.0, 20.0], 0.0, (1.0, 2.0, 3.0))
    # numpy scalars are numbers: they give wrappers, as Python floats do
    for x in (np.float64(10.0), np.float32(10.0), np.int64(10)):
        params = TripletParams(x, x, x)
        assert all(isinstance(s, QubitState) for s in make_states(params))
        assert all(isinstance(s, SymmetricState) for s in make_triplet(params))
        assert math.isclose(params.theta_deg, 10.0)
