"""Phase primitives: states, overlaps, three-vertex phases, Majorana
decomposition, Bloch geometry."""

import cmath
import math
import re

import numpy as np
import pytest

from triphase.core import (
    BlochVector,
    DegenerateTriangle,
    QubitState,
    SymmetricState,
    UndefinedPhase,
    bloch_from_qubit,
    check_range,
    inner,
    majorana_decompose,
    random_states,
    spherical_triangle_signed_area,
    symmetrize,
    three_vertex_phase,
    wrap_angle,
)
from triphase.triplet import TripletParams, make_states, make_triplet

H = QubitState(1, 0)
V = QubitState(0, 1)
D = QubitState.of(1, 1)
R = QubitState.of(1, 1j)


def angdiff(a, b):
    return abs(wrap_angle(a - b))


def haar_qubit(rng):
    return QubitState(*random_states(rng, (), 2))


def haar_symmetric(rng):
    return SymmetricState(*random_states(rng, (), 3))


@pytest.mark.parametrize("ends", ["[)", "(]", "[]", "()"])
def test_check_range_closes_the_ends_it_names(ends):
    for value, inside in ((2.0, ends[0] == "["), (5.0, ends[1] == "]"), (2.0000000000000004, True), (4.999999999999999, True)):
        if inside:
            assert check_range("x", value, (2.0, 5.0), ends) is value
            array = np.array([3.0, value, 4.0])
            assert check_range("x", array, (2.0, 5.0), ends) is array
        else:
            with pytest.raises(ValueError, match=re.escape(f"x: must lie in {ends[0]}2, 5{ends[1]}, got {value}")):
                check_range("x", value, (2.0, 5.0), ends)
            with pytest.raises(ValueError, match=re.escape(f"got {value}")):
                check_range("x", np.array([3.0, value, 4.0]), (2.0, 5.0), ends)


@pytest.mark.parametrize("value, low, high, ends, shown", [
    (math.nan, 0.0, 1.0, "[]", "nan"),
    (math.nan, -math.inf, math.inf, "[]", "nan"),
    (math.inf, 0.0, math.inf, "[)", "inf"),
    (math.inf, -math.inf, math.inf, "()", "inf"),
    (-math.inf, -math.inf, 0.0, "(]", "-inf"),
    (np.array([-1.0, 0.5]), 0.0, 1.0, "[]", "-1.0"),  # the least element alone fails
    (np.array([0.5, 2.0]), 0.0, 1.0, "[]", "2.0"),  # the greatest element alone fails
    (np.array([-math.inf, 0.0]), -math.inf, math.inf, "()", "-inf"),  # -inf against an open -inf end
    (np.array([0.0, math.inf]), -math.inf, math.inf, "()", "inf"),
    (np.array([0.5, math.nan, 0.25]), 0.0, 1.0, "[]", "nan"),
    (np.array(math.nan), 0.0, 1.0, "[]", "nan"),
    (1000001, 10, 10**6, "[]", "1000001"),  # exactly: with %g it would read 1e+06, a value inside
    (180.0000001, 0.0, 180.0, "()", "180.0000001"),
    (-1, 0, math.inf, "[)", "-1"),
])
def test_check_range_rejects_with_the_value_exactly(value, low, high, ends, shown):
    with pytest.raises(ValueError) as exc:
        check_range("field", value, (low, high), ends)
    assert str(exc.value) == f"field: must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {shown}"


@pytest.mark.parametrize("empty", [np.array([]), np.empty((2, 0)), []], ids=["1-d", "2-d", "list"])
def test_check_range_names_an_empty_array(empty):
    with pytest.raises(ValueError) as exc:
        check_range("field", empty, (0.0, 1.0))
    assert str(exc.value) == "field: must not be empty"


def test_check_range_passes_infinite_values_at_closed_infinite_ends():
    assert check_range("x", math.inf, (0.0, math.inf), "(]") == math.inf
    assert check_range("x", -math.inf, (-math.inf, 0.0), "[]") == -math.inf
    assert check_range("x", 2**64, (0, math.inf)) == 2**64


class TestStates:
    def test_constructor_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            QubitState(1, 1)
        with pytest.raises(ValueError):
            QubitState(1, 0)._replace(amp_v=1)
        with pytest.raises(ValueError):
            SymmetricState(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            BlochVector(1, 1, 0)
        with pytest.raises(TypeError, match="QubitState takes 2 components, got 3"):
            QubitState(1, 0, 0)
        # NaN fails every comparison, so a norm of NaN must not pass as 1
        for make, args in ((QubitState, (math.nan, 0)), (SymmetricState, (math.nan, 0, 0)),
                           (BlochVector, (math.nan, 0, 0)), (QubitState.of, (math.inf, 1))):
            with pytest.raises(ValueError):
                make(*args)

    def test_library_wrappers_equal_validated_ones(self):
        # the wrappers the library builds from parts it has just made unit skip
        # the norm check; the validated constructor must accept each of them
        # and give the same bits, with every field of the wrapper's kind
        def check(wrapper):
            assert all(type(x) is wrapper._kind for x in wrapper)
            assert np.array(type(wrapper)(*wrapper)).tobytes() == np.array(wrapper).tobytes()

        rng = np.random.default_rng(21)
        settings = rng.uniform(0.0, (180.0, 360.0, 360.0), size=(2000, 3)).tolist()
        for theta, chi, phi in settings + [[0, 0, 0], [90, 0, 0], [10, 180, 0]]:
            params = TripletParams(theta, chi, phi)
            for wrapper in (*make_states(params), *make_triplet(params)):
                check(wrapper)
        for _ in range(200):
            for wrapper in (*majorana_decompose(haar_symmetric(rng)), bloch_from_qubit(haar_qubit(rng))):
                check(wrapper)

    def test_of_normalizes(self):
        s = QubitState.of(3, 4j)
        assert abs(s.amp_h - 0.6) < 1e-15 and abs(s.amp_v - 0.8j) < 1e-15
        with pytest.raises(ValueError):
            QubitState.of(0, 0)

    def test_wrap_angle_branch(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
        assert abs(wrap_angle(0.3) - 0.3) < 1e-15

    def test_array_wrap_keeps_the_bits_of_np_mod(self):
        # the array path lifts np.fmod's negative remainders by 2 pi; np.mod's form is the reference
        rng = np.random.default_rng(31)
        scales = 10.0 ** np.arange(-300.0, 301.0, 20.0)
        x = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
            np.arange(-40, 41) * math.pi,
            (rng.uniform(-1.0, 1.0, (scales.size, 400)) * scales[:, None]).ravel(),
        ])
        want = math.pi - np.mod(math.pi - x, 2.0 * math.pi)
        got = wrap_angle(x)
        assert got.dtype == np.float64 and np.array_equal(got.view(np.int64), want.view(np.int64))
        for value in (-0.0, -math.pi, 3.0 * math.pi, -5e-324):  # a 0-d array takes the array path, and gives a float
            got = wrap_angle(np.array(value))
            assert type(got) is float and got == math.pi - np.mod(math.pi - value, 2.0 * math.pi)
        assert np.isnan(wrap_angle(np.array([math.nan, 1.0]))[0])


class _ThreeVertexLaws:
    """The laws of three_vertex_phase in dimension ``d``; each subclass fixes d."""

    d: int
    gauge_seed: int
    cyclic_seed: int

    def state(self, *amps):
        return (QubitState if self.d == 2 else SymmetricState).of(*amps)

    def random(self, rng):
        return (haar_qubit if self.d == 2 else haar_symmetric)(rng)

    def test_identical_states_zero(self):
        e0 = self.state(1, *[0] * (self.d - 1))
        assert three_vertex_phase(e0, e0, e0) == 0.0

    def test_orthogonal_pair_raises(self):
        e0 = self.state(1, *[0] * (self.d - 1))
        e1 = self.state(0, 1, *[0] * (self.d - 2))
        for c in (self.state(*[1] * self.d), self.state(1, *[1j] * (self.d - 1))):
            with pytest.raises(UndefinedPhase):
                three_vertex_phase(e0, e1, c)

    def test_nan_state_raises(self):
        nan = np.array([math.nan] + [0.0] * (self.d - 1))
        with pytest.raises(UndefinedPhase):
            three_vertex_phase(nan, nan, nan)
        batch = np.stack([self.state(*[1] * self.d).vec, nan])
        with pytest.raises(UndefinedPhase):
            three_vertex_phase(batch, batch, batch)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
    def test_a_non_finite_argument_is_named(self, bad):
        # the failure names the argument that holds it, not a singular triple; the passing path checks nothing
        # more.  An inf makes numpy warn inside the products (the open non-finite half of the array primitives).
        states = random_states(np.random.default_rng(self.gauge_seed), (4, 3), self.d)
        for k, name in enumerate("abc"):
            for component in range(self.d):
                args = states.copy()
                args[2, k, component] = bad
                with np.errstate(invalid="ignore", over="ignore"):
                    with pytest.raises(UndefinedPhase, match=f"^{name}: must be finite, got "):
                        three_vertex_phase(args[:, 0], args[:, 1], args[:, 2])

    def test_gauge_invariance(self):
        rng = np.random.default_rng(self.gauge_seed)
        for _ in range(1000):
            a, b, c = (self.random(rng) for _ in range(3))
            base = three_vertex_phase(a, b, c)
            u, v, w = np.exp(1j * rng.uniform(-math.pi, math.pi, size=3))
            a2, b2, c2 = (type(s)(*(z * x for x in s)) for z, s in ((u, a), (v, b), (w, c)))
            assert angdiff(three_vertex_phase(a2, b2, c2), base) <= 1e-12
            assert angdiff(three_vertex_phase(a2, b, c), base) <= 1e-12

    def test_cyclic_and_swap(self):
        rng = np.random.default_rng(self.cyclic_seed)
        for _ in range(1000):
            a, b, c = (self.random(rng) for _ in range(3))
            g = three_vertex_phase(a, b, c)
            assert angdiff(three_vertex_phase(b, c, a), g) <= 1e-12
            assert angdiff(three_vertex_phase(c, a, b), g) <= 1e-12
            assert angdiff(three_vertex_phase(a, c, b), -g) <= 1e-12


class TestThreeVertexQubit(_ThreeVertexLaws):
    d, gauge_seed, cyclic_seed = 2, 11, 12

    def test_h_d_r_quarter_turn(self):
        # independent oracle: multiply the overlaps out by hand
        product = inner(H, R) * inner(R, D) * inner(D, H)
        assert product == pytest.approx((1 - 1j) / 4, abs=1e-15)
        gamma = three_vertex_phase(H, D, R)
        assert gamma == pytest.approx(-math.pi / 4, abs=1e-12)
        assert gamma == pytest.approx(cmath.phase(product), abs=1e-15)


class TestThreeVertexQutrit(_ThreeVertexLaws):
    d, gauge_seed, cyclic_seed = 3, 13, 13


class TestBatched:
    """Arrays of shape (..., d) give, element by element, the scalar results."""

    def test_matches_scalar_results(self):
        rng = np.random.default_rng(19)
        qubits = [[haar_qubit(rng) for _ in range(3)] for _ in range(40)]
        qutrits = [[haar_symmetric(rng) for _ in range(3)] for _ in range(40)]
        for states in (qubits, qutrits):
            arr = np.array(states)
            a, b, c = arr[:, 0], arr[:, 1], arr[:, 2]
            assert inner(a, b) == pytest.approx([inner(x, y) for x, y, _ in states], abs=1e-15)
            scalar = [three_vertex_phase(*s) for s in states]
            assert np.max(np.abs(wrap_angle(three_vertex_phase(a, b, c) - scalar))) < 1e-14
        a, b, c = (np.array(qubits)[:, k] for k in range(3))
        assert np.allclose(symmetrize(a, b), [symmetrize(x, y).vec for x, y, _ in qubits], rtol=0, atol=1e-15)
        va, vb, vc = bloch_from_qubit(a), bloch_from_qubit(b), bloch_from_qubit(c)
        assert np.allclose(va, [bloch_from_qubit(x).vec for x, _, _ in qubits], rtol=0, atol=1e-15)
        omega = spherical_triangle_signed_area(va, vb, vc)
        scalar = [spherical_triangle_signed_area(*map(bloch_from_qubit, s)) for s in qubits]
        assert np.max(np.abs(omega - scalar)) < 1e-14

        theta, chi, phi = rng.uniform(0, 180, 30), rng.uniform(0, 360, 30), rng.uniform(0, 360, 30)
        batched = make_triplet(TripletParams(theta, chi, phi))
        for k, params in enumerate(map(TripletParams, theta, chi, phi)):
            for got, want in zip(batched, make_triplet(params)):
                assert np.allclose(got[k], want.vec, rtol=0, atol=1e-15)
        broadcast = make_triplet(TripletParams(np.array(10.0), 120.0, np.array([[30.0], [60.0]])))
        assert all(s.shape == (2, 1, 3) for s in broadcast)
        with pytest.raises(ValueError, match="phi_deg"):
            TripletParams(theta, chi, np.append(phi[1:], 360.0))

        with pytest.raises(ValueError, match="dimensions 2 and 3"):
            inner(a, np.array(qutrits)[:, 0])
        # one singular or antipodal element fails the whole batch
        h, v = np.array([1, 0j]), np.array([0, 1 + 0j])
        with pytest.raises(UndefinedPhase):
            three_vertex_phase(np.stack([a[0], h]), np.stack([b[0], v]), np.stack([c[0], h]))
        with pytest.raises(DegenerateTriangle):
            spherical_triangle_signed_area(
                np.stack([va[0], [0, 0, 1.0]]), np.stack([vb[0], [0, 0, -1.0]]), vc[:2]
            )

    def test_majorana_batch_matches_single_states(self):
        rng = np.random.default_rng(20)
        states = [haar_symmetric(rng) for _ in range(30)]
        # degree drops, coincident pairs and |VV>, which take the other branches
        states += [SymmetricState.of(0, 0.6, 0.8), symmetrize(D, D)]
        states += [SymmetricState(1, 0, 0), SymmetricState(0, 0, 1)]
        p, q = majorana_decompose(np.reshape(states, (2, 17, 3)))
        assert p.shape == q.shape == (2, 17, 2)
        for k, s in enumerate(states):
            one = majorana_decompose(s)
            for got, want in zip((p.reshape(-1, 2)[k], q.reshape(-1, 2)[k]), one):
                assert np.allclose(got, want.vec, rtol=0, atol=1e-15)


class TestSymmetrize:
    def test_coincident_pair(self):
        s = symmetrize(H, H)
        assert s.amp_hh == 1.0 and s.amp_sym == 0.0 and s.amp_vv == 0.0

    def test_orthogonal_pair(self):
        s = symmetrize(H, V)
        assert abs(s.amp_sym - 1.0) < 1e-15
        assert s.amp_hh == 0.0 and s.amp_vv == 0.0

    def test_h_with_diagonal(self):
        # |H>|D> + |D>|H> expands to (2|HH> + sqrt(2)*sym)/sqrt(6)
        s = symmetrize(H, D)
        expected = np.array([2.0, math.sqrt(2.0), 0.0]) / math.sqrt(6.0)
        assert np.allclose(s.vec, expected, atol=1e-15)

    def test_exactly_symmetric_in_arguments(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p, q = haar_qubit(rng), haar_qubit(rng)
            a, b = symmetrize(p, q), symmetrize(q, p)
            assert a.amp_hh == b.amp_hh and a.amp_sym == b.amp_sym and a.amp_vv == b.amp_vv

    def test_wrappers_normalize_as_the_checked_constructor_does(self):
        # The wrapper path normalizes inline and unchecked, to the bits SymmetricState.of
        # gives for the same parts.  The array path's complex loops may round otherwise.
        rng = np.random.default_rng(15)
        pairs = [(H, H), (H, V), (D, QubitState.of(1, -1)), (R, QubitState.of(1, -1j))]
        pairs += [(haar_qubit(rng), haar_qubit(rng)) for _ in range(300)]
        arrays = symmetrize(np.array(pairs)[:, 0], np.array(pairs)[:, 1])
        for k, (p, q) in enumerate(pairs):
            (ph, pv), (qh, qv) = p, q
            want = SymmetricState.of(2.0 * ph * qh, math.sqrt(2.0) * (ph * qv + pv * qh), 2.0 * pv * qv)
            got = symmetrize(p, q)
            assert type(got) is SymmetricState and all(type(x) is complex for x in got)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert np.allclose(got, arrays[k], rtol=0, atol=1e-15)

    def test_norm_bounded_below(self):
        # squared norm before normalization is 2(1 + |<p|q>|^2); antipodal
        # pairs still give a valid state
        s = symmetrize(D, QubitState.of(1, -1))
        assert abs(s.amp_hh) ** 2 + abs(s.amp_sym) ** 2 + abs(s.amp_vv) ** 2 == pytest.approx(1.0)


class TestMajorana:
    def test_coincident_pole(self):
        p, q = majorana_decompose(SymmetricState(1, 0, 0))
        assert abs(inner(p, H)) == pytest.approx(1.0, abs=1e-12)
        assert abs(inner(q, H)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_hv(self):
        p, q = majorana_decompose(SymmetricState(0, 1, 0))
        fids = sorted([abs(inner(p, H)), abs(inner(q, H))])
        assert fids[1] == pytest.approx(1.0, abs=1e-12)
        fids = sorted([abs(inner(p, V)), abs(inner(q, V))])
        assert fids[1] == pytest.approx(1.0, abs=1e-12)

    def test_degree_drop_gives_vertical(self):
        s = SymmetricState.of(0, 0.6, 0.8)
        p, q = majorana_decompose(s)
        assert q.amp_h == 0.0 and abs(q.amp_v) == 1.0
        assert abs(inner(symmetrize(p, q), s)) >= 1.0 - 1e-12

    def test_vv_state(self):
        p, q = majorana_decompose(SymmetricState(0, 0, 1))
        assert p.amp_h == 0.0 and q.amp_h == 0.0

    def test_roundtrip_random(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            s = haar_symmetric(rng)
            p, q = majorana_decompose(s)
            assert abs(inner(symmetrize(p, q), s)) >= 1.0 - 1e-9

    def test_roundtrip_near_degenerate(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            p = haar_qubit(rng)
            eps = 10.0 ** rng.uniform(-10, -4)
            q = QubitState.of(*(p.vec + eps * (rng.normal(size=2) + 1j * rng.normal(size=2))))
            s = symmetrize(p, q)
            pp, qq = majorana_decompose(s)
            assert abs(inner(symmetrize(pp, qq), s)) >= 1.0 - 1e-9


class TestBloch:
    def test_conventions(self):
        assert np.allclose(bloch_from_qubit(H).vec, [0, 0, 1], atol=1e-15)
        assert np.allclose(bloch_from_qubit(D).vec, [1, 0, 0], atol=1e-15)
        assert np.allclose(bloch_from_qubit(R).vec, [0, 1, 0], atol=1e-15)
        assert np.allclose(bloch_from_qubit(V).vec, [0, 0, -1], atol=1e-15)



class TestSolidAngle:
    def test_degenerate_triangle_zero(self):
        v = bloch_from_qubit(D)
        assert spherical_triangle_signed_area(v, v, v) == 0.0

    def test_octant_orientation(self):
        z, x, y = BlochVector(0, 0, 1), BlochVector(1, 0, 0), BlochVector(0, 1, 0)
        omega = spherical_triangle_signed_area(z, x, y)
        assert omega == pytest.approx(math.pi / 2, abs=1e-12)
        assert spherical_triangle_signed_area(z, y, x) == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_antipodal_raises(self):
        z, zm, x = BlochVector(0, 0, 1), BlochVector(0, 0, -1), BlochVector(1, 0, 0)
        with pytest.raises(DegenerateTriangle):
            spherical_triangle_signed_area(z, zm, x)

    def test_area_phase_law(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            a, b, c = (haar_qubit(rng) for _ in range(3))
            product = inner(a, c) * inner(c, b) * inner(b, a)
            if abs(product) < 1e-6:
                continue
            gamma = three_vertex_phase(a, b, c)
            omega = spherical_triangle_signed_area(
                bloch_from_qubit(a), bloch_from_qubit(b), bloch_from_qubit(c)
            )
            assert abs(wrap_angle(gamma + omega / 2.0)) < 1e-9
