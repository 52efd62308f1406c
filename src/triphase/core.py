"""Exact complex-arithmetic primitives for polarization qubits and
symmetrized two-photon (qutrit) states.

Conventions used throughout the package:

* ``|H> = (1, 0)``, ``|V> = (0, 1)``; inner products conjugate the first
  argument.
* Qutrit basis: ``{|HH>, (|HV>+|VH>)/sqrt(2), |VV>}``.
* Bloch map: ``|H> -> +z``, ``(|H>+|V>)/sqrt(2) -> +x``,
  ``(|H>+i|V>)/sqrt(2) -> +y``.
* All phase angles are reported in ``(-pi, pi]``.
* ``inner``, ``three_vertex_phase``, ``symmetrize``, ``bloch_from_qubit`` and
  ``spherical_triangle_signed_area`` take the wrappers or arrays of shape
  ``(..., d)`` and broadcast; wrappers in give wrappers out, any array in
  gives arrays out.  Each formula is written once, over the component tuple,
  so wrappers stay in Python complex arithmetic.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

NORM_TOL = 1e-12
# Below this product magnitude the argument of the overlap product is
# dominated by rounding noise, so the phase is treated as undefined.
PHASE_SINGULAR_TOL = 1e-12
ANTIPODAL_TOL = 1e-9


class UndefinedPhase(ValueError):
    """The overlap product is (numerically) zero, so its phase is singular."""


class DegenerateTriangle(ValueError):
    """Two spherical-triangle vertices are antipodal; geodesics are ill-defined."""


def check_range(name, value, bounds, ends="[)"):
    """``value`` if it lies between ``bounds`` = (low, high), each end closed ("[", "]") or open ("(", ")")
    as ``ends`` says; an array, or a list or tuple as its array, if its least and greatest element do.
    Else a ValueError naming the field and the value as given (an array's failing extreme), or that it
    is empty or complex; NaN fails."""
    low, high = bounds  # one pair, not two arguments: unpacking a pair into a call costs more than the check
    least = most = value
    if not isinstance(value, (float, int)):  # both extremes: an array holding -inf fails an open -inf end
        value = np.asarray(value) if isinstance(value, (list, tuple)) else value
        if not np.size(value):
            raise ValueError(f"{name}: must not be empty")
        if np.iscomplexobj(value):  # numpy would order it by real part, then imaginary part
            raise ValueError(f"{name}: must be real, got {value}")
        least, most = np.min(value), np.max(value)
    above = least > low or least == low and ends[0] == "["  # ends are read only at a bound; NaN fails both
    if above and (most < high or most == high and ends[1] == "]"):
        return value
    raise ValueError(f"{name}: must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {most if above else least}")


def wrap_angle(x):
    """Wrap an angle (or array of angles) into (-pi, pi].  An array gives pi - np.mod(pi - x, 2 pi) bit for bit: the
    remainder of np.mod is that of np.fmod, lifted by 2 pi where negative, without np.mod's floor division."""
    if isinstance(x, float):  # numpy's float64 too; Python's % rounds as np.mod does
        return math.pi - (math.pi - float(x)) % (2.0 * math.pi)
    r = np.fmod(math.pi - np.asarray(x, dtype=float), 2.0 * math.pi)
    r += (r < 0.0) * (2.0 * math.pi)  # a product, not np.where, which costs more than np.fmod saves
    return float(math.pi - r) if np.ndim(x) == 0 else math.pi - r


class Record(tuple):
    """A named tuple whose ``__new__`` checks its fields.  A record class
    derives from Record, then from its ``namedtuple``, so that ``_make`` and
    ``_replace`` build through that check too.  A record is not a sequence
    to join or repeat: ``+`` and ``*`` raise TypeError."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None

    @classmethod
    def _make(cls, fields):  # the named tuple's _make, which _replace calls, skips __new__
        return cls(*fields)

    @classmethod
    def _trusted(cls, fields):
        """The record of fields that the library has just made valid, unchecked."""
        return tuple.__new__(cls, fields)


class _Unit(Record):
    """A unit vector as the named tuple of its components (of type ``_kind``)."""

    __slots__ = ()

    def __new__(cls, *parts):
        try:
            self = tuple.__new__(cls, map(cls._kind, parts))
        except TypeError:  # an array of components: a batch, not one state
            raise ValueError(f"{cls.__name__} takes one state, one number per component, got {parts}") from None
        if len(self) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} components, got {len(self)}")
        n = 0.0
        for x in self:
            n += abs(x) ** 2
        if not abs(n - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"{cls._what} = {n}")
        return self

    @classmethod
    def of(cls, *parts):
        """Build a normalized state from arbitrary non-zero components."""
        return cls(*_unit(parts))

    @property
    def vec(self) -> np.ndarray:
        return np.array(self, dtype=self._kind)


class QubitState(_Unit, namedtuple("QubitState", "amp_h amp_v")):
    """Normalized single-photon polarization state in the H/V basis."""

    __slots__ = ()
    _kind = complex
    _what = "qubit amplitudes are not normalized: |psi|^2"


class SymmetricState(_Unit, namedtuple("SymmetricState", "amp_hh amp_sym amp_vv")):
    """Normalized two-photon state in the symmetric (qutrit) basis.

    ``amp_sym`` multiplies the normalized basis vector (|HV>+|VH>)/sqrt(2),
    so the antisymmetric component is structurally impossible.
    """

    __slots__ = ()
    _kind = complex
    _what = "qutrit amplitudes are not normalized: |Psi|^2"


class BlochVector(_Unit, namedtuple("BlochVector", "x y z")):
    """Unit vector on the Bloch (Poincare) sphere."""

    __slots__ = ()
    _kind = float
    _what = "Bloch vector is not unit length: |v|^2"


def _parts(v):
    """The component tuple of a wrapper, or the last-axis slices of an array."""
    return v if isinstance(v, _Unit) else tuple(np.asarray(v)[..., k] for k in range(np.shape(v)[-1]))


def _unit(parts):
    """A component tuple (scalars, or arrays that broadcast) over its norm."""
    n2 = 0.0
    for x in parts:
        n2 = n2 + abs(x) ** 2
    batched = isinstance(n2, np.ndarray)
    if not n2.all() if batched else n2 == 0.0:
        raise ValueError("cannot normalize the zero vector")
    n = np.sqrt(n2) if batched else math.sqrt(n2)
    return [x / n for x in parts]


def normalize(v) -> np.ndarray:
    """States of shape (..., d) over their norms; ValueError for a zero vector."""
    return np.stack(_unit(_parts(v)), -1)


def inner(a, b):
    """<a|b> with conjugation on the first argument, in any dimension."""
    a, b = _parts(a), _parts(b)
    if len(a) != len(b):
        raise ValueError(f"inner product of dimensions {len(a)} and {len(b)}")
    out = 0.0
    for x, y in zip(a, b):
        out = out + x.conjugate() * y
    return out


# Kept for perfbench/workloads.py, which imports it; not exported from triphase.
qutrit_inner = inner


def three_vertex_phase(a, b, c):
    """arg <a|c><c|b><b|a>, in (-pi, pi], for qubits, qutrits or any dimension.

    Invariant under global phases of any argument, cyclic in (a, b, c), and
    antisymmetric under swapping any two arguments.  Raises UndefinedPhase
    when some pair is (numerically) orthogonal, for any element of a batch.
    """
    product = inner(a, c) * inner(c, b) * inner(b, a)
    smallest = np.min(np.abs(product), initial=np.inf)
    if not smallest >= PHASE_SINGULAR_TOL:  # NaN fails too
        raise UndefinedPhase(
            f"overlap product magnitude {smallest:.3e} is below "
            f"{PHASE_SINGULAR_TOL:.0e}; the phase is singular"
        )
    return wrap_angle(np.angle(product))


def symmetrize(p, q):
    """Normalized symmetrization of |p>|q> + |q>|p>.

    Always well defined: the squared norm before normalization is
    2(1 + |<p|q>|^2) >= 2.  Exactly symmetric in its arguments.
    """
    (ph, pv), (qh, qv) = _parts(p), _parts(q)
    hh, sym, vv = 2.0 * ph * qh, math.sqrt(2.0) * (ph * qv + pv * qh), 2.0 * pv * qv
    if isinstance(p, _Unit) and isinstance(q, _Unit):
        # _unit's arithmetic on parts already complex, without its zero check: the norm is at least sqrt(2)
        n = math.sqrt(abs(hh) ** 2 + abs(sym) ** 2 + abs(vv) ** 2)
        return tuple.__new__(SymmetricState, (hh / n, sym / n, vv / n))
    return np.stack(np.broadcast_arrays(*_unit((hh, sym, vv))), -1)


def majorana_decompose(s):
    """Unordered constituent pair {p, q} with symmetrize(p, q) == s up to phase.

    Roots of amp_hh*w^2 + sqrt(2)*amp_sym*w + amp_vv = 0 map to the pair via
    w -> (|H> - w|V>)/norm, i.e. a root num/den to the state (den, -num); a
    degree drop (amp_hh -> 0) contributes |V> (the root at infinity).
    Degenerate states return a coincident pair.  A wrapper gives two
    QubitStates, an array of shape (..., 3) two arrays of shape (..., 2).
    """
    a, b, c = _parts(s)
    b = math.sqrt(2.0) * b
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(disc + 0j)
    sq = np.where((np.conj(b) * sq).real < 0.0, -sq, sq)
    t = -(b + sq) / 2.0
    # Near-degenerate discriminants lose the root splitting to rounding;
    # the coincident pair -b/(2a) is then the accurate reconstruction.
    merged = (t == 0.0) | (abs(disc) < 1e-24 * np.maximum(np.maximum(abs(b * b), abs(4.0 * a * c)), 1e-30))
    flat = abs(a) < 1e-14
    # the states (den, -num) of the roots t/a and c/t, both -b/(2a) when merged;
    # without the quadratic term, -c/b and the root at infinity, |V>
    p = np.where(merged, 2.0 * a, a), np.where(merged, b, -t)
    q = np.where(merged, 2.0 * a, t), np.where(merged, b, -c)
    p = _unit((np.where(flat, b, p[0]), np.where(flat, c, p[1])))
    q = _unit((np.where(flat, 0.0, q[0]), np.where(flat, 1.0, q[1])))
    if isinstance(s, _Unit):
        return QubitState._trusted(map(complex, p)), QubitState._trusted(map(complex, q))
    return np.stack(p, -1), np.stack(q, -1)


def bloch_from_qubit(p):
    """Bloch map with |H> at the +z pole."""
    h, v = _parts(p)
    cross = h.conjugate() * v
    parts = (2.0 * cross.real, 2.0 * cross.imag, abs(h) ** 2 - abs(v) ** 2)
    return BlochVector._trusted(parts) if isinstance(p, _Unit) else np.stack(np.broadcast_arrays(*parts), -1)


def spherical_triangle_signed_area(v1, v2, v3):
    """Oriented solid angle of the geodesic triangle (v1, v2, v3), in (-2pi, 2pi].

    Sign convention: Omega(+z, +x, +y) = +pi/2, matching the phase-area law
    gamma(a, b, c) = -Omega/2 (mod 2pi) for the Bloch images of the states.
    Uses the two-argument arctangent (Van Oosterom-Strackee) form.  Raises
    DegenerateTriangle if two vertices of any element are antipodal.
    """
    ab, bc, ca = inner(v1, v2), inner(v2, v3), inner(v3, v1)
    if np.any(np.minimum(np.minimum(ab, bc), ca) <= -1.0 + ANTIPODAL_TOL):
        raise DegenerateTriangle("two vertices are antipodal within tolerance")
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = _parts(v1), _parts(v2), _parts(v3)
    triple = a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)
    omega = 2.0 * np.arctan2(triple, 1.0 + ab + bc + ca)
    return float(omega) if np.ndim(omega) == 0 else omega


def random_states(rng: np.random.Generator, shape: tuple, dim: int) -> np.ndarray:
    """Haar-random states of shape (*shape, dim): normalized complex normal
    vectors, each drawn as its dim real parts, then its dim imaginary parts."""
    z = rng.normal(size=(*shape, 2, dim))
    return normalize(z[..., 0, :] + 1j * z[..., 1, :])
