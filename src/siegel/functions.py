"""Scalar test functions on the Siegel upper half space.

A "point function" is anything with value(point) -> complex and
gradient(point) -> length-|Omega| array of holomorphic coordinate
derivatives d/dZ_I.  Values broadcast: given a stack of points (X and Y of
shape (..., g, g)), value returns one value per point.  The workhorse is
TestFunction, a sparse polynomial in the upper-triangle entries Z_I and
optionally their conjugates.  Its coefficients are Python numbers, kept as
given, so derivative bookkeeping stays exact for int and Fraction
coefficients until a value is requested at a numeric point, where it is
evaluated from exponent arrays compiled once.

A Jet is what the form layer keeps of a point function: its value and
holomorphic gradient at one point (``Jet.at``).  Jets add and scale by
numbers, which is all the dZ algebra does to a coefficient that D reads.
"""

from __future__ import annotations

import numbers
from functools import cached_property

import numpy as np

from .indexing import (Pair, _degree, _read_only, _same_degree, basis_stack,
                       omega_size, position, sym_to_coords)
from .symplectic import DegeneracyError, SiegelPoint


class TestFunction:
    """Sparse polynomial in {Z_I} and {conj Z_I}, I in Omega.

    Terms map (holo_exponents, anti_exponents) -> coefficient, the
    exponent tuples having one slot per Omega position.  A coefficient is
    any Python number, kept as given; sums, products and partial use
    Python's own arithmetic, exact for int and Fraction.  A sum or product
    of two degrees, or a value at a point of another, is a DimensionError.
    """

    __test__ = False  # not a pytest case, despite the name

    def __init__(self, g: int, terms: dict | None = None):
        self.g = _degree(g)
        self.m = omega_size(self.g)
        self.terms = {}
        for key, coef in (terms or {}).items():
            if not isinstance(coef, numbers.Number):
                raise TypeError(f"coefficient must be a number, got "
                                f"{type(coef).__name__}")
            if coef:
                self.terms[key] = coef

    @classmethod
    def constant(cls, g: int, value) -> "TestFunction":
        zero = (0,) * omega_size(g)
        return cls(g, {(zero, zero): value})

    @classmethod
    def coordinate(cls, g: int, pair: Pair, conj: bool = False) -> "TestFunction":
        m = omega_size(g)
        pos = position(pair, g)
        exps = tuple(1 if t == pos else 0 for t in range(m))
        zero = (0,) * m
        key = (zero, exps) if conj else (exps, zero)
        return cls(g, {key: 1})

    def _lift(self, other) -> "TestFunction":
        """other, with a number made a constant function of this degree."""
        if isinstance(other, numbers.Number):
            return TestFunction.constant(self.g, other)
        _same_degree("function", self.g, "function", other.g)
        return other

    def __add__(self, other):
        out: dict = dict(self.terms)
        for key, coef in self._lift(other).terms.items():
            out[key] = out.get(key, 0) + coef
        return TestFunction(self.g, out)

    __radd__ = __add__

    def __neg__(self):
        return TestFunction(self.g, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        other = self._lift(other)
        out: dict = {}
        for (h1, a1), c1 in self.terms.items():
            for (h2, a2), c2 in other.terms.items():
                key = (tuple(x + y for x, y in zip(h1, h2)),
                       tuple(x + y for x, y in zip(a1, a2)))
                c = out.get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                elif key in out:
                    del out[key]
        return TestFunction(self.g, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        out = TestFunction.constant(self.g, 1)
        for _ in range(n):
            out = out * self
        return out

    def partial(self, pair: Pair) -> "TestFunction":
        """Holomorphic coordinate derivative d/dZ_pair."""
        pos = position(pair, self.g)
        out: dict = {}
        for (holo, anti), coef in self.terms.items():
            e = holo[pos]
            if e == 0:
                continue
            new = list(holo)
            new[pos] = e - 1
            key = (tuple(new), anti)
            out[key] = out.get(key, 0) + coef * e
        return TestFunction(self.g, out)

    @cached_property
    def _compiled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(holo, anti, coef): exponent arrays of shape (terms, |Omega|)
        and the complex coefficient of each term."""
        keys = list(self.terms)
        holo = np.array([h for h, _ in keys], dtype=np.int64)
        anti = np.array([a for _, a in keys], dtype=np.int64)
        coef = np.array([complex(c) for c in self.terms.values()],
                        dtype=complex)
        shape = (len(keys), self.m)
        return _read_only((holo.reshape(shape), anti.reshape(shape), coef))

    def _compiled_gradient(self) -> tuple[np.ndarray, np.ndarray,
                                          np.ndarray]:
        """The partial derivative along each Omega position in the form of
        _compiled with one more leading axis: exponents of shape (|Omega|,
        terms, |Omega|) and coefficients of shape (|Omega|, terms).  Built
        per call, not cached: it is |Omega| times the size of _compiled and
        would stay alive with every function the verify suites hold."""
        holo, anti, coef = self._compiled
        lowered = holo - np.eye(self.m, dtype=np.int64)[:, None, :]
        return np.maximum(lowered, 0), anti, coef * holo.T

    def value(self, point: SiegelPoint) -> complex:
        """The value at a point or at every point of a stack, computed
        once per point object (kept on the point) and read-only."""
        return point.derived(_test_value, self)

    def gradient(self, point: SiegelPoint) -> np.ndarray:
        """The holomorphic coordinate gradient, kept and read-only as the
        value is."""
        return point.derived(_test_gradient, self)


def _test_value(fn: TestFunction, point: SiegelPoint) -> complex:
    _same_degree("function", fn.g, "point", point.g)
    coords = sym_to_coords(point.Z)[..., None, :]
    return _evaluate(coords, *fn._compiled)


def _test_gradient(fn: TestFunction, point: SiegelPoint) -> np.ndarray:
    _same_degree("function", fn.g, "point", point.g)
    coords = sym_to_coords(point.Z)[..., None, None, :]
    return _evaluate(coords, *fn._compiled_gradient())


def _evaluate(coords: np.ndarray, holo: np.ndarray, anti: np.ndarray,
              coef: np.ndarray) -> np.ndarray:
    """sum_t coef_t prod_I coords_I^holo_tI conj(coords_I)^anti_tI, with
    the term axis last but one in holo and anti and last in coef;
    DegeneracyError, with no numpy warning, when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (np.power(coords, holo).prod(axis=-1)
                 * np.power(np.conj(coords), anti).prod(axis=-1))
        out = (terms * coef).sum(axis=-1)
    if not np.isfinite(out).all():
        raise DegeneracyError("test function leaves the float range")
    return out


class Jet:
    """The 1-jet of a function at one point: its value there and its
    holomorphic gradient d/dZ_I, a length-|Omega| array.

    Jets add to jets and scale by numbers, so a form with jet coefficients
    is a form at its point.  A jet never equals 0: a form keeps every jet
    it is given.  ``__array_ufunc__ = None`` makes a numpy scalar times a
    jet defer to the jet."""

    __slots__ = ("value", "grad")
    __array_ufunc__ = None

    def __init__(self, value, grad: np.ndarray):
        self.value = value
        self.grad = grad

    @classmethod
    def at(cls, fn, point: SiegelPoint) -> "Jet":
        """The jet at point of a point function: anything with
        value(point) and gradient(point)."""
        return cls(fn.value(point), fn.gradient(point))

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.value + other.value, self.grad + other.grad)

    def __mul__(self, other) -> "Jet":
        scale = complex(other)
        return Jet(scale * self.value, scale * self.grad)

    __rmul__ = __mul__


def fd_gradient(value_fn, point: SiegelPoint,
                h: float | tuple[float, ...] | None = None,
                order: int = 2) -> np.ndarray | tuple[np.ndarray, ...]:
    """Central-difference Wirtinger gradient d/dZ_I = (d/dX_I - i d/dY_I)/2
    of a function given by value_fn.

    h may be one step or a tuple of steps; for a tuple the result is a
    tuple with one gradient per step.  The stencil points of every step go
    into one stack of points, one per distinct offset (h/2 doubled is h, so
    steps h/2, h and 2h at order 4 need 8 offsets, not 12), direction (X or
    Y) and coordinate, and value_fn is called once on it: it must return
    one value per stacked point.  A value may be an array: the returned
    shape starts with the stack's and may carry trailing axes, and the
    gradient axis comes first in the result, of shape (|Omega|,) + the
    trailing axes.  order=4 uses the five-point stencil.  Each step is
    clipped to 0.05 times the smallest eigenvalue of Y so perturbed points
    stay in the domain.
    """
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order!r}")
    g = point.g
    if h is None:
        scale = float(np.abs(point.Z).max())
        if order == 2:
            h = 1e-6 * (1.0 + scale)
        else:
            # truncation falls off as h^4, so a small step wins until
            # roundoff, which stays far below these magnitudes
            h = 2e-6 * (1.0 + 0.01 * scale)
    steps = h if isinstance(h, tuple) else (h,)
    if not steps:  # an empty tuple holds no step
        raise ValueError("finite-difference step must be finite and "
                         "positive, got ()")
    for step in steps:
        # a bool is not a step
        if (isinstance(step, (bool, np.bool_))
                or not (np.isfinite(step) and step > 0)):
            raise ValueError(f"finite-difference step must be finite and "
                             f"positive, got {step!r}")
    margin = float(point.spectrum.min())
    steps = [min(step, 0.05 * margin) for step in steps]

    # each step's offsets, and where each sits among the distinct ones;
    # stack axes: (X or Y direction, distinct offset, coordinate)
    offsets = np.array(steps)[:, None] * np.array(
        [1.0, -1.0] if order == 2 else [1.0, -1.0, 2.0, -2.0])
    distinct, at = np.unique(offsets, return_inverse=True)
    shift = distinct[:, None, None, None] * basis_stack(g)
    still = np.zeros_like(shift)
    stack = SiegelPoint(g, point.X + np.stack([shift, still]),
                        point.Y + np.stack([still, shift]))
    values = np.asarray(value_fn(stack))
    leading = stack.X.shape[:-2]
    if values.shape[:len(leading)] != leading:
        raise ValueError(f"value_fn returned shape {values.shape} for a "
                         f"stack of shape {leading}")
    grads = []
    for step, where in zip(steps, at.reshape(offsets.shape)):
        v = values[:, where]
        if order == 2:
            d = (v[:, 0] - v[:, 1]) / (2 * step)
        else:
            d = (v[:, 3] - 8 * v[:, 1] + 8 * v[:, 0] - v[:, 2]) / (12 * step)
        grads.append(0.5 * (d[0] - 1j * d[1]))
    return tuple(grads) if isinstance(h, tuple) else grads[0]


def random_test_function(g: int, seed: int | np.random.Generator,
                         max_degree: int = 3, n_terms: int = 4,
                         conj: bool = False) -> TestFunction:
    """Sparse polynomial with small integer coefficients; holomorphic unless
    conj is set."""
    rng = np.random.default_rng(seed)
    m = omega_size(_degree(g))
    terms: dict = {}
    for _ in range(n_terms):
        deg = int(rng.integers(0, max_degree + 1))
        holo = [0] * m
        anti = [0] * m
        for _ in range(deg):
            pos = int(rng.integers(0, m))
            if conj and rng.integers(0, 4) == 0:
                anti[pos] += 1
            else:
                holo[pos] += 1
        coef = int(rng.integers(-3, 4)) or 1
        key = (tuple(holo), tuple(anti))
        terms[key] = terms.get(key, 0) + coef
    fn = TestFunction(g, terms)
    if not fn.terms:
        fn = TestFunction.constant(g, 1)
    return fn
