"""Commutative polynomial algebra on the generators dZ_I, I in Omega.

Monomials are canonical sorted tuples of 0-based Omega positions, so
dZ_I dZ_J == dZ_J dZ_I by construction.  Coefficients may be plain complex
numbers or point functions (see functions.py); zero coefficients are never
stored.
"""

from __future__ import annotations

import numbers
from itertools import permutations

import numpy as np

from .functions import SumFunction, ProductFunction, ScaledFunction
from .indexing import Pair, entry_positions, n_index, omega_size

Monomial = tuple[int, ...]


def _coef_add(a, b):
    if isinstance(a, numbers.Complex) and isinstance(b, numbers.Complex):
        return complex(a) + complex(b)
    from .functions import ConstFunction
    g = a.g if not isinstance(a, numbers.Complex) else b.g
    if isinstance(a, numbers.Complex):
        a = ConstFunction(g, a)
    if isinstance(b, numbers.Complex):
        b = ConstFunction(g, b)
    return SumFunction([a, b])


def _coef_mul(a, b):
    if isinstance(a, numbers.Complex) and isinstance(b, numbers.Complex):
        return complex(a) * complex(b)
    if isinstance(a, numbers.Complex):
        return ScaledFunction(b, a)
    if isinstance(b, numbers.Complex):
        return ScaledFunction(a, b)
    return ProductFunction([a, b])


def _is_zero(coef) -> bool:
    return isinstance(coef, numbers.Complex) and complex(coef) == 0


class FormPolynomial:
    """Sparse element of the commutative dZ algebra."""

    def __init__(self, g: int, terms: dict | None = None):
        self.g = g
        self.m = omega_size(g)
        self.terms: dict[Monomial, object] = {}
        for mono, coef in (terms or {}).items():
            if not _is_zero(coef):
                self.terms[tuple(sorted(mono))] = coef

    @classmethod
    def generator(cls, g: int, pair: Pair) -> "FormPolynomial":
        return cls(g, {(n_index(pair, g) - 1,): 1.0 + 0j})

    @classmethod
    def scalar(cls, g: int, coef) -> "FormPolynomial":
        return cls(g, {(): coef})

    def __add__(self, other: "FormPolynomial") -> "FormPolynomial":
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            if mono in out:
                out[mono] = _coef_add(out[mono], coef)
                if _is_zero(out[mono]):
                    del out[mono]
            else:
                out[mono] = coef
        return FormPolynomial(self.g, out)

    def __neg__(self) -> "FormPolynomial":
        return self.scale(-1.0)

    def __sub__(self, other: "FormPolynomial") -> "FormPolynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "FormPolynomial") -> "FormPolynomial":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                c = _coef_mul(c1, c2)
                if mono in out:
                    out[mono] = _coef_add(out[mono], c)
                else:
                    out[mono] = c
        return FormPolynomial(self.g, out)

    def scale(self, scalar) -> "FormPolynomial":
        return FormPolynomial(
            self.g, {m: _coef_mul(c, scalar) for m, c in self.terms.items()})

    def map_coefficients(self, fn) -> "FormPolynomial":
        return FormPolynomial(self.g, {m: fn(c) for m, c in self.terms.items()})

    def evaluate_coefficients(self, point) -> "FormPolynomial":
        """Collapse point-function coefficients to numbers at a point."""
        from .functions import coefficient_value
        return FormPolynomial(
            self.g,
            {m: coefficient_value(c, point) for m, c in self.terms.items()})

    def prune(self, rel: float = 1e-14) -> "FormPolynomial":
        """Drop numeric coefficients below rel times the largest magnitude."""
        mags = [abs(complex(c)) for c in self.terms.values()
                if isinstance(c, numbers.Complex)]
        if not mags:
            return self
        cutoff = rel * max(mags)
        return FormPolynomial(
            self.g,
            {m: c for m, c in self.terms.items()
             if not isinstance(c, numbers.Complex) or abs(complex(c)) > cutoff})

    def degrees(self) -> set[int]:
        return {len(m) for m in self.terms}

    def __repr__(self):
        return f"FormPolynomial(g={self.g}, {len(self.terms)} terms)"


def det_dz(g: int) -> FormPolynomial:
    """det(dZ) expanded over permutations; entries dZ_ij = dZ_ji collapse
    into the commutative algebra."""
    positions = entry_positions(g)
    terms: dict = {}
    for perm in permutations(range(g)):
        sign = _perm_sign(perm)
        mono = tuple(sorted(positions[t + 1, perm[t] + 1] for t in range(g)))
        terms[mono] = terms.get(mono, 0j) + sign
    return FormPolynomial(g, terms)


def _perm_sign(perm) -> float:
    sign = 1.0
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def trace_form(Gmat, g: int) -> FormPolynomial:
    """Tr(G dZ) = sum_ij G_ij dZ_ji as a degree-1 form.  G may hold numbers
    or point functions; it must be symmetric."""
    from .indexing import omega_list
    terms: dict = {}
    for pos, (i, j) in enumerate(omega_list(g)):
        entry = Gmat[i - 1][j - 1] if isinstance(Gmat, list) else Gmat[i - 1, j - 1]
        weight = 1.0 if i == j else 2.0
        coef = _coef_mul(entry, weight)
        if not _is_zero(coef):
            terms[(pos,)] = coef
    return FormPolynomial(g, terms)


def max_coefficient_diff(f1: FormPolynomial, f2: FormPolynomial) -> float:
    """Max |c1 - c2| over the union of monomials; numeric coefficients only."""
    worst = 0.0
    for mono in set(f1.terms) | set(f2.terms):
        c1 = complex(f1.terms.get(mono, 0j))
        c2 = complex(f2.terms.get(mono, 0j))
        worst = max(worst, abs(c1 - c2))
    return worst


def substitute_basis(form: FormPolynomial, S: np.ndarray) -> FormPolynomial:
    """Substitute dZ_K -> sum_L S[L, K] dZ_L into a numeric-coefficient form."""
    m = form.m
    out = FormPolynomial(form.g, {})
    for mono, coef in form.terms.items():
        expanded = FormPolynomial.scalar(form.g, coef)
        for k in mono:
            lin = FormPolynomial(form.g,
                                 {(l,): S[l, k] for l in range(m) if S[l, k] != 0})
            expanded = expanded * lin
        out = out + expanded
    return out
