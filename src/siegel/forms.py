"""Commutative polynomial algebra on the generators dZ_I, I in Omega.

Monomials are canonical sorted tuples of 0-based Omega positions, so
dZ_I dZ_J == dZ_J dZ_I by construction.  Coefficients may be plain complex
numbers or point functions (see functions.py); zero coefficients are never
stored.

A form's terms keep the order in which their monomials first appeared; a
sum keeps the left operand's monomials in place and appends new ones, and
``add_term`` does the same in place for callers that accumulate many terms.
Forms built from other forms take their keys as already sorted
(``FormPolynomial.canonical``), and whether a coefficient is a number is
decided once per coefficient type.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .functions import (ConstFunction, ProductFunction, ScaledFunction,
                        SumFunction, is_number)
from .indexing import Pair, entry_positions, n_index, omega_list, omega_size

Monomial = tuple[int, ...]


def _coef_add(a, b):
    a_number, b_number = is_number(a), is_number(b)
    if a_number and b_number:
        return complex(a) + complex(b)
    g = a.g if not a_number else b.g
    if a_number:
        a = ConstFunction(g, a)
    if b_number:
        b = ConstFunction(g, b)
    return SumFunction([a, b])


def _coef_mul(a, b):
    a_number, b_number = is_number(a), is_number(b)
    if a_number and b_number:
        return complex(a) * complex(b)
    if a_number:
        return ScaledFunction(b, a)
    if b_number:
        return ScaledFunction(a, b)
    return ProductFunction([a, b])


def _is_zero(coef) -> bool:
    return is_number(coef) and complex(coef) == 0


def add_term(terms: dict, mono: Monomial, coef) -> None:
    """Add coef to terms[mono] in place, a canonical key being assumed;
    a sum that cancels to zero is removed, and a new key goes last."""
    if mono in terms:
        total = _coef_add(terms[mono], coef)
        if _is_zero(total):
            del terms[mono]
        else:
            terms[mono] = total
    else:
        terms[mono] = coef


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
    def canonical(cls, g: int, terms: dict) -> "FormPolynomial":
        """A form from terms whose monomials are already sorted tuples, so
        they are not sorted again; zero coefficients are dropped."""
        out = cls.__new__(cls)
        out.g = g
        out.m = omega_size(g)
        out.terms = {mono: coef for mono, coef in terms.items()
                     if not _is_zero(coef)}
        return out

    @classmethod
    def generator(cls, g: int, pair: Pair) -> "FormPolynomial":
        return cls(g, {(n_index(pair, g) - 1,): 1.0 + 0j})

    @classmethod
    def scalar(cls, g: int, coef) -> "FormPolynomial":
        return cls(g, {(): coef})

    def __add__(self, other: "FormPolynomial") -> "FormPolynomial":
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            add_term(out, mono, coef)
        return FormPolynomial.canonical(self.g, out)

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
        return FormPolynomial.canonical(self.g, out)

    def scale(self, scalar) -> "FormPolynomial":
        return FormPolynomial.canonical(
            self.g, {m: _coef_mul(c, scalar) for m, c in self.terms.items()})

    def map_coefficients(self, fn) -> "FormPolynomial":
        return FormPolynomial.canonical(
            self.g, {m: fn(c) for m, c in self.terms.items()})

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
    """Tr(G dZ) = sum_ij G_ij dZ_ji as a degree-1 form.  G, read as
    G[i][j], may be a nested list or an array of numbers or point
    functions; it must be symmetric."""
    terms: dict = {}
    for pos, (i, j) in enumerate(omega_list(g)):
        weight = 1.0 if i == j else 2.0
        coef = _coef_mul(Gmat[i - 1][j - 1], weight)
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
    linear: dict = {}
    terms: dict = {}
    for mono, coef in form.terms.items():
        expanded = FormPolynomial.scalar(form.g, coef)
        for k in mono:
            if k not in linear:
                linear[k] = FormPolynomial(
                    form.g, {(l,): S[l, k] for l in range(m) if S[l, k] != 0})
            expanded = expanded * linear[k]
        for out_mono, out_coef in expanded.terms.items():
            add_term(terms, out_mono, out_coef)
    return FormPolynomial.canonical(form.g, terms)
