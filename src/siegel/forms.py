"""Commutative polynomial algebra on the generators dZ_I, I in Omega: the
input type of the operator D (``connection.apply_D``).

Monomials are canonical sorted tuples of 0-based Omega positions, so
dZ_I dZ_J == dZ_J dZ_I by construction.  Coefficients are numbers or jets
at one point (``functions.Jet``: a value and a holomorphic gradient there);
zero coefficients are never stored, and a jet is never zero.  A form may
also hold point functions that no arithmetic touches, as the input of
``connection.equivariance_residual``.  Forms are built, multiplied and
mapped coefficient by coefficient, and read only by evaluation.

A form of degree d is a homogeneous polynomial function of the tangent
vector v (the Omega coordinates of dZ): ``evaluate`` gives its value.  Two
forms are equal when they agree at generic vectors (Schwartz, J. ACM 1980;
Zippel, EUROSAM 1979), so forms, and D of a form, are compared at the
fixed ``probe_vectors`` of each degree, never coefficient by coefficient.

A form's terms keep the order in which their monomials first appeared.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .indexing import (Pair, _degree, _same_degree, omega_size, position,
                       position_table, sym_to_covector)

Monomial = tuple[int, ...]


class FormPolynomial:
    """Sparse element of the commutative dZ algebra.  The constructor
    sorts each key; coefficients of keys that sort to one monomial add,
    and a sum that cancels is dropped; two degrees never multiply."""

    def __init__(self, g: int, terms: dict | None = None):
        self.g = _degree(g)
        self.terms: dict[Monomial, object] = {}
        for mono, coef in (terms or {}).items():
            if coef == 0:
                continue
            mono = tuple(sorted(mono))
            total = self.terms[mono] + coef if mono in self.terms else coef
            if total == 0:
                del self.terms[mono]
            else:
                self.terms[mono] = total

    @classmethod
    def generator(cls, g: int, pair: Pair) -> "FormPolynomial":
        return cls(g, {(position(pair, g),): 1.0 + 0j})

    def __mul__(self, other: "FormPolynomial") -> "FormPolynomial":
        _same_degree("form", self.g, "form", other.g)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                c = c1 * c2
                if mono in out:
                    out[mono] = out[mono] + c
                else:
                    out[mono] = c
        return FormPolynomial(self.g, out)

    def map_coefficients(self, fn) -> "FormPolynomial":
        return FormPolynomial(self.g,
                              {m: fn(c) for m, c in self.terms.items()})

    def evaluate(self, v: np.ndarray) -> np.ndarray:
        """The value sum_mono c prod_t v[mono_t] at the tangent vector v,
        or at each vector of a stack of shape (..., |Omega|); numeric
        coefficients only."""
        v = np.asarray(v, dtype=complex)
        out = np.zeros(v.shape[:-1], dtype=complex)
        for mono, coef in self.terms.items():
            out += complex(coef) * v[..., list(mono)].prod(axis=-1)
        return out

    def __repr__(self):
        return f"FormPolynomial(g={self.g}, {len(self.terms)} terms)"


def det_dz(g: int) -> FormPolynomial:
    """det(dZ) expanded over permutations; entries dZ_ij = dZ_ji collapse
    into the commutative algebra."""
    positions = position_table(g).tolist()
    terms: dict = {}
    for perm in permutations(range(g)):
        sign = _perm_sign(perm)
        mono = tuple(sorted(positions[t][perm[t]] for t in range(g)))
        terms[mono] = terms.get(mono, 0j) + sign
    return FormPolynomial(g, terms)


def _perm_sign(perm) -> float:
    """+1 or -1 by the parity of the number of inversions."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1.0 if inversions % 2 else 1.0


def trace_form(Gmat, g: int) -> FormPolynomial:
    """Tr(G dZ) = sum_ij G_ij dZ_ji as a degree-1 form.  G, read as
    G[i][j], may be a nested list or an array of numbers or jets; it must
    be symmetric and g x g (ValueError for another size)."""
    covector = sym_to_covector(Gmat)
    if covector.shape != (omega_size(g),):
        raise ValueError(f"expected a {g}x{g} matrix, got {np.shape(Gmat)}")
    return FormPolynomial(g, {(pos,): c for pos, c in enumerate(covector)})


@lru_cache(maxsize=16)
def probe_vectors(g: int) -> np.ndarray:
    """Three fixed complex tangent vectors of degree g, shape (3, |Omega|),
    each scaled to max-norm 1; drawn from a fixed seed on first use and
    read-only."""
    rng = np.random.default_rng(20240601 + g)
    v = rng.standard_normal((3, omega_size(g), 2)) @ np.array([1.0, 1j])
    v /= np.abs(v).max(axis=1, keepdims=True)
    v.setflags(write=False)
    return v
