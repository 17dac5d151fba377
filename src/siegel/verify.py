"""Batch verification suites with machine-readable reports.

Each suite is a generator of cases (check, params, kind, fn).  A residual
case names a tolerance kind and passes iff fn() is below that tolerance; an
exact case has kind None and passes iff fn() is true.  Case inputs are
drawn deterministically from the base seed, each case's from the rng that
_cases keys on its params, so a report is reproducible given (version,
seed, flags) and a record's params name its draw.  Cases run serially,
each one as soon as it is drawn, and records keep the draw order.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .connection import (apply_D, case_analysis_residual, d_det_closed,
                         d_dz_closed, d_f_detk, d_trace_form,
                         equivariance_residual, gamma_closed,
                         gamma_from_metric, invariance_residual, kron_trace,
                         mcc_residual, _f_det_form)
from .forms import FormPolynomial, det_dz, probe_vectors, trace_form
from .functions import Jet, fd_gradient, random_test_function
from .indexing import (basis_stack, coords_to_sym, omega_list, omega_size,
                       sym_to_coords)
from .metric import dM_tensor, metric_form, metric_pair
from .operators import (ModularExtension, QSeriesFunction, bracket1,
                        bracket1_transform_residual,
                        det_nabla_weight_residual, ig2_field, im_inverse,
                        nabla, relative_residual, sym_gradient, verify_G_law,
                        verify_nabla_transform)
from .qseries import (QSeries, SL2_WORDS, ModularBasis, anomaly_residual,
                      bracket1_classical, delta, dim_modular_forms,
                      eisenstein, evaluate, membership_in_Mw,
                      serre_derivative)
from .symplectic import (SiegelPoint, act, cocycle, cocycle_condition,
                         pushforward_matrix, pushforward_matrix_derivative,
                         random_point, random_symplectic,
                         tangent_pushforward)

SUITES = ("metric", "connection", "operators", "qseries")

# the highest degree any suite draws a case at: the metric suite's
MAX_DEGREE = 5

# (check, params, tolerance kind or None for an exact check, fn)
Cases = Iterator[tuple[str, dict, "str | None", Callable[[], object]]]

# default residual tolerances by check kind
TOLERANCES = {
    "linear": 1e-9,
    "entry": 1e-10,
    "tight": 1e-12,
    "mcc": 1e-8,
    "fd": 1e-7,
    "fd_loose": 1e-5,
    "transform": 1e-7,
    "series": 1e-6,
    "series_match": 1e-8,
}


class UsageError(ValueError):
    pass


@dataclass
class CheckRecord:
    suite: str
    check: str
    params: dict
    residual: float | None
    exact: bool | None
    tolerance: float | None
    passed: bool
    ms: float = 0.0

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "suite": self.suite,
            "check": self.check,
            "params": self.params,
            "residual": self.residual,
            "exact": self.exact,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if include_timings:
            out["ms"] = round(self.ms, 3)
        return out


@dataclass
class VerificationReport:
    version: str
    seed: int
    suites: list[str]
    g_range: tuple[int, int]
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {"total": len(self.records), "passed": passed,
                "failed": len(self.records) - passed}

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "version": self.version,
            "seed": self.seed,
            "suites": self.suites,
            "g_range": list(self.g_range),
            "records": [r.to_dict(include_timings) for r in self.records],
            "summary": self.summary,
        }


class _Collector:
    """Runs one suite's cases in draw order and builds their records.  The
    suite draws its next case only after the previous one ran, so no case's
    inputs outlive its record."""

    def __init__(self, suite: str, cases: Cases, tol_override: float | None):
        self.suite = suite
        self.cases = cases
        self.tol_override = tol_override

    def collect(self) -> list[CheckRecord]:
        records = []
        for check, params, kind, fn in self.cases:
            start = time.perf_counter()
            if kind is None:
                residual, tol = None, None
                passed = exact = bool(fn())
            else:
                residual, exact = float(fn()), None
                tol = self.tol_override if self.tol_override is not None \
                    else TOLERANCES[kind]
                passed = residual < tol
            ms = (time.perf_counter() - start) * 1000.0
            records.append(CheckRecord(self.suite, check, params, residual,
                                       exact, tol, passed, ms))
        return records


def _case_rng(seed: int, *tags) -> np.random.Generator:
    # process-independent case seeds (str hash salting would break
    # report reproducibility)
    digest = hashlib.blake2s(repr(tags).encode(), digest_size=4).digest()
    mix = [seed, int.from_bytes(digest, "little")]
    return np.random.default_rng(np.random.SeedSequence(mix))


def _cases(seed: int, tag: str, count: int,
           **index) -> Iterator[tuple[np.random.Generator, dict]]:
    """The rng and params of each of the count cases of one group: params
    is index with the case number appended, and the rng is keyed on the
    group's tag and the values of params in their order, so a record's
    params name its draw.  A group appends to params only values its case
    draws; closed_form_degree_one alone names its records by the drawn y
    instead."""
    for case in range(count):
        params = {**index, "case": case}
        yield _case_rng(seed, tag, *params.values()), params


def _random_tangent(rng, g: int) -> np.ndarray:
    V = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    return (V + V.T) / 2.0


def _conditioned_pair(rng, g: int):
    """Deterministically draw (gamma, point), gamma a word of length 0 to
    6, with cond(CZ+D) * cond(Im gamma Z) at most 1e5; after 50 draws the
    best conditioned one.

    Verifying identities that invert Im(gamma Z) costs roughly
    eps * cond-product in accuracy (measured: 3e-18 * product), so the cap
    keeps a fixed 1e-10 tolerance certifiable; about 95% of unconstrained
    draws pass it.
    """
    best = None
    best_product = np.inf
    for _ in range(50):
        gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
        point = random_point(g, rng)
        spectrum = act(gamma, point).spectrum
        product = (cocycle_condition(gamma, point)
                   * (spectrum[-1] / spectrum[0]))
        if product < best_product:
            best, best_product = (gamma, point), product
        if product <= 1e5:
            break
    return best


def _clip_range(g_range: tuple[int, int], low: int, high: int) -> range:
    return range(max(g_range[0], low), min(g_range[1], high) + 1)


# ---------------------------------------------------------------- metric


def metric_suite(g_range: tuple[int, int], seed: int) -> Cases:
    for g in _clip_range(g_range, 1, MAX_DEGREE):
        for rng, params in _cases(seed, "metric", 100, g=g):
            point = random_point(g, rng)

            def inverse():
                pair = metric_pair(point)
                return np.abs(pair.M @ pair.W - np.eye(omega_size(g))).max()
            yield "inverse_pair", params, "linear", inverse
        for rng, params in _cases(seed, "metric-pd", 10, g=g):
            point = random_point(g, rng)
            yield ("gram_positive_definite", params, None,
                   lambda: np.linalg.eigvalsh(metric_pair(point).W).min() > 0)
        for rng, params in _cases(seed, "metric-form", 10, g=g):
            point = random_point(g, rng)
            V1, V2 = _random_tangent(rng, g), _random_tangent(rng, g)

            def recombination():
                # the block metric [[0, W], [W, 0]] counts each unordered
                # coordinate pair twice, so the quadratic form is 2 W
                pair = metric_pair(point)
                v1 = sym_to_coords(V1)
                v2 = sym_to_coords(V2)
                total = 2.0 * (v1 @ pair.W @ np.conj(v2))
                return abs(total - metric_form(point, V1, V2))
            yield "trace_form_recombination", params, "entry", recombination
        for rng, params in _cases(seed, "metric-inv", 10, g=g):
            point = random_point(g, rng)
            gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
            V1, V2 = _random_tangent(rng, g), _random_tangent(rng, g)

            def invariance():
                # normalize by the trace summands: the pairing at the image
                # point contracts large R entries down to an O(1) value
                before = metric_form(point, V1, V2)
                image = act(gamma, point)
                W1 = tangent_pushforward(gamma, point, V1)
                W2 = tangent_pushforward(gamma, point, V2)
                after = metric_form(image, W1, W2)
                R0 = metric_pair(point).R
                R1 = metric_pair(image).R
                summand = max(
                    np.abs(R0 @ V1 @ R0 @ np.conj(V2)).max(),
                    np.abs(R1 @ W1 @ R1 @ np.conj(W2)).max())
                return abs(after - before) / max(1.0, summand)
            yield "pairing_invariance", params, "linear", invariance
    for g in _clip_range(g_range, 1, 3):
        for rng, params in _cases(seed, "metric-fd", 3, g=g):
            point = random_point(g, rng)

            def derivative_fd():
                # one stencil stack for every entry of M; the gradient axis
                # comes first, dM_tensor's derivative axis last
                grad = fd_gradient(lambda pt: metric_pair(pt).M, point)
                exact = dM_tensor(point.Y)
                return np.abs(np.moveaxis(grad, 0, -1) - exact).max()
            yield "inverse_derivative_fd", params, "fd", derivative_fd


# ------------------------------------------------------------ connection


def connection_suite(g_range: tuple[int, int], seed: int) -> Cases:
    for g in _clip_range(g_range, 1, 4):
        for rng, params in _cases(seed, "conn-paths", 20, g=g):
            point = random_point(g, rng)

            def agreement():
                closed = gamma_closed(point)
                worst = 0.0
                for path in ("A", "B", "B-expanded"):
                    worst = max(worst, np.abs(
                        gamma_from_metric(point, path) - closed).max())
                return worst
            yield "path_agreement", params, "entry", agreement
        for rng, params in _cases(seed, "conn-cases", 3, g=g):
            point = random_point(g, rng)
            yield ("case_analysis", params, None,
                   lambda: case_analysis_residual(point) == 0.0)
            yield ("symmetry_sparsity", params, None,
                   lambda: _symmetry_sparsity_exact(point, g))
    if g_range[0] <= 1 <= g_range[1]:
        for rng, params in _cases(seed, "conn-g1", 5, g=1):
            y = float(rng.uniform(0.5, 3.0))
            x = float(rng.uniform(-1.0, 1.0))
            point = SiegelPoint.from_complex(complex(x, y))
            yield ("closed_form_degree_one", {"y": y}, "tight",
                   lambda: abs(gamma_closed(point)[0, 0, 0] - 1j / y))

    for g in _clip_range(g_range, 1, 3):
        for rng, params in _cases(seed, "conn-mcc", 50, g=g):
            gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            V = _random_tangent(rng, g)
            yield ("modular_law", params, "mcc",
                   lambda: mcc_residual(gamma, point, V))
        for rng, params in _cases(seed, "conn-coc", 10, g=g):
            g1 = random_symplectic(g, int(rng.integers(0, 7)), rng)
            g2 = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            V = _random_tangent(rng, g)

            def cocycle_identity():
                lhs = cocycle(g1 @ g2, point)
                rhs = cocycle(g1, act(g2, point)) @ cocycle(g2, point)
                return relative_residual(lhs - rhs, lhs)
            yield "cocycle_identity", params, "entry", cocycle_identity

            def action_composition():
                lhs = act(g1 @ g2, point).Z
                rhs = act(g1, act(g2, point)).Z
                return relative_residual(lhs - rhs, lhs)
            yield "action_composition", params, "entry", action_composition

            def pushforward_cocycle():
                S12 = pushforward_matrix(g1 @ g2, point)
                S = pushforward_matrix(g2, point) @ pushforward_matrix(
                    g1, act(g2, point))
                return relative_residual(S12 - S, S12)
            yield ("pushforward_cocycle", params, "entry",
                   pushforward_cocycle)

            def ds_fd():
                dS = pushforward_matrix_derivative(g1, point, V)
                h = 1e-6 * (1.0 + float(np.abs(point.Z).max()))
                re, im = V.real, V.imag
                Sp = pushforward_matrix(g1, SiegelPoint(
                    g, point.X + h * re, point.Y + h * im))
                Sm = pushforward_matrix(g1, SiegelPoint(
                    g, point.X - h * re, point.Y - h * im))
                return relative_residual((Sp - Sm) / (2 * h) - dS, dS)
            yield "cocycle_derivative_fd", params, "fd", ds_fd

    # operator D against the closed quadratic, determinant and trace forms,
    # all evaluated at the probe vectors v, with V the matrices of v
    for g in _clip_range(g_range, 1, 4):
        v = probe_vectors(g)
        V = coords_to_sym(v, g)
        for rng, params in _cases(seed, "conn-D", 3, g=g):
            point = random_point(g, rng)
            table = gamma_closed(point)

            def quadratic():
                closed = d_dz_closed(point, V)
                worst = 0.0
                for r, s in omega_list(g):
                    got = apply_D(table, FormPolynomial.generator(g, (r, s)),
                                  v)
                    worst = max(worst, _against_closed(
                        got, closed[:, s - 1, r - 1]))
                return worst
            yield "curvature_quadratic", params, "entry", quadratic
            yield ("determinant_derivative", params, "entry",
                   lambda: _against_closed(apply_D(table, det_dz(g), v),
                                           d_det_closed(point, V)))

            f = random_test_function(g, rng)
            for k in (1, 2):
                if k == 2 and g > 3:
                    continue
                yield ("scalar_det_power", {**params, "k": k}, "entry",
                       lambda: _against_closed(
                           apply_D(table, _f_det_form(f, k, point), v),
                           d_f_detk(point, f, k, V)))

            entries = _random_symmetric_functions(g, rng)

            def trace_derivative():
                jets = [[Jet.at(fn, point) for fn in row] for row in entries]
                return _against_closed(apply_D(table, trace_form(jets, g), v),
                                       d_trace_form(point, jets, V))
            yield ("trace_form_derivative", params, "entry",
                   trace_derivative)

            # the two forms come from an rng of their own, keyed on the
            # case's params and then its tag
            rng2 = _case_rng(seed, *params.values(), "leibniz")
            a = _random_form(g, rng2, 4, _random_number)
            b = _random_form(g, rng2, 4, _random_number)

            def leibniz():
                lhs, size = apply_D(table, a * b, v)
                da, a_size = apply_D(table, a, v)
                db, b_size = apply_D(table, b, v)
                av, bv = a.evaluate(v), b.evaluate(v)
                return relative_residual(lhs - (da * bv + av * db), size,
                                         a_size * abs(bv) + abs(av) * b_size)
            yield "leibniz_rule", params, "entry", leibniz

    for rng, params in _cases(seed, "kron", 100):
        mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                for _ in range(4)]

        def kron_identity():
            # the entrywise contraction sum a_ij b_kl c_lk d_ji equals
            # Tr(AD) Tr(BC) and is invariant under swapping the middle pair
            A, B, C, D = mats
            value = kron_trace(A, B, C, D)
            swapped = kron_trace(A, C, B, D)
            factored = np.trace(A @ D) * np.trace(B @ C)
            return max(abs(swapped - value), abs(factored - value))
        yield "kron_trace_identity", params, "tight", kron_identity

    for g in _clip_range(g_range, 1, 2):
        for rng, params in _cases(seed, "conn-equi", 20, g=g):
            gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            form = _random_form(g, rng, 3, lambda rng: random_test_function(
                g, rng, max_degree=2, n_terms=2))
            yield ("equivariance", params, "mcc",
                   lambda: equivariance_residual(gamma, point, form))
            f = random_test_function(g, rng)
            k = int(rng.integers(1, 3))
            yield ("det_power_invariance", {**params, "k": k}, "mcc",
                   lambda: invariance_residual(gamma, point, f, k))


def _against_closed(evaluated, closed) -> float:
    """The defect of D evaluated at the probes, (value, summed magnitude of
    its terms) from apply_D, against a closed form there, relative to that
    magnitude (floored at 1)."""
    value, size = evaluated
    return relative_residual(value - closed, size)


def _symmetry_sparsity_exact(point: SiegelPoint, g: int) -> bool:
    # the closed form's zeros outside the crosses are case_analysis's
    # to check; here it must be symmetric in I and J, and B-expanded 0 there
    table = gamma_closed(point)
    if not np.array_equal(table, table.transpose(0, 2, 1)):
        return False
    expanded = gamma_from_metric(point, "B-expanded")
    pairs = omega_list(g)
    for k, (r, s) in enumerate(pairs):
        for a, I in enumerate(pairs):
            for b, J in enumerate(pairs):
                in_cross = ((s in I and r in J) or (s in J and r in I))
                if not in_cross and expanded[k, a, b] != 0:
                    return False
    return True


def _random_symmetric_functions(g: int, rng) -> list:
    entries = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            f = random_test_function(g, rng, max_degree=2, n_terms=3)
            entries[i][j] = entries[j][i] = f
    return entries


def _random_form(g: int, rng, n_terms: int, coefficient) -> FormPolynomial:
    """A form of n_terms monomials of degree 0 to 2, each drawn before its
    coefficient, which coefficient(rng) draws."""
    m = omega_size(g)
    terms = {}
    for _ in range(n_terms):
        deg = int(rng.integers(0, 3))
        mono = tuple(sorted(int(rng.integers(0, m)) for _ in range(deg)))
        terms[mono] = coefficient(rng)
    return FormPolynomial(g, terms)


def _random_number(rng) -> complex:
    return complex(rng.standard_normal(), rng.standard_normal())


# ------------------------------------------------------------- operators


def operators_suite(g_range: tuple[int, int], seed: int,
                    ks: tuple[int, ...] = (1, 2)) -> Cases:
    for g in _clip_range(g_range, 1, 3):
        for rng, params in _cases(seed, "op-grad", 10, g=g):
            point = random_point(g, rng)
            f = random_test_function(g, rng)

            def pairing():
                # Tr(grad E_I) against d f / dZ_I, for every direction E_I
                paired = np.trace(sym_gradient(f, point) @ basis_stack(g),
                                  axis1=-2, axis2=-1)
                return np.abs(paired - f.gradient(point)).max()
            yield "gradient_pairing", params, "entry", pairing

        for k in ks:
            for rng, params in _cases(seed, "op-nabla", 30, g=g, k=k):
                gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
                point = random_point(g, rng)
                f = random_test_function(g, rng)
                yield ("nabla_transform", params, "transform",
                       lambda: verify_nabla_transform(f, gamma, point, k))
                yield ("nabla_transform_fd", params, "fd_loose",
                       lambda: verify_nabla_transform(f, gamma, point, k,
                                                      grad="fd"))

                def det_factor():
                    value = det_nabla_weight_residual(f, gamma, point, k)
                    return 0.0 if value is None else value
                yield "det_weight_factor", params, "transform", det_factor
            for rng, params in _cases(seed, "op-ext", 5, g=g, k=k):
                gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
                point = random_point(g, rng)
                f = random_test_function(g, rng)

                def ext_fd():
                    ext = ModularExtension(f, 2 * k, gamma)
                    exact = ext.gradient(point)
                    approx = ext.gradient_fd(point)
                    return relative_residual(exact - approx, exact)
                yield "extension_gradient_fd", params, "fd", ext_fd

        for rng, params in _cases(seed, "op-glaw", 20, g=g):
            gamma, point = _conditioned_pair(rng, g)
            yield ("G_law_im_inverse", params, "entry",
                   lambda: verify_G_law(im_inverse, gamma, point))

        for rng, params in _cases(seed, "op-default", 5, g=g):
            point = random_point(g, rng)
            f = random_test_function(g, rng)

            def default_field():
                # the default G against i Y^{-1} from an independent inverse
                expected = (sym_gradient(f, point) - 2 * f.value(point)
                            * 1j * np.linalg.inv(point.Y))
                return np.abs(nabla(f, point, 2) - expected).max()
            yield ("default_field_consistency", params, "tight",
                   default_field)

        for rng, params in _cases(seed, "op-bracket", 10, g=g):
            gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            f = random_test_function(g, rng)
            h = random_test_function(g, rng)
            r = int(rng.integers(1, 3))
            yield ("bracket_equal_weight", {**params, "r": r}, "transform",
                   lambda: bracket1_transform_residual(f, h, r, r, gamma,
                                                       point))
            yield ("bracket_antisymmetry", params, None,
                   lambda: bracket1(f, f, point) == 0.0)
            yield ("bracket_defect_prediction",
                   {**params, "r": 1, "s": 2}, "transform",
                   lambda: bracket1_transform_residual(f, h, 1, 2, gamma,
                                                       point))
            yield ("bracket_weight_corrected",
                   {**params, "r": 1, "s": 2}, "transform",
                   lambda: bracket1_transform_residual(f, h, 1, 2, gamma,
                                                       point, (1, 2)))

    if g_range[0] <= 1 <= g_range[1]:
        yield from _degree_one_holomorphic_cases(seed)


def _degree_one_holomorphic_cases(seed: int) -> Cases:
    """g = 1 loop closers: the q-expansion field i G2 satisfies the same
    law as i/y, the resulting operator is holomorphic and matches the exact
    weight-raising derivative."""
    G2 = ig2_field(300)
    e4 = eisenstein(4, 300)
    f = QSeriesFunction(e4)
    v4 = serre_derivative(e4)

    for rng, params in _cases(seed, "op-ig2", 5):
        gamma = random_symplectic(1, int(rng.integers(1, 5)), rng)
        point = random_point(1, rng)
        yield ("ig2_transformation_law", params, "series",
               lambda: verify_G_law(G2, gamma, point))

    def op(z):
        return nabla(f, SiegelPoint.from_complex(z), 2, G2)[0, 0]

    for z in (complex(0.1 * t - 0.3, 0.9 + 0.13 * t) for t in range(5)):
        def serre_match():
            out = op(z)
            expect = 2j * np.pi * evaluate(v4, z)
            return abs(out - expect) / max(1.0, abs(expect))
        yield "ig2_serre_match", {"z": str(z)}, "series_match", serre_match

        def holomorphy():
            h = 1e-5
            dx = (op(z + h) - op(z - h)) / (2 * h)
            dy = (op(z + 1j * h) - op(z - 1j * h)) / (2 * h)
            return abs(0.5 * (dx + 1j * dy))
        yield "ig2_holomorphy", {"z": str(z)}, "series", holomorphy


# --------------------------------------------------------------- qseries


def qseries_suite() -> Cases:
    n = 200
    e2 = eisenstein(2, n + 10)
    e4 = eisenstein(4, n + 10)
    e6 = eisenstein(6, n + 10)
    dlt = delta(n + 10)

    yield "eisenstein_heads", {}, None, lambda: (
        e2.coeffs[:4] == (Fraction(1), Fraction(-24), Fraction(-72),
                          Fraction(-96))
        and e4.coeffs[:3] == (Fraction(1), Fraction(240), Fraction(2160))
        and e6.coeffs[:3] == (Fraction(1), Fraction(-504), Fraction(-16632))
        and dlt.coeffs[:5] == (Fraction(0), Fraction(1), Fraction(-24),
                               Fraction(252), Fraction(-1472)))
    yield "weight_raising_e4", {"n": n}, None, lambda: (
        serre_derivative(e4).truncate(n)
        == e6.scale(Fraction(-1, 3)).truncate(n))
    yield "weight_raising_e6", {"n": n}, None, lambda: (
        serre_derivative(e6).truncate(n)
        == (e4 * e4).scale(Fraction(-1, 2)).truncate(n))
    yield ("weight_raising_delta", {"n": n}, None,
           lambda: serre_derivative(dlt).truncate(n).is_zero())
    yield "discriminant_relation", {"n": n}, None, lambda: (
        (dlt.scale(1728) + e6 * e6).truncate(n)
        == (e4 * e4 * e4).truncate(n))

    for weight in (4, 6, 8, 10, 12, 14, 16, 20, 24):
        yield ("weight_raising_closure", {"weight": weight}, None,
               lambda: all(membership_in_Mw(serre_derivative(element),
                                            weight + 2)[0]
                           for element in ModularBasis(weight, 60).elements))

    yield "weight_two_membership", {}, None, lambda: (
        membership_in_Mw(QSeries([0] * 40, 2), 2)[0]
        and not membership_in_Mw(e2.truncate(40), 2)[0])

    for weight in (12, 16, 20, 24):
        def basis_independent():
            basis = ModularBasis(weight, 40)
            if len(basis) != dim_modular_forms(weight):
                return False
            rows = np.array([[float(c) for c in b.coeffs[:len(basis) + 3]]
                             for b in basis.elements])
            return np.linalg.matrix_rank(rows) == len(basis)
        yield "basis_dimension", {"weight": weight}, None, basis_independent

    zs = [complex(0.05 * t - 0.2, 0.9 + 0.1 * t) for t in range(10)]
    for name, word in SL2_WORDS.items():
        for z in zs:
            yield ("g2_anomaly", {"gamma": name, "z": str(z)}, "series",
                   lambda: anomaly_residual(word, z, 300))

    for z in zs[:4]:
        for series, weight in ((e4, 4), (e6, 6), (dlt, 12)):
            def modularity():
                lhs = evaluate(series.truncate(200), -1 / z)
                rhs = z ** weight * evaluate(series.truncate(200), z)
                return abs(lhs - rhs) / max(1.0, abs(rhs))
            yield ("evaluate_modularity", {"weight": weight, "z": str(z)},
                   "series_match", modularity)

    def cusp_bracket():
        b = bracket1_classical((e4 * e4 * e4).truncate(60), dlt.truncate(60))
        ok, _ = membership_in_Mw(b, 26)
        return ok and b.coeffs[0] == 0
    yield "bracket_cusp_membership", {}, None, cusp_bracket
    yield ("bracket_antisymmetry", {}, None,
           lambda: bracket1_classical(e4.truncate(60),
                                      e4.truncate(60)).is_zero())


# ------------------------------------------------------------------ main


def run_suite(name: str, g_range: tuple[int, int] = (1, MAX_DEGREE),
              seed: int = 0, tol: float | None = None,
              ks: tuple[int, ...] = (1, 2)) -> VerificationReport:
    """Run one suite or all of them; deterministic per (version, seed).

    The whole request is checked before any case is drawn, and a malformed
    one raises UsageError: an unknown suite, a degree range outside
    1 <= A <= B <= MAX_DEGREE, a negative seed, a tolerance override that
    is not finite and positive, or weights ks that are empty, below 1 or
    repeated.  So is a request whose suite draws no check at its degrees.
    """
    if name not in SUITES + ("all",):
        raise UsageError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITES + ('all',))}")
    lo, hi = g_range
    if not 1 <= lo <= hi <= MAX_DEGREE:
        raise UsageError(f"bad degree range {lo}..{hi}; "
                         f"use A..B with 1 <= A <= B <= {MAX_DEGREE}")
    if seed < 0:
        raise UsageError(f"seed must be a non-negative integer, got {seed}")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"tol must be finite and positive, got {tol}")
    # each weight names its records by (check, params), so a repeat would
    # run its cases twice under the same names
    spelled = ",".join(map(str, ks))
    if not ks or min(ks) < 1:
        raise UsageError(f"bad weight list {spelled!r}; "
                         "use one or more weights >= 1")
    if len(set(ks)) < len(ks):
        raise UsageError(f"repeated weight in {spelled!r}")
    # generators: only the suites that are run draw any case
    cases = {"metric": metric_suite(g_range, seed),
             "connection": connection_suite(g_range, seed),
             "operators": operators_suite(g_range, seed, ks),
             "qseries": qseries_suite()}
    names = SUITES if name == "all" else (name,)
    report = VerificationReport(__version__, seed, list(names), g_range)
    for suite in names:
        report.records.extend(_Collector(suite, cases[suite], tol).collect())
    if not report.records:
        raise UsageError(f"suite {name} draws no check at g={lo}..{hi}")
    return report
