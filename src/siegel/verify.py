"""Batch verification suites with machine-readable reports.

Each suite is a generator of cases (check, params, kind, fn).  A residual
case names a tolerance kind and passes iff fn() is below that tolerance; an
exact case has kind None and passes iff fn() is true.  Case inputs are
drawn deterministically from the base seed, so a report is reproducible
given (version, seed, flags).  Cases run serially, each one as soon as it
is drawn, and records keep the draw order.
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
from .forms import (FormPolynomial, det_dz, max_coefficient_diff, trace_form)
from .functions import Jet, fd_gradient, random_test_function
from .indexing import basis_matrix, omega_list, omega_size, sym_to_coords
from .metric import dM_dZ, metric_form, metric_pair
from .operators import (ModularExtension, QSeriesFunction, bracket1,
                        bracket1_transform_residual,
                        det_nabla_weight_residual, ig2_field, im_inverse,
                        nabla, sym_gradient, verify_G_law,
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
    "kron": 1e-12,
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
        for case in range(100):
            rng = _case_rng(seed, "metric", g, case)
            point = random_point(g, rng)

            def inverse():
                pair = metric_pair(point)
                return np.abs(pair.M @ pair.W - np.eye(omega_size(g))).max()
            yield "inverse_pair", {"g": g, "case": case}, "linear", inverse
        for case in range(10):
            rng = _case_rng(seed, "metric-pd", g, case)
            point = random_point(g, rng)
            yield ("gram_positive_definite", {"g": g, "case": case}, None,
                   lambda: np.linalg.eigvalsh(metric_pair(point).W).min() > 0)
        for case in range(10):
            rng = _case_rng(seed, "metric-form", g, case)
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
            yield ("trace_form_recombination", {"g": g, "case": case},
                   "entry", recombination)
        for case in range(10):
            rng = _case_rng(seed, "metric-inv", g, case)
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
            yield ("pairing_invariance", {"g": g, "case": case}, "linear",
                   invariance)
    for g in _clip_range(g_range, 1, 3):
        for case in range(3):
            rng = _case_rng(seed, "metric-fd", g, case)
            point = random_point(g, rng)

            def derivative_fd():
                pairs = omega_list(g)
                worst = 0.0
                for p, q in pairs:
                    for a, b in pairs:
                        def entry(pt):
                            Y = pt.Y
                            return (Y[..., p - 1, a - 1] * Y[..., q - 1, b - 1]
                                    + Y[..., q - 1, a - 1]
                                    * Y[..., p - 1, b - 1])
                        grad = fd_gradient(entry, point)
                        for c, J in enumerate(pairs):
                            worst = max(worst, abs(
                                grad[c] - dM_dZ(point, (p, q), (a, b), J)))
                return worst
            yield ("inverse_derivative_fd", {"g": g, "case": case}, "fd",
                   derivative_fd)


# ------------------------------------------------------------ connection


def connection_suite(g_range: tuple[int, int], seed: int) -> Cases:
    for g in _clip_range(g_range, 1, 4):
        for case in range(20):
            rng = _case_rng(seed, "conn-paths", g, case)
            point = random_point(g, rng)

            def agreement():
                closed = gamma_closed(point)
                worst = 0.0
                for path in ("A", "B", "B-expanded"):
                    worst = max(worst, np.abs(
                        gamma_from_metric(point, path) - closed).max())
                return worst
            yield "path_agreement", {"g": g, "case": case}, "entry", agreement
        for case in range(3):
            rng = _case_rng(seed, "conn-cases", g, case)
            point = random_point(g, rng)
            yield ("case_analysis", {"g": g, "case": case}, None,
                   lambda: case_analysis_residual(point) == 0.0)
            yield ("symmetry_sparsity", {"g": g, "case": case}, None,
                   lambda: _symmetry_sparsity_exact(point, g))
    if g_range[0] <= 1 <= g_range[1]:
        for case in range(5):
            rng = _case_rng(seed, "conn-g1", 1, case)
            y = float(rng.uniform(0.5, 3.0))
            x = float(rng.uniform(-1.0, 1.0))
            point = SiegelPoint.from_complex(complex(x, y))
            yield ("closed_form_degree_one", {"y": y}, "tight",
                   lambda: abs(gamma_closed(point)[0, 0, 0] - 1j / y))

    for g in _clip_range(g_range, 1, 3):
        for case in range(50):
            rng = _case_rng(seed, "conn-mcc", g, case)
            gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            V = _random_tangent(rng, g)
            yield ("modular_law", {"g": g, "case": case}, "mcc",
                   lambda: mcc_residual(gamma, point, V))
        for case in range(10):
            rng = _case_rng(seed, "conn-coc", g, case)
            g1 = random_symplectic(g, int(rng.integers(0, 7)), rng)
            g2 = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            V = _random_tangent(rng, g)

            def cocycle_identity():
                lhs = cocycle(g1 @ g2, point)
                rhs = cocycle(g1, act(g2, point)) @ cocycle(g2, point)
                scale = max(1.0, float(np.abs(lhs).max()))
                return np.abs(lhs - rhs).max() / scale
            yield ("cocycle_identity", {"g": g, "case": case}, "entry",
                   cocycle_identity)

            def action_composition():
                lhs = act(g1 @ g2, point).Z
                rhs = act(g1, act(g2, point)).Z
                scale = max(1.0, float(np.abs(lhs).max()))
                return np.abs(lhs - rhs).max() / scale
            yield ("action_composition", {"g": g, "case": case}, "entry",
                   action_composition)

            def pushforward_cocycle():
                S12 = pushforward_matrix(g1 @ g2, point)
                S = pushforward_matrix(g2, point) @ pushforward_matrix(
                    g1, act(g2, point))
                scale = max(1.0, float(np.abs(S12).max()))
                return np.abs(S12 - S).max() / scale
            yield ("pushforward_cocycle", {"g": g, "case": case}, "entry",
                   pushforward_cocycle)

            def ds_fd():
                dS = pushforward_matrix_derivative(g1, point, V)
                h = 1e-6 * (1.0 + float(np.abs(point.Z).max()))
                re, im = V.real, V.imag
                Sp = pushforward_matrix(g1, SiegelPoint(
                    g, point.X + h * re, point.Y + h * im))
                Sm = pushforward_matrix(g1, SiegelPoint(
                    g, point.X - h * re, point.Y - h * im))
                scale = max(1.0, float(np.abs(dS).max()))
                return np.abs((Sp - Sm) / (2 * h) - dS).max() / scale
            yield "cocycle_derivative_fd", {"g": g, "case": case}, "fd", ds_fd

    # operator D against the closed quadratic, determinant and trace forms
    for g in _clip_range(g_range, 1, 4):
        for case in range(3):
            rng = _case_rng(seed, "conn-D", g, case)
            point = random_point(g, rng)
            table = gamma_closed(point)

            def quadratic():
                worst = 0.0
                for K in omega_list(g):
                    got = apply_D(table, FormPolynomial.generator(g, K))
                    worst = max(worst, max_coefficient_diff(
                        got, d_dz_closed(point, K)))
                return worst
            yield ("curvature_quadratic", {"g": g, "case": case}, "entry",
                   quadratic)
            yield ("determinant_derivative", {"g": g, "case": case}, "entry",
                   lambda: max_coefficient_diff(apply_D(table, det_dz(g)),
                                                d_det_closed(point)))

            f = random_test_function(g, rng)
            for k in (1, 2):
                if k == 2 and g > 3:
                    continue
                yield ("scalar_det_power", {"g": g, "k": k, "case": case},
                       "entry",
                       lambda: max_coefficient_diff(
                           d_f_detk(point, f, k),
                           apply_D(table, _f_det_form(f, k, point))))

            entries = _random_symmetric_functions(g, rng)

            def trace_derivative():
                jets = [[Jet.at(fn, point) for fn in row] for row in entries]
                return max_coefficient_diff(
                    d_trace_form(point, jets),
                    apply_D(table, trace_form(jets, g)))
            yield ("trace_form_derivative", {"g": g, "case": case}, "entry",
                   trace_derivative)

            def leibniz():
                rng2 = _case_rng(seed, g, case, "leibniz")
                a = _random_numeric_form(g, rng2)
                b = _random_numeric_form(g, rng2)
                lhs = apply_D(table, a * b)
                rhs = apply_D(table, a) * b + a * apply_D(table, b)
                return max_coefficient_diff(lhs, rhs)
            yield "leibniz_rule", {"g": g, "case": case}, "entry", leibniz

    for case in range(100):
        rng = _case_rng(seed, "kron", case)
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
        yield "kron_trace_identity", {"case": case}, "kron", kron_identity

    for g in _clip_range(g_range, 1, 2):
        for case in range(20):
            rng = _case_rng(seed, "conn-equi", g, case)
            gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            form = _random_function_form(g, rng)
            yield ("equivariance", {"g": g, "case": case}, "mcc",
                   lambda: equivariance_residual(gamma, point, form))
            f = random_test_function(g, rng)
            k = int(rng.integers(1, 3))
            yield ("det_power_invariance", {"g": g, "k": k, "case": case},
                   "mcc",
                   lambda: invariance_residual(gamma, point, f, k))


def _symmetry_sparsity_exact(point: SiegelPoint, g: int) -> bool:
    table = gamma_closed(point)
    if not np.array_equal(table, table.transpose(0, 2, 1)):
        return False
    expanded = gamma_from_metric(point, "B-expanded")
    pairs = omega_list(g)
    for k, (r, s) in enumerate(pairs):
        for a, I in enumerate(pairs):
            for b, J in enumerate(pairs):
                in_cross = ((s in I and r in J) or (s in J and r in I))
                if not in_cross:
                    if table[k, a, b] != 0 or expanded[k, a, b] != 0:
                        return False
    return True


def _random_symmetric_functions(g: int, rng) -> list:
    entries = [[None] * g for _ in range(g)]
    for i in range(g):
        for j in range(i, g):
            f = random_test_function(g, rng, max_degree=2, n_terms=3)
            entries[i][j] = entries[j][i] = f
    return entries


def _random_numeric_form(g: int, rng) -> FormPolynomial:
    m = omega_size(g)
    terms = {}
    for _ in range(4):
        deg = int(rng.integers(0, 3))
        mono = tuple(sorted(int(rng.integers(0, m)) for _ in range(deg)))
        terms[mono] = complex(rng.standard_normal(), rng.standard_normal())
    return FormPolynomial(g, terms)


def _random_function_form(g: int, rng) -> FormPolynomial:
    m = omega_size(g)
    terms = {}
    for _ in range(3):
        deg = int(rng.integers(0, 3))
        mono = tuple(sorted(int(rng.integers(0, m)) for _ in range(deg)))
        terms[mono] = random_test_function(g, rng, max_degree=2, n_terms=2)
    return FormPolynomial(g, terms)


# ------------------------------------------------------------- operators


def operators_suite(g_range: tuple[int, int], seed: int,
                    ks: tuple[int, ...] = (1, 2)) -> Cases:
    for g in _clip_range(g_range, 1, 3):
        for case in range(10):
            rng = _case_rng(seed, "op-grad", g, case)
            point = random_point(g, rng)
            f = random_test_function(g, rng)

            def pairing():
                grad = sym_gradient(f, point)
                worst = 0.0
                for pos, pair in enumerate(omega_list(g)):
                    E = basis_matrix(pair, g, dtype=complex)
                    direct = f.gradient(point)[pos]
                    worst = max(worst,
                                abs(np.trace(grad @ E) - direct))
                return worst
            yield "gradient_pairing", {"g": g, "case": case}, "entry", pairing

        for k in ks:
            for case in range(30):
                rng = _case_rng(seed, "op-nabla", g, k, case)
                gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
                point = random_point(g, rng)
                f = random_test_function(g, rng)
                yield ("nabla_transform", {"g": g, "k": k, "case": case},
                       "transform",
                       lambda: verify_nabla_transform(f, gamma, point, k))
                yield ("nabla_transform_fd", {"g": g, "k": k, "case": case},
                       "fd_loose",
                       lambda: verify_nabla_transform(f, gamma, point, k,
                                                      grad="fd"))

                def det_factor():
                    value = det_nabla_weight_residual(f, gamma, point, k)
                    return 0.0 if value is None else value
                yield ("det_weight_factor", {"g": g, "k": k, "case": case},
                       "transform", det_factor)
            for case in range(5):
                rng = _case_rng(seed, "op-ext", g, k, case)
                gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
                point = random_point(g, rng)
                f = random_test_function(g, rng)

                def ext_fd():
                    ext = ModularExtension(f, 2 * k, gamma)
                    exact = ext.gradient(point)
                    approx = ext.gradient_fd(point)
                    scale = max(1.0, float(np.abs(exact).max()))
                    return float(np.abs(exact - approx).max()) / scale
                yield ("extension_gradient_fd", {"g": g, "k": k, "case": case},
                       "fd", ext_fd)

        for case in range(20):
            rng = _case_rng(seed, "op-glaw", g, case)
            gamma, point = _conditioned_pair(rng, g)
            yield ("G_law_im_inverse", {"g": g, "case": case}, "entry",
                   lambda: verify_G_law(im_inverse, gamma, point))

        for case in range(5):
            rng = _case_rng(seed, "op-default", g, case)
            point = random_point(g, rng)
            f = random_test_function(g, rng)

            def default_field():
                # the default G against i Y^{-1} from an independent inverse
                expected = (sym_gradient(f, point) - 2 * f.value(point)
                            * 1j * np.linalg.inv(point.Y))
                return np.abs(nabla(f, point, 2) - expected).max()
            yield ("default_field_consistency", {"g": g, "case": case},
                   "kron", default_field)

        for case in range(10):
            rng = _case_rng(seed, "op-bracket", g, case)
            gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            f = random_test_function(g, rng)
            h = random_test_function(g, rng)
            r = int(rng.integers(1, 3))
            yield ("bracket_equal_weight", {"g": g, "r": r, "case": case},
                   "transform",
                   lambda: bracket1_transform_residual(f, h, r, r, gamma,
                                                       point)[0])
            yield ("bracket_antisymmetry", {"g": g, "case": case}, None,
                   lambda: bracket1(f, f, point) == 0.0)
            yield ("bracket_defect_prediction",
                   {"g": g, "r": 1, "s": 2, "case": case}, "transform",
                   lambda: bracket1_transform_residual(f, h, 1, 2, gamma,
                                                       point)[1])
            yield ("bracket_weight_corrected",
                   {"g": g, "r": 1, "s": 2, "case": case}, "transform",
                   lambda: bracket1_transform_residual(
                       f, h, 1, 2, gamma, point, weights_corrected=True)[0])

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

    for case in range(5):
        rng = _case_rng(seed, "op-ig2", case)
        gamma = random_symplectic(1, int(rng.integers(1, 5)), rng)
        point = random_point(1, rng)
        yield ("ig2_transformation_law", {"case": case}, "series",
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
