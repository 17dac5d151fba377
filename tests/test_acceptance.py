"""Acceptance gate: every identity the library claims, at its contract
tolerance, printed one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from fractions import Fraction

import numpy as np

from siegel.connection import (apply_D, case_analysis_residual, d_det_closed,
                               d_dz_closed, d_f_detk, d_trace_form,
                               equivariance_residual, gamma_closed,
                               gamma_from_metric, invariance_residual,
                               kron_trace, mcc_residual)
from siegel.forms import FormPolynomial, det_dz, probe_vectors, trace_form
from siegel.functions import Jet, random_test_function
from siegel.indexing import coords_to_sym, omega_list, omega_size
from siegel.metric import metric_pair
from siegel.operators import (QSeriesFunction, bracket1_transform_residual,
                              det_nabla_weight_residual, ig2_field,
                              im_inverse, nabla, sym_gradient, verify_G_law,
                              verify_nabla_transform)
from siegel.qseries import (QSeries, SL2_WORDS, anomaly_residual,
                            bracket1_classical, delta, eisenstein, evaluate,
                            membership_in_Mw, serre_derivative)
from siegel.symplectic import SiegelPoint, random_point, random_symplectic

SEED = 20240601


def report(number, passed, detail):
    line = f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def _rng(*tags):
    import hashlib
    digest = hashlib.blake2s(repr(tags).encode(), digest_size=4).digest()
    return np.random.default_rng(
        np.random.SeedSequence([SEED, int.from_bytes(digest, "little")]))


def _random_tangent(rng, g):
    V = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    return (V + V.T) / 2


def test_criterion_01_metric_inverse():
    start = time.perf_counter()
    worst = 0.0
    for g in range(1, 6):
        rng = _rng("metric", g)
        m = omega_size(g)
        for _ in range(100):
            pair = metric_pair(random_point(g, rng))
            worst = max(worst,
                        np.abs(pair.M @ pair.W - np.eye(m)).max())
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-9 and elapsed < 5.0,
           f"closed-form inverse, 500 points g=1..5: "
           f"max |MW - I| = {worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 5s)")


def test_criterion_02_connection_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for g in range(1, 5):
        rng = _rng("paths", g)
        for _ in range(20):
            point = random_point(g, rng)
            closed = gamma_closed(point)
            for path in ("A", "B", "B-expanded"):
                worst = max(worst, np.abs(
                    gamma_from_metric(point, path) - closed).max())
    worst_g1 = 0.0
    rng = _rng("paths-g1")
    for _ in range(20):
        y = float(rng.uniform(0.4, 3.0))
        point = SiegelPoint(1, [[rng.uniform(-1, 1)]], [[y]])
        worst_g1 = max(worst_g1,
                       abs(gamma_closed(point)[0, 0, 0] - 1j / y))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-10 and worst_g1 < 1e-12 and elapsed < 30.0,
           f"three derivations agree over Omega^3, g=1..4: "
           f"max {worst:.2e} (tol 1e-10); degree one vs i/y "
           f"{worst_g1:.2e} (tol 1e-12); {elapsed:.2f}s (< 30s)")


def test_criterion_03_case_analysis():
    worst = 0.0
    for g in range(1, 5):
        rng = _rng("cases", g)
        for _ in range(5):
            worst = max(worst, case_analysis_residual(random_point(g, rng)))
    report(3, worst == 0.0,
           f"diagonal and off-diagonal case analysis reproduced exactly, "
           f"g<=4: max discrepancy {worst}")


def test_criterion_04_modular_transformation_law():
    start = time.perf_counter()
    worst = 0.0
    for g in (1, 2, 3):
        rng = _rng("mcc", g)
        for _ in range(50):
            gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            V = _random_tangent(rng, g)
            worst = max(worst, mcc_residual(gamma, point, V))
    elapsed = time.perf_counter() - start
    report(4, worst < 1e-8 and elapsed < 60.0,
           f"modular transformation law, 50 cases per g in 1..3, words "
           f"<= 6: max residual {worst:.2e} (tol 1e-8), "
           f"{elapsed:.2f}s (< 60s)")


def test_criterion_05_form_identities(f_det_power):
    # D evaluated at the probe vectors v against each closed form at the
    # matrices V of v: the largest absolute difference over the probes
    worst = 0.0
    for g in range(1, 5):
        rng = _rng("forms", g)
        point = random_point(g, rng)
        table = gamma_closed(point)
        v = probe_vectors(g)
        V = coords_to_sym(v, g)

        def defect(form, closed):
            return float(np.abs(apply_D(table, form, v)[0] - closed).max())
        quadratics = d_dz_closed(point, V)
        for r, s in omega_list(g):
            worst = max(worst, defect(FormPolynomial.generator(g, (r, s)),
                                      quadratics[:, s - 1, r - 1]))
        worst = max(worst, defect(det_dz(g), d_det_closed(point, V)))
        for k in (1, 2):
            if k == 2 and g > 3:
                continue
            f = random_test_function(g, rng)
            worst = max(worst, defect(f_det_power(Jet.at(f, point), k, g),
                                      d_f_detk(point, f, k, V)))
        entries = [[None] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                fn = random_test_function(g, rng, max_degree=2, n_terms=3)
                entries[i][j] = entries[j][i] = Jet.at(fn, point)
        worst = max(worst, defect(
            trace_form(np.array(entries, dtype=object), g),
            d_trace_form(point, entries, V)))

    kron_worst = 0.0
    rng = _rng("kron")
    for _ in range(100):
        A, B, C, D = (rng.standard_normal((3, 3))
                      + 1j * rng.standard_normal((3, 3)) for _ in range(4))
        value = kron_trace(A, B, C, D)
        kron_worst = max(kron_worst, abs(value - kron_trace(A, C, B, D)),
                         abs(value - np.trace(A @ D) * np.trace(B @ C)))
    report(5, worst < 1e-10 and kron_worst < 1e-12,
           f"derivative closed forms vs D at the probes, g<=4: max "
           f"{worst:.2e} (tol 1e-10); contraction identity on 100 "
           f"quadruples: {kron_worst:.2e} (tol 1e-12)")


def test_criterion_06_G_law_im_inverse():
    from siegel.verify import _conditioned_pair
    worst = 0.0
    for g in (1, 2, 3):
        rng = _rng("glaw", g)
        for _ in range(60):
            gamma, point = _conditioned_pair(rng, g)
            worst = max(worst, verify_G_law(im_inverse, gamma, point))
    report(6, worst < 1e-10,
           f"transformation law of i Y^-1, 180 conditioned cases g=1..3: "
           f"max {worst:.2e} (tol 1e-10)")


def test_criterion_07_operator_transform():
    worst_exact = worst_fd = worst_det = 0.0
    for g in (1, 2, 3):
        for k in (1, 2):
            rng = _rng("nabla", g, k)
            for _ in range(30):
                gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
                point = random_point(g, rng)
                f = random_test_function(g, rng)
                worst_exact = max(worst_exact, verify_nabla_transform(
                    f, gamma, point, k))
                worst_fd = max(worst_fd, verify_nabla_transform(
                    f, gamma, point, k, grad="fd"))
                det_res = det_nabla_weight_residual(f, gamma, point, k)
                if det_res is not None:
                    worst_det = max(worst_det, det_res)
    report(7, worst_exact < 1e-7 and worst_fd < 1e-5 and worst_det < 1e-7,
           f"matrix transformation of the weight-raising operator, 30 "
           f"cases per (g,k): chain rule {worst_exact:.2e} (tol 1e-7), "
           f"finite differences {worst_fd:.2e} (tol 1e-5), determinant "
           f"weight factor {worst_det:.2e} (rel tol 1e-7)")


def test_criterion_08_generic_field_pipeline():
    worst_same = 0.0
    for g in (1, 2, 3):
        rng = _rng("generic", g)
        for _ in range(10):
            point = random_point(g, rng)
            f = random_test_function(g, rng)
            # the default G against i Y^{-1} from an independent inverse
            expected = (sym_gradient(f, point) - 2 * f.value(point)
                        * 1j * np.linalg.inv(point.Y))
            worst_same = max(worst_same,
                             np.abs(nabla(f, point, 2) - expected).max())

    n = 300
    e4 = eisenstein(4, n)
    f = QSeriesFunction(e4)
    G2 = ig2_field(n)
    v4 = serre_derivative(e4)
    worst_holo = worst_match = 0.0
    for t in range(5):
        z = complex(0.1 * t - 0.25, 0.9 + 0.14 * t)
        point = SiegelPoint(1, [[z.real]], [[z.imag]])
        got = nabla(f, point, 2, G2)[0, 0]
        expect = 2j * np.pi * evaluate(v4, z)
        worst_match = max(worst_match, abs(got - expect) / abs(expect))

        h = 1e-5

        def op(zz):
            return nabla(f, SiegelPoint(1, [[zz.real]], [[zz.imag]]), 2,
                         G2)[0, 0]
        dx = (op(z + h) - op(z - h)) / (2 * h)
        dy = (op(z + 1j * h) - op(z - 1j * h)) / (2 * h)
        worst_holo = max(worst_holo, abs(0.5 * (dx + 1j * dy)))
    report(8, worst_same <= 1e-14 and worst_holo < 1e-6
           and worst_match < 1e-8,
           f"generic-field pipeline: default match {worst_same:.1e} "
           f"(tol 1e-14); holomorphic field output d/dzbar "
           f"{worst_holo:.2e} (tol 1e-6), exact weight-raising match "
           f"{worst_match:.2e} (tol 1e-8)")


def test_criterion_09_equivariance():
    worst = 0.0
    for g in (1, 2):
        rng = _rng("equi", g)
        m = omega_size(g)
        for _ in range(20):
            gamma = random_symplectic(g, int(rng.integers(0, 7)), rng)
            point = random_point(g, rng)
            terms = {}
            for _ in range(3):
                deg = int(rng.integers(0, 3))
                mono = tuple(sorted(int(rng.integers(0, m))
                                    for _ in range(deg)))
                terms[mono] = random_test_function(g, rng, max_degree=2,
                                                   n_terms=2)
            form = FormPolynomial(g, terms)
            worst = max(worst, equivariance_residual(gamma, point, form))
            fn = random_test_function(g, rng)
            worst = max(worst, invariance_residual(
                gamma, point, fn, int(rng.integers(1, 3))))
    report(9, worst < 1e-8,
           f"operator commutes with the group action on degree <= 2 "
           f"forms, g <= 2: max residual {worst:.2e} (tol 1e-8)")


def test_criterion_10_exact_degree_one_suite():
    n = 200
    e4, e6, dlt = eisenstein(4, n), eisenstein(6, n), delta(n)
    identities = (
        serre_derivative(e4) == e6.scale(Fraction(-1, 3)),
        serre_derivative(e6) == (e4 * e4).scale(Fraction(-1, 2)),
        serre_derivative(dlt).is_zero(),
    )
    worst_anomaly = 0.0
    zs = [complex(0.05 * t - 0.2, 0.9 + 0.1 * t) for t in range(10)]
    for word in SL2_WORDS.values():
        for z in zs:
            worst_anomaly = max(worst_anomaly,
                                anomaly_residual(word, z, 300))
    zero_ok, _ = membership_in_Mw(QSeries([0] * 40), 2)
    e2_ok, _ = membership_in_Mw(eisenstein(2, 40), 2)
    report(10, all(identities) and worst_anomaly < 1e-6 and zero_ok
           and not e2_ok,
           f"exact identities to {n} coefficients: "
           f"{' '.join(str(bool(v)) for v in identities)}; weight-2 "
           f"anomaly over 5 elements x 10 points: {worst_anomaly:.2e} "
           f"(tol 1e-6); weight-2 membership accepts only 0: "
           f"{zero_ok and not e2_ok}")


def test_criterion_11_bracket(bracket_law_without_curvature):
    worst_equal = 0.0
    worst_defect = 0.0
    detected = True
    for g in (1, 2):
        rng = _rng("bracket", g)
        for _ in range(10):
            gamma = random_symplectic(g, int(rng.integers(1, 7)), rng)
            point = random_point(g, rng)
            f = random_test_function(g, rng)
            h = random_test_function(g, rng)
            worst_equal = max(worst_equal, bracket1_transform_residual(
                f, h, 2, 2, gamma, point))
            corrected = bracket1_transform_residual(f, h, 1, 2, gamma, point)
            raw = bracket_law_without_curvature(f, h, 1, 2, gamma, point)
            worst_defect = max(worst_defect, corrected)
            if (np.abs(gamma.C).max() > 0
                    and abs(f.value(point) * h.value(point)) > 1e-3):
                detected = detected and raw > 100 * max(corrected, 1e-15)

    n = 60
    e4, dlt = eisenstein(4, n), delta(n)
    cusp = bracket1_classical(e4 * e4 * e4, dlt)
    member, _ = membership_in_Mw(cusp, 26)
    cusp_ok = member and cusp.coeffs[0] == 0
    report(11, worst_equal < 1e-7 and worst_defect < 1e-7 and detected
           and cusp_ok,
           f"bracket transformation: equal weights {worst_equal:.2e} "
           f"(tol 1e-7); unequal-weight defect predicted to "
           f"{worst_defect:.2e} (tol 1e-7) and detected: {detected}; "
           f"degree-one bracket lands in the cusp space: {cusp_ok}")


def test_criterion_12_full_verification_run(full_job_report):
    from siegel.verify import run_suite
    start = time.perf_counter()
    first = run_suite("all", (1, 5), seed=SEED)
    elapsed = time.perf_counter() - start
    second = full_job_report
    deterministic = (json.dumps(first.to_dict(), sort_keys=True)
                     == json.dumps(second.to_dict(), sort_keys=True))
    summary = first.summary
    report(12, first.all_passed and deterministic and elapsed < 300.0,
           f"full verification: {summary['passed']}/{summary['total']} "
           f"checks, deterministic: {deterministic}, "
           f"{elapsed:.1f}s (< 300s)")
