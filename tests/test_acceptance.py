"""Acceptance suite.

Each test exercises one numbered acceptance criterion at its stated tolerance
and prints a ``[criterion N] PASS/FAIL`` line (visible with ``pytest -s`` or
``-rA``).  Experiment criteria run at desk scale (2000x50) with frozen seeds;
the duplicate-row demonstration runs at its full 1250x100 scale.
"""
import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

import quantile_kaczmarz as qk
from quantile_kaczmarz.harness import derived_seed, empirical_alpha
from quantile_kaczmarz.rates import rate_constants
from quantile_kaczmarz.solvers import quantile_abk_step
from rate_identities import scaled_step_decrease
from sweep_stats import all_diverged, argmin_value

N_DESK = 50
M_DESK = 2000


def _report(cid, ok, detail=""):
    print(f"[criterion {cid}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def unit_rows(rng, m, n):
    a = rng.standard_normal((m, n))
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def exact_sigma_max_sq(matrix):
    return float(np.linalg.eigvalsh(matrix.T @ matrix)[-1])


# ---------------------------------------------------------------------------
# Shared experiment runs (module-scoped: executed once, reused by the
# quantile-estimate lemma check)

@pytest.fixture(scope="module")
def gaussian_compare(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    config = qk.ExperimentConfig(
        generator=qk.GeneratorSpec("gaussian", M_DESK, N_DESK, seed=20250110,
                                   corruption=qk.CorruptionSpec(beta=0.2)),
        solver=qk.SolverConfig(method="quantile-averaged-block", q=0.7,
                               alpha=1.5 * N_DESK, max_iters=100, seed=92),
        output_dir=str(out),
        timing="none",
    )
    started = time.perf_counter()
    result = qk.compare_methods(config, ["quantile-averaged-block", "quantile-rk"])
    result["elapsed"] = time.perf_counter() - started
    result["system"] = qk.generate(config.generator)
    result["q"] = 0.7
    return result


@pytest.fixture(scope="module")
def adversarial(tmp_path_factory):
    out = tmp_path_factory.mktemp("adversarial")
    started = time.perf_counter()
    result = qk.adversarial_demo(
        out, n=100, clean_rows=1000, dup_rows=250, target=500.0,
        q=0.7, alpha=10.0, iterations=50, seed=20250111, timing="none",
    )
    result["elapsed"] = time.perf_counter() - started
    return result


@pytest.fixture(scope="module")
def sampled_runs():
    system = qk.generate(
        qk.GeneratorSpec("gaussian", M_DESK, N_DESK, seed=20250112,
                         corruption=qk.CorruptionSpec(beta=0.2))
    )
    x0 = np.ones(N_DESK)
    started = time.perf_counter()
    traces = {}
    for tidx, t in enumerate((200, 500, 2000)):
        base = qk.SolverConfig(method="sampled-quantile-averaged-block", q=0.7,
                               alpha=1.0, t=t, max_iters=10, seed=93)
        alpha = empirical_alpha(system, base, 0.7, derived_seed(93, 40, tidx))
        config = dataclasses.replace(base, alpha=alpha, max_iters=400, stop_rel_error=1e-5)
        traces[t] = qk.solve(system, config, x0)
    return {"system": system, "traces": traces, "x0": x0,
            "elapsed": time.perf_counter() - started}


@pytest.fixture(scope="module")
def coherent_run():
    system = qk.generate(
        qk.GeneratorSpec("coherent", M_DESK, N_DESK, seed=20250108,
                         corruption=qk.CorruptionSpec(beta=0.2))
    )
    config = qk.SolverConfig(method="quantile-averaged-block", q=0.7, alpha=1.5,
                             max_iters=60, seed=94)
    trace = qk.solve(system, config, np.ones(N_DESK))
    return {"system": system, "trace": trace, "q": 0.7}


# ---------------------------------------------------------------------------
# 1. Deterministic row-sum bounds, exhaustively over subsets

def test_criterion_1_lemma_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20250201)
    worst = math.inf
    masks_by_m = {}
    for _ in range(500):
        m = int(rng.integers(2, 11))
        n = int(rng.integers(1, 5))
        a = unit_rows(rng, m, n)
        x = rng.standard_normal(n)
        smax = math.sqrt(exact_sigma_max_sq(a))
        if m not in masks_by_m:
            bits = np.arange(1, 2**m, dtype=np.uint32)
            masks_by_m[m] = (bits[:, None] >> np.arange(m)) & 1
        masks = masks_by_m[m].astype(float)
        sizes = masks.sum(axis=1)
        inner_sums = masks @ np.abs(a @ x)
        inner_bounds = smax * np.sqrt(sizes) * np.linalg.norm(x)
        worst = min(worst, float(np.min(inner_bounds - inner_sums)))
        row_sums = masks @ a
        norm_sq = np.sum(row_sums**2, axis=1)
        norm_bounds = smax**2 * sizes
        worst = min(worst, float(np.min(norm_bounds - norm_sq)))
    elapsed = time.perf_counter() - started
    ok = worst >= -1e-10 and elapsed < 10.0
    assert _report(1, ok, f"worst slack {worst:.3e}, {elapsed:.2f}s over 500 systems")


# ---------------------------------------------------------------------------
# 2. Residual-quantile estimate on every full-residual acceptance run

def _check_quantile_estimate(system, trace, q):
    beta = system.beta
    assert 0 < q < 1 - beta
    smax = math.sqrt(qk.sigma_max_sq(system.matrix))
    factor = smax / (math.sqrt(system.m) * math.sqrt(1 - q - beta))
    worst = math.inf
    previous_rel = 1.0
    for k in range(trace.iterations):
        bound = factor * previous_rel * trace.base_error + 1e-9
        worst = min(worst, bound - trace.quantile[k])
        previous_rel = trace.rel_error[k]
    return worst


def test_criterion_2_quantile_estimate_lemma(
    gaussian_compare, adversarial, sampled_runs, coherent_run
):
    checks = []
    abk, qrk = gaussian_compare["traces"]
    checks.append(("gaussian averaged", gaussian_compare["system"], abk, 0.7))
    checks.append(("gaussian gated single-row", gaussian_compare["system"], qrk, 0.7))
    checks.append(("coherent averaged", coherent_run["system"], coherent_run["trace"], 0.7))
    for label in ("projective", "averaged"):
        checks.append(
            (f"adversarial {label}", adversarial["system"],
             adversarial["traces"][label], 0.7)
        )
    # subsampling with the full sample computes the full-residual quantile
    checks.append(("sampled t=m", sampled_runs["system"], sampled_runs["traces"][2000], 0.7))

    worst = math.inf
    iterations = 0
    for _, system, trace, q in checks:
        worst = min(worst, _check_quantile_estimate(system, trace, q))
        iterations += trace.iterations
    ok = worst >= 0.0
    assert _report(2, ok, f"worst margin {worst:.3e} over {iterations} iterations, "
                          f"{len(checks)} runs")


# ---------------------------------------------------------------------------
# 3. Per-iteration certifier on random small systems with exhaustive spectra

def test_criterion_3_per_iteration_certifier():
    started = time.perf_counter()
    rng = np.random.default_rng(20250103)
    worst = math.inf
    systems = 0
    certified = 0
    at_alpha_opt = 0
    while systems < 100:
        beta_twelfths = systems % 3
        if beta_twelfths == 0:
            m, beta = int(rng.integers(6, 13)), 0.0
        else:
            m, beta = 12, beta_twelfths / 12.0
        n = int(rng.integers(2, 4))
        corrupted_count = math.floor(beta * m)
        hi = min(m - 2, math.floor((1 - beta) * m) - 1)
        lo = min(n + corrupted_count, hi)
        c = int(rng.integers(lo, hi + 1))
        q = c / m
        k = c - corrupted_count

        a = unit_rows(rng, m, n)
        x_star = rng.standard_normal(n)
        b = a @ x_star
        idx = np.sort(rng.permutation(m)[:corrupted_count])
        if corrupted_count:
            b[idx] += rng.uniform(-100.0, 100.0, corrupted_count)
        system = qk.CorruptedSystem(matrix=a, x_star=x_star,
                                    b_observed=b, corrupted_indices=idx)
        s2max = qk.sigma_max_sq(a)
        s2r = qk.restricted_min_sv_bruteforce(a, k).sigma_restricted_min_sq

        # Optimal step where the contraction condition admits one; otherwise
        # the always-admissible step q*m/sigma_max^2 (the optimum at zero
        # corruption), which keeps every certifier bound in force.
        report = qk.rate_report(q, beta, m, s2max, s2r)
        alpha = q * m / s2max
        if report.condition_holds and report.alpha_opt * s2max <= 2 * q * m:
            alpha = report.alpha_opt
            at_alpha_opt += 1

        direction = rng.standard_normal(n)
        x = x_star + direction / np.linalg.norm(direction)
        for _ in range(12):
            if np.linalg.norm(x - x_star) < 1e-12:
                break
            x_next, stats = quantile_abk_step(a, b, x, q, alpha, "at-or-below")
            cert = qk.certify_iteration(system, x, x_next, q, alpha, stats.tau,
                                        sigma_max_sq_value=s2max,
                                        sigma_restricted_min_sq=s2r)
            worst = min(worst, cert.term1.slack, cert.term2.slack,
                        cert.term3.slack, cert.combined.slack,
                        cert.worst_case.slack)
            certified += 1
            x = x_next
        systems += 1
    elapsed = time.perf_counter() - started
    ok = worst >= -1e-9 and elapsed < 60.0
    assert _report(3, ok, f"worst slack {worst:.3e} over {certified} certified "
                          f"iterations on {systems} systems "
                          f"({at_alpha_opt} at the optimal step), {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Worked 4x2 oracle cross-check

def test_criterion_4_worked_example():
    s = math.sqrt(2.0)
    matrix = np.array([[1.0, 0.0], [0.0, 1.0], [1 / s, 1 / s], [1 / s, -1 / s]])
    summary = qk.restricted_min_sv_bruteforce(matrix, 2)
    report = qk.rate_report(0.5, 0.0, 4, summary.sigma_max_sq,
                            summary.sigma_restricted_min_sq)
    expect_c1 = 1 - s / 2
    expect_contraction = (1 + s / 2) / 2
    ok = (
        math.isclose(report.c1, expect_c1, rel_tol=1e-10)
        and math.isclose(report.alpha_opt, 1.0, rel_tol=1e-10)
        and math.isclose(report.contraction, expect_contraction, rel_tol=1e-10)
        and summary.exact
    )
    assert _report(4, ok, f"c1={report.c1:.12f} alpha_opt={report.alpha_opt:.12f} "
                          f"contraction={report.contraction:.12f}")


# ---------------------------------------------------------------------------
# 5. Formula consistency

def test_criterion_5_formula_consistency():
    rng = np.random.default_rng(20250105)
    count = 0
    worst_rel = 0.0
    while count < 200:
        beta = float(rng.uniform(0.0, 0.15))
        q = float(rng.uniform(beta + 0.05, 1.0 - beta - 0.05))
        m = int(rng.integers(10, 10_000))
        s2max = float(rng.uniform(1.0, 50.0))
        s2r = float(rng.uniform(0.05, 1.0)) * s2max
        holds, _ = qk.convergence_condition(q, beta, s2max, s2r)
        if not holds:
            continue
        report = qk.rate_report(q, beta, m, s2max, s2r)
        other = qk.alpha_opt_closed_form(q, beta, m, s2max, s2r)
        worst_rel = max(worst_rel, abs(other - report.alpha_opt) / abs(report.alpha_opt))
        count += 1
    routes_ok = worst_rel <= 1e-10

    c1, c2 = rate_constants(0.6, 0.05, 500, 12.0, 5.0)
    alpha_opt = c1 / (2 * c2)

    def decrease(alpha):
        return c1 * alpha - c2 * alpha * alpha

    worst_identity = 0.0
    for xi in np.linspace(0.05, 1.95, 39):
        lhs = decrease(float(xi) * alpha_opt)
        rhs = scaled_step_decrease(float(xi)) * decrease(alpha_opt)
        worst_identity = max(worst_identity, abs(lhs - rhs) / abs(rhs))
    identity_ok = worst_identity <= 1e-12
    ok = routes_ok and identity_ok
    assert _report(5, ok, f"step-size routes rel err {worst_rel:.2e} on 200 tuples; "
                          f"scaled-decrease identity rel err {worst_identity:.2e}")


# ---------------------------------------------------------------------------
# 6. Fixed points and byte-identical artifacts

def test_criterion_6_fixed_points_and_determinism(tmp_path):
    system = qk.generate(
        qk.GeneratorSpec("gaussian", 80, 8, seed=20250106,
                         corruption=qk.CorruptionSpec(beta=0.0))
    )
    # Full-residual methods see a bitwise-zero residual at the solution and
    # must stay put exactly; per-row methods re-evaluate single dot products
    # that can differ from the stored right-hand side in the last ulp, so
    # they are pinned at machine precision.
    fixed_ok = True
    for method in qk.METHODS:
        config = qk.SolverConfig(method=method, q=0.5, alpha=1.0, t=40, block_size=9,
                                 max_iters=5, seed=11)
        trace = qk.solve(system, config, system.x_star.copy())
        if method in ("quantile-averaged-block", "quantile-projective-block"):
            fixed_ok &= bool(np.array_equal(trace.x_final, system.x_star))
        fixed_ok &= bool(np.linalg.norm(trace.x_final - system.x_star) <= 1e-12)
        fixed_ok &= all(r <= 1e-12 for r in trace.rel_error)

    def run_once(tag):
        config = qk.ExperimentConfig(
            generator=qk.GeneratorSpec("gaussian", 200, 10, seed=20250606,
                                       corruption=qk.CorruptionSpec(beta=0.2)),
            solver=qk.SolverConfig(method="sampled-quantile-averaged-block", q=0.7,
                                   alpha=4.0, t=120, max_iters=12, seed=13),
            output_dir=str(tmp_path / tag),
            timing="none",
        )
        return qk.run(config)

    a, b = run_once("a"), run_once("b")
    bytes_ok = (
        a["trace_csv"].read_bytes() == b["trace_csv"].read_bytes()
        and a["config_json"].read_bytes() == b["config_json"].read_bytes()
    )
    spec = qk.GeneratorSpec("coherent", 60, 6, seed=1, corruption=qk.CorruptionSpec(beta=0.2))
    qk.save_system(qk.generate(spec), tmp_path / "s1", spec=spec)
    qk.save_system(qk.generate(spec), tmp_path / "s2", spec=spec)
    for name in ("matrix.npy", "b_observed.npy", "x_star.npy", "corrupted_indices.npy",
                 "metadata.json"):
        bytes_ok &= (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s2" / name).read_bytes()

    ok = fixed_ok and bytes_ok
    assert _report(6, ok, f"fixed points: {fixed_ok}; byte-identical artifacts: {bytes_ok}")


# ---------------------------------------------------------------------------
# 7-8. Step-size sweeps

def test_criterion_7_gaussian_step_size_sweep(tmp_path):
    started = time.perf_counter()
    ratios = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4,
              2.6, 2.8, 3.0, 3.25, 3.5, 3.75, 4.0]
    config = qk.ExperimentConfig(
        generator=qk.GeneratorSpec("gaussian", M_DESK, N_DESK, seed=20250101,
                                   corruption=qk.CorruptionSpec(beta=0.2)),
        solver=qk.SolverConfig(method="quantile-averaged-block", q=0.7, alpha=1.0,
                               max_iters=10, seed=77),
        repetitions=3,
        output_dir=str(tmp_path),
        timing="none",
    )
    result = qk.sweep(dataclasses.replace(
        config, sweep=qk.SweepSpec("alpha", tuple(r * N_DESK for r in ratios))))
    argmin = argmin_value(result)
    in_window = 1.3 * N_DESK <= argmin <= 2.1 * N_DESK
    diverged = all(all_diverged(result, v) for v in result.values() if v >= 3.5 * N_DESK)
    elapsed = time.perf_counter() - started
    ok = in_window and diverged and elapsed < 120.0
    assert _report(7, ok, f"argmin {argmin / N_DESK:.2f}n, divergence beyond 3.5n: "
                          f"{diverged}, {elapsed:.1f}s")


def test_criterion_8_coherent_step_size_sweep(tmp_path):
    started = time.perf_counter()
    config = qk.ExperimentConfig(
        generator=qk.GeneratorSpec("coherent", M_DESK, N_DESK, seed=20250102,
                                   corruption=qk.CorruptionSpec(beta=0.2)),
        solver=qk.SolverConfig(method="quantile-averaged-block", q=0.7, alpha=1.0,
                               max_iters=10, seed=78),
        repetitions=3,
        output_dir=str(tmp_path),
        timing="none",
    )
    values = tuple(float(v) for v in np.arange(0.25, 4.01, 0.25))
    result = qk.sweep(dataclasses.replace(config, sweep=qk.SweepSpec("alpha", values)))
    argmin = argmin_value(result)
    in_window = 1.5 <= argmin <= 2.3
    diverged = all(all_diverged(result, v) for v in result.values() if v >= 3.0)
    elapsed = time.perf_counter() - started
    ok = in_window and diverged and elapsed < 120.0
    assert _report(8, ok, f"argmin {argmin:.2f}, divergence beyond 3: {diverged}, "
                          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. Robustness in the quantile parameter

def test_criterion_9_quantile_robustness(tmp_path):
    started = time.perf_counter()
    config = qk.ExperimentConfig(
        generator=qk.GeneratorSpec("gaussian", M_DESK, N_DESK, seed=20250109,
                                   corruption=qk.CorruptionSpec(beta=0.2)),
        solver=qk.SolverConfig(method="quantile-averaged-block", q=0.7, alpha="auto",
                               max_iters=10, seed=91),
        repetitions=3,
        output_dir=str(tmp_path),
        timing="none",
    )
    result = qk.sweep(dataclasses.replace(
        config, sweep=qk.SweepSpec("q", (0.3, 0.4, 0.5, 0.6, 0.7, 0.75))))
    worst = max(p.rel_error for p in result.points)
    elapsed = time.perf_counter() - started
    ok = worst < 0.9 and elapsed < 120.0
    assert _report(9, ok, f"worst rel error after 10 iterations {worst:.3g}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. Speedup of averaged blocking over gated single-row projections

def test_criterion_10_speedup_over_single_row(gaussian_compare):
    abk, qrk = gaussian_compare["traces"]
    abk_final = abk.rel_error[-1]
    qrk_final = qrk.rel_error[-1]
    elapsed = gaussian_compare["elapsed"]
    ok = abk_final <= 1e-6 and qrk_final >= 10 * abk_final and elapsed < 120.0
    assert _report(10, ok, f"averaged final {abk_final:.3e}, single-row final "
                           f"{qrk_final:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 11. Duplicate-row construction: projective blocking fails, averaged survives

def test_criterion_11_adversarial_demo(adversarial):
    proj = adversarial["traces"]["projective"]
    avg = adversarial["traces"]["averaged"]
    elapsed = adversarial["elapsed"]
    projective_stuck = min(proj.rel_error) >= 0.1 and proj.iterations == 50
    averaged_converged = avg.rel_error[-1] <= 1e-6
    ok = projective_stuck and averaged_converged and elapsed < 180.0
    assert _report(
        11, ok,
        f"projective rel stays >= {min(proj.rel_error):.3f} over 50 iterations; "
        f"averaged reaches {avg.rel_error[-1]:.3e} in {avg.iterations} iterations, "
        f"{elapsed:.1f}s",
    )


def test_criterion_11_hyperplane_invariant(adversarial):
    # Stated invariant: every projective iterate satisfies <a, x_k> = 500
    # within 1e-6.  The least-squares block update does not reproduce this:
    # the accepted uncorrupted rows pull the iterate a bounded O(1) distance
    # off the corrupted hyperplane (the duplicated rows still pass the
    # quantile test, so the method stays pinned near it and never converges).
    offset = max(abs(d - 500.0) for d in adversarial["hyperplane_dots"])
    ok = offset <= 1e-6
    assert _report("11-hyperplane", ok, f"max |<a, x_k> - 500| = {offset:.3g}")


# ---------------------------------------------------------------------------
# 12. Subsample size ordering

def test_criterion_12_sample_size_ordering(sampled_runs):
    def iterations_to(trace, tol=1e-4):
        for k, rel in enumerate(trace.rel_error):
            if rel <= tol:
                return k + 1
        return math.inf

    traces = sampled_runs["traces"]
    k200 = iterations_to(traces[200])
    k500 = iterations_to(traces[500])
    k2000 = iterations_to(traces[2000])
    ordering = k500 <= 1.1 * k200 and k2000 <= 1.1 * k500 and k2000 < k200

    shared = dict(q=0.7, alpha=traces[2000].alpha, max_iters=10, comparator="strict-below")
    system = sampled_runs["system"]
    full = qk.solve(system, qk.SolverConfig(method="quantile-averaged-block", seed=1, **shared),
                    sampled_runs["x0"])
    sub = qk.solve(
        system,
        qk.SolverConfig(method="sampled-quantile-averaged-block", t=system.m, seed=2, **shared),
        sampled_runs["x0"],
    )
    identical = (
        full.rel_error == sub.rel_error
        and full.quantile == sub.quantile
        and full.tau_size == sub.tau_size
    )
    elapsed = sampled_runs["elapsed"]
    ok = ordering and identical and elapsed < 180.0
    assert _report(12, ok, f"iterations to 1e-4: t=200 -> {k200}, t=500 -> {k500}, "
                           f"t=2000 -> {k2000}; full-sample trace identical: {identical}, "
                           f"{elapsed:.1f}s")
