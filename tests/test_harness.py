import dataclasses
import json
import math

import numpy as np
import pytest

import quantile_kaczmarz.harness as harness
import quantile_kaczmarz.solvers as solvers
from quantile_kaczmarz.cli import main as cli_main
from quantile_kaczmarz.errors import ConfigError, DivergedError, DomainError
from quantile_kaczmarz.harness import (
    ExperimentConfig,
    SweepSpec,
    adversarial_demo,
    compare_methods,
    derived_seed,
    empirical_alpha,
    run,
    sweep,
    write_sweep_csv,
)
from quantile_kaczmarz.problems import CorruptionSpec, GeneratorSpec, generate
from quantile_kaczmarz.solvers import METHOD_TABLE, SolverConfig, lane_errors, solve
from quantile_kaczmarz.svgplot import emit_svg
from sweep_stats import all_diverged, argmin_value


def experiment(tmp_path, sweep=None, reps=1, m=150, n=8, beta=0.2, **solver_kwargs):
    solver = dict(method="quantile-averaged-block", q=0.7, alpha=3.0, max_iters=10, seed=5)
    solver.update(solver_kwargs)
    return ExperimentConfig(
        generator=GeneratorSpec(family="gaussian", m=m, n=n, seed=3,
                                corruption=CorruptionSpec(beta=beta)),
        solver=SolverConfig(**solver),
        sweep=sweep,
        repetitions=reps,
        output_dir=str(tmp_path / "out"),
        timing="none",
    )


class TestRun:
    def test_single_run_artifacts(self, tmp_path):
        paths = run(experiment(tmp_path))
        lines = paths["trace_csv"].read_text().strip().splitlines()
        assert lines[0] == "iter,rel_error,quantile,tau_size,tau_corrupted,elapsed_ns"
        assert len(lines) == 11  # header + 10 iterations
        payload = json.loads(paths["config_json"].read_text())
        assert payload["solver"]["method"] == "quantile-averaged-block"
        assert payload["resolved"]["alpha"] == 3.0

    def test_identical_runs_byte_identical(self, tmp_path):
        a = run(experiment(tmp_path / "a"))
        b = run(experiment(tmp_path / "b"))
        assert a["trace_csv"].read_bytes() == b["trace_csv"].read_bytes()
        assert a["config_json"].read_bytes() == b["config_json"].read_bytes()

    def test_sweep_row_count(self, tmp_path):
        sweep = SweepSpec("alpha", (1.0, 2.0, 3.0, 4.0))
        paths = run(experiment(tmp_path, sweep=sweep, reps=3))
        lines = paths["sweep_csv"].read_text().strip().splitlines()
        assert lines[0] == "value,repetition,rel_error,diverged,wall_ms"
        assert len(lines) == 1 + 4 * 3

    def test_sweep_rows_keep_diverged_points(self, tmp_path):
        sweep = SweepSpec("alpha", (1.0, 5000.0))
        paths = run(experiment(tmp_path, sweep=sweep, reps=2))
        rows = paths["sweep_csv"].read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        flagged = [r for r in rows if r.split(",")[3] == "true"]
        assert len(flagged) == 2

    def test_sweep_values_must_increase(self, tmp_path):
        with pytest.raises(ConfigError):
            run(experiment(tmp_path, sweep=SweepSpec("alpha", (2.0, 1.0))))

    def test_unknown_sweep_parameter(self, tmp_path):
        with pytest.raises(ConfigError):
            run(experiment(tmp_path, sweep=SweepSpec("gamma", (1.0, 2.0))))


class TestSweeps:
    def test_zero_step_size_means_no_movement(self, tmp_path):
        # alpha=0 is rejected by the solver config, so approximate with the
        # smallest representable positive step and a true zero row via alpha
        # sweep semantics: the first value must leave rel_error at 1.
        result = sweep(experiment(tmp_path, sweep=SweepSpec("alpha", (1e-300, 1.0)), reps=2))
        first = [p for p in result.points if p.value == 1e-300]
        for point in first:
            assert point.rel_error == pytest.approx(1.0, abs=1e-12)

    def test_points_are_value_major(self, tmp_path):
        result = sweep(experiment(tmp_path, sweep=SweepSpec("alpha", (1.0, 2.0)), reps=2))
        keys = [(p.value, p.repetition) for p in result.points]
        assert keys == [(1.0, 0), (1.0, 1), (2.0, 0), (2.0, 1)]

    def test_quantile_sweep_resolves_alpha_per_q(self, tmp_path):
        config = experiment(tmp_path, sweep=SweepSpec("q", (0.4, 0.7)), reps=1, alpha="auto")
        result = sweep(config)
        assert len(result.points) == 2
        assert all(math.isfinite(p.rel_error) for p in result.points)

    def test_quantile_sweep_skips_alpha_search_for_methods_without_alpha(
        self, tmp_path, monkeypatch
    ):
        import quantile_kaczmarz.harness as harness

        calls = []
        original = harness.empirical_alpha
        monkeypatch.setattr(harness, "empirical_alpha",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        qs = SweepSpec("q", (0.5, 0.7))
        sweep(experiment(tmp_path, sweep=qs, method="quantile-rk", alpha="auto", t=50))
        assert calls == []
        sweep(experiment(tmp_path, sweep=qs, alpha="auto"))
        assert len(calls) == 2

    def test_argmin_and_divergence_helpers(self, tmp_path):
        result = sweep(experiment(tmp_path, sweep=SweepSpec("alpha", (0.5, 2.0, 5000.0)),
                                  reps=2))
        assert argmin_value(result) == 2.0
        assert all_diverged(result, 5000.0)
        assert not all_diverged(result, 2.0)

    def test_sweep_without_a_sweep_spec_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep") as info:
            sweep(experiment(tmp_path))
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("spec", [SweepSpec("alpha", (1.0, 5000.0)),
                                      SweepSpec("q", (0.5, 0.7)),
                                      SweepSpec("t", (50.0, 100.0))])
    def test_run_writes_the_rows_of_sweep(self, tmp_path, spec):
        config = experiment(tmp_path, sweep=spec, reps=2, method="sampled-quantile-averaged-block",
                            t=100, alpha="auto" if spec.parameter == "q" else 3.0)
        written = run(config)["sweep_csv"].read_bytes()
        assert write_sweep_csv(sweep(config), tmp_path / "direct.csv").read_bytes() == written


def candidates(n: int) -> list[float]:
    """The search's 11 step sizes: 6 absolute and 5 scaled by n."""
    return sorted({0.25, 0.5, 1.0, 1.5, 2.0, 2.5} | {r * n for r in (0.4, 0.8, 1.2, 1.6, 2.0)})


def search_system(idx: int):
    family = "coherent" if idx % 3 == 0 else "gaussian"
    return generate(GeneratorSpec(family, 60 + 7 * idx, 3 + idx % 5, idx,
                                  CorruptionSpec(beta=0.1 * (idx % 3))))


class TestEmpiricalAlpha:
    def test_picks_what_eleven_solves_on_the_shared_seed_pick(self):
        for idx in range(24):
            system = search_system(idx)
            sampled = idx % 2 == 1
            solver = SolverConfig(
                "sampled-quantile-averaged-block" if sampled else "quantile-averaged-block",
                q=0.5 + 0.05 * (idx % 5), t=system.m // 3 if sampled else None,
                comparator=("strict-below", "at-or-below")[idx % 4 // 2], max_iters=40, seed=idx)
            seed = 1000 + idx
            errors = []
            for alpha in candidates(system.n):
                trial = dataclasses.replace(
                    solver, alpha=alpha, max_iters=10, stop_rel_error=0.0,
                    seed=derived_seed(seed, harness._TAG_ALPHA_SEARCH))
                try:
                    rel = solve(system, trial, np.ones(system.n)).rel_error[-1]
                except DivergedError:
                    rel = math.inf
                errors.append(rel if rel <= 1.0 else math.inf)
            expected = candidates(system.n)[int(np.argmin(errors))]
            assert empirical_alpha(system, solver, solver.q, seed) == expected, idx

    def test_lanes_stop_where_their_solves_stop(self):
        system = search_system(4)
        alphas = np.array([0.5, 2.0, 5.0, 1e4])  # the last diverges
        for stop in (0.0, 0.2):
            config = SolverConfig("sampled-quantile-averaged-block", q=0.6, t=30,
                                  max_iters=12, stop_rel_error=stop, seed=8)
            errors = lane_errors(system, config, np.ones(system.n), alphas)
            for alpha, error in zip(alphas, errors):
                one = dataclasses.replace(config, alpha=float(alpha))
                try:
                    trace = solve(system, one, np.ones(system.n))
                except DivergedError as exc:
                    trace = exc.trace
                # The lane's error is the one its solve stopped at, to rounding.
                assert error == pytest.approx(trace.rel_error[-1], rel=1e-9)
        assert errors[-1] > 1e12 and math.isfinite(errors[-1])

    def test_diverged_lane_is_never_picked(self, monkeypatch):
        system = search_system(1)
        solver = SolverConfig("quantile-averaged-block", q=0.7, max_iters=10, seed=3)

        def pick(errors):
            monkeypatch.setattr(harness, "lane_errors", lambda *a, **k: np.array(errors))
            return empirical_alpha(system, solver, 0.7, 5)

        grid = candidates(system.n)
        inf, nan = math.inf, math.nan
        # A diverged lane stops above 1e12 or non-finite; a lane above 1 made
        # no progress.  None of them is picked, and a tie goes to the lower.
        assert pick([2e12, nan, inf, 1.5, 0.4, 0.3, 0.3, 0.9, 1.0, 5.0, 2e12]) == grid[5]
        assert pick([inf] * 5 + [nan] * 3 + [2e12] * 3) == grid[0]
        assert pick([1.0 + 1e-9] * 11) == grid[0]

    def test_runs_no_solve(self, monkeypatch):
        calls = []

        def counting(original):
            def call(*args, **kwargs):
                calls.append(1)
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(solvers, "solve", counting(solvers.solve))
        monkeypatch.setattr(harness, "solve", counting(harness.solve))
        system = search_system(2)
        for method, t in (("quantile-averaged-block", None),
                          ("sampled-quantile-averaged-block", 20)):
            solver = SolverConfig(method, q=0.7, t=t, max_iters=10, seed=1)
            assert empirical_alpha(system, solver, 0.7, 9) in candidates(system.n)
        assert calls == []

    @pytest.mark.parametrize("method", [m for m, spec in METHOD_TABLE.items()
                                        if not spec.auto_alpha])
    def test_method_without_auto_alpha_is_a_config_error(self, method):
        system = search_system(2)
        solver = SolverConfig(method, q=0.7, t=20, block_size=5, max_iters=10, seed=1)
        with pytest.raises(ConfigError, match="step-size lanes"):
            empirical_alpha(system, solver, 0.7, 9)

    def test_validates_like_solve(self):
        system = search_system(2)
        solver = SolverConfig("sampled-quantile-averaged-block", q=0.7, t=system.m + 1, seed=1)
        with pytest.raises(ConfigError, match="sample size"):
            empirical_alpha(system, solver, 0.7, 9)
        system.b_observed[0] = math.nan
        with pytest.raises(ConfigError, match="b_observed"):
            empirical_alpha(system, dataclasses.replace(solver, t=None), 0.7, 9)


class TestCompare:
    def test_same_method_twice_identical(self, tmp_path):
        config = experiment(tmp_path)
        out = compare_methods(config, ["quantile-averaged-block", "quantile-averaged-block"])
        a, b = out["traces"]
        assert a.rel_error == b.rel_error
        assert out["trace_csv_0"].read_bytes() != b""  # files exist
        # aligned CSV has one row per iteration plus header
        lines = out["compare_csv"].read_text().strip().splitlines()
        assert len(lines) == 1 + config.solver.max_iters

    def test_distinct_methods_share_system(self, tmp_path):
        config = experiment(tmp_path, m=300, n=10, max_iters=40, alpha=12.0)
        out = compare_methods(config, ["quantile-averaged-block", "quantile-rk"])
        abk, qrk = out["traces"]
        assert abk.rel_error[-1] < qrk.rel_error[-1]


def sampled_route(tmp_path, **solver_kwargs):
    """An experiment whose rate formula takes the sampled route (the subsets
    of size 55 of 80 rows cannot be enumerated) and whose convergence
    condition holds on the run's system and on the first three sweep
    repetitions' systems."""
    solver = dict(method="sampled-quantile-averaged-block", t=40, alpha="auto")
    return experiment(tmp_path, m=80, n=5, beta=0.02, **{**solver, **solver_kwargs})


def spy(monkeypatch, name: str) -> list:
    """Record the arguments of each call to ``harness.<name>``."""
    calls, original = [], getattr(harness, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, record)
    return calls


class TestStepSize:
    """alpha="auto" is resolved by the harness, once per system."""

    @pytest.mark.parametrize("command, calls", [
        (run, 1),
        (lambda c: compare_methods(c, ["quantile-averaged-block", "rk",
                                       "sampled-quantile-averaged-block"]), 1),
        (lambda c: sweep(dataclasses.replace(c, sweep=SweepSpec("t", (20.0, 40.0, 60.0)),
                                             repetitions=3)), 3),
        (lambda c: sweep(dataclasses.replace(c, sweep=SweepSpec("alpha", (1.0, 2.0)),
                                             repetitions=2)), 0),
        (lambda c: sweep(dataclasses.replace(c, sweep=SweepSpec("q", (0.6, 0.7)),
                                             repetitions=2)), 0),
    ], ids=["run", "compare", "sweep-t", "sweep-alpha", "sweep-q"])
    def test_rate_formula_runs_once_per_system(self, tmp_path, monkeypatch, command, calls):
        resolutions = spy(monkeypatch, "resolve_alpha_auto")
        command(sampled_route(tmp_path))
        assert len(resolutions) == calls
        assert all(kwargs["seed"] == 5 for _, kwargs in resolutions)  # the solver seed

    def test_sweep_t_runs_each_repetition_at_one_step_size(self, tmp_path, monkeypatch):
        solves = spy(monkeypatch, "solve")
        config = dataclasses.replace(sampled_route(tmp_path), repetitions=3,
                                     sweep=SweepSpec("t", (20.0, 40.0, 60.0)))
        points = sweep(config).points
        assert len(solves) == len(points) == 9  # one solve per point
        alphas = {}
        for point, ((_, solver, *_), _) in zip(points, solves):
            assert solver.t == int(point.value)
            alphas.setdefault(point.repetition, set()).add(solver.alpha)
        assert [len(alphas[rep]) for rep in range(3)] == [1, 1, 1]
        distinct = set.union(*alphas.values())
        assert len(distinct) == 3  # each system has its own
        assert all(isinstance(alpha, float) for alpha in distinct)

    def test_compare_shares_one_step_size(self, tmp_path):
        out = compare_methods(sampled_route(tmp_path), [
            "quantile-averaged-block", "sampled-quantile-averaged-block", "quantile-rk"])
        qab, sampled, qrk = out["traces"]
        assert qab.alpha == sampled.alpha > 0
        assert qrk.alpha is None

    @pytest.mark.parametrize("method", ["quantile-averaged-block",
                                        "sampled-quantile-averaged-block"])
    def test_auto_run_matches_a_run_at_the_recorded_step_size(self, tmp_path, method):
        auto = run(sampled_route(tmp_path / "auto", method=method))
        resolved = json.loads(auto["config_json"].read_text())["resolved"]
        assert resolved["alpha_source"] == "auto-sampled"
        explicit = run(sampled_route(tmp_path / "explicit", method=method,
                                     alpha=resolved["alpha"]))
        assert explicit["trace_csv"].read_bytes() == auto["trace_csv"].read_bytes()
        payload = json.loads(explicit["config_json"].read_text())["resolved"]
        assert payload == {**resolved, "alpha_source": "explicit"}

    def test_auto_alpha_resolves_exactly_on_small_system(self, tmp_path):
        config = experiment(tmp_path, m=14, n=3, beta=0.0, q=0.5, alpha="auto", max_iters=5)
        resolved = json.loads(run(config)["config_json"].read_text())["resolved"]
        assert resolved["alpha_source"] == "auto-exact"
        assert resolved["alpha"] > 0

    def test_auto_alpha_requires_supported_method(self, tmp_path):
        config = experiment(tmp_path, m=30, n=3, beta=0.0, method="averaged-block",
                            alpha="auto", block_size=5, max_iters=2)
        with pytest.raises(ConfigError, match="averaged-block"):
            run(config)
        assert not (tmp_path / "out").exists()

    def test_auto_alpha_propagates_programming_errors(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug inside the step-size resolution")

        monkeypatch.setattr(harness, "resolve_alpha_auto", broken)
        config = experiment(tmp_path, m=14, n=3, beta=0.0, q=0.5, alpha="auto", max_iters=5)
        with pytest.raises(TypeError):
            run(config)

    def test_configuration_is_checked_before_the_step_size_is_resolved(
        self, tmp_path, capsys, monkeypatch
    ):
        resolutions = spy(monkeypatch, "resolve_alpha_auto")
        rc = cli_main(["run", "--method", "sampled-quantile-averaged-block", "--t", "5000",
                       "--beta", "0.2", "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sample size t=5000 must satisfy 1 <= t <= m=2000" in err
        assert resolutions == []
        assert not (tmp_path / "o").exists()


class TestAdversarialDemo:
    def test_demo_shapes_and_artifacts(self, tmp_path):
        out = adversarial_demo(tmp_path / "demo", n=25, clean_rows=120, dup_rows=30,
                               target=400.0, q=0.7, alpha=8.0, iterations=12,
                               averaged_stop=1e-4, averaged_max_iters=400,
                               seed=1, timing="none", svg=True)
        proj = out["traces"]["projective"]
        assert proj.iterations == 12
        assert len(out["hyperplane_dots"]) == 12
        summary = json.loads((tmp_path / "demo" / "summary.json").read_text())
        assert summary["dup_rows"] == 30
        assert (tmp_path / "demo" / "adversarial.svg").exists()

    def test_projective_stalls_averaged_converges(self, tmp_path):
        out = adversarial_demo(tmp_path / "demo", n=25, clean_rows=120, dup_rows=30,
                               target=400.0, q=0.7, alpha=8.0, iterations=12,
                               averaged_stop=1e-4, averaged_max_iters=600,
                               seed=2, timing="none", svg=False)
        assert min(out["traces"]["projective"].rel_error) >= 0.1
        assert out["traces"]["averaged"].rel_error[-1] <= 1e-4

    def test_projective_step_on_a_gram_matrix_singular_to_rounding(self, tmp_path):
        # With fewer rows than columns, an accepted Gram matrix here passes
        # Cholesky although LU finds it exactly singular; the ridge solves it.
        out = adversarial_demo(tmp_path / "demo", n=100, clean_rows=29, dup_rows=2,
                               target=0.0, iterations=50, averaged_max_iters=5,
                               timing="none", svg=False)
        assert out["traces"]["projective"].iterations == 50

    def test_bad_timing_rejected_before_any_solve(self, tmp_path, monkeypatch):
        import quantile_kaczmarz.harness as harness

        solves = []
        monkeypatch.setattr(harness, "solve", lambda *args, **kw: solves.append(1))
        with pytest.raises(ConfigError, match="timing"):
            adversarial_demo(tmp_path / "demo", n=10, clean_rows=50, dup_rows=10,
                             iterations=3, averaged_max_iters=3, timing="bogus")
        assert solves == []
        assert not (tmp_path / "demo").exists()


class TestSvg:
    def test_single_series_single_polyline(self, tmp_path):
        path = emit_svg([("s", [0, 1], [1.0, 2.0])], path=tmp_path / "p.svg")
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert 'width="800" height="600"' in text

    def test_deterministic_bytes(self, tmp_path):
        series = [("a", [0, 1, 2], [3.0, 1.0, 2.0]), ("b", [0, 1, 2], [1.0, 1.5, 0.5])]
        one = emit_svg(series, tmp_path / "one.svg", title="t")
        two = emit_svg(series, tmp_path / "two.svg", title="t")
        assert one.read_bytes() == two.read_bytes()

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_svg([], path=tmp_path / "x.svg")

    def test_log_requires_positive(self, tmp_path):
        with pytest.raises(DomainError):
            emit_svg([("s", [0, 1], [1.0, 0.0])], path=tmp_path / "x.svg")


class TestDerivedSeeds:
    def test_distinct_keys_distinct_streams(self):
        seeds = {derived_seed(7, i, j) for i in range(5) for j in range(5)}
        assert len(seeds) == 25

    def test_stable_across_calls(self):
        assert derived_seed(123, 4, 5) == derived_seed(123, 4, 5)


class TestCli:
    def test_run_and_exit_code(self, tmp_path, capsys):
        rc = cli_main([
            "run", "--family", "gaussian", "--m", "120", "--n", "6", "--beta", "0.2",
            "--seed", "3", "--method", "quantile-averaged-block", "--alpha", "2.5",
            "--iters", "5", "--out", str(tmp_path / "r"), "--timing", "none",
        ])
        assert rc == 0
        assert (tmp_path / "r" / "trace.csv").exists()

    def test_missing_seed_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", "--m", "50", "--n", "5", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_config_error_exit_code(self, tmp_path):
        rc = cli_main([
            "run", "--m", "10", "--n", "20", "--seed", "1", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2

    def test_divergence_exit_code(self, tmp_path):
        rc = cli_main([
            "run", "--family", "gaussian", "--m", "100", "--n", "8", "--seed", "2",
            "--method", "quantile-averaged-block", "--alpha", "100000", "--iters", "50",
            "--out", str(tmp_path / "d"), "--timing", "none",
        ])
        assert rc == 3
        assert (tmp_path / "d" / "trace.csv").exists()  # partial trace still written

    def test_generate_subcommand(self, tmp_path):
        rc = cli_main([
            "generate", "--family", "coherent", "--m", "40", "--n", "4", "--beta", "0.25",
            "--seed", "9", "--out", str(tmp_path / "sys"),
        ])
        assert rc == 0
        for name in ("matrix.csv", "b_observed.csv", "metadata.json"):
            assert (tmp_path / "sys" / name).exists()

    def test_sweep_subcommand_rows(self, tmp_path):
        rc = cli_main([
            "sweep-alpha", "--family", "gaussian", "--m", "100", "--n", "5",
            "--beta", "0.2", "--seed", "4", "--method", "quantile-averaged-block",
            "--values", "1.0,2.0,4.0", "--reps", "2", "--iters", "5",
            "--out", str(tmp_path / "sw"), "--timing", "none",
        ])
        assert rc == 0
        rows = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 3 * 2

    @pytest.mark.parametrize("value", ["50.5", "nan"])
    def test_fractional_sample_size_exits_2_naming_it(self, tmp_path, capsys, value):
        rc = cli_main([
            "sweep-t", "--m", "100", "--n", "5", "--method", "sampled-quantile-averaged-block",
            "--values", f"30,{value}", "--out", str(tmp_path / "sw"), "--timing", "none",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and value in err
        assert not (tmp_path / "sw" / "sweep.csv").exists()

    @pytest.mark.parametrize("argv, parameter, method", [
        (["sweep-t", "--m", "200", "--beta", "0.1", "--method", "quantile-averaged-block",
          "--alpha", "5", "--values", "20,100,200"], "t", "quantile-averaged-block"),
        (["sweep-alpha", "--m", "200", "--method", "quantile-rk", "--values", "1,2"],
         "alpha", "quantile-rk"),
        (["sweep-q", "--m", "200", "--method", "rk", "--values", "0.5,0.7"], "q", "rk"),
    ])
    def test_sweep_over_a_parameter_the_method_never_reads_exits_2(
        self, tmp_path, capsys, argv, parameter, method
    ):
        rc = cli_main([*argv, "--n", "5", "--timing", "none", "--out", str(tmp_path / "sw")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert repr(parameter) in err and repr(method) in err
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--m", "100", "--n", "5", "--seed", "1", "--iters", "0"],
        ["compare", "--m", "100", "--n", "5", "--methods", "quantile-rk,bogus"],
        ["sweep-q", "--m", "100", "--n", "5", "--q", "0.5", "--values", "0.001,0.5"],
        ["sweep-t", "--m", "100", "--n", "5", "--method", "sampled-quantile-averaged-block",
         "--values", "30,50.5"],
        ["adversarial-demo", "--iters", "0"],
    ])
    def test_config_error_leaves_no_output_directory(self, tmp_path, argv):
        assert cli_main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_rate_subcommand(self, tmp_path, capsys):
        rc = cli_main([
            "rate", "--family", "gaussian", "--m", "14", "--n", "3", "--seed", "6",
            "--q", "0.5", "--json-out", str(tmp_path / "rate.json"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimal step size" in out
        assert (tmp_path / "rate.json").exists()

    @pytest.mark.parametrize("size", [
        ["--m", "14", "--n", "3", "--q", "0.5"],                      # exhaustive path
        ["--m", "2000", "--n", "50", "--beta", "0.02", "--q", "0.7"],  # sampled path
    ])
    def test_rate_zero_samples_exits_2_on_either_path(self, capsys, size):
        assert cli_main(["rate", *size, "--seed", "6", "--samples", "0"]) == 2
        captured = capsys.readouterr()
        assert "samples" in captured.err and "optimal step size" not in captured.out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = {
            "generator": {"family": "gaussian", "m": 90, "n": 6,
                          "corruption": {"beta": 0.2}},
            "solver": {"method": "quantile-averaged-block", "alpha": 2.0},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main([
            "run", "--config", str(cfg_path), "--seed", "8", "--iters", "4",
            "--out", str(tmp_path / "o"), "--timing", "none",
        ])
        assert rc == 0
        payload = json.loads((tmp_path / "o" / "config.json").read_text())
        assert payload["generator"]["m"] == 90       # from file
        assert payload["solver"]["max_iters"] == 4   # from flag

    @pytest.mark.parametrize("command, extra, required", [
        ("run", ["--method", "quantile-averaged-block"], ["--seed", "11"]),
        ("compare", ["--t", "60"], ["--methods", "quantile-rk,sampled-quantile-averaged-block"]),
        ("sweep-alpha", ["--reps", "2"], ["--values", "1.0,2.0"]),
        ("sweep-q", ["--reps", "2"], ["--values", "0.5,0.7"]),
        ("sweep-t", ["--method", "sampled-quantile-averaged-block", "--reps", "2"],
         ["--values", "30,60"]),
    ])
    def test_config_json_round_trip(self, tmp_path, monkeypatch, command, extra, required):
        # Every value below differs from its default, so the re-run, which
        # passes only the required flags, must take each one from config.json.
        monkeypatch.chdir(tmp_path)
        flags = [
            "--family", "coherent", "--m", "120", "--n", "6", "--beta", "0.2",
            "--mag-low", "5", "--mag-high", "50", "--q", "0.6", "--alpha", "3",
            "--iters", "7", "--stop", "1e-3", "--comparator", "at-or-below",
            "--seed", "11", "--timing", "none",
        ]
        assert cli_main([command, *flags, *extra, *required, "--out", "first"]) == 0
        assert cli_main([command, *required, "--config", "first/config.json"]) == 0
        names = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "artifacts").iterdir())
        for name in names:
            assert (tmp_path / "artifacts" / name).read_bytes() == \
                (tmp_path / "first" / name).read_bytes(), name

    @pytest.mark.parametrize("argv", [
        ["rate", "--reps", "3"],
        ["adversarial-demo", "--config", "x.json"],
    ])
    def test_flag_the_command_does_not_read_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2

    def test_adversarial_zero_iterations_is_config_error(self, tmp_path):
        rc = cli_main(["adversarial-demo", "--n", "10", "--clean-rows", "50", "--dup-rows", "10",
                       "--iters", "0", "--timing", "none", "--out", str(tmp_path / "d")])
        assert rc == 2
        assert not (tmp_path / "d" / "summary.json").exists()

    def test_json_artifacts_hold_no_nan_or_infinity(self, tmp_path, capsys):
        def strict(path):
            def refuse(token):
                raise AssertionError(f"{path} holds {token}")
            return json.loads(path.read_text(), parse_constant=refuse)

        small = ["--m", "50", "--n", "5", "--seed", "1"]
        assert cli_main(["run", *small, "--method", "rk", "--iters", "2", "--timing", "none",
                         "--out", str(tmp_path / "rk")]) == 0
        assert strict(tmp_path / "rk" / "config.json")["resolved"]["alpha"] is None
        assert cli_main(["adversarial-demo", "--alpha", "1e300", "--iters", "2", "--n", "10",
                         "--clean-rows", "30", "--dup-rows", "5", "--timing", "none",
                         "--out", str(tmp_path / "adv")]) == 0
        summary = strict(tmp_path / "adv" / "summary.json")
        assert summary["final_rel_error_averaged"] is None
        assert summary["final_rel_error_projective"] > 0
        assert cli_main(["generate", *small, "--out", str(tmp_path / "sys")]) == 0
        strict(tmp_path / "sys" / "metadata.json")
        assert cli_main(["rate", "--m", "14", "--n", "3", "--seed", "6", "--q", "0.5",
                         "--json-out", str(tmp_path / "rate.json")]) == 0
        strict(tmp_path / "rate.json")
        capsys.readouterr()

    @pytest.mark.parametrize("flags, cfg, key", [
        (["--alpha", "abc"], None, "--alpha"),
        ([], {"solver": {"q": "0.7"}}, "solver.q"),
        ([], {"generator": {"m": "90"}}, "generator.m"),
        ([], {"generator": {"corruption": {"beta": 0.2, "mag-low": 5}}},
         "generator.corruption.mag-low"),
        ([], {"iters": 4}, "iters"),
    ])
    def test_malformed_input_exits_2_naming_it(self, tmp_path, capsys, flags, cfg, key):
        argv = ["run", "--seed", "1", "--m", "60", "--n", "4", "--out", str(tmp_path / "o"), *flags]
        if cfg is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            argv += ["--config", str(tmp_path / "cfg.json")]
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
