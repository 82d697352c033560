"""Command-line interface: validation, artifacts, reproducibility."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ogboost.losses import LossClass
from ogboost.cli import (
    EXIT_BOUNDS,
    EXIT_CONFIG,
    RunConfig,
    _FLAG_RULES,
    _check_flags,
    build_parser,
    lower_bound_once,
    main,
)


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidation:
    def test_eta_out_of_range_cites_constraint(self, capsys, tmp_path):
        code, out, err = _run(["run", "--eta", "2", "--stages", "10",
                               "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "[1/N, 1]" in err

    def test_all_violations_enumerated(self, capsys, tmp_path):
        code, out, err = _run([
            "run", "--eta", "5", "--algo", "zoom", "--loss", "huber",
            "--split", "2", "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "--eta" in err and "--algo" in err and "--loss" in err and "--split" in err

    def test_greedy_flag_pairing(self):
        cfg = RunConfig(base="greedy", symmetrize=True)
        assert any("greedy" in e for e in cfg.validate())
        cfg = RunConfig(base="greedy", scale=2.0)
        assert any("greedy" in e for e in cfg.validate())

    # each float flag's valid range; anything else must be rejected by name
    FLOAT_FLAGS = {"lr": lambda v: v > 0, "scale": lambda v: v >= 1,
                   "noise": lambda v: v >= 0, "norm1": lambda v: v > 0}

    @given(field=st.sampled_from(sorted(FLOAT_FLAGS)), value=st.floats())
    @example(field="lr", value=math.nan)
    @example(field="scale", value=math.inf)
    @example(field="noise", value=-math.inf)
    @example(field="norm1", value=-2.0)
    @example(field="lr", value=1e308)
    def test_float_flags_named_or_accepted(self, field, value):
        errs = RunConfig(**{field: value}).validate()
        if math.isfinite(value) and self.FLOAT_FLAGS[field](value):
            assert errs == []
        else:
            assert errs and all(e.startswith(f"--{field} ") for e in errs)

    @pytest.mark.parametrize("argv", [
        ["--scale", "nan"], ["--scale", "inf"], ["--lr", "nan"], ["--lr", "-1"],
        ["--noise", "nan"], ["--noise", "-1"], ["--norm1", "nan"], ["--norm1", "-2"],
        ["--base", "greedy", "--loss", "linear"],
        ["--base", "greedy", "--synthetic", "additive"],
        ["--base", "hedge-pool", "--synthetic", "additive"],
        ["--base", "greedy", "--data", "missing.svm"],
        ["--base", "hedge-pool", "--data", "missing.svm"]])
    def test_bad_float_flag_exits_config_naming_it(self, capsys, tmp_path, argv):
        code, out, err = _run(["run", "--rounds", "300", *argv, "--out-dir", str(tmp_path)],
                              capsys)
        assert code == EXIT_CONFIG
        assert f"config error: {argv[0]} " in err
        assert not list(tmp_path.iterdir())  # rejected before any run

    @pytest.mark.parametrize("p", ["inf", "nan"])
    def test_nonfinite_pnorm_exponent_exits_config(self, capsys, tmp_path, p):
        code, out, err = _run(["run", "--rounds", "50", "--loss", f"p-norm:{p}",
                               "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert err == f"config error: --loss: p_norm requires a finite p >= 2, got {p}\n"
        assert not list(tmp_path.iterdir())  # rejected before any run

    @pytest.mark.parametrize("argv", [
        ["batch-compare", "--magnet-junk", "nan"], ["batch-compare", "--magnet-junk", "inf"],
        ["batch-compare", "--norm1", "-1"], ["batch-compare", "--norm1", "nan"],
        ["batch-compare", "--norm1", "inf"], ["batch-compare", "--step-size", "nan"],
        ["batch-compare", "--step-size", "1.5"], ["batch-compare", "--step-size", "-0.1"],
        ["batch-compare", "--atoms", "0"], ["batch-compare", "--atoms", "2"],
        ["lower-bound", "--scale-c", "0"], ["lower-bound", "--scale-c", "nan"],
        ["lower-bound", "--scale-c", "1.5"], ["lower-bound", "--scale-c", "inf"]])
    def test_bad_subcommand_flag_exits_config_naming_it(self, capsys, tmp_path, argv):
        code, out, err = _run([*argv, "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert f"config error: {argv[1]} " in err
        assert not list(tmp_path.iterdir())  # rejected before any run

    @pytest.mark.parametrize("argv", [
        ["batch-compare", "--atoms", "3", "--step-size", "0", "--norm1", "1e-9",
         "--magnet-junk", "-5"],
        ["batch-compare", "--step-size", "1"], ["lower-bound", "--scale-c", "1"]])
    def test_subcommand_flags_accepted_at_range_edges(self, argv):
        args = build_parser().parse_args(argv)
        names = [k for k in vars(args) if k in _FLAG_RULES]
        _check_flags(args, *names)  # raises on any rejected flag

    def test_grid_child_lr_checked(self, capsys, tmp_path):
        code, out, err = _run(["grid", "--grid-lr", "0.5,nan", "--rounds", "300",
                               "--workers", "1", "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert "--lr" in err

    def test_every_flag_maps_to_config_field(self):
        parser = build_parser()
        args = parser.parse_args(["run"])
        fields = set(RunConfig.__dataclass_fields__)
        flags = {k for k in vars(args) if k != "command"}
        assert flags == fields


class TestRunArtifacts:
    def test_single_stage_hull_equals_bare_learner(self, capsys, tmp_path):
        code, out, err = _run([
            "run", "--algo", "ch", "--stages", "1", "--base", "ogd",
            "--loss", "squared", "--synthetic", "planted", "--rounds", "600",
            "--seed", "3", "--out-dir", str(tmp_path), "--tag", "boosted"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "boosted.json").read_text())

        # bare base learner fed the normalized gradient at zero, by hand
        from ogboost.cli import build_stream
        from ogboost.learners import OnlineGradientLearner
        cfg = RunConfig(synthetic="planted", rounds=600, seed=3, out_dir=str(tmp_path))
        stream, comp, pool = build_stream(cfg)
        lip = stream.loss_class.ball_params(1.0).lipschitz
        bare = OnlineGradientLearner(1.0)
        total = 0.0
        for ex, loss in stream:
            total += loss.evaluate(bare.predict(ex))
            bare.update(ex, loss.gradient(0.0) / lip)
        assert summary["total_loss"] == pytest.approx(total, abs=1e-9)

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    @pytest.mark.parametrize("base", ["stump", "ogd"])
    def test_committee_run_equals_independent_copies(self, capsys, tmp_path, base, scale):
        code, out, err = _run([
            "run", "--algo", "span", "--stages", "5", "--base", base, "--lr", "0.5",
            "--scale", str(scale), "--synthetic", "additive", "--rounds", "400",
            "--seed", "2", "--out-dir", str(tmp_path), "--tag", "committee"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "committee.json").read_text())

        from ogboost import bench, boosting
        from ogboost.cli import _write_run_tsv, build_stream
        from ogboost.learners import OnlineGradientLearner, StumpLearner
        single = {"stump": StumpLearner, "ogd": OnlineGradientLearner}[base]
        cfg = RunConfig(synthetic="additive", rounds=400, seed=2, out_dir=str(tmp_path))
        stream, comp, pool = build_stream(cfg)
        copies = [boosting.scale_wrap(single(1.0, 0.5), scale) for _ in range(5)]
        booster = boosting.SpanBooster(stream.loss_class, copies, None, scale)
        metrics = bench.progressive_validate(stream, booster)
        assert summary["report_loss"] == metrics.report_loss
        _write_run_tsv(tmp_path / "copies.tsv", metrics)
        assert ((tmp_path / "committee.tsv").read_text()
                == (tmp_path / "copies.tsv").read_text())

    def test_auto_eta_echoed(self, capsys, tmp_path):
        code, out, err = _run([
            "run", "--algo", "span", "--stages", "16", "--rounds", "200",
            "--synthetic", "planted", "--out-dir", str(tmp_path), "--tag", "eta"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "eta.json").read_text())
        assert summary["eta"] == pytest.approx(math.log(16) / 16, abs=1e-9)

    def test_rerun_reproduces_tsv(self, capsys, tmp_path):
        argv = ["run", "--algo", "ch", "--stages", "4", "--base", "hedge-pool",
                "--synthetic", "planted-hull", "--rounds", "400", "--seed", "9",
                "--out-dir", str(tmp_path), "--tag", "first"]
        assert main(argv) == 0
        capsys.readouterr()
        summary = json.loads((tmp_path / "first.json").read_text())
        echoed = summary["config"]
        argv2 = ["run", "--algo", echoed["algo"], "--stages", str(echoed["stages"]),
                 "--base", echoed["base"], "--synthetic", echoed["synthetic"],
                 "--rounds", str(echoed["rounds"]), "--seed", str(echoed["seed"]),
                 "--out-dir", str(tmp_path), "--tag", "second"]
        assert main(argv2) == 0
        capsys.readouterr()
        first = (tmp_path / "first.tsv").read_bytes()
        second = (tmp_path / "second.tsv").read_bytes()
        assert first == second

    def test_tsv_columns(self, capsys, tmp_path):
        code, out, err = _run([
            "run", "--algo", "ch", "--stages", "2", "--base", "hedge-pool",
            "--synthetic", "planted-hull", "--rounds", "50", "--seed", "1",
            "--out-dir", str(tmp_path), "--tag", "cols"], capsys)
        assert code == 0
        lines = (tmp_path / "cols.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["round", "test_loss", "cum_loss", "cum_regret"]
        assert len(lines) == 51
        row = lines[1].split("\t")
        assert int(row[0]) == 1
        float(row[1]), float(row[2]), float(row[3])

    def test_assert_bounds_passes_cleanly(self, capsys, tmp_path):
        code, out, err = _run([
            "run", "--algo", "ch", "--stages", "4", "--base", "hedge-pool",
            "--synthetic", "planted-hull", "--rounds", "500", "--seed", "2",
            "--assert-bounds", "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        summary = json.loads(out)
        assert summary["bound"]["passed"] is True

    def test_bound_failure_exit_code(self, capsys, tmp_path, monkeypatch):
        import ogboost.cli as cli_mod

        def tiny_bound(*a, **k):
            return {"total": -1.0}

        monkeypatch.setattr(cli_mod.bench, "hull_regret_bound", tiny_bound)
        code, out, err = _run([
            "run", "--algo", "ch", "--stages", "4", "--base", "hedge-pool",
            "--synthetic", "planted-hull", "--rounds", "300", "--seed", "2",
            "--assert-bounds", "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_BOUNDS

    def test_file_stream_run(self, capsys, tmp_path):
        data = tmp_path / "toy.svm"
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(120):
            x = rng.uniform(-1, 1, 3)
            label = 0.7 * x[0] + 0.1 * rng.standard_normal()
            pairs = " ".join(f"{j + 1}:{v:.5f}" for j, v in enumerate(x) if v != 0)
            rows.append(f"{label:.5f} {pairs}")
        data.write_text("\n".join(rows) + "\n")
        code, out, err = _run([
            "run", "--data", str(data), "--format", "libsvm", "--algo", "span",
            "--stages", "4", "--base", "stump", "--out-dir", str(tmp_path),
            "--tag", "file"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "file.json").read_text())
        assert summary["rounds"] == 120

    @pytest.mark.parametrize("flags, loss_class", [
        (["--loss", "logistic"], LossClass("logistic")),
        (["--label-range", "01"], LossClass("squared", label_range=(0.0, 1.0)))])
    def test_file_run_binds_family_range_and_rounds(self, capsys, tmp_path, flags, loss_class):
        data = tmp_path / "toy.svm"
        rng = np.random.default_rng(1)
        rows = []
        for _ in range(120):
            x = rng.uniform(-1, 1, 3)
            label = 0.7 * x[0] + 0.1 * rng.standard_normal()
            rows.append(f"{label:.5f} " + " ".join(f"{j + 1}:{v:.5f}" for j, v in enumerate(x)))
        data.write_text("\n".join(rows) + "\n")
        code, out, err = _run(["run", "--data", str(data), "--stages", "4", "--base", "stump",
                               "--rounds", "50", *flags, "--out-dir", str(tmp_path),
                               "--tag", "file"], capsys)
        assert code == 0, err

        # the same run through the library, on the file's first 50 rows
        from ogboost import bench, boosting, learners
        from ogboost.cli import _write_run_tsv
        parsed = bench.parse_stream(data, "libsvm", loss_class.label_range)
        stream = bench.Stream(parsed.examples[:50], loss_class)
        booster = boosting.SpanBooster(loss_class, learners.stump_committee(4))
        _write_run_tsv(tmp_path / "library.tsv", bench.progressive_validate(stream, booster))
        cli_tsv = (tmp_path / "file.tsv").read_text()
        assert len(cli_tsv.splitlines()) == 51
        assert cli_tsv == (tmp_path / "library.tsv").read_text()


class TestModeFlags:
    def test_symmetrize_and_scale(self, capsys, tmp_path):
        code, out, err = _run([
            "run", "--algo", "span", "--stages", "3", "--base", "ogd",
            "--symmetrize", "--scale", "2.0", "--synthetic", "planted",
            "--rounds", "200", "--out-dir", str(tmp_path), "--tag", "modes"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "modes.json").read_text())
        assert summary["radius"] == pytest.approx(2.0)  # squared family at D' = 2

    def test_corollary_mode_radius(self, capsys, tmp_path):
        code, out, err = _run([
            "run", "--algo", "span", "--stages", "5", "--base", "ogd",
            "--eta", "0.4", "--corollary-mode", "--synthetic", "planted",
            "--rounds", "100", "--out-dir", str(tmp_path), "--tag", "cor"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "cor.json").read_text())
        assert summary["radius"] == pytest.approx(0.4 * 5)

    def test_greedy_offsets_run(self, capsys, tmp_path):
        code, out, err = _run([
            "run", "--algo", "ch", "--stages", "3", "--base", "greedy",
            "--synthetic", "planted-hull", "--rounds", "200",
            "--out-dir", str(tmp_path), "--tag", "greedy"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "greedy.json").read_text())
        assert summary["rounds"] == 200

    def test_greedy_offsets_follow_corollary_radius(self, capsys, tmp_path):
        # partial sums reach eta*N*D = ln 4 here, beyond the squared loss's default radius 1
        code, out, err = _run([
            "run", "--algo", "span", "--stages", "4", "--base", "greedy", "--corollary-mode",
            "--synthetic", "planted", "--rounds", "200",
            "--out-dir", str(tmp_path), "--tag", "greedy-cor"], capsys)
        assert code == 0, err
        summary = json.loads((tmp_path / "greedy-cor.json").read_text())
        assert summary["radius"] == pytest.approx(math.log(4.0))

    def test_out_dir_env_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("OGBOOST_OUT", str(tmp_path / "envruns"))
        code, out, err = _run([
            "run", "--algo", "ch", "--stages", "1", "--synthetic", "planted",
            "--rounds", "50", "--tag", "env"], capsys)
        assert code == 0
        assert (tmp_path / "envruns" / "env.json").exists()

    def test_missing_file_exits_runtime(self, capsys, tmp_path):
        code, out, err = _run([
            "run", "--data", str(tmp_path / "nope.svm"), "--out-dir", str(tmp_path)],
            capsys)
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["run", "--rounds", "50", "--stages", "2", "--loss", "p-norm:1e9"],
        ["batch-compare", "--stages", "3", "--magnet-junk", "1e200"]])
    def test_float_overflow_exits_runtime(self, capsys, tmp_path, argv):
        code, out, err = _run([*argv, "--out-dir", str(tmp_path)], capsys)
        if argv[0] == "run":  # the loss family's ball constants overflow: a config error
            assert code == EXIT_CONFIG
            assert err.startswith("config error: --loss p-norm:1e9: ") and "radius 1" in err
            assert err.count("\n") == 1 and not list(tmp_path.iterdir())
        else:
            assert code == 3
            assert err.startswith("error: OverflowError: ") and err.count("\n") == 1

    def test_greedy_ball_overflow_is_config_error(self, capsys, tmp_path):
        # 700 * 2**699 fits a float on the booster's ball of radius 1; 3**699 on the
        # greedy adapter's ball of radius 2 does not
        code, out, err = _run(["run", "--algo", "ch", "--base", "greedy", "--stages", "2",
                               "--loss", "p-norm:700", "--rounds", "50",
                               "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("config error: --loss p-norm:700: ") and "radius 2" in err
        assert not list(tmp_path.iterdir())


class TestRunFlagCombinations:
    @pytest.mark.parametrize("loss", ["squared", "logistic", "mls", "p-norm:3", "linear"])
    @pytest.mark.parametrize("corollary", [False, True])
    @pytest.mark.parametrize("base", ["ogd", "stump", "hedge-pool", "greedy"])
    @pytest.mark.parametrize("algo", ["span", "ch"])
    def test_runs_or_rejects_config(self, capsys, tmp_path, algo, base, corollary, loss):
        for symmetrize in (False, True):
            for scale in ("1", "2"):
                argv = ["run", "--algo", algo, "--base", base, "--loss", loss, "--stages", "4",
                        "--rounds", "200", "--scale", scale, "--out-dir", str(tmp_path)]
                argv += ["--corollary-mode"] * corollary + ["--symmetrize"] * symmetrize
                code, out, err = _run(argv, capsys)
                rejected = ((symmetrize and base in ("hedge-pool", "greedy"))
                            or (base == "greedy" and (scale == "2" or loss == "linear"))
                            or (algo == "ch" and corollary))
                assert code == (EXIT_CONFIG if rejected else 0), (argv, err)
                if algo == "ch" and corollary:
                    assert "--corollary-mode" in err and "--algo ch" in err, err


class TestBatchCompare:
    def test_tsv_bound_columns_recompute(self, capsys, tmp_path):
        code, out, err = _run([
            "batch-compare", "--stages", "30", "--out-dir", str(tmp_path),
            "--tag", "bc"], capsys)
        assert code == 0
        from ogboost.batch import make_planted_batch_problem, run_batch
        obj, dic, comp, W = make_planted_batch_problem(seed=35, magnet_junk=1.45)
        tr_u = run_batch(obj, dic, comp, W, [0.1] * 30, "ungated")
        tr_g = run_batch(obj, dic, comp, W, [0.1] * 30, "gated")
        lines = (tmp_path / "bc.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        assert header == ["stage", "s", "delta_ungated", "bound_ungated",
                          "delta_gated", "bound_gated"]
        for i, line in enumerate(lines[1:]):
            row = [float(v) for v in line.split("\t")]
            assert row[2] == pytest.approx(tr_u.deltas[i], rel=1e-9)
            assert row[3] == pytest.approx(tr_u.bound[i], rel=1e-9)
            assert row[4] == pytest.approx(tr_g.deltas[i], rel=1e-9)
            assert row[5] == pytest.approx(tr_g.bound[i], rel=1e-9)


    def test_zero_stages_is_config_error(self, capsys, tmp_path):
        code, out, err = _run(["batch-compare", "--stages", "0", "--out-dir", str(tmp_path)],
                              capsys)
        assert code == EXIT_CONFIG
        assert "--stages" in err
        assert not list(tmp_path.iterdir())


class TestLowerBound:
    @pytest.mark.parametrize("flag", ["--seeds", "--stages"])
    def test_zero_count_is_config_error(self, capsys, tmp_path, flag):
        code, out, err = _run(["lower-bound", flag, "0", "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert flag in err

    @pytest.mark.parametrize("argv, limit", [
        (["--rounds", "0"], 2400), (["--rounds", "-1"], 2400), (["--rounds", "2399"], 2400),
        # 3 / 0.07 = 42.86 rounds to a pool of M = 43, as make_lower_bound_pool rounds it
        (["--stages", "3", "--scale-c", "0.07", "--rounds", "515"], 516)])
    def test_rounds_below_12m_is_config_error_before_any_seed(self, capsys, tmp_path,
                                                              monkeypatch, argv, limit):
        import ogboost.cli as cli

        def no_seed_runs(*args):
            raise AssertionError("a seed ran before --rounds was checked")

        monkeypatch.setattr(cli, "lower_bound_once", no_seed_runs)
        code, out, err = _run(["lower-bound", *argv, "--seeds", "1", "--out-dir", str(tmp_path)],
                              capsys)
        assert code == EXIT_CONFIG
        assert f"config error: --rounds must be >= 12*M = {limit} " in err
        assert not list(tmp_path.iterdir())

    def test_rounds_at_12m_runs(self, capsys, tmp_path):
        code, out, err = _run(["lower-bound", "--stages", "3", "--scale-c", "0.07",
                               "--rounds", "516", "--seeds", "1", "--out-dir", str(tmp_path),
                               "--tag", "lb"], capsys)
        assert code == 0
        assert json.loads((tmp_path / "lb.json").read_text())["config"]["rounds"] == 516

    def test_run_deterministic_per_seed(self):
        # sample-mode Hedge draws from a generator seeded by the run's seed
        assert lower_bound_once(2, 5, 1 / 50, None) == lower_bound_once(2, 5, 1 / 50, None)

    def test_reference_lines_emitted(self, capsys, tmp_path):
        code, out, err = _run([
            "lower-bound", "--stages", "2", "--seeds", "2",
            "--out-dir", str(tmp_path), "--tag", "lb"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "lb.json").read_text())
        t = summary["config"]["rounds"]
        assert summary["floor_reference_cT_over_N"] == pytest.approx((1 / 50) * t / 2)
        assert summary["floor_accept_005T_over_N"] == pytest.approx(0.05 * t / 2)
        assert len(summary["regrets"]) == 2


class TestGrid:
    def test_two_by_two_selection(self, capsys, tmp_path):
        code, out, err = _run([
            "grid", "--grid-lr", "0.5,1.0", "--grid-stages", "3,6",
            "--rounds", "400", "--workers", "1", "--out-dir", str(tmp_path),
            "--tag", "grid"], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "grid.json").read_text())
        assert len(summary["children"]) == 4
        assert "ties to smaller learning rate" in summary["selection_rule"]
        best = min(summary["children"], key=lambda r: (r["tune_loss"], r["lr"]))
        assert summary["chosen"] == best

    @pytest.mark.parametrize("split", ["0", "0.001"])
    def test_empty_tuning_half_is_config_error_before_any_child(self, capsys, tmp_path,
                                                                monkeypatch, split):
        # int(split * 300) = 0 tuning rounds: every tune_loss would be NaN
        import ogboost.cli as cli

        def no_child_runs(*args):
            raise AssertionError("a child ran before --split was checked")

        monkeypatch.setattr(cli, "_grid_child", no_child_runs)
        code, out, err = _run(["grid", "--split", split, "--rounds", "300", "--grid-lr",
                               "1.0,0.5", "--grid-stages", "5", "--workers", "1",
                               "--out-dir", str(tmp_path)], capsys)
        assert code == EXIT_CONFIG
        assert f"config error: --split {float(split)} leaves no tuning round" in err
        assert not list(tmp_path.iterdir())
