"""Tests for the config layer and the command-line entry point.

Commands run in-process through cli.main so each case stays fast; scan and
sweep sizes are cut down from the defaults wherever the point under test is
plumbing rather than numerical quality.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import euscat
from euscat.cli import main
from euscat.config import (
    RunConfig,
    build_config,
    config_keys,
    env_name,
    parse_config_text,
    resolve_config,
)
from euscat.errors import ConfigError


@pytest.fixture(autouse=True)
def clean_es_environment(monkeypatch):
    for var in [v for v in os.environ if v.startswith("ES_")]:
        monkeypatch.delenv(var)


def read_csv(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def write_config(tmp_path: Path, text: str) -> str:
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.model_mass_mev == 938.9
        assert cfg.model_coupling is None
        assert cfg.kb_sigma_mev is None
        assert cfg.momenta() == (0.0, 100.0, 300.0, 500.0, 800.0)
        assert cfg.out == "out"

    def test_key_names_are_dotted_by_section(self):
        keys = config_keys()
        assert "model.mpi_mev" in keys
        assert "kb.sigma_mev" in keys
        assert "scan.sigma_factor" in keys
        assert "gf.momenta_mev" in keys
        assert "out" in keys
        assert "seed" in keys

    def test_env_names(self):
        assert env_name("model.mpi_mev") == "ES_MODEL_MPI_MEV"
        assert env_name("out") == "ES_OUT"

    def test_text_parsing_skips_comments_and_blanks(self):
        values = parse_config_text("# comment\n\nmodel.mpi_mev = 120\nseed=7\n")
        assert values == {"model.mpi_mev": "120", "seed": "7"}

    def test_text_parsing_rejects_missing_equals(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config_text("model.mpi_mev 120\n", source="line")

    def test_text_parsing_rejects_duplicates(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed=1\nseed=2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"model.bogus": "1"})

    def test_type_errors_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            build_config({"cheb.degree": "abc"})
        with pytest.raises(ConfigError, match="number"):
            build_config({"model.mass_mev": "heavy"})

    def test_explicit_zero_coupling_wins_over_binding_target(self):
        cfg = build_config({"model.coupling": "0"})
        assert cfg.model_coupling == 0.0
        assert cfg.model().coupling == 0.0

    def test_default_coupling_comes_from_binding_target(self):
        model = RunConfig().model()
        assert model.coupling == pytest.approx(6430.562874127651, rel=1e-12)

    def test_momenta_parsing(self):
        cfg = build_config({"gf.momenta_mev": " 0, 150,  450 "})
        assert cfg.momenta() == (0.0, 150.0, 450.0)
        with pytest.raises(ConfigError, match="comma-separated"):
            build_config({"gf.momenta_mev": "0;100"})
        with pytest.raises(ConfigError, match="at least one"):
            build_config({"gf.momenta_mev": " , "})
        with pytest.raises(ConfigError, match=">= 0"):
            build_config({"gf.momenta_mev": "-100"})

    @pytest.mark.parametrize(
        "key,value",
        [
            ("model.mass_mev", "-1"),
            ("model.mpi_mev", "0"),
            ("grid.k_max_mev", "0"),
            ("cheb.degree", "-1"),
            ("cheb.samples", "1"),
            ("kb.k0_mev", "0"),
            ("kb.sigma_mev", "-5"),
            ("kb.sigma_mev", "inf"),
            ("kb.beta", "0"),
            ("kb.n_step", "0"),
            ("scan.points", "1"),
            ("scan.n", "0"),
            ("scan.sigma_factor", "0"),
            ("gf.gram_size", "0"),
            ("gf.cluster_points", "2"),
            ("seed", "-1"),
            ("model.coupling", "nan"),
            ("model.coupling", "inf"),
            ("model.binding_mev", "1"),
            ("model.binding_mev", "0"),
            ("model.binding_mev", "-inf"),
            ("cheb.oscillation", "nan"),
        ],
    )
    def test_range_validation(self, key, value):
        with pytest.raises(ConfigError):
            build_config({key: value})

    def test_threads_is_refused(self, capsys):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_config({"threads": "1"})
        assert main(["cheb-table", "--threads", "1"]) == 2
        capsys.readouterr()

    def test_n_range_must_be_ordered(self):
        with pytest.raises(ConfigError, match="n_min"):
            build_config({"kb.n_min": "200", "kb.n_max": "100"})

    def test_scan_interval_must_be_ordered(self):
        with pytest.raises(ConfigError, match="k_min"):
            build_config({"scan.k_min_mev": "500", "scan.k_max_mev": "300"})

    def test_precedence_file_env_flags(self, tmp_path):
        path = write_config(tmp_path, "seed=1\nout=from_file\n")
        cfg = resolve_config(path, env={}, flag_overrides={})
        assert (cfg.seed, cfg.out) == (1, "from_file")
        cfg = resolve_config(path, env={"ES_OUT": "from_env", "ES_SEED": "2"})
        assert (cfg.seed, cfg.out) == (2, "from_env")
        cfg = resolve_config(
            path,
            env={"ES_OUT": "from_env", "ES_SEED": "2"},
            flag_overrides={"out": "from_flag"},
        )
        assert (cfg.seed, cfg.out) == (2, "from_flag")

    def test_missing_config_file_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            resolve_config("/nonexistent/run.cfg")


class TestEntryPoint:
    def test_requires_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("var", ["ES_KB_SIGMA_MEV", "ES_KB_BETA"])
    def test_non_finite_packet_setting_exits_two(self, var, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(var, "inf")
        assert main(["kb-sweep", "--out", str(tmp_path)]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "cheb-table" in capsys.readouterr().out

    def test_bad_flag_value(self, capsys):
        assert main(["cheb-table", "--seed", "abc"]) == 2
        capsys.readouterr()

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "model.bogus=1\n")
        assert main(["cheb-table", "--config", path, "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_exits_two(self, tmp_path, capsys):
        missing = str(tmp_path / "none.cfg")
        assert main(["cheb-table", "--config", missing, "--out", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_output_exits_four(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert main(["cheb-table", "--out", str(blocker / "sub")]) == 4
        capsys.readouterr()

    def test_precondition_failure_exits_three(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "kb.sigma_mev=400\nkb.n_min=10\nkb.n_max=10\n",
        )
        assert main(["kb-sweep", "--config", path, "--out", str(tmp_path)]) == 3
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "beta, message",
        [
            # e^{-beta E_0} itself overflows
            ("0.05", "E_0="),
            # e^{-beta E_0} = e^400 is finite, the Chebyshev degree is not usable
            ("0.02", "degree estimate"),
        ],
    )
    def test_overflowing_semigroup_bound_exits_three(
        self, tmp_path, capsys, beta, message
    ):
        path = write_config(
            tmp_path,
            f"model.binding_mev=-20000\nkb.beta={beta}\n"
            "kb.n_min=10\nkb.n_max=20\nkb.n_step=10\n",
        )
        assert main(["kb-sweep", "--config", path, "--out", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "kb_sweep.csv").exists()

    def test_seed_whose_gram_overflowed_exits_zero(self, tmp_path, capsys):
        # seed 1067 draws a test function whose Gram diagonal exponent, 743,
        # passed log(float max) before random draws were held to a bound
        assert main(["gf-report", "--seed", "1067", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        _, rows = read_csv(tmp_path / "gf_gram.csv")
        eigs = np.array([float(row[1]) for row in rows[:-1]])
        assert np.all(np.isfinite(eigs)) and eigs.min() >= -1e-10 * eigs.max()

    def test_degree_beyond_the_limit_exits_three(self, tmp_path, capsys):
        path = write_config(tmp_path, "cheb.degree=1000001\n")
        assert main(["cheb-table", "--config", path, "--out", str(tmp_path)]) == 3
        assert "degree 1000001 exceeds the limit 1000000" in capsys.readouterr().err
        assert not (tmp_path / "cheb_table.csv").exists()

    def test_momentum_beyond_the_dispersion_probe_exits_three(self, tmp_path, capsys):
        path = write_config(tmp_path, "gf.momenta_mev=0,2000\n")
        assert main(["gf-report", "--config", path, "--out", str(tmp_path)]) == 3
        assert "beyond the dispersion probe" in capsys.readouterr().err
        assert not (tmp_path / "gf_gram.csv").exists()

    @pytest.mark.parametrize(
        "command, key, message",
        [("t-scan", "scan.k_min_mev", "underflows"), ("gf-report", "gf.mass_mev", "square")],
    )
    def test_scale_whose_square_underflows_exits_three(
        self, tmp_path, capsys, command, key, message
    ):
        # both exited 1 with a ZeroDivisionError traceback
        path = write_config(tmp_path, f"{key}=1e-200\n")
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 3
        assert message in capsys.readouterr().err

    def test_flag_overrides_env(self, tmp_path, monkeypatch, capsys):
        env_dir = tmp_path / "env_dir"
        flag_dir = tmp_path / "flag_dir"
        monkeypatch.setenv("ES_OUT", str(env_dir))
        assert main(["cheb-table", "--out", str(flag_dir)]) == 0
        assert (flag_dir / "cheb_table.csv").exists()
        assert not env_dir.exists()
        capsys.readouterr()


class TestChebTable:
    def test_default_table(self, tmp_path, capsys):
        assert main(["cheb-table", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "WARN" not in captured.err
        header, rows = read_csv(tmp_path / "cheb_table.csv")
        assert header == ["x", "delta_cos", "delta_sin"]
        assert len(rows) == 12
        assert rows[-1][0] == "dense_max"
        for row in rows[:-1]:
            assert float(row[1]) <= 1e-12
            assert float(row[2]) <= 1e-12
        assert max(float(rows[-1][1]), float(rows[-1][2])) < 1e-12

    def test_low_degree_warns_but_succeeds(self, tmp_path, capsys):
        path = write_config(tmp_path, "cheb.degree=100\n")
        assert main(["cheb-table", "--config", path, "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "WARN" in captured.err
        _, rows = read_csv(tmp_path / "cheb_table.csv")
        assert max(float(rows[-1][1]), float(rows[-1][2])) > 1e-3

    def test_sample_count_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ES_CHEB_SAMPLES", "5")
        assert main(["cheb-table", "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "cheb_table.csv")
        assert len(rows) == 6
        capsys.readouterr()

    def test_zero_oscillation_is_exact(self, tmp_path, capsys):
        path = write_config(tmp_path, "cheb.oscillation=0\ncheb.degree=8\n")
        assert main(["cheb-table", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "cheb_table.csv")
        for row in rows:
            assert float(row[1]) < 1e-14
            assert float(row[2]) < 1e-14
        capsys.readouterr()


class TestKbSweep:
    def test_small_sweep(self, tmp_path, capsys):
        path = write_config(tmp_path, "kb.n_min=50\nkb.n_max=100\nkb.n_step=50\n")
        assert main(["kb-sweep", "--config", path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "kb_sweep.csv")
        assert header == ["n", "re_approx", "im_approx", "re_exact", "im_exact", "rel_err"]
        assert [int(r[0]) for r in rows] == [50, 100]
        for row in rows:
            assert float(row[5]) < 1e-2
        # identical sharp reference on every row
        assert len({(r[3], r[4]) for r in rows}) == 1
        capsys.readouterr()

    def test_default_sweep_is_one_pass_of_200_steps_and_3484_applications(
        self, tmp_path, apply_widths, monkeypatch, capsys
    ):
        # n = 10..300 in steps of 10: every n shares the 200 steps of n = 300,
        # and the series of each n joins the pass at its own degree
        degrees = []
        converged = euscat.kato_birman.converged_expansion

        def recording(*args, **kwargs):
            expansion = converged(*args, **kwargs)
            degrees.append(expansion.degree)
            return expansion

        monkeypatch.setattr(euscat.kato_birman, "converged_expansion", recording)
        assert main(["kb-sweep", "--out", str(tmp_path)]) == 0
        assert len(degrees) == 30
        assert len(apply_widths) == max(degrees) + 1 == 200
        assert apply_widths == [sum(d >= j for d in degrees) for j in range(199, -1, -1)]
        assert sum(apply_widths) == sum(d + 1 for d in degrees) == 3484
        capsys.readouterr()

    def test_zero_coupling_error_is_noise(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "model.coupling=0\nkb.n_min=50\nkb.n_max=100\nkb.n_step=50\n",
        )
        assert main(["kb-sweep", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "kb_sweep.csv")
        for row in rows:
            assert float(row[5]) < 1e-12
        capsys.readouterr()

    def test_halving_sigma_lowers_plateau(self, tmp_path, capsys):
        plateaus = {}
        for sigma in (100.0, 50.0):
            out = tmp_path / f"s{sigma:.0f}"
            path = write_config(
                tmp_path,
                f"kb.sigma_mev={sigma}\nkb.n_min=280\nkb.n_max=280\n",
            )
            assert main(["kb-sweep", "--config", path, "--out", str(out)]) == 0
            _, rows = read_csv(out / "kb_sweep.csv")
            plateaus[sigma] = float(rows[-1][5])
        assert plateaus[50.0] < plateaus[100.0] / 2.0
        capsys.readouterr()


class TestTScan:
    def test_small_scan(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "scan.points=3\nscan.k_min_mev=200\nscan.k_max_mev=800\nscan.n=150\n",
        )
        assert main(["t-scan", "--config", path, "--out", str(tmp_path)]) == 0
        header, rows = read_csv(tmp_path / "t_scan.csv")
        assert header == [
            "k",
            "re_t_approx",
            "im_t_approx",
            "re_t_exact",
            "im_t_exact",
            "rel_err",
        ]
        assert len(rows) == 3
        assert float(rows[0][0]) == pytest.approx(200.0)
        assert float(rows[-1][0]) == pytest.approx(800.0)
        for row in rows:
            assert float(row[5]) < 2e-2
        capsys.readouterr()

    def test_zero_coupling_amplitude_is_noise(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "model.coupling=0\nscan.points=2\nscan.k_min_mev=300\n"
            "scan.k_max_mev=600\nscan.n=100\n",
        )
        assert main(["t-scan", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "t_scan.csv")
        for row in rows:
            for cell in row[1:]:
                assert abs(float(cell)) < 1e-12
        capsys.readouterr()

    def test_no_bound_state_scan_completes(self, tmp_path, capsys):
        # couplings on both sides of critical: 6430 binds, 2000 does not
        path = write_config(
            tmp_path,
            "model.coupling=2000\nscan.points=2\nscan.k_min_mev=300\n"
            "scan.k_max_mev=600\nscan.n=150\n",
        )
        assert main(["t-scan", "--config", path, "--out", str(tmp_path)]) == 0
        _, rows = read_csv(tmp_path / "t_scan.csv")
        for row in rows:
            assert float(row[5]) < 2e-2
        capsys.readouterr()


class TestReferenceOutputs:
    """The default ``t-scan``, ``kb-sweep`` and ``gf-report`` against the CSVs
    in ``tests/data``, written by an earlier commit; a change that moves these
    outputs on purpose rewrites those files.

    In the scattering tables each (re, im) pair is one complex value z, held
    to |dz| <= 1e-10 |z|.
    ``rel_err`` is itself a ratio to the exact value, so a 1e-10 relative move
    of the approximation moves it by at most 1e-10 (1 + rel_err).  ``k`` and
    ``n`` must match exactly.
    """

    @pytest.mark.parametrize("command", ["t-scan", "kb-sweep"])
    def test_default_output_matches_the_reference(self, command, tmp_path, capsys):
        name = command.replace("-", "_") + ".csv"
        assert main([command, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        header, rows = read_csv(tmp_path / name)
        ref_header, ref_rows = read_csv(Path(__file__).parent / "data" / name)
        assert header == ref_header and len(rows) == len(ref_rows)
        assert [h[:3] for h in header[1:5]] == ["re_", "im_", "re_", "im_"]
        new, ref = np.array(rows, dtype=float), np.array(ref_rows, dtype=float)
        assert np.array_equal(new[:, 0], ref[:, 0])
        for re in (1, 3):
            z_new = new[:, re] + 1j * new[:, re + 1]
            z_ref = ref[:, re] + 1j * ref[:, re + 1]
            assert np.all(np.abs(z_new - z_ref) <= 1e-10 * np.abs(z_ref))
        assert header[5] == "rel_err"
        assert np.all(np.abs(new[:, 5] - ref[:, 5]) <= 1e-10 * (1.0 + ref[:, 5]))

    def test_default_gf_report_matches_the_reference(self, tmp_path, capsys):
        # the bounds are ten times or more the drift when the covariance
        # quadrature's base resolution goes from 40 to 80 and 160 points:
        # 2.2e-16 of the largest Gram eigenvalue, 3.1e-14 in the energies,
        # 4.5e-11 in M^2, 4.8e-11 in the cluster deviations and 2.6e-11 in
        # their fitted rate; the first column (labels, p, distances) is exact
        assert main(["gf-report", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        tables = {}
        for name in ("gf_gram.csv", "gf_dispersion.csv", "gf_cluster.csv"):
            header, rows = read_csv(tmp_path / name)
            ref_header, ref_rows = read_csv(Path(__file__).parent / "data" / name)
            assert header == ref_header
            assert [row[0] for row in rows] == [row[0] for row in ref_rows]
            tables[name] = (
                np.array([row[1:] for row in rows], dtype=float),
                np.array([row[1:] for row in ref_rows], dtype=float),
            )
        # eigenvalues and their min/max ratio, whose smallest is rounding
        new, ref = tables["gf_gram.csv"]
        assert np.all(np.abs(new - ref) <= 1e-12 * np.max(np.abs(ref)))
        # energy, energy_exact, energy_rel_err, mass_sq, mass_sq_rel_err
        new, ref = tables["gf_dispersion.csv"]
        assert np.array_equal(new[:, 1], ref[:, 1])
        for value, error, tol in ((0, 2, 1e-12), (3, 4, 1e-9)):
            assert np.all(np.abs(new[:, value] - ref[:, value]) <= tol * ref[:, value])
            assert np.all(np.abs(new[:, error] - ref[:, error]) <= tol * (1.0 + ref[:, error]))
        # deviations, then the fitted rate
        new, ref = tables["gf_cluster.csv"]
        assert np.all(np.abs(new - ref) <= 1e-9 * np.abs(ref))


GF_SMALL = "gf.gram_size=3\ngf.momenta_mev=0,300\ngf.cluster_points=5\n"


class TestGfReport:
    def test_report_contents(self, tmp_path, capsys):
        path = write_config(tmp_path, GF_SMALL)
        assert main(["gf-report", "--config", path, "--out", str(tmp_path)]) == 0
        capsys.readouterr()

        header, rows = read_csv(tmp_path / "gf_gram.csv")
        assert header == ["index", "eigenvalue"]
        eigs = [float(r[1]) for r in rows[:-1]]
        assert len(eigs) == 3
        assert rows[-1][0] == "min_over_max"
        assert min(eigs) >= -1e-10 * max(eigs)

        header, rows = read_csv(tmp_path / "gf_dispersion.csv")
        assert header == [
            "p",
            "energy",
            "energy_exact",
            "energy_rel_err",
            "mass_sq",
            "mass_sq_rel_err",
        ]
        assert [float(r[0]) for r in rows] == [0.0, 300.0]
        for row in rows:
            assert float(row[3]) < 1e-3
            assert float(row[5]) < 5e-3

        header, rows = read_csv(tmp_path / "gf_cluster.csv")
        assert header == ["distance", "deviation"]
        assert rows[-1][0] == "fitted_rate"
        rate = float(rows[-1][1])
        assert abs(rate - 139.0) / 139.0 < 0.10
        deviations = [float(r[1]) for r in rows[:-1]]
        assert deviations == sorted(deviations, reverse=True)

    def test_deterministic_and_seed_sensitive(self, tmp_path, capsys):
        path = write_config(tmp_path, GF_SMALL)
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for out, seed in zip(outs, ("7", "7", "8")):
            args = ["gf-report", "--config", path, "--out", str(out), "--seed", seed]
            assert main(args) == 0
        for name in ("gf_gram.csv", "gf_dispersion.csv", "gf_cluster.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert (outs[0] / "gf_gram.csv").read_bytes() != (
            outs[2] / "gf_gram.csv"
        ).read_bytes()
        # the dispersion scan draws nothing from the seed
        assert (outs[0] / "gf_dispersion.csv").read_bytes() == (
            outs[2] / "gf_dispersion.csv"
        ).read_bytes()
        capsys.readouterr()


class TestModuleExecution:
    def test_python_dash_m_runs(self, tmp_path):
        # the child does not inherit pytest's sys.path, so hand it the
        # directory that holds the package under test
        source = str(Path(euscat.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "euscat", "cheb-table", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": source},
        )
        assert result.returncode == 0
        assert "cheb-table: wrote" in result.stdout


class TestChebyshevDegreeBudget:
    """The summed Chebyshev degree of the default runs, i.e. their number of
    semigroup applications, the paper's cost unit (a count, not a timing)."""

    @pytest.mark.parametrize("command,budget", [("t-scan", 7400), ("kb-sweep", 6100)])
    def test_default_run_degree_sum(self, command, budget, tmp_path, monkeypatch, capsys):
        degrees = []
        converged = euscat.kato_birman.converged_expansion

        def counting(*args, **kwargs):
            expansion = converged(*args, **kwargs)
            degrees.append(expansion.degree)
            return expansion

        monkeypatch.setattr(euscat.kato_birman, "converged_expansion", counting)
        assert main([command, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert degrees and sum(degrees) <= budget
