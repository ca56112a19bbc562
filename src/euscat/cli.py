"""Command-line interface: one subcommand per reproduction experiment.

Each command reads a RunConfig (defaults, optional config file, ES_
environment overrides, flags), runs the computation, and writes plot-ready
CSV tables into the output directory plus a one-line summary on stdout.
Floats are written in scientific notation with 17 significant digits, so
single-threaded reruns with the same configuration are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical precondition or
accuracy failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .chebyshev import expansion_coefficients, uniform_error_report
from .config import RunConfig, resolve_config
from .errors import AccuracyError, ConfigError, DomainError, PreconditionError
from .euclidean_gf import (
    CovarianceKernel,
    cluster_check,
    cluster_probe_pair,
    dispersion_scan,
    physical_gram,
    random_test_functions,
)
from .kato_birman import (
    KBConfig,
    beta_for,
    extract_sharp_t,
    make_packet,
    packet_grid_spec,
    sweep_n,
)
from .spectral import build_grid

WARN_THRESHOLD = 1e-3


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def cmd_cheb_table(cfg: RunConfig, out_dir: Path) -> None:
    """Error table of the polynomial phase approximation, plus dense maximum."""
    expansion = expansion_coefficients(cfg.cheb_oscillation, cfg.cheb_degree)
    report = uniform_error_report(expansion, sample_count=cfg.cheb_samples)
    dense = max(report.dense_max_cos, report.dense_max_sin)
    path = out_dir / "cheb_table.csv"
    rows = list(report.rows)
    rows.append(("dense_max", report.dense_max_cos, report.dense_max_sin))
    _write_csv(path, ("x", "delta_cos", "delta_sin"), rows)
    if dense > WARN_THRESHOLD:
        print(
            f"WARN: dense-grid max error {dense:.3e} exceeds {WARN_THRESHOLD:.1e}; "
            f"raise cheb.degree above {cfg.cheb_degree}",
            file=sys.stderr,
        )
    print(
        f"cheb-table: wrote {path} ({len(report.rows)} sample rows, "
        f"dense max {dense:.3e})"
    )


def cmd_kb_sweep(cfg: RunConfig, out_dir: Path) -> None:
    """S-matrix overlap versus n at fixed packet, against the sharp value.

    The reference column holds S at the packet center momentum, so the
    plateau of rel_err shows the packet-width bias: narrowing the packet
    (kb.sigma_mev) lowers it.
    """
    model = cfg.model()
    k0 = cfg.kb_k0_mev
    sigma = cfg.kb_sigma_mev if cfg.kb_sigma_mev is not None else k0 / 10.0
    kb_cfg = KBConfig(beta=cfg.kb_beta)
    spec = packet_grid_spec(
        k0, sigma, cfg.kb_n_max, cfg.kb_beta, k_max=cfg.grid_k_max_mev, mass=model.mass
    )
    grid = build_grid(spec)
    packet = make_packet(k0, sigma, grid, mass=model.mass)
    n_values = list(range(cfg.kb_n_min, cfg.kb_n_max + 1, cfg.kb_n_step))
    rows = sweep_n(model, kb_cfg, n_values, packet, packet, reference="sharp")
    path = out_dir / "kb_sweep.csv"
    _write_csv(
        path,
        ("n", "re_approx", "im_approx", "re_exact", "im_exact", "rel_err"),
        rows,
    )
    print(
        f"kb-sweep: wrote {path} ({len(rows)} rows, k0 = {k0:g}, sigma = {sigma:g}, "
        f"final rel err {rows[-1].rel_err:.3e})"
    )


def cmd_t_scan(cfg: RunConfig, out_dir: Path) -> None:
    """Sharp amplitude extraction on a log-spaced momentum scan."""
    model = cfg.model()
    momenta = np.geomspace(cfg.scan_k_min_mev, cfg.scan_k_max_mev, cfg.scan_points)
    rows = []
    for k in momenta:
        k = float(k)
        sigma = k * cfg.scan_sigma_factor
        beta = beta_for(k, model.mass, cfg.scan_beta_x)
        spec = packet_grid_spec(
            k, sigma, cfg.scan_n, beta, k_max=cfg.grid_k_max_mev, mass=model.mass
        )
        kb_cfg = KBConfig(
            n=cfg.scan_n, beta=None, beta_x=cfg.scan_beta_x, sigma=sigma, grid=spec
        )
        est = extract_sharp_t(model, kb_cfg, k)
        rows.append(
            (
                k,
                est.t_approx.real,
                est.t_approx.imag,
                est.t_exact.real,
                est.t_exact.imag,
                est.rel_err_t,
            )
        )
    path = out_dir / "t_scan.csv"
    _write_csv(
        path,
        ("k", "re_t_approx", "im_t_approx", "re_t_exact", "im_t_exact", "rel_err"),
        rows,
    )
    errors = np.array([row[5] for row in rows])
    print(
        f"t-scan: wrote {path} ({len(rows)} points, "
        f"median rel err {float(np.median(errors)):.3e}, "
        f"max {float(np.max(errors)):.3e})"
    )


def cmd_gf_report(cfg: RunConfig, out_dir: Path) -> None:
    """Gram spectrum, dispersion scan, and cluster decay of the lattice-free
    Euclidean construction, one CSV each."""
    kernel = CovarianceKernel(cfg.gf_mass_mev)
    # first, so that a momentum the probe cannot resolve fails before the Gram
    disp_rows = dispersion_scan(kernel, cfg.momenta())
    rng = np.random.default_rng(cfg.seed)

    functions = random_test_functions(kernel, rng, cfg.gf_gram_size)
    gram = physical_gram(kernel, functions)
    eigenvalues = np.linalg.eigvalsh(gram)
    gram_path = out_dir / "gf_gram.csv"
    gram_rows = [(i, float(v)) for i, v in enumerate(eigenvalues)]
    gram_rows.append(("min_over_max", float(eigenvalues[0] / eigenvalues[-1])))
    _write_csv(gram_path, ("index", "eigenvalue"), gram_rows)

    disp_path = out_dir / "gf_dispersion.csv"
    _write_csv(
        disp_path,
        (
            "p",
            "energy",
            "energy_exact",
            "energy_rel_err",
            "mass_sq",
            "mass_sq_rel_err",
        ),
        disp_rows,
    )

    probe_f, probe_g = cluster_probe_pair(kernel)
    mass = cfg.gf_mass_mev
    distances = np.linspace(2.0 / mass, 8.0 / mass, cfg.gf_cluster_points)
    cluster = cluster_check(kernel, probe_f, probe_g, distances)
    cluster_path = out_dir / "gf_cluster.csv"
    cluster_rows = list(zip(cluster.distances, cluster.deviations))
    cluster_rows.append(("fitted_rate", cluster.fitted_rate))
    _write_csv(cluster_path, ("distance", "deviation"), cluster_rows)

    max_energy_err = max(row.energy_rel_err for row in disp_rows)
    rate_err = abs(cluster.fitted_rate - mass) / mass
    print(
        f"gf-report: wrote {gram_path}, {disp_path}, {cluster_path} "
        f"(min/max Gram eig {eigenvalues[0]:.3e}/{eigenvalues[-1]:.3e}, "
        f"max dispersion rel err {max_energy_err:.3e}, "
        f"cluster rate {cluster.fitted_rate:.6g} vs mass {mass:g}, "
        f"off by {rate_err:.2%})"
    )


_COMMANDS = {
    "cheb-table": (cmd_cheb_table, "polynomial phase-approximation error table"),
    "kb-sweep": (cmd_kb_sweep, "S-matrix overlap convergence sweep in n"),
    "t-scan": (cmd_t_scan, "sharp amplitude extraction over a momentum scan"),
    "gf-report": (cmd_gf_report, "Gram spectrum, dispersion, and cluster-decay tables"),
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--seed", metavar="S", type=int, help="random seed")
    parser = argparse.ArgumentParser(
        prog="euscat",
        description="Scattering and Euclidean-reconstruction experiments, as CSV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    flags = {}
    if args.out is not None:
        flags["out"] = args.out
    if args.seed is not None:
        flags["seed"] = str(args.seed)
    try:
        cfg = resolve_config(args.config, os.environ, flags)
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command][0](cfg, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError, AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0
