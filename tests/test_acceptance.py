"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance and runtime
budget, each emitting a single PASS/FAIL line that survives pytest's output
capture.  Tolerances here are contractual: loosening them is a behavior
change, not a test fix.
"""

import os
import time

import numpy as np

from euscat.chebyshev import expansion_coefficients, uniform_error_report
from euscat.cli import main
from euscat.euclidean_gf import (
    CovarianceKernel,
    WaveFunctional,
    cluster_check,
    cluster_probe_pair,
    dispersion_scan,
    physical_gram,
    physical_inner,
    random_test_functions,
    time_translate,
)
from euscat.kato_birman import (
    KBConfig,
    extract_sharp_t,
    kb_s_overlap,
    make_packet,
    packet_grid_spec,
    sweep_n,
    time_limit_s_overlap,
)
from euscat.model import (
    default_model,
    exact_s_on_shell,
    resolvent_form_factor_element,
)
from euscat.spectral import GridSpec, build_grid, diagonalize, discretize_h


def _stamp(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"{name} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} {detail}"


def test_ac1_phase_error_table(capsys):
    start = time.perf_counter()
    expansion = expansion_coefficients(-220.0, 300)
    report = uniform_error_report(expansion, sample_count=11)
    table_max = max(max(dcos, dsin) for _, dcos, dsin in report.rows)
    dense_max = max(report.dense_max_cos, report.dense_max_sin)
    elapsed = time.perf_counter() - start
    ok = table_max <= 1e-12 and dense_max < 1e-12 and elapsed < 1.0
    _stamp(
        capsys,
        "AC1",
        ok,
        f"degree-300 table max {table_max:.2e}, dense max {dense_max:.2e} "
        f"(budget 1e-12), {elapsed:.2f}s",
    )


def test_ac2_overlap_convergence_at_1gev(capsys):
    start = time.perf_counter()
    model = default_model()
    k0, sigma, beta = 1000.0, 100.0, 5e-4
    grid = build_grid(packet_grid_spec(k0, sigma, 300, beta))
    packet = make_packet(k0, sigma, grid)
    cfg = KBConfig(n=300, beta=beta, sigma=sigma)
    rows = sweep_n(model, cfg, list(range(200, 301, 10)), packet, packet)

    def both_components_below_1pct(row) -> bool:
        re_ok = abs(row.re_approx - row.re_exact) <= 0.01 * abs(row.re_exact)
        im_ok = abs(row.im_approx - row.im_exact) <= 0.01 * abs(row.im_exact)
        return re_ok and im_ok

    flags = [both_components_below_1pct(row) for row in rows]
    first = next((i for i, flag in enumerate(flags) if flag), None)
    elapsed = time.perf_counter() - start
    ok = first is not None and all(flags[first:]) and elapsed < 60.0
    entry = "never" if first is None else str(rows[first].n)
    _stamp(
        capsys,
        "AC2",
        ok,
        f"Re/Im S within 1% of packet-averaged S from n={entry} "
        f"through n=300, {elapsed:.1f}s",
    )


def test_ac3_sharp_amplitude_scan(capsys):
    start = time.perf_counter()
    model = default_model()
    errors = []
    for k in np.geomspace(100.0, 2000.0, 20):
        k = float(k)
        cfg = KBConfig(n=300, beta=None, beta_x=0.5, sigma=k / 24.0)
        errors.append(extract_sharp_t(model, cfg, k).rel_err_t)
    median = float(np.median(errors))
    worst = float(np.max(errors))
    elapsed = time.perf_counter() - start
    ok = median <= 0.01 and worst <= 0.02 and elapsed < 600.0
    _stamp(
        capsys,
        "AC3",
        ok,
        f"20-point scan 100..2000: median rel err {median:.2%} (budget 1%), "
        f"max {worst:.2%} (budget 2%), {elapsed:.1f}s",
    )


def test_ac4_oracle_cross_validation(capsys):
    start = time.perf_counter()
    model = default_model()

    worst_resolvent = 0.0
    for energy in (-50.0, -20.58, -2.2246, 0.0, 3.7, 40.0, 400.0, 2000.0):
        sides = ("above", "below") if energy > 0 else ("above",)
        for side in sides:
            closed = resolvent_form_factor_element(model, energy, side=side)
            quad = resolvent_form_factor_element(
                model, energy, side=side, method="quadrature"
            )
            worst_resolvent = max(worst_resolvent, abs(closed - quad) / abs(closed))

    spec = GridSpec(
        panels=[(0.0, 400.0, 64), (400.0, 1800.0, 512), (1800.0, 3000.0, 256)],
    )
    grid = build_grid(spec)
    psi = make_packet(1000.0, 100.0, grid)
    op = diagonalize(discretize_h(model, grid))
    plateau = time_limit_s_overlap(model, psi, psi, 0.08, op=op)
    sweep_grid = build_grid(packet_grid_spec(1000.0, 100.0, 250, 5e-4))
    packet = make_packet(1000.0, 100.0, sweep_grid)
    kb = kb_s_overlap(model, KBConfig(n=250, beta=5e-4), packet, packet)
    oracle_gap = abs(kb - plateau) / abs(plateau)

    unitarity = max(
        abs(abs(exact_s_on_shell(model, k)) - 1.0)
        for k in (50.0, 139.0, 500.0, 1000.0, 2000.0)
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst_resolvent <= 1e-8
        and oracle_gap <= 1e-3
        and unitarity <= 1e-10
        and elapsed < 60.0
    )
    _stamp(
        capsys,
        "AC4",
        ok,
        f"resolvent routes {worst_resolvent:.2e} (budget 1e-8), "
        f"semigroup vs real-time {oracle_gap:.2e} (budget 1e-3), "
        f"|S|-1 {unitarity:.2e} (budget 1e-10), {elapsed:.1f}s",
    )


def test_ac5_reflection_positivity_properties(capsys):
    start = time.perf_counter()
    kernel = CovarianceKernel(139.0)
    rng = np.random.default_rng(20260815)

    worst_eig_ratio = 0.0
    for _ in range(100):
        size = int(rng.integers(2, 9))
        functions = random_test_functions(kernel, rng, size)
        gram = physical_gram(kernel, functions)
        eigenvalues = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
        worst_eig_ratio = min(worst_eig_ratio, eigenvalues[0] / eigenvalues[-1])
    gram_ok = worst_eig_ratio >= -1e-10

    worst_contraction = 0.0
    worst_hermiticity = 0.0
    for _ in range(10):
        raw = random_test_functions(kernel, rng, 4)
        coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
        bra = WaveFunctional(tuple(coeffs[:2]), tuple(raw[:2]))
        ket = WaveFunctional(tuple(coeffs[2:]), tuple(raw[2:]))
        norm_bra = abs(physical_inner(kernel, bra, bra))
        for beta in (1e-3, 1e-2):
            shifted_bra = time_translate(bra, beta)
            shifted_ket = time_translate(ket, beta)
            norm_shifted = abs(physical_inner(kernel, shifted_bra, shifted_bra))
            worst_contraction = max(
                worst_contraction, (norm_shifted - norm_bra) / norm_bra
            )
            forward = physical_inner(kernel, bra, shifted_ket)
            backward = physical_inner(kernel, shifted_bra, ket)
            worst_hermiticity = max(
                worst_hermiticity, abs(forward - backward) / abs(forward)
            )
    translation_ok = worst_contraction <= 1e-10 and worst_hermiticity <= 1e-10

    probe_f, probe_g = cluster_probe_pair(kernel)
    distances = np.linspace(2.0 / 139.0, 8.0 / 139.0, 9)
    cluster = cluster_check(kernel, probe_f, probe_g, distances)
    rate_err = abs(cluster.fitted_rate - 139.0) / 139.0
    cluster_ok = rate_err <= 0.10

    elapsed = time.perf_counter() - start
    ok = gram_ok and translation_ok and cluster_ok and elapsed < 300.0
    _stamp(
        capsys,
        "AC5",
        ok,
        f"100 Grams min/max eig >= {worst_eig_ratio:.2e} (budget -1e-10), "
        f"contraction excess {worst_contraction:.2e}, "
        f"translation hermiticity {worst_hermiticity:.2e} (budget 1e-10), "
        f"cluster rate {cluster.fitted_rate:.2f} vs 139 ({rate_err:.2%}, "
        f"budget 10%), {elapsed:.1f}s",
    )


def test_ac6_dispersion_from_euclidean_data(capsys):
    start = time.perf_counter()
    kernel = CovarianceKernel(139.0)
    rows = dispersion_scan(kernel, (0.0, 100.0, 300.0, 500.0, 800.0))
    energy_worst = max(row.energy_rel_err for row in rows)
    mass_sq_worst = max(row.mass_sq_rel_err for row in rows)
    values = [row.mass_sq for row in rows]
    spread = (max(values) - min(values)) / 139.0**2
    elapsed = time.perf_counter() - start
    ok = (
        energy_worst <= 1e-3
        and mass_sq_worst <= 5e-3
        and spread <= 5e-3
        and elapsed < 60.0
    )
    _stamp(
        capsys,
        "AC6",
        ok,
        f"<H> vs sqrt(p^2+m^2) max rel err {energy_worst:.2e} (budget 1e-3), "
        f"<M^2> vs m^2 max rel err {mass_sq_worst:.2e} (budget 5e-3), "
        f"p-spread {spread:.2e}, {elapsed:.1f}s",
    )


def test_ac7_byte_identical_reruns(tmp_path, monkeypatch, capsys):
    for var in [v for v in os.environ if v.startswith("ES_")]:
        monkeypatch.delenv(var)
    start = time.perf_counter()
    commands = {
        "cheb-table": ["cheb_table.csv"],
        "kb-sweep": ["kb_sweep.csv"],
        "t-scan": ["t_scan.csv"],
        "gf-report": ["gf_gram.csv", "gf_dispersion.csv", "gf_cluster.csv"],
    }
    texts = {
        "cheb-table": "",
        "kb-sweep": "kb.n_min=50\nkb.n_max=100\nkb.n_step=50\n",
        "t-scan": "scan.points=3\nscan.k_min_mev=200\nscan.k_max_mev=800\nscan.n=150\n",
        "gf-report": "gf.gram_size=3\ngf.momenta_mev=0,300\ngf.cluster_points=5\n",
    }
    identical = True
    for command, files in commands.items():
        config = tmp_path / f"{command}.cfg"
        config.write_text(texts[command] + "seed=1234\n")
        runs = [tmp_path / f"{command}-a", tmp_path / f"{command}-b"]
        for out_dir in runs:
            args = [command, "--config", str(config), "--out", str(out_dir)]
            code = main(args)
            assert code == 0, f"{command} exited {code}"
        for name in files:
            if (runs[0] / name).read_bytes() != (runs[1] / name).read_bytes():
                identical = False
    elapsed = time.perf_counter() - start
    ok = identical and elapsed < 300.0
    _stamp(
        capsys,
        "AC7",
        ok,
        f"all four commands rerun byte-identical at fixed seed, {elapsed:.1f}s",
    )
