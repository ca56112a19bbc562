"""The three benchmark workloads: seeded inputs, one timed public call per op,
and the closed-form oracle check of every op's outputs.

Each workload is a ``Workload`` with four parts:

* ``inputs(seed)``: the fixed input set of one pass, a list of JSON-able
  dicts.  The same seed gives the same list.
* ``op(ctx, spec)``: the public ``euscat`` calls of one op.  Only this is
  timed.  It returns ``(outputs, keep)``: JSON-able numbers recorded in the
  result file, and objects the check needs but the file does not.
* ``check(ctx, spec, outputs, keep)``: the oracle check, run after the timer
  stops.  It returns ``(ok, rel_err, note)``; ``rel_err`` is ``None`` when
  the op's check is an inequality at roundoff level rather than a relative
  error against a closed form.
* ``pass_check(records)``: checks over a whole pass (AC3's median, AC6's
  spread in p), returning the list of failed check descriptions.

``ctx`` is a per-pass dict made by ``new_context()``; it holds the model or
the covariance kernel, as the CLI makes one per command.  Inputs use the
CLI's default parameters; the seed only places them inside the ranges that
README.md in this directory gives.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import euscat as es
from compare import vectors

GF_MASS = 139.0
N_SWEEP_VALUES = (10, 50, 100, 150, 200, 250, 300)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], List[dict]]
    new_context: Callable[[], dict]
    op: Callable
    check: Callable
    pass_check: Callable[[List[dict]], List[str]]
    warmup: List[dict]


def _cplx(z) -> List[float]:
    z = complex(z)
    return [z.real, z.imag]


def _rel(approx: complex, exact: complex) -> float:
    return abs(approx - exact) / abs(exact)


def _finite(*values) -> bool:
    return all(math.isfinite(abs(complex(v))) for v in values)


# -- t_scan: sharp amplitude extraction, the `t-scan` command ---------------


def t_scan_inputs(seed: int) -> List[dict]:
    """20 momenta, one drawn uniformly in log k from each of the 20 equal
    log-bins of [100, 2000) MeV, so every pass covers the whole scan range."""
    rng = random.Random(f"t_scan:{seed}")
    ratio = math.log(2000.0 / 100.0)
    return [
        {"k": 100.0 * math.exp(ratio * (i + rng.random()) / 20.0), "n": 300}
        for i in range(20)
    ]


def _model_context() -> dict:
    return {"model": es.default_model()}


def t_scan_op(ctx: dict, spec: dict):
    model = ctx["model"]
    k, n = spec["k"], spec["n"]
    sigma = k / 24.0
    beta = es.beta_for(k, model.mass, 0.5)
    grid = es.packet_grid_spec(k, sigma, n, beta, mass=model.mass)
    cfg = es.KBConfig(n=n, beta=None, beta_x=0.5, sigma=sigma, grid=grid)
    est = es.extract_sharp_t(model, cfg, k)
    outputs = {"t_approx": _cplx(est.t_approx), "s_approx": _cplx(est.s_approx)}
    return outputs, est


def t_scan_check(ctx: dict, spec: dict, outputs: dict, est):
    t_exact = es.exact_t_on_shell(ctx["model"], spec["k"])
    if not _finite(est.t_approx):
        return False, None, "non-finite amplitude"
    rel = _rel(est.t_approx, t_exact)
    return rel <= 0.02, rel, f"rel err {rel:.3e} (AC3 max 2e-2)"


def t_scan_pass_check(records: List[dict]) -> List[str]:
    errors = [r["rel_err"] for r in records if r["rel_err"] is not None]
    if len(errors) != len(records):
        return ["t_scan: some points have no error to take the median of"]
    median = statistics.median(errors)
    return [] if median <= 0.01 else [f"t_scan: median rel err {median:.3e} > 1e-2"]


# -- n_sweep: S-matrix overlap convergence in n, the `kb-sweep` path --------


def n_sweep_inputs(seed: int) -> List[dict]:
    """Four packet pairs at k0 near 400, 594, 882 and 1300 MeV (log-spaced),
    each moved by a seeded factor within +-2%.  The finite-n error scales
    like 1/k0^2, so wider draws would make the worst error of a pass mostly
    a function of the seed."""
    rng = random.Random(f"n_sweep:{seed}")
    ratio = math.log(1300.0 / 400.0)
    return [
        {
            "k0": 400.0 * math.exp(ratio * j / 3.0 + rng.uniform(-0.02, 0.02)),
            "n": list(N_SWEEP_VALUES),
        }
        for j in range(4)
    ]


def n_sweep_op(ctx: dict, spec: dict):
    model = ctx["model"]
    k0 = spec["k0"]
    sigma = k0 / 10.0
    beta = es.beta_for(k0, model.mass)
    n_values = spec["n"]
    n_max = max(n_values)
    grid = es.build_grid(es.packet_grid_spec(k0, sigma, n_max, beta, mass=model.mass))
    psi = es.make_packet(k0, sigma, grid, mass=model.mass)
    psi_prime = es.make_packet(1.04 * k0, 0.9 * sigma, grid, mass=model.mass)
    cfg = es.KBConfig(n=n_max, beta=beta, sigma=sigma)
    rows = es.sweep_n(model, cfg, n_values, psi_prime, psi, reference="packets")
    outputs = {
        "n": [row.n for row in rows],
        "s": [[row.re_approx, row.im_approx] for row in rows],
    }
    return outputs, (psi_prime, psi, rows)


def n_sweep_check(ctx: dict, spec: dict, outputs: dict, keep):
    psi_prime, psi, rows = keep
    exact = es.exact_s_in_packets(ctx["model"], psi_prime, psi)
    worst = 0.0
    ok = True
    for row in rows:
        approx = complex(row.re_approx, row.im_approx)
        if not _finite(approx):
            return False, None, f"non-finite S at n={row.n}"
        if row.n < 200:
            continue
        re_ok = abs(approx.real - exact.real) <= 0.01 * abs(exact.real)
        im_ok = abs(approx.imag - exact.imag) <= 0.01 * abs(exact.imag)
        ok = ok and re_ok and im_ok
        worst = max(worst, _rel(approx, exact))
    return ok, worst, f"n>=200 rel err {worst:.3e} (AC2: Re and Im within 1e-2)"


# -- gf: Euclidean generating functional, the `gf-report` path ---------------


def gf_inputs(seed: int) -> List[dict]:
    """98 Grams, 14 of each size 2..8 in seeded order, so the pass always
    has the same number of matrix entries; 10 contraction/Hermiticity sets;
    the dispersion scan at p=0 and one momentum from each of four bins
    around the CLI's 100, 300, 500, 800 MeV; one cluster check."""
    rng = random.Random(f"gf:{seed}")
    sizes = [s for s in range(2, 9) for _ in range(14)]
    rng.shuffle(sizes)
    specs: List[dict] = [
        {"kind": "gram", "size": s, "rng": [seed, i]} for i, s in enumerate(sizes)
    ]
    specs += [
        {"kind": "translation", "rng": [seed, 1000 + i], "betas": [1e-3, 1e-2]}
        for i in range(10)
    ]
    specs.append({"kind": "dispersion", "p": 0.0})
    specs += [
        {"kind": "dispersion", "p": centre + rng.uniform(-50.0, 50.0)}
        for centre in (100.0, 300.0, 500.0, 800.0)
    ]
    specs.append({"kind": "cluster", "points": 9})
    return specs


def _gf_context() -> dict:
    return {"kernel": es.CovarianceKernel(GF_MASS)}


def _gram(kernel, spec):
    rng = np.random.default_rng(spec["rng"])
    functions = es.random_test_functions(kernel, rng, spec["size"])
    gram = es.physical_gram(kernel, functions)
    if not np.all(np.isfinite(gram)):
        # an entry exp(x) with x > ~709 overflows; eigvalsh would only say
        # "did not converge", so name the entries instead
        bad = [tuple(int(i) for i in ij) for ij in np.argwhere(~np.isfinite(gram))]
        raise FloatingPointError(f"physical_gram has non-finite entries at {bad}")
    eigenvalues = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    return {"eigenvalues": eigenvalues.tolist()}


def _translation(kernel, spec):
    rng = np.random.default_rng(spec["rng"])
    raw = es.random_test_functions(kernel, rng, 4)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    bra = es.WaveFunctional(tuple(coeffs[:2]), tuple(raw[:2]))
    ket = es.WaveFunctional(tuple(coeffs[2:]), tuple(raw[2:]))
    out = {"norm": abs(es.physical_inner(kernel, bra, bra)), "shifted_norm": [],
           "forward": [], "backward": []}
    for beta in spec["betas"]:
        shifted_bra = es.time_translate(bra, beta)
        shifted_ket = es.time_translate(ket, beta)
        out["shifted_norm"].append(abs(es.physical_inner(kernel, shifted_bra, shifted_bra)))
        out["forward"].append(_cplx(es.physical_inner(kernel, bra, shifted_ket)))
        out["backward"].append(_cplx(es.physical_inner(kernel, shifted_bra, ket)))
    return out


def _dispersion(kernel, spec):
    (row,) = es.dispersion_scan(kernel, [spec["p"]])
    return {"energy": row.energy, "mass_sq": row.mass_sq}


def _cluster(kernel, spec):
    probe_f, probe_g = es.cluster_probe_pair(kernel)
    distances = np.linspace(2.0 / GF_MASS, 8.0 / GF_MASS, spec["points"])
    report = es.cluster_check(kernel, probe_f, probe_g, distances)
    return {"deviations": report.deviations.tolist(), "rate": report.fitted_rate}


_GF_OPS = {
    "gram": _gram,
    "translation": _translation,
    "dispersion": _dispersion,
    "cluster": _cluster,
}


def gf_op(ctx: dict, spec: dict):
    return _GF_OPS[spec["kind"]](ctx["kernel"], spec), None


def gf_check(ctx: dict, spec: dict, out: dict, keep):
    """AC5/AC6 tolerances.  Only the dispersion and cluster outputs have a
    closed form (sqrt(p^2+m^2), m^2, the mass gap); the Gram and translation
    checks are inequalities at roundoff level and report no rel_err."""
    kind = spec["kind"]
    if not all(math.isfinite(x) for _, vector in vectors(out) for x in vector):
        return False, None, "non-finite output"
    if kind == "gram":
        eig = out["eigenvalues"]
        ratio = eig[0] / eig[-1]
        return ratio >= -1e-10, None, f"min/max eig {ratio:.3e} (AC5 >= -1e-10)"
    if kind == "translation":
        worst_c = max((n - out["norm"]) / out["norm"] for n in out["shifted_norm"])
        worst_h = max(
            abs(complex(*fwd) - complex(*bwd)) / abs(complex(*fwd))
            for fwd, bwd in zip(out["forward"], out["backward"])
        )
        ok = worst_c <= 1e-10 and worst_h <= 1e-10
        return ok, None, f"contraction {worst_c:.2e}, hermiticity {worst_h:.2e} (AC5 1e-10)"
    if kind == "dispersion":
        p = spec["p"]
        m2 = GF_MASS * GF_MASS
        e_err = abs(out["energy"] - math.sqrt(p * p + m2)) / math.sqrt(p * p + m2)
        m_err = abs(out["mass_sq"] - m2) / m2
        ok = e_err <= 1e-3 and m_err <= 5e-3
        return ok, max(e_err, m_err), f"energy {e_err:.2e} (1e-3), mass^2 {m_err:.2e} (5e-3)"
    rate_err = abs(out["rate"] - GF_MASS) / GF_MASS
    return rate_err <= 0.10, rate_err, f"cluster rate rel err {rate_err:.3e} (AC5 0.10)"


def gf_pass_check(records: List[dict]) -> List[str]:
    mass_sq = [
        r["outputs"]["mass_sq"]
        for r in records
        if r["spec"]["kind"] == "dispersion" and r["outputs"] is not None
    ]
    if not mass_sq:
        return []
    spread = (max(mass_sq) - min(mass_sq)) / GF_MASS**2
    return [] if spread <= 5e-3 else [f"gf: mass^2 spread over p {spread:.3e} > 5e-3 (AC6)"]


WORKLOADS: Dict[str, Workload] = {
    "t_scan": Workload(
        inputs=t_scan_inputs,
        new_context=_model_context,
        op=t_scan_op,
        check=t_scan_check,
        pass_check=t_scan_pass_check,
        warmup=[{"k": 700.0, "n": 30}],
    ),
    "n_sweep": Workload(
        inputs=n_sweep_inputs,
        new_context=_model_context,
        op=n_sweep_op,
        check=n_sweep_check,
        pass_check=lambda records: [],
        warmup=[{"k0": 800.0, "n": [10, 30]}],
    ),
    "gf": Workload(
        inputs=gf_inputs,
        new_context=_gf_context,
        op=gf_op,
        check=gf_check,
        pass_check=gf_pass_check,
        warmup=[
            {"kind": "gram", "size": 2, "rng": [0, 0]},
            {"kind": "translation", "rng": [0, 1], "betas": [1e-3]},
            {"kind": "dispersion", "p": 300.0},
            {"kind": "cluster", "points": 3},
        ],
    ),
}
