"""End-to-end checks of the package's headline numbers.

Each check prints one [PASS]/[FAIL] line with the measured values so a run
can be audited from the captured log. One check (the coherent-point scan)
is a known, documented failure: the bound it encodes is not where this
resource model actually peaks. It is kept failing rather than loosened.
"""

import time

import numpy as np
import pytest

from catprep.fock import fidelity
from catprep.homodyne import Conditioning, condition
from catprep.rsp import (
    TABLE1,
    TargetSpec,
    bloch_embed,
    fidelity_vs_delta,
    fidelity_vs_eta,
    fidelity_vs_q,
    heralded_rate,
    target_state,
)
from catprep.states import ResourceParams, cv_pair, hybrid_entangled
from catprep.tomography import (
    TomoConfig,
    fidelity_to_truth,
    mle_reconstruct,
    sample_homodyne,
)
from oracles import basis_state, closed_form_state, fit_power_law, wigner_point

# representative sampling seed; the reconstruction fidelity estimator has a
# seed-to-seed spread of about +-0.004 at 50k samples, so the seed is pinned
# as part of the frozen configuration (9 of 10 surveyed seeds pass every
# target; see the round-trip check)
FROZEN_SEED = 4

GRID_Q = range(-3, 4)
GRID_THETA = (0.0, np.pi / 4, np.pi / 2, np.pi)


def _report(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def _equivalence_min_fidelity(dim: int) -> float:
    params = ResourceParams(model="ideal")
    resource = hybrid_entangled(params, dim_b=dim)
    cvm, cvp = cv_pair(params, dim)
    worst = 1.0
    for q in GRID_Q:
        for theta in GRID_THETA:
            prep = condition(resource, Conditioning(theta_rad=theta, q_center_snu=q, delta_snu=0.0))
            worst = min(worst, fidelity(prep.rho, closed_form_state(q, theta, cvm, cvp)))
    return worst


def _anchor_fidelities(dim: int) -> tuple[float, float]:
    resource = hybrid_entangled(ResourceParams(), dim_b=dim)
    target = target_state(TargetSpec("cat_minus"), dim)
    clean = fidelity(condition(resource, Conditioning(q_center_snu=0.0, delta_snu=0.0)).rho, target)
    lossy = fidelity(
        condition(resource, Conditioning(q_center_snu=0.0, delta_snu=0.0, eta_a=0.7)).rho, target
    )
    return clean, lossy


def _coherent_argmax(dim: int) -> tuple[float, float]:
    resource = hybrid_entangled(ResourceParams(), dim_b=dim)
    qs = np.round(np.arange(0.80, 1.50 + 1e-9, 0.01), 10)
    fids = fidelity_vs_q(resource, 0.0, qs, [TargetSpec("coherent_plus")])[:, 0]
    k = int(fids.argmax())
    return float(qs[k]), float(fids[k])


def _power_law(dim: int) -> tuple[float, float]:
    resource = hybrid_entangled(ResourceParams(), dim_b=dim)
    target = TargetSpec("cat_minus")
    f0 = fidelity_vs_q(resource, 0.0, [0.0], [target])[0, 0]
    deltas = np.linspace(0.05, 0.4, 8)
    drops = f0 - fidelity_vs_delta(resource, 0.0, 0.0, deltas, target)
    _, exponent = fit_power_law(deltas, drops)
    drop_02 = f0 - fidelity_vs_delta(resource, 0.0, 0.0, [0.2], target)[0]
    return float(exponent), float(drop_02)


def _success_and_rate(dim: int, eta_a: float) -> tuple[float, float]:
    resource = hybrid_entangled(ResourceParams(), dim_b=dim)
    prep = condition(resource, Conditioning(q_center_snu=0.0, delta_snu=0.2, eta_a=eta_a))
    return prep.success_prob, heralded_rate(prep.success_prob)


def test_closed_form_equivalence_grid(capsys):
    t0 = time.time()
    worst = _equivalence_min_fidelity(30)
    elapsed = time.time() - t0
    ok = worst >= 1 - 1e-9 and elapsed < 5.0
    _report(capsys, ok, "closed-form equivalence grid",
            f"min fidelity {worst:.12f} over 28 (q, theta) points in {elapsed:.2f}s")
    assert worst >= 1 - 1e-9
    assert elapsed < 5.0


def test_cat_minus_fidelity_anchor(capsys):
    clean, lossy = _anchor_fidelities(40)
    in_band = 0.935 <= clean <= 0.965
    brackets = lossy - 0.015 <= 0.95 <= clean + 0.015
    ok = in_band and brackets
    _report(capsys, ok, "cat-minus fidelity anchor",
            f"F = {clean:.5f} in [0.935, 0.965]; with 30% heralding loss "
            f"F = {lossy:.5f}; bracket +-0.015 contains 0.95: {brackets}")
    assert in_band
    assert brackets


def test_coherent_point_scan(capsys):
    """Known failure, kept red on purpose.

    The scan bound expects the best coherent-state fidelity at q = 1.14
    +- 0.03, but the photon-subtracted resource branch behaves like a cat of
    size ~1.035 rather than 0.7, which pushes the true optimum to q ~ 1.51
    (confirmed by an independent dense scan in the unit tests). The scan
    below tops out at its upper grid edge, far from 1.14.
    """
    q_star, f_star = _coherent_argmax(40)
    resource = hybrid_entangled(ResourceParams(), dim_b=40)
    mirror = fidelity_vs_q(resource, 0.0, [-q_star], [TargetSpec("coherent_minus")])[0, 0]
    symmetric = np.isclose(mirror, f_star, atol=1e-9)
    ok = abs(q_star - 1.14) <= 0.03 and symmetric
    _report(capsys, ok, "coherent-point scan",
            f"argmax q = {q_star:.2f} (expected 1.14 +- 0.03), F(q*) = {f_star:.5f}, "
            f"mirror symmetry at -q*: {symmetric}")
    assert symmetric
    assert abs(q_star - 1.14) <= 0.03


def test_window_width_power_law(capsys):
    exponent, drop_02 = _power_law(40)
    ok = abs(exponent - 2.0) <= 0.3 and drop_02 <= 0.03
    _report(capsys, ok, "window width power law",
            f"drop exponent {exponent:.3f} (2.0 +- 0.3), F(0) - F(0.2) = {drop_02:.5f}")
    assert abs(exponent - 2.0) <= 0.3
    assert drop_02 <= 0.03


def test_success_probability_and_rate(capsys):
    p_ideal, r_ideal = _success_and_rate(40, 1.0)
    p_loss, r_loss = _success_and_rate(40, 0.7)
    ok = 0.04 <= p_loss <= 0.06 and 8_000.0 <= r_loss <= 12_000.0
    _report(capsys, ok, "success probability and rate",
            f"with 30% heralding loss p = {p_loss:.5f}, rate = {r_loss/1e3:.2f} kHz "
            f"(lossless p = {p_ideal:.5f}, {r_ideal/1e3:.2f} kHz)")
    assert 0.04 <= p_loss <= 0.06
    assert 8_000.0 <= r_loss <= 12_000.0


def test_tomography_round_trips(capsys):
    results = []
    max_seconds = 0.0
    for spec in (row.target for row in TABLE1):  # the six Table 1 targets
        truth = target_state(spec, 30)
        t0 = time.time()
        rec = sample_homodyne(truth, 12, 50_000, eta=1.0, seed=FROZEN_SEED)
        f_clean = fidelity_to_truth(mle_reconstruct(rec, TomoConfig()).state, truth)
        rec = sample_homodyne(truth, 12, 50_000, eta=0.85, seed=FROZEN_SEED)
        f_corr = fidelity_to_truth(
            mle_reconstruct(rec, TomoConfig(eta_correction=0.85)).state, truth
        )
        max_seconds = max(max_seconds, time.time() - t0)
        results.append((spec.kind, f_clean, f_corr))
    worst_clean = min(results, key=lambda r: r[1])
    worst_corr = min(results, key=lambda r: r[2])
    ok = worst_clean[1] >= 0.995 and worst_corr[2] >= 0.98 and max_seconds < 60.0
    _report(capsys, ok, "tomography round trips",
            f"six targets at 50k samples: worst lossless F = {worst_clean[1]:.5f} "
            f"({worst_clean[0]}), worst corrected F = {worst_corr[2]:.5f} "
            f"({worst_corr[0]}), max {max_seconds:.1f}s per target")
    assert worst_clean[1] >= 0.995
    assert worst_corr[2] >= 0.98
    assert max_seconds < 60.0


def test_wigner_negativity(capsys):
    truth = target_state(TargetSpec("cat_minus"), 30)
    rec = sample_homodyne(truth, 12, 50_000, eta=0.85, seed=FROZEN_SEED)
    recon = mle_reconstruct(rec, TomoConfig(eta_correction=0.85)).state
    w_recon = wigner_point(recon, 0.0, 0.0)
    w_photon = wigner_point(basis_state(1, 10), 0.0, 0.0)
    analytic_ok = np.isclose(w_photon, -1 / (2 * np.pi), atol=1e-6)
    ok = w_recon <= -0.10 and analytic_ok
    _report(capsys, ok, "negative quasiprobability at the origin",
            f"reconstructed odd cat W(0,0) = {w_recon:.4f} (bound -0.10), "
            f"single photon W(0,0) = {w_photon:.8f} vs -1/(2 pi)")
    assert w_recon <= -0.10
    assert analytic_ok


def test_heralding_loss_monotonicity(capsys):
    resource = hybrid_entangled(ResourceParams(), dim_b=40)
    etas = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]
    worst_violation = 0.0
    max_gap_at_one = 0.0
    for q, kind in ((0.0, "cat_minus"), (1.14, "coherent_plus")):
        fids = fidelity_vs_eta(resource, q, 0.0, etas, TargetSpec(kind))
        worst_violation = max(worst_violation, float(np.max(np.diff(fids))))
        point = fidelity_vs_q(resource, 0.0, [q], [TargetSpec(kind)])[0, 0]
        max_gap_at_one = max(max_gap_at_one, abs(fids[0] - point))
    ok = worst_violation <= 1e-9 and max_gap_at_one <= 1e-9
    _report(capsys, ok, "heralding loss monotonicity",
            f"largest fidelity increase under added loss {worst_violation:.2e}, "
            f"lossless gap to point baseline {max_gap_at_one:.2e}")
    assert worst_violation <= 1e-9
    assert max_gap_at_one <= 1e-9


def test_sign_flip_and_azimuth_tracking(capsys):
    params = ResourceParams(model="ideal")
    resource = hybrid_entangled(params, dim_b=30)
    worst_overlap = 1.0
    for q in GRID_Q:
        for theta in GRID_THETA:
            a = condition(
                resource, Conditioning(theta_rad=theta, q_center_snu=-q, delta_snu=0.0)
            ).rho
            b = condition(
                resource, Conditioning(theta_rad=theta + np.pi, q_center_snu=q, delta_snu=0.0)
            ).rho
            worst_overlap = min(worst_overlap, float(np.trace(a.mat @ b.mat).real))
    worst_azimuth = 0.0
    for theta in GRID_THETA:
        prep = condition(resource, Conditioning(theta_rad=theta, q_center_snu=1.0, delta_snu=0.0))
        coords = bloch_embed(prep.rho, 0.7)
        diff = (coords.varphi_azimuth_rad - theta + np.pi) % (2 * np.pi) - np.pi
        worst_azimuth = max(worst_azimuth, abs(float(diff)))
    ok = worst_overlap >= 1 - 1e-9 and worst_azimuth <= 0.05
    _report(capsys, ok, "sign flip and azimuth tracking",
            f"min overlap of q -> -q vs theta -> theta+pi states {worst_overlap:.12f}, "
            f"max azimuth error {worst_azimuth:.4f} rad")
    assert worst_overlap >= 1 - 1e-9
    assert worst_azimuth <= 0.05


def test_truncation_stability(capsys):
    scalars = {}
    for dim in (30, 40):
        clean, lossy = _anchor_fidelities(dim)
        q_star, f_star = _coherent_argmax(dim)
        exponent, drop = _power_law(dim)
        p, rate = _success_and_rate(dim, 0.7)
        scalars[dim] = {
            "equivalence_min_f": _equivalence_min_fidelity(dim),
            "anchor_clean": clean,
            "anchor_lossy": lossy,
            "argmax_q": q_star,
            "argmax_f": f_star,
            "power_exponent": exponent,
            "drop_02": drop,
            "success_prob": p,
            "rate_khz": rate / 1e3,
        }
    diffs = {k: abs(scalars[40][k] - scalars[30][k]) for k in scalars[30]}
    worst_key = max(diffs, key=diffs.get)
    ok = diffs[worst_key] < 1e-6
    _report(capsys, ok, "truncation stability",
            f"largest shift between dim 30 and 40 is {diffs[worst_key]:.2e} "
            f"({worst_key})")
    assert diffs[worst_key] < 1e-6, diffs
