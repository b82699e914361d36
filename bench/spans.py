"""Spans around catprep's public functions, and per-layer metrics from them.

The tracer replaces a function at every binding site: the module that
defines it and each module that imported it by name (``from .homodyne
import condition`` makes ``catprep.rsp.condition`` a second site). Calls
inside catprep then go through the wrapper however they were written.
Spans stay in memory as (name, start, end, parent) until the caller takes
them; ``remove`` restores the original functions.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name) of each traced callable: every library function
# cli calls, so that cli.self_s is the CLI's own time, plus the inner ones
# the per-layer metrics name. The class methods are the validation hooks
# that run on every state catprep constructs.
TRACED = (
    ("cli", "main"),
    ("cli", "write_json"),
    ("cli", "write_scan_csv"),
    ("fock", "fidelity"),
    ("fock", "purity"),
    ("fock", "mean_photon_number"),
    ("fock", "PureState.__post_init__"),
    ("fock", "MixedState.__post_init__"),
    ("fock", "TwoModeState.__post_init__"),
    ("states", "hybrid_entangled"),
    ("channels", "loss_channel"),
    ("channels", "loss_on_mode_a"),
    ("channels", "apply_kraus_adjoint"),
    ("homodyne", "marginal_pdf"),
    ("homodyne", "condition"),
    ("homodyne", "condition_tail"),
    ("rsp", "target_state"),
    ("rsp", "heralded_rate"),
    ("rsp", "bloch_embed"),
    ("rsp", "fidelity_vs_q"),
    ("rsp", "fidelity_vs_eta"),
    ("rsp", "fidelity_vs_delta"),
    ("wigner", "wigner_grid"),
    ("wigner", "wigner_point"),
    ("wigner", "write_grid_csv"),
    ("wigner", "grid_metadata"),
    ("wigner", "negativity_min"),
    ("tomography", "default_phase_set"),
    ("tomography", "sample_homodyne"),
    ("tomography", "write_records"),
    ("tomography", "bin_records"),
    ("tomography", "build_povm"),
    ("tomography", "mle_reconstruct"),
    ("tomography", "fidelity_to_truth"),
)

STATE_CHECKS = ("fock.PureState.__post_init__", "fock.MixedState.__post_init__",
                "fock.TwoModeState.__post_init__")
SCANS = ("rsp.fidelity_vs_q", "rsp.fidelity_vs_eta", "rsp.fidelity_vs_delta")


class Tracer:
    """Records one span per call of each traced catprep function."""

    def __init__(self, package: str = "catprep", clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> list[str]:
        """Wrap every traced callable that exists; returns the names wrapped."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        wrapped = []
        for mod_name, qualname in TRACED:
            home = sys.modules.get(f"{self.package}.{mod_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue  # renamed or removed in this version of catprep
            wrapper = self._wrap(f"{mod_name}.{qualname}", original)
            sites = [owner] if owner_name else [m for m in modules
                                                if getattr(m, attr, None) is original]
            for site in sites:
                self._restore.append((site, attr, original))
                setattr(site, attr, wrapper)
            wrapped.append(f"{mod_name}.{qualname}")
        return wrapped

    def remove(self) -> None:
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore.clear()

    def take(self) -> list[list]:
        """Hand over the finished spans and start a new list."""
        done = self.spans[:]
        self.spans.clear()
        return done


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans) -> dict[str, dict]:
    """Per name: calls, total time and self time.

    Self time is a span's duration minus the part of it covered by its child
    spans. A name's total counts only its outermost spans, so a function
    that reaches itself again is not counted twice.
    """
    children: dict[int, list] = {}
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - _covered(children.get(idx, ()), start, end)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
    return out


def layer_metrics(summary: dict, grid_points: int, scan_points: int, mle_iterations: int) -> dict:
    """The per-layer metrics of one traced pass.

    grid_points and scan_points are the Wigner grid points and conditioning
    points the pass's configs ask for; mle_iterations is read from the
    reports the pass wrote. Rates of a layer the pass does not run read 0.
    """
    def get(name, key="total_s"):
        return summary.get(name, {}).get(key, 0.0)

    grid_s = get("wigner.wigner_grid")
    scan_s = sum(get(name) for name in SCANS)
    mle_self = get("tomography.mle_reconstruct", "self_s")
    return {
        "tomography.sample_homodyne_s": get("tomography.sample_homodyne"),
        "homodyne.marginal_pdf_s": get("homodyne.marginal_pdf"),
        "channels.loss_channel_s": get("channels.loss_channel"),
        "tomography.bin_records_s": get("tomography.bin_records"),
        "tomography.write_records_s": get("tomography.write_records"),
        "tomography.build_povm_s": get("tomography.build_povm"),
        "channels.apply_kraus_adjoint_s": get("channels.apply_kraus_adjoint"),
        "channels.apply_kraus_adjoint_calls": get("channels.apply_kraus_adjoint", "calls"),
        "tomography.mle_reconstruct_self_s": mle_self,
        "tomography.mle_iterations": mle_iterations,
        "tomography.mle_ms_per_iteration": 1e3 * mle_self / mle_iterations if mle_iterations else 0.0,
        "wigner.wigner_grid_s": grid_s,
        "wigner.grid_points_per_s": grid_points / grid_s if grid_s else 0.0,
        "wigner.write_grid_csv_s": get("wigner.write_grid_csv"),
        "wigner.wigner_point_s": get("wigner.wigner_point"),
        "homodyne.condition_tail_s": get("homodyne.condition_tail"),
        "rsp.bloch_embed_s": get("rsp.bloch_embed"),
        "homodyne.condition_s": get("homodyne.condition"),
        "homodyne.condition_calls": get("homodyne.condition", "calls"),
        "channels.loss_on_mode_a_s": get("channels.loss_on_mode_a"),
        "rsp.fidelity_vs_q_self_s": get("rsp.fidelity_vs_q", "self_s"),
        "rsp.fidelity_vs_eta_self_s": get("rsp.fidelity_vs_eta", "self_s"),
        "rsp.fidelity_vs_delta_self_s": get("rsp.fidelity_vs_delta", "self_s"),
        "rsp.scan_points_per_s": scan_points / scan_s if scan_s else 0.0,
        "states.hybrid_entangled_s": get("states.hybrid_entangled"),
        "fock.state_checks_s": sum(get(name) for name in STATE_CHECKS),
        "cli.write_json_s": get("cli.write_json"),
        "cli.write_scan_csv_s": get("cli.write_scan_csv"),
        "cli.self_s": sum(v["self_s"] for k, v in summary.items() if k.startswith("cli.")),
    }
