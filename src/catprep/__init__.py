"""Conditional preparation of continuous-variable cat-state qubits.

Simulates a protocol where a homodyne measurement on the discrete arm of a
hybrid entangled state steers the continuous arm into a chosen superposition
of even and odd cat states, plus the analysis pipeline around it: fidelity
scans, Bloch-sphere embedding, Wigner functions, and maximum-likelihood
homodyne tomography.

Conventions: truncated Fock space, quadratures in shot-noise units with
X = a + a† (vacuum variance 1), fidelity F = <t|rho|t> against pure targets.
"""

from .channels import loss_channel, loss_on_mode_a
from .fock import (
    MixedState,
    PureState,
    TwoModeState,
    basis_state,
    fidelity,
    mean_photon_number,
    partial_trace,
    purity,
    tensor,
)
from .homodyne import (
    Conditioning,
    PreparedState,
    closed_form_state,
    condition,
    marginal_pdf,
)
from .rsp import (
    BASE_HERALD_RATE_HZ,
    TABLE1,
    BlochCoords,
    TargetSpec,
    bloch_embed,
    fidelity_vs_delta,
    fidelity_vs_eta,
    fidelity_vs_q,
    fit_power_law,
    heralded_rate,
    target_state,
)
from .states import (
    ResourceParams,
    cat,
    coherent,
    effective_alpha,
    hybrid_entangled,
    photon_subtracted_sv,
    squeezed_vacuum,
    squeezing_parameter,
)
from .tomography import (
    ReconResult,
    TomoConfig,
    log_likelihood,
    mle_reconstruct,
    sample_homodyne,
)
from .wigner import WignerGrid, negativity_min, wigner_grid, wigner_point

__version__ = "0.1.0"

__all__ = [
    "BASE_HERALD_RATE_HZ",
    "BlochCoords",
    "Conditioning",
    "MixedState",
    "PreparedState",
    "PureState",
    "ReconResult",
    "ResourceParams",
    "TABLE1",
    "TargetSpec",
    "TomoConfig",
    "TwoModeState",
    "WignerGrid",
    "basis_state",
    "bloch_embed",
    "cat",
    "closed_form_state",
    "coherent",
    "condition",
    "effective_alpha",
    "fidelity",
    "fidelity_vs_delta",
    "fidelity_vs_eta",
    "fidelity_vs_q",
    "fit_power_law",
    "heralded_rate",
    "hybrid_entangled",
    "log_likelihood",
    "loss_channel",
    "loss_on_mode_a",
    "marginal_pdf",
    "mean_photon_number",
    "mle_reconstruct",
    "negativity_min",
    "partial_trace",
    "photon_subtracted_sv",
    "purity",
    "sample_homodyne",
    "squeezed_vacuum",
    "squeezing_parameter",
    "target_state",
    "tensor",
    "wigner_grid",
    "wigner_point",
    "__version__",
]
