"""Conditional preparation of continuous-variable cat-state qubits.

Simulates a protocol where a homodyne measurement on the discrete arm of a
hybrid entangled state steers the continuous arm into a chosen superposition
of even and odd cat states, plus the analysis pipeline around it: fidelity
scans, Bloch-sphere embedding, Wigner functions, and maximum-likelihood
homodyne tomography.

Conventions: truncated Fock space, quadratures in shot-noise units with
X = a + a† (vacuum variance 1), fidelity F = <t|rho|t> against pure targets.

Callers import from the module that defines a name:

    fock        state types, fidelity, purity, photon number
    states      coherent, cat and squeezed states, the hybrid resource
    channels    photon loss and its Heisenberg-picture adjoint
    homodyne    quadrature wavefunctions, acceptance operators, condition
    rsp         targets, Table 1, fidelity scans, Bloch fit, heralded rate
    wigner      Wigner grids and their CSV output
    tomography  homodyne sampling, binning and maximum-likelihood tomography
    files       atomic writes of output files
    cli         the scan, prepare and tomo commands
"""

__version__ = "0.1.0"
