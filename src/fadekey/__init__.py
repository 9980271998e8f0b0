"""Secret-key generation from reciprocal fading channels.

Submodules
----------
channel
    Correlated-randomness source: Jakes-spectrum fading synthesis, TDD
    probing, spatially decorrelated eavesdropper observations.
levelcross
    Level-crossing key extraction with the five-message authentication
    protocol and entropy-sized privacy amplification.
gaussian_keygen
    Equiprobable quantization systems: basic, over-quantized and
    CDF-transformed soft-error variants, all scored by exact cell posteriors.
universal
    Distribution-free pipeline: empirical-CDF data conversion, uniform
    quantization, heuristic LLRs.
reconcile
    (3,6)-regular LDPC syndrome reconciliation and Toeplitz privacy
    amplification.
analysis
    Closed forms (capacity, level-crossing rate, coherence time) and
    Monte Carlo / statistical validation tools.
cli
    Experiment runner (``fadekey`` console script).
"""

__version__ = "0.1.0"

from ._bits import BitString  # noqa: F401
from . import analysis, channel, gaussian_keygen, levelcross, reconcile, universal  # noqa: E402,F401
