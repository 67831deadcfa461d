"""erasurekit: environment-assisted channel correction via quantum erasure.

Channels are Kraus families realized as probe interactions; choosing a
rank-one probe measurement refines the channel into pure branches, and the
less the outcomes reveal about the input ensemble, the closer the
outcome-corrected channel can be brought to the identity. The package
computes both sides of that tradeoff, constructs the explicit correction,
verifies the inequality chains linking them, and searches for the erasure
measurement maximizing the assisted fidelity.
"""

from .channels import (
    KrausChannel,
    channels_equal,
    choi_distance,
    choi_matrix,
    kraus_channel,
    preset,
    validate,
)
from .erasure import (
    ErasureReport,
    assisted_fidelity,
    build_correction,
    conditional_states,
    entanglement_fidelity,
    verify_converse,
    verify_direct,
)
from .numerics import (
    EntropyBounds,
    haar_isometry,
    psd_power,
    psd_sqrt,
    random_density,
    relative_entropy,
    shannon_entropy,
    trace_norm,
    uhlmann_fidelity,
    verify_entropy_bounds,
)
from .optimizer import (
    OptimizationResult,
    RandomUnitaryVerdict,
    detect_random_unitary,
    optimize_erasure,
    sample_oracle,
    witness_channel,
)
from .probes import (
    Ensemble,
    ICEnsemble,
    ProbeMeasurement,
    canonical_measurement,
    ensemble,
    hadamard_measurement,
    ic_ensemble,
    joint_distribution,
    mutual_information,
    probe_measurement,
    random_ensemble,
    random_measurement,
    refine,
    rotation_measurement,
)
from .scenarios import eraser_curve, scenario_curve, teleport_curve

__version__ = "0.1.0"
