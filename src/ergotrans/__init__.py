"""Ergodic optimization meets optimal transport.

Transfer operators and zero-temperature limits, calibrated subactions by
max-plus iteration, involution kernels with dual potentials and twist
checks, and the Kantorovich problem between maximizing measures with
full structural certification (duality, cyclical monotonicity, graph
property, Rockafellar-type potentials).
"""

from .dynamics import (
    DOUBLING,
    MINUS_DOUBLING,
    PeriodicOrbit,
    SystemKind,
    SystemSpec,
    apply_map,
    backward_step,
    gauss_system,
    inverse_branches,
    periodic_orbits,
)
from .potentials import (
    GAUSS_LOG,
    LINEAR,
    QUAD_CONVEX,
    QUAD_DIRAC,
    QUAD_PERIOD2,
    PotentialSpec,
    gauss_log_potential,
    polynomial_potential,
)
from .thermo import EigenPair, GridFunction, eigen_measure, eigenpair, gamma_estimate, v_beta
from .ergopt import (
    CriticalValue,
    SubactionResult,
    calibrated_subaction,
    critical_value,
    deviation_I,
    lax_oleinik_step,
)
from .involution import (
    KernelSpec,
    TwistMethod,
    TwistReport,
    cocycle_delta,
    cohomology_residual,
    dual_potential,
    example5_kernel,
    example6_kernel,
    fundamental_kernel,
    gauss_log_kernel,
    quadratic_kernel,
    twist_check,
    twist_stability_probe,
)
from .transport import (
    AtomicMeasure,
    CostSpec,
    RochetMode,
    TransportPlan,
    b_function,
    conjugate_transform,
    cyclical_monotonicity_check,
    duality_certificate,
    gamma_from_support,
    graph_check,
    maximizing_extension_measure,
    natural_extension_measure,
    rochet_potential,
    solve_kantorovich,
)
from .presets import PRESETS, Preset, get_preset

__version__ = "0.1.0"
