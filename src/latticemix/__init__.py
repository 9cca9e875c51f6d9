"""Mixing-time laboratory for classical and quantum walks on periodic lattices.

The package builds exact spectral amplitudes and measurement kernels for
cycles and their products, total-variation mixing diagnostics, the lazy
classical walk with its coupling certificate, oscillatory-sum integrals with
their analytic bounds, and the end-to-end mixing experiments that tie these
together.  A small CLI (``latticemix``) exposes each experiment with
reproducible CSV/JSON/SVG output.
"""

__version__ = "0.1.0"

from .classical import (
    CouplingResult,
    coupling_simulation,
    lazy_curves,
    lazy_kernel,
    lazy_mixing_bound,
)
from .distances import (
    column_mass_bound,
    distance_to_uniform,
    epsilon_mixing_time,
    pairwise_column_distance,
    rounds_to_threshold,
    tv_distance,
    uniform,
)
from .errors import ParityError, ResolutionError, SizeError
from .experiments import (
    ExperimentRecord,
    coordinate_wise_run,
    repeated_measurement_run,
    return_probability_curves,
    spread_constant,
    uniformity_case_check,
)
from .kernels import (
    Kernel,
    averaged_kernel_analytic,
    averaged_kernel_quadrature,
    averaged_return_probability,
    identity_kernel,
    instantaneous_kernel,
    kernel_power,
)
from .oscsums import (
    bound_sweep,
    coprime_odd_pairs,
    integrated_osc_bound,
    integrated_osc_sum,
    product_integral_bound,
    product_integral_exact,
    sample_coprime_odd_pairs,
)
from .spectral import (
    FULL,
    HALF,
    ClassTable,
    LatticeSpec,
    class_table,
    cycle_amplitude,
    product_amplitude,
    spectral_gap,
)
