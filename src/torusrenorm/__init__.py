"""Renormalisation engine for analytic vector fields on the 2-torus.

The one-step operator rescales a field by the shift matrix of its
frequency slope's continued-fraction expansion, eliminates the
far-from-resonance Fourier modes by a change of coordinates, and
normalises the average.  Iterating it along the expansion contracts
perturbations of diophantine constant fields.
"""

from .errors import (
    ConeViolation,
    ConfigInvalid,
    DomainError,
    DomainExceeded,
    IndexOutOfRange,
    NoConvergence,
    PoleAtInput,
    PrecisionExhausted,
    SingularJacobian,
    ZeroInput,
)
from .fourier_field import (
    FarResonant,
    FourierVectorField,
    Kappa,
    load_field,
    norm_prime_r,
    norm_r,
    project,
    save_field,
    winding_ratio,
)
from .normalization_step import (
    TorusMap,
    compose_pullback,
    eliminate_far_perturbation,
)
from .number_theory import (
    CFExpansion,
    GL2Z,
    QuadraticNumber,
    Slope,
    act_on_slope,
    cf_expand,
    convergent_matrices,
    diophantine_probe,
    gauss_step,
    t_matrix,
)
from .renorm_driver import (
    RenormParams,
    RenormState,
    constant_block,
    lambda_jn,
    one_step,
    quadratic_remainder_probe,
    renorm_orbit,
    stable_decay_probe,
    winding_cone_check,
)
from .scaling_step import (
    cone_containment_certificate,
    operator_norm_bound,
    scale_step,
)

__version__ = "0.1.0"
