"""capmink: capillary L_p dual Minkowski problem on the spherical cap.

Finite-difference Newton/homotopy solver for
``det(hess h + h I) = f h^(p-1) (h^2 + |grad h|^2)^((3-q)/2)`` with the Robin
condition ``h_mu = cot(theta) h``, plus ellipsoid-cap algebra, a John-type
sandwich certificate, and a-priori-estimate monitors.
"""

from .errors import (
    ApplicabilityError,
    CapminkError,
    ConfigError,
    ConvexityError,
    DomainError,
    UsageError,
    WedgeError,
)
from .grid import (
    BodyExtents,
    CapGeometry,
    CurvatureData,
    EmbeddedBody,
    ScalarField,
    build_grid,
    curvature_tensor,
    ell_field,
    ell_grad_sq,
    embed_body,
    evenness_defect,
    robin_residual,
)
from .ellipsoid import (
    EllipsoidCap,
    cap_from_RH,
    cap_support,
    make_cap,
)
from .john import SandwichReport, height_ratio_check, john_construct, verify_sandwich
from .monitors import (
    C0BoundReport,
    GradientQuotientReport,
    NonCollapseReport,
    PhiMonitorReport,
    QMonitorReport,
    c0_bound_check,
    gradient_quotient,
    noncollapse_check,
    phi_monitor,
    q_monitor,
)
from .solver import (
    NewtonTrace,
    PqLimitResult,
    ProblemSpec,
    SolveResult,
    SolverConfig,
    continuation_solve,
    ell_bump_f_exact,
    ell_bump_field,
    manufactured_f,
    newton_solve,
    pq_limit_solve,
    pq_residual,
    residual_h,
    residual_u,
    uniqueness_probe,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
