"""Matrix-free edge-preserving reconstruction of dynamic inverse problems."""

from .exceptions import ConfigError, SingularSystemError, SolverError
from .forward import (
    BlurModel,
    RadonModel,
    assemble_dynamic_forward,
    build_blur_operator,
    build_radon_operator,
    medium_blur,
    radon_angles,
)
from .metrics import QualityReport, build_report, rre, rre_per_frame, ssim
from .operators import LinearOperator, tensor, vec
from .paramselect import default_lambda_grid
from .phantom import (
    NoiseSpec,
    SceneObject,
    SceneSpec,
    add_noise,
    linear_trajectory,
    moving_disks_scene,
    render_scene,
)
from .regularization import METHOD_NAMES, Method, RegularizerSpec, StaticTVSpec
from .solver import (
    IterationRecord,
    ReconstructionProblem,
    SolveResult,
    SolverConfig,
    mm_gks_solve,
)

__version__ = "0.1.0"
