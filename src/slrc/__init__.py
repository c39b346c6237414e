"""Sequential locally recoverable codes: construction and exhaustive
desk-scale verification over GF(q)."""

from .field import GF
from .mds import MdsLocalMatrix, build_mds_parity, verify_mds
from .designs import (Design, affine_design, complete_graph_design,
                      load_design, validate_design)
from .construct import (CodeShape, ConstructedCode, ConstructionParams,
                        build_parity_check, build_w_star,
                        constructed_from_matrix, expand_m_star)
from .linear import (LinearCode, RepairStep, dual_low_weight, min_distance,
                     puncture, recovery_sets_for)
from .verify import (check_code_structure, check_information_locality,
                     check_sequential, max_sequential_t, rank_report)
from .simulate import (RepairSchedule, campaign, execute_repair,
                       plan_repair, trial_campaign)
from .bounds import (rate_availability_bound, rate_formula, rate_report,
                     rate_resolvable, rate_seq_bound)
from .errors import (ConstructionError, DesignError, FieldError,
                     InfeasibleError, ParameterError, SlrcError)

__version__ = "0.1.0"
