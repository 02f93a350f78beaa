"""Exact computational toolkit for subadjoint-variety Lie algebras.

Everything is exact rational arithmetic, and every verdict comes from
exact sparse elimination.  Typical use:

    from subadjoint import build_case, build_g, run

    report = run("B3", {"all"})
    case = build_case("F4")
    g = build_g(case)
"""

__version__ = "0.1.0"

from .cases import (  # noqa: F401
    CaseExcludedError,
    SubadjointCase,
    build_case,
    check_xvv,
    fundamental_forms,
    sample_closed_orbit,
    symplectic_form,
)
from .galg import GAlgebra, build_g, operator_a  # noqa: F401
from .liecore import (  # noqa: F401
    Grading,
    LieAlgebraTable,
    Subspace,
    check_jacobi,
    contact_grading,
    grade_by_element,
    line_stabilizer,
)
from .prolong import (  # noqa: F401
    ProlongInput,
    ProlongResult,
    direct_sum_check,
    formal_vector_field_oracle,
    prolongation,
    sl2_adjoint_check,
)
from .rootsys import (  # noqa: F401
    RootSystem,
    WeightVector,
    build_root_system,
    chevalley_table,
    to_fundamental_coords,
    to_simple_root_coords,
)
from .spencer import (  # noqa: F401
    hom_decomposition,
    partial_prime_checks,
    q_dimension,
    spencer_differential,
    summand_cI_table,
)
from .verify import RunOptions, emit, list_cases, run  # noqa: F401
