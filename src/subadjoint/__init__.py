"""Exact computational toolkit for subadjoint-variety Lie algebras.

Everything is exact rational arithmetic, and every verdict comes from
exact sparse elimination.  The package is the verifier behind the
`verify` command; the reference computations that only the tests use
(formal vector fields, sl2, direct sums, weight conversions) live in
tests/oracles.py.  Typical use:

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
    check_jacobi,
    contact_grading,
    grade_by_element,
    line_stabilizer,
)
from .prolong import (  # noqa: F401
    ProlongInput,
    ProlongResult,
    prolongation,
)
from .rootsys import (  # noqa: F401
    RootSystem,
    build_root_system,
    chevalley_table,
)
from .spencer import (  # noqa: F401
    hom_decomposition,
    partial_prime_checks,
    q_dimension,
    spencer_differential,
    summand_cI_table,
)
from .verify import emit, list_cases, run  # noqa: F401
