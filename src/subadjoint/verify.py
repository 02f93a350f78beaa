"""Case registry, check orchestration, and report emission.

Check granularity mirrors the structural statements being verified, one
check id per claim, so a failing report localizes a regression.  Every
check is one entry of the table CHECKS: its group (None for the two checks
every run does), the ids it records and a function of the case's
_Context, which returns one dict of record fields per id.  `run` calls the
entries of the selected groups in table order.

Error policy, one rule per kind of error:
- broken input: a ConsistencyError (the input breaks a property the
  construction relies on) records each id of the entry that raised it as
  FAIL with {"error": message}.  The case and g are built inside that
  catch, on the first read, so a case that cannot be built FAILs every
  selected id and its report's dims are empty; `verify` exits 1.
- usage error: an excluded case (CaseExcludedError), an unknown case id
  or check group raise out of `run`, and `verify` exits 3, as it does for
  an unwritable --out.  ProlongDepthError, a `prolongation` deeper than
  its bound, is a usage error of the library; no check raises it.
- any other exception is a bug and propagates out of `run`.

Each record's millis is the time since the previous entry ended, so the
first record, case-dims, includes building the case and g.  Reports are
deterministic for a fixed (case, checks, seed, version); millis are zeroed
in JSON output unless explicitly requested, keeping byte-identical reruns.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from . import __version__
from .cases import (
    CaseExcludedError,
    SubadjointCase,
    build_case,
    check_xvv,
    fundamental_forms,
    highest_weight_roots_of_l1,
    l0_module,
    sample_closed_orbit,
    symplectic_form,
    xvv_core,
    _expected_factors,
)
from .galg import (
    GAlgebra,
    build_g,
    g_jacobi_violations,
    verify_g_module_structure,
    verify_structure_identities,
)
from .liecore import ConsistencyError, _check, check_jacobi
from .linalg import SparseRationalMatrix, span
from .prolong import witness_rank
from .rootsys import _RANK_RANGES
from .spencer import (
    KMIN_SUPPORT,
    CaseTower,
    conjugation_expansion_check,
    g_basis_cI,
    partial_prime_checks,
    q_dimension,
    summand_cI_table,
)

@dataclass(frozen=True)
class CaseDescriptor:
    """Registry row: expected dimensions from the classical formulas."""

    case_id: str
    s_label: str
    dim_V: int
    dim_l1: int
    dim_l: int
    g_dims: tuple            # components g_{-1}..g_3
    l_factors: tuple         # ((type, marked node 1-based), ...)
    note: str
    excluded: bool = False
    exclusion_reason: str = ""

    def __post_init__(self):
        if self.excluded:
            return
        if self.dim_V != 2 * self.dim_l1 + 2:
            raise ValueError(f"{self.case_id}: dim V != 2 dim l_1 + 2")
        if sum(self.g_dims) != 1 + self.dim_l + self.dim_V:
            raise ValueError(f"{self.case_id}: sum of g_dims != 1 + dim l + dim V")


def _so_case(series: str, l: int) -> CaseDescriptor:
    # s = so_{m+4}: B_l has m = 2l - 3, D_l has m = 2l - 4
    m = 2 * l - 3 if series == "B" else 2 * l - 4
    dim_V = 2 * m
    d1 = m - 1
    dim_l = 3 + m * (m - 1) // 2  # l = sl_2 + so_m
    note = {"B3": "line x conic in P5 (m=3)", "D4": "three lines (m=4)"}.get(
        f"{series}{l}", f"line x quadric Q^{m - 2} (m={m})")
    l0 = dim_l - 2 * d1
    return CaseDescriptor(
        case_id=f"{series}{l}", s_label=f"{series}{l}",
        dim_V=dim_V, dim_l1=d1, dim_l=dim_l,
        g_dims=(d1, 2 + l0, 2 * d1, d1, 1),
        l_factors=tuple(_expected_factors(series, l)), note=note,
    )


def _exceptional_case(label: str) -> CaseDescriptor:
    data = {
        "F4": (14, 6, 21, "Lagrangian Grassmannian LG(3,6)"),
        "E6": (20, 9, 35, "Grassmannian Gr(3,6)"),
        "E7": (32, 15, 66, "spinor variety S6"),
        "E8": (56, 27, 133, "27-dim minuscule E7/P7"),
    }[label]
    dim_V, d1, dim_l, note = data
    l0 = dim_l - 2 * d1
    return CaseDescriptor(
        case_id=label, s_label=label, dim_V=dim_V, dim_l1=d1, dim_l=dim_l,
        g_dims=(d1, 2 + l0, 2 * d1, d1, 1),
        l_factors=tuple(_expected_factors(label[0], int(label[1:]))),
        note=note,
    )


def list_cases(rank_ceiling: int = 8) -> list[CaseDescriptor]:
    """Active registry (B3.., D4.., F4, E6, E7, E8) plus the excluded G2 row."""
    out = [_so_case("B", l) for l in range(3, rank_ceiling + 1)]
    out += [_so_case("D", l) for l in range(4, rank_ceiling + 1)]
    out += [_exceptional_case(lab) for lab in ("F4", "E6", "E7", "E8")]
    out.append(CaseDescriptor(
        case_id="G2", s_label="G2", dim_V=4, dim_l1=1, dim_l=3,
        g_dims=(1, 3, 2, 1, 1), l_factors=(("A1", 1),),
        note="twisted cubic case (0)", excluded=True,
        exclusion_reason="twisted cubic case (0): dim V = 4 falls outside "
                         "the verified family",
    ))
    return out


def registry_entry(case_id: str) -> CaseDescriptor:
    """The registry row of case_id, with B and D up to the rank cap that
    `rootsys._RANK_RANGES` sets for both."""
    for c in list_cases(min(_RANK_RANGES[s][1] for s in "BD")):
        if c.case_id == case_id:
            return c
    raise KeyError(f"unknown case id {case_id!r}")


SAMPLES_PER_IDEAL = 10  # orbit points per ideal of the xvv-kernel cross-check


@dataclass
class RunOptions:
    seed: int = 0
    heavy: bool = False


@dataclass
class CheckRecord:
    check_id: str
    status: str                  # PASS | FAIL | INCONCLUSIVE | SKIPPED
    dims: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    millis: int = 0


@dataclass
class VerificationReport:
    case_id: str
    version: str
    checks: list
    dims: dict
    environment: dict
    vacuous: bool = False

    @property
    def status(self) -> str:
        statuses = [c.status for c in self.checks]
        if "FAIL" in statuses:
            return "FAIL"
        if "INCONCLUSIVE" in statuses or "SKIPPED" in statuses:
            return "DEGRADED"
        return "PASS"

    def to_json_dict(self, timings: bool = False) -> dict:
        return {
            "version": self.version,
            "case": self.case_id,
            "status": self.status,
            "vacuous": self.vacuous,
            "dims": _jsonify(self.dims),
            "checks": [
                {
                    "id": c.check_id,
                    "status": c.status,
                    "dims": _jsonify(c.dims),
                    "values": _jsonify(c.values),
                    "witnesses": _jsonify(c.witnesses),
                    "millis": c.millis if timings else 0,
                }
                for c in self.checks
            ],
            "environment": _jsonify(self.environment),
        }


def _jsonify(obj):
    """Rationals become 'p/q' strings; everything else stays JSON-native."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str, float)):
        return obj
    return str(obj)


@dataclass
class _Context:
    """One case as its checks read it.  The case, its g and the pieces
    several checks share are built on first read; a build that raises is
    not kept, so every check that reads it FAILs with the same error."""

    desc: CaseDescriptor
    options: RunOptions

    @cached_property
    def g(self) -> GAlgebra:
        return build_g(build_case(self.desc.case_id))

    @cached_property
    def case(self) -> SubadjointCase:
        # read off g, so that no check reads a case whose g fails to build
        return self.g.case

    @cached_property
    def dims(self) -> dict:
        case, g = self.case, self.g
        return {
            "V": case.dim_V, "l1": case.dim_l1, "l": case.dim_l,
            "V_levels": [list(case.V_root_level.values()).count(j)
                         for j in range(4)],
            "g": [g.component_dims().get(d, 0) for d in (-1, 0, 1, 2, 3)],
            "factors": [c.type_label for c in case.l_components],
        }

    @cached_property
    def forms(self):
        return fundamental_forms(self.case)

    @cached_property
    def tower(self) -> CaseTower:
        return CaseTower(self.g)

    @cached_property
    def cIs(self) -> list:
        return g_basis_cI(self.g)


def run(case_id: str, check_set, options: RunOptions | None = None) -> VerificationReport:
    """Execute the selected checks for one case, in CHECKS order."""
    options = options or RunOptions()
    checks = set(check_set) if check_set else set()
    if "all" in checks:
        checks = set(CHECK_GROUPS)
    unknown = checks - set(CHECK_GROUPS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    desc = registry_entry(case_id)
    if desc.excluded:
        raise CaseExcludedError(f"excluded case: {desc.exclusion_reason}")

    if not checks:
        return VerificationReport(
            case_id=case_id, version=__version__, checks=[], dims={},
            environment={"seed": options.seed, "heavy": options.heavy},
            vacuous=True,
        )

    t0 = time.monotonic()
    ctx = _Context(desc, options)
    records = []
    for group, ids, check in CHECKS:
        if group is not None and group not in checks:
            continue
        try:
            results = check(ctx)
        except ConsistencyError as e:
            results = [{"status": "FAIL", "values": {"error": str(e)}}
                       for _ in ids]
        t1 = time.monotonic()
        millis = int((t1 - t0) * 1000)
        records += [CheckRecord(check_id, millis=millis, **fields)
                    for check_id, fields in zip(ids, results, strict=True)]
        t0 = t1

    env = {
        "seed": options.seed,
        "heavy": options.heavy,
        "convention": "v0 is a lowest weight vector; c(b) from [b, v0] = c(b) v0",
        "weight_claims": "verified at weight level per the cokernel analysis",
    }
    # case-dims, the first record, holds the dims of a case that was built
    return VerificationReport(
        case_id=case_id, version=__version__,
        checks=records,
        dims=records[0].dims,
        environment=env,
        vacuous=not records,
    )


# --------------------------------------------------------------------------
# checks: each returns one dict of CheckRecord fields per id of its entry
# --------------------------------------------------------------------------

def _case_dims(ctx: _Context) -> list[dict]:
    case, desc, dims = ctx.case, ctx.desc, ctx.dims
    ok = (
        case.dim_V == desc.dim_V
        and case.dim_l1 == desc.dim_l1
        and case.dim_l == desc.dim_l
        and tuple(dims["g"]) == desc.g_dims
        and sorted(dims["factors"]) == sorted(t for t, _ in desc.l_factors)
    )
    return [{"status": "PASS" if ok else "FAIL", "dims": dims,
             "values": {"note": desc.note}}]


def _contact_grading(ctx: _Context) -> list[dict]:
    cg = ctx.case.contact.dims()
    ok = cg.get(2) == 1 and cg.get(-2) == 1 and set(cg) == {-2, -1, 0, 1, 2}
    return [{"status": "PASS" if ok else "FAIL",
             "dims": {"s_components": cg}}]


def _jacobi_ambient(ctx: _Context) -> list[dict]:
    viol = check_jacobi(ctx.case.s_table)
    return [{"status": "PASS" if not viol else "FAIL",
             "values": {"violations": len(viol)},
             "witnesses": {"first": viol[:3]} if viol else {}}]


def _sigma_form(ctx: _Context) -> list[dict]:
    case = ctx.case
    sig = symplectic_form(case)
    n = len(sig)
    alternating = all(sig[i][j] == -sig[j][i] for i in range(n) for j in range(n))
    det = SparseRationalMatrix.from_dense(sig).det()
    i0 = case.V_roots.index(case.v0_root)
    osc_ok = all(
        (sig[i0][j] == 0) == (case.V_root_level[v] <= 2)
        for j, v in enumerate(case.V_roots)
    )
    # Lagrangian tangency: sigma(v0, [a, v0]) = 0 for a in l_1 is the level
    # <= 2 part of osc_ok; record it explicitly anyway
    ok = alternating and det != 0 and osc_ok
    return [{"status": "PASS" if ok else "FAIL",
             "values": {"alternating": alternating, "det_nonzero": det != 0,
                        "osculating_hyperplane": osc_ok}}]


def _fundamental_forms(ctx: _Context) -> list[dict]:
    forms = ctx.forms
    d = forms.dim
    sym2 = all(forms.II[a][b] == forms.II[b][a] for a in range(d) for b in range(d))
    sym3 = all(
        forms.III[a][b][c] == forms.III[b][a][c] == forms.III[a][c][b]
        for a in range(d) for b in range(d) for c in range(d)
    )
    # III as a map l_1 -> Hom(S^2 l_1, C): its column a is III(a, ., .)
    iii_kernel = len(SparseRationalMatrix.from_columns(
        [{(b, c): forms.III[a][b][c] for b in range(d) for c in range(d)}
         for a in range(d)]).kernel())
    beta_det = SparseRationalMatrix.from_dense(forms.beta).det()
    compat = all(
        sum(forms.II[a2][a3][w] * forms.beta[w][a1]
            for w in range(len(forms.V2_roots))) == forms.III[a1][a2][a3]
        for a1 in range(d) for a2 in range(d) for a3 in range(d)
    )
    ok = sym2 and sym3 and iii_kernel == 0 and beta_det != 0 and compat
    return [{"status": "PASS" if ok else "FAIL",
             "dims": {"l1": d, "iii_kernel": iii_kernel},
             "values": {"ii_symmetric": sym2, "iii_symmetric": sym3,
                        "beta_det_nonzero": beta_det != 0,
                        "beta_iii_compatible": compat}}]


def _base_locus_samples(ctx: _Context) -> list[dict]:
    """II and III vanish on the closed orbits, decided at each ideal's
    highest weight vector hw_i, a basis vector: II(hw_i, hw_i) is
    forms.II[p][p] and III(hw_i, hw_i, hw_i) is forms.III[p][p][p].

    Lemma.  Let Q(b) = II(b, b) = [b, [b, v0]] or III(b, b, b).  Each x in
    l_0 has [x, v0] = c(x) v0 (the line stabilizer comparison of
    `build_case`), so g = exp(ad tx) is an automorphism of s (Jacobi on
    s, `jacobi-ambient`) with g v0 = e^{t c(x)} v0 and Q(g b) =
    e^{-t c(x)} g Q(b).  So Q vanishes on the cone over L_0 hw_i exactly
    when Q(hw_i) = 0.  That orbit is the closed orbit in P(ideal_i) when
    hw_i generates ideal_i as an l_0-module (Borel-Weil: the closed orbit
    of an irreducible module is the orbit of its highest weight line).
    """
    case, forms = ctx.case, ctx.forms
    hw = highest_weight_roots_of_l1(case)
    at = [forms.l1_roots.index(r) for r in hw]
    iii_null = all(forms.III[p][p][p] == 0 for p in at)
    ii_null_flags = [not any(forms.II[p][p]) for p in at]
    dim = case.s_table.dim
    gen_ok = all(
        l0_module(case, case.e(r)) == span(
            dim, (case.e(x) for x in case.l1_roots()
                  if case.ideal_of_root(x) == ci))
        for ci, r in enumerate(hw))
    is_ii1 = case.s_label == "B3"
    if is_ii1:
        dvals = {}
        for ci in range(len(hw)):
            m = [mm for mm in case.marked if case._node_comp[mm] == ci][0]
            dvals[ci] = case.embedding_weight.coords[m]
        # line factor (degree 1) lies in the base locus of II, the conic
        # factor does not: the strict inclusion of the (ii-1) row
        ii_ok = all(
            ii_null_flags[ci] == (dvals[ci] == 1) for ci in range(len(hw))
        )
    else:
        ii_ok = all(ii_null_flags)
    ok = iii_null and ii_ok and gen_ok
    return [{"status": "PASS" if ok else "FAIL",
             "values": {"iii_vanishes_at_hw": iii_null,
                        "ii_pattern_ok": ii_ok,
                        "hw_generates_each_ideal": gen_ok,
                        "strictness_case": is_ii1}}]


def _xvv_kernel(ctx: _Context) -> list[dict]:
    # the status is the l_0-stable core's (`xvv_core`); the sampled kernel
    # contains it and is a cross-check only
    case = ctx.case
    core = xvv_core(case)
    sampled = check_xvv(
        case, sample_closed_orbit(case, SAMPLES_PER_IDEAL, ctx.options.seed))
    return [{"status": "PASS" if core.dim == 0 else "FAIL",
             "dims": {"kernel": core.dim},
             "values": {"dim_K_hw": core.dim_K_hw,
                        "core_rounds": core.rounds,
                        "samples": sampled.samples_used,
                        "budget_per_ideal": SAMPLES_PER_IDEAL,
                        "sampled_kernel": sampled.kernel_dim}}]


def _g_jacobi(ctx: _Context) -> list[dict]:
    viol = g_jacobi_violations(ctx.g)
    return [{"status": "PASS" if not viol else "FAIL",
             "values": {"violations": len(viol)}}]


def _g_dims(ctx: _Context) -> list[dict]:
    dims = ctx.g.component_dims()
    ok = tuple(dims.get(d, 0) for d in (-1, 0, 1, 2, 3)) == ctx.desc.g_dims
    return [{"status": "PASS" if ok else "FAIL",
             "dims": {"components": dims}}]


def _identities(ctx: _Context) -> list[dict]:
    return [{"status": c.status, "values": c.detail}
            for c in verify_structure_identities(ctx.g)]


def _module_structure(ctx: _Context) -> list[dict]:
    return [{"status": c.status, "values": c.detail}
            for c in verify_g_module_structure(ctx.g)]


def _est_expansion(ctx: _Context) -> list[dict]:
    er = conjugation_expansion_check(ctx.g)
    return [{"status": er.status,
             "values": {"argument_degrees": er.argument_degrees,
                        "value_degrees": er.value_degrees}}]


def _prolong_dims(ctx: _Context) -> list[dict]:
    # level k of the tower is C^{-k,1}: the first prolongation is
    # dim C^{-1,1} - rank del, the second dim C^{-2,1} - rank del
    g, tower = ctx.g, ctx.tower
    dminus1 = g.component_dims()[-1]
    tower.tower.validate()
    _check(all(tower.passes),
           "witness map fails the compatibility equation at level 1")
    q1, q2 = (q_dimension(g, k, tower) for k in (-1, -2))
    p1, p2 = q1.dim_C1 - q1.rank, q2.dim_C1 - q2.rank
    ok = p1 == dminus1 and p2 == 0
    return [{"status": "PASS" if ok else "FAIL",
             "dims": {"p_minus_1": p1, "p_minus_2": p2,
                      "expected_p1": dminus1},
             "values": {"stopped_early": {1: q1.stopped_early,
                                          2: q2.stopped_early}}}]


def _prolong_ad_witnesses(ctx: _Context) -> list[dict]:
    tower = ctx.tower
    dminus1 = ctx.g.component_dims()[-1]
    wits_ok = all(tower.passes)
    # when every witness passes, the cocycle rank is the rank of them all
    wrank = tower.cocycle_rank if wits_ok else witness_rank(tower.witnesses)
    ok = wrank == dminus1 and wits_ok
    return [{"status": "PASS" if ok else "FAIL",
             "dims": {"witness_rank": wrank, "dim_g_minus_1": dminus1},
             "values": {"witnesses_satisfy_compatibility": wits_ok}}]


def _spencer_cocycle_ad(ctx: _Context) -> list[dict]:
    # del(ad x) = 0 for x in g_{-1}: each ad witness solves level 1 of the
    # tower of g, which is C^{-1,1}; the ones that do bound ker del there
    return [{"status": "PASS" if all(ctx.tower.passes) else "FAIL"}]


def _restricted_differentials(ctx: _Context) -> list[dict]:
    rep = partial_prime_checks(ctx.g, ctx.tower)
    return [{"status": rep.status,
             "dims": {"dim_hom_V2_l1": rep.dim_hom,
                      "rank_prime": rep.rank_prime,
                      "target_prime": rep.dim_target_prime,
                      "nullity_doubleprime": rep.nullity_doubleprime},
             "values": {"pairing_perfect": rep.pairing_nondegenerate}}]


def _spencer_qdim(ctx: _Context) -> list[dict]:
    # ker del on C^{k,1} is the (-k)-th prolongation, so the ranks are forced
    g = ctx.g
    dminus1 = g.component_dims()[-1]
    qs = [q_dimension(g, k, ctx.tower) for k in range(KMIN_SUPPORT - 1, 0)]
    ok = all(q.rank == q.expected_rank(dminus1) for q in qs)
    return [{"status": "PASS" if ok else "FAIL",
             "values": {"q_dims": {q.k: q.value for q in qs},
                        "ranks": {q.k: q.rank for q in qs},
                        "dim_C1": {q.k: q.dim_C1 for q in qs}}}]


def _cI_embedding_weight(ctx: _Context) -> list[dict]:
    case = ctx.case
    cI_star = sum(
        (case.embedding_weight_simple.coords[i] for i in case.marked),
        Fraction(0),
    )
    return [{"status": "PASS" if cI_star == Fraction(3, 2) else "FAIL",
             "values": {"cI_omega_star": cI_star}}]


def _cI_components(ctx: _Context) -> list[dict]:
    g, cIs = ctx.g, ctx.cIs
    comp_ok = True
    got = {}
    for j, idxs in (("l_-1", g.lminus1_indices), ("l_1", g.l1_indices)):
        vals = sorted({cIs[i] for i in idxs})
        got[f"cI({j})"] = vals
        comp_ok = comp_ok and vals == [Fraction(-1 if j == "l_-1" else 1)]
    vals = sorted({cIs[i] for i in g.l0_indices})
    got["cI(l_0)"] = vals
    comp_ok = comp_ok and vals == [Fraction(0)]
    for j in range(4):
        vals = sorted({cIs[i] for i in g.V_level_indices[j]})
        got[f"cI(V_{j})"] = vals
        comp_ok = comp_ok and vals == [Fraction(j) - Fraction(3, 2)]
    return [{"status": "PASS" if comp_ok else "FAIL", "values": got}]


def _cI_six_families(ctx: _Context) -> list[dict]:
    all_ok = True
    offenders = []
    per_k = {}
    for k in range(KMIN_SUPPORT - 1, 0):
        tab = summand_cI_table(ctx.g, k, ctx.cIs)
        per_k[k] = {
            "status": tab.status,
            "families": [
                {"name": d.name, "index": d.index, "dim": d.dim,
                 "cI": list(d.cI_values)}
                for d in tab.descriptors if d.dim > 0
            ],
        }
        if tab.status != "PASS":
            all_ok = False
            offenders.extend(tab.offending)
    return [{"status": "PASS" if all_ok else "FAIL",
             "values": {"per_k": per_k},
             "witnesses": {"offending": offenders} if offenders else {}}]


# (group, or None for the checks every run does; the ids the entry records;
# the check), in report order
CHECKS = (
    (None, ("case-dims",), _case_dims),
    (None, ("contact-grading",), _contact_grading),
    ("jacobi", ("jacobi-ambient",), _jacobi_ambient),
    ("forms", ("sigma-form",), _sigma_form),
    ("forms", ("fundamental-forms",), _fundamental_forms),
    ("forms", ("base-locus-samples",), _base_locus_samples),
    ("xvv", ("xvv-kernel",), _xvv_kernel),
    ("gstructure", ("g-jacobi",), _g_jacobi),
    ("gstructure", ("g-dims",), _g_dims),
    ("gstructure", ("identity-eII-coefficients",
                    "identity-v1-annihilator-of-v2",
                    "identity-l1-V1-intersection",
                    "identity-v0-bracket-image",
                    "identity-a-squared-zero",
                    "identity-a-level-shift"), _identities),
    ("gstructure", ("ad-g0-faithful-on-g1", "g0-preserves-tensor-split",
                    "c-functional"), _module_structure),
    ("gstructure", ("est-expansion",), _est_expansion),
    ("prolong", ("prolong-dims",), _prolong_dims),
    ("prolong", ("prolong-ad-witnesses",), _prolong_ad_witnesses),
    ("spencer", ("spencer-cocycle-ad",), _spencer_cocycle_ad),
    ("spencer", ("restricted-differentials",), _restricted_differentials),
    ("spencer", ("spencer-qdim",), _spencer_qdim),
    ("weights", ("cI-embedding-weight",), _cI_embedding_weight),
    ("weights", ("cI-components",), _cI_components),
    ("weights", ("cI-six-families",), _cI_six_families),
)
CHECK_GROUPS = tuple(dict.fromkeys(grp for grp, _, _ in CHECKS if grp))


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------

def emit(reports, fmt: str = "text", timings: bool = False) -> str:
    """Render one or more reports; JSON output is byte-stable."""
    if isinstance(reports, VerificationReport):
        reports = [reports]
    reports = sorted(reports, key=lambda r: r.case_id)
    if fmt == "json":
        payload = [r.to_json_dict(timings=timings) for r in reports]
        doc = payload[0] if len(payload) == 1 else payload
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    for r in reports:
        lines.append(f"case {r.case_id}  [{r.status}]"
                     + ("  (vacuous)" if r.vacuous else ""))
        lines.append(f"  dims: V={r.dims.get('V')} l1={r.dims.get('l1')} "
                     f"l={r.dims.get('l')} g={r.dims.get('g')}")
        lines.append(f"  factors: {' + '.join(r.dims.get('factors', []))}")
        for c in r.checks:
            extra = ""
            if c.dims:
                extra += " " + _compact(c.dims)
            if c.values:
                extra += " " + _compact(c.values)
            ms = f" [{c.millis} ms]" if timings else ""
            lines.append(f"  {c.status:<12} {c.check_id}{ms}{extra}")
        lines.append(f"  seed={r.environment.get('seed')}")
        lines.append("")
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    lines.append("summary: " + ", ".join(
        f"{v} {k}" for k, v in sorted(counts.items())
    ))
    return "\n".join(lines) + "\n"


def _compact(d: dict, limit: int = 100) -> str:
    s = json.dumps(_jsonify(d), sort_keys=True)
    return s if len(s) <= limit else s[: limit - 3] + "..."


def exit_code(reports) -> int:
    """0 all PASS, 1 any FAIL, 2 degradations only."""
    if isinstance(reports, VerificationReport):
        reports = [reports]
    statuses = {r.status for r in reports}
    if "FAIL" in statuses:
        return 1
    if "DEGRADED" in statuses:
        return 2
    return 0
