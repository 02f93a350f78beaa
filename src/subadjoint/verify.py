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
  (KeyError, both from `active_entry`) or check group raise out of `run`.
  `verify` resolves every case id before the first case runs and exits 3,
  as it does for an unwritable --out.
- any other exception is a bug and propagates out of `run`.

This module is the one place that decides a check: galg, spencer and
cases return facts (ranks, dimensions, flags), and each check here turns
them into its status, PASS or FAIL.  A report FAILs when one of its
records does, and `verify` then exits 1, else 0.  The pieces several
checks share, the tower of g among them, are built once per case in
`_Context`.

An entry's millis is the time since the previous entry ended, so the
first record, case-dims, includes building the case and g.  The entry's
first id carries it and its other ids carry 0, so summed millis count
each entry once.  Reports are deterministic for a fixed (case, checks,
seed, version); millis are zeroed in JSON output unless explicitly
requested, keeping byte-identical reruns.
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
    sample_closed_orbit,
    symplectic_form,
    xvv_core,
    _expected_factors,
    _l0_basis,
)
from .galg import (
    GAlgebra,
    build_g,
    g_jacobi_violations,
    verify_g_module_structure,
    verify_structure_identities,
)
from .liecore import ConsistencyError, _check, bracket_closure, check_jacobi
from .linalg import SparseRationalMatrix, span
from .prolong import _Tower, g_tower, residual_is_zero, witness_rank
from .rootsys import _RANK_RANGES, chevalley_generators
from .spencer import (
    KMIN_SUPPORT,
    QDimension,
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
    dim_V: int
    dim_l1: int
    dim_l: int
    g_dims: tuple            # components g_{-1}..g_3
    l_factors: tuple         # ((type, marked node 1-based), ...)
    note: str
    excluded: bool = False
    exclusion_reason: str = ""

    def __post_init__(self):
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
        case_id=f"{series}{l}", dim_V=dim_V, dim_l1=d1, dim_l=dim_l,
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
        case_id=label, dim_V=dim_V, dim_l1=d1, dim_l=dim_l,
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
        case_id="G2", dim_V=4, dim_l1=1, dim_l=3,
        g_dims=(1, 3, 2, 1, 1), l_factors=tuple(_expected_factors("G", 2)),
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


def active_entry(case_id: str) -> CaseDescriptor:
    """The registry row of a case `run` verifies.  Raises KeyError for an
    unknown id and CaseExcludedError for an excluded case."""
    desc = registry_entry(case_id)
    if desc.excluded:
        raise CaseExcludedError(f"excluded case: {desc.exclusion_reason}")
    return desc


SAMPLES_PER_IDEAL = 10  # orbit points per ideal of the xvv-kernel cross-check


@dataclass
class CheckRecord:
    check_id: str
    status: str                  # PASS | FAIL
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
        """FAIL if any record FAILs, else PASS (a vacuous report too)."""
        return "FAIL" if any(c.status == "FAIL" for c in self.checks) else "PASS"

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
    """One case as its checks read it, and the one cache of a run.  The
    case, its g and the pieces several checks share are built on first
    read; a build that raises is not kept, so every check that reads it
    FAILs with the same error."""

    desc: CaseDescriptor
    seed: int
    qdims: dict = field(default_factory=dict, init=False)  # k -> `qdim(k)`

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
    def tower(self) -> _Tower:
        return g_tower(self.g)

    @cached_property
    def ad_passes(self) -> list[bool]:
        """Whether each ad witness of level 1 of the tower (C^{-1,1})
        satisfies the compatibility equation, i.e. is a cocycle."""
        return [residual_is_zero(self.tower, 1, phi)
                for phi in self.tower.bases[1]]

    @cached_property
    def cocycle_rank(self) -> int:
        """The rank of the ad witnesses that are cocycles."""
        return witness_rank([phi for phi, ok in
                             zip(self.tower.bases[1], self.ad_passes) if ok])

    def qdim(self, k: int) -> QDimension:
        """`q_dimension` at degree k, solved once per case; its floor is the
        cocycle rank at k = -1 and 0 below."""
        if k not in self.qdims:
            floor = self.cocycle_rank if k == -1 else 0
            self.qdims[k] = q_dimension(self.g, k, self.tower, floor)
        return self.qdims[k]

    @cached_property
    def cIs(self) -> list:
        return g_basis_cI(self.g)


def run(case_id: str, check_set, seed: int = 0) -> VerificationReport:
    """Execute the selected checks for one case, in CHECKS order; the seed
    feeds only the sampled cross-check of xvv-kernel."""
    checks = set(check_set) if check_set else set()
    unknown = checks - set(CHECK_GROUPS) - {"all"}
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if "all" in checks:
        checks = set(CHECK_GROUPS)
    desc = active_entry(case_id)

    if not checks:
        return VerificationReport(
            case_id=case_id, version=__version__, checks=[], dims={},
            environment={"seed": seed},
            vacuous=True,
        )

    t0 = time.monotonic()
    ctx = _Context(desc, seed)
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
        millis = [int((t1 - t0) * 1000)] + [0] * (len(ids) - 1)
        records += [CheckRecord(check_id, millis=ms, **fields)
                    for check_id, ms, fields in zip(ids, millis, results,
                                                    strict=True)]
        t0 = t1

    env = {
        "seed": seed,
        "convention": "v0 is a lowest weight vector; c(b) from [b, v0] = c(b) v0",
        "weight_claims": "verified at weight level per the cokernel analysis",
    }
    # case-dims, the first record, holds the dims of a case that was built
    return VerificationReport(
        case_id=case_id, version=__version__,
        checks=records,
        dims=records[0].dims,
        environment=env,
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
    viol = check_jacobi(ctx.case.s_table, chevalley_generators(ctx.case.rs))
    return [{"status": "PASS" if not viol else "FAIL",
             "values": {"violations": len(viol)},
             "witnesses": {"first": viol[:3]} if viol else {}}]


def _sigma_form(ctx: _Context) -> list[dict]:
    case = ctx.case
    # sigma is alternating by construction: bracket_basis reads (j, i) as
    # the negated (i, j) entry of the table
    sig = symplectic_form(case)
    det = SparseRationalMatrix.from_dense(sig).det()
    i0 = case.V_roots.index(case.v0_root)
    osc_ok = all(
        (sig[i0][j] == 0) == (case.V_root_level[v] <= 2)
        for j, v in enumerate(case.V_roots)
    )
    # Lagrangian tangency, sigma(v0, [a, v0]) = 0 for a in l_1, is the
    # level <= 2 part of osc_ok
    ok = det != 0 and osc_ok
    return [{"status": "PASS" if ok else "FAIL",
             "values": {"det_nonzero": det != 0,
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
    # III = beta o II holds by construction: III(a, b, c) is the V_3
    # coefficient of [a, II(b, c)], II(b, c) lies in V_2, and the bracket
    # is bilinear
    beta_det = SparseRationalMatrix.from_dense(forms.beta).det()
    ok = sym2 and sym3 and iii_kernel == 0 and beta_det != 0
    return [{"status": "PASS" if ok else "FAIL",
             "dims": {"l1": d, "iii_kernel": iii_kernel},
             "values": {"ii_symmetric": sym2, "iii_symmetric": sym3,
                        "beta_det_nonzero": beta_det != 0}}]


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
    s, l0 = case.s_table, _l0_basis(case)
    gen_ok = all(
        bracket_closure(s, l0, [case.e(r)]) == span(
            s.dim, (case.e(x) for x in case.l1_roots()
                    if case.ideal_of_root(x) == ci))
        for ci, r in enumerate(hw))
    is_ii1 = case.s_label == "B3"
    if is_ii1:
        dvals = {}
        for ci in range(len(hw)):
            m = [mm for mm in case.marked if case._node_comp[mm] == ci][0]
            dvals[ci] = case.embedding_weight[m]
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
    points = sample_closed_orbit(case, SAMPLES_PER_IDEAL, ctx.seed)
    return [{"status": "PASS" if core.dim == 0 else "FAIL",
             "dims": {"kernel": core.dim},
             "values": {"dim_K_hw": core.dim_K_hw,
                        "core_rounds": core.rounds,
                        "samples": len(points),
                        "budget_per_ideal": SAMPLES_PER_IDEAL,
                        "sampled_kernel": check_xvv(case, points)}}]


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
    return [{"status": "PASS" if holds else "FAIL", "values": detail}
            for holds, detail in verify_structure_identities(ctx.g)]


def _module_structure(ctx: _Context) -> list[dict]:
    return [{"status": "PASS" if holds else "FAIL", "values": detail}
            for holds, detail in verify_g_module_structure(ctx.g)]


def _est_expansion(ctx: _Context) -> list[dict]:
    holds, args, values = conjugation_expansion_check(ctx.g)
    return [{"status": "PASS" if holds else "FAIL",
             "values": {"argument_degrees": args, "value_degrees": values}}]


def _prolong_dims(ctx: _Context) -> list[dict]:
    # level k of the tower is C^{-k,1}: the first prolongation is
    # dim C^{-1,1} - rank del, the second dim C^{-2,1} - rank del
    dminus1 = ctx.g.component_dims()[-1]
    passes = ctx.ad_passes
    ctx.tower.validate()
    _check(all(passes),
           "witness map fails the compatibility equation at level 1")
    q1, q2 = ctx.qdim(-1), ctx.qdim(-2)
    p1, p2 = q1.dim_C1 - q1.rank, q2.dim_C1 - q2.rank
    ok = p1 == dminus1 and p2 == 0
    return [{"status": "PASS" if ok else "FAIL",
             "dims": {"p_minus_1": p1, "p_minus_2": p2,
                      "expected_p1": dminus1},
             "values": {"stopped_early": {1: q1.stopped_early,
                                          2: q2.stopped_early}}}]


def _prolong_ad_witnesses(ctx: _Context) -> list[dict]:
    dminus1 = ctx.g.component_dims()[-1]
    wits_ok = all(ctx.ad_passes)
    # when every witness passes, the cocycle rank is the rank of them all
    wrank = ctx.cocycle_rank if wits_ok else witness_rank(ctx.tower.bases[1])
    ok = wrank == dminus1 and wits_ok
    return [{"status": "PASS" if ok else "FAIL",
             "dims": {"witness_rank": wrank, "dim_g_minus_1": dminus1},
             "values": {"witnesses_satisfy_compatibility": wits_ok}}]


def _spencer_cocycle_ad(ctx: _Context) -> list[dict]:
    # del(ad x) = 0 for x in g_{-1}: each ad witness solves level 1 of the
    # tower of g, which is C^{-1,1}; the ones that do bound ker del there
    return [{"status": "PASS" if all(ctx.ad_passes) else "FAIL"}]


def _restricted_differentials(ctx: _Context) -> list[dict]:
    # del' surjective, del'' injective, the pairing l_1 x V_2 -> V_3 perfect
    rep = partial_prime_checks(ctx.g, ctx.tower)
    ok = (rep.rank_prime == rep.dim_target_prime
          and rep.nullity_doubleprime == 0 and rep.pairing_nondegenerate)
    return [{"status": "PASS" if ok else "FAIL",
             "dims": {"dim_hom_V2_l1": rep.dim_hom,
                      "rank_prime": rep.rank_prime,
                      "target_prime": rep.dim_target_prime,
                      "nullity_doubleprime": rep.nullity_doubleprime},
             "values": {"pairing_perfect": rep.pairing_nondegenerate}}]


def _spencer_qdim(ctx: _Context) -> list[dict]:
    # ker del on C^{k,1} is the (-k)-th prolongation, g_{-1} at k = -1 and
    # 0 below, so the ranks are forced
    dminus1 = ctx.g.component_dims()[-1]
    qs = [ctx.qdim(k) for k in range(KMIN_SUPPORT - 1, 0)]
    ok = all(q.rank == q.dim_C1 - (dminus1 if q.k == -1 else 0) for q in qs)
    return [{"status": "PASS" if ok else "FAIL",
             "values": {"q_dims": {q.k: q.value for q in qs},
                        "ranks": {q.k: q.rank for q in qs},
                        "dim_C1": {q.k: q.dim_C1 for q in qs}}}]


def _cI_embedding_weight(ctx: _Context) -> list[dict]:
    case = ctx.case
    cI_star = sum(
        (case.embedding_weight_simple[i] for i in case.marked),
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
    offenders = []
    per_k = {}
    for k in range(KMIN_SUPPORT - 1, 0):
        pieces, bad = summand_cI_table(ctx.g, k, ctx.cIs)
        per_k[k] = {
            "status": "FAIL" if bad else "PASS",
            "families": [
                {"name": d.name, "index": d.index, "dim": d.dim,
                 "cI": list(d.cI_values)}
                for d in pieces if d.dim > 0
            ],
        }
        offenders.extend(bad)
    return [{"status": "FAIL" if offenders else "PASS",
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
    """1 if any report FAILs, else 0."""
    if isinstance(reports, VerificationReport):
        reports = [reports]
    return int(any(r.status == "FAIL" for r in reports))
