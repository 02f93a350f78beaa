"""Case registry, check orchestration, and report emission.

Check granularity mirrors the structural statements being verified, one
check id per claim, so a failing report localizes a regression.  Reports
are deterministic for a fixed (case, checks, seed, version); wall
times are measured but zeroed in JSON output unless explicitly requested,
keeping byte-identical reruns.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .cases import (
    CaseConsistencyError,
    CaseExcludedError,
    build_case,
    check_xvv,
    fundamental_forms,
    highest_weight_roots_of_l1,
    ii_value,
    iii_value,
    sample_closed_orbit,
    symplectic_form,
    _check,
)
from .galg import (
    build_g,
    g_jacobi_violations,
    verify_g_module_structure,
    verify_structure_identities,
)
from .liecore import check_jacobi
from .linalg import RrefBasis, SparseRationalMatrix
from .prolong import ProlongConsistencyError, witness_rank
from .spencer import (
    KMIN_SUPPORT,
    CaseTower,
    conjugation_expansion_check,
    g_basis_cI,
    partial_prime_checks,
    q_dimension,
    summand_cI_table,
)

CHECK_GROUPS = ("jacobi", "forms", "xvv", "gstructure", "prolong",
                "spencer", "weights")


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
    if series == "B":
        if l == 3:
            factors = (("A1", 1), ("A1", 1))
            dim_quad = 3
            note = "line x conic in P5 (m=3)"
        else:
            factors = (("A1", 1), (f"B{l - 2}", 1))
            dim_quad = (2 * l - 3) * (2 * l - 4) // 2
            note = f"line x quadric Q^{m - 2} (m={m})"
    else:
        if l == 4:
            factors = (("A1", 1), ("A1", 1), ("A1", 1))
            dim_quad = 6
            note = "three lines (m=4)"
        elif l == 5:
            factors = (("A1", 1), ("A3", 2))
            dim_quad = 15
            note = f"line x quadric Q^{m - 2} (m={m})"
        else:
            factors = (("A1", 1), (f"D{l - 2}", 1))
            dim_quad = (2 * l - 4) * (2 * l - 5) // 2
            note = f"line x quadric Q^{m - 2} (m={m})"
    dim_l = 3 + dim_quad
    l0 = dim_l - 2 * d1
    return CaseDescriptor(
        case_id=f"{series}{l}", s_label=f"{series}{l}",
        dim_V=dim_V, dim_l1=d1, dim_l=dim_l,
        g_dims=(d1, 2 + l0, 2 * d1, d1, 1),
        l_factors=factors, note=note,
    )


def _exceptional_case(label: str) -> CaseDescriptor:
    data = {
        "F4": (14, 6, 21, (("C3", 3),), "Lagrangian Grassmannian LG(3,6)"),
        "E6": (20, 9, 35, (("A5", 3),), "Grassmannian Gr(3,6)"),
        "E7": (32, 15, 66, (("D6", 6),), "spinor variety S6"),
        "E8": (56, 27, 133, (("E7", 7),), "27-dim minuscule E7/P7"),
    }[label]
    dim_V, d1, dim_l, factors, note = data
    l0 = dim_l - 2 * d1
    return CaseDescriptor(
        case_id=label, s_label=label, dim_V=dim_V, dim_l1=d1, dim_l=dim_l,
        g_dims=(d1, 2 + l0, 2 * d1, d1, 1), l_factors=factors, note=note,
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


def registry_entry(case_id: str, rank_ceiling: int = 12) -> CaseDescriptor:
    for c in list_cases(rank_ceiling):
        if c.case_id == case_id:
            return c
    raise KeyError(f"unknown case id {case_id!r}")


@dataclass
class RunOptions:
    seed: int = 0
    samples: int = 10
    kmin: int = -7
    heavy: bool = False
    timings: bool = False
    rank_ceiling: int = 8


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


class _Recorder:
    def __init__(self):
        self.records: list[CheckRecord] = []

    def add(self, check_id: str, status: str, t0: float,
            dims=None, values=None, witnesses=None):
        self.records.append(CheckRecord(
            check_id=check_id, status=status,
            dims=dims or {}, values=values or {}, witnesses=witnesses or {},
            millis=int((time.monotonic() - t0) * 1000),
        ))


def run(case_id: str, check_set, options: RunOptions | None = None) -> VerificationReport:
    """Execute the selected checks for one case, in dependency order."""
    options = options or RunOptions()
    checks = set(check_set) if check_set else set()
    if "all" in checks:
        checks = set(CHECK_GROUPS)
    unknown = checks - set(CHECK_GROUPS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    desc = registry_entry(case_id, max(options.rank_ceiling, 12))
    if desc.excluded:
        raise CaseExcludedError(f"excluded case: {desc.exclusion_reason}")

    if not checks:
        return VerificationReport(
            case_id=case_id, version=__version__, checks=[], dims={},
            environment={"seed": options.seed, "heavy": options.heavy},
            vacuous=True,
        )

    rec = _Recorder()
    t0 = time.monotonic()
    case = build_case(case_id)
    g = build_g(case)
    got_dims = {
        "V": case.dim_V, "l1": case.dim_l1, "l": case.dim_l,
        "V_levels": [case.V_decomp[j].dim for j in range(4)],
        "g": [g.component_dims().get(d, 0) for d in (-1, 0, 1, 2, 3)],
        "factors": [c.type_label for c in case.l_components],
    }
    dims_ok = (
        case.dim_V == desc.dim_V
        and case.dim_l1 == desc.dim_l1
        and case.dim_l == desc.dim_l
        and tuple(got_dims["g"]) == desc.g_dims
        and sorted(got_dims["factors"]) == sorted(t for t, _ in desc.l_factors)
    )
    rec.add("case-dims", "PASS" if dims_ok else "FAIL", t0,
            dims=got_dims, values={"note": desc.note})

    t1 = time.monotonic()
    cg = case.contact.dims()
    contact_ok = cg.get(2) == 1 and cg.get(-2) == 1 and set(cg) == {-2, -1, 0, 1, 2}
    rec.add("contact-grading", "PASS" if contact_ok else "FAIL", t1,
            dims={"s_components": cg})

    if "jacobi" in checks:
        t1 = time.monotonic()
        viol = check_jacobi(case.s_table)
        rec.add("jacobi-ambient", "PASS" if not viol else "FAIL", t1,
                values={"violations": len(viol)},
                witnesses={"first": viol[:3]} if viol else {})

    if "forms" in checks:
        _run_forms(rec, case, options)

    if "xvv" in checks:
        _run_xvv(rec, case, options)

    if "gstructure" in checks:
        _run_gstructure(rec, desc, g, options)

    tower = None  # one per case; the first group to read it builds it
    if "prolong" in checks:
        tower = _run_prolong(rec, g)

    if "spencer" in checks:
        _run_spencer(rec, g, tower, options)

    if "weights" in checks:
        _run_weights(rec, case, g, options)

    env = {
        "seed": options.seed,
        "heavy": options.heavy,
        "convention": "v0 is a lowest weight vector; c(b) from [b, v0] = c(b) v0",
        "base_locus_claims": "verified at sampled points only",
        "weight_claims": "verified at weight level per the cokernel analysis",
    }
    return VerificationReport(
        case_id=case_id, version=__version__,
        checks=rec.records,
        dims=got_dims,
        environment=env,
        vacuous=not rec.records,
    )


def _run_sigma(rec: _Recorder, case) -> None:
    t1 = time.monotonic()
    try:
        sig = symplectic_form(case)
    except CaseConsistencyError as e:
        rec.add("sigma-form", "FAIL", t1, values={"error": str(e)})
        return
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
    rec.add("sigma-form", "PASS" if ok else "FAIL", t1,
            values={"alternating": alternating, "det_nonzero": det != 0,
                    "osculating_hyperplane": osc_ok})


def _run_forms(rec: _Recorder, case, options: RunOptions) -> None:
    _run_sigma(rec, case)

    t1 = time.monotonic()
    try:
        forms = fundamental_forms(case)
    except CaseConsistencyError as e:
        for check_id in ("fundamental-forms", "base-locus-samples"):
            rec.add(check_id, "FAIL", t1, values={"error": str(e)})
        return
    d = forms.dim
    sym2 = all(forms.II[a][b] == forms.II[b][a] for a in range(d) for b in range(d))
    sym3 = all(
        forms.III[a][b][c] == forms.III[b][a][c] == forms.III[a][c][b]
        for a in range(d) for b in range(d) for c in range(d)
    )
    rows = []
    for b in range(d):
        for c in range(d):
            row = {a: forms.III[a][b][c] for a in range(d) if forms.III[a][b][c]}
            if row:
                rows.append(row)
    iii_kernel = len(SparseRationalMatrix.from_rows(rows, d).kernel())
    beta_det = SparseRationalMatrix.from_dense(forms.beta).det()
    compat = all(
        sum(forms.II[a2][a3][w] * forms.beta[w][a1]
            for w in range(len(forms.V2_roots))) == forms.III[a1][a2][a3]
        for a1 in range(d) for a2 in range(d) for a3 in range(d)
    )
    ok = sym2 and sym3 and iii_kernel == 0 and beta_det != 0 and compat
    rec.add("fundamental-forms", "PASS" if ok else "FAIL", t1,
            dims={"l1": d, "iii_kernel": iii_kernel},
            values={"ii_symmetric": sym2, "iii_symmetric": sym3,
                    "beta_det_nonzero": beta_det != 0,
                    "beta_iii_compatible": compat})

    t1 = time.monotonic()
    try:
        hw = highest_weight_roots_of_l1(case)
        ideal_dims = [sum(1 for r in case.l1_roots() if case.ideal_of_root(r) == ci)
                      for ci in range(len(hw))]
        # fewer points than an ideal's dimension can never span it
        per = max([options.samples, *ideal_dims])
        samples = sample_closed_orbit(case, per, options.seed)
    except CaseConsistencyError as e:
        rec.add("base-locus-samples", "FAIL", t1, values={"error": str(e)})
        return
    iii_null = all(iii_value(case, forms, b) == 0 for b in samples)
    is_ii1 = case.s_label == "B3"
    ii_null_flags = []
    span_ok = True
    for ci in range(len(hw)):
        batch = samples[ci * per : (ci + 1) * per]
        ii_null_flags.append(
            all(all(x == 0 for x in ii_value(case, forms, b)) for b in batch)
        )
        acc = RrefBasis(case.s_table.dim)
        for b in batch:
            acc.add(b)
        span_ok = span_ok and acc.rank == ideal_dims[ci]
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
    ok = iii_null and ii_ok and span_ok
    rec.add("base-locus-samples", "PASS" if ok else "FAIL", t1,
            values={"iii_vanishes_on_samples": iii_null,
                    "ii_pattern_ok": ii_ok,
                    "samples_span_each_ideal": span_ok,
                    "strictness_case": is_ii1})


def _run_xvv(rec: _Recorder, case, options: RunOptions) -> None:
    t1 = time.monotonic()
    try:
        samples = sample_closed_orbit(case, options.samples, options.seed)
        cert = check_xvv(case, samples)
        escalated = False
        if cert.status == "INCONCLUSIVE" and options.samples > 0:
            # a nonzero kernel after the default budget is never a
            # refutation; retry once with four times the points
            escalated = True
            samples = sample_closed_orbit(
                case, 4 * options.samples, options.seed + 1
            )
            cert = check_xvv(case, samples)
    except CaseConsistencyError as e:
        rec.add("xvv-kernel", "FAIL", t1, values={"error": str(e)})
        return
    rec.add("xvv-kernel", cert.status, t1,
            dims={"kernel": cert.kernel_dim},
            values={"samples": cert.samples_used,
                    "budget_per_ideal": options.samples,
                    "escalated": escalated})


def _run_gstructure(rec: _Recorder, desc: CaseDescriptor, g,
                    options: RunOptions) -> None:
    t1 = time.monotonic()
    viol = g_jacobi_violations(g)
    rec.add("g-jacobi", "PASS" if not viol else "FAIL", t1,
            values={"violations": len(viol)})

    t1 = time.monotonic()
    dims = g.component_dims()
    ok = tuple(dims.get(d, 0) for d in (-1, 0, 1, 2, 3)) == desc.g_dims
    rec.add("g-dims", "PASS" if ok else "FAIL", t1,
            dims={"components": dims})

    # each suite is one call, so its records all carry the suite's time
    t1 = time.monotonic()
    for chk in verify_structure_identities(g):
        rec.add(f"identity-{chk.check_id}", chk.status, t1, values=chk.detail)
    t1 = time.monotonic()
    for chk in verify_g_module_structure(g):
        rec.add(chk.check_id, chk.status, t1, values=chk.detail)

    t1 = time.monotonic()
    er = conjugation_expansion_check(g, trials=5, seed=options.seed)
    rec.add("est-expansion", er.status, t1,
            values={"trials": er.trials})


def _case_tower(rec: _Recorder, g, check_ids, t1: float) -> CaseTower | None:
    """The case's CaseTower, or None once each of check_ids has FAILed with
    the error that stopped it (a grading of g that is not additive)."""
    try:
        return CaseTower(g)
    except ProlongConsistencyError as e:
        for check_id in check_ids:
            rec.add(check_id, "FAIL", t1, values={"error": str(e)})
        return None


def _run_prolong(rec: _Recorder, g) -> CaseTower | None:
    # level k of the tower is C^{-k,1}: the first prolongation is
    # dim C^{-1,1} - rank del, the second dim C^{-2,1} - rank del
    t1 = time.monotonic()
    tower = _case_tower(rec, g, ("prolong-dims", "prolong-ad-witnesses"), t1)
    if tower is None:
        return None
    dminus1 = g.component_dims()[-1]
    wits_ok = all(tower.passes)
    try:
        tower.inp.validate()
        _check(wits_ok, "witness map fails the compatibility equation at level 1")
        q1, q2 = (q_dimension(g, k, tower) for k in (-1, -2))
    except (ProlongConsistencyError, CaseConsistencyError) as e:
        rec.add("prolong-dims", "FAIL", t1,
                dims={"expected_p1": dminus1}, values={"error": str(e)})
    else:
        p1, p2 = q1.dim_C1 - q1.rank, q2.dim_C1 - q2.rank
        ok = p1 == dminus1 and p2 == 0
        rec.add("prolong-dims", "PASS" if ok else "FAIL", t1,
                dims={"p_minus_1": p1, "p_minus_2": p2, "expected_p1": dminus1},
                values={"stopped_early": {1: q1.stopped_early,
                                          2: q2.stopped_early}})
    t1 = time.monotonic()
    wrank = witness_rank(tower.witnesses)
    inj_ok = wrank == dminus1 and wits_ok
    rec.add("prolong-ad-witnesses", "PASS" if inj_ok else "FAIL", t1,
            dims={"witness_rank": wrank, "dim_g_minus_1": dminus1},
            values={"witnesses_satisfy_compatibility": wits_ok})
    return tower


def _run_spencer(rec: _Recorder, g, tower: CaseTower | None,
                 options: RunOptions) -> None:
    # del(ad x) = 0 for x in g_{-1}: each ad witness solves level 1 of the
    # tower of g, which is C^{-1,1}; the ones that do bound ker del there
    t1 = time.monotonic()
    tower = tower or _case_tower(rec, g, ("spencer-cocycle-ad",
                                          "restricted-differentials",
                                          "spencer-qdim"), t1)
    if tower is None:
        return
    rec.add("spencer-cocycle-ad", "PASS" if all(tower.passes) else "FAIL", t1)

    t1 = time.monotonic()
    rep = partial_prime_checks(g, tower)
    rec.add("restricted-differentials", rep.status, t1,
            dims={"dim_hom_V2_l1": rep.dim_hom,
                  "rank_prime": rep.rank_prime,
                  "target_prime": rep.dim_target_prime,
                  "nullity_doubleprime": rep.nullity_doubleprime},
            values={"pairing_perfect": rep.pairing_nondegenerate})

    # ker del on C^{k,1} is the (-k)-th prolongation, so the ranks are forced
    t1 = time.monotonic()
    dminus1 = g.component_dims()[-1]
    try:
        qs = [q_dimension(g, k, tower)
              for k in range(max(options.kmin, KMIN_SUPPORT - 1), 0)]
    except CaseConsistencyError as e:
        rec.add("spencer-qdim", "FAIL", t1, values={"error": str(e)})
        return
    ok = all(q.rank == q.expected_rank(dminus1) for q in qs)
    rec.add("spencer-qdim", "PASS" if ok else "FAIL", t1,
            values={"q_dims": {q.k: q.value for q in qs},
                    "ranks": {q.k: q.rank for q in qs},
                    "dim_C1": {q.k: q.dim_C1 for q in qs}})


def _run_weights(rec: _Recorder, case, g, options: RunOptions) -> None:
    t1 = time.monotonic()
    cI_star = sum(
        (case.embedding_weight_simple.coords[i] for i in case.marked),
        Fraction(0),
    )
    ok = cI_star == Fraction(3, 2)
    rec.add("cI-embedding-weight", "PASS" if ok else "FAIL", t1,
            values={"cI_omega_star": cI_star})

    t1 = time.monotonic()
    cIs = g_basis_cI(g)
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
    rec.add("cI-components", "PASS" if comp_ok else "FAIL", t1, values=got)

    t1 = time.monotonic()
    all_ok = True
    offenders = []
    per_k = {}
    for k in range(max(options.kmin, KMIN_SUPPORT - 1), 0):
        tab = summand_cI_table(g, k, cIs)
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
    rec.add("cI-six-families", "PASS" if all_ok else "FAIL", t1,
            values={"per_k": per_k},
            witnesses={"offending": offenders} if offenders else {})


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
