"""Spencer-type cochains, the six-family weight decomposition, and the
restricted-differential facts feeding the cokernel analysis.

C^{k,1} = Hom(g_+, g)_k and C^{k,2} = Hom(L^2 g_+, g)_k with
del f(u, v) = [f(u), v] + [u, f(v)] - f([u, v]).  That is the compatibility
equation of the Tanaka tower of g, so del and its restrictions are read off
the tower's pair rows (`prolong.g_tower`).  The decomposition splits
C^{k,2} by source factors (l_1 vs the osculating pieces V_i) and target
(l-hat vs V); each piece should carry a single c^I value, and every piece
meeting the nonnegative rationals should be one of the designated R_k
pieces (or the one quotiented piece Hom(L^2 V_2, V_3) at k = -1).  The
functions here return these facts; `verify` decides the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .galg import GAlgebra, operator_a
from .liecore import _check
from .linalg import SparseRationalMatrix
from .prolong import _Tower, forced_rank, g_tower, pair_rows, unknown_layout

KMIN_SUPPORT = -6  # C^{k,2} vanishes for k <= -7: source degrees cap at 5


# --------------------------------------------------------------------------
# c^I of the g basis
# --------------------------------------------------------------------------

def g_basis_cI(g: GAlgebra) -> list[Fraction]:
    """c^I of each g basis weight (`SubadjointCase.cI`); 0 on Id and on the
    Cartan of l."""
    case = g.case
    return ([Fraction(0)]
            + [Fraction(0) if key[0] == "h" else case.cI(key[1])
               for key in g.l_basis_keys]
            + [case.cI(r) for r in case.V_roots])


# --------------------------------------------------------------------------
# cochain spaces and the differential
# --------------------------------------------------------------------------

def spencer_spaces(g: GAlgebra, k: int) -> tuple[int, int]:
    """(dim C^{k,1}, dim C^{k,2}) in closed form from the component dims
    of g_+ = g_1 + g_2 + g_3."""
    if k > -1:
        raise ValueError("Spencer degree k must be <= -1")
    dims_g = g.component_dims()
    dim_C1 = sum(
        dims_g.get(d, 0) * dims_g.get(d + k, 0) for d in (1, 2, 3)
    )
    dim_C2 = 0
    for d1 in (1, 2, 3):
        for d2 in range(d1, 4):
            target = dims_g.get(d1 + d2 + k, 0)
            if d1 == d2:
                dim_C2 += comb(dims_g.get(d1, 0), 2) * target
            else:
                dim_C2 += dims_g.get(d1, 0) * dims_g.get(d2, 0) * target
    return dim_C1, dim_C2


def _tower_level(g: GAlgebra, tower, k: int) -> tuple[int, int, list]:
    """(dim C^{k,1}, dim C^{k,2}, column offsets) of level -k of
    `g_tower(g)`, whose columns (u, w), u in g_+ and w in g_{deg u + k},
    are the C^{k,1} basis; checks that the tower has `spencer_spaces`'
    count of them."""
    dim_C1, dim_C2 = spencer_spaces(g, k)
    offsets, _, ncols = unknown_layout(tower, -k)
    _check(ncols == dim_C1, "C^{k,1} dimension bookkeeping failed")
    return dim_C1, dim_C2, offsets


def spencer_differential(g: GAlgebra, k: int) -> SparseRationalMatrix:
    """Matrix of del: C^{k,1} -> C^{k,2}, the level -k pair rows of
    `g_tower(g)` negated: one row per nonzero coordinate (u, v, w) of
    C^{k,2}, zero rows omitted, pairs u < v in g_+ order."""
    tower = g_tower(g)
    dim_C1, _, offsets = _tower_level(g, tower, k)
    n = tower.inp.dim
    rows = ({c: -x for c, x in row.items()}
            for u in range(n) for v in range(u + 1, n)
            for row in pair_rows(tower, -k, offsets, u, v))
    return SparseRationalMatrix.from_rows(rows, dim_C1)


@dataclass
class QDimension:
    k: int
    dim_C1: int
    rank: int
    value: int
    stopped_early: bool   # the forced rank came with rows left


def q_dimension(g: GAlgebra, k: int, tower: _Tower, floor: int) -> QDimension:
    """dim Q^k(g) = dim C^{k,2} - rank del, by exact elimination on level -k
    of `tower`, which is `g_tower(g)`.

    `floor` is the rank of maps known to lie in ker del, such as the ad
    cocycles at k = -1, so rank del is at most dim C^{k,1} - floor;
    `forced_rank` stops at that cap, and the rank is then the full one.
    """
    dim_C1, dim_C2, offsets = _tower_level(g, tower, k)
    acc, stopped = forced_rank(tower, -k, offsets, dim_C1, floor)
    return QDimension(k, dim_C1, acc.rank, dim_C2 - acc.rank, stopped)


# --------------------------------------------------------------------------
# the six-family decomposition with c^I values
# --------------------------------------------------------------------------

@dataclass
class SummandDescriptor:
    name: str
    family: int          # 1..6 in the fixed display order
    index: tuple | None  # (i,) or (i, j) osculating indices
    dim: int
    cI_values: tuple     # sorted distinct values


_FAMILY_NAMES = {
    1: "Hom(L2 lhat_1, V_{k+2})",
    2: "Hom(L2 lhat_1, lhat_{k+2})",
    3: "Hom(lhat_1 x V_i, lhat_{k+i+1})",
    4: "Hom(lhat_1 x V_i, V_{k+i+1})",
    5: "Hom(V_i ^ V_j, lhat_{k+i+j})",
    6: "Hom(V_i ^ V_j, V_{k+i+j})",
}


def expected_cI(family: int, k: int) -> Fraction:
    return {
        1: Fraction(k) - Fraction(3, 2),
        2: Fraction(k),
        3: Fraction(k) + Fraction(3, 2),
        4: Fraction(k),
        5: Fraction(k) + 3,
        6: Fraction(k) + Fraction(3, 2),
    }[family]


def _lhat_piece(g: GAlgebra, d: int) -> list:
    if d == -1:
        return list(g.lminus1_indices)
    if d == 0:
        return [g.id_index] + list(g.l0_indices)
    if d == 1:
        return list(g.l1_indices)
    return []


def _v_piece(g: GAlgebra, j: int) -> list:
    if 0 <= j <= 3:
        return list(g.V_level_indices.get(j, ()))
    return []


def hom_decomposition(g: GAlgebra, k: int, cIs: list) -> list[SummandDescriptor]:
    """The direct-sum pieces of C^{k,2} with their c^I value sets.

    c^I is linear in the weight, so Hom(A (x) B, C) takes exactly the values
    c(w) - s for w a target and s a source pair sum c(a) + c(b), and its
    dimension is (number of source pairs) x (number of targets).  cIs is
    `g_basis_cI(g)`.
    """

    def wedge(ix):
        sums = {cIs[ix[a]] + cIs[ix[b]]
                for a in range(len(ix)) for b in range(a + 1, len(ix))}
        return comb(len(ix), 2), sums

    def tensor(ix, jy):
        return len(ix) * len(jy), {
            s + t for s in {cIs[a] for a in ix} for t in {cIs[b] for b in jy}
        }

    def piece(fam, index, src, targets):
        npairs, sums = src
        values = {cIs[w] - s for w in targets for s in sums}
        return SummandDescriptor(
            name=_FAMILY_NAMES[fam], family=fam, index=index,
            dim=npairs * len(targets), cI_values=tuple(sorted(values)),
        )

    l1 = list(g.l1_indices)
    out = []
    # families 1, 2: sources L2 lhat_1
    src = wedge(l1)
    out.append(piece(1, None, src, _v_piece(g, k + 2)))
    out.append(piece(2, None, src, _lhat_piece(g, k + 2)))
    # families 3, 4: sources lhat_1 (x) V_i
    for i in (1, 2, 3):
        src = tensor(l1, _v_piece(g, i))
        out.append(piece(3, (i,), src, _lhat_piece(g, k + i + 1)))
        out.append(piece(4, (i,), src, _v_piece(g, k + i + 1)))
    # families 5, 6: sources V_i ^ V_j
    for i in (1, 2, 3):
        for j in range(i, 4):
            src = wedge(_v_piece(g, i)) if i == j else tensor(
                _v_piece(g, i), _v_piece(g, j)
            )
            out.append(piece(5, (i, j), src, _lhat_piece(g, k + i + j)))
            out.append(piece(6, (i, j), src, _v_piece(g, k + i + j)))
    return out


def rk_designated(k: int, family: int, index: tuple | None) -> bool:
    """Whether a decomposition piece belongs to the designated R_k."""
    if k == -1:
        if family == 6 and index is not None and index[0] == 1:
            return True  # Hom(V_1 ^ V_+, V)_{-1}
        if family == 5 and index == (1, 1):
            return True  # Hom(L2 V_1, lhat_1)
        if family == 3 and index == (1,):
            return True  # Hom(lhat_1 x V_1, lhat_1)
        return False
    if k in (-2, -3):
        return family == 5
    return False


def rk_allowed_extra(k: int, family: int, index: tuple | None) -> bool:
    """The piece Hom(L2 V_2, V_3), quotiented away at k = -1."""
    return k == -1 and family == 6 and index == (2, 2)


def summand_cI_table(g: GAlgebra, k: int, cIs: list) -> tuple[list, list]:
    """(pieces, offenders) at level k <= -1: the pieces of C^{k,2}
    (`hom_decomposition`), and one offender for each nonzero piece whose
    c^I values are not its family's single value, one for each nonzero
    piece that meets the nonnegative rationals and is neither in R_k nor
    the quotiented piece, and a last one when the pieces do not add up to
    C^{k,2}.  cIs is `g_basis_cI(g)`."""
    desc = hom_decomposition(g, k, cIs)
    offending = []
    for d in desc:
        if d.dim == 0:
            continue
        want = expected_cI(d.family, k)
        if set(d.cI_values) != {want}:
            offending.append((d.name, d.index, d.cI_values, want))
        if max(d.cI_values) >= 0:
            if not (rk_designated(k, d.family, d.index)
                    or rk_allowed_extra(k, d.family, d.index)):
                offending.append((d.name, d.index, "not in R_k", None))
    total, dim_C2 = sum(d.dim for d in desc), spencer_spaces(g, k)[1]
    if total != dim_C2:
        offending.append(("pieces of C^{k,2}", None, total, dim_C2))
    return desc, offending


# --------------------------------------------------------------------------
# restricted differentials (surjective/injective halves) and the pairing
# --------------------------------------------------------------------------

@dataclass
class PartialDifferentialReport:
    dim_hom: int
    dim_target_prime: int
    rank_prime: int
    nullity_doubleprime: int
    pairing_nondegenerate: bool


def partial_prime_checks(g: GAlgebra, tower: _Tower) -> PartialDifferentialReport:
    """The facts behind del' surjective onto Hom(L2 V_2, V_3), del''
    injective and the pairing l_1 x V_2 -> V_3 perfect.

    del', del'' are the restrictions of del to f: V_2 -> l_1 extended by
    zero, landing in Hom(L2 V_2, V_3) and Hom(V_1 ^ V_2, V_2): the
    (v in V_2, a in l_1) column block of the level-1 pair rows of
    `tower`, which is `g_tower(g)`, on the pairs of V_2 ^ V_2 and of
    V_1 x V_2.
    """
    t = g.table
    V1, V2, V3 = (list(g.V_level_indices[j]) for j in (1, 2, 3))
    l1 = list(g.l1_indices)
    _check(len(V3) == 1, "V_3 is not a line")
    _check(len(l1) == len(V2),
           "dim l_1 != dim V_2: the pairing l_1 x V_2 -> V_3 is not square")
    v3 = V3[0]
    offsets, _, _ = unknown_layout(tower, 1)
    gplus = [i for i, d in enumerate(g.degree) if d >= 1]
    pos = {gi: i for i, gi in enumerate(gplus)}
    ones = g.components()[1]
    _check(set(l1) <= set(ones), "l_1 is not in g_1")
    l1_slots = [ones.index(a) for a in l1]
    only = {pos[v]: l1_slots for v in V2}
    block = {offsets[pos[v]] + s: i
             for i, (v, s) in enumerate((v, s) for v in V2 for s in l1_slots)}

    def restricted(pairs) -> SparseRationalMatrix:
        rows = [{block[c]: x for c, x in row.items()}
                for u, v in pairs
                for row in pair_rows(tower, 1, offsets, pos[u], pos[v], only)]
        return SparseRationalMatrix.from_rows(rows, len(block))

    mat_prime = restricted(combinations(V2, 2))
    mat_dp = restricted((u, v) for u in V1 for v in V2)

    pairing = [[t.bracket_basis(a, w).get(v3, 0) for a in l1]
               for w in V2]
    pair_ok = SparseRationalMatrix.from_dense(pairing).det() != 0

    return PartialDifferentialReport(
        dim_hom=len(block),
        dim_target_prime=comb(len(V2), 2),
        rank_prime=mat_prime.rank(),
        nullity_doubleprime=len(block) - mat_dp.rank(),
        pairing_nondegenerate=pair_ok,
    )


# --------------------------------------------------------------------------
# conjugation expansion (the eight-term identity)
# --------------------------------------------------------------------------

EXPANSION_DEGREES = (-1, -2, -3)  # the degrees k of the expanded cochains


def conjugation_expansion_check(g: GAlgebra) -> tuple[bool, list, list]:
    """exp(sA) f(exp(-sA) u, exp(-sA) u') equals the eight displayed terms

        f(u, u') + s (A f(u, u') - f(Au, u') - f(u, Au'))
        + s^2 (f(Au, Au') - A f(Au, u') - A f(u, Au')) + s^3 A f(Au, Au')

    for every f in C^{k,2} (k in EXPANSION_DEGREES) and u, u' in g_+,
    decided by the lemma: it holds iff A = ad(v0) squares to zero on the
    spaces the cochains read, g_+ for the arguments and the degrees of
    g_{deg u + deg u' + k} for the values.  Returns (holds, the degrees of
    g_+ the arguments range over, the degrees of g the values reach).

    Lemma.  A keeps degrees, so exp(-sA) maps g_+ into itself.  If A^2 = 0
    there and on the values, exp(+-sA) is Id +- sA on both, and expanding
    (Id + sA) f((Id - sA) u, (Id - sA) u') bilinearly gives the eight
    terms.  Conversely, the s^2 coefficient of the difference is
    (A^2 f(u, u') + f(A^2 u, u') + f(u, A^2 u')) / 2.  When A raises the
    osculating level (`identity-a-level-shift`), A^2 u has no u component,
    so an f supported on one pair makes it nonzero wherever A^2 is nonzero
    on those spaces.
    """
    A = operator_a(g)
    args = sorted({d for d in g.degree if d >= 1})
    values = sorted({a + b + k for a in args for b in args
                     for k in EXPANSION_DEGREES} & set(g.degree))
    read = [j for j, d in enumerate(g.degree) if d in args or d in values]
    return all(not A.apply(A.columns[j]) for j in read), args, values
