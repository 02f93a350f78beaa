"""Reference computations that only the tests call.

The verifier (`src/subadjoint`, reached from `cli.main`) does not use
these; the tests compare the package against them:

- formal vector fields in one variable and the sl2 line: the truncations
  checked against the A1 Chevalley table, the adjoint fixture, and the
  prolongation of the projective line;
- block direct sums of abelian prolongation inputs;
- `input_from_l`, the (l_1 abelian, ad l_0) input of a case;
- `WeightVector`, a weight tagged with its basis, its coordinate
  conversions, and root-string lengths;
- antisymmetry and grading-additivity scans of a bracket table, the
  Chevalley table in a randomly re-signed basis, and the Chevalley table
  with one seeded corruption (the fuzz of a run's error policy);
- the C^{k,2} basis listed term by term, the row order of the Spencer
  differential;
- II and III evaluated at any point of l_1, and the conjugation expansion
  tested on random cochains: the sampled references for the exact
  `base-locus-samples` and `est-expansion` verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from subadjoint.galg import operator_a
from subadjoint.liecore import Grading, LieAlgebraTable
from subadjoint.linalg import RrefBasis, Vec, integer_inverse, vec_add_scaled
from subadjoint.prolong import ProlongInput, TaggedMap, _flatten, prolongation
from subadjoint.rootsys import (Root, RootSystem, _string_down,
                                chevalley_table)


# --------------------------------------------------------------------------
# Formal vector fields in one variable, sl2, direct sums
# --------------------------------------------------------------------------

def formal_vector_field_oracle(k_max: int) -> tuple[LieAlgebraTable, tuple]:
    """Truncation of the vector fields t^a d/dt, a = 0..k_max+1.

    Basis index a holds t^a d/dt with degree 1 - a; brackets are
    [t^a d, t^b d] = (b - a) t^{a+b-1} d, truncated below degree -k_max.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = k_max + 2
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            c = a + b - 1
            if 0 <= c < n and (b - a):
                brackets[(a, b)] = {c: Fraction(b - a)}
    labels = tuple(f"t^{a}d/dt" if a else "d/dt" for a in range(n))
    degrees = tuple(1 - a for a in range(n))
    return LieAlgebraTable(dim=n, labels=labels, brackets=brackets), degrees


def sl2_line_input() -> ProlongInput:
    """The projective-line datum: 1-dimensional abelian n_+ with gl_1."""
    nplus = LieAlgebraTable(dim=1, labels=("x",), brackets={})
    return ProlongInput(nplus=nplus, degrees=(1,), n0_mats=(
        [{0: Fraction(1)}],
    ))


def direct_sum_input(a: ProlongInput, b: ProlongInput) -> ProlongInput:
    """Block sum of two degree-1-only abelian inputs."""
    for inp in (a, b):
        if any(d != 1 for d in inp.degrees):
            raise ValueError("direct sum needs degree 1 only")
        if inp.nplus.brackets:
            raise ValueError("direct sum needs abelian factors")
    n, m = a.dim, b.dim
    nplus = LieAlgebraTable(
        dim=n + m,
        labels=tuple(a.nplus.labels) + tuple(b.nplus.labels),
        brackets={},
    )
    mats = []
    for mat in a.n0_mats:
        mats.append([dict(mat[j]) for j in range(n)] + [dict() for _ in range(m)])
    for mat in b.n0_mats:
        mats.append([dict() for _ in range(n)]
                    + [{k + n: v for k, v in mat[j].items()} for j in range(m)])
    return ProlongInput(nplus=nplus, degrees=(1,) * (n + m), n0_mats=tuple(mats))


@dataclass
class DirectSumReport:
    dims_a: dict
    dims_b: dict
    dims_sum: dict
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "PASS"


def direct_sum_check(a: ProlongInput, b: ProlongInput, k_max: int,
                     allow_deep: bool = False) -> DirectSumReport:
    """Prolongation dims of a block sum equal the componentwise sums."""
    ra = prolongation(a, k_max, allow_deep=allow_deep)
    rb = prolongation(b, k_max, allow_deep=allow_deep)
    rs = prolongation(direct_sum_input(a, b), k_max, allow_deep=allow_deep)
    ok = all(
        rs.dims[k] == ra.dims[k] + rb.dims[k] for k in range(1, k_max + 1)
    )
    return DirectSumReport(
        dims_a=ra.dims, dims_b=rb.dims, dims_sum=rs.dims,
        status="PASS" if ok else "FAIL",
    )


def xvv_in_oracle(k_max: int) -> bool:
    """For b in f_{-k}, k >= 1: [[b, d/dt], d/dt] != 0 unless b = 0.

    Checked on the 1-dimensional graded pieces; scaling a in f_1 multiplies
    the double bracket by a nonzero square.
    """
    table, degrees = formal_vector_field_oracle(k_max)
    a = {0: Fraction(1)}  # d/dt
    for idx, d in enumerate(degrees):
        if d <= -1:
            # the double bracket raises degree, so truncation never clips it
            b = {idx: Fraction(1)}
            if not table.bracket(table.bracket(b, a), a):
                return False
    return True


@dataclass
class Sl2MatchReport:
    status: str
    scalars: tuple | None


def truncation_matches_sl2(chev_a1: LieAlgebraTable) -> Sl2MatchReport:
    """Graded isomorphism of the degree-(-1..1) truncation with sl2.

    Searches the scaling maps e -> x*d/dt, h -> z*t d/dt, f -> y*t^2 d/dt and
    verifies every bracket relation of the A1 Chevalley table.
    """
    table, degrees = formal_vector_field_oracle(1)
    # A1 Chevalley layout: h, e, f
    h, e, f = 0, 1, 2
    # trunc layout: d/dt (deg 1), t d/dt (deg 0), t^2 d/dt (deg -1)
    E, H, F = {0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}
    # [H', E'] = z*x*[t d, d] must equal 2 x d; solve z, then xy
    c1 = table.bracket(H, E).get(0, Fraction(0))
    if not c1:
        return Sl2MatchReport("FAIL", None)
    z = Fraction(2) / c1
    c2 = table.bracket(E, F).get(1, Fraction(0))
    if not c2:
        return Sl2MatchReport("FAIL", None)
    x = Fraction(1)
    y = z / (x * c2)

    def img(vec: Vec) -> Vec:
        out: Vec = {}
        vec_add_scaled(out, E, vec.get(e, Fraction(0)) * x)
        vec_add_scaled(out, H, vec.get(h, Fraction(0)) * z)
        vec_add_scaled(out, F, vec.get(f, Fraction(0)) * y)
        return out

    for i in range(3):
        for j in range(3):
            lhs = img(chev_a1.bracket({i: Fraction(1)}, {j: Fraction(1)}))
            rhs = table.bracket(img({i: Fraction(1)}), img({j: Fraction(1)}))
            if lhs != rhs:
                return Sl2MatchReport("FAIL", None)
    return Sl2MatchReport("PASS", (x, y, z))


@dataclass
class AdjointFixtureReport:
    status: str
    phi_a_a: Vec
    double_bracket: Vec
    lhs: Vec
    rhs: Vec


def sl2_adjoint_check() -> AdjointFixtureReport:
    """The adjoint-representation computation with w0 = t^2 d/dt.

    With a = d/dt and phi = [t^3 d/dt, .] the two iterated actions on w0
    come out as -12 t d/dt and +12 t d/dt: equal and opposite, nonzero.
    """
    table, degrees = formal_vector_field_oracle(4)
    a = {0: Fraction(1)}            # d/dt
    w0 = {2: Fraction(1)}           # t^2 d/dt
    t3 = {3: Fraction(1)}           # t^3 d/dt
    phi_a = table.bracket(t3, a)
    phi_a_a = table.bracket(phi_a, a)              # expect 6 t d/dt
    double = table.bracket(phi_a_a, a)             # expect -6 d/dt
    lhs = table.bracket(double, w0)                # expect -12 t d/dt
    rhs = table.bracket(a, table.bracket(phi_a_a, w0))  # expect +12 t d/dt
    ok = (
        phi_a_a == {1: Fraction(6)}
        and double == {0: Fraction(-6)}
        and lhs == {1: Fraction(-12)}
        and rhs == {1: Fraction(12)}
    )
    return AdjointFixtureReport(
        status="PASS" if ok else "FAIL",
        phi_a_a=phi_a_a, double_bracket=double, lhs=lhs, rhs=rhs,
    )


# --------------------------------------------------------------------------
# Prolongation inputs and maps of a case
# --------------------------------------------------------------------------

def input_from_l(case, ideal: int | None = None) -> ProlongInput:
    """(l_1 abelian, ad l_0) for a case, optionally one simple ideal only."""
    s = case.s_table
    l1 = [r for r in case.l1_roots() if ideal is None or case.ideal_of_root(r) == ideal]
    pos = {r: i for i, r in enumerate(l1)}
    nplus = LieAlgebraTable(dim=len(l1), labels=tuple(str(r) for r in l1),
                            brackets={})
    mats = []
    l0_vecs = [case.coroot_vec(b) for b in case.l_simple_roots]
    l0_vecs += [case.e(r) for r in case.l0_roots()]
    if ideal is not None:
        l0_vecs = [case.coroot_vec(b) for bi, b in enumerate(case.l_simple_roots)
                   if case._node_comp[bi] == ideal]
        l0_vecs += [case.e(r) for r in case.l0_roots()
                    if case.ideal_of_root(r) == ideal]
    flat = RrefBasis(len(l1) * len(l1))
    for x in l0_vecs:
        cols = []
        for r in l1:
            raw = s.bracket(x, case.e(r))
            col = {}
            for k, c in raw.items():
                rr = case.root_of_index(k)
                col[pos[rr]] = c
            cols.append(col)
        if flat.add(_flatten(cols, len(l1))):
            mats.append(cols)
    return ProlongInput(nplus=nplus, degrees=(1,) * len(l1), n0_mats=tuple(mats))


def _map_to_vec(offsets, phi: TaggedMap) -> Vec:
    out: Vec = {}
    for u, block in enumerate(phi):
        for s, c in block.items():
            out[offsets[u] + s] = c
    return out


# --------------------------------------------------------------------------
# Weight coordinates and root strings
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightVector:
    """Weight with an explicit basis tag (fundamental or simple-root)."""

    coords: tuple
    basis: str  # "fundamental" | "simple"

    def __post_init__(self):
        if self.basis not in ("fundamental", "simple"):
            raise ValueError(f"unknown weight basis {self.basis!r}")


def to_simple_root_coords(w: WeightVector, rs: RootSystem) -> WeightVector:
    """Fundamental-weight coordinates -> exact simple-root coordinates."""
    if w.basis == "simple":
        return w
    inv, den = integer_inverse(rs.cartan)
    coords = [Fraction(sum(a * c for a, c in zip(row, w.coords)), den)
              for row in inv]
    return WeightVector(tuple(coords), "simple")


def to_fundamental_coords(w: WeightVector, rs: RootSystem) -> WeightVector:
    if w.basis == "fundamental":
        return w
    coords = [rs.pairing(w.coords, i) for i in range(rs.rank)]
    return WeightVector(tuple(coords), "fundamental")


def string_length_down(rs: RootSystem, beta: Root, alpha: Root) -> int:
    return _string_down(rs, beta, alpha)


# --------------------------------------------------------------------------
# Bracket-table scans
# --------------------------------------------------------------------------

def check_antisymmetry(L: LieAlgebraTable) -> bool:
    """Structural given the storage scheme; spot-checks bracket symmetry."""
    for (i, j), v in L.brackets.items():
        if i >= j:
            return False
        back = L.bracket_basis(j, i)
        if {k: -c for k, c in v.items()} != back:
            return False
    return True


def bracket_additivity_violations(L: LieAlgebraTable, g: Grading) -> list:
    """Pairs (d, e), d <= e, of degrees with [g_d, g_e] not in g_{d+e}.

    The pieces are spanned by basis vectors, so it suffices to read the
    degree of every term of every basis bracket."""
    deg = g.degree
    bad = set()
    for (i, j), vec in L.brackets.items():
        di, dj = sorted((deg[i], deg[j]))
        if any(deg[k] != di + dj for k in vec):
            bad.add((di, dj))
    return sorted(bad)


def regauged_table(rs: RootSystem, seed: int) -> LieAlgebraTable:
    """`chevalley_table(rs)` in the basis e_a -> sigma_a e_a, with
    sigma_{-a} = sigma_a = +-1 drawn per positive root from a seeded RNG.

    In the new basis [e_i, e_j] = sum_k sigma_i sigma_j sigma_k c_k e_k
    (sigma = 1 on the Cartan), so N(a, b) becomes sigma_a sigma_b
    sigma_{a+b} N(a, b) and the Cartan brackets stay.  It is another
    Chevalley basis of the same algebra: every verdict must be unchanged.
    """
    table = chevalley_table(rs)
    rng = random.Random(f"regauge-{seed}")
    npos = len(rs.positive_roots)
    signs = [rng.choice((1, -1)) for _ in range(npos)]
    sigma = [1] * rs.rank + signs + signs
    return LieAlgebraTable(
        dim=table.dim, labels=table.labels,
        brackets={(i, j): {k: sigma[i] * sigma[j] * sigma[k] * c
                           for k, c in vec.items()}
                  for (i, j), vec in table.brackets.items()})


CORRUPTIONS = ("double", "negate", "drop", "add-term", "add-bracket")


def corrupted_chevalley_table(seed: int):
    """A stand-in for `chevalley_table` that applies one edit, drawn from a
    RNG seeded by `seed`, to each fresh table, the same edit on every
    rebuild: double or negate one coefficient, drop one bracket, add a
    term to one bracket, or add one bracket."""
    def corrupted(rs: RootSystem) -> LieAlgebraTable:
        table = chevalley_table(rs)
        br, dim = table.brackets, table.dim
        rng = random.Random(f"corrupt-{seed}")
        kind = rng.choice(CORRUPTIONS)
        key = rng.choice(sorted(br))
        vec = br[key]
        if kind in ("double", "negate"):
            m = rng.choice(sorted(vec))
            br[key] = {**vec, m: vec[m] * (2 if kind == "double" else -1)}
        elif kind == "drop":
            del br[key]
        elif kind == "add-term":
            m = rng.choice([m for m in range(dim) if m not in vec])
            br[key] = {**vec, m: rng.choice((1, -1))}
        else:
            key = rng.choice([(i, j) for i in range(dim)
                              for j in range(i + 1, dim) if (i, j) not in br])
            br[key] = {rng.randrange(dim): rng.choice((1, -1))}
        return table

    return corrupted


# --------------------------------------------------------------------------
# Spencer cochains
# --------------------------------------------------------------------------

def basis_C2(g, k: int) -> list:
    """(u, v, w) with u < v in g_+ and w in g_{deg u + deg v + k}, in
    g-index order: the C^{k,2} basis of g."""
    comps = g.components()
    gplus = [i for i, d in enumerate(g.degree) if d >= 1]
    return [
        (u, v, w)
        for ui, u in enumerate(gplus)
        for v in gplus[ui + 1 :]
        for w in comps.get(g.degree[u] + g.degree[v] + k, ())
    ]


# --------------------------------------------------------------------------
# Sampled references: the forms at any point, the expansion on random
# cochains
# --------------------------------------------------------------------------

def ii_value(case, forms, b: Vec) -> list:
    """II(b, b) for an arbitrary vector b in l_1 (V_2 coordinates)."""
    l1_idx = [case.root_index(r) for r in forms.l1_roots]
    coeffs = [b.get(i, 0) for i in l1_idx]
    d = forms.dim
    out = [0] * len(forms.beta)
    for i in range(d):
        if not coeffs[i]:
            continue
        for j in range(d):
            if not coeffs[j]:
                continue
            c = coeffs[i] * coeffs[j]
            row = forms.II[i][j]
            for k, v in enumerate(row):
                if v:
                    out[k] += c * v
    return out


def iii_value(case, forms, b: Vec):
    """III(b, b, b) for an arbitrary vector b in l_1."""
    l1_idx = [case.root_index(r) for r in forms.l1_roots]
    coeffs = [b.get(i, 0) for i in l1_idx]
    d = forms.dim
    total = 0
    for i in range(d):
        if not coeffs[i]:
            continue
        for j in range(d):
            if not coeffs[j]:
                continue
            cij = coeffs[i] * coeffs[j]
            row = forms.III[i][j]
            for k in range(d):
                if coeffs[k] and row[k]:
                    total += cij * coeffs[k] * row[k]
    return total


_SMAX = 7  # track s^0..s^6; everything above degree 3 must vanish


def _poly_add(dst: list, src: Vec, power: int, c: Fraction) -> None:
    vec_add_scaled(dst[power], src, c)


@dataclass
class ExpansionTrials:
    trials: int
    status: str


def conjugation_expansion_check(g, trials: int = 5,
                                seed: int = 0) -> ExpansionTrials:
    """(Id + sA) f((Id - sA)u, (Id - sA)u') equals the eight displayed terms,
    on `trials` random cochains f of degree -1, -2 or -3 and random u, u'.

    The exponential series is applied with its quadratic term included, so
    the identity genuinely exercises A^2 = 0; coefficients of s^4 and above
    must vanish identically.
    """
    rng = random.Random(f"expansion-{g.case.s_label}-{seed}")
    A = operator_a(g)
    gplus = [i for i, d in enumerate(g.degree) if d >= 1]
    comps = g.components()

    def rand_f(kf: int):
        table: dict[tuple[int, int], Vec] = {}
        for ui, u in enumerate(gplus):
            for v in gplus[ui + 1 :]:
                tgt = comps.get(g.degree[u] + g.degree[v] + kf, ())
                if not tgt or rng.random() < 0.5:
                    continue
                w = rng.choice(tgt)
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if c:
                    table[(u, v)] = {w: c}
        def f(x: Vec, y: Vec) -> Vec:
            out: Vec = {}
            for a, ca in x.items():
                for b, cb in y.items():
                    if a == b:
                        continue
                    key, sign = ((a, b), 1) if a < b else ((b, a), -1)
                    val = table.get(key)
                    if val:
                        vec_add_scaled(out, val, sign * ca * cb)
            return out
        return f

    def rand_vec() -> Vec:
        out: Vec = {}
        for _ in range(rng.randint(1, 3)):
            out[rng.choice(gplus)] = Fraction(rng.randint(-3, 3))
        return {k: v for k, v in out.items() if v}

    def apply_poly_A(poly: list, sign: int) -> list:
        """(Id + sign*sA + s^2 A^2/2) applied to an s-polynomial of vectors."""
        out = [dict() for _ in range(_SMAX)]
        for i, vec in enumerate(poly):
            if not vec:
                continue
            _poly_add(out, vec, i, Fraction(1))
            av = A.apply(vec)
            if av and i + 1 < _SMAX:
                _poly_add(out, av, i + 1, Fraction(sign))
            aav = A.apply(av)
            if aav and i + 2 < _SMAX:
                _poly_add(out, aav, i + 2, Fraction(1, 2))
        return out

    for trial in range(trials):
        kf = rng.choice((-1, -2, -3))
        f = rand_f(kf)
        u, up = rand_vec(), rand_vec()
        pu = apply_poly_A([u], -1)
        pup = apply_poly_A([up], -1)
        inner = [dict() for _ in range(_SMAX)]
        for i in range(_SMAX):
            for j in range(_SMAX - i):
                val = f(pu[i], pup[j])
                if val:
                    _poly_add(inner, val, i + j, Fraction(1))
        lhs = apply_poly_A(inner, +1)

        Au, Aup = A.apply(u), A.apply(up)
        rhs = [dict() for _ in range(_SMAX)]
        _poly_add(rhs, f(u, up), 0, Fraction(1))
        _poly_add(rhs, A.apply(f(u, up)), 1, Fraction(1))
        _poly_add(rhs, f(u, Aup), 1, Fraction(-1))
        _poly_add(rhs, f(Au, up), 1, Fraction(-1))
        _poly_add(rhs, f(Au, Aup), 2, Fraction(1))
        _poly_add(rhs, A.apply(f(u, Aup)), 2, Fraction(-1))
        _poly_add(rhs, A.apply(f(Au, up)), 2, Fraction(-1))
        _poly_add(rhs, A.apply(f(Au, Aup)), 3, Fraction(1))

        if lhs != rhs:
            return ExpansionTrials(trials=trial + 1, status="FAIL")
    return ExpansionTrials(trials=trials, status="PASS")
