"""Root systems and Chevalley bases.

Conventions fixed once for the whole package:

* Cartan matrix entry C[i][j] = 2(a_i, a_j)/(a_i, a_i), so the pairing of a
  vector x (in simple root coordinates) against the i-th simple coroot is
  (C @ x)[i].
* The symmetric form normalizes long roots to squared length 2.
* Positive roots are ordered by height, then lexicographically by
  coordinates; this fixes the total order used for extraspecial pairs and
  makes every table byte-reproducible.
* Structure constants follow the classical extraspecial-pair convention:
  N(xi, eta) = p + 1 > 0 when (xi, eta) is the extraspecial decomposition
  of its sum, all other constants derived through the Jacobi relations
  N(a,b) = -N(b,a), N(-a,-b) = -N(a,b), and the rotation identity for
  triples summing to zero.
* Each root is also coded as one integer, code(x) = sum_i x_i 64^i.  The
  code is linear and one-to-one on vectors with coordinates in -31..31;
  root coordinates are at most 6 in absolute value (checked when the root
  system is built), so sums, differences and root strings stay in range
  and a + b is a root exactly when code(a) + code(b) is the code of a
  root.  The Chevalley recursion and the table run on root indices found
  this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .liecore import ConsistencyError, LieAlgebraTable, _check

Root = tuple  # integer coordinates in the simple-root basis


_CLASSICAL_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_RANK_RANGES = {
    "A": (1, 12),
    "B": (2, 12),
    "C": (2, 12),
    "D": (3, 12),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def cartan_matrix(series: str, rank: int) -> list[list[int]]:
    """Cartan matrix in Bourbaki numbering, C[i][j] = 2(a_i,a_j)/(a_i,a_i)."""
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def edge(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if series in ("A", "B", "C"):
        for i in range(rank - 1):
            edge(i, i + 1)
        if series == "B" and rank >= 2:
            # a_rank short: its row carries the -2
            edge(rank - 2, rank - 1, -1, -2)
        if series == "C" and rank >= 2:
            edge(rank - 2, rank - 1, -2, -1)
    elif series == "D":
        for i in range(rank - 2):
            edge(i, i + 1)
        if rank >= 2:
            edge(rank - 3 if rank > 2 else 0, rank - 1)
    elif series == "E":
        # chain a1-a3-a4-a5-a6(-a7-a8), a2 attached to a4
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for x, y in zip(chain, chain[1:]):
            edge(x, y)
        edge(1, 3)
    elif series == "F":
        # a1, a2 long; a3, a4 short; the short root's row carries the -2
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
    elif series == "G":
        # a1 short, a2 long; the short root's row carries the -3
        edge(0, 1, -3, -1)
    else:
        raise ValueError(f"unknown series {series!r}")
    return C


def _simple_root_half_lengths(C: list[list[int]]) -> list[Fraction]:
    """d_i = (a_i,a_i)/2 normalized so long roots have squared length 2."""
    n = len(C)
    d = [None] * n
    d[0] = Fraction(1)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i != j and C[i][j] and d[i] is not None and d[j] is None:
                    # d_i C[i][j] = d_j C[j][i]
                    d[j] = d[i] * Fraction(C[i][j], C[j][i])
                    changed = True
    if any(x is None for x in d):
        raise ValueError("disconnected Cartan matrix in simple type builder")
    top = max(d)
    return [x / top for x in d]


@dataclass(frozen=True)
class RootSystem:
    """Immutable root data for one simple type."""

    series: str
    rank: int
    cartan: tuple
    positive_roots: tuple
    highest_root: Root
    half_lengths: tuple  # d_i = (a_i, a_i)/2, long roots normalized to 1
    _coroots: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)  # root -> coroot_coords(root)

    def pairing(self, x, i: int):
        """<x, a_i^vee> for x in simple-root coordinates (an `int` for
        integral x)."""
        return sum(c * xj for c, xj in zip(self.cartan[i], x))

    @cached_property
    def _form6(self) -> tuple:
        """6 (a_i, a_j): integral, since every d_i is 1, 1/2 or 1/3."""
        out = tuple(
            tuple(6 * d * c for c in row)
            for d, row in zip(self.half_lengths, self.cartan)
        )
        _check(all(v.denominator == 1 for row in out for v in row),
               "half lengths outside {1, 1/2, 1/3}")
        return tuple(tuple(int(v) for v in row) for row in out)

    def form6(self, x, y) -> int:
        """6 (x, y) with long roots of squared length 2, an integer for
        integral x and y."""
        total = 0
        for xi, row in zip(x, self._form6):
            if xi:
                total += xi * sum(c * yj for c, yj in zip(row, y) if yj)
        return total

    def is_root(self, x) -> bool:
        return tuple(x) in self._root_index

    @cached_property
    def _root_index(self) -> dict:
        """root -> index in all_roots()."""
        return {r: i for i, r in enumerate(self.all_roots())}

    def root_code(self, x) -> int:
        """sum_i x_i 64^i: linear in x and one-to-one on vectors with
        coordinates in -31..31, so a + b is a root exactly when
        code(a) + code(b) is a root code."""
        return sum(c << (6 * i) for i, c in enumerate(x) if c)

    @cached_property
    def _codes(self) -> tuple:
        """root_code of each root, in all_roots() order."""
        return tuple(self.root_code(r) for r in self.all_roots())

    @cached_property
    def _code_index(self) -> dict:
        """root code -> index in all_roots()."""
        return {c: i for i, c in enumerate(self._codes)}

    def all_roots(self) -> list[Root]:
        """Positive roots in table order, then their negatives."""
        neg = [tuple(-c for c in r) for r in self.positive_roots]
        return list(self.positive_roots) + neg

    def coroot_coords(self, alpha) -> tuple:
        """alpha^vee = sum_i c_i a_i^vee; returns the integer c_i, cached per
        root.  c_i = alpha_i 6(a_i, a_i) / 6(alpha, alpha), an exact division
        or ConsistencyError."""
        alpha = tuple(alpha)
        out = self._coroots.get(alpha)
        if out is None:
            norm6 = self.form6(alpha, alpha)
            out = []
            for i, x in enumerate(alpha):
                c, rem = divmod(x * self._form6[i][i], norm6)
                _check(not rem, f"non-integral coroot coefficient of {alpha}")
                out.append(c)
            out = self._coroots[alpha] = tuple(out)
        return out


def _parse_label(label: str) -> tuple[str, int]:
    label = label.strip()
    if not label or label[0].upper() not in _RANK_RANGES:
        raise ValueError(f"unknown Dynkin label {label!r}")
    series = label[0].upper()
    try:
        rank = int(label[1:])
    except ValueError:
        raise ValueError(f"unknown Dynkin label {label!r}") from None
    lo, hi = _RANK_RANGES[series]
    if not lo <= rank <= hi:
        raise ValueError(f"rank {rank} out of range for type {series}")
    return series, rank


def root_height(r) -> int:
    return sum(r)


def build_root_system(label: str) -> RootSystem:
    """Construct the positive roots of a simple type by string closure."""
    series, rank = _parse_label(label)
    C = cartan_matrix(series, rank)
    simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    known = set(simple)
    layers = [sorted(simple)]
    while True:
        nxt = set()
        for beta in layers[-1]:
            for i in range(rank):
                # p = how far the a_i-string through beta extends downwards;
                # every candidate has smaller height, hence is already known
                p = 0
                cur = list(beta)
                while True:
                    cur[i] -= 1
                    if tuple(cur) in known:
                        p += 1
                    else:
                        break
                pair = sum(C[i][j] * beta[j] for j in range(rank))
                if p - pair > 0:
                    cand = tuple(b + int(i == j) for j, b in enumerate(beta))
                    nxt.add(cand)
        if not nxt:
            break
        known |= nxt
        layers.append(sorted(nxt))
    positives = tuple(r for layer in layers for r in sorted(layer))
    expected = _CLASSICAL_POSITIVE_COUNTS[series](rank)
    _check(len(positives) == expected,
           f"{label}: closure produced {len(positives)} positive roots, "
           f"expected {expected}")
    top_height = max(root_height(r) for r in positives)
    tops = [r for r in positives if root_height(r) == top_height]
    _check(len(tops) == 1, f"{label}: highest root is not unique")
    theta = tops[0]
    _check(all(all(theta[i] >= r[i] for i in range(rank)) for r in positives),
           f"{label}: highest root does not dominate every positive root")
    # root strings have length at most 4, so every vector the root code is
    # read on has coordinates of size at most 6 + 4 * 6 = 30
    _check(max(theta) <= 6, f"{label}: root coordinates exceed the root code")
    d = _simple_root_half_lengths(C)
    return RootSystem(
        series=series,
        rank=rank,
        cartan=tuple(tuple(row) for row in C),
        positive_roots=positives,
        highest_root=theta,
        half_lengths=tuple(d),
    )


# --------------------------------------------------------------------------
# Chevalley structure constants
# --------------------------------------------------------------------------

def _string_down(rs: RootSystem, beta: Root, alpha: Root) -> int:
    """Largest p with beta - p*alpha a root."""
    codes = rs._code_index
    step = rs.root_code(alpha)
    cur = rs.root_code(beta) - step
    p = 0
    while cur in codes:
        p += 1
        cur -= step
    return p


def _quotient(num: int, den: int, a: Root, b: Root) -> int:
    """num / den, which is the constant N(a, b) and so an integer."""
    q, r = divmod(num, den)
    if r:
        raise ConsistencyError(
            f"structure constant N({a}, {b}) = {Fraction(num, den)} is not "
            f"an integer")
    return q


class ChevalleyConstants:
    """All N(a, b) for a Chevalley basis, built by the height recursion in
    integer arithmetic: each division is exact or raises ConsistencyError.

    The recursion runs on root indices into `rs.all_roots()`: index i < P
    is the i-th positive root (height order), i + P its negative, and the
    index of a sum is read off the root codes.  `n` takes root tuples.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._roots = rs.all_roots()
        self._npos = len(rs.positive_roots)
        self._pos = rs._root_index
        self._codes = rs._codes
        self._index = rs._code_index
        self._memo: dict[int, int] = {}  # a * (2 P) + b -> N(a, b)
        norm6 = [rs.form6(r, r) for r in rs.positive_roots]
        self._norm6 = norm6 + norm6
        self._extraspecial = self._build_extraspecial()

    def _build_extraspecial(self) -> dict[int, tuple[int, int]]:
        """Positive sum -> its extraspecial pair (xi, eta): xi first in
        height order among the pairs of positive roots, xi before eta."""
        out: dict[int, tuple[int, int]] = {}
        codes, index, npos = self._codes, self._index, self._npos
        for a in range(npos):
            ca = codes[a]
            for b in range(a + 1, npos):
                s = index.get(ca + codes[b])
                if s is not None and s not in out:
                    out[s] = (a, b)
        return out

    def n(self, a: Root, b: Root) -> int:
        """Structure constant in [e_a, e_b] = N(a,b) e_{a+b}."""
        return self._n(self._pos[a], self._pos[b])

    def _n(self, a: int, b: int) -> int:
        """N for root indices a, b; 0 when a + b is not a root."""
        m = self._npos * 2
        val = self._memo.get(a * m + b)
        if val is None:
            s = self._index.get(self._codes[a] + self._codes[b])
            if s is None:
                return 0
            val = self._compute(a, b, s)
            self._memo[a * m + b] = val
            self._memo[b * m + a] = -val
        return val

    def _compute(self, a: int, b: int, s: int) -> int:
        npos, codes, index = self._npos, self._codes, self._index
        if a < npos and b < npos:
            if a > b:
                return -self._n(b, a)
            xi, eta = self._extraspecial[s]
            if (a, b) == (xi, eta):
                return _string_down(self.rs, self._roots[b], self._roots[a]) + 1
            # Jacobi on (e_{-xi}, e_a, e_b); every constant on the right has
            # strictly smaller height data, so the recursion terminates.
            mxi = xi + npos
            lhs_coef = self._n(s, mxi)
            rhs = 0
            amx = index.get(codes[a] - codes[xi])
            if amx is not None:
                rhs -= self._n(mxi, a) * self._n(amx, b)
            bmx = index.get(codes[b] - codes[xi])
            if bmx is not None:
                rhs -= self._n(b, mxi) * self._n(bmx, a)
            if not lhs_coef:
                raise ConsistencyError(
                    f"extraspecial constant N({self._roots[s]}, "
                    f"-{self._roots[xi]}) vanished")
            return _quotient(rhs, lhs_coef, self._roots[a], self._roots[b])
        if a >= npos and b >= npos:
            return -self._n(a - npos, b - npos)
        if a >= npos:  # make the first argument positive
            return -self._n(b, a)
        # a positive, b = -mu negative, s = a - mu
        mu = b - npos
        norm6 = self._norm6
        if s < npos:
            # triple (s, mu, -a): N(a,-mu) = N(s,mu) (s,s)/(a,a)
            return _quotient(self._n(s, mu) * norm6[s], norm6[a],
                             self._roots[a], self._roots[b])
        u = s - npos
        # triple (a, u, -mu): N(a,-mu) = -N(a,u) (u,u)/(mu,mu)
        return _quotient(-self._n(a, u) * norm6[u], norm6[mu],
                         self._roots[a], self._roots[b])


def chevalley_table(rs: RootSystem) -> LieAlgebraTable:
    """Integer structure-constant table for the simple algebra of rs.

    Basis: h_1..h_rank, then e_alpha over all roots (positives in closure
    order, then negatives).  Constants are stored as `int`; a non-integral
    or vanishing one raises ConsistencyError.  A pair of roots costs one
    lookup of the code of its sum, and only the pairs whose sum is a root
    or zero reach the constants.  Deterministic: two calls on equal input
    give identical tables.
    """
    rank = rs.rank
    roots = rs.all_roots()
    npos = len(rs.positive_roots)
    codes, index = rs._codes, rs._code_index
    nconst = ChevalleyConstants(rs)
    brackets: dict[tuple[int, int], dict[int, int]] = {}

    # [h_i, e_r] = <r, a_i^vee> e_r; e_r has basis index rank + its root
    # index, and the pairings of -r are those of r negated
    pairings = [[rs.pairing(r, i) for i in range(rank)]
                for r in rs.positive_roots]
    pairings += [[-c for c in row] for row in pairings]
    for er, row in enumerate(pairings, rank):
        for i, c in enumerate(row):
            if c:
                brackets[(i, er)] = {er: c}
    for ia, a in enumerate(roots):
        ca = codes[ia]
        for ib in range(ia + 1, len(roots)):
            s = index.get(ca + codes[ib])
            if s is not None:
                b = roots[ib]
                c = nconst.n(a, b)
                if c.denominator != 1 or not c:
                    raise ConsistencyError(
                        f"structure constant N({a}, {b}) = {c} is not a "
                        f"nonzero integer")
                brackets[(rank + ia, rank + ib)] = {rank + s: int(c)}
            elif ib == ia + npos:
                cor = rs.coroot_coords(a)
                brackets[(rank + ia, rank + ib)] = {
                    i: c for i, c in enumerate(cor) if c}
    labels = tuple(f"h{i + 1}" for i in range(rank)) + tuple(
        "e" + "".join(f"{c:+d}" for c in r) for r in roots)
    return LieAlgebraTable(dim=rank + len(roots), labels=labels,
                           brackets=brackets)


def chevalley_generators(rs: RootSystem) -> list[int]:
    """The `chevalley_table` indices of e_a, then of e_{-a}, over the simple
    roots a, the first rank positive roots: they generate the algebra."""
    r, npos = rs.rank, len(rs.positive_roots)
    return [*range(r, 2 * r), *range(r + npos, 2 * r + npos)]


# --------------------------------------------------------------------------
# Dynkin diagram classification of sub-root-systems
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DynkinComponent:
    """One simple factor of a (possibly reducible) diagram.

    `nodes` lists the member indices of the input Cartan matrix in Bourbaki
    order for the detected type.
    """

    series: str
    rank: int
    nodes: tuple

    @property
    def type_label(self) -> str:
        return f"{self.series}{self.rank}"


def _components(adjacent: list[list[int]]) -> list[list[int]]:
    n = len(adjacent)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacent[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        out.append(sorted(comp))
    return out


def classify_dynkin(cartan: list[list]) -> list[DynkinComponent]:
    """Classify an integer Cartan matrix into simple components.

    Supports the types that arise as degree-zero subdiagrams here: A, B, C,
    D, E, F4, G2.  Single nodes come back as A1 and the B2/C2 coincidence is
    normalized to B2 (first node long).
    """
    n = len(cartan)
    adj = [[j for j in range(n) if j != i and cartan[i][j]] for i in range(n)]
    comps = []
    for nodes in _components(adj):
        comps.append(_classify_component(cartan, nodes, adj))
    return comps


def _classify_component(C, nodes, adj) -> DynkinComponent:
    k = len(nodes)
    if k == 1:
        return DynkinComponent("A", 1, tuple(nodes))
    local_adj = {v: [w for w in adj[v] if w in nodes] for v in nodes}
    mults = {
        (v, w): C[v][w] * C[w][v] for v in nodes for w in local_adj[v]
    }
    maxmult = max(mults.values())
    degrees = {v: len(local_adj[v]) for v in nodes}
    ends = sorted(v for v in nodes if degrees[v] == 1)

    def walk_path(start):
        path = [start]
        prev = None
        cur = start
        while True:
            nxt = [w for w in local_adj[cur] if w != prev]
            if not nxt:
                return path
            _check(len(nxt) == 1, "diagram branches where a path is required")
            prev, cur = cur, nxt[0]
            path.append(cur)

    if maxmult == 3:
        _check(k == 2, "triple edge only in G2")
        # Bourbaki G2: a1 short, a2 long; the short root's row holds the -3
        a, b = nodes
        if C[a][b] == -3:
            return DynkinComponent("G", 2, (a, b))
        return DynkinComponent("G", 2, (b, a))

    if maxmult == 2:
        _check(max(degrees.values()) <= 2 and len(ends) == 2,
               "double edge requires a path")
        path = walk_path(ends[0])
        dbl = [(path[i], path[i + 1]) for i in range(k - 1)
               if mults[(path[i], path[i + 1])] == 2]
        _check(len(dbl) == 1, "path carries more than one double edge")
        i = path.index(dbl[0][0])
        if k == 2:
            # B2 = C2: normalize to B2, long root first
            v, w = path
            if C[v][w] == -2:  # v short: flip so the long root leads
                path = [w, v]
            return DynkinComponent("B", 2, tuple(path))
        if i + 1 == k - 1 or i == 0:
            # double edge at an end; orient the path so it sits at the tail
            if i == 0:
                path = path[::-1]
            v, w = path[-2], path[-1]
            # short root's row carries the -2 toward the long neighbor
            if C[w][v] == -2:
                return DynkinComponent("B", k, tuple(path))
            return DynkinComponent("C", k, tuple(path))
        _check(k == 4, "interior double edge only in F4")
        v, w = path[1], path[2]
        if C[v][w] == -1:  # long side first (Bourbaki F4: a2 long, a3 short)
            return DynkinComponent("F", 4, tuple(path))
        return DynkinComponent("F", 4, tuple(path[::-1]))

    # simply laced
    branch = [v for v in nodes if degrees[v] == 3]
    if not branch:
        path = walk_path(ends[0])
        alt = walk_path(ends[1])
        return DynkinComponent("A", k, tuple(min(path, alt)))
    _check(len(branch) == 1, "only one branch node in A-D-E")
    b = branch[0]
    tails = []
    for w in sorted(local_adj[b]):
        tail = [w]
        prev = b
        cur = w
        while True:
            nxt = [x for x in local_adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            tail.append(cur)
        tails.append(tail)
    tails.sort(key=len)
    l1, l2, l3 = (len(t) for t in tails)
    if l1 == 1 and l2 == 1:
        # D_k: long tail reversed, then branch, then the two short tails
        long = tails[2]
        order = list(reversed(long)) + [b] + [tails[0][0], tails[1][0]]
        return DynkinComponent("D", k, tuple(order))
    _check((l1, l2) == (1, 2) and k in (6, 7, 8), "unrecognized diagram")
    # E_k in Bourbaki order: a1 a3 a4 a5 ... on the long path, a2 the stub
    arm2, arm_long = tails[1], tails[2]
    order = [arm2[1], tails[0][0], arm2[0], b] + arm_long
    return DynkinComponent("E", k, tuple(order))


def node_orbit(series: str, rank: int, idx: int) -> frozenset:
    """Orbit of a node index (0-based, Bourbaki) under diagram automorphisms."""
    if series == "A":
        return frozenset({idx, rank - 1 - idx})
    if series == "D":
        if rank == 4 and idx in (0, 2, 3):
            return frozenset({0, 2, 3})
        if idx in (rank - 2, rank - 1):
            return frozenset({rank - 2, rank - 1})
    if series == "E" and rank == 6:
        flip = {0: 5, 5: 0, 2: 4, 4: 2, 1: 1, 3: 3}
        return frozenset({idx, flip[idx]})
    return frozenset({idx})
