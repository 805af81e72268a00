"""Complemented near-l1 subspaces of free spaces on finite metric spaces:
the half-dimensional construction on a minimum spanning tree (Prim's
algorithm on the integer distance rows, O(n) extra memory), the general
selected-subset version with its interpolation constant, mod-p layer
selection, and the diamond sharpenings.

Every report is certified computationally: the interpolation constant C is
an exact finite max, and the projection norm is evaluated on the extreme
points of the free-space unit ball (the normalized elementary molecules).  The image of 1_p - 1_q is the difference
of two multisets of at most two unit masses each, so its transportation
norm is the cheaper of at most two matchings, read off in closed form:
transport between unit masses is an assignment problem, whose polytope has
integral vertices (Birkhoff-von Neumann), and a point in both multisets
costs nothing by the triangle inequality.  Both pair scans compare ratios
of the metric's integer distances over their common denominator and build
one Fraction at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import le

from .errors import EmptyComplement, PTooLarge, ValidationError
from .graphs import TwoPoleGraph, diamond
from .metric import MetricSpace, graph_metric
from .rational import num_to_json, to_fraction


@dataclass
class EmbeddingReport:
    ys: list[str]
    partners: dict[str, str]            # y -> nearest complement point
    d_values: dict[str, Fraction]
    c_constant: Fraction                # interpolation constant, eq-(11) style
    lower_eq: Fraction                  # certified lower l1-equivalence bound
    upper_eq: Fraction                  # certified upper bound (always 1)
    proj_norm: Fraction                 # computed over extreme points
    k: int

    def to_json(self) -> dict:
        num = num_to_json
        return {"k": self.k, "ys": list(self.ys),
                "partners": dict(sorted(self.partners.items())),
                "d_values": {y: num(v) for y, v in sorted(self.d_values.items())},
                "C": num(self.c_constant),
                "lower_eq": num(self.lower_eq), "upper_eq": num(self.upper_eq),
                "proj_norm": num(self.proj_norm)}


def _positions(seq: list, x, start: int = 0):
    """The indices i >= start with seq[i] == x, each found by list.index."""
    try:
        while True:
            start = seq.index(x, start)
            yield start
            start += 1
    except ValueError:
        return


def mst_parents(space: MetricSpace) -> tuple[list[int], list[int]]:
    """Minimum spanning tree by Prim's algorithm from point 0, as each
    point's parent index (0 for the root) and depth.

    Pairs are ordered by (rows[i][j], points[i], points[j]) with i < j, a
    strict total order, so the tree is unique: the one that sorted
    insertion (Kruskal) would build.  Each step adds the outside point
    whose least edge to the tree is least.  An edge's key is built only
    when the new tree point is at most as far from a point as the tree
    was, and compares the names only at a distance tie.  Extra memory is
    O(n).
    """
    pts, rows = space.points, space.rows
    n = len(pts)
    if n < 2:
        raise ValidationError("need at least two points")

    def key(d: int, t: int, u: int) -> tuple:
        return (d, pts[t], pts[u]) if t < u else (d, pts[u], pts[t])

    parent, depth = [0] * n, [0] * n
    rest = list(range(1, n))            # the points outside the tree,
    near = list(rows[0][1:])            # their distances to it,
    via = [0] * (n - 1)                 # the tree points at those distances
    least = [key(d, 0, u) for d, u in zip(near, rest)]     # and those edges' keys
    while rest:
        k = least.index(min(least))
        v = rest[k]
        parent[v], depth[v] = via[k], depth[via[k]] + 1
        for seq in (rest, near, via, least):
            seq[k] = seq[-1]
            seq.pop()
        row = rows[v]
        dist = list(map(row.__getitem__, rest))
        # only the points at most as far from v as from the tree can change
        for j in _positions(list(map(le, dist, near)), True):
            edge = key(dist[j], v, rest[j])
            if edge < least[j]:
                near[j], via[j], least[j] = dist[j], v, edge
    return parent, depth


def _selected_indices(space: MetricSpace, ys: list[str]) -> list[int]:
    """Indices of the selected points; ValidationError unless they are
    distinct points of the space."""
    index = space.index
    out = []
    for y in ys:
        if y not in index:
            raise ValidationError(f"selected point {y!r} is not in the space")
        out.append(index[y])
    if len(set(out)) != len(out):
        raise ValidationError("selected points repeat")
    return out


def _partner_indices(space: MetricSpace, ys: list[str],
                     partners: dict[str, str]) -> list[int]:
    """Per point index, the index of its partner if it is selected, else -1;
    ValidationError unless every selected point has a partner in the space."""
    index = space.index
    out = [-1] * len(space.points)
    for y, i in zip(ys, _selected_indices(space, ys)):
        if y not in partners:
            raise ValidationError(f"selected point {y!r} has no partner")
        if partners[y] not in index:
            raise ValidationError(f"partner {partners[y]!r} of {y!r} is not in the space")
        out[i] = index[partners[y]]
    return out


def interpolation_constant(space: MetricSpace, ys: list[str],
                           d_values: dict[str, Fraction]) -> Fraction:
    """max over pairs of (d_i + d_j) / d(y_i, y_j), floored at 1.

    With den the metric's common denominator, D its integer distances, s
    the common denominator of the d_i and a_i = s d_i, each ratio is
    den (a_i + a_j) / (s D_ij).  The max is taken over the integer pairs
    (a_i + a_j, D_ij) by cross-multiplication, starting from (s, den),
    which stands for the floor 1.
    """
    idx = _selected_indices(space, ys)
    for y in ys:
        if y not in d_values:
            raise ValidationError(f"selected point {y!r} has no d value")
    den, dist = space.den, space.rows
    vals = [to_fraction(d_values[y]) for y in ys]
    scale = lcm(*(v.denominator for v in vals))
    a = [v.numerator * (scale // v.denominator) for v in vals]
    best_num, best_den = scale, den
    for s, i in enumerate(idx):
        row = dist[i]
        for t in range(s + 1, len(idx)):
            num, d = a[s] + a[t], row[idx[t]]
            if num * best_den > best_num * d:
                best_num, best_den = num, d
    return Fraction(den * best_num, scale * best_den)


def projection_norm(space: MetricSpace, ys: list[str],
                    partners: dict[str, str]) -> Fraction:
    """Operator norm of P on the free space, exactly.

    The unit ball is the closed convex hull of the normalized elementary
    molecules, so the norm is the max of ||P(1_p - 1_q)|| / d(p, q) over
    pairs.  P(1_y - 1_z) = 1_y - 1_x for a selected y with partner x and an
    unselected z, so its norm is d(y, x); when both p and q are selected
    the image is (1_p + 1_{x_q}) - (1_{x_p} + 1_q), whose norm is
    min(d(p, x_p) + d(x_q, q), d(p, q) + d(x_q, x_p)) (module docstring).
    The scan runs on the integer distances, whose common denominator
    cancels from every ratio.
    """
    partner = _partner_indices(space, ys, partners)
    dist = space.rows
    own = [dist[i][x] if x >= 0 else 0 for i, x in enumerate(partner)]
    best_cost, best_d = 0, 1
    for i, xi in enumerate(partner):
        row = dist[i]
        for j in range(i + 1, len(partner)):
            xj = partner[j]
            if xj < 0:
                if xi < 0:
                    continue
                cost = own[i]
            elif xi < 0:
                cost = own[j]
            else:
                cost = min(own[i] + own[j], row[j] + dist[xj][xi])
            if cost * best_d > best_cost * row[j]:
                best_cost, best_d = cost, row[j]
    return Fraction(best_cost, best_d)


def _nearest(space: MetricSpace, ys: list[str], others) -> tuple[dict, dict]:
    """Each y's nearest point among others, the first name at a tie, and
    its distance: (partners, d_values)."""
    index, rows = space.index, space.rows
    others = sorted(others)
    cols = [index[z] for z in others]
    partners, d_values = {}, {}
    for y in ys:
        ds = list(map(rows[index[y]].__getitem__, cols))
        near = min(ds)
        partners[y] = others[ds.index(near)]
        d_values[y] = Fraction(near, space.den)
    return partners, d_values


def _build_report(space: MetricSpace, ys: list[str], partners: dict[str, str],
                  d_values: dict[str, Fraction]) -> EmbeddingReport:
    c = interpolation_constant(space, ys, d_values)
    return EmbeddingReport(ys=list(ys), partners=dict(partners),
                           d_values=dict(d_values), c_constant=c,
                           lower_eq=Fraction(1) / c, upper_eq=Fraction(1),
                           proj_norm=projection_norm(space, ys, partners), k=len(ys))


def half_dim_embedding(space: MetricSpace) -> EmbeddingReport:
    """At-least-half-dimensional selection: the larger side of the MST
    bipartition (depth parity in mst_parents), at a tie the side holding
    the least name.

    Cut property: under mst_parents' strict pair order each point's least
    edge is in the unique minimum spanning tree, so its nearest neighbour
    is a tree neighbour, on the other side.  The selected points' partners
    are therefore globally nearest neighbours, which caps the
    interpolation constant at 2.
    """
    sides = ([], [])
    for p, h in zip(space.points, mst_parents(space)[1]):
        sides[h % 2].append(p)
    side0, side1 = sides
    if len(side0) > len(side1) or (len(side0) == len(side1)
                                   and min(side0) < min(side1)):
        chosen, other = side0, side1
    else:
        chosen, other = side1, side0
    ys = sorted(chosen)
    partners, d_values = _nearest(space, ys, other)
    report = _build_report(space, ys, partners, d_values)
    if report.c_constant > 2:
        raise ValidationError("interpolation constant exceeded 2 on an MST selection")
    return report


def large_embedding(space: MetricSpace, ys: list[str]) -> EmbeddingReport:
    """Selected-subset embedding with nearest-complement partners."""
    _selected_indices(space, ys)
    complement = set(space.points).difference(ys)
    if not complement:
        raise EmptyComplement("selected set must have a nonempty complement")
    ys = sorted(ys)
    partners, d_values = _nearest(space, ys, complement)
    return _build_report(space, ys, partners, d_values)


def mod_p_selection(graph: TwoPoleGraph, p: int) -> list[str]:
    """Keep the vertices outside the smallest distance-residue class.

    The origin is a diameter-achieving vertex; classes collect vertices by
    distance mod p.  Guarantees |Y| >= n (p-1)/p and partner distances at
    most 2p, hence an interpolation constant at most 4p.  The distances
    must be integers (ValidationError otherwise): the residues of
    fractional distances carry neither guarantee.
    """
    if p < 2:
        raise ValidationError("p must be at least 2 (one class would be dropped empty)")
    space = graph_metric(graph)
    if space.den != 1:
        raise ValidationError(f"mod-p selection needs integer distances; "
                              f"these have denominator {space.den}")
    diam = space.diameter
    origin = min(v for v, row in zip(space.points, space.rows) if max(row) == diam)
    if p > diam + 1:
        raise PTooLarge(f"p = {p} exceeds diameter + 1 = {diam + 1}")
    classes: dict[int, list[str]] = {i: [] for i in range(p)}
    for v, x in zip(space.points, space.rows[space.index[origin]]):
        classes[x % p].append(v)
    drop = min(range(p), key=lambda i: (len(classes[i]), i))
    ys = sorted(v for i in range(p) if i != drop for v in classes[i])
    return ys


def diamond_top_level(n: int) -> EmbeddingReport:
    """Last-step vertices of the level-n diamond: an exactly isometric,
    norm-one complemented selection of dimension 2 * 4^(n-1)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    g = diamond(n)
    space = graph_metric(g)
    ys = sorted(v for v in g.interior_vertices if v.count("/") == n - 1)
    if len(ys) != 2 * 4 ** (n - 1):
        raise ValidationError("unexpected last-step vertex count")
    partners = {y: min(g.adjacency[y]) for y in ys}
    index, rows = space.index, space.rows
    d_values = {y: Fraction(rows[index[y]][index[x]], space.den) for y, x in partners.items()}
    return _build_report(space, ys, partners, d_values)


def diamond_stage_net(n: int, m: int) -> list[str]:
    """All level-m diamond vertices inside the level-n diamond.

    Every copy of the (n-m)-fold diamond has both poles here, so every
    vertex lies within 2^(n-m-1) of the set and dropping it certifies the
    interpolation constant 2^(n-m).
    """
    if not (1 <= m < n):
        raise ValidationError("need 1 <= m < n")
    g = diamond(n)
    net = [g.top, g.bottom]
    net.extend(v for v in g.interior_vertices if v.count("/") <= m - 1)
    return sorted(net)
