import random

import numpy as np
import pytest

from oracles import (
    eval_hull_2d_enumeration,
    lambda_grid_best,
    lower_left_chain_reference,
    upper_chain_reference,
)
from secache import (
    BelowDomain,
    EmptyInput,
    Infeasible,
    NotApplicable,
    RateMemoryPoint,
    Surface,
    corners,
    eval_hull_1d,
    eval_hull_2d,
    hull,
    upper_hull_1d,
)


def _surface_points(s):
    """The points :attr:`secache.Tradeoff.surface` builds on (the
    all-cached triples, then the weak-only points where that family
    applies), or None where the all-cached family does not apply."""
    try:
        points = corners.points_all_cached(s)
    except NotApplicable:
        return None
    try:
        return points + corners.points_weak_only(s)
    except NotApplicable:
        return points


def test_two_point_hull_keeps_both():
    c = upper_hull_1d([(0.0, 0.0125), (0.0142857, 0.0214286)])
    assert c.vertices == ((0.0, 0.0125), (0.0142857, 0.0214286))


def test_dominated_interior_point_removed():
    c = upper_hull_1d([(0.0, 1.0), (1.0, 0.5), (2.0, 2.0)])
    assert c.vertices == ((0.0, 1.0), (2.0, 2.0))


def test_single_point_hull():
    c = upper_hull_1d([(0.5, 0.3)])
    assert c.vertices == ((0.5, 0.3),)
    assert eval_hull_1d(c, 0.5) == 0.3
    assert eval_hull_1d(c, 1.0) == 0.3  # flat extension
    with pytest.raises(BelowDomain):
        eval_hull_1d(c, 0.4)


def test_duplicate_memory_keeps_best_rate():
    c = upper_hull_1d([(0.0, 0.1), (1.0, 0.2), (1.0, 0.5)])
    assert c.vertices == ((0.0, 0.1), (1.0, 0.5))


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        upper_hull_1d([])


def test_hull_concavity_and_monotonicity():
    rng = random.Random(99)
    pts = [(rng.uniform(0, 2), rng.uniform(0, 1)) for _ in range(40)]
    c = upper_hull_1d(pts)
    xs = [c.vertices[0][0] + i * 0.01 for i in range(250)]
    vals = [eval_hull_1d(c, x) for x in xs]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12
    second = [vals[i + 1] - 2 * vals[i] + vals[i - 1] for i in range(1, len(vals) - 1)]
    assert all(d <= 1e-9 for d in second)
    for m, r in pts:  # envelope dominates every input point
        assert eval_hull_1d(c, m) >= r - 1e-12


def test_eval_hull_1d_fig3_segments(fig3):
    from secache import points_weak_only

    c = upper_hull_1d([(p.M_w, p.R) for p in points_weak_only(fig3)])
    assert eval_hull_1d(c, 0.01) == pytest.approx(0.01875, abs=1e-12)
    assert eval_hull_1d(c, 0.1 / 7) == pytest.approx(0.15 / 7, abs=1e-12)
    assert eval_hull_1d(c, 2.0) == pytest.approx(1 / 30, abs=1e-12)


def _pt(r, mw, ms, i):
    return RateMemoryPoint(r, mw, ms, f"p{i}")


def test_eval_hull_2d_exact_point(fig3):
    pts = [_pt(0.0125, 0.0, 0.0, 0), _pt(0.02625, 0.0175, 0.0075, 1)]
    assert eval_hull_2d(pts, 0.0175, 0.0075) == pytest.approx(0.02625, abs=1e-12)
    assert eval_hull_2d(pts, 0.0, 0.0) == pytest.approx(0.0125, abs=1e-12)


def test_eval_hull_2d_interpolates():
    pts = [_pt(0.0, 0.0, 0.0, 0), _pt(1.0, 1.0, 1.0, 1)]
    assert eval_hull_2d(pts, 0.5, 0.5) == pytest.approx(0.5, abs=1e-9)
    assert eval_hull_2d(pts, 0.5, 1.0) == pytest.approx(0.5, abs=1e-9)


def test_eval_hull_2d_infeasible():
    pts = [_pt(1.0, 2.0, 2.0, 0)]
    with pytest.raises(Infeasible):
        eval_hull_2d(pts, 0.5, 0.5)


def test_eval_hull_2d_matches_lambda_grid_oracle():
    rng = random.Random(4321)
    for trial in range(50):
        pts = [
            _pt(
                round(rng.uniform(0.0, 1.0), 4),
                round(rng.uniform(0.0, 1.0), 4),
                round(rng.uniform(0.0, 1.0), 4),
                i,
            )
            for i in range(6)
        ]
        mw = round(rng.uniform(0.1, 1.0), 4)
        ms = round(rng.uniform(0.1, 1.0), 4)
        oracle = lambda_grid_best([(p.R, p.M_w, p.M_s) for p in pts], mw, ms, 1e-2)
        try:
            val = eval_hull_2d(pts, mw, ms)
        except Infeasible:
            assert oracle == float("-inf")
            continue
        assert val == pytest.approx(oracle, abs=2e-2), trial
        assert val >= oracle - 1e-9  # exact LP dominates any grid mixture


def test_eval_hull_2d_monotone_in_budgets():
    rng = random.Random(7)
    pts = [
        _pt(rng.uniform(0, 1), rng.uniform(0, 0.5), rng.uniform(0, 0.5), i)
        for i in range(8)
    ]
    prev = None
    for step in range(6):
        v = eval_hull_2d(pts, 0.05 + 0.1 * step, 0.05 + 0.1 * step)
        if prev is not None:
            assert v >= prev - 1e-9
        prev = v


def test_eval_hull_2d_reduces_to_1d_on_axis(fig3):
    from secache import points_weak_only

    pts = points_weak_only(fig3)
    c = upper_hull_1d([(p.M_w, p.R) for p in pts])
    for m in (0.0, 0.01, 0.05, 0.3, 0.9):
        assert eval_hull_2d(pts, m, 0.0) == pytest.approx(
            eval_hull_1d(c, m), abs=1e-9
        )


def test_eval_hull_2d_concave_along_budget_ray():
    rng = random.Random(11)
    pts = [_pt(0.0, 0.0, 0.0, 99)] + [
        _pt(rng.uniform(0, 1), rng.uniform(0, 0.6), rng.uniform(0, 0.6), i)
        for i in range(7)
    ]
    ts = [0.1 + 0.08 * i for i in range(10)]
    vals = [eval_hull_2d(pts, t, 0.7 * t) for t in ts]
    second = [vals[i + 1] - 2 * vals[i] + vals[i - 1] for i in range(1, len(vals) - 1)]
    assert all(d <= 1e-7 for d in second)


def _coord(rng, quarter):
    v = rng.uniform(0.0, 1.0)
    return round(v * 4) / 4 if quarter else round(v, 6)


def _degenerate_point_sets(seed=2024, count=240):
    """Random point sets, many of them degenerate: quarter-grid coordinates
    (collinear and coplanar subsets), duplicated points, every point on
    M_s = 0, and coplanar quadruples."""
    rng = random.Random(seed)
    for trial in range(count):
        kind = trial % 4
        quarter = kind == 0 or rng.random() < 0.3
        n = rng.randint(1, 10)
        pts = [
            (_coord(rng, quarter), _coord(rng, quarter),
             0.0 if kind == 2 else _coord(rng, quarter))
            for _ in range(n)
        ]
        if kind == 1:
            pts += rng.choices(pts, k=rng.randint(1, 3))
        if kind == 3:  # four points on one plane R = a + b M_w + c M_s
            a, b, c = rng.uniform(0, 0.5), rng.uniform(0, 1), rng.uniform(0, 1)
            for _ in range(4):
                mw, ms = _coord(rng, True), _coord(rng, True)
                pts.append((a + b * mw + c * ms, mw, ms))
        yield [_pt(r, mw, ms, i) for i, (r, mw, ms) in enumerate(pts)]


def _queries(rng, k=12):
    # slightly negative budgets make some queries infeasible
    return [(rng.uniform(-0.1, 1.2), rng.uniform(-0.1, 1.2)) for _ in range(k)] + [
        (0.0, 0.0), (0.25, 0.0), (0.5, 0.5), (2.0, 2.0)
    ]


def _value_or_infeasible(fn, *args):
    try:
        return fn(*args)
    except Infeasible:
        return None


def test_surface_matches_support_enumeration():
    rng = random.Random(99)
    infeasible = 0
    for pts in _degenerate_point_sets():
        surface = Surface(pts)
        for mw, ms in _queries(rng):
            got = _value_or_infeasible(surface, mw, ms)
            want = _value_or_infeasible(eval_hull_2d_enumeration, pts, mw, ms)
            assert (got is None) == (want is None), (pts, mw, ms, got, want)
            if got is None:
                infeasible += 1
            else:
                assert got == pytest.approx(want, abs=1e-12), (pts, mw, ms)
    assert infeasible > 100  # the infeasible outcome is exercised too


def test_surface_matches_linprog():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(7)
    for pts in _degenerate_point_sets(seed=31, count=120):
        surface = Surface(pts)
        rates = [-p.R for p in pts]
        a_ub = [[p.M_w for p in pts], [p.M_s for p in pts]]
        for mw, ms in _queries(rng, 6):
            lp = optimize.linprog(rates, A_ub=a_ub, b_ub=[mw, ms], A_eq=[[1.0] * len(pts)],
                                  b_eq=[1.0], bounds=[(0.0, None)] * len(pts))
            got = _value_or_infeasible(surface, mw, ms)
            if lp.status == 2:
                assert got is None, (pts, mw, ms)
            else:
                assert lp.status == 0, lp.message
                assert got == pytest.approx(-lp.fun, abs=1e-9), (pts, mw, ms)


def test_surface_mixture_is_an_optimal_certificate():
    rng = random.Random(5)
    for pts in _degenerate_point_sets(seed=8, count=120):
        surface = Surface(pts)
        by_label = {p.label: p for p in pts}
        for mw, ms in _queries(rng, 6):
            value = _value_or_infeasible(surface, mw, ms)
            if value is None:
                with pytest.raises(Infeasible):
                    surface.mixture(mw, ms)
                continue
            mix = surface.mixture(mw, ms)
            assert 1 <= len(mix) <= 3
            assert all(w > 0 for _, w in mix)
            assert sum(w for _, w in mix) == pytest.approx(1.0, abs=1e-12)
            assert sum(w * by_label[l].M_w for l, w in mix) <= mw + 1e-9
            assert sum(w * by_label[l].M_s for l, w in mix) <= ms + 1e-9
            assert sum(w * by_label[l].R for l, w in mix) == pytest.approx(value, abs=1e-12)


def test_surface_mixture_with_many_points_on_one_plane():
    """At delta_w = 1 a scenario's corner points collapse onto the origin
    (125 copies on one scenario); the certificate reduces the points on the
    minimising plane to the vertices of their projection."""
    pts = [_pt(0.0, 0.0, 0.0, i) for i in range(150)]
    pts += [_pt(0.5, 1.0, 0.0, 150), _pt(0.5, 0.0, 1.0, 151), _pt(1.0, 2.0, 2.0, 152)]
    pts += [_pt(0.25 * k, 0.5 * k, 0.0, 153 + k) for k in range(1, 4)]  # collinear
    surface = Surface(pts)
    mix = dict(surface.mixture(0.5, 0.5))
    assert surface(0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert len(mix) <= 3 and sum(mix.values()) == pytest.approx(1.0, abs=1e-12)
    by_label = {p.label: p for p in pts}
    assert sum(w * by_label[l].R for l, w in mix.items()) == pytest.approx(0.5, abs=1e-12)


def test_surface_planes_are_the_dual_vertices(fig3, fig5):
    """Every plane is dual-feasible and has three independent tight
    constraints (points on it, or a zero slope).  Coplanar points give one
    vertex from several triples, equal up to rounding; the distinct
    vertices are counted (values are pinned by the golden)."""
    import numpy as np

    for s, count in ((fig3, 92), (fig5, 135)):
        pts = _surface_points(s)
        rows = np.array([(p.M_w, p.M_s, 1.0) for p in pts])
        rates = np.array([p.R for p in pts])
        planes = Surface(pts).planes
        assert (planes[:, :2] >= 0).all()
        for plane in planes:
            gap = rows @ plane - rates
            assert gap.min() >= -1e-15
            tight = [*rows[gap <= 1e-12], *np.eye(3)[:2][plane[:2] == 0]]
            assert np.linalg.matrix_rank(np.array(tight), tol=1e-9) == 3
        near = np.abs(planes[:, None, :] - planes[None, :, :]).max(axis=2) <= 1e-12
        assert (~np.tril(near, -1).any(axis=1)).sum() == count


def test_surface_empty_input_rejected():
    with pytest.raises(EmptyInput):
        Surface([])


def test_array_chains_match_the_list_chains():
    """The 1-D chain and the lower-left chain on arrays pick the indices the
    list versions pick, ties included: a stable (m, r) order, and the last
    of equal (M_w, M_s) points."""
    for seed, count in ((2024, 240), (31, 120)):
        for pts in _degenerate_point_sets(seed=seed, count=count):
            R, Mw, Ms = (np.array([getattr(p, f) for p in pts]) for f in ("R", "M_w", "M_s"))
            for cost in (Mw, Ms):
                assert hull._upper_chain(cost, R) == upper_chain_reference(cost.tolist(), R.tolist())
            where = {(w, m): i for i, (w, m) in enumerate(zip(Mw.tolist(), Ms.tolist()))}
            assert hull._lower_left_chain(Mw, Ms) == [where[p] for p in lower_left_chain_reference(list(where))]
