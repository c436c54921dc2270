import dataclasses
import hashlib
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sliceseg import (
    PlanMismatchError,
    PointCloud,
    SlicePlan,
    SliceSpec,
    SlicerConfig,
    build_plan,
    compute_psi,
    extract_slices,
    plan_from_json,
    plan_to_json,
)
from sliceseg import projection, slicer
from sliceseg.cloud import SIDES, Axis, AxisRange, Side, extract_range, remove_range
from sliceseg.projection import neighbor_pairs, pixel_keys
from sliceseg.slicer import _PlanState, best_width, core_slices, select_slice
from sliceseg.synthetic import gen_synthetic

from conftest import (
    brute_best_width,
    brute_candidates,
    candidate_psi,
    cube_cloud,
    extent,
    make_cloud,
    mask_extract_slices,
    oracle_extract_slices,
    oracle_plan,
    oracle_slab,
    planner_rank,
    point_set,
    random_cloud,
    slab,
    slab_lost,
    working_cloud,
)


def cfg(theta=64, threshold="0.05", overlap=0, plane_rule="best-plane"):
    return SlicerConfig(theta=theta, threshold_frac=threshold, overlap=overlap, plane_rule=plane_rule)


class TestConfig:
    def test_defaults(self):
        c = SlicerConfig()
        assert c.theta == 64
        assert c.threshold_frac == Fraction(1, 20)
        assert c.overlap == 2

    def test_threshold_is_exact(self):
        c = SlicerConfig(threshold_frac=0.05)
        assert c.threshold_frac * 1000 == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            SlicerConfig(theta=0)
        with pytest.raises(ValueError):
            SlicerConfig(threshold_frac="1.0")
        with pytest.raises(ValueError):
            SlicerConfig(overlap=-1)
        with pytest.raises(ValueError):
            SlicerConfig(plane_rule="diagonal")

    @pytest.mark.parametrize(
        "field, largest, message",
        [
            ("theta", 0xFFFF, "theta does not fit the 16-bit header field"),
            ("overlap", 0xFF, "overlap does not fit the 8-bit header field"),
        ],
        ids=["theta", "overlap"],
    )
    def test_stream_header_bounds(self, field, largest, message):
        assert getattr(SlicerConfig(**{field: largest}), field) == largest
        with pytest.raises(ValueError, match=f"^{message}$"):
            SlicerConfig(**{field: largest + 1})

    def test_threshold_exponent_is_bounded(self):
        # "1e-2000000" would take about a second to build its denominator
        with pytest.raises(ValueError, match="exponent of '1e-2000000' is beyond"):
            SlicerConfig(threshold_frac="1e-2000000")
        with pytest.raises(ValueError, match="malformed plan JSON: exponent"):
            text = plan_to_json(build_plan(cube_cloud(), cfg()))
            plan_from_json(text.replace('"threshold_frac": 0.05', '"threshold_frac": "1E+1001"'))
        assert SlicerConfig(threshold_frac="1e-1000").threshold_frac == Fraction(1, 10**1000)


class TestCandidatePsi:
    def test_cube_face_slab(self):
        assert candidate_psi(cube_cloud(), Side(Axis.X, +1), 1) == (4, 0.0)

    def test_cube_full_slab(self):
        assert candidate_psi(cube_cloud(), Side(Axis.X, +1), 2) == (8, 0.5)

    def test_plane_whole_capture(self):
        plane = gen_synthetic("plane", {"extent": 10})
        assert candidate_psi(plane, Side(Axis.Z, -1), 1) == (100, 0.0)

    def test_gap_geometry_face_slab(self):
        # slabs anchor at the bbox face, so they always hold the face point
        # even when the interior is hollow
        cloud = make_cloud([(0, 0, 0), (9, 0, 0)])
        count, psi = candidate_psi(cloud, Side(Axis.X, +1), 1)
        assert count == 1 and psi == 0.0
        count, psi = candidate_psi(cloud, Side(Axis.X, +1), 5)
        assert count == 1 and psi == 0.0


class TestBestWidth:
    def test_cube_prefers_thin_clean_slab(self):
        # exhaustive enumeration over w in {1, 2}: w=1 -> 0.0, w=2 -> 0.5
        by_width = {
            w: candidate_psi(cube_cloud(), Side(Axis.Z, -1), w)
            for w in (1, 2)
        }
        assert by_width == {1: (4, 0.0), 2: (8, 0.5)}
        cand = best_width(_PlanState(cube_cloud(), cfg(), 8), Side(Axis.Z, -1))
        assert (cand.width, cand.psi) == (1, 0.0)

    def test_parallel_planes_tie_breaks_to_larger_width(self):
        pts = [(x, y, 0) for x in range(10) for y in range(10)]
        pts += [(x, y, 9) for x in range(10) for y in range(10)]
        cloud = make_cloud(pts)
        # every width w in 1..10 has psi 0 (planes are separate components);
        # the largest width that exists along Z wins
        for w in range(1, 11):
            _, psi = candidate_psi(cloud, Side(Axis.Z, -1), w)
            assert psi == 0.0
        cand = best_width(_PlanState(cloud, cfg(), len(cloud)), Side(Axis.Z, -1))
        assert cand.width == 10

    def test_exhausted_below_threshold(self):
        tiny = make_cloud([(0, 0, 0), (3, 3, 3), (6, 6, 6)])
        # threshold of 5 points: tau * N0 = 0.05 * 100
        assert best_width(_PlanState(tiny, cfg(), 100), Side(Axis.X, -1)) is None

    def test_widths_capped_at_extent(self):
        cloud = make_cloud([(x, 0, 0) for x in range(5)])
        cand = best_width(_PlanState(cloud, cfg(theta=64), 5), Side(Axis.X, -1))
        assert cand.width <= 5

    @pytest.mark.parametrize("plane_rule", ["best-plane", "fixed-plane"])
    def test_matches_exhaustive_loop_every_side(self, rng, plane_rule):
        for _ in range(8):
            cloud = random_cloud(rng, max_points=300, extent_range=(4, 20))
            for theta in (3, 64):
                config = cfg(theta=theta, threshold="0.05", plane_rule=plane_rule)
                for side in SIDES:
                    expect = brute_best_width(cloud, side, config, len(cloud))
                    assert best_width(_PlanState(cloud, config, len(cloud)), side) == expect

    def test_incumbent_that_cannot_be_beaten_returns_none(self):
        pts = [(x, y, 0) for x in range(10) for y in range(10)]
        pts += [(x, y, 9) for x in range(10) for y in range(10)]
        cloud = make_cloud(pts)
        # +Z's best (width 10, psi 0) is matched but not beaten by -Z's best
        state = _PlanState(cloud, cfg(), len(cloud))
        incumbent = best_width(state, Side(Axis.Z, +1))
        assert (incumbent.width, incumbent.lost) == (10, 0)
        assert best_width(state, Side(Axis.Z, -1), incumbent) is None


@given(
    st.lists(
        st.tuples(*[st.integers(0, 7)] * 3), min_size=1, max_size=80, unique=True
    ),
    st.sampled_from(["best-plane", "fixed-plane"]),
)
@settings(max_examples=60, deadline=None)
def test_lost_points_non_decreasing_in_width(points, plane_rule):
    """The lemma the pruned width search rests on: nested slabs never lose fewer points."""
    cloud = make_cloud(points)
    for side in SIDES:
        losses = [
            slab_lost(slab(cloud, side, w)[1], side, plane_rule)
            for w in range(1, extent(cloud, side.axis) + 1)
        ]
        assert losses == sorted(losses)


def _probes(cloud: PointCloud, side: Side, theta: int, plane_rule: str, min_points: int):
    """The last width best_width's gallop and doubling probes reach on a fresh plan state, as
    its own rule takes them on slabs extracted anew, and the point count of each width
    1..theta; None when no width holds `min_points` points. theta must not pass the extent."""
    counts = [len(slab(cloud, side, w)[1]) for w in range(1, theta + 1)]
    eligible = [w for w, count in enumerate(counts, 1) if count >= min_points]
    if not eligible:
        return None
    best, lost = None, {}

    def probe(width):
        nonlocal best
        lost[width] = slab_lost(slab(cloud, side, width)[1], side, plane_rule)
        if slicer._beats(lost[width], counts[width - 1], width, side, best):
            best = slicer.Candidate(side, width, counts[width - 1], lost[width])

    b, step = eligible[0], 1
    probe(b)
    while lost[b] == 0 and b < theta:  # gallop out to a lossy width
        b, step = min(b + step, theta), step * 2
        probe(b)
    while b < theta and slicer._beats(lost[b], counts[-1], theta, side, best):  # double past it
        b = min(2 * b, theta)
        probe(b)
    return b, counts


@pytest.mark.parametrize("plane_rule", ["best-plane", "fixed-plane"])
def test_prefix_losses_match_slabs_labeled_afresh(rng, plane_rule):
    """best_width labels each width as a depth-ordered prefix of its side's widest slab.

    Every loss it caches must equal compute_psi on the slab extracted anew.
    With a fresh plan state per theta, width theta is labeled, resumed from
    the roots of a narrower prefix, exactly when the gallop or the doubling
    probes reach it; the cache, keyed by span, also holds it when the last
    probe's slab has the same points. A plane, lossless on every side under
    best-plane, makes the gallop run out to theta. One layer is lossless, so
    only at threshold 0.2, where a wider slab is the narrowest eligible one,
    does the search start at a lossy width and double past it.
    """
    clouds = [random_cloud(rng, max_points=300, extent_range=(4, 14)) for _ in range(6)]
    clouds.append(gen_synthetic("plane", {"extent": 9}))
    for cloud, threshold in itertools.product(clouds, ["0", "0.2"]):
        for side in SIDES:
            for theta in range(1, extent(cloud, side.axis) + 1):
                config = cfg(theta=theta, threshold=threshold, plane_rule=plane_rule)
                state = _PlanState(cloud, config, len(cloud))
                best_width(state, side)
                cache = state.losses
                probes = _probes(cloud, side, theta, plane_rule, state.min_points)
                if probes is not None:
                    last, counts = probes
                    span = slab(cloud, side, theta)[1].coords[:, side.axis]
                    key = (side.axis, int(span.min()), int(span.max()))
                    assert (key in cache) == (counts[last - 1] == counts[-1])
                for (axis, lo, hi), (count, lost) in cache.items():
                    sub = extract_range(cloud, AxisRange(axis, lo, hi + 1))
                    assert (len(sub), lost) == (count, slab_lost(sub, side, plane_rule))


def _labeled_prefixes(monkeypatch) -> list[int]:
    """The point count of each prefix best_width labels from now on (its pixel_areas calls)."""
    counts: list[int] = []
    areas = slicer.pixel_areas

    def counted(roots, pixels, count):
        counts.append(count)
        return areas(roots, pixels, count)

    monkeypatch.setattr(slicer, "pixel_areas", counted)
    return counts


def _plan_work(monkeypatch) -> tuple[list[int], list[int], list[int]]:
    """Lists that fill as plans run from now on: the point count of each labeled prefix,
    the pair count of each slab built (`_PlanState.slab` calls) and the key count of each
    `distinct` call."""
    labeled, slabs, sorted_keys = _labeled_prefixes(monkeypatch), [], []
    slab, distinct = _PlanState.slab, projection.distinct

    def counted(state, side, count):
        built = slab(state, side, count)
        slabs.append(len(built.src))
        return built

    def counted_distinct(keys):
        sorted_keys.append(len(keys))
        return distinct(keys)

    monkeypatch.setattr(_PlanState, "slab", counted)
    monkeypatch.setattr(projection, "distinct", counted_distinct)
    return labeled, slabs, sorted_keys


@pytest.mark.parametrize("plane_rule", ["best-plane", "fixed-plane"])
def test_incumbents_from_the_exhaustive_loop(monkeypatch, rng, plane_rule):
    """best_width against an incumbent: the exhaustive best where that beats it, else None.

    Incumbents are the exhaustive loop's candidates of every side and
    width: lossless and lossy, narrower than, as wide as and wider than the
    side's own best. A win is the planner's order: less loss, then the
    larger width, then the side earlier in SIDES. Against a lossless
    incumbent the side starts at the incumbent's width if it is the earlier
    side, else one past it, and if it does not win it labels at most one
    slab. When the side's best is a lossless width L, no slab past the
    gallop's lossy probe is labeled: from its start width s the probes
    s + 1, s + 3, s + 7, ... pass L by at most L - s + 1.
    """
    labeled = _labeled_prefixes(monkeypatch)
    seen = set()
    for _ in range(8):
        cloud = random_cloud(rng, max_points=150, extent_range=(4, 11))
        # a high threshold leaves only thick, lossy slabs eligible
        threshold = str(rng.choice(["0.02", "0.3"]))
        config = cfg(theta=int(rng.integers(3, 12)), threshold=threshold, plane_rule=plane_rule)
        state = _PlanState(cloud, config, len(cloud))
        cands = {side: brute_candidates(cloud, side, config, len(cloud)) for side in SIDES}
        incumbents = {(c.lost, c.count, c.width): c for cs in cands.values() for c in cs}
        for side in SIDES:
            by_width = {c.width: c for c in cands[side]}
            expect = brute_best_width(cloud, side, config, len(cloud))
            for incumbent in incumbents.values():
                state.losses.clear()  # each call labels afresh
                labeled.clear()
                got = best_width(state, side, incumbent)
                wins = expect is not None and planner_rank(expect) < planner_rank(incumbent)
                assert got == (expect if wins else None)
                start = min(by_width, default=0)
                if incumbent.lost == 0:
                    later = SIDES.index(side) >= SIDES.index(incumbent.side)
                    start = max(start, incumbent.width + later)
                    if got is None:
                        assert len(labeled) <= 1
                if got is not None and got.lost == 0:
                    reach = min(2 * got.width - start + 1, max(by_width))
                    assert max(labeled, default=0) <= by_width[reach].count
                if expect is not None:
                    seen.add((incumbent.lost == 0, np.sign(incumbent.width - expect.width)))
    assert seen == {(lossless, order) for lossless in (True, False) for order in (-1, 0, 1)}


# The benchmark's plan-suite inputs at seed 1 and the work of planning each, with
# doubling probes past a side's lossy width and the previous round's winning side
# searched first: prefixes labeled (pixel_areas calls) before the terminal residue,
# then, the terminal included, points labeled, slabs built, pairs gathered into those
# slabs and keys sorted in `distinct` (as in _FRAME_WORK).
_PLAN_SUITE = {
    "folded-sheet-32": (
        "folded-sheet", {"extent": 32, "amplitude": 8, "period": 16}, 7,
        (34, 27_311, 15, 150_299, 81_933),
    ),
    "sphere-shell-20": ("sphere-shell", {"extent": 20}, 0, (115, 11_608, 60, 121_514, 34_824)),
    "sphere-shell-20-fixed": (
        "sphere-shell", {"extent": 20}, 0, (107, 10_360, 63, 121_862, 10_360),
    ),
    "uniform-random-48": (
        "uniform-random", {"extent": 48, "count": 1000}, 1, (7, 2_621, 1, 126, 7_863),
    ),
}


@pytest.mark.parametrize("name", _PLAN_SUITE)
def test_plan_suite_labels_no_more_prefixes(monkeypatch, name):
    """A width search that labels, builds, gathers or sorts more than these bounds has lost
    a pruning rule.

    The terminal residue, if any, is labeled once more, as one prefix of all its points.
    """
    kind, params, seed, bound = _PLAN_SUITE[name]
    cloud = gen_synthetic(kind, params, seed=seed)
    rule = "fixed-plane" if name.endswith("fixed") else "best-plane"
    config = SlicerConfig(theta=64, threshold_frac="0.05", overlap=2, plane_rule=rule)
    labeled, slabs, sorted_keys = _plan_work(monkeypatch)
    terminal, by_terminal = slicer._terminal_spec, []

    def counted(state, index):
        before = len(labeled)
        spec = terminal(state, index)
        by_terminal.extend(labeled[before:])
        del labeled[before:]
        return spec

    monkeypatch.setattr(slicer, "_terminal_spec", counted)
    plan = build_plan(cloud, config)
    last = plan.slices[-1]
    assert by_terminal == ([last.point_count] if last.terminal else [])
    work = (len(labeled), sum(labeled + by_terminal), len(slabs), sum(slabs), sum(sorted_keys))
    assert all(got <= most for got, most in zip(work, bound)), work


@pytest.mark.parametrize("name", _PLAN_SUITE)
def test_plan_builds_no_cloud_per_round(monkeypatch, name):
    """Rounds and the terminal residue read the plan state's depth orders: no cloud is built."""
    kind, params, seed, _ = _PLAN_SUITE[name]
    cloud = gen_synthetic(kind, params, seed=seed)
    rule = "fixed-plane" if name.endswith("fixed") else "best-plane"
    config = SlicerConfig(theta=64, threshold_frac="0.05", overlap=2, plane_rule=rule)
    subset, calls = PointCloud.subset, []

    def counted(self, mask):
        calls.append(mask)
        return subset(self, mask)

    monkeypatch.setattr(PointCloud, "subset", counted)
    build_plan(cloud, config)
    assert calls == []


@pytest.mark.parametrize("plane_rule", ["best-plane", "fixed-plane"])
def test_terminal_psi_is_the_oracle_loss_on_the_residue(rng, plane_rule):
    """A terminal slice's psi is the oracle's loss on the points no earlier core took.

    The oracle scores each component of the residue on its best plane or,
    under fixed-plane, on the plane facing the terminal's side.
    """
    inputs = [case for name, case in _PLAN_SUITE.items() if not name.endswith("fixed")]
    clouds = [gen_synthetic(kind, params, seed=seed) for kind, params, seed, _ in inputs]
    clouds += [random_cloud(rng, max_points=300, extent_range=(4, 14)) for _ in range(8)]
    terminals = lossy = 0
    for cloud in clouds:
        for theta, threshold in ((64, "0.05"), (4, "0.3")):
            plan = build_plan(cloud, cfg(theta, threshold, overlap=2, plane_rule=plane_rule))
            *cores, last = plan.slices
            residue = cloud
            for spec in cores:
                residue = remove_range(residue, spec.core)
            if last.terminal:
                terminals, lossy = terminals + 1, lossy + (last.psi > 0)
                assert last.point_count == len(residue)
                assert last.psi == slab_lost(residue, last.side, plane_rule) / len(residue)
    assert terminals >= 10 and lossy >= 4


def _plan_checking_rounds(monkeypatch, cloud, config, check):
    """build_plan with `check(state)` run on the plan's state before each round's search."""
    select = slicer.select_slice

    def checked(state, index=0):
        check(state)
        return select(state, index)

    with monkeypatch.context() as m:
        m.setattr(slicer, "select_slice", checked)
        return build_plan(cloud, config)


def _slab_members(state, side: Side, count: int) -> np.ndarray:
    """Planned-cloud indices of a slab's points by depth: the side's end of its axis order."""
    order = state.order[side.axis]
    return order[::-1][:count] if side.positive else order[:count]


def _pair_set(coords, src, dst):
    return {frozenset((tuple(coords[a]), tuple(coords[b]))) for a, b in zip(src, dst)}


def test_plan_state_slabs_match_slabs_built_afresh(monkeypatch, rng):
    """Each round, the plan's pairs and pixel keys restricted to a slab are the slab's own.

    The state's pairs stand in for neighbor_pairs of every slab of every
    round, so they must be exactly the slab's 26-adjacent pairs: none
    missing, none with an end outside the slab or already sliced off. Each
    axis order must hold exactly the points no earlier core removed.
    """
    rounds = 0
    remove = _PlanState.remove

    def removing(state, core):
        nonlocal expected
        expected = remove_range(expected, core)
        remove(state, core)

    def check(state):
        nonlocal rounds
        rounds += 1
        working = working_cloud(state)
        assert np.array_equal(working.coords, expected.coords)
        for axis, order in enumerate(state.order):
            assert np.array_equal(np.sort(order), np.sort(state.order[0]))
            assert (np.diff(cloud.coords[order, axis]) >= 0).all()
            assert np.array_equal(state.ascending[axis], cloud.coords[order, axis])
        for side in SIDES:
            span = extent(working, side.axis)
            for width in sorted({1, (span + 1) // 2, span}):
                _, sub = slab(working, side, width)
                got, members = state.slab(side, len(sub)), _slab_members(state, side, len(sub))
                coords = cloud.coords[members].tolist()
                assert len(coords) == len(sub) and set(map(tuple, coords)) == point_set(sub)
                depth = cloud.coords[members, side.axis] * -side.sign
                assert (np.diff(depth) >= 0).all()
                assert np.array_equal(got.pixels, pixel_keys(cloud.subset(members)))
                assert (got.src < got.dst).all()
                want = _pair_set(sub.coords.tolist(), *neighbor_pairs(sub))
                assert len(got.src) == len(want)
                assert _pair_set(coords, got.src, got.dst) == want

    monkeypatch.setattr(_PlanState, "remove", removing)
    for _ in range(6):
        cloud = expected = random_cloud(rng, max_points=300, extent_range=(4, 14))
        _plan_checking_rounds(monkeypatch, cloud, cfg(theta=4), check)
    assert rounds >= 12


@pytest.mark.parametrize("plane_rule", ["best-plane", "fixed-plane"])
def test_plan_state_slab_matches_oracle_before_and_after_remove(rng, plane_rule):
    """Every side's slab, below and at the working size, as the oracle builds it afresh.

    Counts that end mid-layer pin the order of equal depths too. Between
    checks the state drops a face band, as a planning round does, so the
    rank tables are checked after `remove` as well.
    """
    checked = 0
    for _ in range(5):
        cloud = random_cloud(rng, max_points=300, extent_range=(4, 12))
        state = _PlanState(cloud, cfg(plane_rule=plane_rule), len(cloud))
        for side in SIDES[:4]:  # check, then remove this side's two-layer band
            n = len(state.order[0])
            for slab_side in SIDES:
                for count in sorted({1, n // 3, n - 1, n} - {0}):
                    got = state.slab(slab_side, count)
                    members, pairs, pixels = oracle_slab(state, slab_side, count)
                    assert np.array_equal(_slab_members(state, slab_side, count), members)
                    assert len(got.src) == len(pairs)
                    assert set(zip(got.src.tolist(), got.dst.tolist())) == pairs
                    assert np.array_equal(got.pixels, pixels)
                    checked += 1
            working = working_cloud(state)
            if extent(working, side.axis) < 3:
                break
            state.remove(slab(working, side, 2)[0])
    assert checked >= 200


@pytest.mark.parametrize("plane_rule", ["best-plane", "fixed-plane"])
def test_shared_state_best_width_matches_direct_call(monkeypatch, rng, plane_rule):
    """Mid-plan, best_width on the plan's state finds what it finds on a fresh state."""
    for theta in (3, 8, 64):
        cloud = random_cloud(rng, max_points=300, extent_range=(4, 14))
        config = cfg(theta=theta, plane_rule=plane_rule)

        def check(state):
            for side in SIDES:
                fresh = _PlanState(working_cloud(state), config, len(cloud))
                assert best_width(state, side) == best_width(fresh, side)

        expect = plan_to_json(build_plan(cloud, config))
        assert plan_to_json(_plan_checking_rounds(monkeypatch, cloud, config, check)) == expect


# SHA-256 of plan_to_json on inputs too large for the exhaustive oracle:
# the benchmark's plan-suite inputs at seed 1 and a 12,576-point shell,
# recorded from the planner that built a neighbor grid for every slab; and
# at frame scale, a 50,768-point shell under both plane rules and 20,000
# random points, each ending in a terminal residue, recorded from the
# planner that scored that residue as a cloud of its own. The 202,400-point
# shell was recorded from the planner that scattered each slab's member
# positions over the whole planned cloud, and the 20,992-point sheet from
# the planner that labeled a side's widest slab right after its gallop.
PINNED_PLAN_SHA256 = {
    "folded-sheet-32": (
        "folded-sheet", {"extent": 32, "amplitude": 8, "period": 16}, 7, "best-plane",
        "4c6fbeba7be75be21e644ac879e37c9e357d2951902c5dee1a9c0e605360e603",
    ),
    "sphere-shell-20": (
        "sphere-shell", {"extent": 20}, 0, "best-plane",
        "b933e3bb732b7ef76ea2f411723763bb2258cb32a3527371c5415214f1ebd582",
    ),
    "sphere-shell-20-fixed": (
        "sphere-shell", {"extent": 20}, 0, "fixed-plane",
        "934a8fac4b98a4668ccd766ea8449df6bbdfd4c36646c8f4b59cdab02f09e3e4",
    ),
    "uniform-random-48": (
        "uniform-random", {"extent": 48, "count": 1000}, 1, "best-plane",
        "571850de698c183825d65826669ff750ce52375d710777ab75ad06cf5bc57831",
    ),
    "sphere-shell-64": (
        "sphere-shell", {"extent": 64}, 0, "best-plane",
        "11918ee925d13024011672e669555774bef8cbaf96ad432a7fc8c8deb92ded0d",
    ),
    "sphere-shell-128": (
        "sphere-shell", {"extent": 128}, 0, "best-plane",
        "ec7a9d1edc90e8f8c690c7f3e10ae67bc8cb2beca229697b755ca5414eb00320",
    ),
    "sphere-shell-256": (
        "sphere-shell", {"extent": 256}, 0, "best-plane",
        "ce33311e04cf03478f9e3a7f13248ac4840779f6c6c20506c2a45b54e287e6ee",
    ),
    "sphere-shell-128-fixed": (
        "sphere-shell", {"extent": 128}, 0, "fixed-plane",
        "4204a6fa1e3634f46571b199d910e13d75ac95b0e04fc7d1e115af94230636de",
    ),
    "uniform-random-48-20k": (
        "uniform-random", {"extent": 48, "count": 20_000}, 1, "best-plane",
        "7cd8d40df054d52eacf8f58de75bc86129cceb6cdf7e6fda82a39efe80890dc4",
    ),
    "folded-sheet-64": (
        "folded-sheet", {"extent": 64, "amplitude": 16, "period": 32}, 7, "best-plane",
        "cc2fbd1d976d223d15d95114a4dd954d684c966d4e2d538618d6f04bd7ae2bd1",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_PLAN_SHA256))
def test_plan_bytes_are_pinned(name):
    kind, params, seed, plane_rule, digest = PINNED_PLAN_SHA256[name]
    cloud = gen_synthetic(kind, params, seed=seed)
    config = SlicerConfig(theta=64, threshold_frac="0.05", overlap=2, plane_rule=plane_rule)
    assert hashlib.sha256(plan_to_json(build_plan(cloud, config)).encode()).hexdigest() == digest


# Work of planning three frame-scale pinned inputs, the terminal residue
# included: prefixes labeled (pixel_areas calls), points labeled (the sum of
# their counts), slabs built (_PlanState.slab calls), pairs gathered into
# those slabs (their src lengths) and keys sorted in `distinct`.
_FRAME_WORK = {
    "folded-sheet-64": (114, 421_820, 52, 2_451_564, 1_265_460),
    "uniform-random-48-20k": (311, 795_721, 86, 2_072_403, 2_387_163),
    "sphere-shell-128": (392, 1_908_539, 67, 4_098_270, 5_725_617),
}


@pytest.mark.parametrize("name", _FRAME_WORK)
def test_frame_plans_do_no_more_work(monkeypatch, name):
    """A plan that labels, builds, gathers or sorts more than these bounds has lost a
    pruning rule."""
    kind, params, seed, plane_rule, _ = PINNED_PLAN_SHA256[name]
    labeled, slabs, sorted_keys = _plan_work(monkeypatch)
    build_plan(gen_synthetic(kind, params, seed=seed), cfg(overlap=2, plane_rule=plane_rule))
    work = (len(labeled), sum(labeled), len(slabs), sum(slabs), sum(sorted_keys))
    assert all(got <= bound for got, bound in zip(work, _FRAME_WORK[name])), work


@given(
    st.lists(
        st.tuples(*[st.integers(0, 7)] * 3), min_size=1, max_size=80, unique=True
    ),
    st.sampled_from(["best-plane", "fixed-plane"]),
    st.sampled_from([3, 64]),
)
@settings(max_examples=30, deadline=None)
def test_plan_does_not_depend_on_the_first_side_searched(points, plane_rule, theta):
    """Whichever side round 1 searches first, the plan is the same bytes."""
    cloud = make_cloud(points)
    config = cfg(theta=theta, plane_rule=plane_rule)
    expect = plan_to_json(build_plan(cloud, config))
    for side in SIDES:

        def first(state):
            if state.winner is None:  # round 1
                state.winner = side

        plan = _plan_checking_rounds(pytest.MonkeyPatch(), cloud, config, first)
        assert plan_to_json(plan) == expect


PINNED_CLOUDS = {
    "cube": lambda: gen_synthetic("cube", {"extent": 4}),
    "folded-sheet": lambda: gen_synthetic(
        "folded-sheet", {"extent": 12, "amplitude": 4, "period": 6}, seed=3
    ),
    "sphere-shell": lambda: gen_synthetic("sphere-shell", {"extent": 10}),
    "random": lambda: PointCloud(np.random.default_rng(5).integers(0, 10, size=(250, 3))),
}


@pytest.mark.parametrize("plane_rule", ["best-plane", "fixed-plane"])
@pytest.mark.parametrize("kind", sorted(PINNED_CLOUDS))
def test_pruned_plans_match_exhaustive_oracle(monkeypatch, kind, plane_rule):
    cloud = PINNED_CLOUDS[kind]()
    for overlap in (0, 2):
        for theta in (3, 8, 64):
            for threshold in ("0", "0.05", "0.2"):
                config = cfg(theta=theta, threshold=threshold, overlap=overlap, plane_rule=plane_rule)
                expect = plan_to_json(oracle_plan(monkeypatch, cloud, config))
                assert plan_to_json(build_plan(cloud, config)) == expect


class TestSelectSlice:
    def test_cube_tie_break_side_order(self):
        spec = select_slice(_PlanState(cube_cloud(), cfg(), 8))
        assert spec.side == Side(Axis.X, +1)
        assert spec.core.width == 1
        assert spec.psi == 0.0

    def test_plane_zero_loss_wins(self):
        plane = gen_synthetic("plane", {"extent": 10})
        spec = select_slice(_PlanState(plane, cfg(), 100))
        assert spec.psi == 0.0

    def test_all_exhausted_returns_none(self):
        tiny = make_cloud([(0, 0, 0), (3, 3, 3), (6, 6, 6)])
        assert select_slice(_PlanState(tiny, cfg(), 100)) is None

    def test_extended_grows_inward_only(self):
        cloud = make_cloud([(x, 0, 0) for x in range(10)])
        spec = select_slice(_PlanState(cloud, cfg(overlap=3), len(cloud)))
        if spec.side.positive:
            assert spec.extended.hi == spec.core.hi
            assert spec.core.lo - spec.extended.lo <= 3
        else:
            assert spec.extended.lo == spec.core.lo
            assert spec.extended.hi - spec.core.hi <= 3


class TestBuildPlan:
    def test_single_point_terminal_only(self):
        plan = build_plan(make_cloud([(5, 5, 5)]), cfg())
        assert len(plan.slices) == 1
        assert plan.slices[0].terminal
        assert plan.slices[0].point_count == 1

    def test_cube_plan_hand_trace(self):
        plan = build_plan(cube_cloud(), cfg())
        assert all(s.psi == 0.0 for s in plan.slices)
        assert sum(s.point_count for s in plan.slices) == 8
        first = plan.slices[0]
        assert first.side == Side(Axis.X, +1) and first.core.width == 1

    def test_empty_cloud_errors(self):
        with pytest.raises(ValueError):
            build_plan(make_cloud([]), cfg())

    def test_folded_sheet_beats_whole_cloud_loss(self):
        sheet = gen_synthetic(
            "folded-sheet", {"extent": 32, "amplitude": 8, "period": 16}, seed=7
        )
        plan = build_plan(sheet, cfg(overlap=0))
        planned_lost = sum(
            compute_psi(sc).lost for _, sc in extract_slices(sheet, plan)
        )
        assert planned_lost < compute_psi(sheet).lost

    def test_terminal_collects_sparse_residue(self):
        rnd = gen_synthetic("uniform-random", {"extent": 600, "count": 30}, seed=9)
        plan = build_plan(rnd, cfg(threshold="0.3"))
        assert plan.slices[-1].terminal
        assert sum(s.point_count for s in plan.slices) == 30

    def test_threshold_invariant(self, rng):
        for _ in range(6):
            cloud = random_cloud(rng, max_points=500)
            config = cfg(threshold="0.05")
            plan = build_plan(cloud, config)
            floor = config.min_points(len(cloud))
            for s in plan.slices:
                if not s.terminal:
                    assert s.point_count >= floor

    def test_width_bound_invariant(self, rng):
        for _ in range(6):
            cloud = random_cloud(rng, max_points=500)
            plan = build_plan(cloud, cfg())
            for s in plan.slices:
                if not s.terminal:
                    assert 1 <= s.core.width <= 64

    def test_determinism_byte_identical(self, rng):
        cloud = random_cloud(rng, max_points=500)
        a = plan_to_json(build_plan(cloud, cfg(overlap=2)))
        b = plan_to_json(build_plan(cloud, cfg(overlap=2)))
        assert a == b

    def test_optimality_no_width_beats_chosen(self, rng):
        """Exhaustive re-enumeration finds no strictly smaller loss fraction."""
        clouds = [
            cube_cloud(),
            gen_synthetic("folded-sheet", {"extent": 16, "amplitude": 4, "period": 8}, seed=2),
            random_cloud(rng, max_points=400),
        ]
        for cloud in clouds:
            config = cfg()
            plan = build_plan(cloud, config)
            working = cloud
            floor = config.min_points(len(cloud))
            for spec in plan.slices:
                if not spec.terminal:
                    chosen = extract_range(working, spec.core)
                    chosen_stats = compute_psi(chosen)
                    w_max = min(config.theta, extent(working, spec.side.axis))
                    for w in range(1, w_max + 1):
                        mins, maxs = working.bbox
                        if spec.side.positive:
                            rng_w = AxisRange(spec.side.axis, int(maxs[spec.side.axis]) + 1 - w, int(maxs[spec.side.axis]) + 1)
                        else:
                            rng_w = AxisRange(spec.side.axis, int(mins[spec.side.axis]), int(mins[spec.side.axis]) + w)
                        sub = extract_range(working, rng_w)
                        if len(sub) < floor:
                            continue
                        stats = compute_psi(sub)
                        # exact fraction comparison
                        assert stats.lost * chosen_stats.phi >= chosen_stats.lost * stats.phi
                working = remove_range(working, spec.core)


class TestExtractSlices:
    def test_cube_m0_partitions(self):
        plan = build_plan(cube_cloud(), cfg(overlap=0))
        slices = extract_slices(cube_cloud(), plan)
        seen = set()
        for _, sc in slices:
            assert not (point_set(sc) & seen)
            seen |= point_set(sc)
        assert seen == point_set(cube_cloud())

    def test_cube_m1_first_slice_has_overlap(self):
        plan = build_plan(cube_cloud(), cfg(overlap=1))
        slices = extract_slices(cube_cloud(), plan)
        assert len(slices[0][1]) == 8  # 4 core + 4 overlap

    def test_cores_sorted_equal_original(self, rng):
        cloud = random_cloud(rng, max_points=400)
        plan = build_plan(cloud, cfg(overlap=2))
        working = cloud
        core_sets = []
        for spec in plan.slices:
            core_sets.append(point_set(extract_range(working, spec.core)))
            working = remove_range(working, spec.core)
        union = set().union(*core_sets)
        assert union == point_set(cloud)
        assert sum(len(s) for s in core_sets) == len(cloud)

    def test_coverage_with_overlap(self, rng):
        for overlap in (0, 1, 2):
            cloud = random_cloud(rng, max_points=300)
            plan = build_plan(cloud, cfg(overlap=overlap))
            slices = extract_slices(cloud, plan)
            union = set().union(*(point_set(sc) for _, sc in slices))
            assert union == point_set(cloud)

    def test_mismatched_cloud_rejected(self):
        plan = build_plan(cube_cloud(), cfg())
        other = make_cloud([(0, 0, 0)])
        with pytest.raises(PlanMismatchError):
            extract_slices(other, plan)


@st.composite
def replay_cases(draw):
    """A cloud and a hand-built plan over it, possibly wrong in size, a core count or coverage."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extent = draw(st.integers(1, 12))
    count = draw(st.integers(1, 150))
    colors = rng.integers(0, 256, size=(count, 3)) if draw(st.booleans()) else None
    cloud = PointCloud(rng.integers(0, extent, size=(count, 3)), colors=colors)
    working, specs = cloud, []
    while len(working) and len(specs) < 6:
        axis = Axis(draw(st.integers(0, 2)))
        column = working.coords[:, axis]
        lo = draw(st.integers(int(column.min()), int(column.max())))
        hi = draw(st.integers(lo + 1, int(column.max()) + 1))
        core = AxisRange(axis, lo, hi)
        extended = AxisRange(axis, draw(st.integers(max(0, lo - 2), lo)), draw(st.integers(hi, hi + 2)))
        points = int(np.count_nonzero((column >= lo) & (column < hi)))
        side = Side(axis, draw(st.sampled_from([-1, 1])))
        specs.append(SliceSpec(len(specs), side, core, extended, points, 0.0))
        working = remove_range(working, core)
    plan = SlicePlan(config=cfg(), original_size=len(cloud), slices=tuple(specs))
    fault = draw(st.sampled_from(["none", "size", "core count", "uncovered"]))
    if fault == "size":
        plan = dataclasses.replace(plan, original_size=len(cloud) + draw(st.integers(1, 3)))
    elif fault == "core count":
        i = draw(st.integers(0, len(specs) - 1))
        specs[i] = dataclasses.replace(specs[i], point_count=specs[i].point_count + 1)
        plan = dataclasses.replace(plan, slices=tuple(specs))
    elif fault == "uncovered":
        plan = dataclasses.replace(plan, slices=tuple(specs[:-1]))
    return cloud, plan


def cores_of(slices):
    """Each extended slice's core points, in the slice's order."""
    return [(spec, sub.subset(spec.core.holds(sub.coords[:, spec.core.axis])))
            for spec, sub in slices]


def assert_same_slices(got, want, cloud):
    assert [spec for spec, _ in got] == [spec for spec, _ in want]
    for (_, ours), (_, theirs) in zip(got, want):
        assert np.array_equal(ours.coords, theirs.coords)
        assert ours.bit_depth == theirs.bit_depth
        if cloud.colors is None:
            assert ours.colors is None
        else:
            assert np.array_equal(ours.colors, theirs.colors)


@settings(max_examples=200, deadline=None)
@given(replay_cases())
def test_extract_slices_matches_replay_oracle(case):
    cloud, plan = case
    try:
        want = oracle_extract_slices(cloud, plan)
    except PlanMismatchError as expected:
        for replay in (extract_slices, core_slices):
            with pytest.raises(PlanMismatchError) as e:
                replay(cloud, plan)
            assert str(e.value) == str(expected)
        return
    assert_same_slices(extract_slices(cloud, plan), want, cloud)
    assert_same_slices(core_slices(cloud, plan), cores_of(want), cloud)


@pytest.mark.parametrize(
    "fault, message",
    [
        ("size", "plan was built for 9 points, cloud has 8"),
        ("core count", "slice 0: plan expects 5 core points, replay found 4"),
        ("uncovered", "plan leaves 4 points uncovered"),
    ],
)
def test_extract_slices_mismatch_messages(fault, message):
    cube = cube_cloud()
    plan = build_plan(cube, cfg(overlap=0))
    assert [s.point_count for s in plan.slices] == [4, 4]
    if fault == "size":
        plan = dataclasses.replace(plan, original_size=9)
    elif fault == "core count":
        plan = dataclasses.replace(
            plan, slices=(dataclasses.replace(plan.slices[0], point_count=5), plan.slices[1])
        )
    else:
        plan = dataclasses.replace(plan, slices=plan.slices[:1])
    for replay in (extract_slices, core_slices, oracle_extract_slices):
        with pytest.raises(PlanMismatchError, match=f"^{message}$"):
            replay(cube, plan)


def turning_plans():
    """Built plans whose slice axis changes between rounds: a shell and a coloured random cloud."""
    shell = gen_synthetic("sphere-shell", {"extent": 20})
    rng = np.random.default_rng(5)
    scatter = PointCloud(rng.integers(0, 24, size=(1500, 3)), colors=rng.integers(0, 256, size=(1500, 3)))
    for cloud in (shell, scatter):
        for overlap in (0, 2):
            plan = build_plan(cloud, cfg(overlap=overlap))
            axes = [spec.side.axis for spec in plan.slices]
            assert sum(a != b for a, b in zip(axes, axes[1:])) >= 5
            yield cloud, plan


def test_extract_slices_matches_mask_replay_on_built_plans():
    for cloud, plan in turning_plans():
        want = mask_extract_slices(cloud, plan)
        assert [spec for spec, _ in want] == list(plan.slices)
        assert_same_slices(extract_slices(cloud, plan), want, cloud)
        assert_same_slices(core_slices(cloud, plan), cores_of(want), cloud)


@pytest.mark.parametrize("fault", ["size", "core count", "uncovered"])
def test_extract_slices_mismatch_text_matches_mask_replay(fault):
    for cloud, plan in turning_plans():
        specs = list(plan.slices)
        if fault == "size":
            plan = dataclasses.replace(plan, original_size=len(cloud) - 1)
        elif fault == "core count":
            specs[3] = dataclasses.replace(specs[3], point_count=specs[3].point_count - 1)
            plan = dataclasses.replace(plan, slices=tuple(specs))
        else:
            plan = dataclasses.replace(plan, slices=tuple(specs[:-2]))
        with pytest.raises(PlanMismatchError) as expected:
            mask_extract_slices(cloud, plan)
        for replay in (extract_slices, core_slices):
            with pytest.raises(PlanMismatchError) as e:
                replay(cloud, plan)
            assert str(e.value) == str(expected.value)


def hand_plan(cloud, cores):
    """A plan of (axis, lo, hi) cores cut in that order, each counting the points it takes."""
    specs, left = [], np.ones(len(cloud), dtype=bool)
    for axis, lo, hi in cores:
        core = AxisRange(axis, lo, hi)
        held = core.holds(cloud.coords[:, axis]) & left
        specs.append(SliceSpec(len(specs), Side(axis, -1), core, core, int(held.sum()), 0.0))
        left &= ~held
    return SlicePlan(config=cfg(), original_size=len(cloud), slices=tuple(specs))


def line(xs, bit_depth):
    """Points at `xs` along X, spread over Y and Z, one colour each."""
    xs = np.asarray(xs)
    rng = np.random.default_rng(len(xs))
    coords = np.column_stack([xs, rng.integers(0, 4, len(xs)), rng.integers(0, 4, len(xs))])
    return PointCloud(coords, colors=rng.integers(0, 256, size=(len(xs), 3)), bit_depth=bit_depth)


def test_core_slices_label_dtype_steps():
    """255 and 256 slices (uint8 to uint16 labels), and 65,536 width-1 slices of a 16-bit
    line (uint32 labels, whose sentinel 65,536 no uint16 holds), cut in shuffled order."""
    rng = np.random.default_rng(8)
    short = line(rng.integers(0, 256, 2000), 10)
    for k in (255, 256):
        order = rng.permutation(256)[:k].tolist()
        cores = [(Axis.X, 0, 256)] if k == 255 else []  # the last slice takes what is left
        plan = hand_plan(short, [(Axis.X, x, x + 1) for x in order[:k - len(cores)]] + cores)
        assert np.min_scalar_type(len(plan.slices)) == (np.uint8 if k == 255 else np.uint16)
        assert_same_slices(core_slices(short, plan), cores_of(mask_extract_slices(short, plan)), short)
    long = line(np.concatenate([[0, 65_535], rng.integers(0, 1 << 16, 400)]), 16)
    plan = hand_plan(long, [(Axis.X, x, x + 1) for x in rng.permutation(1 << 16).tolist()])
    assert np.min_scalar_type(len(plan.slices)) == np.uint32
    assert_same_slices(core_slices(long, plan), cores_of(mask_extract_slices(long, plan)), long)


@pytest.mark.parametrize(
    "cores",
    [
        [(Axis.X, 1000, 1100), (Axis.X, 2000, 5000), (Axis.Y, 0, 1 << 12)],  # past the 2^10 grid
        [(Axis.X, 3, 9), (Axis.X, 0, 6), (Axis.Z, 2, 4), (Axis.X, 5, 7), (Axis.Y, 0, 1024)],
        [(Axis.Z, 0, 1024), (Axis.Z, 0, 1024)],  # the second core repeats the first: empty
    ],
)
def test_core_slices_match_mask_replay_on_hand_plans(cores):
    rng = np.random.default_rng(3)
    cloud = PointCloud(np.column_stack([np.concatenate([rng.integers(0, 12, 300), [1023, 1000]]),
                                        rng.integers(0, 12, 302), rng.integers(0, 12, 302)]))
    plan = hand_plan(cloud, cores)
    assert sum(s.point_count for s in plan.slices) == len(cloud)
    assert_same_slices(core_slices(cloud, plan), cores_of(mask_extract_slices(cloud, plan)), cloud)


class TestPlanJson:
    def test_round_trip(self, rng):
        cloud = random_cloud(rng, max_points=300)
        plan = build_plan(cloud, cfg(overlap=2))
        text = plan_to_json(plan)
        again = plan_from_json(text)
        assert plan_to_json(again) == text
        assert again.original_size == plan.original_size
        assert again.slices == plan.slices

    def test_schema_field_order(self):
        plan = build_plan(cube_cloud(), cfg())
        text = plan_to_json(plan)
        head = text.index('"theta"')
        assert head < text.index('"threshold_frac"') < text.index('"overlap"')
        assert text.index('"overlap"') < text.index('"plane_rule"') < text.index('"original_size"')
        assert text.index('"original_size"') < text.index('"slices"')
        first_slice = text.index('"index"')
        for key in ('"axis"', '"sign"', '"core_lo"', '"core_hi"', '"ext_lo"', '"ext_hi"', '"points"', '"psi"', '"terminal"'):
            nxt = text.index(key)
            assert nxt > first_slice
            first_slice = nxt

    @pytest.mark.parametrize(
        "key", [k for k in slicer._PLAN_KEYS + slicer._SLICE_KEYS if k != "plane_rule"]
    )
    def test_missing_key_is_named(self, key):
        doc = json.loads(plan_to_json(build_plan(cube_cloud(), cfg())))
        del (doc if key in doc else doc["slices"][0])[key]
        with pytest.raises(ValueError, match=f"^malformed plan JSON: missing key '{key}'$"):
            plan_from_json(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(ValueError, match="malformed plan JSON"):
            plan_from_json('{"theta": 64}')

    def test_side_must_share_the_core_axis(self):
        # plan_to_json writes only the side's axis, so such a spec would come
        # back with its core moved onto that axis
        core = AxisRange(Axis.Z, 0, 8)
        with pytest.raises(ValueError, match="^side, core and extended ranges must share an axis$"):
            SliceSpec(0, Side(Axis.X, -1), core, core, 1, 0.0)
        with pytest.raises(ValueError, match="share an axis"):
            SliceSpec(0, Side(Axis.Z, -1), core, AxisRange(Axis.Y, 0, 8), 1, 0.0)

    @pytest.mark.parametrize(
        "indices, terminals, message",
        [
            ((1, 0), (False, False), "slice indices must run 0..n-1 in order"),
            ((0, 2), (False, False), "slice indices must run 0..n-1 in order"),
            ((0, 1), (True, False), "only the last slice may be terminal"),
        ],
    )
    def test_plan_owns_slice_order_and_terminal_rules(self, indices, terminals, message):
        specs = [
            SliceSpec(i, Side(Axis.Z, -1), AxisRange(Axis.Z, 2 * k, 2 * k + 2),
                      AxisRange(Axis.Z, 2 * k, 2 * k + 2), 1, 0.0, terminal)
            for k, (i, terminal) in enumerate(zip(indices, terminals))
        ]
        with pytest.raises(ValueError, match=f"^{message}$"):
            SlicePlan(cfg(), 2, specs)
        assert SlicePlan(cfg(), 2, [dataclasses.replace(s, index=k, terminal=k == 1)
                                    for k, s in enumerate(specs)]).slices[1].terminal

    def test_plane_rule_round_trips(self):
        plan = build_plan(cube_cloud(), cfg(plane_rule="fixed-plane"))
        text = plan_to_json(plan)
        assert json.loads(text)["plane_rule"] == "fixed-plane"
        assert plan_from_json(text).config == plan.config

    def test_non_decimal_threshold_round_trips_exactly(self):
        plan = build_plan(cube_cloud(), cfg(threshold=Fraction(1, 3)))
        text = plan_to_json(plan)
        assert json.loads(text)["threshold_frac"] == "1/3"
        assert plan_from_json(text).config == plan.config
        assert plan_to_json(plan_from_json(text)) == text

    def test_decimal_threshold_stays_a_number(self):
        for threshold in (Fraction(1, 20), Fraction(0), Fraction(1, 8)):
            plan = build_plan(cube_cloud(), cfg(threshold=threshold))
            text = plan_to_json(plan)
            assert json.loads(text)["threshold_frac"] == float(threshold)
            assert plan_from_json(text).config == plan.config

    def test_extended_range_must_contain_the_core(self):
        doc = json.loads(plan_to_json(build_plan(cube_cloud(), cfg())))
        first = doc["slices"][0]
        first["ext_lo"], first["ext_hi"] = first["core_hi"], first["core_hi"] + 1
        with pytest.raises(
            ValueError, match="^malformed plan JSON: extended range must contain the core$"
        ):
            plan_from_json(json.dumps(doc))

    def test_unknown_plane_rule_rejected(self):
        doc = json.loads(plan_to_json(build_plan(cube_cloud(), cfg())))
        doc["plane_rule"] = "diagonal"
        with pytest.raises(ValueError, match="plane_rule"):
            plan_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("axis", "3"),
            ("axis", "null"),
            ("axis", '"W"'),
            ("theta", "1e400"),
            ("core_lo", "1e400"),
            ("core_lo", "-1e400"),
            ("ext_hi", "2.5"),
            ("points", "true"),
            ("original_size", '"8"'),
            ("sign", '"?"'),
            ("sign", "[]"),
            ("terminal", '"false"'),
            ("terminal", "0"),
        ],
    )
    def test_bad_field_is_malformed(self, key, raw):
        doc = json.loads(plan_to_json(build_plan(cube_cloud(), cfg())))
        (doc if key in doc else doc["slices"][0])[key] = "@"
        text = json.dumps(doc).replace('"@"', raw)
        with pytest.raises(ValueError, match=f"^malformed plan JSON: .*{key}"):
            plan_from_json(text)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [doc], "plan must be an object, got [{"),
            (lambda doc: "abc", "plan must be an object, got 'abc'"),
            (lambda doc: {**doc, "slices": {"a": 1}}, "slices must be an array, got {'a': 1}"),
            (lambda doc: {**doc, "slices": [1]}, "slice must be an object, got 1"),
            (lambda doc: {**doc, "threshold_frac": False},
             "threshold_frac must be a number or a string, got False"),
            (lambda doc: {**doc, "threshold_frac": "1/0"}, "Fraction(1, 0)"),
            (lambda doc: {**doc, "plane_rule": ["best-plane"]},
             "plane_rule must be a string, got ['best-plane']"),
        ],
        ids=["list", "string", "slices-object", "slice-int", "threshold-bool",
             "threshold-zero-denominator", "plane-rule-list"],
    )
    def test_wrong_json_type_is_malformed(self, edit, message):
        doc = json.loads(plan_to_json(build_plan(cube_cloud(), cfg())))
        with pytest.raises(ValueError, match=f"^malformed plan JSON: {re.escape(message)}"):
            plan_from_json(json.dumps(edit(doc)))

    @pytest.mark.parametrize(
        "raw",
        ['"NaN"', '"0.5"', "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "-0.5",
         "1.5", "true", "null"],
    )
    def test_psi_must_be_a_number_in_unit_interval(self, raw):
        doc = json.loads(plan_to_json(build_plan(cube_cloud(), cfg())))
        doc["slices"][0]["psi"] = "@"
        with pytest.raises(ValueError, match=r"^malformed plan JSON: psi must be a number in \[0, 1\]"):
            plan_from_json(json.dumps(doc).replace('"@"', raw))

    @pytest.mark.parametrize("raw, psi", [("0", 0.0), ("1", 1.0), ("0.25", 0.25)])
    def test_psi_loads_as_float(self, raw, psi):
        doc = json.loads(plan_to_json(build_plan(cube_cloud(), cfg())))
        doc["slices"][0]["psi"] = "@"
        loaded = plan_from_json(json.dumps(doc).replace('"@"', raw)).slices[0].psi
        assert loaded == psi and isinstance(loaded, float)

    @staticmethod
    def _multi_slice_doc() -> dict:
        plan = build_plan(gen_synthetic("cube", {"extent": 4}), cfg())
        assert len(plan.slices) >= 3 and not any(s.terminal for s in plan.slices)
        return json.loads(plan_to_json(plan))

    @pytest.mark.parametrize("position", [0, 1])
    def test_terminal_before_the_last_slice_is_malformed(self, position):
        doc = self._multi_slice_doc()
        doc["slices"][position]["terminal"] = True
        with pytest.raises(ValueError, match="^malformed plan JSON: only the last slice may be terminal"):
            plan_from_json(json.dumps(doc))

    def test_terminal_last_slice_loads(self):
        doc = self._multi_slice_doc()
        doc["slices"][-1]["terminal"] = True
        assert [s.terminal for s in plan_from_json(json.dumps(doc)).slices][-2:] == [False, True]

    @pytest.mark.parametrize(
        "reorder",
        [
            lambda slices: slices[::-1],
            lambda slices: slices[1:],
            lambda slices: [slices[0], slices[0], *slices[2:]],
            lambda slices: [{**s, "index": s["index"] + 1} for s in slices],
        ],
        ids=["reversed", "from-1", "repeated", "shifted"],
    )
    def test_slice_indices_must_run_in_order(self, reorder):
        doc = self._multi_slice_doc()
        doc["slices"] = reorder(doc["slices"])
        with pytest.raises(ValueError, match="^malformed plan JSON: slice indices"):
            plan_from_json(json.dumps(doc))

    def test_invalid_json_is_malformed(self):
        with pytest.raises(ValueError, match="^malformed plan JSON"):
            plan_from_json("{")

    def test_plan_without_plane_rule_loads_as_best_plane(self):
        doc = json.loads(plan_to_json(build_plan(cube_cloud(), cfg())))
        del doc["plane_rule"]
        assert plan_from_json(json.dumps(doc)).config.plane_rule == "best-plane"

    @pytest.mark.parametrize("where", ["plan", "slice"])
    @pytest.mark.parametrize("key", ["comment", "Theta", "plane-rule", ""])
    def test_unknown_key_is_malformed(self, where, key):
        doc = self._multi_slice_doc()
        (doc if where == "plan" else doc["slices"][-1])[key] = 0
        label = "keys" if where == "plan" else "slice keys"
        with pytest.raises(ValueError, match=rf"^malformed plan JSON: unknown {label} \['{key}'\]"):
            plan_from_json(json.dumps(doc))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["1/0", "1/3", "0.05", "X", "+", "-", "best-plane", "fixed-plane"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def _loads_or_is_malformed(text: str) -> None:
    try:
        assert isinstance(plan_from_json(text), SlicePlan)
    except ValueError as exc:
        assert str(exc).startswith("malformed plan JSON: ")


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_any_json_document_loads_or_is_malformed(value):
    _loads_or_is_malformed(json.dumps(value))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_plan_with_one_field_replaced_loads_or_is_malformed(data):
    doc = json.loads(plan_to_json(build_plan(cube_cloud(), cfg())))
    target = data.draw(st.sampled_from([doc, *doc["slices"]]))
    target[data.draw(st.sampled_from(sorted(target)))] = data.draw(JSON_VALUES)
    _loads_or_is_malformed(json.dumps(doc))
