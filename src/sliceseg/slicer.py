"""Variable-width slicing planner.

Each round considers candidate slabs from all six bounding-box faces at
every width up to the configured maximum, scores each candidate by the
fraction of points a single-layer projection would lose, takes the best
one as the next slice, and recurses on the remainder. The width search is
exact but pruned: loss is monotone in slab width, so most widths are
bounded out without being labeled, past a lossy width the probes double
only while a wider slab could still win, and once a side has a lossless
slab the other sides label only lossless widths that could outrank it, up
to their first lossy one. The previous round's winning side is searched
first; ties go to the earlier side in SIDES whatever the order. Slices
below the point-count threshold are never emitted; whatever remains at
the end becomes one terminal segment so no point is ever dropped at
planning stage. Extracted slices can be widened inward by a small
overlap margin.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

# compute_psi, extract_range and remove_range stay bound here: bench/layers.py wraps slicer's names
from .cloud import (  # noqa: F401
    Axis, AxisRange, PointCloud, Side, SIDES, axis_from_name, extract_range, remove_range
)
from .projection import (  # noqa: F401
    component_roots, compute_psi, neighbor_pairs, pixel_areas, pixel_keys
)

PLANE_RULES = ("best-plane", "fixed-plane")

# A slice needs at least this many points regardless of the fractional
# threshold; a width search over fewer is meaningless.
MIN_SLICE_POINTS = 2


class PlanMismatchError(ValueError):
    """Plan and cloud disagree (size or replayed slice membership)."""


# Fraction would spend a second on "1e-2000000"; no float needs such an exponent.
_EXPONENT = re.compile(r"e\s*([-+]?\d[\d_]*)\s*$", re.IGNORECASE)


def as_fraction(value: Union[str, float, int, Fraction]) -> Fraction:
    """`value` as an exact Fraction; a string's decimal exponent must be within +-1000."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str) and (exp := _EXPONENT.search(value)) and abs(int(exp[1])) > 1000:
        raise ValueError(f"exponent of {reprlib.repr(value)} is beyond +-1000")
    return Fraction(value)


@dataclass(frozen=True)
class SlicerConfig:
    """Planner knobs: max width, point threshold, overlap margin, plane rule."""

    theta: int = 64
    threshold_frac: Fraction = Fraction(1, 20)
    overlap: int = 2
    plane_rule: str = "best-plane"

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold_frac", as_fraction(self.threshold_frac))
        if self.theta < 1:
            raise ValueError("theta must be >= 1")
        if self.theta > 0xFFFF:
            raise ValueError("theta does not fit the 16-bit header field")
        if not (0 <= self.threshold_frac < 1):
            raise ValueError("threshold_frac must be in [0, 1)")
        if self.overlap < 0:
            raise ValueError("overlap must be >= 0")
        if self.overlap > 0xFF:
            raise ValueError("overlap does not fit the 8-bit header field")
        if self.plane_rule not in PLANE_RULES:
            raise ValueError(f"plane_rule must be one of {PLANE_RULES}")

    def min_points(self, original_size: int) -> Fraction:
        return max(Fraction(MIN_SLICE_POINTS), self.threshold_frac * original_size)


@dataclass(frozen=True)
class SliceSpec:
    """One planned slice: exclusive core band plus the overlap-extended band."""

    index: int
    side: Side
    core: AxisRange
    extended: AxisRange
    point_count: int
    psi: float
    terminal: bool = False

    def __post_init__(self) -> None:
        if not (self.side.axis == self.core.axis == self.extended.axis):
            raise ValueError("side, core and extended ranges must share an axis")
        if not (self.extended.lo <= self.core.lo and self.core.hi <= self.extended.hi):
            raise ValueError("extended range must contain the core")


@dataclass(frozen=True)
class SlicePlan:
    config: SlicerConfig
    original_size: int
    slices: tuple[SliceSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slices", tuple(self.slices))
        if [s.index for s in self.slices] != list(range(len(self.slices))):
            raise ValueError("slice indices must run 0..n-1 in order")
        if any(s.terminal for s in self.slices[:-1]):
            raise ValueError("only the last slice may be terminal")


class Candidate(NamedTuple):
    """Width-search result; lost/count give the loss fraction exactly."""

    side: Side
    width: int
    count: int
    lost: int

    @property
    def psi(self) -> float:
        return self.lost / self.count


def _beats(lost: int, count: int, width: int, side: Side, best: Optional[Candidate]) -> bool:
    """Whether a slab of `width` on `side` with lost/count wins over `best`.

    Less loss wins (exact fraction compare), then the larger width, then the
    side earlier in SIDES, so the winner does not depend on the order in
    which the sides are searched.
    """
    if best is None:
        return True
    ours, theirs = lost * best.count, best.lost * count
    if ours == theirs and width == best.width:  # only an exact tie reads the side order
        return SIDES.index(side) < SIDES.index(best.side)
    return ours < theirs or (ours == theirs and width > best.width)


def _face_band(side: Side, lo: int, hi: int, width: int) -> AxisRange:
    """The `width` coordinates inward from `side`'s face of the span `lo`..`hi`."""
    if side.positive:
        return AxisRange(side.axis, hi + 1 - width, hi + 1)
    return AxisRange(side.axis, lo, lo + width)


# Lost-point counts of evaluated slabs, keyed by (axis, first and last
# occupied coordinate) -> (count, lost); equal-count slabs of one side share
# a key. Sound within one _PlanState, whose working cloud only shrinks and
# whose config is fixed: a range holding as many points as when it was
# stored still holds the same points, so its loss is unchanged.
_LossCache = dict[tuple[Axis, int, int], tuple[int, int]]


class _Slab(NamedTuple):
    """A side's widest slab, its points ordered by depth from the face."""

    # 26-adjacent pairs as depth positions in the slab; dst is the deeper
    # end, so a pair lies in every prefix longer than its dst
    src: np.ndarray
    dst: np.ndarray
    pixels: np.ndarray  # pixel keys of the points, on the planes the plane rule scores


class _PlanState:
    """The plan in progress: its working points and what every round shares.

    The working points only ever shrink, so every round reads the planned
    cloud's tables restricted to the points still there. `columns` holds
    the planned cloud's coordinates, one row per axis, and `order[a]` the
    planned-cloud indices of the working points sorted by coordinate `a`,
    so a side's slab is a run at one end of its axis order, `ascending[a]`
    their coordinates `a` in that order and `rank[a]` each working point's
    place in it (stale for removed points). `src`/`dst` are the 26-adjacent
    pairs whose ends both remain, `pixels` the pixel keys of every planned
    point, `losses` the loss cache and `winner` the last round's winning side.
    """

    def __init__(self, cloud: PointCloud, config: SlicerConfig, original_size: int) -> None:
        self.config = config
        self.min_points = math.ceil(config.min_points(original_size))  # the point floor
        # the pairs first: neighbor_pairs' grid is freed before the per-axis tables exist
        self.src, self.dst = neighbor_pairs(cloud)
        self.pixels = pixel_keys(cloud)
        self.columns = np.ascontiguousarray(cloud.coords.T)
        self.order = [np.argsort(column, kind="stable") for column in self.columns]
        self.rank = [np.empty_like(order) for order in self.order]
        self._index()
        self.losses: _LossCache = {}
        self.winner: Optional[Side] = None

    def span(self, axis: Axis) -> tuple[int, int]:
        """The first and last occupied coordinate of the working points along `axis`."""
        column = self.ascending[axis]
        return int(column[0]), int(column[-1])

    def _index(self) -> None:
        """`ascending` and `rank` of the current axis orders."""
        self.ascending = [column.take(order) for column, order in zip(self.columns, self.order)]
        for rank, order in zip(self.rank, self.order):
            rank[order] = np.arange(len(order))

    def slab(self, side: Side, count: int) -> _Slab:
        """The `count` working points nearest to `side`'s face, nearest first."""
        order, rank, n = self.order[side.axis], self.rank[side.axis], len(self.order[0])
        a, b = rank.take(self.src), rank.take(self.dst)  # the pairs' ends by rank
        if count < n:  # keep the pairs with both ends among the first or last `count` ranks
            inner, bound = (np.greater_equal, n - count) if side.positive else (np.less, count)
            both = inner(a, bound)
            both &= inner(b, bound)
            inside = both.nonzero()[0]
            a, b = a.take(inside), b.take(inside)
        src, dst = np.minimum(a, b), np.maximum(a, b)
        if side.positive:  # depth from the + face is the rank from the far end
            src, dst = n - 1 - dst, n - 1 - src
        members = order[::-1][:count] if side.positive else order[:count]
        fixed = self.config.plane_rule == "fixed-plane"
        pixels = self.pixels[side.axis, None] if fixed else self.pixels
        return _Slab(src, dst, pixels.take(members, axis=1))

    def remove(self, core: AxisRange) -> None:
        """Drop the working points in `core`."""
        gone = core.holds(self.columns[core.axis])
        self.order = [order.compress(~gone.take(order)) for order in self.order]
        self._index()
        both = ~(gone[self.src] | gone[self.dst])
        self.src, self.dst = self.src[both], self.dst[both]


def _prefix_lost(slab: _Slab, roots: dict[int, np.ndarray], count: int) -> int:
    """Lost points of the slab's first `count` points, whose roots it adds to `roots`.

    The union-find resumes from the longest shorter prefix in `roots`, which
    maps prefix lengths to roots (the roots serve as labels).
    """
    start = max(m for m in roots if m < count)
    joins = slab.dst < count
    if start:
        joins &= slab.dst >= start
    joining = joins.nonzero()[0]
    parent = np.concatenate((roots[start], np.arange(start, count)))
    roots[count] = component_roots(parent, slab.src.take(joining), slab.dst.take(joining))
    areas = pixel_areas(roots[count], slab.pixels[:, :count], count)
    return count - int(areas.max(axis=0).sum())


def best_width(
    state: _PlanState, side: Side, incumbent: Optional[Candidate] = None
) -> Optional[Candidate]:
    """Best slab width on one side: least loss, ties to the larger width.

    Only widths holding at least the threshold point count compete; returns
    None (side exhausted) when none does, and also when none beats
    `incumbent`, the best candidate of the sides searched before this one.
    Widths are capped at the cloud's extent along the axis, so degenerate
    duplicates of the full slab never enter the tie-break.

    The search is exact without evaluating every width. Slabs from one face
    are nested, so both the point count and the lost-point count are
    non-decreasing in width: each component of the wider slab is a union of
    components of the narrower one plus the added points, and its projected
    area exceeds theirs by at most the number of added points. Between two
    evaluated widths a < b every width w thus has lost(w) >= lost(a) and
    count(w) <= count(b - 1). The search bisects and skips the interval
    when lost(a) == lost(b) (b is at least as good and wider) or when even
    lost(a) / count(b - 1) at width b - 1 cannot beat the best so far.

    Against a lossless incumbent only lossless widths compete: from its
    width on if this side is earlier in SIDES, which wins the tie, else from
    one past it. From a lossless start the search gallops (a + 1, a + 3,
    a + 7, ...) out to a lossy width b and bisects the last gap. Past b it
    probes 2b, 4b, ... up to w_max while lost(b) / count(w_max) at w_max,
    b the last probe, could win (the unbounded search of Bentley and Yao,
    1976), and each probe adds its gap to the bisection.
    """
    config, axis = state.config, side.axis
    column, (lo, hi) = state.ascending[axis], state.span(axis)
    w_max = min(config.theta, hi - lo + 1)
    widths = np.arange(1, w_max + 1)
    if side.positive:
        counts = len(column) - column.searchsorted(hi + 1 - widths, side="left")
    else:
        counts = column.searchsorted(lo + widths, side="left")
    # counts[w - 1] is the point count at width w; eligible widths form a suffix
    first = int(counts.searchsorted(state.min_points)) + 1
    if incumbent is not None and incumbent.lost == 0:  # only a lossless slab that outranks it wins
        first = max(first, incumbent.width + (SIDES.index(side) >= SIDES.index(incumbent.side)))
    if first > w_max:
        return None
    counts = counts.tolist()

    lost: dict[int, int] = {}  # width -> lost points
    best = incumbent
    # Width w's slab is the first counts[w - 1] points of the w_max slab by
    # depth from the face, taken from the state on the first cache miss.
    slab: Optional[_Slab] = None
    roots = {0: np.arange(0)}  # prefix length -> roots of its points

    def evaluate(width: int) -> None:
        nonlocal best, slab
        count = counts[width - 1]
        span = column[-count:] if side.positive else column[:count]  # the slab's coordinates
        key = (axis, int(span[0]), int(span[-1]))
        hit = state.losses.get(key)
        if hit is None or hit[0] != count:
            if slab is None:
                slab = state.slab(side, counts[-1])
            hit = state.losses[key] = (count, _prefix_lost(slab, roots, count))
        lost[width] = hit[1]
        if _beats(lost[width], count, width, side, best):
            best = Candidate(side, width, count, lost[width])

    evaluate(first)
    b, step, pending = first, 1, []
    # gallop out to a lossy width, then double past it while a width in (b, w_max] may win
    while b < w_max and _beats(lost[b], counts[w_max - 1], w_max, side, best):
        a, b, step = b, min(b + step if lost[b] == 0 else 2 * b, w_max), step * 2
        evaluate(b)
        pending.append((a, b))  # a gap between two lossless widths is skipped below
    while pending:
        a, b = pending.pop()
        if b - a < 2 or lost[a] == lost[b] or not _beats(lost[a], counts[b - 2], b - 1, side, best):
            continue
        mid = (a + b) // 2
        evaluate(mid)
        pending += [(a, mid), (mid, b)]
    return best if best is not incumbent else None


def select_slice(state: _PlanState, index: int = 0) -> Optional[SliceSpec]:
    """Best candidate over all six sides, or None when every side is exhausted.

    Ties break toward the larger width, then toward the fixed side order
    +X, -X, +Y, -Y, +Z, -Z. The previous round's winning side is searched
    first, as the likeliest winner, then the rest in that order; each
    side's search is bounded by the best candidate of the sides before it.
    """
    best: Optional[Candidate] = None
    for side in sorted(SIDES, key=lambda s: s != state.winner):
        cand = best_width(state, side, best)
        if cand is not None:
            best = cand
    if best is None:
        return None
    state.winner = best.side
    side, (lo, hi) = best.side, state.span(best.side.axis)
    # the overlap band reaches `overlap` voxels further in, clipped to the span
    widened = min(best.width + state.config.overlap, hi - lo + 1)
    return SliceSpec(
        index=index,
        side=side,
        core=_face_band(side, lo, hi, best.width),
        extended=_face_band(side, lo, hi, widened),
        point_count=best.count,
        psi=best.psi,
    )


def _terminal_spec(state: _PlanState, index: int) -> SliceSpec:
    """The working points as one slice across their narrowest axis, scored like a slab."""
    spans = [state.span(axis) for axis in Axis]
    axis = Axis(int(np.argmin([hi - lo for lo, hi in spans])))  # ties go X < Y < Z
    core = AxisRange(axis, spans[axis][0], spans[axis][1] + 1)
    count = len(state.order[0])
    lost = _prefix_lost(state.slab(Side(axis, -1), count), {0: np.arange(0)}, count)
    return SliceSpec(
        index=index,
        side=Side(axis, -1),
        core=core,
        extended=core,
        point_count=count,
        psi=lost / count,
        terminal=True,
    )


def build_plan(cloud: PointCloud, config: SlicerConfig = SlicerConfig()) -> SlicePlan:
    """Slice greedily until the remainder is empty, below threshold, or stuck.

    Every original point lands in exactly one core (ordinary or terminal);
    the result is deterministic for a given (cloud, config).
    """
    if len(cloud) == 0:
        raise ValueError("cannot plan an empty cloud")
    state = _PlanState(cloud, config, len(cloud))
    slices: list[SliceSpec] = []
    while (size := len(state.order[0])) > 0:
        spec = select_slice(state, len(slices)) if size >= state.min_points else None
        if spec is None:  # the remainder is below threshold or no side has a slab
            slices.append(_terminal_spec(state, len(slices)))
            break
        slices.append(spec)
        state.remove(spec.core)
    return SlicePlan(config=config, original_size=len(cloud), slices=tuple(slices))


def _check_replay(plan: SlicePlan, size: int, core_counts=(), uncovered: int = 0) -> None:
    """Raise PlanMismatchError at the replay's first disagreement with `plan`: the cloud's
    `size`, a (spec, count) pair of `core_counts`, then `uncovered` points in no core."""
    if plan.original_size != size:
        raise PlanMismatchError(f"plan was built for {plan.original_size} points, cloud has {size}")
    for spec, count in core_counts:
        if count != spec.point_count:
            raise PlanMismatchError(
                f"slice {spec.index}: plan expects {spec.point_count} core points, "
                f"replay found {count}"
            )
    if uncovered:
        raise PlanMismatchError(f"plan leaves {uncovered} points uncovered")


def extract_slices(
    cloud: PointCloud, plan: SlicePlan
) -> list[tuple[SliceSpec, PointCloud]]:
    """Replay the plan: per slice, the working-cloud points in its extended band.

    Cores are removed in construction order, so core membership stays unique
    while the overlap margins doubly cover each inter-slice seam.
    """
    _check_replay(plan, len(cloud))
    out: list[tuple[SliceSpec, PointCloud]] = []
    columns = np.ascontiguousarray(cloud.coords.T)  # one contiguous row per axis
    working = np.arange(len(cloud))  # indices of the points in no earlier core
    for spec in plan.slices:
        column = columns[spec.core.axis].take(working)
        in_core = spec.core.holds(column)
        in_extended = spec.extended.holds(column)
        _check_replay(plan, len(cloud), [(spec, int(np.count_nonzero(in_core)))])
        out.append((spec, cloud.subset(working.compress(in_extended))))
        working = working.compress(~in_core)
    _check_replay(plan, len(cloud), uncovered=len(working))
    return out


def core_slices(cloud: PointCloud, plan: SlicePlan) -> list[tuple[SliceSpec, PointCloud]]:
    """Replay the plan in one pass: per slice, its core's points in ascending index order.

    A point lies in the first slice whose core holds its coordinate, as in
    `extract_slices`. Per axis a table over the grid holds that first slice
    (k, the slice count, for none); a point's label is the least of its
    entries, and one stable sort, a radix sort at uint8/uint16, groups them.
    """
    k = len(plan.slices)
    tables = np.full((3, 1 << cloud.bit_depth), k, dtype=np.min_scalar_type(k))
    for spec in reversed(plan.slices):  # earlier slices overwrite later ones
        tables[spec.core.axis, spec.core.lo : spec.core.hi] = spec.index
    labels = np.full(len(cloud), k, dtype=tables.dtype)
    for axis in sorted({spec.core.axis for spec in plan.slices}):  # the rest label nothing
        np.minimum(labels, tables[axis].take(cloud.coords[:, axis]), out=labels)
    counts = np.bincount(labels, minlength=k + 1)
    _check_replay(plan, len(cloud), zip(plan.slices, counts.tolist()), int(counts[k]))
    cores = np.split(np.argsort(labels, kind="stable"), np.cumsum(counts[:k]))
    return [(spec, cloud.subset(members)) for spec, members in zip(plan.slices, cores)]


# The keys plan_to_json writes, in written order; plan_from_json rejects any other.
_PLAN_KEYS = ("theta", "threshold_frac", "overlap", "plane_rule", "original_size", "slices")
_SLICE_KEYS = (
    "index", "axis", "sign", "core_lo", "core_hi", "ext_lo", "ext_hi", "points", "psi", "terminal"
)


def plan_to_json(plan: SlicePlan) -> str:
    """Fixed-schema JSON; field names and order are part of the contract."""
    c, t = plan.config, plan.config.threshold_frac
    # threshold_frac: a number where its float reloads exactly, else the exact "p/q" string
    threshold = float(t) if Fraction(str(float(t))) == t else str(t)
    slices = [
        dict(zip(_SLICE_KEYS, (s.index, s.side.axis.name, "+" if s.side.positive else "-",
                               s.core.lo, s.core.hi, s.extended.lo, s.extended.hi,
                               s.point_count, s.psi, s.terminal)))
        for s in plan.slices
    ]
    values = (c.theta, threshold, c.overlap, c.plane_rule, plan.original_size, slices)
    return json.dumps(dict(zip(_PLAN_KEYS, values)), indent=2) + "\n"


def _expect(key: str, value, types: tuple[type, ...], what: str):
    """`value` if it is one of `types`, else a ValueError naming `key`.

    json loads true/false as bools, which pass as ints only where bool is listed.
    """
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ValueError(f"{key} must be {what}, got {reprlib.repr(value)}")
    return value


def _int_field(doc: dict, key: str) -> int:
    # json loads 1e400 as float inf; only integers pass
    return _expect(key, doc[key], (int,), "an integer")


def _psi_field(doc: dict) -> float:
    value = doc["psi"]
    # json loads bare NaN and Infinity as floats, which fail the range test
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise ValueError(f"psi must be a number in [0, 1], got {value!r}")
    return float(value)


def _slice_from_json(s: dict) -> SliceSpec:
    if unknown := set(_expect("slice", s, (dict,), "an object")).difference(_SLICE_KEYS):
        raise ValueError(f"unknown slice keys {sorted(unknown)}")
    axis = axis_from_name(_expect("axis", s["axis"], (str,), "a string"))
    if s["sign"] not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {s['sign']!r}")
    return SliceSpec(
        index=_int_field(s, "index"),
        side=Side(axis, +1 if s["sign"] == "+" else -1),
        core=AxisRange(axis, _int_field(s, "core_lo"), _int_field(s, "core_hi")),
        extended=AxisRange(axis, _int_field(s, "ext_lo"), _int_field(s, "ext_hi")),
        point_count=_int_field(s, "points"),
        psi=_psi_field(s),
        terminal=_expect("terminal", s["terminal"], (bool,), "true or false"),
    )


def plan_from_json(text: Union[str, bytes]) -> SlicePlan:
    """Load a plan in `plan_to_json`'s schema; a malformed document raises ValueError."""
    try:
        doc = _expect("plan", json.loads(text), (dict,), "an object")
        if unknown := set(doc).difference(_PLAN_KEYS):
            raise ValueError(f"unknown keys {sorted(unknown)}")
        # plans written before the key existed were all best-plane
        plane_rule = doc.get("plane_rule", "best-plane")
        config = SlicerConfig(
            theta=_int_field(doc, "theta"),
            threshold_frac=_expect(
                "threshold_frac", doc["threshold_frac"], (int, float, str), "a number or a string"
            ),
            overlap=_int_field(doc, "overlap"),
            plane_rule=_expect("plane_rule", plane_rule, (str,), "a string"),
        )
        slices = tuple(
            _slice_from_json(s) for s in _expect("slices", doc["slices"], (list,), "an array")
        )
        return SlicePlan(
            config=config, original_size=_int_field(doc, "original_size"), slices=slices
        )
    except KeyError as exc:
        raise ValueError(f"malformed plan JSON: missing key {exc}") from exc
    # json.loads raises RecursionError on deeply nested arrays or objects,
    # and Fraction ZeroDivisionError on a threshold string such as "1/0"
    except (TypeError, ValueError, RecursionError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed plan JSON: {exc}") from exc
