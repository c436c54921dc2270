"""Frozen byte-for-byte fixtures for the SWSG container and plan JSON.

These pin the external formats: any layout change must be deliberate and
show up here, not as silent drift.
"""

from sliceseg import SlicerConfig, build_plan, decode, encode, plan_to_json
from sliceseg.synthetic import gen_synthetic

GOLDEN_CUBE_STREAM = bytes.fromhex(
    "53575347010a40000002000000200408"
    "00000002000000000010020000100460"
    "00100000000200000000001800004000"
    "04"
)

GOLDEN_CUBE_PLAN = """\
{
  "theta": 64,
  "threshold_frac": 0.05,
  "overlap": 0,
  "plane_rule": "best-plane",
  "original_size": 8,
  "slices": [
    {
      "index": 0,
      "axis": "X",
      "sign": "+",
      "core_lo": 1,
      "core_hi": 2,
      "ext_lo": 1,
      "ext_hi": 2,
      "points": 4,
      "psi": 0.0,
      "terminal": false
    },
    {
      "index": 1,
      "axis": "Y",
      "sign": "+",
      "core_lo": 0,
      "core_hi": 2,
      "ext_lo": 0,
      "ext_hi": 2,
      "points": 4,
      "psi": 0.0,
      "terminal": false
    }
  ]
}
"""


def cube_plan():
    cube = gen_synthetic("cube", {"extent": 2})
    return cube, build_plan(cube, SlicerConfig(theta=64, threshold_frac="0.05", overlap=0))


def test_golden_stream_bytes():
    cube, plan = cube_plan()
    assert encode(cube, plan) == GOLDEN_CUBE_STREAM


def test_golden_stream_decodes():
    ds = decode(GOLDEN_CUBE_STREAM)
    cube, _ = cube_plan()
    assert ds.cloud.same_points(cube)
    assert [r.point_count for r in ds.records] == [4, 4]


def test_golden_plan_json():
    _, plan = cube_plan()
    assert plan_to_json(plan) == GOLDEN_CUBE_PLAN
