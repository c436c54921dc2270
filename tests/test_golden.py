"""Frozen byte-for-byte fixtures for the SWSG container and plan JSON.

These pin the external formats: any layout change must be deliberate and
show up here, not as silent drift.
"""

from sliceseg import SlicerConfig, build_plan, decode, encode, plan_to_json, reencode
from sliceseg.synthetic import gen_synthetic

GOLDEN_CUBE_STREAM = bytes.fromhex(
    "53575347010a40000002000000200408"
    "00000002000000000010020000100460"
    "00100000000200000000001800004000"
    "04"
)

# The same cube at overlap 2: slice 0's band widens to x 0..1 and each record still
# stores its core, so only the header's overlap byte differs from the stream above.
GOLDEN_CUBE_OVERLAP_2_STREAM = bytes.fromhex(
    "53575347010a40000202000000200408"
    "00000002000000000010020000100460"
    "00100000000200000000001800004000"
    "04"
)

# The same plan as written while records stored each slice's whole extended band:
# record 0 holds the 8 points of x 0..1 (base 0, width 2), 4 of them also in record 1.
BAND_CUBE_OVERLAP_2_STREAM = bytes.fromhex(
    "53575347010a40000202000000200010"
    "00000004000000000010020000100600"
    "00100001802004010040600010000000"
    "020000000000180000400004"
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


def cube_plan(overlap=0):
    cube = gen_synthetic("cube", {"extent": 2})
    return cube, build_plan(cube, SlicerConfig(theta=64, threshold_frac="0.05", overlap=overlap))


def test_golden_stream_bytes():
    cube, plan = cube_plan()
    assert encode(cube, plan) == GOLDEN_CUBE_STREAM


def test_golden_stream_decodes():
    ds = decode(GOLDEN_CUBE_STREAM)
    cube, _ = cube_plan()
    assert ds.cloud.same_points(cube)
    assert [r.point_count for r in ds.records] == [4, 4]


def test_golden_overlap_2_stream_stores_each_point_once():
    cube, plan = cube_plan(overlap=2)
    assert encode(cube, plan) == GOLDEN_CUBE_OVERLAP_2_STREAM
    ds = decode(GOLDEN_CUBE_OVERLAP_2_STREAM)
    assert [r.point_count for r in ds.records] == [4, 4]
    assert ds.cloud.same_points(cube) and ds.cloud.duplicates_merged == 0


def test_band_storing_overlap_2_stream_still_decodes():
    ds = decode(BAND_CUBE_OVERLAP_2_STREAM)
    cube, _ = cube_plan()
    assert [r.point_count for r in ds.records] == [8, 4]
    assert ds.cloud.same_points(cube) and ds.cloud.duplicates_merged == 4
    assert reencode(ds) == BAND_CUBE_OVERLAP_2_STREAM


def test_golden_plan_json():
    _, plan = cube_plan()
    assert plan_to_json(plan) == GOLDEN_CUBE_PLAN
