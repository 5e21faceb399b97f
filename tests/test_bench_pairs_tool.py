"""``tools/bench_pairs.py``: the ABBA run order and the position effect."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_blocks_run_parent_change_change_parent_after_a_warm_up(tool):
    schedule = tool.abba_schedule(4)
    assert [(s.block, s.pair, s.side, s.first) for s in schedule] == [
        (0, None, "parent", True),
        (0, 0, "parent", True),
        (0, 0, "change", False),
        (0, 1, "change", True),
        (0, 1, "parent", False),
        (1, None, "parent", True),
        (1, 2, "parent", True),
        (1, 2, "change", False),
        (1, 3, "change", True),
        (1, 3, "parent", False),
    ]


@pytest.mark.parametrize("pairs", [1, 2, 3, 6, 10])
def test_every_pair_runs_each_side_once(tool, pairs):
    schedule = tool.abba_schedule(pairs)
    measured = [slot for slot in schedule if slot.pair is not None]
    assert sorted((s.pair, s.side) for s in measured) == sorted(
        (pair, side) for pair in range(pairs) for side in ("parent", "change")
    )
    # One discarded warm-up opens each block, and it runs before the rest.
    blocks = (pairs + 1) // 2
    warm_ups = [i for i, slot in enumerate(schedule) if slot.pair is None]
    assert len(warm_ups) == blocks
    assert all(schedule[i + 1].block == schedule[i].block for i in warm_ups)
    # Within a pair exactly one side goes first, and it runs first.
    for pair in range(pairs):
        first, second = [s for s in schedule if s.pair == pair]
        assert (first.first, second.first) == (True, False)
    # The change goes first in half of the pairs (rounded down).
    assert sum(s.first for s in measured if s.side == "change") == pairs // 2


def test_position_effect_reads_each_side_first_over_second(tool):
    schedule = [s for s in tool.abba_schedule(4) if s.pair is not None]
    # Parent 10 % slower when first, change 30 % slower when first; the
    # change is faster throughout, and the warm-up values are ignored.
    values = {
        (0, "parent", True): 110.0, (0, "parent", False): 100.0,
        (0, "change", True): 65.0, (0, "change", False): 50.0,
        (1, "parent", True): 121.0, (1, "parent", False): 110.0,
        (1, "change", True): 78.0, (1, "change", False): 60.0,
    }
    measured = [(s, values[(s.block, s.side, s.first)]) for s in schedule]
    measured.append((tool.Slot(0, None, "parent", True), 1e9))
    effect = tool.position_effect(measured)
    assert effect["parent"] == pytest.approx(0.10)
    assert effect["change"] == pytest.approx(0.30)


def test_position_effect_needs_a_complete_block(tool):
    # One pair: each side ran in one position only, so there is no effect
    # to measure.
    schedule = [s for s in tool.abba_schedule(1) if s.pair is not None]
    effect = tool.position_effect([(slot, 1.0) for slot in schedule])
    assert effect == {"parent": None, "change": None}
    # A half block after complete ones is skipped, not half-counted.
    schedule = [s for s in tool.abba_schedule(3) if s.pair is not None]
    measured = [(s, 2.0 if s.first else 1.0) for s in schedule]
    assert tool.position_effect(measured) == {"parent": 1.0, "change": 1.0}
