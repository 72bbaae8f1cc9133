"""The verification battery as a library call: ``crossclust.verify``."""

import json

import numpy as np
import pytest

from crossclust import (
    DescentViolationError,
    SplitMix64,
    ValidationError,
    random_real_matrix,
    verify_bounds,
)
from crossclust import verify
from crossclust.cost import _stacked
from crossclust.cli import main

from oracles import unpadded


def test_blocks_match_the_generator():
    shapes = [(2, 3), (1, 1), (2, 3), (4, 2), (1, 1)]
    seeds = [5, -1, 2**64 + 1, 7, 5]
    stack = _stacked(verify._draw(shapes, seeds)[0], shapes)
    blocks = [random_real_matrix(*shape, seed).values for shape, seed in zip(shapes, seeds)]
    # one ragged stack holds every block, in order, each in its own shape
    assert len({b.shape for b in unpadded(stack)}) == len(set(shapes))
    assert [b.shape for b in unpadded(stack)] == [b.shape for b in blocks] == shapes
    for block, padded in zip(blocks, unpadded(stack)):
        assert np.array_equal(padded, block)
    # each padded to the largest shape with zeros that are not valid
    assert stack.values.shape == stack.valid.shape == (len(shapes), 4, 3)
    assert stack.rows.tolist() == [[n] for n, _ in shapes]
    assert stack.cols.tolist() == [[m] for _, m in shapes]
    for values, valid, block in zip(stack.values, stack.valid, blocks):
        assert valid[:block.shape[0], :block.shape[1]].all()
        assert valid.sum() == block.size and not values[~valid].any()


def test_a_failing_block_fails_alone(monkeypatch):
    """A block whose swap descent fails is counted once, not with the
    rest of its ragged stack."""
    real = verify.swap_normalize
    stacks = []

    def spy(x):
        stacks.append(unpadded(x))
        return real(x)

    monkeypatch.setattr(verify, "swap_normalize", spy)
    assert verify._tally("swap descent", verify._battery_swaps(SplitMix64(3), 80))["failures"] == 0
    (stack,) = stacks  # one call on one ragged stack of every block
    assert len(stack) == 80 and len({b.shape for b in stack}) >= 2
    poison = max((b for b in stack if sum(np.array_equal(b, o) for o in stack) == 1), key=np.size)

    def failing(x):
        if any(np.array_equal(block, poison) for block in unpadded(x)):
            raise DescentViolationError("injected")
        return real(x)

    monkeypatch.setattr(verify, "swap_normalize", failing)
    tally = verify._tally("swap descent", verify._battery_swaps(SplitMix64(3), 80))
    assert tally == {"name": "swap descent", "checks": 80, "failures": 1}


@pytest.mark.parametrize("seed", [-1, 60000])
@pytest.mark.parametrize("count", [1, 7, 40])
def test_the_cli_prints_the_library_records(capsys, seed, count):
    argv = ["verify-bounds", "--seed", str(seed), "--count", str(count), "--format", "json"]
    assert main(argv) == 0
    printed = json.loads(capsys.readouterr().out)["batteries"]
    assert printed == verify_bounds(seed, count, 400)


def test_count_is_checked():
    with pytest.raises(ValidationError, match="count must be >= 1"):
        verify_bounds(1, 0, 400)


def test_resolution_is_checked_before_any_battery(monkeypatch, capsys):
    ran = []
    for name in ("_battery_per_block", "_battery_lower_bound", "_battery_swaps",
                 "_battery_l2_identity"):
        monkeypatch.setattr(verify, name, lambda *args, name=name: ran.append(name) or [])
    assert main(["verify-bounds", "--resolution", "1"]) == 3
    assert "resolution must be >= 2" in capsys.readouterr().err
    assert ran == []
