import numpy as np
import pytest

from diffnet.data import SceneParams, generate_scene
from diffnet.model import ModelConfig, init_model
from diffnet.tensor import Tensor, no_grad
from perfbench.reference import forward
from perfbench.worker import Loop
from perfbench.workloads import DECISION_BAND, CheckFailed, Workload, check_mask


def test_reference_matches_the_model_forward():
    model = init_model(ModelConfig(in_channels=3, base_width=4), seed=5)
    for stats in model.buffers.values():  # non-trivial running statistics
        stats += np.linspace(0.1, 0.5, stats.size, dtype=np.float32)
    tile = generate_scene(SceneParams(channels=3, size=(64, 32)), seed=2)
    with no_grad():
        got = model.forward(Tensor(tile.pre[None]), Tensor(tile.post[None])).data[0, 0]
    want = forward({k: v.data for k, v in model.params.items()}, model.buffers,
                   tile.pre, tile.post)
    assert np.abs(got - want).max() < 1e-5


def test_check_mask_tolerates_threshold_ties_but_not_wrong_pixels():
    probs = np.linspace(0.05, 0.95, 100).reshape(10, 10)
    probs[0, 0] = 0.5 + DECISION_BAND / 2  # a tie the float32 path may flip
    truth = np.zeros((10, 10), dtype=np.uint8)
    truth[9, 9] = 255
    good = (probs >= 0.5).astype(np.uint8)
    good[9, 9] = 255
    check_mask(good, probs, truth, "t")
    tie = good.copy()
    tie[0, 0] = 1 - tie[0, 0]
    check_mask(tie, probs, truth, "t")
    wrong = good.copy()
    wrong[5, 5] = 1 - wrong[5, 5]
    with pytest.raises(CheckFailed, match="disagree"):
        check_mask(wrong, probs, truth, "t")
    lost = good.copy()
    lost[9, 9] = 1
    with pytest.raises(CheckFailed, match="nodata"):
        check_mask(lost, probs, truth, "t")
    with pytest.raises(CheckFailed, match="decisive"):
        check_mask(good, np.full((10, 10), 0.5), truth, "t")


class Flaky(Workload):
    name, items_per_op, warmup_ops = "flaky", 1, 0

    def op(self, state, i):
        if i == 1:
            raise RuntimeError("boom")
        return i

    def check(self, state, i, result):
        if result == 2:
            raise CheckFailed("wrong")


def test_failures_are_counted_not_dropped():
    loop = Loop(Flaky(), state=None)
    times = [loop.one() for _ in range(4)]
    assert loop.attempted == 4 and loop.failed == 2
    assert times[1] is None and times[2] is None
    assert times[0] is not None and times[3] is not None
