"""Architecture wiring: shapes, weight sharing, differencing invariants."""

import numpy as np
import pytest

from diffnet.errors import ConfigError, ShapeError
from diffnet.model import ModelConfig, init_model
from diffnet.tensor import Tensor, mul, tsum


def rand_image(seed, n, c, h, w):
    return Tensor(np.random.default_rng(seed).standard_normal((n, c, h, w)).astype(np.float32))


def closed_form_count(cfg: ModelConfig) -> int:
    """Parameter count derived by hand from the layer plan, independently
    of the model's own bookkeeping."""
    c = [cfg.in_channels] + [cfg.base_width * 2 ** (l - 1) for l in range(1, 6)]
    total = 0
    for l in range(1, 6):  # encoder: conv w+b, bn gamma+beta
        total += c[l] * c[l - 1] * 9 + c[l] + 2 * c[l]
    for l in range(4, 0, -1):  # decoder: upconv w+b, conv w+b, bn gamma+beta
        total += c[l + 1] * c[l] * 4 + c[l]
        total += c[l] * (2 * c[l]) * 9 + c[l] + 2 * c[l]
    total += c[1] * c[1] * 4 + c[1]  # final upsampler
    total += c[1] * 1 + 1  # 1x1 head
    return total


class TestInit:
    def test_same_seed_bitwise_identical(self):
        cfg = ModelConfig(in_channels=3, base_width=4)
        a = init_model(cfg, seed=11)
        b = init_model(cfg, seed=11)
        for (na, ta), (nb, tb) in zip(a.parameter_list(), b.parameter_list()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        cfg = ModelConfig(in_channels=3, base_width=4)
        a = init_model(cfg, seed=11)
        b = init_model(cfg, seed=12)
        assert not np.array_equal(
            a.params["enc1.conv.weight"].data, b.params["enc1.conv.weight"].data
        )

    def test_parameter_count_matches_closed_form(self):
        for cfg in (ModelConfig(), ModelConfig(in_channels=8, base_width=8), ModelConfig(in_channels=3, base_width=4)):
            model = init_model(cfg, seed=0)
            enumerated = sum(t.data.size for _, t in model.parameter_list())
            assert enumerated == closed_form_count(cfg)

    def test_gamma_one_beta_zero_bias_zero(self, small_model):
        for name, t in small_model.parameter_list():
            if name.endswith("bn.gamma"):
                assert np.all(t.data == 1.0)
            elif name.endswith("bn.beta") or name.endswith(".bias"):
                assert np.all(t.data == 0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            init_model(ModelConfig(in_channels=0), seed=0)
        with pytest.raises(ConfigError):
            init_model(ModelConfig(base_width=2), seed=0)


class TestEncode:
    def test_pyramid_shapes(self):
        model = init_model(ModelConfig(in_channels=64, base_width=32), seed=0)
        feats = model.encode(rand_image(0, 1, 64, 64, 64), "eval")
        assert [f.shape[2] for f in feats] == [32, 16, 8, 4, 2]
        assert [f.shape[1] for f in feats] == [32, 64, 128, 256, 512]

    def test_divisibility_error_names_requirement(self, small_model):
        with pytest.raises(ShapeError) as exc:
            small_model.encode(rand_image(0, 1, 3, 48, 64), "eval")
        assert "32" in str(exc.value)

    def test_channel_mismatch(self, small_model):
        with pytest.raises(ShapeError):
            small_model.encode(rand_image(0, 1, 5, 64, 64), "eval")

    def test_eval_deterministic(self, small_model):
        x = rand_image(3, 1, 3, 64, 64)
        a = small_model.encode(x, "eval")
        b = small_model.encode(x, "eval")
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.data, fb.data)


class TestDifferencePyramid:
    def test_identical_inputs_give_exact_zeros(self, small_model):
        x = rand_image(5, 1, 3, 64, 64)
        for d in small_model.difference_pyramid(x, x, "eval"):
            assert np.all(d.data == 0.0)

    def test_swap_negates_exactly(self, small_model):
        a = rand_image(6, 1, 3, 64, 64)
        b = rand_image(7, 1, 3, 64, 64)
        fwd = small_model.difference_pyramid(a, b, "eval")
        rev = small_model.difference_pyramid(b, a, "eval")
        for df, dr in zip(fwd, rev):
            assert np.array_equal(df.data, -dr.data)

    def test_resolution_contract(self, small_model):
        a = rand_image(8, 1, 3, 64, 64)
        b = rand_image(9, 1, 3, 64, 64)
        deltas = small_model.difference_pyramid(a, b, "eval")
        assert [d.shape[2] for d in deltas] == [32, 16, 8, 4, 2]


class TestForward:
    def test_output_shape_and_range(self):
        model = init_model(ModelConfig(in_channels=64, base_width=32), seed=0)
        pre = rand_image(1, 1, 64, 128, 128)
        post = rand_image(2, 1, 64, 128, 128)
        out = model.forward(pre, post, "eval")
        assert out.shape == (1, 1, 128, 128)
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_shape_mismatch_rejected(self, small_model):
        with pytest.raises(ShapeError):
            small_model.forward(rand_image(0, 1, 3, 64, 64), rand_image(0, 1, 3, 32, 32), "eval")

    def test_identical_pair_constant_interior(self, small_model):
        # with pre = post every decoder input is zero, so only bias paths
        # contribute; 3x3 convs leak a border halo that doubles with each
        # upsample: 1px at 1/16 grows to 30px at full resolution
        x = rand_image(10, 1, 3, 128, 128)
        out = small_model.forward(x, x, "eval").data[0, 0]
        interior = out[30:-30, 30:-30]
        assert interior.max() - interior.min() <= 1e-6

    def test_output_strictly_inside_unit_interval(self, small_model):
        pre = rand_image(11, 2, 3, 64, 64)
        post = rand_image(12, 2, 3, 64, 64)
        out = small_model.forward(pre, post, "eval").data
        assert np.all((out > 0.0) & (out < 1.0))


class TestParameterList:
    def test_shared_encoder_appears_once(self, small_model):
        names = [n for n, _ in small_model.parameter_list()]
        assert len(names) == len(set(names))
        assert names.count("enc1.conv.weight") == 1

    def test_ordering_stable_across_inits(self):
        cfg = ModelConfig(in_channels=3, base_width=4)
        a = [n for n, _ in init_model(cfg, seed=0).parameter_list()]
        b = [n for n, _ in init_model(cfg, seed=99).parameter_list()]
        assert a == b

    def test_total_elements_match_count(self, small_model):
        total = sum(t.data.size for _, t in small_model.parameter_list())
        assert total == closed_form_count(small_model.config)


class TestWeightSharing:
    def test_siamese_gradient_is_sum_of_branch_gradients(self, small_model):
        """Encoder gradients under the two-branch forward must equal the sum
        of gradients from two independent single-branch graphs."""
        model = small_model
        pre = rand_image(20, 1, 3, 64, 64)
        post = rand_image(21, 1, 3, 64, 64)
        rng = np.random.default_rng(22)

        probes = None

        def branch_loss(feats, sign):
            nonlocal probes
            if probes is None:
                probes = [rng.standard_normal(f.shape).astype(np.float32) for f in feats]
            terms = [tsum(mul(f, sign * k)) for f, k in zip(feats, probes)]
            total = terms[0]
            for t in terms[1:]:
                total = total + t
            return total

        # full siamese graph: loss = sum_l <post_l - pre_l, K_l>
        model.zero_grad()
        deltas = model.difference_pyramid(pre, post, "eval")
        branch_loss(deltas, 1.0).backward()
        g_siamese = {
            n: t.grad.copy() for n, t in model.parameter_list() if n.startswith("enc")
        }

        # branch graphs sharing the same parameter tensors
        model.zero_grad()
        branch_loss(model.encode(pre, "eval"), -1.0).backward()
        g_pre = {n: t.grad.copy() for n, t in model.parameter_list() if n.startswith("enc")}

        model.zero_grad()
        branch_loss(model.encode(post, "eval"), 1.0).backward()
        g_post = {n: t.grad.copy() for n, t in model.parameter_list() if n.startswith("enc")}

        for name in g_siamese:
            combined = g_pre[name] + g_post[name]
            denom = np.maximum(np.abs(combined), 1e-6)
            rel = np.abs(g_siamese[name] - combined) / denom
            assert rel.max() < 1e-6, name
