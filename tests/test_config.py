import importlib
import inspect
import json
import pkgutil
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import patchvote
from patchvote.config import (
    _COUNT_FIELDS,
    NEGATIVES_POOL,
    Config,
    dumps_canonical,
    from_dict,
    load_config,
    save_config,
)
from patchvote.errors import ConfigError
from patchvote.pose import POSE_BINS
from patchvote.views import ROTATION_POOL

# every way a Config is built checks it the same way
BUILDS = pytest.mark.parametrize(
    "build",
    [from_dict, lambda data: Config(**data), lambda data: replace(Config(), **data)],
    ids=["from_dict", "constructor", "replace"],
)


class TestDefaults:
    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        cfg = load_config(str(p))
        assert cfg == Config()

    def test_default_constants(self):
        cfg = Config()
        assert cfg.tau == 0.15
        assert cfg.weight_c == 24.0
        assert cfg.theta_pos == 0.4
        assert cfg.theta_neg == 0.6
        assert cfg.patch_fraction == pytest.approx(1.0 / 3.0)
        assert cfg.num_views == 16
        assert cfg.negatives_keep == 1024
        assert NEGATIVES_POOL == 4096
        assert POSE_BINS == 16

    def test_env_var_pickup(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"tau": 0.3}))
        monkeypatch.setenv("P2C_CONFIG", str(p))
        cfg = load_config()
        assert cfg.tau == 0.3

    def test_no_path_no_env_gives_defaults(self, monkeypatch):
        monkeypatch.delenv("P2C_CONFIG", raising=False)
        assert load_config() == Config()


class TestValidation:
    @BUILDS
    def test_tau_zero_rejected_naming_field(self, build):
        with pytest.raises(ConfigError, match="tau"):
            build({"tau": 0.0})

    @BUILDS
    def test_negative_tau_rejected(self, build):
        with pytest.raises(ConfigError, match="tau"):
            build({"tau": -1.0})

    @BUILDS
    @pytest.mark.parametrize(
        "data", [{"tau": 0.001}, {"tau": 0.0015, "weight_c": 1e300}, {"tau": 5e-324}]
    )
    def test_tau_overflowing_the_loss_rejected_naming_field(self, data, build):
        # exp(1/tau) or (1 + weight_c) * exp(1/tau) would overflow f64
        with pytest.raises(ConfigError, match="tau: 1/tau"):
            build(data)

    def test_tau_just_inside_the_overflow_bound_accepted(self):
        # 1/tau + log1p(24) = 706 + 3.22 < log(f64 max) = 709.78
        assert from_dict({"tau": 1 / 706}).tau == 1 / 706

    @BUILDS
    @pytest.mark.parametrize(
        "data",
        [{"theta_pos": 2.0}, {"theta_pos": 0.0}, {"theta_pos": -0.1},
         {"theta_neg": -1.0}, {"theta_neg": 1.5}],
        ids=["pos-above-1", "pos-zero", "pos-negative", "neg-negative", "neg-above-1"],
    )
    def test_footprint_threshold_outside_iou_range_rejected_naming_field(
        self, data, build
    ):
        (name,) = data
        with pytest.raises(ConfigError, match=f"{name}: must be in"):
            build(data)

    def test_footprint_thresholds_at_the_iou_range_ends_accepted(self):
        cfg = from_dict({"theta_pos": 1.0, "theta_neg": 0.0})
        assert (cfg.theta_pos, cfg.theta_neg) == (1.0, 0.0)
        assert from_dict({"theta_neg": 1.0}).theta_neg == 1.0

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ConfigError, match="foo"):
            from_dict({"foo": 1})

    @BUILDS
    def test_keep_exceeding_pool_rejected(self, build):
        assert build({"negatives_keep": NEGATIVES_POOL})
        with pytest.raises(ConfigError, match="^negatives_keep: must be <= 4096$"):
            build({"negatives_keep": NEGATIVES_POOL + 1})

    @BUILDS
    def test_patch_fraction_bounds(self, build):
        with pytest.raises(ConfigError, match="patch_fraction"):
            build({"patch_fraction": 0.0})
        with pytest.raises(ConfigError, match="patch_fraction"):
            build({"patch_fraction": 1.5})
        # sample_patches refuses a patch side below 2 px for every view
        assert build({"render_resolution": 8, "patch_fraction": 0.25, "pool_size": 1})
        with pytest.raises(ConfigError, match="^patch_fraction: gives a patch side of 1"):
            build({"render_resolution": 8, "patch_fraction": 0.1, "pool_size": 1})

    @BUILDS
    @pytest.mark.parametrize("field", _COUNT_FIELDS)
    def test_counts_must_be_positive(self, field, build):
        with pytest.raises(ConfigError, match=f"{field}: must be >= 1"):
            build({field: 0})

    @BUILDS
    @pytest.mark.parametrize(
        "data, field",
        [
            ({"kq": "9"}, "kq"),
            ({"tau": "x"}, "tau"),
            ({"seed": None}, "seed"),
            ({"kq": 9.0}, "kq"),
            ({"kr": True}, "kr"),
            ({"tau": False}, "tau"),
            ({"theta_pos": [0.4]}, "theta_pos"),
            ({"render_resolution": 10**400}, "render_resolution"),
            ({"kq": 2**63}, "kq"),
            ({"embed_dim": 2**63}, "embed_dim"),
            # numpy scalars would reach save_index, which cannot encode them
            ({"seed": np.int64(1)}, "seed"),
            ({"seed": True}, "seed"),
        ],
    )
    def test_wrong_field_type_rejected_naming_field(self, data, field, build):
        with pytest.raises(ConfigError, match=f"^{field}: must be"):
            build(data)

    @BUILDS
    def test_more_medoids_than_the_rotation_pool_rejected(self, build):
        """The view grid and the POSE_BINS pose bins are both k-medoids
        over ROTATION_POOL rotations."""
        assert POSE_BINS <= ROTATION_POOL
        assert build({"num_views": ROTATION_POOL})
        with pytest.raises(ConfigError, match=f"^num_views: must be <= {ROTATION_POOL}"):
            build({"num_views": ROTATION_POOL + 1})

    @BUILDS
    @pytest.mark.parametrize("field", ["render_resolution", "embed_dim", "kq"])
    def test_size_above_the_ceiling_rejected_naming_field(self, field, build):
        """These fields size allocations; 2**40 used to load and fail in numpy.

        Only configs are built here: no query runs with a large kq."""
        # a 4096 px render at patch_fraction 0.25 has a 1024 px patch side,
        # which pool_size 16 divides
        fraction = {"patch_fraction": 0.25} if field == "render_resolution" else {}
        assert getattr(build({field: 4096, **fraction}), field) == 4096
        for value in (4097, 2**40):
            with pytest.raises(ConfigError, match=f"^{field}: must be <= 4096$"):
                build({field: value})

    @BUILDS
    def test_pool_size_above_the_hidden_width_ceiling_rejected(self, build):
        """lit_init's hidden width ceil(pool_size / 2)**2 sizes the towers:
        pool 128 gives 4096 units, pool 256 gives 16384."""
        # a 4096 px render at patch_fraction 0.25 has a 1024 px patch side,
        # which both pools divide
        big = {"render_resolution": 4096, "patch_fraction": 0.25}
        assert build({**big, "pool_size": 128}).pool_size == 128
        for pool in (256, 1024):
            with pytest.raises(ConfigError, match="^pool_size: must be <= 128$"):
                build({**big, "pool_size": pool})

    @BUILDS
    def test_pool_size_that_does_not_divide_the_patch_rejected(self, build):
        """The default patch side is round(96 / 3) = 32 pixels."""
        assert build({"pool_size": 32})
        assert build({"pool_size": 8, "render_resolution": 48})
        msg = "^pool_size: must divide the patch side {} and render_resolution {}$"
        for data, side, res in [
            ({"pool_size": 40}, 32, 96),  # wider than the patch
            ({"pool_size": 17, "render_resolution": 48}, 16, 48),
            ({"pool_size": 16, "render_resolution": 64}, 21, 64),  # uneven bins
            # the same at the default pool_size: build_index used to
            # render every view before the pooling refused the patch
            ({"render_resolution": 64}, 21, 64),
            ({"patch_fraction": 0.25}, 24, 96),
            # 16 divides the 16 px patch of a 40 px render, but not the
            # render the pose head pools whole
            ({"patch_fraction": 0.4, "render_resolution": 40}, 16, 40),
        ]:
            with pytest.raises(ConfigError, match=msg.format(side, res)):
                build(data)

    def test_float_field_takes_an_int(self):
        cfg = from_dict({"tau": 1, "weight_c": 3})
        assert cfg.tau == 1 and cfg.weight_c == 3

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            from_dict(["kq"])

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(p))

    def test_non_object_root(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(p))


class TestRoundTrip:
    def test_save_load_byte_identical(self, tmp_path):
        cfg = from_dict({"tau": 0.2, "kr": 12, "seed": 7})
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_config(cfg, str(p1))
        cfg2 = load_config(str(p1))
        save_config(cfg2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert cfg == cfg2

    def test_canonical_text_is_sorted(self):
        text = dumps_canonical(Config())
        keys = list(json.loads(text).keys())
        assert keys == sorted(keys)

    def test_partial_override_keeps_other_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"kq": 3}))
        cfg = load_config(str(p))
        assert cfg.kq == 3
        assert cfg.kr == Config().kr


class TestNonFiniteAndEncoding:
    @BUILDS
    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"learning_rate": NaN}', "learning_rate"),
            ('{"shade_noise": NaN}', "shade_noise"),
            ('{"shade_noise": Infinity}', "shade_noise"),
            ('{"tau": Infinity}', "tau"),
            ('{"weight_c": Infinity}', "weight_c"),
            ('{"theta_pos": Infinity}', "theta_pos"),
            ('{"theta_neg": -Infinity}', "theta_neg"),
            ('{"min_coverage": Infinity}', "min_coverage"),
            ('{"learning_rate": 1e400}', "learning_rate"),
        ],
    )
    def test_non_finite_float_rejected_naming_field(self, text, field, build):
        with pytest.raises(ConfigError, match=f"^{field}: must be"):
            build(json.loads(text))

    def test_non_finite_config_file_rejected(self, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text('{"learning_rate": NaN, "shade_noise": Infinity}')
        with pytest.raises(ConfigError, match="shade_noise: must be finite; learning"):
            load_config(str(p))

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b'{"tau": "\xe9"}'])
    def test_non_utf8_file_is_config_error(self, tmp_path, raw):
        p = tmp_path / "latin1.json"
        p.write_bytes(raw)
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(p))

    def test_deeply_nested_file_is_config_error(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_bytes(b'{"a":' * 50_000)
        with pytest.raises(ConfigError, match="^config is not UTF-8 JSON"):
            load_config(str(p))

    @pytest.mark.parametrize(
        "key",
        [
            "fscore_threshold",
            "fscore_samples",
            "anchors_per_epoch",
            "huber_delta",
            "negatives_pool",
            "pose_bins",
            "hidden_dim",
            "anchor_views",
        ],
    )
    def test_removed_knobs_are_unknown_keys(self, key):
        with pytest.raises(ConfigError, match=f"unknown key: {key}"):
            from_dict({key: 1})


class TestFloatFieldIntegers:
    @BUILDS
    @pytest.mark.parametrize("field", ["tau", "learning_rate", "shade_noise"])
    def test_integer_beyond_float_range_rejected_naming_field(self, field, build):
        text = '{"%s": 1%s}' % (field, "0" * 400)
        with pytest.raises(ConfigError, match=f"^{field}: must fit in a float$"):
            build(json.loads(text))

    def test_config_file_with_huge_integer_rejected(self, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text('{"weight_c": -1' + "0" * 400 + "}")
        with pytest.raises(ConfigError, match="^weight_c: must fit in a float; "):
            load_config(str(p))

    def test_largest_convertible_integer_loads(self):
        # learning_rate has no upper bound; weight_c this large would
        # overflow the contrastive loss and is rejected for that
        cfg = from_dict({"learning_rate": int(sys.float_info.max)})
        assert float(cfg.learning_rate) == sys.float_info.max


class TestOneHomePerSetting:
    # retrieve_shape serves a loaded index: its cfg may be None (then it
    # reads the index manifest's), and the benchmark passes the vote
    # widths kq and kr positionally
    ALLOWED = frozenset({"retrieve_shape"})

    def test_no_function_taking_cfg_shadows_a_field(self):
        """A setting is read from cfg, not overridden by a parameter.

        `seed` is exempt: as a parameter it names a sampling stream
        derived from cfg.seed, not the run's seed.
        """
        settings = {f.name for f in fields(Config)} - {"seed"}
        shadowing = []
        for info in pkgutil.iter_modules(patchvote.__path__):
            module = importlib.import_module(f"patchvote.{info.name}")
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != module.__name__:
                    continue
                params = set(inspect.signature(fn).parameters)
                if "cfg" in params and params & settings and name not in self.ALLOWED:
                    shadowing.append(f"{info.name}.{name}: {sorted(params & settings)}")
        assert shadowing == [], f"parameters shadowing Config fields: {shadowing}"
