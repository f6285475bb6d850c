import math
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frobmatch.config import ConfigError, ExperimentConfig, parse_config

MINIMAL = """\
[curve1]
A = 2
B = 3

[curve2]
A = 5
B = 7

[experiment]
x_max = 1000
"""


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(MINIMAL)
        assert (cfg.curve1.A, cfg.curve1.B) == (2, 3)
        assert (cfg.curve2.A, cfg.curve2.B) == (5, 7)
        assert cfg.x_max == 1000
        assert cfg.x_checkpoints == (1000,)
        assert cfg.z_policy == "grh"
        assert cfg.q1 is None and cfg.q2 is None
        assert cfg.cache_dir is None
        assert cfg.threads == len(os.sched_getaffinity(0))

    def test_full_config(self):
        cfg = parse_config(
            MINIMAL
            + "x_checkpoints = 100, 1000\nz_policy = fixed:30\nq1 = 3\nq2 = 5\n"
            + "threads = 4\ncache_dir = /tmp/cache\n"
        )
        assert cfg.x_checkpoints == (100, 1000)
        assert cfg.z_policy == "fixed" and cfg.z_fixed == 30.0
        assert (cfg.q1, cfg.q2) == (3, 5)
        assert cfg.threads == 4
        assert cfg.cache_dir == "/tmp/cache"

    def test_rejects_singular_curve(self):
        with pytest.raises(ConfigError, match="singular"):
            parse_config(MINIMAL.replace("A = 2\nB = 3", "A = 0\nB = 0"))

    def test_duplicate_key_names_line(self):
        text = MINIMAL + "x_max = 2000\n"
        with pytest.raises(ConfigError, match=r"line \d+: duplicate key 'x_max'"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'verbosity'"):
            parse_config(MINIMAL + "verbosity = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
            parse_config(MINIMAL + "[plotting]\nstyle = dark\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing key 'b'"):
            parse_config(MINIMAL.replace("B = 3\n", ""))

    def test_missing_section(self):
        without_curve2 = MINIMAL.replace("[curve2]\nA = 5\nB = 7\n\n", "")
        with pytest.raises(ConfigError, match=r"missing section \[curve2\]"):
            parse_config(without_curve2)

    def test_malformed_integer(self):
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config(MINIMAL.replace("x_max = 1000", "x_max = many"))

    def test_x_max_below_five(self):
        with pytest.raises(ConfigError, match="x_max must be >= 5"):
            parse_config(MINIMAL.replace("x_max = 1000", "x_max = 4"))

    def test_checkpoints_of_only_commas(self):
        with pytest.raises(ConfigError, match="x_checkpoints is empty"):
            parse_config(MINIMAL + "x_checkpoints = , ,,\n")

    def test_checkpoints_must_ascend(self):
        with pytest.raises(ConfigError, match="ascending"):
            parse_config(MINIMAL + "x_checkpoints = 1000, 100\n")

    def test_checkpoints_capped_by_x_max(self):
        with pytest.raises(ConfigError, match="exceed x_max"):
            parse_config(MINIMAL + "x_checkpoints = 100, 2000\n")

    def test_bad_z_policy(self):
        with pytest.raises(ConfigError, match="z_policy"):
            parse_config(MINIMAL + "z_policy = adaptive\n")
        with pytest.raises(ConfigError, match="z_policy"):
            parse_config(MINIMAL + "z_policy = fixed:2\n")

    @pytest.mark.parametrize("z", ["nan", "inf"])
    def test_non_finite_fixed_z(self, z):
        with pytest.raises(ConfigError, match="z_policy"):
            parse_config(MINIMAL + f"z_policy = fixed:{z}\n")

    def test_fixed_z_cap(self):
        assert parse_config(MINIMAL + "z_policy = fixed:1e4\n").z_fixed == 10**4
        for z in ("10000.5", "1e15"):
            with pytest.raises(ConfigError, match="z_policy"):
                parse_config(MINIMAL + f"z_policy = fixed:{z}\n")

    def test_q1_requires_q2(self):
        with pytest.raises(ConfigError, match="together"):
            parse_config(MINIMAL + "q1 = 3\n")

    def test_threads_positive(self):
        with pytest.raises(ConfigError, match="threads"):
            parse_config(MINIMAL + "threads = 0\n")


def _config_or_config_error(text: str) -> None:
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.z_fixed is None or (math.isfinite(cfg.z_fixed) and 3 <= cfg.z_fixed <= 10**4)


_KEYS = ["a", "b", "x_max", "x_checkpoints", "z_policy", "q1", "q2", "cache_dir", "threads"]
_LINES = st.one_of(
    st.sampled_from(["[curve1]", "[curve2]", "[experiment]", "[plotting]"]),
    st.builds(
        "{} = {}".format,
        st.sampled_from(_KEYS),
        st.one_of(st.integers().map(str), st.text(max_size=12)),
    ),
    st.text(max_size=20),
)


class TestParseConfigProperties:
    """Any text gives an ExperimentConfig or a ConfigError, never another
    exception."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(), st.lists(_LINES, max_size=14).map("\n".join)))
    def test_any_text(self, text):
        _config_or_config_error(text)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats().map(repr), st.text(max_size=16)))
    @example("nan")
    @example("-inf")
    @example("1e400")
    @example("1e15")
    def test_any_fixed_z(self, z):
        _config_or_config_error(MINIMAL + f"z_policy = fixed:{z}\n")
