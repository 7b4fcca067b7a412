import dataclasses
import os
import re

import pytest

from nestedkrig.config import RunConfig, load_config
from nestedkrig.exceptions import ConfigError

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def load_text(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_config(str(path))


def test_readme_block_loads_as_the_defaults(tmp_path):
    with open(README) as fh:
        blocks = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    cfg = load_text(tmp_path, blocks[0])
    defaults = RunConfig()
    for section in dataclasses.fields(RunConfig):
        got = getattr(cfg, section.name)
        want = getattr(defaults, section.name)
        for key in dataclasses.fields(want):
            assert getattr(got, key.name) == getattr(want, key.name), \
                f"{section.name}.{key.name}"
    assert cfg == defaults
    assert cfg.echo() == defaults.echo()


def test_keys_are_case_sensitive(tmp_path):
    cfg = load_text(tmp_path, "[estimation]\nA = 50\n")
    assert cfg.estimation.A == 50.0
    assert cfg.estimation.a == 0.1
    assert "estimation.A=50.0" in cfg.echo()
    with pytest.raises(ConfigError, match="unknown config key kernel.Family"):
        load_text(tmp_path, "[kernel]\nFamily = matern32\n")


def test_inline_comments_and_percent_signs(tmp_path):
    cfg = load_text(tmp_path, "[kernel]\nlengthscales = 0.1, 0.2 ; two dims\n"
                              "[data]\nresponse = y% ; a percentage\n")
    assert cfg.kernel.lengthscales == (0.1, 0.2)
    assert cfg.data.response == "y%"


def test_values_parse_by_field_type(tmp_path):
    cfg = load_text(tmp_path, "[estimation]\nenabled = yes\nq = 7\nc = 2\n"
                              "[run]\nthreads = 3\n")
    assert cfg.estimation.enabled is True
    assert cfg.estimation.q == 7 and isinstance(cfg.estimation.q, int)
    assert cfg.estimation.c == 2.0 and isinstance(cfg.estimation.c, float)
    assert cfg.run.threads == 3
    for text in ("[estimation]\nq = 7.5\n", "[estimation]\nenabled = maybe\n",
                 "[kernel]\nlengthscales = ,\n", "[kernel]\nvariance = 5%\n"):
        with pytest.raises(ConfigError, match="bad value"):
            load_text(tmp_path, text)


@pytest.mark.parametrize("text", [
    "a = 1\n[estimation]\n",
    "[kernel]\nvariance = 1\nvariance = 2\n",
    "[tree]\n[tree]\n",
    "[echo]\n",
    "[estimation]\na = -5\n",
    "[estimation]\nq = 0\n",
    "[estimation]\nn_iter = -1\n",
])
def test_malformed_or_invalid_files_raise_config_error(tmp_path, text):
    with pytest.raises(ConfigError):
        load_text(tmp_path, text)


def test_group_count_only_for_flat_trees(tmp_path):
    with pytest.raises(ConfigError, match="partition.p"):
        load_text(tmp_path, "[partition]\np = 4\n")
    cfg = load_text(tmp_path, "[partition]\np = 4\n[tree]\nmode = flat\n")
    assert cfg.partition.p == 4
