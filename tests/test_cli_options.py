"""Every run option reaches the same ``RunConfig`` field whether it is given
as a flag or in the JSON config file, and the config file wins over a flag."""
from __future__ import annotations

import json

import pytest

from ncgauge.cli import build_config, main
from ncgauge.errors import ConfigError

# option -> (RunConfig field, flag text, the same value in JSON, the field
# value both give, another JSON value, the field value that one gives)
CASES = {
    "n": ("n", "3", 3, 3, 4, 4),
    "N": ("big_n", "2", 2, 2, 3, 3),
    "r": ("r", "2", 2, 2, 3, 3),
    "dims": ("dims", "4,4", [4, 4], (4, 4), "8", (8,)),
    "mu": ("mu", "0.5", 0.5, 0.5, 2.0, 2.0),
    "seed": ("seed", "5", 5, 5, 7, 7),
    "steps": ("steps", "10", 10, 10, 0, 0),
    "tol": ("tol", "1e-6", 1e-6, 1e-6, 1e-5, 1e-5),
    "out": ("out", "a.csv", "a.csv", "a.csv", "b.csv", "b.csv"),
}


def _config(tmp_path, entries: dict) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(entries))
    return str(path)


@pytest.mark.parametrize("key", sorted(CASES))
def test_flag_and_config_set_the_same_field_and_config_wins(key, tmp_path):
    field, text, value, expected, other, other_expected = CASES[key]
    by_flag = build_config(["verify", f"--{key}", text])
    by_config = build_config(["verify", "--config", _config(tmp_path, {key: value})])
    assert getattr(by_flag, field) == getattr(by_config, field) == expected
    both = build_config(["verify", f"--{key}", text, "--config", _config(tmp_path, {key: other})])
    assert getattr(both, field) == other_expected


@pytest.mark.parametrize("key", ["init", "grid", "M"])
def test_config_only_keys_have_no_flag(key, tmp_path):
    with pytest.raises(ConfigError):
        build_config(["two_point", f"--{key}", "x"])
    value = {"init": "symmetric", "grid": "circle", "M": [[2.0]]}[key]
    build_config(["two_point", "--config", _config(tmp_path, {key: value})])


# option -> (a bad flag text, the same bad value in JSON); a flag's text is
# always a path string, so ``out`` has no bad flag value, and ``init``,
# ``grid`` and ``M`` have no flag
BAD = {
    "n": ("2.5", 2.5),
    "N": ("0", 0),
    "r": ("0", 0),
    "dims": ("8,8,8", "8,8,8"),
    "mu": ("-1", -1),
    "seed": ("-1", -1),
    "steps": ("1.5", 1.5),
    "tol": ("0", 0),
    "out": (None, 5),
    "init": (None, "sideways"),
    "grid": (None, "square"),
    "M": (None, [[1, 2]]),
}


def _refusal(argv) -> str:
    with pytest.raises(ConfigError) as info:
        build_config(argv)
    return str(info.value)


@pytest.mark.parametrize("key", sorted(BAD))
def test_flag_and_config_refuse_a_bad_value_under_its_key(key, tmp_path):
    text, value = BAD[key]
    if text is not None:
        assert _refusal(["two_point", f"--{key}", text]).startswith(f"{key} ")
    assert _refusal(["two_point", "--config", _config(tmp_path, {key: value})]).startswith(f"{key} ")


# the options whose default is None -> their RunConfig field
UNSET = {"r": "r", "dims": "dims", "steps": "steps", "out": "out", "M": "m_matrix"}


@pytest.mark.parametrize("key", sorted(BAD))
def test_null_keeps_only_a_none_default(key, tmp_path):
    argv = ["two_point", "--config", _config(tmp_path, {key: None})]
    if key in UNSET:
        assert getattr(build_config(argv), UNSET[key]) is None
    else:
        assert _refusal(argv).startswith(f"{key} ")


@pytest.mark.parametrize("key, value", [("tol", "-1e-3"), ("tol", "-inf"), ("mu", "-1e-3")])
def test_a_negative_flag_value_is_refused_under_its_key(key, value, capsys):
    # argparse alone reads "-1e-3" after a flag as an unknown option
    for argv in (["minimize", f"--{key}", value], ["minimize", f"--{key}={value}"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key} must be ")
