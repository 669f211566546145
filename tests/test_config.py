"""The [world] and [train] INI keys: parsed from the `WorldSpec` and
`TrainConfig` field types, and checked against the hand-written schema they
replaced (`oracles.ORACLE_SCHEMA`)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ORACLE_SCHEMA, oracle_config_value
from openworld_kit import cli
from openworld_kit.errors import ConfigError
from openworld_kit.synthetic_world import WorldSpec
from openworld_kit.training import TrainConfig

KEYS = [(section, key) for section in ("world", "train") for key in ORACLE_SCHEMA[section]]

# the default texts of the old schema, the values of the bench workloads, the
# README and the tests' tiny world, and values that break a parser
TEXTS = sorted({text for keys in ORACLE_SCHEMA.values() for _, text in keys.values()} | {
    "32", "10,10,10", "12", "train:60,cal:20,test:20", "8", "2,2", "0.7,1.1",
    "8x8x16,4x4x32", "20-56,72-120", "2,4", "train:6,cal:3,test:4", "3", "2",
    "", " ", "0", "1", "-1", "4", "0.5", "1_000", "+3", " 7 ", "nan", "inf", "-inf",
    "1e999", "true", "FALSE", "on", "no", "foo", "relabel", "3,6", "6,3", "3,6,",
    ",3,6", "3,,6", "1,2,3", "1.05,1.3,", "1.05,,1.3", "1.05", "16x16x32,8x8x16",
    "8x8x16", "0x4x16", "16x16x16,,8x8x32", "16x16x16,", "16 x 16 x 16", "16x16",
    "20-56", "20-56,", "-20-56", "20--56", " train :6, cal:3", "train:6,", "train",
    "train:6:1", "0,inf", "inf-56", "4x4xnan", "1.05,nan"})

# INI-ish junk: digits and every item separator
JUNK = st.text(alphabet="0123456789.,-x:e +_ainrtf", max_size=16)


def parsed(section, key, text):
    """(value, None) as `RunConfig` parses `section.key=text`, or (None, error)."""
    try:
        return cli.RunConfig.load(None, [f"{section}.{key}={text}"]).get(section, key), None
    except ConfigError as exc:
        return None, exc


def has_non_finite(value):
    if isinstance(value, tuple):
        return any(has_non_finite(v) for v in value)
    return isinstance(value, float) and not math.isfinite(value)


def check_against_oracle(section, key, text):
    try:
        want = oracle_config_value(section, key, text)
    except Exception:
        want = None
    got, error = parsed(section, key, text)
    if want is None or has_non_finite(want):
        # the old schema accepted non-finite floats; a finite one is required now
        assert error is not None, (section, key, text, got)
    else:
        assert error is None, (section, key, text, error)
        # repr tells 1 from 1.0 and True, at every depth
        assert repr(got) == repr(want), (section, key, text)


@pytest.mark.parametrize("section, key", KEYS, ids=[f"{s}.{k}" for s, k in KEYS])
def test_every_text_parses_as_the_old_schema_did(section, key):
    for text in TEXTS:
        check_against_oracle(section, key, text)


@given(item=st.sampled_from(KEYS), text=st.one_of(st.sampled_from(TEXTS), JUNK))
@settings(max_examples=1000, deadline=None)
def test_fuzzed_text_parses_as_the_old_schema_did(item, text):
    check_against_oracle(*item, text)


def test_the_same_keys_stay_settable():
    assert {s: set(cli.SCHEMA[s]) for s in ORACLE_SCHEMA} == {
        s: set(keys) for s, keys in ORACLE_SCHEMA.items()}


def test_no_settings_give_the_default_spec_and_config():
    cfg = cli.RunConfig.load(None)
    assert cfg.world_spec() == WorldSpec()
    assert cfg.train_config() == TrainConfig()


def test_old_default_texts_parse_to_the_defaults():
    cfg = cli.RunConfig.load(None, [f"{section}.{key}={text}"
                                    for section, keys in ORACLE_SCHEMA.items()
                                    for key, (_, text) in keys.items()])
    assert cfg.echo() == cli.RunConfig.load(None).echo()


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in cli.SCHEMA.items()
    for key, (parse, _) in keys.items() if parse in (cli._parse_float, cli._parse_unit)])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
def test_every_float_key_rejects_non_finite_values(section, key, text):
    with pytest.raises(ConfigError, match=f"{section}.{key}.*not a finite number"):
        cli.RunConfig.load(None, [f"{section}.{key}={text}"])


def test_a_text_is_parsed_when_it_arrives(tmp_path):
    # a bad value in the file is reported even where a --set replaces it
    (tmp_path / "run.ini").write_text("[world]\ndim = eight\n")
    with pytest.raises(ConfigError, match="world.dim"):
        cli.RunConfig.load(str(tmp_path / "run.ini"), ["world.dim=8"])

