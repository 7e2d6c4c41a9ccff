"""Config parsing, validation, and the canonical digest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boussinesq_lab.config import (ConfigError, RunConfig, load_config,
                                   parse_config, save_config)
from boussinesq_lab.noise import NoiseModel, SubordinatorSpec
from boussinesq_lab.spectral import PhysicsParams
from boussinesq_lab.stepping import Stepper


def test_default_roundtrip():
    cfg = RunConfig()
    again = parse_config(cfg.to_ini())
    assert again == cfg
    assert again.digest == cfg.digest


def test_digest_is_sha256_hex():
    d = RunConfig().digest
    assert len(d) == 64
    assert set(d) <= set("0123456789abcdef")


def test_digest_tracks_every_field():
    base = RunConfig()
    assert base.with_seed(7).digest != base.digest
    assert parse_config(base.to_ini().replace("nu1 = 1.0", "nu1 = 2.0")).digest != base.digest
    assert parse_config(base.to_ini().replace("n = 32", "n = 64")).digest != base.digest


def test_digest_ignores_key_order():
    cfg = RunConfig()
    shuffled = (
        "[run]\nlevel = 2\namplitude = 1.0\nhorizon = 1.0\nseed = 20260818\n"
        "[physics]\ng = 1.0\nnu2 = 1.0\nnu1 = 1.0\n"
        "[noise]\nalphas =\nmodes = 1,0 0,1\ngrid_step = 0.001\nb = 4.0\na = 8.0\nfamily = gamma\n"
        "[grid]\nscheme = etd_euler\ndt = 0.001\nn = 32\n"
    )
    assert parse_config(shuffled).digest == cfg.digest


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[extra\]"):
        parse_config("[extra]\nx = 1\n")


def test_unknown_key_names_the_line():
    text = "[grid]\nn = 32\ntypo_key = 5\n"
    with pytest.raises(ConfigError, match=r"grid\.typo_key \(line 3\)"):
        parse_config(text)


def test_bad_value_names_key_and_line():
    with pytest.raises(ConfigError, match=r"grid\.n \(line 2\).*not int"):
        parse_config("[grid]\nn = plenty\n")


def test_malformed_ini_rejected():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("no section header here\n")


def test_mode_parsing():
    cfg = parse_config("[noise]\nmodes = 2,1 0,3\n")
    assert cfg.modes == ((2, 1), (0, 3))
    with pytest.raises(ConfigError, match="not k1,k2"):
        parse_config("[noise]\nmodes = 2;1\n")
    with pytest.raises(ConfigError, match="pair of integers"):
        parse_config("[noise]\nmodes = a,b\n")
    with pytest.raises(ConfigError, match="empty"):
        parse_config("[noise]\nmodes =\n")


def test_alpha_parsing():
    cfg = parse_config("[noise]\nalphas = 0.5 0.5 0.25 0.25\n")
    assert cfg.alphas == (0.5, 0.5, 0.25, 0.25)
    with pytest.raises(ConfigError, match="must be numbers"):
        parse_config("[noise]\nalphas = big\n")


@pytest.mark.parametrize("text,match", [
    ("[grid]\nn = 7\n", "even"),
    ("[grid]\ndt = -0.1\n", "positive"),
    ("[grid]\nscheme = leapfrog\n", "not a scheme"),
    ("[physics]\ng = 0.0\n", "positive"),
    ("[noise]\nfamily = cauchy\n", "not supported"),
    ("[noise]\nb = -4\n", "out of range"),
    ("[run]\nhorizon = -1\n", "nonnegative"),
    ("[run]\nlevel = 0\n", "starts at 1"),
    ("[grid]\ndt = 0.0003\n", "divide"),
    ("[noise]\nalphas = 1 2\n", "one amplitude per direction"),
    ("[noise]\nmodes = -1,0 0,1\n", "canonical half-lattice"),
    ("[noise]\nmodes = 0,0\n", "zero mode"),
    ("[noise]\nmodes = 20,0 0,1\n", "resolvable band"),
])
def test_validation_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_builders():
    cfg = parse_config("[physics]\nnu1 = 1.5\nnu2 = 0.5\ng = 2.0\n"
                       "[grid]\nn = 16\ndt = 0.002\n[noise]\ngrid_step = 0.004\n")
    assert cfg.params() == PhysicsParams(nu1=1.5, nu2=0.5, g=2.0)
    assert isinstance(cfg.spec(), SubordinatorSpec)
    assert cfg.spec().grid_step == 0.004
    model = cfg.model()
    assert isinstance(model, NoiseModel)
    assert model.dim == 4
    stepper = cfg.stepper()
    assert isinstance(stepper, Stepper)
    assert stepper.dt == 0.002
    assert stepper.n == 16


def test_file_roundtrip(tmp_path):
    cfg = RunConfig(n=24, dt=2.5e-3, grid_step=5e-3, seed=99,
                    modes=((1, 1), (2, 1)), alphas=(0.3, 0.3, 0.3, 0.3))
    fname = tmp_path / "run.ini"
    save_config(cfg, fname)
    assert load_config(fname) == cfg


@settings(max_examples=40, deadline=None)
@given(nu1=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
       dt=st.sampled_from([1e-4, 2.5e-4, 5e-4, 1e-3]),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_roundtrip_property(nu1, dt, seed):
    cfg = RunConfig(nu1=nu1, dt=dt, grid_step=1e-3, seed=seed)
    again = parse_config(cfg.to_ini())
    assert again == cfg
    assert again.digest == cfg.digest
