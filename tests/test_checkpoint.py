import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleadapt.checkpoint import (
    MAGIC_HMR,
    MAGIC_MD,
    CheckpointError,
    load_hmr,
    load_md,
    save_hmr,
    save_md,
)
from cycleadapt.hmrnet import HmrConfig, hmr_init
from cycleadapt.mdnet import MdConfig, md_init


def test_hmr_round_trip(tmp_path):
    config = HmrConfig(feature_dim=12, hidden_dim=9, num_hidden_layers=2)
    params = hmr_init(config, 5)
    path = tmp_path / "net.cahm"
    save_hmr(path, config, params)
    loaded_config, loaded = load_hmr(path)
    assert loaded_config == config
    assert set(loaded) == set(params)
    for name in params:
        assert np.array_equal(loaded[name], params[name])


def test_md_round_trip(tmp_path):
    config = MdConfig(window=7, blocks=2)
    params = md_init(config, 3)
    path = tmp_path / "net.camd"
    save_md(path, config, params)
    assert path.read_bytes()[8:24] == struct.pack("<4I", 7, 144, 2, 0)
    loaded_config, loaded = load_md(path)
    assert loaded_config == config
    for name in params:
        assert np.array_equal(loaded[name], params[name])


@pytest.mark.parametrize("word, value", [(1, 143), (3, 1)])  # the pose width, then the zero word
def test_md_load_refuses_another_pose_width_or_a_nonzero_fourth_word(tmp_path, word, value):
    config = MdConfig(window=4, blocks=1)
    path = tmp_path / "net.camd"
    save_md(path, config, md_init(config, 0))
    raw = bytearray(path.read_bytes())
    raw[8 + 4 * word : 12 + 4 * word] = struct.pack("<I", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError) as err:
        load_md(path)
    assert str(err.value).startswith(f"{path}: denoiser header has pose width")


def test_magic_is_checked(tmp_path):
    config = MdConfig(window=4, blocks=1)
    path = tmp_path / "net.bin"
    save_md(path, config, md_init(config, 0))
    with pytest.raises(CheckpointError, match="magic"):
        load_hmr(path)
    assert MAGIC_HMR != MAGIC_MD


def test_version_is_checked(tmp_path):
    config = HmrConfig(feature_dim=4, hidden_dim=3, num_hidden_layers=1)
    path = tmp_path / "net.cahm"
    save_hmr(path, config, hmr_init(config, 0))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_hmr(path)


def test_truncated_file_names_path(tmp_path):
    config = HmrConfig(feature_dim=4, hidden_dim=3, num_hidden_layers=1)
    path = tmp_path / "cut.cahm"
    save_hmr(path, config, hmr_init(config, 0))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 17])
    with pytest.raises(CheckpointError, match="cut.cahm"):
        load_hmr(path)
    path.write_bytes(raw[:6])
    with pytest.raises(CheckpointError, match="truncated"):
        load_hmr(path)


def test_trailing_bytes_rejected(tmp_path):
    config = MdConfig(window=3, blocks=1)
    path = tmp_path / "extra.camd"
    save_md(path, config, md_init(config, 0))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_md(path)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One small saved regressor and denoiser, as raw bytes, plus a scratch path."""
    root = tmp_path_factory.mktemp("ckpt")
    hmr_config = HmrConfig(feature_dim=4, hidden_dim=3, num_hidden_layers=1)
    md_config = MdConfig(window=3, blocks=1)
    save_hmr(root / "net.cahm", hmr_config, hmr_init(hmr_config, 0))
    save_md(root / "net.camd", md_config, md_init(md_config, 0))
    raw = {"hmr": (root / "net.cahm").read_bytes(), "md": (root / "net.camd").read_bytes()}
    return raw, {"hmr": load_hmr, "md": load_md}, root / "damaged.ckpt"


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["hmr", "md"]), data=st.data())
def test_every_strict_prefix_is_a_checkpoint_error(saved, kind, data):
    raw, loaders, path = saved
    path.write_bytes(raw[kind][: data.draw(st.integers(0, len(raw[kind]) - 1))])
    with pytest.raises(CheckpointError) as err:
        loaders[kind](path)
    assert str(path) in str(err.value)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["hmr", "md"]), bit=st.integers(0, 63))
def test_a_flipped_magic_or_version_bit_is_a_checkpoint_error(saved, kind, bit):
    """The first 8 bytes are the magic and the version. A flip in the float
    payload cannot be seen: the format carries no checksum."""
    raw, loaders, path = saved
    damaged = bytearray(raw[kind])
    damaged[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(damaged))
    with pytest.raises(CheckpointError, match="magic|version") as err:
        loaders[kind](path)
    assert str(path) in str(err.value)


def test_save_rejects_wrong_shapes(tmp_path):
    config = HmrConfig(feature_dim=4, hidden_dim=3, num_hidden_layers=1)
    params = hmr_init(config, 0)
    params["w0"] = np.zeros((4, 4))
    with pytest.raises(CheckpointError, match="w0"):
        save_hmr(tmp_path / "bad.cahm", config, params)
