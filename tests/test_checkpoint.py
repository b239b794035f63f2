import dataclasses
import io
import struct
import tracemalloc
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleadapt.bodymodel import build_toy_body
from cycleadapt.checkpoint import (
    CheckpointError,
    load_hmr,
    load_md,
    read_arrays,
    save_hmr,
    save_md,
    write_arrays,
)
from cycleadapt.hmrnet import HmrConfig, hmr_init
from cycleadapt.mdnet import MdConfig, md_init
from cycleadapt.synth import DomainSpec, VideoFormatError, make_video, read_video, write_video

SMALL_HMR = HmrConfig(feature_dim=4, hidden_dim=3, num_hidden_layers=1)
SMALL_MD = MdConfig(window=3, blocks=1)


def _members(path) -> dict:
    """Every member of a file, whatever it holds: for tests that edit one."""
    return read_arrays(path, lambda found: found)


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
    members = _members(path)
    assert [members[name].item() for name in ("version", "kind", "window", "blocks")] == [2, "md", 7, 2]
    loaded_config, loaded = load_md(path)
    assert loaded_config == config
    for name in params:
        assert np.array_equal(loaded[name], params[name])
    first = path.read_bytes()
    save_md(path, config, params)
    assert path.read_bytes() == first


def test_version_is_checked(tmp_path):
    path = tmp_path / "net.cahm"
    save_hmr(path, SMALL_HMR, hmr_init(SMALL_HMR, 0))
    write_arrays(path, {**_members(path), "version": np.array(9)})
    with pytest.raises(CheckpointError, match="net.cahm.*version 9"):
        load_hmr(path)
    # version 1, the packed binary: magic, version, config words, raw float64s
    params = hmr_init(SMALL_HMR, 0)
    path.write_bytes(struct.pack("<4s4I", b"CAHM", 1, 4, 3, 1) + b"".join(p.tobytes() for p in params.values()))
    with pytest.raises(CheckpointError, match="net.cahm"):
        load_hmr(path)


def test_a_checkpoint_of_the_other_kind_is_refused(tmp_path):
    save_md(tmp_path / "md.ckpt", SMALL_MD, md_init(SMALL_MD, 0))
    save_hmr(tmp_path / "hmr.ckpt", SMALL_HMR, hmr_init(SMALL_HMR, 0))
    with pytest.raises(CheckpointError, match=r"md\.ckpt: .*version 2 'md' checkpoint, expected"):
        load_hmr(tmp_path / "md.ckpt")
    with pytest.raises(CheckpointError, match=r"hmr\.ckpt: .*version 2 'hmr' checkpoint, expected"):
        load_md(tmp_path / "hmr.ckpt")


@pytest.mark.parametrize(
    "changes",
    [
        {"w_in": np.zeros((143, 143))},  # the pose width of a foreign denoiser
        {"ln_g0": np.ones(4)},
        {"b_out": np.zeros(144, dtype=np.float32)},
        {"b_out": None},
        {"w_extra": np.zeros(3)},
        {"window": np.array(3.0)},
    ],
    ids=["w_in-143", "ln_g0-4", "b_out-float32", "missing-b_out", "extra-member", "float-window"],
)
def test_a_wrong_member_is_refused(tmp_path, changes):
    path = tmp_path / "net.camd"
    save_md(path, SMALL_MD, md_init(SMALL_MD, 0))
    members = {**_members(path), **changes}
    write_arrays(path, {name: value for name, value in members.items() if value is not None})
    with pytest.raises(CheckpointError, match="net.camd"):
        load_md(path)


@pytest.mark.parametrize(
    "save, load, config, params, member",
    [
        (save_hmr, load_hmr, SMALL_HMR, hmr_init(SMALL_HMR, 0), "num_hidden_layers"),
        (save_md, load_md, SMALL_MD, md_init(SMALL_MD, 0), "blocks"),
    ],
    ids=["hmr-layers", "md-blocks"],
)
def test_a_huge_stored_layer_count_is_refused_before_its_shapes_are_built(tmp_path, save, load, config, params, member):
    path = tmp_path / "net.ckpt"
    save(path, config, params)
    write_arrays(path, {**_members(path), member: np.array(10**5)})
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match=r"net\.ckpt: .* parameter members, but the stored .* implies"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} B"


def _write_raw_members(path, members: dict) -> None:
    """A zip of raw `.npy` bytes under valid CRCs, as `write_arrays` lays it out."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, raw in members.items():
            archive.writestr(zipfile.ZipInfo(f"{name}.npy"), raw)


def _npy_bytes(array, **kwargs) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, **kwargs)
    return buffer.getvalue()


def test_read_arrays_gives_writable_arrays_of_every_layout(tmp_path):
    rng = np.random.default_rng(0)
    members = {
        "scalar": np.array(3),
        "text": np.array("{\"a\": 1}"),
        "rows": rng.normal(size=(4, 5)),
        "columns": np.asfortranarray(rng.normal(size=(3, 7))),
        "view": rng.normal(size=(6, 4))[::2, 1:],
        "empty": np.zeros((0, 3)),
        "flags": np.array([True, False]),
    }
    write_arrays(tmp_path / "a.npz", members)
    got = read_arrays(tmp_path / "a.npz", lambda found: members)
    assert list(got) == list(members)
    for name, want in members.items():
        assert got[name].dtype == want.dtype and got[name].shape == want.shape
        assert np.array_equal(got[name], want)
        assert got[name].flags.writeable
    assert got["columns"].flags.f_contiguous
    wide = np.zeros((1,) * 40 + (2,))  # a header too long for version 1
    _write_raw_members(tmp_path / "v2.npz", {"wide": _npy_bytes(wide, version=(2, 0))})
    assert np.array_equal(read_arrays(tmp_path / "v2.npz", lambda found: ["wide"])["wide"], wide)


@pytest.mark.parametrize("damage,match", [
    (lambda raw: raw + b"\0" * 8, "data bytes"),
    (lambda raw: raw[:-8], "data bytes"),
    (lambda raw: raw.replace(b"'fortran_order': False", b"'fortran_order': 0    "), "header"),
    (lambda raw: raw.replace(b"(2, 3)", b"[2, 3]"), "header"),
    (lambda raw: raw.replace(b"NUMPY", b"NUMPZ"), ".npy member"),
])
def test_read_arrays_refuses_a_malformed_member(tmp_path, damage, match):
    path = tmp_path / "bad.npz"
    _write_raw_members(path, {"x": damage(_npy_bytes(np.ones((2, 3))))})
    with pytest.raises(ValueError, match=match):
        read_arrays(path, lambda found: ["x"])


def test_read_arrays_refuses_a_missing_or_an_extra_member(tmp_path):
    path = tmp_path / "a.npz"
    write_arrays(path, {"x": np.ones(2), "y": np.zeros(3)})
    assert list(read_arrays(path, lambda found: ["y", "x"])) == ["x", "y"]
    with pytest.raises(ValueError, match=r"members \['z'\] missing and \['y'\] not expected"):
        read_arrays(path, lambda found: ["x", "z"])
    with pytest.raises(ValueError, match=r"members \[\] missing and \['x', 'y'\] not expected"):
        read_arrays(path, lambda found: [])


def test_read_arrays_refuses_an_object_member(tmp_path):
    path = tmp_path / "pickled.npz"
    _write_raw_members(path, {"x": _npy_bytes(np.array([{"a": 1}], dtype=object), allow_pickle=True)})
    with pytest.raises(ValueError, match="object dtype"):
        read_arrays(path, lambda found: ["x"])


def test_truncated_file_names_path(tmp_path):
    path = tmp_path / "cut.cahm"
    save_hmr(path, SMALL_HMR, hmr_init(SMALL_HMR, 0))
    raw = path.read_bytes()
    for cut in (0, 6, len(raw) // 2, len(raw) - 17):
        path.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError, match="cut.cahm"):
            load_hmr(path)


def test_save_rejects_wrong_shapes(tmp_path):
    params = hmr_init(SMALL_HMR, 0)
    params["w0"] = np.zeros((4, 4))
    with pytest.raises(CheckpointError, match="w0"):
        save_hmr(tmp_path / "bad.cahm", SMALL_HMR, params)
    params = md_init(SMALL_MD, 0)
    params["w_t0"] = np.zeros((3, 4))
    with pytest.raises(CheckpointError, match="w_t0"):
        save_md(tmp_path / "bad.camd", SMALL_MD, params)


def _flat(value):
    """What a reader returned, as nested lists of bytes and reprs, compared exactly."""
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.shape, value.tobytes()]
    if dataclasses.is_dataclass(value):
        value = [type(value).__name__] + [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (list, tuple)):
        return [_flat(item) for item in value]
    return repr(value)


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    """kind -> (reader, error type, the file's bytes, what it reads as, a scratch path)."""
    root = tmp_path_factory.mktemp("small")
    spec = DomainSpec("source", (0.08, 0.15), (0.2, 0.6), 11, 0.01, 0.02, 0.2)
    write_video(root / "clip.video", make_video(spec, build_toy_body(42, vertices=40), 2, 8, seed=4), spec)
    save_hmr(root / "net.cahm", SMALL_HMR, hmr_init(SMALL_HMR, 0))
    save_md(root / "net.camd", SMALL_MD, md_init(SMALL_MD, 0))
    files = {}
    for kind, name, read, error in (
        ("video", "clip.video", read_video, VideoFormatError),
        ("hmr", "net.cahm", load_hmr, CheckpointError),
        ("md", "net.camd", load_md, CheckpointError),
    ):
        files[kind] = (read, error, (root / name).read_bytes(), _flat(read(root / name)), root / f"damaged.{kind}")
    return files


@pytest.mark.parametrize("kind", ["video", "hmr", "md"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_flipped_bit_raises_or_loads_identical(small_files, kind, data):
    read, error, raw, contents, path = small_files[kind]
    bit = data.draw(st.integers(0, 8 * len(raw) - 1))
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(damaged))
    try:
        loaded = read(path)
    except error as err:
        assert str(path) in str(err)
    else:
        same = _flat(loaded) == contents  # a bare bool: a diff of the two would be huge
        assert same, f"flipping bit {bit} loaded different data"


@pytest.mark.parametrize("kind", ["video", "hmr", "md"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_strict_prefix_raises(small_files, kind, data):
    read, error, raw, _, path = small_files[kind]
    path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(error) as err:
        read(path)
    assert str(path) in str(err.value)
