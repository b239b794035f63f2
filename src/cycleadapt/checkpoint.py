"""The package's one file format, and the networks' parameter files in it.

Videos (`synth.write_video`) and checkpoints are both `write_arrays` files:
numpy's `.npz` layout, uncompressed `.npy` members under the zip format's
default 1980 date (so the same arrays give the same bytes), each under a
CRC-32 that `read_arrays` checks for every member before it parses any.

A checkpoint holds the version, the net kind ("hmr" for the mesh regressor,
"md" for the motion denoiser), the config ints and one float64 member per
parameter; a load checks the member set and every shape against the config.
"""

from __future__ import annotations

import math
import operator
import re
import zipfile
from dataclasses import asdict, fields

import numpy as np

from .hmrnet import HmrConfig, hmr_param_shapes
from .mdnet import MdConfig, md_param_shapes

VERSION = 2
# kind -> (config type, parameter shapes, the parameter count a config implies,
# checked before the shapes are built so that a huge layer count costs nothing)
NETS = {
    "hmr": (HmrConfig, hmr_param_shapes, lambda c: 2 * c.num_hidden_layers + 2),
    "md": (MdConfig, md_param_shapes, lambda c: 4 * c.blocks + 4),
}


class CheckpointError(ValueError):
    """Unreadable or inconsistent parameter file."""


def write_arrays(path, members: dict) -> None:
    """One `.npz`-layout file holding ``members`` (name -> array) in order."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in members.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)


def read_arrays(path) -> dict:
    """Every member of a `write_arrays` file; a bad CRC-32 raises `zipfile.BadZipFile`."""
    with zipfile.ZipFile(path) as archive:
        raw = {info.filename: archive.read(info) for info in archive.infolist()}
    return {name.removesuffix(".npy"): _npy_array(data) for name, data in raw.items()}


# the one header form `np.lib.format.write_array` writes, padded with spaces to a newline
_NPY_HEADER = re.compile(
    r"\{'descr': '([^']+)', 'fortran_order': (False|True), 'shape': (\(\)|\(\d+,\)|\(\d+(?:, \d+)+\)), \} *\n"
)


def _npy_array(data: bytes) -> np.ndarray:
    """A version 1 or 2 `.npy` member's array: its one copy out of ``data``.
    Any other header form, an object dtype or a data size off by a byte is refused."""
    if data[:6] != b"\x93NUMPY" or data[6:8] not in (b"\x01\x00", b"\x02\x00"):
        raise ValueError("not a version 1 or 2 .npy member")
    start = 10 if data[6] == 1 else 12
    end = start + int.from_bytes(data[8:start], "little")
    match = _NPY_HEADER.fullmatch(data[start:end].decode("latin1"))
    if match is None:
        raise ValueError(f"unexpected .npy header {data[start:end][:100]!r}")
    shape = tuple(int(n) for n in re.findall(r"\d+", match[3]))
    dtype = np.dtype(match[1])
    if dtype.hasobject:
        raise ValueError(f"object dtype {match[1]!r} refused")
    count = math.prod(shape)
    if len(data) - end != count * dtype.itemsize:
        raise ValueError(f"{len(data) - end} data bytes for {count} items of {match[1]!r}")
    flat = np.frombuffer(data, dtype=dtype, count=count, offset=end)
    if match[2] == "True":
        return flat.reshape(shape[::-1]).T.copy(order="F")
    return flat.reshape(shape).copy()


def _save(path, kind: str, config, params: dict) -> None:
    members = {"version": np.array(VERSION), "kind": np.array(kind)}
    members.update((name, np.array(value)) for name, value in asdict(config).items())
    for name, shape in NETS[kind][1](config):
        tensor = np.ascontiguousarray(params[name], dtype=np.float64)
        if tensor.shape != shape:
            raise CheckpointError(f"parameter {name}: expected shape {shape}, got {tensor.shape}")
        members[name] = tensor
    write_arrays(path, members)


def _load(path, kind: str):
    config_type, param_shapes, param_count = NETS[kind]
    try:
        members = read_arrays(path)
        found = (members.pop("version").item(), members.pop("kind").item())
        if found != (VERSION, kind):
            raise ValueError(f"version {found[0]!r} {found[1]!r} checkpoint, expected version {VERSION} {kind!r}")
        config = config_type(**{f.name: operator.index(members.pop(f.name).item()) for f in fields(config_type)})
        if len(members) != param_count(config):
            raise ValueError(f"{len(members)} parameter members, but the stored {config} implies {param_count(config)}")
        shapes = dict(param_shapes(config))
        if set(members) != set(shapes):
            raise ValueError(f"parameter members {sorted(members)}, expected {sorted(shapes)}")
        for name, shape in shapes.items():
            if members[name].dtype != np.float64 or members[name].shape != shape:
                raise ValueError(f"parameter {name} is {members[name].dtype} {members[name].shape}, expected {shape}")
    except Exception as err:  # a damaged zip, npy header, member or value fails in many ways
        raise CheckpointError(f"{path}: not a readable version-{VERSION} {kind!r} checkpoint: {err!r}") from err
    return config, {name: members[name] for name in shapes}


def save_hmr(path, config: HmrConfig, params: dict) -> None:
    _save(path, "hmr", config, params)


def load_hmr(path) -> tuple[HmrConfig, dict]:
    return _load(path, "hmr")


def save_md(path, config: MdConfig, params: dict) -> None:
    _save(path, "md", config, params)


def load_md(path) -> tuple[MdConfig, dict]:
    return _load(path, "md")
