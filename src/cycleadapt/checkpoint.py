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

import io
import operator
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
    return {
        name.removesuffix(".npy"): np.lib.format.read_array(io.BytesIO(data), allow_pickle=False)
        for name, data in raw.items()
    }


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
