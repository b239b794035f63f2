"""Binary parameter files for the two networks.

Layout: 4-byte magic ("CAHM" for the mesh regressor, "CAMD" for the motion
denoiser), little-endian u32 version, the config fields as u32s (for the
denoiser: window, the pose width 144, blocks and a zero word), then every
parameter tensor as raw little-endian float64 in declaration order. Shapes
are reconstructed from the config, so the payload carries no per-tensor
metadata.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .bodymodel import THETA_SIZE
from .hmrnet import HmrConfig, hmr_param_shapes
from .mdnet import MdConfig, md_param_shapes

MAGIC_HMR = b"CAHM"
MAGIC_MD = b"CAMD"
VERSION = 1


class CheckpointError(ValueError):
    """Unreadable or inconsistent parameter file."""


def _pack(magic: bytes, header_fields, shapes, params: dict) -> bytes:
    chunks = [magic, struct.pack("<I", VERSION)]
    chunks.append(struct.pack(f"<{len(header_fields)}I", *header_fields))
    for name, shape in shapes:
        tensor = np.ascontiguousarray(params[name], dtype="<f8")
        if tensor.shape != shape:
            raise CheckpointError(f"parameter {name}: expected shape {shape}, got {tensor.shape}")
        chunks.append(tensor.tobytes())
    return b"".join(chunks)


def _unpack(path, raw: bytes, magic: bytes, n_header: int):
    head = 4 + 4 + 4 * n_header
    if len(raw) < head:
        raise CheckpointError(f"{path}: file truncated before header end")
    if raw[:4] != magic:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}, expected {magic!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}, expected {VERSION}")
    fields = struct.unpack_from(f"<{n_header}I", raw, 8)
    return fields, raw[head:]


def _read_tensors(path, body: bytes, shapes) -> dict:
    params = {}
    offset = 0
    for name, shape in shapes:
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = 8 * count
        if offset + nbytes > len(body):
            raise CheckpointError(f"{path}: file truncated inside parameter {name}")
        params[name] = np.frombuffer(body, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(body):
        raise CheckpointError(f"{path}: {len(body) - offset} trailing bytes after parameters")
    return params


def save_hmr(path, config: HmrConfig, params: dict) -> None:
    header = (config.feature_dim, config.hidden_dim, config.num_hidden_layers)
    Path(path).write_bytes(_pack(MAGIC_HMR, header, hmr_param_shapes(config), params))


def load_hmr(path) -> tuple[HmrConfig, dict]:
    raw = Path(path).read_bytes()
    fields, body = _unpack(path, raw, MAGIC_HMR, 3)
    config = HmrConfig(feature_dim=fields[0], hidden_dim=fields[1], num_hidden_layers=fields[2])
    return config, _read_tensors(path, body, hmr_param_shapes(config))


def save_md(path, config: MdConfig, params: dict) -> None:
    header = (config.window, THETA_SIZE, config.blocks, 0)
    Path(path).write_bytes(_pack(MAGIC_MD, header, md_param_shapes(config), params))


def load_md(path) -> tuple[MdConfig, dict]:
    raw = Path(path).read_bytes()
    fields, body = _unpack(path, raw, MAGIC_MD, 4)
    if (fields[1], fields[3]) != (THETA_SIZE, 0):
        raise CheckpointError(
            f"{path}: denoiser header has pose width {fields[1]} and fourth word {fields[3]}, "
            f"expected {THETA_SIZE} and 0"
        )
    config = MdConfig(window=fields[0], blocks=fields[2])
    return config, _read_tensors(path, body, md_param_shapes(config))
