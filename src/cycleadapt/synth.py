"""Synthetic test-video factory.

A domain is a motion style (per-joint sinusoidal rotations with frequency
and amplitude ranges) plus a feature renderer (a seeded linear map from the
body parameters, standing in for an image backbone) plus a keypoint error
model (coordinate noise and dropout). Two domains with different mixing
seeds produce systematically different features for the same pose, which is
what makes a regressor fit on one domain wrong on the other.

Per-joint rotation axes, frequencies, base amplitudes, and phase offsets
are derived from the range values themselves, not from the video seed, so
every video of a domain samples the same low-dimensional motion family
(videos differ by a global phase, a mild amplitude scale, body shape, and
noise). Domains with equal ranges therefore share a motion population even
when their mixing seeds differ; the denoiser can learn the family from one
domain and meet it again in the other.

A video file is one `.npz`-layout zip (`write_video`/`read_video`): the format
version, the domain spec as JSON, the camera, and one array per stream
(features, theta, beta, keypoints, joints, mesh), each member under a CRC-32
that is checked on every read.
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .bodymodel import (
    BETA_SIZE,
    THETA_SIZE,
    BodyModel,
    CameraParams,
    SmplParams,
    body_forward_batch,
    project_weak_perspective,
    rotmat_to_rot6d,
)

FORMAT_VERSION = 2
PARAM_SIZE = THETA_SIZE + BETA_SIZE


class VideoFormatError(ValueError):
    """Unreadable, damaged, or wrong-version video file."""


@dataclass(frozen=True)
class DomainSpec:
    name: str
    freq_range: tuple  # cycles per frame
    amp_range: tuple  # radians
    mixing_seed: int
    feature_noise_std: float
    kp_noise_std: float
    p_drop: float

    def __post_init__(self) -> None:
        for label, rng in (("freq_range", self.freq_range), ("amp_range", self.amp_range)):
            pair = tuple(float(x) for x in rng)
            if len(pair) != 2 or not (0.0 <= pair[0] <= pair[1]):
                raise ValueError(f"DomainSpec.{label} must be an ordered pair >= 0, got {rng}")
            object.__setattr__(self, label, pair)
        for label in ("feature_noise_std", "kp_noise_std"):
            if getattr(self, label) < 0:
                raise ValueError(f"DomainSpec.{label} must be >= 0")
        if not 0.0 <= self.p_drop <= 1.0:
            raise ValueError(f"DomainSpec.p_drop must be in [0, 1], got {self.p_drop}")


@dataclass(frozen=True)
class SyntheticVideo:
    features: np.ndarray  # (N, F)
    gt_params: list  # N SmplParams
    gt_joints: np.ndarray  # (N, J, 3)
    gt_mesh: np.ndarray  # (N, V, 3)
    keypoints: np.ndarray  # (N, J, 3) as (x, y, confidence)
    gt_camera: CameraParams

    def __post_init__(self) -> None:
        kp = np.asarray(self.keypoints, dtype=np.float64)
        object.__setattr__(self, "keypoints", kp)
        n = self.features.shape[0]
        if self.features.ndim != 2 or len(self.gt_params) != n:
            raise ValueError("SyntheticVideo: features must be (N, F), with one SmplParams per frame")
        for label, arr in (("gt_joints", self.gt_joints), ("gt_mesh", self.gt_mesh)):
            if arr.ndim != 3 or arr.shape[0] != n or arr.shape[2] != 3:
                raise ValueError(f"SyntheticVideo.{label} must be ({n}, *, 3), got {arr.shape}")
        if kp.shape != self.gt_joints.shape:
            raise ValueError(f"SyntheticVideo.keypoints must be {self.gt_joints.shape} as gt_joints, got {kp.shape}")
        conf = kp[:, :, 2]
        if not np.all((conf == 0.0) | (conf == 1.0)):
            raise ValueError("SyntheticVideo: keypoint confidences must be 0 or 1")
        if not np.all(np.isfinite(kp[conf > 0][:, :2])):
            raise ValueError("SyntheticVideo: keypoint coordinates must be finite where confident")

    @property
    def frame_count(self) -> int:
        return self.features.shape[0]


def _motion_pattern(spec: DomainSpec, joints: int):
    """Per-joint axes, frequencies, amplitudes, phases for a domain.

    Seeded by the bit patterns of the ranges, so the pattern is a pure
    function of the motion style, shared by every video and by any other
    domain with identical ranges.
    """
    entropy = np.array(spec.freq_range + spec.amp_range, dtype=np.float64).view(np.uint64)
    rng = np.random.default_rng(np.random.SeedSequence([int(x) for x in entropy] + [joints, 0x6D0]))
    axes = rng.normal(size=(joints, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True) + 1e-12
    freqs = rng.uniform(spec.freq_range[0], spec.freq_range[1], size=joints)
    amps = rng.uniform(spec.amp_range[0], spec.amp_range[1], size=joints)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=joints)
    return axes, freqs, amps, phases


def _axis_angle_rotations(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues formula for one fixed axis and (N,) angles -> (N, 3, 3)."""
    ux, uy, uz = axis
    k = np.array([[0.0, -uz, uy], [uz, 0.0, -ux], [-uy, ux, 0.0]])
    sin = np.sin(angles)[:, None, None]
    cos1 = (1.0 - np.cos(angles))[:, None, None]
    return np.eye(3) + sin * k + cos1 * (k @ k)


def gen_motion(spec: DomainSpec, model: BodyModel, n_frames: int, seed: int):
    """Smooth seeded motion: returns (params list, joints (N,J,3), mesh (N,V,3)).

    Joint angles follow amp * sin(2*pi*freq*t + phase) around fixed axes;
    beta is drawn once per video from N(0, 0.5) clipped to [-2, 2].
    """
    if n_frames < 1:
        raise ValueError(f"gen_motion: n_frames must be >= 1, got {n_frames}")
    joints = model.joint_count
    if 6 * joints != THETA_SIZE:
        raise ValueError(f"gen_motion: needs a {THETA_SIZE // 6}-joint body, got {joints} joints")
    axes, freqs, amps, phases = _motion_pattern(spec, joints)
    rng = np.random.default_rng(seed)
    global_phase = rng.uniform(0.0, 2.0 * np.pi)
    amp_scale = rng.uniform(0.9, 1.1)
    beta = np.clip(rng.normal(0.0, 0.5, size=BETA_SIZE), -2.0, 2.0)

    t = np.arange(n_frames, dtype=np.float64)
    thetas = np.empty((n_frames, 6 * joints))
    for j in range(joints):
        angles = amp_scale * amps[j] * np.sin(2.0 * np.pi * freqs[j] * t + phases[j] + global_phase)
        thetas[:, 6 * j : 6 * j + 6] = rotmat_to_rot6d(_axis_angle_rotations(axes[j], angles))
    mesh, joints3d = body_forward_batch(model, thetas, np.tile(beta, (n_frames, 1)))
    params = [SmplParams(theta=thetas[i], beta=beta) for i in range(n_frames)]
    return params, joints3d, mesh


def mixing_matrices(spec: DomainSpec, feature_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The domain's (A, b) of the feature map A @ concat(theta, beta) + b."""
    rng = np.random.default_rng(spec.mixing_seed)
    a = rng.normal(size=(feature_dim, PARAM_SIZE)) / np.sqrt(PARAM_SIZE)
    b = 0.1 * rng.normal(size=feature_dim)
    return a, b


def render_features(
    params: SmplParams,
    spec: DomainSpec,
    rng: np.random.Generator,
    feature_dim: int,
    mixing=None,
) -> np.ndarray:
    """One frame's feature vector; ``mixing`` overrides the domain's (A, b)."""
    a, b = mixing_matrices(spec, feature_dim) if mixing is None else mixing
    x = np.concatenate([params.theta, params.beta])
    return a @ x + b + rng.normal(0.0, spec.feature_noise_std, size=feature_dim)


def simulate_keypoints(
    joints3d, camera: CameraParams, spec: DomainSpec, rng: np.random.Generator
) -> np.ndarray:
    """One frame's (J, 3) keypoints: project with the true camera, jitter, then
    drop joints at p_drop (confidence 0, coordinates 0)."""
    proj = project_weak_perspective(camera, joints3d)
    noisy = proj + rng.normal(0.0, spec.kp_noise_std, size=proj.shape)
    kept = rng.random(proj.shape[0]) >= spec.p_drop
    points = np.zeros((proj.shape[0], 3))
    points[kept, :2] = noisy[kept]
    points[:, 2] = kept.astype(np.float64)
    return points


def make_video(
    spec: DomainSpec,
    model: BodyModel,
    n_frames: int,
    feature_dim: int,
    seed: int,
    mixing=None,
) -> SyntheticVideo:
    """Full synthetic test video, a pure function of (spec, model, sizes, seed).

    ``mixing`` substitutes an explicit (A, b) pair for the domain's own map,
    e.g. a blend of two domains' maps to dial the gap between them.
    """
    params, joints3d, mesh = gen_motion(spec, model, n_frames, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    camera = CameraParams(
        s=float(rng.uniform(0.95, 1.05)),
        tx=float(rng.uniform(-0.05, 0.05)),
        ty=float(rng.uniform(-0.05, 0.05)),
    )
    if mixing is None:
        mixing = mixing_matrices(spec, feature_dim)
    features = np.empty((n_frames, feature_dim))
    keypoints = np.empty(joints3d.shape)
    for i in range(n_frames):
        features[i] = render_features(params[i], spec, rng, feature_dim, mixing=mixing)
        keypoints[i] = simulate_keypoints(joints3d[i], camera, spec, rng)
    return SyntheticVideo(
        features=features,
        gt_params=params,
        gt_joints=joints3d,
        gt_mesh=mesh,
        keypoints=keypoints,
        gt_camera=camera,
    )


def write_video(path, video: SyntheticVideo, spec: DomainSpec) -> None:
    """One `.npz`-layout file: a zip of `.npy` members, each under a CRC-32.

    Members are stored uncompressed under the zip format's default 1980 date,
    so writing the same video twice gives the same bytes.
    """
    members = {
        "version": np.array(FORMAT_VERSION),
        "spec": np.array(json.dumps(dataclasses.asdict(spec))),
        "camera": np.array([video.gt_camera.s, video.gt_camera.tx, video.gt_camera.ty]),
        "features": video.features,
        "theta": np.stack([p.theta for p in video.gt_params]),
        "beta": np.stack([p.beta for p in video.gt_params]),
        "keypoints": video.keypoints,
        "joints": video.gt_joints,
        "mesh": video.gt_mesh,
    }
    with zipfile.ZipFile(path, "w") as archive:
        for name, array in members.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                np.lib.format.write_array(fh, array, allow_pickle=False)


def read_video(path) -> tuple[SyntheticVideo, DomainSpec]:
    """Inverse of write_video, bit for bit; any damage raises `VideoFormatError`.

    Every member's CRC-32 is checked before any member is parsed, so a
    flipped bit cannot load as different numbers.
    """
    try:
        with np.load(path, allow_pickle=False) as npz:
            damaged = npz.zip.testzip()
            if damaged is not None:
                raise ValueError(f"member {damaged} fails its CRC-32")
            version = npz["version"].item()
            if version != FORMAT_VERSION:
                raise ValueError(f"unsupported version {version!r}, expected {FORMAT_VERSION}")
            spec = DomainSpec(**json.loads(npz["spec"].item()))
            camera = CameraParams(*(float(x) for x in npz["camera"]))
            params = [SmplParams(theta=t, beta=b) for t, b in zip(npz["theta"], npz["beta"], strict=True)]
            video = SyntheticVideo(
                features=npz["features"],
                gt_params=params,
                gt_joints=npz["joints"],
                gt_mesh=npz["mesh"],
                keypoints=npz["keypoints"],
                gt_camera=camera,
            )
    except Exception as err:  # a damaged zip, npy header, member or value fails in many ways
        raise VideoFormatError(f"{path}: not a readable version-{FORMAT_VERSION} video: {err!r}") from err
    return video, spec
