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

A video is a pure function of its spec, body, sizes and seed, and keeps its
bits because its draws keep their order. After the motion (its own
generator) and the camera, one generator gives, frame by frame, the
feature noise, then the keypoint jitter, then the keypoint drop uniforms;
`render_frames` makes only those draws per frame and computes everything
else over the whole video at once, with a gemv per frame for the feature
map so that each frame's features have the bits of ``A @ x``.

A video's ground truth is arrays: `gt_params` is one (N,) `GT_PARAMS` record
array (``gt_params.theta`` is (N, 144), ``gt_params[i].theta`` one frame's)
and `gt_camera` the weak-perspective (s, tx, ty); its mesh is not stored, as
the evaluator poses it from `gt_params` (`benchmark.make_evaluator`). A video file
(`write_video`/`read_video`) is one `checkpoint.write_arrays` file, the
package's one format: the format version, the domain spec as JSON, the
camera, and one array per stream (features, theta, beta, keypoints, joints),
each member under a CRC-32 that is checked on every read. A file with a
member missing or one more is refused.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .bodymodel import (
    BETA_SIZE,
    THETA_SIZE,
    BodyModel,
    body_forward_batch,
    project_weak_perspective,
    rotmat_to_rot6d,
)
from .checkpoint import read_arrays, write_arrays

FORMAT_VERSION = 3
PARAM_SIZE = THETA_SIZE + BETA_SIZE
GT_PARAMS = np.dtype([("theta", np.float64, (THETA_SIZE,)), ("beta", np.float64, (BETA_SIZE,))])
# a video file's members: `read_video` refuses a file with one missing or one more
_MEMBERS = ("version", "spec", "camera", "features", "theta", "beta", "keypoints", "joints")


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
            try:
                pair = tuple(float(x) for x in rng)
            except (TypeError, ValueError):
                pair = ()
            if len(pair) != 2 or not (0.0 <= pair[0] <= pair[1] < np.inf):
                raise ValueError(f"DomainSpec.{label} must be an ordered finite pair >= 0, got {rng}")
            object.__setattr__(self, label, pair)
        for label in ("feature_noise_std", "kp_noise_std", "mixing_seed"):
            if not 0 <= getattr(self, label) < np.inf:
                raise ValueError(f"DomainSpec.{label} must be a finite number >= 0, got {getattr(self, label)!r}")
        if not 0.0 <= self.p_drop <= 1.0:
            raise ValueError(f"DomainSpec.p_drop must be in [0, 1], got {self.p_drop}")


@dataclass(frozen=True)
class SyntheticVideo:
    """Every array but the keypoints' coordinates at confidence-0 slots is
    finite; ``gt_params`` and ``gt_camera`` are read-only copies. No mesh."""

    features: np.ndarray  # (N, F)
    gt_params: np.recarray  # (N,) GT_PARAMS records
    gt_joints: np.ndarray  # (N, J, 3)
    keypoints: np.ndarray  # (N, J, 3) as (x, y, confidence)
    gt_camera: np.ndarray  # (3,) as (s, tx, ty)

    def __post_init__(self) -> None:
        kp = np.asarray(self.keypoints, dtype=np.float64)
        params = np.array(self.gt_params).view(np.recarray)
        camera = np.array(self.gt_camera, dtype=np.float64)
        n = self.features.shape[0]
        if self.features.ndim != 2 or params.dtype != GT_PARAMS or params.shape != (n,):
            raise ValueError(f"SyntheticVideo: features must be (N, F), with ({n},) GT_PARAMS records as gt_params")
        if camera.shape != (3,):
            raise ValueError(f"SyntheticVideo.gt_camera must be (s, tx, ty), got shape {camera.shape}")
        if self.gt_joints.ndim != 3 or self.gt_joints.shape[0] != n or self.gt_joints.shape[2] != 3:
            raise ValueError(f"SyntheticVideo.gt_joints must be ({n}, *, 3), got {self.gt_joints.shape}")
        finite = {"features": self.features, "gt_params.theta": params.theta, "gt_params.beta": params.beta,
                  "gt_joints": self.gt_joints, "gt_camera": camera}
        for label, arr in finite.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"SyntheticVideo.{label} must be finite")
        params.flags.writeable = camera.flags.writeable = False
        object.__setattr__(self, "keypoints", kp)
        object.__setattr__(self, "gt_params", params)
        object.__setattr__(self, "gt_camera", camera)
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
    """Smooth seeded motion: returns ((N,) `GT_PARAMS` records, posed joints (N,J,3)).

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
    betas = np.tile(beta, (n_frames, 1))
    _mesh, joints3d = body_forward_batch(model, thetas, betas)
    return np.rec.fromarrays([thetas, betas], dtype=GT_PARAMS), joints3d


def mixing_matrices(spec: DomainSpec, feature_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The domain's (A, b) of the feature map A @ concat(theta, beta) + b."""
    rng = np.random.default_rng(spec.mixing_seed)
    a = rng.normal(size=(feature_dim, PARAM_SIZE)) / np.sqrt(PARAM_SIZE)
    b = 0.1 * rng.normal(size=feature_dim)
    return a, b


def render_frames(params, joints3d, camera, spec: DomainSpec, rng: np.random.Generator, mixing) -> tuple:
    """Every frame's features (N, F) and keypoints (N, J, 3).

    The features are A @ concat(theta, beta) + b plus N(0, feature_noise_std)
    noise, for ``mixing`` = (A, b). The keypoints project ``joints3d`` with
    the camera (s, tx, ty), add N(0, kp_noise_std) jitter, then drop each
    joint at p_drop (confidence 0, coordinates 0). The only per-frame work
    is the draws from ``rng``: frame by frame, the feature noise, then the
    jitter, then the drop uniforms.
    """
    a, b = mixing
    n, joints = joints3d.shape[:2]
    keypoints = np.empty((n, joints, 3))
    uniforms = np.empty((n, joints))
    features = np.empty((n, a.shape[0]))
    # a record is theta then beta, packed: the records' bytes are concat(theta, beta) rows
    x = np.ascontiguousarray(params, dtype=GT_PARAMS).view(np.float64).reshape(n, PARAM_SIZE)
    np.matmul(a, x[:, :, None], out=features[:, :, None])  # a gemv per frame, as a @ x is
    features += b
    for i in range(n):
        features[i] += rng.normal(0.0, spec.feature_noise_std, size=a.shape[0])
        keypoints[i, :, :2] = rng.normal(0.0, spec.kp_noise_std, size=(joints, 2))
        uniforms[i] = rng.random(joints)
    coords = keypoints[:, :, :2]
    coords += project_weak_perspective(camera, joints3d)
    kept = uniforms >= spec.p_drop
    coords[~kept] = 0.0
    keypoints[:, :, 2] = kept
    return features, keypoints


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
    params, joints3d = gen_motion(spec, model, n_frames, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    camera = np.array([rng.uniform(0.95, 1.05), rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)])
    a, b = mixing_matrices(spec, feature_dim) if mixing is None else mixing
    if np.shape(a) != (feature_dim, PARAM_SIZE) or np.shape(b) != (feature_dim,):
        raise ValueError(f"make_video: mixing must be ({feature_dim}, {PARAM_SIZE}) and ({feature_dim},), "
                         f"got {np.shape(a)} and {np.shape(b)}")
    features, keypoints = render_frames(params, joints3d, camera, spec, rng, (a, b))
    return SyntheticVideo(
        features=features,
        gt_params=params,
        gt_joints=joints3d,
        keypoints=keypoints,
        gt_camera=camera,
    )


def write_video(path, video: SyntheticVideo, spec: DomainSpec) -> None:
    """One `write_arrays` file; writing the same video twice gives the same bytes."""
    write_arrays(path, {
        "version": np.array(FORMAT_VERSION),
        "spec": np.array(json.dumps(dataclasses.asdict(spec))),
        "camera": video.gt_camera,
        "features": video.features,
        "theta": video.gt_params.theta,
        "beta": video.gt_params.beta,
        "keypoints": video.keypoints,
        "joints": video.gt_joints,
    })


def _member_names(members: dict) -> tuple:
    """`_MEMBERS`, once the file is of the version this reads."""
    version = members["version"].item()
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported version {version!r}, expected {FORMAT_VERSION}")
    return _MEMBERS


def read_video(path) -> tuple[SyntheticVideo, DomainSpec]:
    """Inverse of write_video, bit for bit; any damage raises `VideoFormatError`."""
    try:
        members = read_arrays(path, _member_names)
        spec = DomainSpec(**json.loads(members["spec"].item()))
        video = SyntheticVideo(
            features=members["features"],
            gt_params=np.rec.fromarrays([members["theta"], members["beta"]], dtype=GT_PARAMS),
            gt_joints=members["joints"],
            keypoints=members["keypoints"],
            gt_camera=members["camera"],
        )
    except Exception as err:  # a damaged zip, npy header, member or value fails in many ways
        raise VideoFormatError(f"{path}: not a readable version-{FORMAT_VERSION} video: {err!r}") from err
    return video, spec
