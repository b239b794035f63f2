"""Reference implementations that the tests hold the package's fused code to."""

import numpy as np

# a zero first column; parallel columns
DEGENERATE_CODES = [[0, 0, 0, 0, 1, 0], [1, 0, 0, 2, 0, 0]]


def rot6d_batch(codes) -> np.ndarray:
    """Map (..., 6) continuous rotation codes to (..., 3, 3) rotation matrices.

    Column one is the normalized first triple, column two the Gram-Schmidt
    remainder of the second, column three their cross product, so the result
    is orthonormal with determinant +1 and invariant to rescaling the input.
    Degenerate codes are not checked.
    """
    c = np.asarray(codes, dtype=np.float64)
    a1, a2 = c[..., :3], c[..., 3:]
    b1 = a1 / np.linalg.norm(a1, axis=-1, keepdims=True)
    resid = a2 - (b1 * a2).sum(axis=-1, keepdims=True) * b1
    b2 = resid / np.linalg.norm(resid, axis=-1, keepdims=True)
    return np.stack([b1, b2, np.cross(b1, b2)], axis=-1)


def rot6d_graph(g, theta3: int, batch: int, joints: int) -> int:
    """(batch, J, 6) codes to (batch, J, 3, 3) rotations in 24 single-op nodes:
    the decoder that `Graph.rot6d` replaced and must reproduce bit for bit,
    values and gradients alike."""
    a1 = g.take(theta3, slice(0, 3), -1)
    a2 = g.take(theta3, slice(3, 6), -1)

    def normalize(v: int) -> int:
        return g.div(v, g.sqrt(g.sum(g.mul(v, v), axis=-1, keepdims=True)))

    b1 = normalize(a1)
    along = g.sum(g.mul(b1, a2), axis=-1, keepdims=True)
    b2 = normalize(g.sub(a2, g.mul(along, b1)))
    # cross product from the two cyclic rolls of the last axis
    roll1, roll2 = [1, 2, 0], [2, 0, 1]
    b3 = g.sub(
        g.mul(g.take(b1, roll1, -1), g.take(b2, roll2, -1)),
        g.mul(g.take(b1, roll2, -1), g.take(b2, roll1, -1)),
    )
    stacked = g.concat([b1, b2, b3], axis=-1)
    return g.transpose(g.reshape(stacked, (batch, joints, 3, 3)))
