"""Reference implementations that the tests hold the package's fused and
blocked code to, and the sum-free weighted-sum loss that their gradient
checks share."""

import numpy as np

from cycleadapt.bodymodel import body_graph
from cycleadapt.diffcore import Graph, forward

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


def project_batch(cameras, points) -> np.ndarray:
    """Reference weak perspective: (B, 3) cameras against (B, N, 3) points."""
    k = np.asarray(cameras, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    return k[:, :1, None] * p[:, :, :2] + k[:, None, 1:]


def weighted_sum(g, node: int, w) -> int:
    """A scalar loss node, sum(node * w), built without a reduction op.

    Its backward hands ``node`` the bits of ``w`` as the incoming gradient,
    signs of zeros included: the product with ones in the matmul's VJP is
    exact, and so is the reshape."""
    w = np.asarray(w, dtype=np.float64)
    flat = g.reshape(g.mul(node, g.const(w)), (1, w.size))
    return g.reshape(g.matmul(flat, g.const(np.ones((w.size, 1)))), ())


def whole_batch_pose(model, thetas, betas) -> tuple:
    """(vertices, joints) of one forward-only posing graph over the whole
    batch: the bits `body_forward_batch`'s frame blocks must give."""
    th = np.asarray(thetas, dtype=np.float64)
    g = Graph()
    nodes = body_graph(g, model, g.const(th), g.const(np.asarray(betas, dtype=np.float64)), len(th))
    return tuple(forward(g, {}, nodes))
