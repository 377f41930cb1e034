"""Second-order centered stencils, vertical quadratures, and deterministic sums.

Stencil functions consume ghost-padded arrays (valid ghosts are the caller's
responsibility) and return interior-shaped arrays.  Vertical quadratures act
along the last (z) axis of arrays without z ghosts.

All diagnostic reductions go through :func:`pairwise_sum`, numpy's
single-threaded pairwise sum, so results do not depend on thread count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Grid


_OFFSET = {-1: slice(None, -2), 0: slice(1, -1), 1: slice(2, None)}
#: (i, j, ndim) -> index of the interior of a padded field shifted (i, j) cells in x, y
_SHIFTS = {(i, j, ndim): (_OFFSET[i], _OFFSET[j]) + (_OFFSET[0],) * (ndim - 2)
           for i in _OFFSET for j in _OFFSET for ndim in (2, 3)}


def _shifted(fp: np.ndarray, i: int, j: int) -> np.ndarray:
    """Interior-shaped view of a padded 2D or 3D field, offset (i, j) cells in x and y."""
    return fp[_SHIFTS[i, j, fp.ndim]]


def grad_h(fp: np.ndarray, g: Grid):
    """Horizontal gradient (d/dx, d/dy) of a padded 2D or 3D field."""
    fx = (_shifted(fp, 1, 0) - _shifted(fp, -1, 0)) / (2.0 * g.dx)
    fy = (_shifted(fp, 0, 1) - _shifted(fp, 0, -1)) / (2.0 * g.dy)
    return fx, fy


def div_h(up: np.ndarray, vp: np.ndarray, g: Grid, out=None, buf=None):
    """Horizontal divergence d(u)/dx + d(v)/dy of padded component fields.

    The result goes to `out` and the d(v)/dy term to `buf`, two
    interior-shaped buffers allocated when not given.
    """
    out = np.subtract(_shifted(up, 1, 0), _shifted(up, -1, 0), out=out)
    out /= 2.0 * g.dx
    buf = np.subtract(_shifted(vp, 0, 1), _shifted(vp, 0, -1), out=buf)
    buf /= 2.0 * g.dy
    out += buf
    return out


@lru_cache(maxsize=16)
def _quadrature_matrices(nz: int, dz: float):
    """(from_bottom, from_top) trapezoid weight matrices; column k yields cell k."""
    eye = np.eye(nz)
    steps = 0.5 * dz * (eye[:-1] + eye[1:])  # row m: the trapezoid between cells m and m+1
    bottom = np.cumsum(np.vstack((0.5 * dz * eye[:1], steps)), axis=0)
    surface = dz * (5.0 * eye[-1:] - eye[-2:-1]) / 8.0
    top = np.cumsum(np.vstack((steps, surface))[::-1], axis=0)[::-1]
    weights = tuple(np.ascontiguousarray(m.T) for m in (bottom, top))
    for w in weights:
        w.setflags(write=False)
    return weights


def _vertical_quadrature(f: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    nz = f.shape[-1]
    out = np.empty(f.shape) if out is None else out
    np.matmul(f.reshape(-1, nz), weights, out=out.reshape(-1, nz))
    return out


def integrate_from_bottom(f: np.ndarray, g: Grid, out=None):
    """Cumulative vertical integral from z = -h to each cell center.

    Trapezoidal, with the bottom-face value mirrored from the first cell, so
    the top-face total matches h times the uniform depth mean.  Applied as
    one matrix product of the (columns, nz) field with the (nz, nz) weight
    matrix, cached per (nz, dz); f may carry lateral ghosts.  With `out`
    (f's shape, C-contiguous) the product is written there.
    """
    return _vertical_quadrature(f, _quadrature_matrices(f.shape[-1], g.dz)[0], out)


def integrate_from_top(f: np.ndarray, g: Grid):
    """Cumulative vertical integral from each cell center up to z = 0.

    Trapezoidal; the surface-face value is linearly extrapolated from the two
    top cells, making the rule exact for integrands linear in z.  Applied as
    one matrix product with a cached (nz, nz) weight matrix, as in
    :func:`integrate_from_bottom`.
    """
    return _vertical_quadrature(f, _quadrature_matrices(f.shape[-1], g.dz)[1])


def max_abs(a: np.ndarray) -> float:
    """Largest |a|, as max(a.max(), -a.min()): no full-size |a| temporary."""
    return float(max(a.max(), -a.min()))


def pairwise_sum(a: np.ndarray) -> float:
    """Sum of all entries of `a` in float64.

    numpy's pairwise summation runs on one thread, and its blocking depends
    only on the shape and memory layout, so the result is bit-identical
    across runs, BLAS backends, and thread counts.
    """
    return float(np.add.reduce(a, axis=None, dtype=np.float64))


def pairwise_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Deterministic inner product built on :func:`pairwise_sum`."""
    return pairwise_sum(np.asarray(a).ravel() * np.asarray(b).ravel())
