"""The transforms written out the general way, as a second route.

resize_bilinear and its adjoint contract the package's interpolation
matrices with np.tensordot; pad_zero and its adjoint are a slice
assignment and a crop. advm.transforms applies the whole diversity chain
as one fused matrix per axis, and must agree with dim_chain and
dim_chain_adjoint built from these.

conv2d_same correlates with any square kernel of odd side: it splits the
kernel by SVD into one separable term per singular value above numpy's
matrix_rank tolerance and sums the terms in order. advm.transforms keeps
only the leading term, since its Gaussian is rank 1, and must give the
same bytes as this general route.
"""

import numpy as np

from advm.transforms import _band, _bilinear_weights, _separable_gemm


def resize_bilinear(img, new_h, new_w):
    h, w, _ = img.shape
    wh = _bilinear_weights(new_h, h)
    ww = _bilinear_weights(new_w, w)
    tmp = np.tensordot(wh, img, axes=(1, 0))           # (new_h, w, c)
    out = np.tensordot(tmp, ww, axes=(1, 1))           # (new_h, c, new_w)
    return np.ascontiguousarray(out.transpose(0, 2, 1))


def resize_bilinear_adjoint(grad, old_h, old_w):
    new_h, new_w, _ = grad.shape
    wh = _bilinear_weights(new_h, old_h)
    ww = _bilinear_weights(new_w, old_w)
    tmp = np.tensordot(wh.T, grad, axes=(1, 0))        # (old_h, new_w, c)
    out = np.tensordot(tmp, ww.T, axes=(1, 1))         # (old_h, c, old_w)
    return np.ascontiguousarray(out.transpose(0, 2, 1))


def pad_zero(img, top, left, out_h, out_w):
    """Place img on a zero canvas of (out_h, out_w) at offset (top, left)."""
    h, w, c = img.shape
    out = np.zeros((out_h, out_w, c))
    out[top:top + h, left:left + w, :] = img
    return out


def pad_zero_adjoint(grad, top, left, in_h, in_w):
    """Crop the gradient back to the pre-padding window."""
    return grad[top:top + in_h, left:left + in_w, :].copy()


def dim_chain(x, geometry):
    """resize(r) -> pad at (top, left) -> resize back to x's shape."""
    r, top, left, pad = geometry
    h, w, _ = x.shape
    z = resize_bilinear(x, r, r)
    z = pad_zero(z, top, left, pad, pad)
    return resize_bilinear(z, h, w)


def dim_chain_adjoint(g, geometry):
    """The adjoint of dim_chain, operator by operator in reverse."""
    r, top, left, pad = geometry
    h, w, _ = g.shape
    g = resize_bilinear_adjoint(g, pad, pad)
    g = pad_zero_adjoint(g, top, left, r, r)
    return resize_bilinear_adjoint(g, h, w)


def separable_terms(weights, h, w):
    """The kernel as a sum of terms s u v^T, one per singular value above
    s[0] * k * eps, each as the (rows, cols) pair (band(s u), band(v)^T)."""
    u, s, vt = np.linalg.svd(weights)
    keep = s > s[0] * weights.shape[0] * np.finfo(np.float64).eps
    return [(_band(sk * uk, h), _band(vk, w).T)
            for uk, sk, vk in zip(u.T[keep], s[keep], vt[keep])]


def conv2d_same(img, weights):
    """Channelwise 2-D correlation with zero padding; output shape == input
    shape. The separable terms are applied and summed in order."""
    h, w, c = img.shape
    flat = img.reshape(h, w * c)
    out = None
    for rows, cols in separable_terms(weights, h, w):
        term = _separable_gemm(rows, flat, cols, c)
        out = term if out is None else out + term
    return np.zeros((h, w, c)) if out is None else out


def correlate_nested_loops(img, weights):
    """Same-size correlation with zero padding, pixel by pixel and tap by
    tap, written without the package's matrices."""
    h, w, c = img.shape
    r = weights.shape[0] // 2
    out = np.zeros_like(img)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for di in range(-r, r + 1):
                    for dj in range(-r, r + 1):
                        if 0 <= i + di < h and 0 <= j + dj < w:
                            acc += img[i + di, j + dj, ch] * weights[di + r, dj + r]
                out[i, j, ch] = acc
    return out
