"""The diversity chain written out operator by operator, as a second route.

resize_bilinear and its adjoint contract the package's interpolation
matrices with np.tensordot; pad_zero and its adjoint are a slice
assignment and a crop. advm.transforms applies the whole chain as one
fused matrix per axis, and must agree with dim_chain and
dim_chain_adjoint built from these.
"""

import numpy as np

from advm.tensor import _bilinear_weights


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
