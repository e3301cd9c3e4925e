"""Adam (Kingma & Ba 2015) in place on parameter buffers, bit-identical to
the textbook formula, for parameters of which a batch reads only some rows.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per pass of the update: the chunks of its arrays fit in a core's
# L2 cache.
ADAM_CHUNK = 32768


def first_read_order(batches: Iterable[np.ndarray], n_rows: int,
                     n_fixed: int) -> np.ndarray:
    """The rows [0, n_rows) in the order that `batches`, arrays of row
    indices, first read them: rows [0, n_fixed) first and in place, the rows
    no batch reads last."""
    seen = np.zeros(n_rows, dtype=bool)
    seen[:n_fixed] = True
    rows = [np.arange(n_fixed)]
    for batch in batches:
        read = np.zeros(n_rows, dtype=bool)
        read[batch] = True
        rows.append(np.flatnonzero(read > seen))
        seen |= read
    return np.concatenate([*rows, np.flatnonzero(~seen)])


def adam_step(param, grad, moment1, moment2, lr, step, rows=None):
    """One Adam update (Kingma & Ba 2015) of the (N, W) `param`, in place.

    The operations and their order are those of
        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p -= (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps)
    so the result is bit-identical to evaluating that formula with fresh
    arrays. Whole rows are updated, about `ADAM_CHUNK` elements at a time,
    so that the chunks stay in cache. The scratch is allocated per call, in
    memory the batch's forward and backward passes have freed.

    With `rows`, `grad` holds the gradient of the rows `rows` (ascending),
    and every other row's gradient is zero. For such a row g = +0.0, so
    b1*m + (1-b1)*g is b1*m, and likewise for v, because m and v are never
    -0.0: they start at +0.0, b1 and b2 times the smallest subnormal round
    back to it, and x + (-x) is +0.0. So only `rows` get the gradient terms.
    """
    chunk = max(1, ADAM_CHUNK // param.shape[1])
    scratch = np.empty((2, min(chunk, len(param)), param.shape[1]))
    begin = 0
    for start in range(0, len(param), chunk):
        part = slice(start, start + chunk)
        p, m, v = param[part], moment1[part], moment2[part]
        s1, s2 = scratch[:, :len(p)]
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(v, ADAM_BETA2, out=v)
        if rows is None:
            g, hit = grad[part], slice(None)
        else:
            end = begin + int((rows[begin:] < start + chunk).sum())
            g, hit = grad[begin:end], rows[begin:end] - start
            begin = end
        m_hit, v_hit, s = m[hit], v[hit], s1[:len(g)]
        np.multiply(g, 1 - ADAM_BETA1, out=s)
        np.add(m_hit, s, out=m_hit)
        np.multiply(g, 1 - ADAM_BETA2, out=s)
        np.multiply(s, g, out=s)
        np.add(v_hit, s, out=v_hit)
        m[hit], v[hit] = m_hit, v_hit  # for a slice, the views are already updated
        np.divide(m, 1 - ADAM_BETA1 ** step, out=s1)
        np.multiply(s1, lr, out=s1)
        np.divide(v, 1 - ADAM_BETA2 ** step, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, ADAM_EPS, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(p, s1, out=p)
