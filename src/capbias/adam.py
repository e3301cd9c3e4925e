"""Adam (Kingma & Ba 2015) in place on parameter buffers, bit-identical to
the textbook formula, for parameters of which a batch reads only some rows.
"""

from __future__ import annotations

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per pass of the update: the chunks of its arrays fit in a core's
# L2 cache.
ADAM_CHUNK = 32768


def first_read_order(tokens: np.ndarray, batches: np.ndarray, n_rows: int,
                     n_fixed: int) -> np.ndarray:
    """The rows [0, n_rows) in the order that a pass first reads them, where
    its i-th read is of row `tokens[i]` in batch `batches[i]`: rows
    [0, n_fixed) first and in place, then the rows each batch reads first,
    ascending, batch by batch, and the rows no batch reads last."""
    first = np.full(n_rows, np.iinfo(batches.dtype).max, dtype=batches.dtype)
    first[:n_fixed] = -1
    np.minimum.at(first, tokens, batches)
    return np.argsort(first, kind="stable")


def scratch_size(n_rows: int, width: int) -> int:
    """The float64 elements of scratch that `adam_step` needs for parameters
    of up to `n_rows` rows of `width`."""
    return 2 * min(max(1, ADAM_CHUNK // width), n_rows) * width


def adam_step(param, grad, moment1, moment2, lr, step, rows, scratch):
    """One Adam update (Kingma & Ba 2015) of the (N, W) `param`, in place.

    The operations and their order are those of
        m = b1*m + (1-b1)*g
        v = b2*v + ((1-b2)*g)*g
        p -= (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps)
    so the result is bit-identical to evaluating that formula with fresh
    arrays. Whole rows are updated, about `ADAM_CHUNK` elements at a time,
    so that the chunks stay in cache. Their temporaries are written into the
    flat float64 `scratch` of at least `scratch_size` elements, which a
    trainer makes once and passes to every step; between steps it may serve
    other temporaries.

    `grad` holds the gradient of the rows `rows` (ascending), and every
    other row's gradient is zero. For such a row g = ±0.0, so b1*m + (1-b1)*g
    is b1*m, and likewise for v, because m and v are never -0.0: they start
    at +0.0, b1 and b2 times the smallest subnormal round back to it, and
    x + (-x) is +0.0. So only `rows` get the gradient terms.
    """
    chunk = max(1, ADAM_CHUNK // param.shape[1])
    begin = 0
    for start in range(0, len(param), chunk):
        part = slice(start, start + chunk)
        p, m, v = param[part], moment1[part], moment2[part]
        s1, s2 = scratch[:2 * p.size].reshape(2, *p.shape)
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(v, ADAM_BETA2, out=v)
        end = int(np.searchsorted(rows, start + chunk))
        g, hit = grad[begin:end], rows[begin:end] - start
        begin = end
        # The given rows of m, then of v, gathered into s2 and scattered back.
        s, moment_hit = s1[:len(g)], s2[:len(g)]
        np.take(m, hit, axis=0, out=moment_hit, mode="clip")
        np.multiply(g, 1 - ADAM_BETA1, out=s)
        np.add(moment_hit, s, out=moment_hit)
        m[hit] = moment_hit
        np.take(v, hit, axis=0, out=moment_hit, mode="clip")
        np.multiply(g, 1 - ADAM_BETA2, out=s)
        np.multiply(s, g, out=s)
        np.add(moment_hit, s, out=moment_hit)
        v[hit] = moment_hit
        np.divide(m, 1 - ADAM_BETA1 ** step, out=s1)
        np.multiply(s1, lr, out=s1)
        np.divide(v, 1 - ADAM_BETA2 ** step, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, ADAM_EPS, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(p, s1, out=p)
