"""Bundled synthetic image datasets so everything runs offline.

Each class gets a fixed smooth random template; samples are randomly
shifted, amplitude-jittered, noisy crops.  Deterministic for a given seed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lognum import DomainError

# noise values drawn, and float64 image values held, per block of samples
DRAW_BLOCK = 1 << 18


def _smooth(img: np.ndarray, passes: int = 2) -> np.ndarray:
    for _ in range(passes):
        acc = img.copy()
        for axis in (0, 1):
            acc += np.roll(img, 1, axis=axis) + np.roll(img, -1, axis=axis)
        img = acc / 5.0
    return img


@lru_cache(maxsize=16)
def _class_templates(classes: int, size: int, shift: int, template_seed) -> np.ndarray:
    """The (classes, size + 2 shift, size + 2 shift) smooth class patterns,
    each scaled to [0, 1]; read-only, since calls share them."""
    trng = np.random.default_rng(template_seed)
    big = size + 2 * shift
    templates = _smooth(trng.uniform(0.0, 1.0, size=(classes, big, big)))
    templates -= templates.min(axis=(1, 2), keepdims=True)
    templates /= templates.max(axis=(1, 2), keepdims=True)
    templates.setflags(write=False)
    return templates


def make_pattern_dataset(n: int, classes: int = 10, size: int = 12, seed: int = 0,
                         shift: int = 2, noise: float = 0.1,
                         template_seed: int | None = None,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Class-templated images: (n, 1, size, size) float32 in [0, ~1.3], labels.

    ``template_seed`` pins the class patterns independently of the sample
    draws, so train/test splits of one task share templates but not noise.
    Needs n >= 0, classes >= 1, size >= 1 and noise >= 0.  The noise
    fields are drawn a block of samples (``DRAW_BLOCK`` values) per
    ``normal`` call, which reads the generator's stream as one call per
    sample would.  The templates of an integer template seed are drawn once
    per process and reused.
    """
    for name, value, low in (("n", n, 0), ("classes", classes, 1), ("size", size, 1),
                             ("noise", noise, 0)):
        if not value >= low:
            raise DomainError(f"{name} must be >= {low}, got {value!r}")
    rng = np.random.default_rng(seed)
    tseed = seed if template_seed is None else template_seed
    draw = _class_templates
    if not isinstance(tseed, (int, np.integer)):  # None, a generator, ...: draw afresh
        draw = _class_templates.__wrapped__
    templates = draw(classes, size, shift, tseed)

    labels = rng.integers(0, classes, size=n)
    dx = rng.integers(0, 2 * shift + 1, size=n)
    dy = rng.integers(0, 2 * shift + 1, size=n)
    amp = rng.uniform(0.8, 1.2, size=n)
    # crops[c, y, x] is class c's size x size crop at offset (y, x)
    crops = np.lib.stride_tricks.sliding_window_view(templates, (size, size), axis=(1, 2))
    images = np.empty((n, 1, size, size), dtype=np.float32)
    block = max(1, DRAW_BLOCK // (size * size))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        img = crops[labels[lo:hi], dy[lo:hi], dx[lo:hi]]
        img *= amp[lo:hi, None, None]
        img += rng.normal(0.0, noise, size=(hi - lo, size, size))
        np.maximum(img, 0.0, out=images[lo:hi, 0])
    return images, labels.astype(np.int64)
