import hashlib

import numpy as np

from rfpp import rng


def test_determinism_across_calls():
    a = rng.normal(7, np.arange(1000))
    b = rng.normal(7, np.arange(1000))
    assert np.array_equal(a, b)


def test_different_seeds_decorrelated():
    n = 10 ** 4
    a = rng.normal(1, np.arange(n))
    b = rng.normal(2, np.arange(n))
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 3.0 / np.sqrt(n)


def test_standard_gaussian_moments():
    n = 10 ** 6
    z = rng.normal(123, np.arange(n))
    assert abs(z.mean()) <= 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) <= 0.01


def test_uniform_open_interval():
    u = rng.uniform(5, np.arange(10 ** 5))
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_negative_words_ok():
    a = rng.normal(3, np.array([-5, -1, 0, 1, 5]), 2)
    assert np.all(np.isfinite(a))
    # distinct keys give distinct draws
    assert len(np.unique(a)) == 5


def test_derive_seed_stable_and_distinct():
    s1 = rng.derive_seed(42, 0)
    s2 = rng.derive_seed(42, 1)
    assert s1 == rng.derive_seed(42, 0)
    assert s1 != s2


# sha256 of hash_words, uniform and normal over the keys below, computed when
# normal still drew uniform(seed, *words, 0) and uniform(seed, *words, 1)
# (numpy 2.4.6, x86-64); the spec fixes every bit
RNG_GOLDEN = "5a22ab5ef7b065e048947ce754544954bb1e6de361fc1ca04d4433260cf25dde"


def test_golden_digest():
    keys = [(7,), (7, 3), (2 ** 40 + 5, -1, 12), (-9, 0),
            (11, np.arange(50)),
            (3, np.arange(-20, 20), -7),
            (5, np.arange(6)[:, None], np.arange(-4, 5)[None, :])]
    h = hashlib.sha256()
    for key in keys:
        for draw in (rng.hash_words, rng.uniform, rng.normal):
            h.update(np.ascontiguousarray(draw(*key)).tobytes())
    assert h.hexdigest() == RNG_GOLDEN


def test_draws_leave_the_callers_arrays_unchanged():
    # the generator mixes in place, but only arrays it allocated itself;
    # int64 words are reinterpreted as uint64 through a view
    seed = np.arange(6, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    signed = np.arange(-9, 9, dtype=np.int64).reshape(3, 6)
    strided = np.arange(-18, 18, dtype=np.int64).reshape(3, 12)[:, ::2]
    words = (np.arange(6, dtype=np.uint64), np.full((3, 1), 2 ** 63, dtype=np.uint64),
             np.uint64(5), signed, strided, np.arange(-3, 3, dtype=np.int32))
    kept = [seed.copy()] + [np.copy(w) for w in words]
    for draw in (rng.hash_words, rng.uniform, rng.normal):
        draw(seed, *words)
        draw(seed)
        draw(7, *words)
        draw(signed[0], strided)
        for before, after in zip(kept, (seed,) + words):
            assert after.dtype == before.dtype
            assert np.array_equal(before, after)


def test_words_of_any_layout_and_width_draw_the_same():
    signed = np.arange(-9, 9, dtype=np.int64).reshape(3, 6)
    for words in ((signed[:, ::2],), (signed.T,), (signed.astype(np.int32),),
                  (signed[0].astype(np.int16), signed[:, :1])):
        for draw in (rng.hash_words, rng.uniform, rng.normal):
            plain = [np.ascontiguousarray(w, dtype=np.int64) for w in words]
            assert np.array_equal(draw(3, *words), draw(3, *plain))
            assert np.array_equal(draw(3, *plain), draw(3, *[w.tolist() for w in plain]))
