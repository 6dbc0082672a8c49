"""Deterministic random-number utilities.

All stochastic components (SGD noise, network jitter, surrogate loss curves)
draw from generators created here, so that every experiment is reproducible
from a single integer seed. Child streams are derived with
:func:`numpy.random.SeedSequence.spawn`, which guarantees independence.
"""

from __future__ import annotations

import functools
import itertools
import operator
import zlib
from typing import Iterator

import numpy as np


def stream_for(seed: int, *labels: object) -> np.random.Generator:
    """A named independent stream: same (seed, labels) -> same stream.

    Hashing the labels into the seed entropy gives stable per-component
    streams without threading generator objects through every call site.
    CRC32 is used (not ``hash``) so streams are identical across processes
    — Python randomizes string hashes per interpreter.
    """
    entropy = [seed] + [_label_crc(lbl) for lbl in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def keyed_uniforms(seed: int, prefix: tuple, values, suffix: tuple = ()) -> np.ndarray:
    """``stream_for(seed, *prefix, v, *suffix).random()`` for every ``v``.

    One array pass instead of one generator per value, bit for bit equal
    (see :func:`seed_rows`). ``values`` are non-negative ints.
    ``stream_for`` stays the reference: ``tests/common/test_keyed_uniforms.py``
    holds the two equal.
    """
    values = np.asarray(values).reshape(-1)
    _check_int_labels(values, "keyed_uniforms values")
    crcs = _int_crcs(values.astype(np.int64, copy=False))
    return first_uniforms(_replay(seed, [(prefix, _tail(crcs, suffix))]))


def seeded_pcg64_states(
    seed: int, prefix: tuple, labels, suffix: tuple = ()
) -> tuple[list[int], list[int]]:
    """The freshly seeded PCG64 ``(state, inc)`` of
    ``stream_for(seed, *prefix, label, *suffix)`` for every ``label``.

    The same replay as :func:`keyed_uniforms`, for labels of any kind (a
    tuple label's word is the CRC of its ``str``).
    """
    crcs = np.array([_label_crc(lbl) for lbl in labels], dtype=np.uint32)
    return pcg64_states(_replay(seed, [(prefix, _tail(crcs, suffix))]))


def seed_rows(seed: int, blocks) -> np.ndarray:
    """The seeding of ``stream_for(seed, *head, *row)`` for every row of
    every ``(head, rows)`` block, blocks stacked in order.

    ``rows`` is an ``(m, k)`` array of non-negative int labels; blocks may
    differ in head and in ``k``, so rows of different entropy lengths
    share one array pass. It replays numpy's ``SeedSequence`` entropy
    mixing and ``generate_state(4, uint64)`` row by row and returns, per
    row, the eight 32-bit limbs PCG64 seeds from. :func:`first_uniforms`
    and :func:`pcg64_states` read the streams off them.
    """
    words: dict[int, np.ndarray] = {}  # blocks may share one rows array
    tails = []
    for head, rows in blocks:
        if id(rows) not in words:
            labels = np.asarray(rows)
            _check_int_labels(labels, "seed_rows labels")
            words[id(rows)] = _int_crcs(labels.astype(np.int64, copy=False))
        tails.append((head, words[id(rows)]))
    return _replay(seed, tails)


def first_uniforms(seeded: np.ndarray) -> np.ndarray:
    """Each seeded stream's first ``Generator.random()`` double."""
    lo, hi = _pcg64_state(seeded, _FIRST_DRAW)
    # PCG64's XSL-RR output of that state, as Generator.random()'s double.
    rot = hi >> 58
    x = hi ^ lo
    x = (x >> rot) | (x << ((64 - rot) & 63))
    return (x >> 11) * (1.0 / 9007199254740992.0)


def pcg64_states(seeded: np.ndarray) -> tuple[list[int], list[int]]:
    """Each seeded stream's PCG64 ``(state, inc)``. Loading a row into a
    PCG64's ``state`` gives that stream's generator without a
    ``SeedSequence`` per row."""
    lo, hi = _pcg64_state(seeded, _SEEDED)
    # inc = 2*initseq + 1, initseq's limbs being words 4..7.
    seq = seeded[:, 4:].astype(np.uint64)
    seq_lo, seq_hi = seq[:, 0] | seq[:, 1] << 32, seq[:, 2] | seq[:, 3] << 32
    return _u128(hi, lo), _u128(seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)


def _u128(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    return [h << 64 | low for h, low in zip(hi.tolist(), lo.tolist())]


def _check_int_labels(values: np.ndarray, what: str) -> None:
    if values.size and (values.dtype.kind not in "iu" or values.min() < 0):
        raise ValueError(f"{what} must be non-negative ints")


def _tail(crcs: np.ndarray, suffix: tuple) -> np.ndarray:
    """One varying word column followed by the suffix labels' words."""
    tail = np.empty((crcs.size, 1 + len(suffix)), dtype=np.uint32)
    tail[:, 0] = crcs
    tail[:, 1:] = [_label_crc(lbl) for lbl in suffix]
    return tail


def _replay(seed: int, blocks: list) -> np.ndarray:
    """``generate_state``'s limbs for the entropy ``[seed, *head, *row]``
    of every row of every ``(head, CRC words (m, k))`` block.

    The rows are laid out longest entropy first, so the rows that absorb
    word ``w`` are always a leading slice of the pool. When every head
    reaches four words, the pool up to the shortest head does not depend
    on the row: it is mixed once per head and cached.
    """
    seed_words = _seed_words(seed)
    heads = [tuple(seed_words + [_label_crc(lbl) for lbl in head]) for head, _ in blocks]
    lengths = [len(h) + tail.shape[1] for h, (_, tail) in zip(heads, blocks)]
    order = sorted(range(len(blocks)), key=lengths.__getitem__, reverse=True)
    sizes = [blocks[b][1].shape[0] for b in order]
    start = min(map(len, heads), default=0)
    if start < 4:
        start = 0  # the rows' own words reach the first four: mix them all
    width = max(lengths + [4])
    # Columns start.. of each row's entropy; entropy shorter than four
    # words mixes as if zero-padded to four.
    words = np.zeros((sum(sizes), width - start), dtype=np.uint32)
    row = 0
    for b, m in zip(order, sizes):
        head = heads[b][start:]
        if head:
            words[row:row + m, :len(head)] = head
        words[row:row + m, len(head):lengths[b] - start] = blocks[b][1]
        row += m
    if start:
        pools = [_head_pool(heads[b][:start]) for b in order]
        pool = np.repeat(pools[0] if len(pools) == 1 else np.concatenate(pools),
                         sizes, axis=0)
    else:
        start, pool, words = 4, _first_mix(words[:, :4]), words[:, 4:]
    if words.shape[1]:
        # Each word's side of the mix does not depend on the pool: hash
        # every absorbed word at once, then fold them in word by word.
        ys = _hashmix(words.T[:, :, None], 4 * start, 4 * words.shape[1])
        ys *= _MIX_R
        # The rows whose entropy reaches word start + j lead the layout.
        ends = dict(zip((lengths[b] for b in order), itertools.accumulate(sizes)))
        for j in range(words.shape[1]):
            n = max(end for length, end in ends.items() if length > start + j)
            live = pool[:n]
            live *= _MIX_L
            live -= ys[j, :n]
            live ^= live >> 16
    seeded = _state_words(pool)
    if order == sorted(order):
        return seeded
    at = dict(zip(order, itertools.accumulate(sizes, initial=0)))
    return np.concatenate(
        [seeded[at[b]:at[b] + tail.shape[0]] for b, (_, tail) in enumerate(blocks)]
    )


# numpy's SeedSequence constants (bit_generator.pyx). Each hashmix call
# multiplies the running constant by MULT_A, so hashmix call t uses the
# data-free pair (a_t, a_{t+1}); generate_state's word i likewise uses
# (b_i, b_{i+1}) with MULT_B. mix_entropy makes 4 + 12 calls for the
# first four words and 4 per later word, so word w >= 4 starts at call 4w.
_MASK32 = 0xFFFFFFFF
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


_HASH_A = _powers(0x43B0D7E5, 0x931E8875, 64)
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 8)
_OTHERS = tuple([d for d in range(4) if d != s] for s in range(4))


def _seed_words(seed: int) -> list[int]:
    """numpy's ``_int_to_uint32_array``: little-endian 32-bit words."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    return words


def _label_crc(label: object) -> int:
    if type(label) is str:
        return _str_crc(label)
    return zlib.crc32(str(label).encode("utf-8")) & 0xFFFFFFFF


@functools.lru_cache(maxsize=256)
def _str_crc(label: str) -> int:
    return zlib.crc32(label.encode("utf-8")) & 0xFFFFFFFF


_CRC_TABLE = np.zeros(0, dtype=np.uint32)  # crc32(str(i)), grown on demand
_CRC_TABLE_MAX = 1 << 20


def _int_crcs(values: np.ndarray) -> np.ndarray:
    global _CRC_TABLE
    top = int(values.max()) + 1 if values.size else 0
    if top > _CRC_TABLE_MAX:
        crcs = [_label_crc(v) for v in values.reshape(-1).tolist()]
        return np.array(crcs, dtype=np.uint32).reshape(values.shape)
    if top > _CRC_TABLE.size:
        size = 1 << (top - 1).bit_length()
        grown = [_label_crc(i) for i in range(_CRC_TABLE.size, size)]
        _CRC_TABLE = np.concatenate([_CRC_TABLE, np.array(grown, dtype=np.uint32)])
    return _CRC_TABLE[values]


def _hashmix(word, t: int, k: int) -> np.ndarray:
    """Hashmix calls t..t+k-1, each applied to ``word`` (an (n, 1) column
    or a scalar), as k columns. A (W, n, 1) block of W word columns takes
    four consecutive calls per word, as (W, n, 4)."""
    global _HASH_A
    if t + k >= _HASH_A.size:
        _HASH_A = _powers(0x43B0D7E5, 0x931E8875, 2 * (t + k))
    a, b = _HASH_A[t:t + k], _HASH_A[t + 1:t + k + 1]
    if np.ndim(word) == 3:
        a, b = a.reshape(-1, 1, 4), b.reshape(-1, 1, 4)
    h = word ^ a
    h *= b
    h ^= h >> 16
    return h


def _first_mix(first: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy``'s pool after the first four words, for
    each row of ``first`` (n, 4)."""
    pool = _hashmix(first, 0, 4)
    for src, dst in enumerate(_OTHERS):
        y = _MIX_R * _hashmix(pool[:, src:src + 1], 4 + 3 * src, 3)
        mixed = _MIX_L * pool[:, dst] - y
        pool[:, dst] = mixed ^ (mixed >> 16)
    return pool


@functools.lru_cache(maxsize=64)
def _head_pool(head: tuple[int, ...]) -> np.ndarray:
    """The pool after a head of four or more words, shared by every row
    that starts with it."""
    pool = _first_mix(np.array([head[:4]], dtype=np.uint32))
    for w, word in enumerate(head[4:], start=4):
        pool = _MIX_L * pool - _MIX_R * _hashmix(np.uint32(word), 4 * w, 4)
        pool ^= pool >> 16
    return _frozen(pool)


def _frozen(a: np.ndarray) -> np.ndarray:
    """Cached arrays are shared by every caller: make them read-only."""
    a.flags.writeable = False
    return a


def _limbs(x: int, bits: int, n: int) -> list[int]:
    return [(x >> (bits * i)) & ((1 << bits) - 1) for i in range(n)]


def _pcg64_consts(draws: int) -> tuple[np.ndarray, np.ndarray]:
    """PCG64 seeding plus ``draws`` steps, as one linear map.

    From state 0, seeding steps to ``inc = 2*initseq + 1``, adds
    ``initstate`` and steps again; each draw steps once more. So the state
    is ``initstate*A + initseq*2K + K`` mod 2^128 with ``A = M^(draws+1)``
    and ``K = M^0 + ... + M^(draws+1)``. On the 16-bit limbs of
    (initstate, initseq) that is a matrix whose product gives the state's
    four 32-bit columns with their carries unresolved, each below 2^54.
    """
    mod = 1 << 128
    m = (2549297995355413924 << 64) + 4865540595714422341
    powers = [pow(m, i, mod) for i in range(draws + 2)]
    k = sum(powers) % mod
    a, b = _limbs(powers[-1], 16, 8), _limbs(2 * k % mod, 16, 8)
    matrix = np.zeros((16, 4), dtype=np.uint64)
    for out in range(8):
        scale = 1 << (16 * (out % 2))
        for limb in range(out + 1):
            matrix[limb, out // 2] += a[out - limb] * scale
            matrix[8 + limb, out // 2] += b[out - limb] * scale
    return matrix, np.array(_limbs(k, 32, 4), dtype=np.uint64)


#: The state a freshly seeded PCG64 holds, and the one its first draw outputs.
_SEEDED, _FIRST_DRAW = _pcg64_consts(0), _pcg64_consts(1)
# generate_state's words w0..w7 form the uint64s (s0, s1, i0, i1), and
# PCG64 seeds from initstate = s0<<64 | s1 and initseq = i0<<64 | i1:
# low-to-high 32-bit limbs w2 w3 w0 w1 and w6 w7 w4 w5.
_LIMB_WORDS = np.array([2, 3, 0, 1, 6, 7, 4, 5])
_GEN_SRC = _LIMB_WORDS % 4
_GEN_XOR = _HASH_B[_LIMB_WORDS]
_GEN_MUL = _HASH_B[_LIMB_WORDS + 1]


def _state_words(pool: np.ndarray) -> np.ndarray:
    """``generate_state(4, uint64)`` of each pool row, as the low-to-high
    32-bit limbs of (initstate, initseq)."""
    words = pool.take(_GEN_SRC, axis=1) ^ _GEN_XOR
    words *= _GEN_MUL
    words ^= words >> 16
    return words


def _pcg64_state(words: np.ndarray, consts) -> tuple[np.ndarray, np.ndarray]:
    """The (low, high) uint64 halves of the PCG64 state that ``consts``
    maps each row of ``_state_words`` to."""
    matrix, offset = consts
    limbs = words.astype("<u4", copy=False).view("<u2")
    q = limbs.astype(np.uint64) @ matrix + offset
    mid = q[:, 1] << 32
    lo = q[:, 0] + mid
    hi = q[:, 2] + (q[:, 3] << 32) + (q[:, 1] >> 32) + (lo < mid)
    return lo, hi


def iter_seeds(base_seed: int, n: int) -> Iterator[int]:
    """Yield ``n`` distinct derived seeds for repeated runs of an experiment."""
    ss = np.random.SeedSequence(base_seed)
    for child in ss.spawn(n):
        yield int(child.generate_state(1, dtype=np.uint64)[0] % (2**31 - 1))
