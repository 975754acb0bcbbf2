#include "util/simd.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define DNASTORE_SIMD_X86 1
#include <immintrin.h>
#endif

namespace dnastore {
namespace simd {

namespace {

/** Portable popcount (no POPCNT instruction assumed). */
inline uint32_t
popcount64(uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return uint32_t((x * 0x0101010101010101ULL) >> 56);
}

// ------------------------------------------------------------- scalar tier

void
histogram4Scalar(const uint8_t *vals, size_t n, uint32_t counts[4])
{
    uint32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    for (size_t i = 0; i < n; ++i) {
        uint8_t v = vals[i];
        c0 += (v == 0);
        c1 += (v == 1);
        c2 += (v == 2);
        c3 += (v == 3);
    }
    counts[0] += c0;
    counts[1] += c1;
    counts[2] += c2;
    counts[3] += c3;
}

size_t
diffCountPackedScalar(const uint64_t *a, const uint64_t *b, size_t words)
{
    size_t total = 0;
    for (size_t w = 0; w < words; ++w) {
        uint64_t x = a[w] ^ b[w];
        // Fold each 2-bit field to its low bit, then count fields.
        total += popcount64((x | (x >> 1)) & 0x5555555555555555ULL);
    }
    return total;
}

/**
 * One-lane Myers global edit distance over a prebuilt peq table.
 * The recurrence (Hyyrö's block formulation) matches editDistanceRange
 * in dna/strand.cc step for step; every tier of myersBatch reduces to
 * this computation, which is what makes the tiers bit-identical.
 */
uint32_t
myersSingle(const uint64_t *peq, size_t m, size_t blocks,
            const uint8_t *text, size_t n)
{
    static thread_local std::vector<uint64_t> vp, vn;
    vp.assign(blocks, ~uint64_t(0));
    vn.assign(blocks, 0);

    size_t score = m;
    const unsigned last_shift = unsigned((m - 1) & 63);
    for (size_t j = 0; j < n; ++j) {
        const uint64_t *eq_row = peq + size_t(text[j]) * blocks;
        int hin = 1;
        for (size_t blk = 0; blk < blocks; ++blk) {
            uint64_t eq = eq_row[blk];
            const uint64_t pv = vp[blk], mv = vn[blk];
            const uint64_t xv = eq | mv;
            if (hin < 0)
                eq |= 1;
            const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
            uint64_t ph = mv | ~(xh | pv);
            uint64_t mh = pv & xh;
            if (blk == blocks - 1) {
                score += (ph >> last_shift) & 1;
                score -= (mh >> last_shift) & 1;
            }
            const int hout = (ph >> 63) ? 1 : ((mh >> 63) ? -1 : 0);
            ph <<= 1;
            mh <<= 1;
            if (hin < 0)
                mh |= 1;
            else if (hin > 0)
                ph |= 1;
            vp[blk] = mh | ~(xv | ph);
            vn[blk] = ph & xv;
            hin = hout;
        }
    }
    return uint32_t(score);
}

void
myersBatchScalar(const uint64_t *peq, size_t m, size_t blocks,
                 const uint8_t *const *texts, const size_t *lens,
                 size_t k, uint32_t *dists)
{
    for (size_t l = 0; l < k; ++l) {
        dists[l] = lens[l] == 0
            ? uint32_t(m)
            : myersSingle(peq, m, blocks, texts[l], lens[l]);
    }
}

#ifdef DNASTORE_SIMD_X86

// ------------------------------------------------------------ SSE4.2 tier

__attribute__((target("sse4.2,popcnt"))) void
histogram4Sse(const uint8_t *vals, size_t n, uint32_t counts[4])
{
    uint32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    size_t i = 0;
    const __m128i k0 = _mm_setzero_si128();
    const __m128i k1 = _mm_set1_epi8(1);
    const __m128i k2 = _mm_set1_epi8(2);
    const __m128i k3 = _mm_set1_epi8(3);
    for (; i + 16 <= n; i += 16) {
        __m128i v =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(vals + i));
        c0 += uint32_t(
            _mm_popcnt_u32(uint32_t(_mm_movemask_epi8(_mm_cmpeq_epi8(v, k0)))));
        c1 += uint32_t(
            _mm_popcnt_u32(uint32_t(_mm_movemask_epi8(_mm_cmpeq_epi8(v, k1)))));
        c2 += uint32_t(
            _mm_popcnt_u32(uint32_t(_mm_movemask_epi8(_mm_cmpeq_epi8(v, k2)))));
        c3 += uint32_t(
            _mm_popcnt_u32(uint32_t(_mm_movemask_epi8(_mm_cmpeq_epi8(v, k3)))));
    }
    counts[0] += c0;
    counts[1] += c1;
    counts[2] += c2;
    counts[3] += c3;
    if (i < n)
        histogram4Scalar(vals + i, n - i, counts);
}

__attribute__((target("sse4.2,popcnt"))) size_t
diffCountPackedSse(const uint64_t *a, const uint64_t *b, size_t words)
{
    uint64_t total = 0;
    for (size_t w = 0; w < words; ++w) {
        uint64_t x = a[w] ^ b[w];
        total += uint64_t(
            _mm_popcnt_u64((x | (x >> 1)) & 0x5555555555555555ULL));
    }
    return size_t(total);
}

// -------------------------------------------------------------- AVX2 tier

__attribute__((target("avx2,popcnt"))) void
histogram4Avx2(const uint8_t *vals, size_t n, uint32_t counts[4])
{
    uint32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
    size_t i = 0;
    const __m256i k0 = _mm256_setzero_si256();
    const __m256i k1 = _mm256_set1_epi8(1);
    const __m256i k2 = _mm256_set1_epi8(2);
    const __m256i k3 = _mm256_set1_epi8(3);
    for (; i + 32 <= n; i += 32) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(vals + i));
        c0 += uint32_t(_mm_popcnt_u32(
            uint32_t(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, k0)))));
        c1 += uint32_t(_mm_popcnt_u32(
            uint32_t(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, k1)))));
        c2 += uint32_t(_mm_popcnt_u32(
            uint32_t(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, k2)))));
        c3 += uint32_t(_mm_popcnt_u32(
            uint32_t(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, k3)))));
    }
    counts[0] += c0;
    counts[1] += c1;
    counts[2] += c2;
    counts[3] += c3;
    if (i < n)
        histogram4Scalar(vals + i, n - i, counts);
}

__attribute__((target("avx2,popcnt"))) size_t
diffCountPackedAvx2(const uint64_t *a, const uint64_t *b, size_t words)
{
    // Mula's nibble-LUT popcount, accumulated through psadbw.
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i nib = _mm256_set1_epi8(0x0f);
    const __m256i pair = _mm256_set1_epi64x(0x5555555555555555LL);
    __m256i acc = _mm256_setzero_si256();
    size_t w = 0;
    for (; w + 4 <= words; w += 4) {
        __m256i xa =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + w));
        __m256i xb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + w));
        __m256i x = _mm256_xor_si256(xa, xb);
        x = _mm256_and_si256(
            _mm256_or_si256(x, _mm256_srli_epi64(x, 1)), pair);
        __m256i lo = _mm256_and_si256(x, nib);
        __m256i hi = _mm256_and_si256(_mm256_srli_epi64(x, 4), nib);
        __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(cnt, _mm256_setzero_si256()));
    }
    uint64_t lanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(lanes), acc);
    size_t total = size_t(lanes[0] + lanes[1] + lanes[2] + lanes[3]);
    if (w < words)
        total += diffCountPackedSse(a + w, b + w, words - w);
    return total;
}

__attribute__((target("avx2,popcnt"))) void
myersBatch4Avx2(const uint64_t *peq, size_t m, size_t blocks,
                const uint8_t *const *texts, const size_t *lens,
                size_t k, uint32_t *dists)
{
    // Lane l runs pattern-vs-texts[l]; retired lanes read an all-zero
    // match row so their state keeps stepping without branching.
    static thread_local std::vector<uint64_t> vp, vn, zero_row;
    vp.assign(4 * blocks, ~uint64_t(0));
    vn.assign(4 * blocks, 0);
    zero_row.assign(blocks, 0);

    const uint8_t *text[4];
    size_t len[4];
    size_t max_len = 0, open = 0;
    for (size_t l = 0; l < 4; ++l) {
        text[l] = l < k ? texts[l] : nullptr;
        len[l] = l < k ? lens[l] : 0;
        if (l < k && len[l] == 0)
            dists[l] = uint32_t(m);
        if (len[l] > 0)
            ++open;
        if (len[l] > max_len)
            max_len = len[l];
    }
    if (open == 0)
        return;

    const unsigned last_shift = unsigned((m - 1) & 63);
    const __m256i one = _mm256_set1_epi64x(1);
    __m256i score = _mm256_set1_epi64x(int64_t(m));
    for (size_t j = 0; j < max_len; ++j) {
        const uint64_t *row[4];
        for (size_t l = 0; l < 4; ++l) {
            row[l] = j < len[l] ? peq + size_t(text[l][j]) * blocks
                                : zero_row.data();
        }
        __m256i hp = one;                    // horizontal carry +1 in
        __m256i hn = _mm256_setzero_si256(); // horizontal carry -1 in
        for (size_t blk = 0; blk < blocks; ++blk) {
            const __m256i eq0 = _mm256_set_epi64x(
                int64_t(row[3][blk]), int64_t(row[2][blk]),
                int64_t(row[1][blk]), int64_t(row[0][blk]));
            __m256i pv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(vp.data() + 4 * blk));
            __m256i mv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(vn.data() + 4 * blk));
            const __m256i xv = _mm256_or_si256(eq0, mv);
            const __m256i eq = _mm256_or_si256(eq0, hn);
            const __m256i sum =
                _mm256_add_epi64(_mm256_and_si256(eq, pv), pv);
            const __m256i xh =
                _mm256_or_si256(_mm256_xor_si256(sum, pv), eq);
            __m256i ph = _mm256_or_si256(
                mv, _mm256_andnot_si256(_mm256_or_si256(xh, pv),
                                        _mm256_set1_epi64x(-1)));
            __m256i mh = _mm256_and_si256(pv, xh);
            if (blk == blocks - 1) {
                score = _mm256_add_epi64(
                    score,
                    _mm256_and_si256(_mm256_srli_epi64(ph, int(last_shift)),
                                     one));
                score = _mm256_sub_epi64(
                    score,
                    _mm256_and_si256(_mm256_srli_epi64(mh, int(last_shift)),
                                     one));
            }
            const __m256i hout_p = _mm256_srli_epi64(ph, 63);
            const __m256i hout_n = _mm256_srli_epi64(mh, 63);
            ph = _mm256_or_si256(_mm256_slli_epi64(ph, 1), hp);
            mh = _mm256_or_si256(_mm256_slli_epi64(mh, 1), hn);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(vp.data() + 4 * blk),
                _mm256_or_si256(
                    mh, _mm256_andnot_si256(_mm256_or_si256(xv, ph),
                                            _mm256_set1_epi64x(-1))));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(vn.data() + 4 * blk),
                _mm256_and_si256(ph, xv));
            hp = hout_p;
            hn = hout_n;
        }
        if (j + 1 == len[0] || j + 1 == len[1] || j + 1 == len[2] ||
            j + 1 == len[3]) {
            uint64_t s[4];
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(s), score);
            for (size_t l = 0; l < k; ++l) {
                if (j + 1 == len[l]) {
                    dists[l] = uint32_t(s[l]);
                    --open;
                }
            }
            if (open == 0)
                return;
        }
    }
}

#endif // DNASTORE_SIMD_X86

// --------------------------------------------------------------- dispatch

struct Dispatch
{
    Level level = Level::Scalar;
    void (*histogram4)(const uint8_t *, size_t, uint32_t[4]) =
        histogram4Scalar;
    size_t (*diffPacked)(const uint64_t *, const uint64_t *, size_t) =
        diffCountPackedScalar;
};

Level
detectBestLevel()
{
#ifdef DNASTORE_SIMD_X86
    const char *force = std::getenv("DNASTORE_FORCE_SCALAR");
    if (force != nullptr && force[0] != '\0')
        return Level::Scalar;
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
    if (__builtin_cpu_supports("sse4.2") &&
        __builtin_cpu_supports("popcnt"))
        return Level::Sse42;
#endif
    return Level::Scalar;
}

Dispatch
makeDispatch(Level level)
{
    Dispatch d;
    d.level = Level::Scalar;
#ifdef DNASTORE_SIMD_X86
    if (level >= Level::Sse42) {
        d.level = Level::Sse42;
        d.histogram4 = histogram4Sse;
        d.diffPacked = diffCountPackedSse;
    }
    if (level >= Level::Avx2) {
        d.level = Level::Avx2;
        d.histogram4 = histogram4Avx2;
        d.diffPacked = diffCountPackedAvx2;
    }
#else
    (void)level;
#endif
    return d;
}

/**
 * Immutable table for each tier, built once. setLevel swaps an atomic
 * pointer between them, so kernels racing with the test hook read one
 * coherent table instead of a half-rewritten one (either tier is
 * correct — all tiers are bit-identical).
 */
const Dispatch &
tierTable(Level level)
{
    static const Dispatch tables[3] = {
        makeDispatch(Level::Scalar),
        makeDispatch(Level::Sse42),
        makeDispatch(Level::Avx2),
    };
    return tables[static_cast<size_t>(level)];
}

std::atomic<const Dispatch *> &
dispatchPtr()
{
    static std::atomic<const Dispatch *> p{
        &tierTable(detectBestLevel())};
    return p;
}

const Dispatch &
dispatch()
{
    return *dispatchPtr().load(std::memory_order_acquire);
}

} // namespace

Level
activeLevel()
{
    return dispatch().level;
}

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Sse42:
        return "sse4.2";
      case Level::Avx2:
        return "avx2";
      default:
        return "scalar";
    }
}

Level
setLevel(Level level)
{
    Level best = detectBestLevel();
    // A forced-scalar environment still allows explicit test overrides
    // up to the hardware's capability.
#ifdef DNASTORE_SIMD_X86
    if (level > best) {
        Level hw = Level::Scalar;
        if (__builtin_cpu_supports("avx2"))
            hw = Level::Avx2;
        else if (__builtin_cpu_supports("sse4.2") &&
                 __builtin_cpu_supports("popcnt"))
            hw = Level::Sse42;
        if (level > hw)
            level = hw;
    }
#else
    level = best;
#endif
    const Dispatch &table = tierTable(level);
    dispatchPtr().store(&table, std::memory_order_release);
    return table.level;
}

namespace detail {

void
histogram4Wide(const uint8_t *vals, size_t n, uint32_t counts[4])
{
    dispatch().histogram4(vals, n, counts);
}

} // namespace detail

size_t
diffCountPacked(const uint64_t *a, const uint64_t *b, size_t words)
{
    return dispatch().diffPacked(a, b, words);
}

void
myersBatch(const uint64_t *peq, size_t m, size_t blocks,
           const uint8_t *const *texts, const size_t *lens, size_t k,
           uint32_t *dists)
{
#ifdef DNASTORE_SIMD_X86
    if (dispatch().level == Level::Avx2 && k > 1) {
        // The AVX2 kernel drives at most 4 lanes; chunk larger
        // batches so every tier fills all of dists[0..k).
        for (size_t base = 0; base < k; base += 4) {
            size_t lanes = std::min<size_t>(4, k - base);
            if (lanes > 1)
                myersBatch4Avx2(peq, m, blocks, texts + base,
                                lens + base, lanes, dists + base);
            else
                myersBatchScalar(peq, m, blocks, texts + base,
                                 lens + base, lanes, dists + base);
        }
        return;
    }
#endif
    myersBatchScalar(peq, m, blocks, texts, lens, k, dists);
}

} // namespace simd
} // namespace dnastore
