#include "consensus/bma.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/simd.hh"

#if defined(__x86_64__) || defined(__i386__)
#define DNASTORE_BMA_X86 1
#endif

namespace dnastore {

namespace {

/** Lane padding byte: never a base code (bases are 0..3). */
constexpr uint8_t kSentinel = 0x80;

/**
 * Sentinel bytes after each lane. A vote step can move a cursor to
 * size + 1 (an insertion skip on the last base), and every step loads
 * 8 bytes from each cursor.
 */
constexpr size_t kPad = 9;

/** The sentinel bit of every byte of a window. */
constexpr uint64_t kHighBits = 0x8080808080808080ULL;

/** Expected-base byte for a lookahead position nobody voted on. */
constexpr uint64_t kNoVote = 0xff;

/**
 * Majority base of four packed 16-bit vote counters (base b in bits
 * 16b..16b+15); ties break to the lowest base.
 */
inline uint64_t
majority(uint64_t packed)
{
    uint64_t best = 0;
    uint64_t best_votes = packed & 0xffff;
    for (uint64_t b = 1; b < uint64_t(kNumBases); ++b) {
        const uint64_t votes = (packed >> (16 * b)) & 0xffff;
        if (votes > best_votes) {
            best = b;
            best_votes = votes;
        }
    }
    return best;
}

/** Byte @p off of window @p w. */
inline uint64_t
byteAt(uint64_t w, unsigned off)
{
    return (w >> (8 * off)) & 0xff;
}

/**
 * Copy every read into scratch.lanes, reversed for the backward pass,
 * each followed by kPad sentinels, and point each cursor at its lane's
 * first byte.
 */
void
fillLanes(const StrandView *reads, size_t n, bool reversed,
          BmaScratch &scratch)
{
    size_t total = 0;
    for (size_t r = 0; r < n; ++r)
        total += reads[r].size() + kPad;
    scratch.lanes.resize(total);
    scratch.cursor.resize(n);
    scratch.window.resize(n);
    uint8_t *lane = scratch.lanes.data();
    for (size_t r = 0; r < n; ++r) {
        const size_t len = reads[r].size();
        const auto *src = reinterpret_cast<const uint8_t *>(reads[r].data());
        scratch.cursor[r] = size_t(lane - scratch.lanes.data());
        if (reversed)
            std::reverse_copy(src, src + len, lane);
        else if (len > 0) // an empty view may have a null data()
            std::memcpy(lane, src, len);
        std::memset(lane + len, kSentinel, kPad);
        lane += len + kPad;
    }
}

/**
 * The one-way lookahead-majority scan over sentinel-padded lanes.
 *
 * Each step loads one 8-byte window per read at its cursor; a read is
 * active while its window's first byte is a base. Positions where
 * every active read agrees are the common case at realistic error
 * rates: the agreement run is read off the OR of the windows'
 * differences from the first active read (a sentinel byte also ends
 * it), emitted, and every active cursor jumps by it — up to 8 bases
 * per step, exactly as per-position unanimous votes would. Other
 * positions take the vote path on the same windows: the column
 * histogram, the lookahead majority over the reads that agree, and
 * the Figure 2 error-type classification of each outlier, whose
 * cursor step is selected rather than branched to.
 *
 * Every per-read loop is a straight pass over the window and cursor
 * arrays, so a wrapper compiled for AVX2 runs them four reads per
 * instruction (the packed histograms need its variable 64-bit
 * shifts).
 */
__attribute__((always_inline)) inline void
scanLanes(const uint8_t *lanes, size_t *cursor, uint64_t *window,
          size_t n, size_t target_len, uint8_t *out)
{
    uint8_t last_consensus = uint8_t(Base::A);
    size_t pos = 0;
    while (pos < target_len) {
        for (size_t r = 0; r < n; ++r)
            std::memcpy(&window[r], lanes + cursor[r], 8);
        size_t ref = 0;
        while (ref < n && (window[ref] & kSentinel))
            ++ref;
        if (ref == n) {
            // All reads exhausted: pad with the last consensus base.
            std::memset(out + pos, last_consensus, target_len - pos);
            return;
        }

        const uint64_t w_ref = window[ref];
        uint64_t diff = 0;
        for (size_t r = 0; r < n; ++r) {
            const uint64_t w = window[r];
            const uint64_t active = ((w >> 7) & 1) - 1;
            diff |= active & ((w ^ w_ref) | (w & kHighBits));
        }
        size_t run = diff ? size_t(__builtin_ctzll(diff)) / 8 : 8;
        run = std::min(run, target_len - pos);
        if (run > 0) {
            std::memcpy(out + pos, &w_ref, run);
            for (size_t r = 0; r < n; ++r) {
                const uint64_t active = ((window[r] >> 7) & 1) - 1;
                cursor[r] += active & run;
            }
            last_consensus = out[pos + run - 1];
            pos += run;
            continue;
        }

        // Vote path: column histogram in four packed 16-bit counters.
        uint64_t column = 0;
        for (size_t r = 0; r < n; ++r) {
            const uint64_t b = window[r] & 0xff;
            column += uint64_t(b < 4) << (16 * (b & 3));
        }
        const uint64_t c = majority(column);

        // Estimate the next three consensus bases from the reads that
        // agree at the current position ("the next two characters are
        // GT in most sequences..."). A sentinel byte casts no vote.
        uint64_t ahead0 = 0, ahead1 = 0, ahead2 = 0;
        for (size_t r = 0; r < n; ++r) {
            const uint64_t w = window[r];
            const uint64_t agree = uint64_t((w & 0xff) == c);
            const uint64_t b1 = byteAt(w, 1), b2 = byteAt(w, 2),
                           b3 = byteAt(w, 3);
            ahead0 += (agree & uint64_t(b1 < 4)) << (16 * (b1 & 3));
            ahead1 += (agree & uint64_t(b2 < 4)) << (16 * (b2 & 3));
            ahead2 += (agree & uint64_t(b3 < 4)) << (16 * (b3 & 3));
        }
        // A position without voters expects a byte no window holds,
        // so it adds nothing to any hypothesis score.
        const uint64_t next0 = ahead0 ? majority(ahead0) : kNoVote;
        const uint64_t next1 = ahead1 ? majority(ahead1) : kNoVote;
        const uint64_t next2 = ahead2 ? majority(ahead2) : kNoVote;

        // Classify each outlier by scoring the three hypotheses over
        // the lookahead window. Each gets the same number of evidence
        // terms, so none is favored merely by having more chances to
        // match (on repeated bases an asymmetric insertion score would
        // win spuriously and desynchronize the read).
        for (size_t r = 0; r < n; ++r) {
            const uint64_t w = window[r];
            const uint64_t b0 = w & 0xff, b1 = byteAt(w, 1),
                           b2 = byteAt(w, 2), b3 = byteAt(w, 3);
            // Substitution: b0 is a corrupted c; the upcoming
            // consensus follows it.
            const uint64_t sub = uint64_t(b1 == next0) +
                uint64_t(b2 == next1) + uint64_t(b3 == next2);
            // Insertion: b0 is an extra base; c and then the upcoming
            // consensus follow it.
            const uint64_t ins = uint64_t(b1 == c) +
                uint64_t(b2 == next0) + uint64_t(b3 == next1);
            // Deletion: the read lost c; b0 itself starts the
            // upcoming consensus.
            const uint64_t del = uint64_t(b0 == next0) +
                uint64_t(b1 == next1) + uint64_t(b2 == next2);
            uint64_t step = ins >= del ? 2 : 0;
            step = sub >= ins && sub >= del ? 1 : step;
            step = b0 == c ? 1 : step;
            cursor[r] += b0 < 4 ? step : 0;
        }
        out[pos] = uint8_t(c);
        last_consensus = uint8_t(c);
        ++pos;
    }
}

void
scanPortable(const uint8_t *lanes, size_t *cursor, uint64_t *window,
             size_t n, size_t target_len, uint8_t *out)
{
    scanLanes(lanes, cursor, window, n, target_len, out);
}

#ifdef DNASTORE_BMA_X86
__attribute__((target("avx2"))) void
scanAvx2(const uint8_t *lanes, size_t *cursor, uint64_t *window,
         size_t n, size_t target_len, uint8_t *out)
{
    scanLanes(lanes, cursor, window, n, target_len, out);
}
#endif

/**
 * Shared body of the forward and reversed entry points: the backward
 * pass differs only in copying each read into its lane reversed.
 */
void
reconstructCore(const StrandView *reads, size_t n, size_t target_len,
                bool reversed, BmaScratch &scratch, Strand &out)
{
    // The packed 16-bit vote counters bound the cluster size; real
    // coverages are orders of magnitude below this.
    if (n >= 0xffff)
        throw std::invalid_argument(
            "BMA consensus supports at most 65534 reads per cluster");

    fillLanes(reads, n, reversed, scratch);
    out.clear();
    out.resize(target_len);
    auto *dst = reinterpret_cast<uint8_t *>(out.data());
#ifdef DNASTORE_BMA_X86
    if (simd::activeLevel() >= simd::Level::Avx2) {
        scanAvx2(scratch.lanes.data(), scratch.cursor.data(),
                 scratch.window.data(), n, target_len, dst);
        return;
    }
#endif
    scanPortable(scratch.lanes.data(), scratch.cursor.data(),
                 scratch.window.data(), n, target_len, dst);
}

} // namespace

void
reconstructOneWayInto(const StrandView *reads, size_t n_reads,
                      size_t target_len, BmaScratch &scratch,
                      Strand &out)
{
    reconstructCore(reads, n_reads, target_len, false, scratch, out);
}

void
reconstructOneWayReversed(const StrandView *reads, size_t n_reads,
                          size_t target_len, BmaScratch &scratch,
                          Strand &out)
{
    reconstructCore(reads, n_reads, target_len, true, scratch, out);
}

Strand
reconstructOneWay(const std::vector<Strand> &reads, size_t target_len)
{
    static thread_local std::vector<StrandView> views;
    static thread_local BmaScratch scratch;
    views.assign(reads.begin(), reads.end());
    Strand out;
    reconstructCore(views.data(), views.size(), target_len, false,
                    scratch, out);
    return out;
}

} // namespace dnastore
