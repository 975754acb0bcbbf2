/**
 * @file
 * One-way Bitwise/Base-wise Majority Alignment (BMA) consensus.
 *
 * Implements the left-to-right lookahead-majority reconstruction the
 * paper walks through in Figure 2: at each output position the reads
 * vote on the consensus base; disagreeing reads are classified as
 * having suffered an insertion, deletion, or substitution by looking
 * ahead, and their cursors are re-synchronized accordingly. Errors in
 * this classification propagate towards the end of the strand, which
 * is the root cause of the reliability skew (section 3.1).
 *
 * Each pass copies its reads into one lane apiece (the backward pass
 * copies them reversed, so both passes run the same forward scan),
 * and pads every lane with sentinel bytes 0x80, which no base code
 * equals. The sentinel replaces every length check: a lookahead byte
 * is valid when it is below 4, and a read is exhausted when its
 * cursor byte has the 0x80 bit. Each step loads one 8-byte window per
 * read; a run where all active reads agree is emitted up to 8 bases
 * at a time, any other position is voted on.
 *
 * The scan is one body compiled twice: a portable build, and an AVX2
 * build whose per-read loops run four reads per instruction. A pass
 * takes the AVX2 build when simd::activeLevel() is Avx2, so
 * DNASTORE_FORCE_SCALAR and simd::setLevel pin the portable one. Both
 * give identical output.
 */

#ifndef DNASTORE_CONSENSUS_BMA_HH
#define DNASTORE_CONSENSUS_BMA_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dna/packed_strand.hh"
#include "dna/strand.hh"

namespace dnastore {

/**
 * Reusable per-call working state for the BMA reconstructions. One
 * scratch per thread; buffers grow once and are then reused so the
 * per-cluster loop performs no heap allocation.
 */
struct BmaScratch
{
    /**
     * Every read of the pass, back to back, one base per byte
     * (reversed for the backward pass), each followed by 9 sentinel
     * bytes 0x80.
     */
    std::vector<uint8_t> lanes;

    /** Per read: its cursor, as an offset into lanes. */
    std::vector<size_t> cursor;

    /** Per read: the 8 lane bytes at its cursor, byte i = base i. */
    std::vector<uint64_t> window;
};

/**
 * Reconstruct a strand of known length from noisy reads, scanning
 * left to right.
 *
 * @param reads      Noisy copies of the original strand.
 * @param target_len Known length L of the original strand.
 * @return The consensus estimate, exactly @p target_len bases long.
 */
Strand reconstructOneWay(const std::vector<Strand> &reads,
                         size_t target_len);

/**
 * View-based variant for the hot path: reconstruct from @p n_reads
 * strand views into @p out (cleared and refilled), reusing @p scratch.
 * Bit-identical to the vector overload.
 */
void reconstructOneWayInto(const StrandView *reads, size_t n_reads,
                           size_t target_len, BmaScratch &scratch,
                           Strand &out);

/**
 * Reconstruct as if every read were reversed: the output estimates
 * the reversed original. The reads are reversed only in the scratch
 * lanes. Bit-identical to reversing each read and calling
 * reconstructOneWay.
 */
void reconstructOneWayReversed(const StrandView *reads, size_t n_reads,
                               size_t target_len, BmaScratch &scratch,
                               Strand &out);

} // namespace dnastore

#endif // DNASTORE_CONSENSUS_BMA_HH
