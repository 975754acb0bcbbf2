/**
 * @file
 * Reed-Solomon codec with full errors-and-erasures decoding.
 *
 * Systematic RS(n, k) over GF(2^m) with n = 2^m - 1, exactly the
 * construction of the paper's baseline storage architecture (Figure 1):
 * each codeword row holds M = k data symbols and E = n - k redundancy
 * symbols; the decoder corrects up to E erasures, or up to E/2 errors,
 * or any mix with (2 * errors + erasures) <= E.
 *
 * Encoding and syndromes share one kernel: the systematic LFSR that
 * divides by the generator g(x), driven by per-code nibble tables
 * (the split-table multiply of Plank, Greenan & Miller, FAST'13).
 * T[b][v][j] = g_j * (v << 4b) holds, for each 4-bit slice b of a
 * symbol and each of its 16 values v, the whole row of products with
 * the generator's coefficients; one LFSR step XORs the ceil(m/4) rows
 * picked by the feedback's nibbles into the remainder (a contiguous,
 * autovectorised loop) and shifts it by moving a base pointer. The
 * tables take 32 * E * ceil(m/4) bytes: 18 KB at m = 10, E = 188.
 *
 *  - encode is that remainder of data * x^E;
 *  - syndromes reduce the received word to R(x) = r(x) mod g(x)
 *    with the same kernel; since every alpha^j (j = 1..E) is a root
 *    of g, S_j = R(alpha^j). A clean word has R = 0 and needs no
 *    evaluation; otherwise R is evaluated at the E points by 8-lane
 *    interleaved Horner chains over E coefficients, not n.
 *
 * Decoding is classical: syndromes, erasure-modified Berlekamp-Massey,
 * Chien search, Forney's algorithm. Beyond the kernel:
 *
 *  - an all-zero-syndrome early-out returns before any buffer copy;
 *  - erasure-only decodes (Berlekamp-Massey found no errors) skip the
 *    Chien search entirely — the bad positions are the erasures;
 *  - the post-correction verification updates the syndromes
 *    incrementally from the applied error values, O(bad * E) instead
 *    of recomputing O(n * E);
 *  - all working buffers live in an RsScratch that callers (or a
 *    thread-local default) reuse, so steady-state decodes perform no
 *    heap allocation.
 */

#ifndef DNASTORE_ECC_RS_HH
#define DNASTORE_ECC_RS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ecc/gf.hh"

namespace dnastore {

/** Outcome of a codeword decode. */
struct RsDecodeResult
{
    bool success = false;          //!< True if decoding converged.
    size_t errorsCorrected = 0;    //!< Unknown-location errors fixed.
    size_t erasuresCorrected = 0;  //!< Erasure positions repaired.
};

/**
 * Reusable working buffers for ReedSolomon::decode. A default-
 * constructed scratch works for any code; buffers grow to the high-
 * water mark of the codes it serves and are then reused allocation-
 * free. Not thread-safe: use one scratch per thread.
 */
struct RsScratch
{
    std::vector<uint32_t> syn, work, gamma, modified, lambda, prev, tmp,
        psi, omega, psiDeriv, chien, evals;
    std::vector<size_t> badPositions;
    std::vector<uint32_t> badX;
    std::vector<uint16_t> lfsr; //!< Remainder kernel window, k + E.
};

/**
 * Systematic Reed-Solomon codec over GF(2^m).
 *
 * Codewords are laid out data-first: positions [0, k) hold the data
 * symbols, positions [k, n) the parity symbols.
 */
class ReedSolomon
{
  public:
    /**
     * @param gf    Field; codewords have n = gf.order() symbols.
     * @param n_par Number of parity symbols E (0 < E < n).
     */
    ReedSolomon(const GaloisField &gf, size_t n_par);

    /** Codeword length n. */
    size_t n() const { return n_; }

    /** Data symbols per codeword k = n - E. */
    size_t k() const { return n_ - nPar_; }

    /** Parity symbols per codeword E. */
    size_t parity() const { return nPar_; }

    /**
     * Encode @p data (k symbols) into a codeword of n symbols.
     *
     * @throws std::invalid_argument if data.size() != k().
     */
    std::vector<uint32_t> encode(const std::vector<uint32_t> &data) const;

    /**
     * Decode a codeword in place.
     *
     * @param codeword  n received symbols; corrected on success.
     * @param erasures  Known-bad positions (each in [0, n)); their
     *                  symbol values are ignored.
     * @return Decode status and correction counts. On failure the
     *         codeword is left unmodified.
     */
    RsDecodeResult decode(std::vector<uint32_t> &codeword,
                          const std::vector<size_t> &erasures = {}) const;

    /**
     * Decode with caller-provided scratch buffers (allocation-free
     * once the scratch is warm). The two-argument overload uses a
     * thread-local scratch and is equivalent.
     */
    RsDecodeResult decode(std::vector<uint32_t> &codeword,
                          const std::vector<size_t> &erasures,
                          RsScratch &scratch) const;

    /** True if @p codeword is a valid codeword (all syndromes zero). */
    bool isCodeword(const std::vector<uint32_t> &codeword) const;

    /** The field this code is defined over. */
    const GaloisField &field() const { return gf_; }

  private:
    /**
     * The remainder kernel: (data * x^E) mod g(x) of the k symbols at
     * @p data (position i is degree E + i) into @p lfsr[0, E), low
     * order first. @p lfsr is resized to k + E.
     */
    void remainderInto(const uint32_t *data,
                       std::vector<uint16_t> &lfsr) const;

    /** Syndromes S_1..S_E of @p cw (n symbols) into @p s.syn. */
    void syndromesInto(const uint32_t *cw, RsScratch &s) const;

    const GaloisField &gf_;
    size_t n_;
    size_t nPar_;
    unsigned nibbles_;            // ceil(m / 4)
    std::vector<uint16_t> rows_;  // T[b][v][j] at ((b*16 + v) * E + j)
};

} // namespace dnastore

#endif // DNASTORE_ECC_RS_HH
