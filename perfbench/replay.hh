/**
 * @file
 * The traced decode: the read path of UnitDecoder::decode, replayed
 * from the benchmark through each layer's public functions so every
 * layer boundary gets a span — consensus (reconstructTwoSidedInto),
 * layout (CodewordMap::gatherInto) and ECC (ReedSolomon::decode on
 * every codeword, as the library calls it). Index parsing, erasure
 * bookkeeping, scatter and bundle parsing stay in the enclosing
 * pipeline.decode span as its self time. Serial, like the library at
 * threads = 1; the library interleaves gather, decode and scatter per
 * codeword, the replay runs each as one pass so a span covers it.
 * Callers check its output bytes, so a replay that drifted from the
 * library's decode fails the run.
 *
 * ReedSolomon::decode computes the syndromes first and returns early
 * on a clean codeword, so ecc.decode holds the syndrome cost. Its
 * share is timed apart by timeSyndromes(), outside the traced op, so
 * the ledger rows still sum to the op.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <memory>
#include <vector>

#include "bench.hh"
#include "dna/strand.hh"
#include "ecc/gf.hh"
#include "ecc/rs.hh"
#include "layout/codeword_map.hh"
#include "pipeline/bundle.hh"
#include "pipeline/config.hh"

namespace perfbench {

struct ReplayOutput
{
    dnastore::FileBundle bundle;
    bool bundleOk = false;
    bool exact = false; //!< Every codeword decoded.
    size_t corrected = 0; //!< Symbols RS corrected (errors + erasures).
    std::vector<uint8_t> rawStream;
    std::vector<std::vector<uint32_t>> received; //!< Codewords before RS.
};

class DecodeReplay
{
  public:
    DecodeReplay(const dnastore::StorageConfig &cfg,
                 dnastore::LayoutScheme scheme);

    DecodeReplay(const DecodeReplay &) = delete;
    DecodeReplay &operator=(const DecodeReplay &) = delete;

    /**
     * Decode clusters (cluster i = reads of one molecule), using at
     * most @p coverage reads of each. Counters land in @p tracer:
     * consensus.clusters / consensus.index_ok / ecc.codewords /
     * ecc.clean / ecc.errors_corrected / ecc.failed_codewords.
     */
    ReplayOutput decode(const std::vector<std::vector<dnastore::Strand>> &clusters,
                        size_t coverage, Tracer &tracer) const;

    /**
     * Time ReedSolomon::isCodeword (one syndrome pass) over the
     * codewords @p decoded received, into the counter ecc.syndrome_ms.
     * Call it outside the traced op.
     */
    void timeSyndromes(const ReplayOutput &decoded, Tracer &tracer) const;

  private:
    dnastore::StorageConfig cfg_;
    dnastore::LayoutScheme scheme_;
    dnastore::GaloisField gf_;
    dnastore::ReedSolomon rs_;
    std::unique_ptr<dnastore::CodewordMap> map_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
