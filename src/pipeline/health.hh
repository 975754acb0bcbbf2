/**
 * @file
 * Pool health telemetry and scrub records — the measure-and-repair
 * half of the durability loop, declared once here in the layer that
 * fills them and re-exported unchanged by the `dnastore::api` façade
 * (api/health.hh).
 *
 * StorageSimulator::probeHealth() fills a HealthReport from one
 * full-depth probe decode: per-cluster live reads and consensus
 * agreement (the decoder's ClusterProbe), the Reed-Solomon
 * correction split (true errors vs erasures) and the remaining
 * correction margin per codeword. StorageSimulator::scrub() acts on
 * it: clusters the ScrubOptions call low-margin are re-synthesized at
 * full depth from the RS-repaired data.
 *
 * Both report types render to JSON deterministically: fixed key
 * order, locale-independent number formatting ("%.12g" with the
 * decimal point forced to '.'), no timestamps — byte-identical output
 * for byte-identical state, at any thread count. CI diffs these
 * renderings across thread counts and SIMD tiers.
 */

#ifndef DNASTORE_PIPELINE_HEALTH_HH
#define DNASTORE_PIPELINE_HEALTH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/decoder.hh"

namespace dnastore {

/** One codeword's probe: the RS decode across the unit. */
struct CodewordHealth
{
    bool ok = false;              //!< RS decoded this codeword.
    size_t errorsCorrected = 0;   //!< True errors (cost 2 parity each).
    size_t erasuresCorrected = 0; //!< Erasures (cost 1 parity each).

    /**
     * Remaining correction budget: paritySymbols - (2*errors +
     * erasures). -1 when the codeword failed.
     */
    int margin = 0;
};

/** Unit-level health snapshot (StorageSimulator::probeHealth). */
struct HealthReport
{
    size_t clusters = 0;
    size_t liveReads = 0;       //!< Reads surviving across clusters.
    size_t poolCoverage = 0;    //!< Pool depth when fully populated.
    size_t emptyClusters = 0;   //!< Clusters aged down to zero reads.
    size_t indexFaults = 0;
    size_t erasedColumns = 0;
    size_t failedCodewords = 0;
    size_t agedEpochs = 0;      //!< Decay epochs applied so far.
    bool exact = false;         //!< Full-depth decode was clean.
    double meanAgreement = 0.0; //!< Over non-empty clusters.
    double minAgreement = 0.0;  //!< Over non-empty clusters.
    int minMargin = 0;          //!< Min codeword margin (-1 = failed).
    std::vector<ClusterProbe> perCluster; //!< Slot per cluster.
    std::vector<CodewordHealth> perCodeword;

    /**
     * Deterministic JSON rendering (fixed key order, locale-proof
     * numbers). @p detail includes the per-cluster and per-codeword
     * arrays; without it only the unit-level summary is emitted.
     */
    std::string toJson(bool detail = true) const;
};

/**
 * When the scrubber repairs a cluster (StorageSimulator::scrub). The
 * defaults select only clusters that lost their column claim — the
 * minimal "repair what is already failing" policy; raise the
 * thresholds to repair proactively.
 */
struct ScrubOptions
{
    /** Repair clusters with fewer live reads than this. */
    size_t minReads = 0;

    /** Repair clusters whose consensus agreement falls below this. */
    double minAgreement = 0.0;

    /** Rewrite every cluster regardless of margin. */
    bool repairAll = false;
};

/** What one scrub pass did. */
struct ScrubReport
{
    size_t clustersScanned = 0;
    size_t lowMargin = 0; //!< Clusters the policy selected.
    size_t repaired = 0;  //!< Clusters rewritten at full depth.

    /**
     * Clusters selected but not repairable: some codeword failed at
     * the current read depth, so every column holds an untrusted
     * symbol and no rewrite is safe. Transient — more coverage (or a
     * later, luckier consensus) can clear it.
     */
    size_t unrepairable = 0;
    size_t failedCodewords = 0; //!< Codewords failing the probe decode.
    size_t readsRewritten = 0;
    bool repairable = false; //!< Probe decode recovered every codeword.

    /** Deterministic JSON rendering (fixed key order). */
    std::string toJson() const;
};

} // namespace dnastore

#endif // DNASTORE_PIPELINE_HEALTH_HH
