#include "replay.hh"

#include <algorithm>

#include "consensus/two_sided.hh"
#include "dna/codec.hh"
#include "dna/nucleotide.hh"
#include "dna/packed_strand.hh"
#include "layout/data_map.hh"
#include "layout/matrix.hh"
#include "pipeline/encoder.hh"
#include "util/bitio.hh"

namespace perfbench {

using namespace dnastore;

DecodeReplay::DecodeReplay(const StorageConfig &cfg, LayoutScheme scheme)
    : cfg_(cfg), scheme_(scheme), gf_(cfg.symbolBits),
      rs_(gf_, cfg.paritySymbols), map_(makeCodewordMap(cfg, scheme))
{}

ReplayOutput
DecodeReplay::decode(const std::vector<std::vector<Strand>> &clusters,
                     size_t coverage, Tracer &tracer) const
{
    auto decodeSpan = tracer.span("pipeline.decode");
    const size_t n_cols = cfg_.codewordLen();
    const size_t strand_len = cfg_.strandLen();
    const size_t n_clusters = std::min(clusters.size(), n_cols);

    std::vector<Strand> consensus(n_clusters);
    {
        auto span = tracer.span("consensus");
        TwoSidedScratch scratch;
        std::vector<StrandView> views;
        for (size_t cl = 0; cl < n_clusters; ++cl) {
            const size_t n = std::min(clusters[cl].size(), coverage);
            if (n == 0)
                continue;
            views.assign(clusters[cl].begin(), clusters[cl].begin() + long(n));
            reconstructTwoSidedInto(views.data(), n, strand_len, scratch,
                                    consensus[cl]);
        }
    }

    // Index parse and column placement, first claim wins (as the
    // library's decoder does).
    SymbolMatrix received(cfg_.rows, n_cols);
    std::vector<bool> claimed(n_cols, false);
    size_t index_ok = 0, nonempty = 0;
    const uint32_t sym_mask = (uint32_t(1) << cfg_.symbolBits) - 1;
    for (size_t cl = 0; cl < n_clusters; ++cl) {
        const Strand &c = consensus[cl];
        if (c.empty())
            continue;
        ++nonempty;
        if (c.size() != strand_len)
            continue;
        const uint64_t idx =
            decodeUint(c, cfg_.primerLen, int(cfg_.indexBits()));
        if (idx >= n_cols)
            continue;
        ++index_ok;
        if (claimed[idx])
            continue;
        claimed[idx] = true;
        const size_t payload_off = cfg_.primerLen + cfg_.indexBases();
        uint64_t acc = 0;
        unsigned bits = 0;
        size_t row = 0;
        for (size_t b = 0; b < cfg_.payloadBases() && row < cfg_.rows; ++b) {
            acc = (acc << 2) | bitsFromBase(c[payload_off + b]);
            bits += 2;
            if (bits >= cfg_.symbolBits) {
                received.at(row++, size_t(idx)) =
                    uint32_t(acc >> (bits - cfg_.symbolBits)) & sym_mask;
                bits -= cfg_.symbolBits;
            }
        }
    }

    const size_t n_words = map_->codewords();
    std::vector<std::vector<uint32_t>> words(n_words);
    {
        auto span = tracer.span("layout.gather");
        for (size_t j = 0; j < n_words; ++j)
            map_->gatherInto(received, j, words[j]);
    }
    std::vector<std::vector<size_t>> erasures(n_words);
    for (size_t j = 0; j < n_words; ++j)
        for (size_t t = 0; t < map_->length(); ++t)
            if (!claimed[map_->position(j, t).col])
                erasures[j].push_back(t);

    // The library's loop: ReedSolomon::decode on every codeword (its
    // syndrome pass is the early-out for clean ones), then scatter on
    // success. The words as received are kept for timeSyndromes().
    ReplayOutput out;
    out.received = words;
    std::vector<uint8_t> ok(n_words, 0);
    size_t corrected = 0, n_clean = 0;
    {
        auto span = tracer.span("ecc.decode");
        RsScratch scratch;
        for (size_t j = 0; j < n_words; ++j) {
            const RsDecodeResult r = rs_.decode(words[j], erasures[j], scratch);
            ok[j] = r.success;
            corrected += r.errorsCorrected + r.erasuresCorrected;
            n_clean += r.success && erasures[j].empty() &&
                r.errorsCorrected == 0;
        }
    }

    out.exact = true;
    out.corrected = corrected;
    size_t n_failed = 0;
    for (size_t j = 0; j < n_words; ++j) {
        if (!ok[j]) {
            ++n_failed;
            out.exact = false;
        } else {
            map_->scatter(received, j, words[j]);
        }
    }
    const bool priority = scheme_ == LayoutScheme::DnaMapper;
    const std::vector<uint32_t> symbols = extractData(
        received, cfg_.dataCols(),
        priority ? DataPlacement::Priority : DataPlacement::Baseline);
    BitWriter w;
    for (uint32_t s : symbols)
        w.writeBits(s, int(cfg_.symbolBits));
    out.rawStream = w.take();
    out.bundle = priority
        ? FileBundle::deserializePriority(out.rawStream, &out.bundleOk)
        : FileBundle::deserialize(out.rawStream, &out.bundleOk);

    tracer.count("consensus.clusters", double(n_clusters));
    tracer.count("consensus.nonempty", double(nonempty));
    tracer.count("consensus.index_ok", double(index_ok));
    tracer.count("ecc.codewords", double(n_words));
    tracer.count("ecc.clean", double(n_clean));
    tracer.count("ecc.errors_corrected", double(corrected));
    tracer.count("ecc.failed_codewords", double(n_failed));
    return out;
}

void
DecodeReplay::timeSyndromes(const ReplayOutput &decoded, Tracer &tracer) const
{
    if (!tracer.enabled())
        return;
    const Clock::time_point t0 = Clock::now();
    for (const std::vector<uint32_t> &word : decoded.received)
        (void)rs_.isCodeword(word);
    tracer.count("ecc.syndrome_ms", msSince(t0));
}

} // namespace perfbench
