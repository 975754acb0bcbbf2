#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dna/packed_strand.hh"
#include "dna/strand.hh"
#include "fuzz_iters.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace dnastore {
namespace {

/**
 * Every kernel is checked against a plain reference on random inputs,
 * on every dispatch tier the host supports — the bit-identical
 * contract behind DNASTORE_FORCE_SCALAR.
 */

std::vector<simd::Level>
supportedLevels()
{
    std::vector<simd::Level> levels = { simd::Level::Scalar };
    if (simd::setLevel(simd::Level::Sse42) == simd::Level::Sse42)
        levels.push_back(simd::Level::Sse42);
    if (simd::setLevel(simd::Level::Avx2) == simd::Level::Avx2)
        levels.push_back(simd::Level::Avx2);
    simd::setLevel(simd::Level::Avx2); // restore best
    return levels;
}

class SimdKernels : public ::testing::TestWithParam<simd::Level>
{
  public:
    void
    SetUp() override
    {
        if (simd::setLevel(GetParam()) != GetParam())
            GTEST_SKIP() << "tier " << simd::levelName(GetParam())
                         << " not supported on this host";
    }

    void TearDown() override { simd::setLevel(simd::Level::Avx2); }
};

TEST_P(SimdKernels, Histogram4MatchesReference)
{
    Rng rng(1);
    for (int iter = 0; iter < fuzzIters(200); ++iter) {
        size_t n = rng.nextBelow(200);
        std::vector<uint8_t> vals(n);
        for (auto &v : vals)
            v = uint8_t(rng.nextBelow(4));
        uint32_t expect[4] = { 7, 0, 0, 0 }; // accumulates, not resets
        uint32_t got[4] = { 7, 0, 0, 0 };
        for (uint8_t v : vals)
            ++expect[v];
        simd::histogram4(vals.data(), n, got);
        for (int b = 0; b < 4; ++b)
            EXPECT_EQ(got[b], expect[b]);
    }
}

TEST_P(SimdKernels, DiffCountPackedMatchesPerBaseCount)
{
    Rng rng(3);
    for (int iter = 0; iter < fuzzIters(200); ++iter) {
        size_t n = rng.nextBelow(300);
        Strand sa(n), sb(n);
        for (size_t i = 0; i < n; ++i) {
            sa[i] = baseFromBits(unsigned(rng.nextBelow(4)));
            sb[i] = rng.nextBelow(10) == 0
                ? baseFromBits(unsigned(rng.nextBelow(4)))
                : sa[i];
        }
        size_t expect = 0;
        for (size_t i = 0; i < n; ++i)
            expect += sa[i] != sb[i];
        PackedStrand pa{ StrandView(sa) }, pb{ StrandView(sb) };
        EXPECT_EQ(pa.mismatchCount(pb), expect);
        EXPECT_EQ(pa == pb, expect == 0);
    }
}

TEST_P(SimdKernels, EditDistanceBatchMatchesPairwise)
{
    Rng rng(4);
    for (int iter = 0; iter < fuzzIters(60); ++iter) {
        size_t m = 1 + rng.nextBelow(180); // spans multiple blocks
        Strand pattern(m);
        for (auto &x : pattern)
            x = baseFromBits(unsigned(rng.nextBelow(4)));

        const size_t k = 1 + rng.nextBelow(7);
        std::vector<Strand> store;
        for (size_t i = 0; i < k; ++i) {
            // A mix of mutated copies and unrelated strands, with
            // unequal lengths (including empty).
            size_t len = rng.nextBelow(220);
            Strand t(len);
            for (size_t j = 0; j < len; ++j)
                t[j] = j < m && rng.nextBelow(10) > 1
                    ? pattern[j]
                    : baseFromBits(unsigned(rng.nextBelow(4)));
            store.push_back(std::move(t));
        }
        std::vector<StrandView> texts(store.begin(), store.end());
        std::vector<uint32_t> dists(k);
        editDistanceBatch(pattern.data(), m, texts.data(), k,
                          dists.data());
        for (size_t i = 0; i < k; ++i)
            EXPECT_EQ(dists[i], editDistance(pattern, store[i]))
                << "text " << i << " len " << store[i].size();
    }
}

TEST_P(SimdKernels, MyersBatchFillsEveryLaneBeyondFour)
{
    // Regression: the AVX2 kernel drives 4 lanes at a time; a k > 4
    // call must fill dists[4..k) too, on every tier.
    Rng rng(5);
    const size_t m = 90; // two Myers blocks
    Strand pattern(m);
    for (auto &x : pattern)
        x = baseFromBits(unsigned(rng.nextBelow(4)));

    const size_t blocks = (m + 63) / 64;
    std::vector<uint64_t> peq(size_t(kNumBases) * blocks, 0);
    for (size_t i = 0; i < m; ++i)
        peq[size_t(bitsFromBase(pattern[i])) * blocks + (i >> 6)] |=
            uint64_t(1) << (i & 63);

    for (size_t k : { size_t(5), size_t(7), size_t(9) }) {
        std::vector<Strand> store;
        std::vector<const uint8_t *> ptrs;
        std::vector<size_t> lens;
        for (size_t i = 0; i < k; ++i) {
            Strand t(rng.nextBelow(150));
            for (auto &x : t)
                x = baseFromBits(unsigned(rng.nextBelow(4)));
            store.push_back(std::move(t));
        }
        for (const auto &t : store) {
            ptrs.push_back(
                reinterpret_cast<const uint8_t *>(t.data()));
            lens.push_back(t.size());
        }
        std::vector<uint32_t> dists(k, 0xdeadbeefu);
        simd::myersBatch(peq.data(), m, blocks, ptrs.data(),
                         lens.data(), k, dists.data());
        for (size_t i = 0; i < k; ++i)
            EXPECT_EQ(dists[i], editDistance(pattern, store[i]))
                << "k " << k << " text " << i;
    }
}

TEST_P(SimdKernels, EditDistanceBatchEmptyPattern)
{
    Strand t = strandFromString("ACGTACGT");
    StrandView view(t);
    uint32_t dist = 0;
    editDistanceBatch(nullptr, 0, &view, 1, &dist);
    EXPECT_EQ(dist, 8u);
}

INSTANTIATE_TEST_SUITE_P(Tiers, SimdKernels,
                         ::testing::Values(simd::Level::Scalar,
                                           simd::Level::Sse42,
                                           simd::Level::Avx2),
                         [](const auto &info) {
                             switch (info.param) {
                               case simd::Level::Sse42:
                                 return "sse42";
                               case simd::Level::Avx2:
                                 return "avx2";
                               default:
                                 return "scalar";
                             }
                         });

TEST(SimdDispatch, LevelsReportNames)
{
    auto levels = supportedLevels();
    EXPECT_FALSE(levels.empty());
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
    EXPECT_STREQ(simd::levelName(simd::Level::Sse42), "sse4.2");
    EXPECT_STREQ(simd::levelName(simd::Level::Avx2), "avx2");
}

} // namespace
} // namespace dnastore
