#include <gtest/gtest.h>

#include "channel/ids_channel.hh"
#include "consensus/bma.hh"
#include "consensus/two_sided.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

Strand
randomStrand(size_t len, Rng &rng)
{
    Strand s(len);
    for (auto &b : s)
        b = baseFromBits(unsigned(rng.nextBelow(4)));
    return s;
}

TEST(TwoSided, CleanReadsReconstructExactly)
{
    Rng rng(1);
    auto s = randomStrand(101, rng); // odd length exercises the split
    std::vector<Strand> reads(5, s);
    EXPECT_EQ(reconstructTwoSided(reads, s.size()), s);
}

TEST(TwoSided, OutputAlwaysHasTargetLength)
{
    Rng rng(2);
    IdsChannel ch(ErrorModel::uniform(0.15));
    for (size_t len : { 20u, 81u, 200u }) {
        auto s = randomStrand(len, rng);
        auto reads = ch.transmitCluster(s, 5, rng);
        EXPECT_EQ(reconstructTwoSided(reads, len).size(), len);
    }
}

TEST(TwoSided, ErrorPeaksInTheMiddle)
{
    // Figure 4: after two-sided reconstruction the error is low at the
    // ends and highest in the middle.
    Rng rng(3);
    IdsChannel ch(ErrorModel::uniform(0.08));
    const size_t len = 200;
    const int trials = 400;
    size_t wrong_ends = 0, wrong_mid = 0;
    for (int t = 0; t < trials; ++t) {
        auto s = randomStrand(len, rng);
        auto reads = ch.transmitCluster(s, 5, rng);
        auto est = reconstructTwoSided(reads, len);
        for (size_t i = 0; i < 30; ++i) {
            wrong_ends += (est[i] != s[i]);
            wrong_ends += (est[len - 1 - i] != s[len - 1 - i]);
            wrong_mid += (est[len / 2 - 15 + i] != s[len / 2 - 15 + i]);
        }
    }
    // Middle window (30 positions) vs end windows (60 positions):
    // the per-position rate in the middle must dominate clearly.
    double mid_rate = double(wrong_mid) / (30.0 * trials);
    double end_rate = double(wrong_ends) / (60.0 * trials);
    EXPECT_GT(mid_rate, 2.0 * end_rate);
}

TEST(TwoSided, BeatsOneWayOnIndelChannel)
{
    Rng rng(4);
    IdsChannel ch(ErrorModel::uniform(0.08));
    const size_t len = 150;
    const int trials = 200;
    size_t err_one = 0, err_two = 0;
    for (int t = 0; t < trials; ++t) {
        auto s = randomStrand(len, rng);
        auto reads = ch.transmitCluster(s, 5, rng);
        err_one += hammingDistance(reconstructOneWay(reads, len), s);
        err_two += hammingDistance(reconstructTwoSided(reads, len), s);
    }
    EXPECT_LT(err_two, err_one);
}

TEST(TwoSided, ViewScratchVariantMatchesVectorApi)
{
    // The allocation-free Into variant (views + reversed lanes) must
    // be bit-identical to the historical vector interface, including
    // reuse of one scratch across many clusters.
    Rng rng(6);
    IdsChannel ch(ErrorModel::uniform(0.1));
    TwoSidedScratch scratch;
    Strand out;
    for (int rep = 0; rep < 25; ++rep) {
        size_t len = 30 + size_t(rng.nextBelow(200));
        auto s = randomStrand(len, rng);
        auto reads = ch.transmitCluster(s, 1 + rng.nextBelow(8), rng);
        std::vector<StrandView> views(reads.begin(), reads.end());
        reconstructTwoSidedInto(views.data(), views.size(), len,
                                scratch, out);
        ASSERT_EQ(out, reconstructTwoSided(reads, len));
    }
}

TEST(TwoSided, ReversedOneWayMatchesMaterializedReversal)
{
    Rng rng(7);
    IdsChannel ch(ErrorModel::uniform(0.12));
    BmaScratch scratch;
    Strand out;
    for (int rep = 0; rep < 25; ++rep) {
        size_t len = 20 + size_t(rng.nextBelow(150));
        auto s = randomStrand(len, rng);
        auto reads = ch.transmitCluster(s, 1 + rng.nextBelow(6), rng);
        std::vector<Strand> rev_reads;
        for (const auto &r : reads)
            rev_reads.push_back(reversed(r));
        std::vector<StrandView> views(reads.begin(), reads.end());
        reconstructOneWayReversed(views.data(), views.size(), len,
                                  scratch, out);
        ASSERT_EQ(out, reconstructOneWay(rev_reads, len));
    }
}

TEST(TwoSided, SubstitutionOnlyChannelIsMuchEasier)
{
    // Figure 5 (brown vs orange): a 10% substitution-only channel is
    // far easier to reconstruct than a 10% channel with indels, and
    // reconstruction on it is close to error-free.
    Rng rng(5);
    IdsChannel sub_ch(ErrorModel::substitutionOnly(0.10));
    IdsChannel mix_ch(ErrorModel::uniform(0.10));
    const size_t len = 200;
    size_t wrong_sub = 0, wrong_mix = 0;
    const int trials = 100;
    for (int t = 0; t < trials; ++t) {
        auto s = randomStrand(len, rng);
        auto sub_reads = sub_ch.transmitCluster(s, 5, rng);
        auto mix_reads = mix_ch.transmitCluster(s, 5, rng);
        wrong_sub +=
            hammingDistance(reconstructTwoSided(sub_reads, len), s);
        wrong_mix +=
            hammingDistance(reconstructTwoSided(mix_reads, len), s);
    }
    double rate_sub = double(wrong_sub) / double(len * trials);
    double rate_mix = double(wrong_mix) / double(len * trials);
    EXPECT_LT(rate_sub, 0.03);
    EXPECT_GT(rate_mix, 2.0 * rate_sub);
}

} // namespace
} // namespace dnastore
