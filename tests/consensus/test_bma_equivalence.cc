#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "channel/ids_channel.hh"
#include "consensus/bma.hh"
#include "consensus/two_sided.hh"
#include "fuzz_iters.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace dnastore {
namespace {

/**
 * Reference one-way BMA: the per-read, length-checked formulation the
 * lane-padded scan replaced (unanimous runs found by byte compares
 * against the first active read, a packed 8-base window per active
 * read on the vote path). Kept here verbatim in behavior so every
 * dispatch tier of the library scan can be checked against it.
 */
namespace ref {

int
majority(const std::array<uint32_t, kNumBases> &votes)
{
    int best = 0;
    for (int b = 1; b < kNumBases; ++b)
        if (votes[size_t(b)] > votes[size_t(best)])
            best = b;
    return best;
}

constexpr size_t kWindow = 3;

Strand
oneWay(const std::vector<Strand> &reads, size_t target_len)
{
    const size_t n = reads.size();
    std::vector<size_t> cursor(n, 0);
    Strand out;
    out.reserve(target_len);
    std::vector<uint8_t> column(n), wlen(n);
    std::vector<uint64_t> window(n);
    std::vector<uint32_t> aread(n);

    Base last_consensus = Base::A;
    size_t pos = 0;
    while (pos < target_len) {
        size_t first = n;
        bool unanimous = true;
        Base c = Base::A;
        for (size_t r = 0; r < n; ++r) {
            if (cursor[r] >= reads[r].size())
                continue;
            Base b = reads[r][cursor[r]];
            if (first == n) {
                first = r;
                c = b;
            } else if (b != c) {
                unanimous = false;
                break;
            }
        }

        if (first == n) {
            out.push_back(last_consensus);
            ++pos;
            continue;
        }

        if (unanimous) {
            size_t run = target_len - pos;
            for (size_t r = first; r < n; ++r) {
                if (cursor[r] < reads[r].size())
                    run = std::min(run, reads[r].size() - cursor[r]);
            }
            const Strand &read0 = reads[first];
            for (size_t r = first + 1; r < n && run > 1; ++r) {
                if (cursor[r] >= reads[r].size())
                    continue;
                size_t k = 0;
                while (k < run &&
                       reads[r][cursor[r] + k] == read0[cursor[first] + k])
                    ++k;
                run = k;
            }
            for (size_t i = 0; i < run; ++i)
                out.push_back(read0[cursor[first] + i]);
            for (size_t r = first; r < n; ++r) {
                if (cursor[r] < reads[r].size())
                    cursor[r] += run;
            }
            last_consensus = out.back();
            pos += run;
            continue;
        }

        size_t active = 0;
        for (size_t r = 0; r < n; ++r) {
            size_t cur = cursor[r];
            if (cur >= reads[r].size())
                continue;
            size_t rem = reads[r].size() - cur;
            size_t len = rem < 8 ? rem : 8;
            uint64_t w = 0;
            std::memcpy(&w, reads[r].data() + cur, len);
            column[active] = uint8_t(w & 0xff);
            window[active] = w;
            wlen[active] = uint8_t(len);
            aread[active] = uint32_t(r);
            ++active;
        }

        std::array<uint32_t, kNumBases> votes{};
        for (size_t a = 0; a < active; ++a)
            ++votes[column[a]];
        c = baseFromBits(unsigned(majority(votes)));
        const uint8_t c_byte = uint8_t(c);

        std::array<uint64_t, kWindow> nv_packed{};
        std::array<uint32_t, kWindow> voters{};
        for (size_t a = 0; a < active; ++a) {
            if (column[a] != c_byte)
                continue;
            const uint64_t w = window[a];
            const size_t len = wlen[a];
            for (size_t wi = 0; wi < kWindow; ++wi) {
                uint64_t valid = uint64_t(wi + 1 < len);
                nv_packed[wi] += valid
                    << (16 * ((w >> (8 * (wi + 1))) & 0xff));
                voters[wi] += uint32_t(valid);
            }
        }
        std::array<Base, kWindow> next{};
        std::array<bool, kWindow> have_next{};
        for (size_t w = 0; w < kWindow; ++w) {
            have_next[w] = voters[w] > 0;
            std::array<uint32_t, kNumBases> nv = {
                uint32_t(nv_packed[w] & 0xffff),
                uint32_t((nv_packed[w] >> 16) & 0xffff),
                uint32_t((nv_packed[w] >> 32) & 0xffff),
                uint32_t((nv_packed[w] >> 48) & 0xffff),
            };
            next[w] = baseFromBits(unsigned(majority(nv)));
        }

        for (size_t a = 0; a < active; ++a) {
            const size_t r = aread[a];
            const size_t cur = cursor[r];
            if (column[a] == c_byte) {
                cursor[r] = cur + 1;
                continue;
            }
            const uint64_t w = window[a];
            const size_t len = wlen[a];
            auto at = [w, len](size_t off, Base expect) -> int {
                return int(off < len) &
                    int(uint8_t((w >> (8 * off)) & 0xff) ==
                        uint8_t(expect));
            };
            int score_sub = 0;
            int score_ins = at(1, c);
            int score_del = 0;
            for (size_t wi = 0; wi < kWindow; ++wi) {
                const int have = int(have_next[wi]);
                score_sub += have & at(1 + wi, next[wi]);
                if (wi + 1 < kWindow)
                    score_ins += have & at(2 + wi, next[wi]);
                score_del += have & at(wi, next[wi]);
            }
            if (score_sub >= score_ins && score_sub >= score_del)
                cursor[r] = cur + 1;
            else if (score_ins >= score_del)
                cursor[r] = cur + 2;
        }
        out.push_back(c);
        last_consensus = c;
        ++pos;
    }
    return out;
}

std::vector<Strand>
reversedAll(const std::vector<Strand> &reads)
{
    std::vector<Strand> rev;
    for (const auto &r : reads)
        rev.push_back(reversed(r));
    return rev;
}

Strand
twoSided(const std::vector<Strand> &reads, size_t target_len)
{
    const size_t half = target_len / 2;
    Strand fwd = oneWay(reads, half);
    Strand bwd = oneWay(reversedAll(reads), target_len - half);
    Strand out(fwd.begin(), fwd.end());
    for (size_t i = half; i < target_len; ++i)
        out.push_back(bwd[target_len - 1 - i]);
    return out;
}

} // namespace ref

/** A strand over a random alphabet bias (some runs nearly one base). */
Strand
biasedStrand(size_t len, Rng &rng)
{
    std::array<uint64_t, kNumBases> weight{};
    for (auto &w : weight)
        w = rng.nextBelow(2) ? 1 + rng.nextBelow(20) : 1;
    uint64_t total = weight[0] + weight[1] + weight[2] + weight[3];
    Strand s(len);
    for (auto &b : s) {
        uint64_t x = rng.nextBelow(total);
        unsigned base = 0;
        while (x >= weight[base])
            x -= weight[base++];
        b = baseFromBits(base);
    }
    return s;
}

/** FNV-1a over every consensus base, in cluster order. */
uint64_t
fnv1a(uint64_t h, const Strand &s)
{
    for (Base b : s) {
        h ^= uint64_t(b);
        h *= 0x100000001b3ULL;
    }
    return h;
}

class BmaEquivalence : public ::testing::TestWithParam<simd::Level>
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

TEST_P(BmaEquivalence, RandomClustersMatchReference)
{
    Rng rng(17);
    BmaScratch bma;
    TwoSidedScratch two;
    Strand out;
    for (int iter = 0; iter < fuzzIters(600); ++iter) {
        const size_t len = rng.nextBelow(300);
        Strand original(len);
        if (rng.nextBelow(3) == 0)
            original = biasedStrand(len, rng);
        else
            for (auto &b : original)
                b = baseFromBits(unsigned(rng.nextBelow(4)));
        const double p = 0.3 * rng.nextDouble();
        IdsChannel ch(rng.nextBelow(4) == 0 ? ErrorModel::indelOnly(p)
                                            : ErrorModel::uniform(p));
        const size_t n = rng.nextBelow(41);
        std::vector<Strand> reads = ch.transmitCluster(original, n, rng);
        for (auto &r : reads) {
            // Truncated and empty reads.
            const uint64_t roll = rng.nextBelow(10);
            if (roll == 0)
                r.clear();
            else if (roll == 1 && !r.empty())
                r.resize(rng.nextBelow(r.size()));
        }
        // Target both below and above the read length.
        const size_t target = rng.nextBelow(2) == 0
            ? rng.nextBelow(len + 1)
            : len + rng.nextBelow(40);

        std::vector<StrandView> views(reads.begin(), reads.end());
        const Strand expect_fwd = ref::oneWay(reads, target);
        ASSERT_EQ(reconstructOneWay(reads, target), expect_fwd)
            << "iter " << iter << " n " << n << " target " << target;
        reconstructOneWayInto(views.data(), n, target, bma, out);
        ASSERT_EQ(out, expect_fwd) << "iter " << iter;
        reconstructOneWayReversed(views.data(), n, target, bma, out);
        ASSERT_EQ(out,
                  ref::oneWay(ref::reversedAll(reads), target))
            << "iter " << iter;
        reconstructTwoSidedInto(views.data(), n, target, two, out);
        ASSERT_EQ(out, ref::twoSided(reads, target))
            << "iter " << iter;
    }
}

TEST_P(BmaEquivalence, ArchiveScaleDigestIsUnchanged)
{
    // 1,023 clusters at archive-roundtrip's operating point: coverage
    // 10, 455 bases, 5% IDS. The digest was recorded from the
    // per-read formulation the reference above preserves.
    Rng rng(2023);
    IdsChannel ch(ErrorModel::uniform(0.05));
    uint64_t h = 0xcbf29ce484222325ULL;
    for (int c = 0; c < 1023; ++c) {
        Strand s(455);
        for (auto &b : s)
            b = baseFromBits(unsigned(rng.nextBelow(4)));
        h = fnv1a(h, reconstructTwoSided(ch.transmitCluster(s, 10, rng),
                                         455));
    }
    EXPECT_EQ(h, 0x940416e5abc5de1fULL);
}

INSTANTIATE_TEST_SUITE_P(Tiers, BmaEquivalence,
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

} // namespace
} // namespace dnastore
