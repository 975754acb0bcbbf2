#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ecc/rs.hh"
#include "util/rng.hh"

namespace dnastore {
namespace {

std::vector<uint32_t>
randomData(const ReedSolomon &rs, Rng &rng)
{
    std::vector<uint32_t> data(rs.k());
    for (auto &d : data)
        d = uint32_t(rng.nextBelow(rs.field().size()));
    return data;
}

/** Corrupt `n_err` random positions with random wrong symbols. */
std::vector<size_t>
corrupt(std::vector<uint32_t> &cw, size_t n_err, const GaloisField &gf,
        Rng &rng)
{
    std::set<size_t> positions;
    while (positions.size() < n_err)
        positions.insert(size_t(rng.nextBelow(cw.size())));
    for (size_t pos : positions) {
        uint32_t wrong;
        do {
            wrong = uint32_t(rng.nextBelow(gf.size()));
        } while (wrong == cw[pos]);
        cw[pos] = wrong;
    }
    return { positions.begin(), positions.end() };
}

TEST(ReedSolomon, EncodeProducesValidCodeword)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 32);
    EXPECT_EQ(rs.n(), 255u);
    EXPECT_EQ(rs.k(), 223u);
    Rng rng(1);
    auto cw = rs.encode(randomData(rs, rng));
    EXPECT_EQ(cw.size(), 255u);
    EXPECT_TRUE(rs.isCodeword(cw));
}

TEST(ReedSolomon, EncodeIsSystematic)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 16);
    Rng rng(2);
    auto data = randomData(rs, rng);
    auto cw = rs.encode(data);
    for (size_t i = 0; i < rs.k(); ++i)
        EXPECT_EQ(cw[i], data[i]);
}

TEST(ReedSolomon, RejectsBadParameters)
{
    GaloisField gf(4);
    EXPECT_THROW(ReedSolomon(gf, 0), std::invalid_argument);
    EXPECT_THROW(ReedSolomon(gf, 15), std::invalid_argument);
    ReedSolomon rs(gf, 4);
    EXPECT_THROW(rs.encode(std::vector<uint32_t>(3)),
                 std::invalid_argument);
}

TEST(ReedSolomon, CleanCodewordDecodesTrivially)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 20);
    Rng rng(3);
    auto cw = rs.encode(randomData(rs, rng));
    auto copy = cw;
    auto result = rs.decode(copy);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.errorsCorrected, 0u);
    EXPECT_EQ(copy, cw);
}

TEST(ReedSolomon, CorrectsErrorsUpToHalfParity)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 32); // corrects up to 16 errors
    Rng rng(4);
    for (size_t n_err : { 1u, 5u, 16u }) {
        auto cw = rs.encode(randomData(rs, rng));
        auto noisy = cw;
        corrupt(noisy, n_err, gf, rng);
        auto result = rs.decode(noisy);
        EXPECT_TRUE(result.success) << n_err << " errors";
        EXPECT_EQ(result.errorsCorrected, n_err);
        EXPECT_EQ(noisy, cw);
    }
}

TEST(ReedSolomon, DetectsUncorrectableOverload)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 8); // corrects up to 4 errors
    Rng rng(5);
    size_t failures = 0;
    const int reps = 50;
    for (int i = 0; i < reps; ++i) {
        auto cw = rs.encode(randomData(rs, rng));
        auto noisy = cw;
        corrupt(noisy, 40, gf, rng); // way beyond capability
        auto before = noisy;
        auto result = rs.decode(noisy);
        if (!result.success) {
            ++failures;
            EXPECT_EQ(noisy, before); // untouched on failure
        }
    }
    // Miscorrection probability for RS is tiny; nearly all must fail.
    EXPECT_GE(failures, size_t(reps - 2));
}

TEST(ReedSolomon, CorrectsErasuresUpToParity)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 32);
    Rng rng(6);
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    std::set<size_t> pos_set;
    while (pos_set.size() < 32)
        pos_set.insert(size_t(rng.nextBelow(noisy.size())));
    std::vector<size_t> erasures(pos_set.begin(), pos_set.end());
    for (size_t pos : erasures)
        noisy[pos] = uint32_t(rng.nextBelow(gf.size()));
    auto result = rs.decode(noisy, erasures);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.erasuresCorrected, 32u);
    EXPECT_EQ(noisy, cw);
}

TEST(ReedSolomon, MixedErrorsAndErasures)
{
    // 2*errors + erasures <= parity must decode.
    GaloisField gf(8);
    ReedSolomon rs(gf, 20);
    Rng rng(7);
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    // 8 erasures + 6 errors: 2*6 + 8 = 20 = parity (boundary case).
    std::vector<size_t> erasures;
    for (size_t i = 0; i < 8; ++i) {
        erasures.push_back(i * 25);
        noisy[i * 25] = uint32_t(rng.nextBelow(gf.size()));
    }
    std::set<size_t> erased(erasures.begin(), erasures.end());
    size_t injected = 0;
    for (size_t pos = 13; injected < 6; pos += 29) {
        if (erased.count(pos))
            continue;
        noisy[pos] ^= 0x5a;
        ++injected;
    }
    auto result = rs.decode(noisy, erasures);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(noisy, cw);
    EXPECT_EQ(result.errorsCorrected, 6u);
    EXPECT_EQ(result.erasuresCorrected, 8u);
}

TEST(ReedSolomon, TooManyErasuresFails)
{
    GaloisField gf(4);
    ReedSolomon rs(gf, 4);
    Rng rng(8);
    auto cw = rs.encode(randomData(rs, rng));
    std::vector<size_t> erasures{ 0, 1, 2, 3, 4 };
    auto result = rs.decode(cw, erasures);
    EXPECT_FALSE(result.success);
}

TEST(ReedSolomon, ErasedPositionValuesAreIgnored)
{
    // The decoder must not trust erased symbol values at all.
    GaloisField gf(8);
    ReedSolomon rs(gf, 10);
    Rng rng(9);
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    // Erase position 7 but leave the *correct* value there; and erase
    // position 100 with a garbage value.
    noisy[100] = cw[100] ^ 0x33;
    auto result = rs.decode(noisy, { 7, 100 });
    EXPECT_TRUE(result.success);
    EXPECT_EQ(noisy, cw);
}

class RsGfSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(RsGfSweep, RoundTripWithHalfCapacityErrors)
{
    GaloisField gf(GetParam());
    size_t parity = std::max<size_t>(2, gf.order() / 8) & ~size_t(1);
    ReedSolomon rs(gf, parity);
    Rng rng(GetParam());
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    corrupt(noisy, parity / 2, gf, rng);
    auto result = rs.decode(noisy);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(noisy, cw);
}

INSTANTIATE_TEST_SUITE_P(FieldSweep, RsGfSweep,
                         ::testing::Values(3u, 4u, 6u, 8u, 10u, 12u));

TEST(ReedSolomon, ZeroErrorDecodeLeavesBufferUntouchedAndCountsZero)
{
    // The all-zero-syndrome early-out must report success with zero
    // corrections and not move a single symbol.
    GaloisField gf(10);
    ReedSolomon rs(gf, 188);
    Rng rng(20);
    auto cw = rs.encode(randomData(rs, rng));
    auto copy = cw;
    for (int rep = 0; rep < 3; ++rep) { // scratch reuse across calls
        auto result = rs.decode(copy);
        EXPECT_TRUE(result.success);
        EXPECT_EQ(result.errorsCorrected, 0u);
        EXPECT_EQ(result.erasuresCorrected, 0u);
        EXPECT_EQ(copy, cw);
    }
}

TEST(ReedSolomon, ErasureOnlyDecodeSkipsChienAndMatchesFullPath)
{
    // Erasure-only decodes (Berlekamp-Massey finds no errors) take the
    // skip-Chien fast path; outcomes must be identical to the classic
    // errors-and-erasures result across many erasure patterns.
    GaloisField gf(8);
    ReedSolomon rs(gf, 32);
    Rng rng(21);
    for (int rep = 0; rep < 20; ++rep) {
        auto cw = rs.encode(randomData(rs, rng));
        auto noisy = cw;
        size_t n_erase = 1 + size_t(rng.nextBelow(32));
        std::set<size_t> pos_set;
        while (pos_set.size() < n_erase)
            pos_set.insert(size_t(rng.nextBelow(noisy.size())));
        std::vector<size_t> erasures(pos_set.begin(), pos_set.end());
        for (size_t pos : erasures)
            noisy[pos] = uint32_t(rng.nextBelow(gf.size()));
        auto result = rs.decode(noisy, erasures);
        ASSERT_TRUE(result.success) << n_erase << " erasures";
        EXPECT_EQ(result.errorsCorrected, 0u);
        EXPECT_EQ(result.erasuresCorrected, n_erase);
        EXPECT_EQ(noisy, cw);
    }
}

TEST(ReedSolomon, DuplicateErasurePositionsFail)
{
    // A repeated erasure position gives the locator a double root;
    // the decoder must reject it rather than miscount.
    GaloisField gf(8);
    ReedSolomon rs(gf, 16);
    Rng rng(22);
    auto cw = rs.encode(randomData(rs, rng));
    auto noisy = cw;
    noisy[5] ^= 0x11;
    auto before = noisy;
    auto result = rs.decode(noisy, { 5, 5 });
    EXPECT_FALSE(result.success);
    EXPECT_EQ(noisy, before);
}

TEST(ReedSolomon, ExplicitScratchMatchesThreadLocalDefault)
{
    GaloisField gf(8);
    ReedSolomon rs(gf, 20);
    Rng rng(23);
    RsScratch scratch;
    for (int rep = 0; rep < 10; ++rep) {
        auto cw = rs.encode(randomData(rs, rng));
        auto with_default = cw;
        auto with_scratch = cw;
        size_t n_err = size_t(rng.nextBelow(11));
        corrupt(with_default, n_err, gf, rng);
        with_scratch = with_default;
        auto a = rs.decode(with_default);
        auto b = rs.decode(with_scratch, {}, scratch);
        EXPECT_EQ(a.success, b.success);
        EXPECT_EQ(a.errorsCorrected, b.errorsCorrected);
        EXPECT_EQ(with_default, with_scratch);
    }
}

TEST(ReedSolomon, ScratchIsReusableAcrossDifferentCodes)
{
    // One scratch serving codes over different fields must not leak
    // state between them.
    RsScratch scratch;
    Rng rng(24);
    for (unsigned m : { 4u, 8u, 10u, 8u, 4u }) {
        GaloisField gf(m);
        size_t parity = std::max<size_t>(2, gf.order() / 8) & ~size_t(1);
        ReedSolomon rs(gf, parity);
        auto cw = rs.encode(randomData(rs, rng));
        auto noisy = cw;
        corrupt(noisy, parity / 2, gf, rng);
        auto result = rs.decode(noisy, {}, scratch);
        EXPECT_TRUE(result.success) << "m=" << m;
        EXPECT_EQ(noisy, cw);
    }
}

TEST(ReedSolomon, PaperScaleGf16Codeword)
{
    // GF(2^16): n = 65535 as in the paper's architecture. Parity kept
    // moderate so the test runs quickly; the geometry is what matters.
    GaloisField gf(16);
    ReedSolomon rs(gf, 32);
    EXPECT_EQ(rs.n(), 65535u);
    Rng rng(10);
    auto data = randomData(rs, rng);
    auto cw = rs.encode(data);
    ASSERT_TRUE(rs.isCodeword(cw));
    auto noisy = cw;
    corrupt(noisy, 16, gf, rng);
    auto result = rs.decode(noisy);
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.errorsCorrected, 16u);
    EXPECT_EQ(noisy, cw);
}

// --- Equivalence with the textbook loops the remainder kernel
// replaced: a tap-by-tap LFSR encode and an n x E Horner syndrome
// evaluation over the whole received word.

/** g(x) = prod_{i=1}^{E} (x - alpha^i), low-order first. */
std::vector<uint32_t>
referenceGenerator(const GaloisField &gf, size_t e)
{
    std::vector<uint32_t> g = { 1 };
    for (size_t i = 1; i <= e; ++i) {
        std::vector<uint32_t> next(g.size() + 1, 0);
        const uint32_t root = gf.alphaPow(i);
        for (size_t j = 0; j < g.size(); ++j) {
            next[j] ^= gf.mul(g[j], root);
            next[j + 1] ^= g[j];
        }
        g = std::move(next);
    }
    return g;
}

/** Parity of @p data by one LFSR tap at a time. */
std::vector<uint32_t>
referenceParity(const GaloisField &gf, const std::vector<uint32_t> &g,
                const std::vector<uint32_t> &data)
{
    const size_t e = g.size() - 1;
    std::vector<uint32_t> rem(e, 0);
    for (size_t i = data.size(); i-- > 0;) {
        const uint32_t f = data[i] ^ rem[e - 1];
        for (size_t j = e; j-- > 1;)
            rem[j] = rem[j - 1] ^ gf.mul(g[j], f);
        rem[0] = gf.mul(g[0], f);
    }
    return rem;
}

/**
 * True when r(alpha^j) = 0 for j = 1..E, with data position i at
 * degree E + i and parity position k + j at degree j. Eight Horner
 * chains share each pass over the word; returns at the first block
 * holding a nonzero syndrome.
 */
bool
referenceIsCodeword(const GaloisField &gf, size_t e,
                    const std::vector<uint32_t> &cw)
{
    const uint16_t *lg = gf.logData();
    const uint16_t *ex = gf.expData();
    const size_t k = cw.size() - e;
    constexpr size_t kLanes = 8;
    for (size_t j = 0; j < e; j += kLanes) {
        const size_t lanes = std::min(kLanes, e - j);
        uint32_t acc[kLanes] = {};
        auto step = [&](uint32_t c) {
            for (size_t l = 0; l < lanes; ++l) {
                const uint32_t a = acc[l];
                acc[l] = (a ? ex[lg[a] + j + 1 + l] : 0) ^ c;
            }
        };
        for (size_t i = k; i-- > 0;)
            step(cw[i]);
        for (size_t i = cw.size(); i-- > k;)
            step(cw[i]);
        for (size_t l = 0; l < lanes; ++l) {
            if (acc[l] != 0)
                return false;
        }
    }
    return true;
}

/** Encode and isCodeword on @p words random words against the references. */
void
expectMatchesReference(unsigned m, size_t e, int words, uint64_t seed)
{
    GaloisField gf(m);
    ReedSolomon rs(gf, e);
    const std::vector<uint32_t> g = referenceGenerator(gf, e);
    Rng rng(seed);
    for (int w = 0; w < words; ++w) {
        std::vector<uint32_t> data = randomData(rs, rng);
        if (w == 1)
            std::fill(data.begin(), data.end(), gf.order());
        const std::vector<uint32_t> cw = rs.encode(data);
        const std::vector<uint32_t> parity = referenceParity(gf, g, data);
        ASSERT_TRUE(std::equal(parity.begin(), parity.end(),
                               cw.begin() + long(rs.k())))
            << "m=" << m << " E=" << e << " word " << w;
        EXPECT_TRUE(rs.isCodeword(cw));
        EXPECT_TRUE(referenceIsCodeword(gf, e, cw));
        for (size_t n_err : { size_t(1), std::min<size_t>(e, 5) }) {
            std::vector<uint32_t> noisy = cw;
            corrupt(noisy, n_err, gf, rng);
            EXPECT_EQ(rs.isCodeword(noisy),
                      referenceIsCodeword(gf, e, noisy))
                << "m=" << m << " E=" << e << " errors " << n_err;
        }
    }
}

TEST(ReedSolomon, EncodeAndSyndromesMatchReferenceSmallFields)
{
    // Every parity count a code over GF(4), GF(8) and GF(16) admits.
    for (unsigned m : { 2u, 3u, 4u }) {
        const size_t n = (size_t(1) << m) - 1;
        for (size_t e = 1; e < n; ++e)
            expectMatchesReference(m, e, 4, 100 + m * 31 + e);
    }
}

TEST(ReedSolomon, EncodeAndSyndromesMatchReferenceGf256)
{
    for (size_t e = 1; e < 255; ++e)
        expectMatchesReference(8, e, 2, 400 + e);
}

TEST(ReedSolomon, EncodeAndSyndromesMatchReferenceGf1024)
{
    // Nibble-boundary and lane-boundary parity counts, the benchmark
    // operating point (E = 188) and the largest E.
    for (size_t e : { 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 47, 64, 188, 255,
                      511, 1000, 1021, 1022 })
        expectMatchesReference(10, e, 3, 700 + e);
}

TEST(ReedSolomon, EncodeAndSyndromesMatchReferenceGf65536)
{
    for (size_t e : { 1, 2, 3, 8, 16, 17, 32 })
        expectMatchesReference(16, e, 2, 900 + e);
    // The paper's geometry, RS(65535, 53477): one codeword.
    expectMatchesReference(16, 12058, 1, 901);
}

/** FNV-1a over 64-bit words. */
void
mix(uint64_t &h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 0x100000001B3ull;
    }
}

/**
 * Decode random error/erasure mixes with 2 * errors + erasures from
 * E - 2 to E + 4 (at, and beyond, capability) and fold every outcome
 * (success, both counts, the word left behind) into one digest.
 */
uint64_t
decodeOutcomeDigest(unsigned m, size_t e, int trials, uint64_t seed)
{
    GaloisField gf(m);
    ReedSolomon rs(gf, e);
    Rng rng(seed);
    RsScratch scratch;
    uint64_t h = 0xCBF29CE484222325ull;
    for (int t = 0; t < trials; ++t) {
        const std::vector<uint32_t> cw = rs.encode(randomData(rs, rng));
        const size_t weight = e - 2 + size_t(rng.nextBelow(7));
        const size_t n_erase = size_t(rng.nextBelow(
            std::min(weight, e) + 1));
        const size_t n_err = (weight - n_erase + 1) / 2;
        std::vector<uint32_t> noisy = cw;
        std::vector<size_t> bad = corrupt(noisy, n_erase + n_err, gf, rng);
        std::vector<size_t> erasures(bad.begin(),
                                     bad.begin() + long(n_erase));
        const RsDecodeResult r = rs.decode(noisy, erasures, scratch);
        mix(h, uint64_t(r.success));
        mix(h, r.errorsCorrected);
        mix(h, r.erasuresCorrected);
        for (uint32_t sym : noisy)
            mix(h, sym);
    }
    return h;
}

TEST(ReedSolomon, DecodeOutcomesMatchRecordedDigests)
{
    // Digests recorded from the decoder whose syndromes were an n x E
    // Horner over the whole received word; the remainder kernel must
    // reproduce every success flag, count and corrected word.
    struct Case
    {
        unsigned m;
        size_t e;
        uint64_t digest;
    };
    const Case cases[] = {
        { 4, 6, 16680814149165044583ull },
        { 8, 16, 6746767370703346081ull },
        { 8, 47, 4491685167533270598ull },
        { 10, 188, 14495120483116007383ull },
    };
    for (const Case &c : cases) {
        EXPECT_EQ(decodeOutcomeDigest(c.m, c.e, 200, c.m * 1000 + c.e),
                  c.digest)
            << "m=" << c.m << " E=" << c.e;
    }
}

} // namespace
} // namespace dnastore
