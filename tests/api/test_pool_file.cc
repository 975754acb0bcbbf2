/**
 * The `.dnapool` format itself: round trips with and without pools,
 * the corruption contract (one flipped byte in ANY section surfaces
 * as DataLoss naming that section, because every CRC is verified
 * before its payload is parsed), the version gate (an intact header
 * carrying an unknown version is FailedPrecondition, a corrupted
 * version byte is DataLoss), and truncation/trailing-byte handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/pool_file.hh"
#include "util/crc32.hh"

using namespace dnastore;
using namespace dnastore::api;

namespace {

Strand
strandOf(const char *acgt)
{
    return strandFromString(acgt);
}

/** A small, fully-populated contents value (pools included). */
PoolFileContents
sampleContents()
{
    PoolFileContents c;
    c.config = StorageConfig::tinyTest();
    c.config.primerKey = 7;
    c.scheme = LayoutScheme::DnaMapper;
    c.unitSeed = 0xDEADBEEFCAFEF00Dull;
    c.manifest.add("a.bin", { 1, 2, 3, 4 });
    c.manifest.add("b.bin", { 250, 251 });
    c.payloadBits = 1234;
    c.strands = { strandOf("ACGTACGTA"), strandOf("TTTT"),
                  strandOf("GCGCGCG") };
    c.hasPools = true;
    c.poolMaxCoverage = 2;
    c.pools = {
        { strandOf("ACGTACGT"), strandOf("ACGTACG") },
        { strandOf("TTT"), strandOf("TTTTT") },
        { strandOf("GCGC"), strandOf("GCGCG") },
    };
    return c;
}

void
expectEqual(const PoolFileContents &a, const PoolFileContents &b)
{
    EXPECT_EQ(a.config.symbolBits, b.config.symbolBits);
    EXPECT_EQ(a.config.rows, b.config.rows);
    EXPECT_EQ(a.config.paritySymbols, b.config.paritySymbols);
    EXPECT_EQ(a.config.primerLen, b.config.primerLen);
    EXPECT_EQ(a.config.primerKey, b.config.primerKey);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.unitSeed, b.unitSeed);
    ASSERT_EQ(a.manifest.fileCount(), b.manifest.fileCount());
    for (size_t i = 0; i < a.manifest.fileCount(); ++i) {
        EXPECT_EQ(a.manifest.file(i).name, b.manifest.file(i).name);
        EXPECT_EQ(a.manifest.file(i).data, b.manifest.file(i).data);
    }
    EXPECT_EQ(a.payloadBits, b.payloadBits);
    EXPECT_EQ(a.strands, b.strands);
    EXPECT_EQ(a.hasPools, b.hasPools);
    EXPECT_EQ(a.poolMaxCoverage, b.poolMaxCoverage);
    EXPECT_EQ(a.pools, b.pools);
}

} // namespace

TEST(PoolFileFormat, RoundTripWithPools)
{
    const PoolFileContents original = sampleContents();
    const std::vector<uint8_t> bytes = serializePoolFile(original);
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    expectEqual(original, *parsed);
}

TEST(PoolFileFormat, RoundTripWithoutPools)
{
    PoolFileContents original = sampleContents();
    original.hasPools = false;
    original.poolMaxCoverage = 0;
    original.pools.clear();
    const std::vector<uint8_t> bytes = serializePoolFile(original);
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    expectEqual(original, *parsed);
    EXPECT_FALSE(parsed->hasPools);
}

TEST(PoolFileFormat, SerializationIsDeterministic)
{
    // Identical contents -> identical bytes, the property behind the
    // CI's pack -> unpack -> byte-compare round trip.
    const PoolFileContents c = sampleContents();
    EXPECT_EQ(serializePoolFile(c), serializePoolFile(c));
}

namespace {

/**
 * Contents exercising every strand-packing case: unit strands of
 * lengths 0..9 (each tail of a 4-bases-per-byte pack) and a ragged
 * pool whose clusters hold 0..3 reads of varied lengths.
 */
PoolFileContents
goldenContents()
{
    PoolFileContents c;
    c.config = StorageConfig::tinyTest();
    c.config.primerKey = 11;
    c.scheme = LayoutScheme::Gini;
    c.unitSeed = 0x0123456789ABCDEFull;
    c.manifest.add("x.bin", { 0, 255, 17 });
    c.payloadBits = 777;
    const char *acgt = "ACGTTGCAAC";
    for (size_t len = 0; len <= 9; ++len)
        c.strands.push_back(strandFromString(std::string(acgt + 9 - len,
                                                         len)));
    c.hasPools = true;
    c.poolMaxCoverage = 3;
    c.pools.resize(c.strands.size());
    for (size_t i = 0; i < c.pools.size(); ++i) {
        for (size_t r = 0; r < i % 4; ++r)
            c.pools[i].push_back(strandFromString(
                std::string(acgt + r, (i + 3 * r) % 8)));
    }
    return c;
}

/** FNV-1a, independent of the CRC the format itself embeds. */
uint64_t
fnv1a(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001B3ull;
    }
    return h;
}

} // namespace

TEST(PoolFileFormat, GoldenBytes)
{
    // Pins the on-disk bytes: any change to strand packing, section
    // framing or the CRC shows here, whatever the round trip says.
    const PoolFileContents c = goldenContents();
    const std::vector<uint8_t> bytes = serializePoolFile(c);
    EXPECT_EQ(bytes.size(), 348u);
    EXPECT_EQ(fnv1a(bytes), 3597253407332757191ull);
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    expectEqual(c, *parsed);
}

TEST(PoolFileFormat, SectionSpansCoverTheWholeFile)
{
    const std::vector<uint8_t> bytes =
        serializePoolFile(sampleContents());
    Result<std::vector<PoolFileSection>> sections =
        poolFileSections(bytes);
    ASSERT_TRUE(sections.ok()) << sections.status().toString();
    // Header + config + manifest + unit + pools, contiguous.
    ASSERT_EQ(sections->size(), 5u);
    EXPECT_STREQ((*sections)[0].name, "header");
    EXPECT_STREQ((*sections)[1].name, "config");
    EXPECT_STREQ((*sections)[2].name, "manifest");
    EXPECT_STREQ((*sections)[3].name, "unit");
    EXPECT_STREQ((*sections)[4].name, "pools");
    EXPECT_EQ((*sections)[0].begin, 0u);
    for (size_t i = 1; i < sections->size(); ++i)
        EXPECT_EQ((*sections)[i].begin, (*sections)[i - 1].end);
    EXPECT_EQ(sections->back().end, bytes.size());
}

// The core durability contract: flip ONE byte anywhere inside ANY
// section (its length fields included) and the parse must fail with
// DataLoss naming exactly that section — never a misparse, never a
// crash, never the wrong section's name.
TEST(PoolFileFormat, SingleByteCorruptionInEverySectionIsNamedDataLoss)
{
    const std::vector<uint8_t> bytes =
        serializePoolFile(sampleContents());
    Result<std::vector<PoolFileSection>> sections =
        poolFileSections(bytes);
    ASSERT_TRUE(sections.ok());

    for (const PoolFileSection &section : *sections) {
        // The first 8 header bytes are the magic: corrupting those
        // reports "wrong file type" instead (tested separately), so
        // start the header span after the magic.
        const size_t begin =
            section.id == 0 ? section.begin + 8 : section.begin;
        for (size_t pos = begin; pos < section.end; ++pos) {
            std::vector<uint8_t> corrupt = bytes;
            corrupt[pos] ^= 0x20;
            Result<PoolFileContents> parsed = parsePoolFile(corrupt);
            ASSERT_FALSE(parsed.ok())
                << section.name << " byte " << pos;
            EXPECT_EQ(parsed.status().code(), StatusCode::DataLoss)
                << section.name << " byte " << pos << ": "
                << parsed.status().toString();
            // A flip inside the 4-byte section-id field still fails
            // the CRC, but the reported name is derived from the
            // (now rotted) id — only payload/length/CRC bytes can be
            // attributed to the section by name.
            const bool in_id_field =
                section.id != 0 && pos < section.begin + 4;
            if (!in_id_field) {
                EXPECT_NE(
                    parsed.status().message().find(section.name),
                    std::string::npos)
                    << section.name << " byte " << pos << ": "
                    << parsed.status().toString();
            }
        }
    }
}

TEST(PoolFileFormat, UnknownVersionWithIntactHeaderIsFailedPrecondition)
{
    std::vector<uint8_t> bytes = serializePoolFile(sampleContents());
    // Bump the version field (offset 8, LE u32) to a future value and
    // RE-SIGN the header so it is intact — this is a future writer's
    // file, not bit rot.
    bytes[8] = uint8_t(kPoolFormatVersion + 1);
    const uint32_t new_crc = crc32(bytes.data(), 16);
    for (int i = 0; i < 4; ++i)
        bytes[16 + size_t(i)] = uint8_t(new_crc >> (8 * i));
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::FailedPrecondition)
        << parsed.status().toString();
    EXPECT_NE(parsed.status().message().find("version"),
              std::string::npos);
}

TEST(PoolFileFormat, WrongMagicIsFailedPrecondition)
{
    std::vector<uint8_t> bytes = serializePoolFile(sampleContents());
    bytes[0] = 'X';
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::FailedPrecondition);

    // A file that is something else entirely.
    const std::string text = "not a pool file at all";
    Result<PoolFileContents> other = parsePoolFile(std::vector<uint8_t>(
        text.begin(), text.end()));
    ASSERT_FALSE(other.ok());
    EXPECT_EQ(other.status().code(), StatusCode::FailedPrecondition);
}

TEST(PoolFileFormat, TruncationAtEveryLengthIsAnError)
{
    const std::vector<uint8_t> bytes =
        serializePoolFile(sampleContents());
    for (size_t len = 0; len < bytes.size(); ++len) {
        std::vector<uint8_t> cut(bytes.begin(),
                                 bytes.begin() + long(len));
        Result<PoolFileContents> parsed = parsePoolFile(cut);
        ASSERT_FALSE(parsed.ok()) << "length " << len;
        EXPECT_EQ(parsed.status().code(), StatusCode::DataLoss)
            << "length " << len << ": " << parsed.status().toString();
    }
}

TEST(PoolFileFormat, TrailingBytesAreDataLoss)
{
    std::vector<uint8_t> bytes = serializePoolFile(sampleContents());
    bytes.push_back(0xAB);
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::DataLoss);
    EXPECT_NE(parsed.status().message().find("trailing"),
              std::string::npos);
}

TEST(PoolFileFormat, ReadMissingFileIsNotFound)
{
    Result<PoolFileContents> parsed =
        readPoolFile("/nonexistent/no/such.dnapool");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::NotFound);
}

TEST(PoolFileFormat, WriteReadFileRoundTrip)
{
    const PoolFileContents original = sampleContents();
    const std::string path =
        testing::TempDir() + "pool_file_round_trip.dnapool";
    ASSERT_TRUE(writePoolFile(path, original).ok());
    Result<PoolFileContents> parsed = readPoolFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    expectEqual(original, *parsed);
    std::remove(path.c_str());
}

// Zip-slip defense: a pool file whose manifest names an object
// "../x" (valid CRC, crafted bytes) must be rejected at parse time —
// names that could escape an unpack directory never reach callers.
TEST(PoolFileFormat, TraversalNameInManifestIsRejected)
{
    std::vector<uint8_t> bytes = serializePoolFile(sampleContents());
    Result<std::vector<PoolFileSection>> sections =
        poolFileSections(bytes);
    ASSERT_TRUE(sections.ok());
    const PoolFileSection &manifest = (*sections)[2];
    ASSERT_STREQ(manifest.name, "manifest");
    // Payload: u32 count, u8 name_len, then the first name ("a.bin",
    // 5 bytes). Swap in a same-length traversal name and RE-SIGN the
    // section CRC so only the name rule can reject the file.
    const size_t name_at = manifest.begin + 12 + 4 + 1;
    const std::string evil = "../.b";
    std::copy(evil.begin(), evil.end(), bytes.begin() + long(name_at));
    const uint32_t crc = crc32(bytes.data() + manifest.begin,
                               manifest.end - manifest.begin - 4);
    for (int i = 0; i < 4; ++i)
        bytes[manifest.end - 4 + size_t(i)] = uint8_t(crc >> (8 * i));
    Result<PoolFileContents> parsed = parsePoolFile(bytes);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::FailedPrecondition)
        << parsed.status().toString();
    EXPECT_NE(parsed.status().message().find("manifest"),
              std::string::npos);
}

// Saves replace atomically: a successful save leaves no ".tmp"
// sibling behind, saving over an existing file round-trips, and a
// failing save is Unavailable (never a half-written target).
TEST(PoolFileFormat, WriteIsAtomicReplacement)
{
    const std::string path =
        testing::TempDir() + "pool_file_atomic.dnapool";
    ASSERT_TRUE(writePoolFile(path, sampleContents()).ok());
    std::FILE *tmp = std::fopen((path + ".tmp").c_str(), "rb");
    EXPECT_EQ(tmp, nullptr) << "stale temp file left behind";
    if (tmp != nullptr)
        std::fclose(tmp);

    PoolFileContents second = sampleContents();
    second.unitSeed = 1;
    ASSERT_TRUE(writePoolFile(path, second).ok());
    Result<PoolFileContents> parsed = readPoolFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed->unitSeed, 1u);
    std::remove(path.c_str());

    Status bad =
        writePoolFile("/nonexistent/dir/x.dnapool", sampleContents());
    EXPECT_EQ(bad.code(), StatusCode::Unavailable);
}

TEST(PoolFileFormat, SectionNames)
{
    EXPECT_STREQ(poolSectionName(kSectionConfig), "config");
    EXPECT_STREQ(poolSectionName(kSectionManifest), "manifest");
    EXPECT_STREQ(poolSectionName(kSectionUnit), "unit");
    EXPECT_STREQ(poolSectionName(kSectionPools), "pools");
    EXPECT_STREQ(poolSectionName(99), "unknown");
}
