#include "api/pool_file.hh"

#include <array>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "api/options.hh"
#include "util/byteio.hh"
#include "util/crc32.hh"

namespace dnastore {
namespace api {

namespace {

const char kMagic[8] = { 'D', 'N', 'A', 'P', 'O', 'O', 'L', '\0' };
constexpr size_t kHeaderBytes = 20;

/** Two-bit pack a strand after a u32 length prefix, 4 bases a byte. */
void
writeStrand(ByteWriter &w, const Strand &s)
{
    const size_t len = s.size();
    w.u32(uint32_t(len));
    uint8_t *out = w.extend((len + 3) / 4);
    const auto *b = reinterpret_cast<const uint8_t *>(s.data());
    const size_t full = len / 4;
    for (size_t i = 0; i < full; ++i, b += 4)
        out[i] = uint8_t(b[0] | b[1] << 2 | b[2] << 4 | b[3] << 6);
    for (size_t i = 0; i < len % 4; ++i)
        out[full] |= uint8_t(b[i] << (2 * i));
}

/** The four bases each packed byte holds, lowest bit pair first. */
const std::array<std::array<Base, 4>, 256> &
unpackTable()
{
    static const auto table = [] {
        std::array<std::array<Base, 4>, 256> t{};
        for (unsigned v = 0; v < 256; ++v) {
            for (unsigned i = 0; i < 4; ++i)
                t[v][i] = baseFromBits(v >> (2 * i));
        }
        return t;
    }();
    return table;
}

/** Inverse of writeStrand; false when the reader underflows. */
bool
readStrand(ByteReader &r, Strand &out)
{
    const uint32_t len = r.u32();
    const uint8_t *packed = r.view((size_t(len) + 3) / 4);
    if (!r.ok())
        return false;
    const auto &table = unpackTable();
    out.resize(len);
    Base *b = out.data();
    const size_t full = len / 4;
    for (size_t i = 0; i < full; ++i, b += 4)
        std::memcpy(b, table[packed[i]].data(), 4);
    if (len % 4 != 0)
        std::memcpy(b, table[packed[full]].data(), len % 4);
    return true;
}

void
writeConfig(ByteWriter &w, const PoolFileContents &c)
{
    w.u32(c.config.symbolBits);
    w.u64(c.config.rows);
    w.u64(c.config.paritySymbols);
    w.u64(c.config.primerLen);
    w.u64(c.config.primerKey);
    w.u8(uint8_t(c.scheme));
    w.u64(c.unitSeed);
}

void
writeManifest(ByteWriter &w, const PoolFileContents &c)
{
    w.u32(uint32_t(c.manifest.fileCount()));
    for (const auto &f : c.manifest.files()) {
        w.u8(uint8_t(f.name.size()));
        w.str(f.name);
        w.u64(f.data.size());
        w.bytes(f.data);
    }
}

void
writeUnit(ByteWriter &w, const PoolFileContents &c)
{
    w.u64(c.payloadBits);
    w.u64(c.strands.size());
    for (const auto &s : c.strands)
        writeStrand(w, s);
}

void
writePools(ByteWriter &w, const PoolFileContents &c)
{
    w.u64(c.pools.size());
    w.u64(c.poolMaxCoverage);
    // Pools may be ragged (aging loses whole reads), so each cluster
    // carries its own read count (v2 of the format).
    for (const auto &cluster : c.pools) {
        w.u32(uint32_t(cluster.size()));
        for (const auto &read : cluster)
            writeStrand(w, read);
    }
}

/**
 * One section, written straight into @p out: id, a length patched
 * once @p write has appended the payload, then the CRC over all three.
 */
void
appendSection(ByteWriter &out, uint32_t id, const PoolFileContents &c,
              void (*write)(ByteWriter &, const PoolFileContents &))
{
    const size_t begin = out.size();
    out.u32(id);
    out.u64(0);
    write(out, c);
    out.u64At(begin + 4, out.size() - begin - 12);
    out.u32(crc32(out.data().data() + begin, out.size() - begin));
}

Status
malformed(uint32_t id)
{
    return Status::failedPrecondition(formatMessage(
        "pool file '%s' section is malformed (checksum valid, "
        "structure is not ours)",
        poolSectionName(id)));
}

Status
corrupted(const char *what)
{
    return Status::dataLoss(formatMessage(
        "pool file corrupted: '%s' section failed its checksum "
        "(truncation or bit rot)",
        what));
}

Status
parseConfig(ByteReader r, PoolFileContents &c)
{
    c.config = StorageConfig();
    c.config.symbolBits = unsigned(r.u32());
    c.config.rows = size_t(r.u64());
    c.config.paritySymbols = size_t(r.u64());
    c.config.primerLen = size_t(r.u64());
    c.config.primerKey = r.u64();
    const uint8_t scheme = r.u8();
    c.unitSeed = r.u64();
    if (!r.ok() || r.remaining() != 0)
        return malformed(kSectionConfig);
    if (scheme > uint8_t(LayoutScheme::DnaMapper))
        return Status::failedPrecondition(formatMessage(
            "pool file names unknown layout scheme id %u", scheme));
    c.scheme = LayoutScheme(scheme);
    if (const char *err = c.config.check())
        return Status::failedPrecondition(formatMessage(
            "pool file geometry is invalid: %s", err));
    return Status();
}

Status
parseManifest(ByteReader r, PoolFileContents &c)
{
    const uint32_t count = r.u32();
    c.manifest = FileBundle();
    for (uint32_t i = 0; i < count; ++i) {
        const uint8_t name_len = r.u8();
        std::string name = r.str(name_len);
        const uint64_t data_len = r.u64();
        if (!r.ok() || data_len > r.remaining())
            return malformed(kSectionManifest);
        std::vector<uint8_t> data = r.vec(size_t(data_len));
        try {
            c.manifest.add(name, std::move(data));
        } catch (const std::invalid_argument &) {
            return malformed(kSectionManifest);
        }
    }
    if (!r.ok() || r.remaining() != 0)
        return malformed(kSectionManifest);
    return Status();
}

Status
parseUnit(ByteReader r, PoolFileContents &c)
{
    c.payloadBits = size_t(r.u64());
    const uint64_t strand_count = r.u64();
    if (!r.ok() || strand_count > r.remaining())
        return malformed(kSectionUnit);
    c.strands.assign(size_t(strand_count), Strand());
    for (auto &s : c.strands) {
        if (!readStrand(r, s))
            return malformed(kSectionUnit);
    }
    if (r.remaining() != 0)
        return malformed(kSectionUnit);
    return Status();
}

Status
parsePools(ByteReader r, PoolFileContents &c)
{
    const uint64_t cluster_count = r.u64();
    const uint64_t max_coverage = r.u64();
    if (!r.ok() || cluster_count > r.remaining() ||
        max_coverage > r.remaining())
        return malformed(kSectionPools);
    c.pools.assign(size_t(cluster_count), {});
    for (auto &cluster : c.pools) {
        const uint32_t reads = r.u32();
        if (!r.ok() || reads > max_coverage ||
            reads > r.remaining())
            return malformed(kSectionPools);
        cluster.assign(size_t(reads), Strand());
        for (auto &read : cluster) {
            if (!readStrand(r, read))
                return malformed(kSectionPools);
        }
    }
    if (r.remaining() != 0)
        return malformed(kSectionPools);
    c.hasPools = true;
    c.poolMaxCoverage = size_t(max_coverage);
    return Status();
}

/**
 * Walk the section skeleton: ids, payload spans, CRC verdicts. The
 * shared core of parsePoolFile and poolFileSections, so a file the
 * parser rejects is rejected identically by the span enumerator.
 */
Status
walkSections(const std::vector<uint8_t> &bytes,
             std::vector<PoolFileSection> &sections)
{
    // Magic first: a foreign file should read as "not ours", not as a
    // corrupted pool file, even when it is shorter than our header.
    if (bytes.size() >= sizeof(kMagic) &&
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return Status::failedPrecondition(
            "not a dnastore pool file (bad magic)");
    if (bytes.size() < kHeaderBytes)
        return corrupted("header");
    ByteReader header(bytes.data(), kHeaderBytes);
    header.skip(sizeof(kMagic));
    const uint32_t version = header.u32();
    const uint32_t section_count = header.u32();
    const uint32_t header_crc = header.u32();
    // The CRC covers the version field and is checked before it: a
    // flipped version byte is bit rot (DataLoss), not a future file.
    if (crc32(bytes.data(), 16) != header_crc)
        return corrupted("header");
    if (version != kPoolFormatVersion)
        return Status::failedPrecondition(formatMessage(
            "pool file format version %u is not supported by this "
            "build (supported: %u)",
            version, kPoolFormatVersion));
    sections.push_back({ 0, 0, kHeaderBytes, "header" });

    ByteReader r(bytes.data(), bytes.size());
    r.skip(kHeaderBytes);
    for (uint32_t i = 0; i < section_count; ++i) {
        const size_t begin = r.pos();
        const uint32_t id = r.u32();
        const uint64_t len = r.u64();
        // Bound before touching the payload: a corrupted length must
        // fail the CRC of what is actually there, not walk off the
        // end. remaining() must still cover payload + trailing CRC.
        if (!r.ok() || len > r.remaining() ||
            r.remaining() - size_t(len) < 4) {
            return corrupted(r.ok() ? poolSectionName(id) : "header");
        }
        r.skip(size_t(len));
        const uint32_t stored_crc = r.u32();
        if (crc32(bytes.data() + begin, 12 + size_t(len)) != stored_crc)
            return corrupted(poolSectionName(id));
        sections.push_back(
            { id, begin, r.pos(), poolSectionName(id) });
    }
    if (r.remaining() != 0)
        return Status::dataLoss(formatMessage(
            "pool file has %zu trailing bytes after the last section",
            r.remaining()));
    return Status();
}

} // namespace

const char *
poolSectionName(uint32_t id)
{
    switch (id) {
    case kSectionConfig:
        return "config";
    case kSectionManifest:
        return "manifest";
    case kSectionUnit:
        return "unit";
    case kSectionPools:
        return "pools";
    default:
        return "unknown";
    }
}

std::vector<uint8_t>
serializePoolFile(const PoolFileContents &contents)
{
    ByteWriter header;
    header.bytes(reinterpret_cast<const uint8_t *>(kMagic),
                 sizeof(kMagic));
    header.u32(kPoolFormatVersion);
    const uint32_t section_count = contents.hasPools ? 4 : 3;
    header.u32(section_count);
    header.u32(crc32(header.data()));

    ByteWriter out;
    out.bytes(header.data());
    appendSection(out, kSectionConfig, contents, writeConfig);
    appendSection(out, kSectionManifest, contents, writeManifest);
    appendSection(out, kSectionUnit, contents, writeUnit);
    if (contents.hasPools)
        appendSection(out, kSectionPools, contents, writePools);
    return out.take();
}

Result<PoolFileContents>
parsePoolFile(const std::vector<uint8_t> &bytes)
{
    std::vector<PoolFileSection> sections;
    Status status = walkSections(bytes, sections);
    if (!status.ok())
        return status;

    PoolFileContents out;
    bool seen[5] = { false, false, false, false, false };
    for (const PoolFileSection &s : sections) {
        if (s.id == 0)
            continue; // Header span.
        if (s.id <= kSectionPools) {
            if (seen[s.id])
                return Status::failedPrecondition(formatMessage(
                    "pool file repeats its '%s' section", s.name));
            seen[s.id] = true;
        }
        // CRC already verified by walkSections; payload starts after
        // the 12-byte id+length prefix and stops before the CRC.
        const ByteReader payload(bytes.data() + s.begin + 12,
                                 s.end - s.begin - 16);
        switch (s.id) {
        case kSectionConfig:
            status = parseConfig(payload, out);
            break;
        case kSectionManifest:
            status = parseManifest(payload, out);
            break;
        case kSectionUnit:
            status = parseUnit(payload, out);
            break;
        case kSectionPools:
            status = parsePools(payload, out);
            break;
        default:
            break; // Unknown id, valid CRC: a later revision's
                   // optional section. Skip it.
        }
        if (!status.ok())
            return status;
    }
    for (uint32_t id : { uint32_t(kSectionConfig),
                         uint32_t(kSectionManifest),
                         uint32_t(kSectionUnit) }) {
        if (!seen[id])
            return Status::failedPrecondition(formatMessage(
                "pool file is missing its mandatory '%s' section",
                poolSectionName(id)));
    }
    if (out.hasPools && out.pools.size() != out.strands.size())
        return Status::failedPrecondition(
            "pool file's pools do not match its unit (cluster count "
            "!= strand count)");
    return out;
}

Status
writePoolFile(const std::string &path, const PoolFileContents &contents)
{
    const std::vector<uint8_t> bytes = serializePoolFile(contents);
    // Crash-safe replacement: stream into a sibling temp file, flush
    // it to stable storage, then rename() over the target. A crash or
    // power loss mid-save leaves any previous good file untouched (at
    // worst plus a stale .tmp sibling, overwritten by the next save).
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return Status::unavailable(formatMessage(
            "cannot open '%s' for writing", tmp.c_str()));
    const size_t written =
        bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool synced = std::fflush(f) == 0;
#ifndef _WIN32
    synced = synced && ::fsync(fileno(f)) == 0;
#endif
    const bool closed = std::fclose(f) == 0;
    if (written != bytes.size() || !synced || !closed) {
        std::remove(tmp.c_str());
        return Status::unavailable(formatMessage(
            "write to '%s' failed (%zu of %zu bytes durable)",
            tmp.c_str(), written, bytes.size()));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status::unavailable(formatMessage(
            "cannot move '%s' into place as '%s'", tmp.c_str(),
            path.c_str()));
    }
    return Status();
}

Result<PoolFileContents>
readPoolFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return Status::notFound(formatMessage(
            "cannot open pool file '%s'", path.c_str()));
    std::vector<uint8_t> bytes;
    uint8_t buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        return Status::unavailable(formatMessage(
            "I/O error reading pool file '%s'", path.c_str()));
    return parsePoolFile(bytes);
}

Result<std::vector<PoolFileSection>>
poolFileSections(const std::vector<uint8_t> &bytes)
{
    std::vector<PoolFileSection> sections;
    Status status = walkSections(bytes, sections);
    if (!status.ok())
        return status;
    return sections;
}

} // namespace api
} // namespace dnastore
