#include "util/frame.hh"

#include "util/byteio.hh"
#include "util/crc32.hh"

namespace dnastore {

void
appendFrame(const FrameFormat &format, std::vector<uint8_t> &out,
            const uint8_t *payload, size_t n)
{
    ByteWriter header;
    header.u32(format.magic);
    header.u32(uint32_t(n));
    header.u32(crc32(payload, n));
    out.insert(out.end(), header.data().begin(), header.data().end());
    out.insert(out.end(), payload, payload + n);
}

FrameParse
parseFrame(const FrameFormat &format, const uint8_t *bytes, size_t n)
{
    FrameParse out;
    if (n < kFrameHeaderBytes)
        return out;
    ByteReader header(bytes, kFrameHeaderBytes);
    const uint32_t magic = header.u32();
    const uint32_t length = header.u32();
    const uint32_t crc = header.u32();
    const uint8_t *payload = bytes + kFrameHeaderBytes;
    if (magic != format.magic)
        out.error = "bad frame magic (wrong format or peer)";
    else if (length == 0 || length > format.maxPayload)
        out.error = "frame length outside [1, format maximum] "
                    "(corrupted length field)";
    else if (n < kFrameHeaderBytes + length)
        out.frameBytes = kFrameHeaderBytes + length;
    else if (crc32(payload, length) != crc)
        out.error = "frame payload CRC mismatch (corrupted payload)";
    else
        out = { FrameStatus::Ok, payload, length,
                kFrameHeaderBytes + length, nullptr };
    if (out.error != nullptr)
        out.status = FrameStatus::Bad;
    return out;
}

} // namespace dnastore
