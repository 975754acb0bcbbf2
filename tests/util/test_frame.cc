/**
 * The shared frame codec's contract beyond what the daemon's and the
 * spill chunks' every-byte/every-truncation sweeps pin: the total
 * length a NeedMore reports (readers size buffers from it), the
 * length bounds of each format, format separation by magic,
 * back-to-back parsing, and the exact header bytes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/byteio.hh"
#include "util/frame.hh"

using namespace dnastore;

namespace {

const FrameFormat kFormats[] = { kServerFrame, kSpillFrame };

std::vector<uint8_t>
framed(const FrameFormat &format, const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> out;
    appendFrame(format, out, payload.data(), payload.size());
    return out;
}

/** A bare header claiming @p length payload bytes. */
std::vector<uint8_t>
headerClaiming(const FrameFormat &format, uint32_t length)
{
    ByteWriter w;
    w.u32(format.magic);
    w.u32(length);
    w.u32(0);
    return w.take();
}

} // namespace

TEST(FrameCodec, NeedMoreReportsTheFullLengthOnceTheHeaderIsValid)
{
    const std::vector<uint8_t> payload(100, 0x5a);
    for (const FrameFormat &format : kFormats) {
        const std::vector<uint8_t> wire = framed(format, payload);
        ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());
        for (size_t n = 0; n < wire.size(); ++n) {
            const FrameParse got = parseFrame(format, wire.data(), n);
            ASSERT_EQ(got.status, FrameStatus::NeedMore) << "n " << n;
            EXPECT_EQ(got.frameBytes,
                      n < kFrameHeaderBytes ? 0u : wire.size())
                << "n " << n;
            EXPECT_EQ(got.payload, nullptr) << "n " << n;
        }
        const FrameParse whole =
            parseFrame(format, wire.data(), wire.size());
        ASSERT_EQ(whole.status, FrameStatus::Ok);
        EXPECT_EQ(whole.frameBytes, wire.size());
        EXPECT_EQ(whole.payload, wire.data() + kFrameHeaderBytes);
        EXPECT_EQ(whole.payloadBytes, payload.size());

        // The largest legal length is still only NeedMore from its
        // header, with the total a reader would allocate.
        const std::vector<uint8_t> at_max =
            headerClaiming(format, format.maxPayload);
        const FrameParse big =
            parseFrame(format, at_max.data(), at_max.size());
        EXPECT_EQ(big.status, FrameStatus::NeedMore);
        EXPECT_EQ(big.frameBytes,
                  kFrameHeaderBytes + size_t(format.maxPayload));
    }
}

TEST(FrameCodec, ZeroAndOverMaximumLengthsAreBad)
{
    for (const FrameFormat &format : kFormats) {
        for (uint32_t length : { 0u, format.maxPayload + 1 }) {
            const std::vector<uint8_t> header =
                headerClaiming(format, length);
            const FrameParse got =
                parseFrame(format, header.data(), header.size());
            ASSERT_EQ(got.status, FrameStatus::Bad)
                << "length " << length;
            EXPECT_NE(std::string(got.error).find("length"),
                      std::string::npos);
            EXPECT_EQ(got.frameBytes, 0u);
        }
        // Framed through appendFrame too: an empty payload frames
        // but never parses.
        const std::vector<uint8_t> empty = framed(format, {});
        EXPECT_EQ(parseFrame(format, empty.data(), empty.size()).status,
                  FrameStatus::Bad);
    }
}

TEST(FrameCodec, FormatsRejectEachOthersFrames)
{
    const std::vector<uint8_t> payload = { 1, 2, 3, 4 };
    const std::vector<uint8_t> server = framed(kServerFrame, payload);
    const std::vector<uint8_t> spill = framed(kSpillFrame, payload);
    const FrameParse a =
        parseFrame(kSpillFrame, server.data(), server.size());
    const FrameParse b =
        parseFrame(kServerFrame, spill.data(), spill.size());
    for (const FrameParse &got : { a, b }) {
        ASSERT_EQ(got.status, FrameStatus::Bad);
        EXPECT_NE(std::string(got.error).find("magic"),
                  std::string::npos);
    }
}

TEST(FrameCodec, BackToBackFramesParseInOrder)
{
    const std::vector<std::vector<uint8_t>> payloads = {
        { 0x01 }, std::vector<uint8_t>(300, 0xA5), { 'x', 'y', 'z' }
    };
    for (const FrameFormat &format : kFormats) {
        std::vector<uint8_t> wire;
        for (const auto &p : payloads)
            appendFrame(format, wire, p.data(), p.size());
        size_t pos = 0;
        for (const auto &p : payloads) {
            const FrameParse got =
                parseFrame(format, wire.data() + pos, wire.size() - pos);
            ASSERT_EQ(got.status, FrameStatus::Ok);
            EXPECT_EQ(std::vector<uint8_t>(got.payload,
                                           got.payload + got.payloadBytes),
                      p);
            pos += got.frameBytes;
        }
        EXPECT_EQ(pos, wire.size());
    }
}

TEST(FrameCodec, HeaderBytesAreTheFixedLittleEndianLayout)
{
    // CRC-32("abc") = 0x352441C2.
    const std::vector<uint8_t> abc = { 'a', 'b', 'c' };
    const std::vector<uint8_t> len_crc_payload = {
        3, 0, 0, 0, 0xC2, 0x41, 0x24, 0x35, 'a', 'b', 'c'
    };
    std::vector<uint8_t> server = { 'D', 'S', 'R', 'V' };
    server.insert(server.end(), len_crc_payload.begin(),
                  len_crc_payload.end());
    std::vector<uint8_t> spill = { 'D', 'S', 'P', 'L' };
    spill.insert(spill.end(), len_crc_payload.begin(),
                 len_crc_payload.end());
    EXPECT_EQ(framed(kServerFrame, abc), server);
    EXPECT_EQ(framed(kSpillFrame, abc), spill);
}
