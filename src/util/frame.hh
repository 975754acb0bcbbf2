/**
 * @file
 * The one CRC-framed record codec.
 *
 * dnastored's request/response frames and the streaming clusterer's
 * spill chunks share one layout (all integers little-endian, the
 * util/byteio discipline):
 *
 *   0   4  magic (names the format)
 *   4   4  payload length N (1 <= N <= the format's maxPayload)
 *   8   4  CRC-32 of the payload bytes
 *   12  N  payload
 *
 * parseFrame checks the magic first, then the length bound, and
 * verifies the CRC before it exposes any payload byte, so a flipped
 * bit becomes a named Bad outcome, never a misparsed record. Because
 * the length is bounded before it is reported, a reader may size a
 * buffer from a NeedMore's frameBytes without trusting junk.
 *
 * The `.dnapool` sections (api/pool_file.hh) are not frames: their
 * layout differs and is versioned on disk, and pool bytes stay
 * byte-identical across releases.
 */

#ifndef DNASTORE_UTIL_FRAME_HH
#define DNASTORE_UTIL_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dnastore {

/**
 * One framed format: its magic and its payload ceiling. Every format
 * is declared below, in one place, so a new magic is chosen against
 * all the others.
 */
struct FrameFormat
{
    uint32_t magic;
    uint32_t maxPayload;
};

/**
 * dnastored frames, magic "DSRV". A unit's payload tops out well
 * under a MiB at the auto-geometry scales, so a longer length is a
 * corrupted field, not a real request.
 */
inline constexpr FrameFormat kServerFrame{ 0x56525344u, 8u << 20 };

/** Streaming-clusterer spill chunks, magic "DSPL". */
inline constexpr FrameFormat kSpillFrame{ 0x4c505344u, 16u << 20 };

/** Header bytes: magic + payload length + payload CRC. */
inline constexpr size_t kFrameHeaderBytes = 12;

/** parseFrame outcome. */
enum class FrameStatus
{
    Ok,       //!< One whole, CRC-verified frame.
    NeedMore, //!< The bytes hold only a frame prefix so far.
    Bad,      //!< Magic/length/CRC failure; the stream is poisoned.
};

/** What parseFrame found at the front of a byte range. */
struct FrameParse
{
    FrameStatus status = FrameStatus::NeedMore;
    /** Ok: the verified payload, pointing into the parsed bytes. */
    const uint8_t *payload = nullptr;
    size_t payloadBytes = 0;
    /**
     * Ok: header + payload length. NeedMore: the same total once the
     * whole header is present and valid; 0 while it is not.
     */
    size_t frameBytes = 0;
    /** Bad: names the magic, length, or CRC failure. */
    const char *error = nullptr;
};

/** Frame @p n payload bytes and append the frame to @p out. */
void appendFrame(const FrameFormat &format, std::vector<uint8_t> &out,
                 const uint8_t *payload, size_t n);

/** Parse one frame of @p format off the front of @p bytes. */
FrameParse parseFrame(const FrameFormat &format, const uint8_t *bytes,
                      size_t n);

} // namespace dnastore

#endif // DNASTORE_UTIL_FRAME_HH
