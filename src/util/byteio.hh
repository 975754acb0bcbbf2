/**
 * @file
 * Little-endian bounded byte readers and writers.
 *
 * The fixed-width integer substrate of the durable `.dnapool` store
 * format (api/pool_file.hh). Two deliberate contracts:
 *
 *  - ByteWriter always emits little-endian, independent of the host,
 *    so a pool file written on any machine opens on any other;
 *  - ByteReader is *bounded*: a read that would run past the end of
 *    the buffer returns zero, poisons the reader (ok() goes false,
 *    and stays false), and never touches out-of-range memory — a
 *    truncated or length-corrupted section parses to a clean error
 *    instead of UB. Callers check ok() once at the end of a parse
 *    rather than after every field.
 */

#ifndef DNASTORE_UTIL_BYTEIO_HH
#define DNASTORE_UTIL_BYTEIO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dnastore {

/** Appends little-endian fields to a growable byte buffer. */
class ByteWriter
{
  public:
    ByteWriter() = default;

    void
    u8(uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u16(uint16_t v)
    {
        appendLe(v, 2);
    }

    void
    u32(uint32_t v)
    {
        appendLe(v, 4);
    }

    void
    u64(uint64_t v)
    {
        appendLe(v, 8);
    }

    /** Append raw bytes verbatim. */
    void
    bytes(const uint8_t *data, size_t n)
    {
        bytes_.insert(bytes_.end(), data, data + n);
    }

    void
    bytes(const std::vector<uint8_t> &data)
    {
        bytes(data.data(), data.size());
    }

    /**
     * Append @p n zero bytes and return where they start, for a
     * caller that fills them in place. Valid until the next append.
     */
    uint8_t *
    extend(size_t n)
    {
        bytes_.resize(bytes_.size() + n);
        return bytes_.data() + bytes_.size() - n;
    }

    /** Overwrite the 8 already-written bytes at @p pos with @p v. */
    void
    u64At(size_t pos, uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_[pos + size_t(i)] = uint8_t(v >> (8 * i));
    }

    /** Append a string's bytes (no length prefix, no terminator). */
    void
    str(const std::string &s)
    {
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    size_t size() const { return bytes_.size(); }
    const std::vector<uint8_t> &data() const { return bytes_; }

    /** Move the accumulated buffer out. */
    std::vector<uint8_t>
    take()
    {
        return std::move(bytes_);
    }

  private:
    void
    appendLe(uint64_t v, int width)
    {
        for (int i = 0; i < width; ++i)
            bytes_.push_back(uint8_t(v >> (8 * i)));
    }

    std::vector<uint8_t> bytes_;
};

/** Bounded little-endian reader over a byte range (not owning). */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t n) : data_(data), size_(n) {}

    explicit ByteReader(const std::vector<uint8_t> &bytes)
        : data_(bytes.data()), size_(bytes.size())
    {}

    /** False once any read ran past the end (sticky). */
    bool ok() const { return ok_; }

    size_t pos() const { return pos_; }
    size_t remaining() const { return size_ - pos_; }

    uint8_t
    u8()
    {
        return uint8_t(readLe(1));
    }

    uint16_t
    u16()
    {
        return uint16_t(readLe(2));
    }

    uint32_t
    u32()
    {
        return uint32_t(readLe(4));
    }

    uint64_t
    u64()
    {
        return readLe(8);
    }

    /**
     * Copy @p n bytes into @p out. On underflow nothing is copied,
     * the reader is poisoned, and false is returned.
     */
    bool
    read(uint8_t *out, size_t n)
    {
        if (!take(n))
            return false;
        for (size_t i = 0; i < n; ++i)
            out[i] = data_[pos_ - n + i];
        return true;
    }

    /** Read @p n bytes as a string ("" and poisoned on underflow). */
    std::string
    str(size_t n)
    {
        if (!take(n))
            return std::string();
        return std::string(
            reinterpret_cast<const char *>(data_ + pos_ - n), n);
    }

    /** Read @p n bytes as a vector (empty and poisoned on underflow). */
    std::vector<uint8_t>
    vec(size_t n)
    {
        if (!take(n))
            return {};
        return std::vector<uint8_t>(data_ + pos_ - n, data_ + pos_);
    }

    /**
     * Claim @p n bytes and return them in place (nullptr and
     * poisoned on underflow).
     */
    const uint8_t *
    view(size_t n)
    {
        if (!take(n))
            return nullptr;
        return data_ + pos_ - n;
    }

    /** Advance @p n bytes; false (poisoned) on underflow. */
    bool
    skip(size_t n)
    {
        return take(n);
    }

  private:
    /** Claim @p n bytes; on underflow poison and consume nothing. */
    bool
    take(size_t n)
    {
        if (!ok_ || n > size_ - pos_) {
            ok_ = false;
            return false;
        }
        pos_ += n;
        return true;
    }

    uint64_t
    readLe(int width)
    {
        if (!take(size_t(width)))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < width; ++i)
            v |= uint64_t(data_[pos_ - size_t(width) + size_t(i)])
                << (8 * i);
        return v;
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace dnastore

#endif // DNASTORE_UTIL_BYTEIO_HH
