/**
 * @file
 * Byte-buffer type plus little-endian serialization helpers used by
 * the crypto primitives and the TRUST wire protocol.
 */

#ifndef TRUST_CORE_BYTES_HH
#define TRUST_CORE_BYTES_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

namespace trust::core {

/** Raw byte sequence. */
using Bytes = std::vector<std::uint8_t>;

/** Build a byte vector from a std::string. */
Bytes toBytes(const std::string &s);

/** Interpret a byte vector as a std::string. */
std::string toString(const Bytes &b);

/** Constant-time byte-vector comparison (for MAC verification). */
bool constantTimeEqual(const Bytes &a, const Bytes &b);

/**
 * Append-only serializer with explicit little-endian encoding.
 *
 * Writes are length-prefixed for variable-size fields so the matching
 * ByteReader can validate framing without an external schema.
 */
class ByteWriter
{
  public:
    /** The accumulated bytes. */
    const Bytes &bytes() const { return buf_; }

    /** Move the accumulated bytes out. */
    Bytes take() { return std::move(buf_); }

    void writeU8(std::uint8_t v);
    void writeU16(std::uint16_t v);
    void writeU32(std::uint32_t v);
    void writeU64(std::uint64_t v);
    void writeI64(std::int64_t v);
    void writeDouble(double v);
    void writeBool(bool v);

    /** Raw bytes, no length prefix. */
    void writeRaw(const Bytes &v);

    /** Length-prefixed (u32) byte string. */
    void writeBytes(const Bytes &v);

    /** Length-prefixed (u32) UTF-8 string. */
    void writeString(const std::string &v);

  private:
    Bytes buf_;
};

/**
 * Cursor-based deserializer matching ByteWriter.
 *
 * All reads are bounds-checked; a short or malformed buffer sets the
 * error flag instead of reading past the end, and every subsequent
 * read returns a zero value. Callers check ok() once after parsing.
 */
class ByteReader
{
  public:
    explicit ByteReader(const Bytes &buf) : buf_(buf) {}

    std::uint8_t readU8();
    std::uint16_t readU16();
    std::uint32_t readU32();
    std::uint64_t readU64();
    std::int64_t readI64();
    double readDouble();
    bool readBool();

    /** Exactly @p n raw bytes. */
    Bytes readRaw(std::size_t n);

    /** Length-prefixed byte string. */
    Bytes readBytes();

    /** Length-prefixed UTF-8 string. */
    std::string readString();

    /** True unless a read ran past the end of the buffer. */
    bool ok() const { return ok_; }

    /** True when the cursor consumed the entire buffer. */
    bool atEnd() const { return pos_ == buf_.size(); }

    std::size_t remaining() const { return buf_.size() - pos_; }

  private:
    bool need(std::size_t n);

    const Bytes &buf_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

// --- Field codec -----------------------------------------------------------
//
// One writeField/readField overload per wire type. A record whose
// fields are listed once, as a std::tie of its members, gets its
// encoder (writeFields) and its decoder (readFields) from that list.

void writeField(ByteWriter &w, std::uint32_t v);
void writeField(ByteWriter &w, std::uint64_t v);
void writeField(ByteWriter &w, bool v);
void writeField(ByteWriter &w, const std::string &v);
void writeField(ByteWriter &w, const Bytes &v);
/** u32 element count, then each element. */
void writeField(ByteWriter &w, const std::vector<std::uint64_t> &v);

void readField(ByteReader &r, std::uint32_t &v);
void readField(ByteReader &r, std::uint64_t &v);
void readField(ByteReader &r, bool &v);
void readField(ByteReader &r, std::string &v);
void readField(ByteReader &r, Bytes &v);
/**
 * The count is untrusted: elements are read until the count is met
 * or the reader runs dry, so it never drives a reserve or an
 * over-read.
 */
void readField(ByteReader &r, std::vector<std::uint64_t> &v);

template <typename... T>
void
writeFields(ByteWriter &w, const std::tuple<T &...> &fields)
{
    std::apply([&w](const auto &...f) { (writeField(w, f), ...); },
               fields);
}

template <typename... T>
void
readFields(ByteReader &r, const std::tuple<T &...> &fields)
{
    std::apply([&r](auto &...f) { (readField(r, f), ...); }, fields);
}

/**
 * @p R is @p T or const @p T: lets one field-list function serve the
 * encoder (const record) and the decoder (mutable record).
 */
template <typename R, typename T>
concept FieldsOf = std::same_as<std::remove_const_t<R>, T>;

} // namespace trust::core

#endif // TRUST_CORE_BYTES_HH
