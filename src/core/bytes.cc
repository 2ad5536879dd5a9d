#include "core/bytes.hh"

#include <bit>
#include <cstring>

namespace trust::core {

Bytes
toBytes(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

std::string
toString(const Bytes &b)
{
    return std::string(b.begin(), b.end());
}

bool
constantTimeEqual(const Bytes &a, const Bytes &b)
{
    if (a.size() != b.size())
        return false;
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
    return acc == 0;
}

void
ByteWriter::writeU8(std::uint8_t v)
{
    buf_.push_back(v);
}

void
ByteWriter::writeU16(std::uint16_t v)
{
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
ByteWriter::writeU32(std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::writeU64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
ByteWriter::writeI64(std::int64_t v)
{
    writeU64(static_cast<std::uint64_t>(v));
}

void
ByteWriter::writeDouble(double v)
{
    writeU64(std::bit_cast<std::uint64_t>(v));
}

void
ByteWriter::writeBool(bool v)
{
    writeU8(v ? 1 : 0);
}

void
ByteWriter::writeRaw(const Bytes &v)
{
    buf_.insert(buf_.end(), v.begin(), v.end());
}

void
ByteWriter::writeBytes(const Bytes &v)
{
    writeU32(static_cast<std::uint32_t>(v.size()));
    writeRaw(v);
}

void
ByteWriter::writeString(const std::string &v)
{
    writeU32(static_cast<std::uint32_t>(v.size()));
    buf_.insert(buf_.end(), v.begin(), v.end());
}

bool
ByteReader::need(std::size_t n)
{
    if (!ok_ || buf_.size() - pos_ < n) {
        ok_ = false;
        return false;
    }
    return true;
}

std::uint8_t
ByteReader::readU8()
{
    if (!need(1))
        return 0;
    return buf_[pos_++];
}

std::uint16_t
ByteReader::readU16()
{
    if (!need(2))
        return 0;
    std::uint16_t v = static_cast<std::uint16_t>(buf_[pos_]) |
                      static_cast<std::uint16_t>(buf_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
}

std::uint32_t
ByteReader::readU32()
{
    if (!need(4))
        return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

std::uint64_t
ByteReader::readU64()
{
    if (!need(8))
        return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

std::int64_t
ByteReader::readI64()
{
    return static_cast<std::int64_t>(readU64());
}

double
ByteReader::readDouble()
{
    return std::bit_cast<double>(readU64());
}

bool
ByteReader::readBool()
{
    return readU8() != 0;
}

Bytes
ByteReader::readRaw(std::size_t n)
{
    if (!need(n))
        return {};
    Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
              buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
}

Bytes
ByteReader::readBytes()
{
    const std::uint32_t n = readU32();
    return readRaw(n);
}

std::string
ByteReader::readString()
{
    return toString(readBytes());
}

void
writeField(ByteWriter &w, std::uint32_t v)
{
    w.writeU32(v);
}

void
writeField(ByteWriter &w, std::uint64_t v)
{
    w.writeU64(v);
}

void
writeField(ByteWriter &w, bool v)
{
    w.writeBool(v);
}

void
writeField(ByteWriter &w, const std::string &v)
{
    w.writeString(v);
}

void
writeField(ByteWriter &w, const Bytes &v)
{
    w.writeBytes(v);
}

void
writeField(ByteWriter &w, const std::vector<std::uint64_t> &v)
{
    w.writeU32(static_cast<std::uint32_t>(v.size()));
    for (const std::uint64_t x : v)
        w.writeU64(x);
}

void
readField(ByteReader &r, std::uint32_t &v)
{
    v = r.readU32();
}

void
readField(ByteReader &r, std::uint64_t &v)
{
    v = r.readU64();
}

void
readField(ByteReader &r, bool &v)
{
    v = r.readBool();
}

void
readField(ByteReader &r, std::string &v)
{
    v = r.readString();
}

void
readField(ByteReader &r, Bytes &v)
{
    v = r.readBytes();
}

void
readField(ByteReader &r, std::vector<std::uint64_t> &v)
{
    const std::uint32_t count = r.readU32();
    v.clear();
    for (std::uint32_t i = 0; i < count && r.ok(); ++i)
        v.push_back(r.readU64());
}

} // namespace trust::core
