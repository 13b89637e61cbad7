//===- support/BinaryIO.h - Bounds-checked binary (de)serialisation -*- C++ -*-===//
///
/// \file
/// The little-endian byte writer and the bounds-checked reader shared by
/// every persisted binary format in the repository (profdb profile
/// artifacts, which are also the run cache's entries, and collectd wire
/// frames). The reader treats its input
/// as untrusted: every length and count is validated against the bytes
/// actually *remaining* — never with `Cursor + Size > total` arithmetic,
/// which wraps for Size near UINT64_MAX and lets a corrupt file read out
/// of bounds.
///
//===----------------------------------------------------------------------===//

#ifndef PP_SUPPORT_BINARYIO_H
#define PP_SUPPORT_BINARYIO_H

#include <cstdint>
#include <string>
#include <vector>

namespace pp {

/// Append-only little-endian encoder.
class ByteWriter {
public:
  std::vector<uint8_t> Bytes;

  void u8(uint8_t Value) { Bytes.push_back(Value); }
  void u64(uint64_t Value) {
    for (unsigned Index = 0; Index != 8; ++Index)
      Bytes.push_back(static_cast<uint8_t>(Value >> (8 * Index)));
  }
  void str(const std::string &Value) {
    u64(Value.size());
    Bytes.insert(Bytes.end(), Value.begin(), Value.end());
  }
  void bytes(const std::vector<uint8_t> &Value) {
    u64(Value.size());
    Bytes.insert(Bytes.end(), Value.begin(), Value.end());
  }
};

/// Bounds-checked reads over an untrusted byte span.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  size_t remaining() const { return Size - Cursor; }
  bool atEnd() const { return Cursor == Size; }

  bool u8(uint8_t &Value) {
    if (remaining() < 1)
      return false;
    Value = Data[Cursor++];
    return true;
  }
  bool u64(uint64_t &Value) {
    if (remaining() < 8)
      return false;
    Value = 0;
    for (unsigned Index = 0; Index != 8; ++Index)
      Value |= uint64_t(Data[Cursor + Index]) << (8 * Index);
    Cursor += 8;
    return true;
  }
  bool str(std::string &Value) {
    uint64_t Length;
    if (!u64(Length) || Length > remaining())
      return false;
    Value.assign(reinterpret_cast<const char *>(Data) + Cursor,
                 static_cast<size_t>(Length));
    Cursor += static_cast<size_t>(Length);
    return true;
  }
  bool bytes(std::vector<uint8_t> &Value) {
    uint64_t Length;
    if (!u64(Length) || Length > remaining())
      return false;
    Value.assign(Data + Cursor, Data + Cursor + Length);
    Cursor += static_cast<size_t>(Length);
    return true;
  }
  /// Reads an element count that precedes \p MinElemBytes-byte-minimum
  /// elements. A count no honest writer could have produced — more
  /// elements than the remaining bytes can encode — fails here, before
  /// any resize(), so a corrupt count of 10^18 cannot trigger a
  /// pathological allocation.
  bool count(uint64_t &Value, size_t MinElemBytes) {
    if (!u64(Value))
      return false;
    return Value <= remaining() / MinElemBytes;
  }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Cursor = 0;
};

} // namespace pp

#endif // PP_SUPPORT_BINARYIO_H
