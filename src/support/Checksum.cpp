//===- support/Checksum.cpp - CRC32 checksums --------------------------------===//
//
// Slicing-by-8: Table[K][B] is the CRC of byte B followed by K zero bytes,
// so eight input bytes fold into the running CRC with eight independent
// lookups per step instead of eight dependent ones.
//
//===----------------------------------------------------------------------===//

#include "support/Checksum.h"

#include <array>

using namespace pp;

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables makeCrcTables() {
  CrcTables Table{};
  for (uint32_t Index = 0; Index != 256; ++Index) {
    uint32_t Value = Index;
    for (unsigned Bit = 0; Bit != 8; ++Bit)
      Value = (Value >> 1) ^ ((Value & 1) ? 0xedb88320u : 0);
    Table[0][Index] = Value;
  }
  for (unsigned Slice = 1; Slice != 8; ++Slice)
    for (uint32_t Index = 0; Index != 256; ++Index) {
      uint32_t Prev = Table[Slice - 1][Index];
      Table[Slice][Index] = (Prev >> 8) ^ Table[0][Prev & 0xff];
    }
  return Table;
}

constexpr CrcTables Table = makeCrcTables();

uint32_t loadLE32(const uint8_t *P) {
  return uint32_t(P[0]) | uint32_t(P[1]) << 8 | uint32_t(P[2]) << 16 |
         uint32_t(P[3]) << 24;
}

} // namespace

uint32_t pp::crc32(const uint8_t *Data, size_t Size, uint32_t Seed) {
  uint32_t Crc = ~Seed;
  for (; Size >= 8; Data += 8, Size -= 8) {
    uint32_t Lo = Crc ^ loadLE32(Data);
    uint32_t Hi = loadLE32(Data + 4);
    Crc = Table[7][Lo & 0xff] ^ Table[6][(Lo >> 8) & 0xff] ^
          Table[5][(Lo >> 16) & 0xff] ^ Table[4][Lo >> 24] ^
          Table[3][Hi & 0xff] ^ Table[2][(Hi >> 8) & 0xff] ^
          Table[1][(Hi >> 16) & 0xff] ^ Table[0][Hi >> 24];
  }
  for (; Size != 0; ++Data, --Size)
    Crc = (Crc >> 8) ^ Table[0][(Crc ^ *Data) & 0xff];
  return ~Crc;
}
