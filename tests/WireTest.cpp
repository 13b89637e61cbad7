//===- tests/WireTest.cpp - framed wire protocol ---------------------------------===//
//
// The wire codec's contract: every frame type's byte layout is pinned
// golden (a layout change must break a test, not a fleet); the
// incremental decoder yields byte-identical results whether bytes arrive
// one at a time, in arbitrary chunks, or coalesced many-frames-per-read;
// every malformed input — bit flips, truncations, lying length fields,
// stomped CRCs, giant-length DoS frames — terminates in a typed
// WireStatus without crashing, over-reading, or ballooning memory.
//
//===----------------------------------------------------------------------===//

#include "collectd/Wire.h"

#include "support/Checksum.h"

#include "gtest/gtest.h"

#include <cstring>
#include <string>
#include <vector>

using namespace pp;
using namespace pp::collectd;

namespace {

std::vector<uint8_t> bytesOf(const char *Data, size_t Size) {
  return std::vector<uint8_t>(Data, Data + Size);
}

/// The five reference frames whose encodings are pinned below. Field
/// values are arbitrary but fixed; the layouts are the contract.
Frame helloFrame() {
  Frame F;
  F.Type = FrameType::Hello;
  F.Protocol = 1;
  F.Tenant = "acme";
  F.Acquisition = "exact";
  return F;
}

Frame uploadFrame() {
  Frame F;
  F.Type = FrameType::Upload;
  F.Serial = 7;
  F.Window = 3;
  F.Artifact = {0xde, 0xad, 0xbe, 0xef};
  return F;
}

Frame ackFrame() {
  Frame F;
  F.Type = FrameType::Ack;
  F.Serial = 7;
  F.Text = "ok";
  return F;
}

Frame rejectFrame() {
  Frame F;
  F.Type = FrameType::Reject;
  F.Serial = 9;
  F.Reason = RejectReason::Corrupt;
  F.Decode = profdb::DecodeStatus::BadChecksum;
  F.Wire = WireStatus::Ok;
  F.Message = "bad";
  return F;
}

Frame queryFrame() {
  Frame F;
  F.Type = FrameType::Query;
  F.Serial = 11;
  F.Kind = QueryKind::TopProcs;
  F.Window = 3;
  F.Limit = 5;
  return F;
}

/// Feeds \p Stream to a fresh decoder in \p ChunkSize-byte slices and
/// returns the decoded frames re-encoded — the canonical form the
/// torture tests compare across delivery patterns.
std::vector<std::vector<uint8_t>> decodeChunked(
    const std::vector<uint8_t> &Stream, size_t ChunkSize) {
  FrameDecoder Decoder;
  std::vector<std::vector<uint8_t>> Out;
  size_t Pos = 0;
  while (Pos != Stream.size()) {
    size_t Take = std::min(ChunkSize, Stream.size() - Pos);
    Decoder.feed(Stream.data() + Pos, Take);
    Pos += Take;
    Frame F;
    WireStatus Status;
    while ((Status = Decoder.next(F)) == WireStatus::Ok)
      Out.push_back(encodeFrame(F));
    EXPECT_EQ(Status, WireStatus::NeedMore);
  }
  return Out;
}

/// xorshift64* — the repo's seeded-determinism idiom: the fuzz sweep is
/// a fixed corpus, not a flaky one.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 1) {}
  uint64_t next() {
    State ^= State >> 12;
    State ^= State << 25;
    State ^= State >> 27;
    return State * 0x2545F4914F6CDD1DULL;
  }
  size_t below(size_t N) { return N ? next() % N : 0; }
};

// ---- golden byte layouts -----------------------------------------------

TEST(WireLayoutTest, HelloBytesArePinned) {
  static const char Pinned[] =
      "\x50\x50\x57\x46\x01\x01\x21\x00\x00\x00\x01\x00\x00\x00\x00\x00"
      "\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x61\x63\x6d\x65\x05\x00"
      "\x00\x00\x00\x00\x00\x00\x65\x78\x61\x63\x74\x83\xa4\xa6\x4d";
  EXPECT_EQ(encodeFrame(helloFrame()), bytesOf(Pinned, sizeof(Pinned) - 1));
}

TEST(WireLayoutTest, UploadBytesArePinned) {
  static const char Pinned[] =
      "\x50\x50\x57\x46\x01\x02\x1c\x00\x00\x00\x07\x00\x00\x00\x00\x00"
      "\x00\x00\x03\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00"
      "\x00\x00\xde\xad\xbe\xef\x9f\xe7\x28\x32";
  EXPECT_EQ(encodeFrame(uploadFrame()), bytesOf(Pinned, sizeof(Pinned) - 1));
}

TEST(WireLayoutTest, AckBytesArePinned) {
  static const char Pinned[] =
      "\x50\x50\x57\x46\x01\x03\x12\x00\x00\x00\x07\x00\x00\x00\x00\x00"
      "\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00\x6f\x6b\x21\x9b\x83\xc1";
  EXPECT_EQ(encodeFrame(ackFrame()), bytesOf(Pinned, sizeof(Pinned) - 1));
}

TEST(WireLayoutTest, RejectBytesArePinned) {
  static const char Pinned[] =
      "\x50\x50\x57\x46\x01\x04\x16\x00\x00\x00\x09\x00\x00\x00\x00\x00"
      "\x00\x00\x01\x05\x00\x03\x00\x00\x00\x00\x00\x00\x00\x62\x61\x64"
      "\xd3\x3e\x34\x95";
  EXPECT_EQ(encodeFrame(rejectFrame()), bytesOf(Pinned, sizeof(Pinned) - 1));
}

TEST(WireLayoutTest, QueryBytesArePinned) {
  static const char Pinned[] =
      "\x50\x50\x57\x46\x01\x05\x19\x00\x00\x00\x0b\x00\x00\x00\x00\x00"
      "\x00\x00\x02\x03\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00"
      "\x00\x00\x00\x4b\x3d\xe3\x81";
  EXPECT_EQ(encodeFrame(queryFrame()), bytesOf(Pinned, sizeof(Pinned) - 1));
}

TEST(WireLayoutTest, EveryTypeRoundTrips) {
  for (const Frame &F : {helloFrame(), uploadFrame(), ackFrame(),
                         rejectFrame(), queryFrame()}) {
    FrameDecoder Decoder;
    Decoder.feed(encodeFrame(F));
    Frame Out;
    ASSERT_EQ(Decoder.next(Out), WireStatus::Ok);
    EXPECT_EQ(static_cast<int>(Out.Type), static_cast<int>(F.Type));
    EXPECT_EQ(Out.Serial, F.Serial);
    EXPECT_EQ(Out.Tenant, F.Tenant);
    EXPECT_EQ(Out.Acquisition, F.Acquisition);
    EXPECT_EQ(Out.Window, F.Window);
    EXPECT_EQ(Out.Artifact, F.Artifact);
    EXPECT_EQ(Out.Text, F.Text);
    EXPECT_EQ(static_cast<int>(Out.Reason), static_cast<int>(F.Reason));
    EXPECT_EQ(static_cast<int>(Out.Decode), static_cast<int>(F.Decode));
    EXPECT_EQ(static_cast<int>(Out.Wire), static_cast<int>(F.Wire));
    EXPECT_EQ(Out.Message, F.Message);
    EXPECT_EQ(static_cast<int>(Out.Kind), static_cast<int>(F.Kind));
    EXPECT_EQ(Out.Limit, F.Limit);
    // Canonical: re-encoding the decode reproduces the input bytes.
    EXPECT_EQ(encodeFrame(Out), encodeFrame(F));
    EXPECT_EQ(Decoder.buffered(), 0u);
  }
}

// ---- typed decoder verdicts --------------------------------------------

TEST(WireDecoderTest, EmptyAndPartialHeaderNeedMore) {
  FrameDecoder Decoder;
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::NeedMore);
  std::vector<uint8_t> Bytes = encodeFrame(ackFrame());
  Decoder.feed(Bytes.data(), WireHeaderBytes - 1);
  EXPECT_EQ(Decoder.next(Out), WireStatus::NeedMore);
}

TEST(WireDecoderTest, BadMagicDetectedFromTheFirstByte) {
  // One wrong byte is enough: the decoder must not wait for a full
  // header to call a non-protocol stream what it is.
  FrameDecoder Decoder;
  uint8_t Junk = 'X';
  Decoder.feed(&Junk, 1);
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::BadMagic);
}

TEST(WireDecoderTest, BadVersionIsTyped) {
  std::vector<uint8_t> Bytes = encodeFrame(ackFrame());
  Bytes[4] = WireVersion + 1;
  FrameDecoder Decoder;
  Decoder.feed(Bytes);
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::BadVersion);
}

TEST(WireDecoderTest, BadTypeIsTyped) {
  std::vector<uint8_t> Bytes = encodeFrame(ackFrame());
  Bytes[5] = 0x7f;
  FrameDecoder Decoder;
  Decoder.feed(Bytes);
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::BadType);
}

TEST(WireDecoderTest, GiantLengthRefusedFromHeaderAlone) {
  // A liar's 4 GiB length field must cost ten buffered bytes, not an
  // allocation: FrameTooLarge fires before the payload is awaited.
  std::vector<uint8_t> Header(WireHeaderBytes);
  std::memcpy(Header.data(), WireMagic, 4);
  Header[4] = WireVersion;
  Header[5] = static_cast<uint8_t>(FrameType::Upload);
  Header[6] = 0xff;
  Header[7] = 0xff;
  Header[8] = 0xff;
  Header[9] = 0xff;
  FrameDecoder Decoder;
  Decoder.feed(Header);
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::FrameTooLarge);
  EXPECT_EQ(Decoder.buffered(), WireHeaderBytes);
}

TEST(WireDecoderTest, PayloadCeilingIsConfigurable) {
  Frame Big = uploadFrame();
  Big.Artifact.assign(1024, 0xab);
  std::vector<uint8_t> Bytes = encodeFrame(Big);
  FrameDecoder Tight(/*MaxPayloadBytes=*/64);
  Tight.feed(Bytes);
  Frame Out;
  EXPECT_EQ(Tight.next(Out), WireStatus::FrameTooLarge);
  FrameDecoder Roomy(/*MaxPayloadBytes=*/4096);
  Roomy.feed(Bytes);
  EXPECT_EQ(Roomy.next(Out), WireStatus::Ok);
}

TEST(WireDecoderTest, FlippedPayloadByteIsBadChecksum) {
  std::vector<uint8_t> Bytes = encodeFrame(uploadFrame());
  Bytes[WireHeaderBytes + 2] ^= 0x01;
  FrameDecoder Decoder;
  Decoder.feed(Bytes);
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::BadChecksum);
}

TEST(WireDecoderTest, StompedTrailerIsBadChecksum) {
  std::vector<uint8_t> Bytes = encodeFrame(queryFrame());
  Bytes[Bytes.size() - 1] ^= 0xff;
  FrameDecoder Decoder;
  Decoder.feed(Bytes);
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::BadChecksum);
}

/// Rebuilds \p Payload into a whole frame of \p Type with a correct
/// length field and CRC — the shape of an attacker who can compute
/// checksums, which is what forces payload-structure validation to be
/// its own layer.
std::vector<uint8_t> frameRaw(FrameType Type,
                              const std::vector<uint8_t> &Payload) {
  Frame Probe;
  Probe.Type = FrameType::Ack;
  Probe.Serial = 0;
  std::vector<uint8_t> Out = encodeFrame(Probe);
  Out.resize(WireHeaderBytes);
  Out[5] = static_cast<uint8_t>(Type);
  Out[6] = static_cast<uint8_t>(Payload.size());
  Out[7] = static_cast<uint8_t>(Payload.size() >> 8);
  Out[8] = static_cast<uint8_t>(Payload.size() >> 16);
  Out[9] = static_cast<uint8_t>(Payload.size() >> 24);
  Out.insert(Out.end(), Payload.begin(), Payload.end());
  // Recompute the CRC the way encodeFrame does, via a round trip: encode
  // an Ack whose payload we then splice. Simpler: borrow encodeFrame's
  // trailer by re-deriving it from a decoder probe is impossible, so the
  // test links the same crc32 the codec uses.
  uint32_t Crc = pp::crc32(Out.data(), Out.size());
  for (unsigned Index = 0; Index != 4; ++Index)
    Out.push_back(static_cast<uint8_t>(Crc >> (8 * Index)));
  return Out;
}

TEST(WireDecoderTest, TruncatedPayloadStructureIsMalformed) {
  // A checksummed Hello whose tenant string promises more bytes than the
  // payload holds: CRC passes, structure does not.
  std::vector<uint8_t> Payload(16, 0);
  Payload[8] = 0x40; // tenant length 64, but nothing follows
  FrameDecoder Decoder;
  Decoder.feed(frameRaw(FrameType::Hello, Payload));
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::Malformed);
}

TEST(WireDecoderTest, OutOfRangeEnumBytesAreMalformed) {
  // A Reject whose reason byte names no RejectReason.
  std::vector<uint8_t> Payload = {0, 0, 0, 0, 0, 0, 0, 0, // serial
                                  0xee, 0, 0};            // reason, dec, wire
  Payload.insert(Payload.end(), 8, 0); // empty message
  FrameDecoder Decoder;
  Decoder.feed(frameRaw(FrameType::Reject, Payload));
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::Malformed);
}

TEST(WireDecoderTest, UnexplainedPayloadSuffixIsTrailingBytes) {
  std::vector<uint8_t> Bytes = encodeFrame(ackFrame());
  std::vector<uint8_t> Payload(Bytes.begin() + WireHeaderBytes,
                               Bytes.end() - WireTrailerBytes);
  Payload.push_back(0x00);
  FrameDecoder Decoder;
  Decoder.feed(frameRaw(FrameType::Ack, Payload));
  Frame Out;
  EXPECT_EQ(Decoder.next(Out), WireStatus::TrailingBytes);
}

// ---- partial-I/O torture -----------------------------------------------

TEST(WireTortureTest, ByteAtATimeMatchesWholeStream) {
  std::vector<uint8_t> Stream;
  for (const Frame &F : {helloFrame(), uploadFrame(), queryFrame(),
                         ackFrame(), rejectFrame()}) {
    std::vector<uint8_t> Bytes = encodeFrame(F);
    Stream.insert(Stream.end(), Bytes.begin(), Bytes.end());
  }
  std::vector<std::vector<uint8_t>> Whole =
      decodeChunked(Stream, Stream.size());
  ASSERT_EQ(Whole.size(), 5u);
  // 1 byte at a time, then every chunk size that straddles frame
  // boundaries differently: identical decoded frames, byte for byte.
  for (size_t Chunk : {size_t(1), size_t(2), size_t(3), size_t(7),
                       size_t(13), size_t(41), size_t(64)})
    EXPECT_EQ(decodeChunked(Stream, Chunk), Whole) << "chunk " << Chunk;
}

TEST(WireTortureTest, CoalescedFramesDrainInOneFeed) {
  // Many frames in a single feed must all come out before NeedMore — the
  // server relies on this to serve pipelined uploads from one read.
  std::vector<uint8_t> Stream;
  const unsigned Count = 64;
  for (unsigned Index = 0; Index != Count; ++Index) {
    Frame F = uploadFrame();
    F.Serial = Index;
    std::vector<uint8_t> Bytes = encodeFrame(F);
    Stream.insert(Stream.end(), Bytes.begin(), Bytes.end());
  }
  FrameDecoder Decoder;
  Decoder.feed(Stream);
  Frame Out;
  for (unsigned Index = 0; Index != Count; ++Index) {
    ASSERT_EQ(Decoder.next(Out), WireStatus::Ok);
    EXPECT_EQ(Out.Serial, Index);
  }
  EXPECT_EQ(Decoder.next(Out), WireStatus::NeedMore);
  EXPECT_EQ(Decoder.buffered(), 0u);
}

TEST(WireTortureTest, BufferIsCompactedNotAccumulated) {
  // The decoder's buffer must track live bytes, not stream history: after
  // ten thousand decoded frames the buffered residue is still zero.
  std::vector<uint8_t> One = encodeFrame(ackFrame());
  FrameDecoder Decoder;
  Frame Out;
  for (unsigned Index = 0; Index != 10000; ++Index) {
    Decoder.feed(One);
    ASSERT_EQ(Decoder.next(Out), WireStatus::Ok);
    ASSERT_EQ(Decoder.buffered(), 0u);
  }
}

// ---- seeded mutation fuzz sweep ----------------------------------------

/// Drives \p Stream through a decoder in random chunks, asserting only
/// the protocol's safety property: decoding terminates, every verdict is
/// a defined WireStatus, and after a fatal verdict the decoder stays
/// fatally poisoned rather than resynchronising on garbage.
void pumpMutated(const std::vector<uint8_t> &Stream, Rng &R) {
  FrameDecoder Decoder;
  size_t Pos = 0;
  bool Poisoned = false;
  WireStatus Fatal = WireStatus::Ok;
  while (Pos != Stream.size()) {
    size_t Take = std::min(1 + R.below(96), Stream.size() - Pos);
    Decoder.feed(Stream.data() + Pos, Take);
    Pos += Take;
    for (;;) {
      Frame Out;
      WireStatus Status = Decoder.next(Out);
      ASSERT_LE(static_cast<unsigned>(Status),
                static_cast<unsigned>(WireStatus::TrailingBytes));
      if (Status == WireStatus::Ok) {
        ASSERT_FALSE(Poisoned)
            << "decoder recovered after fatal " << wireStatusName(Fatal);
        continue;
      }
      if (Status != WireStatus::NeedMore && !Poisoned) {
        Poisoned = true;
        Fatal = Status;
      }
      if (Status != WireStatus::Ok) {
        // A fatal status must be stable: asking again yields the same
        // verdict, not an advance past the poison.
        if (Status != WireStatus::NeedMore) {
          EXPECT_EQ(Decoder.next(Out), Status);
        }
        break;
      }
    }
    if (Poisoned)
      break;
  }
}

TEST(WireFuzzTest, SeededMutationSweepNeverCrashes) {
  // Base stream: a realistic session (hello, uploads of varying size,
  // query) whose every mutated variant must decode to typed verdicts.
  std::vector<uint8_t> Base;
  {
    std::vector<uint8_t> Bytes = encodeFrame(helloFrame());
    Base.insert(Base.end(), Bytes.begin(), Bytes.end());
    for (unsigned Index = 0; Index != 4; ++Index) {
      Frame F = uploadFrame();
      F.Serial = Index;
      F.Artifact.assign(17 * (Index + 1), static_cast<uint8_t>(Index));
      Bytes = encodeFrame(F);
      Base.insert(Base.end(), Bytes.begin(), Bytes.end());
    }
    Bytes = encodeFrame(queryFrame());
    Base.insert(Base.end(), Bytes.begin(), Bytes.end());
  }

  Rng R(0x77697265u); // "wire"
  const unsigned Mutations = 320;
  for (unsigned Round = 0; Round != Mutations; ++Round) {
    std::vector<uint8_t> Mutated = Base;
    switch (Round % 5) {
    case 0: // single bit flip anywhere
      Mutated[R.below(Mutated.size())] ^= uint8_t(1u << R.below(8));
      break;
    case 1: // truncation (possibly mid-header, mid-payload, mid-CRC)
      Mutated.resize(R.below(Mutated.size()));
      break;
    case 2: { // length-field lie in a random frame header
      size_t At = 6 + R.below(Mutated.size() - 10);
      uint32_t Lie = static_cast<uint32_t>(R.next());
      for (unsigned Byte = 0; Byte != 4; ++Byte)
        Mutated[At + Byte] = static_cast<uint8_t>(Lie >> (8 * Byte));
      break;
    }
    case 3: // CRC stomp: flip trailer bytes of the first frame
      Mutated[47 - 1 - R.below(4)] ^= 0xff;
      break;
    case 4: { // giant-length DoS header spliced onto the stream
      std::vector<uint8_t> Giant(WireHeaderBytes);
      std::memcpy(Giant.data(), WireMagic, 4);
      Giant[4] = WireVersion;
      Giant[5] = static_cast<uint8_t>(FrameType::Upload);
      Giant[6] = Giant[7] = Giant[8] = Giant[9] = 0xff;
      Mutated.insert(Mutated.begin() + static_cast<ptrdiff_t>(
                         47 * R.below(3)), // frame boundary 0, 1, or 2
                     Giant.begin(), Giant.end());
      break;
    }
    }
    pumpMutated(Mutated, R);
    if (HasFatalFailure())
      FAIL() << "mutation round " << Round;
  }
}

} // namespace
