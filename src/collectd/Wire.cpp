//===- collectd/Wire.cpp - Framed upload protocol -----------------------------===//

#include "collectd/Wire.h"

#include "support/BinaryIO.h"
#include "support/Checksum.h"

#include <algorithm>

using namespace pp;
using namespace pp::collectd;

const char *collectd::wireStatusName(WireStatus S) {
  switch (S) {
  case WireStatus::Ok:
    return "ok";
  case WireStatus::NeedMore:
    return "need-more";
  case WireStatus::BadMagic:
    return "bad-magic";
  case WireStatus::BadVersion:
    return "bad-version";
  case WireStatus::BadType:
    return "bad-type";
  case WireStatus::FrameTooLarge:
    return "frame-too-large";
  case WireStatus::BadChecksum:
    return "bad-checksum";
  case WireStatus::Malformed:
    return "malformed";
  case WireStatus::TrailingBytes:
    return "trailing-bytes";
  }
  return "?";
}

namespace {

void appendU32(std::vector<uint8_t> &Out, uint32_t Value) {
  for (unsigned Index = 0; Index != 4; ++Index)
    Out.push_back(static_cast<uint8_t>(Value >> (8 * Index)));
}

uint32_t readU32(const uint8_t *Data) {
  uint32_t Value = 0;
  for (unsigned Index = 0; Index != 4; ++Index)
    Value |= uint32_t(Data[Index]) << (8 * Index);
  return Value;
}

/// Parses one frame's payload bytes into \p Out (whose Type is already
/// set from the header). Structural failures are Malformed; a payload
/// with unexplained bytes after the last field is TrailingBytes.
WireStatus decodePayload(const uint8_t *Data, size_t Size, Frame &Out) {
  ByteReader Reader(Data, Size);
  uint8_t Byte;
  switch (Out.Type) {
  case FrameType::Hello:
    if (!Reader.u64(Out.Protocol) || !Reader.str(Out.Tenant) ||
        !Reader.str(Out.Acquisition))
      return WireStatus::Malformed;
    break;
  case FrameType::Upload:
    if (!Reader.u64(Out.Serial) || !Reader.u64(Out.Window) ||
        !Reader.bytes(Out.Artifact))
      return WireStatus::Malformed;
    break;
  case FrameType::Ack:
    if (!Reader.u64(Out.Serial) || !Reader.str(Out.Text))
      return WireStatus::Malformed;
    break;
  case FrameType::Reject:
    if (!Reader.u64(Out.Serial) || !Reader.u8(Byte) ||
        Byte >= static_cast<uint8_t>(RejectReason::NumReasons))
      return WireStatus::Malformed;
    Out.Reason = static_cast<RejectReason>(Byte);
    if (!Reader.u8(Byte) ||
        Byte > static_cast<uint8_t>(profdb::DecodeStatus::TrailingBytes))
      return WireStatus::Malformed;
    Out.Decode = static_cast<profdb::DecodeStatus>(Byte);
    if (!Reader.u8(Byte) ||
        Byte > static_cast<uint8_t>(WireStatus::TrailingBytes))
      return WireStatus::Malformed;
    Out.Wire = static_cast<WireStatus>(Byte);
    if (!Reader.str(Out.Message))
      return WireStatus::Malformed;
    break;
  case FrameType::Query:
    if (!Reader.u64(Out.Serial) || !Reader.u8(Byte) ||
        Byte < static_cast<uint8_t>(QueryKind::TopPaths) ||
        Byte > static_cast<uint8_t>(QueryKind::CctStats))
      return WireStatus::Malformed;
    Out.Kind = static_cast<QueryKind>(Byte);
    if (!Reader.u64(Out.Window) || !Reader.u64(Out.Limit))
      return WireStatus::Malformed;
    break;
  }
  if (!Reader.atEnd())
    return WireStatus::TrailingBytes;
  return WireStatus::Ok;
}

} // namespace

std::vector<uint8_t> collectd::encodeFrame(const Frame &F) {
  ByteWriter Payload;
  switch (F.Type) {
  case FrameType::Hello:
    Payload.u64(F.Protocol);
    Payload.str(F.Tenant);
    Payload.str(F.Acquisition);
    break;
  case FrameType::Upload:
    Payload.u64(F.Serial);
    Payload.u64(F.Window);
    Payload.bytes(F.Artifact);
    break;
  case FrameType::Ack:
    Payload.u64(F.Serial);
    Payload.str(F.Text);
    break;
  case FrameType::Reject:
    Payload.u64(F.Serial);
    Payload.u8(static_cast<uint8_t>(F.Reason));
    Payload.u8(static_cast<uint8_t>(F.Decode));
    Payload.u8(static_cast<uint8_t>(F.Wire));
    Payload.str(F.Message);
    break;
  case FrameType::Query:
    Payload.u64(F.Serial);
    Payload.u8(static_cast<uint8_t>(F.Kind));
    Payload.u64(F.Window);
    Payload.u64(F.Limit);
    break;
  }

  std::vector<uint8_t> Out;
  Out.reserve(WireHeaderBytes + Payload.Bytes.size() + WireTrailerBytes);
  for (uint8_t Byte : WireMagic)
    Out.push_back(Byte);
  Out.push_back(WireVersion);
  Out.push_back(static_cast<uint8_t>(F.Type));
  appendU32(Out, static_cast<uint32_t>(Payload.Bytes.size()));
  Out.insert(Out.end(), Payload.Bytes.begin(), Payload.Bytes.end());
  appendU32(Out, crc32(Out.data(), Out.size()));
  return Out;
}

void FrameDecoder::feed(const uint8_t *Data, size_t Size) {
  // Reclaim the consumed prefix before growing: the live bytes are
  // bounded by one frame, the history is not.
  if (Start) {
    Buffer.erase(Buffer.begin(),
                 Buffer.begin() + static_cast<ptrdiff_t>(Start));
    Start = 0;
  }
  Buffer.insert(Buffer.end(), Data, Data + Size);
}

WireStatus FrameDecoder::next(Frame &Out) {
  const uint8_t *Head = Buffer.data() + Start;
  size_t Avail = buffered();

  // Magic is checked on however many bytes are present: one garbage byte
  // is enough to know the stream is not speaking this protocol.
  for (size_t Index = 0; Index != std::min<size_t>(Avail, 4); ++Index)
    if (Head[Index] != WireMagic[Index])
      return WireStatus::BadMagic;
  if (Avail < WireHeaderBytes)
    return WireStatus::NeedMore;

  if (Head[4] != WireVersion)
    return WireStatus::BadVersion;
  uint8_t Type = Head[5];
  if (Type < static_cast<uint8_t>(FrameType::Hello) ||
      Type > static_cast<uint8_t>(FrameType::Query))
    return WireStatus::BadType;
  // The length ceiling is enforced here, from ten buffered header bytes,
  // before the payload is awaited or any allocation is sized from it —
  // a liar's 4 GiB length costs nothing.
  uint32_t PayloadLen = readU32(Head + 6);
  if (PayloadLen > MaxPayload)
    return WireStatus::FrameTooLarge;

  size_t Total = WireHeaderBytes + PayloadLen + WireTrailerBytes;
  if (Avail < Total)
    return WireStatus::NeedMore;

  uint32_t Want = readU32(Head + WireHeaderBytes + PayloadLen);
  if (crc32(Head, WireHeaderBytes + PayloadLen) != Want)
    return WireStatus::BadChecksum;

  Frame Parsed;
  Parsed.Type = static_cast<FrameType>(Type);
  WireStatus Status =
      decodePayload(Head + WireHeaderBytes, PayloadLen, Parsed);
  if (Status != WireStatus::Ok)
    return Status;

  Out = std::move(Parsed);
  Start += Total;
  if (Start == Buffer.size()) {
    Buffer.clear();
    Start = 0;
  }
  return WireStatus::Ok;
}
