//===- cct/ImageIO.h - TreeImage binary codec ------------------*- C++ -*-===//
///
/// \file
/// The binary encoding of a full-fidelity cct::TreeImage, embedded in
/// every profdb profile artifact (and so in every run cache entry).
///
/// The reader is bounds-checked: every count is validated against the
/// bytes remaining, and decoded geometry is held under sanity ceilings
/// before it reaches the CCT allocator (which treats exhaustion as
/// fatal).
///
//===----------------------------------------------------------------------===//

#ifndef PP_CCT_IMAGEIO_H
#define PP_CCT_IMAGEIO_H

#include "cct/CallingContextTree.h"
#include "support/BinaryIO.h"

namespace pp {
namespace cct {

/// Sanity ceilings for decoded tree geometry. Real images sit far below
/// them; a corrupt file that exceeds one is rejected as malformed instead
/// of driving the CCT allocator or the host allocator into the ground.
inline constexpr uint64_t MaxTreeMetrics = 1024;
inline constexpr uint64_t MaxPathCellBytes = 4096;
inline constexpr uint64_t MaxProcSites = uint64_t(1) << 20;
inline constexpr uint64_t MaxCctHeapBytes =
    layout::ProfStackBase - layout::CctHeapBase;

/// Why an embedded tree image failed to decode.
enum class ImageDecodeStatus : unsigned {
  Ok = 0,
  /// A length or count field exceeds the bytes remaining.
  Truncated,
  /// A field holds a structurally impossible value (bad slot kind,
  /// geometry above a ceiling, out-of-range procedure id).
  Malformed,
};

/// Appends the encoding of \p Image to \p W.
void writeTreeImage(ByteWriter &W, const TreeImage &Image);

/// Decodes an image written by writeTreeImage. On failure \p Out is
/// unspecified and must be discarded.
ImageDecodeStatus readTreeImage(ByteReader &R, TreeImage &Out);

} // namespace cct
} // namespace pp

#endif // PP_CCT_IMAGEIO_H
