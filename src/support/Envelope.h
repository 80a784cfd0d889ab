//===- support/Envelope.h - The one on-disk container ----------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The container every persistent file of the system shares: `.mjo`
/// compiled IR and `.mjn` machine code (repo/RepoStore), `profiles.mjp`
/// profile summaries (repo/RepoStore) and `.mjws` workspace snapshots
/// (service/SnapshotStore). Each store knows only its payload codec; this
/// module owns the header, the validation ladder and the quarantine policy.
///
/// One header layout, little-endian, for every kind:
///
///   @0  u32 magic        which kind of file this is
///   @4  u32 version      the kind's format version
///   @8  u64 stamp        the world that may read it (engine ABI, compiler,
///                        or a constant where there is none)
///   @16 u64 payload size must equal the bytes that follow the header
///   @24 u32 CRC32        of the payload
///   @28 payload
///
/// open() walks the ladder magic -> version -> stamp -> size -> CRC32 and
/// returns one verdict:
///
///   Ok      the payload is intact; the store's bounds-checked decoder gets
///           the last word (a decode failure is Corrupt too).
///   Corrupt wrong magic, truncated, wrong size or failed checksum. The
///           bytes are evidence: settle() renames the file `*.corrupt`,
///           which also takes it out of its kind's namespace so the next
///           load is clean (and removes it if even the rename fails).
///   Skew    plausible bytes from another format version or stamp: routine
///           turnover, not damage. settle() removes the file.
///
/// Everything a kind must trust lives under the CRC: a store that needs a
/// field the ladder does not check (the `.mjo`/`.mjn` source hash) puts it
/// in the payload, so no single-bit flip anywhere in a file can load.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_SUPPORT_ENVELOPE_H
#define MAJIC_SUPPORT_ENVELOPE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace majic {
namespace envelope {

/// Bytes before the payload.
constexpr size_t kHeaderBytes = 28;

enum class Verdict : uint8_t { Ok, Corrupt, Skew };

/// Header plus \p Payload: the whole file image.
std::string seal(uint32_t Magic, uint32_t Version, uint64_t Stamp,
                 std::string_view Payload);

/// What open() found.
struct Opened {
  Verdict V = Verdict::Corrupt;
  /// The checksummed payload when Ok: a view into the bytes passed to
  /// open(), valid as long as they are.
  std::string_view Payload;
  /// The rung that refused the bytes; empty when Ok.
  const char *Reason = "";
};

/// Runs the validation ladder over a whole file image.
Opened open(std::string_view Bytes, uint32_t Magic, uint32_t Version,
            uint64_t Stamp);

/// Reads \p Path whole into \p Out. A file larger than \p MaxBytes is
/// refused before reading - a torn file must not drive a giant allocation.
/// Returns false on an oversized or unreadable file.
bool readFile(const std::string &Path, uint64_t MaxBytes, std::string &Out);

/// Applies the quarantine policy for verdict \p V to \p Path (see above).
void settle(const std::string &Path, Verdict V);

} // namespace envelope
} // namespace majic

#endif // MAJIC_SUPPORT_ENVELOPE_H
