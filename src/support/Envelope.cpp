//===- support/Envelope.cpp - The one on-disk container --------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Envelope.h"

#include "support/AtomicFile.h"
#include "support/ByteStream.h"
#include "support/Hashing.h"

#include <filesystem>

using namespace majic;
namespace fs = std::filesystem;

static uint32_t checksum(std::string_view Payload) {
  return hashing::crc32(static_cast<const void *>(Payload.data()),
                        Payload.size());
}

std::string envelope::seal(uint32_t Magic, uint32_t Version, uint64_t Stamp,
                           std::string_view Payload) {
  ser::ByteWriter W;
  W.u32(Magic);
  W.u32(Version);
  W.u64(Stamp);
  W.u64(Payload.size());
  W.u32(checksum(Payload));
  std::string File = W.take();
  File += Payload;
  return File;
}

envelope::Opened envelope::open(std::string_view Bytes, uint32_t Magic,
                                uint32_t Version, uint64_t Stamp) {
  auto refuse = [](Verdict V, const char *Why) { return Opened{V, {}, Why}; };
  // A short file is truncation whatever its first bytes say: checked
  // first so a torn header is never mistaken for skew.
  if (Bytes.size() < kHeaderBytes)
    return refuse(Verdict::Corrupt, "truncated header");
  ser::ByteReader R(Bytes.data(), Bytes.size());
  if (R.u32() != Magic)
    return refuse(Verdict::Corrupt, "bad magic");
  if (R.u32() != Version)
    return refuse(Verdict::Skew, "format version skew");
  if (R.u64() != Stamp)
    return refuse(Verdict::Skew, "stamp skew");
  uint64_t Size = R.u64();
  uint32_t Crc = R.u32();
  if (Size != R.remaining())
    return refuse(Verdict::Corrupt, "payload size mismatch");
  std::string_view Payload = Bytes.substr(kHeaderBytes);
  if (checksum(Payload) != Crc)
    return refuse(Verdict::Corrupt, "checksum mismatch");
  return Opened{Verdict::Ok, Payload, ""};
}

bool envelope::readFile(const std::string &Path, uint64_t MaxBytes,
                        std::string &Out) {
  std::error_code EC;
  uint64_t Size = fs::file_size(Path, EC);
  if (EC || Size > MaxBytes)
    return false;
  return atomicfile::readFile(Path, Out);
}

void envelope::settle(const std::string &Path, Verdict V) {
  std::error_code IgnoredEC;
  switch (V) {
  case Verdict::Ok:
    return;
  case Verdict::Corrupt:
    fs::rename(Path, Path + ".corrupt", IgnoredEC);
    if (IgnoredEC)
      fs::remove(Path, IgnoredEC);
    return;
  case Verdict::Skew:
    fs::remove(Path, IgnoredEC);
    return;
  }
}
