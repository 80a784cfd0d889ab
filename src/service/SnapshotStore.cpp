//===- service/SnapshotStore.cpp - Hibernated workspaces on disk -----------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/SnapshotStore.h"

#include "support/AtomicFile.h"
#include "support/Envelope.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace majic;
namespace fs = std::filesystem;

namespace {

const char *const kExtension = ".mjws";
const char *const kPrefix = "session-";
constexpr uint32_t kMagic = 0x53574a4d; // "MJWS" little-endian
/// Bumps when the workspace payload layout changes.
constexpr uint32_t kVersion = 2;
/// A workspace carries no ABI beyond the Value model, which the version
/// already covers: the stamp is a constant.
constexpr uint64_t kStamp = 0;

/// Parses "session-<16 hex digits>.mjws"; anything else in the directory
/// (quarantined files, temp strays, unrelated droppings) is not a
/// snapshot.
bool parseSnapshotName(const std::string &Name, uint64_t &Id) {
  const std::string Pre = kPrefix;
  const std::string Ext = kExtension;
  if (Name.size() != Pre.size() + 16 + Ext.size())
    return false;
  if (Name.compare(0, Pre.size(), Pre) != 0 ||
      Name.compare(Name.size() - Ext.size(), Ext.size(), Ext) != 0)
    return false;
  uint64_t V = 0;
  for (size_t I = Pre.size(); I != Pre.size() + 16; ++I) {
    char C = Name[I];
    unsigned D;
    if (C >= '0' && C <= '9')
      D = C - '0';
    else if (C >= 'a' && C <= 'f')
      D = C - 'a' + 10;
    else
      return false;
    V = (V << 4) | D;
  }
  Id = V;
  return true;
}

} // namespace

SnapshotStore::SnapshotStore(std::string D) : Dir(std::move(D)) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  Usable = !EC && fs::is_directory(Dir, EC) && !EC;
  if (!Usable)
    std::fprintf(stderr,
                 "majic: session directory '%s' is unusable; hibernation "
                 "will reject instead of snapshot\n",
                 Dir.c_str());
}

std::string SnapshotStore::pathFor(uint64_t Id) const {
  return Dir + "/" + kPrefix + format("%016llx", (unsigned long long)Id) +
         kExtension;
}

bool SnapshotStore::save(uint64_t Id, const ser::WorkspaceImage &Img) {
  if (!Usable) {
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.SaveFailures;
    return false;
  }
  bool Ok = false;
  try {
    faults::maybeThrow(faults::Site::SessionSnapshotSave);
    std::string Bytes =
        envelope::seal(kMagic, kVersion, kStamp, ser::encodeWorkspace(Img));
    faults::killPoint(faults::Site::SessionSnapshotSave);
    std::string Error;
    Ok = atomicfile::writeFileAtomic(pathFor(Id), Bytes, &Error);
    if (Ok)
      faults::killPoint(faults::Site::SessionSnapshotSave);
    else
      std::fprintf(stderr,
                   "majic: cannot save workspace snapshot for session "
                   "%llu: %s\n",
                   (unsigned long long)Id, Error.c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr,
                 "majic: cannot save workspace snapshot for session %llu: "
                 "%s\n",
                 (unsigned long long)Id, E.what());
    Ok = false;
  }
  std::lock_guard<std::mutex> L(Mutex);
  ++(Ok ? Stats.Saved : Stats.SaveFailures);
  return Ok;
}

SnapshotStore::LoadStatus SnapshotStore::load(uint64_t Id,
                                              ser::WorkspaceImage &Out) {
  std::string Path = pathFor(Id);
  std::error_code EC;
  if (!Usable || !fs::exists(Path, EC) || EC)
    return LoadStatus::Missing;

  envelope::Verdict V = envelope::Verdict::Corrupt;
  std::string Reason;
  try {
    faults::maybeThrow(faults::Site::SessionSnapshotLoad);
    std::string Bytes;
    if (!envelope::readFile(Path, kMaxFileBytes, Bytes))
      throw ser::SerializeError("unreadable or oversized file");
    faults::killPoint(faults::Site::SessionSnapshotLoad);
    envelope::Opened O = envelope::open(Bytes, kMagic, kVersion, kStamp);
    Reason = O.Reason;
    if (O.V == envelope::Verdict::Ok)
      Out = ser::decodeWorkspace(O.Payload);
    V = O.V;
  } catch (const std::exception &E) {
    Reason = E.what();
  }

  switch (V) {
  case envelope::Verdict::Ok: {
    faults::killPoint(faults::Site::SessionSnapshotLoad);
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.Loaded;
    return LoadStatus::Ok;
  }
  case envelope::Verdict::Corrupt: {
    // The session is never offered the same torn snapshot twice: the
    // envelope's quarantine renames it out of the .mjws namespace.
    std::fprintf(stderr,
                 "majic: workspace snapshot for session %llu failed "
                 "validation (%s); quarantined as '%s.corrupt', session "
                 "restarts empty\n",
                 (unsigned long long)Id, Reason.c_str(), Path.c_str());
    envelope::settle(Path, V);
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.Quarantined;
    return LoadStatus::Corrupt;
  }
  case envelope::Verdict::Skew: {
    // Routine turnover, not corruption: the session restarts empty
    // without the corruption klaxon.
    envelope::settle(Path, V);
    std::lock_guard<std::mutex> L(Mutex);
    ++Stats.Skewed;
    return LoadStatus::Missing;
  }
  }
  return LoadStatus::Corrupt; // unreachable
}

void SnapshotStore::remove(uint64_t Id) {
  std::error_code IgnoredEC;
  fs::remove(pathFor(Id), IgnoredEC);
}

std::vector<uint64_t> SnapshotStore::scan() const {
  std::vector<uint64_t> Ids;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    if (EC)
      break;
    if (!E.is_regular_file())
      continue;
    uint64_t Id;
    if (parseSnapshotName(E.path().filename().string(), Id))
      Ids.push_back(Id);
  }
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

unsigned SnapshotStore::sweepTemps() {
  return atomicfile::sweepTempFiles(Dir, {kExtension});
}

SnapshotStore::StatsSnapshot SnapshotStore::stats() const {
  std::lock_guard<std::mutex> L(Mutex);
  return Stats;
}
