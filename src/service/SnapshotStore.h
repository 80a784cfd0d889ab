//===- service/SnapshotStore.h - Hibernated workspaces on disk -*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk side of session hibernation: one `session-<id>.mjws` file
/// per hibernated workspace under MAJIC_SESSION_DIR, written atomically
/// (temp + fsync + rename via support/AtomicFile). The file is the
/// runtime/ValueSerialize workspace payload in the support/Envelope
/// container (see support/Envelope.h), whose verdicts map to load
/// statuses:
///
///   Ok      the workspace decoded clean; the caller owns deleting the
///           file once the resurrected session is live (a snapshot must
///           never outlive the state it describes, or a later crash could
///           resurrect the past).
///   Missing no snapshot - nothing was ever saved, a completed resurrect
///           consumed it, or it was skew (removed silently).
///   Corrupt the envelope or the payload decoder refused it: the file is
///           quarantined and the session restarts empty, loudly.
///
/// Fault sites `session-snapshot-save` / `session-snapshot-load` gate the
/// two paths for both throw-mode sweeps (clean failure handling) and
/// kill-mode sweeps (the fork/SIGKILL recovery harness).
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_SERVICE_SNAPSHOTSTORE_H
#define MAJIC_SERVICE_SNAPSHOTSTORE_H

#include "runtime/ValueSerialize.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace majic {

class SnapshotStore {
public:
  /// Creates \p Dir if needed. A store whose directory cannot be created
  /// reports every save as failed and every load as Missing.
  explicit SnapshotStore(std::string Dir);

  enum class LoadStatus { Ok, Missing, Corrupt };

  /// Oversized snapshot files are rejected as corrupt before reading:
  /// a torn length field must not drive a giant allocation.
  static constexpr uint64_t kMaxFileBytes = 1ull << 30;

  /// Atomically persists \p Img as session \p Id's snapshot. Returns false
  /// on any failure (including an injected one); a failed save leaves no
  /// partial file and no stale snapshot for \p Id.
  bool save(uint64_t Id, const ser::WorkspaceImage &Img);

  /// Loads and validates session \p Id's snapshot. On Corrupt the file has
  /// already been quarantined (or removed on skew) and a structured
  /// diagnostic printed to stderr.
  LoadStatus load(uint64_t Id, ser::WorkspaceImage &Out);

  /// Deletes session \p Id's snapshot (after a successful resurrect, or
  /// when a hibernated session is destroyed).
  void remove(uint64_t Id);

  /// The session ids with a snapshot on disk, sorted - the recovery sweep
  /// a restarted service runs before admitting traffic.
  std::vector<uint64_t> scan() const;

  /// Removes temp files a crashed save left behind. Call once at startup.
  unsigned sweepTemps();

  std::string pathFor(uint64_t Id) const;
  const std::string &dir() const { return Dir; }
  bool usable() const { return Usable; }

  struct StatsSnapshot {
    uint64_t Saved = 0;
    uint64_t SaveFailures = 0;
    uint64_t Loaded = 0;
    uint64_t Quarantined = 0;
    uint64_t Skewed = 0;
  };
  StatsSnapshot stats() const;

private:
  std::string Dir;
  bool Usable = false;
  mutable std::mutex Mutex;
  StatsSnapshot Stats;
};

} // namespace majic

#endif // MAJIC_SERVICE_SNAPSHOTSTORE_H
