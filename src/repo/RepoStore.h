//===- repo/RepoStore.h - Persistent code repository -----------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk half of the code repository (Section 2: a "database of
/// compiled code" that snoops source directories and maintains dependency
/// information between source and object code - i.e. compiled code is
/// meant to outlive a session). One file per compiled version, named
/// `<function>.<sighash>.mjo`, written crash-safely (temp file + fsync +
/// atomic rename; see support/AtomicFile.h).
///
/// Every file - `.mjo` entries, `.mjn` native payloads beside them, and
/// `profiles.mjp` - is one support/Envelope container (see
/// support/Envelope.h for the header, the verdicts and the quarantine
/// policy); this store keeps only the three payload codecs. The `.mjo`/`.mjn` payloads
/// carry the source .m file's content hash, checked at adoption time.
/// Corruption degrades to a cold compile, never a crash or a wrong answer.
///
/// Thread-safe: saves run on the engine's idle-priority pool while the
/// interactive thread may be erasing entries for a reloaded function.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_REPO_REPOSTORE_H
#define MAJIC_REPO_REPOSTORE_H

#include "repo/Repository.h"
#include "support/ByteStream.h"

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace majic {

/// Observability counters for the persistent store.
struct RepoStoreStats {
  uint64_t Saved = 0;        ///< entries written successfully
  uint64_t SaveFailures = 0; ///< saves that failed (I/O or injected fault)
  uint64_t Loaded = 0;       ///< entries that opened and decoded clean
  uint64_t Quarantined = 0;  ///< corrupt files renamed to *.corrupt
  uint64_t Skewed = 0;       ///< discarded for format/build-stamp skew
  uint64_t StaleSource = 0;  ///< discarded because the source hash drifted
  uint64_t Adopted = 0;      ///< loaded entries published to the repository
  uint64_t SweptTemps = 0;   ///< leftover temp files removed at startup
  uint64_t ProfilesSaved = 0;        ///< profile summary files written
  uint64_t ProfileSaveFailures = 0;  ///< profile writes that failed
  uint64_t ProfilesLoaded = 0;       ///< function summaries read back
  uint64_t ProfilesQuarantined = 0;  ///< corrupt profile files renamed
  uint64_t ProfilesSkewed = 0;       ///< profile files dropped for skew
  uint64_t NativeSaved = 0;          ///< native (.mjn) entries written
  uint64_t NativeSaveFailures = 0;   ///< native saves that failed
  uint64_t NativeLoaded = 0;         ///< native entries that validated
  uint64_t NativeQuarantined = 0;    ///< corrupt native files renamed
  uint64_t NativeSkewed = 0;         ///< native files dropped for skew
  uint64_t NativeUntrusted = 0;      ///< native loads refused: dir not private
  uint64_t EntriesRead = 0; ///< .mjo and .mjn files opened by the loads
};

class RepoStore {
public:
  /// Opens (creating if needed) the store directory. A directory that
  /// cannot be created leaves the store disabled: saves fail soft.
  explicit RepoStore(std::string Dir);

  /// Removes temp files a crashed save left behind. Returns the count.
  unsigned sweepTemps();

  /// One validated entry read back from disk.
  struct Entry {
    CompiledObject Obj;
    uint64_t SourceHash = 0; ///< content hash of the source .m definition
    std::string Path;        ///< the file it came from
  };

  /// Reads and validates \p FunctionName's entries (its
  /// `<FunctionName>.*.mjo` files) and nothing else. Files the envelope or
  /// the decoder refuses are quarantined or discarded (see stats()); this
  /// never throws and never crashes, whatever the bytes on disk are.
  std::vector<Entry> load(const std::string &FunctionName);

  /// load() over every entry in the store.
  std::vector<Entry> loadAll();

  /// The file names of the store's .mjo entries, from one listing of the
  /// directory: a snapshot for hasEntry to test many versions against.
  std::unordered_set<std::string> entryNames() const;

  /// True when \p Names, an entryNames() snapshot, holds the file for
  /// \p FunctionName's version \p Sig. The file is not read, so this
  /// vouches for nothing but the name.
  static bool hasEntry(const std::unordered_set<std::string> &Names,
                       const std::string &FunctionName,
                       const TypeSignature &Sig);

  /// Persists one compiled version (crash-safely; replaces any previous
  /// file for the same function + signature). Returns false on failure -
  /// saving is best-effort, a failed save only costs a future recompile.
  bool save(const CompiledObject &Obj, uint64_t SourceHash);

  /// Deletes every on-disk version of \p FunctionName.
  void erase(const std::string &FunctionName);

  /// Deletes one entry file (stale-source cleanup at adoption time).
  void discardStale(const std::string &Path);

  /// Bumps the Adopted counter (the engine decides adoption; the store
  /// keeps the statistic so warm-start behavior is observable in one place).
  void noteAdopted();

  /// One persisted observed signature: the serialized type signature plus
  /// its call count. SigStr is re-rendered from the signature at load time
  /// (the rendering is deterministic, so it round-trips with the string
  /// keys FunctionProfiles uses).
  struct ProfileSig {
    TypeSignature Sig;
    std::string SigStr;
    uint64_t Count = 0;
    /// The signature of a compiled version that served Sig when the
    /// profile was saved, if any: the store names that version's file by
    /// it, so the next session can tell the store serves Sig without
    /// reading a file.
    std::optional<TypeSignature> ServedBy;
  };

  /// One function's persisted profile summary.
  struct ProfileSummary {
    std::string Name;
    uint64_t Invocations = 0;
    uint64_t OtherSignatures = 0;
    std::vector<ProfileSig> Sigs; ///< most-called first, <= kProfileTopK
  };

  /// Signatures persisted per function (mirrors the in-memory cap).
  static constexpr size_t kProfileTopK = 16;

  /// Name of the single profile summary file inside the store directory.
  static constexpr const char *kProfileFileName = "profiles.mjp";

  /// Atomically replaces the profile summary file. Best-effort like
  /// save(): a failed write only costs next session's hot-first ordering.
  bool saveProfiles(const std::vector<ProfileSummary> &Profiles);

  /// Reads the profile summary file through the envelope, stamped like
  /// .mjo entries. A corrupt file is quarantined (*.corrupt), a skewed one
  /// deleted; either way this returns empty and the session cold-starts
  /// its profile. Never throws.
  std::vector<ProfileSummary> loadProfiles();

  /// Full path of the profile summary file (even when the store directory
  /// could not be created).
  std::string profilePath() const;

  //===--------------------------------------------------------------------===//
  // Native payloads (.mjn): machine code beside the IR
  //===--------------------------------------------------------------------===//

  /// One validated native shared object read back from disk. The .so bytes
  /// are opaque to the store; the engine dlopens them (or falls back to
  /// the VM if that fails - the repository never vouches for more than
  /// byte integrity).
  ///
  /// Trust model: CRC32 is integrity, not authenticity, and dlopen'ing a
  /// payload is arbitrary code execution - a step up from the data-only
  /// .mjo files, whose worst case is a bounds-checked decode failure. So
  /// native payloads are only saved to and loaded from a directory private
  /// to this user: owned by the effective uid and neither group- nor
  /// world-writable (see nativeTrusted()). An untrusted directory degrades
  /// to cold native compiles; .mjo traffic is unaffected.
  struct NativeEntry {
    std::string FunctionName;
    TypeSignature Sig;
    uint32_t NumOuts = 0;          ///< entry-point output arity
    std::string SoBytes;           ///< the ELF image, verbatim
    uint64_t SourceHash = 0;       ///< content hash of the source .m text
    std::string Path;              ///< the file it came from
  };

  /// Folds tier-specific facts (native ABI version, compiler identity)
  /// into the build stamp used for .mjn files only. Machine code is an
  /// even narrower ABI than serialized IR: a compiler upgrade or an ABI
  /// bump invalidates the cached .so while the .mjo beside it stays good,
  /// so the two payload kinds carry different stamps. Call once before
  /// any native save/load; defaults to 0 (still a valid stamp - entries
  /// written under a different extra are discarded as skew).
  void setNativeStampExtra(uint64_t Extra);

  /// Persists one compiled shared object crash-safely beside the .mjo for
  /// the same function + signature. Best-effort like save().
  bool saveNative(const std::string &FunctionName, const TypeSignature &Sig,
                  uint32_t NumOuts, const std::string &SoBytes,
                  uint64_t SourceHash);

  /// Reads and validates every .mjn entry like loadAll(), under the
  /// native stamp.
  std::vector<NativeEntry> loadAllNative();

  /// Deletes every on-disk native version of \p FunctionName (runtime
  /// quarantine or source turnover; the .mjo files are left alone).
  void eraseNative(const std::string &FunctionName);

  RepoStoreStats stats() const;

  /// Whether the store directory is private enough to carry machine code:
  /// owned by the effective uid, no group/world write bit. Checked once at
  /// construction; false gates the native saves and loads, never .mjo
  /// files.
  bool nativeTrusted() const { return NativeTrusted; }

  const std::string &directory() const { return Dir; }

private:
  /// One payload kind: envelope magic and version, file extension, and
  /// the stats fields its outcomes count into (defined in RepoStore.cpp).
  struct Kind;
  static const Kind ObjKind, NativeKind, ProfileKind;

  /// The kind's files in the store whose names start with \p Prefix,
  /// sorted.
  std::vector<std::string> filesOf(const Kind &K,
                                   const std::string &Prefix = "") const;
  /// Seals \p Payload() and writes it atomically to \p Path when
  /// \p Allowed; counts the outcome. Never throws.
  bool write(const Kind &K, uint64_t Stamp, bool Allowed,
             const std::string &Path,
             const std::function<std::string()> &Payload);
  /// Opens \p Path and hands the payload to \p Decode, which returns how
  /// many items it loaded; settles the file and counts the outcome.
  void readFile(const Kind &K, uint64_t Stamp, const std::string &Path,
                const std::function<uint64_t(ser::ByteReader &)> &Decode);
  /// The .mjo entries whose file names start with \p Prefix.
  std::vector<Entry> readEntries(const std::string &Prefix);
  void eraseFiles(const std::string &FunctionName,
                  std::initializer_list<const Kind *> Kinds);
  void count(uint64_t RepoStoreStats::*Field, uint64_t N = 1);

  std::string versionPath(const Kind &K, const std::string &FunctionName,
                          const TypeSignature &Sig) const;

  std::string Dir;
  bool Usable = false;
  bool NativeTrusted = false; ///< see nativeTrusted()
  uint64_t NativeExtra = 0; ///< see setNativeStampExtra
  mutable std::mutex Mutex; ///< guards Stats (file ops are atomic already)
  RepoStoreStats Stats;
};

} // namespace majic

#endif // MAJIC_REPO_REPOSTORE_H
