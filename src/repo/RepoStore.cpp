//===- repo/RepoStore.cpp - Persistent code repository ----------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "repo/RepoStore.h"

#include "ir/Serialize.h"
#include "obs/Trace.h"
#include "support/AtomicFile.h"
#include "support/Envelope.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <filesystem>

#include <sys/stat.h>
#include <unistd.h>

using namespace majic;
namespace fs = std::filesystem;

/// One payload kind of the store: its envelope identity, its file
/// extension, and the stats fields its outcomes count into.
struct RepoStore::Kind {
  uint32_t Magic;
  uint32_t Version;
  const char *Ext;
  uint64_t RepoStoreStats::*Saved;
  uint64_t RepoStoreStats::*SaveFailures;
  uint64_t RepoStoreStats::*Loaded;
  uint64_t RepoStoreStats::*Quarantined;
  uint64_t RepoStoreStats::*Skewed;
};

const RepoStore::Kind RepoStore::ObjKind = {
    0x4d4a4f42u /* "MJOB" */, 2, ".mjo",
    &RepoStoreStats::Saved,   &RepoStoreStats::SaveFailures,
    &RepoStoreStats::Loaded,  &RepoStoreStats::Quarantined,
    &RepoStoreStats::Skewed};
const RepoStore::Kind RepoStore::NativeKind = {
    0x4d4a4e42u /* "MJNB" */,      2, ".mjn",
    &RepoStoreStats::NativeSaved,  &RepoStoreStats::NativeSaveFailures,
    &RepoStoreStats::NativeLoaded, &RepoStoreStats::NativeQuarantined,
    &RepoStoreStats::NativeSkewed};
const RepoStore::Kind RepoStore::ProfileKind = {
    0x4d4a5046u /* "MJPF" */,        3, ".mjp",
    &RepoStoreStats::ProfilesSaved,  &RepoStoreStats::ProfileSaveFailures,
    &RepoStoreStats::ProfilesLoaded, &RepoStoreStats::ProfilesQuarantined,
    &RepoStoreStats::ProfilesSkewed};

namespace {

/// Refuse to slurp absurdly large files: a cache entry is a few KB; a
/// multi-megabyte one is damage, not data.
constexpr uint64_t kMaxFileBytes = 64ull << 20;

/// The engine build stamp: compiled code is an internal ABI (IR opcodes,
/// register layout, VM semantics), so entries written under a different
/// ABI are discarded rather than decoded. The stamp derives from
/// ser::kCodeABIVersion - a constant bumped by hand with semantic changes -
/// plus mechanical facts of the opcode set that catch the most common
/// drift (adding an opcode, widening an instruction) automatically. A
/// compilation timestamp would do neither job: under incremental builds it
/// churns without a semantic change and, worse, stays fixed when a
/// semantic change lands in a translation unit this file never includes.
uint64_t buildStamp() {
  struct {
    uint32_t Abi;
    uint32_t MaxOpcode;
    uint32_t InstrBytes;
    uint32_t TypeBytes;
  } Facts = {ser::kCodeABIVersion, static_cast<uint32_t>(kLastOpcode),
             static_cast<uint32_t>(sizeof(Instr)),
             static_cast<uint32_t>(sizeof(Type))};
  return hashing::fnv1a(&Facts, sizeof(Facts),
                        hashing::fnv1a("majic-repo-abi"));
}

/// The native payload stamp: machine code is a narrower ABI than
/// serialized IR (it bakes in the marshalling struct layout, the shim
/// table order, and the compiler that produced it), so .mjn files fold
/// the engine-supplied extra - native ABI version plus a hash of the C
/// compiler's identification line - on top of the code stamp. A compiler
/// upgrade invalidates the cached .so while the .mjo beside it survives.
uint64_t nativeStamp(uint64_t Extra) {
  struct {
    uint64_t Base;
    uint64_t Extra;
  } Facts = {buildStamp(), Extra};
  return hashing::fnv1a(&Facts, sizeof(Facts),
                        hashing::fnv1a("majic-native-abi"));
}

std::string sigHashHex(const TypeSignature &Sig) {
  ser::ByteWriter SigBytes;
  ser::writeTypeSignature(SigBytes, Sig);
  return format("%016llx", static_cast<unsigned long long>(
                               hashing::fnv1a(SigBytes.bytes())));
}

/// The file name of \p FunctionName's version \p Sig of one payload kind.
std::string versionName(const char *Ext, const std::string &FunctionName,
                        const TypeSignature &Sig) {
  return FunctionName + "." + sigHashHex(Sig) + Ext;
}

// The payload codecs. Each payload leads with what its header used to
// carry beyond the envelope (the source hash), so the CRC covers it.

std::string encodeObj(const CompiledObject &Obj, uint64_t SourceHash) {
  ser::ByteWriter W;
  W.u64(SourceHash);
  W.str(Obj.FunctionName);
  ser::writeTypeSignature(W, Obj.Sig);
  W.u8(static_cast<uint8_t>(Obj.Mode));
  W.u8(static_cast<uint8_t>(Obj.From));
  W.f64(Obj.CompileSeconds);
  ser::writeIRFunction(W, *Obj.Code);
  return W.take();
}

RepoStore::Entry decodeObj(ser::ByteReader &R) {
  RepoStore::Entry E;
  E.SourceHash = R.u64();
  CompiledObject &Obj = E.Obj;
  Obj.FunctionName = R.str();
  Obj.Sig = ser::readTypeSignature(R);
  uint8_t Mode = R.u8();
  if (Mode > static_cast<uint8_t>(CodeGenMode::Generic))
    throw ser::SerializeError("invalid codegen mode");
  Obj.Mode = static_cast<CodeGenMode>(Mode);
  uint8_t From = R.u8();
  if (From > static_cast<uint8_t>(CompiledObject::Origin::Generic))
    throw ser::SerializeError("invalid origin");
  Obj.From = static_cast<CompiledObject::Origin>(From);
  Obj.CompileSeconds = R.f64();
  Obj.Code = std::make_shared<IRFunction>(ser::readIRFunction(R));
  if (!R.atEnd())
    throw ser::SerializeError("trailing bytes after payload");
  if (Obj.Code->Name != Obj.FunctionName)
    throw ser::SerializeError("function name mismatch");
  return E;
}

/// A function name is a MATLAB identifier ([A-Za-z_][A-Za-z0-9_]*), which
/// is filesystem-safe by construction; anything else never reaches the
/// repository, but check anyway so a hostile name cannot escape the dir.
bool safeFileName(const std::string &Name) {
  if (Name.empty())
    return false;
  for (char C : Name)
    if (!(std::isalnum(static_cast<unsigned char>(C)) || C == '_'))
      return false;
  return true;
}

std::string encodeNative(const std::string &FunctionName,
                         const TypeSignature &Sig, uint32_t NumOuts,
                         const std::string &SoBytes, uint64_t SourceHash) {
  ser::ByteWriter W;
  W.u64(SourceHash);
  W.str(FunctionName);
  ser::writeTypeSignature(W, Sig);
  W.u32(NumOuts);
  W.str(SoBytes);
  return W.take();
}

RepoStore::NativeEntry decodeNative(ser::ByteReader &R) {
  RepoStore::NativeEntry E;
  E.SourceHash = R.u64();
  E.FunctionName = R.str();
  if (!safeFileName(E.FunctionName))
    throw ser::SerializeError("invalid function name");
  E.Sig = ser::readTypeSignature(R);
  E.NumOuts = R.u32();
  E.SoBytes = R.str();
  if (!R.atEnd())
    throw ser::SerializeError("trailing bytes after payload");
  if (E.SoBytes.empty())
    throw ser::SerializeError("empty shared object");
  return E;
}

std::string encodeProfiles(const std::vector<RepoStore::ProfileSummary> &Ps) {
  ser::ByteWriter W;
  W.u32(static_cast<uint32_t>(Ps.size()));
  for (const RepoStore::ProfileSummary &S : Ps) {
    W.str(S.Name);
    W.u64(S.Invocations);
    W.u64(S.OtherSignatures);
    size_t N = std::min(S.Sigs.size(), RepoStore::kProfileTopK);
    W.u32(static_cast<uint32_t>(N));
    for (size_t I = 0; I != N; ++I) {
      ser::writeTypeSignature(W, S.Sigs[I].Sig);
      W.u64(S.Sigs[I].Count);
      W.u8(S.Sigs[I].ServedBy.has_value());
      if (S.Sigs[I].ServedBy)
        ser::writeTypeSignature(W, *S.Sigs[I].ServedBy);
    }
  }
  return W.take();
}

std::vector<RepoStore::ProfileSummary> decodeProfiles(ser::ByteReader &R) {
  uint32_t Count = R.u32();
  std::vector<RepoStore::ProfileSummary> Out;
  Out.reserve(Count);
  for (uint32_t I = 0; I != Count; ++I) {
    RepoStore::ProfileSummary S;
    S.Name = R.str();
    if (!safeFileName(S.Name))
      throw ser::SerializeError("invalid function name");
    S.Invocations = R.u64();
    S.OtherSignatures = R.u64();
    uint32_t NSigs = R.u32();
    if (NSigs > RepoStore::kProfileTopK)
      throw ser::SerializeError("signature count out of range");
    S.Sigs.reserve(NSigs);
    for (uint32_t J = 0; J != NSigs; ++J) {
      RepoStore::ProfileSig PS;
      PS.Sig = ser::readTypeSignature(R);
      PS.Count = R.u64();
      uint8_t HasServedBy = R.u8();
      if (HasServedBy > 1)
        throw ser::SerializeError("invalid served-by flag");
      if (HasServedBy)
        PS.ServedBy = ser::readTypeSignature(R);
      PS.SigStr = PS.Sig.str();
      S.Sigs.push_back(std::move(PS));
    }
    Out.push_back(std::move(S));
  }
  if (!R.atEnd())
    throw ser::SerializeError("trailing bytes after payload");
  return Out;
}

/// Whether \p Dir is private enough to carry machine code: owned by the
/// effective uid and neither group- nor world-writable. The envelope
/// proves the bytes are intact, not who wrote them - and a .mjn payload
/// gets dlopen'ed, so anyone who can write the directory can run code in
/// the engine process. Data-only .mjo entries are not held to this bar:
/// their worst case is a bounds-checked decode failure.
bool dirTrustedForNative(const std::string &Dir) {
  struct stat St;
  if (lstat(Dir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
    return false;
  if (St.st_uid != geteuid())
    return false;
  return (St.st_mode & (S_IWGRP | S_IWOTH)) == 0;
}

} // namespace

RepoStore::RepoStore(std::string DirIn) : Dir(std::move(DirIn)) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  Usable = !EC && fs::is_directory(Dir, EC);
  NativeTrusted = Usable && dirTrustedForNative(Dir);
}

unsigned RepoStore::sweepTemps() {
  if (!Usable)
    return 0;
  unsigned N = atomicfile::sweepTempFiles(
      Dir, {ObjKind.Ext, ProfileKind.Ext, NativeKind.Ext});
  std::lock_guard<std::mutex> L(Mutex);
  Stats.SweptTemps += N;
  return N;
}

std::vector<std::string> RepoStore::filesOf(const Kind &K,
                                            const std::string &Prefix) const {
  std::string_view Ext = K.Ext;
  // A file named just ".mjo" has no extension, as std::filesystem reads it.
  std::vector<std::string> Paths =
      atomicfile::listFiles(Dir, [&](std::string_view Name) {
        return Name.size() > Ext.size() && Name.ends_with(Ext) &&
               Name.starts_with(Prefix);
      });
  std::sort(Paths.begin(), Paths.end()); // deterministic load order
  return Paths;
}

void RepoStore::count(uint64_t RepoStoreStats::*Field, uint64_t N) {
  std::lock_guard<std::mutex> L(Mutex);
  Stats.*Field += N;
}

bool RepoStore::write(const Kind &K, uint64_t Stamp, bool Allowed,
                      const std::string &Path,
                      const std::function<std::string()> &Payload) {
  // Saving must never take down the caller (it runs on the idle pool or
  // inline on the compile path): any failure - injected fault, full disk,
  // unwritable directory - is swallowed into a counter.
  try {
    faults::maybeThrow(faults::Site::RepoSave);
    if (!Allowed)
      throw std::runtime_error("store unusable");
    std::string Error;
    if (!atomicfile::writeFileAtomic(
            Path, envelope::seal(K.Magic, K.Version, Stamp, Payload()),
            &Error))
      throw std::runtime_error(Error);
  } catch (...) {
    count(K.SaveFailures);
    return false;
  }
  count(K.Saved);
  return true;
}

void RepoStore::readFile(
    const Kind &K, uint64_t Stamp, const std::string &Path,
    const std::function<uint64_t(ser::ByteReader &)> &Decode) {
  envelope::Verdict V = envelope::Verdict::Corrupt;
  uint64_t Items = 0;
  try {
    faults::maybeThrow(faults::Site::RepoLoad);
    std::string Bytes;
    if (envelope::readFile(Path, kMaxFileBytes, Bytes)) {
      envelope::Opened O = envelope::open(Bytes, K.Magic, K.Version, Stamp);
      if (O.V == envelope::Verdict::Ok) {
        ser::ByteReader R(O.Payload.data(), O.Payload.size());
        Items = Decode(R);
      }
      V = O.V;
    }
  } catch (...) {
    // an injected fault or a payload the decoder refused: Corrupt
  }
  envelope::settle(Path, V);
  if (V == envelope::Verdict::Ok)
    count(K.Loaded, Items);
  else
    count(V == envelope::Verdict::Skew ? K.Skewed : K.Quarantined);
}

std::string RepoStore::versionPath(const Kind &K,
                                   const std::string &FunctionName,
                                   const TypeSignature &Sig) const {
  // One file per (function, signature) version: the signature hash keys
  // the version, so recompiling the same signature overwrites in place,
  // and a version's .mjn lands beside its .mjo.
  return Dir + "/" + versionName(K.Ext, FunctionName, Sig);
}

bool RepoStore::save(const CompiledObject &Obj, uint64_t SourceHash) {
  obs::TraceScope Span("repo.save", "repo", Obj.FunctionName.c_str());
  return write(ObjKind, buildStamp(),
               Usable && Obj.Code && safeFileName(Obj.FunctionName),
               versionPath(ObjKind, Obj.FunctionName, Obj.Sig),
               [&] { return encodeObj(Obj, SourceHash); });
}

std::vector<RepoStore::Entry>
RepoStore::readEntries(const std::string &Prefix) {
  std::vector<Entry> Out;
  if (!Usable)
    return Out;
  std::vector<std::string> Paths = filesOf(ObjKind, Prefix);
  count(&RepoStoreStats::EntriesRead, Paths.size());
  // The source-hash check runs later, at adoption time, when the engine
  // knows the current source text.
  for (const std::string &Path : Paths)
    readFile(ObjKind, buildStamp(), Path, [&](ser::ByteReader &R) {
      Entry E = decodeObj(R);
      E.Path = Path;
      Out.push_back(std::move(E));
      return 1;
    });
  return Out;
}

std::vector<RepoStore::Entry> RepoStore::load(const std::string &FunctionName) {
  obs::TraceScope Span("repo.load", "repo", FunctionName.c_str());
  if (!safeFileName(FunctionName))
    return {};
  return readEntries(FunctionName + ".");
}

std::vector<RepoStore::Entry> RepoStore::loadAll() {
  obs::TraceScope Span("repo.load", "repo", Dir.c_str());
  return readEntries("");
}

std::unordered_set<std::string> RepoStore::entryNames() const {
  std::unordered_set<std::string> Names;
  if (Usable)
    for (const std::string &Path : filesOf(ObjKind))
      Names.insert(Path.substr(Path.rfind('/') + 1));
  return Names;
}

bool RepoStore::hasEntry(const std::unordered_set<std::string> &Names,
                         const std::string &FunctionName,
                         const TypeSignature &Sig) {
  return Names.count(versionName(ObjKind.Ext, FunctionName, Sig));
}

void RepoStore::eraseFiles(const std::string &FunctionName,
                           std::initializer_list<const Kind *> Kinds) {
  if (!Usable || !safeFileName(FunctionName))
    return;
  for (const Kind *K : Kinds)
    for (const std::string &Path : filesOf(*K, FunctionName + ".")) {
      std::error_code RmEC;
      fs::remove(Path, RmEC);
    }
}

void RepoStore::erase(const std::string &FunctionName) {
  // Source turnover invalidates both payload kinds: the native .so was
  // compiled from the same stale source as the IR beside it.
  eraseFiles(FunctionName, {&ObjKind, &NativeKind});
}

void RepoStore::eraseNative(const std::string &FunctionName) {
  eraseFiles(FunctionName, {&NativeKind});
}

void RepoStore::discardStale(const std::string &Path) {
  std::error_code EC;
  fs::remove(Path, EC);
  count(&RepoStoreStats::StaleSource);
}

void RepoStore::noteAdopted() { count(&RepoStoreStats::Adopted); }

//===----------------------------------------------------------------------===//
// Native payloads (.mjn)
//===----------------------------------------------------------------------===//

void RepoStore::setNativeStampExtra(uint64_t Extra) { NativeExtra = Extra; }

bool RepoStore::saveNative(const std::string &FunctionName,
                           const TypeSignature &Sig, uint32_t NumOuts,
                           const std::string &SoBytes, uint64_t SourceHash) {
  obs::TraceScope Span("repo.save_native", "repo", FunctionName.c_str());
  return write(NativeKind, nativeStamp(NativeExtra),
               Usable && NativeTrusted && !SoBytes.empty() &&
                   safeFileName(FunctionName),
               versionPath(NativeKind, FunctionName, Sig), [&] {
                 return encodeNative(FunctionName, Sig, NumOuts, SoBytes,
                                     SourceHash);
               });
}

std::vector<RepoStore::NativeEntry> RepoStore::loadAllNative() {
  obs::TraceScope Span("repo.load_native", "repo", Dir.c_str());
  std::vector<NativeEntry> Out;
  if (!Usable)
    return Out;
  if (!NativeTrusted) {
    // The envelope cannot establish authenticity: loading from a
    // directory other users can write would hand them native code
    // execution. Leave the files alone and degrade to cold compiles.
    obs::traceInstant("repo.native_untrusted", "repo", Dir);
    count(&RepoStoreStats::NativeUntrusted);
    return Out;
  }
  std::vector<std::string> Paths = filesOf(NativeKind);
  count(&RepoStoreStats::EntriesRead, Paths.size());
  // As for .mjo entries, the source-hash check runs at adoption time.
  for (const std::string &Path : Paths)
    readFile(NativeKind, nativeStamp(NativeExtra), Path,
             [&](ser::ByteReader &R) {
               NativeEntry E = decodeNative(R);
               E.Path = Path;
               Out.push_back(std::move(E));
               return 1;
             });
  return Out;
}

//===----------------------------------------------------------------------===//
// Persistent profiles (profiles.mjp)
//===----------------------------------------------------------------------===//

std::string RepoStore::profilePath() const {
  return Dir + "/" + kProfileFileName;
}

bool RepoStore::saveProfiles(const std::vector<ProfileSummary> &Ps) {
  obs::TraceScope Span("repo.save_profiles", "repo", Dir.c_str());
  return write(ProfileKind, buildStamp(), Usable, profilePath(), [&] {
    // A summary whose name could not have come from a MATLAB identifier is
    // damage; persisting it would only make the next load quarantine.
    std::vector<ProfileSummary> Clean;
    Clean.reserve(Ps.size());
    for (const ProfileSummary &S : Ps)
      if (safeFileName(S.Name))
        Clean.push_back(S);
    return encodeProfiles(Clean);
  });
}

std::vector<RepoStore::ProfileSummary> RepoStore::loadProfiles() {
  obs::TraceScope Span("repo.load_profiles", "repo", Dir.c_str());
  std::vector<ProfileSummary> Out;
  if (!Usable)
    return Out;
  std::string Path = profilePath();
  std::error_code ExistsEC;
  if (!fs::exists(Path, ExistsEC) || ExistsEC)
    return Out; // a missing profile file is a routine cold start
  // There is no source-hash check: profiles are advisory - a stale profile
  // mis-ranks the queue, and the engine guards observed signatures against
  // the live arity before use.
  readFile(ProfileKind, buildStamp(), Path, [&](ser::ByteReader &R) {
    Out = decodeProfiles(R);
    return Out.size();
  });
  return Out;
}

RepoStoreStats RepoStore::stats() const {
  std::lock_guard<std::mutex> L(Mutex);
  return Stats;
}
