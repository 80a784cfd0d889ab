//===- repo/Repository.h - The code repository -----------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The code repository (Section 2): "a database of compiled code" that may
/// hold, at any time, several compiled versions of the same function,
/// differing only in their assumptions about the input types (Figure 3).
/// The function locator matches an invocation against the stored versions:
/// a version is *safe* when the invocation's types are subtypes of its
/// signature (Qi <= Ti), and among safe versions the best candidate is the
/// one at the smallest Manhattan-like distance (Section 2.2.1).
///
/// The repository is thread-safe: background speculative-compilation
/// workers insert while the interactive thread looks up. Lookups hand out
/// shared ownership (`std::shared_ptr<const CompiledObject>`) rather than
/// raw pointers into the version vectors, so a concurrent insert that
/// grows a vector - or an invalidate that drops a function - can never
/// leave a caller holding a dangling object.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_REPO_REPOSITORY_H
#define MAJIC_REPO_REPOSITORY_H

#include "backend/CodeGen.h"
#include "ir/Instr.h"
#include "obs/Metrics.h"
#include "types/Signature.h"

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace majic {

/// One compiled version of a function.
struct CompiledObject {
  std::string FunctionName;
  TypeSignature Sig;
  std::shared_ptr<const IRFunction> Code;
  CodeGenMode Mode = CodeGenMode::Jit;
  /// Wall-clock seconds spent producing this object (inference + code
  /// generation + optimization + allocation).
  double CompileSeconds = 0;
  /// How this object came to exist, for the repository's statistics.
  enum class Origin : uint8_t { Jit, Speculative, Batch, Generic } From =
      Origin::Jit;
  /// Per-object use count; atomic because the locator bumps it from
  /// whichever thread performs the lookup.
  mutable std::atomic<uint64_t> Hits{0};
  /// Process-unique identity of this content, never reused: a move hands
  /// it on with the content and gives the moved-from husk a fresh one.
  /// Keys per-object memos that must not outlive the object (the engine's
  /// native-module memo).
  uint64_t Id = nextId();

  CompiledObject() = default;
  CompiledObject(CompiledObject &&O) noexcept
      : FunctionName(std::move(O.FunctionName)), Sig(std::move(O.Sig)),
        Code(std::move(O.Code)), Mode(O.Mode),
        CompileSeconds(O.CompileSeconds), From(O.From),
        Hits(O.Hits.load(std::memory_order_relaxed)), Id(O.Id) {
    O.Id = nextId();
  }
  CompiledObject &operator=(CompiledObject &&O) noexcept {
    FunctionName = std::move(O.FunctionName);
    Sig = std::move(O.Sig);
    Code = std::move(O.Code);
    Mode = O.Mode;
    CompileSeconds = O.CompileSeconds;
    From = O.From;
    Hits.store(O.Hits.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    Id = O.Id;
    O.Id = nextId();
    return *this;
  }

private:
  static uint64_t nextId();
};

/// Shared handle to a repository entry: stays valid after the entry is
/// replaced or invalidated.
using CompiledObjectPtr = std::shared_ptr<const CompiledObject>;

class Repository {
public:
  /// The function locator: returns the best safe version for \p Invocation,
  /// or null ("a failure to find appropriate code usually triggers a
  /// compilation").
  CompiledObjectPtr lookup(const std::string &Name,
                           const TypeSignature &Invocation) const;

  /// Stores a compiled version. An existing version with the identical
  /// signature is replaced ("the generated code can later be recompiled
  /// and replaced in the repository using a better compiler"); the
  /// replaced version's accumulated hit count carries over to the new
  /// object, and its compile time stays in totalCompileSeconds(), so the
  /// repository statistics survive recompilation.
  ///
  /// When a version cap is set and the function already holds that many
  /// versions, the least-used (lowest hit count, oldest among ties)
  /// version is evicted — never the one being inserted, so a freshly
  /// compiled cold version cannot be discarded before its first use.
  void insert(CompiledObject Obj);

  /// Caps the number of versions kept per function; 0 means unlimited.
  void setVersionCap(size_t Cap);

  /// Versions discarded to stay under the cap, over the repository's life.
  uint64_t evictions() const { return EvictionsCount.value(); }

  /// Drops every version of \p Name (the source changed).
  void invalidate(const std::string &Name);

  /// Snapshot of all versions of \p Name (inspection/tests); empty when
  /// unknown. A snapshot by value: the repository may change underneath.
  std::vector<CompiledObjectPtr> versions(const std::string &Name) const;

  /// Number of stored versions of \p Name (0 when unknown).
  size_t versionCount(const std::string &Name) const;

  size_t totalObjects() const;

  /// Misses where the function had no entry at all (never compiled or
  /// invalidated) vs. misses where versions existed but none was safe for
  /// the invocation (a speculation/specialization miss). Table-2-style
  /// speculation-accuracy stats must use the NoSafeVersion count only.
  uint64_t lookupMissesNoFunction() const { return MissesNoFunction.value(); }
  uint64_t lookupMissesNoSafeVersion() const {
    return MissesNoSafeVersion.value();
  }
  /// All misses (both kinds combined).
  uint64_t lookupMisses() const {
    return lookupMissesNoFunction() + lookupMissesNoSafeVersion();
  }
  uint64_t lookupHits() const { return HitsCount.value(); }

  /// Registers the repository's counters in \p Registry under "repo.*".
  /// The registry only borrows the instruments; the repository must
  /// outlive any use of the registry (the engine guarantees this by
  /// member order).
  void registerMetrics(obs::MetricsRegistry &Registry) const {
    Registry.registerCounter("repo.lookup.hits", HitsCount);
    Registry.registerCounter("repo.lookup.miss_no_function",
                             MissesNoFunction);
    Registry.registerCounter("repo.lookup.miss_no_safe_version",
                             MissesNoSafeVersion);
    Registry.registerCounter("repo.evictions", EvictionsCount);
  }

  /// Compile seconds accumulated over every insert ever performed,
  /// including versions since replaced or invalidated.
  double totalCompileSeconds() const;

private:
  /// Guards Table. Counters are atomic and may be bumped under a shared
  /// lock (lookup is logically const and concurrent).
  mutable std::shared_mutex Mutex;
  std::unordered_map<std::string, std::vector<std::shared_ptr<CompiledObject>>>
      Table;
  mutable obs::Counter MissesNoFunction;
  mutable obs::Counter MissesNoSafeVersion;
  mutable obs::Counter HitsCount;
  mutable obs::Counter EvictionsCount;
  double CompileSecondsTotal = 0; ///< guarded by Mutex (exclusive)
  size_t VersionCap = 0;          ///< guarded by Mutex; 0 = unlimited
};

} // namespace majic

#endif // MAJIC_REPO_REPOSITORY_H
