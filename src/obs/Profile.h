//===- obs/Profile.h - Per-function execution profiles ---------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function execution profiles: invocation counts (all call depths),
/// top-level VM vs. interpreter time, compile count/time, warm-start
/// adoptions, deoptimizations, and the observed argument-type signatures.
/// This is the usage record the speculation layer ranks candidates by -
/// the paper compiles what the snooper *finds*; real deployments should
/// compile what users actually *call*, with the types they call it with.
///
/// Signatures arrive pre-rendered as strings so this layer stays below
/// majic_types in the dependency order (the engine caches the rendering
/// per (function, signature), so the hot path pays a string hash, not a
/// signature render). Per function only the first kMaxSignatures distinct
/// signatures get their own counter; further distinct signatures land in
/// an OtherSignatures overflow bucket so a megamorphic call site cannot
/// grow the map without bound. Each recording reports whether it opened an
/// entry and whether the table is full, so the engine can tell a call that
/// must land in the overflow bucket without rendering its signature.
///
/// Thread-safe: the name->entry map is sharded by name hash so the engine
/// thread recording invocations and the background workers recording
/// compiles do not serialize on one process-wide mutex.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_OBS_PROFILE_H
#define MAJIC_OBS_PROFILE_H

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace majic {
namespace obs {

/// One function's profile at snapshot time.
struct FunctionProfile {
  std::string Name;
  /// Calls at every depth that entered through the resolver, however
  /// executed (an inlined call or a direct self-call does not).
  uint64_t Invocations = 0;
  uint64_t VmRuns = 0;      ///< top-level executions on compiled code
  uint64_t InterpRuns = 0;  ///< top-level executions in the interpreter
  uint64_t NativeRuns = 0;  ///< top-level executions on the native tier
  double VmSeconds = 0;     ///< inclusive top-level VM time
  double InterpSeconds = 0; ///< inclusive top-level interpreter time
  double NativeSeconds = 0; ///< inclusive top-level native-tier time
  uint64_t Compiles = 0;
  double CompileSeconds = 0;
  uint64_t WarmStartAdoptions = 0;
  uint64_t Deopts = 0;
  /// Observed argument-type signatures with call counts, most-called first.
  std::vector<std::pair<std::string, uint64_t>> ArgSignatures;
  /// Calls whose distinct signature arrived after the per-function cap.
  uint64_t OtherSignatures = 0;
};

class FunctionProfiles {
public:
  /// Distinct signatures tracked per function; later distinct signatures
  /// only bump the OtherSignatures overflow counter.
  static constexpr size_t kMaxSignatures = 16;

  /// Where one signature count landed in a function's signature table.
  struct SigCredit {
    bool Added = false; ///< the count opened an entry of its own
    bool Full = false;  ///< the table holds kMaxSignatures entries now
  };

  SigCredit recordInvocation(const std::string &Name,
                             const std::string &SigStr);
  /// Records a call whose signature the caller knows the full table does
  /// not hold (so it needs no rendering): it lands in OtherSignatures.
  void recordOverflowInvocation(const std::string &Name);
  void recordVmRun(const std::string &Name, double Seconds);
  void recordInterpRun(const std::string &Name, double Seconds);
  void recordNativeRun(const std::string &Name, double Seconds);
  void recordCompile(const std::string &Name, double Seconds);
  void recordWarmAdoption(const std::string &Name);
  void recordDeopt(const std::string &Name);

  /// Merge a persisted profile summary (warm start): adds \p Invocations
  /// and \p OtherSigs without touching the signature table.
  void mergePersisted(const std::string &Name, uint64_t Invocations,
                      uint64_t OtherSigs);

  /// Merge a persisted per-signature call count; overflow past the cap is
  /// folded into OtherSignatures like live recording.
  SigCredit mergeSignatureCount(const std::string &Name,
                                const std::string &SigStr, uint64_t Count);

  /// The profile of \p Name; a zeroed profile when never recorded.
  FunctionProfile profile(const std::string &Name) const;

  /// Invocation count of \p Name without copying the whole profile.
  uint64_t invocations(const std::string &Name) const;

  /// Every profile, most-invoked first.
  std::vector<FunctionProfile> snapshot() const;

  /// JSON array of every profile (same order as snapshot()).
  std::string json() const;

  /// Human table of the top \p Limit profiles.
  std::string renderTable(size_t Limit = 10) const;

  size_t size() const;
  void clear();

private:
  struct Entry {
    uint64_t Invocations = 0;
    uint64_t VmRuns = 0, InterpRuns = 0, NativeRuns = 0;
    double VmSeconds = 0, InterpSeconds = 0, NativeSeconds = 0;
    uint64_t Compiles = 0;
    double CompileSeconds = 0;
    uint64_t WarmStartAdoptions = 0;
    uint64_t Deopts = 0;
    uint64_t OtherSignatures = 0;
    std::unordered_map<std::string, uint64_t> Sigs;

    SigCredit addSignature(const std::string &SigStr, uint64_t Count);
  };

  struct Shard {
    mutable std::mutex M;
    std::unordered_map<std::string, Entry> Map;
  };

  static constexpr size_t kNumShards = 16;

  Shard &shardFor(const std::string &Name) {
    return Shards[std::hash<std::string>{}(Name) % kNumShards];
  }
  const Shard &shardFor(const std::string &Name) const {
    return Shards[std::hash<std::string>{}(Name) % kNumShards];
  }

  FunctionProfile toProfile(const std::string &Name, const Entry &E) const;

  std::array<Shard, kNumShards> Shards;
};

} // namespace obs
} // namespace majic

#endif // MAJIC_OBS_PROFILE_H
