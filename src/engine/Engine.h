//===- engine/Engine.h - The MaJIC engine ----------------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MaJIC system (Section 2): the MATLAB-like front end (interpreter +
/// interactive workspace), the code repository, the snooping speculative
/// compiler, and the invocation path that ties them together:
///
///   invocation -> repository lookup (signature safety + best match)
///              -> hit:   run the version's native module when it has been
///                        promoted (NativeTier), else the register VM
///              -> miss:  compile (policy-dependent) or interpret
///
/// Speculative compiles, store saves and native builds run as background
/// jobs on one pool, kept in one ledger (DESIGN.md "Background jobs").
///
/// Compilation policies model the paper's four measured configurations:
///   InterpretOnly - the MATLAB-6 baseline (t_i)
///   Mcc           - batch generic compilation without type inference
///   Falcon        - batch optimized compilation, "peeking" at inputs
///   Jit           - just-in-time compilation on first invocation
///   Speculative   - ahead-of-time speculative compilation + JIT fallback
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_ENGINE_ENGINE_H
#define MAJIC_ENGINE_ENGINE_H

#include "analysis/Disambiguate.h"
#include "ast/Parser.h"
#include "backend/Compiler.h"
#include "backend/VM.h"
#include "interp/Interpreter.h"
#include "native/NativeCompiler.h"
#include "native/NativeRuntime.h"
#include "obs/Metrics.h"
#include "obs/Profile.h"
#include "repo/RepoStore.h"
#include "repo/Repository.h"
#include "repo/SharedCache.h"
#include "repo/Snooper.h"
#include "runtime/ValueSerialize.h"
#include "support/ResourceGuard.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace majic {

enum class CompilePolicy : uint8_t {
  InterpretOnly,
  Mcc,
  Falcon,
  Jit,
  Speculative,
};

const char *compilePolicyName(CompilePolicy P);

/// Cooperative resource limits for one engine. All default to 0
/// (unlimited). Breaches surface as ordinary MatlabErrors on the thread
/// running the program; the engine (workspace, repository, statistics)
/// stays intact and usable afterwards.
struct ExecutionLimits {
  /// Maximum live matrix-storage bytes (8 per real element, 16 per complex
  /// one).
  uint64_t MaxAllocBytes = 0;
  /// Operation budget per top-level invocation (VM instructions plus
  /// interpreted statements); bounds runaway loops.
  uint64_t MaxOps = 0;
  /// Wall-clock budget per top-level invocation, in milliseconds; bounds
  /// programs whose per-op cost is large (huge matmuls in a loop). Sampled
  /// every ~512 op-budget polls, so enforcement granularity is coarse by
  /// design.
  uint64_t MaxWallMillis = 0;
};

struct EngineOptions {
  CompilePolicy Policy = CompilePolicy::Jit;
  PlatformModel Platform = PlatformModel::sparc();
  InferOptions Infer;
  RegAllocOptions RegAlloc;
  /// Inline small user functions before compiling (Section 2.6.1).
  bool InlineCalls = true;
  /// Fuse elementwise expression trees into single-pass loops (one loop,
  /// one memory pass, zero intermediate temporaries). Results stay
  /// bit-identical to the unfused interpreter. The MAJIC_NO_FUSION
  /// environment variable (any non-empty value) forces this off, for
  /// A/B measurement without recompiling the embedder.
  bool FuseElementwise = true;
  /// Third execution tier above the register VM: hot compiled functions
  /// are rendered to C, compiled out of process by the system C compiler,
  /// and dlopen'd; subsequent invocations run machine code. Off by
  /// default (tier-1 behavior is unchanged); the MAJIC_NATIVE environment
  /// variable (any non-empty value) turns it on without recompiling the
  /// embedder. Every native-tier failure - missing compiler, compile
  /// error, load error, runtime deopt - degrades transparently to the VM.
  bool NativeTier = false;
  /// C compiler driver for the native tier. Empty falls back to the
  /// MAJIC_NATIVE_CC environment variable, then to "cc". An unusable
  /// compiler leaves the tier dormant: everything runs on the VM.
  std::string NativeCC;
  /// Recorded invocations of a function (FunctionProfiles counts,
  /// including counts persisted from previous sessions) before a compiled
  /// version is promoted to the native tier. The MAJIC_NATIVE_HOT
  /// environment variable (a positive integer) overrides.
  unsigned NativeHotThreshold = 3;
  /// C-stack protection for recursive MATLAB programs.
  unsigned MaxCallDepth = 4000;
  /// Background speculative-compilation workers (Section 2.5: compilation
  /// latency is hidden from the user). 0 compiles speculation synchronously
  /// on the calling thread (the pre-async behavior, and what deterministic
  /// measurement configurations want).
  unsigned BackgroundCompileThreads = 1;
  /// Compute threads for the runtime's dense kernels (support/Parallel.h).
  /// 0 keeps the process-wide default: the MAJIC_COMPUTE_THREADS
  /// environment variable when set, otherwise the hardware concurrency.
  /// Nonzero pins the count (kernel results are bit-identical either way).
  unsigned ComputeThreads = 0;
  /// Resource limits (0 = unlimited). By default the memory limits are
  /// applied process-wide (matrix storage uses a global tracking
  /// allocator), so only one engine at a time should set them; with
  /// PerSessionLimits they bind to this engine's own account instead and
  /// any number of engines can carry independent budgets.
  ExecutionLimits Limits;
  /// Scope the memory limit and the interrupt to this engine: the byte
  /// budget charges an engine-owned mem::Account (installed thread-locally
  /// around each top-level invocation and propagated into parallelFor
  /// chunks), and requestInterrupt() raises an engine-owned exec::Token
  /// instead of the process-wide flag. This is what makes N sessions in
  /// one process unable to exhaust - or interrupt - each other.
  bool PerSessionLimits = false;
  /// Compile speculation and store saves on this externally owned pool
  /// instead of spawning workers (BackgroundCompileThreads is ignored when
  /// set). The pool must outlive the engine; the multi-session service
  /// multiplexes every session's background work onto one idle pool.
  ThreadPool *SharedSpecPool = nullptr;
  /// Process-wide compiled-code cache consulted before every compile and
  /// published to after (one compile serves every session hitting the same
  /// source + signature + configuration). Null = no sharing.
  std::shared_ptr<SharedCodeCache> SharedCache;
  /// When false, the MAJIC_TRACE / MAJIC_METRICS / MAJIC_REPO_DIR /
  /// MAJIC_PROFILE_DIR environment fallbacks are ignored (the explicit
  /// option fields still work). The service disables them for session
  /// engines so N sessions cannot race dumps into one file.
  bool EnvFallbacks = true;
  /// Directory for the persistent code repository (warm start). Empty
  /// falls back to the MAJIC_REPO_DIR environment variable; when both are
  /// empty the repository is in-memory only. Compiled objects are written
  /// crash-safely on the background pool and validated (checksum, build
  /// stamp, source hash) before being served on the next start; any
  /// invalid entry degrades to a recompile.
  std::string RepoDir;
  /// Directory for the persisted profile summary (hot-first warm starts).
  /// Empty falls back to the MAJIC_PROFILE_DIR environment variable, then
  /// to the repository directory, so by default the profile file sits
  /// beside the .mjo entries. The summary (per function: invocation count
  /// and the top-K observed signatures with call counts) is written
  /// CRC32-checksummed and atomically at engine destruction and merged
  /// into the in-memory profiles at construction, so a warm-started
  /// session speculates hot-first on what the user actually ran last
  /// session. Corrupt files are quarantined exactly like .mjo entries.
  std::string ProfileDir;
  /// Chrome-trace output path (chrome://tracing / Perfetto JSON). Empty
  /// falls back to the MAJIC_TRACE environment variable; when both are
  /// empty, tracing stays runtime-disabled and every trace site costs one
  /// relaxed atomic load. The file is written when the engine is
  /// destroyed.
  std::string TracePath;
  /// Metrics-dump output path. Empty falls back to MAJIC_METRICS; when
  /// set, the engine writes metricsJson() there at destruction. Metrics
  /// recording itself is always on (lock-free counters).
  std::string MetricsPath;
};

/// Responsiveness counters for the background speculation subsystem.
struct SpeculationStats {
  uint64_t Queued = 0;    ///< tasks handed to the worker pool
  uint64_t Completed = 0; ///< tasks whose object was published
  uint64_t Dropped = 0;   ///< tasks discarded (compile failed or source
                          ///< invalidated while the compile was in flight)
  uint64_t DedupedRequests = 0;   ///< requests already in flight
  uint64_t InFlightInterpreted = 0; ///< invocations interpreted because a
                                    ///< compile for the function was still
                                    ///< in flight
  uint64_t Promoted = 0; ///< queued compiles moved to the front because an
                         ///< invocation was waiting on them
  uint64_t Failed = 0;   ///< compiles that raised an exception (including
                         ///< injected faults); the function is quarantined
                         ///< until its source changes
  /// Seconds of compilation performed off the caller's thread.
  double BackgroundCompileSeconds = 0;
  /// Seconds from engine construction to the first completed top-level
  /// invocation (negative until one completes). The paper's responsiveness
  /// claim is that this stays near the interpreted cost even when total
  /// compile seconds are large.
  double TimeToFirstResultSeconds = -1;
};

class Engine : public CallResolver {
public:
  explicit Engine(EngineOptions Opts = EngineOptions());
  ~Engine() override;

  /// Quiesces the engine: drains or cancels this engine's background work
  /// (owned pool: drain and join; shared pool: cancel queued tasks, wait
  /// out running ones - never blocking on other sessions' work), persists
  /// profiles, writes the final observability dumps, and lifts any
  /// process-wide limit this engine installed. Idempotent; the destructor
  /// calls it. After shutdown the engine serves no further invocations'
  /// speculation (synchronous execution still works).
  void shutdown();

  /// Hash of the codegen-relevant options: two engines whose hashes match
  /// produce interchangeable compiled objects for identical source and
  /// signature. This is the CfgHash component of SharedCodeCache keys, so
  /// mixed-option engines sharing one cache can never serve each other
  /// mismatched code.
  static uint64_t sharedCacheConfigHash(const EngineOptions &Opts);

  //===--------------------------------------------------------------------===
  // Loading sources
  //===--------------------------------------------------------------------===

  /// Parses and registers \p Source as module \p Name (function file or
  /// script). Returns false (with diagnostics()) on parse errors. Its
  /// functions shadow every snooped file's definitions of their names.
  bool addSource(const std::string &Name, const std::string &Source);

  /// Loads one .m file.
  bool loadFile(const std::string &Path);

  /// Watches a directory of .m files; snoop() picks them up.
  void watchDirectory(const std::string &Dir);

  /// Scans watched directories and records new/changed files as pending:
  /// a file is parsed when a lookup first needs a name it defines (see
  /// SourceSnooper). Under the Speculative policy the files with a
  /// function the store cannot serve yet are loaded now and compiled
  /// ahead of time. Returns the number of new or changed files, less
  /// those of them a load here failed to parse.
  unsigned snoop();

  //===--------------------------------------------------------------------===
  // Execution
  //===--------------------------------------------------------------------===

  /// Invokes function \p Name: the repository/compile/interpret path.
  std::vector<ValuePtr> callFunction(const std::string &Name,
                                     std::vector<ValuePtr> Args,
                                     size_t NumOuts, SourceLoc Loc) override;

  bool knowsFunction(const std::string &Name) override;

  /// Runs \p Source as a script in the persistent interactive workspace,
  /// returning what it printed. Scripts are interpreted (the front end);
  /// the functions they call go through the repository.
  std::string runScript(const std::string &Source);

  /// The value of interactive workspace variable \p Name, or null.
  ValuePtr workspaceVar(const std::string &Name) const;

  /// Snapshot of the interactive session for hibernation: every function
  /// definition submitted through runScript (in submission order) plus the
  /// workspace variables, sorted by name so identical workspaces encode to
  /// identical bytes. Values are shared, not copied - the image must be
  /// consumed before the session mutates again. Engine-thread only.
  ser::WorkspaceImage workspaceImage() const;

  /// Rebuilds an interactive session from \p W on a fresh engine: replays
  /// the recorded definitions through runScript (compiled code comes back
  /// from the shared cache, not from scratch) and installs the workspace
  /// variables. Engine-thread only; meant for an engine that has run
  /// nothing yet.
  void restoreWorkspaceImage(const ser::WorkspaceImage &W);

  //===--------------------------------------------------------------------===
  // Ahead-of-time entry points for the measured configurations
  //===--------------------------------------------------------------------===

  /// Falcon-style batch compilation: "peeks" at sample inputs to seed type
  /// inference, excluded from measured runtime.
  bool precompileWithArgs(const std::string &Name,
                          const std::vector<ValuePtr> &SampleArgs);

  /// Speculative compilation of one function (Section 2.5), synchronously
  /// on the calling thread (measurement configurations exclude this time
  /// explicitly).
  bool precompileSpeculative(const std::string &Name);

  /// Queues a speculative compilation of \p Name on the background worker
  /// pool; returns false when the function cannot be compiled, a compile
  /// for it is already in flight, or no pool is configured (in which case
  /// the caller should use precompileSpeculative). The worker prefers the
  /// most-called observed signature over the backward-hint guess (pass
  /// \p SigOverride to force one, e.g. re-speculation after repeated
  /// deopts or repository misses). The compiled object is published to
  /// the repository when the worker finishes; use drainCompiles() to wait
  /// for that deterministically.
  bool speculateAsync(const std::string &Name,
                      const TypeSignature *SigOverride = nullptr);

  /// Blocks until every queued background compilation has been published
  /// or dropped. Tests and benchmarks use this for determinism.
  void drainCompiles();

  /// True when a background compile of \p Name is queued or running.
  bool speculationInFlight(const std::string &Name) const;

  /// Moves \p Name's still-queued speculative compile to the front of the
  /// compile queue (ROADMAP "compile-priority heuristics": an invocation
  /// that misses on a queued function is evidence the user wants it next,
  /// so it should not wait behind the snooper's FIFO backlog). Returns
  /// false when no compile of \p Name is queued - including when one is
  /// already running, which needs no help.
  bool promoteSpeculation(const std::string &Name);

  /// Pause/resume the background compile workers (running compiles finish;
  /// queued ones hold). Tests use this to stage a deterministic backlog.
  /// No-ops on a shared pool: one session must not be able to pause every
  /// other session's background work (the service pauses the shared pool
  /// itself when shedding load).
  void pauseBackgroundCompiles();
  void resumeBackgroundCompiles();

  /// Names whose compiles are queued but not yet started, in the order the
  /// workers will pick them up.
  std::vector<std::string> queuedSpeculations() const;

  /// Snapshot of the background-speculation counters.
  SpeculationStats speculationStats() const;

  /// mcc-style generic compilation (no type inference).
  bool precompileGeneric(const std::string &Name, size_t Arity);

  //===--------------------------------------------------------------------===
  // Robustness: interrupts and compile-failure quarantine
  //===--------------------------------------------------------------------===

  /// Requests cooperative interruption of the running program (safe from
  /// any thread, e.g. a SIGINT handler). The program stops at the next
  /// poll point with a clean MatlabError; the engine stays usable. With
  /// PerSessionLimits this raises the engine's own token, so only this
  /// engine's work stops; otherwise it raises the process-wide flag.
  void requestInterrupt();

  /// Clears a pending interrupt request.
  void clearInterrupt();

  /// True when \p Name's compiler crashed and the engine has stopped
  /// retrying it (every invocation interprets) until its source changes.
  bool isQuarantined(const std::string &Name) const;

  /// Number of currently quarantined functions.
  size_t quarantineCount() const;

  /// Counters of the persistent store (all zero when no RepoDir is set):
  /// saves, load/quarantine outcomes of the startup validation ladder,
  /// warm-start adoptions, and swept temp files.
  RepoStoreStats repoStoreStats() const;

  /// Blocks until background store saves queued so far have finished
  /// (tests/benchmarks; implies drainCompiles-like determinism for the
  /// on-disk state).
  void flushRepoStore();

  //===--------------------------------------------------------------------===
  // Introspection
  //===--------------------------------------------------------------------===

  Context &context() { return Ctx; }
  Repository &repository() { return Repo; }
  PhaseTimes &phases() { return Phases; }
  const EngineOptions &options() const { return Opts; }
  std::string diagnostics() const { return Diags.render(SM); }
  uint64_t vmInstructions() const { return Machine->instructionsExecuted(); }
  /// VM frames kept for reuse between invocations (VM::retainedFrames).
  size_t vmRetainedFrames() const { return Machine->retainedFrames(); }

  /// The speculated signature of \p Name (tests/inspection).
  TypeSignature speculated(const std::string &Name);

  /// Number of invocations that fell back to the interpreter / the JIT.
  uint64_t interpreterFallbacks() const { return InterpFallbacks.value(); }
  uint64_t jitCompiles() const { return JitCompiles.value(); }
  /// Number of guard failures on the VM causing a recompile (a guard that
  /// fails in machine code counts in nativeDeopts instead).
  uint64_t deoptimizations() const { return Deopts.value(); }

  /// Native-tier counters (also published as native.* metrics): system-
  /// compiler invocations that produced a module, failures at any stage,
  /// guard failures inside machine code, and invocations served natively.
  uint64_t nativeCompiles() const { return NativeCompiles.value(); }
  uint64_t nativeFailures() const { return NativeFailures.value(); }
  uint64_t nativeDeopts() const { return NativeDeopts.value(); }
  uint64_t nativeHits() const { return NativeHits.value(); }
  /// Self-calls machine code made directly, without entering the engine.
  uint64_t nativeDirectCalls() const { return NativeDirectCalls.value(); }
  /// Boxes native runs held when they returned, summed over the runs.
  uint64_t nativeBoxes() const { return NativeBoxes.value(); }

  /// True when the native tier is on and its C compiler probed usable.
  bool nativeTierAvailable() const {
    return NativeComp && NativeComp->available();
  }

  //===--------------------------------------------------------------------===
  // Observability
  //===--------------------------------------------------------------------===

  /// The engine's metrics registry (counters, gauges, latency histograms).
  /// Point-in-time gauges (repo store, fault sites, compute pool,
  /// quarantine count) are refreshed by sampleMetrics(); everything else
  /// records continuously.
  obs::MetricsRegistry &metrics() { return Metrics; }

  /// Refreshes the sampled gauges and returns a snapshot of every
  /// instrument.
  obs::MetricsSnapshot sampleMetrics();

  /// Human-readable dump: every metric (after a sampleMetrics()) plus the
  /// most-invoked per-function profiles.
  std::string statsReport();

  /// Machine dump: {"metrics": {...}, "profiles": [...]} — what
  /// MAJIC_METRICS / EngineOptions::MetricsPath writes at destruction.
  std::string metricsJson();

  /// The recorded profile of \p Name: invocation count, VM vs interpreter
  /// time, compile count/time, warm-start adoptions, observed argument
  /// type signatures. Zeroed when the function was never invoked.
  obs::FunctionProfile profile(const std::string &Name) const {
    return Profiles.profile(Name);
  }

  /// Every function profile, most-invoked first.
  std::vector<obs::FunctionProfile> profiles() const {
    return Profiles.snapshot();
  }

private:
  /// What one function's profile signature table holds, as the engine
  /// learned it from the profile layer's answers: every typed entry with
  /// the signature that rendered it, and whether the table is full. A
  /// call past the engine's own signature cap renders its signature only
  /// when some entry may share the rendering or the table still has room,
  /// so a megamorphic (e.g. recursive) function renders nothing in the
  /// steady state and the profile counts stay exactly what rendering every
  /// call would give. Keyed by name because the profile entry outlives
  /// reloads of the source.
  struct ProfiledSigs {
    std::vector<std::pair<TypeSignature, std::string>> Held;
    bool Full = false;
  };

  struct LoadedFunction {
    Function *F = nullptr;
    Module *M = nullptr;
    /// Shared so in-flight background compiles keep the analysis (and the
    /// inlined clone it points into) alive after the function is reloaded.
    std::shared_ptr<FunctionInfo> Info;
    /// The inlined clone used for compilation (built lazily).
    std::shared_ptr<Function> InlinedF;
    std::shared_ptr<FunctionInfo> InlinedInfo;
    /// One observed argument signature with its cached rendering and call
    /// count. The cache keeps the invocation hot path to a linear scan
    /// over the one or two signatures a function sees in practice (not a
    /// render per call); the counts drive observed-signature speculation.
    struct SigObs {
      TypeSignature Sig;
      std::string Str;
      uint64_t Count = 0;
    };
    /// Observed signatures, capped at obs::FunctionProfiles::kMaxSignatures
    /// entries (calls past the cap consult ProfiledSigsByFn instead, which
    /// renders only when the profile could credit the call to an entry of
    /// its own). Engine-thread only; the most-called signature is
    /// published into ObservedSigByFn (under SpecMutex) for the background
    /// workers.
    std::vector<SigObs> Obs;
    size_t BestIdx = SIZE_MAX; ///< index into Obs of the published best
    uint64_t BestCount = 0;    ///< its call count at publish time
    /// This function's ProfiledSigsByFn entry (resolved on first call).
    ProfiledSigs *Profiled = nullptr;
    /// Rendering scratch for signatures past the Obs cap.
    std::string OverflowSig;
    /// Deopt count and consecutive repository-miss streak feeding the
    /// re-speculation triggers. Engine-thread only.
    uint64_t DeoptCount = 0;
    uint64_t SigMissStreak = 0;
    /// The last signature re-speculation was triggered for (so a stable
    /// mismatch pattern triggers once, not per call).
    TypeSignature RespecSig;
    bool RespecValid = false;
  };

  LoadedFunction *find(const std::string &Name);

  /// Why a pending source file was loaded (engine.source_loads.<why>).
  enum class SourceLoad : uint8_t {
    Call,      ///< a lookup of one of its names: a call, knowsFunction, a
               ///< compile request
    Callee,    ///< another file's load: a call site names it, or it
               ///< defines one of that file's names later in scan order
    Speculate, ///< snoop() under the Speculative policy
    Fallback,  ///< a lookup whose first file failed to parse
  };
  static constexpr size_t kNumSourceLoads = 4;

  /// find() after loading the pending file that defines \p Name, if any.
  /// Engine-thread only: loading registers functions.
  LoadedFunction *resolve(const std::string &Name,
                          SourceLoad Why = SourceLoad::Call);

  /// Parses pending \p Path and registers the functions it holds the
  /// latest claim on. Later claimants of its names load first, and the
  /// pending files its call sites name load after, so every compile sees
  /// the callees eager loading gives it. False on a parse error.
  bool loadPending(const std::string &Path, SourceLoad Why);

  /// Parses \p Source as module \p Name into a fresh diagnostics stream.
  std::unique_ptr<Module> parseSource(const std::string &Name,
                                      const std::string &Source);

  /// False when the store serves each of \p Name's persisted observed
  /// signatures, so speculating on it would only recompile what the store
  /// holds: a .mjo is named for the signature or for the version that
  /// served it when the profile was saved. Checked by file name only,
  /// against \p StoreEntries (RepoStore::entryNames). A function without a
  /// persisted profile needs it unless another function of its file has
  /// one (\p FileProfiled).
  bool needsSpeculation(const std::string &Name, bool FileProfiled,
                        const std::unordered_set<std::string> &StoreEntries)
      const;

  /// The analysis view compilation uses (inlined when enabled). Must run
  /// on the engine's thread: building the view mutates the LoadedFunction.
  const std::shared_ptr<FunctionInfo> &compileView(LoadedFunction &LF);

  /// Registers the functions of \p Mod (parsed from \p Source): all of
  /// them for a direct definition (\p File null), else those whose latest
  /// claim snooped \p File holds. Each shadows its previous definition,
  /// takes the source hash, is no longer a removed function, and adopts
  /// its validated warm-start entries. Returns the names registered.
  std::vector<std::string> registerModule(std::unique_ptr<Module> Mod,
                                          const std::string &Source,
                                          const std::string *File = nullptr);

  /// \p Name's entry when it can be compiled: loaded, not a script, not
  /// quarantined, and no ambiguous symbols in its compile view.
  LoadedFunction *compilable(const std::string &Name);

  /// compileAndPublish from the engine thread, at \p Name's current source
  /// generation. \p Optimistic controls guarded real-domain math (off when
  /// recompiling after a deopt).
  CompiledObjectPtr compileAndInsert(const std::string &Name,
                                     const TypeSignature &Sig,
                                     CodeGenMode Mode,
                                     CompiledObject::Origin From,
                                     bool Optimistic = true);

  /// The one compile pipeline, for foreground and background compiles: a
  /// shared-cache hit is cloned, a miss is compiled and instrumented. The
  /// object is published (repository, store, shared cache) only while
  /// \p Name is still at source generation \p Gen, which the engine
  /// thread's own compiles always are. Returns the published object, or
  /// null; a compiler exception quarantines \p Name at \p Gen.
  CompiledObjectPtr compileAndPublish(const std::string &Name,
                                      const FunctionInfo &FI,
                                      const TypeSignature &Sig,
                                      CodeGenMode Mode,
                                      CompiledObject::Origin From,
                                      bool Optimistic, uint64_t Gen);

  /// The signature a speculative compile of \p Name targets: \p Forced
  /// (re-speculation), else the most-called observed signature, else the
  /// backward-hint guess. Any pick but the guess counts as an observed
  /// compile.
  TypeSignature speculationSignature(const std::string &Name,
                                     const FunctionInfo &FI,
                                     const TypeSignature *Forced);

  /// The Compile job: compiles \p Name from \p FI (source generation
  /// \p Gen) and keeps the speculation counters.
  void backgroundCompile(const std::string &Name, const FunctionInfo &FI,
                         uint64_t Gen, const TypeSignature *Forced);

  /// The most-called observed signature of \p Name when one was published
  /// and its arity matches \p Arity (an arity mismatch means the profile
  /// is stale against the live source - fall back to the hint pass).
  bool observedSignatureFor(const std::string &Name, size_t Arity,
                            TypeSignature &Out) const;

  /// Seeds a freshly registered \p LF with the persisted observed
  /// signatures of \p Name (arity-checked against the live source) and
  /// publishes the most-called one for the speculation workers.
  void seedObservedSignatures(const std::string &Name, LoadedFunction &LF);

  /// Composes the persisted profile summaries and writes them through the
  /// profile store (destructor, after the workers are joined).
  void saveProfilesToStore();

  /// Invalidates \p Name's compiled code and bumps its source generation
  /// so in-flight background compiles of the old source are dropped.
  /// Also lifts any quarantine: new source gets a fresh chance to compile.
  void invalidateFunction(const std::string &Name);

  /// Records a compile failure for \p Name at source generation \p Gen and
  /// quarantines the function (no recompile attempts until the source
  /// changes). Pass the generation the failing compile started from so a
  /// failure racing a reload cannot quarantine the fresh source.
  void noteCompileFailure(const std::string &Name, uint64_t Gen);

  /// Records the time-to-first-result counter (top-level calls only).
  void recordFirstResult();

  class InvocationScope;

  /// Reads \p Name's store entries, the first time it is registered, and
  /// runs the source-hash rung of the validation ladder over them and its
  /// pending native entries: matching entries are published to the
  /// repository, drifted ones are discarded from disk.
  void adoptWarmEntries(const std::string &Name, uint64_t SrcHash);

  /// Persists \p Obj to the on-disk store, as a Save job when the pool
  /// takes one. Never throws; a failed save only costs a future recompile.
  void saveToStore(const CompiledObject &Obj);

  /// Runs \p Write, a store write for \p Name, against the tombstone that
  /// handleRemovedSource sets: checked on both sides of the write, so a
  /// write racing a source removal never leaves a file behind. \p Native
  /// picks which of the function's files the second check erases.
  void persistUnlessErased(const std::string &Name, bool Native,
                           const std::function<void()> &Write);

  /// \p Name's current source hash (under SpecMutex), if it has one.
  std::optional<uint64_t> sourceHash(const std::string &Name) const;

  /// Reacts to the snooper reporting a deleted .m file: the functions it
  /// defined stop resolving and their compiled versions - in memory and on
  /// disk - are invalidated rather than served stale.
  void handleRemovedSource(const SourceSnooper::Change &C);

  std::vector<ValuePtr> runCompiled(const CompiledObject &Obj,
                                    std::vector<ValuePtr> Args,
                                    size_t NumOuts);

  enum class Tier : uint8_t { Native, Vm, Interp };
  /// Returns \p Run(). A top-level run (CallDepth 1) is also timed into
  /// the Execute phase, "<tier>.run.seconds" and \p Name's profile, and
  /// counts as a first result. Always inlined, so it adds no frame to the
  /// call-recursion cycle.
  template <typename RunFn>
  [[gnu::always_inline]] inline auto timedRun(Tier T, const std::string &Name,
                                              RunFn &&Run) -> decltype(Run());
  void recordRun(Tier T, const std::string &Name, double Seconds);
  std::vector<ValuePtr> interpretCall(LoadedFunction &LF,
                                      std::vector<ValuePtr> Args,
                                      size_t NumOuts);

  //===--------------------------------------------------------------------===
  // Native tier internals
  //===--------------------------------------------------------------------===

  /// Map key of one native version: function name + '\0' + signature hash
  /// (same hash the store's file names use).
  static std::string nativeKey(const std::string &Name,
                               const TypeSignature &Sig);

  /// The ready native module for \p Obj, or null. Tracks per-version
  /// promotion: once the function's recorded invocations reach the
  /// hotness threshold, queues a native compile on the background pool
  /// (or compiles synchronously without one) - so the first sighting
  /// after the threshold still runs on the VM while cc works off-thread.
  std::shared_ptr<native::NativeModule> nativeModuleFor(
      const CompiledObject &Obj);

  /// How the native-tier leg of runCompiled ended.
  enum class NativeRun : uint8_t {
    Served,      ///< machine code returned the call's results
    Unavailable, ///< no ready module, or it failed: run on the VM
    Deopted,     ///< an optimistic guard failed: recompile pessimistically
  };

  /// The native-tier leg of runCompiled: runs \p Obj's promoted module if
  /// one is ready, handling deopt/fault degradation and restoring the
  /// snapshots on either. Fills \p Out when it returns Served.
  /// Deliberately never inlined: runCompiled sits on the VM's
  /// call-recursion cycle, and keeping this leg's locals and exception
  /// machinery out of that frame keeps the MaxCallDepth guard reachable on
  /// sanitizer stacks.
  [[gnu::noinline]] NativeRun runNativeTier(const CompiledObject &Obj,
                                            const std::vector<ValuePtr> &Args,
                                            size_t NumOuts,
                                            const Rng &SavedRand,
                                            size_t OutputMark,
                                            std::vector<ValuePtr> &Out);

  /// The one deopt handler of both tiers, after the failed attempt's
  /// snapshots were restored: records the deopt, replaces \p Obj with a
  /// pessimistic compile (or falls back to the interpreter) and runs the
  /// call there. Never inlined, for the same reason as runNativeTier.
  [[gnu::noinline]] std::vector<ValuePtr>
  runPessimistic(const CompiledObject &Obj, std::vector<ValuePtr> Args,
                 size_t NumOuts);

  /// Emits C for \p Code, drives the system compiler, loads the result,
  /// publishes the module, and persists the .so bytes beside the .mjo.
  /// Never throws: any failure marks the version Failed (VM from then on).
  /// A result whose source generation \p Gen is no longer current is
  /// dropped: the pending version it was for was invalidated meanwhile.
  void buildNative(const std::string &Name, const TypeSignature &Sig,
                   std::shared_ptr<const IRFunction> Code, uint64_t Gen);

  /// Drops one native version after a runtime failure (deopt, injected
  /// fault): the module is discarded, the version pinned to the VM, and
  /// the function's on-disk .mjn entries erased so the next session does
  /// not resurrect the bad code.
  void quarantineNative(const std::string &Name, const TypeSignature &Sig);

  /// Records one call of \p LF with \p Sig: the engine-side count
  /// (publishing the most-called signature for the speculation workers)
  /// and the profile layer's invocation and signature counts.
  void observeSignature(LoadedFunction &LF, const TypeSignature &Sig);

  //===--------------------------------------------------------------------===
  // Background jobs
  //===--------------------------------------------------------------------===

  /// Every kind of work this engine puts on the pool. drainCompiles waits
  /// for Compile and Native jobs; flushRepoStore and shutdown for all.
  enum class JobKind : uint8_t { Compile, Save, Native };
  static constexpr size_t kNumJobKinds = 3;

  /// Queues \p Run as a \p K job for function \p Name and enters it in the
  /// ledger. The caller holds SpecMutex: the task's first act is to take
  /// it, so the ledger entry exists before the task can look for it
  /// (SpecMutex -> pool mutex is the only order the two are taken in).
  /// Returns false, leaving no trace, when there is no pool, the engine
  /// is draining or the pool refused the task; the caller then runs the
  /// job itself or gives it up.
  bool enqueueJob(JobKind K, const std::string &Name,
                  std::function<void()> Run);

  /// Blocks until no job of the kinds in \p Kinds is queued or running.
  void awaitJobs(std::initializer_list<JobKind> Kinds);

  //===--------------------------------------------------------------------===
  // Observability. Declared before every other member: components register
  // their own counters here (Repository) or receive pointers to
  // registry-owned instruments (SpecPool), so the registry must be
  // constructed first and destroyed last. The destructor body writes the
  // final dumps while all members are still alive.
  //===--------------------------------------------------------------------===

  obs::MetricsRegistry Metrics;
  obs::FunctionProfiles Profiles;
  /// Hot-path histograms resolved once at construction (registry-owned).
  struct {
    obs::Histogram *CompileSeconds = nullptr;
    obs::Histogram *InferSeconds = nullptr;
    obs::Histogram *CodeGenSeconds = nullptr;
    /// "<tier>.run.seconds" of top-level runs, indexed by Tier.
    obs::Histogram *RunSeconds[3] = {};
    /// Elementwise-fusion outcomes, accumulated across every compile
    /// (foreground and speculative) from CompileResult::Fusion.
    obs::Counter *FusionGroups = nullptr;
    obs::Counter *FusionOpsFused = nullptr;
    obs::Counter *FusionTempsElided = nullptr;
  } Inst;
  std::string TraceFile;   ///< trace JSON destination; empty = tracing off
  std::string MetricsFile; ///< metrics JSON destination; empty = no dump

  EngineOptions Opts;
  SourceManager SM;
  Diagnostics Diags;
  Context Ctx;
  Repository Repo;
  SourceSnooper Snooper;
  std::unique_ptr<VM> Machine;
  std::unique_ptr<Interpreter> Interp;
  PhaseTimes Phases;

  std::vector<std::unique_ptr<Module>> Modules;
  std::unordered_map<std::string, LoadedFunction> Functions;
  /// Engine-thread only (node-stable: LoadedFunction::Profiled points in).
  std::unordered_map<std::string, ProfiledSigs> ProfiledSigsByFn;

  // Interactive workspace (scripts).
  std::unordered_map<std::string, ValuePtr> WorkspaceByName;
  /// Function definitions submitted interactively through runScript, in
  /// order, deduplicated by exact text (replaying later-wins redefinitions
  /// in order reaches the same state) - the replay half of a hibernation
  /// snapshot.
  std::vector<ser::WorkspaceImage::SourceDef> InteractiveDefs;
  unsigned CallDepth = 0;
  obs::Counter InterpFallbacks; ///< registered as "engine.interp_fallbacks"
  obs::Counter JitCompiles;     ///< registered as "engine.jit_compiles"
  obs::Counter Deopts;          ///< registered as "engine.deopts"
  obs::Counter NativeCompiles;  ///< registered as "native.compiles"
  obs::Counter NativeFailures;  ///< registered as "native.failures"
  obs::Counter NativeDeopts;    ///< registered as "native.deopts"
  obs::Counter NativeHits;      ///< registered as "native.hits"
  obs::Counter NativeDirectCalls; ///< registered as "native.direct_calls"
  obs::Counter NativeBoxes;     ///< registered as "native.boxes"
  /// Registered as "engine.source_loads.<why>", indexed by SourceLoad.
  obs::Counter SourceLoads[kNumSourceLoads];

  //===--------------------------------------------------------------------===
  // Native tier state
  //===--------------------------------------------------------------------===

  /// Bridges Opcode::CallU from machine code back into the engine's own
  /// dispatch (repository lookup, tiering, interpreter fallback), and
  /// lends direct self-calls the engine's call depth.
  struct NativeHostBridge : native::NativeHost {
    Engine *E = nullptr;
    std::vector<ValuePtr> callFunction(const std::string &Name,
                                       std::vector<ValuePtr> Args,
                                       size_t NumOuts) override;
    unsigned &callDepth() override { return E->CallDepth; }
    unsigned maxCallDepth() const override { return E->Opts.MaxCallDepth; }
    void noteRun(uint64_t DirectCalls, uint64_t Boxes) override {
      E->NativeDirectCalls.inc(DirectCalls);
      E->NativeBoxes.inc(Boxes);
    }
  } NativeHostAdapter;
  /// Present when NativeTier is on (even if the compiler probe failed -
  /// available() distinguishes). Null when the tier is off.
  std::unique_ptr<native::NativeCompiler> NativeComp;
  /// One (function, signature) version's place in the tier. Guarded by
  /// SpecMutex: workers publish Ready modules, the engine thread reads.
  struct NativeVersion {
    enum class State { Pending, Ready, Failed } St = State::Pending;
    std::shared_ptr<native::NativeModule> Module;
  };
  std::unordered_map<std::string, NativeVersion> NativeVersions;
  /// nativeModuleFor's settled answers by CompiledObject::Id: the module
  /// of a ready version, or none for a failed version or a host without a
  /// compiler. A recursive call that re-enters through the host bridge
  /// then skips the key rendering and the lock. Workers only settle
  /// pending versions, which are never memoized; every other change to a
  /// version (quarantine, invalidation, warm adoption) runs on the engine
  /// thread and bumps NativeEpoch, which empties the memo before its next
  /// use. Ids are never reused, so a freed object's entry matches nothing.
  /// Engine-thread only.
  std::unordered_map<uint64_t, std::shared_ptr<native::NativeModule>>
      NativeMemos;
  uint64_t NativeEpoch = 0;     ///< engine-thread only
  uint64_t NativeMemoEpoch = 0; ///< the epoch NativeMemos was filled at
  /// Validated .mjn entries waiting for their source (and its hash) to be
  /// loaded. Read at construction, unlike the .mjo entries: a fresh
  /// native-tier engine reports every .mjn it validated before it loads
  /// any source. Engine-thread only.
  std::unordered_map<std::string, std::vector<RepoStore::NativeEntry>>
      PendingWarmNative;
  /// True when this engine installed the process-wide memory limit (so the
  /// destructor knows to lift it).
  bool OwnsMemLimit = false;

  //===--------------------------------------------------------------------===
  // Persistent repository (warm start). Declared before SpecPool: save
  // tasks run on the pool and touch the store, so the store must outlive
  // the workers.
  //===--------------------------------------------------------------------===

  /// Open when RepoDir (option or MAJIC_REPO_DIR) names a directory.
  std::unique_ptr<RepoStore> Store;
  /// Separate store instance when ProfileDir differs from RepoDir (used
  /// only for the profile summary file).
  std::unique_ptr<RepoStore> OwnedProfileStore;
  /// Where the profile summary is loaded from / saved to: Store when the
  /// directories coincide, OwnedProfileStore otherwise, null when neither
  /// directory is configured.
  RepoStore *ProfileStore = nullptr;
  /// Persisted observed signatures per function, waiting for the source
  /// to be loaded so they can seed LoadedFunction::Obs (arity-checked
  /// against the live source at that point). Engine-thread only.
  std::unordered_map<std::string, std::vector<RepoStore::ProfileSig>>
      PendingProfileSigs;
  /// Functions whose .mjo entries this session already read (at their
  /// first registration) or erased: a later registration of the name, a
  /// reload, finds nothing to adopt. Engine-thread only.
  std::unordered_set<std::string> WarmRead;
  /// Content hash of each function's current source text. Guarded by
  /// SpecMutex: background save tasks read it.
  std::unordered_map<std::string, uint64_t> SourceHashByFn;
  /// Functions whose on-disk entries were erased because their source was
  /// deleted (cleared when the name is loaded again). Guarded by SpecMutex.
  /// A save queued before the removal consults this tombstone around its
  /// write, so the deleted function cannot resurrect on the next warm
  /// start however the save and the erase interleave.
  std::unordered_set<std::string> ErasedFns;

  //===--------------------------------------------------------------------===
  // Background speculation (the compile queue). All fields below are
  // guarded by SpecMutex except the pool itself. The engine's public API
  // remains single-threaded; only Repository, PhaseTimes and this block
  // are touched from workers.
  //===--------------------------------------------------------------------===

  /// Owned workers when no shared pool is configured (null otherwise).
  /// Only the engine thread touches the unique_ptr itself.
  std::unique_ptr<ThreadPool> OwnedSpecPool;
  /// The pool speculation and saves run on: OwnedSpecPool.get() or
  /// Opts.SharedSpecPool. Written only on the engine thread (constructor
  /// and shutdown); engine-thread reads are plain, worker reads go through
  /// SpecMutex, where shutdown's clearing write is also made - that
  /// ordering is what fixes the old teardown race, where workers read the
  /// unique_ptr member while the destructor nulled it.
  ThreadPool *SpecPool = nullptr;
  /// Engine-thread only: shutdown() already ran.
  bool ShutdownDone = false;
  mutable std::mutex SpecMutex;
  std::condition_variable SpecIdleCv;
  /// Guarded by SpecMutex. While draining (shutdown), workers persist
  /// synchronously instead of enqueueing onto a pool that may be paused or
  /// mid-teardown, and no new speculation is accepted.
  bool Draining = false;
  /// The job ledger. Jobs still in the pool's queue, in the order the
  /// workers will pick them up (promotion moves an entry to the front, as
  /// the pool does); a job leaves when a worker starts it or shutdown
  /// cancels it.
  struct QueuedJob {
    JobKind Kind;
    std::string Name;
    ThreadPool::TaskId Id = 0;
  };
  std::list<QueuedJob> QueuedJobs;
  /// Jobs queued or running, per JobKind; awaitJobs waits on these via
  /// SpecIdleCv.
  unsigned PendingJobs[kNumJobKinds] = {};
  /// Per-session byte budget and interrupt token (PerSessionLimits);
  /// internally synchronized.
  mem::Account MemAccount;
  exec::Token IntrToken;
  /// sharedCacheConfigHash(Opts), resolved once at construction.
  uint64_t CfgHash = 0;
  /// Functions queued or compiling: the in-flight dedup set. Keyed by
  /// name (one speculative compile per function at a time) because the
  /// speculated signature is only computed on the worker.
  std::vector<std::string> InFlight;
  /// Source generation per function; bumped on invalidation so stale
  /// in-flight results are dropped instead of published.
  std::unordered_map<std::string, uint64_t> SourceGeneration;
  /// Functions whose compiler raised an exception, mapped to the source
  /// generation that failed. While the generation is unchanged the engine
  /// interprets them instead of retrying the compiler; a reload clears the
  /// entry.
  std::unordered_map<std::string, uint64_t> Quarantined;
  /// The most-called observed signature per function, published by the
  /// engine thread when a signature overtakes the previous best and read
  /// by the workers when picking what to speculate. Guarded by SpecMutex.
  std::unordered_map<std::string, TypeSignature> ObservedSigByFn;
  /// The speculation counters, migrated onto the registry ("spec.*");
  /// speculationStats() composes the legacy struct from them. The
  /// double-valued timers stay plain and SpecMutex-guarded.
  struct {
    obs::Counter Queued, Completed, Dropped, DedupedRequests,
        InFlightInterpreted, Promoted, Failed;
    /// Speculative compiles whose signature came from observation (live
    /// or persisted) rather than the backward-hint guess.
    obs::Counter ObservedSigCompiles;
  } Spec;
  double SpecBackgroundSeconds = 0;     ///< guarded by SpecMutex
  double TimeToFirstResultSeconds = -1; ///< guarded by SpecMutex
  /// Engine birth, the zero point of TimeToFirstResultSeconds.
  Timer BirthTimer;
};

} // namespace majic

#endif // MAJIC_ENGINE_ENGINE_H
