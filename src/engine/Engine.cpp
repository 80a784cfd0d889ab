//===- engine/Engine.cpp - The MaJIC engine --------------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"

#include "analysis/Inliner.h"
#include "backend/CEmitter.h"
#include "infer/Speculate.h"
#include "ir/Serialize.h"
#include "obs/Trace.h"
#include "support/AtomicFile.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

using namespace majic;

const char *majic::compilePolicyName(CompilePolicy P) {
  switch (P) {
  case CompilePolicy::InterpretOnly:
    return "interpret";
  case CompilePolicy::Mcc:
    return "mcc";
  case CompilePolicy::Falcon:
    return "falcon";
  case CompilePolicy::Jit:
    return "jit";
  case CompilePolicy::Speculative:
    return "spec";
  }
  majic_unreachable("invalid policy");
}

namespace {

/// Reads a nonnegative integer environment knob; 0 when unset or invalid.
uint64_t envLimit(const char *Name) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return 0;
  char *End = nullptr;
  unsigned long long N = std::strtoull(V, &End, 10);
  return (End && *End == '\0') ? N : 0;
}

/// The profile-layer signature for invocations that never compute one
/// (InterpretOnly policy, scripts).
const std::string UntypedSig = "(untyped)";

/// Re-speculation thresholds: consecutive repository misses against
/// existing versions, and cumulative deopts, before the engine asks the
/// background queue to recompile on the newly observed signature.
constexpr uint64_t kRespeculateMissStreak = 2;
constexpr uint64_t kRespeculateDeopts = 2;

/// Compiled versions kept per function; a new one past the cap evicts the
/// least-used.
constexpr size_t kMaxVersionsPerFunction = 8;

/// The context's PRNG seed at construction.
constexpr uint64_t kRandSeed = 0x9e3779b97f4a7c15ull;

/// A copy of \p Obj sharing its immutable code body (CompiledObject is
/// move-only: its hit counter is atomic).
CompiledObject cloneObject(const CompiledObject &Obj) {
  CompiledObject C;
  C.FunctionName = Obj.FunctionName;
  C.Sig = Obj.Sig;
  C.Code = Obj.Code;
  C.Mode = Obj.Mode;
  C.CompileSeconds = Obj.CompileSeconds;
  C.From = Obj.From;
  return C;
}

} // namespace

Engine::Engine(EngineOptions OptsIn) : Opts(std::move(OptsIn)) {
  // Arm the fault-injection schedule from MAJIC_FAULTS once per process;
  // later engines leave whatever schedule the tests armed via the API.
  static bool FaultEnvLoaded = (faults::loadEnv(), true);
  (void)FaultEnvLoaded;

  Ctx.Rand.reseed(kRandSeed);
  Ctx.Exec.OpBudget = Opts.Limits.MaxOps;
  Ctx.Exec.TimeBudgetNs = Opts.Limits.MaxWallMillis * 1000000ull;
  if (uint64_t ByteLimit = Opts.Limits.MaxAllocBytes) {
    if (Opts.PerSessionLimits) {
      // The budget binds to this engine's own account, installed around
      // each top-level invocation: any number of engines can carry
      // independent budgets in one process.
      MemAccount.setLimit(ByteLimit);
    } else {
      // Matrix storage is charged against a process-wide account (the
      // tracking allocator cannot see engine state), so apply the limit
      // globally and lift it again at shutdown.
      mem::setLimitBytes(ByteLimit);
      OwnsMemLimit = true;
    }
  }
  // Native-tier knobs resolve before the config hash computes: the tier
  // flag is part of the shared-cache key. MAJIC_NATIVE opts in without
  // recompiling the embedder (the same pattern as MAJIC_NO_FUSION).
  if (const char *Env = std::getenv("MAJIC_NATIVE"); Env && *Env)
    Opts.NativeTier = true;
  if (Opts.NativeCC.empty()) {
    if (const char *Env = std::getenv("MAJIC_NATIVE_CC"); Env && *Env)
      Opts.NativeCC = Env;
    else
      Opts.NativeCC = "cc";
  }
  if (uint64_t Hot = envLimit("MAJIC_NATIVE_HOT"))
    Opts.NativeHotThreshold = static_cast<unsigned>(Hot);
  CfgHash = sharedCacheConfigHash(Opts);
  Repo.setVersionCap(kMaxVersionsPerFunction);
  // Wire the observability subsystem. The repository's hit/miss/eviction
  // counters and the engine's own counters register as externally-owned
  // instruments; member order guarantees the registry outlives them. The
  // hot-path histograms are registry-owned, resolved once here.
  Repo.registerMetrics(Metrics);
  Metrics.registerCounter("engine.interp_fallbacks", InterpFallbacks);
  Metrics.registerCounter("engine.jit_compiles", JitCompiles);
  Metrics.registerCounter("engine.deopts", Deopts);
  Metrics.registerCounter("native.compiles", NativeCompiles);
  Metrics.registerCounter("native.failures", NativeFailures);
  Metrics.registerCounter("native.deopts", NativeDeopts);
  Metrics.registerCounter("native.hits", NativeHits);
  Metrics.registerCounter("native.direct_calls", NativeDirectCalls);
  Metrics.registerCounter("native.boxes", NativeBoxes);
  static constexpr const char *SourceLoadNames[kNumSourceLoads] = {
      "call", "callee", "speculate", "fallback"};
  for (size_t W = 0; W != kNumSourceLoads; ++W)
    Metrics.registerCounter(
        std::string("engine.source_loads.") + SourceLoadNames[W],
        SourceLoads[W]);
  Metrics.registerCounter("spec.queued", Spec.Queued);
  Metrics.registerCounter("spec.completed", Spec.Completed);
  Metrics.registerCounter("spec.dropped", Spec.Dropped);
  Metrics.registerCounter("spec.deduped_requests", Spec.DedupedRequests);
  Metrics.registerCounter("spec.inflight_interpreted",
                          Spec.InFlightInterpreted);
  Metrics.registerCounter("spec.promoted", Spec.Promoted);
  Metrics.registerCounter("spec.failed", Spec.Failed);
  Metrics.registerCounter("spec.observed_sig_compiles",
                          Spec.ObservedSigCompiles);
  Inst.CompileSeconds = &Metrics.histogram("compile.seconds");
  Inst.InferSeconds = &Metrics.histogram("compile.infer.seconds");
  Inst.CodeGenSeconds = &Metrics.histogram("compile.codegen.seconds");
  Inst.RunSeconds[size_t(Tier::Native)] =
      &Metrics.histogram("native.run.seconds");
  Inst.RunSeconds[size_t(Tier::Vm)] = &Metrics.histogram("vm.run.seconds");
  Inst.RunSeconds[size_t(Tier::Interp)] =
      &Metrics.histogram("interp.run.seconds");
  Inst.FusionGroups = &Metrics.counter("fusion.groups");
  Inst.FusionOpsFused = &Metrics.counter("fusion.ops_fused");
  Inst.FusionTempsElided = &Metrics.counter("fusion.temps_elided");
  // Trace/metrics destinations: option first, environment knob second
  // (environment fallbacks only when EnvFallbacks - service sessions must
  // not all dump into one file). Tracing is enabled only when a
  // destination exists - the disabled path is one relaxed atomic load per
  // site.
  TraceFile = Opts.TracePath;
  if (TraceFile.empty() && Opts.EnvFallbacks)
    if (const char *Env = std::getenv("MAJIC_TRACE"); Env && *Env)
      TraceFile = Env;
  if (!TraceFile.empty())
    obs::setTraceEnabled(true);
  MetricsFile = Opts.MetricsPath;
  if (MetricsFile.empty() && Opts.EnvFallbacks)
    if (const char *Env = std::getenv("MAJIC_METRICS"); Env && *Env)
      MetricsFile = Env;
  // Environment kill switch for elementwise fusion (A/B measurement).
  if (const char *Env = std::getenv("MAJIC_NO_FUSION"); Env && *Env)
    Opts.FuseElementwise = false;
  // Pin the dense-kernel thread count when the embedder asked for one;
  // 0 leaves the process-wide default (env override, then hardware).
  if (Opts.ComputeThreads)
    par::setComputeThreads(Opts.ComputeThreads);
  Machine = std::make_unique<VM>(Ctx, *this);
  Interp = std::make_unique<Interpreter>(Ctx, *this);
  // Third tier: probe the system C compiler once (out of process, with a
  // deadline). An unprobeable compiler leaves available() false and the
  // engine permanently on the VM - opting in never risks correctness.
  NativeHostAdapter.E = this;
  if (Opts.NativeTier)
    NativeComp = std::make_unique<native::NativeCompiler>(Opts.NativeCC);
  // Open the persistent repository (warm start) and sweep temp files a
  // crashed save left behind. A function's .mjo entries are read when its
  // source is registered - only then can the source hash confirm the
  // compiled code still matches the .m text.
  std::string RepoDir = Opts.RepoDir;
  if (RepoDir.empty() && Opts.EnvFallbacks)
    if (const char *Env = std::getenv("MAJIC_REPO_DIR"); Env && *Env)
      RepoDir = Env;
  if (!RepoDir.empty()) {
    Store = std::make_unique<RepoStore>(RepoDir);
    Store->sweepTemps();
    if (NativeComp && NativeComp->available()) {
      // Native payloads carry a narrower stamp: the ABI version plus the
      // compiler's identification line fold into the extra, so a cc
      // upgrade or an ABI bump turns last session's .so files into
      // routine skew rather than loadable code. With the compiler absent
      // the .mjn files are left untouched - their provenance cannot be
      // re-validated, and the tier is dormant anyway.
      struct {
        uint32_t Abi;
        uint32_t Zero;
        uint64_t CompilerId;
      } StampFacts = {native::kNativeABIVersion, 0,
                      hashing::fnv1a(NativeComp->compilerId())};
      Store->setNativeStampExtra(hashing::fnv1a(
          &StampFacts, sizeof(StampFacts), hashing::fnv1a("majic-native")));
      for (RepoStore::NativeEntry &E : Store->loadAllNative())
        PendingWarmNative[E.FunctionName].push_back(std::move(E));
    }
  }
  // The profile summary lives beside the .mjo entries unless an explicit
  // profile directory points elsewhere. Persisted counts merge into the
  // in-memory profiles right away (so the snooper ranks hot-first before
  // anything runs); the observed signatures wait in PendingProfileSigs
  // until their source is loaded and the arity can be checked.
  std::string ProfDir = Opts.ProfileDir;
  if (ProfDir.empty() && Opts.EnvFallbacks)
    if (const char *Env = std::getenv("MAJIC_PROFILE_DIR"); Env && *Env)
      ProfDir = Env;
  if (ProfDir.empty())
    ProfDir = RepoDir;
  if (!ProfDir.empty()) {
    if (Store && ProfDir == RepoDir) {
      ProfileStore = Store.get();
    } else {
      OwnedProfileStore = std::make_unique<RepoStore>(ProfDir);
      OwnedProfileStore->sweepTemps();
      ProfileStore = OwnedProfileStore.get();
    }
    for (RepoStore::ProfileSummary &PS : ProfileStore->loadProfiles()) {
      Profiles.mergePersisted(PS.Name, PS.Invocations, PS.OtherSignatures);
      ProfiledSigs &Known = ProfiledSigsByFn[PS.Name];
      for (const RepoStore::ProfileSig &Sg : PS.Sigs)
        if (Profiles.mergeSignatureCount(PS.Name, Sg.SigStr, Sg.Count).Added)
          Known.Held.push_back({Sg.Sig, Sg.SigStr});
      if (!PS.Sigs.empty())
        PendingProfileSigs[PS.Name] = std::move(PS.Sigs);
    }
  }
  // Background workers for speculation and store saves. A shared pool (the
  // multi-session service) takes precedence; otherwise idle-priority
  // workers are spawned so background compilation only consumes cycles the
  // interactive thread leaves free - responsiveness holds even on a
  // single-core machine (the paper's "the user never waits"). An owned
  // pool records into registry-owned instruments ("pool.spec.*"); a shared
  // pool's instruments belong to its owner.
  if (Opts.SharedSpecPool) {
    SpecPool = Opts.SharedSpecPool;
  } else if (Opts.BackgroundCompileThreads > 0) {
    ThreadPool::MetricsSink Sink;
    Sink.Enqueued = &Metrics.counter("pool.spec.enqueued");
    Sink.Finished = &Metrics.counter("pool.spec.finished");
    Sink.Promoted = &Metrics.counter("pool.spec.promoted");
    Sink.QueueDepth = &Metrics.gauge("pool.spec.queue_depth");
    Sink.QueueSeconds = &Metrics.histogram("pool.spec.queue_seconds");
    Sink.RunSeconds = &Metrics.histogram("pool.spec.run_seconds");
    OwnedSpecPool = std::make_unique<ThreadPool>(
        Opts.BackgroundCompileThreads, ThreadPool::Priority::Idle, &Sink);
    SpecPool = OwnedSpecPool.get();
  }
}

Engine::~Engine() { shutdown(); }

void Engine::shutdown() {
  if (ShutdownDone)
    return;
  ShutdownDone = true;
  if (SpecPool) {
    {
      // From here on no job is queued: workers persist synchronously
      // instead of enqueueing onto a pool that is mid-teardown (owned) or
      // possibly paused (shared), and no new speculation is accepted.
      std::lock_guard<std::mutex> L(SpecMutex);
      Draining = true;
    }
    if (OwnedSpecPool) {
      // A paused pool would never drain its queue; the pool destructor
      // joins after finishing queued tasks, so un-pause first. In-flight
      // tasks touch the repository and the speculation bookkeeping, which
      // must outlive them - hence join before anything else is torn down.
      OwnedSpecPool->setPaused(false);
      OwnedSpecPool.reset();
    } else {
      // Shared pool: it outlives this engine and may be serving other
      // sessions, so never drain or pause it. Cancel this engine's
      // still-queued jobs, then wait out only the ones already running.
      {
        std::lock_guard<std::mutex> L(SpecMutex);
        for (auto It = QueuedJobs.begin(); It != QueuedJobs.end();) {
          if (!SpecPool->cancel(It->Id)) {
            ++It; // already running; its task keeps its own books
            continue;
          }
          --PendingJobs[size_t(It->Kind)];
          if (It->Kind == JobKind::Compile) {
            // The speculation bookkeeping the compile would have done.
            InFlight.erase(
                std::find(InFlight.begin(), InFlight.end(), It->Name));
            Spec.Dropped.inc();
          }
          It = QueuedJobs.erase(It);
        }
      }
      awaitJobs({JobKind::Compile, JobKind::Save, JobKind::Native});
    }
    std::lock_guard<std::mutex> L(SpecMutex);
    SpecPool = nullptr;
  }
  // Persist the profile summary now that all recording is quiesced; the
  // next session's snooper ranks its speculation queue by these counts.
  saveProfilesToStore();
  // Final observability dumps, with every member still alive and all
  // recording quiesced (this engine's workers are joined or waited out).
  if (!MetricsFile.empty()) {
    std::ofstream Out(MetricsFile);
    if (Out)
      Out << metricsJson() << "\n";
  }
  if (!TraceFile.empty())
    obs::writeTraceJson(TraceFile);
  if (OwnsMemLimit) {
    mem::setLimitBytes(0);
    OwnsMemLimit = false;
  }
}

uint64_t Engine::sharedCacheConfigHash(const EngineOptions &Opts) {
  // Renders every option that changes generated code, then hashes the
  // rendering. Policy, limits, pool sizes and directories are
  // deliberately absent: they steer *when* compilation happens, not what
  // it produces.
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf), "%s|%u|%u|%u|%d|%u|%d|%d|%d|%u|%d|%d|%d|%d",
                Opts.Platform.Name.c_str(), Opts.Platform.NumFRegs,
                Opts.Platform.NumIRegs, Opts.Platform.NumPRegs,
                int(Opts.Platform.JitUnrollsSmallVectors),
                Opts.Platform.NativeOptRounds, int(Opts.Infer.EnableRanges),
                int(Opts.Infer.EnableMinShapes),
                int(Opts.Infer.OptimisticRealMath), Opts.Infer.MaxPasses,
                int(Opts.RegAlloc.SpillEverything), int(Opts.InlineCalls),
                int(Opts.FuseElementwise), int(Opts.NativeTier));
  return hashing::fnv1a(Buf);
}

//===----------------------------------------------------------------------===//
// Loading
//===----------------------------------------------------------------------===//

std::unique_ptr<Module> Engine::parseSource(const std::string &Name,
                                            const std::string &Source) {
  // Diagnostics report the most recent load only; stale errors from an
  // earlier bad file must not poison this parse.
  Diags.clear();
  obs::TraceScope ParseSpan("parse", "compile", Name);
  ScopedPhaseTimer T(Phases, Phase::Parse);
  return parseModule(Name, Source, SM, Diags);
}

bool Engine::addSource(const std::string &Name, const std::string &Source) {
  obs::TraceScope Span("addSource", "engine", Name);
  std::unique_ptr<Module> Mod = parseSource(Name, Source);
  if (!Mod)
    return false;
  registerModule(std::move(Mod), Source);
  return true;
}

std::vector<std::string> Engine::registerModule(std::unique_ptr<Module> Mod,
                                                const std::string &Source,
                                                const std::string *File) {
  Module &M = *Modules.emplace_back(std::move(Mod));
  std::vector<std::string> Registered;
  uint64_t SrcHash = hashing::fnv1a(Source);
  for (const auto &F : M.functions()) {
    const std::string &Name = F->name();
    if (!File)
      Snooper.forget(Name);
    else if (!Snooper.owns(*File, Name))
      continue;
    LoadedFunction LF;
    LF.F = F.get();
    LF.M = &M;
    {
      ScopedPhaseTimer T(Phases, Phase::Disambiguate);
      LF.Info = disambiguate(*F, M);
    }
    // New source shadows any previous definition; drop stale code and
    // make sure in-flight background compiles of the old source are
    // dropped rather than published.
    invalidateFunction(Name);
    seedObservedSignatures(Name, Functions[Name] = std::move(LF));
    Registered.push_back(Name);
    {
      std::lock_guard<std::mutex> L(SpecMutex);
      SourceHashByFn[Name] = SrcHash;
      // Defined again, the name is no longer a removed one: it persists.
      ErasedFns.erase(Name);
    }
    adoptWarmEntries(Name, SrcHash);
  }
  return Registered;
}

namespace {
/// The module name of a .m file: its basename without the extension.
std::string moduleName(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Base = Slash == std::string::npos ? Path : Path.substr(Slash + 1);
  return endsWith(Base, ".m") ? Base.substr(0, Base.size() - 2) : Base;
}

/// \p Path's text, or nullopt when it cannot be opened.
std::optional<std::string> readText(const std::string &Path) {
  std::string Text;
  if (!atomicfile::readFile(Path, Text))
    return std::nullopt;
  return Text;
}
} // namespace

bool Engine::loadFile(const std::string &Path) {
  std::optional<std::string> Text = readText(Path);
  if (!Text) {
    Diags.error(SourceLoc(), format("cannot open '%s'", Path.c_str()));
    return false;
  }
  return addSource(moduleName(Path), *Text);
}

Engine::LoadedFunction *Engine::resolve(const std::string &Name,
                                        SourceLoad Why) {
  // Each load either registers Name or gives up the file's claims, so
  // the loop ends; a second round falls back to an earlier claimant.
  while (const std::string *Path = Snooper.pendingFile(Name)) {
    loadPending(std::string(*Path), Why);
    Why = SourceLoad::Fallback;
  }
  return find(Name);
}

bool Engine::loadPending(const std::string &Path, SourceLoad Why) {
  obs::TraceScope Span("loadSource", "engine", Path);
  SourceLoads[size_t(Why)].inc();
  Snooper.beginLoad(Path);
  std::optional<std::string> Text = readText(Path);
  std::unique_ptr<Module> Mod;
  if (Text)
    Mod = parseSource(moduleName(Path), *Text);
  if (!Mod) {
    if (!Text) {
      Diags.clear();
      Diags.error(SourceLoc(), format("cannot open '%s'", Path.c_str()));
    }
    Snooper.endLoad(Path, false, {});
    return false;
  }
  std::vector<std::string> Defined;
  for (const auto &F : Mod->functions())
    Defined.push_back(F->name());
  // A later file defining one of these names registers it after this one
  // in scan order: load it first, so this file registers only what it
  // still holds (and keeps a name whose later file fails to parse).
  for (const std::string &Name : Defined)
    resolve(Name, SourceLoad::Callee);
  std::vector<std::string> Registered =
      registerModule(std::move(Mod), *Text, &Path);
  Snooper.endLoad(Path, true, std::move(Defined));
  for (const std::string &Name : Registered) {
    std::vector<std::string> Callees = find(Name)->Info->Callees;
    for (const std::string &Callee : Callees)
      resolve(Callee, SourceLoad::Callee);
  }
  return true;
}

void Engine::watchDirectory(const std::string &Dir) {
  Snooper.watchDirectory(Dir);
}

unsigned Engine::snoop() {
  obs::TraceScope Span("snoop", "engine");
  unsigned Found = 0;
  // Files load in the scanner's deterministic path order, but speculation
  // runs hot-first: the profile's invocation counts (live plus persisted
  // from the last session) say what the user actually runs, so the
  // most-called function's compile goes first. Never-run functions tie at zero and
  // keep source-recency order - the file the user just saved is the one
  // they will most likely run next.
  struct Candidate {
    uint64_t Invocations;
    int64_t MTime;
    std::string Fn;
  };
  std::vector<Candidate> ToSpeculate;
  // One listing of the store answers every served-signature check.
  std::unordered_set<std::string> StoreEntries;
  if (Opts.Policy == CompilePolicy::Speculative && Store &&
      !PendingProfileSigs.empty())
    StoreEntries = Store->entryNames();
  for (const SourceSnooper::Change &C : Snooper.scan()) {
    if (C.K == SourceSnooper::Change::Kind::Removed) {
      handleRemovedSource(C);
      continue;
    }
    ++Found;
    if (Opts.Policy != CompilePolicy::Speculative)
      continue;
    // A function the store serves already needs no speculation, and a
    // file with no function that does stays pending like under every other
    // policy. An edited file is recompiled whatever the store holds.
    bool FileProfiled = std::any_of(
        C.Names.begin(), C.Names.end(),
        [&](const std::string &Fn) { return PendingProfileSigs.count(Fn); });
    std::vector<std::string> Needed;
    for (const std::string &Fn : C.Names)
      if (C.K == SourceSnooper::Change::Kind::Modified ||
          needsSpeculation(Fn, FileProfiled, StoreEntries))
        Needed.push_back(Fn);
    if (Needed.empty())
      continue;
    if (Snooper.isPending(C.Path) &&
        !loadPending(C.Path, SourceLoad::Speculate)) {
      --Found;
      continue;
    }
    for (const std::string &Fn : Needed)
      ToSpeculate.push_back({Profiles.invocations(Fn), C.MTime, Fn});
  }
  std::stable_sort(ToSpeculate.begin(), ToSpeculate.end(),
                   [](const Candidate &A, const Candidate &B) {
                     return A.Invocations != B.Invocations
                                ? A.Invocations > B.Invocations
                                : A.MTime > B.MTime;
                   });
  for (const auto &[Invocations, MTime, Fn] : ToSpeculate) {
    // With a worker pool the compile happens off this thread ("the user
    // never waits for the compiler"); without one, fall back to the
    // synchronous pre-async behavior.
    if (SpecPool)
      speculateAsync(Fn);
    else
      precompileSpeculative(Fn);
  }
  return Found;
}

bool Engine::needsSpeculation(
    const std::string &Name, bool FileProfiled,
    const std::unordered_set<std::string> &StoreEntries) const {
  auto It = PendingProfileSigs.find(Name);
  if (!Store)
    return true;
  // A function that never ran on its own beside ones of its file that did
  // (a subfunction inlined at every call site) would compile code nothing
  // calls.
  if (It == PendingProfileSigs.end())
    return !FileProfiled;
  auto Served = [&](const RepoStore::ProfileSig &PS) {
    return RepoStore::hasEntry(StoreEntries, Name, PS.Sig) ||
           (PS.ServedBy &&
            RepoStore::hasEntry(StoreEntries, Name, *PS.ServedBy));
  };
  return !std::all_of(It->second.begin(), It->second.end(), Served);
}

//===----------------------------------------------------------------------===//
// Compilation plumbing
//===----------------------------------------------------------------------===//

Engine::LoadedFunction *Engine::find(const std::string &Name) {
  auto It = Functions.find(Name);
  return It == Functions.end() ? nullptr : &It->second;
}

const std::shared_ptr<FunctionInfo> &Engine::compileView(LoadedFunction &LF) {
  if (!Opts.InlineCalls)
    return LF.Info;
  if (LF.InlinedInfo)
    return LF.InlinedInfo;

  ScopedPhaseTimer T(Phases, Phase::Disambiguate);
  FunctionResolver Resolve = [this](const std::string &Callee) -> const Function * {
    LoadedFunction *C = resolve(Callee, SourceLoad::Callee);
    return C ? C->F : nullptr;
  };
  LF.InlinedF = inlineFunctionCalls(*LF.F, LF.M->context(), Resolve);
  // Inlining invalidates the symbol table (Section 2: "which then
  // necessitates the re-building of the symbol table").
  LF.InlinedInfo = disambiguate(*LF.InlinedF, *LF.M);
  LF.InlinedInfo->Uninlined = LF.Info;
  return LF.InlinedInfo;
}

Engine::LoadedFunction *Engine::compilable(const std::string &Name) {
  LoadedFunction *LF = resolve(Name);
  if (!LF || LF->F->isScript() || isQuarantined(Name) ||
      compileView(*LF)->HasAmbiguousSymbols)
    return nullptr;
  return LF;
}

CompiledObjectPtr Engine::compileAndInsert(const std::string &Name,
                                           const TypeSignature &Sig,
                                           CodeGenMode Mode,
                                           CompiledObject::Origin From,
                                           bool Optimistic) {
  LoadedFunction *LF = compilable(Name);
  if (!LF)
    return nullptr;
  uint64_t Gen;
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    Gen = SourceGeneration[Name];
  }
  return compileAndPublish(Name, *compileView(*LF), Sig, Mode, From,
                           Optimistic, Gen);
}

CompiledObjectPtr Engine::compileAndPublish(const std::string &Name,
                                            const FunctionInfo &FI,
                                            const TypeSignature &Sig,
                                            CodeGenMode Mode,
                                            CompiledObject::Origin From,
                                            bool Optimistic, uint64_t Gen) {
  // Publishing under the lock invalidateFunction bumps the generation
  // under: an invalidate or reload while a worker compiled makes its
  // object stale, and it is dropped instead of published.
  auto Publish = [&](CompiledObject Obj) -> CompiledObjectPtr {
    CompiledObjectPtr Published;
    {
      std::lock_guard<std::mutex> L(SpecMutex);
      if (SourceGeneration[Name] != Gen)
        return nullptr;
      Repo.insert(std::move(Obj));
      Published = Repo.lookup(Name, Sig);
    }
    if (Published)
      saveToStore(*Published);
    return Published;
  };
  // Cross-session reuse: another session may already have compiled exactly
  // this (source, signature, configuration). A hit clones the immutable
  // code body into this engine's repository - zero compile work.
  std::optional<uint64_t> SrcHash = sourceHash(Name);
  std::string CacheKey;
  if (Opts.SharedCache && SrcHash) {
    CacheKey =
        SharedCodeCache::key(Name, *SrcHash, CfgHash, Mode, Optimistic, Sig);
    if (CompiledObjectPtr Cached = Opts.SharedCache->lookup(CacheKey)) {
      try {
        CompiledObject Obj = cloneObject(*Cached);
        Obj.CompileSeconds = 0; // this session spent nothing
        return Publish(std::move(Obj));
      } catch (...) {
        // An injected repo-insert fault costs one compile; fall through.
      }
    }
  }
  // The compiler must never take the engine down: any exception escaping
  // the pipeline (injected faults included; MatlabError does not derive
  // from std::exception, hence catch-all) quarantines the function and the
  // caller transparently falls back to the interpreter.
  try {
    Timer Total;
    CompileRequest Req;
    Req.FI = &FI;
    Req.Sig = Sig;
    Req.Mode = Mode;
    Req.Platform = Opts.Platform;
    Req.Infer = Opts.Infer;
    Req.Infer.OptimisticRealMath &= Optimistic;
    Req.RegAlloc = Opts.RegAlloc;
    Req.UnrollSmallVectors =
        Mode == CodeGenMode::Jit ? Opts.Platform.JitUnrollsSmallVectors : true;
    Req.FuseElementwise = Opts.FuseElementwise;
    std::optional<CompileResult> Result = compileFunction(Req);
    if (!Result)
      return nullptr;

    Phases.add(Phase::TypeInference, Result->TypeInferSeconds);
    Phases.add(Phase::CodeGen, Result->CodeGenSeconds);
    Inst.InferSeconds->observe(Result->TypeInferSeconds);
    Inst.CodeGenSeconds->observe(Result->CodeGenSeconds);
    Inst.FusionGroups->inc(Result->Fusion.Groups);
    Inst.FusionOpsFused->inc(Result->Fusion.OpsFused);
    Inst.FusionTempsElided->inc(Result->Fusion.TempsElided);

    CompiledObject Obj;
    Obj.FunctionName = Name;
    Obj.Sig = Sig;
    Obj.Code = std::move(Result->Code);
    Obj.Mode = Mode;
    Obj.CompileSeconds = Total.seconds();
    Obj.From = From;
    Inst.CompileSeconds->observe(Obj.CompileSeconds);
    Profiles.recordCompile(Name, Obj.CompileSeconds);
    CompiledObjectPtr Published = Publish(std::move(Obj));
    if (Published && !CacheKey.empty())
      Opts.SharedCache->publish(CacheKey, Published, *SrcHash);
    return Published;
  } catch (...) {
    noteCompileFailure(Name, Gen);
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Persistent repository (warm start)
//===----------------------------------------------------------------------===//

namespace {
/// The source-hash rung of the validation ladder: returns the entries of
/// \p Entries compiled from the source text that hashes to \p SrcHash.
/// The others must not shadow the new source: their files are deleted,
/// and the new source recompiles on demand.
template <typename EntryT>
std::vector<EntryT> takeMatching(std::vector<EntryT> Entries, uint64_t SrcHash,
                                 RepoStore &Store) {
  std::vector<EntryT> Matching;
  for (EntryT &E : Entries) {
    if (E.SourceHash == SrcHash)
      Matching.push_back(std::move(E));
    else
      Store.discardStale(E.Path);
  }
  return Matching;
}
} // namespace

void Engine::adoptWarmEntries(const std::string &Name, uint64_t SrcHash) {
  // The .mjo and .mjn rungs run independently: a quarantined .mjo leaves
  // its function's valid .mjn adoptable on its own. Only a name's first
  // registration reads its .mjo files: after that the store holds what
  // this session saved, which needs no adopting, and which a redefinition
  // must not discard as stale.
  if (!Store)
    return;
  std::vector<RepoStore::Entry> Entries;
  if (WarmRead.insert(Name).second)
    Entries = Store->load(Name);
  for (RepoStore::Entry &E : takeMatching(std::move(Entries), SrcHash, *Store)) {
    try {
      Repo.insert(std::move(E.Obj));
      Store->noteAdopted();
      Profiles.recordWarmAdoption(Name);
      obs::traceInstant("warm.adopt", "repo", Name);
    } catch (...) {
      // An injected repo-insert fault while adopting costs one recompile;
      // loading must never take the engine down.
    }
  }
  // The native half of the warm start: a validated .mjn whose source hash
  // still matches dlopens straight into a Ready version - machine code
  // with zero compiler invocations. Any loader refusal (injected fault,
  // ABI drift the stamp missed) discards the file and the function simply
  // stays on the VM until re-promoted.
  std::vector<RepoStore::NativeEntry> Native;
  if (auto Node = PendingWarmNative.extract(Name))
    Native = std::move(Node.mapped());
  for (RepoStore::NativeEntry &E :
       takeMatching(std::move(Native), SrcHash, *Store)) {
    try {
      std::vector<uint8_t> So(E.SoBytes.begin(), E.SoBytes.end());
      std::shared_ptr<native::NativeModule> Mod =
          native::NativeCompiler::load(So, E.FunctionName, E.NumOuts);
      std::lock_guard<std::mutex> L(SpecMutex);
      NativeVersion &NV = NativeVersions[nativeKey(Name, E.Sig)];
      NV.St = NativeVersion::State::Ready;
      NV.Module = std::move(Mod);
      ++NativeEpoch;
      obs::traceInstant("warm.adopt_native", "native", Name);
    } catch (...) {
      NativeFailures.inc();
      Store->discardStale(E.Path);
    }
  }
}

std::optional<uint64_t> Engine::sourceHash(const std::string &Name) const {
  std::lock_guard<std::mutex> L(SpecMutex);
  auto It = SourceHashByFn.find(Name);
  if (It == SourceHashByFn.end())
    return std::nullopt;
  return It->second;
}

void Engine::saveToStore(const CompiledObject &Obj) {
  if (!Store || !Obj.Code)
    return;
  std::optional<uint64_t> SrcHash = sourceHash(Obj.FunctionName);
  if (!SrcHash)
    return;
  // The task gets its own copy; the repository keeps the original.
  auto Clone = std::make_shared<CompiledObject>(cloneObject(Obj));
  auto Save = [this, Clone, SrcHash = *SrcHash] {
    persistUnlessErased(Clone->FunctionName, /*Native=*/false,
                        [&] { Store->save(*Clone, SrcHash); });
  };
  {
    // Persisting rides the idle-priority pool like speculative compiles:
    // the interactive thread never waits for the disk.
    std::lock_guard<std::mutex> L(SpecMutex);
    if (enqueueJob(JobKind::Save, Obj.FunctionName, Save))
      return;
  }
  Save();
}

void Engine::persistUnlessErased(const std::string &Name, bool Native,
                                 const std::function<void()> &Write) {
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    if (ErasedFns.count(Name))
      return;
  }
  Write();
  // Re-check after the write: handleRemovedSource sets the tombstone
  // before erasing the files, so if we do not see it here, our file
  // landed before the erase scanned the directory and the eraser removes
  // it; if we do see it, the erase may have run first and missed the file,
  // and we take it back out ourselves. Either way nothing survives.
  bool Erased;
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    Erased = ErasedFns.count(Name) != 0;
  }
  if (Erased)
    Native ? Store->eraseNative(Name) : Store->erase(Name);
}

void Engine::flushRepoStore() {
  // A compile still in flight may yet queue a save, and native builds
  // save their .so inline, so wait out every kind.
  awaitJobs({JobKind::Compile, JobKind::Save, JobKind::Native});
}

RepoStoreStats Engine::repoStoreStats() const {
  RepoStoreStats S = Store ? Store->stats() : RepoStoreStats();
  if (OwnedProfileStore) {
    // The profile file lives in its own store instance; fold its counters
    // in so one snapshot covers both directories.
    RepoStoreStats P = OwnedProfileStore->stats();
    S.ProfilesSaved += P.ProfilesSaved;
    S.ProfileSaveFailures += P.ProfileSaveFailures;
    S.ProfilesLoaded += P.ProfilesLoaded;
    S.ProfilesQuarantined += P.ProfilesQuarantined;
    S.ProfilesSkewed += P.ProfilesSkewed;
    S.SweptTemps += P.SweptTemps;
  }
  return S;
}

void Engine::handleRemovedSource(const SourceSnooper::Change &C) {
  for (const std::string &Fn : C.Names) {
    // Same teardown as a reload - drop compiled versions, bump the source
    // generation so in-flight compiles are discarded - plus: the function
    // stops resolving, and its on-disk entries go too (a deleted source
    // must not resurrect on the next warm start), whether or not this
    // session ever loaded the file.
    invalidateFunction(Fn);
    Functions.erase(Fn);
    WarmRead.insert(Fn);
    PendingWarmNative.erase(Fn);
    PendingProfileSigs.erase(Fn);
    {
      std::lock_guard<std::mutex> L(SpecMutex);
      SourceHashByFn.erase(Fn);
      // A deleted function must not keep steering speculation either.
      ObservedSigByFn.erase(Fn);
      // Tombstone before erasing the files: a background save queued
      // before this removal must not recreate them (persistUnlessErased
      // checks the tombstone on both sides of its write).
      if (Store)
        ErasedFns.insert(Fn);
    }
    if (Store)
      Store->erase(Fn);
  }
}

bool Engine::precompileWithArgs(const std::string &Name,
                                const std::vector<ValuePtr> &SampleArgs) {
  return compileAndInsert(Name, TypeSignature::ofValues(SampleArgs),
                          CodeGenMode::Optimized,
                          CompiledObject::Origin::Batch) != nullptr;
}

bool Engine::precompileSpeculative(const std::string &Name) {
  LoadedFunction *LF = compilable(Name);
  if (!LF)
    return false;
  TypeSignature Sig = speculationSignature(Name, *compileView(*LF), nullptr);
  return compileAndInsert(Name, Sig, CodeGenMode::Optimized,
                          CompiledObject::Origin::Speculative) != nullptr;
}

TypeSignature Engine::speculationSignature(const std::string &Name,
                                           const FunctionInfo &FI,
                                           const TypeSignature *Forced) {
  // What users actually call beats what the hint pass guesses; the guess
  // stays as the cold-start fallback. Arity is checked against the live
  // analysis view so a stale persisted profile can never force a
  // wrong-arity compile.
  size_t Arity = FI.F->params().size();
  TypeSignature Sig;
  if (Forced && Forced->size() == Arity)
    Sig = *Forced;
  else if (!observedSignatureFor(Name, Arity, Sig))
    return speculateSignature(FI, Opts.Infer);
  Spec.ObservedSigCompiles.inc();
  return Sig;
}

//===----------------------------------------------------------------------===//
// Background jobs: speculation (the compile queue), saves, native builds
//===----------------------------------------------------------------------===//

bool Engine::enqueueJob(JobKind K, const std::string &Name,
                        std::function<void()> Run) {
  // Workers call this too (a compile queues its save), so the pool pointer
  // is read here, under SpecMutex, where shutdown clears it.
  if (!SpecPool || Draining)
    return false;
  auto It = QueuedJobs.insert(QueuedJobs.end(), {K, Name});
  try {
    It->Id = SpecPool->enqueue([this, K, It, Run = std::move(Run)] {
      {
        std::lock_guard<std::mutex> L(SpecMutex);
        QueuedJobs.erase(It);
      }
      Run();
      {
        std::lock_guard<std::mutex> L(SpecMutex);
        --PendingJobs[size_t(K)];
      }
      SpecIdleCv.notify_all();
    });
  } catch (...) {
    // Injected pool-enqueue fault: no job, and nothing left to wait for.
    QueuedJobs.erase(It);
    return false;
  }
  ++PendingJobs[size_t(K)];
  return true;
}

void Engine::awaitJobs(std::initializer_list<JobKind> Kinds) {
  std::unique_lock<std::mutex> L(SpecMutex);
  SpecIdleCv.wait(L, [&] {
    return std::all_of(Kinds.begin(), Kinds.end(),
                       [&](JobKind K) { return PendingJobs[size_t(K)] == 0; });
  });
}

bool Engine::speculateAsync(const std::string &Name,
                            const TypeSignature *SigOverride) {
  if (!SpecPool)
    return false;
  // The analysis view is built here, on the engine's thread (it mutates
  // the LoadedFunction); speculative inference and the compile pipeline -
  // both pure over the FunctionInfo - run on the worker, keeping the
  // interactive thread's share of the request to parse + disambiguate.
  LoadedFunction *LF = compilable(Name);
  if (!LF)
    return false;
  std::shared_ptr<const FunctionInfo> FI = compileView(*LF);
  // Pins the inlined clone FI's nodes point into: reloading the function
  // on this thread must not pull it out from under the worker.
  std::shared_ptr<const Function> KeepAlive = LF->InlinedF;
  std::optional<TypeSignature> Forced;
  if (SigOverride)
    Forced = *SigOverride;
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    if (Draining)
      return false;
    if (std::find(InFlight.begin(), InFlight.end(), Name) != InFlight.end()) {
      Spec.DedupedRequests.inc();
      return false;
    }
    uint64_t Gen = SourceGeneration[Name];
    auto Compile = [this, Name, FI, KeepAlive, Gen, Forced] {
      backgroundCompile(Name, *FI, Gen, Forced ? &*Forced : nullptr);
    };
    if (!enqueueJob(JobKind::Compile, Name, Compile)) {
      Spec.Failed.inc();
      return false;
    }
    InFlight.push_back(Name);
    Spec.Queued.inc();
  }
  obs::traceInstant("speculate.queue", "engine", Name);
  return true;
}

bool Engine::promoteSpeculation(const std::string &Name) {
  if (!SpecPool)
    return false;
  std::lock_guard<std::mutex> L(SpecMutex);
  auto It = std::find_if(QueuedJobs.begin(), QueuedJobs.end(),
                         [&](const QueuedJob &J) {
                           return J.Kind == JobKind::Compile && J.Name == Name;
                         });
  // The pool may have handed the task to a worker that hasn't left the
  // ledger yet; promote() refuses once the task left the queue.
  if (It == QueuedJobs.end() || !SpecPool->promote(It->Id))
    return false;
  QueuedJobs.splice(QueuedJobs.begin(), QueuedJobs, It);
  Spec.Promoted.inc();
  return true;
}

void Engine::pauseBackgroundCompiles() {
  // Owned pool only: pausing a shared pool would stall every other
  // session's background work, and no session may have that power.
  if (OwnedSpecPool)
    OwnedSpecPool->setPaused(true);
}

void Engine::resumeBackgroundCompiles() {
  if (OwnedSpecPool)
    OwnedSpecPool->setPaused(false);
}

std::vector<std::string> Engine::queuedSpeculations() const {
  std::lock_guard<std::mutex> L(SpecMutex);
  std::vector<std::string> Names;
  for (const QueuedJob &J : QueuedJobs)
    if (J.Kind == JobKind::Compile)
      Names.push_back(J.Name);
  return Names;
}

void Engine::backgroundCompile(const std::string &Name, const FunctionInfo &FI,
                               uint64_t Gen, const TypeSignature *Forced) {
  Timer Total;
  CompiledObjectPtr Published;
  // A worker exception must never escape into the pool (it would be
  // swallowed there, silently losing the bookkeeping below); the signature
  // pick runs inference, which fails like any compile.
  try {
    Published = compileAndPublish(
        Name, FI, speculationSignature(Name, FI, Forced),
        CodeGenMode::Optimized, CompiledObject::Origin::Speculative,
        /*Optimistic=*/true, Gen);
  } catch (...) {
    noteCompileFailure(Name, Gen);
  }
  std::lock_guard<std::mutex> L(SpecMutex);
  SpecBackgroundSeconds += Total.seconds();
  (Published ? Spec.Completed : Spec.Dropped).inc();
  InFlight.erase(std::find(InFlight.begin(), InFlight.end(), Name));
}

void Engine::drainCompiles() {
  // Native compiles count as compiles: tests that drain before asserting
  // on tier state must not race the background cc invocation.
  awaitJobs({JobKind::Compile, JobKind::Native});
}

bool Engine::speculationInFlight(const std::string &Name) const {
  std::lock_guard<std::mutex> L(SpecMutex);
  return std::find(InFlight.begin(), InFlight.end(), Name) != InFlight.end();
}

SpeculationStats Engine::speculationStats() const {
  SpeculationStats S;
  S.Queued = Spec.Queued.value();
  S.Completed = Spec.Completed.value();
  S.Dropped = Spec.Dropped.value();
  S.DedupedRequests = Spec.DedupedRequests.value();
  S.InFlightInterpreted = Spec.InFlightInterpreted.value();
  S.Promoted = Spec.Promoted.value();
  S.Failed = Spec.Failed.value();
  std::lock_guard<std::mutex> L(SpecMutex);
  S.BackgroundCompileSeconds = SpecBackgroundSeconds;
  S.TimeToFirstResultSeconds = TimeToFirstResultSeconds;
  return S;
}

void Engine::invalidateFunction(const std::string &Name) {
  // Bumping the generation and dropping published code under the same
  // lock the workers publish under: a worker finishing now either sees
  // the new generation (and drops its result) or published before the
  // invalidate (and its object is erased here).
  std::lock_guard<std::mutex> L(SpecMutex);
  ++SourceGeneration[Name];
  // New source gets a fresh chance: the quarantine recorded a crash of the
  // old generation's compile.
  Quarantined.erase(Name);
  Repo.invalidate(Name);
  // Native versions compiled from the old source must not serve the new
  // one. Warm .mjn entries stay pending: like the .mjo entries, they carry
  // the source hash they were compiled from, and adoption discards the
  // stale ones itself.
  std::string Prefix = Name + '\0';
  for (auto It = NativeVersions.begin(); It != NativeVersions.end();) {
    if (It->first.rfind(Prefix, 0) == 0)
      It = NativeVersions.erase(It);
    else
      ++It;
  }
  ++NativeEpoch;
}

void Engine::noteCompileFailure(const std::string &Name, uint64_t Gen) {
  std::lock_guard<std::mutex> L(SpecMutex);
  Spec.Failed.inc();
  if (SourceGeneration[Name] == Gen)
    Quarantined[Name] = Gen;
}

bool Engine::isQuarantined(const std::string &Name) const {
  std::lock_guard<std::mutex> L(SpecMutex);
  return Quarantined.count(Name) != 0;
}

size_t Engine::quarantineCount() const {
  std::lock_guard<std::mutex> L(SpecMutex);
  return Quarantined.size();
}

void Engine::requestInterrupt() {
  if (Opts.PerSessionLimits)
    IntrToken.request();
  else
    exec::requestInterrupt();
}

void Engine::clearInterrupt() {
  if (Opts.PerSessionLimits)
    IntrToken.clear();
  else
    exec::clearInterrupt();
}

void Engine::recordFirstResult() {
  if (CallDepth != 1)
    return;
  std::lock_guard<std::mutex> L(SpecMutex);
  if (TimeToFirstResultSeconds < 0)
    TimeToFirstResultSeconds = BirthTimer.seconds();
}

bool Engine::precompileGeneric(const std::string &Name, size_t Arity) {
  return compileAndInsert(Name, TypeSignature::generic(Arity),
                          CodeGenMode::Generic,
                          CompiledObject::Origin::Generic) != nullptr;
}

TypeSignature Engine::speculated(const std::string &Name) {
  LoadedFunction *LF = resolve(Name);
  if (!LF)
    return TypeSignature();
  return speculateSignature(*compileView(*LF), Opts.Infer);
}

//===----------------------------------------------------------------------===//
// Observability
//===----------------------------------------------------------------------===//

void Engine::observeSignature(LoadedFunction &LF, const TypeSignature &Sig) {
  const std::string &Name = LF.F->name();
  if (!LF.Profiled)
    LF.Profiled = &ProfiledSigsByFn[Name];
  ProfiledSigs &PS = *LF.Profiled;
  // Records the rendering \p Str of \p S and notes what the profile
  // table answered.
  auto Record = [&](const TypeSignature &S, const std::string &Str) {
    obs::FunctionProfiles::SigCredit C = Profiles.recordInvocation(Name, Str);
    if (C.Added)
      PS.Held.push_back({S, Str});
    PS.Full = C.Full;
  };
  for (LoadedFunction::SigObs &O : LF.Obs) {
    if (!(O.Sig == Sig))
      continue;
    ++O.Count;
    if (O.Count > LF.BestCount) {
      size_t Idx = static_cast<size_t>(&O - LF.Obs.data());
      LF.BestCount = O.Count;
      if (Idx != LF.BestIdx) {
        // A different signature overtook the best: publish it for the
        // workers. Same-signature bumps skip this, so the steady state
        // pays no extra locking.
        LF.BestIdx = Idx;
        std::lock_guard<std::mutex> L(SpecMutex);
        ObservedSigByFn[Name] = O.Sig;
      }
    }
    Record(O.Sig, O.Str);
    return;
  }
  if (LF.Obs.size() < obs::FunctionProfiles::kMaxSignatures) {
    LF.Obs.push_back({Sig, Sig.str(), 1});
    LoadedFunction::SigObs &O = LF.Obs.back();
    if (O.Count > LF.BestCount) {
      LF.BestCount = O.Count;
      LF.BestIdx = LF.Obs.size() - 1;
      std::lock_guard<std::mutex> L(SpecMutex);
      ObservedSigByFn[Name] = O.Sig;
    }
    Record(O.Sig, O.Str);
    return;
  }
  // Megamorphic overflow (recursion passes constants, so every distinct
  // argument value is a signature). The rendering matters only when the
  // profile table may hold it already or still has room for it; a full
  // table that certainly does not hold it takes the call into its
  // overflow bucket unrendered.
  bool Rendered = false;
  for (const auto &[HeldSig, HeldStr] : PS.Held) {
    if (!Sig.mayRenderSame(HeldSig))
      continue;
    if (!Rendered) {
      LF.OverflowSig = Sig.str();
      Rendered = true;
    }
    if (LF.OverflowSig == HeldStr) {
      Profiles.recordInvocation(Name, HeldStr);
      return;
    }
  }
  if (PS.Full) {
    Profiles.recordOverflowInvocation(Name);
    return;
  }
  if (!Rendered)
    LF.OverflowSig = Sig.str();
  Record(Sig, LF.OverflowSig);
}

bool Engine::observedSignatureFor(const std::string &Name, size_t Arity,
                                  TypeSignature &Out) const {
  std::lock_guard<std::mutex> L(SpecMutex);
  auto It = ObservedSigByFn.find(Name);
  if (It == ObservedSigByFn.end() || It->second.size() != Arity)
    return false;
  Out = It->second;
  return true;
}

void Engine::seedObservedSignatures(const std::string &Name,
                                    LoadedFunction &LF) {
  auto It = PendingProfileSigs.find(Name);
  if (It == PendingProfileSigs.end() || LF.F->isScript())
    return;
  size_t Arity = LF.F->params().size();
  for (const RepoStore::ProfileSig &PS : It->second) {
    // Persisted signatures whose arity drifted from the live source are
    // stale; dropping them here means they can never win best-observed.
    if (PS.Sig.size() != Arity ||
        LF.Obs.size() >= obs::FunctionProfiles::kMaxSignatures)
      continue;
    LF.Obs.push_back({PS.Sig, PS.SigStr, PS.Count});
    if (PS.Count > LF.BestCount) {
      LF.BestCount = PS.Count;
      LF.BestIdx = LF.Obs.size() - 1;
    }
  }
  if (LF.BestIdx != SIZE_MAX) {
    std::lock_guard<std::mutex> L(SpecMutex);
    ObservedSigByFn[Name] = LF.Obs[LF.BestIdx].Sig;
  }
}

void Engine::saveProfilesToStore() {
  if (!ProfileStore)
    return;
  // Compose the persisted summaries from the profile layer's counts (live
  // plus what was merged at startup) and the engine-side signature caches,
  // which hold the TypeSignature for each rendered string. Untyped
  // invocations (scripts, InterpretOnly) carry counts but no signature.
  std::vector<RepoStore::ProfileSummary> Out;
  for (obs::FunctionProfile &P : Profiles.snapshot()) {
    RepoStore::ProfileSummary S;
    S.Name = P.Name;
    S.Invocations = P.Invocations;
    S.OtherSignatures = P.OtherSignatures;
    const LoadedFunction *LF = find(P.Name);
    auto PendingIt = PendingProfileSigs.find(P.Name);
    // A loaded function's versions say what serves each signature now; a
    // function this session never loaded keeps what was persisted.
    std::vector<CompiledObjectPtr> Versions;
    if (LF)
      Versions = Repo.versions(P.Name);
    for (const auto &[Str, Count] : P.ArgSignatures) {
      if (Str == UntypedSig)
        continue;
      std::optional<RepoStore::ProfileSig> Found;
      if (LF)
        for (const LoadedFunction::SigObs &O : LF->Obs)
          if (O.Str == Str) {
            Found = RepoStore::ProfileSig{O.Sig, Str, Count, std::nullopt};
            for (const CompiledObjectPtr &V : Versions)
              if (O.Sig.safeFor(V->Sig)) {
                Found->ServedBy = V->Sig;
                break;
              }
            break;
          }
      if (!Found && PendingIt != PendingProfileSigs.end())
        for (const RepoStore::ProfileSig &PS : PendingIt->second)
          if (PS.SigStr == Str) {
            Found = PS;
            Found->Count = Count;
            break;
          }
      if (Found && S.Sigs.size() < RepoStore::kProfileTopK)
        S.Sigs.push_back(std::move(*Found));
    }
    if (S.Invocations == 0 && S.Sigs.empty())
      continue;
    Out.push_back(std::move(S));
  }
  ProfileStore->saveProfiles(Out);
}

obs::MetricsSnapshot Engine::sampleMetrics() {
  // Point-in-time levels live in their components; mirror them into
  // gauges at snapshot time instead of threading writes through the hot
  // paths.
  RepoStoreStats SS = repoStoreStats();
  Metrics.gauge("repo.store.saved").set(int64_t(SS.Saved));
  Metrics.gauge("repo.store.save_failures").set(int64_t(SS.SaveFailures));
  Metrics.gauge("repo.store.loaded").set(int64_t(SS.Loaded));
  Metrics.gauge("repo.store.quarantined").set(int64_t(SS.Quarantined));
  Metrics.gauge("repo.store.skewed").set(int64_t(SS.Skewed));
  Metrics.gauge("repo.store.stale_source").set(int64_t(SS.StaleSource));
  Metrics.gauge("repo.store.adopted").set(int64_t(SS.Adopted));
  Metrics.gauge("repo.store.swept_temps").set(int64_t(SS.SweptTemps));
  Metrics.gauge("repo.store.profiles_saved").set(int64_t(SS.ProfilesSaved));
  Metrics.gauge("repo.store.profile_save_failures")
      .set(int64_t(SS.ProfileSaveFailures));
  Metrics.gauge("repo.store.profiles_loaded").set(int64_t(SS.ProfilesLoaded));
  Metrics.gauge("repo.store.profiles_quarantined")
      .set(int64_t(SS.ProfilesQuarantined));
  Metrics.gauge("repo.store.profiles_skewed").set(int64_t(SS.ProfilesSkewed));
  Metrics.gauge("repo.store.native_saved").set(int64_t(SS.NativeSaved));
  Metrics.gauge("repo.store.native_save_failures")
      .set(int64_t(SS.NativeSaveFailures));
  Metrics.gauge("repo.store.native_loaded").set(int64_t(SS.NativeLoaded));
  Metrics.gauge("repo.store.native_quarantined")
      .set(int64_t(SS.NativeQuarantined));
  Metrics.gauge("repo.store.native_skewed").set(int64_t(SS.NativeSkewed));
  Metrics.gauge("repo.store.native_untrusted").set(int64_t(SS.NativeUntrusted));
  Metrics.gauge("repo.entries_read").set(int64_t(SS.EntriesRead));
  Metrics.gauge("repo.objects").set(int64_t(Repo.totalObjects()));
  Metrics.gauge("engine.quarantined").set(int64_t(quarantineCount()));
  par::ComputePoolSample CP = par::sampleComputePool();
  Metrics.gauge("pool.compute.threads").set(int64_t(CP.Threads));
  Metrics.gauge("pool.compute.enqueued").set(int64_t(CP.TasksEnqueued));
  Metrics.gauge("pool.compute.finished").set(int64_t(CP.TasksFinished));
  Metrics.gauge("pool.compute.queue_depth").set(CP.QueueDepth);
  // Fault-injection site counters, so a fault-sweep run can report which
  // sites actually fired (all zero when no schedule is armed).
  for (unsigned S = 0; S != faults::kNumSites; ++S) {
    auto Site = static_cast<faults::Site>(S);
    faults::SiteStats FS = faults::stats(Site);
    std::string Base = std::string("faults.") + faults::siteName(Site);
    Metrics.gauge(Base + ".hits").set(int64_t(FS.Hits));
    Metrics.gauge(Base + ".fired").set(int64_t(FS.Fired));
  }
  return Metrics.snapshot();
}

std::string Engine::statsReport() {
  sampleMetrics();
  std::string Out = Metrics.renderTable();
  Out += "\n";
  Out += Profiles.renderTable();
  return Out;
}

std::string Engine::metricsJson() {
  sampleMetrics();
  std::string Out = "{\"metrics\": ";
  Out += Metrics.json();
  Out += ", \"profiles\": ";
  Out += Profiles.json();
  Out += "}";
  return Out;
}


//===----------------------------------------------------------------------===//
// Invocation
//===----------------------------------------------------------------------===//

/// Brackets one invocation. A top-level one gets a fresh op budget and,
/// with per-session limits, the engine's own memory account and interrupt
/// token for its whole extent (parallelFor propagates both into its
/// chunks). Nested calls, a script's callees included, spend their
/// caller's.
class Engine::InvocationScope {
public:
  explicit InvocationScope(Engine &E) : Depth(E.CallDepth) {
    if (Depth++ != 0)
      return;
    E.Ctx.Exec.reset();
    if (E.Opts.PerSessionLimits) {
      Acct.emplace(&E.MemAccount);
      Token.emplace(&E.IntrToken);
    }
  }
  ~InvocationScope() { --Depth; }

private:
  std::optional<mem::ScopedAccount> Acct;
  std::optional<exec::ScopedToken> Token;
  unsigned &Depth;
};

std::vector<ValuePtr> Engine::callFunction(const std::string &Name,
                                           std::vector<ValuePtr> Args,
                                           size_t NumOuts, SourceLoc Loc) {
  LoadedFunction *LF = resolve(Name);
  if (!LF)
    throw MatlabError(format("undefined function '%s'", Name.c_str()), Loc);
  if (!LF->F->isScript() && Args.size() > LF->F->params().size())
    throw MatlabError(format("too many input arguments to '%s'", Name.c_str()),
                      Loc);
  if (NumOuts > std::max<size_t>(LF->F->outs().size(), 1))
    throw MatlabError(format("too many output arguments from '%s'",
                             Name.c_str()),
                      Loc);
  if (CallDepth >= Opts.MaxCallDepth)
    throw MatlabError(kMaxRecursionMessage, Loc);
  InvocationScope Scope(*this);

  if (Opts.Policy == CompilePolicy::InterpretOnly || LF->F->isScript()) {
    Profiles.recordInvocation(Name, UntypedSig);
    return interpretCall(*LF, std::move(Args), NumOuts);
  }

  TypeSignature Sig = TypeSignature::ofValues(Args);
  observeSignature(*LF, Sig);
  CompiledObjectPtr Obj = Repo.lookup(Name, Sig);
  if (Obj)
    LF->SigMissStreak = 0;
  if (!Obj && Opts.Policy == CompilePolicy::Speculative &&
      speculationInFlight(Name)) {
    // A background compile of this function is still in flight: interpret
    // this one invocation instead of duplicating the compiler's work on
    // the hot path; the next call picks up the published object. An actual
    // invocation is the strongest priority signal we have, so if the
    // compile is still sitting in the queue, move it to the front - the
    // snooper enqueues in discovery order, not in the order the user ends
    // up calling things.
    promoteSpeculation(Name);
    InterpFallbacks.inc();
    Spec.InFlightInterpreted.inc();
    return interpretCall(*LF, std::move(Args), NumOuts);
  }
  if (!Obj) {
    // Miss: compile according to policy. When a version with the same
    // skeleton already exists (recursive calls with different constants),
    // compile the generalized signature so the repository converges.
    TypeSignature CompileSig = Sig;
    TypeSignature General = Sig.generalized();
    if (Repo.versionCount(Name) != 0 && !(General == Sig) &&
        Sig.safeFor(General))
      CompileSig = General;

    // Repeated misses against existing compiled versions mean speculation
    // guessed wrong for what the user actually calls: re-speculate on the
    // newly observed signature (once per distinct signature, so a stable
    // pattern does not churn the background queue). The JIT below still
    // serves this invocation; the background compile upgrades the hot
    // signature to optimized code.
    if (Opts.Policy == CompilePolicy::Speculative && SpecPool &&
        Repo.versionCount(Name) != 0 &&
        ++LF->SigMissStreak >= kRespeculateMissStreak &&
        (!LF->RespecValid || !(LF->RespecSig == CompileSig))) {
      LF->RespecSig = CompileSig;
      LF->RespecValid = true;
      speculateAsync(Name, &CompileSig);
    }

    switch (Opts.Policy) {
    case CompilePolicy::Jit:
    case CompilePolicy::Speculative:
      Obj = compileAndInsert(Name, CompileSig, CodeGenMode::Jit,
                             CompiledObject::Origin::Jit);
      if (Obj)
        JitCompiles.inc();
      break;
    case CompilePolicy::Falcon:
      Obj = compileAndInsert(Name, CompileSig, CodeGenMode::Optimized,
                             CompiledObject::Origin::Batch);
      break;
    case CompilePolicy::Mcc:
      Obj = compileAndInsert(Name, TypeSignature::generic(Args.size()),
                             CodeGenMode::Generic,
                             CompiledObject::Origin::Generic);
      break;
    case CompilePolicy::InterpretOnly:
      break;
    }
  }
  if (!Obj) {
    InterpFallbacks.inc();
    return interpretCall(*LF, std::move(Args), NumOuts);
  }
  // Obj is a shared handle: even if a background recompile replaces this
  // version in the repository mid-execution, the object stays alive.
  return runCompiled(*Obj, std::move(Args), NumOuts);
}

bool Engine::knowsFunction(const std::string &Name) {
  return resolve(Name) != nullptr;
}

std::string Engine::nativeKey(const std::string &Name,
                              const TypeSignature &Sig) {
  ser::ByteWriter W;
  ser::writeTypeSignature(W, Sig);
  return Name + '\0' +
         format("%016llx",
                static_cast<unsigned long long>(hashing::fnv1a(W.bytes())));
}

std::vector<ValuePtr> Engine::NativeHostBridge::callFunction(
    const std::string &Name, std::vector<ValuePtr> Args, size_t NumOuts) {
  return E->callFunction(Name, std::move(Args), NumOuts, SourceLoc());
}

std::shared_ptr<native::NativeModule>
Engine::nativeModuleFor(const CompiledObject &Obj) {
  if (NativeMemoEpoch == NativeEpoch) {
    auto MemoIt = NativeMemos.find(Obj.Id);
    if (MemoIt != NativeMemos.end())
      return MemoIt->second;
  }
  auto Memo = [&](std::shared_ptr<native::NativeModule> Mod) {
    // Bounded: stale ids of replaced objects go with the next clear.
    if (NativeMemoEpoch != NativeEpoch || NativeMemos.size() >= 1024) {
      NativeMemos.clear();
      NativeMemoEpoch = NativeEpoch;
    }
    NativeMemos[Obj.Id] = Mod;
    return Mod;
  };
  std::string Key = nativeKey(Obj.FunctionName, Obj.Sig);
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    auto It = NativeVersions.find(Key);
    if (It != NativeVersions.end()) {
      if (It->second.St == NativeVersion::State::Pending)
        return nullptr;
      return Memo(It->second.Module);
    }
  }
  // Without a compiler a version can only appear by warm adoption, which
  // moves the epoch.
  if (!NativeComp->available())
    return Memo(nullptr);
  // Promotion is profile-guided: the function must have earned the
  // hotness threshold (counting invocations persisted from previous
  // sessions, so a warm start re-promotes immediately).
  if (Profiles.invocations(Obj.FunctionName) < Opts.NativeHotThreshold)
    return nullptr;
  uint64_t Gen;
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    if (Draining)
      return nullptr;
    auto [It, New] = NativeVersions.emplace(Key, NativeVersion());
    if (!New)
      return It->second.St == NativeVersion::State::Ready ? It->second.Module
                                                          : nullptr;
    Gen = SourceGeneration[Obj.FunctionName];
    // Compile off-thread when a pool exists: the invocation that crossed
    // the threshold still runs on the VM while cc works in the
    // background (the paper's "the user never waits", applied to a
    // compiler we do not control).
    auto Build = [this, Name = Obj.FunctionName, Sig = Obj.Sig,
                  Code = Obj.Code, Gen] { buildNative(Name, Sig, Code, Gen); };
    if (enqueueJob(JobKind::Native, Obj.FunctionName, Build))
      return nullptr;
  }
  // No pool: building here settles the version.
  buildNative(Obj.FunctionName, Obj.Sig, Obj.Code, Gen);
  return nativeModuleFor(Obj);
}

void Engine::buildNative(const std::string &Name, const TypeSignature &Sig,
                         std::shared_ptr<const IRFunction> Code,
                         uint64_t Gen) {
  std::string Key = nativeKey(Name, Sig);
  std::shared_ptr<native::NativeModule> Mod;
  std::vector<uint8_t> So;
  try {
    std::string CSource = emitCSource(*Code, Sig);
    So = NativeComp->compile(CSource, Name);
    Mod = native::NativeCompiler::load(So, Name, Code->NumOuts);
  } catch (...) {
    // Compiler crash, timeout, -Werror rejection, loader refusal,
    // injected fault: the version pins to the VM tier, and the engine
    // does not retry until the source changes. The native tier must
    // never take the engine down or change observable results.
    NativeFailures.inc();
    obs::traceInstant("native.fail", "native", Name);
    std::lock_guard<std::mutex> L(SpecMutex);
    if (SourceGeneration[Name] == Gen)
      NativeVersions[Key].St = NativeVersion::State::Failed;
    return;
  }
  NativeCompiles.inc();
  obs::traceInstant("native.promote", "native", Name);
  uint32_t NumOuts = static_cast<uint32_t>(Mod->numOuts());
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    // The source was reloaded or removed while cc ran: this module is
    // the old source's, and must not settle the new source's version.
    if (SourceGeneration[Name] != Gen)
      return;
    NativeVersion &NV = NativeVersions[Key];
    NV.St = NativeVersion::State::Ready;
    NV.Module = std::move(Mod);
  }
  // Persist the .so beside the .mjo so the next session warm-starts into
  // machine code with zero compiler invocations.
  if (!Store)
    return;
  if (std::optional<uint64_t> SrcHash = sourceHash(Name))
    persistUnlessErased(Name, /*Native=*/true, [&] {
      Store->saveNative(Name, Sig, NumOuts, std::string(So.begin(), So.end()),
                        *SrcHash);
    });
}

void Engine::quarantineNative(const std::string &Name,
                              const TypeSignature &Sig) {
  {
    std::lock_guard<std::mutex> L(SpecMutex);
    NativeVersion &NV = NativeVersions[nativeKey(Name, Sig)];
    NV.St = NativeVersion::State::Failed;
    NV.Module.reset();
    ++NativeEpoch;
  }
  // Drop the on-disk entries too: code that failed at run time must not
  // resurrect on the next warm start.
  if (Store)
    Store->eraseNative(Name);
  obs::traceInstant("native.quarantine", "native", Name);
}

template <typename RunFn>
auto Engine::timedRun(Tier T, const std::string &Name, RunFn &&Run)
    -> decltype(Run()) {
  if (CallDepth != 1)
    return Run();
  ScopedPhaseTimer PT(Phases, Phase::Execute);
  Timer Clock;
  auto R = Run();
  recordRun(T, Name, Clock.seconds());
  return R;
}

void Engine::recordRun(Tier T, const std::string &Name, double Seconds) {
  static constexpr void (obs::FunctionProfiles::*Record[])(
      const std::string &, double) = {&obs::FunctionProfiles::recordNativeRun,
                                      &obs::FunctionProfiles::recordVmRun,
                                      &obs::FunctionProfiles::recordInterpRun};
  Inst.RunSeconds[size_t(T)]->observe(Seconds);
  (Profiles.*Record[size_t(T)])(Name, Seconds);
  recordFirstResult();
}

Engine::NativeRun Engine::runNativeTier(const CompiledObject &Obj,
                                        const std::vector<ValuePtr> &Args,
                                        size_t NumOuts, const Rng &SavedRand,
                                        size_t OutputMark,
                                        std::vector<ValuePtr> &Out) {
  std::shared_ptr<native::NativeModule> Mod = nativeModuleFor(Obj);
  if (!Mod)
    return NativeRun::Unavailable;
  // Genuine MATLAB errors propagate exactly as from the VM; everything
  // else the tier can fail with - deopt guards, injected faults -
  // restores the snapshots, so the tiers are distinguishable only by
  // speed.
  try {
    Out = timedRun(Tier::Native, Obj.FunctionName, [&] {
      return native::runNative(Mod->entry(), Obj.FunctionName, Mod->numOuts(),
                               Obj.Code->OutNames, Ctx, NativeHostAdapter,
                               Args, NumOuts);
    });
    // Counted only after the call returns: deopts and quarantined runs
    // must not inflate native.hits relative to native.deopts/failures.
    NativeHits.inc();
    return NativeRun::Served;
  } catch (const DeoptError &) {
    // An optimistic guard failed inside machine code. The VM runs the
    // same optimistic IR and would fail the same guard, so the caller
    // goes straight to the pessimistic recompile.
    NativeDeopts.inc();
    quarantineNative(Obj.FunctionName, Obj.Sig);
    Ctx.Rand = SavedRand;
    Ctx.truncateOutput(OutputMark);
    return NativeRun::Deopted;
  } catch (const MatlabError &) {
    // The program's own error (bad subscript, undefined variable,
    // interrupt, resource limit): the VM would raise it identically.
    throw;
  } catch (...) {
    // Injected fault or native-side surprise: never let the tier take
    // the engine down - quarantine and serve from the VM.
    NativeFailures.inc();
    quarantineNative(Obj.FunctionName, Obj.Sig);
    Ctx.Rand = SavedRand;
    Ctx.truncateOutput(OutputMark);
    return NativeRun::Unavailable;
  }
}

std::vector<ValuePtr> Engine::runCompiled(const CompiledObject &Obj,
                                          std::vector<ValuePtr> Args,
                                          size_t NumOuts) {
  // Snapshot the PRNG and buffered output so a deoptimization retry does
  // identical work.
  Rng SavedRand = Ctx.Rand;
  size_t OutputMark = Ctx.output().size();
  // Third tier: machine code when this (function, signature) version has
  // been promoted. Outlined (never inlined) so the tier's locals and
  // exception tables stay off runCompiled's frame - this function is on
  // the VM's call-recursion cycle and its frame size bounds how deep the
  // MaxCallDepth guard can actually be reached.
  if (NativeComp) {
    std::vector<ValuePtr> NativeOut;
    switch (runNativeTier(Obj, Args, NumOuts, SavedRand, OutputMark,
                          NativeOut)) {
    case NativeRun::Served:
      return NativeOut;
    case NativeRun::Deopted:
      return runPessimistic(Obj, std::move(Args), NumOuts);
    case NativeRun::Unavailable:
      break;
    }
  }
  try {
    return timedRun(Tier::Vm, Obj.FunctionName,
                    [&] { return Machine->run(*Obj.Code, Args, NumOuts); });
  } catch (const DeoptError &) {
    // An optimistic guard failed (sqrt of a negative value, ...): undo the
    // attempt, then recompile pessimistically and retry.
    Deopts.inc();
    Ctx.Rand = SavedRand;
    Ctx.truncateOutput(OutputMark);
  }
  return runPessimistic(Obj, std::move(Args), NumOuts);
}

std::vector<ValuePtr> Engine::runPessimistic(const CompiledObject &Obj,
                                             std::vector<ValuePtr> Args,
                                             size_t NumOuts) {
  Profiles.recordDeopt(Obj.FunctionName);
  obs::traceInstant("deopt", "engine", Obj.FunctionName);
  // Repeated deopts say the speculated types were wrong for the live
  // call pattern. When the observed signature differs from the one that
  // deopted, queue an optimized recompile for it; same-signature deopts
  // are already handled by the pessimistic replacement below (and must
  // not be re-speculated optimistically, which would just deopt again).
  if (Opts.Policy == CompilePolicy::Speculative && SpecPool) {
    if (LoadedFunction *DLF = find(Obj.FunctionName))
      if (++DLF->DeoptCount == kRespeculateDeopts) {
        TypeSignature Observed;
        if (observedSignatureFor(Obj.FunctionName, Obj.Sig.size(),
                                 Observed) &&
            !(Observed == Obj.Sig))
          speculateAsync(Obj.FunctionName, &Observed);
      }
  }
  CompiledObjectPtr Repl = compileAndInsert(
      Obj.FunctionName, Obj.Sig, Obj.Mode, Obj.From, /*Optimistic=*/false);
  if (!Repl) {
    InterpFallbacks.inc();
    LoadedFunction *LF = find(Obj.FunctionName);
    if (!LF)
      throw MatlabError("deoptimization of unknown function '" +
                        Obj.FunctionName + "'");
    return interpretCall(*LF, std::move(Args), NumOuts);
  }
  // Pessimistic code selects no optimistic guards; a second DeoptError
  // cannot occur from this object.
  return timedRun(Tier::Vm, Repl->FunctionName, [&] {
    return Machine->run(*Repl->Code, std::move(Args), NumOuts);
  });
}

std::vector<ValuePtr> Engine::interpretCall(LoadedFunction &LF,
                                            std::vector<ValuePtr> Args,
                                            size_t NumOuts) {
  return timedRun(Tier::Interp, LF.F->name(), [&] {
    return Interp->run(*LF.F, std::move(Args), NumOuts);
  });
}

//===----------------------------------------------------------------------===//
// Interactive scripts
//===----------------------------------------------------------------------===//

std::string Engine::runScript(const std::string &Source) {
  obs::TraceScope Span("script", "engine");
  size_t OutputMark = Ctx.output().size();

  std::string Name = format("session%zu", Modules.size());
  std::unique_ptr<Module> Mod = parseSource(Name, Source);
  if (!Mod) {
    std::string Err = Diags.render(SM);
    Diags.clear();
    return "??? " + Err;
  }
  Function *Script = Mod->mainFunction();
  if (!Script->isScript()) {
    // Defining functions interactively: register them instead of running.
    // Hibernation replays these definitions verbatim, so record the text
    // (once per distinct text; re-submitting an identical definition is
    // idempotent and replaying the survivor in order reaches the same
    // final state).
    bool Known = false;
    for (const auto &D : InteractiveDefs)
      Known |= D.Text == Source;
    if (!Known)
      InteractiveDefs.push_back({Name, Source});
    registerModule(std::move(Mod), Source);
    return "";
  }

  // Pre-existing workspace variables are in scope.
  std::vector<std::string> Predefined;
  for (const auto &[VarName, V] : WorkspaceByName)
    if (V)
      Predefined.push_back(VarName);
  std::unique_ptr<FunctionInfo> Info;
  {
    ScopedPhaseTimer T(Phases, Phase::Disambiguate);
    Info = disambiguate(*Script, *Mod, &Predefined);
  }

  // Map workspace values into the script's slots.
  std::vector<ValuePtr> Slots(Info->Symbols.numSlots());
  for (unsigned S = 0; S != Info->Symbols.numSlots(); ++S) {
    auto It = WorkspaceByName.find(Info->Symbols.nameOfSlot(S));
    if (It != WorkspaceByName.end())
      Slots[S] = It->second;
  }

  try {
    ScopedPhaseTimer T(Phases, Phase::Execute);
    // The script itself is a top-level invocation, so the functions it
    // calls (depth >= 1 from here) never reset the budget mid-script.
    InvocationScope Scope(*this);
    Interp->runScript(*Script, Slots);
    recordFirstResult();
  } catch (const MatlabError &E) {
    Ctx.print("??? " + E.message() + "\n");
  }

  // Write the workspace back.
  for (unsigned S = 0; S != Info->Symbols.numSlots(); ++S) {
    const std::string &VarName = Info->Symbols.nameOfSlot(S);
    if (Slots[S])
      WorkspaceByName[VarName] = Slots[S];
    else
      WorkspaceByName.erase(VarName);
  }
  Modules.push_back(std::move(Mod));

  return Ctx.output().substr(OutputMark);
}

ValuePtr Engine::workspaceVar(const std::string &Name) const {
  auto It = WorkspaceByName.find(Name);
  return It == WorkspaceByName.end() ? nullptr : It->second;
}

ser::WorkspaceImage Engine::workspaceImage() const {
  ser::WorkspaceImage W;
  W.Sources = InteractiveDefs;
  W.Vars.reserve(WorkspaceByName.size());
  for (const auto &[Name, V] : WorkspaceByName)
    if (V)
      W.Vars.push_back({Name, V});
  std::sort(W.Vars.begin(), W.Vars.end(),
            [](const ser::WorkspaceImage::VarDef &A,
               const ser::WorkspaceImage::VarDef &B) { return A.Name < B.Name; });
  return W;
}

void Engine::restoreWorkspaceImage(const ser::WorkspaceImage &W) {
  // Replaying through runScript re-registers the functions exactly the way
  // the original definitions did (and re-records them for the next
  // hibernation); the text parsed when it was snapshotted, and the decode
  // ladder vouches for the bytes, so a parse failure here means a writer
  // bug - surface it rather than restore half a session.
  for (const ser::WorkspaceImage::SourceDef &S : W.Sources) {
    std::string Out = runScript(S.Text);
    if (Out.compare(0, 4, "??? ") == 0)
      throw ser::SerializeError("snapshotted definition failed to replay: " +
                                Out.substr(4));
  }
  for (const ser::WorkspaceImage::VarDef &Var : W.Vars)
    if (Var.V)
      WorkspaceByName[Var.Name] = Var.V;
}
