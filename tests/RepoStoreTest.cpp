//===- tests/RepoStoreTest.cpp - Persistent repository & warm start --------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The on-disk code repository: crash-safe saves, the startup validation
// ladder, warm starts that serve the first invocation with zero compiles,
// and - above all - that no corruption of the store (bit flips, truncation,
// injected faults, leftover temp files, deleted sources) can ever crash the
// engine or change a program's results.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "repo/RepoStore.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace majic;
namespace fs = std::filesystem;

namespace {

class RepoStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    faults::reset();
    Dir = fs::temp_directory_path() /
          ("majic_repostore_" +
           std::string(
               ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(Dir);
  }
  void TearDown() override {
    faults::reset();
    fs::remove_all(Dir);
  }

  /// Engine options for a deterministic store session: JIT policy and no
  /// worker pool, so compiles and saves both happen synchronously.
  EngineOptions syncOpts() {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.BackgroundCompileThreads = 0;
    O.RepoDir = Dir.string();
    return O;
  }

  /// Paths of the store's entry files.
  std::vector<fs::path> entryFiles() {
    std::vector<fs::path> Out;
    if (!fs::exists(Dir))
      return Out;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".mjo")
        Out.push_back(E.path());
    return Out;
  }

  fs::path Dir;
};

ValuePtr intArg(double X) { return makeValue(Value::intScalar(X)); }

const char *kSource = "function y = ff(x)\n"
                      "y = 0;\n"
                      "for k = 1:x\n"
                      "y = y + k * k;\n"
                      "end\n";
const double kArg = 10;
const double kExpect = 385; // sum of squares 1..10

//===----------------------------------------------------------------------===//
// Round trip and warm start
//===----------------------------------------------------------------------===//

TEST_F(RepoStoreTest, CompileWritesOneEntryFile) {
  Engine E(syncOpts());
  ASSERT_TRUE(E.addSource("ff", kSource));
  auto R = E.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  EXPECT_EQ(E.jitCompiles(), 1u);

  RepoStoreStats S = E.repoStoreStats();
  EXPECT_EQ(S.Saved, 1u);
  EXPECT_EQ(S.SaveFailures, 0u);
  auto Files = entryFiles();
  ASSERT_EQ(Files.size(), 1u);
  // <function>.<sighash>.mjo
  EXPECT_EQ(Files[0].filename().string().rfind("ff.", 0), 0u);
}

TEST_F(RepoStoreTest, WarmStartServesFirstCallWithZeroCompiles) {
  {
    Engine Cold(syncOpts());
    ASSERT_TRUE(Cold.addSource("ff", kSource));
    auto R = Cold.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
    ASSERT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
    ASSERT_EQ(Cold.repoStoreStats().Saved, 1u);
  }

  // The store is read when the function's source is, not at startup.
  Engine Warm(syncOpts());
  EXPECT_EQ(Warm.repoStoreStats().Loaded, 0u);
  ASSERT_TRUE(Warm.addSource("ff", kSource));
  RepoStoreStats S = Warm.repoStoreStats();
  EXPECT_EQ(S.Loaded, 1u);
  EXPECT_EQ(S.Quarantined, 0u);
  EXPECT_EQ(S.Adopted, 1u);
  EXPECT_EQ(Warm.repository().versionCount("ff"), 1u);

  // The first invocation is served straight from disk: no JIT compile, no
  // interpreter fallback, no speculation queued - and the same answer.
  auto R = Warm.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  EXPECT_EQ(Warm.jitCompiles(), 0u);
  EXPECT_EQ(Warm.interpreterFallbacks(), 0u);
  EXPECT_EQ(Warm.speculationStats().Queued, 0u);
}

TEST_F(RepoStoreTest, SourceDriftDiscardsEntryAndRecompiles) {
  {
    Engine Cold(syncOpts());
    ASSERT_TRUE(Cold.addSource("ff", kSource));
    Cold.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
    ASSERT_EQ(Cold.repoStoreStats().Saved, 1u);
  }

  // The .m text changed: the stored object was compiled from different
  // source and must not be served, however plausible its bytes are.
  std::string NewSource = "function y = ff(x)\ny = x + 1;\n";
  Engine Warm(syncOpts());
  ASSERT_TRUE(Warm.addSource("ff", NewSource));
  RepoStoreStats S = Warm.repoStoreStats();
  EXPECT_EQ(S.Loaded, 1u);
  EXPECT_EQ(S.Adopted, 0u);
  EXPECT_EQ(S.StaleSource, 1u);
  EXPECT_EQ(Warm.repository().versionCount("ff"), 0u);

  auto R = Warm.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kArg + 1);
  EXPECT_EQ(Warm.jitCompiles(), 1u);
}

TEST_F(RepoStoreTest, AsyncSavesFlushDeterministically) {
  {
    EngineOptions O;
    O.Policy = CompilePolicy::Speculative;
    O.BackgroundCompileThreads = 1;
    O.RepoDir = Dir.string();
    Engine E(O);
    ASSERT_TRUE(E.addSource("ff", kSource));
    ASSERT_TRUE(E.speculateAsync("ff"));
    E.drainCompiles();
    E.flushRepoStore();
    EXPECT_EQ(E.repoStoreStats().Saved, 1u);
    EXPECT_EQ(entryFiles().size(), 1u);
  }
  // Destroying the engine with saves possibly queued is also clean (the
  // pool drains before the store goes away); the file is intact on disk.
  Engine Warm(syncOpts());
  ASSERT_TRUE(Warm.addSource("ff", kSource));
  EXPECT_EQ(Warm.repoStoreStats().Loaded, 1u);
}

//===----------------------------------------------------------------------===//
// Corruption costs a recompile, never a result (every bit flip, truncation
// and garbage file of each on-disk kind is EnvelopeTest's)
//===----------------------------------------------------------------------===//

/// Reads a store entry file as raw bytes.
std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void spit(const fs::path &P, const std::string &Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

TEST_F(RepoStoreTest, PoisonedStoreRecomputesIdenticalResults) {
  double ColdResult;
  {
    Engine Cold(syncOpts());
    ASSERT_TRUE(Cold.addSource("ff", kSource));
    ColdResult =
        Cold.callFunction("ff", {intArg(kArg)}, 1, SourceLoc())[0]->scalarValue();
  }
  // Flip one bit in the middle of every entry file.
  for (const fs::path &P : entryFiles()) {
    std::string Bytes = slurp(P);
    Bytes[Bytes.size() / 2] = static_cast<char>(Bytes[Bytes.size() / 2] ^ 0x10);
    spit(P, Bytes);
  }

  Engine Warm(syncOpts());
  ASSERT_TRUE(Warm.addSource("ff", kSource));
  RepoStoreStats S = Warm.repoStoreStats();
  EXPECT_EQ(S.Loaded, 0u);
  EXPECT_EQ(S.Quarantined, 1u);
  auto R = Warm.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  // Transparent fallback: the poisoned entry cost a recompile, nothing else.
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), ColdResult);
  EXPECT_EQ(Warm.jitCompiles(), 1u);
}

//===----------------------------------------------------------------------===//
// Crash consistency: temp files and injected faults
//===----------------------------------------------------------------------===//

TEST_F(RepoStoreTest, LeftoverTempFilesAreSweptAtStartup) {
  fs::create_directories(Dir);
  // What a save that died between write and rename leaves behind.
  spit(Dir / "ff.0123456789abcdef.mjo.tmp12345.7", "partial bytes");
  spit(Dir / "gg.aaaaaaaaaaaaaaaa.mjo.tmp999.1", "");

  Engine E(syncOpts());
  EXPECT_EQ(E.repoStoreStats().SweptTemps, 2u);
  EXPECT_TRUE(entryFiles().empty());
  for (const fs::directory_entry &F : fs::directory_iterator(Dir))
    EXPECT_EQ(F.path().filename().string().find(".tmp"), std::string::npos)
        << F.path();
}

TEST_F(RepoStoreTest, InjectedSaveFaultIsContained) {
  Engine E(syncOpts());
  ASSERT_TRUE(E.addSource("ff", kSource));
  faults::armEvery(faults::Site::RepoSave, 1);
  auto R = E.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  // The failed save is invisible to the caller...
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  EXPECT_EQ(E.jitCompiles(), 1u);
  RepoStoreStats S = E.repoStoreStats();
  EXPECT_EQ(S.Saved, 0u);
  EXPECT_EQ(S.SaveFailures, 1u);
  // ...and leaves no debris: no entry file, no temp file.
  EXPECT_TRUE(entryFiles().empty());

  // With the fault gone, the next compile persists normally.
  faults::reset();
  ASSERT_TRUE(E.addSource("ff", kSource));
  E.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_EQ(E.repoStoreStats().Saved, 1u);
  EXPECT_EQ(entryFiles().size(), 1u);
}

TEST_F(RepoStoreTest, InjectedLoadFaultQuarantinesAndRecovers) {
  {
    Engine Cold(syncOpts());
    ASSERT_TRUE(Cold.addSource("ff", kSource));
    Cold.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  }

  faults::armEvery(faults::Site::RepoLoad, 1);
  Engine Warm(syncOpts());
  ASSERT_TRUE(Warm.addSource("ff", kSource));
  RepoStoreStats S = Warm.repoStoreStats();
  EXPECT_EQ(S.Loaded, 0u);
  EXPECT_EQ(S.Quarantined, 1u);
  faults::reset();

  // Cold path again, same answer, and the store repopulates.
  auto R = Warm.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  EXPECT_EQ(Warm.jitCompiles(), 1u);
  EXPECT_EQ(Warm.repoStoreStats().Saved, 1u);
}

//===----------------------------------------------------------------------===//
// Source deletion invalidates memory and disk
//===----------------------------------------------------------------------===//

TEST_F(RepoStoreTest, RemovedSourceErasesRepositoryAndStore) {
  fs::path SrcDir = Dir / "src";
  fs::create_directories(SrcDir);
  { std::ofstream(SrcDir / "ff.m") << kSource; }

  EngineOptions O = syncOpts();
  O.RepoDir = (Dir / "store").string();
  Engine E(O);
  E.watchDirectory(SrcDir.string());
  EXPECT_EQ(E.snoop(), 1u);
  auto R = E.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  ASSERT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  ASSERT_EQ(E.repository().versionCount("ff"), 1u);
  ASSERT_EQ(E.repoStoreStats().Saved, 1u);

  // Delete the source; the next snoop must stop serving it, from memory
  // and from disk.
  fs::remove(SrcDir / "ff.m");
  EXPECT_EQ(E.snoop(), 0u);
  EXPECT_EQ(E.repository().versionCount("ff"), 0u);
  EXPECT_THROW(E.callFunction("ff", {intArg(kArg)}, 1, SourceLoc()),
               MatlabError);
  bool AnyEntry = false;
  for (const fs::directory_entry &F : fs::directory_iterator(Dir / "store"))
    AnyEntry |= F.path().extension() == ".mjo";
  EXPECT_FALSE(AnyEntry);

  // A fresh engine on the same store has nothing to warm-start from: the
  // store is read when the source is, and the call compiles.
  Engine E2(O);
  EXPECT_EQ(E2.repoStoreStats().Loaded, 0u);
  ASSERT_TRUE(E2.addSource("ff", kSource));
  R = E2.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  EXPECT_EQ(E2.repoStoreStats().Loaded, 0u);
  EXPECT_EQ(E2.jitCompiles(), 1u);
}

TEST_F(RepoStoreTest, QueuedSaveDoesNotResurrectRemovedSource) {
  fs::path SrcDir = Dir / "src";
  fs::path StoreDir = Dir / "store";
  fs::create_directories(SrcDir);
  { std::ofstream(SrcDir / "ff.m") << kSource; }

  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 1; // saves ride the background pool
  O.RepoDir = StoreDir.string();
  Engine E(O);
  E.watchDirectory(SrcDir.string());
  ASSERT_EQ(E.snoop(), 1u);

  // Hold the pool so the save stays queued, compile, then delete the
  // source and process the removal while the save is still pending. The
  // save must not recreate the erased entry when it finally runs - a
  // deleted source must not resurrect on the next warm start.
  E.pauseBackgroundCompiles();
  auto R = E.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  ASSERT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  fs::remove(SrcDir / "ff.m");
  EXPECT_EQ(E.snoop(), 0u);
  E.resumeBackgroundCompiles();
  E.flushRepoStore();

  for (const fs::directory_entry &F : fs::directory_iterator(StoreDir))
    EXPECT_NE(F.path().extension(), ".mjo") << F.path();

  Engine E2(O);
  ASSERT_TRUE(E2.addSource("ff", kSource));
  R = E2.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  EXPECT_EQ(E2.repoStoreStats().Loaded, 0u);
  EXPECT_EQ(E2.jitCompiles(), 1u);
}

TEST_F(RepoStoreTest, InteractiveRedefinitionAfterRemovalPersists) {
  fs::path SrcDir = Dir / "src";
  fs::path StoreDir = Dir / "store";
  fs::create_directories(SrcDir);
  { std::ofstream(SrcDir / "ff.m") << kSource; }

  EngineOptions O = syncOpts();
  O.RepoDir = StoreDir.string();
  Engine E(O);
  E.watchDirectory(SrcDir.string());
  ASSERT_EQ(E.snoop(), 1u);
  E.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  ASSERT_EQ(E.repoStoreStats().Saved, 1u);
  fs::remove(SrcDir / "ff.m");
  ASSERT_EQ(E.snoop(), 0u);

  // The removal tombstoned ff. Defining it again at the prompt brings it
  // back like loading a file would, persistence included.
  EXPECT_EQ(E.runScript(kSource), "");
  auto R = E.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  E.flushRepoStore();
  EXPECT_EQ(E.repoStoreStats().Saved, 2u);
  unsigned Entries = 0;
  for (const fs::directory_entry &F : fs::directory_iterator(StoreDir))
    Entries += F.path().extension() == ".mjo";
  EXPECT_EQ(Entries, 1u);
}

//===----------------------------------------------------------------------===//
// Multiple versions and functions round-trip
//===----------------------------------------------------------------------===//

TEST_F(RepoStoreTest, MultipleVersionsAndFunctionsSurviveRestart) {
  std::string Other = "function y = gg(a, b)\ny = a * 2 + b;\n";
  {
    Engine Cold(syncOpts());
    ASSERT_TRUE(Cold.addSource("ff", kSource));
    ASSERT_TRUE(Cold.addSource("gg", Other));
    // Two signatures of ff (scalar and 1x4 vector) and one of gg.
    Cold.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
    Cold.precompileWithArgs("ff", {makeValue(Value::zeros(1, 4))});
    Cold.callFunction("gg", {intArg(3), intArg(4)}, 1, SourceLoc());
    EXPECT_EQ(Cold.repoStoreStats().Saved, 3u);
  }
  ASSERT_EQ(entryFiles().size(), 3u);

  Engine Warm(syncOpts());
  ASSERT_TRUE(Warm.addSource("ff", kSource));
  ASSERT_TRUE(Warm.addSource("gg", Other));
  EXPECT_EQ(Warm.repoStoreStats().Loaded, 3u);
  EXPECT_EQ(Warm.repoStoreStats().Adopted, 3u);
  EXPECT_EQ(Warm.repository().versionCount("ff"), 2u);
  EXPECT_EQ(Warm.repository().versionCount("gg"), 1u);

  auto R1 = Warm.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  auto R2 = Warm.callFunction("gg", {intArg(3), intArg(4)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R1[0]->scalarValue(), kExpect);
  EXPECT_DOUBLE_EQ(R2[0]->scalarValue(), 10.0);
  EXPECT_EQ(Warm.jitCompiles(), 0u);
}

//===----------------------------------------------------------------------===//
// Fused code in the store
//===----------------------------------------------------------------------===//

/// An elementwise chain the compiler fuses into a single EwFuse op.
const char *kFusedSource = "function y = fz(x)\n"
                           "a = ones(100, 1) * x;\n"
                           "b = a + a .* a - 2.5;\n"
                           "y = b(1) + b(100);\n";
const double kFusedExpect = 215.0; // b(k) = 10 + 100 - 2.5 at x = 10

bool holdsEwFuse(const Repository &Repo, const std::string &Name) {
  for (const CompiledObjectPtr &Obj : Repo.versions(Name))
    for (const Instr &In : Obj->Code->Code)
      if (In.Op == Opcode::EwFuse)
        return true;
  return false;
}

TEST_F(RepoStoreTest, FusedCodeWarmStartsBitIdentically) {
  {
    Engine Cold(syncOpts());
    ASSERT_TRUE(Cold.addSource("fz", kFusedSource));
    auto R = Cold.callFunction("fz", {intArg(kArg)}, 1, SourceLoc());
    ASSERT_DOUBLE_EQ(R[0]->scalarValue(), kFusedExpect);
    // The entry on disk holds a fused program, not just fusable source.
    ASSERT_TRUE(holdsEwFuse(Cold.repository(), "fz"));
    ASSERT_EQ(Cold.repoStoreStats().Saved, 1u);
  }

  // The fused program survives the serialize/validate/adopt ladder and is
  // served straight from disk: no compile, and the identical answer.
  Engine Warm(syncOpts());
  ASSERT_TRUE(Warm.addSource("fz", kFusedSource));
  EXPECT_EQ(Warm.repoStoreStats().Loaded, 1u);
  EXPECT_EQ(Warm.repoStoreStats().Adopted, 1u);
  EXPECT_TRUE(holdsEwFuse(Warm.repository(), "fz"));
  auto R = Warm.callFunction("fz", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kFusedExpect);
  EXPECT_EQ(Warm.jitCompiles(), 0u);
  EXPECT_EQ(Warm.interpreterFallbacks(), 0u);
}

TEST_F(RepoStoreTest, OldAbiStampIsDiscardedCleanlyAndRecompiled) {
  {
    Engine Cold(syncOpts());
    ASSERT_TRUE(Cold.addSource("fz", kFusedSource));
    Cold.callFunction("fz", {intArg(kArg)}, 1, SourceLoc());
    ASSERT_EQ(Cold.repoStoreStats().Saved, 1u);
  }

  // Rewrite the entry's build stamp (bytes 8..15, after magic and format
  // version) to simulate a store written by an engine with a different
  // code ABI - an older kCodeABIVersion, say, without the fused opcode.
  auto Files = entryFiles();
  ASSERT_EQ(Files.size(), 1u);
  {
    std::fstream IO(Files[0], std::ios::in | std::ios::out |
                                  std::ios::binary);
    ASSERT_TRUE(IO.good());
    IO.seekp(8);
    IO.put('\x5a');
  }

  // Skewed entries are discarded before decoding - not quarantined as
  // corruption, not adopted - and the call path recompiles from source.
  Engine Warm(syncOpts());
  ASSERT_TRUE(Warm.addSource("fz", kFusedSource));
  RepoStoreStats S = Warm.repoStoreStats();
  EXPECT_EQ(S.Loaded, 0u);
  EXPECT_EQ(S.Skewed, 1u);
  EXPECT_EQ(S.Quarantined, 0u);
  auto R = Warm.callFunction("fz", {intArg(kArg)}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kFusedExpect);
  EXPECT_EQ(Warm.jitCompiles(), 1u);
}

//===----------------------------------------------------------------------===//
// Persistent profiles (profiles.mjp)
//===----------------------------------------------------------------------===//

/// A representative profile summary for the store round-trip tests: two
/// functions, one with signatures and an overflow count, one bare.
std::vector<RepoStore::ProfileSummary> sampleProfiles() {
  RepoStore::ProfileSummary Hot;
  Hot.Name = "gg";
  Hot.Invocations = 41;
  Hot.OtherSignatures = 2;
  RepoStore::ProfileSig S1;
  S1.Sig = TypeSignature::ofValues({makeValue(Value::scalar(2.5))});
  S1.SigStr = S1.Sig.str();
  S1.Count = 30;
  S1.ServedBy = TypeSignature::generic(1);
  RepoStore::ProfileSig S2;
  S2.Sig = TypeSignature::ofValues({intArg(3)});
  S2.SigStr = S2.Sig.str();
  S2.Count = 9;
  Hot.Sigs = {S1, S2};

  RepoStore::ProfileSummary Cold;
  Cold.Name = "ff";
  Cold.Invocations = 1;
  return {Hot, Cold};
}

TEST_F(RepoStoreTest, ProfileSaveLoadRoundTrip) {
  RepoStore S(Dir.string());
  ASSERT_TRUE(S.saveProfiles(sampleProfiles()));
  EXPECT_EQ(S.stats().ProfilesSaved, 1u);
  EXPECT_TRUE(fs::exists(S.profilePath()));

  RepoStore S2(Dir.string());
  std::vector<RepoStore::ProfileSummary> Loaded = S2.loadProfiles();
  EXPECT_EQ(S2.stats().ProfilesLoaded, 2u);
  ASSERT_EQ(Loaded.size(), 2u);
  EXPECT_EQ(Loaded[0].Name, "gg");
  EXPECT_EQ(Loaded[0].Invocations, 41u);
  EXPECT_EQ(Loaded[0].OtherSignatures, 2u);
  ASSERT_EQ(Loaded[0].Sigs.size(), 2u);
  EXPECT_EQ(Loaded[0].Sigs[0].Count, 30u);
  // The signature string is re-rendered from the decoded signature, not
  // stored: equality proves the type payload itself survived.
  EXPECT_EQ(Loaded[0].Sigs[0].SigStr,
            TypeSignature::ofValues({makeValue(Value::scalar(2.5))}).str());
  ASSERT_TRUE(Loaded[0].Sigs[0].ServedBy);
  EXPECT_EQ(Loaded[0].Sigs[0].ServedBy->str(), TypeSignature::generic(1).str());
  EXPECT_FALSE(Loaded[0].Sigs[1].ServedBy);
  EXPECT_EQ(Loaded[1].Name, "ff");
  EXPECT_EQ(Loaded[1].Invocations, 1u);
  EXPECT_TRUE(Loaded[1].Sigs.empty());

  // A missing profile file is not an event at all: no load, no quarantine.
  fs::remove(S2.profilePath());
  RepoStore S3(Dir.string());
  EXPECT_TRUE(S3.loadProfiles().empty());
  EXPECT_EQ(S3.stats().ProfilesQuarantined, 0u);
}

TEST_F(RepoStoreTest, CorruptProfileFileColdStartsCleanly) {
  // A trashed profiles.mjp must behave exactly like a trashed .mjo: it is
  // quarantined out of the namespace, the session cold-starts with empty
  // profiles, and nothing crashes or changes results.
  fs::create_directories(Dir);
  spit(Dir / RepoStore::kProfileFileName, std::string(256, '\x5a'));

  {
    Engine E(syncOpts()); // RepoDir == ProfileDir == Dir by default
    RepoStoreStats St = E.repoStoreStats();
    EXPECT_EQ(St.ProfilesLoaded, 0u);
    EXPECT_EQ(St.ProfilesQuarantined, 1u);
    ASSERT_TRUE(E.addSource("ff", kSource));
    auto R = E.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
    EXPECT_DOUBLE_EQ(R[0]->scalarValue(), kExpect);
  }
  // The corrupt file was renamed away and the session above persisted a
  // fresh, valid profile: the next start loads it cleanly.
  Engine E2(syncOpts());
  RepoStoreStats St = E2.repoStoreStats();
  EXPECT_EQ(St.ProfilesQuarantined, 0u);
  EXPECT_GE(St.ProfilesLoaded, 1u);
}

// The acceptance test for profile-guided speculation end to end: session 1
// builds a profile (gg hot with a real-scalar argument, ff lukewarm) in a
// profile-only directory - no code store, so nothing but the profile can
// carry information across sessions. Session 2 must (a) queue gg before ff
// and (b) speculatively compile gg's *observed* real-scalar signature, not
// the backward hint's integer guess (gg's argument drives a for-range, so
// the hint infers int), proving the first real call hits with zero JIT
// compiles.
TEST_F(RepoStoreTest, PersistedProfilesDriveHotFirstObservedSigSpeculation) {
  fs::path SrcDir = Dir / "src";
  fs::path ProfDir = Dir / "prof";
  fs::create_directories(SrcDir);
  {
    std::ofstream(SrcDir / "gg.m") << "function y = gg(n)\ny = 0;\n"
                                      "for k = 1:n\ny = y + k;\nend\n";
    std::ofstream(SrcDir / "ff.m") << kSource;
  }
  ValuePtr RealArg = makeValue(Value::scalar(2.5));
  const std::string ObservedSig = TypeSignature::ofValues({RealArg}).str();

  {
    EngineOptions O;
    O.Policy = CompilePolicy::Jit;
    O.BackgroundCompileThreads = 0;
    O.ProfileDir = ProfDir.string();
    Engine S1(O);
    S1.watchDirectory(SrcDir.string());
    ASSERT_EQ(S1.snoop(), 2u);
    for (int I = 0; I != 3; ++I)
      S1.callFunction("gg", {RealArg}, 1, SourceLoc());
    S1.callFunction("ff", {intArg(kArg)}, 1, SourceLoc());
  }
  ASSERT_TRUE(fs::exists(ProfDir / RepoStore::kProfileFileName));

  EngineOptions O;
  O.Policy = CompilePolicy::Speculative;
  O.BackgroundCompileThreads = 1;
  O.ProfileDir = ProfDir.string();
  Engine S2(O);
  EXPECT_EQ(S2.repoStoreStats().ProfilesLoaded, 2u);
  S2.pauseBackgroundCompiles();
  S2.watchDirectory(SrcDir.string());
  ASSERT_EQ(S2.snoop(), 2u);
  EXPECT_EQ(S2.queuedSpeculations(),
            (std::vector<std::string>{"gg", "ff"}));
  S2.resumeBackgroundCompiles();
  S2.drainCompiles();

  ASSERT_EQ(S2.repository().versionCount("gg"), 1u);
  CompiledObjectPtr Obj = S2.repository().versions("gg").front();
  EXPECT_EQ(Obj->From, CompiledObject::Origin::Speculative);
  EXPECT_EQ(Obj->Sig.str(), ObservedSig);

  // The call the profile predicted: served by the speculative compile.
  auto R = S2.callFunction("gg", {RealArg}, 1, SourceLoc());
  EXPECT_DOUBLE_EQ(R[0]->scalarValue(), 3.0); // k = 1, 2
  EXPECT_EQ(S2.jitCompiles(), 0u);
  EXPECT_EQ(S2.interpreterFallbacks(), 0u);
}

} // namespace
