//===- tests/EnvelopeTest.cpp - The one on-disk container ------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// support/Envelope is the container of every persistent file: `.mjo`
// compiled IR, `.mjn` machine code, `profiles.mjp` and `.mjws` workspace
// snapshots. The seal/open cases pin its header layout and its verdicts;
// the parametrized suite then attacks each kind at store level, starting
// from known-good bytes written by the store's own save API:
//
//  * every single-bit flip is refused and counted once - as skew in the
//    version and stamp fields, as a quarantine everywhere else (everything
//    a store trusts is under the CRC, the source hash included);
//  * every truncation, and garbage or empty files, are quarantined and
//    renamed out of the kind's namespace, so a second load is clean;
//  * a patched version or stamp is skew: the file is removed, never
//    quarantined.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "repo/RepoStore.h"
#include "service/SnapshotStore.h"
#include "support/ByteStream.h"
#include "support/Envelope.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <string>

using namespace majic;
namespace fs = std::filesystem;

namespace {

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

fs::path scratchDir() {
  const ::testing::TestInfo *T =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string Name = std::string(T->test_suite_name()) + "_" + T->name();
  for (char &C : Name)
    if (C == '/')
      C = '_';
  fs::path P = fs::temp_directory_path() / ("majic_envelope_" + Name);
  fs::remove_all(P);
  return P;
}

//===----------------------------------------------------------------------===//
// seal / open
//===----------------------------------------------------------------------===//

constexpr uint32_t kMagic = 0x54534554u; // "TEST"
constexpr uint32_t kVersion = 3;
constexpr uint64_t kStamp = 0x0123456789abcdefull;

TEST(Envelope, SealLaysOutTheHeaderAndOpenReturnsThePayload) {
  std::string Payload("payload\0with a NUL", 18);
  std::string File = envelope::seal(kMagic, kVersion, kStamp, Payload);
  ASSERT_EQ(File.size(), envelope::kHeaderBytes + Payload.size());

  ser::ByteReader R(File);
  EXPECT_EQ(R.u32(), kMagic);   // @0
  EXPECT_EQ(R.u32(), kVersion); // @4
  EXPECT_EQ(R.u64(), kStamp);   // @8
  EXPECT_EQ(R.u64(), Payload.size()); // @16
  R.u32();                            // @24 CRC32
  EXPECT_EQ(File.substr(envelope::kHeaderBytes), Payload);

  envelope::Opened O = envelope::open(File, kMagic, kVersion, kStamp);
  EXPECT_EQ(O.V, envelope::Verdict::Ok);
  EXPECT_EQ(O.Payload, Payload);
  EXPECT_STREQ(O.Reason, "");
}

TEST(Envelope, EmptyPayloadRoundTrips) {
  std::string File = envelope::seal(kMagic, kVersion, kStamp, "");
  EXPECT_EQ(File.size(), envelope::kHeaderBytes);
  envelope::Opened O = envelope::open(File, kMagic, kVersion, kStamp);
  EXPECT_EQ(O.V, envelope::Verdict::Ok);
  EXPECT_TRUE(O.Payload.empty());
}

TEST(Envelope, EachRungHasItsVerdict) {
  std::string File = envelope::seal(kMagic, kVersion, kStamp, "abc");
  auto verdict = [](const std::string &Bytes) {
    return envelope::open(Bytes, kMagic, kVersion, kStamp).V;
  };
  using envelope::Verdict;
  EXPECT_EQ(envelope::open(File, kMagic + 1, kVersion, kStamp).V,
            Verdict::Corrupt);
  EXPECT_EQ(envelope::open(File, kMagic, kVersion + 1, kStamp).V,
            Verdict::Skew);
  EXPECT_EQ(envelope::open(File, kMagic, kVersion, kStamp + 1).V,
            Verdict::Skew);
  EXPECT_EQ(verdict(File + '\0'), Verdict::Corrupt); // size mismatch
  std::string Flipped = File;
  Flipped.back() ^= 0x01;
  EXPECT_EQ(verdict(Flipped), Verdict::Corrupt); // checksum
  // A torn file is truncation, not skew, even when the bytes it kept
  // name another version.
  std::string Torn = envelope::seal(kMagic, kVersion + 1, kStamp, "abc");
  for (size_t Len = 0; Len != envelope::kHeaderBytes; ++Len)
    EXPECT_EQ(verdict(Torn.substr(0, Len)), Verdict::Corrupt) << Len;
}

TEST(Envelope, SettleQuarantinesCorruptAndRemovesSkew) {
  fs::path Dir = scratchDir();
  fs::create_directories(Dir);
  fs::path Ok = Dir / "ok.x", Bad = Dir / "bad.x", Old = Dir / "old.x";
  for (const fs::path &P : {Ok, Bad, Old})
    spit(P, "bytes");
  envelope::settle(Ok.string(), envelope::Verdict::Ok);
  envelope::settle(Bad.string(), envelope::Verdict::Corrupt);
  envelope::settle(Old.string(), envelope::Verdict::Skew);
  EXPECT_TRUE(fs::exists(Ok));
  EXPECT_FALSE(fs::exists(Bad));
  EXPECT_EQ(slurp(Dir / "bad.x.corrupt"), "bytes");
  EXPECT_FALSE(fs::exists(Old));
  EXPECT_FALSE(fs::exists(Dir / "old.x.corrupt"));
  fs::remove_all(Dir);
}

TEST(Envelope, ReadFileRefusesFilesOverTheCap) {
  fs::path Dir = scratchDir();
  fs::create_directories(Dir);
  spit(Dir / "f", std::string(100, 'x'));
  std::string Out;
  EXPECT_TRUE(envelope::readFile((Dir / "f").string(), 100, Out));
  EXPECT_EQ(Out.size(), 100u);
  EXPECT_FALSE(envelope::readFile((Dir / "f").string(), 99, Out));
  EXPECT_FALSE(envelope::readFile((Dir / "missing").string(), 100, Out));
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Every on-disk kind, at store level
//===----------------------------------------------------------------------===//

/// What one load of a store directory did with the kind's files.
struct Outcome {
  uint64_t Loaded = 0; ///< items served (entries, summaries, workspaces)
  uint64_t Quarantined = 0;
  uint64_t Skewed = 0;
};

/// One on-disk kind: how to write known-good bytes into a directory
/// through the store's own save API, and how to load the directory back.
struct KindCase {
  const char *Name;
  /// Saves one file into the directory; returns its path.
  std::function<fs::path(const fs::path &Dir)> Save;
  std::function<Outcome(const fs::path &Dir)> Load;
};

/// Names the kind in failure messages instead of dumping its bytes.
void PrintTo(const KindCase &K, std::ostream *OS) { *OS << K.Name; }

const char *kSource = "function y = ff(x)\n"
                      "y = 0;\n"
                      "for k = 1:x\n"
                      "y = y + k * k;\n"
                      "end\n";

/// The only file in \p Dir with extension \p Ext.
fs::path onlyFile(const fs::path &Dir, const std::string &Ext) {
  fs::path Found;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    if (E.path().extension() == Ext) {
      EXPECT_TRUE(Found.empty()) << "two " << Ext << " files";
      Found = E.path();
    }
  return Found;
}

fs::path saveObj(const fs::path &Dir) {
  // A real compiled object: ff compiled by the JIT on its first call.
  EngineOptions O;
  O.Policy = CompilePolicy::Jit;
  O.BackgroundCompileThreads = 0;
  Engine E(O);
  EXPECT_TRUE(E.addSource("ff", kSource));
  E.callFunction("ff", {makeValue(Value::intScalar(10))}, 1, SourceLoc());
  RepoStore S(Dir.string());
  EXPECT_TRUE(S.save(*E.repository().versions("ff").front(), 12345));
  return onlyFile(Dir, ".mjo");
}

Outcome loadObj(const fs::path &Dir) {
  RepoStore S(Dir.string());
  Outcome Out;
  for (const RepoStore::Entry &E : S.loadAll()) {
    EXPECT_EQ(E.Obj.FunctionName, "ff");
    EXPECT_EQ(E.SourceHash, 12345u);
  }
  RepoStoreStats St = S.stats();
  Out.Loaded = St.Loaded;
  Out.Quarantined = St.Quarantined;
  Out.Skewed = St.Skewed;
  return Out;
}

constexpr uint64_t kNativeExtra = 7;

fs::path saveNative(const fs::path &Dir) {
  RepoStore S(Dir.string());
  S.setNativeStampExtra(kNativeExtra);
  EXPECT_TRUE(S.saveNative(
      "ff", TypeSignature({Type::scalar(IntrinsicType::Int)}), 1,
      std::string("\x7f" "ELF-not-really\0with-nul", 24), 12345));
  return onlyFile(Dir, ".mjn");
}

Outcome loadNative(const fs::path &Dir) {
  RepoStore S(Dir.string());
  S.setNativeStampExtra(kNativeExtra);
  EXPECT_TRUE(S.nativeTrusted());
  for (const RepoStore::NativeEntry &E : S.loadAllNative())
    EXPECT_EQ(E.SourceHash, 12345u);
  RepoStoreStats St = S.stats();
  Outcome Out;
  Out.Loaded = St.NativeLoaded;
  Out.Quarantined = St.NativeQuarantined;
  Out.Skewed = St.NativeSkewed;
  return Out;
}

fs::path saveProfiles(const fs::path &Dir) {
  RepoStore::ProfileSummary Hot;
  Hot.Name = "gg";
  Hot.Invocations = 41;
  Hot.OtherSignatures = 2;
  RepoStore::ProfileSig Sig;
  Sig.Sig = TypeSignature::ofValues({makeValue(Value::scalar(2.5))});
  Sig.SigStr = Sig.Sig.str();
  Sig.Count = 30;
  Hot.Sigs = {Sig};
  RepoStore::ProfileSummary Cold;
  Cold.Name = "ff";
  Cold.Invocations = 1;
  RepoStore S(Dir.string());
  EXPECT_TRUE(S.saveProfiles({Hot, Cold}));
  return S.profilePath();
}

Outcome loadProfiles(const fs::path &Dir) {
  RepoStore S(Dir.string());
  S.loadProfiles();
  RepoStoreStats St = S.stats();
  Outcome Out;
  Out.Loaded = St.ProfilesLoaded;
  Out.Quarantined = St.ProfilesQuarantined;
  Out.Skewed = St.ProfilesSkewed;
  return Out;
}

constexpr uint64_t kSessionId = 1;

fs::path saveWorkspace(const fs::path &Dir) {
  ser::WorkspaceImage Img;
  Img.Sources.push_back({"bump", "function y = bump(x)\ny = x + 1;\n"});
  Img.Vars.push_back({"a", makeValue(Value::scalar(3.5))});
  Img.Vars.push_back({"s", makeValue(Value::str("text"))});
  Img.Vars.push_back({"z", makeValue(Value::complexScalar(1.5, -2.5))});
  SnapshotStore S(Dir.string());
  EXPECT_TRUE(S.save(kSessionId, Img));
  return S.pathFor(kSessionId);
}

Outcome loadWorkspace(const fs::path &Dir) {
  SnapshotStore S(Dir.string());
  ser::WorkspaceImage Img;
  S.load(kSessionId, Img);
  SnapshotStore::StatsSnapshot St = S.stats();
  Outcome Out;
  Out.Loaded = St.Loaded;
  Out.Quarantined = St.Quarantined;
  Out.Skewed = St.Skewed;
  return Out;
}

class EnvelopeKindTest : public ::testing::TestWithParam<KindCase> {
protected:
  void SetUp() override {
    Dir = scratchDir();
    fs::create_directories(Dir);
    File = GetParam().Save(Dir);
    ASSERT_FALSE(File.empty());
    Good = slurp(File);
    ASSERT_GT(Good.size(), envelope::kHeaderBytes);
    // The snapshot store explains every refusal on stderr; thousands of
    // them would drown the test log.
    ::testing::internal::CaptureStderr();
  }
  void TearDown() override {
    ::testing::internal::GetCapturedStderr();
    fs::remove_all(Dir);
  }

  /// Writes \p Bytes under the kind's file name, clearing what the last
  /// load left, and loads the directory once.
  Outcome loadBytes(const std::string &Bytes) {
    fs::remove(File.string() + ".corrupt");
    spit(File, Bytes);
    return GetParam().Load(Dir);
  }

  bool anyCorrupt() {
    for (const fs::directory_entry &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".corrupt")
        return true;
    return false;
  }

  /// \p Bytes must be quarantined: renamed out of the namespace, so a
  /// second load of the directory finds nothing at all.
  void expectQuarantined(const std::string &Bytes, const std::string &What) {
    Outcome O = loadBytes(Bytes);
    EXPECT_EQ(O.Loaded, 0u) << What;
    EXPECT_EQ(O.Quarantined, 1u) << What;
    EXPECT_EQ(O.Skewed, 0u) << What;
    EXPECT_FALSE(fs::exists(File)) << What;
    EXPECT_TRUE(fs::exists(File.string() + ".corrupt")) << What;
    Outcome Again = GetParam().Load(Dir);
    EXPECT_EQ(Again.Loaded + Again.Quarantined + Again.Skewed, 0u) << What;
  }

  /// \p Bytes must be discarded as skew: removed, never quarantined.
  void expectSkewed(const std::string &Bytes, const std::string &What) {
    Outcome O = loadBytes(Bytes);
    EXPECT_EQ(O.Loaded, 0u) << What;
    EXPECT_EQ(O.Quarantined, 0u) << What;
    EXPECT_EQ(O.Skewed, 1u) << What;
    EXPECT_FALSE(fs::exists(File)) << What;
    EXPECT_FALSE(anyCorrupt()) << What;
  }

  fs::path Dir;
  fs::path File;
  std::string Good;
};

TEST_P(EnvelopeKindTest, KnownGoodBytesLoad) {
  Outcome O = loadBytes(Good);
  EXPECT_GE(O.Loaded, 1u);
  EXPECT_EQ(O.Quarantined, 0u);
  EXPECT_EQ(O.Skewed, 0u);
}

TEST_P(EnvelopeKindTest, EverySingleBitFlipIsRefused) {
  for (size_t I = 0; I != Good.size(); ++I) {
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::string Bad = Good;
      Bad[I] = static_cast<char>(Bad[I] ^ (1u << Bit));
      Outcome O = loadBytes(Bad);
      std::string What =
          "bit " + std::to_string(Bit) + " of byte " + std::to_string(I);
      ASSERT_EQ(O.Loaded, 0u) << What;
      // Bytes 4..15 are the version and the stamp: a flip there reads as
      // another world's file. Everything else is damage.
      bool Skew = I >= 4 && I < 16;
      ASSERT_EQ(O.Skewed, Skew ? 1u : 0u) << What;
      ASSERT_EQ(O.Quarantined, Skew ? 0u : 1u) << What;
      ASSERT_FALSE(fs::exists(File)) << What;
      ASSERT_EQ(fs::exists(File.string() + ".corrupt"), !Skew) << What;
    }
  }
}

TEST_P(EnvelopeKindTest, EveryTruncationIsQuarantined) {
  for (size_t Len = 0; Len != Good.size(); ++Len)
    expectQuarantined(Good.substr(0, Len), "length " + std::to_string(Len));
  expectQuarantined(Good + '\0', "one trailing byte");
}

TEST_P(EnvelopeKindTest, GarbageAndEmptyFilesAreQuarantined) {
  expectQuarantined("", "empty file");
  expectQuarantined(std::string(512, '\x5a'), "512 x 0x5a");
  std::mt19937 Rng(0x4d4a5753u); // deterministic: same sweep every run
  for (int Round = 0; Round != 256; ++Round) {
    std::string Junk(Rng() % 512, '\0');
    for (char &C : Junk)
      C = static_cast<char>(Rng() & 0xff);
    expectQuarantined(Junk, "garbage round " + std::to_string(Round));
  }
}

TEST_P(EnvelopeKindTest, PatchedVersionOrStampIsSkew) {
  std::string Version = Good;
  Version[4] = static_cast<char>(Version[4] + 1);
  expectSkewed(Version, "version");
  std::string Stamp = Good;
  Stamp[8] = static_cast<char>(Stamp[8] ^ 0x5a);
  expectSkewed(Stamp, "stamp");
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EnvelopeKindTest,
    ::testing::Values(KindCase{"mjo", saveObj, loadObj},
                      KindCase{"mjn", saveNative, loadNative},
                      KindCase{"mjp", saveProfiles, loadProfiles},
                      KindCase{"mjws", saveWorkspace, loadWorkspace}),
    [](const ::testing::TestParamInfo<KindCase> &I) {
      return std::string(I.param.Name);
    });

/// A real stamp change, not a patched byte: native entries written under
/// another compiler or native ABI (a different stamp extra) are skew.
TEST(EnvelopeNative, ForeignStampExtraIsSkew) {
  fs::path Dir = scratchDir();
  fs::create_directories(Dir);
  fs::path File = saveNative(Dir);
  RepoStore S(Dir.string());
  S.setNativeStampExtra(kNativeExtra + 1);
  EXPECT_TRUE(S.loadAllNative().empty());
  EXPECT_EQ(S.stats().NativeSkewed, 1u);
  EXPECT_EQ(S.stats().NativeQuarantined, 0u);
  EXPECT_FALSE(fs::exists(File));
  EXPECT_FALSE(fs::exists(File.string() + ".corrupt"));
  fs::remove_all(Dir);
}

} // namespace
