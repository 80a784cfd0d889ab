//===- obs/Profile.cpp - Per-function execution profiles -------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace majic;
using namespace majic::obs;

FunctionProfiles::SigCredit
FunctionProfiles::Entry::addSignature(const std::string &SigStr,
                                      uint64_t Count) {
  SigCredit C;
  auto It = Sigs.find(SigStr);
  if (It != Sigs.end()) {
    It->second += Count;
  } else if (Sigs.size() < kMaxSignatures) {
    Sigs.emplace(SigStr, Count);
    C.Added = true;
  } else {
    OtherSignatures += Count;
  }
  C.Full = Sigs.size() >= kMaxSignatures;
  return C;
}

FunctionProfiles::SigCredit
FunctionProfiles::recordInvocation(const std::string &Name,
                                   const std::string &SigStr) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  Entry &E = S.Map[Name];
  ++E.Invocations;
  return E.addSignature(SigStr, 1);
}

void FunctionProfiles::recordOverflowInvocation(const std::string &Name) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  Entry &E = S.Map[Name];
  assert(E.Sigs.size() >= kMaxSignatures && "overflow before the cap");
  ++E.Invocations;
  ++E.OtherSignatures;
}

void FunctionProfiles::recordVmRun(const std::string &Name, double Seconds) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  Entry &E = S.Map[Name];
  ++E.VmRuns;
  E.VmSeconds += Seconds;
}

void FunctionProfiles::recordInterpRun(const std::string &Name,
                                       double Seconds) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  Entry &E = S.Map[Name];
  ++E.InterpRuns;
  E.InterpSeconds += Seconds;
}

void FunctionProfiles::recordNativeRun(const std::string &Name,
                                       double Seconds) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  Entry &E = S.Map[Name];
  ++E.NativeRuns;
  E.NativeSeconds += Seconds;
}

void FunctionProfiles::recordCompile(const std::string &Name,
                                     double Seconds) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  Entry &E = S.Map[Name];
  ++E.Compiles;
  E.CompileSeconds += Seconds;
}

void FunctionProfiles::recordWarmAdoption(const std::string &Name) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  ++S.Map[Name].WarmStartAdoptions;
}

void FunctionProfiles::recordDeopt(const std::string &Name) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  ++S.Map[Name].Deopts;
}

void FunctionProfiles::mergePersisted(const std::string &Name,
                                      uint64_t Invocations,
                                      uint64_t OtherSigs) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  Entry &E = S.Map[Name];
  E.Invocations += Invocations;
  E.OtherSignatures += OtherSigs;
}

FunctionProfiles::SigCredit
FunctionProfiles::mergeSignatureCount(const std::string &Name,
                                      const std::string &SigStr,
                                      uint64_t Count) {
  Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  return S.Map[Name].addSignature(SigStr, Count);
}

FunctionProfile FunctionProfiles::toProfile(const std::string &Name,
                                            const Entry &E) const {
  FunctionProfile P;
  P.Name = Name;
  P.Invocations = E.Invocations;
  P.VmRuns = E.VmRuns;
  P.InterpRuns = E.InterpRuns;
  P.NativeRuns = E.NativeRuns;
  P.VmSeconds = E.VmSeconds;
  P.InterpSeconds = E.InterpSeconds;
  P.NativeSeconds = E.NativeSeconds;
  P.Compiles = E.Compiles;
  P.CompileSeconds = E.CompileSeconds;
  P.WarmStartAdoptions = E.WarmStartAdoptions;
  P.Deopts = E.Deopts;
  P.OtherSignatures = E.OtherSignatures;
  P.ArgSignatures.assign(E.Sigs.begin(), E.Sigs.end());
  std::sort(P.ArgSignatures.begin(), P.ArgSignatures.end(),
            [](const auto &A, const auto &B) {
              return A.second != B.second ? A.second > B.second
                                          : A.first < B.first;
            });
  return P;
}

FunctionProfile FunctionProfiles::profile(const std::string &Name) const {
  const Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  auto It = S.Map.find(Name);
  if (It == S.Map.end()) {
    FunctionProfile P;
    P.Name = Name;
    return P;
  }
  return toProfile(Name, It->second);
}

uint64_t FunctionProfiles::invocations(const std::string &Name) const {
  const Shard &S = shardFor(Name);
  std::lock_guard<std::mutex> L(S.M);
  auto It = S.Map.find(Name);
  return It == S.Map.end() ? 0 : It->second.Invocations;
}

std::vector<FunctionProfile> FunctionProfiles::snapshot() const {
  std::vector<FunctionProfile> Out;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> L(S.M);
    for (const auto &[Name, E] : S.Map)
      Out.push_back(toProfile(Name, E));
  }
  std::sort(Out.begin(), Out.end(),
            [](const FunctionProfile &A, const FunctionProfile &B) {
              return A.Invocations != B.Invocations
                         ? A.Invocations > B.Invocations
                         : A.Name < B.Name;
            });
  return Out;
}

std::string FunctionProfiles::json() const {
  std::string Out = "[";
  bool First = true;
  for (const FunctionProfile &P : snapshot()) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    {\"function\": \"" + jsonEscape(P.Name) +
           "\", \"invocations\": " + std::to_string(P.Invocations) +
           ", \"vm_runs\": " + std::to_string(P.VmRuns) +
           ", \"interp_runs\": " + std::to_string(P.InterpRuns) +
           ", \"native_runs\": " + std::to_string(P.NativeRuns) +
           ", \"vm_seconds\": " + jsonNumber(P.VmSeconds) +
           ", \"interp_seconds\": " + jsonNumber(P.InterpSeconds) +
           ", \"native_seconds\": " + jsonNumber(P.NativeSeconds) +
           ", \"compiles\": " + std::to_string(P.Compiles) +
           ", \"compile_seconds\": " + jsonNumber(P.CompileSeconds) +
           ", \"warm_start_adoptions\": " +
           std::to_string(P.WarmStartAdoptions) +
           ", \"deopts\": " + std::to_string(P.Deopts) +
           ", \"other_signatures\": " + std::to_string(P.OtherSignatures) +
           ", \"signatures\": [";
    bool FirstS = true;
    for (const auto &[Sig, Count] : P.ArgSignatures) {
      if (!FirstS)
        Out += ", ";
      FirstS = false;
      Out += "{\"sig\": \"" + jsonEscape(Sig) +
             "\", \"count\": " + std::to_string(Count) + "}";
    }
    Out += "]}";
  }
  Out += First ? "]" : "\n  ]";
  return Out;
}

std::string FunctionProfiles::renderTable(size_t Limit) const {
  std::vector<FunctionProfile> All = snapshot();
  std::string Out;
  if (All.empty())
    return Out;
  Out += "function profiles (top by invocations):\n"
         "  function             calls  vm-runs  int-runs    vm ms   int ms"
         "  compiles  nat  top signature\n";
  char Line[256];
  for (size_t I = 0; I != All.size() && I != Limit; ++I) {
    const FunctionProfile &P = All[I];
    const char *TopSig =
        P.ArgSignatures.empty() ? "-" : P.ArgSignatures.front().first.c_str();
    std::snprintf(Line, sizeof(Line),
                  "  %-18s %7llu %8llu %9llu %8.2f %8.2f %9llu  %3s  %s\n",
                  P.Name.c_str(),
                  static_cast<unsigned long long>(P.Invocations),
                  static_cast<unsigned long long>(P.VmRuns),
                  static_cast<unsigned long long>(P.InterpRuns),
                  P.VmSeconds * 1e3, P.InterpSeconds * 1e3,
                  static_cast<unsigned long long>(P.Compiles),
                  P.NativeRuns ? "yes" : "-", TopSig);
    Out += Line;
  }
  return Out;
}

size_t FunctionProfiles::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> L(S.M);
    N += S.Map.size();
  }
  return N;
}

void FunctionProfiles::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> L(S.M);
    S.Map.clear();
  }
}
