//===- repo/Repository.cpp - The code repository --------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "repo/Repository.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <mutex>

using namespace majic;

uint64_t CompiledObject::nextId() {
  static std::atomic<uint64_t> Next{1};
  return Next.fetch_add(1, std::memory_order_relaxed);
}

CompiledObjectPtr Repository::lookup(const std::string &Name,
                                     const TypeSignature &Invocation) const {
  std::shared_lock<std::shared_mutex> L(Mutex);
  auto It = Table.find(Name);
  if (It == Table.end()) {
    MissesNoFunction.inc();
    return nullptr;
  }
  const std::shared_ptr<CompiledObject> *Best = nullptr;
  double BestDistance = 0;
  for (const std::shared_ptr<CompiledObject> &Obj : It->second) {
    if (!Invocation.safeFor(Obj->Sig))
      continue;
    double D = Invocation.distance(Obj->Sig);
    if (!Best || D < BestDistance) {
      Best = &Obj;
      BestDistance = D;
    }
  }
  if (!Best) {
    MissesNoSafeVersion.inc();
    return nullptr;
  }
  HitsCount.inc();
  (*Best)->Hits.fetch_add(1, std::memory_order_relaxed);
  return *Best;
}

void Repository::insert(CompiledObject Obj) {
  faults::maybeThrow(faults::Site::RepoInsert);
  auto New = std::make_shared<CompiledObject>(std::move(Obj));
  std::unique_lock<std::shared_mutex> L(Mutex);
  CompileSecondsTotal += New->CompileSeconds;
  std::vector<std::shared_ptr<CompiledObject>> &Versions =
      Table[New->FunctionName];
  for (std::shared_ptr<CompiledObject> &Existing : Versions) {
    if (Existing->Sig == New->Sig) {
      // Recompilation of an existing signature: the object is new but the
      // version's usage history is not; carry the hit count over.
      New->Hits.store(Existing->Hits.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
      Existing = std::move(New);
      return;
    }
  }
  Versions.push_back(std::move(New));
  // Evict least-used versions down to the cap, sparing the entry just
  // pushed: evicting a 0-hit newcomer would immediately re-miss and
  // recompile the same signature, livelocking the compile pipeline.
  while (VersionCap && Versions.size() > VersionCap) {
    size_t Victim = 0;
    uint64_t VictimHits = UINT64_MAX;
    for (size_t I = 0; I + 1 < Versions.size(); ++I) {
      uint64_t H = Versions[I]->Hits.load(std::memory_order_relaxed);
      if (H < VictimHits) {
        Victim = I;
        VictimHits = H;
      }
    }
    Versions.erase(Versions.begin() + Victim);
    EvictionsCount.inc();
  }
}

void Repository::setVersionCap(size_t Cap) {
  std::unique_lock<std::shared_mutex> L(Mutex);
  VersionCap = Cap;
}

void Repository::invalidate(const std::string &Name) {
  std::unique_lock<std::shared_mutex> L(Mutex);
  Table.erase(Name);
}

std::vector<CompiledObjectPtr>
Repository::versions(const std::string &Name) const {
  std::shared_lock<std::shared_mutex> L(Mutex);
  std::vector<CompiledObjectPtr> Out;
  auto It = Table.find(Name);
  if (It == Table.end())
    return Out;
  Out.assign(It->second.begin(), It->second.end());
  return Out;
}

size_t Repository::versionCount(const std::string &Name) const {
  std::shared_lock<std::shared_mutex> L(Mutex);
  auto It = Table.find(Name);
  return It == Table.end() ? 0 : It->second.size();
}

size_t Repository::totalObjects() const {
  std::shared_lock<std::shared_mutex> L(Mutex);
  size_t N = 0;
  for (const auto &[Name, Versions] : Table)
    N += Versions.size();
  return N;
}

double Repository::totalCompileSeconds() const {
  std::unique_lock<std::shared_mutex> L(Mutex);
  return CompileSecondsTotal;
}
