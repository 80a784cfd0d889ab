//===- analysis/Disambiguate.cpp - Symbol disambiguation --------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Disambiguate.h"

#include "analysis/Dataflow.h"
#include "ast/ASTVisit.h"
#include "runtime/Builtins.h"

#include <algorithm>

using namespace majic;

int SymbolTable::getOrCreateSlot(const std::string &Name) {
  auto [It, Inserted] = SlotOf.try_emplace(Name, static_cast<int>(Names.size()));
  if (Inserted)
    Names.push_back(Name);
  return It->second;
}

int SymbolTable::lookup(const std::string &Name) const {
  auto It = SlotOf.find(Name);
  return It == SlotOf.end() ? -1 : It->second;
}

namespace {

/// Collects the variable universe: every name that appears as an assignment
/// target, parameter, output, or loop variable. Only these can ever denote
/// variables.
class UniverseCollector {
public:
  UniverseCollector(Function &F, SymbolTable &Symbols) : Symbols(Symbols) {
    for (const std::string &P : F.params())
      Symbols.getOrCreateSlot(P);
    for (const std::string &O : F.outs())
      Symbols.getOrCreateSlot(O);
    visitStmts(F.body(), [this](const Stmt *S) { collect(S); });
  }

private:
  void collect(const Stmt *S) {
    if (const auto *A = dyn_cast<AssignStmt>(S)) {
      for (const LValue &LV : A->targets())
        Symbols.getOrCreateSlot(LV.Name);
      return;
    }
    if (const auto *F = dyn_cast<ForStmt>(S))
      Symbols.getOrCreateSlot(F->loopVar());
  }

  SymbolTable &Symbols;
};

/// Definite-assignment domain: the state is a bit per universe slot
/// ("definitely holds a variable on all paths"). Join is intersection.
class DefiniteDomain {
public:
  using State = std::vector<bool>;

  DefiniteDomain(const Function &F, SymbolTable &Symbols,
                 const std::vector<std::string> *Predefined)
      : F(F), Symbols(Symbols), Predefined(Predefined) {}

  State entryState() {
    State S(Symbols.numSlots(), false);
    for (const std::string &P : F.params())
      S[Symbols.lookup(P)] = true;
    if (Predefined)
      for (const std::string &N : *Predefined)
        if (int Slot = Symbols.lookup(N); Slot >= 0)
          S[Slot] = true;
    return S;
  }

  bool join(State &Into, const State &From) {
    bool Changed = false;
    for (size_t I = 0; I != Into.size(); ++I) {
      if (Into[I] && !From[I]) {
        Into[I] = false;
        Changed = true;
      }
    }
    return Changed;
  }

  void transfer(State &S, const BasicBlock::Element &E) {
    switch (E.K) {
    case BasicBlock::Element::Kind::ForInit:
      return;
    case BasicBlock::Element::Kind::ForStep:
      S[Symbols.lookup(E.For->loopVar())] = true;
      return;
    case BasicBlock::Element::Kind::Stmt:
      break;
    }
    if (const auto *A = dyn_cast<AssignStmt>(E.S)) {
      for (const LValue &LV : A->targets())
        S[Symbols.lookup(LV.Name)] = true;
      return;
    }
    if (const auto *C = dyn_cast<ClearStmt>(E.S)) {
      if (C->names().empty()) {
        std::fill(S.begin(), S.end(), false);
        return;
      }
      for (const std::string &N : C->names())
        if (int Slot = Symbols.lookup(N); Slot >= 0)
          S[Slot] = false;
    }
  }

  void transferTerminator(State &, const BasicBlock &) {}
  void setWidening(bool) {}

private:
  const Function &F;
  SymbolTable &Symbols;
  const std::vector<std::string> *Predefined;
};

/// Replays the converged solution, classifying each symbol occurrence.
class Classifier {
public:
  Classifier(FunctionInfo &Info) : Info(Info) {}

  void classifyExprSymbols(Expr *E, const std::vector<bool> &Definite) {
    visitExpr(E, [this, &Definite](Expr *Node) {
      if (auto *Id = dyn_cast<IdentExpr>(Node))
        classify(Id, Definite);
    });
  }

  void classify(IdentExpr *Id, const std::vector<bool> &Definite) {
    // Classification overwrites any stale state: disambiguation may re-run
    // on a function rebuilt by the inliner. Each occurrence is visited
    // exactly once per replay, so overwriting is safe.
    int Slot = Info.Symbols.lookup(Id->name());
    if (Slot < 0) {
      // Never assigned in this function: a subfunction, builtin, or an
      // external user function.
      if (Info.M->findFunction(Id->name())) {
        Id->setSymKind(SymKind::UserFunction);
        noteCallee(Id->name());
      } else if (BuiltinTable::instance().contains(Id->name())) {
        Id->setSymKind(SymKind::Builtin);
      } else {
        Id->setSymKind(SymKind::UserFunction);
        noteCallee(Id->name());
      }
      return;
    }
    if (Slot < static_cast<int>(Definite.size()) && Definite[Slot]) {
      Id->setSymKind(SymKind::Variable);
      Id->setVarSlot(Slot);
      return;
    }
    // Assigned somewhere but not on all paths here: ambiguous (Figure 2).
    Id->setSymKind(SymKind::Ambiguous);
    Id->setVarSlot(Slot);
    Info.HasAmbiguousSymbols = true;
  }

  void noteCallee(const std::string &Name) {
    if (std::find(Info.Callees.begin(), Info.Callees.end(), Name) ==
        Info.Callees.end())
      Info.Callees.push_back(Name);
  }

private:
  FunctionInfo &Info;
};

/// Domain wrapper that re-runs the definite-assignment transfer while
/// invoking the classifier at each use point.
class RecordingDomain {
public:
  using State = DefiniteDomain::State;

  RecordingDomain(DefiniteDomain &Base, Classifier &C, FunctionInfo &Info)
      : Base(Base), C(C), Info(Info) {}

  State entryState() { return Base.entryState(); }
  bool join(State &Into, const State &From) { return Base.join(Into, From); }
  void setWidening(bool W) { Base.setWidening(W); }

  void transfer(State &S, const BasicBlock::Element &E) {
    // Classify reads against the state *before* the element's definitions.
    switch (E.K) {
    case BasicBlock::Element::Kind::ForInit:
      C.classifyExprSymbols(E.For->iterand(), S);
      break;
    case BasicBlock::Element::Kind::ForStep: {
      int Slot = Info.Symbols.lookup(E.For->loopVar());
      const_cast<ForStmt *>(E.For)->setLoopVarSlot(Slot);
      break;
    }
    case BasicBlock::Element::Kind::Stmt:
      visitStmtExprs(E.S, [this, &S](Expr *Ex) { C.classifyExprSymbols(Ex, S); });
      if (const auto *A = dyn_cast<AssignStmt>(E.S)) {
        for (const LValue &LV : A->targets()) {
          int Slot = Info.Symbols.lookup(LV.Name);
          const_cast<LValue &>(LV).VarSlot = Slot;
        }
      } else if (const auto *Clr = dyn_cast<ClearStmt>(E.S)) {
        std::vector<int> Slots;
        for (const std::string &N : Clr->names())
          Slots.push_back(Info.Symbols.lookup(N));
        const_cast<ClearStmt *>(Clr)->setSlots(std::move(Slots));
      }
      break;
    }
    Base.transfer(S, E);
  }

  void transferTerminator(State &S, const BasicBlock &B) {
    if (B.cond())
      C.classifyExprSymbols(B.cond(), S);
    Base.transferTerminator(S, B);
  }

private:
  DefiniteDomain &Base;
  Classifier &C;
  FunctionInfo &Info;
};

} // namespace

bool FunctionInfo::callsItself() const {
  return std::find(Callees.begin(), Callees.end(), F->name()) != Callees.end();
}

std::unique_ptr<FunctionInfo>
majic::disambiguate(Function &F, Module &M,
                    const std::vector<std::string> *Predefined) {
  auto Info = std::make_unique<FunctionInfo>();
  Info->F = &F;
  Info->M = &M;
  Info->Cfg = buildCFG(F);

  UniverseCollector Collect(F, Info->Symbols);
  (void)Collect;
  if (Predefined)
    for (const std::string &N : *Predefined)
      Info->Symbols.getOrCreateSlot(N);

  DefiniteDomain Domain(F, Info->Symbols, Predefined);
  auto BlockIn = runForwardDataflow(*Info->Cfg, Domain);

  // Definite assignment at the function exit (outputs not definitely
  // assigned must stay boxed in compiled code so "not assigned" is
  // detectable).
  if (auto &ExitIn = BlockIn[Info->Cfg->exit()->id()])
    Info->DefiniteAtExit = *ExitIn;
  else
    Info->DefiniteAtExit.assign(Info->Symbols.numSlots(), false);

  Classifier C(*Info);
  RecordingDomain Recorder(Domain, C, *Info);
  replayDataflow(*Info->Cfg, Recorder, BlockIn);

  // Publish slot bookkeeping on the Function.
  F.setNumSlots(Info->Symbols.numSlots());
  F.paramSlots().clear();
  for (const std::string &P : F.params())
    F.paramSlots().push_back(Info->Symbols.lookup(P));
  F.outSlots().clear();
  for (const std::string &O : F.outs())
    F.outSlots().push_back(Info->Symbols.lookup(O));

  return Info;
}
