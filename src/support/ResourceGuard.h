//===- support/ResourceGuard.h - Memory and interrupt guards ---*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource guards for the execution pipeline:
///
///  - mem::  process-wide live-allocation accounting for Value storage and
///    kernel packing buffers. A byte limit turns a runaway allocation into
///    std::bad_alloc at the allocation site, which the runtime maps to a
///    recoverable MatlabError instead of an OS-level OOM kill. The
///    TrackingAllocator plugs the accounting into std::vector with no
///    change to container semantics.
///
///  - exec:: the cooperative interrupt flag (Ctrl-C semantics). Long-running
///    work polls it at cheap boundaries - the VM dispatch loop, interpreter
///    statements, parallelFor chunks - and unwinds with a clean MatlabError,
///    leaving engine state intact.
///
/// Both have a process-wide half (the accounting must be visible from
/// compute and compilation workers; a Ctrl-C targets whatever the process
/// is doing) and a *per-session* half for the multi-session service: a
/// mem::Account scopes a byte budget to one session's work, an exec::Token
/// scopes an interrupt to one session. Both are installed thread-locally
/// around a session's request (and propagated into parallelFor chunks by
/// support/Parallel.cpp) so N sessions in one process cannot exhaust - or
/// interrupt - each other.
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_SUPPORT_RESOURCEGUARD_H
#define MAJIC_SUPPORT_RESOURCEGUARD_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace majic {
namespace mem {

/// Sets the live-byte ceiling; 0 disables the limit. Allocations that would
/// push liveBytes() past the ceiling fail with std::bad_alloc.
void setLimitBytes(uint64_t Bytes);
uint64_t limitBytes();

/// Bytes currently live in tracked containers, and the lifetime high-water
/// mark.
uint64_t liveBytes();
uint64_t peakBytes();

/// Per-session live-byte account. When one is installed on the current
/// thread (ScopedAccount), charge()/release() also debit/credit it and its
/// limit is enforced in addition to the process-wide ceiling, so one
/// session of a multi-session service cannot exhaust the budget of the
/// other N-1 by ganging up on the shared pools. Balances are exact while
/// allocation and release happen under the same session's scope (the
/// overwhelmingly common case); cross-scope frees (e.g. shared compiled
/// constants outliving the session that compiled them) cause bounded
/// drift, clamped at zero - the account is an admission-control budget,
/// not an audit.
class Account {
public:
  void setLimit(uint64_t Bytes) {
    LimitV.store(Bytes, std::memory_order_relaxed);
  }
  uint64_t limit() const { return LimitV.load(std::memory_order_relaxed); }
  uint64_t live() const {
    int64_t L = LiveV.load(std::memory_order_relaxed);
    return L > 0 ? uint64_t(L) : 0;
  }
  uint64_t peak() const { return PeakV.load(std::memory_order_relaxed); }

  /// Debits \p Bytes; returns false (after rolling the debit back) when
  /// the account's limit would be exceeded.
  bool tryCharge(size_t Bytes);
  void release(size_t Bytes) {
    LiveV.fetch_sub(int64_t(Bytes), std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> LimitV{0}; ///< 0 = unlimited
  std::atomic<int64_t> LiveV{0};   ///< signed: tolerates cross-scope frees
  std::atomic<uint64_t> PeakV{0};
};

/// The account installed on the calling thread, or null.
Account *currentAccount();

/// Installs \p A (null to clear) and returns the previous installation.
Account *setCurrentAccount(Account *A);

/// RAII installation of a per-session account for the current scope.
struct ScopedAccount {
  explicit ScopedAccount(Account *A) : Prev(setCurrentAccount(A)) {}
  ~ScopedAccount() { setCurrentAccount(Prev); }
  ScopedAccount(const ScopedAccount &) = delete;
  ScopedAccount &operator=(const ScopedAccount &) = delete;

private:
  Account *Prev;
};

/// Accounts \p Bytes of allocation; throws std::bad_alloc when the
/// process-wide limit - or the current thread's session account limit -
/// would be exceeded (the charge is rolled back first).
void charge(size_t Bytes);
void release(size_t Bytes);

/// std::allocator with live-byte accounting and limit enforcement. Unlike
/// std::allocator it default-initializes: resize(N) leaves new doubles
/// unwritten, so a value that overwrites every element pays no zero-fill
/// pass (resize(N, 0.0) and assign(N, 0.0) still write zeros).
template <typename T> struct TrackingAllocator {
  using value_type = T;

  TrackingAllocator() = default;
  template <typename U>
  TrackingAllocator(const TrackingAllocator<U> &) noexcept {}

  T *allocate(size_t N) {
    charge(N * sizeof(T));
    try {
      return static_cast<T *>(::operator new(N * sizeof(T)));
    } catch (...) {
      release(N * sizeof(T));
      throw;
    }
  }
  void deallocate(T *P, size_t N) noexcept {
    release(N * sizeof(T));
    ::operator delete(P);
  }

  template <typename U> void construct(U *P) {
    ::new (static_cast<void *>(P)) U;
  }
  template <typename U, typename... Args>
  void construct(U *P, Args &&...A) {
    ::new (static_cast<void *>(P)) U(std::forward<Args>(A)...);
  }

  template <typename U>
  bool operator==(const TrackingAllocator<U> &) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const TrackingAllocator<U> &) const noexcept {
    return false;
  }
};

} // namespace mem

namespace exec {

/// Requests cooperative cancellation of in-flight execution. Sticky until
/// cleared: new invocations fail fast while the flag is up.
void requestInterrupt();
void clearInterrupt();
bool interruptRequested();

/// Per-session interrupt token. The process-wide flag above answers
/// Ctrl-C; a token answers "stop *that* session" without perturbing the
/// other sessions sharing the process. Polling points see the token
/// installed on their thread (ScopedToken; parallelFor propagates the
/// caller's token into its chunks).
class Token {
public:
  void request() { Flag.store(true, std::memory_order_relaxed); }
  void clear() { Flag.store(false, std::memory_order_relaxed); }
  bool requested() const { return Flag.load(std::memory_order_relaxed); }

private:
  std::atomic<bool> Flag{false};
};

/// The token installed on the calling thread, or null.
Token *currentToken();

/// Installs \p T (null to clear) and returns the previous installation.
Token *setCurrentToken(Token *T);

/// RAII installation of a per-session interrupt token.
struct ScopedToken {
  explicit ScopedToken(Token *T) : Prev(setCurrentToken(T)) {}
  ~ScopedToken() { setCurrentToken(Prev); }
  ScopedToken(const ScopedToken &) = delete;
  ScopedToken &operator=(const ScopedToken &) = delete;

private:
  Token *Prev;
};

/// Throws MatlabError("execution interrupted") when the process-wide flag
/// or the current thread's session token is set; the polling points in the
/// VM, interpreter and parallelFor call this.
void pollInterrupt();

} // namespace exec
} // namespace majic

#endif // MAJIC_SUPPORT_RESOURCEGUARD_H
