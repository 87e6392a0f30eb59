// Row-lock table with one acquisition step for every caller.
//
// Used two ways:
//  - SI/SSI writers take per-key exclusive locks, giving PostgreSQL-style
//    first-updater-wins *blocking* (the second writer waits; if the first
//    commits, the waiter then fails its version check with a
//    serialization failure rather than failing instantly).
//  - In S2PL mode, reads additionally take shared locks and scans take a
//    coarse table-gap lock, all held to commit — the strict two-phase
//    locking baseline of the paper's figures.
//
// Acquisition never blocks inside the table: a conflicting request
// registers a waiter and returns kWouldBlock with a WaitToken, and the
// caller either parks the token (sessions) or waits on it (blocking
// transactions) before re-issuing the same request. Deadlocks are
// detected once per registration: the registrant computes its strongly
// connected component of the wait-for graph, which covers every cycle
// it participates in; the victim is the youngest (highest xid) member,
// which returns kSerializationFailure.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/status.h"
#include "util/types.h"
#include "util/wait_token.h"

namespace pgssi {

class LockTable {
 public:
  enum class Mode { kShared, kExclusive };

  /// Non-blocking grant-or-register: grants immediately when possible
  /// (re-entrant; shared->exclusive upgrade is supported — a sole sharer
  /// upgrades in place, otherwise it waits for the other sharers).
  /// Otherwise registers xid as a waiter on the key, sets *token to a
  /// fresh WaitToken (allocated only here, so an uncontended acquire
  /// allocates none), and returns kWouldBlock. The token is signaled
  /// (once) when a holder releases the key — a wake is permission to
  /// retry AcquireAsync, not a grant. Deadlocks are checked at
  /// registration time: if the caller is the cycle victim it fails
  /// immediately; if another waiting xact is the victim, that xact's
  /// token is signaled so it wakes, retries, and discovers its own
  /// victimhood. Callers enforce their own lock-wait deadline by passing
  /// `timed_out`, which converts a would-block into a serialization
  /// failure.
  Status AcquireAsync(XactId xid, TableId table, const std::string& key,
                      Mode mode, bool timed_out, util::WaitTokenPtr* token);

  void ReleaseAll(XactId xid);

  size_t LockedKeyCount() const;

 private:
  struct Entry {
    XactId exclusive = 0;
    std::unordered_set<XactId> sharers;
    // Registered waiters (one op in flight per transaction, so at most
    // one registration per xid engine-wide, tracked in wait_key_).
    std::unordered_map<XactId, util::WaitTokenPtr> waiters;
  };
  using Key = std::pair<TableId, std::string>;

  bool CanGrant(const Entry& e, XactId xid, Mode mode) const;
  // Blockers of `xid` on entry `e` right now.
  void Blockers(const Entry& e, XactId xid, std::vector<XactId>* out) const;
  // Victim xid of the wait-for cycle through `self`, or 0 if `self` is
  // not on any cycle. Every member of a deadlock computes the same
  // victim (max xid of the strongly connected component).
  XactId CycleVictim(XactId self) const;
  // Removes xid's waiter registration (entry waiter slot + index + wait
  // edges). Caller holds mu_.
  void DeregisterWaiterLocked(XactId xid);
  void MaybeEraseLocked(const Key& k);

  mutable std::mutex mu_;
  std::map<Key, Entry> locks_;
  std::unordered_map<XactId, std::vector<Key>> held_;
  std::unordered_map<XactId, std::vector<XactId>> waits_for_;
  // xid -> key it waits on (at most one per xid).
  std::unordered_map<XactId, Key> wait_key_;
};

}  // namespace pgssi
