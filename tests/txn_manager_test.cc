// TxnManager unit tests: atomic xid/commit-seq allocation, watermark
// publication through the completion ring, and the invariant the
// safe-snapshot / DEFERRABLE machinery relies on — a transaction absent
// from the active registry is already published, i.e. Commit blocks
// until its own seq is covered by the watermark.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "txn/txn_manager.h"

namespace pgssi::txn {
namespace {

TEST(TxnManagerTest, BeginAssignsMonotonicXidsAndTracksRw) {
  TxnManager m;
  auto a = m.Begin(/*serializable_rw=*/false);
  auto b = m.Begin(/*serializable_rw=*/true);
  EXPECT_LT(a.xid, b.xid);
  EXPECT_EQ(a.snapshot_seq, 0u);
  EXPECT_TRUE(m.AnyActiveSerializableRW());
  m.Abort(a.xid);
  m.Abort(b.xid);
  EXPECT_FALSE(m.AnyActiveSerializableRW());
}

TEST(TxnManagerTest, CommitPublishesBeforeReturning) {
  TxnManager m;
  auto a = m.Begin(true);
  uint64_t stamped = 0;
  uint64_t seq = m.Commit(a.xid, [&](uint64_t s) {
    stamped = s;
    return true;
  });
  EXPECT_EQ(stamped, seq);
  EXPECT_EQ(m.LastCommittedSeq(), seq);
  auto b = m.Begin(false);  // a later snapshot sees the published seq
  EXPECT_EQ(b.snapshot_seq, seq);
  m.Abort(b.xid);
}

// Regression (PR 4 review): a committer whose predecessor is still
// stamping must NOT deregister and return before its own seq is
// published. Otherwise a read-only SERIALIZABLE Begin could take an
// older snapshot, observe no active read-write transaction, and wrongly
// claim a safe snapshot while this committed-but-unpublished
// transaction is concurrent with it.
TEST(TxnManagerTest, CommitBlocksUntilOwnSeqIsPublished) {
  TxnManager m;
  auto p = m.Begin(/*serializable_rw=*/false);  // predecessor, stalls
  auto w = m.Begin(/*serializable_rw=*/true);
  std::atomic<bool> release{false};
  std::atomic<bool> w_done{false};
  std::atomic<bool> p_in_stamp{false};

  std::thread pt([&] {
    m.Commit(p.xid, [&](uint64_t) {
      p_in_stamp.store(true);
      while (!release.load()) std::this_thread::yield();
      return true;
    });
  });
  while (!p_in_stamp.load()) std::this_thread::yield();

  std::thread wt([&] {
    m.Commit(w.xid, nullptr);  // seq follows p's unpublished one
    w_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // w cannot have finished: its seq is after the gap p holds open. In
  // particular it must still be counted as an active read-write txn.
  EXPECT_FALSE(w_done.load());
  EXPECT_TRUE(m.AnyActiveSerializableRW());

  release.store(true);
  pt.join();
  wt.join();
  EXPECT_TRUE(w_done.load());
  EXPECT_EQ(m.LastCommittedSeq(), 2u);  // the gap-closer published both
  EXPECT_FALSE(m.AnyActiveSerializableRW());
}

// Regression: adjacent commits racing through the completion ring must
// never both leave publication to the other. The committer of seq n
// stores its ring slot and then loads the watermark, while the
// publisher of n-1 advances the watermark and then loads slot n; if
// both loads return stale values, n is never published and its
// committer waits in Commit until some unrelated later commit sweeps
// it. Two threads commit in lock step; a watchdog that sees no progress
// issues one extra commit (whose publication sweep releases the
// stranded waiter, so the test never hangs) and records the failure.
TEST(TxnManagerTest, ConcurrentCommitsNeverStrandAWaiter) {
  TxnManager m;
  constexpr int kThreads = 2;
  constexpr uint64_t kIterations = 20000;
  std::atomic<int> arrived{0};
  std::atomic<uint64_t> generation{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> progress{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; i++) {
    threads.emplace_back([&] {
      for (uint64_t it = 0; it < kIterations; it++) {
        // Spinning barrier: both commits start within nanoseconds.
        const uint64_t gen = generation.load();
        if (arrived.fetch_add(1) + 1 == kThreads) {
          arrived.store(0);
          generation.fetch_add(1);
        } else {
          while (generation.load() == gen) {
            if (stop.load()) return;
            std::this_thread::yield();
          }
        }
        auto r = m.Begin(/*serializable_rw=*/false);
        m.Commit(r.xid, nullptr);
        progress.fetch_add(1);
      }
    });
  }
  bool stranded = false;
  uint64_t stuck_watermark = 0;
  uint64_t last = 0;
  auto last_change = std::chrono::steady_clock::now();
  while (progress.load() < kThreads * kIterations) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const uint64_t p = progress.load();
    const auto now = std::chrono::steady_clock::now();
    if (p != last) {
      last = p;
      last_change = now;
    } else if (now - last_change > std::chrono::seconds(2)) {
      stranded = true;
      stuck_watermark = m.LastCommittedSeq();
      stop.store(true);
      auto extra = m.Begin(/*serializable_rw=*/false);
      m.Commit(extra.xid, nullptr);
      break;
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(stranded) << "a commit waited for publication with no "
                            "further commits; stuck at watermark "
                         << stuck_watermark;
}

// Regression (PR 6, WAL failure ordering): a stamp that FAILS (WAL
// append/fsync error) must return 0, publish its consumed seq as a
// no-op — the watermark moves past it instead of sticking forever —
// and leave the manager fully usable for the next commit.
TEST(TxnManagerTest, FailedStampPublishesSeqAndReturnsZero) {
  TxnManager m;
  auto a = m.Begin(true);
  EXPECT_EQ(m.Commit(a.xid, [](uint64_t) { return false; }), 0u);
  // The seq was consumed-but-unused; the watermark covers it.
  EXPECT_EQ(m.LastCommittedSeq(), 1u);
  EXPECT_FALSE(m.AnyActiveSerializableRW());  // deregistered all the same

  // A successor blocked behind the failed seq is released normally.
  auto b = m.Begin(false);
  uint64_t stamped = 0;
  uint64_t seq = m.Commit(b.xid, [&](uint64_t s) {
    stamped = s;
    return true;
  });
  EXPECT_EQ(seq, 2u);
  EXPECT_EQ(stamped, 2u);
  EXPECT_EQ(m.LastCommittedSeq(), 2u);
}

TEST(TxnManagerTest, OldestActiveSnapshotAndWaitForFinish) {
  TxnManager m;
  auto a = m.Begin(true);
  m.Commit(a.xid, nullptr);  // seq 1
  auto b = m.Begin(true);    // snapshot 1
  auto c = m.Begin(false);
  EXPECT_EQ(m.OldestActiveSnapshot(), 1u);
  auto rw = m.ActiveSerializableRW();
  ASSERT_EQ(rw.size(), 1u);
  EXPECT_EQ(rw[0], b.xid);

  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    m.Commit(b.xid, nullptr);
  });
  m.WaitForFinish({b.xid});  // returns only once b is gone
  t.join();
  m.Abort(c.xid);
  EXPECT_EQ(m.OldestActiveSnapshot(), std::numeric_limits<uint64_t>::max());
}

// Regression for the O(1) cached-minimum OldestActiveSnapshot: the
// cleanup bound must never pass a concurrent Begin. Every active
// transaction checks, from its own thread, that no bound computed while
// it is registered exceeds its snapshot — i.e. the lock-free shard
// minimum can be conservative but never misses a live registration.
TEST(TxnManagerTest, CleanupBoundNeverPassesConcurrentBegin) {
  TxnManager m;
  {
    auto seed = m.Begin(false);
    m.Commit(seed.xid, nullptr);  // nonzero watermark
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; i++) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto r = m.Begin(false);
        // While we are active, OldestActiveSnapshot <= our snapshot, so
        // any cleanup bound computed NOW must not exceed it.
        for (int j = 0; j < 4; j++) {
          if (m.CleanupBound() > r.snapshot_seq) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
        m.Commit(r.xid, nullptr);
      }
    });
  }
  // A dedicated cleaner hammering the bound while Begins race it.
  std::thread cleaner([&] {
    while (!stop.load(std::memory_order_acquire)) (void)m.CleanupBound();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  cleaner.join();
  EXPECT_EQ(violations.load(), 0u);
}

}  // namespace
}  // namespace pgssi::txn
