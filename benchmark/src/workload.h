// A workload instance: one fresh database (and, for rubis-wire, one
// in-process server) that runs closed-loop phases and checks its own
// final state.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"

namespace bench {

// Engine counters read around a phase through the public Database API.
struct EngineSnapshot {
  pgssi::SsiStats ssi;
  uint64_t commit_seq = 0;
  uint64_t epoch_freed = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_bytes = 0;
};

struct PhaseStats {
  IsolationLevel iso = IsolationLevel::kSerializable;
  ClientStats total;  // all clients' counts (windows kept below)
  uint64_t ops = 0;   // client calls made during the phase
  uint64_t read_only_committed = 0;
  uint64_t writers_committed = 0;
  EngineSnapshot before, after;
  uint64_t siread_locks_end = 0;
  uint64_t epoch_retired_end = 0;
  std::vector<std::unique_ptr<Tracer>> tracers;  // empty when untraced
  // All clients' commits per window, by class ([0] writing,
  // [1] read-only).
  std::array<std::vector<LatencyHist>, 2> windows;

  /// Median over the phase's windows of committed transactions per
  /// second.
  double txn_per_s() const;
  /// Median over the phase's windows of the window's latency quantile
  /// for writing (read_only = false) or read-only transactions.
  double latency_us(bool read_only, double q) const;
};

class Workload {
 public:
  /// `dir` is this instance's private state directory (WAL lives under
  /// it); it is removed when the instance is destroyed.
  Workload(std::string dir, uint64_t seed);
  virtual ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Opens the database, loads the initial data and, over the wire,
  /// starts the server and connects the clients.
  virtual Status Setup() = 0;

  /// One measured closed-loop phase at isolation `iso`. The clients'
  /// input streams depend only on the seed, so an SI phase on a fresh
  /// instance replays the SSI phase's inputs.
  PhaseStats Run(IsolationLevel iso, double seconds, bool traced);

  /// Reads the final state back and checks it against the clients'
  /// counts. Called once, after the last Run.
  virtual void Check(const PhaseStats& p, Verdict* v) = 0;

  /// Workload-specific per-layer metrics (index, wal, net).
  virtual void AddLayerMetrics(const PhaseStats& p, Values* m) {
    (void)p;
    (void)m;
  }

  /// Ping burst before a traced phase; only the wire workload has one.
  virtual void MeasurePing(LatencyHist* h) { (void)h; }

 protected:
  virtual Client& client(int i) = 0;
  virtual void ResetCounts() = 0;
  /// One transaction of the mix for client `i`.
  virtual void Step(int i, IsolationLevel iso, ClientStats& s) = 0;
  /// Committed read-only and writing transactions, from the clients'
  /// counts.
  virtual void CountClasses(uint64_t* read_only, uint64_t* writers) = 0;

  Status OpenDb(bool wal);
  EngineSnapshot Snapshot() const;
  std::string wal_dir() const { return dir_ + "/wal"; }
  uint64_t WalBytes() const;

  const std::string dir_;
  const uint64_t seed_;
  std::unique_ptr<Database> db_;
  std::array<Rng, kClients> rng_{};
};

std::unique_ptr<Workload> MakeSibench(std::string dir, uint64_t seed);
std::unique_ptr<Workload> MakeDbt2(std::string dir, uint64_t seed);
std::unique_ptr<Workload> MakeRubis(std::string dir, uint64_t seed);

/// Reads every row of `table` in [lo, hi] with a REPEATABLE READ scan.
Status ReadAll(Database* db, TableId table, const std::string& lo,
               const std::string& hi, Rows* out);

}  // namespace bench
