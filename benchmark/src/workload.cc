#include "workload.h"

#include <algorithm>
#include <filesystem>
#include <system_error>

namespace bench {

// Room for every span of a 15-second traced phase (--seconds 30) on the
// fastest workload, about 1.5M per client; spans past it are dropped and
// counted in trace.dropped_spans.
constexpr size_t kSpansPerClient = size_t{1} << 21;

Workload::Workload(std::string dir, uint64_t seed)
    : dir_(std::move(dir)), seed_(seed) {
  std::filesystem::create_directories(dir_);
}

Workload::~Workload() {
  db_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

Status Workload::OpenDb(bool wal) {
  pgssi::DatabaseOptions o;
  if (wal) {
    o.engine.wal_enabled = true;
    o.engine.wal_dir = wal_dir();
    o.engine.wal_fsync = pgssi::WalFsyncMode::kBatch;
  }
  Status st;
  db_ = Database::Open(o, &st);
  if (!db_) return st.ok() ? Status::Internal("Database::Open failed") : st;
  return Status::OK();
}

uint64_t Workload::WalBytes() const {
  std::error_code ec;
  const auto n = std::filesystem::file_size(wal_dir() + "/wal.log", ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

EngineSnapshot Workload::Snapshot() const {
  EngineSnapshot s;
  s.ssi = db_->GetSsiStats();
  s.commit_seq = db_->LastCommittedSeq();
  s.epoch_freed = db_->EpochFreedObjectCount();
  s.wal_fsyncs = db_->WalFsyncCount();
  s.wal_bytes = WalBytes();
  return s;
}

PhaseStats Workload::Run(IsolationLevel iso, double seconds, bool traced) {
  PhaseStats p;
  p.iso = iso;
  ResetCounts();
  uint64_t ops0 = 0;
  for (int i = 0; i < kClients; i++) {
    rng_[i] = Rng(SubSeed(seed_, static_cast<uint64_t>(i)));
    if (traced) {
      p.tracers.push_back(std::make_unique<Tracer>(kSpansPerClient));
      client(i).set_tracer(p.tracers.back().get());
    }
    ops0 += client(i).ops();
  }
  p.before = Snapshot();
  const std::vector<ClientStats> clients = RunClosedLoop(
      kClients, seconds, [&](int i, ClientStats& s) { Step(i, iso, s); });
  p.after = Snapshot();
  p.siread_locks_end = db_->SireadTupleLockCount() + db_->SireadPageLockCount();
  p.epoch_retired_end = db_->EpochRetiredObjectCount();
  for (int k = 0; k < 2; k++) {
    p.windows[k].resize(clients[0].windows[k].size());
  }
  for (int i = 0; i < kClients; i++) {
    client(i).set_tracer(nullptr);
    p.ops += client(i).ops();
    const ClientStats& c = clients[i];
    p.total.attempted += c.attempted;
    p.total.committed += c.committed;
    p.total.failed += c.failed;
    p.total.attempts += c.attempts;
    p.total.errors += c.errors;
    if (p.total.first_error.empty()) p.total.first_error = c.first_error;
    for (int k = 0; k < 2; k++) {
      for (size_t w = 0; w < p.windows[k].size(); w++) {
        p.windows[k][w].Merge(c.windows[k][w]);
      }
    }
  }
  p.ops -= ops0;
  CountClasses(&p.read_only_committed, &p.writers_committed);
  return p;
}

namespace {
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}
}  // namespace

double PhaseStats::txn_per_s() const {
  std::vector<double> v;
  for (size_t w = 0; w < windows[0].size(); w++) {
    v.push_back(static_cast<double>(windows[0][w].count() +
                                    windows[1][w].count()) *
                1e9 / static_cast<double>(kWindowNs));
  }
  return Median(std::move(v));
}

double PhaseStats::latency_us(bool read_only, double q) const {
  std::vector<double> v;
  for (const auto& w : windows[read_only ? 1 : 0]) v.push_back(w.QuantileUs(q));
  return Median(std::move(v));
}

Status ReadAll(Database* db, TableId table, const std::string& lo,
               const std::string& hi, Rows* out) {
  out->clear();
  auto txn = db->Begin({.isolation = IsolationLevel::kRepeatableRead,
                        .read_only = true});
  if (!txn) return Status::Internal("Database::Begin failed");
  Status st = txn->Scan(table, lo, hi, out);
  if (!st.ok()) return st;
  return txn->Commit();
}

}  // namespace bench
