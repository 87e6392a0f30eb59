// sibench-hot: SIBENCH (Cahill's SI benchmark, paper section 8.1) on a
// 100-row table, embedded, no WAL. Half the transactions increment one
// random row; the other half are read-only queries that scan every row.
// Each query SIREAD-locks the whole table and each update meets those
// locks, so the SSI layer and the begin/commit path do most of the work.
#include <cstdio>

#include "workload.h"

namespace bench {
namespace {

constexpr uint64_t kRows = 100;
constexpr uint32_t kUpdatePerMille = 500;

std::string RowKey(uint64_t r) {
  char b[16];
  std::snprintf(b, sizeof(b), "r%03llu", static_cast<unsigned long long>(r));
  return b;
}

class Sibench final : public Workload {
 public:
  using Workload::Workload;

  Status Setup() override {
    Status st = OpenDb(/*wal=*/false);
    if (!st.ok()) return st;
    if (!(st = db_->CreateTable("sibench", &table_)).ok()) return st;
    auto txn = db_->Begin({});
    for (uint64_t r = 0; r < kRows; r++) {
      if (!(st = txn->Insert(table_, RowKey(r), "0")).ok()) return st;
    }
    if (!(st = txn->Commit()).ok()) return st;
    for (int i = 0; i < kClients; i++) {
      clients_[i] = std::make_unique<EmbeddedClient>(db_.get());
    }
    return Status::OK();
  }

  void Check(const PhaseStats& p, Verdict* v) override {
    const std::string phase = p.iso == IsolationLevel::kSerializable
                                  ? "sibench ssi"
                                  : "sibench si";
    SibenchCounts c = Totals();
    SibenchState s;
    Rows rows;
    Status st = ReadAll(db_.get(), table_, RowKey(0), RowKey(kRows), &rows);
    v->Expect(st.ok(), phase + ": final scan failed: " + st.ToString());
    for (const auto& [k, val] : rows) {
      uint64_t x = 0;
      v->Expect(ParseU64(val, &x), phase + ": unparsable row " + k);
      s.values.push_back(x);
    }
    CheckSibench(s, c, kRows, phase, v);
    CheckCommitSeq(p.after.commit_seq - p.before.commit_seq,
                   c.committed_updates, phase, v);
  }

  void AddLayerMetrics(const PhaseStats& p, Values* m) override {
    (void)p;
    const size_t leaves = db_->IndexLeafCount(table_);
    (*m)["index.entries_per_leaf"] =
        leaves ? static_cast<double>(db_->IndexEntryCount(table_)) /
                     static_cast<double>(leaves)
               : 0;
  }

 protected:
  Client& client(int i) override { return *clients_[i]; }
  void ResetCounts() override { counts_ = {}; }

  void Step(int i, IsolationLevel iso, ClientStats& s) override {
    Rng& rng = rng_[i];
    Client& c = client(i);
    SibenchCounts& n = counts_[i].v;
    if (rng.PerMille(kUpdatePerMille)) {
      const std::string key = RowKey(rng.Uniform(kRows));
      if (RunTxn(i, c, s, false, [&] { return Update(c, iso, key); })) {
        n.committed_updates++;
      }
      return;
    }
    size_t seen = 0;
    if (RunTxn(i, c, s, true, [&] { return Query(c, iso, &seen); })) {
      n.committed_queries++;
      if (seen != kRows) n.short_queries++;
    }
  }

  void CountClasses(uint64_t* read_only, uint64_t* writers) override {
    const SibenchCounts c = Totals();
    *read_only = c.committed_queries;
    *writers = c.committed_updates;
  }

 private:
  Status Update(Client& c, IsolationLevel iso, const std::string& key) {
    Status st = c.Begin({.isolation = iso});
    if (!st.ok()) return st;
    std::string v;
    if (!(st = c.Get(table_, key, &v)).ok()) return st;
    uint64_t x = 0;
    if (!ParseU64(v, &x)) return Status::Internal("unparsable row " + key);
    if (!(st = c.Put(table_, key, std::to_string(x + 1))).ok()) return st;
    return c.Commit();
  }

  Status Query(Client& c, IsolationLevel iso, size_t* seen) {
    Status st = c.Begin({.isolation = iso, .read_only = true});
    if (!st.ok()) return st;
    Rows rows;
    if (!(st = c.Scan(table_, RowKey(0), RowKey(kRows), &rows)).ok()) {
      return st;
    }
    for (const auto& [k, v] : rows) {
      uint64_t x = 0;
      if (!ParseU64(v, &x)) return Status::Internal("unparsable row " + k);
    }
    *seen = rows.size();
    return c.Commit();
  }

  SibenchCounts Totals() const {
    SibenchCounts t;
    for (const auto& c : counts_) {
      t.committed_updates += c.v.committed_updates;
      t.committed_queries += c.v.committed_queries;
      t.short_queries += c.v.short_queries;
    }
    return t;
  }

  TableId table_ = pgssi::kInvalidTable;
  std::array<std::unique_ptr<EmbeddedClient>, kClients> clients_;
  std::array<PerClient<SibenchCounts>, kClients> counts_;
};

}  // namespace

std::unique_ptr<Workload> MakeSibench(std::string dir, uint64_t seed) {
  return std::make_unique<Sibench>(std::move(dir), seed);
}

}  // namespace bench
