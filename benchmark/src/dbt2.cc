// dbt2-durable: DBT-2++ (paper section 8.2) with the two transaction
// classes the paper's Figure 5 runs, new-order and stock-level, half of
// them read-only. 16 warehouses x 10 districts; the WAL is on with the
// default group commit. After the run the database is closed and
// reopened, so the WAL's append, group fsync and replay do much of the
// work, beside first-updater row locks on the district counters.
#include <cstdio>

#include "workload.h"

namespace bench {
namespace {

constexpr uint32_t kWarehouses = 16;
constexpr uint32_t kDistricts = 10;  // per warehouse
// Large enough that loading it and replaying its log take long enough
// to time from run to run (16 x 1,000 rows loads in about 40 ms).
constexpr uint32_t kStockPerWarehouse = 20000;
constexpr uint32_t kReadOnlyPerMille = 500;
constexpr int kOrderLines = 5;

std::string WarehouseKey(uint32_t w) {
  char b[16];
  std::snprintf(b, sizeof(b), "w%02u", w);
  return b;
}
std::string DistrictKey(uint32_t w, uint32_t d) {
  char b[16];
  std::snprintf(b, sizeof(b), "d%02u.%02u", w, d);
  return b;
}
std::string StockKey(uint32_t w, uint32_t i) {
  char b[24];
  std::snprintf(b, sizeof(b), "s%02u.%06u", w, i);
  return b;
}
std::string OrderKey(uint32_t w, uint32_t d, uint64_t o) {
  char b[32];
  std::snprintf(b, sizeof(b), "o%02u.%02u.%09llu", w, d,
                static_cast<unsigned long long>(o));
  return b;
}

struct NewOrder {
  uint32_t w = 0, d = 0;
  std::array<uint32_t, kOrderLines> items{};
};

class Dbt2 final : public Workload {
 public:
  using Workload::Workload;

  Status Setup() override {
    Status st = OpenDb(/*wal=*/true);
    if (!st.ok()) return st;
    if (!(st = db_->CreateTable("warehouse", &warehouse_)).ok()) return st;
    if (!(st = db_->CreateTable("district", &district_)).ok()) return st;
    if (!(st = db_->CreateTable("stock", &stock_)).ok()) return st;
    if (!(st = db_->CreateTable("orders", &orders_)).ok()) return st;
    // One transaction per warehouse: 16 commits, so the load's fsyncs
    // stay few and its time is mostly the engine's.
    for (uint32_t w = 0; w < kWarehouses; w++) {
      auto txn = db_->Begin({});
      if (!(st = txn->Insert(warehouse_, WarehouseKey(w), "ytd=0")).ok()) {
        return st;
      }
      for (uint32_t d = 0; d < kDistricts; d++) {
        if (!(st = txn->Insert(district_, DistrictKey(w, d), "1")).ok()) {
          return st;
        }
      }
      for (uint32_t i = 0; i < kStockPerWarehouse; i++) {
        if (!(st = txn->Insert(stock_, StockKey(w, i), "100")).ok()) return st;
      }
      if (!(st = txn->Commit()).ok()) return st;
    }
    MakeClients();
    return Status::OK();
  }

  void Check(const PhaseStats& p, Verdict* v) override {
    const bool ssi = p.iso == IsolationLevel::kSerializable;
    const std::string phase = ssi ? "dbt2 ssi" : "dbt2 si";
    const Dbt2Counts c = Totals();
    Dbt2State before;
    ReadState(&before, phase, v);
    CheckDbt2(before, c, phase, v);
    CheckCommitSeq(p.after.commit_seq - p.before.commit_seq,
                   c.committed_new_orders, phase, v);
    const size_t leaves = db_->IndexLeafCount(orders_);
    orders_per_leaf_ = leaves ? static_cast<double>(
                                    db_->IndexEntryCount(orders_)) /
                                    static_cast<double>(leaves)
                              : 0;
    if (!ssi) return;
    // Restart: close, reopen with WAL replay, and compare.
    for (auto& cl : clients_) cl.reset();
    log_bytes_ = WalBytes();
    db_.reset();
    const uint64_t t0 = NowNs();
    Status st = OpenDb(/*wal=*/true);
    recovery_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    v->Expect(st.ok(), "restart: reopen failed: " + st.ToString());
    if (!st.ok()) return;
    warehouse_ = db_->GetTableId("warehouse");
    district_ = db_->GetTableId("district");
    stock_ = db_->GetTableId("stock");
    orders_ = db_->GetTableId("orders");
    Dbt2State after;
    ReadState(&after, "restart", v);
    CheckDbt2Restart(before, after, v);
    CheckDbt2(after, c, "dbt2 after restart", v);
  }

  void AddLayerMetrics(const PhaseStats& p, Values* m) override {
    const double writers =
        static_cast<double>(std::max<uint64_t>(1, p.writers_committed));
    Values& v = *m;
    v["index.entries_per_leaf"] = orders_per_leaf_;
    v["wal.fsyncs_per_commit"] =
        static_cast<double>(p.after.wal_fsyncs - p.before.wal_fsyncs) /
        writers;
    v["wal.bytes_per_commit"] =
        static_cast<double>(p.after.wal_bytes - p.before.wal_bytes) / writers;
    v["wal.recovery_s"] = recovery_s_;
    v["wal.replay_mb_per_s"] =
        recovery_s_ > 0 ? static_cast<double>(log_bytes_) / 1e6 / recovery_s_
                        : 0;
  }

 protected:
  Client& client(int i) override { return *clients_[i]; }
  void ResetCounts() override { counts_ = {}; }

  void Step(int i, IsolationLevel iso, ClientStats& s) override {
    Rng& rng = rng_[i];
    Client& c = client(i);
    Dbt2Counts& n = counts_[i].v;
    const uint32_t w = static_cast<uint32_t>(rng.Uniform(kWarehouses));
    const uint32_t d = static_cast<uint32_t>(rng.Uniform(kDistricts));
    if (rng.PerMille(kReadOnlyPerMille)) {
      const uint32_t lo = static_cast<uint32_t>(
          rng.Uniform(kStockPerWarehouse - kStockWindow + 1));
      size_t seen = 0;
      if (RunTxn(i, c, s, true,
                 [&] { return StockLevel(c, iso, w, d, lo, &seen); })) {
        n.committed_stock_levels++;
        if (seen != kStockWindow) n.short_windows++;
      }
      return;
    }
    NewOrder no;
    no.w = w;
    no.d = d;
    for (auto& it : no.items) {
      it = static_cast<uint32_t>(rng.Uniform(kStockPerWarehouse));
    }
    if (RunTxn(i, c, s, false, [&] { return RunNewOrder(c, iso, no); })) {
      n.committed_new_orders++;
    }
  }

  void CountClasses(uint64_t* read_only, uint64_t* writers) override {
    const Dbt2Counts c = Totals();
    *read_only = c.committed_stock_levels;
    *writers = c.committed_new_orders;
  }

 private:
  void MakeClients() {
    for (int i = 0; i < kClients; i++) {
      clients_[i] = std::make_unique<EmbeddedClient>(db_.get());
    }
  }

  Status RunNewOrder(Client& c, IsolationLevel iso, const NewOrder& no) {
    Status st = c.Begin({.isolation = iso});
    if (!st.ok()) return st;
    std::string v;
    if (!(st = c.Get(warehouse_, WarehouseKey(no.w), &v)).ok()) return st;
    const std::string dkey = DistrictKey(no.w, no.d);
    if (!(st = c.Get(district_, dkey, &v)).ok()) return st;
    uint64_t oid = 0;
    if (!ParseU64(v, &oid)) return Status::Internal("bad district " + dkey);
    if (!(st = c.Put(district_, dkey, std::to_string(oid + 1))).ok()) {
      return st;
    }
    std::string lines;
    for (uint32_t item : no.items) {
      const std::string skey = StockKey(no.w, item);
      if (!(st = c.Get(stock_, skey, &v)).ok()) return st;
      uint64_t q = 0;
      if (!ParseU64(v, &q)) return Status::Internal("bad stock " + skey);
      q = q > 10 ? q - 10 : q + 91;  // restock when low, as TPC-C does
      if (!(st = c.Put(stock_, skey, std::to_string(q))).ok()) return st;
      lines += std::to_string(item) + ",";
    }
    if (!(st = c.Insert(orders_, OrderKey(no.w, no.d, oid), lines)).ok()) {
      return st;
    }
    return c.Commit();
  }

  Status StockLevel(Client& c, IsolationLevel iso, uint32_t w, uint32_t d,
                    uint32_t lo, size_t* seen) {
    Status st = c.Begin({.isolation = iso, .read_only = true});
    if (!st.ok()) return st;
    std::string v;
    if (!(st = c.Get(district_, DistrictKey(w, d), &v)).ok()) return st;
    Rows rows;
    st = c.Scan(stock_, StockKey(w, lo), StockKey(w, lo + kStockWindow - 1),
                &rows);
    if (!st.ok()) return st;
    for (const auto& [k, q] : rows) {
      uint64_t x = 0;
      if (!ParseU64(q, &x)) return Status::Internal("bad stock " + k);
    }
    *seen = rows.size();
    return c.Commit();
  }

  // Reads districts, orders and stock back, one warehouse at a time so
  // the read-back's memory stays small beside the engine's.
  void ReadState(Dbt2State* s, const std::string& phase, Verdict* v) {
    s->next_order_id.assign(kWarehouses * kDistricts, 0);
    s->orders.assign(kWarehouses * kDistricts, 0);
    Rows rows;
    Status st = ReadAll(db_.get(), district_, "d", "e", &rows);
    v->Expect(st.ok() && rows.size() == kWarehouses * kDistricts,
              phase + ": district read-back failed");
    for (size_t i = 0; i < rows.size() && i < s->next_order_id.size(); i++) {
      v->Expect(ParseU64(rows[i].second, &s->next_order_id[i]),
                phase + ": unparsable district " + rows[i].first);
    }
    for (uint32_t w = 0; w < kWarehouses; w++) {
      char lo[8], hi[8];
      std::snprintf(lo, sizeof(lo), "o%02u.", w);
      std::snprintf(hi, sizeof(hi), "o%02u/", w);
      st = ReadAll(db_.get(), orders_, lo, hi, &rows);
      v->Expect(st.ok(), phase + ": order read-back failed");
      for (const auto& [k, val] : rows) {
        unsigned ow = 0, od = 0;
        const bool ok = std::sscanf(k.c_str(), "o%02u.%02u.", &ow, &od) == 2 &&
                        ow == w && od < kDistricts;
        v->Expect(ok, phase + ": malformed order key " + k);
        if (ok) s->orders[ow * kDistricts + od]++;
        s->total_orders++;
      }
      st = ReadAll(db_.get(), stock_, StockKey(w, 0),
                   StockKey(w, kStockPerWarehouse - 1), &rows);
      v->Expect(st.ok() && rows.size() == kStockPerWarehouse,
                phase + ": stock read-back failed");
      for (const auto& [k, val] : rows) {
        uint64_t q = 0;
        v->Expect(ParseU64(val, &q), phase + ": unparsable stock " + k);
        s->stock_quantity.push_back(static_cast<int64_t>(q));
      }
    }
  }

  Dbt2Counts Totals() const {
    Dbt2Counts t;
    for (const auto& c : counts_) {
      t.committed_new_orders += c.v.committed_new_orders;
      t.committed_stock_levels += c.v.committed_stock_levels;
      t.short_windows += c.v.short_windows;
    }
    return t;
  }

  TableId warehouse_ = pgssi::kInvalidTable;
  TableId district_ = pgssi::kInvalidTable;
  TableId stock_ = pgssi::kInvalidTable;
  TableId orders_ = pgssi::kInvalidTable;
  std::array<std::unique_ptr<EmbeddedClient>, kClients> clients_;
  std::array<PerClient<Dbt2Counts>, kClients> counts_;
  double orders_per_leaf_ = 0;
  double recovery_s_ = 0;
  uint64_t log_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDbt2(std::string dir, uint64_t seed) {
  return std::make_unique<Dbt2>(std::move(dir), seed);
}

}  // namespace bench
