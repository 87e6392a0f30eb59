// rubis-wire: the RUBiS bidding mix (paper section 8.3) over loopback
// against an in-process net::Server, one connection per client. 85% of
// transactions browse an item's open bids (read-only), 10% bid, 5% close
// the auction. Items cycle through epochs; closing records the highest
// bid of the epoch and opens the next. Browses read any item, but each
// client bids on and closes only its own kItems / kClients items, so no
// close runs beside a bid on the same item. That pair writes disjoint
// rows, and SERIALIZABLE must stop the close from missing the bid
// (write skew), but at this engine version SSI now and then lets it
// through (see README). No WAL: the front end does most of the work,
// about 4.1 round trips per transaction.
#include <cstdio>
#include <thread>

#include "workload.h"

namespace bench {
namespace {

constexpr uint32_t kItems = 64;
static_assert(kItems % kClients == 0, "writers split the items evenly");
constexpr uint32_t kBrowsePerMille = 850;
constexpr uint32_t kBidPerMille = 100;  // the remaining 50 close
constexpr uint32_t kServerWorkers = 4;
constexpr int kPingsPerClient = 2000;

std::string ItemKey(uint32_t i) {
  char b[16];
  std::snprintf(b, sizeof(b), "i%02u", i);
  return b;
}
// Bids of one (item, epoch) share the prefix "b<item>.<epoch>." and
// sort before "b<item>.<epoch>/".
std::string BidPrefix(uint32_t i, uint64_t e, char end) {
  char b[32];
  std::snprintf(b, sizeof(b), "b%02u.%09llu%c", i,
                static_cast<unsigned long long>(e), end);
  return b;
}
std::string ClosingKey(uint32_t i, uint64_t e) {
  char b[32];
  std::snprintf(b, sizeof(b), "c%02u.%09llu", i,
                static_cast<unsigned long long>(e));
  return b;
}

enum class Kind { kBrowse, kBid, kClose };

struct Input {
  Kind kind = Kind::kBrowse;
  uint32_t item = 0;
  uint64_t amount = 0;
  uint64_t uniq = 0;
};

class Rubis final : public Workload {
 public:
  using Workload::Workload;

  ~Rubis() override {
    for (auto& c : clients_) {
      if (c) c->Close();
    }
    if (server_) server_->Stop();
  }

  Status Setup() override {
    Status st = OpenDb(/*wal=*/false);
    if (!st.ok()) return st;
    if (!(st = db_->CreateTable("items", &items_)).ok()) return st;
    if (!(st = db_->CreateTable("bids", &bids_)).ok()) return st;
    if (!(st = db_->CreateTable("closings", &closings_)).ok()) return st;
    auto txn = db_->Begin({});
    for (uint32_t i = 0; i < kItems; i++) {
      if (!(st = txn->Insert(items_, ItemKey(i), "0")).ok()) return st;
    }
    if (!(st = txn->Commit()).ok()) return st;

    pgssi::net::ServerOptions so;
    so.port = 0;  // ephemeral: concurrent runs never collide
    so.workers = kServerWorkers;
    server_ = std::make_unique<pgssi::net::Server>(db_.get(), so);
    if (!(st = server_->Start()).ok()) return st;
    for (int i = 0; i < kClients; i++) {
      clients_[i] = std::make_unique<NetClient>();
      if (!(st = clients_[i]->Connect(server_->port())).ok()) return st;
      TableId id = 0;
      if (!(st = clients_[i]->OpenTable("items", &id)).ok()) return st;
      if (!(st = clients_[i]->OpenTable("bids", &id)).ok()) return st;
      if (!(st = clients_[i]->OpenTable("closings", &id)).ok()) return st;
    }
    return Status::OK();
  }

  void MeasurePing(LatencyHist* h) override {
    std::array<LatencyHist, kClients> per;
    {
      std::vector<std::jthread> ts;
      for (int i = 0; i < kClients; i++) {
        ts.emplace_back([this, i, &per] {
          for (int k = 0; k < kPingsPerClient; k++) {
            const uint64_t t0 = NowNs();
            if (clients_[i]->Ping().ok()) per[i].Add(NowNs() - t0);
          }
        });
      }
    }
    for (const auto& p : per) h->Merge(p);
  }

  void Check(const PhaseStats& p, Verdict* v) override {
    const bool ssi = p.iso == IsolationLevel::kSerializable;
    const std::string phase = ssi ? "rubis ssi" : "rubis si";
    uint64_t sent = 0;
    for (auto& c : clients_) {
      sent += c->ops();
      c->Close();
    }
    server_->Stop();  // every op counted, every session gone
    stats_ = server_->stats();
    CheckOpsExecuted(stats_.ops_executed, sent, phase, v);

    const RubisCounts c = Totals();
    CheckCommitSeq(p.after.commit_seq - p.before.commit_seq,
                   c.committed_bids + c.committed_closes, phase, v);
    RubisState s;
    Rows rows;
    Status st = ReadAll(db_.get(), items_, "i", "j", &rows);
    v->Expect(st.ok() && rows.size() == kItems,
              phase + ": item read-back failed");
    for (const auto& [k, val] : rows) {
      uint64_t e = 0;
      v->Expect(ParseU64(val, &e), phase + ": unparsable item " + k);
      s.item_epoch.push_back(e);
    }
    st = ReadAll(db_.get(), bids_, "b", "c", &rows);
    v->Expect(st.ok(), phase + ": bid read-back failed");
    for (const auto& [k, val] : rows) {
      RubisBid b;
      unsigned item = 0;
      unsigned long long epoch = 0;
      const bool ok = std::sscanf(k.c_str(), "b%02u.%09llu.", &item,
                                  &epoch) == 2 &&
                      ParseU64(val, &b.amount);
      v->Expect(ok, phase + ": malformed bid " + k);
      b.item = item;
      b.epoch = epoch;
      s.bids.push_back(b);
    }
    st = ReadAll(db_.get(), closings_, "c", "d", &rows);
    v->Expect(st.ok(), phase + ": closing read-back failed");
    for (const auto& [k, val] : rows) {
      RubisBid cl;
      unsigned item = 0;
      unsigned long long epoch = 0;
      const bool ok =
          std::sscanf(k.c_str(), "c%02u.%09llu", &item, &epoch) == 2 &&
          ParseU64(val, &cl.amount);
      v->Expect(ok, phase + ": malformed closing " + k);
      cl.item = item;
      cl.epoch = epoch;
      s.closings.push_back(cl);
    }
    CheckRubis(s, c, ssi, phase, v);
    const size_t leaves = db_->IndexLeafCount(bids_);
    bids_per_leaf_ = leaves ? static_cast<double>(db_->IndexEntryCount(bids_)) /
                                  static_cast<double>(leaves)
                            : 0;
  }

  void AddLayerMetrics(const PhaseStats& p, Values* m) override {
    Values& v = *m;
    v["index.entries_per_leaf"] = bids_per_leaf_;
    v["net.ops_per_txn"] =
        static_cast<double>(p.ops) /
        static_cast<double>(std::max<uint64_t>(1, p.total.committed));
    v["net.parks_per_1k_ops"] =
        stats_.ops_executed
            ? 1000.0 * static_cast<double>(stats_.would_blocks) /
                  static_cast<double>(stats_.ops_executed)
            : 0;
    v["net.backpressure_pauses"] =
        static_cast<double>(stats_.read_pauses + stats_.write_pauses);
  }

 protected:
  Client& client(int i) override { return *clients_[i]; }
  void ResetCounts() override { counts_ = {}; }

  void Step(int i, IsolationLevel iso, ClientStats& s) override {
    Rng& rng = rng_[i];
    Client& c = client(i);
    RubisCounts& n = counts_[i].v;
    Input in;
    const uint64_t r = rng.Uniform(1000);
    in.kind = r < kBrowsePerMille                  ? Kind::kBrowse
              : r < kBrowsePerMille + kBidPerMille ? Kind::kBid
                                                   : Kind::kClose;
    const uint32_t pick = static_cast<uint32_t>(rng.Uniform(kItems));
    // Writers keep to client i's items: i, i + kClients, ...
    in.item = in.kind == Kind::kBrowse
                  ? pick
                  : static_cast<uint32_t>(i) + kClients * (pick / kClients);
    in.amount = 1 + rng.Uniform(1000);
    in.uniq = rng.Next();
    const bool read_only = in.kind == Kind::kBrowse;
    if (!RunTxn(i, c, s, read_only, [&] { return Body(c, iso, in); })) {
      return;
    }
    switch (in.kind) {
      case Kind::kBrowse: n.committed_browses++; break;
      case Kind::kBid: n.committed_bids++; break;
      case Kind::kClose: n.committed_closes++; break;
    }
  }

  void CountClasses(uint64_t* read_only, uint64_t* writers) override {
    const RubisCounts c = Totals();
    *read_only = c.committed_browses;
    *writers = c.committed_bids + c.committed_closes;
  }

 private:
  Status Body(Client& c, IsolationLevel iso, const Input& in) {
    Status st = c.Begin(
        {.isolation = iso, .read_only = in.kind == Kind::kBrowse});
    if (!st.ok()) return st;
    std::string v;
    if (!(st = c.Get(items_, ItemKey(in.item), &v)).ok()) return st;
    uint64_t epoch = 0;
    if (!ParseU64(v, &epoch)) return Status::Internal("bad item " + v);
    if (in.kind == Kind::kBid) {
      char key[48];
      std::snprintf(key, sizeof(key), "%s%016llx",
                    BidPrefix(in.item, epoch, '.').c_str(),
                    static_cast<unsigned long long>(in.uniq));
      st = c.Insert(bids_, key, std::to_string(in.amount));
      if (!st.ok()) return st;
      return c.Commit();
    }
    Rows rows;
    st = c.Scan(bids_, BidPrefix(in.item, epoch, '.'),
                BidPrefix(in.item, epoch, '/'), &rows);
    if (!st.ok()) return st;
    uint64_t best = 0;
    for (const auto& [k, a] : rows) {
      uint64_t x = 0;
      if (!ParseU64(a, &x)) return Status::Internal("bad bid " + k);
      best = std::max(best, x);
    }
    if (in.kind == Kind::kClose) {
      st = c.Put(closings_, ClosingKey(in.item, epoch), std::to_string(best));
      if (!st.ok()) return st;
      st = c.Put(items_, ItemKey(in.item), std::to_string(epoch + 1));
      if (!st.ok()) return st;
    }
    return c.Commit();
  }

  RubisCounts Totals() const {
    RubisCounts t;
    for (const auto& c : counts_) {
      t.committed_browses += c.v.committed_browses;
      t.committed_bids += c.v.committed_bids;
      t.committed_closes += c.v.committed_closes;
    }
    return t;
  }

  TableId items_ = pgssi::kInvalidTable;
  TableId bids_ = pgssi::kInvalidTable;
  TableId closings_ = pgssi::kInvalidTable;
  std::unique_ptr<pgssi::net::Server> server_;
  std::array<std::unique_ptr<NetClient>, kClients> clients_;
  std::array<PerClient<RubisCounts>, kClients> counts_;
  pgssi::net::Server::Stats stats_;
  double bids_per_leaf_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeRubis(std::string dir, uint64_t seed) {
  return std::make_unique<Rubis>(std::move(dir), seed);
}

}  // namespace bench
