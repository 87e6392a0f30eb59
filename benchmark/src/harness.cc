#include "harness.h"

#include <cstdlib>
#include <latch>
#include <thread>

namespace bench {

const char* const kSpanNameStr[kSpanNames] = {
    "txn",        "attempt",     "db.begin",     "db.get",
    "db.put",     "db.insert",   "db.scan",      "db.commit_rw",
    "db.commit_ro", "db.abort",  "net.begin",    "net.get",
    "net.put",    "net.insert",  "net.scan",     "net.commit",
    "net.abort",
};

// ----- LatencyHist -----

void LatencyHist::Add(uint64_t ns) {
  int idx;
  if (ns < kExact) {
    idx = static_cast<int>(ns);
  } else {
    if (ns >> (kMaxMsb + 1)) ns = (uint64_t{1} << (kMaxMsb + 1)) - 1;
    const int msb = 63 - __builtin_clzll(ns);
    const int shift = msb - 6;
    idx = kExact + (msb - 7) * kSub + static_cast<int>((ns >> shift) - kSub);
  }
  b_[idx]++;
  n_++;
}

void LatencyHist::Merge(const LatencyHist& o) {
  for (int i = 0; i < kBuckets; i++) b_[i] += o.b_[i];
  n_ += o.n_;
}

double LatencyHist::QuantileUs(double q) const {
  if (n_ == 0) return 0;
  const double rank = q * static_cast<double>(n_ - 1);
  double cum = 0;
  for (int i = 0; i < kBuckets; i++) {
    if (b_[i] == 0) continue;
    const double c = static_cast<double>(b_[i]);
    if (cum + c > rank) {
      double lo, width;
      if (i < kExact) {
        lo = i;
        width = 1;
      } else {
        const int msb = 7 + (i - kExact) / kSub;
        const int sub = (i - kExact) % kSub;
        const int shift = msb - 6;
        lo = static_cast<double>(static_cast<uint64_t>(kSub + sub) << shift);
        width = static_cast<double>(uint64_t{1} << shift);
      }
      return (lo + width * (rank - cum + 0.5) / c) / 1000.0;
    }
    cum += c;
  }
  return 0;
}

// ----- Client -----

template <class F>
Status Client::Timed(OpKind k, F&& f) {
  ops_++;
  if (tracer_ == nullptr) return f();
  const uint32_t id = tracer_->Open(NameOf(k, wrote_), txn_, parent_);
  arg_ = 0;
  Status st = f();
  tracer_->Close(id, arg_);
  return st;
}

Status Client::Begin(const TxnOptions& o) {
  wrote_ = false;
  return Timed(OpKind::kBegin, [&] { return DoBegin(o); });
}

Status Client::Get(TableId t, const std::string& k, std::string* v) {
  return Timed(OpKind::kGet, [&] { return DoGet(t, k, v); });
}

Status Client::Put(TableId t, const std::string& k, const std::string& v) {
  wrote_ = true;
  return Timed(OpKind::kPut, [&] { return DoPut(t, k, v); });
}

Status Client::Insert(TableId t, const std::string& k, const std::string& v) {
  wrote_ = true;
  return Timed(OpKind::kInsert, [&] { return DoInsert(t, k, v); });
}

Status Client::Scan(TableId t, const std::string& lo, const std::string& hi,
                    Rows* out) {
  return Timed(OpKind::kScan, [&] {
    Status st = DoScan(t, lo, hi, out);
    arg_ = static_cast<uint32_t>(out->size());
    return st;
  });
}

Status Client::Commit() {
  return Timed(OpKind::kCommit, [&] { return DoCommit(); });
}

void Client::Abort() {
  (void)Timed(OpKind::kAbort, [&] {
    DoAbort();
    return Status::OK();
  });
}

Status EmbeddedClient::DoBegin(const TxnOptions& o) {
  txn_ = db_->Begin(o);
  return txn_ ? Status::OK() : Status::Internal("Database::Begin failed");
}

Status EmbeddedClient::DoGet(TableId t, const std::string& k, std::string* v) {
  return txn_->Get(t, k, v);
}

Status EmbeddedClient::DoPut(TableId t, const std::string& k,
                             const std::string& v) {
  return txn_->Put(t, k, v);
}

Status EmbeddedClient::DoInsert(TableId t, const std::string& k,
                                const std::string& v) {
  return txn_->Insert(t, k, v);
}

Status EmbeddedClient::DoScan(TableId t, const std::string& lo,
                              const std::string& hi, Rows* out) {
  return txn_->Scan(t, lo, hi, out);
}

Status EmbeddedClient::DoCommit() {
  Status st = txn_->Commit();
  txn_.reset();
  return st;
}

void EmbeddedClient::DoAbort() {
  if (txn_) (void)txn_->Abort();
  txn_.reset();
}

SpanName EmbeddedClient::NameOf(OpKind k, bool wrote) const {
  switch (k) {
    case OpKind::kBegin: return kDbBegin;
    case OpKind::kGet: return kDbGet;
    case OpKind::kPut: return kDbPut;
    case OpKind::kInsert: return kDbInsert;
    case OpKind::kScan: return kDbScan;
    case OpKind::kCommit: return wrote ? kDbCommitRw : kDbCommitRo;
    case OpKind::kAbort: return kDbAbort;
  }
  return kDbAbort;
}

SpanName NetClient::NameOf(OpKind k, bool) const {
  switch (k) {
    case OpKind::kBegin: return kNetBegin;
    case OpKind::kGet: return kNetGet;
    case OpKind::kPut: return kNetPut;
    case OpKind::kInsert: return kNetInsert;
    case OpKind::kScan: return kNetScan;
    case OpKind::kCommit: return kNetCommit;
    case OpKind::kAbort: return kNetAbort;
  }
  return kNetAbort;
}

// ----- phases -----

bool RunTxn(int client, Client& c, ClientStats& s, bool read_only,
            const std::function<Status()>& body) {
  s.attempted++;
  Tracer* tr = c.tracer();
  const uint32_t txn = (static_cast<uint32_t>(client) << 26) | (++s.seq);
  const uint32_t txn_span = tr ? tr->Open(kTxn, txn, 0) : 0;
  const uint64_t t0 = NowNs();
  bool committed = false;
  for (int a = 0; a < kMaxAttempts; a++) {
    s.attempts++;
    const uint32_t att = tr ? tr->Open(kAttempt, txn, txn_span) : 0;
    c.set_context(txn, att);
    Status st = body();
    if (tr) tr->Close(att);
    if (st.ok()) {
      committed = true;
      break;
    }
    if (!st.IsSerializationFailure()) {
      c.Abort();
      if (s.errors++ == 0) s.first_error = st.ToString();
      break;
    }
  }
  if (committed) {
    const uint64_t now = NowNs();
    s.committed++;
    auto& windows = s.windows[read_only ? 1 : 0];
    const uint64_t w = (now - s.start_ns) / kWindowNs;
    if (w < windows.size()) windows[w].Add(now - t0);
  } else {
    s.failed++;
  }
  if (tr) tr->Close(txn_span);
  return committed;
}

std::vector<ClientStats> RunClosedLoop(
    int n, double seconds, const std::function<void(int, ClientStats&)>& step) {
  std::latch ready(n);
  std::latch go(1);
  uint64_t deadline = 0;
  std::vector<PerClient<ClientStats>> stats(n);
  const size_t windows =
      static_cast<size_t>(seconds * 1e9) / static_cast<size_t>(kWindowNs);
  for (auto& s : stats) {
    for (auto& cls : s.v.windows) cls.resize(windows);
  }
  std::latch done(n);
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < n; i++) {
      threads.emplace_back([&, i] {
        ready.count_down();
        go.wait();  // start, deadline and start_ns are set before go opens
        ClientStats& s = stats[i].v;
        do {
          for (int k = 0; k < kRound; k++) step(i, s);
        } while (NowNs() < deadline);
        done.count_down();
      });
    }
    ready.wait();
    const uint64_t start = NowNs();
    deadline = start + static_cast<uint64_t>(seconds * 1e9);
    for (auto& s : stats) s.v.start_ns = start;
    go.count_down();
    // A client that never returns from the engine cannot be joined: hand
    // the run to the stuck handler, which ends the process.
    const uint64_t give_up = deadline + kStuckNs;
    while (!done.try_wait()) {
      if (NowNs() > give_up) g_stuck_handler();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }  // joins
  std::vector<ClientStats> out;
  for (auto& s : stats) out.push_back(std::move(s.v));
  return out;
}

void (*g_stuck_handler)() = [] { std::abort(); };

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  uint64_t v = 0;
  for (char ch : s) {
    if (ch < '0' || ch > '9') return false;
    v = v * 10 + static_cast<uint64_t>(ch - '0');
  }
  *out = v;
  return true;
}

}  // namespace bench
