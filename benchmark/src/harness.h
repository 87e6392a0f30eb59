// Measurement harness shared by the three workloads: seeded generator,
// constant-memory latency histogram, span tracer, the client boundary
// (embedded Database or WireClient) that every engine call crosses, and
// the closed-loop phase runner.
//
// Everything here reaches the engine only through its public API
// (db/transaction_handle.h, net/client.h, net/server.h), so what the
// benchmark measures does not depend on workload/ or bench/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "db/transaction_handle.h"
#include "net/client.h"
#include "net/server.h"

namespace bench {

using pgssi::Database;
using pgssi::IsolationLevel;
using pgssi::Status;
using pgssi::TableId;
using pgssi::TxnOptions;
using Rows = std::vector<std::pair<std::string, std::string>>;

// Client threads per phase: one per core of the 4-core reference machine.
inline constexpr int kClients = 4;
// A transaction that has not committed after this many attempts counts
// as failed.
inline constexpr int kMaxAttempts = 1000;
// Clients check the deadline only between rounds of this many
// transactions, so every run attempts whole rounds.
inline constexpr int kRound = 64;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// SplitMix64: the benchmark's own generator, so input streams depend
// only on --seed and not on the engine's util/random.h.
class Rng {
 public:
  Rng() = default;
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// True with probability per_mille / 1000.
  bool PerMille(uint32_t per_mille) { return Uniform(1000) < per_mille; }

 private:
  uint64_t s_ = 0;
};

/// Seed for stream `stream` of run seed `seed`.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed ^ (stream * 0xd6e8feb86659fd93ULL));
  return r.Next();
}

// Log-linear latency histogram (64 sub-buckets per power of two, about
// 1.6% wide; up to 137 s) in 8 KiB, so the benchmark's own footprint
// does not grow with throughput and peak_rss_mb stays the engine's.
class LatencyHist {
 public:
  void Add(uint64_t ns);
  void Merge(const LatencyHist& o);
  uint64_t count() const { return n_; }
  /// Quantile in microseconds, interpolated inside the bucket; 0 when
  /// empty.
  double QuantileUs(double q) const;

 private:
  static constexpr int kExact = 128;
  static constexpr int kSub = 64;
  static constexpr int kMaxMsb = 36;
  static constexpr int kBuckets = kExact + (kMaxMsb - 6) * kSub;
  std::array<uint32_t, kBuckets> b_{};
  uint64_t n_ = 0;
};

// ----- tracing -----

enum SpanName : uint16_t {
  kTxn,      // one logical transaction, retries included
  kAttempt,  // one attempt of it
  kDbBegin,
  kDbGet,
  kDbPut,
  kDbInsert,
  kDbScan,
  kDbCommitRw,
  kDbCommitRo,
  kDbAbort,
  kNetBegin,
  kNetGet,
  kNetPut,
  kNetInsert,
  kNetScan,
  kNetCommit,
  kNetAbort,
  kSpanNames,
};
extern const char* const kSpanNameStr[kSpanNames];

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t txn = 0;     // (client << 26) | per-client sequence
  uint32_t parent = 0;  // 1-based index in the same tracer, 0 = root
  uint16_t name = 0;
  uint16_t pad = 0;
  uint32_t arg = 0;     // rows returned, for scans
};

// Per-client span buffer. Capacity is reserved up front so recording
// never reallocates; spans past it are counted as dropped.
class Tracer {
 public:
  explicit Tracer(size_t capacity) : cap_(capacity) { spans_.reserve(cap_); }
  /// Returns the span's 1-based id, 0 when dropped.
  uint32_t Open(SpanName name, uint32_t txn, uint32_t parent) {
    if (spans_.size() >= cap_) {
      dropped_++;
      return 0;
    }
    spans_.push_back(Span{NowNs(), 0, txn, parent, name, 0, 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void Close(uint32_t id, uint32_t arg = 0) {
    if (id == 0) return;
    Span& s = spans_[id - 1];
    s.end_ns = NowNs();
    s.arg = arg;
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  size_t cap_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// ----- the client boundary -----

enum class OpKind { kBegin, kGet, kPut, kInsert, kScan, kCommit, kAbort };

// One client's connection to the engine. Every call into the engine
// crosses this class, which counts it and, when a tracer is attached,
// records a span around it.
class Client {
 public:
  virtual ~Client() = default;

  void set_tracer(Tracer* t) { tracer_ = t; }
  Tracer* tracer() const { return tracer_; }
  /// Parent span and transaction id for the spans of the next calls.
  void set_context(uint32_t txn, uint32_t parent) {
    txn_ = txn;
    parent_ = parent;
  }
  /// Calls made so far (round trips, for the wire client).
  uint64_t ops() const { return ops_; }

  Status Begin(const TxnOptions& o);
  Status Get(TableId t, const std::string& k, std::string* v);
  Status Put(TableId t, const std::string& k, const std::string& v);
  Status Insert(TableId t, const std::string& k, const std::string& v);
  Status Scan(TableId t, const std::string& lo, const std::string& hi,
              Rows* out);
  Status Commit();
  /// Ends an open transaction after an error the engine did not raise
  /// itself (a failed statement has already ended it).
  void Abort();

 protected:
  virtual Status DoBegin(const TxnOptions& o) = 0;
  virtual Status DoGet(TableId t, const std::string& k, std::string* v) = 0;
  virtual Status DoPut(TableId t, const std::string& k,
                       const std::string& v) = 0;
  virtual Status DoInsert(TableId t, const std::string& k,
                          const std::string& v) = 0;
  virtual Status DoScan(TableId t, const std::string& lo,
                        const std::string& hi, Rows* out) = 0;
  virtual Status DoCommit() = 0;
  virtual void DoAbort() = 0;
  virtual SpanName NameOf(OpKind k, bool wrote) const = 0;
  uint64_t ops_ = 0;

 private:
  template <class F>
  Status Timed(OpKind k, F&& f);

  Tracer* tracer_ = nullptr;
  uint32_t txn_ = 0;
  uint32_t parent_ = 0;
  bool wrote_ = false;
  uint32_t arg_ = 0;
};

class EmbeddedClient final : public Client {
 public:
  explicit EmbeddedClient(Database* db) : db_(db) {}

 protected:
  Status DoBegin(const TxnOptions& o) override;
  Status DoGet(TableId t, const std::string& k, std::string* v) override;
  Status DoPut(TableId t, const std::string& k, const std::string& v) override;
  Status DoInsert(TableId t, const std::string& k,
                  const std::string& v) override;
  Status DoScan(TableId t, const std::string& lo, const std::string& hi,
                Rows* out) override;
  Status DoCommit() override;
  void DoAbort() override;
  SpanName NameOf(OpKind k, bool wrote) const override;

 private:
  Database* db_;
  std::unique_ptr<pgssi::Transaction> txn_;
};

class NetClient final : public Client {
 public:
  Status Connect(uint16_t port) { return c_.Connect("127.0.0.1", port); }
  Status Ping() {
    ops_++;
    return c_.Ping();
  }
  Status OpenTable(const std::string& name, TableId* id) {
    ops_++;
    return c_.OpenTable(name, id);
  }
  void Close() { c_.Close(); }

 protected:
  Status DoBegin(const TxnOptions& o) override { return c_.Begin(o); }
  Status DoGet(TableId t, const std::string& k, std::string* v) override {
    return c_.Get(t, k, v);
  }
  Status DoPut(TableId t, const std::string& k, const std::string& v) override {
    return c_.Put(t, k, v);
  }
  Status DoInsert(TableId t, const std::string& k,
                  const std::string& v) override {
    return c_.Insert(t, k, v);
  }
  Status DoScan(TableId t, const std::string& lo, const std::string& hi,
                Rows* out) override {
    return c_.Scan(t, lo, hi, out);
  }
  Status DoCommit() override { return c_.Commit(); }
  void DoAbort() override { (void)c_.Abort(); }
  SpanName NameOf(OpKind k, bool wrote) const override;

 private:
  pgssi::net::WireClient c_;
};

// ----- closed-loop phases -----

// Per-client data written on the hot path, kept on its own cache lines.
template <class T>
struct alignas(64) PerClient {
  T v{};
};

struct ClientStats {
  uint64_t attempted = 0;  // logical transactions started
  uint64_t committed = 0;
  uint64_t failed = 0;     // never committed within kMaxAttempts
  uint64_t attempts = 0;   // every try, retries included
  uint64_t errors = 0;     // errors other than serialization failures
  std::string first_error;
  uint32_t seq = 0;        // per-client transaction counter (span ids)
  // Client-observed latency (retries included) of the commits that
  // completed in each window (kWindowNs wide, from the phase start), by
  // class: [0] writing, [1] read-only. Commits after the last whole
  // window are not kept.
  uint64_t start_ns = 0;
  std::array<std::vector<LatencyHist>, 2> windows;
};

/// Runs `body` (one attempt: Begin .. Commit) until it commits,
/// retrying serialization failures immediately with the same inputs.
/// Returns true when it committed.
bool RunTxn(int client, Client& c, ClientStats& s, bool read_only,
            const std::function<Status()>& body);

// Width of the windows a phase is cut into; per-window figures are
// reported as their median, which a short stall elsewhere on the
// machine does not move.
inline constexpr uint64_t kWindowNs = 1'000'000'000;

// A client that has not finished its round this long after the phase's
// deadline is stuck in the engine (a round takes well under a second,
// and the engine's own lock-wait ceiling is 2 s).
inline constexpr uint64_t kStuckNs = 20'000'000'000;
/// Called, instead of joining, when a client is stuck; must not return.
extern void (*g_stuck_handler)();

/// Starts `n` client threads together; each calls `step(i, stats)` in
/// rounds of kRound until `seconds` have passed since the common start.
/// Returns each client's stats.
std::vector<ClientStats> RunClosedLoop(
    int n, double seconds, const std::function<void(int, ClientStats&)>& step);

// Parses a decimal counter written by the benchmark itself.
bool ParseU64(const std::string& s, uint64_t* out);

// ----- results -----

// Metric values by name; units live with the metric lists in main.cc.
using Values = std::map<std::string, double>;

// Correctness findings of one run: every check that failed, by name.
struct Verdict {
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

}  // namespace bench
