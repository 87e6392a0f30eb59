// pgssi_benchmark: runs one workload and prints one JSON result line.
//
//   pgssi_benchmark --workload NAME --seed N --seconds S --trace 0|1
//                   --state-dir DIR [--trace-out FILE]
//   pgssi_benchmark --self-test
//
// Untraced (--trace 0): an SSI phase of S/2 seconds on a fresh
// database, then the identical load under SI (REPEATABLE READ) on
// another fresh database for S/2 seconds; prints the end-to-end metrics.
// Traced (--trace 1): an untraced SSI phase, then a traced SSI phase on
// a fresh database; prints the per-layer metrics derived from the
// spans, the engine's counters and the tracing overhead, and writes the
// spans to --trace-out.
//
// The result line carries correct/attempted/failed. A failed check
// makes correct false; it does not stop the run. Set-up failures (the
// workload could not run at all) exit 1 without a result.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "checks.h"
#include "workload.h"

namespace bench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's "end_to_end".
constexpr MetricDef kEndToEnd[] = {
    {"txn_per_s", "txn/s"}, {"si_txn_per_s", "txn/s"},
    {"rw_p50_us", "us"},    {"rw_p99_us", "us"},
    {"ro_p50_us", "us"},    {"ro_p99_us", "us"},
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},
};

// Must match BENCHMARK.json's "per_layer". Metrics of a layer the
// workload does not exercise read 0 (see README).
constexpr MetricDef kPerLayer[] = {
    {"db.begin_us.p50", "us"},
    {"db.begin_us.p99", "us"},
    {"db.commit_rw_us.p50", "us"},
    {"db.commit_rw_us.p99", "us"},
    {"db.commit_ro_us.p50", "us"},
    {"db.get_us.p50", "us"},
    {"db.put_us.p50", "us"},
    {"db.insert_us.p50", "us"},
    {"db.scan_us_per_row", "us"},
    {"ssi.retries_per_commit", "count/txn"},
    {"ssi.ssi_aborts_per_1k", "count/1k"},
    {"ssi.ww_aborts_per_1k", "count/1k"},
    {"ssi.page_promotions_per_txn", "count/txn"},
    {"ssi.relation_promotions_per_txn", "count/txn"},
    {"ssi.safe_snapshot_share", "ratio"},
    {"ssi.siread_locks_end", "count"},
    {"index.entries_per_leaf", "count"},
    {"epoch.retired_end", "count"},
    {"epoch.freed_per_txn", "count/txn"},
    {"wal.fsyncs_per_commit", "count/txn"},
    {"wal.bytes_per_commit", "B/txn"},
    {"wal.replay_mb_per_s", "MB/s"},
    {"wal.recovery_s", "s"},
    {"net.ping_us.p50", "us"},
    {"net.ping_us.p99", "us"},
    {"net.begin_us.p50", "us"},
    {"net.begin_us.p99", "us"},
    {"net.get_us.p50", "us"},
    {"net.get_us.p99", "us"},
    {"net.scan_us.p50", "us"},
    {"net.scan_us.p99", "us"},
    {"net.insert_us.p50", "us"},
    {"net.insert_us.p99", "us"},
    {"net.put_us.p50", "us"},
    {"net.put_us.p99", "us"},
    {"net.commit_us.p50", "us"},
    {"net.commit_us.p99", "us"},
    {"net.ops_per_txn", "count/txn"},
    {"net.parks_per_1k_ops", "count/1k"},
    {"net.backpressure_pauses", "count"},
    {"self.client_us_per_txn", "us/txn"},
    {"self.db_us_per_txn", "us/txn"},
    {"self.net_us_per_txn", "us/txn"},
    {"trace.untraced_txn_per_s", "txn/s"},
    {"trace.traced_txn_per_s", "txn/s"},
    {"trace.overhead_pct", "%"},
    {"trace.spans_per_txn", "count/txn"},
    {"trace.dropped_spans", "count"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string state_dir;
  std::string trace_out;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      if (!ParseU64(v, &a->seed)) return false;
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (k == "--state-dir") {
      a->state_dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  if (a->self_test) return true;
  return !a->workload.empty() && a->seconds >= 1 && a->seconds <= 600 &&
         a->trace >= 0 && !a->state_dir.empty();
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double PerTxn(double x, uint64_t committed) {
  return committed ? x / static_cast<double>(committed) : 0;
}

// Per-layer metrics common to every workload: span latencies and self
// times, SSI and epoch counters, tracing overhead.
void DeriveLayerMetrics(const PhaseStats& untraced, const PhaseStats& p,
                        const LatencyHist& ping, Values* m) {
  std::array<LatencyHist, kSpanNames> h;
  double scan_ns = 0, scan_rows = 0;
  double self_client = 0, self_db = 0, self_net = 0;
  uint64_t spans = 0, dropped = 0;
  for (const auto& tr : p.tracers) {
    const auto& ss = tr->spans();
    std::vector<uint64_t> child(ss.size(), 0);
    for (const Span& s : ss) {
      if (s.parent != 0) child[s.parent - 1] += s.end_ns - s.start_ns;
    }
    for (size_t j = 0; j < ss.size(); j++) {
      const Span& s = ss[j];
      const uint64_t dur = s.end_ns - s.start_ns;
      const double self = static_cast<double>(dur - std::min(dur, child[j]));
      h[s.name].Add(dur);
      if (s.name == kDbScan) {
        scan_ns += static_cast<double>(dur);
        scan_rows += s.arg;
      }
      if (s.name == kTxn || s.name == kAttempt) {
        self_client += self;
      } else if (s.name >= kNetBegin) {
        self_net += self;
      } else {
        self_db += self;
      }
    }
    spans += ss.size();
    dropped += tr->dropped();
  }
  auto q = [&](SpanName n, double quant) { return h[n].QuantileUs(quant); };
  Values& v = *m;
  v["db.begin_us.p50"] = q(kDbBegin, 0.5);
  v["db.begin_us.p99"] = q(kDbBegin, 0.99);
  v["db.commit_rw_us.p50"] = q(kDbCommitRw, 0.5);
  v["db.commit_rw_us.p99"] = q(kDbCommitRw, 0.99);
  v["db.commit_ro_us.p50"] = q(kDbCommitRo, 0.5);
  v["db.get_us.p50"] = q(kDbGet, 0.5);
  v["db.put_us.p50"] = q(kDbPut, 0.5);
  v["db.insert_us.p50"] = q(kDbInsert, 0.5);
  v["db.scan_us_per_row"] = scan_rows > 0 ? scan_ns / 1000.0 / scan_rows : 0;
  const struct {
    const char* name;
    SpanName span;
  } net_ops[] = {{"begin", kNetBegin}, {"get", kNetGet},
                 {"scan", kNetScan},   {"insert", kNetInsert},
                 {"put", kNetPut},     {"commit", kNetCommit}};
  for (const auto& op : net_ops) {
    v[std::string("net.") + op.name + "_us.p50"] = q(op.span, 0.5);
    v[std::string("net.") + op.name + "_us.p99"] = q(op.span, 0.99);
  }
  v["net.ping_us.p50"] = ping.QuantileUs(0.5);
  v["net.ping_us.p99"] = ping.QuantileUs(0.99);

  const uint64_t c = p.total.committed;
  const pgssi::SsiStats& a = p.before.ssi;
  const pgssi::SsiStats& b = p.after.ssi;
  v["ssi.retries_per_commit"] =
      PerTxn(static_cast<double>(p.total.attempts - p.total.attempted), c);
  v["ssi.ssi_aborts_per_1k"] =
      1000 * PerTxn(static_cast<double>(b.ssi_aborts - a.ssi_aborts), c);
  v["ssi.ww_aborts_per_1k"] =
      1000 * PerTxn(static_cast<double>(b.ww_aborts - a.ww_aborts), c);
  v["ssi.page_promotions_per_txn"] =
      PerTxn(static_cast<double>(b.page_promotions - a.page_promotions), c);
  v["ssi.relation_promotions_per_txn"] = PerTxn(
      static_cast<double>(b.relation_promotions - a.relation_promotions), c);
  v["ssi.safe_snapshot_share"] =
      PerTxn(static_cast<double>(b.safe_snapshots - a.safe_snapshots),
             p.read_only_committed);
  v["ssi.siread_locks_end"] = static_cast<double>(p.siread_locks_end);
  v["epoch.retired_end"] = static_cast<double>(p.epoch_retired_end);
  v["epoch.freed_per_txn"] = PerTxn(
      static_cast<double>(p.after.epoch_freed - p.before.epoch_freed), c);

  v["self.client_us_per_txn"] = PerTxn(self_client / 1000.0, c);
  v["self.db_us_per_txn"] = PerTxn(self_db / 1000.0, c);
  v["self.net_us_per_txn"] = PerTxn(self_net / 1000.0, c);
  v["trace.untraced_txn_per_s"] = untraced.txn_per_s();
  v["trace.traced_txn_per_s"] = p.txn_per_s();
  v["trace.overhead_pct"] =
      untraced.txn_per_s() > 0
          ? 100.0 * (1.0 - p.txn_per_s() / untraced.txn_per_s())
          : 0;
  v["trace.spans_per_txn"] = PerTxn(static_cast<double>(spans), c);
  v["trace.dropped_spans"] = static_cast<double>(dropped);
}

// Binary span dump: a text header line, a line of span names (index =
// Span::name), then per client: u32 client, u64 count, count x Span
// (32 bytes, host byte order).
bool WriteSpans(const std::string& path, const PhaseStats& p) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f << "pgssi-spans 1\n";
  for (int i = 0; i < kSpanNames; i++) {
    f << kSpanNameStr[i] << (i + 1 < kSpanNames ? ' ' : '\n');
  }
  for (size_t i = 0; i < p.tracers.size(); i++) {
    const auto& ss = p.tracers[i]->spans();
    const uint32_t client = static_cast<uint32_t>(i);
    const uint64_t n = ss.size();
    f.write(reinterpret_cast<const char*>(&client), sizeof(client));
    f.write(reinterpret_cast<const char*>(&n), sizeof(n));
    f.write(reinterpret_cast<const char*>(ss.data()),
            static_cast<std::streamsize>(n * sizeof(Span)));
  }
  return static_cast<bool>(f);
}

void PrintResult(const Verdict& v, uint64_t attempted, uint64_t failed,
                 const MetricDef* defs, size_t n, const Values& values) {
  std::string out = "{\"correct\": ";
  out += v.failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < n; i++) {
    auto it = values.find(defs[i].name);
    char num[64];
    std::snprintf(num, sizeof(num), "%.12g",
                  it == values.end() ? 0.0 : it->second);
    out += std::string(i ? ", " : "") + "\"" + defs[i].name +
           "\": {\"value\": " + num + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// The run so far, for the report that a stuck client forces.
struct Progress {
  Verdict verdict;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool traced = false;
};
Progress g_progress;

// A client never came back from an engine call, so the phase cannot be
// joined or checked. Report the run as incorrect, with the stuck
// transaction counted as failed, and end the process without joining.
[[noreturn]] void ReportStuck() {
  Progress& p = g_progress;
  p.verdict.failures.push_back(
      "a client had not finished its round " +
      std::to_string(kStuckNs / 1'000'000'000) +
      " s after the deadline (stuck in the engine)");
  for (const auto& f : p.verdict.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  PrintResult(p.verdict, p.attempted + 1, p.failed + 1,
              p.traced ? kPerLayer : kEndToEnd,
              p.traced ? std::size(kPerLayer) : std::size(kEndToEnd), {});
  std::fflush(stdout);
  std::_Exit(0);
}

using Factory = std::unique_ptr<Workload> (*)(std::string, uint64_t);

Factory FactoryFor(const std::string& name) {
  if (name == "sibench-hot") return MakeSibench;
  if (name == "dbt2-durable") return MakeDbt2;
  if (name == "rubis-wire") return MakeRubis;
  return nullptr;
}

// Sets up a fresh instance; a set-up failure ends the program.
std::unique_ptr<Workload> Fresh(Factory make, const std::string& dir,
                                uint64_t seed) {
  auto w = make(dir, seed);
  Status st = w->Setup();
  if (!st.ok()) {
    std::fprintf(stderr, "pgssi_benchmark: set-up failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  return w;
}

void Account(const PhaseStats& p, uint64_t* attempted, uint64_t* failed,
             Verdict* v) {
  *attempted += p.total.attempted;
  *failed += p.total.failed;
  v->Expect(p.total.errors == 0,
            std::to_string(p.total.errors) +
                " transactions failed with an unexpected error, first: " +
                p.total.first_error);
  v->Expect(p.total.committed > 0, "no transaction committed");
}

int Main(int argc, char** argv) {
  const uint64_t t_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pgssi_benchmark --workload "
                 "sibench-hot|dbt2-durable|rubis-wire --seed N --seconds S "
                 "--trace 0|1 --state-dir DIR [--trace-out FILE]\n"
                 "       pgssi_benchmark --self-test\n");
    return 2;
  }
  const std::vector<std::string> misjudged = SelfTest();
  if (args.self_test) {
    for (const auto& m : misjudged) std::printf("MISJUDGED %s\n", m.c_str());
    std::printf("checker self-test: %s\n", misjudged.empty() ? "ok" : "FAILED");
    return misjudged.empty() ? 0 : 1;
  }
  const Factory make = FactoryFor(args.workload);
  if (make == nullptr) {
    std::fprintf(stderr, "pgssi_benchmark: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  const bool traced = args.trace == 1;
  g_progress.traced = traced;
  g_stuck_handler = ReportStuck;
  Verdict& verdict = g_progress.verdict;
  for (const auto& m : misjudged) verdict.failures.push_back("checker " + m);
  uint64_t& attempted = g_progress.attempted;
  uint64_t& failed = g_progress.failed;
  Values values;
  const double half = args.seconds / 2;
  const std::string dir = args.state_dir + "/";

  PhaseStats ssi;
  double setup_s = 0;
  {
    auto w = Fresh(make, dir + "ssi", args.seed);
    setup_s = static_cast<double>(NowNs() - t_start) / 1e9;
    ssi = w->Run(IsolationLevel::kSerializable, half, /*traced=*/false);
    w->Check(ssi, &verdict);
  }
  Account(ssi, &attempted, &failed, &verdict);

  if (!traced) {
    auto w = Fresh(make, dir + "si", args.seed);
    PhaseStats si = w->Run(IsolationLevel::kRepeatableRead, half, false);
    w->Check(si, &verdict);
    Account(si, &attempted, &failed, &verdict);
    values["setup_s"] = setup_s;
    values["txn_per_s"] = ssi.txn_per_s();
    values["si_txn_per_s"] = si.txn_per_s();
    values["rw_p50_us"] = ssi.latency_us(false, 0.5);
    values["rw_p99_us"] = ssi.latency_us(false, 0.99);
    values["ro_p50_us"] = ssi.latency_us(true, 0.5);
    values["ro_p99_us"] = ssi.latency_us(true, 0.99);
    values["peak_rss_mb"] = PeakRssMb();
  } else {
    auto w = Fresh(make, dir + "traced", args.seed);
    LatencyHist ping;
    w->MeasurePing(&ping);
    PhaseStats p = w->Run(IsolationLevel::kSerializable, half, true);
    w->Check(p, &verdict);
    Account(p, &attempted, &failed, &verdict);
    w->AddLayerMetrics(p, &values);
    DeriveLayerMetrics(ssi, p, ping, &values);
    if (!args.trace_out.empty() && !WriteSpans(args.trace_out, p)) {
      std::fprintf(stderr, "pgssi_benchmark: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }

  for (const auto& f : verdict.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  PrintResult(verdict, attempted, failed, traced ? kPerLayer : kEndToEnd,
              traced ? std::size(kPerLayer) : std::size(kEndToEnd), values);
  return 0;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) { return bench::Main(argc, argv); }
