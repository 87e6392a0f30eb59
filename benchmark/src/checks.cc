#include "checks.h"

#include <map>
#include <utility>

namespace bench {

void CheckSibench(const SibenchState& s, const SibenchCounts& c,
                  uint64_t rows, const std::string& phase, Verdict* v) {
  uint64_t sum = 0;
  for (uint64_t x : s.values) sum += x;
  v->Expect(s.values.size() == rows, phase + ": table holds " +
                                         std::to_string(s.values.size()) +
                                         " rows, loaded " +
                                         std::to_string(rows));
  v->Expect(sum == c.committed_updates,
            phase + ": sum of row values " + std::to_string(sum) +
                " != committed updates " +
                std::to_string(c.committed_updates));
  v->Expect(c.short_queries == 0, phase + ": " +
                                      std::to_string(c.short_queries) +
                                      " queries did not see every row");
}

void CheckDbt2(const Dbt2State& s, const Dbt2Counts& c,
               const std::string& phase, Verdict* v) {
  bool counters_ok = s.next_order_id.size() == s.orders.size();
  for (size_t d = 0; counters_ok && d < s.orders.size(); d++) {
    counters_ok = s.next_order_id[d] == s.orders[d] + 1;
  }
  v->Expect(counters_ok,
            phase + ": a district's next order id - 1 != its order rows");
  uint64_t per_district = 0;
  for (uint64_t n : s.orders) per_district += n;
  v->Expect(per_district == s.total_orders,
            phase + ": order rows by district != order rows in total");
  v->Expect(s.total_orders == c.committed_new_orders,
            phase + ": order rows " + std::to_string(s.total_orders) +
                " != committed new-orders " +
                std::to_string(c.committed_new_orders));
  bool range_ok = true;
  int64_t moved = 0;  // sum of (100 - quantity)
  for (int64_t q : s.stock_quantity) {
    range_ok = range_ok && q >= 1 && q <= 101;
    moved += 100 - q;
  }
  v->Expect(range_ok, phase + ": a stock quantity lies outside [1, 101]");
  // Each order line moves a quantity by -10 or +91, both -10 (mod 101),
  // and a new-order has five lines.
  const int64_t lhs = ((moved % 101) + 101) % 101;
  const int64_t rhs =
      static_cast<int64_t>((50 * (c.committed_new_orders % 101)) % 101);
  v->Expect(lhs == rhs, phase +
                            ": sum(100 - quantity) mod 101 != 50 x "
                            "committed new-orders mod 101");
  v->Expect(c.short_windows == 0,
            phase + ": " + std::to_string(c.short_windows) +
                " stock-level scans did not see their whole window");
}

void CheckDbt2Restart(const Dbt2State& before, const Dbt2State& after,
                      Verdict* v) {
  v->Expect(before.next_order_id == after.next_order_id,
            "restart: a district counter differs after the reopen");
  v->Expect(before.total_orders == after.total_orders,
            "restart: order count differs after the reopen");
  v->Expect(before.stock_quantity == after.stock_quantity,
            "restart: a stock quantity differs after the reopen");
}

void CheckRubis(const RubisState& s, const RubisCounts& c, bool serializable,
                const std::string& phase, Verdict* v) {
  v->Expect(s.bids.size() == c.committed_bids,
            phase + ": bid rows " + std::to_string(s.bids.size()) +
                " != committed bids " + std::to_string(c.committed_bids));
  v->Expect(s.closings.size() == c.committed_closes,
            phase + ": closing rows " + std::to_string(s.closings.size()) +
                " != committed closes " + std::to_string(c.committed_closes));
  uint64_t epochs = 0;
  for (uint64_t e : s.item_epoch) epochs += e;
  v->Expect(epochs == s.closings.size(),
            phase + ": sum of item epochs != closing rows");
  if (!serializable) return;
  std::map<std::pair<uint32_t, uint64_t>, uint64_t> max_bid;
  for (const RubisBid& b : s.bids) {
    uint64_t& m = max_bid[{b.item, b.epoch}];
    if (b.amount > m) m = b.amount;
  }
  uint64_t skewed = 0;
  for (const RubisBid& cl : s.closings) {
    auto it = max_bid.find({cl.item, cl.epoch});
    if (it != max_bid.end() && it->second > cl.amount) skewed++;
  }
  v->Expect(skewed == 0, phase + ": " + std::to_string(skewed) +
                             " closings record less than a bid of their "
                             "epoch (write skew)");
}

void CheckCommitSeq(uint64_t seq_advance, uint64_t committed_writers,
                    const std::string& phase, Verdict* v) {
  v->Expect(seq_advance == committed_writers,
            phase + ": commit sequence advanced " +
                std::to_string(seq_advance) + ", clients committed " +
                std::to_string(committed_writers) + " writing transactions");
}

void CheckOpsExecuted(uint64_t executed, uint64_t sent,
                      const std::string& phase, Verdict* v) {
  v->Expect(executed == sent, phase + ": server executed " +
                                  std::to_string(executed) +
                                  " ops, clients sent " +
                                  std::to_string(sent));
}

// ----- self-test -----

namespace {

// `pass` must produce no failure; `fail` exactly the wrong-input case.
template <class Good, class Bad>
void Probe(const std::string& name, Good good, Bad bad,
           std::vector<std::string>* out) {
  Verdict g, b;
  good(&g);
  bad(&b);
  if (!g.failures.empty()) out->push_back(name + ": rejects a right input");
  if (b.failures.empty()) out->push_back(name + ": accepts a wrong input");
}

}  // namespace

std::vector<std::string> SelfTest() {
  std::vector<std::string> out;

  const SibenchState sib{{3, 0, 2}};
  const SibenchCounts sibc{5, 7, 0};
  auto sib_ok = [&](Verdict* v) { CheckSibench(sib, sibc, 3, "t", v); };
  Probe("sibench sum", sib_ok, [&](Verdict* v) {
    SibenchCounts c = sibc;
    c.committed_updates++;  // a lost update
    CheckSibench(sib, c, 3, "t", v);
  }, &out);
  Probe("sibench rows", sib_ok, [&](Verdict* v) {
    CheckSibench(SibenchState{{3, 2}}, SibenchCounts{5, 7, 0}, 3, "t", v);
  }, &out);
  Probe("sibench query rows", sib_ok, [&](Verdict* v) {
    SibenchCounts c = sibc;
    c.short_queries = 1;
    CheckSibench(sib, c, 3, "t", v);
  }, &out);

  // Two districts with 2 and 0 orders; lines moved two quantities by
  // -10 each order (5 lines x 2 orders = 100 units).
  Dbt2State d;
  d.next_order_id = {3, 1};
  d.orders = {2, 0};
  d.total_orders = 2;
  d.stock_quantity = {50, 50, 100};
  const Dbt2Counts dc{2, 4, 0};
  auto d_ok = [&](Verdict* v) { CheckDbt2(d, dc, "t", v); };
  Probe("dbt2 district counter", d_ok, [&](Verdict* v) {
    Dbt2State s = d;
    s.next_order_id[1] = 2;  // counter bumped, order row missing
    CheckDbt2(s, dc, "t", v);
  }, &out);
  Probe("dbt2 total orders", d_ok, [&](Verdict* v) {
    Dbt2Counts c = dc;
    c.committed_new_orders = 3;
    CheckDbt2(d, c, "t", v);
  }, &out);
  Probe("dbt2 quantity range", d_ok, [&](Verdict* v) {
    Dbt2State s = d;
    s.stock_quantity = {-1, 101, 100};  // same sum, out of range
    CheckDbt2(s, dc, "t", v);
  }, &out);
  Probe("dbt2 quantity sum", d_ok, [&](Verdict* v) {
    Dbt2State s = d;
    s.stock_quantity[0] = 60;  // one order line's update was lost
    CheckDbt2(s, dc, "t", v);
  }, &out);
  Probe("dbt2 stock window", d_ok, [&](Verdict* v) {
    Dbt2Counts c = dc;
    c.short_windows = 1;
    CheckDbt2(d, c, "t", v);
  }, &out);
  Probe("dbt2 restart", [&](Verdict* v) { CheckDbt2Restart(d, d, v); },
        [&](Verdict* v) {
          Dbt2State s = d;
          s.next_order_id[0] = 2;  // the last acknowledged order is gone
          s.total_orders = 1;
          CheckDbt2Restart(d, s, v);
        },
        &out);

  RubisState r;
  r.item_epoch = {1, 0};
  r.bids = {{0, 0, 30}, {0, 1, 5}, {1, 0, 7}};
  r.closings = {{0, 0, 30}};
  const RubisCounts rc{10, 3, 1};
  auto r_ok = [&](Verdict* v) { CheckRubis(r, rc, true, "t", v); };
  Probe("rubis write skew", r_ok, [&](Verdict* v) {
    RubisState s = r;
    s.bids.push_back({0, 0, 31});  // a bid the closing missed
    RubisCounts c = rc;
    c.committed_bids++;
    CheckRubis(s, c, true, "t", v);
  }, &out);
  Probe("rubis bid count", r_ok, [&](Verdict* v) {
    RubisCounts c = rc;
    c.committed_bids = 4;
    CheckRubis(r, c, true, "t", v);
  }, &out);
  Probe("rubis closing count", r_ok, [&](Verdict* v) {
    RubisCounts c = rc;
    c.committed_closes = 2;
    CheckRubis(r, c, true, "t", v);
  }, &out);
  Probe("rubis epochs", r_ok, [&](Verdict* v) {
    RubisState s = r;
    s.item_epoch[1] = 1;  // reopened without a closing
    CheckRubis(s, rc, true, "t", v);
  }, &out);

  Probe("commit sequence", [](Verdict* v) { CheckCommitSeq(9, 9, "t", v); },
        [](Verdict* v) { CheckCommitSeq(9, 8, "t", v); }, &out);
  Probe("ops executed", [](Verdict* v) { CheckOpsExecuted(40, 40, "t", v); },
        [](Verdict* v) { CheckOpsExecuted(39, 40, "t", v); }, &out);
  return out;
}

}  // namespace bench
