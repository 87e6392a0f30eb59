// Correctness checks, computed by the benchmark apart from the engine.
//
// Each check compares the final state, read back through the
// benchmark's own scans, with counts the clients kept while they ran.
// The checks are pure functions of plain data so that SelfTest() can
// feed each one a deliberately wrong input and confirm it objects.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace bench {

// ----- SIBENCH -----

struct SibenchState {
  std::vector<uint64_t> values;  // every row's counter, in key order
};
struct SibenchCounts {
  uint64_t committed_updates = 0;
  uint64_t committed_queries = 0;
  uint64_t short_queries = 0;  // committed queries that saw != rows rows
};
void CheckSibench(const SibenchState& s, const SibenchCounts& c,
                  uint64_t rows, const std::string& phase, Verdict* v);

// ----- DBT-2++ -----

struct Dbt2State {
  std::vector<uint64_t> next_order_id;    // per district
  std::vector<uint64_t> orders;           // order rows per district
  std::vector<int64_t> stock_quantity;    // every stock row
  uint64_t total_orders = 0;
};
struct Dbt2Counts {
  uint64_t committed_new_orders = 0;
  uint64_t committed_stock_levels = 0;
  uint64_t short_windows = 0;  // stock-level scans that saw != 20 rows
};
inline constexpr uint32_t kStockWindow = 20;
void CheckDbt2(const Dbt2State& s, const Dbt2Counts& c,
               const std::string& phase, Verdict* v);
/// Every acknowledged commit survived the restart.
void CheckDbt2Restart(const Dbt2State& before, const Dbt2State& after,
                      Verdict* v);

// ----- RUBiS -----

struct RubisBid {
  uint32_t item = 0;
  uint64_t epoch = 0;
  uint64_t amount = 0;
};
struct RubisState {
  std::vector<uint64_t> item_epoch;  // per item
  std::vector<RubisBid> bids;
  std::vector<RubisBid> closings;    // amount = recorded winning bid
};
struct RubisCounts {
  uint64_t committed_browses = 0;
  uint64_t committed_bids = 0;
  uint64_t committed_closes = 0;
};
/// `serializable`: also check the invariant that only SERIALIZABLE
/// guarantees (no closing below a bid of its epoch).
void CheckRubis(const RubisState& s, const RubisCounts& c, bool serializable,
                const std::string& phase, Verdict* v);

// ----- totals reached by two paths -----

/// The engine's commit-sequence advance against the writing
/// transactions the clients saw commit.
void CheckCommitSeq(uint64_t seq_advance, uint64_t committed_writers,
                    const std::string& phase, Verdict* v);
/// Server::stats().ops_executed against the calls the clients made.
void CheckOpsExecuted(uint64_t executed, uint64_t sent,
                      const std::string& phase, Verdict* v);

/// Runs every check above on a consistent input (must pass) and on
/// deliberately wrong inputs (each must fail). Returns the checks that
/// misjudged; empty when all behave.
std::vector<std::string> SelfTest();

}  // namespace bench
