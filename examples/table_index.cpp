// Relational-table example: the paper's closing vision (Sect. 5: the
// PH-tree as "a compact and fully indexed table of a relational database").
// Each row of an orders table becomes one k-dimensional integer key; the
// tree is simultaneously the table storage and a composite index over ALL
// columns, so any conjunction of per-column range predicates is a single
// window query — no per-column secondary indexes.
#include <cstdio>
#include <cinttypes>

#include "common/rng.h"
#include "phtree/cursor.h"
#include "phtree/phtree.h"

namespace {

// Schema: orders(order_id, customer_id, amount_cents, day).
constexpr uint32_t kColumns = 4;

struct Order {
  uint64_t order_id;
  uint64_t customer_id;
  uint64_t amount_cents;
  uint64_t day;  // days since epoch
};

phtree::PhKey RowKey(const Order& o) {
  return phtree::PhKey{o.order_id, o.customer_id, o.amount_cents, o.day};
}

}  // namespace

int main() {
  phtree::PhTree table(kColumns);
  phtree::Rng rng(2026);

  // Load 200k orders: skewed customers, clustered days.
  const size_t kRows = 200000;
  for (size_t i = 0; i < kRows; ++i) {
    Order o;
    o.order_id = i;
    o.customer_id = rng.NextBounded(5000) * rng.NextBounded(3);  // skew
    o.amount_cents = 100 + rng.NextBounded(500000);
    o.day = 19000 + rng.NextBounded(365);
    table.Insert(RowKey(o), /*row payload: e.g. heap tuple id*/ i);
  }
  const auto stats = table.ComputeStats();
  std::printf("orders table: %zu rows, %.1f bytes/row fully indexed on all "
              "%u columns (%zu nodes)\n",
              stats.n_entries, stats.BytesPerEntry(), kColumns,
              stats.n_nodes);
  std::printf("  raw row size: %u bytes -> index overhead %.1f bytes/row\n",
              kColumns * 8,
              stats.BytesPerEntry() - static_cast<double>(kColumns * 8));

  // SELECT count(*) WHERE customer_id = 1234 (point predicate on one
  // column = degenerate range; all other columns unbounded).
  const uint64_t kMax = ~uint64_t{0};
  phtree::PhKey lo{0, 1234, 0, 0};
  phtree::PhKey hi{kMax, 1234, kMax, kMax};
  std::printf("orders of customer 1234: %zu\n", table.CountWindow(lo, hi));

  // SELECT ... WHERE amount BETWEEN 4000_00 AND 5000_00 AND day IN march.
  lo = phtree::PhKey{0, 0, 400000, 19059};
  hi = phtree::PhKey{kMax, kMax, 500000, 19089};
  size_t n = 0;
  uint64_t sum_cents = 0;
  for (phtree::TreeCursor it(table, lo, hi); it.Valid(); it.Next()) {
    sum_cents += it.key()[2];
    ++n;
  }
  std::printf("big march orders: %zu rows, total %.2f\n", n,
              static_cast<double>(sum_cents) / 100.0);

  // DELETE WHERE order_id = 77 (primary-key access is also just a window).
  const auto hits = table.QueryWindow(phtree::PhKey{77, 0, 0, 0},
                                      phtree::PhKey{77, kMax, kMax, kMax});
  for (const auto& [key, value] : hits) {
    table.Erase(key);
  }
  std::printf("deleted order 77 (%zu versions); table now %zu rows\n",
              hits.size(), table.size());
  return 0;
}
