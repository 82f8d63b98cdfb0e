#ifndef LDV_PERFBENCH_ORACLE_H_
#define LDV_PERFBENCH_ORACLE_H_

// Naive evaluator: the expected outputs of every workload, computed from the
// generated tables' stored rows (Table::rows()) with plain loops, never
// through the engine's parser, planner or operators.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "storage/database.h"

namespace perfbench {

/// A base tuple: (table name, rowid). The generated data has one version
/// per row, so this names the version a query read.
using BaseRow = std::pair<std::string, int64_t>;

class Oracle {
 public:
  /// Copies what the checks need out of a freshly generated database.
  explicit Oracle(const ldv::storage::Database& db);

  struct QueryAnswer {
    /// Result rows, and for count(*) queries the counted value.
    int64_t rows = 0;
    int64_t count_value = -1;
    /// Base rows that feed at least one result row.
    std::set<BaseRow> lineage;
  };
  /// One Table II query by id ("Q1-1" .. "Q4-5").
  QueryAnswer Answer(const std::string& query_id) const;

  struct CustomerOrders {
    int64_t count = 0;
    double sum = 0;
  };
  /// count(*), sum(o_totalprice) of the orders of customer `custkey`.
  CustomerOrders OrdersOf(int64_t custkey) const;

  /// Rowids of the orders of customer `custkey`.
  std::vector<int64_t> OrderRowIdsOf(int64_t custkey) const;

  /// Rowid of the generated order with key `orderkey`; -1 if none.
  int64_t OrderRowId(int64_t orderkey) const;
  const std::string& OriginalComment(int64_t orderkey) const;

  /// Tuples a server-included package must hold: the union of the queries'
  /// lineage and the original orders rows matched by the UPDATEs (a second
  /// update of a key matches a version the application created itself,
  /// which LDV does not package).
  int64_t ExpectedPackagedTuples(const std::vector<std::string>& query_ids,
                                 const std::vector<int64_t>& update_keys) const;

  int64_t num_orders() const { return static_cast<int64_t>(orders_.size()); }
  int64_t num_customers() const {
    return static_cast<int64_t>(customers_.size());
  }

 private:
  struct Customer {
    int64_t rowid;
    int64_t custkey;
    std::string name;
  };
  struct Order {
    int64_t rowid;
    int64_t orderkey;
    int64_t custkey;
    double totalprice;
    std::string comment;
  };
  struct Lineitem {
    int64_t rowid;
    int64_t orderkey;
    int64_t suppkey;
  };
  std::vector<Customer> customers_;
  std::vector<Order> orders_;
  std::vector<Lineitem> lineitems_;
  std::map<int64_t, size_t> order_index_;     // orderkey -> orders_ slot
  std::map<int64_t, size_t> customer_index_;  // custkey -> customers_ slot
  std::map<int64_t, std::vector<size_t>> orders_of_;  // custkey -> slots
};

}  // namespace perfbench

#endif  // LDV_PERFBENCH_ORACLE_H_
