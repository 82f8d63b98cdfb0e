#include "oracle.h"

#include <cstdlib>

#include "common/logging.h"
#include "tpch/queries.h"

namespace perfbench {

namespace {

const ldv::storage::Table& TableOrDie(const ldv::storage::Database& db,
                                      const char* name) {
  const ldv::storage::Table* table = db.FindTable(name);
  LDV_CHECK(table != nullptr);
  return *table;
}

int Column(const ldv::storage::Table& table, const char* name) {
  int index = table.schema().IndexOf(name);
  LDV_CHECK(index >= 0);
  return index;
}

}  // namespace

Oracle::Oracle(const ldv::storage::Database& db) {
  const auto& customer = TableOrDie(db, "customer");
  const int c_custkey = Column(customer, "c_custkey");
  const int c_name = Column(customer, "c_name");
  for (const ldv::storage::RowVersion& row : customer.rows()) {
    if (row.deleted) continue;
    customer_index_[row.values[c_custkey].AsInt()] = customers_.size();
    customers_.push_back({row.rowid, row.values[c_custkey].AsInt(),
                          row.values[c_name].AsString()});
  }
  const auto& orders = TableOrDie(db, "orders");
  const int o_orderkey = Column(orders, "o_orderkey");
  const int o_custkey = Column(orders, "o_custkey");
  const int o_totalprice = Column(orders, "o_totalprice");
  const int o_comment = Column(orders, "o_comment");
  for (const ldv::storage::RowVersion& row : orders.rows()) {
    if (row.deleted) continue;
    order_index_[row.values[o_orderkey].AsInt()] = orders_.size();
    orders_of_[row.values[o_custkey].AsInt()].push_back(orders_.size());
    orders_.push_back({row.rowid, row.values[o_orderkey].AsInt(),
                       row.values[o_custkey].AsInt(),
                       row.values[o_totalprice].AsDouble(),
                       row.values[o_comment].AsString()});
  }
  const auto& lineitem = TableOrDie(db, "lineitem");
  const int l_orderkey = Column(lineitem, "l_orderkey");
  const int l_suppkey = Column(lineitem, "l_suppkey");
  for (const ldv::storage::RowVersion& row : lineitem.rows()) {
    if (row.deleted) continue;
    lineitems_.push_back({row.rowid, row.values[l_orderkey].AsInt(),
                          row.values[l_suppkey].AsInt()});
  }
}

Oracle::QueryAnswer Oracle::Answer(const std::string& query_id) const {
  auto spec = ldv::tpch::FindQuery(query_id);
  LDV_CHECK(spec.ok());
  QueryAnswer answer;
  if (spec->family == 1 || spec->family == 4) {
    // l_suppkey BETWEEN 1 AND p; family 4 joins orders and groups by order.
    const int64_t p = std::atoll(spec->param.c_str());
    std::set<int64_t> groups;
    for (const Lineitem& l : lineitems_) {
      if (l.suppkey < 1 || l.suppkey > p) continue;
      if (spec->family == 1) {
        ++answer.rows;
        answer.lineage.insert({"lineitem", l.rowid});
        continue;
      }
      auto order = order_index_.find(l.orderkey);
      if (order == order_index_.end()) continue;
      groups.insert(l.orderkey);
      answer.lineage.insert({"lineitem", l.rowid});
      answer.lineage.insert({"orders", orders_[order->second].rowid});
    }
    if (spec->family == 4) answer.rows = static_cast<int64_t>(groups.size());
    return answer;
  }
  // Families 2 and 3: lineitem ⋈ orders ⋈ customer with c_name LIKE '%p%';
  // family 3 counts the joined rows.
  int64_t joined = 0;
  for (const Lineitem& l : lineitems_) {
    auto order = order_index_.find(l.orderkey);
    if (order == order_index_.end()) continue;
    const Order& o = orders_[order->second];
    auto cust = customer_index_.find(o.custkey);
    if (cust == customer_index_.end()) continue;
    const Customer& c = customers_[cust->second];
    if (c.name.find(spec->param) == std::string::npos) continue;
    ++joined;
    answer.lineage.insert({"lineitem", l.rowid});
    answer.lineage.insert({"orders", o.rowid});
    answer.lineage.insert({"customer", c.rowid});
  }
  if (spec->family == 2) {
    answer.rows = joined;
  } else {
    answer.rows = 1;
    answer.count_value = joined;
  }
  return answer;
}

Oracle::CustomerOrders Oracle::OrdersOf(int64_t custkey) const {
  CustomerOrders out;
  auto it = orders_of_.find(custkey);
  if (it == orders_of_.end()) return out;
  for (size_t slot : it->second) {
    ++out.count;
    out.sum += orders_[slot].totalprice;
  }
  return out;
}

std::vector<int64_t> Oracle::OrderRowIdsOf(int64_t custkey) const {
  std::vector<int64_t> out;
  auto it = orders_of_.find(custkey);
  if (it == orders_of_.end()) return out;
  for (size_t slot : it->second) out.push_back(orders_[slot].rowid);
  return out;
}

int64_t Oracle::OrderRowId(int64_t orderkey) const {
  auto it = order_index_.find(orderkey);
  return it == order_index_.end() ? -1 : orders_[it->second].rowid;
}

const std::string& Oracle::OriginalComment(int64_t orderkey) const {
  auto it = order_index_.find(orderkey);
  LDV_CHECK(it != order_index_.end());
  return orders_[it->second].comment;
}

int64_t Oracle::ExpectedPackagedTuples(
    const std::vector<std::string>& query_ids,
    const std::vector<int64_t>& update_keys) const {
  std::set<BaseRow> rows;
  for (const std::string& id : query_ids) {
    QueryAnswer answer = Answer(id);
    rows.insert(answer.lineage.begin(), answer.lineage.end());
  }
  for (int64_t key : update_keys) {
    int64_t rowid = OrderRowId(key);
    if (rowid >= 0) rows.insert({"orders", rowid});
  }
  return static_cast<int64_t>(rows.size());
}

}  // namespace perfbench
