#ifndef KAMINO_E2EBENCH_CHECKS_H_
#define KAMINO_E2EBENCH_CHECKS_H_

// Property checks on one synthesis request's delivered output. Each check
// tests a property the method must have (streaming order, domains, hard-DC
// exactness by the naive pair scan, the privacy budget, determinism), never
// a stored copy of an earlier output. `selftest.cc` plants one fault per
// check and asserts that the check rejects it.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kamino/common/status.h"
#include "kamino/data/table.h"
#include "kamino/dc/constraint.h"

namespace kamino::e2ebench {

/// What the benchmark's sink saw of one delivered chunk, in arrival order.
/// Exactly one of `rows` (materialized delivery) and `encoded` (compressed
/// delivery) carries the slice.
struct DeliveredChunk {
  size_t shard = 0;
  size_t row_offset = 0;
  size_t num_rows = 0;
  bool last = false;
  Table rows;
  std::vector<uint8_t> encoded;
};

/// Chunks arrive in ascending offset order, one per shard (shard s is the
/// s-th chunk), tile [0, n) without gap or overlap, and only the final
/// chunk has `last` set.
Status CheckChunkTiling(const std::vector<DeliveredChunk>& chunks,
                        size_t num_rows, size_t num_shards);

/// Concatenates the delivered chunks (decoding compressed payloads against
/// `schema`) into one table, in arrival order.
Result<Table> AssembleChunks(const std::vector<DeliveredChunk>& chunks,
                             const Schema& schema);

/// Every cell lies in its attribute's public domain.
Status CheckDomains(const Table& table);

/// Every hard DC has zero violations, counted by `CountViolationsNaive`
/// (the reference pair scan, a separate path from the index engines that
/// sampling and merging use). Zero over the whole delivered instance means
/// zero over every delivered prefix: a prefix's violating pairs are a
/// subset of the whole's.
Status CheckHardDcs(const Table& table,
                    const std::vector<WeightedConstraint>& constraints);

/// The fit spent no more than its budget.
Status CheckEpsilon(double spent, double budget);

/// Two runs that must agree produced the same output digest.
Status CheckSameDigest(uint64_t expected, uint64_t actual,
                       const std::string& what);

/// Order-sensitive digest of every cell (categorical codes and numeric bit
/// patterns, column-major) plus the shape.
uint64_t TableDigest(const Table& table);

}  // namespace kamino::e2ebench

#endif  // KAMINO_E2EBENCH_CHECKS_H_
