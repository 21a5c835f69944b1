#include "e2ebench/checks.h"

#include <cstring>

#include "kamino/data/chunk_codec.h"
#include "kamino/dc/violations.h"
#include "kamino/io/bytes.h"

namespace kamino::e2ebench {

Status CheckChunkTiling(const std::vector<DeliveredChunk>& chunks,
                        size_t num_rows, size_t num_shards) {
  if (chunks.size() != num_shards) {
    return Status::Internal("delivered " + std::to_string(chunks.size()) +
                            " chunks for " + std::to_string(num_shards) +
                            " shards");
  }
  size_t next = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    const DeliveredChunk& c = chunks[i];
    if (c.shard != i) {
      return Status::Internal("chunk " + std::to_string(i) +
                              " carries shard " + std::to_string(c.shard));
    }
    if (c.row_offset != next) {
      return Status::Internal("chunk " + std::to_string(i) + " starts at " +
                              std::to_string(c.row_offset) + ", expected " +
                              std::to_string(next));
    }
    if (c.last != (i + 1 == chunks.size())) {
      return Status::Internal("chunk " + std::to_string(i) +
                              " has a wrong last flag");
    }
    next += c.num_rows;
  }
  if (next != num_rows) {
    return Status::Internal("chunks cover " + std::to_string(next) +
                            " rows, expected " + std::to_string(num_rows));
  }
  return Status::OK();
}

Result<Table> AssembleChunks(const std::vector<DeliveredChunk>& chunks,
                             const Schema& schema) {
  Table out(schema);
  for (const DeliveredChunk& c : chunks) {
    if (c.encoded.empty()) {
      if (c.rows.num_rows() != c.num_rows) {
        return Status::Internal("chunk row count disagrees with its rows");
      }
      out.AppendRowsFrom(c.rows, 0, c.rows.num_rows());
      continue;
    }
    KAMINO_ASSIGN_OR_RETURN(Table rows, DecodeChunkColumns(schema, c.encoded));
    if (rows.num_rows() != c.num_rows) {
      return Status::Internal("decoded chunk row count disagrees");
    }
    out.AppendRowsFrom(rows, 0, rows.num_rows());
  }
  return out;
}

Status CheckDomains(const Table& table) {
  const Schema& schema = table.schema();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Attribute& attr = schema.attribute(c);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (!attr.Contains(table.at(r, c))) {
        return Status::Internal("cell (" + std::to_string(r) + ", " +
                                attr.name() + ") lies outside its domain");
      }
    }
  }
  return Status::OK();
}

Status CheckHardDcs(const Table& table,
                    const std::vector<WeightedConstraint>& constraints) {
  for (size_t l = 0; l < constraints.size(); ++l) {
    if (!constraints[l].hard) continue;
    const int64_t v = CountViolationsNaive(constraints[l].dc, table);
    if (v != 0) {
      return Status::Internal("hard DC " + std::to_string(l) + " has " +
                              std::to_string(v) + " violations");
    }
  }
  return Status::OK();
}

Status CheckEpsilon(double spent, double budget) {
  if (!(spent <= budget)) {
    return Status::Internal("fit spent epsilon " + std::to_string(spent) +
                            " over its budget " + std::to_string(budget));
  }
  return Status::OK();
}

Status CheckSameDigest(uint64_t expected, uint64_t actual,
                       const std::string& what) {
  if (expected != actual) {
    return Status::Internal(what + ": output digest changed");
  }
  return Status::OK();
}

uint64_t TableDigest(const Table& table) {
  uint64_t h = io::Splitmix64(table.num_rows() ^ io::Splitmix64(table.num_columns()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.schema().attribute(c).is_categorical()) {
      for (int32_t code : table.code_data(c)) {
        h = io::Splitmix64(h ^ static_cast<uint32_t>(code));
      }
    } else {
      for (double v : table.numeric_data(c)) {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        h = io::Splitmix64(h ^ bits);
      }
    }
  }
  return h;
}

}  // namespace kamino::e2ebench
