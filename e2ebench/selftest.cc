// Self-test of the benchmark's output checks: each check must accept a clean
// output and reject a planted fault — a violating row pair, a dropped or
// reordered chunk, a wrong last flag, an out-of-domain cell, a changed
// digest and an overspent budget. Exits 0 when every check behaves.
//
//   e2e_selftest

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "e2ebench/checks.h"
#include "kamino/data/chunk_codec.h"
#include "kamino/data/generators.h"

namespace kamino::e2ebench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%-52s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

void ExpectAccepts(const Status& st, const std::string& what) {
  Expect(st.ok(), "accepts " + what);
  if (!st.ok()) std::printf("  %s\n", st.ToString().c_str());
}

void ExpectRejects(const Status& st, const std::string& what) {
  Expect(!st.ok(), "rejects " + what);
}

// `table` cut into `shards` contiguous chunks, compressed when asked.
std::vector<DeliveredChunk> Chunk(const Table& table, size_t shards,
                                  bool compress) {
  std::vector<DeliveredChunk> out;
  const size_t n = table.num_rows();
  const size_t width = (n + shards - 1) / shards;
  for (size_t s = 0; s < shards; ++s) {
    DeliveredChunk c;
    c.shard = s;
    c.row_offset = s * width;
    c.num_rows = std::min(width, n - c.row_offset);
    c.last = s + 1 == shards;
    Table slice = table.Slice(c.row_offset, c.num_rows);
    if (compress) {
      c.encoded = EncodeChunkColumns(slice);
    } else {
      c.rows = std::move(slice);
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<WeightedConstraint> Parse(const BenchmarkDataset& ds) {
  Result<std::vector<WeightedConstraint>> dcs =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema());
  Expect(dcs.ok(), "parses the generator's DCs");
  return dcs.ok() ? std::move(dcs).TakeValue()
                  : std::vector<WeightedConstraint>{};
}

void TestHardDcs() {
  const BenchmarkDataset ds = MakeTaxLike(300, 11);
  const std::vector<WeightedConstraint> dcs = Parse(ds);
  ExpectAccepts(CheckHardDcs(ds.table, dcs), "a DC-exact instance");
  // Plant one violating pair of the first FD: row 1 copies row 0's
  // left-hand side and takes a different right-hand-side value.
  std::vector<size_t> lhs;
  size_t rhs = 0;
  Expect(dcs[0].dc.AsFd(&lhs, &rhs), "first tax DC is an FD");
  Table bad = ds.table;
  for (size_t a : lhs) bad.set(1, a, bad.at(0, a));
  const Attribute& attr = bad.schema().attribute(rhs);
  const int32_t other =
      (bad.at(0, rhs).category() + 1) %
      static_cast<int32_t>(attr.categories().size());
  bad.set(1, rhs, Value::Categorical(other));
  ExpectRejects(CheckHardDcs(bad, dcs), "a violating row pair");
}

void TestTiling() {
  const BenchmarkDataset ds = MakeAdultLike(203, 5);
  for (bool compress : {false, true}) {
    const std::string form = compress ? " (compressed)" : "";
    const std::vector<DeliveredChunk> chunks = Chunk(ds.table, 4, compress);
    ExpectAccepts(CheckChunkTiling(chunks, 203, 4), "in-order chunks" + form);
    Result<Table> whole = AssembleChunks(chunks, ds.table.schema());
    Expect(whole.ok() && TableDigest(whole.value()) == TableDigest(ds.table),
           "reassembles the delivered rows" + form);

    std::vector<DeliveredChunk> dropped = Chunk(ds.table, 4, compress);
    dropped.erase(dropped.begin() + 2);
    ExpectRejects(CheckChunkTiling(dropped, 203, 4), "a dropped chunk" + form);

    std::vector<DeliveredChunk> swapped = Chunk(ds.table, 4, compress);
    std::swap(swapped[1], swapped[2]);
    ExpectRejects(CheckChunkTiling(swapped, 203, 4),
                  "a reordered chunk" + form);

    std::vector<DeliveredChunk> early_last = Chunk(ds.table, 4, compress);
    early_last[1].last = true;
    ExpectRejects(CheckChunkTiling(early_last, 203, 4),
                  "an early last flag" + form);
  }
}

void TestDomains() {
  const BenchmarkDataset ds = MakeAdultLike(100, 3);
  ExpectAccepts(CheckDomains(ds.table), "in-domain cells");
  const Schema& schema = ds.table.schema();
  for (size_t c = 0; c < schema.size(); ++c) {
    Table bad = ds.table;
    const Attribute& attr = schema.attribute(c);
    if (attr.is_categorical()) {
      bad.set(7, c, Value::Categorical(
                        static_cast<int32_t>(attr.categories().size())));
    } else {
      bad.set(7, c, Value::Numeric(attr.max_value() + 1.0));
    }
    if (CheckDomains(bad).ok()) {
      ExpectRejects(Status::OK(), "an out-of-domain cell in " + attr.name());
      return;
    }
  }
  Expect(true, "rejects an out-of-domain cell in every column");
}

void TestDigestAndBudget() {
  const BenchmarkDataset ds = MakeBr2000Like(120, 9);
  const uint64_t digest = TableDigest(ds.table);
  ExpectAccepts(CheckSameDigest(digest, TableDigest(ds.table), "same rows"),
                "an unchanged digest");
  Table changed = ds.table;
  const Attribute& attr = changed.schema().attribute(0);
  changed.set(60, 0,
              Value::Categorical(
                  (changed.at(60, 0).category() + 1) %
                  static_cast<int32_t>(attr.categories().size())));
  ExpectRejects(CheckSameDigest(digest, TableDigest(changed), "one cell"),
                "a changed digest");
  ExpectAccepts(CheckEpsilon(0.98, 1.0), "epsilon within budget");
  ExpectRejects(CheckEpsilon(1.0000001, 1.0), "epsilon over budget");
}

}  // namespace
}  // namespace kamino::e2ebench

int main() {
  using namespace kamino::e2ebench;
  TestHardDcs();
  TestTiling();
  TestDomains();
  TestDigestAndBudget();
  std::printf("self-test: %s\n", g_failures == 0 ? "all checks behave"
                                                 : "CHECKS BROKEN");
  return g_failures == 0 ? 0 : 1;
}
