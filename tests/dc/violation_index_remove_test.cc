// Property suites for editable violation indices: random AddRow/RemoveRow
// sequences over every DC shape (FD, co- and anti-monotone order, grouped
// order, composite strict/non-strict/!= mixes, never-firing, general)
// must leave each index answering exactly like a naive index rebuilt from
// the surviving rows — CountNew, size, Merge, CountAgainst, FdForcedValue
// — and `CountNewExcept` must equal the full-table pair scan it replaces
// in the sampler's MCMC and freeze-repair kernels.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kamino/common/rng.h"
#include "kamino/dc/violations.h"

namespace kamino {
namespace {

Schema TestSchema() {
  return Schema({
      Attribute::MakeCategorical("a", {"p", "q", "r"}),
      Attribute::MakeCategorical("b", {"s", "t", "u"}),
      Attribute::MakeNumeric("u", 0, 100, 101),
      Attribute::MakeNumeric("v", 0, 100, 101),
      Attribute::MakeNumeric("w", 0, 100, 101),
  });
}

/// A value of {-0.0, 0.0, 1, 2, 3}: a tiny domain, so duplicate rows and
/// equal order keys are everywhere, and both zero signs occur.
double SmallNumber(Rng* rng) {
  const int64_t k = rng->UniformInt(-1, 3);
  return k < 0 ? -0.0 : static_cast<double>(k);
}

Row RandomRow(Rng* rng) {
  return {Value::Categorical(static_cast<int>(rng->UniformInt(0, 2))),
          Value::Categorical(static_cast<int>(rng->UniformInt(0, 2))),
          Value::Numeric(SmallNumber(rng)), Value::Numeric(SmallNumber(rng)),
          Value::Numeric(SmallNumber(rng))};
}

/// Which index class a spec is meant to exercise.
enum class Kind { kFd, kOrder, kComposite, kNever, kGeneral };

struct Shape {
  const char* spec;
  Kind kind;
};

std::vector<Shape> BinaryShapes() {
  return {
      {"!(t1.a == t2.a & t1.b != t2.b)", Kind::kFd},
      {"!(t1.a == t2.a & t1.u != t2.u)", Kind::kFd},  // numeric RHS
      {"!(t1.u > t2.u & t1.v < t2.v)", Kind::kOrder},  // co-monotone
      {"!(t1.u > t2.u & t1.v > t2.v)", Kind::kOrder},  // anti-monotone
      {"!(t1.a == t2.a & t1.u > t2.u & t1.v < t2.v)", Kind::kOrder},
      {"!(t1.a == t2.a & t1.u > t2.u & t1.v < t2.v & t1.b != t2.b)",
       Kind::kComposite},
      {"!(t1.u >= t2.u & t1.v < t2.v & t1.b != t2.b)", Kind::kComposite},
      {"!(t1.a == t2.a & t1.u >= t2.u & t1.v <= t2.v)", Kind::kComposite},
      {"!(t1.u != t2.u & t1.v != t2.v)", Kind::kComposite},
      {"!(t1.u > t2.u & t1.u < t2.u)", Kind::kNever},
      {"!(t1.u > t2.v & t1.a == t2.a)", Kind::kGeneral},
  };
}

DenialConstraint ParseShape(const Shape& shape, const Schema& schema) {
  DenialConstraint dc = DenialConstraint::Parse(shape.spec, schema).TakeValue();
  std::vector<size_t> lhs;
  size_t rhs = 0;
  using S = PredicateDecomposition::Shape;
  switch (shape.kind) {
    case Kind::kFd:
      EXPECT_TRUE(dc.AsFd(&lhs, &rhs)) << shape.spec;
      break;
    case Kind::kOrder:
      EXPECT_TRUE(dc.AsGroupedOrderSpec().has_value()) << shape.spec;
      break;
    case Kind::kComposite:
      EXPECT_FALSE(dc.AsFd(&lhs, &rhs)) << shape.spec;
      EXPECT_FALSE(dc.AsGroupedOrderSpec().has_value()) << shape.spec;
      EXPECT_EQ(dc.Decompose().shape, S::kComposite) << shape.spec;
      break;
    case Kind::kNever:
      EXPECT_EQ(dc.Decompose().shape, S::kNeverFires) << shape.spec;
      break;
    case Kind::kGeneral:
      EXPECT_EQ(dc.Decompose().shape, S::kGeneral) << shape.spec;
      break;
  }
  EXPECT_EQ(NeedsPairScan(dc), shape.kind == Kind::kGeneral) << shape.spec;
  return dc;
}

std::unique_ptr<ViolationIndex> Build(const DenialConstraint& dc,
                                      const std::vector<Row>& rows,
                                      bool naive) {
  std::unique_ptr<ViolationIndex> index =
      naive ? MakeNaiveViolationIndex(dc) : MakeViolationIndex(dc);
  for (const Row& r : rows) index->AddRow(r);
  return index;
}

/// Every query of `index` (which has seen adds and removes) against a
/// naive index rebuilt from `live`, the rows that should survive.
void ExpectMatchesRebuilt(const DenialConstraint& dc,
                          const ViolationIndex& index,
                          const std::vector<Row>& live, Rng* rng,
                          const std::string& where) {
  SCOPED_TRACE(where);
  const std::unique_ptr<ViolationIndex> reference = Build(dc, live, true);
  ASSERT_EQ(index.size(), live.size());
  std::vector<Row> probes;
  for (int i = 0; i < 12; ++i) probes.push_back(RandomRow(rng));
  for (size_t i = 0; i < live.size() && i < 8; ++i) probes.push_back(live[i]);
  for (const Row& p : probes) {
    ASSERT_EQ(index.CountNew(p), reference->CountNew(p));
  }

  // Cross counts in both directions against a fresh batch of rows.
  std::vector<Row> others;
  for (int i = 0; i < 15; ++i) others.push_back(RandomRow(rng));
  const auto other_fast = Build(dc, others, false);
  const auto other_naive = Build(dc, others, true);
  EXPECT_EQ(index.CountAgainst(*other_fast),
            reference->CountAgainst(*other_naive));
  EXPECT_EQ(other_fast->CountAgainst(index),
            other_naive->CountAgainst(*reference));

  // Folding the edited index into another one behaves like re-adding
  // exactly the surviving rows.
  other_fast->Merge(index);
  other_naive->Merge(*reference);
  EXPECT_EQ(other_fast->size(), other_naive->size());
  for (const Row& p : probes) {
    EXPECT_EQ(other_fast->CountNew(p), other_naive->CountNew(p));
  }

  // FD fast-path answers match an index of the same class built from the
  // survivors (Value equality: the two zero signs are one value).
  const auto rebuilt = Build(dc, live, false);
  for (const Row& p : probes) {
    const std::optional<Value> got = index.FdForcedValue(p);
    const std::optional<Value> want = rebuilt->FdForcedValue(p);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got.has_value()) EXPECT_TRUE(*got == *want);
  }
}

/// Removes a uniformly chosen surviving row from both `index` and `live`.
void RemoveRandom(ViolationIndex* index, std::vector<Row>* live, Rng* rng) {
  const size_t k = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(live->size()) - 1));
  index->RemoveRow((*live)[k]);
  (*live)[k] = live->back();
  live->pop_back();
}

TEST(ViolationIndexRemoveTest, RandomAddRemoveSequencesMatchRebuiltIndex) {
  const Schema schema = TestSchema();
  uint64_t seed = 501;
  for (const Shape& shape : BinaryShapes()) {
    const DenialConstraint dc = ParseShape(shape, schema);
    Rng rng(seed++);
    const std::string spec = shape.spec;
    std::unique_ptr<ViolationIndex> index = MakeViolationIndex(dc);
    std::vector<Row> live;
    // Grow well past the order index's 64-row block capacity: with four
    // distinct x values, equal x runs straddle split blocks.
    for (int i = 0; i < 200; ++i) {
      live.push_back(RandomRow(&rng));
      index->AddRow(live.back());
    }
    ExpectMatchesRebuilt(dc, *index, live, &rng, spec + " grown");
    // Interleaved edits, re-adding exact duplicates of survivors too.
    for (int step = 0; step < 300; ++step) {
      if (live.empty() || rng.Bernoulli(0.5)) {
        const bool duplicate = !live.empty() && rng.Bernoulli(0.3);
        const Row row = duplicate
                            ? live[static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(live.size()) - 1))]
                            : RandomRow(&rng);
        live.push_back(row);
        index->AddRow(row);
      } else {
        RemoveRandom(index.get(), &live, &rng);
      }
      if (step % 25 == 24) {
        ExpectMatchesRebuilt(dc, *index, live, &rng,
                             spec + " step " + std::to_string(step));
      }
    }
    // Drain: every group and block empties.
    while (!live.empty()) {
      RemoveRandom(index.get(), &live, &rng);
      if (live.size() % 60 == 0) {
        ExpectMatchesRebuilt(dc, *index, live, &rng,
                             spec + " draining at " +
                                 std::to_string(live.size()));
      }
    }
    EXPECT_EQ(index->size(), 0u) << spec;
    // Refill the emptied index.
    for (int i = 0; i < 90; ++i) {
      live.push_back(RandomRow(&rng));
      index->AddRow(live.back());
    }
    ExpectMatchesRebuilt(dc, *index, live, &rng, spec + " refilled");
  }
}

TEST(ViolationIndexRemoveTest, SignedZerosAreOneValue) {
  // A row added with -0.0 is removed by its +0.0 twin (and vice versa),
  // in every key and order position.
  const Schema schema = TestSchema();
  auto zero_row = [](double zero) {
    return Row{Value::Categorical(0), Value::Categorical(0),
               Value::Numeric(zero), Value::Numeric(zero),
               Value::Numeric(zero)};
  };
  for (const Shape& shape : BinaryShapes()) {
    const DenialConstraint dc = ParseShape(shape, schema);
    std::unique_ptr<ViolationIndex> index = MakeViolationIndex(dc);
    index->AddRow(zero_row(-0.0));
    index->AddRow(zero_row(0.0));
    index->RemoveRow(zero_row(0.0));
    index->RemoveRow(zero_row(-0.0));
    EXPECT_EQ(index->size(), 0u) << shape.spec;
    EXPECT_EQ(index->CountNew(zero_row(0.0)), 0) << shape.spec;
  }
}

TEST(ViolationIndexRemoveTest, UnaryIndexCountsRows) {
  const Schema schema = TestSchema();
  const DenialConstraint dc =
      DenialConstraint::Parse("!(t1.u > 2)", schema).TakeValue();
  ASSERT_TRUE(dc.is_unary());
  std::unique_ptr<ViolationIndex> index = MakeViolationIndex(dc);
  Rng rng(77);
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(RandomRow(&rng));
    index->AddRow(rows.back());
  }
  for (int i = 0; i < 12; ++i) index->RemoveRow(rows[static_cast<size_t>(i)]);
  EXPECT_EQ(index->size(), 8u);
  for (const Row& r : rows) {
    EXPECT_EQ(index->CountNew(r), dc.ViolatesUnary(r) ? 1 : 0);
  }
}

TEST(ViolationIndexRemoveDeathTest, RemovingAnAbsentRowFails) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Schema schema = TestSchema();
  const Row held = {Value::Categorical(0), Value::Categorical(0),
                    Value::Numeric(1.0), Value::Numeric(1.0),
                    Value::Numeric(1.0)};
  const Row absent = {Value::Categorical(1), Value::Categorical(1),
                      Value::Numeric(2.0), Value::Numeric(3.0),
                      Value::Numeric(2.0)};
  for (const Shape& shape : BinaryShapes()) {
    const DenialConstraint dc = ParseShape(shape, schema);
    if (shape.kind == Kind::kNever) {
      // A never-firing index keeps only a row count.
      EXPECT_DEATH(MakeViolationIndex(dc)->RemoveRow(held), "empty index")
          << shape.spec;
      continue;
    }
    EXPECT_DEATH(
        {
          auto index = MakeViolationIndex(dc);
          index->AddRow(held);
          index->RemoveRow(absent);
        },
        "not in the index")
        << shape.spec;
    EXPECT_DEATH(
        {
          auto index = MakeViolationIndex(dc);
          index->AddRow(held);
          index->RemoveRow(held);
          index->RemoveRow(held);
        },
        "not in the index")
        << shape.spec;
  }
  const DenialConstraint unary =
      DenialConstraint::Parse("!(t1.u > 2)", schema).TakeValue();
  EXPECT_DEATH(MakeViolationIndex(unary)->RemoveRow(held), "empty index");
}

/// The scan `CountNewExcept` replaces: `probe`, bound as row `self`,
/// against every other row of `table`.
int64_t ScanExcept(const DenialConstraint& dc, const Row& probe,
                   const Table& table, size_t self) {
  int64_t count = 0;
  for (size_t j = 0; j < table.num_rows(); ++j) {
    if (j != self && dc.ViolatesPairAt(probe, table, j)) ++count;
  }
  return count;
}

TEST(CountNewExceptTest, MatchesTheFullTableScanForEveryShape) {
  // The sampler's use: an index over the whole table scores a candidate
  // for slot `self`, and accepted candidates are swapped into the table
  // and the index (RemoveRow old, AddRow new) as they are committed.
  const Schema schema = TestSchema();
  uint64_t seed = 901;
  for (const Shape& shape : BinaryShapes()) {
    const DenialConstraint dc = ParseShape(shape, schema);
    Rng rng(seed++);
    Table table(schema);
    for (int i = 0; i < 120; ++i) table.AppendRowUnchecked(RandomRow(&rng));
    std::unique_ptr<ViolationIndex> index = MakeViolationIndex(dc);
    for (size_t r = 0; r < table.num_rows(); ++r) index->AddRow(table.row(r));
    for (int trial = 0; trial < 300; ++trial) {
      const size_t self = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(table.num_rows()) - 1));
      // Half the probes are the row itself with some cells redrawn.
      Row probe = table.row(self);
      const Row fresh = RandomRow(&rng);
      for (size_t c = 0; c < probe.size(); ++c) {
        if (rng.Bernoulli(0.5)) probe[c] = fresh[c];
      }
      ASSERT_EQ(CountNewExcept(dc, *index, probe, table, self),
                ScanExcept(dc, probe, table, self))
          << shape.spec << " trial " << trial;
      if (rng.Bernoulli(0.3)) {
        index->RemoveRow(table.row(self));
        for (size_t c = 0; c < probe.size(); ++c) table.set(self, c, probe[c]);
        index->AddRow(table.row(self));
      }
    }
  }
}

}  // namespace
}  // namespace kamino
