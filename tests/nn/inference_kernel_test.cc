// Differential oracle for the forward-only inference kernel: every
// prediction of `DiscriminativeModel::PredictRows` (and of the one-row
// `Predict*` wrappers over it) must equal, bit for bit, the softmax or
// Gaussian head of the autograd graph that training differentiates.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "kamino/data/table.h"
#include "kamino/nn/discriminative.h"
#include "kamino/nn/encoders.h"

namespace kamino {
namespace {

/// The sampler's forward block length; the oracle runs blocks around it.
constexpr size_t kBlock = 256;

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Mixed context: two categorical and two numeric attributes (one domain
/// straddling zero, so 0.0 and -0.0 are in range), plus a third
/// categorical for joint heads.
Schema OracleSchema() {
  return Schema({
      Attribute::MakeCategorical("a", {"x", "y", "z"}),
      Attribute::MakeNumeric("n", 0, 10, 11),
      Attribute::MakeCategorical("b", {"p", "q"}),
      Attribute::MakeNumeric("m", -5, 5, 11),
      Attribute::MakeCategorical("c", {"c0", "c1", "c2", "c3"}),
  });
}

/// Rows cycling through the numeric edge values (domain min/max, 0.0,
/// -0.0) and pseudo-random interior values, with every category.
Table OracleTable(const Schema& schema, size_t rows) {
  Table table(schema);
  Rng rng(99);
  const double n_edges[] = {0.0, 10.0, -0.0, 5.0};
  const double m_edges[] = {-5.0, 5.0, 0.0, -0.0};
  for (size_t r = 0; r < rows; ++r) {
    const bool edge = r % 3 == 0;
    table.AppendRowUnchecked({
        Value::Categorical(static_cast<int32_t>(r % 3)),
        Value::Numeric(edge ? n_edges[(r / 3) % 4] : rng.Uniform(0, 10)),
        Value::Categorical(static_cast<int32_t>((r / 3) % 2)),
        Value::Numeric(edge ? m_edges[(r / 7) % 4] : rng.Uniform(-5, 5)),
        Value::Categorical(static_cast<int32_t>((r / 2) % 4)),
    });
  }
  return table;
}

/// Zeroes some units on purpose so the graph's zero-multiplier skips and
/// ReLU cut-offs are exercised: one attention-query entry, one head hidden
/// unit (bias far below any pre-activation), and one hidden unit of every
/// numeric encoder.
void ZeroSomeUnits(const Schema& schema, DiscriminativeModel* model,
                   EncoderStore* store) {
  std::vector<Parameter*> params = model->Parameters();
  // Parameters() ends with the head: query, w1, b1, w2, b2.
  Parameter* query = params[params.size() - 5];
  Parameter* b1 = params[params.size() - 3];
  query->value[0] = 0.0;
  b1->value[1] = -100.0;
  for (size_t a = 0; a < schema.size(); ++a) {
    if (!schema.attribute(a).is_numeric()) continue;
    // Numeric encoder parameters: a, c, b, d; c is the hidden bias.
    store->encoder(a)->Parameters()[1]->value[2] = -100.0;
  }
}

/// The autograd graph's prediction for `row`: the head output is the
/// parent of the loss node, then the graph's own Softmax op or the
/// Gaussian head's destandardization.
std::vector<double> GraphPrediction(const DiscriminativeModel& model,
                                    const EncoderStore& store,
                                    const Row& row) {
  ForwardContext ctx;
  Var loss = model.Loss(row, &ctx);
  const Var& head = loss->parents[0];
  if (model.target_is_categorical()) return Softmax(head)->value.data();
  const AttributeEncoder* enc = store.encoder(model.targets()[0]);
  const double sigma = GaussianSigma(head->value[1]);
  return {enc->Destandardize(head->value[0]),
          std::abs(sigma * (enc->Destandardize(1.0) - enc->Destandardize(0.0)))};
}

struct HeadCase {
  const char* name;
  std::vector<size_t> context;
  std::vector<size_t> targets;
};

std::vector<HeadCase> Heads() {
  return {
      {"categorical", {0, 1, 3}, {2}},
      {"joint", {0, 1, 3}, {2, 4}},
      {"gaussian", {0, 1, 2, 4}, {3}},
  };
}

TEST(InferenceKernelTest, BlocksMatchAutogradBitForBit) {
  const Schema schema = OracleSchema();
  const Table table = OracleTable(schema, kBlock + 8);
  for (const HeadCase& head : Heads()) {
    Rng rng(21);
    EncoderStore store(schema, 8, &rng);
    DiscriminativeModel model(schema, head.context, head.targets, &store,
                              &rng);
    ZeroSomeUnits(schema, &model, &store);
    const size_t width = model.prediction_width();
    for (size_t count : {size_t{1}, kBlock - 1, kBlock, kBlock + 1}) {
      // Rows in a scrambled order with repeats, as MCMC picks them.
      std::vector<size_t> rows(count);
      for (size_t k = 0; k < count; ++k) {
        rows[k] = (k * 37 + count) % table.num_rows();
      }
      std::vector<double> out(count * width);
      model.PredictRows(table, rows.data(), count, out.data());
      for (size_t k = 0; k < count; ++k) {
        const std::vector<double> want =
            GraphPrediction(model, store, table.row(rows[k]));
        ASSERT_EQ(want.size(), width);
        for (size_t j = 0; j < width; ++j) {
          ASSERT_EQ(Bits(out[k * width + j]), Bits(want[j]))
              << head.name << " block " << count << " row " << rows[k]
              << " output " << j << ": " << out[k * width + j] << " vs "
              << want[j];
        }
      }
    }
  }
}

TEST(InferenceKernelTest, OneRowWrappersMatchAutogradBitForBit) {
  const Schema schema = OracleSchema();
  const Table table = OracleTable(schema, 40);
  for (const HeadCase& head : Heads()) {
    Rng rng(22);
    EncoderStore store(schema, 6, &rng);
    DiscriminativeModel model(schema, head.context, head.targets, &store,
                              &rng);
    ZeroSomeUnits(schema, &model, &store);
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const Row row = table.row(r);
      const std::vector<double> want = GraphPrediction(model, store, row);
      std::vector<double> got;
      if (model.target_is_categorical()) {
        got = model.PredictCategorical(row);
      } else {
        const auto [mean, stddev] = model.PredictGaussian(row);
        got = {mean, stddev};
      }
      ASSERT_EQ(got.size(), want.size());
      for (size_t j = 0; j < got.size(); ++j) {
        ASSERT_EQ(Bits(got[j]), Bits(want[j]))
            << head.name << " row " << r << " output " << j;
      }
    }
  }
}

TEST(InferenceKernelTest, ZeroedUnitsAreExercised) {
  // Guards the oracle above: with the units zeroed, some numeric
  // embedding and the attention query really carry exact zeros.
  const Schema schema = OracleSchema();
  Rng rng(21);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel model(schema, {0, 1, 3}, {2}, &store, &rng);
  ZeroSomeUnits(schema, &model, &store);
  std::vector<double> hidden(8), embedding(8);
  store.encoder(1)->EncodeNumericInto(3.0, hidden.data(), embedding.data());
  EXPECT_EQ(hidden[2], 0.0);
  EXPECT_EQ(model.Parameters()[model.Parameters().size() - 5]->value[0], 0.0);
}

TEST(InferenceKernelTest, ConcurrentCallsOnOneModelAgree) {
  // The model holds no scratch: threads sharing it (shards sampling in
  // parallel) must each get the serial answer.
  const Schema schema = OracleSchema();
  const Table table = OracleTable(schema, kBlock);
  Rng rng(23);
  EncoderStore store(schema, 8, &rng);
  DiscriminativeModel model(schema, {0, 1, 3}, {2, 4}, &store, &rng);
  const size_t width = model.prediction_width();
  std::vector<size_t> rows(table.num_rows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  std::vector<double> serial(rows.size() * width);
  model.PredictRows(table, rows.data(), rows.size(), serial.data());

  constexpr size_t kThreads = 4;
  std::vector<std::vector<double>> outs(kThreads,
                                        std::vector<double>(serial.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 5; ++rep) {
        model.PredictRows(table, rows.data(), rows.size(), outs[t].data());
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(Bits(outs[t][i]), Bits(serial[i])) << "thread " << t;
    }
  }
}

}  // namespace
}  // namespace kamino
