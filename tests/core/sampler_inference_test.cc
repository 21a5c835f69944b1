// The sampler's use of discriminative inference.
//
// Output pins for every sampler path that calls it: the row loop over
// several forward blocks (with a partial last block) plus MCMC,
// accept-reject, the progressive out-of-core freeze repair, the global
// shard merge, and soft DCs with joint hyper-attribute heads. Each digest
// was captured from the autograd-graph inference path before the
// forward-only kernel replaced it; the kernel must reproduce every one bit
// for bit.
//
// Then the forward-pass cost ledger (exact, machine-independent counts)
// and thread-count independence of a 1-shard MCMC run.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "kamino/core/kamino.h"
#include "kamino/core/sequencing.h"
#include "kamino/data/generators.h"
#include "kamino/obs/metrics.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n) { runtime::SetGlobalNumThreads(n); }
  ~ScopedNumThreads() { runtime::SetGlobalNumThreads(0); }
};

/// FNV-1a over an exact textual rendering of every cell (the same hash as
/// the sharded sampler's golden digest), as a fixed-width hex string.
std::string TableDigest(const Table& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const char* s) {
    for (; *s; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 1099511628211ull;
    }
  };
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const Value& v = t.at(r, c);
      char buf[64];
      if (v.is_numeric()) {
        std::snprintf(buf, sizeof(buf), "n:%.17g;", v.numeric());
      } else {
        std::snprintf(buf, sizeof(buf), "c:%d;", v.category());
      }
      mix(buf);
    }
  }
  char out[32];
  std::snprintf(out, sizeof(out), "0x%016" PRIx64, h);
  return out;
}

struct PinRun {
  Table out;
  SynthesisTelemetry telemetry;
};

/// Trains a non-private model on `ds` with `options` (fixed seeds) and
/// synthesizes `n` rows from it.
PinRun TrainAndSynthesize(const BenchmarkDataset& ds,
                          const KaminoOptions& options, size_t n,
                          ProbabilisticDataModel* model) {
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  Rng rng(options.seed);
  *model = ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
               .TakeValue();
  PinRun run;
  Rng srng(17);
  run.out = Synthesize(*model, constraints, n, options, &srng, &run.telemetry)
                .TakeValue();
  return run;
}

KaminoOptions PinOptions() {
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 10;
  options.seed = 31;
  return options;
}

TEST(InferencePinTest, SingleShardMcmcAcrossForwardBlocks) {
  // 700 rows span two full 256-row forward blocks and a partial third;
  // 70 MCMC re-samples end on a partial 32-row batch.
  ScopedNumThreads threads(1);
  KaminoOptions options = PinOptions();
  options.mcmc_resamples = 70;
  ProbabilisticDataModel model;
  PinRun run = TrainAndSynthesize(MakeAdultLike(200, 3), options, 700, &model);
  // `mcmc_resamples` is a per-unit budget.
  EXPECT_EQ(run.telemetry.mcmc_resamples,
            static_cast<int64_t>(70 * model.units().size()));
  EXPECT_EQ(TableDigest(run.out), "0x90cf315c24071554");
}

TEST(InferencePinTest, AcceptReject) {
  ScopedNumThreads threads(1);
  KaminoOptions options = PinOptions();
  options.accept_reject = true;
  ProbabilisticDataModel model;
  PinRun run = TrainAndSynthesize(MakeAdultLike(200, 5), options, 300, &model);
  EXPECT_GT(run.telemetry.ar_proposals, 0);
  EXPECT_EQ(TableDigest(run.out), "0xfc9508d037dba874");
}

TEST(InferencePinTest, OutOfCoreProgressiveFreezeRepair) {
  ScopedNumThreads threads(2);
  KaminoOptions options = PinOptions();
  options.num_shards = 4;
  options.out_of_core = true;
  options.mcmc_resamples = 40;
  ProbabilisticDataModel model;
  PinRun run = TrainAndSynthesize(MakeTaxLike(300, 9), options, 600, &model);
  EXPECT_GT(run.telemetry.merge_resamples, 0)
      << "the pin must exercise the freeze repair's inference";
  EXPECT_EQ(TableDigest(run.out), "0x4cc4c01216920d10");
}

TEST(InferencePinTest, GlobalShardMerge) {
  ScopedNumThreads threads(2);
  KaminoOptions options = PinOptions();
  options.num_shards = 4;
  options.mcmc_resamples = 40;
  ProbabilisticDataModel model;
  PinRun run = TrainAndSynthesize(MakeTaxLike(300, 11), options, 600, &model);
  EXPECT_EQ(run.telemetry.merge_prefix_freezes, 0);
  EXPECT_GT(run.telemetry.merge_resamples, 0)
      << "the pin must exercise the global merge's inference";
  EXPECT_EQ(TableDigest(run.out), "0x8e9fe3da0ae09dbb");
}

TEST(InferencePinTest, SoftDcsJointHeadsAndMcmc) {
  // Br2000-like: binary attributes grouped into hyper-attributes (joint
  // categorical heads), soft DCs with learned weights, MCMC at ratio 1.
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeBr2000Like(300, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options = PinOptions();
  config.options.mcmc_resamples = 300;
  config.output_rows = 300;
  config.learn_weights = true;
  KaminoResult result =
      RunKamino(ds.table, constraints, config).TakeValue();
  // The scenario must actually contain a joint discriminative head.
  const std::vector<ModelUnit> units = ProbabilisticDataModel::PlanUnits(
      ds.table.schema(), result.sequence, result.resolved_options);
  bool joint_head = false;
  for (const ModelUnit& unit : units) {
    joint_head = joint_head ||
                 (unit.kind == ModelUnit::Kind::kDiscriminative &&
                  unit.attrs.size() > 1);
  }
  EXPECT_TRUE(joint_head);
  EXPECT_EQ(result.telemetry.mcmc_resamples,
            static_cast<int64_t>(300 * units.size()));
  EXPECT_EQ(TableDigest(result.synthetic), "0x81f0800010732656");
}

TEST(ForwardLedgerTest, ExactCountsOnSingleShardMcmcRun) {
  // Per discriminative unit: 700 rows in forward blocks of 256, 256 and
  // 188, then 70 MCMC picks in batches of 32, 32 and 6.
  ScopedNumThreads threads(1);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  metrics.SetEnabled(true);
  const int64_t rows_before =
      metrics.counter("kamino.sampler.forward_rows")->Value();
  const int64_t batches_before =
      metrics.counter("kamino.sampler.forward_batches")->Value();
  KaminoOptions options = PinOptions();
  options.mcmc_resamples = 70;
  ProbabilisticDataModel model;
  PinRun run = TrainAndSynthesize(MakeAdultLike(200, 3), options, 700, &model);
  metrics.SetEnabled(was_enabled);

  const int64_t units =
      static_cast<int64_t>(model.num_discriminative_units());
  ASSERT_GT(units, 0);
  EXPECT_EQ(run.telemetry.forward_rows, units * 700 + units * 70);
  EXPECT_EQ(run.telemetry.forward_batches, units * 3 + units * 3);
  EXPECT_EQ(metrics.counter("kamino.sampler.forward_rows")->Value() -
                rows_before,
            run.telemetry.forward_rows);
  EXPECT_EQ(metrics.counter("kamino.sampler.forward_batches")->Value() -
                batches_before,
            run.telemetry.forward_batches);
}

TEST(ForwardLedgerTest, SingleShardMcmcSameOutputAtOneAndFourThreads) {
  // At 4 threads the MCMC batches and candidate scoring run on pool
  // workers; the predictions they read must not depend on that.
  BenchmarkDataset ds = MakeAdultLike(200, 3);
  KaminoOptions options = PinOptions();
  options.mcmc_resamples = 70;
  std::string digests[2];
  int64_t forward_rows[2];
  for (const size_t num_threads : {size_t{1}, size_t{4}}) {
    ScopedNumThreads threads(num_threads);
    ProbabilisticDataModel model;
    PinRun run = TrainAndSynthesize(ds, options, 700, &model);
    digests[num_threads == 4] = TableDigest(run.out);
    forward_rows[num_threads == 4] = run.telemetry.forward_rows;
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], "0x90cf315c24071554");
  EXPECT_EQ(forward_rows[0], forward_rows[1]);
}

}  // namespace
}  // namespace kamino
