// Tests for the shard-parallel synthesis engine: the (seed, num_shards)
// determinism contract, exactness of the hard-FD reconciliation, and the
// guarantee that num_shards=1 reproduces the sequential paper-semantics
// sampler bit for bit (asserted against a digest captured from the
// pre-refactor sequential implementation).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>

#include "kamino/common/logging.h"
#include "kamino/core/kamino.h"
#include "kamino/core/sequencing.h"
#include "kamino/data/generators.h"
#include "kamino/dc/violations.h"
#include "kamino/obs/metrics.h"
#include "kamino/obs/trace.h"
#include "kamino/runtime/thread_pool.h"

namespace kamino {
namespace {

/// Restores the global thread budget when a test scope ends.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(size_t n) { runtime::SetGlobalNumThreads(n); }
  ~ScopedNumThreads() { runtime::SetGlobalNumThreads(0); }
};

/// FNV-1a over an exact textual rendering of every cell (17 significant
/// digits round-trips doubles), so equal digests mean bit-identical
/// tables.
uint64_t TableDigest(const Table& t) {
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
  return h;
}

void ExpectSameTable(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      ASSERT_TRUE(a.at(r, c) == b.at(r, c))
          << "cell (" << r << ", " << c << ") diverged: "
          << a.CellToString(r, c) << " vs " << b.CellToString(r, c);
    }
  }
}

TEST(ShardedSamplerTest, NumShardsOneMatchesPreRefactorSequentialSampler) {
  // Digest of this exact scenario captured from the sequential sampler
  // BEFORE the shard refactor (same compiler/libstdc++ as CI). If this
  // fails after an *intentional* sampler or training change, re-capture:
  // the failure message prints the new digest.
  ScopedNumThreads threads(1);
  BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 12;
  options.mcmc_resamples = 48;
  options.seed = 31;
  ASSERT_EQ(options.num_shards, 1u);  // the default is paper semantics
  Rng rng(31);
  auto model =
      ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
          .TakeValue();
  Rng srng(17);
  SynthesisTelemetry telemetry;
  Table out = Synthesize(model, constraints, 150, options, &srng, &telemetry)
                  .TakeValue();
  EXPECT_EQ(telemetry.num_shards, 1u);
  EXPECT_EQ(telemetry.merge_resamples, 0);
  EXPECT_EQ(telemetry.merge_fd_rewrites, 0);
  char actual[32];
  std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, TableDigest(out));
  EXPECT_EQ(std::string(actual), "0x214d31f811dbdd0f")
      << "sequential sampler output changed";
}

TEST(ShardedSamplerTest, GoldenDigestUnchangedWithTracingOn) {
  // The observability invariant: recording spans and metrics never
  // influences control flow, so the exact golden scenario above must
  // produce the same digest with tracing + metrics enabled — at one
  // thread and at four (events interleave differently; output must not).
  obs::TraceRecorder::Global().SetEnabled(true);
  obs::MetricsRegistry::Global().SetEnabled(true);
  BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  KaminoOptions options;
  options.non_private = true;
  options.iterations = 12;
  options.mcmc_resamples = 48;
  options.seed = 31;
  for (const size_t num_threads : {size_t{1}, size_t{4}}) {
    ScopedNumThreads threads(num_threads);
    Rng rng(31);
    auto model =
        ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
            .TakeValue();
    Rng srng(17);
    Table out = Synthesize(model, constraints, 150, options, &srng).TakeValue();
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, TableDigest(out));
    EXPECT_EQ(std::string(actual), "0x214d31f811dbdd0f")
        << "tracing changed the output at num_threads=" << num_threads;
  }
  // The run actually recorded something (the invariant is about output,
  // not about tracing being a no-op).
  EXPECT_FALSE(obs::TraceRecorder::Global().Snapshot().empty());
  EXPECT_GT(
      obs::MetricsRegistry::Global().counter("kamino.sampler.runs")->Value(),
      0);
  obs::TraceRecorder::Global().SetEnabled(false);
  obs::TraceRecorder::Global().Clear();
  obs::MetricsRegistry::Global().SetEnabled(false);
  obs::MetricsRegistry::Global().Reset();
}

TEST(ShardedSamplerTest, GoldenDigestGridAcrossThreadsAndShards) {
  // The columnar-core regression grid: the golden scenario at every
  // num_threads in {1, 4} x num_shards in {1, 2, 4}. Output is a pure
  // function of (seed, num_shards) — the digest may differ per shard
  // count but must be thread-independent within one, and shards=1 must
  // still reproduce the pre-refactor sequential digest exactly.
  BenchmarkDataset ds = MakeAdultLike(120, 7);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  for (const size_t num_shards : {size_t{1}, size_t{2}, size_t{4}}) {
    std::string baseline;
    for (const size_t num_threads : {size_t{1}, size_t{4}}) {
      ScopedNumThreads threads(num_threads);
      KaminoOptions options;
      options.non_private = true;
      options.iterations = 12;
      options.mcmc_resamples = 48;
      options.seed = 31;
      options.num_shards = num_shards;
      Rng rng(31);
      auto model =
          ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
              .TakeValue();
      Rng srng(17);
      Table out =
          Synthesize(model, constraints, 150, options, &srng).TakeValue();
      char actual[32];
      std::snprintf(actual, sizeof(actual), "0x%016" PRIx64, TableDigest(out));
      if (num_threads == 1) {
        baseline = actual;
      } else {
        EXPECT_EQ(std::string(actual), baseline)
            << "thread budget changed the output at num_shards="
            << num_shards;
      }
    }
    if (num_shards == 1) {
      EXPECT_EQ(baseline, "0x214d31f811dbdd0f")
          << "sequential golden digest drifted";
    }
  }
}

/// Full pipeline on a mixed hard-DC workload (FD + order DC) at the given
/// thread and shard budget.
KaminoResult RunPipeline(size_t num_threads, size_t num_shards) {
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema());
  KAMINO_CHECK(constraints.ok());
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 8;
  config.options.mcmc_resamples = 40;
  config.options.seed = 77;
  config.options.num_threads = num_threads;
  config.options.num_shards = num_shards;
  auto result = RunKamino(ds.table, constraints.value(), config);
  KAMINO_CHECK(result.ok()) << result.status();
  runtime::SetGlobalNumThreads(0);
  return std::move(result).TakeValue();
}

TEST(ShardedSamplerTest, OutputPureFunctionOfSeedAndShardsAcrossThreads) {
  // The acceptance grid: num_shards in {1, 4} x num_threads in {1, 4} —
  // within a shard count, thread budget must not change a single bit.
  const KaminoResult s1_t1 = RunPipeline(1, 1);
  const KaminoResult s1_t4 = RunPipeline(4, 1);
  const KaminoResult s4_t1 = RunPipeline(1, 4);
  const KaminoResult s4_t4 = RunPipeline(4, 4);

  EXPECT_EQ(s1_t1.telemetry.num_shards, 1u);
  EXPECT_EQ(s4_t1.telemetry.num_shards, 4u);
  EXPECT_EQ(s4_t4.timings.num_shards, 4u);
  ExpectSameTable(s1_t1.synthetic, s1_t4.synthetic);
  ExpectSameTable(s4_t1.synthetic, s4_t4.synthetic);
}

TEST(ShardedSamplerTest, MergedOutputSatisfiesHardFdsExactly) {
  const KaminoResult sharded = RunPipeline(4, 4);
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  for (const WeightedConstraint& wc : constraints) {
    std::vector<size_t> lhs;
    size_t rhs = 0;
    if (wc.hard && wc.dc.AsFd(&lhs, &rhs)) {
      EXPECT_EQ(CountViolations(wc.dc, sharded.synthetic), 0)
          << "cross-shard FD group maps one LHS to two RHS values";
    }
  }
  // The shard merge actually ran and its timing was surfaced.
  EXPECT_EQ(sharded.telemetry.num_shards, 4u);
  EXPECT_GE(sharded.timings.shard_merge, 0.0);
  EXPECT_LE(sharded.timings.shard_merge, sharded.timings.sampling + 1e-9);
}

TEST(ShardedSamplerTest, TaxWorkloadHardDcsExactAfterMerge) {
  // Tax has 6 hard DCs, including two FDs sharing an RHS attribute
  // (areacode -> state, zip -> state: exercises the joint component
  // canonicalization; per-DC sweeps would oscillate) and a per-state
  // salary/rate order dependency (exercises grouped rank alignment).
  BenchmarkDataset ds = MakeTaxLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 8;
  config.options.seed = 77;
  config.options.num_shards = 4;
  auto result = RunKamino(ds.table, constraints, config);
  ASSERT_TRUE(result.ok()) << result.status();
  runtime::SetGlobalNumThreads(0);
  for (size_t l = 0; l < constraints.size(); ++l) {
    EXPECT_EQ(CountViolations(constraints[l].dc, result.value().synthetic), 0)
        << "hard DC " << l << " ("
        << constraints[l].dc.ToString(ds.table.schema())
        << ") violated after the shard merge";
  }
  // The grouped order DC was reconciled by rank alignment, not luck.
  EXPECT_GT(result.value().telemetry.merge_cross_violations, 0);
}

TEST(ShardedSamplerTest, ShardCountZeroUsesOneShardPerWorker) {
  const KaminoResult r = RunPipeline(3, 0);
  EXPECT_EQ(r.telemetry.num_shards, 3u);
  EXPECT_EQ(r.timings.num_shards, 3u);
}

TEST(ShardedSamplerTest, ShardedRunsAreReproducible) {
  // Same (seed, num_shards) twice => identical output (no hidden global
  // state leaks between runs).
  const KaminoResult a = RunPipeline(4, 4);
  const KaminoResult b = RunPipeline(4, 4);
  ExpectSameTable(a.synthetic, b.synthetic);
  EXPECT_EQ(a.telemetry.merge_cross_violations,
            b.telemetry.merge_cross_violations);
  EXPECT_EQ(a.telemetry.merge_resamples, b.telemetry.merge_resamples);
  EXPECT_EQ(a.telemetry.merge_fd_rewrites, b.telemetry.merge_fd_rewrites);
}

TEST(ShardedSamplerTest, AdaptiveMergeBudgetScalesWithConflicts) {
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto run = [&](bool adaptive, size_t fixed_budget) {
    KaminoConfig config;
    config.options.non_private = true;
    config.options.iterations = 8;
    config.options.mcmc_resamples = 40;
    config.options.seed = 77;
    config.options.num_shards = 4;
    config.options.adaptive_merge_budget = adaptive;
    config.options.shard_merge_resamples = fixed_budget;
    auto result = RunKamino(ds.table, constraints, config);
    KAMINO_CHECK(result.ok()) << result.status();
    runtime::SetGlobalNumThreads(0);
    return std::move(result).TakeValue();
  };
  // Fixed override: the resolved budget is exactly the knob.
  const KaminoResult fixed = run(/*adaptive=*/false, 24);
  EXPECT_EQ(fixed.telemetry.merge_budget, 24);
  EXPECT_EQ(fixed.telemetry.merge_early_stops, 0);
  // Adaptive: the budget is derived from the observed conflict set, and
  // the run stays deterministic (same seed + shards => same table and
  // same resolved budget).
  const KaminoResult a = run(/*adaptive=*/true, 24);
  EXPECT_EQ(a.telemetry.merge_budget,
            16 + 2 * a.telemetry.merge_conflict_rows);
  const KaminoResult b = run(/*adaptive=*/true, 24);
  ExpectSameTable(a.synthetic, b.synthetic);
  EXPECT_EQ(a.telemetry.merge_budget, b.telemetry.merge_budget);
  EXPECT_EQ(a.telemetry.merge_early_stops, b.telemetry.merge_early_stops);
  // Soft-DC merge telemetry is populated (Adult has no soft DCs, so the
  // delta is exactly zero and no measurement time is booked).
  EXPECT_DOUBLE_EQ(fixed.telemetry.merge_soft_penalty_delta, 0.0);
}

TEST(ShardedSamplerTest, SoftDcMergeTelemetryMeasuresPenaltyDelta) {
  // Adult DCs flipped soft: the merge telemetry must report the weighted
  // soft-DC penalty delta of the reconciliation (any sign) and book the
  // measurement time.
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  std::vector<bool> soft(ds.hardness.size(), false);
  auto constraints =
      ParseConstraints(ds.dc_specs, soft, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 8;
  config.options.seed = 77;
  config.options.num_shards = 4;
  auto result = RunKamino(ds.table, constraints, config);
  ASSERT_TRUE(result.ok()) << result.status();
  runtime::SetGlobalNumThreads(0);
  EXPECT_GT(result.value().telemetry.merge_soft_seconds, 0.0);
  // Deterministic: the delta is a pure function of (seed, num_shards).
  auto again = RunKamino(ds.table, constraints, config);
  ASSERT_TRUE(again.ok()) << again.status();
  runtime::SetGlobalNumThreads(0);
  EXPECT_DOUBLE_EQ(result.value().telemetry.merge_soft_penalty_delta,
                   again.value().telemetry.merge_soft_penalty_delta);
}

TEST(ShardedSamplerTest, SoftPenaltyMergeOrderIsDeterministicPerFlag) {
  // The reconciliation sweep orders conflict rows by their weighted
  // soft-DC penalty contribution (soft_penalty_merge_order, default on),
  // with the pre-session-API row-order sweep behind the flag. Both
  // orders must be deterministic, spend the same adaptive budget, and
  // coincide exactly when the run has no soft DCs.
  BenchmarkDataset ds = MakeAdultLike(100, 13);
  auto run = [&](bool ordered, bool all_soft) {
    std::vector<bool> hardness = ds.hardness;
    if (all_soft) hardness.assign(ds.hardness.size(), false);
    auto constraints =
        ParseConstraints(ds.dc_specs, hardness, ds.table.schema()).TakeValue();
    KaminoConfig config;
    config.options.non_private = true;
    config.options.iterations = 8;
    config.options.seed = 77;
    config.options.num_shards = 4;
    config.options.soft_penalty_merge_order = ordered;
    auto result = RunKamino(ds.table, constraints, config);
    KAMINO_CHECK(result.ok()) << result.status();
    runtime::SetGlobalNumThreads(0);
    return std::move(result).TakeValue();
  };
  // No soft DCs: the contribution sort is a no-op by construction, so the
  // flag must not change a bit (this is the golden-digest-compatible
  // configuration).
  const KaminoResult hard_on = run(/*ordered=*/true, /*all_soft=*/false);
  const KaminoResult hard_off = run(/*ordered=*/false, /*all_soft=*/false);
  ExpectSameTable(hard_on.synthetic, hard_off.synthetic);

  // All-soft workload: each ordering is individually reproducible and
  // spends the same adaptive budget (the conflict set is order-independent
  // — only the sweep sequence changes).
  const KaminoResult soft_a = run(/*ordered=*/true, /*all_soft=*/true);
  const KaminoResult soft_b = run(/*ordered=*/true, /*all_soft=*/true);
  ExpectSameTable(soft_a.synthetic, soft_b.synthetic);
  const KaminoResult soft_row = run(/*ordered=*/false, /*all_soft=*/true);
  EXPECT_EQ(soft_a.telemetry.merge_budget, soft_row.telemetry.merge_budget);
  EXPECT_EQ(soft_a.telemetry.merge_conflict_rows,
            soft_row.telemetry.merge_conflict_rows);
}

TEST(ShardedSamplerTest, ShardCountIsClampedToRows) {
  BenchmarkDataset ds = MakeTpchLike(60, 21);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  KaminoConfig config;
  config.options.non_private = true;
  config.options.iterations = 5;
  config.options.seed = 3;
  config.options.num_shards = 1000;  // far more shards than rows
  config.output_rows = 12;
  auto result = RunKamino(ds.table, constraints, config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().synthetic.num_rows(), 12u);
  EXPECT_EQ(result.value().telemetry.num_shards, 12u);
}

TEST(ShardedSamplerTest, MergeSeesPostMcmcShardRows) {
  // The shard indices handed to the merge must track MCMC re-samples.
  // With soft DCs only (no FD canonicalization or rank alignment) and a
  // zero repair budget, no merge step rewrites a row, so the cross-shard
  // violations the merge reports must equal the cross pairs recounted
  // from the delivered shard slices — for the global and the progressive
  // merge alike. Indices left at pre-MCMC values report different counts.
  ScopedNumThreads threads(1);
  const size_t n = 160;
  const size_t num_shards = 4;
  BenchmarkDataset ds = MakeBr2000Like(n, 5);
  auto constraints =
      ParseConstraints(ds.dc_specs, ds.hardness, ds.table.schema()).TakeValue();
  auto sequence = SequenceSchema(ds.table.schema(), constraints);
  for (const bool progressive : {false, true}) {
    KaminoOptions options;
    options.non_private = true;
    options.iterations = 8;
    options.mcmc_resamples = n;
    options.seed = 41;
    options.num_shards = num_shards;
    options.progressive_merge = progressive;
    options.adaptive_merge_budget = false;
    options.shard_merge_resamples = 0;
    Rng rng(41);
    auto model =
        ProbabilisticDataModel::Train(ds.table, sequence, options, &rng)
            .TakeValue();
    Rng srng(19);
    SynthesisTelemetry telemetry;
    Table out = Synthesize(model, constraints, n, options, &srng, &telemetry)
                    .TakeValue();
    ASSERT_GT(telemetry.mcmc_resamples, 0);
    ASSERT_EQ(telemetry.merge_resamples, 0);
    const size_t width = n / num_shards;
    int64_t expected = 0;
    for (const WeightedConstraint& wc : constraints) {
      ASSERT_FALSE(wc.hard);
      std::unique_ptr<ViolationIndex> prefix = MakeNaiveViolationIndex(wc.dc);
      for (size_t s = 0; s < num_shards; ++s) {
        std::unique_ptr<ViolationIndex> shard = MakeNaiveViolationIndex(wc.dc);
        for (size_t r = s * width; r < (s + 1) * width; ++r) {
          shard->AddRow(out.row(r));
        }
        expected += prefix->CountAgainst(*shard);
        prefix->Merge(*shard);
      }
    }
    EXPECT_GT(expected, 0);
    EXPECT_EQ(telemetry.merge_cross_violations, expected)
        << "progressive=" << progressive;
  }
}

}  // namespace
}  // namespace kamino
