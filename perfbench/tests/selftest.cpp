// Self-tests of the benchmark's measurement code: the percentile helper's
// minimum-tail rule, coordinated-omission accounting in the open-loop load
// generator under an injected server stall, and detection of a corrupted
// reference. Run with `python3 perfbench/run.py --selftest`; files are
// written to the current directory.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "loadgen.h"
#include "measure.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/fault_injection.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace hs = hotspot;

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) {
    values.push_back(i);
  }
  return values;
}

TEST(TailPercentile, P95NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_percentile(one_to(199), 0.95).has_value());
  const std::optional<double> p95 = tail_percentile(one_to(200), 0.95);
  ASSERT_TRUE(p95.has_value());
  EXPECT_EQ(*p95, 190.0);  // nearest rank; 191..200 lie beyond it
}

TEST(TailPercentile, MedianNeedsTwentySamples) {
  EXPECT_FALSE(tail_percentile(one_to(19), 0.5).has_value());
  const std::optional<double> p50 = tail_percentile(one_to(20), 0.5);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(*p50, 10.0);
}

TEST(TailPercentile, FailedSamplesSortLast) {
  std::vector<double> samples = one_to(200);
  for (int i = 0; i < 11; ++i) {
    samples[static_cast<std::size_t>(i)] =
        std::numeric_limits<double>::infinity();
  }
  const std::optional<double> p95 = tail_percentile(samples, 0.95);
  ASSERT_TRUE(p95.has_value());
  EXPECT_TRUE(std::isinf(*p95));
}

TEST(TailPercentile, RequiredPercentileThrowsWhenUnsupported) {
  EXPECT_THROW(required_percentile(one_to(100), 0.95, "p95"),
               std::runtime_error);
  EXPECT_EQ(required_percentile(one_to(100), 0.5, "p50"), 50.0);
}

TEST(QuietValues, StolenSamplesAreLeftOut) {
  const std::vector<double> rates = {100, 60, 101, 55, 99};
  const std::vector<double> steal = {0.0, 0.12, 0.01, 0.09, 0.02};
  EXPECT_EQ(quiet_values(rates, steal), (std::vector<double>{100, 101, 99}));
}

TEST(QuietValues, LeastStolenHalfWhenFewAreQuiet) {
  const std::vector<double> rates = {70, 60, 100, 55};
  const std::vector<double> steal = {0.05, 0.12, 0.0, 0.09};
  EXPECT_EQ(quiet_values(rates, steal), (std::vector<double>{100, 70}));
  const std::vector<double> none = {0.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(quiet_values(rates, none), rates);  // no steal: every sample
}

TEST(LatenessGrowth, GrowingBacklogIsPositive) {
  PhaseRun run;
  for (int i = 0; i < 40; ++i) {
    RequestRecord record;
    record.due_s = 0.01 * i;
    record.sent_s = record.due_s + 0.005 * i;  // 5 ms later per request
    run.records.push_back(record);
  }
  EXPECT_GT(lateness_growth_ms(run), 100.0);
}

TEST(ReferenceCheck, FlippedLogitBitIsAMismatch) {
  hs::tensor::Tensor reference({3, 2}, std::vector<float>{
                                           0.5f, -1.0f, 2.0f, 0.25f, -3.0f,
                                           4.0f});
  hs::tensor::Tensor corrupted = reference;
  std::uint32_t bits = 0;
  std::memcpy(&bits, corrupted.data() + 3, sizeof(bits));
  bits ^= 1u;  // lowest mantissa bit: same label, different logit
  std::memcpy(corrupted.data() + 3, &bits, sizeof(bits));
  EXPECT_EQ(count_logit_mismatches(reference, reference), 0);
  EXPECT_EQ(count_logit_mismatches(reference, corrupted), 1);
  EXPECT_EQ(count_label_mismatches({0, 1, 1}, {0, 1, 1}), 0);
  EXPECT_EQ(count_label_mismatches({0, 1, 1}, {0, 0, 1}), 1);
}

TEST(ReferenceCheck, OneClassReferenceIsRefused) {
  EXPECT_THROW(require_both_classes({1, 1, 1}, "test"), std::runtime_error);
  EXPECT_NO_THROW(require_both_classes({1, 0, 1}, "test"));
}

// A live server over a seeded compact 32 px checkpoint.
class ServedModel : public ::testing::Test {
 protected:
  void SetUp() override {
    hs::util::fault_clear_all();
    hs::util::Rng rng(7);
    pool_ = make_clips(rng, 24, 32);
    path_ = "selftest_" + std::to_string(getpid()) + ".hspt";
    const hs::core::BrnnConfig config = hs::core::BrnnConfig::compact(32);
    write_seeded_checkpoint(config, 11, pool_, path_);
    expected_ = load_model(config, path_)->predict(pool_);
    ASSERT_TRUE(registry_.load(path_, 32).ok());
    server_ = std::make_unique<hs::serve::Server>(hs::serve::ServerConfig{},
                                                  &registry_);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void TearDown() override {
    hs::util::fault_clear_all();
    server_->stop();
    std::filesystem::remove(path_);
  }

  // `count` single-clip requests due every `gap_s`, cycling the pool.
  Phase evenly_spaced(int count, double gap_s) const {
    Phase phase;
    phase.name = "test";
    for (int i = 0; i < count; ++i) {
      Request request;
      request.due_s = gap_s * i;
      request.clip_ids = {i % static_cast<int>(expected_.size())};
      phase.requests.push_back(request);
    }
    return phase;
  }

  hs::tensor::Tensor pool_;
  std::string path_;
  std::vector<int> expected_;
  hs::serve::ModelRegistry registry_;
  std::unique_ptr<hs::serve::Server> server_;
};

TEST_F(ServedModel, StallShowsInDueTimeLatencyOfQueuedRequests) {
  LoadGenerator generator(server_->bound_port(), 1, pool_, expected_);
  std::string error;
  ASSERT_TRUE(generator.connect(&error)) << error;
  constexpr int kRequests = 12;
  constexpr int kStallMs = 100;
  hs::util::fault_set_stall_ms(kStallMs);
  hs::util::fault_arm_sticky(hs::util::FaultPoint::kScanPredictStall);
  const PhaseRun run = generator.run(evenly_spaced(kRequests, 0.01));
  EXPECT_GE(hs::util::fault_trip_count(hs::util::FaultPoint::kScanPredictStall),
            kRequests);
  ASSERT_EQ(run.failed(), 0);
  // Each request waits for the stalled ones before it: due-time latency
  // grows by about (stall - gap) per request, while the send-to-answer
  // time stays about one stall. A sender-side clock would report only the
  // latter and hide the backlog.
  const RequestRecord& last = run.records.back();
  const double service_ms = (last.done_s - last.sent_s) * 1e3;
  EXPECT_LT(service_ms, 3.0 * kStallMs);
  EXPECT_GT(last.latency_ms(), 0.8 * kStallMs * kRequests - 10.0 * kRequests);
  EXPECT_GT(last.late_ms(), 0.5 * kStallMs * (kRequests - 1));
  EXPECT_GT(lateness_growth_ms(run), 2.0 * kStallMs);
}

TEST_F(ServedModel, CorruptedReferenceIsReportedAsFailed) {
  std::vector<int> corrupted = expected_;
  corrupted[3] = 1 - corrupted[3];
  LoadGenerator honest(server_->bound_port(), 2, pool_, expected_);
  LoadGenerator lied_to(server_->bound_port(), 2, pool_, corrupted);
  std::string error;
  ASSERT_TRUE(honest.connect(&error)) << error;
  ASSERT_TRUE(lied_to.connect(&error)) << error;
  const Phase phase = evenly_spaced(24, 0.0);
  const PhaseRun good = honest.run(phase);
  const PhaseRun bad = lied_to.run(phase);
  EXPECT_EQ(good.failed(), 0);
  EXPECT_EQ(good.mismatches(), 0);
  EXPECT_EQ(bad.failed(), 1);  // only the request for pool row 3
  EXPECT_EQ(bad.mismatches(), 1);
  EXPECT_TRUE(std::isinf(bad.records[3].latency_ms()));
}

TEST(ResultLine, FailedPhaseIsReportedNotThrown) {
  // A p95 over a phase in which more than 5% of requests failed is
  // infinite: the result line still prints, with the failures counted.
  Result result;
  result.attempted = 20;
  result.failed = 2;
  result.add("p95_ms.low", std::numeric_limits<double>::infinity(), "ms");
  EXPECT_TRUE(result.correct());
  EXPECT_FALSE(result.passed());
  EXPECT_NE(result.json().find("\"p95_ms.low\":{\"value\":null"),
            std::string::npos);
  EXPECT_NE(result.json().find("\"failed\":2"), std::string::npos);
}

TEST(Schedule, BulkRequestsAreSpreadOnePerRun) {
  hs::util::Rng rng(7);
  const Phase phase = make_phase(rng, "p", 100.0, 2.0, 64);
  ASSERT_EQ(phase.requests.size(), 200u);
  EXPECT_EQ(phase.bulk_requests(), 40);
  for (std::size_t run = 0; run < 40; ++run) {
    int bulk = 0;
    for (std::size_t i = run * kBulkEvery; i < (run + 1) * kBulkEvery; ++i) {
      bulk += phase.requests[i].clip_ids.size() == kBulkClips ? 1 : 0;
    }
    EXPECT_EQ(bulk, 1) << "run " << run;
  }
}

TEST(LayerMetricsNames, UnknownNameIsRejected) {
  LayerMetrics layers;
  EXPECT_NO_THROW(layers.set("scan.windows", 1.0));
  EXPECT_THROW(layers.set("scan.no_such_metric", 1.0), std::logic_error);
  EXPECT_EQ(core_layer_metric("brnn.layer.block3"), "core.layer.block3_s");
}

}  // namespace
}  // namespace perfbench
