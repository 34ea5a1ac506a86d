// serve_mixed: the compact network at 32 px behind an in-process
// serve::Server with its default configuration, driven by an open-loop
// Poisson schedule (80% interactive requests of 1-4 clips, 20% bulk
// requests of 32) over at most four ServeClient connections, while the
// registry hot-swaps to a byte-identical checkpoint copy every few seconds.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "inputs.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "workloads.h"

namespace perfbench {

namespace hs = hotspot;

namespace {

constexpr std::int64_t kGrid = 32;
constexpr int kPoolClips = 512;
constexpr int kConnections = 4;
// Hot-swap period. A swap briefly stalls the batches behind it; at this
// period the requests it touches stay well under the 5% a p95 would see,
// and serve.swap_p95_ms reports them on their own.
constexpr double kSwapEverySeconds = 5.0;

// Traced run: fixed phases well below this host class's capacity (~100
// requests/s on 4 AVX-512 vCPUs, pool at two threads), for the latency
// percentiles and the per-stage breakdown. Each phase carries at least
// kMinPhaseRequests requests, so its p95 has 10 samples beyond it; beyond
// that, phase lengths are shares of --seconds.
constexpr double kLowRate = 20.0;
constexpr double kHighRate = 30.0;
constexpr double kMinPhaseRequests = 220.0;
constexpr double kPhaseShare = 0.42;
// Untraced run, throughput: kBurstBlocks closed-loop bursts of
// kBurstRequests requests each (every connection sends its next request as
// soon as its last one is answered); clips_per_s is the median answered
// clips per second of the quiet bursts, as in block_rate. The same burst,
// untraced then traced, gives trace.overhead_share.
constexpr int kBurstBlocks = 4;
constexpr double kBurstRequests = 250.0;
// Untraced run, max_rps: an open-loop ladder on the fixed grid of rates
// kLadderStartRate * kLadderRatio^k, up to kLadderTopRate (over three times
// today's capacity). A step passes when at most kMissShareLimit of its
// requests miss kLatencyLimitMs (a failed request misses) and the
// generator's lateness does not grow by more than kMaxLateGrowthMs over the
// step. The latency limit sits well above a bulk request's service time
// (about 40 ms), so that a step fails on a backlog that grows, the server's
// capacity, and not on the hiccups of a few tens of milliseconds a shared
// host gives any request. A play during which other tenants took more than
// kQuietStealShare of the host's CPUs is not judged: near capacity such a
// play fails however fast the server is. The step is played again, on a
// fresh draw of its schedule, up to kStepPlays plays in all, and judged by
// its first quiet play, or by its least-stolen one when none was quiet.
// The ladder climbs every kCoarseStride-th grid rate until one fails, then
// bisects the grid rates between the last passing one and that one.
// max_rps is the last passing rate, refined by linear interpolation of the
// miss share towards the failing one. A run whose top step passes has no
// max_rps and fails.
constexpr double kLadderStartRate = 60.0;
constexpr double kLadderRatio = 1.025;
constexpr double kLadderTopRate = 400.0;
constexpr int kCoarseStride = 8;
constexpr double kStepShare = 0.09;
constexpr int kStepPlays = 2;
constexpr double kMissShareLimit = 0.05;
constexpr double kLatencyLimitMs = 250.0;
constexpr double kMaxLateGrowthMs = 50.0;

// Hot-swaps a registry between two byte-identical checkpoints at every
// multiple of kSwapEverySeconds after construction, until stop().
class Swapper {
 public:
  Swapper(hs::serve::ModelRegistry& registry, const std::string (&paths)[2])
      : thread_([this, &registry, &paths] { loop(registry, paths); }) {}
  ~Swapper() { stop(); }
  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  // Stops and joins; the logs are stable afterwards. Idempotent.
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  std::vector<double> seconds;  // each load's duration
  std::vector<std::pair<Clock::time_point, Clock::time_point>> windows;
  std::int64_t failures = 0;

 private:
  void loop(hs::serve::ModelRegistry& registry, const std::string (&paths)[2]) {
    const Clock::time_point epoch = Clock::now();
    for (int i = 0;; ++i) {
      {
        const auto due = epoch + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         kSwapEverySeconds * (i + 1)));
        std::unique_lock<std::mutex> lock(mutex_);
        if (wake_.wait_until(lock, due, [&] { return stop_; })) {
          return;
        }
      }
      const Clock::time_point start = Clock::now();
      const bool ok = registry.load(paths[i % 2], kGrid).ok();
      const Clock::time_point end = Clock::now();
      std::lock_guard<std::mutex> lock(mutex_);
      seconds.push_back(seconds_between(start, end));
      windows.emplace_back(start, end);
      failures += ok ? 0 : 1;
    }
  }

  std::mutex mutex_;  // guards stop_ and the logs while the thread runs
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member it uses
};

struct PhaseTraces {
  PhaseRun run;
  std::vector<hs::obs::RequestTrace> traces;  // parallel to run.records
  std::vector<bool> traced;
};

PhaseTraces attach_traces(PhaseRun run, const hs::serve::Server& server) {
  std::map<std::uint64_t, hs::obs::RequestTrace> by_id;
  for (hs::obs::RequestTrace& trace : server.flight_recorder().snapshot()) {
    by_id[trace.request_id] = trace;
  }
  PhaseTraces out;
  out.traces.resize(run.records.size());
  out.traced.resize(run.records.size(), false);
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    const auto it = by_id.find(run.records[i].trace_id);
    if (run.records[i].trace_id != 0 && it != by_id.end()) {
      out.traces[i] = it->second;
      out.traced[i] = true;
    }
  }
  out.run = std::move(run);
  return out;
}

std::uint64_t counter_delta(const hs::obs::MetricsSnapshot& delta,
                            const std::string& name) {
  const hs::obs::CounterSample* sample = delta.find_counter(name);
  return sample != nullptr ? sample->value : 0;
}

}  // namespace

Result run_serve_mixed(const Options& options) {
  const hs::core::BrnnConfig config = hs::core::BrnnConfig::compact(kGrid);
  hs::util::Rng rng(options.seed);
  const hs::tensor::Tensor pool = make_clips(rng, kPoolClips, kGrid);
  const std::string paths[2] = {options.work_dir + "/compact32_serve.hspt",
                                options.work_dir + "/compact32_serve_copy.hspt"};
  write_seeded_checkpoint(config, options.seed * 2654435761u + 3, pool,
                          paths[0]);
  std::filesystem::copy_file(paths[0], paths[1],
                             std::filesystem::copy_options::overwrite_existing);

  // Reference: a direct predict on the same checkpoint.
  const std::vector<int> expected = load_model(config, paths[0])->predict(pool);
  require_both_classes(expected, "serve_mixed");

  // The schedule, the same in both runs: fixed phases, bursts, ladder.
  const double seconds = options.seconds;
  std::vector<Phase> phases;
  phases.push_back(make_phase(
      rng, "low", kLowRate,
      std::max(kPhaseShare * seconds, kMinPhaseRequests / kLowRate),
      kPoolClips));
  phases.push_back(make_phase(
      rng, "high", kHighRate,
      std::max(kPhaseShare * seconds, kMinPhaseRequests / kHighRate),
      kPoolClips));
  std::vector<Phase> bursts;
  for (int b = 0; b < kBurstBlocks; ++b) {
    bursts.push_back(
        make_phase(rng, "burst", kBurstRequests, 1.0, kPoolClips));
    for (Request& request : bursts.back().requests) {
      request.due_s = 0.0;  // closed loop: as fast as the connections allow
    }
  }
  // Ladder grid index of the top rate, a multiple of the coarse stride.
  const int ladder_top =
      kCoarseStride *
      static_cast<int>(std::ceil(std::log(kLadderTopRate / kLadderStartRate) /
                                 std::log(kLadderRatio) / kCoarseStride));
  const auto ladder_rate = [](int k) {
    return kLadderStartRate * std::pow(kLadderRatio, k);
  };

  const double density = pixel_density(pool);
  std::int64_t fixed_requests = 0;
  std::int64_t fixed_clips = 0;
  std::int64_t fixed_bulk = 0;
  for (const Phase& phase : phases) {
    fixed_requests += static_cast<std::int64_t>(phase.requests.size());
    fixed_clips += phase.clips();
    fixed_bulk += phase.bulk_requests();
  }
  const double bulk_share = static_cast<double>(fixed_bulk) /
                            static_cast<double>(fixed_requests);
  const double clips_per_request = static_cast<double>(fixed_clips) /
                                   static_cast<double>(fixed_requests);
  const auto offered_rps = [](const Phase& phase) {
    return static_cast<double>(phase.requests.size()) / phase.duration_s;
  };
  std::printf("%s\n",
              JsonFields()
                  .str("workload", "serve_mixed")
                  .num("input.pool_clips", kPoolClips)
                  .num("input.clip_density", density)
                  .num("input.bulk_share", bulk_share)
                  .num("input.mean_clips_per_request", clips_per_request)
                  .num("input.offered_rps.low", offered_rps(phases[0]))
                  .num("input.offered_rps.high", offered_rps(phases[1]))
                  .num("input.ladder_first_rps", kLadderStartRate)
                  .num("input.ladder_ratio", kLadderRatio)
                  .num("input.ladder_top_rps", ladder_rate(ladder_top))
                  .num("input.latency_limit_ms", kLatencyLimitMs)
                  .json()
                  .c_str());

  // Set-up: model load and first forward, server start, client connects.
  std::unique_ptr<hs::serve::ModelRegistry> registry;
  std::unique_ptr<hs::serve::Server> server;
  std::unique_ptr<LoadGenerator> generator;
  const hs::tensor::Tensor first_clip = slice_rows(pool, 0, 1);
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    generator.reset();
    server.reset();
    registry.reset();
    const Clock::time_point start = Clock::now();
    registry = std::make_unique<hs::serve::ModelRegistry>();
    const hs::nn::LoadResult loaded = registry->load(paths[0], kGrid);
    if (!loaded.ok()) {
      throw std::runtime_error("registry load: " + loaded.message);
    }
    registry->active()->predict(first_clip);
    server = std::make_unique<hs::serve::Server>(hs::serve::ServerConfig{},
                                                 registry.get());
    std::string error;
    if (!server->start(&error)) {
      throw std::runtime_error("server start: " + error);
    }
    generator = std::make_unique<LoadGenerator>(server->bound_port(),
                                                kConnections, pool, expected);
    if (!generator->connect(&error)) {
      throw std::runtime_error("client connect: " + error);
    }
    setups.push_back(seconds_between(start, Clock::now()));
  }
  EndToEnd e2e;
  e2e.setup_s = median(setups);

  // Every request counts as attempted and every failed one as failed,
  // except the sheds and typed rejects of a ladder step past capacity:
  // refusing load there is the server's correct answer, and the step
  // counts them as misses.
  Result result;
  const auto account = [&](const PhaseRun& run, bool past_capacity) {
    result.attempted += static_cast<std::int64_t>(run.records.size());
    for (const RequestRecord& record : run.records) {
      const bool refused = past_capacity && record.rejected;
      result.failed += record.failed() && !refused ? 1 : 0;
      result.mismatches += record.mismatches != 0 ? 1 : 0;
    }
  };
  const auto answered_clips = [](const PhaseRun& run) {
    std::int64_t clips = 0;
    for (const RequestRecord& record : run.records) {
      clips += record.answered ? record.clips : 0;
    }
    return static_cast<double>(clips);
  };
  LayerMetrics layers;
  Swapper swaps(*registry, paths);

  if (!options.trace) {
    const double cpu_start = process_cpu_seconds();
    std::int64_t served = 0;
    std::vector<double> burst_rates;
    std::vector<double> burst_steal;
    for (const Phase& burst : bursts) {
      const StealMeter meter;
      const PhaseRun run = generator->run(burst);
      burst_steal.push_back(meter.share());
      account(run, false);
      served += static_cast<std::int64_t>(run.records.size());
      burst_rates.push_back(answered_clips(run) / run.wall_s);
      std::printf("%s\n", JsonFields()
                              .num("burst_clips_per_s", burst_rates.back())
                              .num("steal_share", burst_steal.back())
                              .json()
                              .c_str());
    }
    // Each clip is one window.
    e2e.clips_per_s = median(quiet_values(burst_rates, burst_steal));
    e2e.windows_per_s = e2e.clips_per_s;

    // Plays grid step k until a play is quiet; returns the verdict and miss
    // share of that play, or of the least-stolen play when none was quiet.
    // Each play's schedule is a function of the seed, k and the play only.
    const double step_s = std::max(kStepShare * seconds, 1.0);
    const auto climb = [&](int k) {
      std::pair<bool, double> verdict{false, 1.0};
      double least_steal = 2.0;
      for (int play = 0; play < kStepPlays; ++play) {
        hs::util::Rng step_rng(options.seed * 1000003u +
                               static_cast<std::uint64_t>(k * kStepPlays + play));
        const StealMeter meter;
        const PhaseRun run = generator->run(
            make_phase(step_rng, "ladder", ladder_rate(k), step_s, kPoolClips));
        const double steal = meter.share();
        served += static_cast<std::int64_t>(run.records.size());
        std::int64_t misses = 0;
        for (const double latency : run.latencies_ms()) {
          misses += latency > kLatencyLimitMs ? 1 : 0;
        }
        const double miss_share = static_cast<double>(misses) /
                                  static_cast<double>(run.records.size());
        const double late_growth = lateness_growth_ms(run);
        const bool pass =
            miss_share <= kMissShareLimit && late_growth <= kMaxLateGrowthMs;
        account(run, !pass);
        std::printf("%s\n",
                    JsonFields()
                        .num("ladder_rps", ladder_rate(k))
                        .num("requests",
                             static_cast<double>(run.records.size()))
                        .num("misses", static_cast<double>(misses))
                        .num("late_growth_ms", late_growth)
                        .num("steal_share", steal)
                        .raw("pass", pass ? "true" : "false")
                        .json()
                        .c_str());
        if (steal < least_steal) {
          least_steal = steal;
          verdict = {pass, miss_share};
        }
        if (steal <= kQuietStealShare) {
          break;
        }
      }
      return verdict;
    };
    int passed = -1;  // no step passed yet: the ladder starts from rate 0
    double passed_miss_share = 0.0;
    int failed = -1;
    double failed_miss_share = 0.0;
    const auto judge = [&](int k) {
      const auto [pass, miss_share] = climb(k);
      (pass ? passed : failed) = k;
      (pass ? passed_miss_share : failed_miss_share) = miss_share;
    };
    for (int k = 0; k <= ladder_top && failed < 0; k += kCoarseStride) {
      judge(k);
    }
    if (failed < 0) {
      throw std::runtime_error(
          "every max_rps ladder step passed; raise kLadderTopRate");
    }
    // Bisects the grid rates between the last passing and the failing step
    // until they are neighbours.
    while (failed - passed > 1) {
      judge((passed + failed) / 2);
    }
    // Where the miss share crosses the limit between the last passing step
    // and the failing one; a step failed on lateness alone adds nothing.
    const double passed_rate = passed >= 0 ? ladder_rate(passed) : 0.0;
    const double crossing =
        failed_miss_share > kMissShareLimit
            ? (kMissShareLimit - passed_miss_share) /
                  (failed_miss_share - passed_miss_share)
            : 0.0;
    e2e.max_rps =
        passed_rate + crossing * (ladder_rate(failed) - passed_rate);
    e2e.cpu_ms_per_item =
        (process_cpu_seconds() - cpu_start) * 1e3 / static_cast<double>(served);
    swaps.stop();
  } else {
    // Tracing overhead: the same closed-loop burst untraced, then traced.
    const PhaseRun plain = generator->run(bursts[0]);
    hs::obs::set_trace_enabled(true);
    const PhaseRun traced = generator->run(bursts[0]);
    account(plain, false);
    account(traced, false);
    layers.set("trace.overhead_share", traced.wall_s / plain.wall_s - 1.0);
    hs::obs::reset_spans();

    const hs::obs::MetricsSnapshot before =
        hs::obs::MetricsRegistry::global().snapshot();
    std::vector<PhaseTraces> fixed;
    for (const Phase& phase : phases) {
      fixed.push_back(attach_traces(generator->run(phase), *server));
      account(fixed.back().run, false);
    }
    const hs::obs::MetricsSnapshot delta =
        hs::obs::MetricsRegistry::global().snapshot().delta_since(before);
    // The span aggregates cover exactly the fixed phases.
    read_bitops_spans(
        config, static_cast<std::int64_t>(counter_delta(delta, "serve.clips")),
        layers);
    swaps.stop();
    hs::obs::set_trace_enabled(false);

    // Due-time latency and per-stage percentiles of each phase, the stages
    // from the server's own request traces.
    std::vector<double> transport;
    std::vector<double> late;
    double unattributed = 0.0;
    double server_total = 0.0;
    std::set<std::pair<std::uint64_t, double>> batches;
    for (const PhaseTraces& phase : fixed) {
      const std::string& name = phase.run.name;
      const std::vector<double> latencies = phase.run.latencies_ms();
      layers.set("p50_ms." + name,
                 required_percentile(latencies, 0.5, "p50_ms." + name));
      layers.set("p95_ms." + name,
                 required_percentile(latencies, 0.95, "p95_ms." + name));
      const std::vector<double> phase_late = phase.run.late_ms();
      JsonFields line;
      line.str("phase", name)
          .num("requests", static_cast<double>(phase.run.records.size()))
          .num("late_ms_max",
               *std::max_element(phase_late.begin(), phase_late.end()));
      const std::pair<double, const char*> quantiles[] = {
          {0.5, "p50_ms"}, {0.75, "p75_ms"}, {0.9, "p90_ms"},
          {0.95, "p95_ms"}, {0.98, "p98_ms"}, {0.99, "p99_ms"}};
      for (const auto& [q, label] : quantiles) {
        const std::optional<double> value = tail_percentile(latencies, q);
        if (value.has_value()) {
          line.num(label, *value);
        }
      }
      std::printf("%s\n", line.json().c_str());

      std::map<std::string, std::vector<double>> stages;
      for (std::size_t i = 0; i < phase.traces.size(); ++i) {
        late.push_back(phase.run.records[i].late_ms());
        if (!phase.traced[i]) {
          continue;
        }
        const hs::obs::RequestTrace& t = phase.traces[i];
        const RequestRecord& record = phase.run.records[i];
        stages["decode"].push_back(t.decode_seconds * 1e3);
        stages["queue"].push_back(t.queue_seconds * 1e3);
        stages["batch_wait"].push_back(t.batch_seconds * 1e3);
        stages["infer"].push_back(t.infer_seconds * 1e3);
        stages["encode"].push_back(t.encode_seconds * 1e3);
        transport.push_back((record.done_s - record.sent_s - t.total_seconds) *
                            1e3);
        const double attributed = t.decode_seconds + t.queue_seconds +
                                  t.batch_seconds + t.infer_seconds +
                                  t.encode_seconds;
        unattributed += t.total_seconds - attributed;
        server_total += t.total_seconds;
        batches.emplace(t.model_version, t.infer_seconds);
      }
      for (const auto& [stage, samples] : stages) {
        const std::string base = "serve." + stage + "_ms.";
        layers.set(base + "p50." + name,
                   required_percentile(samples, 0.5, base + "p50"));
        layers.set(base + "p95." + name,
                   required_percentile(samples, 0.95, base + "p95"));
      }
      layers.set("loadgen.sent." + name,
                 static_cast<double>(phase.run.records.size()));
      layers.set("loadgen.completed." + name,
                 static_cast<double>(phase.run.records.size() -
                                     phase.run.failed()));
      layers.set("loadgen.failed." + name,
                 static_cast<double>(phase.run.failed()));
    }
    layers.set("loadgen.late_ms_p95",
               required_percentile(late, 0.95, "loadgen.late_ms_p95"));
    layers.set("serve.transport_ms", median(transport));
    const double batch_count =
        static_cast<double>(counter_delta(delta, "serve.batches"));
    const double requests =
        static_cast<double>(counter_delta(delta, "serve.requests"));
    const double clips =
        static_cast<double>(counter_delta(delta, "serve.clips"));
    layers.set("serve.requests_per_batch",
               batch_count > 0 ? requests / batch_count : 0.0);
    layers.set("serve.clips_per_batch",
               batch_count > 0 ? clips / batch_count : 0.0);
    layers.set("serve.shed",
               static_cast<double>(counter_delta(delta, "serve.shed")));
    layers.set("serve.rejects",
               static_cast<double>(counter_delta(delta, "serve.rejects")));
    // Requests fused into one batch share its model version and its exact
    // infer time, so each distinct pair is one classifier call.
    double infer = 0.0;
    for (const auto& batch : batches) {
      infer += batch.second;
    }
    layers.set("core.infer_s", infer);
    layers.set("core.infer_calls", batch_count);
    layers.set("core.clips_per_call",
               batch_count > 0 ? clips / batch_count : 0.0);

    // Swaps: load time, and the latency of requests in flight during a
    // swap or due within 100 ms after it (the new model packs its filters
    // on its first batch).
    std::vector<double> overlapping;
    for (const PhaseTraces& phase : fixed) {
      for (const RequestRecord& record : phase.run.records) {
        const auto due = phase.run.start +
                         std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(record.due_s));
        const auto done = phase.run.start +
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(record.done_s));
        for (const auto& [start, end] : swaps.windows) {
          if (due <= end + std::chrono::milliseconds(100) && done >= start) {
            overlapping.push_back(record.latency_ms());
            break;
          }
        }
      }
    }
    layers.set("serve.swap_s", median(swaps.seconds));
    // p95 when at least 200 requests overlap a swap, else their maximum.
    const std::optional<double> swap_p95 =
        tail_percentile(overlapping, 0.95);
    layers.set("serve.swap_p95_ms",
               swap_p95.has_value()
                   ? *swap_p95
                   : (overlapping.empty()
                          ? 0.0
                          : *std::max_element(overlapping.begin(),
                                              overlapping.end())));
    layers.set("unattributed_s", unattributed);
    layers.set("unattributed_share",
               server_total > 0.0 ? unattributed / server_total : 0.0);
    layers.set("input.clip_density", density);
    layers.set("input.distinct_rasters", kPoolClips);
    layers.set("input.bulk_share", bulk_share);
    layers.set("input.mean_clips_per_request", clips_per_request);
    layers.set("input.offered_rps.low", offered_rps(phases[0]));
    layers.set("input.offered_rps.high", offered_rps(phases[1]));
  }
  result.failed += swaps.failures;
  if (options.trace) {
    layers.set("failed_share", static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted));
  }

  generator.reset();
  server->stop();
  e2e.peak_rss_mb = peak_rss_mib();
  if (options.trace) {
    layers.report(result);
  } else {
    e2e.report(result);
  }
  return result;
}

}  // namespace perfbench
