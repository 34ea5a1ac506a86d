#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

namespace perfbench {

namespace hs = hotspot;

namespace {
constexpr std::chrono::microseconds kSpinLead{2000};
}  // namespace

double RequestRecord::latency_ms() const {
  return failed() ? std::numeric_limits<double>::infinity()
                  : (done_s - due_s) * 1e3;
}

std::int64_t PhaseRun::failed() const {
  return std::count_if(records.begin(), records.end(),
                       [](const RequestRecord& r) { return r.failed(); });
}

std::int64_t PhaseRun::mismatches() const {
  std::int64_t total = 0;
  for (const RequestRecord& record : records) {
    total += record.mismatches;
  }
  return total;
}

std::vector<double> PhaseRun::latencies_ms() const {
  std::vector<double> out;
  for (const RequestRecord& record : records) {
    out.push_back(record.latency_ms());
  }
  return out;
}

std::vector<double> PhaseRun::late_ms() const {
  std::vector<double> out;
  for (const RequestRecord& record : records) {
    out.push_back(record.late_ms());
  }
  return out;
}

double lateness_growth_ms(const PhaseRun& run) {
  const std::size_t quarter = run.records.size() / 4;
  if (quarter == 0) {
    return 0.0;
  }
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    first += run.records[i].late_ms();
    last += run.records[run.records.size() - 1 - i].late_ms();
  }
  return (last - first) / static_cast<double>(quarter);
}

LoadGenerator::LoadGenerator(int port, int connections,
                             const hs::tensor::Tensor& pool,
                             std::vector<int> expected)
    : port_(port), pool_(pool), expected_(std::move(expected)) {
  for (int i = 0; i < connections; ++i) {
    clients_.push_back(std::make_unique<hs::serve::ServeClient>());
  }
}

bool LoadGenerator::connect(std::string* error) {
  for (auto& client : clients_) {
    if (!client->connected() && !client->connect("127.0.0.1", port_, error)) {
      return false;
    }
  }
  return true;
}

PhaseRun LoadGenerator::run(const Phase& phase) {
  // Requests are materialized before the clock starts so the generator's
  // own work never delays a send.
  const std::size_t count = phase.requests.size();
  std::vector<hs::tensor::Tensor> images(count);
  for (std::size_t i = 0; i < count; ++i) {
    images[i] = gather_rows(pool_, phase.requests[i].clip_ids);
  }
  PhaseRun run;
  run.name = phase.name;
  run.rate = phase.rate;
  run.records.resize(count);
  std::atomic<std::size_t> next{0};
  run.start = Clock::now();
  const Clock::time_point start = run.start;

  const auto worker = [&](hs::serve::ServeClient& client) {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      RequestRecord& record = run.records[i];
      try {
        send(client, phase.requests[i], images[i], start, record);
      } catch (const std::exception&) {
        record.answered = false;
        record.transport_error = true;
        client.close();
      }
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on scope exit
    for (auto& client : clients_) {
      threads.emplace_back(worker, std::ref(*client));
    }
  }
  run.wall_s = seconds_between(start, Clock::now());
  return run;
}

void LoadGenerator::send(hs::serve::ServeClient& client,
                         const Request& request,
                         const hs::tensor::Tensor& images,
                         Clock::time_point start, RequestRecord& record) {
  record.due_s = request.due_s;
  record.clips = static_cast<std::int64_t>(request.clip_ids.size());
  // Sleep to just short of the due time, then spin: a sleeping thread can
  // wake milliseconds late on a busy host, and that lateness would be
  // charged to the server.
  const Clock::time_point due =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(request.due_s));
  std::this_thread::sleep_until(due - kSpinLead);
  while (Clock::now() < due) {
  }
  record.sent_s = seconds_between(start, Clock::now());
  std::string error;
  if (!client.connected() && !client.connect("127.0.0.1", port_, &error)) {
    record.transport_error = true;
    record.done_s = seconds_between(start, Clock::now());
    return;
  }
  hs::serve::PredictOutcome outcome;
  const bool round_trip = client.predict(
      record.clips == kBulkClips ? "bulk" : "interactive", images, &outcome,
      &error);
  record.done_s = seconds_between(start, Clock::now());
  if (!round_trip) {
    record.transport_error = true;
    client.close();
    return;
  }
  record.trace_id = client.last_trace_id();
  if (!outcome.ok) {
    record.rejected = true;
    return;
  }
  record.answered = true;
  std::vector<int> want;
  for (const int id : request.clip_ids) {
    want.push_back(expected_[static_cast<std::size_t>(id)]);
  }
  record.mismatches = count_label_mismatches(outcome.labels, want);
}

}  // namespace perfbench
