// Open-loop load generator (the benchmark's `loadgen` layer).
//
// A phase's requests are due on a fixed schedule (inputs.h). Up to
// `connections` blocking ServeClient connections, owned by one process,
// take the next due request as soon as they are free, so the number in
// flight is bounded by the connection count and never by the server's
// speed. Each request is timed from when it was DUE, not from when it was
// sent: when every connection is busy, the requests waiting behind them
// accrue the wait (the generator runs late), so a server stall is charged
// to every request it delayed instead of being hidden by a slower send
// rate (coordinated omission).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "measure.h"
#include "serve/client.h"
#include "tensor/tensor.h"

namespace perfbench {

struct RequestRecord {
  double due_s = 0.0;   // from phase start
  double sent_s = 0.0;
  double done_s = 0.0;
  std::int64_t clips = 0;
  bool answered = false;         // labels came back
  bool rejected = false;         // typed reject (shed, too large, ...)
  bool transport_error = false;  // connection failed
  std::int64_t mismatches = 0;   // labels that differ from the reference
  std::uint64_t trace_id = 0;    // server trace id echoed on the response

  bool failed() const { return !answered || mismatches != 0; }
  // Due-time latency; infinite for a failed request, so it misses any
  // latency limit.
  double latency_ms() const;
  double late_ms() const { return (sent_s - due_s) * 1e3; }
};

struct PhaseRun {
  std::string name;
  double rate = 0.0;
  Clock::time_point start;
  double wall_s = 0.0;  // phase start to last completion
  std::vector<RequestRecord> records;  // schedule order

  std::int64_t failed() const;
  std::int64_t mismatches() const;
  std::vector<double> latencies_ms() const;
  std::vector<double> late_ms() const;
};

// Mean lateness of the last quarter of a phase's requests minus that of the
// first quarter: positive and large when the generator falls further behind
// over the phase, i.e. a backlog is growing.
double lateness_growth_ms(const PhaseRun& run);

class LoadGenerator {
 public:
  // `pool` holds the clips requests refer to; `expected` is the reference
  // label of every pool row.
  LoadGenerator(int port, int connections, const hotspot::tensor::Tensor& pool,
                std::vector<int> expected);
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  // Opens every connection; false with `error` set on failure.
  bool connect(std::string* error);
  // Plays `phase` against the server and returns once every request has
  // been answered or has failed.
  PhaseRun run(const Phase& phase);

 private:
  // Sends `request` on `client` at its due time and fills `record`.
  void send(hotspot::serve::ServeClient& client, const Request& request,
            const hotspot::tensor::Tensor& images, Clock::time_point start,
            RequestRecord& record);

  int port_;
  std::vector<std::unique_ptr<hotspot::serve::ServeClient>> clients_;
  const hotspot::tensor::Tensor& pool_;
  std::vector<int> expected_;
};

}  // namespace perfbench
