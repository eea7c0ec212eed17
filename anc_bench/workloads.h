// The five anc_bench workloads. Each builds its inputs from the seed, then
// runs numbered ops; op i is a pure function of (seed, i), so a traced op
// can be checked byte for byte against its untraced twin and a prefix of
// ops can be pinned to a digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "timed.h"

namespace anc::perf {

struct OpResult {
  std::string error;   // "" = every output check passed
  std::uint64_t slots = 0;  // simulated slots the op covered
  // Host seconds of the work a user waits for; output checks excluded.
  double work_s = 0;
  // Output bytes folded into the workload digest: run metrics, SLO
  // reports, CRCs of store and checkpoint files, query results.
  std::string digest;
  // Latency of each result the op delivered (soak epochs, store
  // queries); empty when the op itself is the result.
  std::vector<double> latency_ms;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string_view name() const = 0;
  // Builds the op inputs from `seed`; scratch files go under `dir`.
  // Returns "" on success.
  virtual std::string Setup(std::uint64_t seed, const std::string& dir) = 0;
  // Runs op `index`; a non-null tracer runs it through the decorators.
  virtual OpResult RunOp(std::size_t index, Tracer* tracer) = 0;
  // Ops [0, n) run by every set-up, as warm-up; their outputs form the
  // pinned digest.
  virtual std::size_t warmup_ops() const = 0;
};

const std::vector<std::string_view>& WorkloadNames();
std::unique_ptr<Workload> MakeWorkload(std::string_view name);

}  // namespace anc::perf
