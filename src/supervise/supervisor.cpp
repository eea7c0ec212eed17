#include "supervise/supervisor.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace anc::supervise {
namespace {

using Clock = std::chrono::steady_clock;

Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

// Parses `n` space-separated u64 fields from `s` (after the tag byte).
bool ParseU64s(std::string_view s, std::uint64_t* out, int n) {
  const char* p = s.data();
  const char* end = p + s.size();
  for (int i = 0; i < n; ++i) {
    while (p < end && *p == ' ') ++p;
    if (p >= end) return false;
    char* after = nullptr;
    out[i] = std::strtoull(p, &after, 10);
    if (after == p) return false;
    p = after;
  }
  return true;
}

}  // namespace

struct SoakSupervisor::Worker {
  ::pid_t pid = -1;
  int fd = -1;  // read end of the heartbeat pipe
  std::size_t run = 0;
  int attempt = 1;
  bool eof = false;
  bool hang_killed = false;
  Clock::time_point last_beat{};
  std::string buf;  // partial-line carry
};

SoakSupervisor::SoakSupervisor(sim::ProtocolFactory factory,
                               service::ServiceConfig config,
                               service::SoakOptions options,
                               SupervisorConfig sup)
    : factory_(std::move(factory)),
      config_(std::move(config)),
      options_(std::move(options)),
      sup_(std::move(sup)) {}

SoakSupervisor::~SoakSupervisor() {
  for (const auto& w : live_) {
    if (w->pid > 0) {
      ::kill(w->pid, SIGKILL);
      int status = 0;
      ::waitpid(w->pid, &status, 0);
    }
    if (w->fd >= 0) ::close(w->fd);
  }
}

std::string SoakSupervisor::TracePath(const std::string& dir,
                                      std::size_t run) {
  return dir + "/run_" + std::to_string(run) + ".ancs";
}
std::string SoakSupervisor::CheckpointPath(const std::string& dir,
                                           std::size_t run) {
  return dir + "/run_" + std::to_string(run) + ".ckpt";
}
std::string SoakSupervisor::ReportPath(const std::string& dir,
                                       std::size_t run) {
  return dir + "/run_" + std::to_string(run) + ".slo";
}

const store::EpochSnapshotLog* SoakSupervisor::shard_log(
    std::size_t run) const {
  return run < shard_logs_.size() ? shard_logs_[run].get() : nullptr;
}

FleetView SoakSupervisor::Fleet() const {
  FleetView view;
  for (const auto& log : shard_logs_) {
    if (log == nullptr) continue;
    view.epochs_published += log->published();
    store::EpochSnapshot snap;
    if (log->Latest(&snap)) {
      ++view.shards_reporting;
      view.population += snap.population;
      view.detected += snap.detected;
      view.ghosts += snap.ghosts;
    }
  }
  return view;
}

void SoakSupervisor::ChildMain(int heartbeat_fd, std::size_t run,
                               int attempt) {
  // Drop sibling pipe read-ends inherited across fork.
  for (const auto& w : live_) {
    if (w->fd >= 0) ::close(w->fd);
  }

  const std::string trace_path =
      sup_.trace ? TracePath(sup_.dir, run) : std::string();
  const std::string ckpt_path = CheckpointPath(sup_.dir, run);
  const std::string slo_path = ReportPath(sup_.dir, run);

  store::EpochSnapshotLog log(sup_.snapshot_ring);
  service::SoakOptions opts = options_;
  opts.snapshot_log = &log;
  opts.trace = nullptr;  // traces are the supervisor's per-run files

  const bool selected =
      std::find(sup_.chaos_runs.begin(), sup_.chaos_runs.end(), run) !=
      sup_.chaos_runs.end();
  const bool inject =
      attempt == 1 && selected && sup_.chaos != ChaosKind::kNone;
  const bool inject_hang = inject && sup_.chaos == ChaosKind::kHang;

  service::ResumableOptions res;
  res.checkpoint_every_epochs = sup_.checkpoint_every_epochs;
  res.checkpoint_path = ckpt_path;
  if (inject && sup_.chaos == ChaosKind::kKill) {
    res.abort_before_slot = sup_.chaos_at_slot;
  }
  res.on_epoch = [&](std::uint64_t slot) {
    if (inject_hang && slot >= sup_.chaos_at_slot) {
      for (;;) ::pause();  // silent forever: the supervisor must kill us
    }
    store::EpochSnapshot s;
    if (log.Latest(&s)) {
      ::dprintf(heartbeat_fd,
                "H %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %" PRIu64 "\n",
                slot, s.epoch, s.population, s.detected, s.ghosts,
                s.staleness_q8, s.elapsed_us);
    }
  };

  service::SloReport report;
  bool aborted = false;
  bool done = false;
  if (::access(ckpt_path.c_str(), F_OK) == 0) {
    std::unique_ptr<store::StoreFileSink> sink;
    const std::string err =
        service::ResumeSoak(factory_, config_, opts, run, ckpt_path,
                            trace_path, sup_.store_options, res, &report,
                            &sink, &aborted);
    if (err.empty()) {
      if (!aborted) {
        ::dprintf(heartbeat_fd, "R\n");
        if (sink != nullptr && !sink->Finish().empty()) ::_exit(3);
        done = true;
      }
    } else {
      // Unusable checkpoint (e.g. killed before the write landed, or
      // corrupted on disk): start the shard over from scratch.
      std::remove(ckpt_path.c_str());
    }
  }
  if (!done && !aborted) {
    std::unique_ptr<store::StoreFileSink> sink;
    if (!trace_path.empty()) {
      sink = std::make_unique<store::StoreFileSink>(trace_path,
                                                    sup_.store_options);
      if (!sink->error().empty()) ::_exit(3);
    }
    report = service::RunSoakResumable(factory_, config_, opts, run,
                                       sink.get(), res, &aborted);
    if (!aborted) {
      if (sink != nullptr && !sink->Finish().empty()) ::_exit(3);
      done = true;
    }
  }
  if (aborted) {
    // Chaos kill: die by real SIGKILL — no atexit, no flushes, exactly
    // what the recovery path must survive in production.
    ::kill(::getpid(), SIGKILL);
    ::_exit(9);  // unreachable
  }
  if (!done) ::_exit(4);
  if (!service::WriteSloReportFile(slo_path, report).empty()) ::_exit(5);
  ::dprintf(heartbeat_fd, "D\n");
  ::_exit(0);
}

bool SoakSupervisor::Spawn(std::size_t run, int attempt) {
  int p[2];
  if (::pipe(p) != 0) return false;
  const ::pid_t pid = ::fork();
  if (pid < 0) {
    ::close(p[0]);
    ::close(p[1]);
    return false;
  }
  if (pid == 0) {
    ::close(p[0]);
    ChildMain(p[1], run, attempt);  // [[noreturn]]
  }
  ::close(p[1]);
  ::fcntl(p[0], F_SETFL, O_NONBLOCK);
  auto w = std::make_unique<Worker>();
  w->pid = pid;
  w->fd = p[0];
  w->run = run;
  w->attempt = attempt;
  w->last_beat = Clock::now();
  live_.push_back(std::move(w));
  return true;
}

void SoakSupervisor::HandleLine(Worker& w, const std::string& line) {
  w.last_beat = Clock::now();
  if (line.empty()) return;
  if (line[0] == 'H') {
    std::uint64_t f[7] = {};
    if (ParseU64s(std::string_view(line).substr(1), f, 7) &&
        w.run < shard_logs_.size() && shard_logs_[w.run] != nullptr) {
      store::EpochSnapshot snap;
      snap.epoch = f[1];
      snap.population = f[2];
      snap.detected = f[3];
      snap.ghosts = f[4];
      snap.staleness_q8 = f[5];
      snap.elapsed_us = f[6];
      shard_logs_[w.run]->Publish(snap);
    }
  } else if (line[0] == 'R') {
    outcomes_[w.run].resumed = true;
  }
  // 'D' (done) just refreshes the heartbeat; completion is decided by
  // the exit status + a valid .slo file, never by a pipe message.
}

SupervisorResult SoakSupervisor::Run() {
  SupervisorResult result;
  if (ran_) {
    result.error = "supervisor: Run() already called";
    return result;
  }
  ran_ = true;
  const std::size_t runs = options_.runs;
  shard_logs_.clear();
  shard_logs_.reserve(runs);
  for (std::size_t i = 0; i < runs; ++i) {
    shard_logs_.push_back(
        std::make_unique<store::EpochSnapshotLog>(sup_.snapshot_ring));
  }
  outcomes_.assign(runs, ShardOutcome{});
  for (std::size_t i = 0; i < runs; ++i) outcomes_[i].run = i;
  result.reports.assign(runs, service::SloReport{});

  struct Retry {
    std::size_t run;
    int attempt;
    Clock::time_point at;
  };
  std::vector<Retry> retries;
  std::size_t next_run = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;
  const Clock::duration hb_timeout = FromSeconds(sup_.heartbeat_timeout_s);
  const std::size_t max_workers = std::max<std::size_t>(sup_.workers, 1);

  const auto fail_run = [&](const std::string& why) {
    ++failed;
    if (result.error.empty()) result.error = why;
  };

  while (completed + failed < runs) {
    // Fill free worker slots: due retries first (older work), then
    // fresh runs in index order.
    Clock::time_point now = Clock::now();
    while (live_.size() < max_workers) {
      std::size_t pick = static_cast<std::size_t>(-1);
      int attempt = 1;
      for (auto it = retries.begin(); it != retries.end(); ++it) {
        if (it->at <= now) {
          pick = it->run;
          attempt = it->attempt;
          retries.erase(it);
          break;
        }
      }
      if (pick == static_cast<std::size_t>(-1)) {
        if (next_run >= runs) break;
        pick = next_run++;
      }
      if (!Spawn(pick, attempt)) {
        fail_run("supervisor: fork failed for run " + std::to_string(pick));
        continue;
      }
      ++outcomes_[pick].attempts;
      if (attempt > 1) ++result.restarts;
      if (attempt == 1 && sup_.chaos != ChaosKind::kNone &&
          std::find(sup_.chaos_runs.begin(), sup_.chaos_runs.end(), pick) !=
              sup_.chaos_runs.end()) {
        ++result.chaos_injected;
      }
    }

    if (live_.empty()) {
      if (retries.empty()) break;  // only failures remain
      const auto earliest =
          std::min_element(retries.begin(), retries.end(),
                           [](const Retry& a, const Retry& b) {
                             return a.at < b.at;
                           })
              ->at;
      const auto wait = earliest - Clock::now();
      if (wait > Clock::duration::zero()) {
        std::this_thread::sleep_for(
            std::min(wait, FromSeconds(0.25)));
      }
      continue;
    }

    // Poll every live heartbeat pipe until the nearest deadline.
    std::vector<::pollfd> fds(live_.size());
    for (std::size_t i = 0; i < live_.size(); ++i) {
      fds[i] = {live_[i]->fd, POLLIN, 0};
    }
    now = Clock::now();
    Clock::duration until_next = FromSeconds(0.25);
    for (const auto& w : live_) {
      until_next = std::min(until_next, w->last_beat + hb_timeout - now);
    }
    for (const Retry& rt : retries) {
      until_next = std::min(until_next, rt.at - now);
    }
    const int timeout_ms = static_cast<int>(std::clamp<long long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(until_next)
            .count(),
        10, 250));
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);

    now = Clock::now();
    for (std::size_t i = 0; i < live_.size(); ++i) {
      Worker& w = *live_[i];
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char buf[4096];
        for (;;) {
          const ::ssize_t n = ::read(w.fd, buf, sizeof buf);
          if (n > 0) {
            w.buf.append(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0) w.eof = true;
          break;  // EOF or EAGAIN
        }
        std::size_t nl;
        while ((nl = w.buf.find('\n')) != std::string::npos) {
          HandleLine(w, w.buf.substr(0, nl));
          w.buf.erase(0, nl + 1);
        }
      }
      if (!w.eof && now - w.last_beat > hb_timeout) {
        // Hang: no heartbeat inside the deadline. Kill and let the
        // normal crash-restart path take over.
        ::kill(w.pid, SIGKILL);
        w.hang_killed = true;
        ++result.hangs_detected;
        ++outcomes_[w.run].hang_kills;
      }
    }

    // Reap workers whose pipes closed (their process has exited or is
    // exiting; waitpid below blocks only for that last sliver).
    for (std::size_t i = live_.size(); i > 0; --i) {
      Worker& w = *live_[i - 1];
      if (!w.eof) continue;
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      ::close(w.fd);
      const std::size_t run = w.run;
      const int attempt = w.attempt;
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i - 1));

      bool run_done = false;
      if (clean) {
        const std::string err = service::ReadSloReportFile(
            ReportPath(sup_.dir, run), &result.reports[run]);
        if (err.empty()) {
          outcomes_[run].ok = true;
          ++completed;
          run_done = true;
        }
      }
      if (!run_done) {
        ++outcomes_[run].crashes;
        if (outcomes_[run].attempts <= sup_.max_restarts_per_run) {
          // Exponential backoff: initial * 2^(restarts already used).
          const double backoff =
              sup_.backoff_initial_s *
              static_cast<double>(1ULL << std::min(attempt - 1, 16));
          retries.push_back(
              Retry{run, attempt + 1, Clock::now() + FromSeconds(backoff)});
        } else {
          fail_run("supervisor: run " + std::to_string(run) +
                   " exhausted its crash budget");
        }
      }
    }
  }

  // Defensive: no worker should be live here, but never leak one.
  for (const auto& w : live_) {
    ::kill(w->pid, SIGKILL);
    int status = 0;
    ::waitpid(w->pid, &status, 0);
    ::close(w->fd);
  }
  live_.clear();

  // Merge in run-index order — the same fold RunSoakExperiment uses, so
  // the fleet aggregate is bit-identical to the single-process one.
  for (std::size_t run = 0; run < runs; ++run) {
    if (outcomes_[run].ok) {
      service::AccumulateSoak(result.aggregate, result.reports[run]);
    }
  }
  result.shards = outcomes_;
  result.fleet = Fleet();
  result.ok = completed == runs && result.error.empty();
  if (!result.ok && result.error.empty()) {
    result.error = "supervisor: " + std::to_string(runs - completed) +
                   " shard(s) did not complete";
  }
  return result;
}

}  // namespace anc::supervise
