// make_crash_fixtures — regenerates the committed kill-matrix fixtures
// under tests/golden/ that the crash-recovery tests (test_recover.cpp,
// test_checkpoint.cpp) and the CI crash-recovery job consume.
//
//   make_crash_fixtures --dir=tests/golden
//
// One deterministic FCAT-2 smoke soak (n=24, seed=7, run 0, 512-event
// blocks) is SIGKILL-simulated at slot 1700 with a checkpoint cadence of
// every 2 epochs, then cut three ways — the kill matrix:
//
//   soak_kill_boundary.ancs  file as the kill left it: a clean prefix
//                            ending at a block boundary, no footer
//                            ("kill between blocks")
//   soak_kill_block.ancs     the same prefix torn 37 bytes into its
//                            final block ("kill during block write")
//   soak_resume.ckpt         the last checkpoint the run cut — valid,
//                            resumes to a byte-identical completion
//   soak_kill_ckpt.ckpt      that checkpoint torn mid-file ("kill
//                            during checkpoint write") — must be
//                            rejected fail-closed
//
// The generator is deterministic: rerunning it must reproduce the
// committed bytes exactly (CI regenerates and diffs).
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include <sys/stat.h>

#include "common/cli.h"
#include "common/file_io.h"
#include "core/factories.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "store/container.h"

namespace {

using namespace anc;

// Writes the first `keep` bytes of `from` to `to`; false on any failure.
bool CopyPrefix(const std::string& from, const std::string& to,
                long keep) {
  std::string bytes;
  return ReadWholeFile(from, &bytes).empty() &&
         WriteWholeFile(to, std::string_view(bytes).substr(
                                0, static_cast<std::size_t>(keep)))
             .empty();
}

long FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<long>(st.st_size);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string dir = args.GetString("dir", "tests/golden");

  // The fixture run. Changing any of these constants changes the
  // committed bytes — the tests pin the matching values.
  core::FcatOptions fcat;
  fcat.lambda = 2;
  const sim::ProtocolFactory factory = core::MakeFcatFactory(fcat);
  service::ServiceConfig config;
  service::LookupServiceProfile("smoke", &config);
  service::SoakOptions options;
  options.n_initial = 24;
  options.runs = 1;
  options.base_seed = 7;
  store::StoreWriterOptions sopts;
  sopts.block_events = 512;  // small blocks: several land before the kill
  sopts.compress = true;
  sopts.sync = store::SyncPolicy::kFlush;

  const std::string boundary = dir + "/soak_kill_boundary.ancs";
  const std::string block = dir + "/soak_kill_block.ancs";
  const std::string ckpt = dir + "/soak_resume.ckpt";
  const std::string torn_ckpt = dir + "/soak_kill_ckpt.ckpt";

  {
    auto sink = std::make_unique<store::StoreFileSink>(boundary, sopts);
    if (!sink->error().empty()) {
      std::fprintf(stderr, "open %s: %s\n", boundary.c_str(),
                   sink->error().c_str());
      return 1;
    }
    service::ResumableOptions resumable;
    resumable.checkpoint_every_epochs = 2;
    resumable.checkpoint_path = ckpt;
    resumable.abort_before_slot = 1700;
    bool aborted = false;
    (void)service::RunSoakResumable(factory, config, options, 0, sink.get(),
                                    resumable, &aborted);
    if (!aborted) {
      std::fprintf(stderr, "fixture run completed before the kill slot\n");
      return 1;
    }
    // Dropped without Finish(): completed blocks flushed, no footer —
    // exactly what a SIGKILL between block writes leaves behind.
  }

  const long boundary_size = FileSize(boundary);
  if (boundary_size <= 64) {
    std::fprintf(stderr, "boundary fixture too small (%ld bytes)\n",
                 boundary_size);
    return 1;
  }
  if (!CopyPrefix(boundary, block, boundary_size - 37)) {
    std::fprintf(stderr, "failed to cut mid-block fixture\n");
    return 1;
  }
  const long ckpt_size = FileSize(ckpt);
  if (ckpt_size <= 16) {
    std::fprintf(stderr, "checkpoint fixture missing or tiny (%ld)\n",
                 ckpt_size);
    return 1;
  }
  if (!CopyPrefix(ckpt, torn_ckpt, ckpt_size / 2)) {
    std::fprintf(stderr, "failed to cut torn-checkpoint fixture\n");
    return 1;
  }

  // Sanity: both store fixtures must salvage, and the torn checkpoint
  // must be rejected.
  for (const std::string* path : {&boundary, &block}) {
    store::RecoverInfo info;
    const std::string recovered = *path + ".recovered.tmp";
    const std::string err = store::RecoverStoreFile(*path, recovered, &info);
    std::remove(recovered.c_str());
    if (!err.empty()) {
      std::fprintf(stderr, "recover %s: %s\n", path->c_str(), err.c_str());
      return 1;
    }
    std::printf(
        "%s: %ld bytes, salvaged %llu blocks / %llu events, "
        "discarded %llu, tail_torn=%d\n",
        path->c_str(), FileSize(*path),
        static_cast<unsigned long long>(info.salvaged_blocks),
        static_cast<unsigned long long>(info.salvaged_events),
        static_cast<unsigned long long>(info.discarded_bytes),
        info.tail_torn ? 1 : 0);
    if (info.salvaged_blocks == 0 || info.salvaged_events == 0) {
      std::fprintf(stderr, "fixture %s salvaged nothing\n", path->c_str());
      return 1;
    }
  }
  service::ServiceCheckpoint decoded;
  if (!service::ReadCheckpointFile(ckpt, &decoded).empty()) {
    std::fprintf(stderr, "golden checkpoint does not decode\n");
    return 1;
  }
  std::printf("%s: %ld bytes, slot=%llu service=%s\n", ckpt.c_str(),
              ckpt_size, static_cast<unsigned long long>(decoded.slot),
              decoded.service_name.c_str());
  if (service::ReadCheckpointFile(torn_ckpt, &decoded).empty()) {
    std::fprintf(stderr, "torn checkpoint unexpectedly decoded\n");
    return 1;
  }
  std::printf("%s: %ld bytes, rejected as expected\n", torn_ckpt.c_str(),
              FileSize(torn_ckpt));
  return 0;
}
