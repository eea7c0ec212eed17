// The coded-ALOHA peeling decoder (protocols/peeling.h): a differential
// test against the find/erase sweep the IRSA and SEEDED readers ran
// before it, plus in-process re-recordings of the three coded-ALOHA
// golden traces, so any drift in decode order fails ctest.
#include "protocols/peeling.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/factories.h"
#include "protocols/degree_dist.h"
#include "read_back.h"
#include "sim/runner.h"
#include "trace/binary.h"

namespace anc::protocols {
namespace {

// One decode's input: `n_slots` frame slots followed by stored records.
struct System {
  std::uint32_t num_tags = 0;
  std::size_t n_slots = 0;
  std::vector<std::vector<std::uint32_t>> equations;
  std::vector<std::uint64_t> record_ids;  // per stored record
};

// What a decode hands back to its protocol.
struct Outcome {
  std::vector<PeelingDecoder::Read> reads;
  std::vector<std::vector<std::uint32_t>> survivors;  // per equation
  std::int64_t pops = 0;
};

// The reference: the sweep both DecodeFrame()s ran before the shared
// decoder. A decoded tag is cancelled by scanning every equation with
// find/erase; ready-queue seeding covers the frame's slots only (stored
// records hold >= 2 unknowns when a frame starts).
Outcome ReferenceSweep(const System& sys, int max_ic_iterations) {
  Outcome out;
  out.survivors = sys.equations;
  auto& working = out.survivors;
  std::vector<std::uint8_t> decoded(sys.num_tags, 0);
  std::vector<std::uint64_t> ready;
  for (std::uint64_t s = 0; s < sys.n_slots; ++s) {
    if (working[s].size() == 1) ready.push_back(s);
  }
  int iterations = 0;
  std::size_t head = 0;
  while (head < ready.size() &&
         iterations <
             max_ic_iterations * static_cast<int>(working.size())) {
    const std::uint64_t idx = ready[head++];
    ++iterations;
    if (working[idx].size() != 1) continue;
    const std::uint32_t tag = working[idx][0];
    if (decoded[tag]) continue;
    decoded[tag] = 1;
    out.reads.push_back({tag, static_cast<std::uint32_t>(idx)});
    for (std::size_t j = 0; j < working.size(); ++j) {
      auto& tags = working[j];
      const auto it = std::find(tags.begin(), tags.end(), tag);
      if (it == tags.end()) continue;
      tags.erase(it);
      if (tags.size() == 1) ready.push_back(j);
    }
  }
  out.pops = iterations;
  return out;
}

Outcome Peel(PeelingDecoder& peeler, const System& sys) {
  peeler.Reset(sys.num_tags);
  for (const auto& tags : sys.equations) peeler.AddEquation(tags);
  peeler.Decode();
  Outcome out;
  out.reads.assign(peeler.reads().begin(), peeler.reads().end());
  for (std::size_t e = 0; e < sys.equations.size(); ++e) {
    auto survivors = sys.equations[e];
    std::erase_if(survivors,
                  [&](std::uint32_t tag) { return peeler.Decoded(tag); });
    EXPECT_EQ(peeler.Remaining(e), survivors.size()) << "equation " << e;
    out.survivors.push_back(std::move(survivors));
  }
  out.pops = peeler.pops();
  return out;
}

// A random frame as the IRSA/SEEDED reader builds one, plus random stored
// records: per-tag replica degrees from a randomly chosen Λ, some tags
// departing mid-frame (their replicas from the cursor on vanish, their
// stored-record contributions stay), and stored records over any tag,
// departed or not.
System RandomSystem(Pcg32& rng) {
  System sys;
  sys.num_tags = 1 + rng.UniformBelow(300);
  const std::uint32_t frame = 1 + rng.UniformBelow(200);
  sys.n_slots = frame;
  sys.equations.assign(frame, {});

  const DegreeDistribution degrees[] = {
      DegreeDistribution::IrsaOptimal(), DegreeDistribution::Crdsa2(),
      DegreeDistribution::Crdsa3(), DegreeDistribution({1.0})};
  const DegreeDistribution& lambda = degrees[rng.UniformBelow(4)];
  const double participation = rng.UniformDouble();
  std::vector<std::vector<std::uint32_t>> replicas(sys.num_tags);
  for (std::uint32_t tag = 0; tag < sys.num_tags; ++tag) {
    if (rng.UniformDouble() >= participation) continue;
    const int degree = std::min<int>(lambda.Sample(rng),
                                     static_cast<int>(std::min(frame, 16u)));
    while (static_cast<int>(replicas[tag].size()) < degree) {
      const std::uint32_t slot = rng.UniformBelow(frame);
      auto& mine = replicas[tag];
      if (std::find(mine.begin(), mine.end(), slot) != mine.end()) continue;
      mine.push_back(slot);
      sys.equations[slot].push_back(tag);
    }
  }
  // Mid-frame departures.
  const std::uint32_t departures = rng.UniformBelow(4);
  for (std::uint32_t d = 0; d < departures; ++d) {
    const std::uint32_t tag = rng.UniformBelow(sys.num_tags);
    for (std::uint32_t s = rng.UniformBelow(frame); s < frame; ++s) {
      auto& tags = sys.equations[s];
      tags.erase(std::remove(tags.begin(), tags.end(), tag), tags.end());
    }
  }
  // Stored records (none half the time: the Irsa case).
  const std::uint32_t records =
      rng.UniformBelow(2) == 0 || sys.num_tags < 2 ? 0 : rng.UniformBelow(80);
  std::uint64_t id = rng.UniformBelow(1000);
  for (std::uint32_t j = 0; j < records; ++j) {
    const std::uint32_t size =
        2 + rng.UniformBelow(std::min(sys.num_tags - 1, 6u));
    std::vector<std::uint32_t> record;
    while (record.size() < size) {
      const std::uint32_t tag = rng.UniformBelow(sys.num_tags);
      if (std::find(record.begin(), record.end(), tag) == record.end()) {
        record.push_back(tag);
      }
    }
    sys.equations.push_back(std::move(record));
    id += 1 + rng.UniformBelow(5);
    sys.record_ids.push_back(id);
  }
  return sys;
}

enum class Provenance { kSingleton, kInFrame, kStored };

std::vector<Provenance> Provenances(const System& sys, const Outcome& out) {
  std::vector<Provenance> p;
  for (const auto& read : out.reads) {
    p.push_back(read.equation >= sys.n_slots ? Provenance::kStored
                : sys.equations[read.equation].size() == 1
                    ? Provenance::kSingleton
                    : Provenance::kInFrame);
  }
  return p;
}

std::vector<std::uint64_t> ResolvedRecordIds(const System& sys,
                                             const Outcome& out) {
  std::vector<std::uint64_t> ids;
  for (const auto& read : out.reads) {
    if (read.equation >= sys.n_slots) {
      ids.push_back(sys.record_ids[read.equation - sys.n_slots]);
    }
  }
  return ids;
}

std::vector<std::uint32_t> Tags(const Outcome& out) {
  std::vector<std::uint32_t> tags;
  for (const auto& read : out.reads) tags.push_back(read.tag);
  return tags;
}

std::vector<std::uint32_t> Equations(const Outcome& out) {
  std::vector<std::uint32_t> equations;
  for (const auto& read : out.reads) equations.push_back(read.equation);
  return equations;
}

TEST(PeelingDecoder, MatchesTheFindEraseSweepOnRandomSystems) {
  // Every equation enters the ready queue at most once (counts only
  // fall), so the sweep's pop cap never binds at one pop per equation or
  // more, and the decoder, which has no cap, matches it there.
  PeelingDecoder peeler;  // reused across systems, as the protocols do
  Pcg32 rng(20260917, 16);
  std::size_t decoded_total = 0, stored_total = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const System sys = RandomSystem(rng);
    for (const int max_ic : {50, 1}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " max_ic " +
                   std::to_string(max_ic));
      const Outcome want = ReferenceSweep(sys, max_ic);
      const Outcome got = Peel(peeler, sys);
      ASSERT_EQ(Tags(got), Tags(want)) << "decode order";
      ASSERT_EQ(Equations(got), Equations(want));
      ASSERT_EQ(Provenances(sys, got), Provenances(sys, want));
      ASSERT_EQ(ResolvedRecordIds(sys, got), ResolvedRecordIds(sys, want));
      ASSERT_EQ(got.survivors, want.survivors);
      ASSERT_EQ(got.pops, want.pops);
      decoded_total += got.reads.size();
      stored_total += ResolvedRecordIds(sys, got).size();
    }
  }
  // The generator must exercise every path it is meant to.
  EXPECT_GT(decoded_total, 10000u);
  EXPECT_GT(stored_total, 100u);
}

TEST(PeelingDecoder, StoppingSetSurvives) {
  // Tags 0 and 1 share both of their slots: nothing peels. Tag 2's
  // singleton decodes and cancels out of its second slot only.
  PeelingDecoder peeler;
  peeler.Reset(3);
  const std::vector<std::vector<std::uint32_t>> slots = {
      {0, 1}, {2}, {1, 0}, {2, 0, 1}};
  for (const auto& s : slots) peeler.AddEquation(s);
  peeler.Decode();
  ASSERT_EQ(peeler.reads().size(), 1u);
  EXPECT_EQ(peeler.reads()[0].tag, 2u);
  EXPECT_EQ(peeler.reads()[0].equation, 1u);
  EXPECT_FALSE(peeler.Decoded(0));
  EXPECT_FALSE(peeler.Decoded(1));
  EXPECT_EQ(peeler.Remaining(0), 2u);
  EXPECT_EQ(peeler.Remaining(1), 0u);
  EXPECT_EQ(peeler.Remaining(3), 2u);
  EXPECT_EQ(peeler.pops(), 1);
}

TEST(PeelingDecoder, CascadeThroughAStoredChain) {
  // A singleton starts a cascade that walks a chain of two-tag
  // equations; each link is queued when its predecessor's tag cancels.
  PeelingDecoder peeler;
  peeler.Reset(5);
  const std::vector<std::vector<std::uint32_t>> eqs = {
      {3, 4}, {0}, {1, 2}, {0, 1}, {2, 3}};
  for (const auto& e : eqs) peeler.AddEquation(e);
  peeler.Decode();
  std::vector<std::uint32_t> order;
  for (const auto& r : peeler.reads()) order.push_back(r.tag);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  for (std::size_t e = 0; e < eqs.size(); ++e) {
    EXPECT_EQ(peeler.Remaining(e), 0u);
  }
}

// ---- coded-ALOHA goldens, re-recorded in-process ---------------------------

using testing_trace::GoldenV1;

// The v1 encoding of what `trace_inspect record --protocol=<p> --n=<n>
// --runs=2 --seed=1` records.
std::string RecordGolden(const sim::ProtocolFactory& factory,
                         std::size_t n_tags) {
  sim::ExperimentOptions eo;
  eo.n_tags = n_tags;
  eo.runs = 2;
  eo.base_seed = 1;
  trace::MemorySink recorded;
  eo.trace = &recorded;
  sim::RunExperiment(factory, eo);
  return trace::EncodeTrace(recorded.TakeFile());
}

TEST(CodedGolden, IrsaSmokeReRecordsByteIdentical) {
  const std::string golden = GoldenV1("irsa_smoke");
  ASSERT_FALSE(golden.empty());
  EXPECT_TRUE(RecordGolden(core::MakeIrsaFactory(), 200) == golden)
      << "irsa_smoke.ancs drifted";
}

TEST(CodedGolden, SeededSmokeReRecordsByteIdentical) {
  const std::string golden = GoldenV1("seeded_smoke");
  ASSERT_FALSE(golden.empty());
  EXPECT_TRUE(RecordGolden(core::MakeSeededFactory(), 150) == golden)
      << "seeded_smoke.ancs drifted";
}

TEST(CodedGolden, CrdsaSmokeReRecordsByteIdentical) {
  const std::string golden = GoldenV1("crdsa_smoke");
  ASSERT_FALSE(golden.empty());
  EXPECT_TRUE(RecordGolden(core::MakeCrdsaFactory(), 150) == golden)
      << "crdsa_smoke.ancs drifted";
}

}  // namespace
}  // namespace anc::protocols
