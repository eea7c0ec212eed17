#include "deploy/scheduler.h"

#include <algorithm>
#include <numeric>

namespace anc::deploy {
namespace {

// One reader per slot, in index order, skipping finished readers. Safe
// under any interference graph and the natural baseline: it is exactly
// the paper's Section II-A "read at several locations" plan, just with
// the positions time-multiplexed instead of visited.
class SequentialScheduler final : public Scheduler {
 public:
  explicit SequentialScheduler(std::size_t n_readers) : n_(n_readers) {}

  std::string_view name() const override { return "sequential"; }

  std::vector<std::uint32_t> NextSlot(
      const std::vector<bool>& pending) override {
    for (std::size_t step = 0; step < n_; ++step) {
      const std::uint32_t reader = cursor_;
      cursor_ = (cursor_ + 1) % n_;
      if (pending[reader]) return {reader};
    }
    return {};
  }

  void SaveState(std::string* out) const override {
    anc::ser::PutVarint(*out, cursor_);
  }
  bool RestoreState(anc::ser::Reader& r) override {
    // NextSlot indexes `pending` with the cursor: bound it before the
    // narrowing cast (0 stays valid when there are no readers).
    const std::uint64_t cursor = r.Varint();
    if (!r.ok || (cursor != 0 && cursor >= n_)) return false;
    cursor_ = static_cast<std::uint32_t>(cursor);
    return true;
  }

 private:
  std::size_t n_;
  std::uint32_t cursor_ = 0;
};

// Static TDMA from a greedy proper coloring: slot t activates one color
// class, cycling. Color classes are independent sets by construction, so
// k mutually non-interfering readers run concurrently. Classes whose
// every reader already finished are skipped, costing nothing.
class ColoringScheduler final : public Scheduler {
 public:
  explicit ColoringScheduler(const InterferenceGraph& graph)
      : colors_(GreedyColoring(graph)) {
    const std::uint32_t n_colors =
        colors_.empty()
            ? 1
            : 1 + *std::max_element(colors_.begin(), colors_.end());
    classes_.resize(n_colors);
    for (std::uint32_t r = 0; r < colors_.size(); ++r) {
      classes_[colors_[r]].push_back(r);
    }
  }

  std::string_view name() const override { return "coloring"; }

  std::vector<std::uint32_t> NextSlot(
      const std::vector<bool>& pending) override {
    for (std::size_t tried = 0; tried < classes_.size(); ++tried) {
      const auto& cls = classes_[next_class_];
      next_class_ = (next_class_ + 1) % classes_.size();
      std::vector<std::uint32_t> active;
      for (std::uint32_t reader : cls) {
        if (pending[reader]) active.push_back(reader);
      }
      if (!active.empty()) return active;
    }
    return {};
  }

  void SaveState(std::string* out) const override {
    anc::ser::PutVarint(*out, next_class_);
  }
  bool RestoreState(anc::ser::Reader& r) override {
    next_class_ = static_cast<std::size_t>(r.Varint());
    return r.ok && next_class_ < classes_.size();
  }

 private:
  std::vector<std::uint32_t> colors_;
  std::vector<std::vector<std::uint32_t>> classes_;
  std::size_t next_class_ = 0;
};

// Colorwave/DCS-style distributed randomized coloring: each reader
// independently draws a slot number ("color") within its local frame at
// the start of every round and transmits in that slot — unless an
// interfering neighbour drew the same one, in which case both detect the
// reader collision and stay silent (the DCS safety rule), and each
// enlarges its local frame for the next round (the Colorwave kick
// reaction). Frames shrink again after consecutive clean rounds, so the
// frame length tracks the local contention level without any global
// coordination.
class ColorwaveScheduler final : public Scheduler {
 public:
  ColorwaveScheduler(const InterferenceGraph& graph, anc::Pcg32 rng)
      : graph_(graph),
        rng_(rng),
        max_colors_(graph.size(), kInitialColors),
        colors_(graph.size(), 0),
        blocked_(graph.size(), false),
        clean_rounds_(graph.size(), 0),
        color_cap_(std::max<std::size_t>(graph.MaxDegree() + 2, 2)) {}

  std::string_view name() const override { return "colorwave"; }

  std::vector<std::uint32_t> NextSlot(
      const std::vector<bool>& pending) override {
    if (round_slot_ >= round_length_) StartRound(pending);
    std::vector<std::uint32_t> active;
    for (std::uint32_t r = 0; r < graph_.size(); ++r) {
      if (pending[r] && !blocked_[r] && colors_[r] == round_slot_) {
        active.push_back(r);
      }
    }
    ++round_slot_;
    return active;
  }

  void SaveState(std::string* out) const override {
    anc::PutPcg32(*out, rng_);
    anc::ser::PutVarint(*out, max_colors_.size());
    for (std::uint32_t c : max_colors_) anc::ser::PutVarint(*out, c);
    for (std::uint32_t c : colors_) anc::ser::PutVarint(*out, c);
    for (bool b : blocked_) anc::ser::PutBool(*out, b);
    for (int c : clean_rounds_) {
      anc::ser::PutVarint(*out, static_cast<std::uint64_t>(c));
    }
    anc::ser::PutVarint(*out, round_slot_);
    anc::ser::PutVarint(*out, round_length_);
  }
  bool RestoreState(anc::ser::Reader& r) override {
    if (!anc::ReadPcg32(r, rng_)) return false;
    if (static_cast<std::size_t>(r.Varint()) != max_colors_.size()) {
      return false;  // reader-count mismatch
    }
    for (std::uint32_t& c : max_colors_) {
      c = static_cast<std::uint32_t>(r.Varint());
    }
    for (std::uint32_t& c : colors_) {
      c = static_cast<std::uint32_t>(r.Varint());
    }
    for (std::size_t i = 0; i < blocked_.size(); ++i) {
      blocked_[i] = r.Bool();
    }
    for (int& c : clean_rounds_) c = static_cast<int>(r.Varint());
    round_slot_ = static_cast<std::uint32_t>(r.Varint());
    round_length_ = static_cast<std::uint32_t>(r.Varint());
    return r.ok;
  }

 private:
  static constexpr std::uint32_t kInitialColors = 2;
  static constexpr int kShrinkAfterCleanRounds = 4;

  void StartRound(const std::vector<bool>& pending) {
    // Draws happen in reader-index order so a fixed seed reproduces the
    // identical schedule.
    round_length_ = 1;
    for (std::uint32_t r = 0; r < graph_.size(); ++r) {
      if (!pending[r]) continue;
      colors_[r] = rng_.UniformBelow(max_colors_[r]);
      round_length_ = std::max<std::uint32_t>(round_length_, max_colors_[r]);
    }
    for (std::uint32_t r = 0; r < graph_.size(); ++r) {
      if (!pending[r]) continue;
      blocked_[r] = false;
      for (std::uint32_t nb : graph_.adjacency[r]) {
        if (pending[nb] && colors_[nb] == colors_[r]) {
          blocked_[r] = true;
          break;
        }
      }
      if (blocked_[r]) {
        // Kicked: more colors next round, up to degree+2 (enough for a
        // collision-free assignment to exist).
        max_colors_[r] = std::min<std::uint32_t>(
            max_colors_[r] + 1, static_cast<std::uint32_t>(color_cap_));
        clean_rounds_[r] = 0;
      } else if (++clean_rounds_[r] >= kShrinkAfterCleanRounds) {
        // Sustained success: try a tighter frame for better duty cycle.
        max_colors_[r] = std::max<std::uint32_t>(max_colors_[r] - 1, 1);
        clean_rounds_[r] = 0;
      }
    }
    round_slot_ = 0;
  }

  const InterferenceGraph graph_;
  anc::Pcg32 rng_;
  std::vector<std::uint32_t> max_colors_;
  std::vector<std::uint32_t> colors_;
  std::vector<bool> blocked_;
  std::vector<int> clean_rounds_;
  std::size_t color_cap_;
  std::uint32_t round_slot_ = 0;
  std::uint32_t round_length_ = 0;
};

}  // namespace

std::string_view SchedulerPolicyName(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kSequential:
      return "sequential";
    case SchedulerPolicy::kColoring:
      return "coloring";
    case SchedulerPolicy::kColorwave:
      return "colorwave";
  }
  return "unknown";
}

std::vector<std::uint32_t> GreedyColoring(const InterferenceGraph& graph) {
  const std::size_t n = graph.size();
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return graph.adjacency[a].size() >
                            graph.adjacency[b].size();
                   });
  constexpr std::uint32_t kUncolored = ~std::uint32_t{0};
  std::vector<std::uint32_t> colors(n, kUncolored);
  std::vector<bool> taken;
  for (std::uint32_t reader : order) {
    taken.assign(graph.adjacency[reader].size() + 1, false);
    for (std::uint32_t nb : graph.adjacency[reader]) {
      if (colors[nb] != kUncolored && colors[nb] < taken.size()) {
        taken[colors[nb]] = true;
      }
    }
    std::uint32_t color = 0;
    while (taken[color]) ++color;
    colors[reader] = color;
  }
  return colors;
}

std::unique_ptr<Scheduler> MakeScheduler(SchedulerPolicy policy,
                                         const InterferenceGraph& graph,
                                         anc::Pcg32 rng) {
  switch (policy) {
    case SchedulerPolicy::kSequential:
      return std::make_unique<SequentialScheduler>(graph.size());
    case SchedulerPolicy::kColoring:
      return std::make_unique<ColoringScheduler>(graph);
    case SchedulerPolicy::kColorwave:
      return std::make_unique<ColorwaveScheduler>(graph, rng);
  }
  return nullptr;
}

}  // namespace anc::deploy
