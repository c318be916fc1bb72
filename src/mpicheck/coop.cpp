#include "mpicheck/coop.h"

#include <algorithm>
#include <memory>
#include <random>
#include <utility>

#include "util/error.h"

namespace pioblast::mpicheck {

namespace {
bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}
}  // namespace

CoopScheduler::CoopScheduler(Chooser chooser) : chooser_(std::move(chooser)) {}

void CoopScheduler::start(int nranks) {
  PIOBLAST_CHECK(nranks >= 1);
  stuck_fired_ = false;
  records_.clear();
}

int CoopScheduler::choose(const std::vector<int>& enabled,
                          const std::vector<mpisim::YieldPoint>& ops) {
  int chosen = enabled[0];
  if (chooser_) {
    const int want = chooser_(records_.size(), enabled, ops);
    if (contains(enabled, want)) chosen = want;
  }
  // The loop only asks at multi-choice points, so every call is a record.
  records_.push_back(DecisionRecord{enabled, ops, chosen});
  return chosen;
}

void CoopScheduler::stuck() { stuck_fired_ = true; }

Schedule CoopScheduler::schedule() const {
  Schedule out;
  out.reserve(records_.size());
  for (const DecisionRecord& r : records_)
    out.push_back(Decision{r.chosen, r.enabled});
  return out;
}

CoopScheduler::Chooser CoopScheduler::first_enabled() {
  return [](std::size_t, const std::vector<int>& enabled,
            const std::vector<mpisim::YieldPoint>&) { return enabled[0]; };
}

CoopScheduler::Chooser CoopScheduler::random(std::uint64_t seed) {
  // Modulo instead of uniform_int_distribution: the distribution's
  // algorithm is implementation-defined, and schedule seeds must replay
  // identically everywhere.
  auto rng = std::make_shared<std::mt19937_64>(seed);
  return [rng](std::size_t, const std::vector<int>& enabled,
               const std::vector<mpisim::YieldPoint>&) {
    return enabled[(*rng)() % enabled.size()];
  };
}

CoopScheduler::Chooser CoopScheduler::forced(Schedule forced,
                                             bool continue_after) {
  auto last = std::make_shared<int>(-1);
  return [forced = std::move(forced), continue_after, last](
             std::size_t index, const std::vector<int>& enabled,
             const std::vector<mpisim::YieldPoint>&) {
    int pick = -1;
    if (index < forced.size() && contains(enabled, forced[index].rank))
      pick = forced[index].rank;
    if (pick == -1) {
      if (continue_after && contains(enabled, *last))
        pick = *last;
      else
        pick = enabled[0];
    }
    *last = pick;
    return pick;
  };
}

}  // namespace pioblast::mpicheck
