// Randomized differential test of the event kernel against a reference
// model: a std::map keyed by (time, schedule order). Both sides take the
// same random mix of schedule, cancel, run_until, run_next, run(limit),
// fast_forward_to and next_event_time calls, and the dispatched events
// themselves schedule or cancel further events at now(). Every step must
// agree on return values, thrown errors, now(), pending() and the full
// dispatch log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/time.hpp"

namespace aetr::sim {
namespace {

// 2^40 ps (about 1.1 s): far beyond any period the library schedules.
constexpr Time::Rep kFarPs = Time::Rep{1} << 40;

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finaliser
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// A distance ahead of now(): ties (0 and a few round values) are common,
/// and about one in eight lands at least kFarPs ahead.
Time::Rep draw_delta(std::uint64_t r) {
  switch (r % 8) {
    case 0: return 0;
    case 1: return Time::Rep{1000} * static_cast<Time::Rep>((r >> 8) % 3);
    case 2: return static_cast<Time::Rep>((r >> 8) % 1000);
    case 3: return static_cast<Time::Rep>((r >> 8) % (Time::Rep{1} << 24));
    case 4: return static_cast<Time::Rep>((r >> 8) % (Time::Rep{1} << 34));
    case 5: return Time::Rep{1} << 20;
    case 6: return kFarPs;
    default:
      return kFarPs + static_cast<Time::Rep>((r >> 8) % (Time::Rep{1} << 36));
  }
}

/// What event `token` does when it dispatches, derived from the token alone
/// so both sides compute the same plan: nothing, schedule a child at now()
/// plus a drawn distance (0 = at now() itself), or cancel an earlier token.
struct Plan {
  enum Kind { kNone, kChild, kCancel } kind{kNone};
  Time::Rep child_delta{0};
  int cancel_token{-1};
};

Plan plan_for(std::uint64_t seed, int token) {
  const std::uint64_t r =
      mix(seed ^ (static_cast<std::uint64_t>(token) * 0x100000001B3u));
  Plan p;
  switch (r % 10) {
    case 0:
    case 1: p.kind = Plan::kChild; break;
    case 2:
    case 3: p.kind = Plan::kCancel; break;
    default: break;
  }
  p.child_delta = (r >> 8) % 2 == 0 ? 0 : draw_delta(r >> 9);
  p.cancel_token = token - 1 - static_cast<int>((r >> 40) % 8);
  if (p.kind == Plan::kCancel && p.cancel_token < 0) p.kind = Plan::kNone;
  return p;
}

/// One dispatch: the token, its time, and what its plan did (the child's
/// token, or the cancel's result).
struct LogEntry {
  int token;
  Time::Rep t;
  int effect;
  bool operator==(const LogEntry& o) const {
    return token == o.token && t == o.t && effect == o.effect;
  }
};

/// The kernel under test. Tokens are numbered in schedule order.
struct Real {
  std::uint64_t seed;
  Scheduler s;
  std::vector<EventId> ids;
  std::vector<LogEntry> log;

  int schedule(Time::Rep t) {
    const int token = static_cast<int>(ids.size());
    ids.push_back(s.schedule_at(Time::ps(t), [this, token] { fire(token); }));
    return token;
  }
  void fire(int token) {
    const Plan p = plan_for(seed, token);
    int effect = -1;
    if (p.kind == Plan::kChild) {
      effect = schedule(s.now().count_ps() + p.child_delta);
    } else if (p.kind == Plan::kCancel) {
      effect = cancel(p.cancel_token) ? 1 : 0;
    }
    log.push_back({token, s.now().count_ps(), effect});
  }
  bool cancel(int token) {
    return s.cancel(ids[static_cast<std::size_t>(token)]);
  }
};

/// The reference: pending events in a map ordered by (time, seq).
struct Model {
  std::uint64_t seed{0};
  Time::Rep now{0};
  std::uint64_t next_seq{0};
  std::uint64_t processed{0};
  std::map<std::pair<Time::Rep, std::uint64_t>, int> queue;
  std::vector<std::pair<Time::Rep, std::uint64_t>> keys;  // token -> key
  std::vector<bool> queued;                               // token -> pending
  std::vector<LogEntry> log;

  int schedule(Time::Rep t) {
    const int token = static_cast<int>(keys.size());
    keys.emplace_back(t, next_seq++);
    queued.push_back(true);
    queue.emplace(keys.back(), token);
    return token;
  }
  bool cancel(int token) {
    const auto k = static_cast<std::size_t>(token);
    if (!queued[k]) return false;
    queued[k] = false;
    queue.erase(keys[k]);
    return true;
  }
  Time::Rep next_time() const {
    return queue.empty() ? Time::max().count_ps() : queue.begin()->first.first;
  }
  bool step(Time::Rep horizon) {
    if (queue.empty() || queue.begin()->first.first > horizon) return false;
    const auto it = queue.begin();
    const int token = it->second;
    now = it->first.first;
    queue.erase(it);
    queued[static_cast<std::size_t>(token)] = false;
    ++processed;
    const Plan p = plan_for(seed, token);
    int effect = -1;
    if (p.kind == Plan::kChild) {
      effect = schedule(now + p.child_delta);
    } else if (p.kind == Plan::kCancel) {
      effect = cancel(p.cancel_token) ? 1 : 0;
    }
    log.push_back({token, now, effect});
    return true;
  }
};

void drive(std::uint64_t seed, int ops) {
  std::mt19937_64 rng{seed};
  Real real{seed, {}, {}, {}};
  Model model;
  model.seed = seed;
  const Time::Rep max_ps = Time::max().count_ps();

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t r = rng();
    const Time::Rep now = model.now;
    switch (r % 16) {
      case 0: case 1: case 2: case 3: case 4: case 5: {  // schedule
        const Time::Rep t = now + draw_delta(r >> 4);
        EXPECT_EQ(real.schedule(t), model.schedule(t));
        break;
      }
      case 6: {  // schedule in the past: both refuse, nothing changes
        if (now == 0) break;
        EXPECT_THROW(real.s.schedule_at(Time::ps(now - 1), [] {}),
                     std::logic_error);
        break;
      }
      case 7: case 8: {  // cancel any token, pending or not
        if (model.keys.empty()) break;
        const auto token = static_cast<int>((r >> 4) % model.keys.size());
        EXPECT_EQ(real.cancel(token), model.cancel(token)) << "token " << token;
        break;
      }
      case 9: case 10: {  // run_until a drawn horizon
        const Time::Rep t = now + draw_delta(r >> 4);
        real.s.run_until(Time::ps(t));
        while (model.step(t)) {
        }
        model.now = std::max(model.now, t);
        break;
      }
      case 11: {  // run_until exactly the next event time
        const Time::Rep t = model.next_time();
        if (t == max_ps) break;
        real.s.run_until(Time::ps(t));
        while (model.step(t)) {
        }
        break;
      }
      case 12: {
        EXPECT_EQ(real.s.run_next(), model.step(max_ps));
        break;
      }
      case 13: {  // a bounded run()
        const auto limit = (r >> 4) % 5;
        real.s.run(limit);
        for (std::uint64_t i = 0; i < limit && model.step(max_ps); ++i) {
        }
        break;
      }
      default: {  // fast_forward_to: to, short of, past, or before now
        const Time::Rep next = model.next_time();
        Time::Rep t = now + draw_delta(r >> 6);
        switch ((r >> 4) % 4) {
          case 0: if (next != max_ps) t = next; break;
          case 1: if (next != max_ps) t = now + (next - now) / 2; break;
          case 2: break;
          default: t = now - 1; break;
        }
        const bool refuse = t < now || next < t;
        if (refuse) {
          EXPECT_THROW(real.s.fast_forward_to(Time::ps(t)), std::logic_error);
        } else {
          EXPECT_NO_THROW(real.s.fast_forward_to(Time::ps(t)));
          model.now = t;
        }
        break;
      }
    }
    ASSERT_EQ(real.s.now().count_ps(), model.now) << "op " << op;
    ASSERT_EQ(real.s.pending(), model.queue.size()) << "op " << op;
    ASSERT_EQ(real.s.next_event_time().count_ps(), model.next_time())
        << "op " << op;
    ASSERT_EQ(real.s.processed(), model.processed) << "op " << op;
    ASSERT_EQ(real.log.size(), model.log.size()) << "op " << op;
  }
  // Drain both and compare the whole dispatch history.
  real.s.run();
  while (model.step(max_ps)) {
  }
  EXPECT_EQ(real.s.now().count_ps(), model.now);
  ASSERT_EQ(real.log.size(), model.log.size());
  for (std::size_t i = 0; i < real.log.size(); ++i) {
    ASSERT_EQ(real.log[i], model.log[i]) << "dispatch " << i;
  }
  const auto st = real.s.stats();
  EXPECT_EQ(st.scheduled, model.keys.size());
  EXPECT_EQ(st.cancelled, model.keys.size() - model.processed);
}

TEST(SchedulerModel, RandomOpsMatchReferenceMap) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    drive(seed, 3000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace aetr::sim
