#include "support/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>

#include "support/table.hpp"
#include "support/thread_safety.hpp"

namespace mpicp::support::trace {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Adds `add`'s spans into `into` (count, total, min, max).
void merge(ProfileEntry& into, const ProfileEntry& add) {
  into.min_ns =
      into.count == 0 ? add.min_ns : std::min(into.min_ns, add.min_ns);
  into.max_ns = std::max(into.max_ns, add.max_ns);
  into.count += add.count;
  into.total_ns += add.total_ns;
}

/// Profile entries keyed by path (the entries' own `path` stays empty).
using PathProfile = std::map<std::string, ProfileEntry>;

/// Per-thread profile store. Span closes take the store's own mutex,
/// which is uncontended except while profile()/reset() walks all stores.
struct ThreadStore {
  Mutex mu;
  PathProfile by_path MPICP_GUARDED_BY(mu);
};

struct Stores {
  Mutex mu;
  std::vector<std::shared_ptr<ThreadStore>> all MPICP_GUARDED_BY(mu);
};

Stores& stores() {
  static Stores* s = new Stores;  // leaked: outlives pool threads
  return *s;
}

struct ThreadState {
  std::shared_ptr<ThreadStore> store;  // lazily registered
  // Open span paths, innermost at [depth - 1]. Slots past `depth` keep
  // their capacity, so reopening a seen path allocates nothing.
  std::vector<std::string> stack;
  std::size_t depth = 0;
  std::string ambient;  // parent inherited via ScopedParent
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

ThreadStore& thread_store(ThreadState& state) {
  if (!state.store) {
    state.store = std::make_shared<ThreadStore>();
    Stores& s = stores();
    const MutexLock lock(s.mu);
    s.all.push_back(state.store);
  }
  return *state.store;
}

std::string fmt_us(std::uint64_t ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

int detail::resolve_enabled() {
  const char* env = std::getenv("MPICP_TRACE");
  int resolved = 1;
  if (env != nullptr &&
      (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
       std::strcmp(env, "false") == 0)) {
    resolved = 0;
  }
  // Only an unresolved flag takes the environment's value, so a racing
  // set_enabled wins.
  int state = -1;
  // order: an on/off flag publishing no other data.
  g_enabled.compare_exchange_strong(state, resolved, std::memory_order_relaxed);
  return state < 0 ? resolved : state;
}

void set_enabled(bool on) {
  // order: an on/off flag publishing no other data.
  detail::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

ScopedEnabled::ScopedEnabled(bool on) : previous_(enabled()) {
  set_enabled(on);
}

ScopedEnabled::~ScopedEnabled() { set_enabled(previous_); }

void Span::open(const char* name) {
  ThreadState& state = thread_state();
  if (state.depth == state.stack.size()) state.stack.emplace_back();
  std::string& path = state.stack[state.depth];
  path = state.depth == 0 ? state.ambient : state.stack[state.depth - 1];
  if (!path.empty()) path += '/';
  path += name;
  ++state.depth;
  start_ns_ = now_ns();
  active_ = true;
}

void Span::close() {
  const std::uint64_t dur = now_ns() - start_ns_;
  ThreadState& state = thread_state();
  // The stack is strictly LIFO per thread (spans are scoped locals).
  const std::string& path = state.stack[--state.depth];
  ThreadStore& store = thread_store(state);
  const MutexLock lock(store.mu);
  merge(store.by_path[path],
        {.count = 1, .total_ns = dur, .min_ns = dur, .max_ns = dur});
}

std::string current_path() {
  const ThreadState& state = thread_state();
  return state.depth == 0 ? state.ambient : state.stack[state.depth - 1];
}

ScopedParent::ScopedParent(std::string path) {
  ThreadState& state = thread_state();
  previous_ = std::move(state.ambient);
  state.ambient = std::move(path);
}

ScopedParent::~ScopedParent() {
  thread_state().ambient = std::move(previous_);
}

std::vector<ProfileEntry> profile() {
  Stores& s = stores();
  std::vector<std::shared_ptr<ThreadStore>> all;
  {
    const MutexLock lock(s.mu);
    all = s.all;
  }
  PathProfile merged;
  for (const auto& store : all) {
    ThreadStore& ts = *store;
    const MutexLock lock(ts.mu);
    for (const auto& [path, e] : ts.by_path) merge(merged[path], e);
  }
  std::vector<ProfileEntry> out;
  out.reserve(merged.size());
  for (auto& [path, e] : merged) {
    e.path = path;
    out.push_back(std::move(e));
  }
  return out;
}

void reset() {
  Stores& s = stores();
  const MutexLock lock(s.mu);
  for (const auto& store : s.all) {
    ThreadStore& ts = *store;
    const MutexLock store_lock(ts.mu);
    ts.by_path.clear();
  }
}

void print_profile(std::ostream& os) {
  TextTable table(
      {"span", "count", "total [us]", "mean [us]", "min [us]", "max [us]"});
  for (const ProfileEntry& e : profile()) {
    table.add_row({e.path, std::to_string(e.count), fmt_us(e.total_ns),
                   fmt_us(e.total_ns / std::max<std::uint64_t>(e.count, 1)),
                   fmt_us(e.min_ns), fmt_us(e.max_ns)});
  }
  table.print(os);
}

}  // namespace mpicp::support::trace
