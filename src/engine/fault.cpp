#include "engine/fault.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

namespace bisched::engine::fault {
namespace {

struct Plan {
  bool active = false;
  long crash_after = -1;   // solve frames answered before _exit
  long stall_ms = -1;      // per-solve worker-side sleep
  long drop_after = -1;    // solve frames answered before dropping
  long torn_journal = -1;  // durable journal appends before the torn one
};

Plan g_plan;
std::once_flag g_once;
std::atomic<long> g_solve_frames{0};
std::atomic<long> g_journal_appends{0};

bool parse_long(const std::string& s, long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

// Parses BISCHED_FAULT. A malformed token disarms the whole spec with a
// stderr warning — a typo must not silently run faultless and green-light a
// test that asserted nothing.
Plan parse_plan() {
  Plan plan;
  const char* spec = std::getenv("BISCHED_FAULT");
  if (spec == nullptr || *spec == '\0') return plan;
  plan.active = true;

  std::string rest = spec;
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string token = rest.substr(0, semi);
    rest = semi == std::string::npos ? std::string() : rest.substr(semi + 1);
    if (token.empty()) continue;

    const std::size_t eq = token.find('=');
    if (eq != std::string::npos && token.substr(0, eq) == "backend") {
      // Scope: the spec applies only to the fleet backend whose supervisor
      // exported a matching BISCHED_BACKEND_INDEX (string compare — both
      // sides are small decimal integers from the same writer).
      const char* index = std::getenv("BISCHED_BACKEND_INDEX");
      if (index == nullptr || token.substr(eq + 1) != index) return Plan{};
      continue;
    }

    const std::size_t colon = token.find(':');
    const std::string name = token.substr(0, colon);
    const std::string arg =
        colon == std::string::npos ? std::string() : token.substr(colon + 1);
    long value = -1;
    bool ok = parse_long(arg, &value);
    if (ok && name == "crash-after") {
      plan.crash_after = value;
    } else if (ok && name == "stall-ms") {
      plan.stall_ms = value;
    } else if (ok && name == "drop-after") {
      plan.drop_after = value;
    } else if (ok && name == "torn-journal") {
      plan.torn_journal = value;
    } else {
      std::fprintf(stderr, "bisched: BISCHED_FAULT: bad token '%s'; fault injection disarmed\n",
                   token.c_str());
      return Plan{};
    }
  }
  return plan;
}

const Plan& plan() {
  std::call_once(g_once, [] { g_plan = parse_plan(); });
  return g_plan;
}

// Exit status 42, every thread at once, as a real crash dies. Not _exit:
// ThreadSanitizer intercepts it and keeps the process alive for its
// atexit_sleep_ms (1 s by default) with the other threads still serving,
// so a "crashed" backend would linger past the supervisor's reaping.
[[noreturn]] void die() {
  ::syscall(SYS_exit_group, 42);
  ::_exit(42);
}

}  // namespace

bool active() { return plan().active; }

Action on_solve_frame() {
  const Plan& p = plan();
  if (!p.active) return Action::kNone;
  const long n = g_solve_frames.fetch_add(1, std::memory_order_relaxed) + 1;
  if (p.crash_after >= 0 && n > p.crash_after) {
    std::fflush(nullptr);
    die();
  }
  if (p.drop_after >= 0 && n > p.drop_after) return Action::kDropConnection;
  return Action::kNone;
}

void maybe_stall() {
  const Plan& p = plan();
  if (p.active && p.stall_ms >= 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(p.stall_ms));
  }
}

JournalAction on_journal_append() {
  const Plan& p = plan();
  if (!p.active || p.torn_journal < 0) return JournalAction::kNone;
  const long n = g_journal_appends.fetch_add(1, std::memory_order_relaxed) + 1;
  return n > p.torn_journal ? JournalAction::kTear : JournalAction::kAppendDurable;
}

void torn_exit() { die(); }

void refresh_from_env() {
  g_plan = parse_plan();
  g_solve_frames.store(0, std::memory_order_relaxed);
  g_journal_appends.store(0, std::memory_order_relaxed);
}

}  // namespace bisched::engine::fault
