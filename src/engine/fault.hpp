// Deterministic fault injection for the serve/fleet failure paths.
//
// The fleet router's value is what happens when a backend dies, stalls, or
// drops a connection mid-request — paths that are untestable if failures
// only occur naturally. This module compiles a small set of *deterministic*
// faults into the serving binary, armed exclusively through the environment:
//
//   BISCHED_FAULT=crash-after:K      die (status 42) on the (K+1)th solve frame —
//                                    the first K are answered normally
//   BISCHED_FAULT=stall-ms:T         sleep T ms inside every solve (worker
//                                    side), so timeouts/health checks trip
//   BISCHED_FAULT=drop-after:K       close the session's connection without
//                                    a response on the (K+1)th solve frame
//   BISCHED_FAULT=torn-journal:K     flush each store journal append, then
//                                    write HALF of the (K+1)th record, flush
//                                    it, and die (status 42) — a real process death
//                                    mid-append for crash-recovery tests
//
// Specs combine with ';' (e.g. "stall-ms:50;crash-after:10"). A spec may be
// scoped to one fleet backend with a leading "backend=<i>;" — the supervisor
// exports BISCHED_BACKEND_INDEX=<i> to each child, so a router test can arm
// `BISCHED_FAULT=backend=0;crash-after:4` in its own environment and have
// exactly one backend of the inherited fleet misbehave.
//
// The counters are process-wide (frames across all sessions, appends across
// all namespaces), read once at first use. Everything is a no-op — one
// relaxed atomic load — when BISCHED_FAULT is unset, which is the only
// configuration production traffic ever sees.
#pragma once

namespace bisched::engine::fault {

// What the session loop should do with the current solve frame.
enum class Action {
  kNone,
  kDropConnection,  // drop-after tripped: close without answering
};

// True iff BISCHED_FAULT is set and scoped to this process.
bool active();

// Serve session hook: counts one admitted solve frame and applies
// crash-after / drop-after. crash-after does not return.
Action on_solve_frame();

// Solve worker hook: applies stall-ms (sleeps inline).
void maybe_stall();

// Store journal hook: counts one append. Returns kAppendDurable (caller
// should flush the full record so the torn-tail test has a well-formed
// prefix on disk) until the (K+1)th append, which tears: the caller writes
// `record.substr(0, record.size()/2)`, flushes, and this module dies with status 42.
enum class JournalAction {
  kNone,           // no torn-journal fault armed
  kAppendDurable,  // write + flush the full record
  kTear,           // write half the record, flush, then call torn_exit()
};
JournalAction on_journal_append();
[[noreturn]] void torn_exit();

// Re-reads BISCHED_FAULT / BISCHED_BACKEND_INDEX and resets the counters.
// Tests that setenv() after process start must call this; production code
// never does (the first hook call latches the environment).
void refresh_from_env();

}  // namespace bisched::engine::fault
