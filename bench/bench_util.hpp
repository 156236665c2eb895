// Shared plumbing for the experiment binaries: banner printing, the default
// Monte-Carlo settings, and machine-readable output. Every binary prints one
// or more TextTables — the repository's reproduction of the paper's
// (theorem-level) results — and exits 0; `for b in build/bench/*; do $b; done`
// runs the full harness. Binaries that feed the perf trajectory additionally
// emit a BENCH_<name>.json file through JsonReport, so CI and dashboards can
// diff runs without scraping tables (tools/ci.sh validates the hot-path one).
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "engine/store/bench_history.hpp"
#include "io/jsonl.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace bisched::bench {

// --threads=N from argv; malformed values warn and fall back to all cores.
inline unsigned parse_threads(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* prefix = "--threads=";
    if (std::strncmp(argv[i], prefix, std::strlen(prefix)) == 0) {
      const char* value = argv[i] + std::strlen(prefix);
      unsigned parsed = 0;
      const auto [ptr, ec] = std::from_chars(value, value + std::strlen(value), parsed);
      if (ec == std::errc() && *ptr == '\0' && parsed > 0) return parsed;
      std::cerr << "bad --threads value '" << value << "', using default\n";
    }
  }
  return default_thread_count();
}

// --NAME=VALUE from argv, or `fallback` when absent.
inline std::string parse_flag(int argc, char** argv, const char* name,
                              const std::string& fallback = "") {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

// Bare --NAME present? (e.g. --quick for CI-sized runs.)
inline bool parse_switch(int argc, char** argv, const char* name) {
  const std::string bare = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i]) return true;
  }
  return false;
}

inline void banner(const std::string& experiment, const std::string& claim) {
  std::cout << "\n############################################################\n"
            << "# " << experiment << "\n"
            << "# " << claim << "\n"
            << "############################################################\n";
}

// Seeds are fixed so that the printed tables are reproducible run-to-run.
constexpr std::uint64_t kBenchSeed = 0xB15C4EDu;

// Nearest-rank percentile of raw samples (exact, unlike the telemetry
// histogram ladder, which is too coarse for microsecond calls).
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

// ---- machine-readable bench output ----------------------------------------
//
// One JsonField is one `"key": value` member; a row is a brace-enclosed list
// of them; the report is a single JSON document
//   {"bench": "<name>", "rows": [ {...}, {...} ]}
// written to BENCH_<name>.json (cwd) or the --json-out=PATH override on
// destruction. Strings go through io/jsonl's json_quote — the same escaping
// the serving stack uses — and doubles through fmt_double_exact, so the file
// always parses.

struct JsonField {
  JsonField(const char* key, double value)
      : rendered(json_quote(key) + ": " + fmt_double_exact(value)) {}
  JsonField(const char* key, long long value)
      : rendered(json_quote(key) + ": " + std::to_string(value)) {}
  JsonField(const char* key, unsigned long long value)
      : rendered(json_quote(key) + ": " + std::to_string(value)) {}
  JsonField(const char* key, int value) : JsonField(key, static_cast<long long>(value)) {}
  JsonField(const char* key, std::size_t value)
      : JsonField(key, static_cast<unsigned long long>(value)) {}
  JsonField(const char* key, std::int64_t value)
      : JsonField(key, static_cast<long long>(value)) {}
  JsonField(const char* key, bool value)
      : rendered(json_quote(key) + ": " + (value ? "true" : "false")) {}
  JsonField(const char* key, const std::string& value)
      : rendered(json_quote(key) + ": " + json_quote(value)) {}
  JsonField(const char* key, const char* value)
      : JsonField(key, std::string(value)) {}

  std::string rendered;
};

class JsonReport {
 public:
  // `name` is the bench's short name ("hotpaths" -> BENCH_hotpaths.json);
  // argv is scanned for a --json-out=PATH override.
  // With --store=DIR the finished document is ALSO appended into that
  // store's bench-history namespace (engine/store/bench_history.hpp), so
  // one directory accumulates the perf trajectory alongside the cache
  // warmth. `bisched_cli stats --store=DIR` lists what landed.
  JsonReport(std::string name, int argc, char** argv)
      : name_(std::move(name)),
        path_(parse_flag(argc, argv, "json-out", "BENCH_" + name_ + ".json")),
        store_(parse_flag(argc, argv, "store")) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  void add(std::initializer_list<JsonField> fields) {
    std::string row = "{";
    bool first = true;
    for (const JsonField& f : fields) {
      row += (first ? "" : ", ") + f.rendered;
      first = false;
    }
    row += "}";
    rows_.push_back(std::move(row));
  }

  // The complete report file contents.
  std::string document() const {
    std::string out = "{\"bench\": " + json_quote(name_) + ", \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += (i == 0 ? "\n  " : ",\n  ") + rows_[i];
    }
    out += "\n]}\n";
    return out;
  }

  // Writes the report; called by the destructor, exposed so mains can report
  // the path (and failures) before exiting.
  bool write() {
    if (written_) return true;
    written_ = true;
    const std::string doc = document();
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "cannot write bench report '" << path_ << "'\n";
      return false;
    }
    out << doc;
    out.flush();
    if (out) std::cout << "wrote " << path_ << " (" << rows_.size() << " rows)\n";
    if (!store_.empty()) {
      std::string error;
      if (engine::store::append_bench_history_at(store_, name_, doc, &error)) {
        std::cout << "recorded " << name_ << " into " << store_
                  << " bench-history\n";
      } else {
        std::cerr << "bench-history: " << error << "\n";
      }
    }
    return static_cast<bool>(out);
  }

  ~JsonReport() { write(); }

 private:
  std::string name_;
  std::string path_;
  std::string store_;  // empty = no bench-history append
  std::vector<std::string> rows_;
  bool written_ = false;
};

}  // namespace bisched::bench
