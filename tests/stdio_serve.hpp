// In-process stdio serve for tests and benches. engine::serve reads and
// writes plain fds, so the request stream is written into an anonymous temp
// file that serve reads as its stdin, and the responses come back from a
// second one standing in for stdout — the same regular-file path a
// redirected `bisched_cli serve < requests` takes.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <string>

#include "engine/registry.hpp"
#include "engine/serve.hpp"
#include "engine/store/warm_state.hpp"

namespace bisched::testing {

// Serves `input` as one stdio session and returns the server's stats; the
// response bytes land in *out. A setup failure is reported on stderr and
// leaves *out empty.
inline engine::ServeStats serve_text(const std::string& input,
                                     const engine::ServeOptions& options, std::string* out,
                                     engine::WarmState* warm = nullptr) {
  out->clear();
  std::FILE* in_file = std::tmpfile();
  std::FILE* out_file = std::tmpfile();
  if (in_file == nullptr || out_file == nullptr) {
    std::cerr << "serve_text: tmpfile failed\n";
    if (in_file != nullptr) std::fclose(in_file);
    if (out_file != nullptr) std::fclose(out_file);
    return {};
  }
  const int in_fd = ::fileno(in_file);
  const int out_fd = ::fileno(out_file);
  for (std::size_t off = 0; off < input.size();) {
    const ssize_t n = ::write(in_fd, input.data() + off, input.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::lseek(in_fd, 0, SEEK_SET);

  std::string error;
  const engine::ServeStats stats = engine::serve(engine::SolverRegistry::builtin(), in_fd,
                                                 out_fd, options, &error, warm);
  if (!error.empty()) std::cerr << "serve_text: " << error << "\n";

  ::lseek(out_fd, 0, SEEK_SET);
  char buf[1 << 14];
  ssize_t n = 0;
  while ((n = ::read(out_fd, buf, sizeof(buf))) > 0) {
    out->append(buf, static_cast<std::size_t>(n));
  }
  std::fclose(in_file);
  std::fclose(out_file);
  return stats;
}

}  // namespace bisched::testing
