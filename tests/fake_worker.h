// A scripted stand-in for a forked `amdrelc worker`: a /bin/sh loop that
// speaks the wire protocol on stdin/stdout (core/wire.h). It prints the
// header, answers each assign by cat-ing the shard bodies that the real
// worker (run_sweep_worker_connected) rendered in-process, and answers
// shutdown with worker_done. Shell hooks let a
// test inject a fault at a chosen shard or step. Every spawn, every
// assign's shard list, every assigned shard and every served (shard,
// pid) pair is logged, so tests can assert retries and batch shapes.

#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/sweep_service.h"
#include "core/wire.h"

namespace amdrel::core {

struct FakeWorkerHooks {
  /// Runs before the worker prints its wire_header.
  std::string before_header;
  /// Runs before shard $s of an assign is answered. The shell function
  /// `first_try` succeeds only on $s's first assignment.
  std::string before_shard;
  /// Runs after a round's last shard.
  std::string after_round;
  /// Answers shutdown; the shell function `done_line` prints the
  /// worker_done trailer.
  std::string on_shutdown = "done_line; exit 0";
};

class FakeWorker {
 public:
  /// Renders every shard of the (corpus, spec) sweep into a fresh
  /// directory named after `name` and this process (ctest runs tests
  /// as concurrent processes).
  FakeWorker(const std::vector<CorpusApp>& corpus, const SweepSpec& spec,
             const std::string& name)
      : dir_(testing::TempDir() + name + "_" + std::to_string(::getpid())) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    const std::size_t shards = sweep_shard_count(corpus, spec);
    for (std::size_t s = 0; s < shards; ++s) {
      std::istringstream in(wire::encode_assign({{s}}) +
                            wire::encode_shutdown());
      std::ostringstream out;
      run_sweep_worker_connected(corpus, spec, in, out);
      const std::string stream = out.str();
      const std::size_t body = stream.find('\n') + 1;
      const std::size_t done = stream.find("{\"kind\":\"worker_done\"");
      std::ofstream(path("header"), std::ios::binary)
          << stream.substr(0, body);
      const std::string lines = stream.substr(body, done - body);
      std::ofstream(path("body_" + std::to_string(s)), std::ios::binary)
          << lines;
      // Cells = body lines minus the one shard line.
      std::size_t cells = 0;
      for (const char c : lines) cells += c == '\n';
      std::ofstream(path("count_" + std::to_string(s))) << cells - 1 << '\n';
    }
  }

  ~FakeWorker() { std::filesystem::remove_all(dir_); }

  /// argv of one fake worker process running `hooks`.
  std::vector<std::string> command(const FakeWorkerHooks& hooks = {}) const {
    const auto hook = [](const std::string& text) {
      return text.empty() ? std::string(":") : text;
    };
    const std::string script =
        "d='" + dir_ + "'\n"
        "first_try() { mkdir \"$d/tried_$s\" 2>/dev/null; }\n"
        "total=0\n"
        "done_line() { printf '{\"kind\":\"worker_done\",\"cells\":%d}\\n' "
        "\"$total\"; }\n"
        "echo spawn >> \"$d/spawns\"\n" +
        hook(hooks.before_header) + "\n"
        "cat \"$d/header\"\n"
        "while IFS= read -r line; do\n"
        "  case $line in\n"
        "    *'\"kind\":\"assign\"'*)\n"
        "      list=${line#*\\[}; list=${list%\\]*}\n"
        "      echo \"$list\" >> \"$d/rounds\"\n"
        "      for s in $(echo \"$list\" | tr , ' '); do\n"
        "        echo \"$s\" >> \"$d/assigned\"\n"
        "        " + hook(hooks.before_shard) + "\n"
        "        cat \"$d/body_$s\"\n"
        "        echo \"$s $$\" >> \"$d/served\"\n"
        "        total=$((total + $(cat \"$d/count_$s\")))\n"
        "      done\n"
        "      " + hook(hooks.after_round) + "\n"
        "      ;;\n"
        "    *'\"kind\":\"shutdown\"'*)\n"
        "      " + hook(hooks.on_shutdown) + "\n"
        "      ;;\n"
        "    *) exit 2 ;;\n"
        "  esac\n"
        "done\n"
        "exit 1\n";
    return {"/bin/sh", "-c", script};
  }

  /// A file in the worker directory, for hooks and doctored bodies.
  std::string path(const std::string& file) const {
    return dir_ + "/" + file;
  }

  /// How many fake workers have started.
  int spawns() const { return static_cast<int>(lines("spawns").size()); }

  /// How many times `shard` has been assigned to any fake worker.
  int assignments(std::size_t shard) const {
    const std::vector<std::string> assigned = lines("assigned");
    return static_cast<int>(
        std::count(assigned.begin(), assigned.end(), std::to_string(shard)));
  }

  /// Every assign's shard list in arrival order, e.g. "0,1,2,3".
  std::vector<std::string> rounds() const { return lines("rounds"); }

  /// The pids of the fake workers that served `shard`, in order.
  std::vector<std::string> servers(std::size_t shard) const {
    const std::string prefix = std::to_string(shard) + " ";
    std::vector<std::string> pids;
    for (const std::string& line : lines("served")) {
      if (line.rfind(prefix, 0) == 0) {
        pids.push_back(line.substr(prefix.size()));
      }
    }
    return pids;
  }

 private:
  std::vector<std::string> lines(const std::string& file) const {
    std::ifstream in(path(file));
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  }

  std::string dir_;
};

}  // namespace amdrel::core
