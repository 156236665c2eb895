#include "engine/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "io/format.hpp"
#include "random/generators.hpp"
#include "testing_util.hpp"
#include "util/prng.hpp"

namespace bisched {
namespace {

namespace fs = std::filesystem;

using engine::BatchOptions;
using engine::BatchRow;
using engine::BatchRunner;
using engine::SolverRegistry;

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("bisched_batch_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::string& content) {
    const auto path = dir_ / name;
    std::ofstream out(path);
    out << content;
    return path.string();
  }

  template <typename Instance>
  std::string write_inst(const std::string& name, const Instance& inst) {
    const auto path = dir_ / name;
    std::ofstream out(path);
    write_instance(out, inst);
    return path.string();
  }

  // Six uniform + six unrelated instances, named so directory order
  // interleaves the models.
  std::vector<std::string> write_mixed_instances() {
    Rng rng(99);
    std::vector<std::string> paths;
    for (int i = 0; i < 6; ++i) {
      paths.push_back(write_inst("a" + std::to_string(i) + ".inst",
                                 testing::random_uniform_instance(5, 5, 3, 4, 3, rng)));
      paths.push_back(write_inst("b" + std::to_string(i) + ".inst",
                                 testing::random_r2_instance(6, 6, 12, rng)));
    }
    return paths;
  }

  fs::path dir_;
};

TEST_F(BatchTest, IdenticalRowsAtAnyThreadCount) {
  const auto paths = write_mixed_instances();
  ASSERT_GE(paths.size(), 10u);

  BatchOptions options;
  std::vector<std::vector<BatchRow>> runs;
  for (unsigned threads : {1u, 2u, 7u}) {
    options.threads = threads;
    runs.push_back(BatchRunner(SolverRegistry::builtin(), options).run(paths));
  }
  for (const auto& rows : runs) {
    ASSERT_EQ(rows.size(), paths.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(rows[i].ok) << rows[i].error;
      EXPECT_EQ(rows[i].seq, static_cast<std::int64_t>(i));
      EXPECT_EQ(rows[i].file, paths[i]);  // input order restored by run()
      EXPECT_EQ(rows[i].makespan, runs[0][i].makespan);
      EXPECT_EQ(rows[i].solver, runs[0][i].solver);
      EXPECT_EQ(rows[i].model, runs[0][i].model);
      EXPECT_EQ(rows[i].instance_hash, runs[0][i].instance_hash);
    }
  }
}

TEST_F(BatchTest, SerializedOutputIsByteIdenticalModuloRowOrderAcrossThreads) {
  const auto paths = write_mixed_instances();
  BatchOptions options;
  options.stable_output = true;  // zero the measured wall_ms
  std::vector<std::vector<std::string>> line_sets;
  for (unsigned threads : {1u, 7u}) {
    options.threads = threads;
    std::vector<std::string> lines;
    BatchRunner(SolverRegistry::builtin(), options)
        .run_streaming(paths, [&lines](const BatchRow& row) {
          std::ostringstream one;
          engine::write_response_csv(one, row);
          std::ostringstream one_json;
          engine::write_response_json(one_json, row);
          lines.push_back(one.str() + one_json.str());
        });
    std::sort(lines.begin(), lines.end());
    line_sets.push_back(std::move(lines));
  }
  EXPECT_EQ(line_sets[0], line_sets[1]);
}

TEST_F(BatchTest, StreamingDeliversRowsBeforeTheRunCompletes) {
  // The proof that rows stream (rather than being collected and flushed just
  // before run_streaming returns): the sink itself *creates* the second
  // instance file when the first row arrives. With one worker, a streaming
  // pipeline delivers row 0 before opening path 1, so path 1 exists by then;
  // a collect-then-write implementation would have tried (and failed) to
  // open it long before any sink call ran.
  Rng rng(23);
  const auto inst = testing::random_uniform_instance(4, 4, 2, 3, 3, rng);
  const std::string first = write_inst("first.inst", inst);
  const std::string late = (dir_ / "late.inst").string();  // not yet written
  const std::vector<std::string> paths = {first, late};

  BatchOptions options;
  options.threads = 1;
  std::size_t calls = 0;
  std::vector<BatchRow> rows;
  BatchRunner(SolverRegistry::builtin(), options)
      .run_streaming(paths, [&](const BatchRow& row) {
        if (calls++ == 0) {
          std::ofstream out(late);
          write_instance(out, inst);
        }
        rows.push_back(row);
      });
  ASSERT_EQ(calls, 2u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].seq, 0);
  EXPECT_TRUE(rows[0].ok) << rows[0].error;
  EXPECT_EQ(rows[1].seq, 1);
  EXPECT_TRUE(rows[1].ok) << rows[1].error;  // fails for collect-then-write
}

TEST_F(BatchTest, ShardsPartitionTheCorpus) {
  std::vector<std::string> paths;
  for (int i = 0; i < 11; ++i) paths.push_back("p" + std::to_string(i));

  for (int count : {1, 2, 3, 5, 11, 13}) {
    std::vector<std::string> reunion;
    std::size_t total = 0;
    for (int index = 0; index < count; ++index) {
      const auto mine = engine::shard_paths(paths, {index, count});
      total += mine.size();
      reunion.insert(reunion.end(), mine.begin(), mine.end());
      // Round-robin keeps every shard within one item of the others.
      EXPECT_GE(mine.size(), paths.size() / static_cast<std::size_t>(count));
    }
    // Disjoint + exhaustive: the union has no duplicates and covers paths.
    EXPECT_EQ(total, paths.size()) << "count " << count;
    std::sort(reunion.begin(), reunion.end());
    std::vector<std::string> expected = paths;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(reunion, expected) << "count " << count;
  }
}

TEST_F(BatchTest, ShardedRunnersTogetherCoverTheDirectory) {
  const auto paths = write_mixed_instances();
  BatchOptions options;
  std::vector<BatchRow> all;
  for (int index = 0; index < 3; ++index) {
    options.shard = {index, 3};
    const auto rows = BatchRunner(SolverRegistry::builtin(), options).run(paths);
    all.insert(all.end(), rows.begin(), rows.end());
  }
  ASSERT_EQ(all.size(), paths.size());
  std::set<std::string> files;
  std::set<std::int64_t> seqs;
  for (const auto& row : all) {
    EXPECT_TRUE(row.ok) << row.error;
    files.insert(row.file);
    seqs.insert(row.seq);
    // seq is the global pre-shard index: it must point back at the same
    // path in the unsharded corpus, so merged shard outputs stay joinable.
    ASSERT_LT(static_cast<std::size_t>(row.seq), paths.size());
    EXPECT_EQ(row.file, paths[static_cast<std::size_t>(row.seq)]);
  }
  EXPECT_EQ(files.size(), paths.size());  // disjoint shards, no path twice
  EXPECT_EQ(seqs.size(), paths.size());   // no seq collisions across shards
}

TEST_F(BatchTest, RepeatedInstancesHitTheSharedProfileCache) {
  Rng rng(21);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::vector<std::string> paths = {
      write_inst("one.inst", inst),
      write_inst("two.inst", inst),  // same content, different file
  };
  BatchOptions options;
  options.threads = 1;
  const BatchRunner runner(SolverRegistry::builtin(), options);
  const auto rows = runner.run(paths);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].instance_hash, rows[1].instance_hash);
  EXPECT_EQ(rows[0].cache_tier, engine::CacheTier::kMiss);
  // Content-addressed: the path is irrelevant (memory tier — no store here).
  EXPECT_EQ(rows[1].cache_tier, engine::CacheTier::kMemory);
  EXPECT_EQ(runner.cache().stats().hits, 1u);
  EXPECT_EQ(runner.cache().stats().misses, 1u);
}

TEST_F(BatchTest, RepeatedInstancesHitTheResultCache) {
  Rng rng(22);
  const auto inst = testing::random_uniform_instance(5, 5, 2, 4, 3, rng);
  const std::vector<std::string> paths = {
      write_inst("one.inst", inst),
      write_inst("two.inst", inst),  // same content, different file
  };
  BatchOptions options;
  options.threads = 1;
  const BatchRunner runner(SolverRegistry::builtin(), options);
  const auto rows = runner.run(paths);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0].result_cache_used);
  EXPECT_EQ(rows[0].result_tier, engine::CacheTier::kMiss);
  EXPECT_EQ(rows[1].result_tier, engine::CacheTier::kMemory);  // served warm
  EXPECT_EQ(rows[1].solver, rows[0].solver);
  EXPECT_EQ(rows[1].makespan, rows[0].makespan);
  EXPECT_EQ(runner.results().stats().hits, 1u);
  EXPECT_EQ(runner.results().stats().misses, 1u);

  // A shared warm state carries warmth across runners, like the serve loop.
  engine::WarmState shared_warm;
  const BatchRunner first(SolverRegistry::builtin(), options, &shared_warm);
  (void)first.run(paths);
  const BatchRunner second(SolverRegistry::builtin(), options, &shared_warm);
  const auto warm_rows = second.run(paths);
  EXPECT_EQ(warm_rows[0].result_tier, engine::CacheTier::kMemory);
  EXPECT_EQ(warm_rows[1].result_tier, engine::CacheTier::kMemory);
}

TEST_F(BatchTest, MalformedInstanceYieldsErrorRowNotCrash) {
  Rng rng(5);
  const std::vector<std::string> paths = {
      write_inst("good.inst", testing::random_uniform_instance(4, 4, 2, 3, 3, rng)),
      write_file("bad.inst", "bisched uniform v1\njobs 3\np 1 2\n"),
      write_file("missing.inst", "") + ".does_not_exist",
  };
  const auto rows = BatchRunner(SolverRegistry::builtin(), {}).run(paths);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(rows[0].ok);
  EXPECT_FALSE(rows[1].ok);
  EXPECT_NE(rows[1].error.find("parse error"), std::string::npos);
  EXPECT_FALSE(rows[2].ok);
  EXPECT_NE(rows[2].error.find("cannot open"), std::string::npos);
}

TEST_F(BatchTest, NamedSolverAppliesPerRow) {
  Rng rng(6);
  const std::vector<std::string> paths = {
      write_inst("r2.inst", testing::random_r2_instance(5, 5, 10, rng)),
      write_inst("q.inst", testing::random_uniform_instance(4, 4, 3, 3, 2, rng)),
  };
  BatchOptions options;
  options.alg = "alg4";
  const auto rows = BatchRunner(SolverRegistry::builtin(), options).run(paths);
  EXPECT_TRUE(rows[0].ok);
  EXPECT_EQ(rows[0].solver, "alg4");
  EXPECT_FALSE(rows[1].ok);  // alg4 is unrelated-only
  EXPECT_NE(rows[1].error.find("not applicable"), std::string::npos);
}

TEST_F(BatchTest, CollectFromDirectorySortsAndFromManifestResolvesRelative) {
  Rng rng(7);
  write_inst("z.inst", testing::random_uniform_instance(3, 3, 2, 2, 2, rng));
  write_inst("a.inst", testing::random_uniform_instance(3, 3, 2, 2, 2, rng));

  std::string error;
  const auto from_dir = engine::collect_instance_paths(dir_.string(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(from_dir.size(), 2u);
  EXPECT_LT(from_dir[0], from_dir[1]);  // sorted

  const auto manifest =
      write_file("manifest.txt", "# instances\n  a.inst\n\nz.inst\n");
  const auto from_manifest = engine::collect_instance_paths(manifest, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(from_manifest.size(), 2u);
  EXPECT_EQ(fs::path(from_manifest[0]).filename(), "a.inst");
  EXPECT_TRUE(fs::exists(from_manifest[0]));

  engine::collect_instance_paths((dir_ / "nope.txt").string(), &error);
  EXPECT_FALSE(error.empty());
}

TEST_F(BatchTest, OutputPathIsExcludedFromTheSweepByPathNotJustEquivalence) {
  Rng rng(8);
  write_inst("a.inst", testing::random_uniform_instance(3, 3, 2, 2, 2, rng));
  write_inst("b.inst", testing::random_uniform_instance(3, 3, 2, 2, 2, rng));
  write_file("results.csv", "seq,file,status\n");  // last run's output

  std::string error;
  auto paths = engine::collect_instance_paths(dir_.string(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(paths.size(), 3u);

  // A differently-spelled path to the same file is still excluded
  // (filesystem equivalence).
  auto spelled = paths;
  const std::string dotted = (dir_ / "." / "results.csv").string();
  EXPECT_EQ(engine::exclude_output_path(spelled, dotted), 1u);
  EXPECT_EQ(spelled.size(), 2u);

  // A NOT-YET-CREATED output resolves by normalized path — the case plain
  // equivalence misses entirely.
  std::vector<std::string> future = {(dir_ / "sub" / ".." / "next.csv").string(),
                                     (dir_ / "a.inst").string()};
  EXPECT_EQ(engine::exclude_output_path(future, (dir_ / "next.csv").string()), 1u);
  ASSERT_EQ(future.size(), 1u);
  EXPECT_EQ(future[0], (dir_ / "a.inst").string());

  // path_inside_directory powers the CLI warning.
  EXPECT_TRUE(engine::path_inside_directory((dir_ / "results.csv").string(),
                                            dir_.string()));
  EXPECT_TRUE(engine::path_inside_directory((dir_ / "deep" / "r.csv").string(),
                                            dir_.string()));
  EXPECT_FALSE(engine::path_inside_directory(
      (fs::temp_directory_path() / "elsewhere.csv").string(), dir_.string()));
  EXPECT_FALSE(engine::path_inside_directory(dir_.string(), dir_.string()));
}

TEST_F(BatchTest, CsvAndJsonSerializeAllRows) {
  BatchRow ok_row;
  ok_row.seq = 0;
  ok_row.file = "with,comma.inst";
  ok_row.ok = true;
  ok_row.model = "uniform";
  ok_row.jobs = 4;
  ok_row.machines = 2;
  ok_row.instance_hash = "00000000deadbeef";
  ok_row.cache_tier = engine::CacheTier::kMemory;
  ok_row.result_cache_used = true;
  ok_row.result_tier = engine::CacheTier::kDisk;
  ok_row.solver = "alg1";
  ok_row.guarantee = "sqrt(sum p)";
  ok_row.makespan = "7/2";
  ok_row.makespan_value = 3.5;
  BatchRow bad_row;
  bad_row.seq = 1;
  bad_row.file = "bad.inst";
  bad_row.error = "parse error: expected \"p\"";
  const std::vector<BatchRow> rows = {ok_row, bad_row};

  std::ostringstream csv;
  engine::write_rows_csv(csv, rows);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("\"with,comma.inst\""), std::string::npos);
  EXPECT_NE(csv_text.find("7/2"), std::string::npos);
  // cache + solve_cache carry their serving tier.
  EXPECT_NE(csv_text.find(",hit-memory,hit-disk,"), std::string::npos);
  EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 3);  // header + 2 rows

  // JSON output is JSON Lines: one self-contained object per row, no array
  // framing, so streamed rows concatenate into valid output.
  std::ostringstream json;
  engine::write_rows_json(json, rows);
  const std::string json_text = json.str();
  EXPECT_EQ(json_text.front(), '{');
  EXPECT_EQ(std::count(json_text.begin(), json_text.end(), '\n'), 2);  // 2 rows
  EXPECT_NE(json_text.find("\"makespan\": \"7/2\""), std::string::npos);
  EXPECT_NE(json_text.find("\"cache\": \"hit-memory\""), std::string::npos);
  EXPECT_NE(json_text.find("\"solve_cache\": \"hit-disk\""), std::string::npos);
  // The error row never reached the caches: both provenance fields stay "".
  EXPECT_NE(json_text.find("\"solve_cache\": \"\""), std::string::npos);
  EXPECT_NE(json_text.find("\\\"p\\\""), std::string::npos);  // escaped quotes
}

TEST_F(BatchTest, WritersEscapeDelimitersConsistentlyAcrossFormats) {
  // Hostile instance names: CSV delimiters, JSON quotes, newlines, and
  // control characters must round-trip as data in both formats.
  BatchRow row;
  row.seq = 7;
  row.file = "a,b\"c\nd\te\x01.inst";
  row.error = "line1\nline2 \"quoted\"";

  std::ostringstream csv;
  engine::write_response_csv(csv, row);
  const std::string csv_text = csv.str();
  // RFC-4180: the field is quoted, embedded quotes doubled — a CSV reader
  // recovers the exact name.
  EXPECT_NE(csv_text.find("\"a,b\"\"c\nd\te\x01.inst\""), std::string::npos);

  std::ostringstream json;
  engine::write_response_json(json, row);
  const std::string json_text = json.str();
  EXPECT_NE(json_text.find("a,b\\\"c\\nd\\te\\u0001.inst"), std::string::npos);
  EXPECT_NE(json_text.find("line1\\nline2 \\\"quoted\\\""), std::string::npos);
  // One line per row even when fields contain newlines.
  EXPECT_EQ(std::count(json_text.begin(), json_text.end(), '\n'), 1);

  // The serve-mode id (a row member, stamped before encoding) goes through
  // the same escaping.
  row.id = "req \"1\",\n2";
  std::ostringstream with_id;
  engine::write_response_json(with_id, row);
  EXPECT_NE(with_id.str().find("\"id\": \"req \\\"1\\\",\\n2\""), std::string::npos);
}

}  // namespace
}  // namespace bisched
