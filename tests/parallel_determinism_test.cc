/**
 * @file
 * Determinism gate for the parallel replay pipeline: training and
 * batch checking must produce byte-identical artifacts regardless of
 * the worker count, both through the library API and through the CLI
 * (where HEAPMD_JOBS selects the worker count without perturbing the
 * manifest-recorded command line).  The CLI cases also pin the output
 * of a deep audit across trace encodings (raw vs `.heapmd.gz`), the
 * pre-flight verdict of train --trace and replay on the malformed-trace
 * corpus, the decode counters of a replay, and the usage-error exit of
 * malformed flag values.
 */

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if HEAPMD_HAVE_ZLIB
#include <zlib.h>
#endif

#include "core/heapmd.hh"
#include "trace/trace_writer.hh"

namespace heapmd
{

namespace
{

std::string
saveModel(const HeapModel &model)
{
    std::ostringstream out;
    model.save(out);
    return out.str();
}

HeapMDConfig
configWithJobs(unsigned jobs)
{
    HeapMDConfig cfg;
    cfg.process.metricFrequency = 200;
    cfg.jobs = jobs;
    return cfg;
}

TEST(ParallelTrain, ModelBytesAreJobInvariant)
{
    auto app = makeApp("Multimedia");
    const std::vector<AppConfig> inputs = makeInputs(1, 8, 1, 0.4);

    const TrainingOutcome serial =
        HeapMD(configWithJobs(1)).train(*app, inputs);
    const TrainingOutcome wide =
        HeapMD(configWithJobs(8)).train(*app, inputs);
    const TrainingOutcome autos =
        HeapMD(configWithJobs(0)).train(*app, inputs);

    EXPECT_EQ(saveModel(serial.model), saveModel(wide.model));
    EXPECT_EQ(saveModel(serial.model), saveModel(autos.model));
    EXPECT_EQ(serial.suspectTrainingRuns, wide.suspectTrainingRuns);
}

TEST(ParallelCheck, CheckManyMatchesSequentialChecks)
{
    auto app = makeApp("Multimedia");
    const std::vector<AppConfig> inputs = makeInputs(50, 6, 1, 0.4);
    const HeapModel model =
        HeapMD(configWithJobs(1))
            .train(*app, makeInputs(1, 8, 1, 0.4))
            .model;

    const HeapMD serial(configWithJobs(1));
    const HeapMD wide(configWithJobs(8));
    const std::vector<CheckOutcome> batch =
        wide.checkMany(*app, inputs, model);
    ASSERT_EQ(batch.size(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const CheckOutcome one = serial.check(*app, inputs[i], model);
        EXPECT_EQ(batch[i].check.reports.size(),
                  one.check.reports.size());
        EXPECT_EQ(batch[i].check.samplesChecked,
                  one.check.samplesChecked);
        EXPECT_EQ(batch[i].run.series.samples().size(),
                  one.run.series.samples().size());
        EXPECT_EQ(batch[i].run.finalTick, one.run.finalTick);
    }
}

#if defined(HEAPMD_CLI_PATH)

/** CLI invocations in a throwaway directory. */
class CliDeterminismTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("heapmd_pardet_" +
                std::to_string(::testing::UnitTest::GetInstance()
                                   ->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /**
     * Run the CLI under HEAPMD_JOBS=@p jobs (unset when @p jobs is
     * empty, so the CLI's default applies) with @p subdir (under the
     * test directory, created on demand) as the working directory,
     * stdout captured to @p log, and stderr too unless @p err_log
     * names its own file.  Returns the exit status; the shell reports
     * a CLI killed by signal N as 128+N.  Output artifacts should use
     * relative paths: runs that must produce byte-identical manifests
     * need byte-identical command lines, so only the (unrecorded)
     * working directory may differ.
     */
    int
    run(const std::string &jobs, const std::string &args,
        const std::string &log, const std::string &subdir = "",
        const std::string &err_log = "") const
    {
        const std::filesystem::path cwd =
            subdir.empty() ? dir_ : dir_ / subdir;
        std::filesystem::create_directories(cwd);
        const std::string env = jobs.empty()
                                    ? "env -u HEAPMD_JOBS"
                                    : "HEAPMD_JOBS=" + jobs;
        const std::string cmd =
            "cd \"" + cwd.string() + "\" && " + env + " \"" +
            HEAPMD_CLI_PATH "\" " + args + " > " + path(log) +
            (err_log.empty() ? " 2>&1" : " 2> " + path(err_log));
        const int status = std::system(cmd.c_str());
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    /**
     * Zero every timing/resource value in a manifest: elapsed time,
     * CPU time, and peak RSS are the run-accounting fields that
     * legitimately differ between byte-identical runs (and `trend`
     * excludes or tolerances them for the same reason).  That covers
     * `*_ns` counter entries and, since schema v3, the env
     * peakRssBytes/durationNanos pair plus wallNanos/cpuNanos in the
     * phases[] and run blocks.  Everything else must match exactly.
     */
    static std::string
    zeroTimingCounters(const std::string &text)
    {
        static const char *const keys[] = {
            "\"peakRssBytes\":", "\"durationNanos\":",
            "\"wallNanos\":", "\"cpuNanos\":"};
        std::istringstream in(text);
        std::ostringstream out;
        std::string line;
        bool timing = false;
        while (std::getline(in, line)) {
            bool zero =
                timing && line.find("\"value\":") != std::string::npos;
            for (const char *key : keys)
                zero = zero || line.find(key) != std::string::npos;
            if (zero) {
                const bool comma = !line.empty() && line.back() == ',';
                line.erase(line.find(':') + 1);
                line += comma ? " 0," : " 0";
            }
            timing = line.find("_ns\",") != std::string::npos;
            out << line << '\n';
        }
        return out.str();
    }

    std::string
    slurp(const std::string &name) const
    {
        std::ifstream in(path(name), std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

    /**
     * Record a capture-provenance trace and truncate it mid-stream,
     * as a child killed before its atexit flush would: decoding must
     * stop cleanly and training over it stay deterministic.
     */
    void
    writeTruncatedCaptureTrace(const std::string &name) const
    {
        ProcessConfig pcfg;
        pcfg.metricFrequency = 200;
        Process process(pcfg);
        {
            std::ofstream out(path(name), std::ios::binary);
            TraceWriterOptions options;
            options.captureProvenance = true;
            TraceWriter writer(out, process.registry(), options);
            process.addEventObserver(&writer);
            auto app = makeApp("Multimedia");
            AppConfig cfg;
            cfg.inputSeed = 3;
            cfg.scale = 0.3;
            app->run(process, cfg);
            writer.finish();
        }
        const auto size = std::filesystem::file_size(path(name));
        ASSERT_GT(size, 64u);
        // Two-thirds of the stream: lands mid-event, usually inside
        // a varint.
        std::filesystem::resize_file(path(name), size * 2 / 3);
    }

    std::filesystem::path dir_;
};

TEST_F(CliDeterminismTest, SyntheticTrainArtifactsAreJobInvariant)
{
    // Identical command lines (relative output paths), different
    // working directories: the manifests must be byte-identical
    // modulo elapsed-time counters.
    const std::string train = "train --app Multimedia --inputs 6 "
                              "--scale 0.4 --out m.model "
                              "--manifest m.manifest";
    ASSERT_EQ(run("1", train, "train1.log", "j1"), 0)
        << slurp("train1.log");
    ASSERT_EQ(run("8", train, "train8.log", "j8"), 0)
        << slurp("train8.log");

    const std::string m1 = slurp("j1/m.model");
    ASSERT_FALSE(m1.empty());
    EXPECT_EQ(m1, slurp("j8/m.model"));
    EXPECT_EQ(zeroTimingCounters(slurp("j1/m.manifest")),
              zeroTimingCounters(slurp("j8/m.manifest")));
    EXPECT_EQ(slurp("train1.log"), slurp("train8.log"));
}

TEST_F(CliDeterminismTest, TraceTrainArtifactsAreJobInvariant)
{
    std::string trace_flags;
    for (int seed = 1; seed <= 4; ++seed) {
        std::string stem = "t";
        stem += std::to_string(seed);
        stem += ".trace";
        const std::string trace = path(stem);
        ASSERT_EQ(run("1",
                      "record --app Multimedia --seed " +
                          std::to_string(seed) + " --scale 0.3 "
                          "--out " + trace,
                      "record.log"),
                  0)
            << slurp("record.log");
        trace_flags += " --trace " + trace;
    }
    writeTruncatedCaptureTrace("killed.trace");
    trace_flags += " --trace " + path("killed.trace");

    // Trace inputs are shared absolute paths (identical in both
    // command lines); outputs are relative to per-job directories.
    std::string train = "train --name pardet";
    train += trace_flags;
    train += " --out m.model --manifest m.manifest";
    ASSERT_EQ(run("1", train, "train1.log", "j1"), 0)
        << slurp("train1.log");
    ASSERT_EQ(run("8", train, "train8.log", "j8"), 0)
        << slurp("train8.log");
    ASSERT_EQ(run("", train, "traind.log", "jd"), 0)
        << slurp("traind.log");

    const std::string m1 = slurp("j1/m.model");
    ASSERT_FALSE(m1.empty());
    for (const char *jobs : {"8", "d"}) {
        const std::string dir = std::string("j") + jobs;
        EXPECT_EQ(m1, slurp(dir + "/m.model")) << dir;
        EXPECT_EQ(zeroTimingCounters(slurp("j1/m.manifest")),
                  zeroTimingCounters(slurp(dir + "/m.manifest")))
            << dir;
        EXPECT_EQ(slurp("train1.log"),
                  slurp(std::string("train") + jobs + ".log"))
            << dir;
    }
    // The truncated capture trace really was replayed as one.
    EXPECT_NE(slurp("train1.log").find("(live capture)"),
              std::string::npos);
}

TEST_F(CliDeterminismTest, BatchCheckOutputIsJobInvariant)
{
    ASSERT_EQ(run("1",
                  "train --app Multimedia --inputs 6 --scale 0.4 "
                  "--out " + path("base.model"),
                  "train.log"),
              0)
        << slurp("train.log");

    const std::string check = "check --app Multimedia --model " +
                              path("base.model") +
                              " --seed 100 --inputs 3 --scale 0.4";
    const int status1 = run("1", check, "check1.log");
    const int status8 = run("8", check, "check8.log");
    EXPECT_EQ(status1, status8);
    EXPECT_TRUE(status1 == 0 || status1 == 3)
        << slurp("check1.log");
    EXPECT_EQ(slurp("check1.log"), slurp("check8.log"));
    EXPECT_NE(slurp("check1.log").find("seed 102"),
              std::string::npos);
}

TEST_F(CliDeterminismTest, DeepAuditOutputIsJobInvariant)
{
    // Record a clean and a fault-seeded trace, then deep-audit both
    // at jobs 1 and 8: reports must be byte-identical, the exit code
    // must reflect the worst finding, and the seeded double free
    // must surface under its exact flow rule id.
    ASSERT_EQ(run("1",
                  "record --app Multimedia --seed 3 --scale 0.3 "
                  "--out " + path("clean.trace"),
                  "rec1.log"),
              0)
        << slurp("rec1.log");
    ASSERT_EQ(run("1",
                  "record --app Multimedia --seed 3 --scale 0.3 "
                  "--fault shared-state-free --rate 1.0 --out " +
                      path("fault.trace"),
                  "rec2.log"),
              0)
        << slurp("rec2.log");

    const std::string audit = "audit --deep 1 --trace " +
                              path("clean.trace") + " --trace " +
                              path("fault.trace");
    const int status1 = run("1", audit, "audit1.log");
    const int status8 = run("8", audit, "audit8.log");
    EXPECT_EQ(status1, 3) << slurp("audit1.log");
    EXPECT_EQ(status8, 3);
    EXPECT_EQ(slurp("audit1.log"), slurp("audit8.log"));
    EXPECT_NE(slurp("audit1.log").find("flow.double_free"),
              std::string::npos);
    // The clean trace contributes no flow findings: its section of
    // the report precedes the faulted trace's and stays clean.
    const std::string log = slurp("audit1.log");
    EXPECT_LT(log.find("clean.trace"), log.find("fault.trace"));
}

TEST_F(CliDeterminismTest, DefaultJobsDeepAuditMatchesSerialOnTheCorpus)
{
    // The default fans out over every allowed CPU; on the malformed
    // corpus it must print what a serial run prints, byte for byte.
    std::vector<std::string> traces;
    for (const auto &entry :
         std::filesystem::directory_iterator(HEAPMD_TEST_DATA_DIR)) {
        if (entry.path().extension() == ".trace")
            traces.push_back(entry.path().string());
    }
    std::sort(traces.begin(), traces.end());
    ASSERT_EQ(traces.size(), 29u);
    std::string audit = "audit --deep 1";
    for (const std::string &trace : traces)
        audit += " --trace " + trace;
    const int serial = run("1", audit, "audit1.out", "", "audit1.err");
    const int fanned = run("", audit, "auditd.out", "", "auditd.err");
    EXPECT_EQ(serial, 3) << slurp("audit1.err");
    EXPECT_EQ(fanned, serial);
    EXPECT_EQ(slurp("audit1.out"), slurp("auditd.out"));
    EXPECT_EQ(slurp("audit1.err"), slurp("auditd.err"));
}

TEST_F(CliDeterminismTest, BundleWriteFailureIsJobInvariant)
{
    // Every trace's first flow bundle path is taken by a directory,
    // so every worker fails to write.  The run must fail as a serial
    // one does, naming the first trace's bundle, at any job count.
    std::string audit = "audit --deep 1 --bundle-dir D";
    for (int seed = 1; seed <= 6; ++seed) {
        const std::string trace = "f" + std::to_string(seed) + ".trace";
        ASSERT_EQ(run("1",
                      "record --app Multimedia --seed " +
                          std::to_string(seed) +
                          " --scale 0.3 --fault shared-state-free "
                          "--rate 1.0 --out " + trace,
                      "record.log"),
                  0)
            << slurp("record.log");
        std::filesystem::create_directories(
            dir_ / "D" / ("flow-00" + std::to_string(seed) + "-001.json"));
        audit += " --trace " + trace;
    }
    const int serial = run("1", audit, "audit1.out", "", "audit1.err");
    EXPECT_EQ(serial, 1) << slurp("audit1.err");
    EXPECT_NE(slurp("audit1.err").find("flow-001-001.json"),
              std::string::npos)
        << slurp("audit1.err");
    for (const char *jobs : {"8", ""}) {
        for (int round = 0; round < 4; ++round) {
            EXPECT_EQ(run(jobs, audit, "auditn.out", "", "auditn.err"),
                      serial)
                << "jobs '" << jobs << "'";
            EXPECT_EQ(slurp("auditn.err"), slurp("audit1.err"))
                << "jobs '" << jobs << "'";
            EXPECT_EQ(slurp("auditn.out"), slurp("audit1.out"));
        }
    }
}

TEST_F(CliDeterminismTest, InvalidJobsValuesAreUsageErrors)
{
    EXPECT_EQ(run("1", "train --app Multimedia --inputs 2 "
                       "--jobs banana",
                  "bad1.log"),
              2);
    EXPECT_EQ(run("banana", "train --app Multimedia --inputs 2",
                  "bad2.log"),
              2);
    EXPECT_EQ(run("1", "check --app Multimedia --model none "
                       "--inputs 0",
                  "bad3.log"),
              2);
    EXPECT_NE(slurp("bad1.log").find("invalid --jobs value"),
              std::string::npos);
    EXPECT_NE(slurp("bad2.log").find("invalid HEAPMD_JOBS value"),
              std::string::npos);
}

TEST_F(CliDeterminismTest, MalformedNumericFlagsAreUsageErrors)
{
    // The whole value must parse: junk used to abort (SIGABRT from an
    // uncaught std::stoull), "-1" wrapped to 2^64-1 and "1e3" read as
    // 1.  Each is now a usage error naming the flag, before any file
    // is opened.
    EXPECT_EQ(run("1", "replay --trace none.trace --model none "
                       "--frq abc",
                  "frq.log"),
              2);
    EXPECT_EQ(run("1", "audit --trace none.trace --max-findings -1",
                  "max.log"),
              2);
    EXPECT_EQ(run("1", "check --app Multimedia --model none "
                       "--inputs 1e3",
                  "inputs.log"),
              2);
    EXPECT_NE(slurp("frq.log").find("invalid --frq value 'abc'"),
              std::string::npos)
        << slurp("frq.log");
    EXPECT_NE(slurp("max.log").find("invalid --max-findings value"),
              std::string::npos)
        << slurp("max.log");
    EXPECT_NE(slurp("inputs.log").find("invalid --inputs value '1e3'"),
              std::string::npos)
        << slurp("inputs.log");
    // A pid or version above 2^32-1 used to wrap: pid 2^32+1 read
    // pid 1's segment and version 2^32+1 recorded version 1.
    EXPECT_EQ(run("1", "top --pid 4294967297 --once 1", "pid.log"), 2);
    EXPECT_EQ(run("1", "record --app gzip --version 4294967297 "
                       "--out wrapped.trace",
                  "version.log"),
              2);
    EXPECT_NE(slurp("pid.log").find("invalid --pid value '4294967297'"),
              std::string::npos)
        << slurp("pid.log");
    EXPECT_NE(slurp("version.log").find("invalid --version value"),
              std::string::npos)
        << slurp("version.log");
    // A zero streak used to be clamped to 1 without a word.
    EXPECT_EQ(run("1", "monitor --segments none --model none "
                       "--debounce 0",
                  "debounce.log"),
              2);
    EXPECT_EQ(run("1", "monitor --segments none --model none "
                       "--rearm 0",
                  "rearm.log"),
              2);
    for (const char *log : {"debounce.log", "rearm.log"})
        EXPECT_NE(slurp(log).find("--debounce and --rearm must be at "
                                  "least 1"),
                  std::string::npos)
            << slurp(log);
}

TEST_F(CliDeterminismTest, GiantExtentTraceRunsInBoundedTime)
{
    // giant_alloc.trace holds a 16 TiB extent and one just under
    // 2^63 bytes.  Index work must not grow with extent size: every
    // command that reads the trace finishes well under a second.
    const std::string trace =
        std::string(HEAPMD_TEST_DATA_DIR) + "/giant_alloc.trace";
    ASSERT_EQ(run("1", "train --app gzip --inputs 2 --scale 0.1 "
                       "--out gzip.model",
                  "model.log"),
              0)
        << slurp("model.log");
    const struct
    {
        const char *name;
        std::string args;
    } kCommands[] = {
        {"audit", "audit --deep 1 --trace " + trace},
        {"train", "train --trace " + trace + " --out giant.model"},
        {"replay", "replay --trace " + trace + " --model gzip.model"},
    };
    for (const auto &command : kCommands) {
        const auto start = std::chrono::steady_clock::now();
        const int status = run("1", command.args, "giant.log");
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        EXPECT_EQ(status, 0) << command.name << ": "
                             << slurp("giant.log");
        EXPECT_LT(seconds, 1.0) << command.name;
    }
}

TEST_F(CliDeterminismTest, PreflightVerdictMatchesAuditOnTheCorpus)
{
    // The trace lint is the pre-flight of train --trace and replay:
    // each corpus trace the lint rejects fails both with exit 1 and
    // nothing on stdout, the rest run, and the stderr audit block
    // carries the findings of `heapmd audit`.  No trace may reach the
    // fold and crash it.
    std::string traces;
    for (int seed = 1; seed <= 3; ++seed) {
        const std::string trace = "g" + std::to_string(seed) + ".trace";
        ASSERT_EQ(run("1",
                      "record --app gzip --scale 0.2 --seed " +
                          std::to_string(seed) + " --out " + trace,
                      "record.log"),
                  0)
            << slurp("record.log");
        traces += " --trace " + trace;
    }
    ASSERT_EQ(run("1", "train" + traces + " --out m.model", "m.log"), 0)
        << slurp("m.log");

    std::size_t rejected = 0;
    std::size_t accepted = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(HEAPMD_TEST_DATA_DIR)) {
        if (entry.path().extension() != ".trace")
            continue;
        const std::string trace = entry.path().string();
        const std::string name = entry.path().filename().string();
        ASSERT_LT(run("1", "audit --trace " + trace, "audit.log"), 128)
            << name;
        // The audit prints a "trace ..." stats line, then the report,
        // which ends in its "E error(s), W warning(s), N note(s)" line.
        const std::string audit = slurp("audit.log");
        const std::string findings = audit.substr(audit.find('\n') + 1);
        const std::string summary = findings.substr(
            findings.rfind('\n', findings.size() - 2) + 1);
        std::size_t counts[3] = {0, 0, 0};
        ASSERT_EQ(std::sscanf(summary.c_str(),
                              "%zu error(s), %zu warning(s), %zu note(s)",
                              &counts[0], &counts[1], &counts[2]),
                  3)
            << name << ": " << audit;
        const bool errors = counts[0] != 0;
        const bool quiet = counts[0] + counts[1] + counts[2] == 0;
        const std::string block =
            "audit of trace '" + trace + "':\n" + findings;

        const int replay =
            run("1", "replay --trace " + trace + " --model m.model",
                "replay.out", "", "replay.err");
        const int train = run("1", "train --trace " + trace +
                                       " --out t.model",
                              "train.out", "", "train.err");
        EXPECT_LT(replay, 128) << name << ": " << slurp("replay.err");
        EXPECT_LT(train, 128) << name << ": " << slurp("train.err");
        EXPECT_EQ(replay, errors ? 1 : 0) << name << ": "
                                          << slurp("replay.err");
        EXPECT_EQ(train, errors ? 1 : 0) << name << ": "
                                         << slurp("train.err");
        if (errors) {
            EXPECT_EQ(slurp("replay.out"), "") << name;
            EXPECT_EQ(slurp("train.out"), "") << name;
        }
        for (const char *err : {"replay.err", "train.err"}) {
            const std::string text = slurp(err);
            if (quiet)
                EXPECT_EQ(text.find("audit of trace"),
                          std::string::npos)
                    << name << " " << err;
            else
                EXPECT_EQ(text.rfind(block, 0), 0u)
                    << name << " " << err << ":\n"
                    << text << "\nwant prefix:\n"
                    << block;
        }
        ++(errors ? rejected : accepted);
    }
    EXPECT_EQ(rejected, 21u);
    EXPECT_EQ(accepted, 8u);
}

TEST_F(CliDeterminismTest, ReplayCountsOneDecodePerEvent)
{
    // One pass decodes the trace for the lint and the replay alike:
    // it counts as one replay, each event decoded once.
    ASSERT_EQ(run("1", "record --app gzip --scale 0.2 --out g.trace",
                  "record.log"),
              0)
        << slurp("record.log");
    ASSERT_EQ(run("1", "train --trace g.trace --out m.model", "m.log"),
              0)
        << slurp("m.log");
    const int status =
        run("1", "replay --trace g.trace --model m.model --stats 1",
            "replay.out", "", "replay.err");
    ASSERT_TRUE(status == 0 || status == 3) << slurp("replay.err");

    const std::string out = slurp("replay.out");
    unsigned long long replayed = 0;
    ASSERT_EQ(std::sscanf(out.c_str(), "replayed %llu events",
                          &replayed),
              1)
        << out;
    const auto counter = [&](const std::string &name) {
        std::istringstream table(slurp("replay.err"));
        std::string line;
        while (std::getline(table, line)) {
            std::istringstream row(line);
            std::string key, kind;
            unsigned long long value = 0;
            if (row >> key >> kind >> value && key == name &&
                kind == "counter")
                return value;
        }
        ADD_FAILURE() << "no counter " << name;
        return 0ULL;
    };
    EXPECT_GT(replayed, 0u);
    EXPECT_EQ(counter("trace.events_decoded"), replayed);
    EXPECT_EQ(counter("trace.replays"), 1u);
}

TEST_F(CliDeterminismTest, NoAuditIsAUsageError)
{
    // The pre-flight lint cannot be skipped: it is the pass that
    // replays the trace, and an event it rejects must never reach
    // the fold.
    EXPECT_EQ(run("1", "train --trace none.trace --no-audit 1",
                  "train.log"),
              2);
    EXPECT_EQ(run("1", "check --app gzip --model none --no-audit 1",
                  "check.log"),
              2);
    EXPECT_EQ(run("1", "replay --trace none.trace --model none "
                       "--no-audit 1",
                  "replay.log"),
              2);
    for (const char *log : {"train.log", "check.log", "replay.log"})
        EXPECT_NE(slurp(log).find("no-audit"), std::string::npos)
            << slurp(log);
}

#if HEAPMD_HAVE_ZLIB

TEST_F(CliDeterminismTest, DeepAuditOfGzipTraceMatchesRaw)
{
    // A `.heapmd.gz` trace is the same trace: every flow_* corpus
    // case prints the same findings and exit code either way.
    std::size_t cases = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(HEAPMD_TEST_DATA_DIR)) {
        const std::string raw = entry.path().string();
        const std::string stem = entry.path().stem().string();
        if (stem.rfind("flow_", 0) != 0 ||
            entry.path().extension() != ".trace")
            continue;
        ++cases;

        std::ifstream in(raw, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        const std::string data = bytes.str();
        const std::string gz = path(stem + ".heapmd.gz");
        gzFile out = gzopen(gz.c_str(), "wb");
        ASSERT_NE(out, nullptr) << gz;
        ASSERT_EQ(gzwrite(out, data.data(),
                          static_cast<unsigned>(data.size())),
                  static_cast<int>(data.size()));
        ASSERT_EQ(gzclose(out), Z_OK);

        const int raw_status =
            run("1", "audit --deep 1 --trace " + raw, stem + ".raw");
        const int gz_status =
            run("1", "audit --deep 1 --trace " + gz, stem + ".gz");
        EXPECT_EQ(gz_status, raw_status) << stem;
        std::string expected = slurp(stem + ".raw");
        for (std::size_t at = expected.find(raw);
             at != std::string::npos; at = expected.find(raw, at))
            expected.replace(at, raw.size(), gz);
        EXPECT_EQ(slurp(stem + ".gz"), expected) << stem;
    }
    EXPECT_GE(cases, 6u);
}

#endif // HEAPMD_HAVE_ZLIB

#endif // HEAPMD_CLI_PATH

} // namespace

} // namespace heapmd
