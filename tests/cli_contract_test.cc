/**
 * @file
 * The CLI's flag contract: every command accepts exactly the flags its
 * usage synopsis shows, and the usage text shows every flag a command
 * accepts.
 */

#include <gtest/gtest.h>

#if defined(HEAPMD_CLI_PATH)

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <map>
#include <set>
#include <string>
#include <vector>

namespace
{

/** Flags every command accepts (the usage text's global block). */
const std::set<std::string> kGlobal = {"trace-out", "stats", "jobs"};

/** Each command's own flags. */
const std::map<std::string, std::set<std::string>> kAccepted = {
    {"list-apps", {}},
    {"train",
     {"app", "inputs", "seed", "version", "scale", "frq", "local", "out",
      "manifest", "trace", "name"}},
    {"inspect", {"model"}},
    {"check",
     {"app", "model", "seed", "inputs", "version", "scale", "frq",
      "fault", "rate", "budget", "bundle-dir", "manifest"}},
    {"record",
     {"app", "out", "seed", "version", "scale", "fault", "rate",
      "budget"}},
    {"capture",
     {"out", "frq", "lib", "check", "train-out", "bundle-dir",
      "rotate-bytes", "compress", "manifest", "verbose", "local"}},
    {"replay", {"trace", "model", "frq", "bundle-dir", "manifest"}},
    {"diff", {"model", "model-b"}},
    {"snapshot",
     {"app", "out", "seed", "version", "scale", "fault", "rate",
      "budget"}},
    {"audit",
     {"trace", "segments", "model", "graph", "bundle", "manifest",
      "fleet", "max-findings", "deep", "bundle-dir"}},
    {"report", {"bundle", "stacks", "suspects"}},
    {"trend",
     {"baseline", "manifest", "counter-tol", "sample-tol", "min-base",
      "rss-tol", "phase-tol"}},
    {"fleet-merge", {"out", "manifest", "outlier-z", "min-members"}},
    {"fleet-trend", {"fleet", "baseline", "range-tol"}},
    {"top", {"pid", "all", "once", "interval", "model", "reap"}},
    {"export", {"listen", "pid", "once", "fleet"}},
    {"monitor",
     {"segments", "pid", "model", "bundle-dir", "once", "listen",
      "poll-ms", "debounce", "rearm", "window"}},
    {"observe",
     {"app", "seed", "version", "scale", "frq", "fault", "rate",
      "budget"}},
    {"stats",
     {"app", "seed", "version", "scale", "frq", "fault", "rate",
      "budget", "format", "pid", "fleet"}},
};

struct CliRun
{
    int status = -1;
    std::string err; //!< everything written to stderr
};

/** Run the CLI on @p args, without a shell; stdout is discarded. */
CliRun
runCli(const std::vector<std::string> &args)
{
    std::vector<std::string> words = {HEAPMD_CLI_PATH};
    words.insert(words.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &word : words)
        argv.push_back(word.data());
    argv.push_back(nullptr);

    int pipe_fds[2];
    CliRun run;
    if (::pipe(pipe_fds) != 0)
        return run;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY,
                                     0);
    posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], 2);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
    posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
    pid_t pid = 0;
    const int spawned = ::posix_spawn(&pid, argv[0], &actions, nullptr,
                                      argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipe_fds[1]);
    char buf[4096];
    for (ssize_t n; (n = ::read(pipe_fds[0], buf, sizeof buf)) > 0;)
        run.err.append(buf, static_cast<std::size_t>(n));
    ::close(pipe_fds[0]);
    int status = 0;
    if (spawned == 0 && ::waitpid(pid, &status, 0) == pid &&
        WIFEXITED(status))
        run.status = WEXITSTATUS(status);
    return run;
}

/** `CMD --FLAG x --zzz 1`, with capture's command split appended. */
CliRun
probe(const std::string &command, const std::string &flag)
{
    std::vector<std::string> args = {command, "--" + flag, "x", "--zzz",
                                     "1"};
    if (command == "capture")
        args.insert(args.end(), {"--", "/bin/true"});
    return runCli(args);
}

std::string
unknownFlag(const std::string &flag, const std::string &command)
{
    return "unknown flag '--" + flag + "' for command '" + command + "'";
}

/** True when @p text names `--flag` itself, not a longer flag. */
bool
mentions(const std::string &text, const std::string &flag)
{
    const std::string token = "--" + flag;
    for (std::size_t at = text.find(token); at != std::string::npos;
         at = text.find(token, at + 1)) {
        const std::size_t end = at + token.size();
        if (end == text.size() ||
            std::string("abcdefghijklmnopqrstuvwxyz0123456789-")
                    .find(text[end]) == std::string::npos)
            return true;
    }
    return false;
}

/**
 * The usage text of @p command: its entry's first line (two spaces,
 * the name) through the line before the next entry or blank line.
 */
std::string
usageEntry(const std::string &usage, const std::string &command)
{
    std::string entry;
    bool inside = false;
    std::size_t start = 0;
    while (start < usage.size()) {
        std::size_t end = usage.find('\n', start);
        if (end == std::string::npos)
            end = usage.size();
        const std::string line = usage.substr(start, end - start);
        start = end + 1;
        const bool heads = line.size() > 2 &&
                           line.compare(0, 2, "  ") == 0 && line[2] != ' ';
        if (heads || line.empty())
            inside = heads && (line.substr(2) == command ||
                               line.compare(2, command.size() + 1,
                                            command + " ") == 0);
        if (inside)
            entry += line + '\n';
    }
    return entry;
}

TEST(CliContractTest, EachCommandAcceptsExactlyItsFlags)
{
    // Probe every command with every flag any command knows.  The
    // parser checks flags in sorted order, so a rejected --FLAG is
    // named before --zzz, and an accepted one lets --zzz be named.
    std::set<std::string> known = kGlobal;
    for (const auto &[command, flags] : kAccepted)
        known.insert(flags.begin(), flags.end());
    for (const auto &[command, flags] : kAccepted) {
        for (const std::string &flag : known) {
            const bool accepted =
                flags.count(flag) != 0 || kGlobal.count(flag) != 0;
            const CliRun run = probe(command, flag);
            EXPECT_EQ(run.status, 2) << command << " --" << flag;
            const std::string named = accepted ? "zzz" : flag;
            EXPECT_NE(run.err.find(unknownFlag(named, command)),
                      std::string::npos)
                << command << " --" << flag << (accepted
                                                    ? " is rejected"
                                                    : " is accepted")
                << "\n"
                << run.err;
        }
    }
}

TEST(CliContractTest, NoOpFlagsAreUsageErrors)
{
    // record and snapshot compute no metric points, and check builds
    // no model: these flags had nothing to change.
    const std::vector<std::vector<std::string>> calls = {
        {"record", "--frq", "7"},
        {"snapshot", "--frq", "7"},
        {"check", "--local", "1"},
    };
    for (const std::vector<std::string> &call : calls) {
        const CliRun run = runCli(call);
        EXPECT_EQ(run.status, 2) << call[0];
        EXPECT_NE(run.err.find(unknownFlag(call[1].substr(2), call[0])),
                  std::string::npos)
            << run.err;
    }
}

TEST(CliContractTest, UsageShowsEveryAcceptedFlag)
{
    const CliRun bare = runCli({});
    ASSERT_EQ(bare.status, 2);
    const std::size_t global = bare.err.find("global flags");
    ASSERT_NE(global, std::string::npos) << bare.err;
    for (const std::string &flag : kGlobal)
        EXPECT_TRUE(mentions(bare.err.substr(global), flag)) << flag;
    for (const auto &[command, flags] : kAccepted) {
        const std::string entry = usageEntry(bare.err, command);
        ASSERT_FALSE(entry.empty()) << command << "\n" << bare.err;
        for (const std::string &flag : flags)
            EXPECT_TRUE(mentions(entry, flag))
                << command << " --" << flag << "\n"
                << entry;
    }
}

} // namespace

#endif // HEAPMD_CLI_PATH
