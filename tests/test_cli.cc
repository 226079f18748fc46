/**
 * CLI contract tests: run the `wastesim` binary and pin its flag
 * surface.  Every subcommand rejects unknown flags, reports a value
 * flag given last as "needs a value", accepts each of its switches,
 * and keeps the flag spellings listed in `commands` below; a handful
 * of range checks, order-independence rules and `-o` outputs are
 * pinned end to end, and `help` must list exactly those spellings
 * and name every report and debug flag.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/debug.hh"
#include "system/report.hh"

namespace wastesim
{

namespace
{

namespace fs = std::filesystem;

/** One subcommand's accepted flag spellings (aliases included). */
struct CommandFlags
{
    const char *name;
    std::vector<const char *> values;   //!< flags that take a value
    std::vector<const char *> switches; //!< flags that take none
};

/** The observability flags every subcommand accepts. */
const std::vector<const char *> obsValues = {
    "--debug-flags", "--debug-start", "--debug-end", "--sample-window",
    "--sample-out",  "--timeline",    "--heatmap"};
const std::vector<const char *> obsSwitches = {"-v", "-vv"};

const std::vector<CommandFlags> commands = {
    {"record",
     {"--bench", "--scale", "--mesh", "--mcs", "--mc-tiles", "--out",
      "-o"},
     {}},
    {"replay",
     {"--trace", "--protocol", "--mesh", "--mcs", "--mc-tiles"},
     {"--full-size"}},
    {"synth",
     {"--preset", "--seed", "--pattern", "--ops", "--phases",
      "--regions", "--region-bytes", "--private-bytes",
      "--sharing-degree", "--read-frac", "--shared-frac", "--stride",
      "--hot-frac", "--hot-prob", "--work", "--mesh", "--mcs",
      "--mc-tiles", "--out", "-o", "--protocol"},
     {"--bypass", "--full-size"}},
    {"sweep",
     {"--scale", "--report", "--format", "--mesh", "--mesh-list",
      "--mcs", "--mc-tiles", "--shard", "--cache", "--jobs",
      "--supervise", "--max-retries", "--retry-backoff-ms",
      "--cell-deadline-ms", "--fault-inject", "--fault-seed"},
     {"--full-size", "--progress", "--retry-quarantined"}},
    {"report",
     {"--scale", "--report", "--format", "--mesh", "--mesh-list",
      "--mcs", "--mc-tiles", "--cache", "--jobs", "--in"},
     {"--full-size", "--schema", "--compute-missing",
      "--retry-quarantined"}},
    {"merge", {"--out", "-o"}, {"--skip-bad"}},
    {"cell",
     {"--bench", "--protocol", "--scale", "--mesh", "--mcs",
      "--mc-tiles", "--out", "-o", "--fault-inject", "--fault-seed",
      "--fault-attempt"},
     {"--full-size"}},
    {"fuzz",
     {"--seed", "--runs", "--time-budget", "--corpus", "--report",
      "--max-ticks", "--deadline-ms", "--minimize-tests"},
     {"--minimize", "--no-isolate", "--no-replay"}},
    {"fuzzone", {"--scenario", "--out", "-o", "--max-ticks"},
     {"--no-replay"}},
    {"info", {"--trace"}, {}},
};

/** Exit status and combined stdout + stderr of one run. */
struct CliRun
{
    int status = -1;
    std::string out;

    bool has(const std::string &s) const
    {
        return out.find(s) != std::string::npos;
    }
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

/** A scratch directory, the working directory of every run. */
class CliTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string tmpl =
            (fs::temp_directory_path() / "wastesim_cli_XXXXXX").string();
        ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
        dir_ = tmpl;
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    /** Run `wastesim ARGS...` in the scratch directory, with the
     *  cache-steering environment cleared. */
    CliRun
    wastesim(const std::vector<std::string> &args) const
    {
        const std::string log = path("run.log");
        std::vector<std::string> argv_s = {WASTESIM_BINARY_DIR "/wastesim"};
        argv_s.insert(argv_s.end(), args.begin(), args.end());
        std::vector<char *> argv;
        for (std::string &a : argv_s)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const pid_t pid = ::fork();
        if (pid == 0) {
            const int fd =
                ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd < 0 || ::chdir(dir_.c_str()) != 0)
                ::_exit(127);
            ::dup2(fd, 1);
            ::dup2(fd, 2);
            ::unsetenv("WASTESIM_CACHE");
            ::unsetenv("WASTESIM_NO_CACHE");
            ::unsetenv("WASTESIM_JOBS");
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        CliRun r;
        int st = 0;
        if (pid > 0 && ::waitpid(pid, &st, 0) == pid)
            r.status = WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
        r.out = fileBytes(log);
        return r;
    }

    /** Expect `wastesim ARGS...` to fail, printing @p text. */
    void
    expectRejects(const std::vector<std::string> &args,
                  const std::string &text) const
    {
        const CliRun r = wastesim(args);
        std::string cmdline = "wastesim";
        for (const std::string &a : args)
            cmdline += " " + a;
        EXPECT_NE(r.status, 0) << cmdline << "\n" << r.out;
        EXPECT_TRUE(r.has(text))
            << cmdline << "\nmissing '" << text << "' in:\n" << r.out;
    }

    fs::path dir_;
};

TEST_F(CliTest, UnknownFlagsAreRejected)
{
    for (const CommandFlags &c : commands)
        expectRejects({c.name, "--no-such"}, "unknown option '--no-such'");
    const CliRun r = wastesim({"no-such-command"});
    EXPECT_NE(r.status, 0);
}

TEST_F(CliTest, ValueFlagGivenLastNeedsAValue)
{
    for (const CommandFlags &c : commands) {
        std::vector<const char *> flags = c.values;
        flags.insert(flags.end(), obsValues.begin(), obsValues.end());
        for (const char *f : flags)
            expectRejects({c.name, f}, "needs a value");
    }
}

TEST_F(CliTest, EverySwitchIsAccepted)
{
    // A switch is consumed without a value, so the parser moves on and
    // trips over the unknown flag after it.
    for (const CommandFlags &c : commands) {
        std::vector<const char *> flags = c.switches;
        flags.insert(flags.end(), obsSwitches.begin(), obsSwitches.end());
        for (const char *f : flags)
            expectRejects({c.name, f, "--no-such"},
                          "unknown option '--no-such'");
    }
}

TEST_F(CliTest, ShortOutFlagWritesTheOutput)
{
    const CliRun rec = wastesim(
        {"record", "--bench", "LU", "--mesh", "2x2", "-o", "lu.trc"});
    EXPECT_EQ(rec.status, 0) << rec.out;
    EXPECT_FALSE(fileBytes(path("lu.trc")).empty());

    const CliRun syn =
        wastesim({"synth", "--mesh", "2x2", "--ops", "64", "-o", "s.trc"});
    EXPECT_EQ(syn.status, 0) << syn.out;
    EXPECT_FALSE(fileBytes(path("s.trc")).empty());

    const CliRun cell = wastesim({"cell", "--bench", "LU", "--protocol",
                                  "MESI", "--mesh", "2x2", "-o", "c.out"});
    EXPECT_EQ(cell.status, 0) << cell.out;
    EXPECT_FALSE(fileBytes(path("c.out")).empty());

    // Merging one complete cache reproduces it byte for byte.
    const std::string golden =
        WASTESIM_SOURCE_DIR "/tests/golden/wastesim_sweep_4x4.cache";
    const CliRun merge = wastesim({"merge", "-o", "m.cache", golden});
    EXPECT_EQ(merge.status, 0) << merge.out;
    EXPECT_EQ(fileBytes(path("m.cache")), fileBytes(golden));

    std::string line;
    {
        std::ifstream is(WASTESIM_SOURCE_DIR
                         "/tests/corpus/healthy-00-DFlexL2.scn");
        for (std::string l; std::getline(is, l);)
            if (l.rfind("scenario ", 0) == 0)
                line = l.substr(9);
    }
    ASSERT_FALSE(line.empty());
    const CliRun one =
        wastesim({"fuzzone", "--scenario", line, "-o", "f.out"});
    EXPECT_EQ(one.status, 0) << one.out;
    EXPECT_FALSE(fileBytes(path("f.out")).empty());
}

TEST_F(CliTest, RangeChecksReject)
{
    // A 2x2 grid keeps the run short should a check ever let it start.
    const std::pair<const char *, const char *> bad[] = {
        {"--jobs", "0"}, {"--shard", "2/2"}, {"--supervise", "0"},
        {"--scale", "-1"}};
    for (const auto &[flag, value] : bad)
        expectRejects(
            {"sweep", "--mesh", "2x2", "--cache", "r.cache", flag, value},
            flag);
    EXPECT_FALSE(fs::exists(path("r.cache")));
    expectRejects({"fuzz", "--runs", "1", "--time-budget", "-1"},
                  "--time-budget");
}

TEST_F(CliTest, UnknownReportFailsBeforeCacheIo)
{
    expectRejects({"sweep", "--mesh", "2x2", "--cache", "s.cache",
                   "--report", "nope"},
                  "unknown report");
    EXPECT_FALSE(fs::exists(path("s.cache")));
    expectRejects({"report", "--mesh", "2x2", "--cache", "r.cache",
                   "--compute-missing", "--report", "nope"},
                  "unknown report");
    EXPECT_FALSE(fs::exists(path("r.cache")));
}

TEST_F(CliTest, FullSizeAndTopologyFlagsCommute)
{
    auto cellId = [&](std::vector<std::string> flags,
                      const std::string &out) {
        std::vector<std::string> a = {"cell", "--bench", "LU",
                                      "--protocol", "MESI", "--out", out};
        a.insert(a.end(), flags.begin(), flags.end());
        const CliRun r = wastesim(a);
        EXPECT_EQ(r.status, 0) << r.out;
        // The hand-off file's second line is the cell id.
        std::ifstream is(path(out));
        std::string id;
        std::getline(is, id);
        std::getline(is, id);
        return id;
    };
    const std::string a = cellId({"--full-size", "--mesh", "2x2"}, "a");
    const std::string b = cellId({"--mesh", "2x2", "--full-size"}, "b");
    const std::string scaled = cellId({"--mesh", "2x2"}, "c");
    EXPECT_NE(a.find("topo=2x2"), std::string::npos) << a;
    EXPECT_EQ(a, b);
    EXPECT_NE(a, scaled);
}

TEST_F(CliTest, SynthPresetAppliesBeforeTuningFlags)
{
    const CliRun a = wastesim({"synth", "--ops", "64", "--preset",
                               "hotset16", "--mesh", "2x2", "--out", "a.trc"});
    const CliRun b = wastesim({"synth", "--preset", "hotset16", "--mesh",
                               "2x2", "--ops", "64", "--out", "b.trc"});
    EXPECT_EQ(a.status, 0) << a.out;
    EXPECT_EQ(b.status, 0) << b.out;
    const std::string ta = fileBytes(path("a.trc"));
    EXPECT_FALSE(ta.empty());
    EXPECT_EQ(ta, fileBytes(path("b.trc")));
}

/**
 * The flag spellings @p help lists under each subcommand: a section
 * starts at an unindented "NAME  summary" line, and each of its flag
 * lines reads "  --flag[, -alias] [METAVAR]  help".
 */
std::map<std::string, std::set<std::string>>
helpFlags(const std::string &help)
{
    std::map<std::string, std::set<std::string>> out;
    std::set<std::string> *section = nullptr;
    std::istringstream lines(help);
    for (std::string line; std::getline(lines, line);) {
        if (line.empty() || line.rfind("usage:", 0) == 0) {
            section = nullptr;
        } else if (line[0] != ' ') {
            section = &out[line.substr(0, line.find(' '))];
        } else if (section && line.rfind("  -", 0) == 0) {
            std::istringstream words(line);
            for (std::string w; words >> w && w[0] == '-';) {
                const bool alias_follows = w.back() == ',';
                if (alias_follows)
                    w.pop_back();
                section->insert(w);
                if (!alias_follows)
                    break;
            }
        }
    }
    return out;
}

TEST_F(CliTest, HelpNamesEveryCommandReportAndDebugFlag)
{
    const CliRun r = wastesim({"help"});
    EXPECT_EQ(r.status, 0);
    // Each subcommand's section lists exactly its pinned spellings.
    const auto listed = helpFlags(r.out);
    for (const CommandFlags &c : commands) {
        std::set<std::string> want(c.values.begin(), c.values.end());
        want.insert(c.switches.begin(), c.switches.end());
        const auto it = listed.find(c.name);
        ASSERT_NE(it, listed.end()) << c.name;
        EXPECT_EQ(it->second, want) << c.name;
    }
    const auto every = listed.find("every");
    ASSERT_NE(every, listed.end());
    std::set<std::string> obs(obsValues.begin(), obsValues.end());
    obs.insert(obsSwitches.begin(), obsSwitches.end());
    EXPECT_EQ(every->second, obs);
    for (const std::string &name : reportNames())
        EXPECT_TRUE(r.has(name)) << name;
    for (const debug::Flag *f : debug::allFlags())
        EXPECT_TRUE(r.has(f->name)) << f->name;
}

} // namespace

} // namespace wastesim
