/**
 * @file
 * Unit tests for the command-line parser that the genomicsbench CLI
 * and the bench binaries share (core/cli.h). parse() is the testable
 * core: it throws InputError instead of exiting and reports --help/-h
 * through Options::help, so every path but the exit-code checks runs
 * without touching the process.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.h"

namespace gb::cli {
namespace {

Options
parseArgs(FrontEnd front, std::vector<std::string> args,
          DatasetSize default_size = DatasetSize::kSmall)
{
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    return parse(front, static_cast<int>(argv.size()), argv.data(),
                 default_size);
}

/** A bench binary's command line. */
Options
parseArgs(std::vector<std::string> args,
          DatasetSize default_size = DatasetSize::kSmall)
{
    return parseArgs(FrontEnd::kBench, std::move(args), default_size);
}

/** The message parseArgs(front, args) throws; "" when it parses. */
std::string
parseError(FrontEnd front, std::vector<std::string> args)
{
    try {
        parseArgs(front, std::move(args));
    } catch (const InputError& e) {
        return e.what();
    }
    return "";
}

const Command&
command(const std::string& name)
{
    for (const Command& c : commands()) {
        if (c.name == name) return c;
    }
    throw std::out_of_range("no command " + name);
}

TEST(ParseStrict, DefaultsApplied)
{
    const Options opt = parseArgs({}, DatasetSize::kTiny);
    EXPECT_EQ(opt.command, "bench");
    EXPECT_EQ(opt.size, DatasetSize::kTiny);
    EXPECT_EQ(opt.threads, 0u);
    EXPECT_TRUE(opt.kernels.empty());
    EXPECT_TRUE(opt.cache_dir.empty());
    EXPECT_TRUE(opt.json_path.empty());
    EXPECT_FALSE(opt.help);
}

TEST(ParseStrict, ParsesEveryFlag)
{
    const Options opt = parseArgs({"--size=large", "--threads=8",
                                   "--kernels=bsw,phmm",
                                   "--cache-dir=/tmp/cache",
                                   "--json=/tmp/out.json"});
    EXPECT_EQ(opt.size, DatasetSize::kLarge);
    EXPECT_EQ(opt.threads, 8u);
    EXPECT_EQ(opt.kernels,
              (std::vector<std::string>{"bsw", "phmm"}));
    EXPECT_EQ(opt.cache_dir, "/tmp/cache");
    EXPECT_EQ(opt.json_path, "/tmp/out.json");
    EXPECT_FALSE(opt.help);
}

TEST(ParseStrict, HelpSetsFlagInsteadOfExiting)
{
    // parse() never exits: --help is reported through the help field,
    // on both spellings.
    EXPECT_TRUE(parseArgs({"--help"}).help);
    EXPECT_TRUE(parseArgs({"-h"}).help);
}

TEST(ParseStrict, HelpWinsOverLaterArguments)
{
    // Everything after --help is unparsed: even an invalid flag must
    // not throw, matching "the caller decides what to print".
    Options opt;
    EXPECT_NO_THROW(opt = parseArgs({"--help", "--definitely-bogus"}));
    EXPECT_TRUE(opt.help);
    // But flags before --help are still applied.
    opt = parseArgs({"--threads=3", "-h"});
    EXPECT_TRUE(opt.help);
    EXPECT_EQ(opt.threads, 3u);
}

TEST(ParseStrict, ThrowsOnUnknownFlag)
{
    EXPECT_THROW(parseArgs({"--bogus"}), InputError);
    EXPECT_THROW(parseArgs({"positional"}), InputError);
    // There is no engine flag: every kernel has one run path.
    EXPECT_THROW(parseArgs({"--engine=simd"}), InputError);
    // A value flag needs its value, a switch takes none.
    EXPECT_THROW(parseArgs({"--size"}), InputError);
    EXPECT_THROW(parseArgs(FrontEnd::kCli,
                           {"client", "--connect=127.0.0.1:1",
                            "--jobs=j.txt", "--drain=1"}),
                 InputError);
}

TEST(ParseStrict, SuggestsNearMissFlag)
{
    EXPECT_NE(parseError(FrontEnd::kBench, {"--thread=8"})
                  .find("did you mean --threads?"),
              std::string::npos);
    EXPECT_NE(parseError(FrontEnd::kCli, {"run", "pileup", "--thread=2"})
                  .find("did you mean --threads?"),
              std::string::npos);
}

TEST(ParseStrict, RejectsUnknownKernelWithSuggestion)
{
    // A misspelled name is rejected by the parser, before any kernel
    // is prepared: in --kernels and as the CLI's kernel operand.
    for (const auto& [front, args] :
         std::vector<std::pair<FrontEnd, std::vector<std::string>>>{
             {FrontEnd::kBench, {"--kernels=bsw,fmii"}},
             {FrontEnd::kCli,
              {"store", "build", "--cache-dir=/tmp/c",
               "--kernels=pileup,fmii"}},
             {FrontEnd::kCli, {"run", "fmii"}},
             {FrontEnd::kCli, {"info", "fmii"}},
             {FrontEnd::kCli, {"characterize", "fmii"}}}) {
        const std::string what = parseError(front, args);
        EXPECT_NE(what.find("fmii"), std::string::npos) << what;
        EXPECT_NE(what.find("did you mean fmi?"), std::string::npos)
            << what;
    }
    EXPECT_THROW(parseArgs({"--kernels=nosuchkernel"}), InputError);
}

TEST(ParseStrict, RejectsBadValues)
{
    EXPECT_THROW(parseArgs({"--size=huge"}), InputError);
    EXPECT_THROW(parseArgs({"--threads=-1"}), InputError);
    EXPECT_THROW(parseArgs({"--threads=abc"}), InputError);
    EXPECT_THROW(parseArgs({"--threads=2x"}), InputError);
    EXPECT_THROW(parseArgs({"--threads=99999"}), InputError);
    EXPECT_THROW(parseArgs({"--json="}), InputError);
    EXPECT_THROW(parseArgs({"--cache-dir="}), InputError);
    for (const char* flag :
         {"--repeat=0", "--trace=", "--threads=100000", "--json="}) {
        EXPECT_NE(parseError(FrontEnd::kCli, {"run", "pileup", flag}), "")
            << flag;
    }
    for (const char* flag :
         {"--wait-timeout=5x", "--wait-timeout=nan", "--wait-timeout=-1",
          "--connect=", "--connect=host", "--jobs="}) {
        EXPECT_NE(parseError(FrontEnd::kCli,
                             {"client", "--connect=127.0.0.1:1",
                              "--jobs=j.txt", flag}),
                  "")
            << flag;
    }
}

/**
 * The bench command's flags: each parses with a sample argument and
 * appears in the --help text, and the list holds nothing else.
 */
TEST(KnownFlags, MatchesParserAndUsage)
{
    const std::vector<std::pair<std::string, std::string>> samples = {
        {"--size", "--size=tiny"},
        {"--threads", "--threads=2"},
        {"--kernels", "--kernels=bsw"},
        {"--cache-dir", "--cache-dir=/tmp/c"},
        {"--json", "--json=/tmp/j.json"},
        {"--help", "--help"},
    };
    const Command& bench = command("bench");
    ASSERT_EQ(bench.flags.size(), samples.size())
        << "the bench flags and this test's sample list are out of "
           "sync; a new flag needs a sample argument here";
    for (const auto& [flag, sample] : samples) {
        EXPECT_NE(std::find(bench.flags.begin(), bench.flags.end(), flag),
                  bench.flags.end())
            << flag << " missing from the bench flags";
        EXPECT_NO_THROW(parseArgs({sample})) << sample << " rejected";
        EXPECT_NE(bench.usage.find(flag), std::string::npos)
            << flag << " missing from usage text";
    }
}

TEST(KnownFlags, ListsNothingTheParserRejects)
{
    for (const std::string& flag : command("bench").flags) {
        // Pass each flag with a plausible value; none may be unknown.
        const std::string arg =
            flag == "--help"        ? flag
            : flag == "--size"      ? flag + "=tiny"
            : flag == "--threads"   ? flag + "=1"
            : flag == "--kernels"   ? flag + "=bsw"
                                    : flag + "=x";
        EXPECT_NO_THROW(parseArgs({arg})) << arg;
    }
}

/** Each command's words on the CLI ("store build" is two). */
std::vector<std::string>
commandWords(const Command& c)
{
    std::vector<std::string> words;
    std::istringstream in(c.name);
    for (std::string word; in >> word;) words.push_back(word);
    return words;
}

/**
 * Every command takes exactly the flags its usage line lists: the set
 * is pinned here, each flag is in the usage text, and every other
 * flag of the suite is refused as "<command> does not accept <flag>".
 */
TEST(Commands, AcceptExactlyTheirUsageFlags)
{
    const std::map<std::string, std::set<std::string>> expected = {
        {"list", {}},
        {"info", {}},
        {"run",
         {"--size", "--threads", "--repeat", "--cache-dir", "--json",
          "--trace"}},
        {"characterize", {"--size", "--cache-dir", "--json"}},
        {"store build", {"--cache-dir", "--size", "--kernels"}},
        {"store inspect", {}},
        {"store verify", {"--cache-dir"}},
        {"serve",
         {"--jobs", "--listen", "--workers", "--queue-depth",
          "--cache-dir", "--json", "--trace"}},
        {"client", {"--connect", "--jobs", "--wait-timeout", "--drain"}},
        {"bench",
         {"--size", "--threads", "--kernels", "--cache-dir", "--json",
          "--help"}},
    };
    std::set<std::string> every_flag;
    for (const Command& c : commands()) {
        every_flag.insert(c.flags.begin(), c.flags.end());
    }
    ASSERT_EQ(commands().size(), expected.size());
    for (const Command& c : commands()) {
        ASSERT_TRUE(expected.count(c.name)) << c.name;
        const std::set<std::string> flags(c.flags.begin(), c.flags.end());
        EXPECT_EQ(flags, expected.at(c.name)) << c.name;
        for (const std::string& flag : c.flags) {
            EXPECT_NE(c.usage.find(flag), std::string::npos)
                << flag << " missing from " << c.name << "'s usage";
        }
        const FrontEnd front =
            c.name == "bench" ? FrontEnd::kBench : FrontEnd::kCli;
        for (const std::string& flag : every_flag) {
            if (flags.count(flag)) continue;
            std::vector<std::string> args =
                front == FrontEnd::kBench ? std::vector<std::string>{}
                                          : commandWords(c);
            args.push_back(flag + "=1");
            EXPECT_EQ(parseError(front, args),
                      c.name + " does not accept " + flag);
        }
    }
}

/** Runs parseOrExit() on `args`; only reached in a death test. */
void
parseOrExitArgs(FrontEnd front, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    parseOrExit(front, static_cast<int>(argv.size()), argv.data());
}

TEST(Commands, ParseErrorsExitTwoInBothFrontEnds)
{
    EXPECT_EXIT(parseOrExitArgs(FrontEnd::kCli,
                                {"characterize", "pileup", "--threads=4"}),
                testing::ExitedWithCode(2),
                "error: characterize does not accept --threads");
    EXPECT_EXIT(parseOrExitArgs(FrontEnd::kBench, {"--repeat=3"}),
                testing::ExitedWithCode(2),
                "error: bench does not accept --repeat");
    EXPECT_EXIT(parseOrExitArgs(FrontEnd::kCli, {"run", "pileup",
                                                 "--repeat=0"}),
                testing::ExitedWithCode(2), "error: --repeat");
}

TEST(Commands, ParsesOperandsAndCrossFlagRules)
{
    Options opt = parseArgs(FrontEnd::kCli,
                            {"run", "pileup", "--size=tiny", "--threads=2",
                             "--repeat=1", "--trace=/tmp/t.json"});
    EXPECT_EQ(opt.command, "run");
    EXPECT_EQ(opt.operands, std::vector<std::string>{"pileup"});
    EXPECT_EQ(opt.size, DatasetSize::kTiny);
    EXPECT_EQ(opt.threads, 2u);
    EXPECT_EQ(opt.repeat, 1u);
    EXPECT_EQ(opt.trace_path, "/tmp/t.json");

    // store's subcommand is its first word that is not a flag.
    opt = parseArgs(FrontEnd::kCli,
                    {"store", "--cache-dir=/tmp/c", "verify", "a.gbs",
                     "b.gbs"});
    EXPECT_EQ(opt.command, "store verify");
    EXPECT_EQ(opt.operands, (std::vector<std::string>{"a.gbs", "b.gbs"}));

    opt = parseArgs(FrontEnd::kCli,
                    {"client", "--connect=127.0.0.1:7000", "--jobs=j.txt",
                     "--wait-timeout=2.5", "--drain"});
    EXPECT_EQ(opt.connect.host, "127.0.0.1");
    EXPECT_EQ(opt.connect.port, 7000);
    EXPECT_DOUBLE_EQ(opt.wait_timeout, 2.5);
    EXPECT_TRUE(opt.drain);

    for (const std::vector<std::string>& bad :
         std::vector<std::vector<std::string>>{
             {},
             {"bench"},
             {"runn", "pileup"},
             {"store"},
             {"store", "bogus"},
             {"run"},
             {"run", "pileup", "fmi"},
             {"list", "extra"},
             {"store", "inspect"},
             {"store", "build", "--size=tiny"},
             {"store", "verify"},
             {"serve"},
             {"serve", "--jobs=j.txt", "--listen=127.0.0.1:0"},
             {"client", "--jobs=j.txt"},
             {"client", "--connect=127.0.0.1:1"}}) {
        EXPECT_THROW(parseArgs(FrontEnd::kCli, bad), InputError)
            << (bad.empty() ? "(no arguments)" : bad.front());
    }
}

TEST(Harness, OrNAFormatsCounters)
{
    EXPECT_EQ(orNA(-1.0), "n/a");
    EXPECT_EQ(orNA(1.2345, 2), "1.23");
    EXPECT_EQ(orNA(0.0, 1), "0.0");
}

} // namespace
} // namespace gb::cli
