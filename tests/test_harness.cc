/**
 * @file
 * Unit tests for the bench harness option parser. parseStrict() is
 * the testable core: it throws InputError instead of exiting and
 * reports --help/-h through Options::help, so every path here runs
 * without touching the process.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness.h"

namespace gb::bench {
namespace {

Options
parseArgs(std::vector<const char*> args,
          DatasetSize default_size = DatasetSize::kSmall)
{
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("bench_test"));
    for (const char* arg : args) {
        argv.push_back(const_cast<char*>(arg));
    }
    return Options::parseStrict(static_cast<int>(argv.size()),
                                argv.data(), default_size);
}

TEST(ParseStrict, DefaultsApplied)
{
    const Options opt = parseArgs({}, DatasetSize::kTiny);
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
    // Regression: --help used to std::exit(0) inside parseStrict,
    // contradicting its "throws instead of exiting" contract. It must
    // now report through the help field — on both spellings.
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
}

TEST(ParseStrict, SuggestsNearMissFlag)
{
    try {
        parseArgs({"--thread=8"});
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("--threads"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ParseStrict, RejectsUnknownKernelWithSuggestion)
{
    // Regression: a misspelled name passed the parser and aborted the
    // bench binary later, in createKernel().
    try {
        parseArgs({"--kernels=bsw,fmii"});
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        const std::string what = e.what();
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
}

/**
 * Satellite contract: every flag the parser accepts appears in
 * knownFlags() (so did-you-mean can suggest it) and in the usage
 * text, and knownFlags() lists nothing the parser rejects.
 */
TEST(KnownFlags, MatchesParserAndUsage)
{
    // A valid sample argument for each flag knownFlags() lists.
    const std::vector<std::pair<std::string, const char*>> samples = {
        {"--size", "--size=tiny"},
        {"--threads", "--threads=2"},
        {"--kernels", "--kernels=bsw"},
        {"--cache-dir", "--cache-dir=/tmp/c"},
        {"--json", "--json=/tmp/j.json"},
        {"--help", "--help"},
    };
    const auto& flags = knownFlags();
    ASSERT_EQ(flags.size(), samples.size())
        << "knownFlags() and this test's sample list are out of sync; "
           "a new flag needs a sample argument here";
    const std::string usage = usageText();
    for (const auto& [flag, sample] : samples) {
        EXPECT_NE(std::find(flags.begin(), flags.end(), flag),
                  flags.end())
            << flag << " missing from knownFlags()";
        EXPECT_NO_THROW(parseArgs({sample}))
            << sample << " rejected by parseStrict";
        EXPECT_NE(usage.find(flag), std::string::npos)
            << flag << " missing from usage text";
    }
}

TEST(KnownFlags, ListsNothingTheParserRejects)
{
    for (const std::string& flag : knownFlags()) {
        // Pass each flag with a plausible value; none may be unknown.
        const std::string arg =
            flag == "--help"        ? flag
            : flag == "--size"      ? flag + "=tiny"
            : flag == "--threads"   ? flag + "=1"
            : flag == "--kernels"   ? flag + "=bsw"
                                    : flag + "=x";
        EXPECT_NO_THROW(parseArgs({arg.c_str()})) << arg;
    }
}

TEST(Harness, OrNAFormatsCounters)
{
    EXPECT_EQ(orNA(-1.0), "n/a");
    EXPECT_EQ(orNA(1.2345, 2), "1.23");
    EXPECT_EQ(orNA(0.0, 1), "0.0");
}

} // namespace
} // namespace gb::bench
