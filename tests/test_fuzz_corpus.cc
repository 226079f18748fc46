/** Regression-corpus replay: every committed `.scn` scenario in
 *  tests/corpus re-runs under the invariant checker and must match its
 *  pinned verdict (and, where pinned, its exact result CRC).  A
 *  failure here means a behavior change reached a configuration the
 *  fuzzer once flagged — regenerate the pins only if the change is
 *  intentional. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "fuzz/campaign.hh"

namespace wastesim
{

namespace
{

std::vector<std::string>
corpusFiles()
{
    const std::filesystem::path dir =
        std::filesystem::path(WASTESIM_SOURCE_DIR) / "tests" / "corpus";
    std::vector<std::string> out;
    if (!std::filesystem::exists(dir))
        return out;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".scn")
            out.push_back(e.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

TEST(Corpus, CommittedScenariosExist)
{
    // The corpus is part of the repo's regression surface; an empty
    // directory means the harness is silently testing nothing.
    EXPECT_FALSE(corpusFiles().empty())
        << "no .scn files under tests/corpus";
}

TEST(Corpus, EveryCommittedScenarioReplaysToItsPinnedVerdict)
{
    for (const std::string &path : corpusFiles()) {
        SCOPED_TRACE(path);
        CorpusEntry e;
        std::string err;
        ASSERT_TRUE(readCorpusFile(path, e, &err)) << err;
        EXPECT_TRUE(replayCorpusEntry(e, 500'000'000ULL, &err))
            << e.scenarioLine << "\n" << err;
    }
}

} // namespace wastesim
