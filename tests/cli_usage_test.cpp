// Guards the CLI's usage header against drifting from the dispatch table
// (the header once advertised only six of the seven commands). Both sides
// now derive from cli::kCommands — main() static_asserts its handler table
// against it — so this test pins the remaining human-visible contract:
// the rendered header names every dispatched command, exactly once, with
// a summary line. The last cases run the built CLI: malformed integer
// flags must fail the parse (exit 2, naming the flag), and the seed must
// reach the world without passing through a double.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "cli_commands.h"

namespace ddos::cli {
namespace {

TEST(CliUsage, EveryCommandAppearsInTheUsageLine) {
  const std::string usage = usage_header();
  const std::string alternation = "<" + command_list() + ">";
  EXPECT_NE(usage.find(alternation), std::string::npos)
      << "usage line missing the command alternation: " << usage;
  for (const CommandInfo& cmd : kCommands) {
    EXPECT_NE(usage.find(std::string(cmd.name)), std::string::npos)
        << "command '" << cmd.name << "' missing from usage header";
  }
}

TEST(CliUsage, EveryCommandHasASummaryLine) {
  const std::string usage = usage_header();
  for (const CommandInfo& cmd : kCommands) {
    EXPECT_FALSE(cmd.summary.empty())
        << "command '" << cmd.name << "' has no summary";
    EXPECT_NE(usage.find(std::string(cmd.summary)), std::string::npos)
        << "summary for '" << cmd.name << "' missing from usage header";
  }
}

TEST(CliUsage, CommandNamesAreUniqueAndWellFormed) {
  std::set<std::string> seen;
  for (const CommandInfo& cmd : kCommands) {
    EXPECT_FALSE(cmd.name.empty());
    EXPECT_TRUE(seen.insert(std::string(cmd.name)).second)
        << "duplicate command '" << cmd.name << "'";
    for (const char c : cmd.name) {
      EXPECT_TRUE(c >= 'a' && c <= 'z')
          << "command names are lowercase words, got '" << cmd.name << "'";
    }
  }
}

TEST(CliUsage, CommandListIsPipeSeparatedInTableOrder) {
  const std::string list = command_list();
  std::size_t pos = 0;
  for (std::size_t i = 0; i < kCommands.size(); ++i) {
    const std::string expected =
        std::string(kCommands[i].name) +
        (i + 1 < kCommands.size() ? "|" : "");
    EXPECT_EQ(list.compare(pos, expected.size(), expected), 0)
        << "command_list() out of order at '" << kCommands[i].name << "'";
    pos += expected.size();
  }
  EXPECT_EQ(pos, list.size());
}

// The bug this file exists for: `serve` (and friends) must never vanish
// from the advertised command set again.
TEST(CliUsage, KnownCommandsArePresent) {
  const std::string usage = usage_header();
  for (const char* name :
       {"world", "run", "generate", "analyze", "serve", "transip",
        "russia"}) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
}

// Runs `ddosrepro <args>`; returns its exit status and combined output.
std::pair<int, std::string> run_cli(const std::string& args) {
  const std::string cmd =
      std::string("'") + DDOSREPRO_BINARY + "' " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed"};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(CliUsage, BadIntegerFlagsExitTwoAndNameTheFlag) {
  for (const char* args : {"--domains -5", "--domains 0", "--domains 2000.9",
                           "--providers 0", "--seed 1.5"}) {
    const auto [status, out] = run_cli(std::string("world ") + args);
    EXPECT_EQ(status, 2) << args << "\n" << out;
    const std::string flag(args, std::string(args).find(' '));
    EXPECT_NE(out.find("flag " + flag + " expects an unsigned integer"),
              std::string::npos)
        << args << "\n" << out;
  }
}

TEST(CliUsage, SeedsBeyondTwoToThe53BuildDistinctWorlds) {
  const std::string world = "world --domains 2000 --providers 40 --seed ";
  const auto a = run_cli(world + "9007199254740992");  // 2^53
  const auto b = run_cli(world + "9007199254740993");  // 2^53 + 1
  ASSERT_EQ(a.first, 0) << a.second;
  ASSERT_EQ(b.first, 0) << b.second;
  EXPECT_NE(a.second, b.second);
}

}  // namespace
}  // namespace ddos::cli
