// The docs name only what exists. Every backticked `ns::Name` in the
// project's docs (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and
// the src/*/README.md module notes), for each of the library's 15
// namespaces, must match an identifier somewhere under src/. The
// history and paper files (CHANGES.md, ROADMAP.md, PAPER*.md,
// SNIPPETS.md) are not read: they record what was, not what is.
#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

namespace fs = std::filesystem;

const fs::path kRoot = ASYNCMAC_SOURCE_DIR;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool identifier_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// The end of the identifier-character run that starts at `i`.
std::size_t token_end(const std::string& text, std::size_t i) {
  while (i < text.size() && identifier_char(text[i])) ++i;
  return i;
}

/// Every identifier token of every source file under src/.
std::set<std::string> source_identifiers() {
  std::set<std::string> ids;
  for (const auto& entry : fs::recursive_directory_iterator(kRoot / "src")) {
    const fs::path ext = entry.path().extension();
    if (ext != ".h" && ext != ".cpp") continue;
    const std::string text = read_file(entry.path());
    for (std::size_t i = 0; i < text.size();) {
      const std::size_t end = token_end(text, i);
      if (end == i) {
        ++i;
        continue;
      }
      ids.insert(text.substr(i, end - i));
      i = end;
    }
  }
  return ids;
}

std::vector<fs::path> docs() {
  std::vector<fs::path> out = {kRoot / "README.md", kRoot / "DESIGN.md",
                               kRoot / "EXPERIMENTS.md"};
  for (const auto& entry : fs::directory_iterator(kRoot / "docs"))
    if (entry.path().extension() == ".md") out.push_back(entry.path());
  for (const auto& entry : fs::directory_iterator(kRoot / "src"))
    if (fs::exists(entry.path() / "README.md"))
      out.push_back(entry.path() / "README.md");
  return out;
}

TEST(Docs, NamespacedNamesExistInTheSources) {
  const std::set<std::string> kNamespaces = {
      "snapshot", "util", "telemetry", "energy", "channel", "sim", "metrics",
      "trace", "adversary", "analysis", "core", "baselines", "verify",
      "sweep", "live"};
  const std::set<std::string> ids = source_identifiers();
  const std::vector<fs::path> files = docs();
  EXPECT_GE(files.size(), 20u);
  std::size_t checked = 0;
  for (const fs::path& file : files) {
    std::istringstream lines(read_file(file));
    std::string line;
    std::string text;  // the file outside fenced code blocks
    bool fenced = false;
    while (std::getline(lines, line)) {
      if (line.rfind("```", 0) == 0) {
        fenced = !fenced;
        line.clear();
      }
      text += (fenced ? std::string() : line) + '\n';
    }
    // Inline code spans lie between the first and second backtick, the
    // third and fourth, and so on; a span may wrap a line.
    std::vector<std::size_t> ticks;
    for (std::size_t i = text.find('`'); i != std::string::npos;
         i = text.find('`', i + 1))
      ticks.push_back(i);
    for (std::size_t k = 0; k + 1 < ticks.size(); k += 2) {
      const std::size_t from = ticks[k] + 1;
      const std::string span = text.substr(from, ticks[k + 1] - from);
      // `ns::Name`: a whole token ns, then "::", then the token Name.
      for (std::size_t i = 0; i < span.size();) {
        const std::size_t end = token_end(span, i);
        if (end == i) {
          ++i;
          continue;
        }
        const std::string ns = span.substr(i, end - i);
        const std::size_t name_end = token_end(span, end + 2);
        if (kNamespaces.count(ns) != 0 && span.compare(end, 2, "::") == 0 &&
            name_end > end + 2) {
          ++checked;
          const std::string name = span.substr(end + 2, name_end - end - 2);
          const auto at = static_cast<std::ptrdiff_t>(from + i);
          const auto line_no =
              1 + std::count(text.begin(), text.begin() + at, '\n');
          EXPECT_TRUE(ids.count(name) != 0)
              << fs::relative(file, kRoot).string() << ':' << line_no
              << ": `" << ns << "::" << name << "` names nothing under src/";
        }
        i = end;
      }
    }
  }
  EXPECT_GT(checked, 50u);
}

}  // namespace
