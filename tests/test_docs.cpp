// The docs name only what exists. Every backticked `ns::Name` in the
// project's docs (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and
// the src/*/README.md module notes), for each of the library's 15
// namespaces, must match an identifier somewhere under src/, and every
// backticked repository path (src/, tests/, docs/, bench/, tools/,
// examples/, perfbench/) must exist in the tree. The history and paper
// files (CHANGES.md, ROADMAP.md, PAPER*.md, SNIPPETS.md) are not read:
// they record what was, not what is.
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

/// An inline code span of a doc: its text and the line it starts on.
struct Span {
  std::string text;
  std::ptrdiff_t line;
};

/// The inline code spans of `file`, outside fenced code blocks. A span
/// lies between the first and second backtick, the third and fourth, and
/// so on; it may wrap a line.
std::vector<Span> code_spans(const fs::path& file) {
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
  std::vector<std::size_t> ticks;
  for (std::size_t i = text.find('`'); i != std::string::npos;
       i = text.find('`', i + 1))
    ticks.push_back(i);
  std::vector<Span> spans;
  for (std::size_t k = 0; k + 1 < ticks.size(); k += 2) {
    const std::size_t from = ticks[k] + 1;
    const auto at = static_cast<std::ptrdiff_t>(from);
    spans.push_back({text.substr(from, ticks[k + 1] - from),
                     1 + std::count(text.begin(), text.begin() + at, '\n')});
  }
  return spans;
}

std::string where(const fs::path& file, const Span& span) {
  return fs::relative(file, kRoot).string() + ':' + std::to_string(span.line);
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
    for (const Span& s : code_spans(file)) {
      const std::string& span = s.text;
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
          EXPECT_TRUE(ids.count(name) != 0)
              << where(file, s) << ": `" << ns << "::" << name
              << "` names nothing under src/";
        }
        i = end;
      }
    }
  }
  EXPECT_GT(checked, 50u);
}

TEST(Docs, RepositoryPathsExist) {
  const std::vector<std::string> kRoots = {"src/",   "tests/",    "docs/",
                                           "bench/", "tools/",    "examples/",
                                           "perfbench/"};
  std::size_t checked = 0;
  for (const fs::path& file : docs()) {
    for (const Span& s : code_spans(file)) {
      // Each whitespace-separated word of the span that starts with a
      // repository root is a path, up to a `:line` suffix. A word holding
      // a glob or a placeholder (`*`, `<name>`) names no one file.
      std::istringstream words(s.text);
      std::string word;
      while (words >> word) {
        const bool rooted =
            std::any_of(kRoots.begin(), kRoots.end(), [&word](const auto& r) {
              return word.rfind(r, 0) == 0;
            });
        if (!rooted || word.find_first_of("*<") != std::string::npos)
          continue;
        const std::string path = word.substr(0, word.find(':'));
        ++checked;
        EXPECT_TRUE(fs::exists(kRoot / path))
            << where(file, s) << ": `" << path << "` is not in the tree";
      }
    }
  }
  EXPECT_GT(checked, 100u);
}

}  // namespace
