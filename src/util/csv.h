// asyncmac/util/csv.h
//
// Tiny CSV writer for exporting benchmark series (one file per figure) so
// results can be re-plotted outside the harness.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace asyncmac::util {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  void add_row(const std::vector<std::string>& cells);

  template <typename... Ts>
  void row(const Ts&... values) {
    std::vector<std::string> cells;
    cells.reserve(sizeof...(values));
    (cells.push_back(to_cell(values)), ...);
    add_row(cells);
  }

  /// Flushes, then reports whether every row so far reached the file.
  bool ok() {
    out_.flush();
    return static_cast<bool>(out_);
  }

 private:
  // add_row quotes; to_cell only stringifies (escaping here would
  // double-quote every string cell on the row() path).
  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(const char* s) { return s; }
  template <typename T>
  static std::string to_cell(const T& v) {
    return std::to_string(v);
  }
  static std::string escape(const std::string& s);

  std::ofstream out_;
  std::size_t width_;
};

}  // namespace asyncmac::util
