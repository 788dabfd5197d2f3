#ifndef RRQ_BENCH_BENCH_UTIL_H_
#define RRQ_BENCH_BENCH_UTIL_H_

// Small helpers shared by the experiment harnesses: fixed-width table
// printing (each bench binary regenerates one experiment table from
// DESIGN.md §3) and a wall-clock stopwatch.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace rrq::bench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  uint64_t ElapsedMicros() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Prints a fixed-width table: header row, separator, data rows.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        if (row[i].size() > widths[i]) widths[i] = row[i].size();
      }
    }
    auto print_row = [&widths](const std::vector<std::string>& row) {
      printf("|");
      for (size_t i = 0; i < widths.size(); ++i) {
        printf(" %-*s |", static_cast<int>(widths[i]),
               i < row.size() ? row[i].c_str() : "");
      }
      printf("\n");
    };
    print_row(headers_);
    printf("|");
    for (size_t width : widths) {
      printf("%s|", std::string(width + 2, '-').c_str());
    }
    printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double value, int precision = 1) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

/// Writes `json` to BENCH_<name>.json in the current working
/// directory. The committed BENCH_*.json records at the repository
/// root are never written by a run: updating one is a deliberate copy.
inline void WriteBenchJson(const std::string& name, const std::string& json) {
  const std::string path = "BENCH_" + name + ".json";
  FILE* out = fopen(path.c_str(), "w");
  if (out != nullptr) {
    fputs(json.c_str(), out);
    fclose(out);
    printf("\nwrote %s\n", path.c_str());
  }
}

}  // namespace rrq::bench

#endif  // RRQ_BENCH_BENCH_UTIL_H_
