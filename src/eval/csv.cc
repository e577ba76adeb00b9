#include "eval/csv.h"

#include <cstdio>
#include <cstring>

namespace gem::eval {

CsvWriter::CsvWriter(const std::string& path) : out_(path) {}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out_ << ',';
    const std::string& cell = cells[i];
    if (cell.find_first_of(",\"\n") != std::string::npos) {
      out_ << '"';
      for (char c : cell) {
        if (c == '"') out_ << '"';
        out_ << c;
      }
      out_ << '"';
    } else {
      out_ << cell;
    }
  }
  out_ << '\n';
}

void CsvWriter::WriteNumericRow(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    cells.emplace_back(buf);
  }
  WriteRow(cells);
}

std::string CsvDirFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--csv=", 6) == 0) return argv[i] + 6;
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) return argv[i + 1];
  }
  return "";
}

std::string FlagValueFromArgs(int argc, char** argv, const char* prefix) {
  const size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) return argv[i] + len;
  }
  return "";
}

bool FullScaleFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) return true;
  }
  return false;
}

}  // namespace gem::eval
