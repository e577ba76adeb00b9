#ifndef GEM_EVAL_CSV_H_
#define GEM_EVAL_CSV_H_

#include <fstream>
#include <string>
#include <vector>

#include "base/status.h"

namespace gem::eval {

/// Minimal CSV writer used by the bench binaries to dump series for
/// external plotting. Values containing commas/quotes are quoted.
class CsvWriter {
 public:
  /// Opens (truncates) the file; check ok() before writing.
  explicit CsvWriter(const std::string& path);

  bool ok() const { return out_.good(); }

  void WriteRow(const std::vector<std::string>& cells);

  /// Convenience: header + typed numeric rows.
  void WriteHeader(const std::vector<std::string>& names) {
    WriteRow(names);
  }
  void WriteNumericRow(const std::vector<double>& values);

 private:
  std::ofstream out_;
};

/// Parses the "--csv <dir>" or "--csv=<dir>" flag shared by the bench
/// binaries. Returns the directory or an empty string when the flag is
/// absent.
std::string CsvDirFromArgs(int argc, char** argv);

/// The text after `prefix` (e.g. "--threads=") in the first argument
/// that starts with it; an empty string when no argument does.
std::string FlagValueFromArgs(int argc, char** argv, const char* prefix);

/// True when "--full" was passed (paper-scale repeats instead of the
/// fast defaults).
bool FullScaleFromArgs(int argc, char** argv);

}  // namespace gem::eval

#endif  // GEM_EVAL_CSV_H_
