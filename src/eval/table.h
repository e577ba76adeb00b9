#ifndef GEM_EVAL_TABLE_H_
#define GEM_EVAL_TABLE_H_

#include <string>
#include <vector>

#include "base/text_table.h"
#include "eval/evaluate.h"

namespace gem::eval {

/// Formats "0.98 (0.94, 1.00)" table cells.
std::string FormatSummary(const math::Summary& summary);

/// Formats a plain "0.98" cell.
std::string FormatValue(double value);

/// Appends the six aggregate metric cells in Table I order
/// (P_in R_in F_in P_out R_out F_out).
void AppendMetricCells(const AggregateMetrics& aggregate,
                       std::vector<std::string>& cells);

}  // namespace gem::eval

#endif  // GEM_EVAL_TABLE_H_
