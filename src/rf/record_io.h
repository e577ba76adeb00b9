#ifndef GEM_RF_RECORD_IO_H_
#define GEM_RF_RECORD_IO_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "rf/types.h"

namespace gem::rf {

/// Persists scan records as CSV so real-device scan logs can be fed to
/// the library and simulated datasets can be exported for inspection.
///
/// Format (one row per reading, records grouped by record_id):
///   record_id,timestamp_s,inside,mac,rss_dbm,band
/// `inside` is 1/0 ground truth (use 0 when unknown); band is "2.4" or
/// "5". A record with no readings is not representable and is skipped
/// on save.
Status SaveRecordsCsv(const std::string& path,
                      const std::vector<ScanRecord>& records);

/// Loads records saved by SaveRecordsCsv (or hand-written in the same
/// format). Rows sharing a record_id are grouped into one record, in
/// file order. Returns InvalidArgument on malformed rows.
StatusOr<std::vector<ScanRecord>> LoadRecordsCsv(const std::string& path);

}  // namespace gem::rf

#endif  // GEM_RF_RECORD_IO_H_
